//! Graceful-shutdown drain and restart-resume: a request still in flight
//! when shutdown begins is journaled (and answered with a typed `shed`),
//! and a fresh server on the same journal directory — same configuration
//! fingerprint — replays it at startup, so a re-request is answered from
//! the results journal (`resumed: true`) bit-identically to the batch
//! computation path instead of being recomputed.

use serr_core::prelude::{SamplerKind, WorkloadSpec};
use serr_obs::Obs;

use crate::client::Client;
use crate::protocol::{Request, RequestBody, Response};
use crate::server::{Bind, ServeConfig, Server};
use crate::soak::{
    canonical_of, counter, direct_estimate, shut_down, stats, temp_dir, wait_for_counter,
};

#[test]
fn shutdown_drains_in_flight_work_and_a_fresh_server_resumes_bit_identically() {
    let dir = temp_dir("drain");
    let journal = dir.join("journal");
    let body = RequestBody::Mttf {
        workload: WorkloadSpec::parse("duty:0.002:0.5").expect("valid spec"),
        rate_per_year: 2e6,
        trials: 1_500,
        sampler: SamplerKind::default(),
    };

    // Server A runs zero workers: admitted work parks in the ingress queue
    // until the drain journals it.
    let (obs_a, _sink_a) = Obs::memory();
    let mut cfg = ServeConfig::new(Bind::Unix(dir.join("a.sock")));
    cfg.workers = 0;
    cfg.journal_dir = Some(journal.clone());
    cfg.obs = obs_a;
    let a = Server::start(cfg).expect("server A starts");
    let bind_a = a.bind_addr().clone();

    let mut job_client = Client::connect(&bind_a).expect("connect A");
    let req = Request { id: 1, deadline_ms: None, tag: Some(7), body: body.clone() };
    job_client.send_line(&req.to_line()).expect("send request");

    let mut ctl = Client::connect(&bind_a).expect("control connect A");
    // Once admitted, the job sits in the ingress queue with nobody to pop
    // it — exactly the in-flight state drain must save.
    wait_for_counter(&mut ctl, "serve.admitted", 1);
    let shutdown = Request { id: 2, deadline_ms: None, tag: None, body: RequestBody::Shutdown };
    let ack = ctl.roundtrip(&shutdown).expect("shutdown io").expect("shutdown ack");
    assert!(matches!(ack, Response::ShutdownAck { .. }), "got {ack:?}");

    // The drain answers the parked request with a typed shed naming the
    // journal, not silence and not a dropped connection.
    let line = job_client.recv_line().expect("recv").expect("drain sends a full line");
    let shed = Response::parse(&line).expect("shed response parses");
    match &shed {
        Response::Shed { id: 1, reason } => {
            assert!(reason.contains("journaled"), "shed reason: {reason}");
        }
        other => panic!("expected shed for the parked request, got {other:?}"),
    }
    a.wait();

    // Server B: same journal directory, hence the same configuration
    // fingerprint, with real workers. Startup replays the pending journal.
    let (obs_b, _sink_b) = Obs::memory();
    let mut cfg = ServeConfig::new(Bind::Unix(dir.join("b.sock")));
    cfg.journal_dir = Some(journal);
    cfg.obs = obs_b;
    cfg.mc_threads = 1;
    let b = Server::start(cfg).expect("server B starts");
    let bind_b = b.bind_addr().clone();
    let mut ctl_b = Client::connect(&bind_b).expect("connect B");
    wait_for_counter(&mut ctl_b, "serve.replayed_pending", 1);
    wait_for_counter(&mut ctl_b, "serve.results_published", 1);

    let retry = Request { id: 3, deadline_ms: None, tag: Some(9), body: body.clone() };
    let resp = ctl_b.roundtrip(&retry).expect("retry io").expect("retry response");
    let est = match resp {
        Response::Estimate { id: 3, est } => est,
        other => panic!("expected the resumed estimate, got {other:?}"),
    };
    assert!(est.resumed, "answered from the results journal, not recomputed");
    assert!(!est.truncated);
    assert_eq!(est.provenance, "clean");

    let direct = direct_estimate(&body, 0);
    assert_eq!(
        est.mttf_mc_s.to_bits(),
        direct.mttf_mc_s.to_bits(),
        "resumed estimate is bit-identical to the batch path"
    );
    assert_eq!(est.rel_ci95.to_bits(), direct.rel_ci95.to_bits());
    assert_eq!(est.mttf_step_s.to_bits(), direct.mttf_step_s.to_bits());
    assert_eq!(est.avf.to_bits(), direct.avf.to_bits());
    assert_eq!(est.trials_done, direct.trials_done);

    let counters = stats(&mut ctl_b, 4);
    assert!(counter(&counters, "serve.resumed") >= 1, "{counters:?}");
    assert_eq!(counter(&counters, "serve.double_terminal"), 0, "{counters:?}");
    shut_down(&mut ctl_b, b);
}

#[test]
fn corrupt_results_journal_resets_and_the_server_still_starts() {
    let dir = temp_dir("journal-reset");
    let journal = dir.join("journal");
    let body = RequestBody::Mttf {
        workload: WorkloadSpec::parse("duty:0.002:0.5").expect("valid spec"),
        rate_per_year: 2e6,
        trials: 1_500,
        sampler: SamplerKind::default(),
    };

    // Server A computes one estimate into the results journal.
    let (obs_a, _sink_a) = Obs::memory();
    let mut cfg = ServeConfig::new(Bind::Unix(dir.join("a.sock")));
    cfg.journal_dir = Some(journal.clone());
    cfg.obs = obs_a;
    cfg.mc_threads = 1;
    let a = Server::start(cfg).expect("server A starts");
    let mut ctl = Client::connect(a.bind_addr()).expect("connect A");
    let req = Request { id: 1, deadline_ms: None, tag: None, body: body.clone() };
    let first = match ctl.roundtrip(&req).expect("io").expect("response") {
        Response::Estimate { est, .. } => est,
        other => panic!("expected estimate, got {other:?}"),
    };
    assert!(!first.resumed);
    shut_down(&mut ctl, a);

    // Damage the results journal's store header in place — a file a reader
    // must refuse wholesale, not misparse.
    let results = std::fs::read_dir(&journal)
        .expect("journal dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.extension().is_some_and(|x| x == "store")
                && p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("serve-results"))
        })
        .expect("results journal exists");
    let mut bytes = std::fs::read(&results).expect("read journal");
    bytes[2] ^= 0x20; // magic byte
    std::fs::write(&results, &bytes).expect("write corruption");

    // Server B must start anyway — the journal is reset, counted, and the
    // request recomputes instead of resuming from unverifiable bytes.
    let (obs_b, _sink_b) = Obs::memory();
    let mut cfg = ServeConfig::new(Bind::Unix(dir.join("b.sock")));
    cfg.journal_dir = Some(journal);
    cfg.obs = obs_b;
    cfg.mc_threads = 1;
    let b = Server::start(cfg).expect("server B starts despite the corrupt journal");
    let mut ctl_b = Client::connect(b.bind_addr()).expect("connect B");
    let retry = Request { id: 2, deadline_ms: None, tag: None, body };
    let est = match ctl_b.roundtrip(&retry).expect("io").expect("response") {
        Response::Estimate { est, .. } => est,
        other => panic!("expected estimate, got {other:?}"),
    };
    assert!(!est.resumed, "nothing may resume from a reset journal");
    assert_eq!(
        est.mttf_mc_s.to_bits(),
        first.mttf_mc_s.to_bits(),
        "recomputed estimate is still bit-identical"
    );
    let counters = stats(&mut ctl_b, 3);
    assert!(counter(&counters, "serve.journal_resets") >= 1, "{counters:?}");
    shut_down(&mut ctl_b, b);
}

#[test]
fn an_unparsable_pending_body_is_dropped_with_a_warning_and_the_rest_replays() {
    use serr_core::checkpoint::Journal;
    use serr_core::jsonio::Json;

    let dir = temp_dir("replay-drop");
    let journal = dir.join("journal");
    let body = RequestBody::Mttf {
        workload: WorkloadSpec::parse("duty:0.002:0.5").expect("valid spec"),
        rate_per_year: 2e6,
        trials: 1_500,
        sampler: SamplerKind::default(),
    };
    let valid = body.canonical();
    // A pending row journaled under the retired scalar sampler label no
    // longer parses as a request.
    let retired = valid.replace(r#""sampler":"batched-inversion""#, r#""sampler":"inversion""#);
    assert_ne!(retired, valid);

    let (obs, sink) = Obs::memory();
    let mut cfg = ServeConfig::new(Bind::Unix(dir.join("s.sock")));
    {
        let fp = crate::server::journal_fingerprint(&cfg.experiment);
        let pending = Journal::open(&journal, "serve-pending", fp, false).expect("pending opens");
        for (i, b) in [&retired, &valid].into_iter().enumerate() {
            let row = Json::Obj(vec![("body".to_owned(), Json::Str(b.clone()))]);
            pending.record(i, &row).expect("pending row records");
        }
    }
    cfg.journal_dir = Some(journal);
    cfg.obs = obs;
    cfg.mc_threads = 1;
    let server = Server::start(cfg).expect("server starts");
    let mut ctl = Client::connect(server.bind_addr()).expect("connect");
    wait_for_counter(&mut ctl, "serve.results_published", 1);

    let counters = stats(&mut ctl, 1);
    assert_eq!(counter(&counters, "serve.replay_dropped"), 1, "{counters:?}");
    assert_eq!(counter(&counters, "serve.replayed_pending"), 1, "{counters:?}");
    let dropped = sink.events_of("serve.replay_dropped");
    assert_eq!(dropped.len(), 1);
    assert_eq!(dropped[0].level, serr_obs::Level::Warn);
    assert_eq!(dropped[0].seq, 0, "keyed by the pending row's replay index");

    // The valid body replayed into the results journal.
    let retry = Request { id: 2, deadline_ms: None, tag: None, body };
    match ctl.roundtrip(&retry).expect("retry io").expect("retry response") {
        Response::Estimate { est, .. } => assert!(est.resumed, "the valid body replayed"),
        other => panic!("expected the replayed estimate, got {other:?}"),
    }
    shut_down(&mut ctl, server);
}

#[test]
fn a_results_journal_from_an_older_draw_schedule_is_not_resumed() {
    use serr_core::checkpoint::{fingerprint, Journal};
    use serr_core::jsonio::Json;

    let dir = temp_dir("stale-schedule");
    let journal = dir.join("journal");
    let body = RequestBody::Mttf {
        workload: WorkloadSpec::parse("duty:0.002:0.5").expect("valid spec"),
        rate_per_year: 2e6,
        trials: 1_500,
        sampler: SamplerKind::default(),
    };
    let (obs, _sink) = Obs::memory();
    let mut cfg = ServeConfig::new(Bind::Unix(dir.join("s.sock")));

    // The fingerprint before the draw-schedule version joined it: a
    // results journal a schedule-v1 daemon wrote. Its row carries an
    // estimate no estimator produces, so answering from it is unmistakable.
    let mut canon = cfg.experiment;
    canon.mc.threads = 0;
    let stale_fp = fingerprint(&["serve", &format!("{canon:?}")]);
    assert_ne!(stale_fp, crate::server::journal_fingerprint(&cfg.experiment));
    {
        let results =
            Journal::open(&journal, "serve-results", stale_fp, false).expect("results opens");
        let mut stale = direct_estimate(&body, 1);
        stale.mttf_mc_s = 1.0;
        let mut fields = vec![("body".to_owned(), Json::Str(canonical_of(&body)))];
        fields.extend(stale.to_fields());
        results.record(0, &Json::Obj(fields)).expect("stale row records");
    }
    cfg.journal_dir = Some(journal);
    cfg.obs = obs;
    cfg.mc_threads = 1;
    let server = Server::start(cfg).expect("server starts");
    let mut ctl = Client::connect(server.bind_addr()).expect("connect");

    let req = Request { id: 1, deadline_ms: None, tag: None, body: body.clone() };
    let est = match ctl.roundtrip(&req).expect("io").expect("response") {
        Response::Estimate { est, .. } => est,
        other => panic!("expected estimate, got {other:?}"),
    };
    assert!(!est.resumed, "a stale-schedule row must not answer");
    assert_eq!(est.mttf_mc_s.to_bits(), direct_estimate(&body, 1).mttf_mc_s.to_bits());
    let counters = stats(&mut ctl, 2);
    assert_eq!(counter(&counters, "serve.journal_results_loaded"), 0, "{counters:?}");
    shut_down(&mut ctl, server);
}
