//! The chaos soak: hundreds of requests through a live daemon under every
//! service-layer fault kind `serr-inject` defines, asserting the service's
//! core invariant — **zero lost requests**. Every request reaches exactly
//! one typed terminal state (`result` | `degraded` | `shed` | `error`),
//! the server-side terminal ledger records no double-completion, and every
//! clean result is bit-identical to the batch CLI's own computation path.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serr_core::experiments::ExperimentConfig;
use serr_core::prelude::{
    FaultKind, FaultPlan, MonteCarloConfig, RawErrorRate, SamplerKind, Validator,
    VulnerabilityTrace, WorkloadSpec,
};
use serr_inject::ServeFault;
use serr_obs::Obs;

use crate::client::Client;
use crate::protocol::{Estimate, Request, RequestBody, Response, MAX_FRAME_BYTES};
use crate::server::{Bind, ServeConfig, Server};

/// A fresh scratch directory for one test; unix socket paths must stay
/// short, so these live directly under the system temp dir.
pub(crate) fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serr-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The canonical spelling of a body, as the server keys its cache and
/// journals.
pub(crate) fn canonical_of(body: &RequestBody) -> String {
    Request { id: 0, deadline_ms: None, tag: None, body: body.clone() }.body_canonical()
}

/// Runs the exact estimation path `serr mttf` / `serr sofr` run — the
/// reference the service must match bit for bit.
pub(crate) fn direct_estimate(body: &RequestBody, threads: usize) -> Estimate {
    let cfg = ExperimentConfig::cli();
    let (workload, rate_per_year, trials, sampler) = match body {
        RequestBody::Mttf { workload, rate_per_year, trials, sampler }
        | RequestBody::Sofr { workload, rate_per_year, trials, sampler, .. } => {
            (workload, *rate_per_year, *trials, *sampler)
        }
        RequestBody::Sweep { .. } | RequestBody::Stats | RequestBody::Shutdown => {
            unreachable!("single-point estimation bodies only")
        }
    };
    let trace = workload.trace(&cfg).expect("trace builds");
    let rate = RawErrorRate::try_per_year(rate_per_year).expect("positive rate");
    let mc = MonteCarloConfig { trials, threads, sampler, deadline: None, ..Default::default() };
    let v = Validator::new(cfg.frequency, mc);
    let (avf, mttf_step_s, mc_est, provenance) = match body {
        RequestBody::Mttf { .. } => {
            let r = v.component(&*trace, rate).expect("component validation");
            (r.avf, r.mttf_avf.as_secs(), r.mttf_mc, r.provenance)
        }
        RequestBody::Sofr { components, .. } => {
            let r = v
                .system_identical(Arc::clone(&trace), rate, *components)
                .expect("system validation");
            (trace.avf(), r.mttf_sofr.as_secs(), r.mttf_mc, r.provenance)
        }
        RequestBody::Sweep { .. } | RequestBody::Stats | RequestBody::Shutdown => {
            unreachable!("gated above")
        }
    };
    Estimate {
        mttf_mc_s: mc_est.mttf.as_secs(),
        rel_ci95: mc_est.relative_ci95(),
        mttf_step_s,
        avf,
        provenance: provenance.label().to_owned(),
        sampler: mc_est.sampler.label().to_owned(),
        trials_done: mc_est.ttf_seconds.count,
        truncated: mc_est.truncated,
        resumed: false,
    }
}

/// Fetches the service counters over the wire.
pub(crate) fn stats(client: &mut Client, id: u64) -> Vec<(String, u64)> {
    let req = Request { id, deadline_ms: None, tag: None, body: RequestBody::Stats };
    match client.roundtrip(&req).expect("stats io").expect("stats response") {
        Response::Stats { counters, .. } => counters,
        other => panic!("expected stats, got {other:?}"),
    }
}

pub(crate) fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
}

/// Polls the stats endpoint until `name` reaches `at_least`.
pub(crate) fn wait_for_counter(client: &mut Client, name: &str, at_least: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if counter(&stats(client, 0), name) >= at_least {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {name} >= {at_least}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

pub(crate) fn shut_down(client: &mut Client, server: Server) {
    let req = Request { id: 999_999, deadline_ms: None, tag: None, body: RequestBody::Shutdown };
    let ack = client.roundtrip(&req).expect("shutdown io").expect("shutdown ack");
    assert!(matches!(ack, Response::ShutdownAck { .. }), "got {ack:?}");
    server.wait();
}

/// Every request in the soak carries a distinct body (the rate varies with
/// the index) so none short-circuits through the resume map — each one
/// exercises the full admission → worker pipeline under injected faults.
fn body_for(i: u64) -> RequestBody {
    let workloads = ["duty:0.002:0.5", "duty:0.004:0.25", "duty:0.001:0.75", "duty:0.003:0.4"];
    let workload = WorkloadSpec::parse(workloads[(i % 4) as usize]).expect("valid spec");
    let rate_per_year = 1e6 * (1.0 + i as f64 / 100.0);
    if i % 3 == 0 {
        RequestBody::Sofr {
            workload,
            rate_per_year,
            components: 4,
            trials: 600,
            sampler: SamplerKind::default(),
        }
    } else {
        RequestBody::Mttf { workload, rate_per_year, trials: 600, sampler: SamplerKind::default() }
    }
}

/// Client-side frame corruption for the `serve-frame-corrupt` campaign:
/// either a line past the frame byte bound or garbage mid-frame. Both must
/// come back as a typed `error` on the same connection.
fn corrupt_frame(line: &str, oversized: bool) -> String {
    if oversized {
        format!("{line}{}", " ".repeat(MAX_FRAME_BYTES + 1))
    } else {
        let mut s = line.to_owned();
        s.replace_range(1..9, "#garbage");
        s
    }
}

/// Delivers one request under the campaign's fault plan and returns its
/// exactly-one typed response. A torn response (injected socket drop) is
/// followed by reconnect + re-request, which the server answers from the
/// results journal (`resumed: true`) rather than recomputing.
fn deliver(client: &mut Client, bind: &Bind, plan: &FaultPlan, req: &Request, i: u64) -> Response {
    if let Some(ServeFault::FrameCorrupt { oversized }) = plan.serve_fault(i) {
        let line = corrupt_frame(&req.to_line(), oversized);
        client.send_line(&line).expect("send corrupted frame");
        let line = client.recv_line().expect("recv").expect("typed error for corrupt frame");
        return Response::parse(&line).expect("error response parses");
    }
    match client.roundtrip(req).expect("request io") {
        Some(resp) => resp,
        None => {
            // The connection died mid-response. The terminal state is
            // already recorded server-side; re-request under a fresh tag.
            for _ in 0..5 {
                *client = Client::connect(bind).expect("reconnect");
                let retry =
                    Request { id: req.id, deadline_ms: None, tag: None, body: req.body.clone() };
                if let Some(resp) = client.roundtrip(&retry).expect("retry io") {
                    return resp;
                }
            }
            panic!("request {i}: response torn repeatedly with no resumable result");
        }
    }
}

/// One fault campaign: `n` requests against a live daemon injecting `kind`,
/// returning the final counters. Clean results accumulate into `results`
/// for the cross-campaign bit-parity check.
fn soak_one_kind(
    kind: FaultKind,
    n: u64,
    results: &mut Vec<(String, Estimate)>,
    bodies: &mut HashMap<String, RequestBody>,
) -> Vec<(String, u64)> {
    let dir = temp_dir(&format!("soak-{}", kind.label()));
    let plan = FaultPlan::new(77, kind);
    let (obs, _sink) = Obs::memory();
    let mut cfg = ServeConfig::new(Bind::Unix(dir.join("sock")));
    cfg.chaos = Some(plan);
    cfg.journal_dir = Some(dir.join("journal"));
    cfg.obs = obs;
    cfg.mc_threads = 1;
    let server = Server::start(cfg).expect("server starts");
    let bind = server.bind_addr().clone();
    let mut client = Client::connect(&bind).expect("connect");

    let mut states: HashMap<&'static str, u64> = HashMap::new();
    for i in 0..n {
        let body = body_for(i);
        let canon = canonical_of(&body);
        bodies.entry(canon.clone()).or_insert_with(|| body.clone());
        let req = Request { id: i, deadline_ms: None, tag: Some(i), body };
        let resp = deliver(&mut client, &bind, &plan, &req, i);
        let state = resp.state();
        assert!(
            matches!(state, "result" | "degraded" | "shed" | "error"),
            "request {i} under {kind:?}: non-terminal state {state}"
        );
        *states.entry(state).or_insert(0) += 1;
        if let Response::Estimate { est, .. } = resp {
            if est.state() == "result" {
                results.push((canon, est));
            }
        }
    }
    // Zero lost requests: every one of the n reached exactly one typed
    // terminal state client-side, and the server's ledger saw no request
    // reach two.
    assert_eq!(
        states.values().sum::<u64>(),
        n,
        "every request terminates exactly once under {kind:?}"
    );
    let counters = stats(&mut client, 1_000_000);
    assert_eq!(
        counter(&counters, "serve.double_terminal"),
        0,
        "double terminal under {kind:?}: {counters:?}"
    );
    match kind {
        FaultKind::ServeWorkerPanic => {
            let panics = counter(&counters, "serve.injected_panics");
            assert!(panics >= 1, "{counters:?}");
            // The worker answers its request *before* dying, so the final
            // restart may still be in flight when the client reads stats;
            // the supervisor must catch up to one restart per panic.
            wait_for_counter(&mut client, "serve.worker_restarts", panics);
            assert!(*states.get("error").unwrap_or(&0) >= 1, "{states:?}");
        }
        FaultKind::ServeWorkerStall => {
            assert!(counter(&counters, "serve.injected_stalls") >= 1, "{counters:?}");
            // A stall delays a request but never changes its answer.
            assert_eq!(*states.get("result").unwrap_or(&0), n, "{states:?}");
        }
        FaultKind::ServeFrameCorrupt => {
            assert!(*states.get("error").unwrap_or(&0) >= 1, "{states:?}");
            // Corrupt frames die at the reader; no worker ever sees one.
            assert_eq!(counter(&counters, "serve.worker_restarts"), 0, "{counters:?}");
        }
        FaultKind::ServeSocketDrop => {
            assert!(counter(&counters, "serve.injected_drops") >= 1, "{counters:?}");
            assert!(
                counter(&counters, "serve.resumed") >= 1,
                "torn responses are re-served from the journal: {counters:?}"
            );
        }
        _ => unreachable!("FaultKind::SERVE only"),
    }
    shut_down(&mut client, server);
    counters
}

#[test]
fn chaos_soak_zero_lost_requests_under_every_serve_fault_kind() {
    const PER_KIND: u64 = 50;
    let mut results: Vec<(String, Estimate)> = Vec::new();
    let mut bodies: HashMap<String, RequestBody> = HashMap::new();
    let mut total_requests = 0;
    for kind in FaultKind::SERVE {
        let counters = soak_one_kind(kind, PER_KIND, &mut results, &mut bodies);
        total_requests += counter(&counters, "serve.requests");
    }
    assert!(total_requests >= 200, "soak volume: {total_requests} requests");
    assert!(!results.is_empty(), "the soak must produce clean results to parity-check");

    // No Clean-tagged deviating result: every clean estimate the service
    // returned — across campaigns, including resumed ones — matches the
    // batch computation path bit for bit.
    let mut direct: HashMap<String, Estimate> = HashMap::new();
    for (canon, body) in &bodies {
        direct.insert(canon.clone(), direct_estimate(body, 0));
    }
    for (canon, est) in &results {
        let d = &direct[canon];
        assert_eq!(est.provenance, "clean", "{canon}");
        assert_eq!(est.mttf_mc_s.to_bits(), d.mttf_mc_s.to_bits(), "MC MTTF for {canon}");
        assert_eq!(est.rel_ci95.to_bits(), d.rel_ci95.to_bits(), "CI for {canon}");
        assert_eq!(est.mttf_step_s.to_bits(), d.mttf_step_s.to_bits(), "step MTTF for {canon}");
        assert_eq!(est.avf.to_bits(), d.avf.to_bits(), "AVF for {canon}");
        assert_eq!(est.trials_done, d.trials_done, "trials for {canon}");
    }
}

#[test]
fn service_estimates_are_bit_identical_across_thread_counts_and_transports() {
    let body = RequestBody::Mttf {
        workload: WorkloadSpec::parse("duty:0.002:0.5").expect("valid spec"),
        rate_per_year: 1e6,
        trials: 1_000,
        sampler: SamplerKind::default(),
    };
    let mut seen: Vec<Estimate> = Vec::new();
    for threads in [1usize, 8] {
        let dir = temp_dir(&format!("parity-{threads}"));
        // One campaign per transport: unix at 1 thread, TCP at 8.
        let bind = if threads == 1 {
            Bind::Unix(dir.join("sock"))
        } else {
            Bind::Tcp("127.0.0.1:0".to_owned())
        };
        let mut cfg = ServeConfig::new(bind);
        cfg.mc_threads = threads;
        let server = Server::start(cfg).expect("server starts");
        let addr = server.bind_addr().clone();
        let mut client = Client::connect(&addr).expect("connect");
        let req = Request { id: 1, deadline_ms: None, tag: Some(1), body: body.clone() };
        let resp = client.roundtrip(&req).expect("io").expect("response");
        match resp {
            Response::Estimate { id: 1, est } => {
                assert_eq!(est.state(), "result", "{est:?}");
                seen.push(est);
            }
            other => panic!("expected estimate, got {other:?}"),
        }
        shut_down(&mut client, server);
    }
    let direct = direct_estimate(&body, 0);
    for est in &seen {
        assert_eq!(est.mttf_mc_s.to_bits(), direct.mttf_mc_s.to_bits());
        assert_eq!(est.rel_ci95.to_bits(), direct.rel_ci95.to_bits());
        assert_eq!(est.mttf_step_s.to_bits(), direct.mttf_step_s.to_bits());
        assert_eq!(est.avf.to_bits(), direct.avf.to_bits());
        assert_eq!(est.trials_done, direct.trials_done);
    }
}
