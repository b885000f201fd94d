//! Fixed smoke benchmark with machine-readable output.
//!
//! This binary runs a small, fixed set of engine timings (Monte Carlo on a
//! fine-grained trace, the sampler duel against the event-loop oracle)
//! plus a shared-stream sweep-kernel duel, one figure sweep, a
//! checkpoint/chaos probe, a `serr serve` service probe, a
//! timing-simulator probe, an exact-reference probe, a Monte Carlo
//! kernel probe on the SPEC traces and the tiled `combined` trace and a
//! mass-transform tier probe on the `day` trace (all four recorded, not
//! gated), and writes the results as JSON to `BENCH_engines.json`
//! at the repository root, so successive PRs leave a perf trajectory that
//! tooling can diff.
//!
//! Usage: `cargo run --release -p serr-bench --bin bench_smoke [out.json]`

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serr_analytic::renewal::renewal_mttfs;
use serr_core::checkpoint::{fingerprint, Journal};
use serr_core::design::C_VALUES;
use serr_core::experiments::{
    combined_trace, fig5_sweep, spec_processor_trace, synthesized_trace, ExperimentConfig,
};
use serr_core::figures::{FIG5_N_S, FIG6A_N_S};
use serr_core::jsonio::Json;
use serr_core::pipeline::{
    load_cache_entry_mmap, load_cache_entry_read, simulate_benchmark, write_cache_entry,
};
use serr_core::prelude::{
    run_chaos, ChaosConfig, ProtectionSpec, Provenance, SweepOptions, Validator, Workload,
    WorkloadSpec,
};
use serr_inject::{FaultKind, FaultPlan};
use serr_mc::sampler::sample_time_to_failure;
use serr_mc::{compile_for_sampling, MonteCarlo, MonteCarloConfig, SamplerKind};
use serr_obs::{Event, Obs, Value};
use serr_serve::{Bind, Client, Request, RequestBody, Response, ServeConfig, Server};
use serr_sim::{SimConfig, Simulator};
use serr_softarch::SoftArch;
use serr_trace::{CompiledTrace, IntervalTrace, VulnerabilityTrace};
use serr_types::{Frequency, RawErrorRate};
use serr_workload::{BenchmarkProfile, TraceGenerator};

/// Pulls a numeric field out of an event, NaN if absent or non-numeric.
fn field_f64(e: &Event, key: &str) -> f64 {
    e.fields
        .iter()
        .find_map(|(k, v)| {
            (*k == key).then(|| match v {
                Value::F64(x) => *x,
                Value::U64(n) => *n as f64,
                _ => f64::NAN,
            })
        })
        .unwrap_or(f64::NAN)
}

struct Timing {
    name: &'static str,
    iterations: u32,
    mean_ms: f64,
    min_ms: f64,
}

/// Times `f` over `iters` iterations after one untimed warmup.
fn time<R>(name: &'static str, iters: u32, mut f: impl FnMut() -> R) -> Timing {
    std::hint::black_box(f());
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        total += dt;
        min = min.min(dt);
    }
    Timing { name, iterations: iters, mean_ms: total / f64::from(iters), min_ms: min }
}

/// Times `f` and `g` interleaved over `rounds` rounds, alternating which
/// runs first, and returns both timings plus the median over rounds of
/// `g`'s time over `f`'s. Each ratio pairs two runs from the same moment,
/// and the median ignores rounds a preemption hit; comparing two minimums
/// taken in back-to-back blocks instead read identical work as anything
/// from -25% to +24% apart.
fn time_pair<R, S>(
    names: (&'static str, &'static str),
    rounds: u32,
    mut f: impl FnMut() -> R,
    mut g: impl FnMut() -> S,
) -> (Timing, Timing, f64) {
    fn sample<T>(run: &mut impl FnMut() -> T) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(run());
        t0.elapsed().as_secs_f64() * 1e3
    }
    std::hint::black_box(f());
    std::hint::black_box(g());
    let (mut fs, mut gs) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        if round % 2 == 0 {
            fs.push(sample(&mut f));
            gs.push(sample(&mut g));
        } else {
            gs.push(sample(&mut g));
            fs.push(sample(&mut f));
        }
    }
    let mut ratios: Vec<f64> = fs.iter().zip(&gs).map(|(a, b)| b / a).collect();
    ratios.sort_by(f64::total_cmp);
    let timing = |name, ms: &[f64]| Timing {
        name,
        iterations: rounds,
        mean_ms: ms.iter().sum::<f64>() / f64::from(rounds),
        min_ms: ms.iter().copied().fold(f64::INFINITY, f64::min),
    };
    (timing(names.0, &fs), timing(names.1, &gs), ratios[ratios.len() / 2])
}

/// A unique estimation request for the service probe: the duty-cycle
/// spelling varies the workload and the rate varies with `i`, so no two
/// requests share a canonical body and none short-circuits through the
/// daemon's resume map.
fn serve_request(i: u64, trials: u64) -> Request {
    let duty = ["duty:0.002:0.5", "duty:0.004:0.25", "duty:0.001:0.75", "duty:0.003:0.4"]
        [usize::try_from(i % 4).expect("i % 4 fits usize")];
    Request {
        id: i,
        deadline_ms: None,
        tag: Some(i),
        body: RequestBody::Mttf {
            workload: WorkloadSpec::parse(duty).expect("duty workload parses"),
            rate_per_year: 1.0e6 * (1.0 + i as f64 / 100.0),
            trials,
            sampler: SamplerKind::default(),
        },
    }
}

/// Snapshot of the daemon's counters via a `stats` request.
fn serve_stats(client: &mut Client) -> Vec<(String, u64)> {
    let resp = client
        .roundtrip(&Request { id: 9_999, deadline_ms: None, tag: None, body: RequestBody::Stats })
        .expect("stats io")
        .expect("stats response");
    match resp {
        Response::Stats { counters, .. } => counters,
        other => panic!("stats request answered with {other:?}"),
    }
}

fn serve_counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters.iter().find(|(k, _)| k == name).map_or(0, |&(_, v)| v)
}

/// Graceful shutdown: request, assert the ack, and join the daemon.
fn shut_down_service(client: &mut Client, server: Server) {
    let ack = client
        .roundtrip(&Request { id: 0, deadline_ms: None, tag: None, body: RequestBody::Shutdown })
        .expect("shutdown io")
        .expect("shutdown ack");
    assert!(matches!(ack, Response::ShutdownAck { .. }), "expected shutdown ack, got {ack:?}");
    server.wait();
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| {
        // crates/bench -> repository root.
        format!("{}/../../BENCH_engines.json", env!("CARGO_MANIFEST_DIR"))
    });
    let freq = Frequency::base();
    let mut timings = Vec::new();

    // The per-event phase-lookup stress test the compiled path targets: a
    // 10k-segment trace, vulnerable on every seventh segment.
    let levels: Vec<f64> = (0..10_000).map(|i| f64::from(u32::from(i % 7 == 0))).collect();
    let fine = IntervalTrace::from_levels(&levels).expect("fine-grained trace levels are valid");
    let mc = MonteCarlo::new(MonteCarloConfig { trials: 2_000, threads: 1, ..Default::default() });
    let rate = RawErrorRate::per_year(100.0);
    timings.push(time("monte_carlo/fine_grained_10k_segments", 20, || {
        mc.component_mttf(&fine, rate, freq).expect("fine-grained MC case runs")
    }));

    // The day-like case: two huge segments, stresses the period-skip math
    // rather than the lookup.
    let day_like = IntervalTrace::busy_idle(1_000_000, 1_000_000).expect("day-like trace is valid");
    let mc_day =
        MonteCarlo::new(MonteCarloConfig { trials: 10_000, threads: 1, ..Default::default() });
    let day_rate = RawErrorRate::per_year(1.0e4);
    timings.push(time("monte_carlo/day_like_10k_trials", 20, || {
        mc_day.component_mttf(&day_like, rate, freq).expect("day-like MC case runs");
        mc_day.component_mttf(&day_like, day_rate, freq).expect("day-like MC case runs")
    }));

    // Sampler duel on a low-AVF workload (schema v11): busy 1 cycle in
    // 1000, so the paper's event walk — the test oracle
    // `sample_time_to_failure`, called directly on the compiled trace on
    // one thread — burns ~1/AVF = 1000 thinning rejections per trial, while
    // the engine's batched sampler spends one Exp(1) draw per trial and
    // amortizes its RNG, log transforms, and phase probe across whole
    // chunks in SoA passes. Min-of-N timings (one untimed warmup each;
    // N = 25 for the sub-millisecond batched sampler, where a min-of-5 is
    // still timer noise, and 5 for the ~400 ms walk), per-trial event
    // counts (the walk's `TrialOutcome::events`, the engine's
    // `mc.raw_error_events` counter), and ns-per-trial all land in the
    // JSON; the run aborts if the batched sampler is ever less than 50x
    // faster than the event walk.
    let low_avf = IntervalTrace::busy_idle(1, 999).expect("low-AVF trace is valid");
    let duel_rate = RawErrorRate::per_year(1.0e3);
    let duel_trials = 20_000u64;
    let duel_config = MonteCarloConfig { trials: duel_trials, threads: 1, ..Default::default() };
    let low_avf_compiled = compile_for_sampling(&low_avf).expect("low-AVF trace compiles");
    let duel_lambda = duel_rate.per_second_value() / freq.hz();
    let walk = || -> u64 {
        let mut rng = SmallRng::seed_from_u64(duel_config.seed);
        (0..duel_trials)
            .map(|_| {
                sample_time_to_failure(&low_avf_compiled, duel_lambda, 100_000_000, &mut rng, 0.0)
                    .expect("event walk ends")
                    .events
            })
            .sum()
    };
    let ev_events_per_trial = walk() as f64 / duel_trials as f64;
    let mc_batched = MonteCarlo::new(duel_config);
    let (duel_obs, _) = Obs::memory();
    mc_batched
        .clone()
        .with_observer(duel_obs.clone())
        .component_mttf(&low_avf, duel_rate, freq)
        .expect("batched duel runs");
    let duel_counters = duel_obs.metrics().snapshot().counters;
    let batched_events_per_trial =
        duel_counters["mc.raw_error_events"] as f64 / duel_counters["mc.trials_completed"] as f64;
    let t_ev = time("sampler/event_loop_low_avf_20k_trials", 5, walk);
    let t_batched = time("sampler/batched_inversion_low_avf_20k_trials", 25, || {
        mc_batched.component_mttf(&low_avf, duel_rate, freq).expect("batched duel runs")
    });
    let ns_per_trial = |t: &Timing| t.min_ms * 1e6 / duel_trials as f64;
    let batched_speedup = t_ev.min_ms / t_batched.min_ms;
    let sampler_json = format!(
        "  \"sampler_duel\": {{\"workload\": \"busy_idle_1_999\", \"avf\": 0.001, \
         \"trials\": {duel_trials}, \"event_loop_min_ms\": {:.4}, \
         \"batched_inversion_min_ms\": {:.4}, \
         \"event_loop_events_per_trial\": {ev_events_per_trial:.2}, \
         \"batched_inversion_events_per_trial\": {batched_events_per_trial:.2}, \
         \"event_loop_ns_per_trial\": {:.1}, \"batched_inversion_ns_per_trial\": {:.1}, \
         \"batched_speedup_vs_event_loop\": {batched_speedup:.1}}},",
        t_ev.min_ms,
        t_batched.min_ms,
        ns_per_trial(&t_ev),
        ns_per_trial(&t_batched),
    );
    println!(
        "sampler duel: event-loop oracle {:.3} ms ({ev_events_per_trial:.1} events/trial) vs \
         batched {:.3} ms ({batched_events_per_trial:.1} events/trial) -> {batched_speedup:.1}x",
        t_ev.min_ms, t_batched.min_ms,
    );
    assert!(
        batched_speedup >= 50.0,
        "batched inversion must be >=50x faster than the event loop on the low-AVF duel, \
         measured {batched_speedup:.1}x"
    );
    timings.push(t_ev);
    timings.push(t_batched);

    // Observed re-run of the day-like case: per-stage wall time and the
    // per-chunk convergence trajectory fold into the JSON, so the perf
    // trajectory also records *where* the time goes and how fast the
    // estimator tightens.
    let (obs, sink) = Obs::memory();
    let mc_observed =
        MonteCarlo::new(MonteCarloConfig { trials: 10_000, threads: 1, ..Default::default() })
            .with_observer(obs.clone());
    mc_observed.component_mttf(&day_like, rate, freq).expect("observed MC case runs");
    let snap = obs.metrics().snapshot();
    let stage_entries: Vec<String> = snap
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("stage."))
        .map(|(name, h)| {
            format!(
                "    {{\"stage\": \"{name}\", \"count\": {}, \"total_ms\": {:.4}}}",
                h.count(),
                h.sum()
            )
        })
        .collect();
    let stages_json = format!("  \"stages\": [\n{}\n  ],", stage_entries.join(",\n"));
    let convergence_entries: Vec<String> = sink
        .events_of("mc.chunk")
        .iter()
        .map(|e| {
            format!(
                "    {{\"chunk\": {}, \"n\": {}, \"mean_s\": {:.6e}, \"ci95_s\": {:.6e}}}",
                e.seq,
                field_f64(e, "n") as u64,
                field_f64(e, "mean_s"),
                field_f64(e, "ci95_s")
            )
        })
        .collect();
    assert!(
        !convergence_entries.is_empty(),
        "observed MC run must emit at least one convergence snapshot"
    );
    let convergence_json =
        format!("  \"mc_convergence\": [\n{}\n  ],", convergence_entries.join(",\n"));

    // One figure sweep: three Figure 5 design points on the day workload,
    // exercising the parallel fan-out in serr-core.
    let sweep_cfg = ExperimentConfig {
        mc: MonteCarloConfig { trials: 10_000, ..Default::default() },
        ..ExperimentConfig::quick()
    };
    timings.push(time("sweep/fig5_day_3_points", 5, || {
        fig5_sweep(&[Workload::Day], &[1e7, 1e10, 1e13], &sweep_cfg, &SweepOptions::off())
            .and_then(|report| report.into_result())
            .expect("fig5 sweep runs")
    }));

    // Checkpoint/resume probe: the same sweep run Fresh (computes and
    // journals every point) then Resume (must restore all of them without
    // recomputation). The counts land in the JSON so a perf-tracking diff
    // also notices if resume silently stops resuming.
    let ck_dir =
        format!("{}/../../target/serr-checkpoints/bench-smoke", env!("CARGO_MANIFEST_DIR"));
    let points = [1e7, 1e10, 1e13];
    let fresh =
        fig5_sweep(&[Workload::Day], &points, &sweep_cfg, &SweepOptions::fresh().in_dir(&ck_dir))
            .expect("fresh checkpointed sweep runs");
    let resumed =
        fig5_sweep(&[Workload::Day], &points, &sweep_cfg, &SweepOptions::resume().in_dir(&ck_dir))
            .expect("resumed checkpointed sweep runs");
    let checkpoint_json = format!(
        "  \"checkpoint\": {{\"sweep\": \"fig5_day_3_points\", \"fresh_computed\": {}, \
         \"resume_restored\": {}, \"resume_recomputed\": {}}},",
        fresh.computed, resumed.resumed, resumed.computed
    );
    println!(
        "checkpoint probe: fresh computed {}, resume restored {} / recomputed {}",
        fresh.computed, resumed.resumed, resumed.computed
    );

    // Chaos smoke campaign: a small fixed fault-injection run whose
    // detect/degrade/miss counts land in the JSON, so a perf-tracking diff
    // also notices if the detect-or-degrade guarantee regresses.
    let chaos_cfg =
        ChaosConfig { campaigns: 20, seed: 0xBE5C, trials: 2_000, ..Default::default() };
    let chaos = run_chaos(&chaos_cfg).expect("chaos smoke campaign runs");
    let chaos_json = format!(
        "  \"chaos\": {{\"campaigns\": {}, \"clean\": {}, \"retried\": {}, \"degraded\": {}, \
         \"suspect\": {}, \"misses\": {}}},",
        chaos.outcomes.len(),
        chaos.count(Provenance::Clean),
        chaos.count(Provenance::Retried),
        chaos.count(Provenance::Degraded),
        chaos.count(Provenance::Suspect),
        chaos.misses()
    );
    println!(
        "chaos probe: {} campaigns -> {} clean, {} retried, {} degraded, {} suspect, {} misses",
        chaos.outcomes.len(),
        chaos.count(Provenance::Clean),
        chaos.count(Provenance::Retried),
        chaos.count(Provenance::Degraded),
        chaos.count(Provenance::Suspect),
        chaos.misses()
    );
    assert!(chaos.is_sound(), "chaos smoke campaign produced a silently wrong result");

    // Service probe (schema v7): the `serr serve` daemon exercised
    // in-process over unix sockets, three short campaigns. (a) Pipelined
    // unique requests against a healthy server measure sustained JSONL
    // throughput. (b) A worker-starved server (zero estimate slots,
    // depth-1 queues) must shed every request — through admission control
    // or the shutdown drain — never hang or drop one. (c) A chaos
    // campaign under injected worker panics must restart one estimate
    // slot per panic. The counts land in the JSON so a perf-tracking diff
    // also notices if service throughput, the backpressure contract, or
    // the supervision loop regresses.
    let serve_dir = std::env::temp_dir().join("serr-bench-smoke-serve");
    let _ = std::fs::remove_dir_all(&serve_dir);
    std::fs::create_dir_all(&serve_dir).expect("create service probe dir");

    let (serve_obs, _serve_sink) = Obs::memory();
    let mut serve_cfg = ServeConfig::new(Bind::Unix(serve_dir.join("throughput.sock")));
    serve_cfg.obs = serve_obs;
    serve_cfg.mc_threads = 1;
    let server = Server::start(serve_cfg).expect("throughput server starts");
    let mut client = Client::connect(server.bind_addr()).expect("connect throughput server");
    let serve_n = 32u64;
    let t0 = Instant::now();
    for i in 0..serve_n {
        client.send_line(&serve_request(i, 2_000).to_line()).expect("pipeline request");
    }
    for _ in 0..serve_n {
        let line = client.recv_line().expect("recv").expect("pipelined response line");
        let resp = Response::parse(&line).expect("response parses");
        assert_eq!(resp.state(), "result", "clean service request must terminate as `result`");
    }
    let throughput_rps = serve_n as f64 / t0.elapsed().as_secs_f64();
    shut_down_service(&mut client, server);

    let mut shed_cfg = ServeConfig::new(Bind::Unix(serve_dir.join("shed.sock")));
    shed_cfg.workers = 0;
    shed_cfg.queue_depth = 1;
    shed_cfg.journal_dir = Some(serve_dir.join("shed-journal"));
    shed_cfg.mc_threads = 1;
    let server = Server::start(shed_cfg).expect("shed server starts");
    let mut client = Client::connect(server.bind_addr()).expect("connect shed server");
    let shed_n = 6u64;
    for i in 0..shed_n {
        client.send_line(&serve_request(100 + i, 2_000).to_line()).expect("pipeline request");
    }
    client
        .send_line(
            &Request { id: 0, deadline_ms: None, tag: None, body: RequestBody::Shutdown }.to_line(),
        )
        .expect("send shutdown");
    let mut shed = 0u64;
    let mut acked = false;
    while let Some(line) = client.recv_line().expect("recv") {
        match Response::parse(&line).expect("response parses") {
            Response::Shed { .. } => shed += 1,
            Response::ShutdownAck { .. } => acked = true,
            other => panic!("worker-starved server produced {other:?}"),
        }
        if acked && shed == shed_n {
            break;
        }
    }
    assert!(acked, "shed server never acknowledged shutdown");
    assert_eq!(shed, shed_n, "a worker-starved depth-1 server must shed every request");
    server.wait();

    // The injected panics below are supervised crashes, not bugs: silence
    // the default hook for the daemon's own worker threads only, so a
    // genuine assertion failure in this binary still prints.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let in_service_worker =
            std::thread::current().name().is_some_and(|n| n.starts_with("serr-serve"));
        if !in_service_worker {
            default_hook(info);
        }
    }));
    let (panic_obs, _panic_sink) = Obs::memory();
    let mut panic_cfg = ServeConfig::new(Bind::Unix(serve_dir.join("panic.sock")));
    panic_cfg.chaos = Some(FaultPlan::new(0xB0B, FaultKind::ServeWorkerPanic));
    panic_cfg.obs = panic_obs;
    panic_cfg.mc_threads = 1;
    let server = Server::start(panic_cfg).expect("panic server starts");
    let mut client = Client::connect(server.bind_addr()).expect("connect panic server");
    let panic_n = 16u64;
    for i in 0..panic_n {
        let resp = client
            .roundtrip(&serve_request(200 + i, 1_000))
            .expect("request io")
            .expect("response under panic chaos");
        assert!(
            matches!(resp.state(), "result" | "error"),
            "panic-chaos request terminated as {}",
            resp.state()
        );
    }
    let injected_panics = serve_counter(&serve_stats(&mut client), "serve.injected_panics");
    assert!(injected_panics >= 1, "seeded plan must panic at least one of {panic_n} workers");
    // The worker answers its request before dying, so the final restart
    // may still be in flight: poll until the supervisor catches up.
    let catch_up = Instant::now() + Duration::from_secs(60);
    let worker_restarts = loop {
        let restarts = serve_counter(&serve_stats(&mut client), "serve.worker_restarts");
        if restarts >= injected_panics {
            break restarts;
        }
        assert!(
            Instant::now() < catch_up,
            "supervisor stuck at {restarts} restarts for {injected_panics} injected panics"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    shut_down_service(&mut client, server);
    let _ = std::fs::remove_dir_all(&serve_dir);

    let service_json = format!(
        "  \"service\": {{\"requests\": {}, \"throughput_rps\": {throughput_rps:.1}, \
         \"shed\": {shed}, \"worker_restarts\": {worker_restarts}, \
         \"injected_panics\": {injected_panics}}},",
        serve_n + shed_n + panic_n
    );
    println!(
        "service probe: {serve_n} pipelined requests at {throughput_rps:.1} rps, \
         {shed} shed on the starved server, {worker_restarts} worker restarts \
         for {injected_panics} injected panics"
    );

    // Storage probe (schema v11): (a) a dense checkpoint journal — 2,000
    // rows, each carrying a 64-sample trace vector, the shape the figure
    // sweeps write — resumed from the CRC-paged binary store; (b) one
    // trace-cache entry loaded through the default mmap path and
    // through an ordinary buffered read, so the zero-copy claim stays
    // measured.
    let storage_dir = std::env::temp_dir().join("serr-bench-smoke-storage");
    let _ = std::fs::remove_dir_all(&storage_dir);
    std::fs::create_dir_all(&storage_dir).expect("create storage probe dir");
    let journal_rows = 2_000usize;
    let dense_row = |i: usize| -> Json {
        let trace: Vec<Json> =
            (0..64).map(|k| Json::Num(((i * 64 + k) as f64).sqrt() * 0.013 + 0.2)).collect();
        Json::Obj(vec![
            ("i".to_owned(), Json::Num(i as f64)),
            ("trace".to_owned(), Json::Arr(trace)),
        ])
    };
    let storage_fp = fingerprint(&["bench-smoke", "storage"]);
    {
        let journal = Journal::open(&storage_dir, "bench-storage", storage_fp, true)
            .expect("storage probe journal opens");
        for i in 0..journal_rows {
            journal.record(i, &dense_row(i)).expect("storage probe row records");
        }
    }
    let t_binary = time("storage/binary_journal_resume_2k_rows", 5, || {
        let journal = Journal::open(&storage_dir, "bench-storage", storage_fp, false)
            .expect("binary resume opens");
        assert_eq!(journal.completed().len(), journal_rows);
    });
    println!(
        "storage probe: {journal_rows}-row dense journal resumes in {:.3} ms",
        t_binary.min_ms
    );

    let cache_entry = storage_dir.join("cache-probe.store");
    let sim = simulate_benchmark("gzip", 100_000, 7).expect("cache probe simulation runs");
    write_cache_entry(&cache_entry, &sim.output).expect("cache probe entry writes");
    let t_cache_mmap = time("storage/cache_load_mmap", 25, || {
        load_cache_entry_mmap(&cache_entry).expect("mmap cache load decodes")
    });
    let t_cache_read = time("storage/cache_load_read", 25, || {
        load_cache_entry_read(&cache_entry).expect("buffered cache load decodes")
    });
    println!(
        "storage probe: cache entry loads in {:.3} ms mmap vs {:.3} ms read",
        t_cache_mmap.min_ms, t_cache_read.min_ms
    );
    let storage_json = format!(
        "  \"storage\": {{\"journal_rows\": {journal_rows}, \
         \"binary_resume_ms\": {:.4}, \
         \"cache_load_mmap_ms\": {:.4}, \"cache_load_read_ms\": {:.4}}},",
        t_binary.min_ms, t_cache_mmap.min_ms, t_cache_read.min_ms
    );
    let _ = std::fs::remove_dir_all(&storage_dir);
    timings.push(t_binary);
    timings.push(t_cache_mmap);
    timings.push(t_cache_read);

    // Protection-model probe (schema v9): the AVF-step-vs-MC comparison on
    // the day workload under each transform in the --protect algebra.
    // SEC-DED is a pointwise no-op on the binary day trace (every cycle is
    // fully vulnerable or not at all — there is no second-bit word state to
    // save), so its row must be bit-identical to the unprotected one;
    // scrubbing and delayed reporting are strictly protective, so their
    // MTTFs must not fall below baseline. The rows land in the JSON so the
    // perf trajectory also records how far the two-step method drifts from
    // ground truth once a protection transform reshapes the trace.
    let model_cfg = serr_core::experiments::ExperimentConfig {
        mc: MonteCarloConfig { trials: 20_000, threads: 1, ..Default::default() },
        ..serr_core::experiments::ExperimentConfig::quick()
    };
    let day_trace = WorkloadSpec::Day.trace(&model_cfg).expect("day workload trace builds");
    let model_ns = 1.0e8;
    let model_rate =
        RawErrorRate::per_year(model_ns * serr_types::BASELINE_RAW_RATE_PER_BIT_PER_YEAR);
    let model_validator = Validator::new(model_cfg.frequency, model_cfg.mc.clone());
    let model_specs = ["none", "ecc:64", "scrub:1e11", "delay:1e13"];
    let mut model_rows = Vec::new();
    let mut model_results = Vec::new();
    for spec in model_specs {
        let protect = ProtectionSpec::parse(spec).expect("model protection spec parses");
        let protected = protect.apply(day_trace.clone()).expect("model protection applies");
        let r = model_validator.component(&protected, model_rate).expect("model validation runs");
        model_rows.push(format!(
            "    {{\"protect\": \"{spec}\", \"avf\": {:.6}, \"mttf_avf_s\": {:.6e}, \
             \"mttf_mc_s\": {:.6e}, \"avf_err_vs_mc_pct\": {:.3}}}",
            r.avf,
            r.mttf_avf.as_secs(),
            r.mttf_mc.mttf.as_secs(),
            r.avf_error_vs_mc * 100.0
        ));
        println!(
            "models probe: day + {spec:<11} avf {:.4}, mttf(avf) {:.3e} s, mttf(mc) {:.3e} s",
            r.avf,
            r.mttf_avf.as_secs(),
            r.mttf_mc.mttf.as_secs()
        );
        model_results.push((spec, r));
    }
    let baseline = &model_results[0].1;
    let ecc = &model_results[1].1;
    assert!(
        ecc.avf.to_bits() == baseline.avf.to_bits()
            && ecc.mttf_mc.mttf.as_secs().to_bits() == baseline.mttf_mc.mttf.as_secs().to_bits(),
        "SEC-DED must be bit-identical to no protection on the binary day trace"
    );
    for (spec, r) in &model_results[2..] {
        assert!(
            r.mttf_mc.mttf.as_secs() >= baseline.mttf_mc.mttf.as_secs(),
            "{spec} must not report a worse MTTF than the unprotected baseline"
        );
    }

    // Transform-overhead gate: the no-protection path through the pipeline
    // (the default for every mttf/sofr run) must stay an Arc pass-through —
    // if it ever starts copying or re-deriving the trace, compilation cost
    // is the first place it shows. Real transform application cost is
    // recorded informationally alongside.
    let fine_arc: std::sync::Arc<dyn VulnerabilityTrace> = std::sync::Arc::new(fine.clone());
    let no_protection = ProtectionSpec::none();
    // Both closures compile through the same `Arc<dyn ...>` the CLI hands
    // the estimators, so the ratio isolates the pipeline's own cost rather
    // than dynamic-vs-static dispatch inside compilation. The probe trace
    // is the fine trace's pattern over 100k cycles (~1 ms per compile): on
    // the 10k-cycle trace (~0.07 ms) even the median ratio read 13% off in
    // one process in 12, a per-process bias that more rounds do not remove.
    let long_levels: Vec<f64> = (0..100_000).map(|i| f64::from(u32::from(i % 7 == 0))).collect();
    let long_arc: std::sync::Arc<dyn VulnerabilityTrace> = std::sync::Arc::new(
        IntervalTrace::from_levels(&long_levels).expect("probe trace levels are valid"),
    );
    let (t_compile_raw, t_compile_identity, identity_ratio) = time_pair(
        ("transform/compile_raw_100k_cycles", "transform/identity_pipeline_compile_100k_cycles"),
        150,
        || CompiledTrace::compile(&long_arc).expect("probe trace compiles"),
        || {
            let t = no_protection.apply(long_arc.clone()).expect("identity pipeline applies");
            CompiledTrace::compile(&t).expect("probe trace compiles through identity")
        },
    );
    let scrub_ecc = ProtectionSpec::parse("scrub:100,ecc:64").expect("probe pipeline parses");
    let t_apply = time("transform/scrub_ecc_apply_10k_segments", 25, || {
        scrub_ecc.apply(fine_arc.clone()).expect("scrub+ecc applies to the fine trace")
    });
    let transform_overhead = identity_ratio - 1.0;
    println!(
        "transform probe: raw compile {:.4} ms vs identity-pipeline compile {:.4} ms \
         (median paired {:+.1}%), scrub+ecc apply {:.4} ms",
        t_compile_raw.min_ms,
        t_compile_identity.min_ms,
        transform_overhead * 100.0,
        t_apply.min_ms
    );
    assert!(
        transform_overhead <= 0.05,
        "the no-protection transform path must add <=5% to trace compilation, \
         measured {:+.1}%",
        transform_overhead * 100.0
    );
    let models_json = format!(
        "  \"models\": {{\"workload\": \"day\", \"n_s\": {model_ns:e}, \"trials\": 20000, \
         \"protections\": [\n{}\n  ], \"transform_overhead\": {{\
         \"raw_compile_min_ms\": {:.4}, \"identity_pipeline_compile_min_ms\": {:.4}, \
         \"overhead_frac\": {transform_overhead:.4}, \"scrub_ecc_apply_min_ms\": {:.4}}}}},",
        model_rows.join(",\n"),
        t_compile_raw.min_ms,
        t_compile_identity.min_ms,
        t_apply.min_ms
    );
    timings.push(t_compile_raw);
    timings.push(t_compile_identity);
    timings.push(t_apply);

    // Sweep-kernel duel (schema v10): a 32-point Figure-5-style rate fan
    // over the fine-grained 10k-segment workload trace, estimated two ways
    // with the same seed — a loop of independent per-point
    // `component_mttf` runs (the pre-kernel sweep path, which re-compiled
    // the trace and regenerated every RNG/log plane for each point) versus
    // one `component_mttf_multi` call that compiles the trace once and
    // pays each chunk's RNG words, uniforms, and vectorized log pass once
    // for all 32 λ values; only the λ-dependent finish (mass scale, tiered
    // log, inverse lookup, statistics fold) stays per point. Common random
    // numbers make the comparison exact, not statistical: before timing,
    // every kernel point is asserted bit-identical to its independent run
    // at 1 *and* 8 threads, so the measured speedup buys literally the
    // same bits. The run aborts if the kernel's amortization advantage
    // ever drops below 3x.
    let kernel_points = 32usize;
    let kernel_trials = 2_000u64;
    let kernel_rates: Vec<RawErrorRate> = (0..kernel_points)
        .map(|i| RawErrorRate::per_year(50.0 * 1.25f64.powi(i32::try_from(i).expect("small"))))
        .collect();
    for threads in [1usize, 8] {
        let mc_t = MonteCarlo::new(MonteCarloConfig {
            trials: kernel_trials,
            threads,
            ..Default::default()
        });
        let multi =
            mc_t.component_mttf_multi(&fine, &kernel_rates, freq).expect("sweep kernel duel runs");
        for (i, (point, &r)) in multi.iter().zip(&kernel_rates).enumerate() {
            let point = point.as_ref().expect("kernel point succeeds");
            let solo = mc_t.component_mttf(&fine, r, freq).expect("independent point runs");
            assert!(
                point.mttf.as_secs().to_bits() == solo.mttf.as_secs().to_bits()
                    && point.ttf_seconds.ci95.to_bits() == solo.ttf_seconds.ci95.to_bits(),
                "sweep kernel point {i} must be bit-identical to its independent run \
                 at {threads} threads"
            );
        }
    }
    let mc_kernel = MonteCarlo::new(MonteCarloConfig {
        trials: kernel_trials,
        threads: 1,
        ..Default::default()
    });
    let t_sweep_per_point = time("sweep_kernel/per_point_32x2k_trials", 5, || {
        for &r in &kernel_rates {
            mc_kernel.component_mttf(&fine, r, freq).expect("per-point sweep runs");
        }
    });
    let t_sweep_kernel = time("sweep_kernel/shared_stream_32x2k_trials", 5, || {
        mc_kernel.component_mttf_multi(&fine, &kernel_rates, freq).expect("kernel sweep runs")
    });
    let kernel_speedup = t_sweep_per_point.min_ms / t_sweep_kernel.min_ms;
    let trial_points = kernel_points as f64 * kernel_trials as f64;
    println!(
        "sweep-kernel duel: {kernel_points} points x {kernel_trials} trials, per-point \
         {:.3} ms ({:.1} ns/trial-point) vs shared-stream {:.3} ms ({:.1} ns/trial-point) \
         -> {kernel_speedup:.1}x, bit-identical at 1 and 8 threads",
        t_sweep_per_point.min_ms,
        t_sweep_per_point.min_ms * 1e6 / trial_points,
        t_sweep_kernel.min_ms,
        t_sweep_kernel.min_ms * 1e6 / trial_points
    );
    assert!(
        kernel_speedup >= 3.0,
        "the shared-stream sweep kernel must be >=3x faster than independent per-point runs \
         on the 32-point duel, measured {kernel_speedup:.1}x"
    );
    let sweep_kernel_json = format!(
        "  \"sweep_kernel\": {{\"points\": {kernel_points}, \"trials\": {kernel_trials}, \
         \"per_point_min_ms\": {:.4}, \"kernel_min_ms\": {:.4}, \
         \"per_point_ns_per_trial_point\": {:.1}, \"kernel_ns_per_trial_point\": {:.1}, \
         \"speedup\": {kernel_speedup:.1}, \"bit_identical_threads\": [1, 8]}},",
        t_sweep_per_point.min_ms,
        t_sweep_kernel.min_ms,
        t_sweep_per_point.min_ms * 1e6 / trial_points,
        t_sweep_kernel.min_ms * 1e6 / trial_points
    );
    timings.push(t_sweep_per_point);
    timings.push(t_sweep_kernel);

    // Timing-simulator probe (schema v12), recorded with no gate:
    // `Simulator::run` on gzip, mcf and equake at 300k instructions, seed
    // 42, min of 3 runs after one untimed warmup. Loop iterations are the
    // cycles the event skip did not jump over, so ns per iteration is the
    // per-cycle cost of the wakeup-driven pipeline and Minstr/s its
    // end-to-end rate, generator included.
    let sim_instructions = 300_000u64;
    let mut sim_rows = Vec::new();
    for (program, name) in
        [("gzip", "sim/gzip_300k"), ("mcf", "sim/mcf_300k"), ("equake", "sim/equake_300k")]
    {
        let profile = BenchmarkProfile::by_name(program).expect("known benchmark");
        let run = || {
            Simulator::new(SimConfig::power4())
                .run(TraceGenerator::new(profile.clone(), 42), sim_instructions)
                .expect("simulator probe runs")
        };
        let out = run();
        let t = time(name, 3, run);
        let iterations = out.stats.cycles - out.skipped_cycles;
        let ns_per_iteration = t.min_ms * 1e6 / iterations as f64;
        let minstr_per_s = sim_instructions as f64 / (t.min_ms * 1e3);
        println!(
            "sim probe: {program} {} cycles, {iterations} iterations, {:.3} ms \
             ({ns_per_iteration:.0} ns/iteration, {minstr_per_s:.2} Minstr/s)",
            out.stats.cycles, t.min_ms
        );
        sim_rows.push(format!(
            "    {{\"program\": \"{program}\", \"cycles\": {}, \"iterations\": {iterations}, \
             \"min_ms\": {:.4}, \"ns_per_iteration\": {ns_per_iteration:.1}, \
             \"minstr_per_s\": {minstr_per_s:.3}}}",
            out.stats.cycles, t.min_ms
        ));
        timings.push(t);
    }
    let sim_json = format!(
        "  \"sim\": {{\"instructions\": {sim_instructions}, \"seed\": 42, \"programs\": [\n{}\n  ]}},",
        sim_rows.join(",\n")
    );

    // Exact-reference probe (schema v13), recorded with no gate: renewal
    // and SoftArch on the gzip, mcf and equake processor traces at 300k
    // instructions, for one rate and for one Fig 6a trace group's lists
    // (renewal at its 4 component and 20 system rates, SoftArch at the 20
    // system rates), min of 3 runs after one untimed warmup. Each call codes
    // the trace's spans once and prices its rates in one pass, so ns per
    // (span, rate) falls as the list grows.
    let refs_cfg = ExperimentConfig { sim_instructions: 300_000, ..ExperimentConfig::full() };
    let freq = refs_cfg.frequency;
    let component: Vec<RawErrorRate> =
        FIG6A_N_S.iter().map(|&n_s| RawErrorRate::baseline_per_bit().scale(n_s)).collect();
    let system: Vec<RawErrorRate> =
        C_VALUES.iter().flat_map(|&c| component.iter().map(move |r| r.scale(c as f64))).collect();
    let renewal_list: Vec<RawErrorRate> = component.iter().chain(&system).copied().collect();
    let softarch = SoftArch::new(freq);
    let mut refs_rows = Vec::new();
    for (program, names) in [
        (
            "gzip",
            [
                "refs/renewal_gzip_1",
                "refs/renewal_gzip_fig6a",
                "refs/softarch_gzip_1",
                "refs/softarch_gzip_fig6a",
            ],
        ),
        (
            "mcf",
            [
                "refs/renewal_mcf_1",
                "refs/renewal_mcf_fig6a",
                "refs/softarch_mcf_1",
                "refs/softarch_mcf_fig6a",
            ],
        ),
        (
            "equake",
            [
                "refs/renewal_equake_1",
                "refs/renewal_equake_fig6a",
                "refs/softarch_equake_1",
                "refs/softarch_equake_fig6a",
            ],
        ),
    ] {
        let trace = spec_processor_trace(program, &refs_cfg).expect("reference probe trace");
        let spans = trace.spans().count();
        let one = &system[..1];
        let cases = [
            time(names[0], 3, || renewal_mttfs(&*trace, one, freq)),
            time(names[1], 3, || renewal_mttfs(&*trace, &renewal_list, freq)),
            time(names[2], 3, || softarch.component_mttfs(&*trace, one)),
            time(names[3], 3, || softarch.component_mttfs(&*trace, &system)),
        ];
        let ns = |t: &Timing, rates: usize| t.min_ms * 1e6 / (spans * rates) as f64;
        let (r1, rl) = (ns(&cases[0], 1), ns(&cases[1], renewal_list.len()));
        let (s1, sl) = (ns(&cases[2], 1), ns(&cases[3], system.len()));
        println!(
            "refs probe: {program} {spans} spans, ns per (span, rate): renewal {r1:.2} at 1 rate, \
             {rl:.2} at {}; SoftArch {s1:.2} at 1 rate, {sl:.2} at {}",
            renewal_list.len(),
            system.len()
        );
        refs_rows.push(format!(
            "    {{\"program\": \"{program}\", \"spans\": {spans}, \
             \"renewal_ns_1\": {r1:.3}, \"renewal_ns_list\": {rl:.3}, \
             \"softarch_ns_1\": {s1:.3}, \"softarch_ns_list\": {sl:.3}}}"
        ));
        timings.extend(cases);
    }
    let refs_json = format!(
        "  \"refs\": {{\"instructions\": {}, \"renewal_rates\": {}, \"softarch_rates\": {}, \
         \"programs\": [\n{}\n  ]}},",
        refs_cfg.sim_instructions,
        renewal_list.len(),
        system.len(),
        refs_rows.join(",\n")
    );

    // Monte Carlo kernel probe on the paper's traces (schema v14; the
    // tiled `combined` row since v15), recorded with no gate: the
    // shared-stream kernel (`component_mttf_multi_compiled`, batched
    // inversion, one thread) on the gzip, mcf and equake processor traces
    // at 1M instructions over one Fig 6a trace group's 20 system rates,
    // and on the tile level of the `combined` workload over Fig 5's 7
    // rates, at 100k trials, min of 3 runs after one untimed warmup, as ns
    // per trial-point. The tiny traces of the duels above fit in cache;
    // these do not. Also records the compiled trace's `verify` cost, which
    // is why only a compile whose bytes can change after it was built (a
    // cache hit, an injected fault) is re-verified.
    let kernel_cfg = ExperimentConfig::full();
    let kernel_trials = 100_000u64;
    let kernel_mc = MonteCarlo::new(MonteCarloConfig {
        trials: kernel_trials,
        threads: 1,
        ..Default::default()
    });
    let fig5_rates: Vec<RawErrorRate> =
        FIG5_N_S.iter().map(|&n_s| RawErrorRate::baseline_per_bit().scale(n_s)).collect();
    let mut kernel_rows = Vec::new();
    for (program, rates, names) in [
        ("gzip", &system, ["mc_kernel/gzip_fig6a", "mc_kernel/verify_gzip"]),
        ("mcf", &system, ["mc_kernel/mcf_fig6a", "mc_kernel/verify_mcf"]),
        ("equake", &system, ["mc_kernel/equake_fig6a", "mc_kernel/verify_equake"]),
        ("combined", &fig5_rates, ["mc_kernel/combined_fig5", "mc_kernel/verify_combined"]),
    ] {
        let trace: std::sync::Arc<dyn VulnerabilityTrace> = if program == "combined" {
            std::sync::Arc::new(combined_trace(&kernel_cfg, None).expect("kernel probe trace"))
        } else {
            spec_processor_trace(program, &kernel_cfg).expect("kernel probe trace")
        };
        let compiled = serr_mc::compile_for_sampling(&*trace).expect("kernel probe compiles");
        let run = time(names[0], 3, || {
            kernel_mc
                .component_mttf_multi_compiled(&compiled, rates, kernel_cfg.frequency)
                .expect("kernel probe runs")
        });
        let verify = time(names[1], 7, || compiled.verify().expect("kernel probe verifies"));
        let ns = run.min_ms * 1e6 / (kernel_trials as f64 * rates.len() as f64);
        println!(
            "mc kernel probe: {program} {} segments{}, {ns:.1} ns per trial-point over {} \
             rates; verify {:.2} ms",
            compiled.segment_count(),
            if compiled.is_tiled() { " (tiled)" } else { "" },
            rates.len(),
            verify.min_ms
        );
        kernel_rows.push(format!(
            "    {{\"program\": \"{program}\", \"segments\": {}, \"tiled\": {}, \"rates\": {}, \
             \"ns_per_trial_point\": {ns:.2}, \"verify_ms\": {:.3}}}",
            compiled.segment_count(),
            compiled.is_tiled(),
            rates.len(),
            verify.min_ms
        ));
        timings.push(run);
        timings.push(verify);
    }
    let mc_kernel_json = format!(
        "  \"mc_kernel\": {{\"instructions\": {}, \"trials\": {kernel_trials}, \
         \"threads\": 1, \"programs\": [\n{}\n  ]}},",
        kernel_cfg.sim_instructions,
        kernel_rows.join(",\n")
    );

    // Mass-transform tier probe (schema v16), recorded with no gate: the
    // same kernel on the `day` trace, one thread, over three 16-rate groups
    // — 16 consecutive points of `dense_sweep`'s log grid (1e6…1e13, 256
    // points) around N×S = 3e6, 1e10 and 1e12 — as ns per trial-point. The
    // finish pass picks its mass-log tier from the batch maximum
    // y ≈ 1 − e^{−λW}: the lowest group runs the Taylor tier, the other two
    // the branch-free general tier. Schedule v1 ran the 1e10 group on an
    // atanh series and the 1e12 group on per-element libm `ln_1p`.
    let tier_cfg = ExperimentConfig::full();
    let tier_trials = 200_000u64;
    let tier_mc =
        MonteCarlo::new(MonteCarloConfig { trials: tier_trials, threads: 1, ..Default::default() });
    let day = synthesized_trace(Workload::Day, &tier_cfg).expect("tier probe trace");
    let day = serr_mc::compile_for_sampling(&*day).expect("tier probe compiles");
    let grid_step = 10f64.powf(7.0 / 255.0);
    let mut tier_rows = Vec::new();
    for (n_s, name) in [
        (3e6, "finish_tiers/day_3e6"),
        (1e10, "finish_tiers/day_1e10"),
        (1e12, "finish_tiers/day_1e12"),
    ] {
        let rates: Vec<RawErrorRate> = (0..16)
            .map(|k| {
                RawErrorRate::baseline_per_bit().scale(n_s * grid_step.powf(f64::from(k) - 7.5))
            })
            .collect();
        let lambda_w = rates[15].per_second_value() / tier_cfg.frequency.hz() * day.total_mass();
        let y_max = serr_numeric::special::one_minus_exp_neg(lambda_w);
        let tier = if y_max <= 1e-4 { "taylor" } else { "general" };
        let run = time(name, 3, || {
            tier_mc
                .component_mttf_multi_compiled(&day, &rates, tier_cfg.frequency)
                .expect("tier probe runs")
        });
        let ns = run.min_ms * 1e6 / (tier_trials as f64 * rates.len() as f64);
        println!(
            "finish tier probe: day N×S {n_s:e}, y_max {y_max:.3e} ({tier} tier), {ns:.2} ns per \
             trial-point over {} rates",
            rates.len()
        );
        tier_rows.push(format!(
            "    {{\"n_s\": {n_s:e}, \"rates\": {}, \"y_max\": {y_max:.4e}, \"tier\": \"{tier}\", \
             \"ns_per_trial_point\": {ns:.2}}}",
            rates.len()
        ));
        timings.push(run);
    }
    let finish_tiers_json = format!(
        "  \"finish_tiers\": {{\"trace\": \"day\", \"trials\": {tier_trials}, \"threads\": 1, \
         \"groups\": [\n{}\n  ]}},",
        tier_rows.join(",\n")
    );

    let entries: Vec<String> = timings
        .iter()
        .map(|t| {
            format!(
                "    {{\"name\": \"{}\", \"iterations\": {}, \"mean_ms\": {:.4}, \"min_ms\": {:.4}}}",
                t.name, t.iterations, t.mean_ms, t.min_ms
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": 16,\n  \"suite\": \"engines-smoke\",\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n  \"timings\": [\n{}\n  ]\n}}\n",
        sampler_json,
        sweep_kernel_json,
        sim_json,
        refs_json,
        mc_kernel_json,
        finish_tiers_json,
        checkpoint_json,
        chaos_json,
        service_json,
        storage_json,
        models_json,
        stages_json,
        convergence_json,
        entries.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write benchmark JSON");

    for t in &timings {
        println!(
            "{:<45} mean {:>10.3} ms   min {:>10.3} ms   ({} iters)",
            t.name, t.mean_ms, t.min_ms, t.iterations
        );
    }
    println!("\nwrote {out_path}");
}
