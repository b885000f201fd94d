//! The chaos harness acceptance gate: hundreds of seeded fault-injection
//! campaigns across every injector kind, with the detect-or-degrade
//! invariant checked on each — no campaign may return a `clean`-tagged
//! result that deviates from the fault-free golden answer.

use serr_core::prelude::{run_chaos, ChaosConfig, FaultKind, Provenance, SamplerKind};

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("serr-chaos-invariant-{}-{tag}", std::process::id()))
}

/// ≥ 200 campaigns over every estimator-level injector kind (the
/// `FaultKind::CORE` family — the serve-layer kinds need a running service
/// and are soaked by `serr-serve` instead), zero misses. Moderate trial
/// counts keep the suite fast; the guard's CI-derived acceptance band
/// scales with the extra sampling noise, so the invariant is exactly as
/// strict as at paper scale.
#[test]
fn two_hundred_campaigns_cover_every_injector_with_zero_misses() {
    let rounds = 16;
    let campaigns = FaultKind::CORE.len() * rounds;
    assert!(campaigns >= 200, "coverage floor: {campaigns} campaigns");
    let cfg = ChaosConfig {
        campaigns,
        seed: 0xD15E_A5ED_0000_0007,
        trials: 2_500,
        threads: 0,
        scratch_dir: Some(scratch("main")),
        ..Default::default()
    };
    let report = run_chaos(&cfg).expect("chaos harness runs");
    assert_eq!(report.outcomes.len(), campaigns);

    // Zero silently-wrong outputs, with a replay recipe on failure.
    let misses: Vec<String> = report
        .outcomes
        .iter()
        .filter(|o| o.miss)
        .map(|o| {
            format!("campaign {} kind {} seed {:#018x}: {}", o.campaign, o.kind, o.seed, o.detail)
        })
        .collect();
    assert!(misses.is_empty(), "detect-or-degrade violated:\n{}", misses.join("\n"));

    // Every core injector kind ran its full share of the cycle...
    for kind in FaultKind::CORE {
        let n = report.outcomes.iter().filter(|o| o.kind == kind).count();
        assert_eq!(n, rounds, "kind {kind} ran {n} times, expected {rounds}");
    }

    // ...and the faults were not no-ops: the harness must actually have
    // exercised the non-Clean paths. (Individual campaigns may legitimately
    // come back Clean — e.g. an injected deadline cut past the last chunk —
    // but across a full cycle per kind the detectors must fire.)
    let non_clean = report.outcomes.iter().filter(|o| o.outcome != Provenance::Clean).count();
    assert!(
        non_clean >= campaigns / 2,
        "only {non_clean} of {campaigns} campaigns left the Clean path — injectors look dormant"
    );
    for kind in [
        FaultKind::TraceValueFlip,
        FaultKind::TracePrefixPerturb,
        FaultKind::TraceConsistentCorrupt,
        FaultKind::RatePoison,
        FaultKind::CheckpointIo,
        FaultKind::JournalLock,
        FaultKind::StoreTornTail,
        FaultKind::StoreBitFlip,
        FaultKind::StoreHeaderCorrupt,
        FaultKind::StoreStaleVersion,
    ] {
        assert!(
            report.outcomes.iter().any(|o| o.kind == kind && o.outcome != Provenance::Clean),
            "kind {kind} never produced a non-Clean outcome"
        );
    }

    // The storage faults specifically must never be answered with a
    // Clean-tagged deviation: every store campaign either resumed a valid
    // prefix (Retried), reset the journal on a typed error (Degraded), or
    // legitimately lost nothing — and always reproduced the reference rows.
    for o in report.outcomes.iter().filter(|o| {
        matches!(
            o.kind,
            FaultKind::StoreTornTail
                | FaultKind::StoreBitFlip
                | FaultKind::StoreHeaderCorrupt
                | FaultKind::StoreStaleVersion
        )
    }) {
        assert!(!o.miss, "store campaign {} deviated: {}", o.campaign, o.detail);
        assert_ne!(
            o.outcome,
            Provenance::Suspect,
            "store campaign {} left suspect data: {}",
            o.campaign,
            o.detail
        );
    }
}

/// Prefix-table corruption attacks exactly the table the batched inversion
/// sampler inverts on every trial through `phase_at_cumulative_batch` (the
/// event loop never reads it — see the `FaultKind::TracePrefixPerturb`
/// taxonomy entry). Under *every* sampler each such campaign must come
/// back detected: the compiled-trace verifier catches the damaged table
/// before any trial runs, and the guard's event-loop oracle vote backstops
/// the verifier — never as a silently wrong Clean result.
#[test]
fn prefix_corruption_is_detect_or_degrade_under_every_sampler() {
    for (tag, sampler) in
        [("batched", SamplerKind::BatchedInversion), ("ev", SamplerKind::EventLoop)]
    {
        let cfg = ChaosConfig {
            campaigns: 20,
            seed: 0x0D15_EA5E_0000_0011,
            trials: 2_000,
            threads: 0,
            sampler,
            kinds: vec![FaultKind::TracePrefixPerturb],
            scratch_dir: Some(scratch(&format!("prefix-{tag}"))),
            ..Default::default()
        };
        let report = run_chaos(&cfg).expect("chaos harness runs");
        assert_eq!(report.outcomes.len(), 20);
        for o in &report.outcomes {
            assert!(!o.miss, "{tag}: campaign {} was a miss: {}", o.campaign, o.detail);
            assert_ne!(
                o.outcome,
                Provenance::Clean,
                "{tag}: campaign {} prefix corruption went unnoticed ({})",
                o.campaign,
                o.detail
            );
        }
    }
}

/// The same master seed must reproduce the identical campaign sequence and
/// outcome tags regardless of the Monte Carlo thread count — the property
/// that makes a chaos failure replayable from its logged seed.
#[test]
fn campaigns_replay_identically_across_thread_counts() {
    let base = ChaosConfig {
        campaigns: 30,
        seed: 0x0BAD_CAFE,
        trials: 2_000,
        threads: 1,
        scratch_dir: Some(scratch("replay-1")),
        ..Default::default()
    };
    let single = run_chaos(&base).expect("single-threaded chaos runs");
    let multi = run_chaos(&ChaosConfig {
        threads: 4,
        scratch_dir: Some(scratch("replay-4")),
        ..base.clone()
    })
    .expect("multi-threaded chaos runs");

    let fingerprint = |r: &serr_core::chaos::ChaosReport| -> Vec<(FaultKind, u64, Provenance)> {
        r.outcomes.iter().map(|o| (o.kind, o.seed, o.outcome)).collect()
    };
    assert_eq!(
        fingerprint(&single),
        fingerprint(&multi),
        "campaign sequence or outcome tags changed with the thread count"
    );
    // The Monte Carlo estimates themselves are chunk-deterministic, so even
    // the guarded MTTFs must agree bit-for-bit.
    for (a, b) in single.outcomes.iter().zip(&multi.outcomes) {
        assert_eq!(
            a.mttf_seconds.map(f64::to_bits),
            b.mttf_seconds.map(f64::to_bits),
            "campaign {} ({}) MTTF differs across thread counts",
            a.campaign,
            a.kind
        );
    }
}
