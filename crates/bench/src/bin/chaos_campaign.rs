//! Chaos campaign driver: runs seeded fault-injection campaigns across the
//! whole estimator stack and asserts the detect-or-degrade invariant —
//! zero campaigns may produce a silently wrong (`clean`-tagged but
//! deviating) result. Exits nonzero if any campaign misses, so CI can gate
//! on it.
//!
//! Usage:
//!   cargo run --release -p serr-bench --bin chaos_campaign -- \
//!     [--campaigns N] [--seed S] [--trials N] [--threads N]
//!
//! The same seed replays the identical campaign sequence and outcome tags
//! at any thread count.

use serr_core::figures::render_table;
use serr_core::prelude::{run_chaos, ChaosConfig, FaultKind, Provenance};

/// The value following `name` in the argument list, if present.
fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn parsed<T: std::str::FromStr>(name: &str) -> Option<T> {
    arg_value(name)
        .map(|v| v.parse().unwrap_or_else(|_| panic!("{name}: `{v}` is not a valid value")))
}

fn main() {
    let mut cfg = ChaosConfig::default();
    if let Some(n) = parsed::<usize>("--campaigns") {
        cfg.campaigns = n;
    }
    if let Some(s) = parsed::<u64>("--seed") {
        cfg.seed = s;
    }
    if let Some(t) = parsed::<u64>("--trials") {
        cfg.trials = t;
    }
    if let Some(t) = parsed::<usize>("--threads") {
        cfg.threads = t;
    }

    println!(
        "chaos: {} campaigns, master seed {:#018x}, {} trials, {} kinds\n",
        cfg.campaigns,
        cfg.seed,
        cfg.trials,
        cfg.kinds.len()
    );
    let report = run_chaos(&cfg).expect("chaos harness infrastructure runs");

    // Outcome-tag counts per injector kind.
    let rows: Vec<Vec<String>> = FaultKind::ALL
        .iter()
        .filter(|k| cfg.kinds.contains(k))
        .map(|&kind| {
            let mut row = vec![kind.label().to_owned()];
            for tag in Provenance::ALL {
                let n =
                    report.outcomes.iter().filter(|o| o.kind == kind && o.outcome == tag).count();
                row.push(n.to_string());
            }
            let misses = report.outcomes.iter().filter(|o| o.kind == kind && o.miss).count();
            row.push(misses.to_string());
            row
        })
        .collect();
    print!(
        "{}",
        render_table(&["injector", "clean", "retried", "degraded", "suspect", "MISS"], &rows)
    );

    println!(
        "\ngolden MTTF {:.4e} s (±{:.2}% at 95%)",
        report.golden_mttf_seconds,
        report.golden_rel_ci95 * 100.0
    );
    for o in report.outcomes.iter().filter(|o| o.miss) {
        println!("MISS: campaign {} ({}, seed {:#018x}): {}", o.campaign, o.kind, o.seed, o.detail);
    }
    if report.is_sound() {
        println!(
            "detect-or-degrade invariant: PASS ({} campaigns, 0 misses)",
            report.outcomes.len()
        );
    } else {
        println!(
            "detect-or-degrade invariant: FAIL ({} of {} campaigns silently wrong)",
            report.misses(),
            report.outcomes.len()
        );
        std::process::exit(1);
    }
}
