//! Prints Table 1: the base POWER4-like processor configuration.

use serr_core::figures::render_table;
use serr_sim::SimConfig;

fn main() {
    let c = SimConfig::power4();
    let rows: Vec<Vec<String>> = vec![
        vec!["Processor frequency".into(), format!("{}", c.frequency)],
        vec!["Fetch/finish rate".into(), format!("{} per cycle", c.fetch_width)],
        vec![
            "Retirement rate".into(),
            format!("1 dispatch-group (={}, max) per cycle", c.dispatch_width),
        ],
        vec![
            "Functional units".into(),
            format!(
                "{} integer, {} FP, {} load-store, {} branch",
                c.int_units, c.fp_units, c.ls_units, c.branch_units
            ),
        ],
        vec![
            "Integer FU latencies".into(),
            format!(
                "{}/{}/{} add/multiply/divide",
                c.int_alu_latency, c.int_mul_latency, c.int_div_latency
            ),
        ],
        vec![
            "FP FU latencies".into(),
            format!("{} default, {} divide (pipelined)", c.fp_latency, c.fp_div_latency),
        ],
        vec!["Reorder buffer size".into(), format!("{} entries", c.rob_size)],
        vec![
            "Register file size".into(),
            format!(
                "{} entries ({} integer, {} FP, and various control)",
                c.regfile_entries, c.int_phys_regs, c.fp_phys_regs
            ),
        ],
        vec!["Memory queue size".into(), format!("{} entries", c.mem_queue_size)],
        vec!["iTLB".into(), format!("{} entries", c.tlb_entries)],
        vec!["dTLB".into(), format!("{} entries", c.tlb_entries)],
        vec![
            "L1 Dcache".into(),
            format!("{}KB, {}-way, {}-byte line", c.l1d.0 / 1024, c.l1d.1, c.line_bytes),
        ],
        vec![
            "L1 Icache".into(),
            format!("{}KB, {}-way, {}-byte line", c.l1i.0 / 1024, c.l1i.1, c.line_bytes),
        ],
        vec![
            "L2 (Unified)".into(),
            format!("{}MB, {}-way, {}-byte line", c.l2.0 / (1024 * 1024), c.l2.1, c.line_bytes),
        ],
        vec!["L1 Latency".into(), format!("{} cycles", c.l1_latency)],
        vec!["L2 Latency".into(), format!("{} cycles", c.l2_latency)],
        vec!["Main memory Latency".into(), format!("{} cycles", c.mem_latency)],
    ];
    println!("Table 1. Base POWER4-like processor configuration.\n");
    print!("{}", render_table(&["parameter", "value"], &rows));
}
