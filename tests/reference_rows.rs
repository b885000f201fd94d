//! Sweep rows read exact references priced once per trace group — one
//! coded pass per trace and reference in the sweep's `prepare` step — and those
//! rows must be bit-identical to per-point `Validator` calls: at any
//! `SERR_THREADS` fan-out, and when a resumed sweep prices only the points
//! its journal did not restore.
//!
//! One test in its own binary: it sets `SERR_THREADS`, which no other test
//! may read concurrently.

use std::path::{Path, PathBuf};

use serr_core::checkpoint::{Journal, JournalRow, SweepOptions, SweepReport};
use serr_core::design::Workload;
use serr_core::experiments::{
    fig5_sweep, fig6b_sweep, sec5_4_sweep, synthesized_trace, ExperimentConfig, Fig5Row, Fig6Row,
    Sec54Row,
};
use serr_core::prelude::Validator;
use serr_mc::MonteCarloConfig;
use serr_types::{relative_error, RawErrorRate};

const WORKLOADS: [Workload; 2] = [Workload::Day, Workload::Week];
const N_TIMES_S: [f64; 4] = [1e7, 1e10, 1e12, 1e13];
const CS: [u64; 3] = [1, 4, 64];

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        mc: MonteCarloConfig { trials: 2_000, ..ExperimentConfig::quick().mc },
        ..ExperimentConfig::quick()
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn fig5_bits(r: &Fig5Row) -> (String, Vec<u64>) {
    let fields = [r.n_times_s, r.avf, r.mttf_avf_years, r.mttf_mc_years, r.error, r.softarch_error];
    (r.workload.clone(), bits(&fields))
}

fn fig6_bits(r: &Fig6Row) -> (String, u64, Vec<u64>) {
    let fields = [r.n_times_s, r.mttf_sofr_years, r.mttf_mc_years, r.error, r.softarch_error];
    (r.workload.clone(), r.c, bits(&fields))
}

fn sec54_bits(r: &Sec54Row) -> (String, u64, Vec<u64>) {
    let fields = [r.n_times_s, r.softarch_error, r.softarch_error_vs_renewal];
    (r.workload.clone(), r.c, bits(&fields))
}

/// Each sweep's rows, one `Validator` call per design point.
struct PerPoint {
    fig5: Vec<(String, Vec<u64>)>,
    fig6b: Vec<(String, u64, Vec<u64>)>,
    sec5_4: Vec<(String, u64, Vec<u64>)>,
}

fn per_point(cfg: &ExperimentConfig) -> PerPoint {
    let v = Validator::new(cfg.frequency, cfg.mc);
    let (mut fig5, mut fig6b, mut sec5_4) = (Vec::new(), Vec::new(), Vec::new());
    for w in WORKLOADS {
        let trace = synthesized_trace(w, cfg).expect("synthesized trace");
        for prod in N_TIMES_S {
            let rate = RawErrorRate::baseline_per_bit().scale(prod);
            let cv = v.component(&*trace, rate).expect("component row");
            fig5.push(fig5_bits(&Fig5Row {
                workload: w.label().to_owned(),
                n_times_s: prod,
                avf: cv.avf,
                mttf_avf_years: cv.mttf_avf.as_years(),
                mttf_mc_years: cv.mttf_mc.mttf.as_years(),
                error: cv.avf_error_vs_mc,
                softarch_error: cv.softarch_error_vs_mc,
            }));
        }
        for c in CS {
            for prod in N_TIMES_S {
                let rate = RawErrorRate::baseline_per_bit().scale(prod);
                let sv = v.system_identical(trace.clone(), rate, c).expect("system row");
                fig6b.push(fig6_bits(&Fig6Row {
                    workload: w.label().to_owned(),
                    c,
                    n_times_s: prod,
                    mttf_sofr_years: sv.mttf_sofr.as_years(),
                    mttf_mc_years: sv.mttf_mc.mttf.as_years(),
                    error: sv.sofr_error_vs_mc,
                    softarch_error: sv.softarch_error_vs_mc,
                }));
                sec5_4.push(sec54_bits(&Sec54Row {
                    workload: w.label().to_owned(),
                    c,
                    n_times_s: prod,
                    softarch_error: sv.softarch_error_vs_mc,
                    softarch_error_vs_renewal: relative_error(
                        sv.mttf_softarch.as_secs(),
                        sv.mttf_renewal.as_secs(),
                    ),
                }));
            }
        }
    }
    PerPoint { fig5, fig6b, sec5_4 }
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("serr-reference-rows-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `(kind, fingerprint)` of the one journal a sweep left in `dir`.
fn journal_key(dir: &Path) -> (String, u64) {
    let name = std::fs::read_dir(dir)
        .expect("journal dir")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .find(|n| n.ends_with(".store"))
        .expect("a journal file");
    let stem = name.trim_end_matches(".store");
    let (kind, fp) = stem.rsplit_once('-').expect("kind-fingerprint");
    (kind.to_owned(), u64::from_str_radix(fp, 16).expect("hex fingerprint"))
}

/// Runs `sweep` fresh into one directory, copies every other row into a
/// second directory's journal, and resumes there: half the points restore
/// and the other half are priced on their own. Returns the fresh report and
/// the resumed one.
fn fresh_and_half_resumed<R: JournalRow>(
    tag: &str,
    sweep: impl Fn(&SweepOptions) -> SweepReport<R>,
) -> (SweepReport<R>, SweepReport<R>) {
    let (full, half) = (scratch(&format!("{tag}-full")), scratch(&format!("{tag}-half")));
    let fresh = sweep(&SweepOptions::fresh().in_dir(&full));
    assert!(fresh.failures.is_empty(), "{tag}: {:?}", fresh.failures);
    let (kind, fp) = journal_key(&full);
    {
        let journal = Journal::open(&half, &kind, fp, true).expect("open half journal");
        for (i, row) in fresh.rows.iter().enumerate().step_by(2) {
            journal.record(i, &row.to_journal()).expect("record");
        }
    }
    let resumed = sweep(&SweepOptions::resume().in_dir(&half));
    assert!(resumed.failures.is_empty(), "{tag}: {:?}", resumed.failures);
    let n = fresh.rows.len();
    assert_eq!((resumed.resumed, resumed.computed), (n.div_ceil(2), n / 2), "{tag}");
    for dir in [full, half] {
        let _ = std::fs::remove_dir_all(dir);
    }
    (fresh, resumed)
}

#[test]
fn grouped_reference_rows_match_per_point_validator_calls() {
    let cfg = cfg();
    let want = per_point(&cfg);
    for threads in ["1", "3"] {
        std::env::set_var("SERR_THREADS", threads);
        let (fresh, resumed) = fresh_and_half_resumed(&format!("fig5-t{threads}"), |opts| {
            fig5_sweep(&WORKLOADS, &N_TIMES_S, &cfg, opts).expect("fig5 sweep")
        });
        for report in [fresh, resumed] {
            let got: Vec<_> = report.rows.iter().map(fig5_bits).collect();
            assert_eq!(got, want.fig5, "fig5 at SERR_THREADS={threads}");
        }

        let (fresh, resumed) = fresh_and_half_resumed(&format!("fig6b-t{threads}"), |opts| {
            fig6b_sweep(&WORKLOADS, &CS, &N_TIMES_S, &cfg, opts).expect("fig6b sweep")
        });
        for report in [fresh, resumed] {
            let got: Vec<_> = report.rows.iter().map(fig6_bits).collect();
            assert_eq!(got, want.fig6b, "fig6b at SERR_THREADS={threads}");
        }

        let (fresh, resumed) = fresh_and_half_resumed(&format!("sec5_4-t{threads}"), |opts| {
            sec5_4_sweep(&WORKLOADS, &CS, &N_TIMES_S, &cfg, opts).expect("sec5_4 sweep")
        });
        for report in [fresh, resumed] {
            let got: Vec<_> = report.rows.iter().map(sec54_bits).collect();
            assert_eq!(got, want.sec5_4, "sec5_4 at SERR_THREADS={threads}");
        }
    }
    std::env::remove_var("SERR_THREADS");
}
