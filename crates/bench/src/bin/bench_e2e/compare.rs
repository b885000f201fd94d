//! `bench_e2e compare A.json[,A2.json...] B.json[,B2.json...]`: judges
//! side B against side A with the regression bounds of `BENCHMARK.json`.
//! Each side is one or more reports of separate runs of the same code and
//! workloads. A side's value is the median of its reports' values, and its
//! spread is their interquartile range: the run-to-run spread. One run
//! cannot show that spread — on a shared machine the speed drifts between
//! runs by more than it varies within one — so a side of fewer than
//! [`MIN_REPORTS`] reports has no spread, and its verdicts are unresolved.

use serr_core::jsonio::Json;

use crate::stats;

/// The fewest reports on a side from which its run-to-run spread is taken.
pub const MIN_REPORTS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's spread exceeds the bound or is unknown: the difference
    /// cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the median of its reports and their IQR, the
/// run-to-run spread; `None` with fewer than [`MIN_REPORTS`] reports.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub spread: Option<f64>,
}

/// The relative change from `a` to `b` and its verdict under `bound`
/// (a share of `a`'s median), where `lower_is_better` orients "worse".
pub fn verdict(a: Side, b: Side, lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let delta = (b.median - a.median) / a.median;
    let worse = if lower_is_better { delta } else { -delta };
    let too_wide = |s: Side| {
        s.spread.map(|spread| (spread / s.median).abs()).is_none_or(|r| r.is_nan() || r > bound)
    };
    let v = if too_wide(a) || too_wide(b) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (delta, v)
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).ok_or_else(|| format!("{path}: not a JSON document"))
}

fn bounds() -> Result<Vec<Bound>, String> {
    let spec = load("BENCHMARK.json")?;
    let rows =
        spec.get("end_to_end").and_then(Json::as_array).ok_or("BENCHMARK.json: no end_to_end")?;
    rows.iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_owned(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_owned())
}

fn metric<'a>(report: &'a Json, workload: &str, metric: &str) -> Option<&'a Json> {
    report
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
        .get("metrics")?
        .get(metric)
}

fn side(reports: &[Json], workload: &str, name: &str) -> Option<Side> {
    let values: Vec<f64> = reports
        .iter()
        .map(|r| metric(r, workload, name)?.get("value")?.as_f64())
        .collect::<Option<_>>()?;
    let spread = (values.len() >= MIN_REPORTS).then(|| stats::iqr(&values));
    Some(Side { median: stats::median(&values), spread })
}

/// Prints one row per (workload, end-to-end metric) present in every
/// report; returns whether any pair got worse.
pub fn run(a_paths: &str, b_paths: &str) -> Result<bool, String> {
    let reports = |paths: &str| paths.split(',').map(load).collect::<Result<Vec<_>, _>>();
    let (a, b) = (reports(a_paths)?, reports(b_paths)?);
    let bounds = bounds()?;
    let names: Vec<String> = a[0]
        .get("workloads")
        .and_then(Json::as_array)
        .map(|ws| ws.iter().filter_map(|w| w.get("name")?.as_str().map(str::to_owned)).collect())
        .unwrap_or_default();
    println!("A: {} report(s), B: {} report(s)", a.len(), b.len());
    println!(
        "{:<12} {:<17} {:>12} {:>10} {:>12} {:>10} {:>8}  verdict (bound)",
        "workload", "metric", "A median", "A IQR", "B median", "B IQR", "delta"
    );
    let spread = |s: Side| s.spread.map_or_else(|| "-".to_owned(), |x| format!("{x:.6}"));
    let mut any_worse = false;
    for w in &names {
        for bound in &bounds {
            let (Some(sa), Some(sb)) = (side(&a, w, &bound.name), side(&b, w, &bound.name)) else {
                continue;
            };
            let (delta, v) = verdict(sa, sb, bound.lower_is_better, bound.bound);
            any_worse |= v == Verdict::Worse;
            println!(
                "{w:<12} {:<17} {:>12.6} {:>10} {:>12.6} {:>10} {:>+7.2}%  {} ({:.0}%)",
                bound.name,
                sa.median,
                spread(sa),
                sb.median,
                spread(sb),
                delta * 100.0,
                v.label(),
                bound.bound * 100.0
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, spread: f64) -> Side {
        Side { median, spread: Some(spread) }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        // Lower is better (times): +20% is worse, -20% better, +5% same.
        assert_eq!(verdict(s(100.0, 1.0), s(120.0, 1.0), true, 0.10).1, Verdict::Worse);
        assert_eq!(verdict(s(100.0, 1.0), s(80.0, 1.0), true, 0.10).1, Verdict::Better);
        assert_eq!(verdict(s(100.0, 1.0), s(105.0, 1.0), true, 0.10).1, Verdict::Same);
        // Higher is better (throughput): a drop is worse.
        assert_eq!(verdict(s(100.0, 1.0), s(80.0, 1.0), false, 0.10).1, Verdict::Worse);
        assert_eq!(verdict(s(100.0, 1.0), s(120.0, 1.0), false, 0.10).1, Verdict::Better);
        let (delta, _) = verdict(s(100.0, 1.0), s(110.0, 1.0), true, 0.25);
        assert!((delta - 0.10).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_or_unknown_is_unresolved() {
        assert_eq!(verdict(s(100.0, 30.0), s(150.0, 1.0), true, 0.10).1, Verdict::Unresolved);
        assert_eq!(verdict(s(100.0, 1.0), s(100.0, 12.0), true, 0.10).1, Verdict::Unresolved);
        assert_eq!(verdict(s(100.0, 1.0), s(100.0, f64::NAN), true, 0.10).1, Verdict::Unresolved);
        let unknown = Side { median: 100.0, spread: None };
        assert_eq!(verdict(s(100.0, 1.0), unknown, true, 0.10).1, Verdict::Unresolved);
        assert_eq!(verdict(unknown, s(300.0, 1.0), true, 0.10).1, Verdict::Unresolved);
    }

    #[test]
    fn a_side_spreads_by_the_iqr_of_its_reports_and_needs_three() {
        // A report's own sample count and IQR do not make a spread.
        let report = |value: f64| {
            Json::parse(&format!(
                r#"{{"workloads":[{{"name":"w","metrics":{{"m":{{"value":{value},"n":16,"iqr":0}}}}}}]}}"#
            ))
            .expect("valid JSON")
        };
        let runs: Vec<Json> = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().map(report).collect();
        let several = side(&runs, "w", "m").expect("present");
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!((several.median, several.spread), (3.0, Some(3.0)));
        for n in 1..MIN_REPORTS {
            let few = side(&runs[..n], "w", "m").expect("present");
            assert_eq!(few.spread, None, "{n} report(s)");
            assert_eq!(verdict(few, few, true, 0.25).1, Verdict::Unresolved);
        }
        let three =
            side(&[report(100.0), report(100.0), report(100.0)], "w", "m").expect("present");
        assert_eq!(verdict(three, three, true, 0.25).1, Verdict::Same);
        assert!(side(&runs, "w", "absent").is_none());
    }
}
