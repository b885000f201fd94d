//! Validates a `--metrics` JSONL file produced by `serr` or the bench
//! binaries: every line must parse as a JSON object with an `event` string
//! and a numeric `seq`, and the stream must contain at least one per-stage
//! timing and one Monte Carlo convergence snapshot. Used by `tier1.sh` as
//! the observability smoke gate.
//!
//! Usage: `obs_check <metrics.jsonl>`, or `obs_check --same-sequence
//! <a.jsonl> <b.jsonl>` to check that two streams carry the same records
//! in the same order: the `(event, seq, name)` of every line, the values
//! and timings left out. `tier1.sh` uses the second form on the streams of
//! one sweep run at two thread counts.
//!
//! Exit status 0 iff the file is well-formed and complete (or the two
//! sequences match); the summary and any defects print to stdout.

use std::process::ExitCode;

use serr_core::jsonio::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [path] => check(path),
        [flag, a, b] if flag == "--same-sequence" => same_sequence(a, b),
        _ => {
            println!("usage: obs_check <metrics.jsonl> | --same-sequence <a.jsonl> <b.jsonl>");
            ExitCode::FAILURE
        }
    }
}

fn read(path: &str) -> Option<String> {
    match std::fs::read_to_string(path) {
        Ok(t) => Some(t),
        Err(e) => {
            println!("obs_check: cannot read {path}: {e}");
            None
        }
    }
}

/// `(event, seq, name)` of every non-empty line of `text`; a line that is
/// not a JSON object projects to its raw text.
fn projection(text: &str) -> Vec<String> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| match Json::parse(line) {
            Some(v) => {
                let text = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("-").to_owned();
                let seq = v.get("seq").and_then(Json::as_u64);
                format!("{} {seq:?} {}", text("event"), text("name"))
            }
            None => format!("unparsed: {line}"),
        })
        .collect()
}

fn same_sequence(a: &str, b: &str) -> ExitCode {
    let (Some(ta), Some(tb)) = (read(a), read(b)) else { return ExitCode::FAILURE };
    let (pa, pb) = (projection(&ta), projection(&tb));
    let first_diff = pa.iter().zip(&pb).position(|(x, y)| x != y);
    match first_diff {
        None if pa.len() == pb.len() && !pa.is_empty() => {
            println!("obs_check: OK: {} records in the same sequence ({a}, {b})", pa.len());
            ExitCode::SUCCESS
        }
        None => {
            println!("obs_check: DEFECT: {a} has {} records, {b} has {}", pa.len(), pb.len());
            ExitCode::FAILURE
        }
        Some(i) => {
            println!(
                "obs_check: DEFECT: record {i} differs: `{}` in {a}, `{}` in {b}",
                pa[i], pb[i]
            );
            ExitCode::FAILURE
        }
    }
}

fn check(path: &str) -> ExitCode {
    let Some(text) = read(path) else { return ExitCode::FAILURE };

    let mut lines = 0usize;
    let mut stage_events = 0usize;
    let mut chunk_events = 0usize;
    let mut snapshot_lines = 0usize;
    let mut defects: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let Some(v) = Json::parse(line) else {
            defects.push(format!("line {}: not valid JSON: {line}", lineno + 1));
            continue;
        };
        let Some(kind) = v.get("event").and_then(Json::as_str) else {
            defects.push(format!("line {}: missing string field `event`", lineno + 1));
            continue;
        };
        if v.get("seq").and_then(Json::as_u64).is_none() {
            defects.push(format!("line {}: missing numeric field `seq`", lineno + 1));
            continue;
        }
        match kind {
            "stage" => stage_events += 1,
            "mc.chunk" => chunk_events += 1,
            k if k.starts_with("metric.") => snapshot_lines += 1,
            _ => {}
        }
    }

    if lines == 0 {
        defects.push("file contains no JSONL records".to_owned());
    }
    if stage_events == 0 {
        defects.push("no `stage` timing events found".to_owned());
    }
    if chunk_events == 0 {
        defects.push("no `mc.chunk` convergence snapshots found".to_owned());
    }

    println!(
        "obs_check: {lines} records, {stage_events} stage timings, \
         {chunk_events} convergence snapshots, {snapshot_lines} snapshot metrics"
    );
    if defects.is_empty() {
        println!("obs_check: OK ({path})");
        ExitCode::SUCCESS
    } else {
        for d in &defects {
            println!("obs_check: DEFECT: {d}");
        }
        ExitCode::FAILURE
    }
}
