//! Durability acceptance for the binary checkpoint store: a JSONL file in
//! the retired line format is never read, and a write torn mid-page by a
//! kill is truncated away on the next open — with the surviving prefix
//! resumed and the rest recomputed to the same bits — at any worker thread
//! count.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use serr_core::checkpoint::{fingerprint, journal_path, run_sweep, JournalRow, SweepOptions};
use serr_core::jsonio::Json;
use serr_types::SerrError;

#[derive(Debug, Clone, PartialEq)]
struct Row {
    idx: u64,
    value: f64,
}

impl JournalRow for Row {
    fn to_journal(&self) -> Json {
        Json::Obj(vec![
            ("idx".to_owned(), Json::Num(self.idx as f64)),
            ("value".to_owned(), Json::Num(self.value)),
        ])
    }
    fn from_journal(v: &Json) -> Option<Self> {
        Some(Row { idx: v.get("idx")?.as_u64()?, value: v.get("value")?.as_f64()? })
    }
}

/// Awkward floats on purpose: any formatting loss in a journal round trip
/// shows up as a bit difference.
fn eval(_: usize, x: &u64) -> Result<Row, SerrError> {
    let v = (*x as f64).sqrt() * 0.1 + 1.0 / (*x as f64 + 3.0) + 0.2;
    Ok(Row { idx: *x, value: v })
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("serr-storage-durability-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn assert_bit_identical(actual: &[Row], reference: &[Row]) {
    assert_eq!(actual.len(), reference.len());
    for (a, r) in actual.iter().zip(reference) {
        assert_eq!(a.idx, r.idx);
        assert_eq!(
            a.value.to_bits(),
            r.value.to_bits(),
            "row {} differs: {} vs {}",
            a.idx,
            a.value,
            r.value
        );
    }
}

/// A journal in the JSONL line format older releases wrote, one
/// `{"i":<index>,"ck":"<fnv-1a hex>","row":<row json>}` line per point, at
/// the path those releases used: the binary journal's, ending `.jsonl`.
fn write_jsonl_journal(dir: &Path, kind: &str, fp: u64, rows: &[Row]) -> PathBuf {
    fs::create_dir_all(dir).expect("create journal dir");
    let path = dir.join(format!("{kind}-{fp:016x}.jsonl"));
    let mut file = fs::File::create(&path).expect("create jsonl journal");
    for (i, row) in rows.iter().enumerate() {
        let row_json = row.to_journal().to_json();
        let ck = fingerprint(&[&i.to_string(), &row_json]);
        writeln!(file, "{{\"i\":{i},\"ck\":\"{ck:016x}\",\"row\":{row_json}}}")
            .expect("write jsonl line");
    }
    path
}

/// The JSONL journal format is retired: a sweep that finds one beside its
/// binary journal's path neither reads nor touches it. Every point
/// recomputes, bit-identically, into the binary journal, which alone
/// drives the next resume — whether the pool runs 1 worker or 8.
#[test]
fn stray_jsonl_journal_is_ignored_and_every_point_recomputes() {
    let items: Vec<u64> = (0..12).collect();
    let reference =
        run_sweep("stray", 1, &items, 1, &SweepOptions::off(), eval).expect("reference sweep").rows;

    for threads in [1usize, 8] {
        let dir = scratch(&format!("stray-t{threads}"));
        let kind = "stray";
        let fp = fingerprint(&["storage-durability", "stray", &threads.to_string()]);
        let jsonl = write_jsonl_journal(&dir, kind, fp, &reference[..8]);
        let jsonl_bytes = fs::read(&jsonl).expect("read jsonl journal");

        let calls = AtomicUsize::new(0);
        let opts = SweepOptions::resume().in_dir(&dir);
        let report = run_sweep(kind, fp, &items, threads, &opts, |i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            eval(i, x)
        })
        .expect("sweep runs");
        assert_eq!(report.resumed, 0, "threads={threads}: nothing resumes from JSONL");
        assert_eq!(calls.load(Ordering::Relaxed), 12, "threads={threads}: every point computes");
        assert_bit_identical(&report.rows, &reference);
        assert!(journal_path(&dir, kind, fp).exists(), "threads={threads}: binary journal");
        assert_eq!(
            fs::read(&jsonl).expect("jsonl journal still there"),
            jsonl_bytes,
            "threads={threads}: the JSONL file is left as it was"
        );

        // The binary journal now carries all 12 points.
        let calls = AtomicUsize::new(0);
        let second = run_sweep(kind, fp, &items, threads, &opts, |i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            eval(i, x)
        })
        .expect("second resume");
        assert_eq!(calls.load(Ordering::Relaxed), 0, "threads={threads}");
        assert_eq!(second.resumed, 12, "threads={threads}");
        assert_bit_identical(&second.rows, &reference);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A kill mid-append leaves a torn final page. The next open must truncate
/// the tear, resume every fully-committed point, recompute the rest, and
/// end with rows bit-identical to an uninterrupted run — at 1 worker and
/// at 8.
#[test]
fn torn_mid_page_write_is_truncated_and_resume_is_bit_identical() {
    let items: Vec<u64> = (0..12).collect();
    let reference =
        run_sweep("torn", 1, &items, 1, &SweepOptions::off(), eval).expect("reference sweep").rows;

    for threads in [1usize, 8] {
        let dir = scratch(&format!("torn-t{threads}"));
        let kind = "torn";
        let fp = fingerprint(&["storage-durability", "torn", &threads.to_string()]);
        let opts = SweepOptions::resume().in_dir(&dir);

        // "Killed" run: points past 6 fail, so the journal commits pages
        // for points 0..=6 only.
        let partial = run_sweep(kind, fp, &items, threads, &opts, |i, x| {
            if *x > 6 {
                return Err(SerrError::invalid_config("simulated crash"));
            }
            eval(i, x)
        })
        .expect("partial sweep");
        assert_eq!(partial.rows.len(), 7);

        // Tear the final append mid-page: a kill between write and fsync.
        let store = journal_path(&dir, kind, fp);
        let bytes = fs::read(&store).expect("read journal");
        let torn = &bytes[..bytes.len() - 7];
        fs::write(&store, torn).expect("write torn journal");

        // Resume: the torn page (one point) is dropped and recomputed, the
        // committed prefix is trusted, and the rows come back bit-exact.
        let calls = AtomicUsize::new(0);
        let report = run_sweep(kind, fp, &items, threads, &opts, |i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            eval(i, x)
        })
        .expect("resumed sweep");
        assert_eq!(report.resumed, 6, "threads={threads}: tear costs exactly the torn page");
        assert_eq!(calls.load(Ordering::Relaxed), 6, "threads={threads}");
        assert!(report.failures.is_empty(), "threads={threads}");
        assert_bit_identical(&report.rows, &reference);

        // The healed journal is whole again: nothing recomputes.
        let calls = AtomicUsize::new(0);
        let third = run_sweep(kind, fp, &items, threads, &opts, |i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            eval(i, x)
        })
        .expect("third sweep");
        assert_eq!(calls.load(Ordering::Relaxed), 0, "threads={threads}");
        assert_eq!(third.resumed, 12, "threads={threads}");
        assert_bit_identical(&third.rows, &reference);
        let _ = fs::remove_dir_all(&dir);
    }
}
