#!/usr/bin/env bash
# Tier-1 gate: the whole workspace must build in release mode and every
# test must pass. Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q

# Workspace test gate: a plain `cargo test` at the root runs only the root
# package's tests, because the workspace has a root package. This runs
# every crate's unit, integration and doc tests — serr-numeric's accuracy
# pins, serr-core's journal and sweep tests, serr-serve's daemon tests —
# in release, where the Monte Carlo-heavy tests are fast.
cargo test -q --release --workspace

# Simulator golden gate: the timing simulator's bit-identity goldens
# (FNV-1a of the stats and "SERT" trace bytes for gzip, mcf, equake and
# swim at 60k, 300k and 1M instructions) with the rest of its suite, in
# release. The long rows are `#[ignore]`d in plain `cargo test` because
# they take minutes unoptimized; `--include-ignored` runs them here.
cargo test -q --release -p serr-sim -- --include-ignored

# Build gate: compile every target of every workspace crate — examples
# included, which neither command above builds — so an API change cannot
# leave an example calling code that no longer exists.
cargo check --workspace --all-targets

# Rustdoc gate: the workspace's API docs must build without one warning,
# so an intra-doc link to a deleted, renamed or private item fails here
# instead of rotting in the rendered docs.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Storage gate: the durable-store suites by name — the CRC-paged container
# (serr-store), the binary journal/cache ports in serr-core, and the
# workspace-level durability acceptance (torn-write recovery and a stray
# JSONL journal left unread, bit-identical at 1 and 8 worker threads). All of these already
# ran inside the workspace `cargo test` above; running them addressed keeps
# a storage regression from hiding in a long test log.
cargo test -q -p serr-store
cargo test -q --test storage_durability

# Benchmark gate: bench_e2e is a package of its own, outside the workspace,
# yet it compiles against renewal, SoftArch, the Validator and the compiled
# trace. Building and running its unit tests here makes an API change that
# breaks it fail tier-1 instead of only the benchmark run.
cargo test -q --offline --manifest-path crates/bench/src/bin/bench_e2e/Cargo.toml

# Formatting gate: the committed rustfmt.toml is the single style arbiter;
# a diff that disagrees with it fails fast here rather than in review.
cargo fmt --check

# Fault-injection, compiled-trace and simulator tests again in release
# mode with debug assertions armed: the injectors and the Monte Carlo chaos
# hooks carry debug_assert range checks (bit positions, corruption offsets,
# poison factors, chunk accounting) that plain --release would compile out
# and that the dev profile runs without release codegen; the Monte Carlo
# engine's streaming fold asserts that no chunk arrives twice or after the
# fold has passed it, and that the chunks a run completes, cut short or
# not, are a contiguous prefix (none held back at the end); the compiled
# trace's staged inverse probe asserts every mass it clamps lies in
# [0, total); the timing simulator asserts before every issue stage that
# its ready queue and completion heap match a scan of the ROB, here over
# the 60k power4 and non-default-machine goldens. Scoped to those four
# crates so the gate stays fast.
RUSTFLAGS="-C debug-assertions" cargo test -q --release -p serr-inject -p serr-mc -p serr-sim \
  -p serr-trace

# Chaos smoke campaign: a small fixed-seed fault-injection run across all
# fifteen estimator-level injector kinds (the four store-* faults against
# the binary journal, and trace-transform corruption of the protection
# pipeline's output) must uphold the detect-or-degrade invariant (`serr
# chaos` exits nonzero on any silently-wrong result).
cargo run --release --bin serr -- chaos --campaigns 30 --seed 7 --trials 3000

# Perf smoke: regenerates BENCH_engines.json (schema v16, carrying a
# `storage` section — binary journal resume time and mmap-vs-read cache
# load time — a `models` section: the AVF+SOFR-vs-MC comparison under the
# ECC/scrub/delay protection transforms — a `sweep_kernel` section: the
# 32-point shared-stream duel — a `sim` section: cycles, loop
# iterations, ns per iteration and Minstr/s of the timing simulator on
# gzip, mcf and equake at 300k instructions — and a `refs` section: ns per
# (span, rate) of the coded renewal and SoftArch passes on the same three
# traces, for one rate and for a Fig 6a trace group's rate lists — and an
# `mc_kernel` section: ns per trial-point of the shared-stream Monte Carlo
# kernel and the compiled trace's verify time on the same three traces at
# 1M instructions over a Fig 6a group's 20 rates, and on the tiled
# `combined` trace over Fig 5's 7 rates — and a `finish_tiers` section: ns
# per trial-point of the same kernel on the `day` trace over three 16-rate
# groups at N×S ≈ 3e6, 1e10 and 1e12, one per side of the mass transform's
# Taylor/general tier split; `sim`, `refs`, `mc_kernel` and `finish_tiers`
# are recorded with no gate) and asserts three perf contracts — the
# batched inversion sampler stays >=50x faster than the event-loop oracle
# (`sample_time_to_failure`, called directly) on the low-AVF duel, the
# no-protection transform path adds <=5% to trace compilation (raw and
# identity compiles timed interleaved over 400 rounds), and the shared-stream sweep kernel stays >=3x faster than
# independent per-point runs while staying bit-identical to them at 1 and
# 8 threads — the binary aborts if any contract regresses.
cargo run --release -p serr-bench --bin bench_smoke -- target/bench-smoke.json

# Protection smoke: every transform in the --protect algebra is AVF-
# monotone (protective), so a scrubbed run can never report a worse MTTF
# than the unprotected baseline. The AVF-step MTTF is deterministic (no
# Monte Carlo noise), so >= holds exactly; the awk filter normalizes the
# human-readable unit (s/days/years) before comparing.
mttf_avf_step_s() {
  awk '/MTTF, AVF step/ {
    v = $(NF-1) + 0.0; u = $NF
    if (u == "years") v *= 31536000; else if (u == "days") v *= 86400
    print v
  }'
}
BASE_MTTF=$(cargo run --release --bin serr -- \
  mttf --workload day --n-s 1e8 --trials 2000 | mttf_avf_step_s)
SCRUB_MTTF=$(cargo run --release --bin serr -- \
  mttf --workload day --n-s 1e8 --trials 2000 --protect scrub:1e11 | mttf_avf_step_s)
awk -v b="$BASE_MTTF" -v s="$SCRUB_MTTF" 'BEGIN {
  if (b <= 0.0 || s < b) {
    printf "protection smoke: scrubbed MTTF %s fell below baseline %s\n", s, b
    exit 1
  }
}'

# Provenance smoke: every validation row carries the Validator's verdict
# (Monte Carlo within max(2%, 4x CI95) of renewal, SoftArch within 2% of
# renewal), and a fault-free `mttf` and `sofr` must print it as clean.
# The output is captured first so an early-exiting grep cannot SIGPIPE serr.
for args in "mttf --workload day --n-s 1e8 --trials 20000" \
            "sofr --workload week --n-s 1e8 -c 5000 --trials 20000"; do
  # shellcheck disable=SC2086 # the argument list is split on purpose
  PROV_OUT=$(cargo run -q --release --bin serr -- $args)
  grep -qx 'provenance      : clean' <<<"$PROV_OUT" \
    || { echo "provenance smoke: \`serr $args\` is not clean: $PROV_OUT" >&2; exit 1; }
done

# Extreme-rate smoke: at a rate so high that SoftArch's discrete MTTF
# rounds to zero, a cluster so large that the system rate does, and a rate
# so low that the Monte Carlo mean overflows, `serr` must stop at once with
# a typed error: a nonzero exit, an `error:` line, and no panic.
extreme_rate_smoke() {
  local out
  if out=$(cargo run -q --release --bin serr -- "$@" 2>&1); then
    echo "extreme-rate smoke: \`serr $*\` exited zero: $out" >&2
    exit 1
  fi
  if ! grep -q '^error:' <<<"$out" || grep -q 'panicked' <<<"$out"; then
    echo "extreme-rate smoke: \`serr $*\` did not fail with a typed error: $out" >&2
    exit 1
  fi
}
extreme_rate_smoke mttf --workload day --rate 1e300
extreme_rate_smoke sofr --workload day --rate 1e10 -c 18446744073709551615
extreme_rate_smoke mttf --workload day --rate 1e-300

# Tiled-trace smoke: the paper's `combined` workload (two SPEC traces looped
# twelve hours each, ~10^14 spans) compiles to CompiledTrace's tile level,
# so its Monte Carlo must run and report the batched-inversion sampler.
# The output is captured first so an early-exiting grep cannot SIGPIPE serr.
COMBINED_OUT=$(cargo run --release --bin serr -- \
  mttf --workload combined --n-s 1e10 --trials 2000)
printf '%s\n' "$COMBINED_OUT" >&2
grep -q 'batched-inversion' <<<"$COMBINED_OUT"

# Observability smoke: a metrics-instrumented mttf run must produce
# parseable JSONL with per-stage timings and at least one Monte Carlo
# convergence snapshot, validated by the obs_check binary. SERR_THREADS=3
# exercises the telemetry path under the parallel fold (sequence keys are
# thread-count invariant by contract).
mkdir -p target
SERR_THREADS=3 cargo run --release --bin serr -- \
  mttf --workload day --n-s 1e8 --trials 20000 --metrics target/obs-smoke.jsonl
cargo run --release -p serr-bench --bin obs_check -- target/obs-smoke.jsonl
# The same check on a sweep: a rate list runs the same Monte Carlo chunk loop
# as a single estimate, so `serr sweep` must emit the same per-chunk
# convergence snapshots. `--quick` keeps it a smoke (the default scale is
# the full reproduction). Its checkpoint journal and metrics stay in a
# temporary directory.
OBS_DIR="$(mktemp -d)"
SERR_CHECKPOINT_DIR="$OBS_DIR" cargo run --release --bin serr -- \
  sweep fig5 --quick --fresh --trials 2000 --metrics "$OBS_DIR/sweep.jsonl"
cargo run --release -p serr-bench --bin obs_check -- "$OBS_DIR/sweep.jsonl"
# Thread-count smoke: the same sweep at SERR_THREADS=1 (Monte Carlo, then
# the exact references, on the calling thread) and SERR_THREADS=3 (the
# references priced on their own thread while the Monte Carlo runs) must
# print the same page and emit the same records in the same order: the
# `(event, seq, name)` of every JSONL line. Each run has its own checkpoint
# journal, and the trace cache is off so both simulate alike.
for t in 1 3; do
  SERR_THREADS=$t SERR_TRACE_CACHE=off SERR_CHECKPOINT_DIR="$OBS_DIR/threads-$t" \
    cargo run -q --release --bin serr -- sweep fig5 --quick --fresh --trials 2000 \
    --metrics "$OBS_DIR/threads-$t.jsonl" >"$OBS_DIR/threads-$t.txt"
done
cmp "$OBS_DIR/threads-1.txt" "$OBS_DIR/threads-3.txt" \
  || { echo "thread-count smoke: the fig5 page differs between 1 and 3 threads" >&2; exit 1; }
cargo run --release -p serr-bench --bin obs_check -- \
  --same-sequence "$OBS_DIR/threads-1.jsonl" "$OBS_DIR/threads-3.jsonl"
rm -rf "$OBS_DIR"

# Service smoke: bring up the `serr serve` daemon on a unix socket, drive
# it with `serr request` (mttf, sofr, sweep, stats), then shut it down
# gracefully. Every response is one JSONL line with a typed terminal
# state; the daemon must drain and exit zero on the shutdown request. The
# sweep request rides the shared-stream kernel server-side and must come
# back as one `result` line carrying every point.
SERVE_DIR="$(mktemp -d)"
SOCK="$SERVE_DIR/serr.sock"
cargo run --release --bin serr -- \
  serve --bind "unix:$SOCK" --journal-dir "$SERVE_DIR/journal" &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -S "$SOCK" ]] && break; sleep 0.1; done
[[ -S "$SOCK" ]] || { echo "serve smoke: daemon never bound $SOCK" >&2; exit 1; }
REQ=(cargo run --release --bin serr -- request --connect "unix:$SOCK")
"${REQ[@]}" --cmd mttf -w duty:0.001:0.5 --rate 1e6 --trials 2000 \
  | grep -q '"state":"result"'
"${REQ[@]}" --cmd sofr -w duty:0.001:0.5 --rate 1e6 -c 100 --trials 2000 \
  | grep -q '"state":"result"'
"${REQ[@]}" --cmd sweep -w duty:0.001:0.5 --rates 1e6,2e6,4e6 --trials 2000 \
  | grep '"state":"result"' | grep -q '"points"'
# Cross-kind resume: the sweep published each clean point under the
# equivalent single-point `mttf` key, so an `mttf` at a swept rate and a
# re-sent sweep are both answered from the results journal, every point
# `resumed`, without recomputing.
"${REQ[@]}" --cmd mttf -w duty:0.001:0.5 --rate 2e6 --trials 2000 \
  | grep -q '"resumed":true'
SWEEP_AGAIN=$("${REQ[@]}" --cmd sweep -w duty:0.001:0.5 --rates 1e6,2e6,4e6 --trials 2000)
[[ $(grep -o '"resumed":true' <<<"$SWEEP_AGAIN" | wc -l) -eq 3 ]] \
  || { echo "serve smoke: re-sent sweep did not resume every point: $SWEEP_AGAIN" >&2; exit 1; }
"${REQ[@]}" --cmd stats | grep -q '"counters"'
"${REQ[@]}" --cmd shutdown | grep -q '"shutdown":true'
wait "$SERVE_PID"

# Store inspect smoke: the daemon just journaled its results into the
# CRC-paged binary store; `serr store inspect` must dump its header and
# page table and report an undamaged file. Capture the dump once instead of
# piping straight into `grep -q`: early-exit grep closes the pipe while serr
# is still printing the page table, which panics it with SIGPIPE once the
# store (now carrying sweep results too) outgrows the pipe buffer.
RESULTS_STORE=$(ls "$SERVE_DIR"/journal/serve-results-*.store)
INSPECT_OUT=$(cargo run --release --bin serr -- store inspect "$RESULTS_STORE")
printf '%s\n' "$INSPECT_OUT" >&2
grep -q 'checkpoint-journal' <<<"$INSPECT_OUT"
grep -q 'damage          : none' <<<"$INSPECT_OUT"
rm -rf "$SERVE_DIR"

# Robustness gate: no `.unwrap()` in library or binary code — a poisoned
# design point must surface as a typed error, never a panic path someone
# forgot about. Test code (#[cfg(test)] and tests//benches/ targets) is
# exempt, which is exactly what the --lib --bins target selection gives us.
# `unwrap_used` is a restriction-group lint, so `-A clippy::all` silences
# the default lints without masking it. `.expect("reason")` stays allowed:
# it documents why the failure is impossible.
cargo clippy --workspace --lib --bins -- -A clippy::all -D clippy::unwrap_used \
  -D clippy::neg_cmp_op_on_partial_ord -D clippy::manual_clamp \
  -D clippy::manual_range_contains -D clippy::manual_is_multiple_of \
  -D clippy::needless_return -D clippy::write_with_newline

# Observability gate: library crates must not print to stderr/stdout with
# the print macros — diagnostics go through serr-obs typed events (the
# sanctioned StderrSink writes via io::stderr(), which the lint does not
# flag). Only the root CLI package is exempt: its lib hosts the command
# runner whose stdout IS the product, and no workspace crate depends on
# it. --lib keeps the bench binaries out of scope automatically.
cargo clippy --workspace --exclude soft-error-analysis --lib -- \
  -A clippy::all -D clippy::print_stderr -D clippy::print_stdout
