//! A trace-driven, cycle-level, out-of-order superscalar timing simulator —
//! the workspace's substitute for IBM's Turandot (paper Section 4.1).
//!
//! The paper generates masking traces by running SPEC CPU2000 through
//! Turandot configured as the POWER4-like core of Table 1. Turandot is
//! closed source; this crate implements a comparable machine:
//!
//! * 8-wide fetch with an L1 I-cache, iTLB, and misprediction stalls;
//! * dispatch groups of 5 into a 150-entry reorder buffer with register
//!   renaming onto an 80-integer + 72-FP physical file;
//! * 2 integer, 2 floating-point, 2 load/store, and 1 branch unit with
//!   Table 1 latencies (integer 1/4/35 add/mul/div; FP 5, divide 28);
//! * a 32-entry memory queue in front of L1D (32 KB, 2-way) → L2 (1 MB,
//!   4-way) → memory at 1/10/77-cycle latencies, with a 128-entry dTLB;
//! * in-order retirement of one dispatch group per cycle.
//!
//! While it simulates, a [`masking::MaskingCollector`] records the paper's
//! four component masking traces: integer-unit, FP-unit, and decode-unit
//! busy cycles (conservative: busy ⇒ unmasked) and register-file liveness
//! (an entry is vulnerable from the cycle its value is produced until its
//! last read).
//!
//! # Event skipping
//!
//! The simulator does work in proportion to events, not cycles. A cycle
//! in which nothing writes back, retires, issues, dispatches or fetches
//! leaves every piece of state but the clock unchanged, and so does every
//! cycle after it until the next pending event: an executing op's
//! completion, the end of an I-cache stall, or a blocking divider freeing
//! its unit (cache probes have no side effects and FP units are fully
//! pipelined, so nothing else can unblock the pipeline). After such a
//! cycle the clock jumps straight to that event. The skipped cycles count
//! toward [`SimStats::dispatch_stall_cycles`] exactly as stepping through
//! them would, and the deadlock watchdog fires at the same cycle. The
//! collector likewise keeps events — busy intervals, dispatch counts,
//! liveness boundaries — rather than per-cycle arrays, so a memory-bound
//! program such as mcf, idle on ~90% of its cycles, costs a fraction of
//! its cycle count in time and memory. Statistics and trace bytes are
//! identical to a cycle-by-cycle walk.
//!
//! # Wakeup-driven issue
//!
//! Within a cycle, no stage scans the reorder buffer. Issue pushes each
//! op's `(done_at, index)` onto a completion heap; writeback pops the ones
//! due, and the event skip reads the heap's top. At dispatch an entry
//! counts its not-ready sources and registers with each source register's
//! wakeup list; writeback of a register drains its list, and an entry
//! whose count reaches zero joins an age-ordered ready queue. Issue walks
//! that queue oldest first and keeps the entries that found no unit, so it
//! makes exactly the attempts a full ROB walk would, in the same order.
//! Waiter lists cannot go stale: a physical register is freed only when
//! the next writer of its architectural register retires, after every
//! consumer of the old value has retired.
//!
//! # Example
//!
//! ```
//! use serr_sim::{SimConfig, Simulator};
//! use serr_trace::VulnerabilityTrace;
//! use serr_workload::{BenchmarkProfile, TraceGenerator};
//!
//! let profile = BenchmarkProfile::by_name("gzip").unwrap();
//! let gen = TraceGenerator::new(profile, 1);
//! let out = Simulator::new(SimConfig::power4()).run(gen, 20_000).unwrap();
//! assert!(out.stats.ipc() > 0.3 && out.stats.ipc() < 8.0);
//! assert!(out.traces.int_unit.avf() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod masking;
pub mod predictor;

mod config;
mod engine;
mod regfile;

pub use config::SimConfig;
pub use engine::{SimOutput, SimStats, Simulator};
pub use masking::ProcessorMaskingTraces;
