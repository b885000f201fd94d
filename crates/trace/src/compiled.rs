//! Compiled vulnerability traces: the hot-loop representation, [`CompiledTrace`].

use std::sync::Arc;

use crate::interval::Rec;
use crate::{IntervalTrace, VulnerabilityTrace};
use serr_types::SerrError;

/// Longest within-bucket segment range resolved by linear scan before
/// switching to binary search.
const LINEAR_SCAN_MAX: usize = 16;

/// Bucket-index entries per segment for a flat trace (before the
/// [`CompiledTrace::MAX_BUCKETS`] and period caps): finer buckets past ~4
/// per segment buy nothing.
const BUCKETS_PER_SEGMENT: u64 = 4;

/// Bucket-index entries per segment for a tile part's inner tables. One
/// keeps every lookup window at a few segments — still `O(1)` — while a
/// day-scale tiling's inner tables stay resident for a whole sweep or a
/// service's lifetime next to their raw traces, so their footprint counts.
const TILE_BUCKETS_PER_SEGMENT: u64 = 1;

/// A query-optimized lowering of a [`VulnerabilityTrace`] with `O(1)`
/// expected point and cumulative queries: flat bucket-indexed segment
/// tables, or a tile level over such tables.
///
/// Every other representation in this crate optimizes for *construction*
/// (simulator output, day-scale synthesis, composition) and answers point
/// queries in `O(log n)` through at least one virtual call. The Monte Carlo
/// sampler, by contrast, issues one `vulnerability_at` per raw-error event —
/// hundreds of millions of times per sweep — so [`CompiledTrace`] lowers any
/// [`VulnerabilityTrace`] into a query-optimized form once per run. There are
/// two layouts, chosen once at compile time:
///
/// **Flat** — every trace whose span count fits
/// [`CompiledTrace::MAX_SEGMENTS`]:
///
/// * the trace's [`crate::IntervalTrace`] span table — 24-byte
///   `{prefix, start, value}` records closed by a sentinel
///   `{+∞, period, 0}`, so a resolved segment costs one or two cache
///   lines — shared with the source when it holds one (an
///   `IntervalTrace`, a [`crate::CompositeTrace`]'s memo), built from its
///   span walk otherwise;
/// * a **bucketed phase→segment index**: the period is divided into
///   2ᵏ-cycle buckets and each bucket records the index of the segment
///   containing its first cycle, so a point query is one shift, one table
///   read, and a scan over the (almost always 0 or 1) segment boundaries
///   inside the bucket — `O(1)` instead of `partition_point`'s `O(log n)`;
/// * a **bucketed inverse (mass→segment) index** over the prefix sums,
///   mirroring the phase index: the total vulnerability mass is divided
///   into equal-width buckets and each bucket records where its first mass
///   coordinate lands in the prefix table, so
///   [`CompiledTrace::phase_at_cumulative`] — the inner loop of the
///   inversion sampler, which turns an `Exp(1)` draw into a failing cycle —
///   is also `O(1)` amortized;
/// * a precomputed [`is_binary`](VulnerabilityTrace::is_binary) flag that
///   lets the sampler skip the Bernoulli masking draw for 0/1 traces.
///
/// The bucket table is capped at [`CompiledTrace::MAX_BUCKETS`] entries
/// (a few MiB) so day/week-scale periods (10¹⁴ cycles) stay cheap to index;
/// when a bucket then spans many segments, the query falls back to a binary
/// search *within that bucket's segment range*, which is still at worst the
/// old `O(log n)` and in practice far better.
///
/// **Tiled** — a trace whose
/// [`span_count_hint`](VulnerabilityTrace::span_count_hint) exceeds the
/// segment cap but which exposes a [`tiling`](VulnerabilityTrace::tiling)
/// (the paper's `combined` workload: a [`crate::ConcatTrace`] looping one
/// benchmark trace ~4×10⁷ times per half-day, or a [`crate::ScaledTrace`]
/// over one). Each part keeps its inner trace compiled flat, its tile count,
/// its start cycle, and the vulnerability mass before it. Every query is the
/// flat query one level down: locate the part, divide out the tile, ask the
/// inner tables. Λ-inversion becomes three steps — pick the part from the
/// prefix over parts, take the tile `k = ⌊(m − mass_before)/inner_mass⌋`,
/// invert the remainder in the inner tables and add `start + k·inner_period`.
///
/// Which layout a trace has is decided once per call, never per element.
/// Batched inversion ([`CompiledTrace::phase_at_cumulative_batch`]) runs
/// a branchless select-chain on flat tables of up to
/// [`CompiledTrace::BATCH_SCAN_SEGMENTS`] segments; larger flat tables, and
/// every tile part's inner tables, run one staged probe whose passes each
/// sweep the whole batch, so the cache misses of many masses overlap
/// instead of queueing behind one another.
///
/// A trace that is over the cap and has no tiling (say a phase-shifted
/// `combined`) is irreducible: [`CompiledTrace::compile`] returns `None`.
///
/// ```
/// use serr_trace::{CompiledTrace, IntervalTrace, VulnerabilityTrace};
///
/// let source = IntervalTrace::busy_idle(25, 75).unwrap();
/// let compiled = CompiledTrace::compile(&source).expect("two segments compile");
/// assert_eq!(compiled.period_cycles(), 100);
/// assert_eq!(compiled.avf(), 0.25);
/// assert!(compiled.is_binary());
/// for c in 0..200 {
///     assert_eq!(compiled.vulnerability_at(c), source.vulnerability_at(c));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledTrace {
    layout: Layout,
}

#[derive(Debug, Clone)]
enum Layout {
    Flat(Flat),
    Tiled(Tiled),
}

/// The flat layout: a span table plus its bucket indexes.
#[derive(Debug, Clone)]
struct Flat {
    /// The segment records, their period and total mass; shared with the
    /// source trace the table came from.
    table: IntervalTrace,
    binary: bool,
    /// Bucket width is `1 << bucket_shift` cycles.
    bucket_shift: u32,
    /// `buckets[b]` = index of the segment containing cycle `b <<
    /// bucket_shift`.
    buckets: Vec<u32>,
    /// Inverse (mass→segment) bucket table: `inv_buckets[b]` = the number
    /// of segments whose prefix is `≤ b·w`, where `w = total /
    /// inv_buckets.len()` — the search window start for any mass coordinate
    /// inside bucket `b`. Empty when `total == 0` (nothing to invert).
    inv_buckets: Vec<u32>,
    /// Index density both bucket tables were sized with.
    buckets_per_segment: u64,
}

/// The tile level: parts run one after another, each a flat inner trace
/// repeated a whole number of times.
#[derive(Debug, Clone)]
struct Tiled {
    parts: Vec<TilePart>,
    period: u64,
    /// Cumulative vulnerability over the whole period.
    total: f64,
    avf: f64,
    binary: bool,
}

#[derive(Debug, Clone)]
struct TilePart {
    /// One period of the part's trace, compiled flat. Shared, so
    /// [`VulnerabilityTrace::tiling`] hands it out without copying tables.
    inner: Arc<Flat>,
    tiles: u64,
    /// First cycle of the part within the tiled period.
    start: u64,
    /// Cumulative vulnerability before the part starts.
    mass_before: f64,
}

/// Reusable stage buffers of [`CompiledTrace::phase_at_cumulative_batch`]
/// and [`CompiledTrace::phase_at_cumulative_batch_hinted`]: the segment
/// each entry landed in (the hints of the next hinted call), the staged
/// probe's miss list and search windows, and the tile level's part, tile
/// base and grouping per entry. The buffers grow to the largest batch once
/// and are reused, so a caller that keeps one scratch allocates nothing in
/// its steady state.
#[derive(Debug, Default, Clone)]
pub struct InverseScratch {
    /// Segment per entry: hints in, landing segments out.
    segs: Vec<u32>,
    stage: Stage,
    tile: TileStage,
}

impl InverseScratch {
    /// Fresh, empty scratch. Buffers size themselves on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every segment hint, so the next hinted call starts cold.
    pub fn forget_hints(&mut self) {
        self.segs.clear();
    }
}

/// The staged probe's per-batch buffers for one flat table.
#[derive(Debug, Default, Clone)]
struct Stage {
    /// Entries whose hint missed, in batch order.
    misses: Vec<u32>,
    /// The search window `lo..hi` of each miss.
    windows: Vec<(usize, usize)>,
}

/// The tile level's per-batch buffers.
#[derive(Debug, Default, Clone)]
struct TileStage {
    /// Part per entry; the part count stands for "no part holds mass".
    parts: Vec<u32>,
    /// First cycle of each entry's tile.
    bases: Vec<u64>,
    /// Counting-sort bounds: part `q`'s entries are
    /// `order[starts[q]..starts[q + 1]]`.
    starts: Vec<u32>,
    /// Entry indices grouped by part.
    order: Vec<u32>,
    /// One part's local masses (phases after its probe), gathered.
    locals: Vec<f64>,
    /// One part's landing segments (its probe takes no hints).
    local_segs: Vec<u32>,
}

/// A segment slot holding no hint: out of range for every table.
const NO_HINT: u32 = u32::MAX;

impl CompiledTrace {
    /// Hard cap on the flattened segment count, and the threshold above
    /// which [`crate::ConcatTrace::breakpoints`] refuses to enumerate, so
    /// compilation never triggers that panic. Traces above it compile to
    /// the tile level when they expose a tiling. The longest product trace
    /// (equake at `--paper` scale) has about 4.3M spans, half the cap.
    pub const MAX_SEGMENTS: u64 = 1 << 23;

    /// Memory cap on the bucket table (entries are `u32`, so this is 8 MiB).
    /// Periods longer than this many cycles get proportionally wider
    /// buckets; queries inside a crowded bucket fall back to binary search.
    pub const MAX_BUCKETS: u64 = 1 << 21;

    /// Longest segment table resolved by the branchless select-chain in
    /// [`CompiledTrace::phase_at_cumulative_batch`]; longer tables run the
    /// staged batch probe.
    pub const BATCH_SCAN_SEGMENTS: usize = 32;

    /// Lowers `trace` into the compiled form.
    ///
    /// A trace whose [`span_count_hint`](VulnerabilityTrace::span_count_hint)
    /// fits [`CompiledTrace::MAX_SEGMENTS`] compiles flat: it shares the
    /// trace's [`span_table`](VulnerabilityTrace::span_table) when it holds
    /// one, and otherwise costs one [`spans`](VulnerabilityTrace::spans)
    /// walk into a new table. An over-cap trace
    /// compiles tiled when its [`tiling`](VulnerabilityTrace::tiling) has
    /// parts that each compile flat. Returns `None` for everything else: an
    /// over-cap trace without a tiling (or with nested tilings), or a trace
    /// whose real span count exceeds the cap despite a small hint. Either cost is meant to be
    /// amortized over the millions of queries of a Monte Carlo run.
    #[must_use]
    pub fn compile(trace: &(impl VulnerabilityTrace + ?Sized)) -> Option<CompiledTrace> {
        let layout = if trace.span_count_hint() > Self::MAX_SEGMENTS {
            Layout::Tiled(Tiled::compile(trace)?)
        } else {
            Layout::Flat(Flat::compile(trace, BUCKETS_PER_SEGMENT)?)
        };
        Some(CompiledTrace { layout })
    }

    /// True when the trace compiled to the tile level.
    #[must_use]
    pub fn is_tiled(&self) -> bool {
        matches!(self.layout, Layout::Tiled(_))
    }

    /// Number of (merged) segments held in the compiled tables: the flat
    /// segment count, or the sum over a tiled trace's inner tables.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.tables().map(Flat::len).sum()
    }

    /// Number of entries in the phase→segment bucket tables (summed over
    /// parts for a tiled trace).
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.tables().map(|f| f.buckets.len()).sum()
    }

    /// Bucket width in cycles (a power of two; the widest part's for a
    /// tiled trace).
    #[must_use]
    pub fn bucket_cycles(&self) -> u64 {
        self.tables().map(|f| 1u64 << f.bucket_shift).max().unwrap_or(1)
    }

    /// Number of entries in the inverse (mass→segment) bucket tables
    /// (zero for never-vulnerable traces).
    #[must_use]
    pub fn inv_bucket_count(&self) -> usize {
        self.tables().map(|f| f.inv_buckets.len()).sum()
    }

    /// Every flat table the compiled form holds: itself, or each part's
    /// inner tables.
    fn tables(&self) -> impl Iterator<Item = &Flat> {
        let (flat, parts) = match &self.layout {
            Layout::Flat(f) => (Some(f), &[][..]),
            Layout::Tiled(t) => (None, &t.parts[..]),
        };
        flat.into_iter().chain(parts.iter().map(|p| &*p.inner))
    }

    /// Cumulative vulnerability mass over one full period
    /// (`avf × period`, in cycle units). The inversion sampler's `Λ(L)/λ`.
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        match &self.layout {
            Layout::Flat(f) => f.total(),
            Layout::Tiled(t) => t.total,
        }
    }

    /// Cumulative vulnerability `V(phase)` at a *fractional* phase within
    /// the period: the integral of `v(t)` over `[0, phase)`, linearly
    /// interpolated inside the containing segment. The fractional analog of
    /// [`VulnerabilityTrace::cumulative_within_period`], used by the
    /// inversion sampler to offset the first window by the trial's
    /// `initial_phase`.
    #[must_use]
    pub fn cumulative_at(&self, phase: f64) -> f64 {
        match &self.layout {
            Layout::Flat(f) => f.cumulative_at(phase),
            Layout::Tiled(t) => t.cumulative_at(phase),
        }
    }

    /// Inverts the cumulative-vulnerability function: returns the fractional
    /// phase `ψ ∈ [0, period)` with `V(ψ) = m`, for `m ∈ [0, total_mass())`.
    ///
    /// This is the inversion sampler's segment search. The bucketed inverse
    /// index narrows the candidate range to a handful of prefix entries
    /// (`O(1)` amortized); a short boundary walk then pins the exact
    /// segment, absorbing the one-ulp disagreements between the build-time
    /// bucket boundaries `b·w` and the query-time division `m/w`. The
    /// landing segment always has `v > 0` on a self-consistent table: the
    /// last prefix entry `≤ m` cannot start a zero-mass run that reaches
    /// `total`, because then `m < total` would be unreachable mass. A tiled
    /// trace first picks the part and the tile, then runs the same search
    /// in the part's inner tables.
    ///
    /// Out-of-range or non-finite `m` (possible only through corrupted
    /// tables feeding the caller) is clamped, never a panic: a compiled
    /// trace whose bytes can have changed since its compile (a cache hit,
    /// an injected fault) is re-checked with [`CompiledTrace::verify`]
    /// before it is trusted, and chaos campaigns rely on corruption
    /// surfacing there rather than as a crash here.
    #[must_use]
    pub fn phase_at_cumulative(&self, m: f64) -> f64 {
        match &self.layout {
            Layout::Flat(f) => f.phase_at_cumulative(m),
            Layout::Tiled(t) => t.phase_at_cumulative(m),
        }
    }

    /// Batched [`CompiledTrace::phase_at_cumulative`]: replaces every mass
    /// coordinate in `masses` with its inverse phase, in place. `scratch`
    /// holds the stage buffers, so a caller that reuses it allocates
    /// nothing once the buffers have grown to its batch size.
    ///
    /// For flat tables up to [`CompiledTrace::BATCH_SCAN_SEGMENTS`]
    /// segments — the overwhelmingly common case after compile-time
    /// merging — the lookup is a branchless select-chain over
    /// stack-resident copies of the prefix table: each segment contributes
    /// one compare-and-blend, so the winning lane is the *last* index with
    /// `prefix ≤ m`, exactly the segment the scalar probe's pin-walk lands
    /// on (zero-run boundary handling included). The chain has a
    /// compile-time trip count (tables are padded to the next lane tier
    /// with `+∞` prefixes that never win), no data-dependent branches, and
    /// no gathers — every table entry is a loop-invariant scalar — which is
    /// what lets the compiler keep the prefix data in registers and
    /// vectorize across the batch. Within the segment it computes the
    /// offset with a precomputed reciprocal (one ulp-level difference from
    /// the scalar division), which is why the batched sampler carries its
    /// own RNG schedule version instead of claiming bit-equality with the
    /// scalar sampler.
    ///
    /// Larger flat tables, and the inner tables of every tile part, run the
    /// staged probe: straight-line passes over the whole batch that clamp
    /// every mass, gather its inverse-bucket window, touch the window's
    /// first record, then resolve each segment with the scalar probe's walk
    /// and compute each phase with its operations in its order. The
    /// independent loads of many masses overlap instead of each waiting on
    /// the last, and the phases are bit-identical to the scalar probe's. A
    /// tiled trace first computes each mass's part, tile and local mass in
    /// one pass, runs each part's staged probe over the masses that land in
    /// it, and places the phases in their tiles.
    pub fn phase_at_cumulative_batch(&self, masses: &mut [f64], scratch: &mut InverseScratch) {
        scratch.segs.clear();
        self.invert_batch(masses, scratch);
    }

    /// [`CompiledTrace::phase_at_cumulative_batch`] warm-started from the
    /// segments the previous call on `scratch` landed in, for callers that
    /// invert many batches of nearby masses entry by entry — the sweep
    /// kernel, whose neighboring rates put each trial's mass in the same
    /// segment point after point. Entries beyond the previous batch start
    /// cold; [`InverseScratch::forget_hints`] drops every hint.
    ///
    /// The staged probe on a large flat table tries each hinted segment
    /// before searching; a hint is accepted only when that segment holds
    /// the mass, so on a self-consistent table the result is bit-identical
    /// to the unhinted batch for any hints. The select-chain and the tile
    /// level ignore the hints.
    pub fn phase_at_cumulative_batch_hinted(
        &self,
        masses: &mut [f64],
        scratch: &mut InverseScratch,
    ) {
        self.invert_batch(masses, scratch);
    }

    /// The body of both batched inversions: `scratch.segs` holds the hints
    /// (none after a clear) and receives the landing segments.
    fn invert_batch(&self, masses: &mut [f64], scratch: &mut InverseScratch) {
        match &self.layout {
            Layout::Flat(f) if f.len() > Self::BATCH_SCAN_SEGMENTS => {
                scratch.segs.resize(masses.len(), NO_HINT);
                f.invert_staged(masses, &mut scratch.segs, &mut scratch.stage);
            }
            Layout::Flat(f) => f.invert_small(masses),
            Layout::Tiled(t) => t.invert_staged(masses, &mut scratch.stage, &mut scratch.tile),
        }
    }

    /// Batched [`CompiledTrace::cumulative_at`]: writes `V(phase)` for each
    /// fractional phase into `out`. The stationary-start batched sampler
    /// uses this to price each trial's initial phase before drawing.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn cumulative_at_batch(&self, phases: &[f64], out: &mut [f64]) {
        assert_eq!(phases.len(), out.len(), "phase and output slices out of lockstep");
        match &self.layout {
            Layout::Flat(f) => {
                for (o, &p) in out.iter_mut().zip(phases) {
                    *o = f.cumulative_at(p);
                }
            }
            Layout::Tiled(t) => {
                for (o, &p) in out.iter_mut().zip(phases) {
                    *o = t.cumulative_at(p);
                }
            }
        }
    }

    /// The flat tables the fault injectors target: the trace's own, or the
    /// inner tables of the part carrying the most vulnerability mass
    /// (`tiles × inner mass`) — the corruption that moves the estimate the
    /// most. The injectors write copy-on-write, so tables shared with the
    /// source trace or other compiled traces stay intact.
    fn chaos_target(&mut self) -> &mut Flat {
        match &mut self.layout {
            Layout::Flat(f) => f,
            Layout::Tiled(t) => {
                let mut best = 0usize;
                let mut best_mass = -1.0f64;
                for (i, p) in t.parts.iter().enumerate() {
                    let mass = p.tiles as f64 * p.inner.total();
                    if mass > best_mass {
                        best_mass = mass;
                        best = i;
                    }
                }
                Arc::make_mut(&mut t.parts[best].inner)
            }
        }
    }

    /// Fault injection: XORs `bit` into the IEEE-754 bit pattern of the
    /// dominant segment's value, modeling a memory bit flip in the compiled
    /// table. Derived fields are deliberately left stale — that is the
    /// inconsistency [`CompiledTrace::verify`] exists to catch. A tiled
    /// trace takes the flip in its dominant part's inner table.
    pub fn chaos_flip_dominant_value_bit(&mut self, bit: u32) {
        debug_assert!(bit < 64, "f64 has 64 bits, got bit index {bit}");
        let f = self.chaos_target();
        let i = f.dominant_segment();
        let rec = &mut Arc::make_mut(&mut f.table.recs)[i];
        rec.value = f64::from_bits(rec.value.to_bits() ^ (1u64 << bit));
    }

    /// Fault injection: adds `delta_frac` of the total vulnerability mass to
    /// one prefix-sum entry (chosen by `selector`) — of the dominant part's
    /// inner table, for a tiled trace. The event-loop sampler never reads
    /// the prefix table, so to it this corruption is invisible; the
    /// inversion sampler reads prefix sums on *every* trial
    /// ([`CompiledTrace::phase_at_cumulative`]), so a perturbed entry skews
    /// the sampled failure phases directly. Either way the corruption must
    /// be caught *before* estimation by [`CompiledTrace::verify`]'s
    /// recomputation — which is why a cache hit or a chaos campaign
    /// re-verifies a compiled trace before estimating with it. The
    /// sentinel record is never a target.
    pub fn chaos_perturb_prefix(&mut self, selector: u64, delta_frac: f64) {
        debug_assert!(delta_frac != 0.0, "a zero perturbation injects nothing");
        let f = self.chaos_target();
        let i = (selector % f.len() as u64) as usize;
        let scale = if f.total() > 0.0 { f.total() } else { 1.0 };
        Arc::make_mut(&mut f.table.recs)[i].prefix += delta_frac * scale;
    }

    /// Fault injection: multiplies the dominant segment's value by `factor`
    /// and recomputes every derived field (prefix sums, total, AVF, binary
    /// flag; part masses for a tiled trace) so the trace stays fully
    /// self-consistent. This models corruption *before* compilation:
    /// structural checks pass by construction and only a cross-engine
    /// consistency check can notice.
    pub fn chaos_scale_dominant_value(&mut self, factor: f64) {
        debug_assert!(
            factor.is_finite() && (0.0..=1.0).contains(&factor),
            "scale factor must stay within [0, 1] to keep values valid, got {factor}"
        );
        self.chaos_target().scale_dominant_value(factor);
        if let Layout::Tiled(t) = &mut self.layout {
            let parts = t.parts.iter().map(|p| (Arc::clone(&p.inner), p.tiles)).collect();
            *t = Tiled::new(parts)
                .expect("tile geometry is unchanged from a previously valid compile");
        }
    }

    /// Structural self-check: segment geometry, value ranges, and all
    /// derived fields (prefix sums, total, AVF, binary flag) must be
    /// mutually consistent. A tiled trace checks every part's inner tables
    /// the same way, then recomputes the part starts, tile counts,
    /// masses-before, period, total, AVF and binary flag.
    ///
    /// This is the poisoning detector run on every compiled trace whose
    /// bytes can have changed since its compile (a cache hit, an injected
    /// fault) before it is trusted: an undetected bit flip in the segment
    /// table silently rescales every estimate, which is exactly the
    /// "silently wrong" failure mode the paper warns about. The prefix
    /// tolerance scales with segment count because [`CompiledTrace::compile`]
    /// accumulates its sums over pre-merge source spans, which legitimately
    /// differs from a post-merge recomputation by a few ulps per span.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] naming the first inconsistency.
    pub fn verify(&self) -> Result<(), SerrError> {
        match &self.layout {
            Layout::Flat(f) => f.verify(),
            Layout::Tiled(t) => t.verify(),
        }
    }
}

impl Flat {
    /// The flat compiler behind [`CompiledTrace::compile`], with bucket
    /// indexes sized at `buckets_per_segment`; the caller has already
    /// checked the span-count hint. The hint is advisory, so a table past
    /// the segment cap still refuses here, before the u32 bucket indexes.
    fn compile(
        trace: &(impl VulnerabilityTrace + ?Sized),
        buckets_per_segment: u64,
    ) -> Option<Flat> {
        let table = IntervalTrace::of(trace, CompiledTrace::MAX_SEGMENTS).ok()?;
        let recs = &table.recs;
        // The sentinel's value is 0, so it never clears the flag.
        let binary = recs.iter().all(|r| r.value == 0.0 || r.value == 1.0);
        // The segment cap keeps the index conversions inside u32, so a
        // conversion failure is unreachable here; treat it as a refusal all
        // the same.
        let (bucket_shift, buckets) =
            build_buckets(recs, table.period_cycles(), buckets_per_segment).ok()?;
        let inv_buckets = build_inv_buckets(recs, table.total, buckets_per_segment).ok()?;
        Some(Flat { table, binary, bucket_shift, buckets, inv_buckets, buckets_per_segment })
    }

    /// The segment records, sentinel last.
    #[inline]
    fn recs(&self) -> &[Rec] {
        &self.table.recs
    }

    /// Cumulative vulnerability over the whole period (= `avf × period`).
    fn total(&self) -> f64 {
        self.table.total
    }

    /// Number of segments (the sentinel record excluded).
    fn len(&self) -> usize {
        self.table.segment_count()
    }

    fn cumulative_at(&self, phase: f64) -> f64 {
        debug_assert!(
            phase.is_finite() && (0.0..=self.period_cycles() as f64).contains(&phase),
            "phase {phase} outside [0, {}]",
            self.period_cycles()
        );
        if phase >= self.period_cycles() as f64 {
            return self.total();
        }
        let c = (phase as u64).min(self.period_cycles() - 1);
        let r = &self.recs()[self.segment_index(c)];
        r.prefix + (phase - r.start as f64) * r.value
    }

    fn phase_at_cumulative(&self, m: f64) -> f64 {
        debug_assert!(
            m.is_finite() && (0.0..self.total().max(f64::MIN_POSITIVE)).contains(&m),
            "mass {m} outside [0, {})",
            self.total()
        );
        if !self.invertible() {
            // Never-vulnerable (or corrupted-to-empty) trace: nothing to
            // invert; callers cannot reach here through the sampler because
            // AVF = 0 traces never fail.
            return 0.0;
        }
        let m = m.clamp(0.0, self.total());
        let (lo, hi) = self.mass_window(m);
        self.phase_in_segment(self.resolve(lo, hi, m), m)
    }

    /// True when there is mass to invert.
    fn invertible(&self) -> bool {
        !self.inv_buckets.is_empty() && has_positive_mass(self.total())
    }

    /// The search window `lo..hi` for mass `m` (already clamped to `[0,
    /// total]`): its inverse bucket's entry and the next one, with ±1
    /// slack. [`Flat::resolve`] makes the result independent of any
    /// rounding in the bucket choice.
    #[inline]
    fn mass_window(&self, m: f64) -> (usize, usize) {
        let n = self.len();
        let n_inv = self.inv_buckets.len();
        let w = self.total() / n_inv as f64;
        let b = ((m / w) as usize).min(n_inv - 1);
        let lo = (self.inv_buckets[b] as usize).saturating_sub(1).min(n - 1);
        let hi = self.inv_buckets.get(b + 1).map_or(n, |&j| (j as usize + 1).min(n));
        (lo, hi)
    }

    /// The segment holding mass `m` (already clamped to `[0, total]`): the
    /// last index with `prefix ≤ m`, searched from the window `lo..hi`.
    #[inline]
    fn resolve(&self, lo: usize, hi: usize, m: f64) -> usize {
        let (recs, n) = (self.recs(), self.len());
        let j = if hi.saturating_sub(lo) <= LINEAR_SCAN_MAX {
            let mut j = lo;
            while j < hi && recs[j].prefix <= m {
                j += 1;
            }
            j
        } else {
            lo + recs[lo..hi].partition_point(|r| r.prefix <= m)
        };
        // Pin the true last index with prefix[i] <= m (walks are O(1): they
        // only move past entries inside the one-ulp boundary window or
        // across zero-mass segments sharing a prefix value).
        let mut i = j.saturating_sub(1).min(n - 1);
        while i > 0 && recs[i].prefix > m {
            i -= 1;
        }
        while i + 1 < n && recs[i + 1].prefix <= m {
            i += 1;
        }
        i
    }

    /// The phase at mass `m` inside segment `i`.
    #[inline]
    fn phase_in_segment(&self, i: usize, m: f64) -> f64 {
        let recs = self.recs();
        let (r, start) = (&recs[i], recs[i].start as f64);
        let off = if r.value > 0.0 { (m - r.prefix).max(0.0) / r.value } else { 0.0 };
        let end = recs[i + 1].start as f64;
        let phase = start + off;
        if phase >= end {
            // Division rounded up to (or past) the segment boundary; step
            // back inside so the returned cycle is always vulnerable.
            end.next_down().max(start)
        } else {
            phase
        }
    }

    /// The staged batch probe: [`Flat::phase_at_cumulative`] over a whole
    /// batch, one pass per step, so the cache misses of different masses
    /// overlap instead of each waiting behind the last one's dependent
    /// loads. `segs` (one entry per mass) holds a segment hint per entry,
    /// [`NO_HINT`] or anything out of range for none, and receives the
    /// segment each entry lands in.
    ///
    /// 1. Clamp every mass and test its hint: segment `h` is taken only
    ///    when it holds the mass (`prefix[h] ≤ m < prefix[h + 1]`, the
    ///    sentinel's `+∞` closing the last segment), which on a sorted
    ///    table is the segment the search finds. The loads are branch-free;
    ///    misses are appended to a list without a branch.
    /// 2. Gather the inverse-bucket window of each miss.
    /// 3. Touch the first record of each window, so those misses overlap.
    /// 4. Resolve each miss with the scalar walk.
    /// 5. Compute each phase from its segment's record and the next.
    ///
    /// Every step uses the scalar probe's operations in its order, so the
    /// phases are bit-identical to it for any hints.
    fn invert_staged(&self, masses: &mut [f64], segs: &mut [u32], stage: &mut Stage) {
        debug_assert_eq!(masses.len(), segs.len(), "one segment slot per mass");
        if !self.invertible() {
            masses.fill(0.0);
            return;
        }
        let n = self.len();
        let total = self.total();
        let recs = self.recs();

        let misses = &mut stage.misses;
        misses.clear();
        misses.resize(masses.len(), 0);
        let mut missed = 0usize;
        for (j, (m, &h)) in masses.iter_mut().zip(segs.iter()).enumerate() {
            debug_assert!(
                m.is_finite() && (0.0..total.max(f64::MIN_POSITIVE)).contains(m),
                "mass {m} outside [0, {total})"
            );
            let mm = m.clamp(0.0, total);
            *m = mm;
            let h = h as usize;
            let hc = h.min(n - 1);
            let hit = (h < n) & (recs[hc].prefix <= mm) & (recs[hc + 1].prefix > mm);
            misses[missed] = j as u32;
            missed += usize::from(!hit);
        }
        misses.truncate(missed);

        let windows = &mut stage.windows;
        windows.clear();
        windows.extend(misses.iter().map(|&j| self.mass_window(masses[j as usize])));

        let mut touched = 0u64;
        for &(lo, _) in windows.iter() {
            touched ^= recs[lo].start;
        }
        std::hint::black_box(touched);

        for (&j, &(lo, hi)) in misses.iter().zip(windows.iter()) {
            let j = j as usize;
            // Below MAX_SEGMENTS, so the index fits the u32 slot.
            segs[j] = self.resolve(lo, hi, masses[j]) as u32;
        }

        for (m, &i) in masses.iter_mut().zip(segs.iter()) {
            *m = self.phase_in_segment(i as usize, *m);
        }
    }

    /// The select-chain dispatch of [`CompiledTrace::phase_at_cumulative_batch`]
    /// for tables of at most [`CompiledTrace::BATCH_SCAN_SEGMENTS`]
    /// segments.
    fn invert_small(&self, masses: &mut [f64]) {
        if !self.invertible() {
            masses.fill(0.0);
            return;
        }
        match self.len() {
            0..=2 => self.invert_select_chain::<2>(masses),
            3..=4 => self.invert_select_chain::<4>(masses),
            5..=8 => self.invert_select_chain::<8>(masses),
            9..=16 => self.invert_select_chain::<16>(masses),
            _ => self.invert_select_chain::<{ CompiledTrace::BATCH_SCAN_SEGMENTS }>(masses),
        }
    }

    /// The tiered select-chain body of
    /// [`CompiledTrace::phase_at_cumulative_batch`]: `LANES` is the padded
    /// compile-time segment count (`≥ self.len()`).
    fn invert_select_chain<const LANES: usize>(&self, masses: &mut [f64]) {
        let n = self.len();
        debug_assert!((1..=LANES).contains(&n));
        let mut pre = [f64::INFINITY; LANES];
        let mut inv_v = [0.0f64; LANES];
        let mut start_f = [0.0f64; LANES];
        let mut end_down = [0.0f64; LANES];
        for (j, w) in self.recs().windows(2).enumerate() {
            pre[j] = w[0].prefix;
            inv_v[j] = if w[0].value > 0.0 { 1.0 / w[0].value } else { 0.0 };
            start_f[j] = w[0].start as f64;
            end_down[j] = (w[1].start as f64).next_down().max(start_f[j]);
        }
        let total = self.total();
        for m in masses {
            let mm = m.clamp(0.0, total);
            // Lane 0 always qualifies (prefix[0] = 0 ≤ mm); later lanes
            // overwrite while their prefix stays ≤ mm, so the survivor is
            // the last qualifying segment — the scalar pin-walk's answer.
            // `mm − pre[j]` is ≥ 0 whenever lane j is selected, and min()
            // against the predecessor of the segment end is the branchless
            // form of the scalar "step back inside the segment" clamp
            // (phase < end implies phase ≤ next_down(end)); a zero-mass
            // lane has inv_v = 0 and resolves to its start, as scalar.
            let mut phase = (mm * inv_v[0]).min(end_down[0]);
            for j in 1..LANES {
                let cand = (start_f[j] + (mm - pre[j]) * inv_v[j]).min(end_down[j]);
                phase = if pre[j] <= mm { cand } else { phase };
            }
            *m = phase;
        }
    }

    /// Index of the segment containing `c` (already reduced mod period):
    /// one shift + one table read, then a bounded scan or an in-bucket
    /// binary search over the records' starts.
    #[inline]
    fn segment_index(&self, c: u64) -> usize {
        let recs = self.recs();
        let b = (c >> self.bucket_shift) as usize;
        let lo = self.buckets[b] as usize;
        let hi = self.buckets.get(b + 1).map_or(recs.len() - 1, |&i| i as usize);
        if hi - lo <= LINEAR_SCAN_MAX {
            let mut i = lo;
            // Safe: some segment in lo..=hi ends after c (the sentinel
            // starts at the period, and c < period).
            while recs[i + 1].start <= c {
                i += 1;
            }
            i
        } else {
            lo + recs[lo + 1..=hi].partition_point(|r| r.start <= c)
        }
    }

    /// Index of the segment carrying the most vulnerability mass
    /// (`span length × value`) — the segment whose corruption moves the
    /// final estimate the most, which is what the fault injectors target.
    fn dominant_segment(&self) -> usize {
        let mut best = 0usize;
        let mut best_mass = -1.0f64;
        for (i, w) in self.recs().windows(2).enumerate() {
            let mass = (w[1].start - w[0].start) as f64 * w[0].value;
            if mass > best_mass {
                best_mass = mass;
                best = i;
            }
        }
        best
    }

    /// The body of [`CompiledTrace::chaos_scale_dominant_value`] on one
    /// flat table.
    fn scale_dominant_value(&mut self, factor: f64) {
        let i = self.dominant_segment();
        let recs = Arc::make_mut(&mut self.table.recs);
        recs[i].value *= factor;
        let mut cum = 0.0f64;
        for j in 0..recs.len() - 1 {
            recs[j].prefix = cum;
            cum += (recs[j + 1].start - recs[j].start) as f64 * recs[j].value;
        }
        self.table.total = cum;
        // The sentinel's value is 0, so it never clears the flag.
        self.binary = self.recs().iter().all(|r| r.value == 0.0 || r.value == 1.0);
        self.inv_buckets = build_inv_buckets(self.recs(), cum, self.buckets_per_segment)
            .expect("segment count is unchanged from a previously valid compile");
    }

    fn verify(&self) -> Result<(), SerrError> {
        let (recs, n) = (self.recs(), self.len());
        if n == 0 || recs[n] != Rec::sentinel(recs[n].start) {
            return Err(SerrError::invalid_trace(format!(
                "{n} segments closed by {:?}",
                recs.last()
            )));
        }
        if recs[0].start != 0 {
            return Err(SerrError::invalid_trace(format!(
                "segment 0 starts at {}, not at cycle 0",
                recs[0].start
            )));
        }
        // One pass over the records: geometry and value range first, so
        // the prefix recomputation never reads a segment that failed them.
        let scale = if self.total().is_finite() { self.total().abs().max(1.0) } else { 1.0 };
        let tol = scale * 1e-15 * (n as f64).max(1e3);
        let mut cum = 0.0f64;
        for (i, w) in recs.windows(2).enumerate() {
            let (r, end) = (&w[0], w[1].start);
            if end <= r.start {
                return Err(SerrError::invalid_trace(format!(
                    "segment {i} ends at {end}, not after its start {}",
                    r.start
                )));
            }
            let v = r.value;
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(SerrError::invalid_trace(format!(
                    "segment {i} vulnerability is {v}, outside [0, 1]"
                )));
            }
            if self.binary && v != 0.0 && v != 1.0 {
                return Err(SerrError::invalid_trace(format!(
                    "trace is flagged binary but segment {i} has vulnerability {v}"
                )));
            }
            if (r.prefix - cum).abs() > tol {
                return Err(SerrError::invalid_trace(format!(
                    "prefix sum {i} is {}, recomputation gives {cum}",
                    r.prefix
                )));
            }
            cum += (end - r.start) as f64 * v;
        }
        if !self.total().is_finite() || (self.total() - cum).abs() > tol {
            return Err(SerrError::invalid_trace(format!(
                "total vulnerability mass is {}, recomputation gives {cum}",
                self.total()
            )));
        }
        // The inversion sampler trusts the inverse index to bracket its
        // prefix search; a stale or truncated table silently widens (or
        // misdirects) every mass lookup, so rebuild-and-compare it like the
        // other derived fields.
        if self.inv_buckets
            != build_inv_buckets(self.recs(), self.total(), self.buckets_per_segment)?
        {
            return Err(SerrError::invalid_trace(format!(
                "inverse bucket index ({} entries) disagrees with a rebuild from the prefix table",
                self.inv_buckets.len()
            )));
        }
        Ok(())
    }
}

impl Tiled {
    /// The tiled compiler behind [`CompiledTrace::compile`]: every part of
    /// the trace's tiling must compile flat.
    fn compile(trace: &(impl VulnerabilityTrace + ?Sized)) -> Option<Tiled> {
        let mut parts = Vec::new();
        for (part, tiles) in trace.tiling()? {
            if part.span_count_hint() > CompiledTrace::MAX_SEGMENTS {
                // Nested tilings are not flattened further.
                return None;
            }
            parts.push((Arc::new(Flat::compile(&*part, TILE_BUCKETS_PER_SEGMENT)?), tiles));
        }
        Tiled::new(parts)
    }

    /// Lays `(inner, tiles)` parts end to end and derives the tile-level
    /// fields. `None` for no parts, a zero tile count, or a period that
    /// overflows `u64`.
    fn new(parts: Vec<(Arc<Flat>, u64)>) -> Option<Tiled> {
        let offsets = part_offsets(parts.iter().map(|(f, k)| (&**f, *k)))?;
        let &(period, total) = offsets.last()?;
        let binary = parts.iter().all(|(f, _)| f.binary);
        let parts = parts
            .into_iter()
            .zip(offsets)
            .map(|((inner, tiles), (start, mass_before))| TilePart {
                inner,
                tiles,
                start,
                mass_before,
            })
            .collect();
        Some(Tiled { parts, period, total, avf: total / period as f64, binary })
    }

    /// The part containing cycle `c` (already reduced mod period).
    fn locate(&self, c: u64) -> &TilePart {
        let i = self.parts.partition_point(|p| p.start <= c).saturating_sub(1);
        &self.parts[i]
    }

    fn vulnerability_at(&self, cycle: u64) -> f64 {
        let c = cycle % self.period;
        let p = self.locate(c);
        p.inner.vulnerability_at(c - p.start)
    }

    fn cumulative_within_period(&self, r: u64) -> f64 {
        assert!(r <= self.period, "cycle {r} beyond period {}", self.period);
        if r == self.period {
            return self.total;
        }
        let p = self.locate(r);
        let off = r - p.start;
        let k = off / p.inner.period_cycles();
        p.mass_before
            + k as f64 * p.inner.total()
            + p.inner.cumulative_within_period(off % p.inner.period_cycles())
    }

    fn cumulative_at(&self, phase: f64) -> f64 {
        debug_assert!(
            phase.is_finite() && (0.0..=self.period as f64).contains(&phase),
            "phase {phase} outside [0, {}]",
            self.period
        );
        if phase >= self.period as f64 {
            return self.total;
        }
        let c = (phase as u64).min(self.period - 1);
        let p = self.locate(c);
        let k = (c - p.start) / p.inner.period_cycles();
        let base = p.start + k * p.inner.period_cycles();
        let local = (phase - base as f64).max(0.0).min(p.inner.period_cycles() as f64);
        p.mass_before + k as f64 * p.inner.total() + p.inner.cumulative_at(local)
    }

    /// The first step of Λ-inversion: for mass `m`, the index of the part
    /// holding it (`None` when no part holds mass, which only corrupted
    /// tables allow), the first cycle of its tile, and the mass left to
    /// invert inside that tile. The part comes from the prefix over parts
    /// and the tile from one division.
    fn locate_mass(&self, m: f64) -> (Option<usize>, u64, f64) {
        let m = m.clamp(0.0, self.total);
        // The last part whose mass starts at or below m. A never-vulnerable
        // part shares its successor's mass-before, so it is only picked at
        // m = total when it is last; step back to the part holding the mass.
        let mut i = self.parts.partition_point(|p| p.mass_before <= m).saturating_sub(1);
        while i > 0 && !has_positive_mass(self.parts[i].inner.total()) {
            i -= 1;
        }
        let p = &self.parts[i];
        let inner_mass = p.inner.total();
        if !has_positive_mass(inner_mass) {
            return (None, p.start, 0.0);
        }
        let rest = (m - p.mass_before).max(0.0);
        let k = ((rest / inner_mass) as u64).min(p.tiles.saturating_sub(1));
        // Rounding in the division can leave the remainder a hair outside
        // one tile's mass; clamp it below the inner total like the sampler
        // clamps its own draws.
        let local = (rest - k as f64 * inner_mass).max(0.0).min(inner_mass.next_down());
        (Some(i), p.start + k * p.inner.period_cycles(), local)
    }

    /// Λ-inversion in three steps: the part and tile
    /// ([`Tiled::locate_mass`]), then the inner tables' own inversion
    /// offset by the tile's first cycle.
    fn phase_at_cumulative(&self, m: f64) -> f64 {
        if !has_positive_mass(self.total) {
            return 0.0;
        }
        match self.locate_mass(m) {
            (Some(i), base, local) => place(base, self.parts[i].inner.phase_at_cumulative(local)),
            (None, start, _) => start as f64,
        }
    }

    /// [`Tiled::phase_at_cumulative`] over a batch: one pass locates every
    /// mass's part and tile, a counting sort groups the entries by part,
    /// each part's inner tables run the staged probe over their entries'
    /// local masses, and a last pass places the phases in their tiles. The
    /// per-entry operations are the scalar ones, so the phases are
    /// bit-identical to it. The inner probes take no hints: the next rate of
    /// a sweep moves a mass across many tiles, so an entry's previous inner
    /// segment almost never holds its new local mass.
    fn invert_staged(&self, masses: &mut [f64], stage: &mut Stage, tile: &mut TileStage) {
        if !has_positive_mass(self.total) {
            masses.fill(0.0);
            return;
        }
        // Entries no part holds are grouped after the last part.
        let none = self.parts.len();
        tile.parts.clear();
        tile.bases.clear();
        for m in masses.iter_mut() {
            let (part, base, local) = self.locate_mass(*m);
            tile.parts.push(part.unwrap_or(none) as u32);
            tile.bases.push(base);
            *m = local;
        }

        // Counting sort: after the scatter, part q's entries are
        // order[starts[q]..starts[q + 1]].
        let starts = &mut tile.starts;
        starts.clear();
        starts.resize(none + 3, 0);
        for &q in &tile.parts {
            starts[q as usize + 2] += 1;
        }
        for q in 2..starts.len() {
            starts[q] += starts[q - 1];
        }
        tile.order.resize(masses.len(), 0);
        for (j, &q) in tile.parts.iter().enumerate() {
            let slot = &mut starts[q as usize + 1];
            tile.order[*slot as usize] = j as u32;
            *slot += 1;
        }

        for (q, p) in self.parts.iter().enumerate() {
            let members = &tile.order[starts[q] as usize..starts[q + 1] as usize];
            if members.is_empty() {
                continue;
            }
            tile.locals.clear();
            tile.locals.extend(members.iter().map(|&j| masses[j as usize]));
            tile.local_segs.clear();
            tile.local_segs.resize(members.len(), NO_HINT);
            p.inner.invert_staged(&mut tile.locals, &mut tile.local_segs, stage);
            for (&j, &psi) in members.iter().zip(&tile.locals) {
                masses[j as usize] = psi;
            }
        }

        for ((m, &q), &base) in masses.iter_mut().zip(&tile.parts).zip(&tile.bases) {
            *m = if q as usize == none { base as f64 } else { place(base, *m) };
        }
    }

    fn breakpoints(&self) -> Vec<u64> {
        let total = self
            .parts
            .iter()
            .map(|p| p.tiles.saturating_mul(p.inner.len() as u64))
            .fold(0u64, u64::saturating_add);
        assert!(
            total <= CompiledTrace::MAX_SEGMENTS,
            "expanding {total} breakpoints is infeasible; use survival_weights instead"
        );
        let mut out = Vec::with_capacity(total as usize);
        for p in &self.parts {
            for tile in 0..p.tiles {
                let base = p.start + tile * p.inner.period_cycles();
                out.extend(p.inner.spans().map(|(e, _)| base + e));
            }
        }
        out
    }

    fn verify(&self) -> Result<(), SerrError> {
        if self.parts.is_empty() {
            return Err(SerrError::invalid_trace("tiled trace has no parts"));
        }
        for (i, p) in self.parts.iter().enumerate() {
            p.inner.verify().map_err(|e| {
                SerrError::invalid_trace(format!("tile part {i} inner tables: {e}"))
            })?;
            if p.tiles == 0 {
                return Err(SerrError::invalid_trace(format!("tile part {i} has zero tiles")));
            }
        }
        let Some(offsets) = part_offsets(self.parts.iter().map(|p| (&*p.inner, p.tiles))) else {
            return Err(SerrError::invalid_trace("tiled period overflows u64"));
        };
        let &(period, total) = offsets.last().expect("part_offsets ends with the period");
        let scale = if total.is_finite() { total.abs().max(1.0) } else { 1.0 };
        let tol = scale * 1e-15 * (self.parts.len() as f64).max(1e3);
        for (i, (p, &(start, mass_before))) in self.parts.iter().zip(&offsets).enumerate() {
            if p.start != start {
                return Err(SerrError::invalid_trace(format!(
                    "tile part {i} starts at {}, recomputation gives {start}",
                    p.start
                )));
            }
            if !(p.mass_before - mass_before).abs().le(&tol) {
                return Err(SerrError::invalid_trace(format!(
                    "tile part {i} mass-before is {}, recomputation gives {mass_before}",
                    p.mass_before
                )));
            }
        }
        if self.period != period {
            return Err(SerrError::invalid_trace(format!(
                "tiled period is {}, recomputation gives {period}",
                self.period
            )));
        }
        if !(self.total - total).abs().le(&tol) {
            return Err(SerrError::invalid_trace(format!(
                "total vulnerability mass is {}, recomputation gives {total}",
                self.total
            )));
        }
        let avf = total / period as f64;
        if !(self.avf - avf).abs().le(&(tol / period as f64 + 1e-12)) {
            return Err(SerrError::invalid_trace(format!(
                "cached AVF is {}, total/period gives {avf}",
                self.avf
            )));
        }
        if self.binary && !self.parts.iter().all(|p| p.inner.binary) {
            return Err(SerrError::invalid_trace("trace is flagged binary but a part is not"));
        }
        Ok(())
    }
}

/// The tile-level derived fields of `(inner, tiles)` parts laid end to end:
/// each part's `(start cycle, mass before)`, followed by one final
/// `(period, total mass)` entry. The single definition construction and
/// [`Tiled::verify`] share. `None` for no parts, a zero tile count, or a
/// period that overflows `u64`.
fn part_offsets<'a>(parts: impl Iterator<Item = (&'a Flat, u64)>) -> Option<Vec<(u64, f64)>> {
    let mut offsets = vec![(0u64, 0.0f64)];
    for (inner, tiles) in parts {
        if tiles == 0 {
            return None;
        }
        let &(start, mass) = offsets.last().expect("seeded with the origin");
        let end = start.checked_add(inner.period_cycles().checked_mul(tiles)?)?;
        offsets.push((end, mass + tiles as f64 * inner.total()));
    }
    (offsets.len() > 1).then_some(offsets)
}

/// Offsets a phase `psi` within one tile by the tile's first cycle `base`,
/// keeping the landing cycle at `base + ⌊psi⌋`. At day-scale magnitudes the
/// `f64` sum can round up across the next integer — into a cycle that may
/// be dead — so the result is clamped just below it.
fn place(base: u64, psi: f64) -> f64 {
    let whole = psi.floor();
    let cycle = base + whole as u64;
    (cycle as f64 + (psi - whole)).min(((cycle + 1) as f64).next_down())
}

/// NaN-robust positive-mass test: true exactly when `x` is a real number
/// greater than zero. The negated `!(x > 0.0)` idiom this replaces relied
/// on NaN comparing false; spelling the comparison through `partial_cmp`
/// keeps that truth table while making the incomparable case explicit.
fn has_positive_mass(x: f64) -> bool {
    x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater)
}

/// Checked `usize → u32` for bucket-table entries. Segment indexes are
/// stored as `u32` to halve the tables' footprint, so a trace with more
/// than `u32::MAX` segments cannot be indexed — refuse with a typed error
/// instead of silently truncating the index (which would misdirect every
/// lookup that lands in an affected bucket).
///
/// # Errors
///
/// Returns [`SerrError::InvalidTrace`] when `i` exceeds `u32::MAX`.
fn checked_bucket_index(i: usize) -> Result<u32, SerrError> {
    u32::try_from(i).map_err(|_| {
        SerrError::invalid_trace(format!(
            "segment index {i} exceeds the u32 bucket-table limit ({} segments max)",
            u32::MAX
        ))
    })
}

/// Picks the bucket width and fills the phase→segment table: the finest
/// power-of-two bucket such that the table stays within
/// [`CompiledTrace::MAX_BUCKETS`] and `per_segment` entries per segment.
///
/// # Errors
///
/// Returns [`SerrError::InvalidTrace`] if a segment index does not fit the
/// `u32` table entries; unreachable for tables within
/// [`CompiledTrace::MAX_SEGMENTS`].
fn build_buckets(
    recs: &[Rec],
    period: u64,
    per_segment: u64,
) -> Result<(u32, Vec<u32>), SerrError> {
    let seg_count = recs.len() as u64 - 1;
    let target =
        seg_count.saturating_mul(per_segment).clamp(64, CompiledTrace::MAX_BUCKETS).min(period);
    let mut shift = 0u32;
    while ((period - 1) >> shift) + 1 > target {
        shift += 1;
    }
    let bucket_count = ((period - 1) >> shift) + 1;
    let mut buckets = Vec::with_capacity(bucket_count as usize);
    let mut seg = 0usize;
    for b in 0..bucket_count {
        let start = b << shift;
        while recs[seg + 1].start <= start {
            seg += 1;
        }
        buckets.push(checked_bucket_index(seg)?);
    }
    Ok((shift, buckets))
}

/// Fills the inverse (mass→segment) bucket table of a record table (its
/// sentinel last): `total` is divided into equal-width mass buckets
/// (`per_segment` per segment, same sizing policy as the phase index, minus
/// the power-of-two constraint — mass coordinates are `f64`, so the width
/// need not be shiftable) and entry `b` records how many segments have
/// `prefix <= b·w`. A query for mass `m` starts its
/// prefix search at `inv_buckets[floor(m/w)] - 1`. Returns an empty table
/// when `total` is not positive: a never-vulnerable trace has no mass to
/// invert.
///
/// # Errors
///
/// Returns [`SerrError::InvalidTrace`] if a segment index does not fit the
/// `u32` table entries; unreachable for tables within
/// [`CompiledTrace::MAX_SEGMENTS`].
fn build_inv_buckets(recs: &[Rec], total: f64, per_segment: u64) -> Result<Vec<u32>, SerrError> {
    let n = recs.len().saturating_sub(1);
    if !has_positive_mass(total) || n == 0 {
        return Ok(Vec::new());
    }
    let n_inv =
        (n as u64).saturating_mul(per_segment).clamp(64, CompiledTrace::MAX_BUCKETS) as usize;
    let w = total / n_inv as f64;
    let mut buckets = Vec::with_capacity(n_inv);
    // partition_point of a sorted table at an increasing boundary is
    // monotone, so one linear sweep fills every bucket in O(n_inv + n).
    let mut j = 0usize;
    for b in 0..n_inv {
        let boundary = b as f64 * w;
        while j < n && recs[j].prefix <= boundary {
            j += 1;
        }
        buckets.push(checked_bucket_index(j)?);
    }
    Ok(buckets)
}

impl VulnerabilityTrace for Flat {
    fn period_cycles(&self) -> u64 {
        self.table.period_cycles()
    }

    #[inline]
    fn vulnerability_at(&self, cycle: u64) -> f64 {
        let c = cycle % self.period_cycles();
        self.recs()[self.segment_index(c)].value
    }

    fn cumulative_within_period(&self, r: u64) -> f64 {
        let period = self.period_cycles();
        assert!(r <= period, "cycle {r} beyond period {period}");
        if r == period {
            return self.total();
        }
        let rec = &self.recs()[self.segment_index(r)];
        rec.prefix + (r - rec.start) as f64 * rec.value
    }

    fn breakpoints(&self) -> Vec<u64> {
        self.table.breakpoints()
    }

    fn spans(&self) -> Box<dyn Iterator<Item = (u64, f64)> + '_> {
        self.table.spans()
    }

    fn span_count_hint(&self) -> u64 {
        self.table.span_count_hint()
    }

    fn span_table(&self) -> Option<IntervalTrace> {
        Some(self.table.clone())
    }

    fn is_binary(&self) -> bool {
        self.binary
    }
}

impl VulnerabilityTrace for CompiledTrace {
    fn period_cycles(&self) -> u64 {
        match &self.layout {
            Layout::Flat(f) => f.period_cycles(),
            Layout::Tiled(t) => t.period,
        }
    }

    #[inline]
    fn vulnerability_at(&self, cycle: u64) -> f64 {
        match &self.layout {
            Layout::Flat(f) => f.vulnerability_at(cycle),
            Layout::Tiled(t) => t.vulnerability_at(cycle),
        }
    }

    fn cumulative_within_period(&self, r: u64) -> f64 {
        match &self.layout {
            Layout::Flat(f) => f.cumulative_within_period(r),
            Layout::Tiled(t) => t.cumulative_within_period(r),
        }
    }

    fn avf(&self) -> f64 {
        match &self.layout {
            Layout::Flat(f) => f.avf(),
            Layout::Tiled(t) => t.avf,
        }
    }

    fn is_never_vulnerable(&self) -> bool {
        self.total_mass() == 0.0
    }

    /// # Panics
    ///
    /// Panics for a tiled trace whose expansion would exceed
    /// [`CompiledTrace::MAX_SEGMENTS`] — the same refusal as
    /// [`crate::ConcatTrace::breakpoints`]; estimators use
    /// [`VulnerabilityTrace::tiling`] and the closed-form
    /// [`VulnerabilityTrace::survival_weights`] instead.
    fn breakpoints(&self) -> Vec<u64> {
        match &self.layout {
            Layout::Flat(f) => f.breakpoints(),
            Layout::Tiled(t) => t.breakpoints(),
        }
    }

    fn spans(&self) -> Box<dyn Iterator<Item = (u64, f64)> + '_> {
        match &self.layout {
            Layout::Flat(f) => f.spans(),
            Layout::Tiled(_) => Box::new(crate::traits::lookup_spans(self)),
        }
    }

    /// The span count the compiled tables stand for: the flat segment
    /// count, or every tile's inner segments for a tiled trace.
    fn span_count_hint(&self) -> u64 {
        match &self.layout {
            Layout::Flat(f) => f.span_count_hint(),
            Layout::Tiled(t) => t
                .parts
                .iter()
                .map(|p| p.tiles.saturating_mul(p.inner.span_count_hint()))
                .fold(0u64, u64::saturating_add),
        }
    }

    fn is_binary(&self) -> bool {
        match &self.layout {
            Layout::Flat(f) => f.binary,
            Layout::Tiled(t) => t.binary,
        }
    }

    fn survival_weights(&self, lambdas: &[f64]) -> Vec<(f64, f64)> {
        match &self.layout {
            Layout::Flat(f) => f.survival_weights(lambdas),
            Layout::Tiled(t) => crate::concat::tiled_survival_integrals(
                t.parts
                    .iter()
                    .map(|p| (&*p.inner as &dyn VulnerabilityTrace, p.tiles, p.mass_before)),
                lambdas,
            )
            .into_iter()
            .map(|i| (i, t.total))
            .collect(),
        }
    }

    fn span_table(&self) -> Option<IntervalTrace> {
        match &self.layout {
            Layout::Flat(f) => f.span_table(),
            Layout::Tiled(_) => None,
        }
    }

    fn tiling(&self) -> Option<Vec<(Arc<dyn VulnerabilityTrace>, u64)>> {
        match &self.layout {
            Layout::Flat(_) => None,
            Layout::Tiled(t) => Some(
                t.parts
                    .iter()
                    .map(|p| (Arc::clone(&p.inner) as Arc<dyn VulnerabilityTrace>, p.tiles))
                    .collect(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompositeTrace, IntervalTrace, ShiftedTrace};
    use std::sync::Arc;

    /// Deterministic xorshift so tests need no external RNG.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    fn random_levels(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = Lcg(seed | 1);
        (0..n).map(|_| (rng.next() % 5) as f64 / 4.0).collect()
    }

    #[test]
    fn agrees_with_source_interval_trace() {
        let levels = random_levels(7, 1_000);
        let src = IntervalTrace::from_levels(&levels).unwrap();
        let c = CompiledTrace::compile(&src).unwrap();
        assert_eq!(c.period_cycles(), src.period_cycles());
        assert!((c.avf() - src.avf()).abs() < 1e-12);
        for cyc in 0..2_000u64 {
            assert_eq!(c.vulnerability_at(cyc), src.vulnerability_at(cyc), "cycle {cyc}");
        }
        for r in (0..=1_000u64).step_by(37) {
            let d = (c.cumulative_within_period(r) - src.cumulative_within_period(r)).abs();
            assert!(d < 1e-9, "r={r}: {d}");
        }
    }

    #[test]
    fn binary_flag_detection() {
        let bin = IntervalTrace::busy_idle(10, 20).unwrap();
        assert!(CompiledTrace::compile(&bin).unwrap().is_binary());
        let frac = IntervalTrace::from_levels(&[1.0, 0.5, 0.0]).unwrap();
        assert!(!CompiledTrace::compile(&frac).unwrap().is_binary());
        // The source traces conservatively report false either way.
        assert!(!bin.is_binary());
    }

    #[test]
    fn huge_period_uses_capped_bucket_table_with_fallback() {
        // Day-scale: 1.728e14 cycles, 2 segments. The bucket table must cap
        // out and queries must still be exact.
        let half = 43_200u64 * 2_000_000_000;
        let src = IntervalTrace::busy_idle(half, half).unwrap();
        let c = CompiledTrace::compile(&src).unwrap();
        assert!(c.bucket_count() as u64 <= CompiledTrace::MAX_BUCKETS);
        assert!(c.bucket_cycles() > 1);
        assert_eq!(c.vulnerability_at(half - 1), 1.0);
        assert_eq!(c.vulnerability_at(half), 0.0);
        assert_eq!(c.vulnerability_at(2 * half - 1), 0.0);
        assert_eq!(c.cumulative_within_period(half), half as f64);
        assert_eq!(c.avf(), 0.5);
    }

    #[test]
    fn crowded_bucket_falls_back_to_binary_search() {
        // Many 1-cycle segments inside one wide bucket: force the in-bucket
        // binary search path by making the period huge and the segments
        // concentrated at the start.
        let mut segs = Vec::new();
        for i in 0..1_000u64 {
            segs.push(crate::Segment::new(1, f64::from(u32::from(i % 2 == 0))).unwrap());
        }
        segs.push(crate::Segment::new(1u64 << 40, 0.0).unwrap());
        let src = IntervalTrace::from_segments(segs).unwrap();
        let c = CompiledTrace::compile(&src).unwrap();
        for cyc in 0..1_000u64 {
            assert_eq!(c.vulnerability_at(cyc), src.vulnerability_at(cyc), "cycle {cyc}");
        }
        assert_eq!(c.vulnerability_at(1_000_000), 0.0);
    }

    #[test]
    fn compiles_views_and_compositions() {
        let base: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::from_levels(&random_levels(3, 64)).unwrap());
        let shifted = ShiftedTrace::new(base.clone(), 17);
        let cs = CompiledTrace::compile(&shifted).unwrap();
        for cyc in 0..128u64 {
            assert_eq!(cs.vulnerability_at(cyc), shifted.vulnerability_at(cyc));
        }
        let other: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::from_levels(&random_levels(4, 64)).unwrap());
        let comp = CompositeTrace::new(vec![(1.0, base), (3.0, other)]).unwrap();
        let cc = CompiledTrace::compile(&comp).unwrap();
        for cyc in 0..128u64 {
            assert!((cc.vulnerability_at(cyc) - comp.vulnerability_at(cyc)).abs() < 1e-12);
        }
    }

    /// `busy_idle(3, 5)` tiled 10⁷ times: 2×10⁷ spans, over twice the cap.
    fn binary_tiling() -> crate::ConcatTrace {
        let unit: Arc<dyn VulnerabilityTrace> = Arc::new(IntervalTrace::busy_idle(3, 5).unwrap());
        crate::ConcatTrace::new(vec![(unit, 10_000_000)]).unwrap()
    }

    /// Two fractional parts whose spans together exceed the cap; the second
    /// part ends on a fully vulnerable cycle, the first starts on a
    /// half-vulnerable one, and both contain dead cycles.
    fn fractional_tiling() -> crate::ConcatTrace {
        let a: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::from_levels(&[0.5, 0.0, 1.0, 0.25]).unwrap());
        let b: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::from_levels(&[0.0, 0.75, 0.75, 0.0, 1.0]).unwrap());
        crate::ConcatTrace::new(vec![(a, 1_500_000), (b, 900_000)]).unwrap()
    }

    /// Cycles on both sides of tile and part boundaries.
    fn boundary_cycles(reference: &crate::ConcatTrace) -> Vec<u64> {
        let mut cycles = Vec::new();
        let mut start = 0u64;
        for (part, tiles) in reference.tiling().unwrap() {
            let ip = part.period_cycles();
            for k in [0, 1, 2, tiles / 2, tiles - 2, tiles - 1] {
                let base = start + k * ip;
                cycles.extend(base.saturating_sub(2)..base + ip + 2);
            }
            start += tiles * ip;
        }
        cycles.retain(|&c| c < reference.period_cycles());
        cycles
    }

    #[test]
    fn over_cap_tilings_compile_tiled_and_irreducible_traces_refuse() {
        let tiled = binary_tiling();
        assert!(tiled.span_count_hint() > CompiledTrace::MAX_SEGMENTS);
        let c = CompiledTrace::compile(&tiled).expect("an over-cap tiling compiles tiled");
        assert!(c.is_tiled());
        assert_eq!(c.period_cycles(), tiled.period_cycles());
        assert!(c.is_binary());
        assert_eq!(c.segment_count(), 2, "the tile level holds one inner table, not 2e7 spans");
        c.verify().unwrap();
        // A scaled view of the concatenation exposes its tiling too.
        let scaled = crate::ScaledTrace::new(Arc::new(tiled), 0.5).unwrap();
        let cs = CompiledTrace::compile(&scaled).expect("scaled tiling compiles tiled");
        assert!(cs.is_tiled());
        assert!((cs.avf() - scaled.avf()).abs() < 1e-15);
        // A phase shift over the same concatenation has no tiling: it is
        // irreducible and still refuses.
        let shifted = ShiftedTrace::new(Arc::new(binary_tiling()), 3);
        assert!(shifted.span_count_hint() > CompiledTrace::MAX_SEGMENTS);
        assert!(CompiledTrace::compile(&shifted).is_none());
    }

    #[test]
    fn tiled_queries_match_the_concat_reference_across_tile_and_part_boundaries() {
        for reference in [binary_tiling(), fractional_tiling()] {
            let c = CompiledTrace::compile(&reference).unwrap();
            assert!(c.is_tiled());
            let period = reference.period_cycles();
            let total = reference.cumulative_within_period(period);
            assert_eq!(c.period_cycles(), period);
            assert!((c.total_mass() - total).abs() <= 1e-12 * total);
            assert!((c.avf() - reference.avf()).abs() < 1e-15);
            for cyc in boundary_cycles(&reference) {
                assert_eq!(c.vulnerability_at(cyc), reference.vulnerability_at(cyc), "cycle {cyc}");
                assert_eq!(c.vulnerability_at(cyc + period), reference.vulnerability_at(cyc));
                let (got, want) =
                    (c.cumulative_within_period(cyc), reference.cumulative_within_period(cyc));
                assert!((got - want).abs() <= 1e-12 * total, "V({cyc}): {got} vs {want}");
                assert_eq!(c.cumulative_at(cyc as f64), got, "fractional V at whole cycle {cyc}");
            }
            assert_eq!(c.cumulative_within_period(period), c.total_mass());
            assert_eq!(c.cumulative_at(period as f64), c.total_mass());
        }
    }

    #[test]
    fn tiled_inversion_round_trips_and_lands_on_vulnerable_cycles() {
        for reference in [binary_tiling(), fractional_tiling()] {
            let c = CompiledTrace::compile(&reference).unwrap();
            let total = c.total_mass();
            // An even grid plus the masses sitting exactly on tile and part
            // boundaries.
            let mut masses: Vec<f64> = (0..997).map(|k| total * (f64::from(k) / 997.0)).collect();
            masses.extend(boundary_cycles(&reference).iter().map(|&cy| c.cumulative_at(cy as f64)));
            let scalar: Vec<f64> = masses.iter().map(|&m| c.phase_at_cumulative(m)).collect();
            let mut batch = masses.clone();
            c.phase_at_cumulative_batch(&mut batch, &mut InverseScratch::new());
            for ((&m, &s), &b) in masses.iter().zip(&scalar).zip(&batch) {
                assert!((0.0..c.period_cycles() as f64).contains(&s), "m={m} phase={s}");
                let back = c.cumulative_at(s);
                assert!((back - m).abs() <= 1e-12 * total, "V(phase_at({m})) = {back}");
                assert!(c.vulnerability_at(s as u64) > 0.0, "m={m} landed on dead cycle {s}");
                assert_eq!(b as u64, s as u64, "batch and scalar disagree on the cycle for m={m}");
            }
        }
    }

    #[test]
    fn tiled_inversion_at_total_minus_stays_in_the_last_vulnerable_segment() {
        // binary: the last tile's busy run is [period − 8, period − 5);
        // fractional: the second part ends on a fully vulnerable cycle.
        for (reference, lo, hi) in [(binary_tiling(), 8, 5), (fractional_tiling(), 1, 0)] {
            let c = CompiledTrace::compile(&reference).unwrap();
            let period = c.period_cycles() as f64;
            let mut masses = [c.total_mass().next_down()];
            let scalar = c.phase_at_cumulative(masses[0]);
            c.phase_at_cumulative_batch(&mut masses, &mut InverseScratch::new());
            for phase in [scalar, masses[0]] {
                assert!(phase >= period - f64::from(lo), "m→total⁻ left the last run: {phase}");
                assert!(phase < period - f64::from(hi), "m→total⁻ escaped the run: {phase}");
                assert!(c.vulnerability_at(phase as u64) > 0.0);
            }
        }
    }

    #[test]
    fn day_scale_tiled_inversion_keeps_landing_cycles_vulnerable() {
        // The paper's combined shape: ~1e6-cycle traces tiled across twelve
        // hours each, where mass and phase coordinates reach ~1e14 and the
        // f64 sum of tile base and in-tile phase rounds at 1/64 cycle.
        let half_day = 43_200u64 * 2_000_000_000;
        let a: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::busy_idle(700_001, 299_999).unwrap());
        let b: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::from_levels(&[0.0, 0.25, 1.0]).unwrap());
        let combined = crate::ConcatTrace::two_phase(a, half_day, b, half_day).unwrap();
        let c = CompiledTrace::compile(&combined).unwrap();
        assert!(c.is_tiled());
        let total = c.total_mass();
        for k in 0..4_001u64 {
            let m = (total * (k as f64 / 4_000.0)).min(total.next_down());
            let phase = c.phase_at_cumulative(m);
            assert!(c.vulnerability_at(phase as u64) > 0.0, "m={m} landed on dead cycle {phase}");
            assert!((c.cumulative_at(phase) - m).abs() <= 1e-12 * total);
        }
    }

    #[test]
    fn tiled_trait_surface_stays_closed_form() {
        let reference = fractional_tiling();
        let c = CompiledTrace::compile(&reference).unwrap();
        for lambda in [1e-9, 1e-4, 0.3] {
            let (ic, uc) = c.survival_weights(&[lambda])[0];
            let (ir, ur) = reference.survival_weights(&[lambda])[0];
            assert!(((ic - ir) / ir).abs() < 1e-12, "λ={lambda}: {ic} vs {ir}");
            assert!(((uc - ur) / ur).abs() < 1e-12);
        }
        let tiling = c.tiling().expect("tiled traces expose their parts");
        assert_eq!(tiling.iter().map(|(_, k)| *k).collect::<Vec<_>>(), vec![1_500_000, 900_000]);
        assert_eq!(tiling[1].0.vulnerability_at(4), 1.0);
        // Recompiling a compiled trace stays tiled and cheap.
        let again = CompiledTrace::compile(&c).unwrap();
        assert!(again.is_tiled());
        assert_eq!(again.period_cycles(), c.period_cycles());
        assert_eq!(again.total_mass().to_bits(), c.total_mass().to_bits());
        assert!(!c.is_binary());
        assert!(c.span_count_hint() > CompiledTrace::MAX_SEGMENTS);
    }

    #[test]
    fn tiled_verify_checks_inner_tables_and_part_geometry() {
        let clean = CompiledTrace::compile(&fractional_tiling()).unwrap();
        clean.verify().unwrap();

        let mut flipped = clean.clone();
        flipped.chaos_flip_dominant_value_bit(55);
        assert!(flipped.verify().is_err(), "inner value flip went undetected");
        let mut perturbed = clean.clone();
        perturbed.chaos_perturb_prefix(1, 0.05);
        assert!(perturbed.verify().is_err(), "inner prefix perturbation went undetected");
        // The faults hit copies: the clean trace's shared tables are intact.
        clean.verify().unwrap();

        let mut scaled = clean.clone();
        scaled.chaos_scale_dominant_value(0.25);
        scaled.verify().unwrap();
        assert!(scaled.avf() < clean.avf());
        assert!(
            (scaled.cumulative_within_period(scaled.period_cycles())
                - scaled.avf() * scaled.period_cycles() as f64)
                .abs()
                <= 1e-9 * scaled.total_mass()
        );

        let tamper = |edit: &dyn Fn(&mut Tiled)| {
            let mut c = clean.clone();
            let Layout::Tiled(t) = &mut c.layout else { unreachable!("fixture is tiled") };
            edit(t);
            c.verify()
        };
        assert!(tamper(&|t| t.parts[1].start += 1).is_err(), "shifted part start");
        assert!(tamper(&|t| t.parts[0].tiles -= 1).is_err(), "dropped tile");
        assert!(tamper(&|t| t.parts[1].mass_before *= 1.01).is_err(), "stale mass-before");
        assert!(tamper(&|t| t.total *= 1.01).is_err(), "stale total");
        assert!(tamper(&|t| t.binary = true).is_err(), "false binary flag");
    }

    #[test]
    fn bucket_index_conversion_is_checked_at_the_u32_boundary() {
        // The last representable index converts; one past it is a typed
        // refusal, not a silent wrap back to index 0.
        assert_eq!(checked_bucket_index(u32::MAX as usize), Ok(u32::MAX));
        let err = checked_bucket_index(u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, SerrError::InvalidTrace { .. }), "wrong error kind: {err}");
        assert!(err.to_string().contains("bucket-table limit"), "unhelpful message: {err}");
    }

    /// A trace whose `span_count_hint` under-reports its real breakpoint
    /// count — the advisory-hint contract violation `compile` must survive.
    #[derive(Debug)]
    struct LyingHintTrace {
        period: u64,
    }

    impl VulnerabilityTrace for LyingHintTrace {
        fn period_cycles(&self) -> u64 {
            self.period
        }

        fn vulnerability_at(&self, cycle: u64) -> f64 {
            ((cycle % self.period) % 2) as f64
        }

        fn cumulative_within_period(&self, r: u64) -> f64 {
            (r / 2) as f64
        }

        fn breakpoints(&self) -> Vec<u64> {
            (1..=self.period).collect()
        }

        fn span_count_hint(&self) -> u64 {
            2
        }
    }

    #[test]
    fn compile_refuses_over_cap_breakpoints_despite_a_small_hint() {
        // Alternating 0/1 every cycle: nothing merges, so the real span
        // count is the period. One past the cap must refuse even though the
        // hint claims two spans; at the cap the hint path would have
        // admitted it anyway.
        let lying = LyingHintTrace { period: CompiledTrace::MAX_SEGMENTS + 1 };
        assert!(lying.span_count_hint() <= CompiledTrace::MAX_SEGMENTS);
        assert!(CompiledTrace::compile(&lying).is_none());
    }

    #[test]
    fn adjacent_equal_spans_merge() {
        // CompositeTrace breakpoints are the union of part breakpoints, so
        // consecutive spans can share a value; compilation merges them.
        let a: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::from_levels(&[1.0, 1.0, 0.0, 0.0]).unwrap());
        let b: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::from_levels(&[1.0, 0.0, 0.0, 1.0]).unwrap());
        let comp = CompositeTrace::new(vec![(1.0, a), (1.0, b)]).unwrap();
        let c = CompiledTrace::compile(&comp).unwrap();
        assert!(c.segment_count() <= 4);
        for cyc in 0..4u64 {
            assert!((c.vulnerability_at(cyc) - comp.vulnerability_at(cyc)).abs() < 1e-12);
        }
    }

    #[test]
    fn verify_accepts_freshly_compiled_traces() {
        for n in [3usize, 64, 1_000] {
            let src = IntervalTrace::from_levels(&random_levels(n as u64, n)).unwrap();
            let c = CompiledTrace::compile(&src).unwrap();
            c.verify().unwrap_or_else(|e| panic!("{n}-level trace failed verify: {e}"));
        }
        let day = IntervalTrace::busy_idle(1 << 30, 1 << 30).unwrap();
        CompiledTrace::compile(&day).unwrap().verify().unwrap();
    }

    #[test]
    fn verify_catches_value_bit_flips() {
        let src = IntervalTrace::from_levels(&[1.0, 1.0, 0.5, 0.0, 0.0, 0.0]).unwrap();
        for bit in [30u32, 40, 51, 55, 62] {
            let mut c = CompiledTrace::compile(&src).unwrap();
            c.chaos_flip_dominant_value_bit(bit);
            assert!(c.verify().is_err(), "bit {bit} flip went undetected");
        }
    }

    #[test]
    fn verify_catches_prefix_perturbations() {
        let src = IntervalTrace::from_levels(&[1.0, 0.5, 0.0, 0.25]).unwrap();
        for selector in 0..8u64 {
            let mut c = CompiledTrace::compile(&src).unwrap();
            c.chaos_perturb_prefix(selector, 0.05);
            assert!(c.verify().is_err(), "prefix perturbation {selector} went undetected");
            // Point queries (the event-loop sampler's only reads) still
            // agree with the source — the corruption only reaches estimates
            // through the inversion sampler's prefix lookups, which is why
            // this fault *must* be caught structurally before estimation.
            for cyc in 0..4 {
                assert_eq!(c.vulnerability_at(cyc), src.vulnerability_at(cyc));
            }
        }
    }

    #[test]
    fn inverse_lookup_round_trips_cumulative() {
        for (seed, n) in [(7u64, 5usize), (11, 64), (13, 1_000)] {
            let src = IntervalTrace::from_levels(&random_levels(seed, n)).unwrap();
            let c = CompiledTrace::compile(&src).unwrap();
            let total = c.total_mass();
            assert!(total > 0.0);
            for k in 0..997u64 {
                let m = total * (k as f64 / 997.0);
                let phase = c.phase_at_cumulative(m);
                assert!((0.0..(c.period_cycles() as f64)).contains(&phase), "m={m} phase={phase}");
                let back = c.cumulative_at(phase);
                assert!(
                    (back - m).abs() <= 1e-9 * total.max(1.0),
                    "seed {seed}: V(phase_at({m})) = {back}"
                );
                // The landing cycle must be vulnerable: zero-mass segments
                // are never selected.
                assert!(c.vulnerability_at(phase as u64) > 0.0, "m={m} landed on a dead cycle");
            }
        }
    }

    #[test]
    fn inverse_lookup_skips_zero_segments_at_boundaries() {
        // Masses exactly at segment boundaries sit between a vulnerable
        // segment and a zero run sharing the same prefix value; the lookup
        // must land at the *start of the next vulnerable* segment, never
        // inside the dead run.
        let src = IntervalTrace::from_levels(&[1.0, 0.0, 0.0, 0.5, 0.0, 1.0, 0.0]).unwrap();
        let c = CompiledTrace::compile(&src).unwrap();
        assert_eq!(c.total_mass(), 2.5);
        // m = 1.0 is the boundary after the first segment: next mass lives
        // in the 0.5 segment starting at cycle 3.
        assert_eq!(c.phase_at_cumulative(1.0), 3.0);
        // m = 1.5 exhausts the 0.5 segment: next mass starts at cycle 5.
        assert_eq!(c.phase_at_cumulative(1.5), 5.0);
        assert_eq!(c.phase_at_cumulative(0.0), 0.0);
        assert!((c.phase_at_cumulative(1.25) - 3.5).abs() < 1e-12);
        assert!((c.phase_at_cumulative(2.0) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn cumulative_at_interpolates_fractional_phases() {
        let src = IntervalTrace::from_levels(&[1.0, 0.25, 0.0, 0.5]).unwrap();
        let c = CompiledTrace::compile(&src).unwrap();
        for r in 0..=4u64 {
            assert_eq!(c.cumulative_at(r as f64), c.cumulative_within_period(r), "r={r}");
        }
        assert!((c.cumulative_at(0.5) - 0.5).abs() < 1e-15);
        assert!((c.cumulative_at(1.5) - 1.125).abs() < 1e-15);
        assert!((c.cumulative_at(2.5) - 1.25).abs() < 1e-15);
        assert!((c.cumulative_at(3.5) - 1.5).abs() < 1e-15);
    }

    #[test]
    fn inverse_lookup_handles_huge_periods() {
        // Day-scale period with a capped bucket table: mass coordinates are
        // ~1e14, so the inverse lookup must stay exact where f64 can be and
        // always land in the vulnerable first half.
        let half = 43_200u64 * 2_000_000_000;
        let src = IntervalTrace::busy_idle(half, half).unwrap();
        let c = CompiledTrace::compile(&src).unwrap();
        for frac in [0.0, 0.25, 0.5, 0.9999] {
            let m = c.total_mass() * frac;
            let phase = c.phase_at_cumulative(m);
            assert!(phase <= half as f64, "frac {frac} escaped the vulnerable half: {phase}");
            assert!((c.cumulative_at(phase) - m).abs() <= 1e-9 * c.total_mass());
        }
    }

    #[test]
    fn never_vulnerable_trace_has_degenerate_inverse_index() {
        let src = IntervalTrace::from_levels(&[0.0, 0.0]).unwrap();
        let c = CompiledTrace::compile(&src).unwrap();
        assert!(c.is_never_vulnerable());
        assert_eq!(c.inv_bucket_count(), 0);
        c.verify().unwrap();
    }

    #[test]
    fn consistent_scaling_rebuilds_inverse_index() {
        let src = IntervalTrace::from_levels(&random_levels(21, 128)).unwrap();
        let mut c = CompiledTrace::compile(&src).unwrap();
        c.chaos_scale_dominant_value(0.25);
        // Self-consistent corruption keeps every derived table valid —
        // including the inverse index the inversion sampler reads.
        c.verify().unwrap();
        let total = c.total_mass();
        for k in [0u64, 31, 63, 96] {
            let m = total * (k as f64 / 97.0);
            let back = c.cumulative_at(c.phase_at_cumulative(m));
            assert!((back - m).abs() <= 1e-9 * total.max(1.0));
        }
    }

    #[test]
    fn verify_catches_stale_inverse_index() {
        let src = IntervalTrace::from_levels(&random_levels(5, 32)).unwrap();
        let mut c = CompiledTrace::compile(&src).unwrap();
        c.verify().unwrap();
        let f = c.chaos_target();
        let last = f.inv_buckets.len() - 1;
        f.inv_buckets[last] = 0;
        assert!(c.verify().is_err(), "zeroed inverse-bucket entry went undetected");
    }

    #[test]
    fn consistent_scaling_passes_verify_but_changes_avf() {
        let src = IntervalTrace::from_levels(&[1.0, 1.0, 1.0, 0.5, 0.0, 0.0]).unwrap();
        let clean = CompiledTrace::compile(&src).unwrap();
        let mut c = clean.clone();
        c.chaos_scale_dominant_value(0.25);
        // Self-consistent corruption is invisible to structural checks...
        c.verify().unwrap();
        // ...but the estimate-relevant quantities all moved.
        assert!(c.avf() < clean.avf());
        assert!(
            (c.cumulative_within_period(c.period_cycles()) - c.avf() * c.period_cycles() as f64)
                .abs()
                < 1e-9
        );
        assert!(!c.is_binary() || c.avf() == 0.0);
    }

    #[test]
    fn batch_inverse_agrees_with_scalar_probe() {
        // Small tables take the branchless select-chain: each mass must land
        // in the same segment as the scalar lookup, with the in-segment
        // offset equal up to the reciprocal-vs-division rounding. Larger
        // tables take the staged probe, which must equal the scalar probe
        // bit for bit.
        for (seed, n) in [(3u64, 4usize), (7, 20), (5, 32), (13, 1_000), (17, 40)] {
            let src = IntervalTrace::from_levels(&random_levels(seed, n)).unwrap();
            let c = CompiledTrace::compile(&src).unwrap();
            let total = c.total_mass();
            let mut masses: Vec<f64> = (0..997).map(|k| total * (f64::from(k) / 997.0)).collect();
            masses.push(total.next_down());
            let scalar: Vec<f64> = masses.iter().map(|&m| c.phase_at_cumulative(m)).collect();
            c.phase_at_cumulative_batch(&mut masses, &mut InverseScratch::new());
            let staged = c.segment_count() > CompiledTrace::BATCH_SCAN_SEGMENTS;
            for (i, (&b, &s)) in masses.iter().zip(&scalar).enumerate() {
                if staged {
                    assert_eq!(b.to_bits(), s.to_bits(), "seed {seed} n {n} mass #{i}: {b} vs {s}");
                }
                assert!(
                    (b - s).abs() <= 1e-12 * c.period_cycles() as f64,
                    "seed {seed} n {n} mass #{i}: batch {b} vs scalar {s}"
                );
                assert_eq!(b as u64, s as u64, "landed in different cycles");
                assert!(c.vulnerability_at(b as u64) > 0.0, "batch landed on a dead cycle");
            }
        }
    }

    #[test]
    fn hinted_batch_inverse_is_bit_identical_for_any_hints() {
        // Zero runs give boundary masses that several prefixes share.
        let pattern = [1.0, 0.0, 0.0, 0.5, 0.0, 1.0, 0.25, 0.0];
        let zero_runs: Vec<f64> = pattern.iter().cycle().take(400).copied().collect();
        for levels in [random_levels(13, 1_000), zero_runs, random_levels(5, 20)] {
            let c = CompiledTrace::compile(&IntervalTrace::from_levels(&levels).unwrap()).unwrap();
            let n = c.segment_count() as u32;
            let total = c.total_mass();
            let boundaries = (1..=levels.len()).map(|r| c.cumulative_within_period(r as u64));
            let masses: Vec<f64> = (0..997)
                .map(|k| total * (f64::from(k) / 997.0))
                .chain(boundaries.filter(|&m| m < total))
                .chain([total.next_down()])
                .collect();
            let mut want = masses.clone();
            c.phase_at_cumulative_batch(&mut want, &mut InverseScratch::new());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            // Garbage hints, some past the table (`n`, `n + 1 + k`, and
            // `u32::MAX` and its neighbors), then cold, then warm (each
            // batch's own landings).
            let garbage: Vec<u32> = (0..masses.len() as u32)
                .map(|k| match k % 4 {
                    0 => n,
                    1 => u32::MAX - k % 3,
                    2 => n + 1 + k,
                    _ => k.wrapping_mul(2_654_435_761),
                })
                .collect();
            let mut scratch = InverseScratch::new();
            for round in 0..4 {
                match round {
                    0 => scratch.segs.clone_from(&garbage),
                    1 => scratch.forget_hints(),
                    _ => {}
                }
                let mut got = masses.clone();
                c.phase_at_cumulative_batch_hinted(&mut got, &mut scratch);
                assert_eq!(bits(&got), bits(&want), "round {round}");
                if c.segment_count() > CompiledTrace::BATCH_SCAN_SEGMENTS {
                    assert_eq!(scratch.segs.len(), masses.len(), "hints track every entry");
                    assert!(scratch.segs.iter().all(|&s| s < n), "landings are segments");
                }
            }
        }
    }

    #[test]
    fn tiled_batch_inverse_is_bit_identical_to_the_scalar_probe() {
        // Never-vulnerable parts before, between and after the parts that
        // carry mass exercise the zero-mass part handling; the fixtures
        // hold masses on every tile and part boundary and at total⁻.
        let dead: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::from_levels(&[0.0, 0.0, 0.0]).unwrap());
        let live: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::from_levels(&random_levels(19, 60)).unwrap());
        let small: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::from_levels(&[0.0, 1.0, 0.5]).unwrap());
        let with_dead = crate::ConcatTrace::new(vec![
            (Arc::clone(&dead), 1_000_000),
            (live, 140_000),
            (Arc::clone(&dead), 500_000),
            (small, 900_000),
            (dead, 3),
        ])
        .unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for reference in [binary_tiling(), fractional_tiling(), with_dead] {
            let c = CompiledTrace::compile(&reference).unwrap();
            assert!(c.is_tiled());
            let total = c.total_mass();
            let mut masses: Vec<f64> = (0..997).map(|k| total * (f64::from(k) / 997.0)).collect();
            masses.extend(boundary_cycles(&reference).iter().map(|&cy| c.cumulative_at(cy as f64)));
            masses.push(total.next_down());
            let want: Vec<f64> = masses.iter().map(|&m| c.phase_at_cumulative(m)).collect();
            let mut scratch = InverseScratch::new();
            let mut got = masses.clone();
            c.phase_at_cumulative_batch(&mut got, &mut scratch);
            assert_eq!(bits(&got), bits(&want), "unhinted batch");
            // The tile level takes no hints, so no content of the segment
            // slots may matter: an unhinted batch's, reversed, garbage.
            for round in 0..3 {
                match round {
                    1 => scratch.segs.reverse(),
                    2 => scratch.segs.iter_mut().enumerate().for_each(|(k, s)| *s = k as u32),
                    _ => {}
                }
                let mut got = masses.clone();
                c.phase_at_cumulative_batch_hinted(&mut got, &mut scratch);
                assert_eq!(bits(&got), bits(&want), "hinted batch, round {round}");
            }
            for &p in &want {
                assert!((0.0..c.period_cycles() as f64).contains(&p));
                assert!(c.vulnerability_at(p as u64) > 0.0, "landed on dead cycle {p}");
            }
        }
    }

    #[test]
    fn staged_probe_survives_corrupted_tables() {
        // Corruption that verify catches must still never crash the probe
        // or leave the period: prefix perturbations (which unsort the
        // prefix table) and value bit flips, flat and tiled, hinted or not.
        let flat = IntervalTrace::from_levels(&random_levels(23, 500)).unwrap();
        let big_inner: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::from_levels(&random_levels(29, 300)).unwrap());
        let tiled = crate::ConcatTrace::new(vec![(big_inner, 20_000)]).unwrap();
        for clean in [CompiledTrace::compile(&flat), CompiledTrace::compile(&tiled)] {
            let clean = clean.unwrap();
            assert!(clean.segment_count() > CompiledTrace::BATCH_SCAN_SEGMENTS);
            let total = clean.total_mass();
            let masses: Vec<f64> = (0..2_000)
                .map(|k| total * (f64::from(k) / 2_000.0))
                .chain([total.next_down()])
                .collect();
            let mut corrupted = Vec::new();
            for (selector, delta) in [(0u64, 0.3), (7, -0.2), (123, 0.45), (299, -0.45)] {
                let mut c = clean.clone();
                c.chaos_perturb_prefix(selector, delta);
                corrupted.push(c);
            }
            for bit in [30u32, 52, 55, 62, 63] {
                let mut c = clean.clone();
                c.chaos_flip_dominant_value_bit(bit);
                corrupted.push(c);
            }
            for c in &corrupted {
                assert!(c.verify().is_err());
                let period = c.period_cycles() as f64;
                let mut scratch = InverseScratch::new();
                for hinted in [false, true, true] {
                    let mut got = masses.clone();
                    if hinted {
                        c.phase_at_cumulative_batch_hinted(&mut got, &mut scratch);
                    } else {
                        c.phase_at_cumulative_batch(&mut got, &mut scratch);
                    }
                    for (&m, &p) in masses.iter().zip(&got) {
                        assert!(p.is_finite() && (0.0..period).contains(&p), "m={m}: phase {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn batch_inverse_pins_zero_run_boundaries_like_the_scalar_probe() {
        // Same fixture as inverse_lookup_skips_zero_segments_at_boundaries:
        // boundary masses share a prefix value with a dead run and must
        // resolve to the next vulnerable segment's start, exactly.
        let src = IntervalTrace::from_levels(&[1.0, 0.0, 0.0, 0.5, 0.0, 1.0, 0.0]).unwrap();
        let c = CompiledTrace::compile(&src).unwrap();
        let mut masses = [1.0, 1.5, 0.0, 1.25, 2.0];
        c.phase_at_cumulative_batch(&mut masses, &mut InverseScratch::new());
        assert_eq!(masses[0], 3.0);
        assert_eq!(masses[1], 5.0);
        assert_eq!(masses[2], 0.0);
        assert!((masses[3] - 3.5).abs() < 1e-12);
        assert!((masses[4] - 5.5).abs() < 1e-12);
    }

    #[test]
    fn batch_inverse_clamps_the_extremes_inside_the_period() {
        let src = IntervalTrace::busy_idle(25, 75).unwrap();
        let c = CompiledTrace::compile(&src).unwrap();
        // At m → total⁻ the phase must stay strictly inside the vulnerable
        // segment; slight underflow clamps to phase 0 instead of NaN-ing.
        let mut masses = [c.total_mass().next_down(), -1e-12, 0.0];
        c.phase_at_cumulative_batch(&mut masses, &mut InverseScratch::new());
        assert!(masses[0] < 25.0, "m→total⁻ escaped the busy half: {}", masses[0]);
        assert_eq!(masses[1], 0.0);
        assert_eq!(masses[2], 0.0);
        for p in masses {
            assert!(c.vulnerability_at(p as u64) > 0.0);
        }

        let dead = CompiledTrace::compile(&IntervalTrace::from_levels(&[0.0, 0.0]).unwrap());
        let mut masses = [0.5, 0.0];
        dead.unwrap().phase_at_cumulative_batch(&mut masses, &mut InverseScratch::new());
        assert_eq!(masses, [0.0, 0.0]);
    }

    #[test]
    fn batch_cumulative_matches_pointwise_queries() {
        let src = IntervalTrace::from_levels(&random_levels(17, 64)).unwrap();
        let c = CompiledTrace::compile(&src).unwrap();
        let phases: Vec<f64> = (0..=256).map(|k| f64::from(k) / 4.0).collect();
        let mut out = vec![0.0; phases.len()];
        c.cumulative_at_batch(&phases, &mut out);
        for (&p, &got) in phases.iter().zip(&out) {
            assert_eq!(got, c.cumulative_at(p), "phase {p}");
        }
    }

    /// The record table a flat compile holds.
    fn flat_table(c: &CompiledTrace) -> &IntervalTrace {
        match &c.layout {
            Layout::Flat(f) => &f.table,
            Layout::Tiled(_) => panic!("expected a flat compile"),
        }
    }

    #[test]
    fn compiling_shares_the_source_record_table() {
        let src = IntervalTrace::from_levels(&random_levels(31, 500)).unwrap();
        let c = CompiledTrace::compile(&src).unwrap();
        assert!(Arc::ptr_eq(&flat_table(&c).recs, &src.recs), "interval trace copied");
        let again = CompiledTrace::compile(&c).unwrap();
        assert!(Arc::ptr_eq(&flat_table(&again).recs, &src.recs), "recompile copied");

        let other = IntervalTrace::from_levels(&random_levels(37, 500)).unwrap();
        let comp = CompositeTrace::new(vec![
            (1.0, Arc::new(src) as Arc<dyn VulnerabilityTrace>),
            (2.0, Arc::new(other) as Arc<dyn VulnerabilityTrace>),
        ])
        .unwrap();
        let cc = CompiledTrace::compile(&comp).unwrap();
        let memo = comp.span_table().expect("a composite memoizes its table");
        assert!(Arc::ptr_eq(&flat_table(&cc).recs, &memo.recs), "composite memo copied");
        let through_arc: Arc<dyn VulnerabilityTrace> = Arc::new(comp);
        let ca = CompiledTrace::compile(&through_arc).unwrap();
        assert!(Arc::ptr_eq(&flat_table(&ca).recs, &memo.recs), "Arc forward copied");
    }

    #[test]
    fn a_trace_one_past_the_old_cap_compiles_flat() {
        // 4,000,001 segments alternating between two values, with lengths
        // cycling through 1, 2, 3: one more segment than the cap used to
        // allow.
        let n = 4_000_001u64;
        let mut b = crate::IntervalTraceBuilder::new();
        for i in 0..n {
            b.push_cycles(1 + i % 3, if i % 2 == 0 { 1.0 } else { 0.25 }).unwrap();
        }
        let src = b.finish().unwrap();
        assert_eq!(src.segment_count() as u64, n);
        let c = CompiledTrace::compile(&src).expect("under the cap");
        assert!(!c.is_tiled());
        assert_eq!(c.segment_count() as u64, n);
        assert_eq!(c.period_cycles(), src.period_cycles());
        assert_eq!(
            c.total_mass().to_bits(),
            src.cumulative_within_period(c.period_cycles()).to_bits()
        );
        c.verify().unwrap();

        let mut masses = Vec::new();
        let mut start = 0u64;
        for (i, (end, v)) in src.spans().enumerate() {
            for cyc in [start, end - 1] {
                assert_eq!(c.vulnerability_at(cyc), src.vulnerability_at(cyc), "cycle {cyc}");
            }
            let (got, want) =
                (c.cumulative_within_period(start), src.cumulative_within_period(start));
            assert_eq!(got.to_bits(), want.to_bits(), "V({start})");
            if i % 997 == 0 {
                masses.extend([want, want + 0.5 * v]);
            }
            start = end;
        }
        let total = c.total_mass();
        masses.push(total.next_down());
        let scalar: Vec<f64> = masses.iter().map(|&m| c.phase_at_cumulative(m)).collect();
        let mut batch = masses.clone();
        c.phase_at_cumulative_batch(&mut batch, &mut InverseScratch::new());
        for ((&m, &p), &b) in masses.iter().zip(&scalar).zip(&batch) {
            assert!((0.0..c.period_cycles() as f64).contains(&p), "m={m}: phase {p}");
            assert!((c.cumulative_at(p) - m).abs() <= 1e-12 * total, "V(phase_at({m}))");
            assert_eq!(b.to_bits(), p.to_bits(), "batch and scalar disagree at m={m}");
        }
    }

    #[test]
    fn compiled_roundtrip_is_stable() {
        let src = IntervalTrace::from_levels(&random_levels(9, 200)).unwrap();
        let once = CompiledTrace::compile(&src).unwrap();
        let twice = CompiledTrace::compile(&once).unwrap();
        assert_eq!(once.segment_count(), twice.segment_count());
        for cyc in 0..200u64 {
            assert_eq!(once.vulnerability_at(cyc), twice.vulnerability_at(cyc));
        }
    }
}
