//! The event-driven simulation engine.
//!
//! Between events (arrival, completion, quantum expiry) the allocation is
//! constant, so each job's remaining work decreases linearly and the next
//! completion time is computed in closed form. The engine therefore
//! processes `O(arrivals + completions + quanta)` events — no time
//! discretization, no drift.
//!
//! Per-event cost depends on the policy, through one of four paths. The
//! *exhaustive* path rebuilds the full `(jobs, shares)` view and calls
//! [`Policy::assign`] at every event: `O(n)` per event, correct for
//! arbitrary policies. Policies that declare
//! [`AllocationStability::SrptPrefix`] — the SRPT family and EQUI — instead
//! run on the *incremental* path: the engine maintains the alive set in
//! SRPT order itself ([`crate::srpt_set`]), applies the policy's
//! `(count, share)` prefix profile directly, and advances uniform-drain
//! intervals with an `O(1)` offset bump, for `O(log n)` per event overall.
//! Policies that declare [`AllocationStability::LeastElapsed`] — SETF —
//! run on the *level* path: the engine keeps the alive set as a stack of
//! equal-elapsed levels ([`crate::level_stack`]), drains the top one at
//! the common rate [`Policy::equalize_curves`] gives for its distinct
//! curves, and merges it into the level below when it catches up, also
//! `O(log n)` per event (amortized over the merges). Policies that declare
//! [`AllocationStability::LatestArrivals`] — LAPS — run on the
//! *arrival-suffix* path: the engine keeps the alive set in `(release,
//! id)` order ([`crate::arrival_suffix`]), drains the running suffix of
//! the latest `count` arrivals under one offset per curve, and moves the
//! suffix boundary by one job when the policy's `count` moves, `O(log n)`
//! per event. [`EngineConfig::with_full_reassign`] forces the exhaustive
//! path, which keeps it available as a differential oracle for all three
//! (see `docs/PERF.md`).
//!
//! Orthogonally to the per-event strategy, [`EngineConfig::with_streaming`]
//! bounds *memory* by the alive set instead of the total job count:
//! completed `JobRecord` slots are retired to a free list and reused by
//! later arrivals, and no per-job completion list or outcome instance is
//! materialized — aggregates accumulate in a constant-size
//! [`StreamingMetrics`] sink instead (see [`Engine::run_streaming`] /
//! [`simulate_streaming`]). Both modes route completions through the same
//! sink in the same order, so the aggregate metrics of a streaming run are
//! bit-identical to the in-memory run of the same workload.

use parsched_speedup::{Curve, PowKernel, EPS};

use crate::arrival_suffix::ArrivalSuffix;
use crate::error::SimError;
use crate::invariant::{AuditFrame, AuditLevel, Auditor, EnginePath, FinalAccounting, FrameJob};
use crate::job::{Instance, JobId, JobSpec, Time, Work};
use crate::kahan::NeumaierSum;
use crate::level_stack::{CurveTag, LevelStack};
use crate::metrics::{CompletedJob, RunMetrics, RunOutcome};
use crate::observer::{NullObserver, Observer};
use crate::policy::{AliveJob, AllocationStability, CurveCount, Policy, PrefixAllocation};
use crate::snapshot::{SnapCfg, SnapInterval, SnapJob, Snapshot};
use crate::source::{ArrivalSource, StaticSource, SystemView};
use crate::srpt_set::{Placement, SrptSet};
use crate::streaming::{StreamingMetrics, StreamingOutcome};

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of processors `m` (may be fractional in principle; the paper
    /// uses integers).
    pub m: f64,
    /// Resource-augmentation speed factor: every rate is multiplied by this
    /// (1.0 = the paper's plain competitive-analysis setting; `1 + ε` for
    /// speed-augmentation experiments).
    pub speed: f64,
    /// Hard cap on processed events, to catch runaway quantum loops.
    pub max_events: u64,
    /// Forces the exhaustive `O(n)`-per-event path (full view + `assign`
    /// call at every event) even for policies whose stability would allow
    /// the incremental path. This keeps the legacy engine available as a
    /// differential oracle for the incremental one.
    pub full_reassign: bool,
    /// Runtime invariant auditing (see [`crate::invariant`]): per-event
    /// conservation-law checks at [`AuditLevel::Strict`], on a sampled
    /// subset at [`AuditLevel::Sampled`], or end-of-run identities only at
    /// [`AuditLevel::Final`]. Off by default. A violation aborts the run
    /// with [`SimError::AuditFailed`].
    pub audit: AuditLevel,
    /// Bounds resident memory by the *alive* set instead of the total job
    /// count: completed job slots are retired to a free list and reused,
    /// the id map forgets completed ids, and no completion list or outcome
    /// instance is accumulated — finalize with [`Engine::run_streaming`]
    /// (a plain [`Engine::run`] is rejected, since its `RunOutcome` is
    /// inherently O(total jobs)). Two observable semantic differences:
    /// [`Engine::remaining_of`] returns `None` (not `Some(0.0)`) once a
    /// job retires, and a duplicate of an already-*retired* id is no
    /// longer detected.
    pub streaming: bool,
    /// Runtime switch for the per-phase hot-path profiler (only
    /// meaningful when the crate is built with the `hotpath` feature;
    /// inert otherwise). When on, the event loops accumulate wall-clock
    /// nanoseconds per phase (queue/refresh/metrics/dispatch), which
    /// `Engine::hotpath_totals` reads back. Leave off for headline measurements:
    /// the timestamping itself costs tens of ns per event.
    pub hotpath_profile: bool,
}

impl EngineConfig {
    /// Default configuration for `m` processors.
    pub fn new(m: f64) -> Self {
        Self {
            m,
            speed: 1.0,
            max_events: 20_000_000,
            full_reassign: false,
            audit: AuditLevel::Off,
            streaming: false,
            hotpath_profile: false,
        }
    }

    /// Enables (or disables) the memory-bounded streaming mode — see
    /// [`EngineConfig::streaming`].
    pub fn with_streaming(mut self, streaming: bool) -> Self {
        self.streaming = streaming;
        self
    }

    /// Enables runtime invariant auditing at the given level.
    pub fn with_audit(mut self, audit: AuditLevel) -> Self {
        self.audit = audit;
        self
    }

    /// Forces (or un-forces) the exhaustive per-event reassignment path.
    pub fn with_full_reassign(mut self, full_reassign: bool) -> Self {
        self.full_reassign = full_reassign;
        self
    }

    /// Sets the speed-augmentation factor.
    pub fn with_speed(mut self, speed: f64) -> Self {
        self.speed = speed;
        self
    }

    /// Sets the event budget.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Enables the per-phase hot-path profiler — see
    /// [`EngineConfig::hotpath_profile`].
    pub fn with_hotpath_profile(mut self, hotpath_profile: bool) -> Self {
        self.hotpath_profile = hotpath_profile;
        self
    }
}

// Phase accounting for the hot-path profiler: wraps one phase's work and
// charges its wall-clock duration to the named `PhaseTotals` slot when the
// feature is compiled in *and* the runtime flag is armed. Compiles to the
// bare body otherwise.
#[cfg(feature = "hotpath")]
macro_rules! hp_phase {
    ($self:ident, $slot:ident, $body:expr) => {{
        if $self.state.cfg.hotpath_profile {
            let __hp_t0 = crate::hotpath::stamp();
            let __hp_r = $body;
            $self.state.hotpath.$slot += crate::hotpath::ns_since(__hp_t0);
            __hp_r
        } else {
            $body
        }
    }};
}
#[cfg(not(feature = "hotpath"))]
macro_rules! hp_phase {
    ($self:ident, $slot:ident, $body:expr) => {{
        let _ = stringify!($slot);
        $body
    }};
}

/// An owned snapshot of one alive job (used by lockstep analyses that hold
/// snapshots of two engines simultaneously).
#[derive(Debug, Clone)]
pub struct AliveSnapshot {
    /// Job id.
    pub id: JobId,
    /// Release time.
    pub release: Time,
    /// Original size.
    pub size: Work,
    /// Remaining work.
    pub remaining: Work,
    /// Speed-up curve.
    pub curve: Curve,
}

/// Kernel-class sentinel: the job's curve is outside the power-law family
/// (Amdahl, piecewise) — evaluate through `specs[idx].curve.rate`.
const CLASS_CURVE: u32 = u32::MAX;
/// Kernel-class sentinel: power-law job that arrived after the class
/// registry filled — evaluate through its own `kern[idx]` kernel.
const CLASS_UNGROUPED: u32 = u32::MAX - 1;
/// Class-registry capacity. Real workloads draw α from a handful of
/// values; past this many *distinct* exponents the marginal job falls
/// back to per-job kernels (`CLASS_UNGROUPED`), trading the grouped-rate
/// cache for an O(1) registry scan bound.
const MAX_CLASSES: usize = 64;

/// The per-job arena, struct-of-arrays. Every vector is indexed by the
/// arena slot (`IdMap` value / `SrptSet` slot idx) and grows in lockstep:
/// `admit_due_arrivals` is the single site that pushes, `finish_job` only
/// retires slots. The event loop's hot walks — `refresh_profile`'s Scan
/// recompute, the exhaustive rate sweep, the integrators — touch exactly
/// the 8-byte lanes they need (`remaining`, `run_key`, `class`) instead of
/// striding over whole `JobSpec`-sized records, so a 64-byte cache line
/// serves 8 jobs rather than one (see `docs/PERF.md` §7).
#[derive(Debug, Default)]
struct JobArena {
    /// Immutable admission specs (identity, release, size, weight, curve).
    specs: Vec<JobSpec>,
    /// Authoritative remaining work while the job is *not* in the running
    /// prefix (always authoritative on the exhaustive path).
    remaining: Vec<Work>,
    /// Offset-space SRPT key while `in_running` (incremental path only);
    /// materialized remaining work is `run_key − drain_offset`.
    run_key: Vec<f64>,
    /// Power-law evaluation kernel, classified once at admission so the
    /// per-event rate computations skip both the curve-variant dispatch
    /// and `powf` (see [`PowKernel`]). A placeholder for curves outside
    /// the power-law family (`class == CLASS_CURVE`), which keep the
    /// generic path.
    // lint:allow(L009) kern lane is reconstructed bit-identically from each curve on restore (snapshot.rs module docs)
    kern: Vec<PowKernel>,
    /// Kernel-class registry index, or one of the sentinels above. Jobs
    /// of one class share bit-identical kernels, so a Scan interval needs
    /// one Γ evaluation per *class*, not per job.
    class: Vec<u32>,
    /// Whether the job currently sits in the incremental running prefix.
    in_running: Vec<bool>,
    done: Vec<bool>,
    /// Kernel-class registry: one representative kernel per distinct α
    /// seen this run (same α ⇒ bit-identical kernel, since construction
    /// is deterministic in α).
    classes: Vec<PowKernel>,
    /// Per-class speed-adjusted rate `speed·Γ_c(share)` for the *current*
    /// Scan interval; refilled by [`JobArena::refresh_class_rates`] on
    /// every profile refresh that classifies a Scan interval, so it is
    /// valid whenever the engine's interval is `Scan`.
    // lint:allow(L009) per-class rate cache; re-derived from the class registry on the first interval after restore
    class_rates: Vec<f64>,
}

impl JobArena {
    fn len(&self) -> usize {
        self.specs.len()
    }

    /// Splits the arena into its spec lane, which the SRPT set orders by,
    /// and the lanes its placement callbacks write.
    fn split_placement(&mut self) -> (&[JobSpec], PlacementLanes<'_>) {
        (
            &self.specs,
            PlacementLanes {
                in_running: &mut self.in_running,
                run_key: &mut self.run_key,
                remaining: &mut self.remaining,
            },
        )
    }

    fn clear(&mut self) {
        self.specs.clear();
        self.remaining.clear();
        self.run_key.clear();
        self.kern.clear();
        self.class.clear();
        self.in_running.clear();
        self.done.clear();
        self.classes.clear();
        self.class_rates.clear();
    }

    /// Registry lookup/insert for an admitted kernel. Returns the kernel
    /// value to store in the `kern` lane (a placeholder for non-power
    /// curves) and the class id. O(|classes|) linear scan on α bits —
    /// bounded by [`MAX_CLASSES`], and in practice a handful of entries.
    fn classify(&mut self, kernel: Option<PowKernel>) -> (PowKernel, u32) {
        match kernel {
            None => (PowKernel::new(1.0), CLASS_CURVE),
            Some(k) => {
                let bits = k.alpha().to_bits();
                let class = match self
                    .classes
                    .iter()
                    .position(|c| c.alpha().to_bits() == bits)
                {
                    Some(p) => p as u32,
                    None if self.classes.len() < MAX_CLASSES => {
                        self.classes.push(k);
                        self.class_rates.push(0.0);
                        (self.classes.len() - 1) as u32
                    }
                    None => CLASS_UNGROUPED,
                };
                (k, class)
            }
        }
    }

    /// Refills the per-class rate cache for a Scan interval at `share`:
    /// one grouped Γ evaluation per distinct class
    /// ([`parsched_speedup::gamma_by_class`]) instead of one per running
    /// job. Allocation-free after warm-up (the cache vector's capacity
    /// tracks the registry).
    fn refresh_class_rates(&mut self, speed: f64, share: f64) {
        parsched_speedup::gamma_by_class(&self.classes, share, &mut self.class_rates);
        for r in &mut self.class_rates {
            *r *= speed;
        }
    }

    /// Speed-adjusted drain rate of one job in the current Scan interval,
    /// via the per-class cache. Bit-identical to
    /// `speed * self.gamma(idx, share)`: cache entries are
    /// `speed·Γ_c(share)` computed from a kernel bit-identical to the
    /// job's own. Callers must have refreshed the cache for (`speed`,
    /// `share`) — the engine does so whenever it classifies a Scan
    /// interval.
    #[inline]
    fn rate_cached(&self, idx: usize, speed: f64, share: f64) -> f64 {
        match self.class[idx] {
            CLASS_CURVE => speed * self.specs[idx].curve.rate(share),
            CLASS_UNGROUPED => speed * self.kern[idx].gamma(share),
            c => self.class_rates[c as usize],
        }
    }

    /// `Γ(share)` for one job via its cached kernel when available.
    /// Identical arithmetic to `specs[idx].curve.rate(share)` — the kernel
    /// *is* the power-law implementation — minus the per-call
    /// classification. (Cold-path scalar form; hot loops go through the
    /// per-class rate cache instead.)
    #[inline]
    fn gamma(&self, idx: usize, share: f64) -> f64 {
        if self.class[idx] == CLASS_CURVE {
            self.specs[idx].curve.rate(share)
        } else {
            self.kern[idx].gamma(share)
        }
    }
}

/// Id → arena-index map tuned for the common case of small dense ids:
/// a direct-indexed vector (`O(1)`, no hashing) with a sorted-vec fallback
/// for sparse or huge ids. Replaces the seed engine's `HashMap<JobId,
/// usize>`, whose per-event hashing showed up in arrival-heavy profiles.
#[derive(Debug, Default)]
struct IdMap {
    /// `dense[id] = index + 1`; 0 marks a vacant slot.
    dense: Vec<u32>,
    /// Sorted `(id, index + 1)` pairs for ids too large to index directly.
    sparse: Vec<(JobId, u32)>,
    /// Currently mapped ids. In streaming mode completed ids are removed,
    /// so this tracks the *alive* population, not all insertions ever.
    live: usize,
}

impl IdMap {
    fn get(&self, id: JobId) -> Option<usize> {
        if let Ok(i) = usize::try_from(id.0) {
            if let Some(&slot) = self.dense.get(i) {
                if slot != 0 {
                    return Some(slot as usize - 1);
                }
            }
        }
        self.sparse
            .binary_search_by_key(&id, |e| e.0)
            .ok()
            .map(|p| self.sparse[p].1 as usize - 1)
    }

    /// Inserts a mapping; the id must not be present (callers check first).
    fn insert(&mut self, id: JobId, idx: usize) {
        // lint:allow(L005, L007) u32 slot capacity (4.29e9 concurrently-alive jobs) is far beyond the design envelope; overflow here is unrecoverable corruption, not an input error
        let slot = u32::try_from(idx + 1).expect("more than u32::MAX jobs");
        // Direct-index ids up to a small multiple of the live count so the
        // dense table stays linear in the mapped population even for id
        // schemes with gaps; everything else goes to the sorted fallback.
        // Keying the cap off the *live* count (not insertions ever) is what
        // keeps the dense table O(peak alive) on streaming runs whose
        // sequential ids grow without bound.
        let cap = 1024 + 2 * self.live;
        self.live += 1;
        match usize::try_from(id.0) {
            Ok(i) if i < cap => {
                if i >= self.dense.len() {
                    self.dense.resize(i + 1, 0);
                }
                self.dense[i] = slot;
            }
            _ => {
                if let Err(pos) = self.sparse.binary_search_by_key(&id, |e| e.0) {
                    self.sparse.insert(pos, (id, slot));
                }
            }
        }
    }

    /// Forgets every mapping while retaining both tables' capacity (the
    /// dense table is re-grown by `insert`'s `resize`, which reuses the
    /// existing allocation).
    fn reset(&mut self) {
        self.dense.clear();
        self.sparse.clear();
        self.live = 0;
    }

    /// Drops a mapping if present (streaming-mode retirement). Increasing
    /// arrival ids land at the *end* of the sorted fallback and retire
    /// from it in roughly SRPT order, so both sides stay O(alive).
    fn remove(&mut self, id: JobId) {
        if let Ok(i) = usize::try_from(id.0) {
            if let Some(slot) = self.dense.get_mut(i) {
                if *slot != 0 {
                    *slot = 0;
                    self.live -= 1;
                    return;
                }
            }
        }
        if let Ok(pos) = self.sparse.binary_search_by_key(&id, |e| e.0) {
            self.sparse.remove(pos);
            self.live -= 1;
        }
    }
}

/// Which per-event execution strategy this run uses (fixed at creation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecMode {
    /// Full view + `Policy::assign` at every event.
    Exhaustive,
    /// SRPT-ordered alive set + prefix profile; no `assign` calls.
    Incremental,
    /// Least-elapsed level stack + the policy's common-rate equalizer; no
    /// `assign` calls.
    Levels,
    /// Arrival-ordered alive set whose latest `count` jobs run + the
    /// policy's prefix profile; no `assign` calls.
    Suffix,
}

/// How the current constant-allocation interval drains (incremental path).
#[derive(Debug, Clone, Copy)]
enum IntervalKind {
    /// No alive jobs.
    Idle,
    /// Every running job drains at the same `rate`; the drain offset
    /// advances in `O(1)`.
    Uniform { rate: f64 },
    /// Heterogeneous per-job rates; drained by an `O(k log k)` scan.
    Scan,
}

/// One slot of the per-`n` allocation memo. The
/// [`PrefixAllocation`] contract makes the policy's profile a pure
/// function of `(n_alive, m)` (see [`crate::policy`]), and `m` is fixed
/// per run, so the *validated* `(count, share)` pair for each alive count
/// can be computed once and replayed — the delta-allocation refresh. The
/// slot also memoizes the uniform-interval drain rate for one kernel
/// class at this `n`: same class ⇒ bit-identical kernel ⇒ bit-identical
/// `speed·Γ_c(share)`, so replaying it is exact, not approximate.
#[derive(Debug, Clone, Copy)]
struct CachedProfile {
    /// Validated prefix count, or `u32::MAX` while the slot is empty.
    count: u32,
    /// Kernel class whose uniform rate is memoized in `rate`, or
    /// `CLASS_CURVE` (which `rate_cached`-eligible classes can never
    /// equal) while no rate is memoized.
    rate_class: u32,
    /// Validated (clamped) prefix share.
    share: f64,
    /// Memoized `speed·Γ_{rate_class}(share)`.
    rate: f64,
}

impl CachedProfile {
    const EMPTY: Self = Self {
        count: u32::MAX,
        rate_class: CLASS_CURVE,
        share: 0.0,
        rate: 0.0,
    };
}

/// The simulation engine. See the crate docs for the architecture and
/// [`simulate`] for the one-call entry point.
pub struct Engine<'a> {
    policy: &'a mut dyn Policy,
    // lint:allow(L009) borrowed collaborator, not engine state; restore re-attaches a caller-supplied source
    source: &'a mut dyn ArrivalSource,
    // lint:allow(L009) borrowed collaborator, not engine state; restore re-attaches a caller-supplied observer
    observer: &'a mut dyn Observer,
    state: RunState,
}

/// Everything an [`Engine`] holds besides its policy, source, and
/// observer: the run state that [`Engine::park`] detaches by value.
struct RunState {
    cfg: EngineConfig,
    jobs: JobArena,
    // lint:allow(L009) id map is rebuilt from the admitted specs during restore; rendering it would duplicate the spec lane
    ids: IdMap,
    mode: ExecMode,
    /// Exhaustive path: indices into `jobs` of unfinished, released jobs.
    alive: Vec<usize>,
    /// Allocation for `alive[i]` (valid when `alloc_fresh`).
    shares: Vec<f64>,
    /// Drain rate of `alive[i]` (speed-adjusted; valid when `alloc_fresh`).
    rates: Vec<f64>,
    /// The buffer behind every policy and source view of the alive set,
    /// empty between uses: each use fills it and hands its capacity back
    /// through [`recycle_views`], so building a view never allocates once
    /// the buffer has grown to the peak alive count.
    // lint:allow(L009) empty between events; it only lends its capacity to each view, so there is nothing to capture
    views: Vec<AliveJob<'static>>,
    /// Exhaustive path: the earliest `now + remaining/rate` over the
    /// alive set (`Some(None)` when nothing drains), folded by the refresh
    /// that set the rates so that `decide` need not sweep again. `None`
    /// once an advance has moved the clock or the remaining work it was
    /// computed from; `decide` then sweeps and caches the answer.
    // lint:allow(L009) derived from the clock, remaining work and rates that the snapshot does capture; restore drops it and the next decide sweeps again
    completion_candidate: Option<Option<Time>>,
    /// Incremental path: the alive set in SRPT order.
    srpt: SrptSet,
    /// Incremental path: the active prefix profile (valid when
    /// `alloc_fresh`).
    profile: PrefixAllocation,
    /// Incremental path: drain shape of the current interval.
    interval: IntervalKind,
    /// Incremental path: per-`n` memo of the validated prefix profile and
    /// uniform rate, indexed by alive count (slot 0 unused). O(peak
    /// alive) — same order as the SRPT set itself.
    // lint:allow(L009) pure memo of the policy's (n, m)-pure prefix profile; a cold cache re-derives every entry bit-identically
    profile_cache: Vec<CachedProfile>,
    /// Incremental path: the interval's precomputed next completion time.
    /// Absolute, so it stays valid across partial `advance_to` calls (for
    /// `Uniform` intervals the front's `now + rem/rate` is invariant under
    /// uniform drain).
    next_completion: Option<Time>,
    /// Cached `source.next_time()`, refreshed after every emission round.
    /// `next_time` takes `&self` and the engine holds the only borrow of
    /// the source, so the value can only change when the engine itself
    /// emits. It is the whole arrival timeline: the next event is the
    /// minimum of this, the interval's completion candidate, and (on the
    /// exhaustive path) the quantum deadline.
    next_arrival: Option<Time>,
    /// Steps that processed a completion *and* an arrival at one
    /// timestamp — the same-timestamp coalescing the event loop performs
    /// as a first-class step (see `docs/PERF.md` §4).
    coalesced: u64,
    /// Reusable buffer for placement updates (avoids per-event allocation).
    // lint:allow(L009) transient per-event scratch, empty between events; nothing to restore
    scratch_moves: Vec<(usize, Placement)>,
    /// Reusable arrival-batch buffer (avoids per-arrival allocation).
    // lint:allow(L009) transient per-event scratch, empty between events; nothing to restore
    scratch_batch: Vec<JobSpec>,
    now: Time,
    alloc_fresh: bool,
    quantum_deadline: Option<Time>,
    events: u64,
    finished: bool,
    /// Runtime invariant auditor (present iff `cfg.audit` is not `Off`).
    auditor: Option<Auditor>,
    /// Policy name cached at construction (frames are built per event).
    policy_name: String,
    /// Whether the policy claims SRPT-ordered allocations (see
    /// [`Policy::srpt_ordered`]); gates the `srpt-prefix` audit check.
    // lint:allow(L009) capability flag re-derived from the restored policy, not persisted state
    policy_srpt_ordered: bool,
    // Accumulators. The interval integrals are compensated sums: they fold
    // in millions of tiny terms on long runs, and the flow-identity audit
    // compares them against each other at a relative tolerance that naive
    // summation drift can exceed (see `crate::kahan`).
    frac_flow: NeumaierSum,
    alive_integral: NeumaierSum,
    /// Constant-size aggregate sink; fed one `record` per completion on
    /// *both* modes, which is what makes streaming metrics bit-identical
    /// to the in-memory path.
    sink: StreamingMetrics,
    /// Per-job completion list (in-memory mode only; empty when streaming).
    completed: Vec<CompletedJob>,
    /// Retired arena slots available for reuse (streaming mode only).
    free: Vec<usize>,
    /// Total jobs admitted from the source (the arena length is not this
    /// in streaming mode, where slots are recycled).
    admitted: usize,
    /// High-water mark of the alive set.
    peak_alive: usize,
    /// Level path: the alive set as a stack of equal-elapsed levels.
    levels: LevelStack,
    /// Level path: the buffer behind every view of the served level's
    /// distinct curves handed to [`Policy::equalize_curves`], empty
    /// between uses (the curve-view twin of `views`).
    // lint:allow(L009) empty between events; it only lends its capacity to each curve view, so there is nothing to capture
    level_curves: Vec<CurveCount<'static>>,
    /// Level path: the share of each distinct curve of the served level
    /// (valid when `alloc_fresh`). The drain itself runs on the interval
    /// rate; only audit frames read the shares.
    // lint:allow(L009) read only by audit frames, and snapshots require auditing off; the next refresh recomputes them
    level_shares: Vec<f64>,
    /// Arrival-suffix path: the alive set in `(release, id)` order, its
    /// latest `count` jobs running.
    suffix: ArrivalSuffix,
    /// Per-phase wall-clock totals (see [`crate::hotpath`]); pure
    /// diagnostics, armed by [`EngineConfig::hotpath_profile`].
    #[cfg(feature = "hotpath")]
    // lint:allow(L009) profiler diagnostics, not run state; deliberately not captured (like the audit layer)
    hotpath: crate::hotpath::PhaseTotals,
}

/// The engine's heap-backed working state, detached from any run.
///
/// An [`Engine`] borrows its policy, source, and observer, so one engine
/// value cannot outlive a workload's source — but its *buffers* (job
/// arena, id map, SRPT heaps, share/rate vectors, scratch, metric sink)
/// can. Donating the buffers of a finished run to the next engine via
/// [`Engine::with_buffers`] / [`Engine::into_buffers`] makes repeated runs
/// on one thread allocation-free at steady state after warm-up: every
/// structure is cleared with capacity retained, never dropped. This is the
/// mechanism behind the sweep pool's per-worker engine reuse (see
/// `docs/PERF.md` §6 for the lifecycle and the allocation audit).
#[derive(Debug, Default)]
pub struct EngineBuffers {
    jobs: JobArena,
    ids: IdMap,
    alive: Vec<usize>,
    shares: Vec<f64>,
    rates: Vec<f64>,
    views: Vec<AliveJob<'static>>,
    srpt: SrptSet,
    levels: LevelStack,
    level_curves: Vec<CurveCount<'static>>,
    level_shares: Vec<f64>,
    suffix: ArrivalSuffix,
    scratch_moves: Vec<(usize, Placement)>,
    scratch_batch: Vec<JobSpec>,
    completed: Vec<CompletedJob>,
    free: Vec<usize>,
    sink: StreamingMetrics,
    profile_cache: Vec<CachedProfile>,
}

impl EngineBuffers {
    /// Fresh, empty buffers (what [`Engine::new`] starts from).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all content in place, retaining every allocation.
    fn clear(&mut self) {
        self.jobs.clear();
        self.ids.reset();
        self.alive.clear();
        self.shares.clear();
        self.rates.clear();
        self.views.clear();
        self.srpt.reset();
        self.levels.reset();
        self.level_curves.clear();
        self.level_shares.clear();
        self.suffix.reset();
        self.scratch_moves.clear();
        self.scratch_batch.clear();
        self.completed.clear();
        self.free.clear();
        self.sink.reset();
        self.profile_cache.clear();
    }
}

/// An [`Engine`] detached from its policy, source, and observer: the
/// whole run state, held by value between stretches of stepping.
///
/// [`Engine::park`] and [`ParkedEngine::resume`] are plain moves — no
/// buffer is cleared, no job copied, and the policy is not reset — so
/// parking between [`Engine::step`] calls costs `O(1)` whatever the run's
/// size. Resume with the collaborators the engine was parked from: the
/// same policy value (its internal state, such as an RNG, simply
/// continues), the same source (positioned where the engine left it), and
/// an observer of the same kind. The resumed engine then continues the run
/// bit-for-bit as if it had never stopped. A multi-tenant server uses this
/// to keep each tenant's engine between slices without a snapshot;
/// [`Engine::snapshot`] remains the way to move a run across processes.
pub struct ParkedEngine(RunState);

impl ParkedEngine {
    /// Re-attaches the collaborators the engine was parked from (see
    /// [`ParkedEngine`]) and returns the engine, ready to step on from
    /// where it stopped.
    ///
    /// # Errors
    ///
    /// [`SimError::BadInstance`], dropping the parked run, when the
    /// collaborators visibly differ from the ones the engine was parked
    /// from: a policy with a different SRPT-ordering claim, a policy or
    /// observer that would put the run on the other execution path, or a
    /// source whose next arrival is not the one the engine expects. The
    /// checks are `O(1)`, so they cannot tell a different policy of the
    /// same kind, or a source that agrees on its next arrival only.
    pub fn resume<'a>(
        self,
        policy: &'a mut dyn Policy,
        source: &'a mut dyn ArrivalSource,
        observer: &'a mut dyn Observer,
    ) -> Result<Engine<'a>, SimError> {
        let state = self.0;
        let mismatch = |what: &str| {
            Err(SimError::BadInstance {
                what: format!("resume mismatch: {what}"),
            })
        };
        if policy.srpt_ordered() != state.policy_srpt_ordered {
            return mismatch("the policy differs in its SRPT-ordering claim");
        }

        if exec_mode(&state.cfg, policy, observer) != state.mode {
            return mismatch("the policy or observer selects the other execution path");
        }
        if source.next_time().map(f64::to_bits) != state.next_arrival.map(f64::to_bits) {
            return mismatch("the source is not positioned where the engine left it");
        }
        Ok(Engine {
            policy,
            source,
            observer,
            state,
        })
    }
}

/// The execution path for a run of `policy` under `cfg` watched by
/// `observer`: when the observer does not consume the allocation stream
/// and [`EngineConfig::full_reassign`] is off, the incremental path for a
/// policy declaring [`AllocationStability::SrptPrefix`], the level path
/// for one declaring [`AllocationStability::LeastElapsed`], and the
/// arrival-suffix path for one declaring
/// [`AllocationStability::LatestArrivals`]; the exhaustive path otherwise.
fn exec_mode(cfg: &EngineConfig, policy: &dyn Policy, observer: &dyn Observer) -> ExecMode {
    if cfg.full_reassign || observer.needs_allocation_stream() {
        return ExecMode::Exhaustive;
    }
    match policy.stability() {
        AllocationStability::General => ExecMode::Exhaustive,
        AllocationStability::SrptPrefix => ExecMode::Incremental,
        AllocationStability::LeastElapsed => ExecMode::Levels,
        AllocationStability::LatestArrivals => ExecMode::Suffix,
    }
}

/// The per-spec invariants every [`Instance`] constructor guarantees: a
/// finite non-negative release, finite positive size and weight, and a
/// valid curve. Admission checks each emitted spec against them (before
/// its own arrival-time and duplicate-id checks) and restore checks each
/// snapshot arena slot, so every spec in the arena satisfies them.
fn check_spec(spec: &JobSpec) -> Result<(), SimError> {
    if !spec.release.is_finite() || spec.release < 0.0 {
        return Err(SimError::BadInstance {
            // lint:allow(L007) error construction: a failed admission validation terminates the run
            what: format!("job {} has invalid release {}", spec.id, spec.release),
        });
    }
    if !spec.size.is_finite() || spec.size <= 0.0 {
        return Err(SimError::BadInstance {
            // lint:allow(L007) error construction: a failed admission validation terminates the run
            what: format!("job {} has invalid size {}", spec.id, spec.size),
        });
    }
    if !spec.weight.is_finite() || spec.weight <= 0.0 {
        return Err(SimError::BadInstance {
            // lint:allow(L007) error construction: a failed admission validation terminates the run
            what: format!("job {} has invalid weight {}", spec.id, spec.weight),
        });
    }
    if spec.curve.validate().is_err() {
        return Err(SimError::BadInstance {
            // lint:allow(L007) error construction: a failed admission validation terminates the run
            what: format!("job {} has invalid curve {:?}", spec.id, spec.curve),
        });
    }
    Ok(())
}

/// Checks a snapshot's run-state scalars against the domains
/// [`Engine::snapshot`] emits them in: the clock and the SRPT drain offset
/// finite and non-negative, every other scalar the event loop computes
/// with finite (the sketch's bounds are exempt: `±∞` is its empty state).
/// A NaN, ∞, or negative clock decodes fine but sends the resumed run to
/// a wrong total flow or around its event budget.
fn check_run_scalars(snap: &Snapshot) -> Result<(), SimError> {
    let bad = |name: &str, v: f64| {
        Err(SimError::BadInstance {
            what: format!("snapshot {name} = {v} is out of range"),
        })
    };
    let level_drains = snap
        .levels
        .iter()
        .flat_map(|l| &l.levels)
        .map(|l| ("levels.drain", l.drain));
    let suffix_drains = snap
        .suffix
        .iter()
        .flat_map(|s| &s.groups)
        .map(|g| ("suffix.drain", g.drain));
    let waiting_work = snap
        .suffix
        .iter()
        .flat_map(|s| &s.waiting)
        .map(|e| ("suffix.waiting", e.key));
    for (name, v) in [("clock.now", snap.now), ("srpt.drain", snap.srpt.drain)]
        .into_iter()
        .chain(level_drains)
        .chain(suffix_drains)
        .chain(waiting_work)
    {
        if !(v.is_finite() && v >= 0.0) {
            return bad(name, v);
        }
    }
    let rate = match snap.interval {
        SnapInterval::Uniform { rate } => Some(rate),
        SnapInterval::Idle | SnapInterval::Scan => None,
    };
    let sink = &snap.sink;
    let finite = [
        ("clock.quantum_deadline", snap.quantum_deadline),
        ("clock.next_completion", snap.next_completion),
        ("interval.rate", rate),
    ]
    .into_iter()
    .filter_map(|(name, v)| v.map(|v| (name, v)))
    .chain([
        ("profile.share", snap.profile_share),
        ("srpt.s1", snap.srpt.s1),
        ("srpt.sk", snap.srpt.sk),
        ("srpt.q_frac", snap.srpt.q_frac),
        ("accum.frac_flow", snap.frac_flow.0),
        ("accum.frac_flow", snap.frac_flow.1),
        ("accum.alive_integral", snap.alive_integral.0),
        ("accum.alive_integral", snap.alive_integral.1),
        ("sink.total_flow", sink.total_flow.0),
        ("sink.total_flow", sink.total_flow.1),
        ("sink.max_flow", sink.max_flow),
        ("sink.total_stretch", sink.total_stretch.0),
        ("sink.total_stretch", sink.total_stretch.1),
        ("sink.max_stretch", sink.max_stretch),
        ("sink.total_weighted_flow", sink.total_weighted_flow.0),
        ("sink.total_weighted_flow", sink.total_weighted_flow.1),
        ("sink.makespan", sink.makespan),
    ])
    .chain(snap.shares.iter().map(|&v| ("exhaustive.shares", v)))
    .chain(snap.rates.iter().map(|&v| ("exhaustive.rates", v)))
    .chain(snap.levels.iter().flat_map(|l| {
        std::iter::once(("levels.frozen", l.frozen)).chain(
            l.levels
                .iter()
                .flat_map(|level| [("levels.s1", level.s1), ("levels.sk", level.sk)]),
        )
    }))
    .chain(
        snap.levels
            .iter()
            .flat_map(|l| &l.levels)
            .flat_map(|l| &l.entries)
            .map(|e| ("levels.key", e.key)),
    )
    .chain(snap.suffix.iter().flat_map(|s| {
        std::iter::once(("suffix.waiting_frac", s.waiting_frac)).chain(s.groups.iter().flat_map(
            |g| {
                [
                    ("suffix.s1", g.s1),
                    ("suffix.sk", g.sk),
                    ("suffix.rate", g.rate),
                ]
                .into_iter()
                .chain(g.entries.iter().map(|e| ("suffix.key", e.key)))
            },
        ))
    }));
    for (name, v) in finite {
        if !v.is_finite() {
            return bad(name, v);
        }
    }
    Ok(())
}

/// Hands a borrowed-view buffer's capacity back to its `'static` slot in
/// the run state (the alive-job views and the level path's curve views).
/// The buffer is emptied, so the in-place collect into the same element
/// type at another lifetime (same size and alignment) keeps its
/// allocation; `tests/engine_zero_alloc.rs` audits that it does.
fn recycle_views<T, U>(mut views: Vec<T>) -> Vec<U> {
    views.clear();
    // lint:allow(L007) in-place collect of an emptied Vec into the same element layout keeps its allocation (audited by tests/engine_zero_alloc.rs)
    views.into_iter().map_while(|_| None).collect()
}

/// Folds `t` into the running minimum `next`, keeping the first of equals
/// (the strict `<` of every next-event fold in the engine).
#[inline]
fn fold_earliest(next: &mut Option<Time>, t: Time) {
    if next.is_none_or(|n| t < n) {
        *next = Some(t);
    }
}

/// The arena lanes a [`Placement`] writes, borrowed apart from the spec
/// lane the SRPT set reads as its tie-break context
/// ([`JobArena::split_placement`]).
struct PlacementLanes<'a> {
    in_running: &'a mut [bool],
    run_key: &'a mut [f64],
    remaining: &'a mut [Work],
}

impl PlacementLanes<'_> {
    /// Applies a reported [`Placement`] to the per-job lanes.
    fn apply(&mut self, idx: usize, p: Placement) {
        match p {
            Placement::Running { key } => {
                self.in_running[idx] = true;
                self.run_key[idx] = key;
            }
            Placement::Queued { remaining } => {
                self.in_running[idx] = false;
                self.remaining[idx] = remaining;
            }
        }
    }
}

impl<'a> Engine<'a> {
    /// Creates an engine over the given policy, arrival source, and
    /// observer. The policy is `reset()` so engines can reuse policy values.
    ///
    /// The execution path is chosen here: the incremental, level and
    /// arrival-suffix `O(log n)` paths require the policy to declare
    /// [`AllocationStability::SrptPrefix`],
    /// [`AllocationStability::LeastElapsed`] or
    /// [`AllocationStability::LatestArrivals`] respectively, the observer
    /// to not consume the allocation stream, and
    /// [`EngineConfig::full_reassign`] to be off; otherwise the exhaustive
    /// `O(n)` path runs.
    pub fn new(
        cfg: EngineConfig,
        policy: &'a mut dyn Policy,
        source: &'a mut dyn ArrivalSource,
        observer: &'a mut dyn Observer,
    ) -> Self {
        Self::with_buffers(cfg, policy, source, observer, EngineBuffers::new())
    }

    /// Like [`Engine::new`], but reusing the buffers of a previous run
    /// instead of allocating fresh ones. The buffers are cleared here
    /// (content discarded, capacity retained), so donating dirty buffers
    /// is fine. Recover them afterwards with [`Engine::into_buffers`] or
    /// one of the `run_*_reusing` finalizers.
    pub fn with_buffers(
        cfg: EngineConfig,
        policy: &'a mut dyn Policy,
        source: &'a mut dyn ArrivalSource,
        observer: &'a mut dyn Observer,
        mut bufs: EngineBuffers,
    ) -> Self {
        bufs.clear();
        policy.reset();
        let mode = exec_mode(&cfg, policy, observer);
        let auditor = (!cfg.audit.is_off()).then(|| Auditor::new(cfg.audit));
        let policy_name = policy.name();
        let policy_srpt_ordered = policy.srpt_ordered();
        let next_arrival = source.next_time();
        Self {
            policy,
            source,
            observer,
            state: RunState {
                cfg,
                jobs: bufs.jobs,
                ids: bufs.ids,
                mode,
                alive: bufs.alive,
                shares: bufs.shares,
                rates: bufs.rates,
                views: bufs.views,
                completion_candidate: None,
                srpt: bufs.srpt,
                levels: bufs.levels,
                level_curves: bufs.level_curves,
                level_shares: bufs.level_shares,
                suffix: bufs.suffix,
                profile: PrefixAllocation {
                    count: 0,
                    share: 0.0,
                },
                interval: IntervalKind::Idle,
                profile_cache: bufs.profile_cache,
                next_completion: None,
                next_arrival,
                coalesced: 0,
                scratch_moves: bufs.scratch_moves,
                scratch_batch: bufs.scratch_batch,
                now: 0.0,
                alloc_fresh: false,
                quantum_deadline: None,
                events: 0,
                finished: false,
                auditor,
                policy_name,
                policy_srpt_ordered,
                frac_flow: NeumaierSum::new(),
                alive_integral: NeumaierSum::new(),
                sink: bufs.sink,
                completed: bufs.completed,
                free: bufs.free,
                admitted: 0,
                peak_alive: 0,
                #[cfg(feature = "hotpath")]
                hotpath: crate::hotpath::PhaseTotals::ZERO,
            },
        }
    }

    /// Clears all per-run state, retaining buffer capacity.
    fn clear_run_state(&mut self) {
        self.state.jobs.clear();
        self.state.ids.reset();
        self.state.alive.clear();
        self.state.shares.clear();
        self.state.rates.clear();
        self.state.views.clear();
        self.state.completion_candidate = None;
        self.state.srpt.reset();
        self.state.levels.reset();
        self.state.level_curves.clear();
        self.state.level_shares.clear();
        self.state.suffix.reset();
        self.state.profile = PrefixAllocation {
            count: 0,
            share: 0.0,
        };
        self.state.interval = IntervalKind::Idle;
        self.state.profile_cache.clear();
        self.state.next_completion = None;
        self.state.coalesced = 0;
        self.state.next_arrival = self.source.next_time();
        self.state.scratch_moves.clear();
        self.state.scratch_batch.clear();
        self.state.now = 0.0;
        self.state.alloc_fresh = false;
        self.state.quantum_deadline = None;
        self.state.events = 0;
        self.state.finished = false;
        self.state.auditor =
            (!self.state.cfg.audit.is_off()).then(|| Auditor::new(self.state.cfg.audit));
        self.state.frac_flow = NeumaierSum::new();
        self.state.alive_integral = NeumaierSum::new();
        self.state.sink.reset();
        self.state.completed.clear();
        self.state.free.clear();
        self.state.admitted = 0;
        self.state.peak_alive = 0;
        #[cfg(feature = "hotpath")]
        {
            self.state.hotpath = crate::hotpath::PhaseTotals::ZERO;
        }
    }

    /// Tears the engine down to its reusable buffers (cleared, capacity
    /// retained), releasing the policy/source/observer borrows.
    pub fn into_buffers(mut self) -> EngineBuffers {
        self.clear_run_state();
        EngineBuffers {
            jobs: std::mem::take(&mut self.state.jobs),
            ids: std::mem::take(&mut self.state.ids),
            alive: std::mem::take(&mut self.state.alive),
            shares: std::mem::take(&mut self.state.shares),
            rates: std::mem::take(&mut self.state.rates),
            views: std::mem::take(&mut self.state.views),
            srpt: std::mem::take(&mut self.state.srpt),
            levels: std::mem::take(&mut self.state.levels),
            level_curves: std::mem::take(&mut self.state.level_curves),
            level_shares: std::mem::take(&mut self.state.level_shares),
            suffix: std::mem::take(&mut self.state.suffix),
            scratch_moves: std::mem::take(&mut self.state.scratch_moves),
            scratch_batch: std::mem::take(&mut self.state.scratch_batch),
            completed: std::mem::take(&mut self.state.completed),
            free: std::mem::take(&mut self.state.free),
            sink: std::mem::take(&mut self.state.sink),
            profile_cache: std::mem::take(&mut self.state.profile_cache),
        }
    }

    /// Detaches the engine from its policy, source, and observer, keeping
    /// the run state by value; see [`ParkedEngine`].
    pub fn park(self) -> ParkedEngine {
        ParkedEngine(self.state)
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.state.now
    }

    /// Whether this engine runs the incremental `O(log n)`-per-event SRPT
    /// path (as opposed to the exhaustive, the level or the arrival-suffix
    /// path).
    pub fn uses_incremental_path(&self) -> bool {
        self.state.mode == ExecMode::Incremental
    }

    /// Which execution path this run takes (fixed at construction).
    pub fn path(&self) -> EnginePath {
        match self.state.mode {
            ExecMode::Exhaustive => EnginePath::Exhaustive,
            ExecMode::Incremental => EnginePath::Incremental,
            ExecMode::Levels => EnginePath::Levels,
            ExecMode::Suffix => EnginePath::ArrivalSuffix,
        }
    }

    /// Number of unfinished released jobs `|A(t)|`.
    pub fn num_alive(&self) -> usize {
        match self.state.mode {
            ExecMode::Exhaustive => self.state.alive.len(),
            ExecMode::Incremental => self.state.srpt.len(),
            ExecMode::Levels => self.state.levels.len(),
            ExecMode::Suffix => self.state.suffix.len(),
        }
    }

    /// Whether the run has finished (no alive jobs, source exhausted).
    pub fn is_finished(&self) -> bool {
        self.state.finished
    }

    /// Steps that processed a completion *and* an arrival at a single
    /// timestamp (same-timestamp coalescing): the step count stays one
    /// event short of `completions + arrivals` for each of these. The
    /// canonical case is Parallel-SRPT on a saturating release schedule,
    /// where every completion coincides with the next release (see
    /// `docs/PERF.md` §4).
    pub fn coalesced_steps(&self) -> u64 {
        self.state.coalesced
    }

    /// The hot-path profiler's accumulated per-phase totals (only under
    /// the `hotpath` feature; all-zero unless
    /// [`EngineConfig::hotpath_profile`] was armed). Read before
    /// finalizing — the finalizers consume the engine.
    #[cfg(feature = "hotpath")]
    pub fn hotpath_totals(&self) -> crate::hotpath::PhaseTotals {
        self.state.hotpath
    }

    /// Remaining work of a job: `Some(0.0)` once completed, `None` if the
    /// job has not been released (emitted) yet. In streaming mode a
    /// completed job's slot is retired, so `None` is also returned after
    /// completion (there is no per-job record to consult).
    pub fn remaining_of(&self, id: JobId) -> Option<Work> {
        self.state.ids.get(id).map(|i| {
            if self.state.jobs.done[i] {
                0.0
            } else if self.state.mode == ExecMode::Levels {
                self.state.levels.remaining_of(i).unwrap_or(0.0)
            } else if self.state.mode == ExecMode::Suffix {
                self.state.suffix.remaining_of(i).unwrap_or(0.0)
            } else if self.state.jobs.in_running[i] {
                (self.state.jobs.run_key[i] - self.state.srpt.drain_offset()).max(0.0)
            } else {
                self.state.jobs.remaining[i]
            }
        })
    }

    /// Owned snapshots of all alive jobs (in no contractual order).
    pub fn alive_snapshot(&self) -> Vec<AliveSnapshot> {
        let snap = |i: usize, remaining: Work| {
            let spec = &self.state.jobs.specs[i];
            AliveSnapshot {
                id: spec.id,
                release: spec.release,
                size: spec.size,
                remaining,
                curve: spec.curve.clone(),
            }
        };
        match self.state.mode {
            ExecMode::Exhaustive => self
                .state
                .alive
                .iter()
                .map(|&i| snap(i, self.state.jobs.remaining[i]))
                .collect(),
            ExecMode::Incremental => self
                .state
                .srpt
                .iter_alive(&self.state.jobs.specs)
                .map(|(i, remaining)| snap(i, remaining))
                .collect(),
            ExecMode::Levels => {
                let mut out = Vec::with_capacity(self.state.levels.len());
                self.state
                    .levels
                    .for_each(|slot, remaining, _| out.push(snap(slot.idx, remaining)));
                out
            }
            ExecMode::Suffix => {
                let mut out = Vec::with_capacity(self.state.suffix.len());
                self.state
                    .suffix
                    .for_each(&self.state.jobs.specs, |slot, remaining, _| {
                        out.push(snap(slot.idx, remaining));
                    });
                out
            }
        }
    }

    /// Captures the engine's complete run state at the current event
    /// boundary as a [`Snapshot`]. Valid between [`Engine::step`] calls
    /// (including before the first and after the last); resuming via
    /// [`Engine::restore`] replays the remaining trajectory bit-for-bit —
    /// same completion order, same low-order float bits in every metric.
    ///
    /// Requires auditing off: audit state is a debugging aid, not run
    /// state, and is deliberately not captured.
    pub fn snapshot(&self) -> Result<Snapshot, SimError> {
        if self.state.auditor.is_some() {
            return Err(SimError::BadInstance {
                what: "snapshot requires AuditLevel::Off (audit state is not captured)".into(),
            });
        }
        let jobs = (0..self.state.jobs.len())
            .map(|i| SnapJob {
                spec: self.state.jobs.specs[i].clone(),
                remaining: self.state.jobs.remaining[i],
                run_key: self.state.jobs.run_key[i],
                class: self.state.jobs.class[i],
                in_running: self.state.jobs.in_running[i],
                done: self.state.jobs.done[i],
            })
            .collect();
        Ok(Snapshot {
            cfg: self.snap_cfg(),
            policy_name: self.state.policy_name.clone(),
            policy_state: self.policy.snapshot_state(),
            incremental: self.state.mode == ExecMode::Incremental,
            now: self.state.now,
            events: self.state.events,
            coalesced: self.state.coalesced,
            finished: self.state.finished,
            alloc_fresh: self.state.alloc_fresh,
            quantum_deadline: self.state.quantum_deadline,
            next_completion: self.state.next_completion,
            next_arrival: self.state.next_arrival,
            profile_count: self.state.profile.count,
            profile_share: self.state.profile.share,
            interval: match self.state.interval {
                IntervalKind::Idle => SnapInterval::Idle,
                IntervalKind::Uniform { rate } => SnapInterval::Uniform { rate },
                IntervalKind::Scan => SnapInterval::Scan,
            },
            frac_flow: self.state.frac_flow.parts(),
            alive_integral: self.state.alive_integral.parts(),
            admitted: self.state.admitted,
            peak_alive: self.state.peak_alive,
            sink: self.state.sink.snapshot_state(),
            jobs,
            class_alpha_bits: self
                .state
                .jobs
                .classes
                .iter()
                .map(|k| k.alpha().to_bits())
                .collect(),
            free: self.state.free.clone(),
            alive: self.state.alive.clone(),
            shares: self.state.shares.clone(),
            rates: self.state.rates.clone(),
            srpt: self.state.srpt.snapshot_state(&self.state.jobs.specs),
            levels: (self.state.mode == ExecMode::Levels)
                .then(|| self.state.levels.snapshot_state(&self.state.jobs.specs)),
            suffix: (self.state.mode == ExecMode::Suffix)
                .then(|| self.state.suffix.snapshot_state(&self.state.jobs.specs)),
            completed: self.state.completed.clone(),
        })
    }

    /// The semantic configuration a snapshot records and restore matches.
    fn snap_cfg(&self) -> SnapCfg {
        SnapCfg {
            m: self.state.cfg.m,
            speed: self.state.cfg.speed,
            full_reassign: self.state.cfg.full_reassign,
            streaming: self.state.cfg.streaming,
        }
    }

    /// Rebuilds the engine's run state from a [`Snapshot`], so subsequent
    /// [`Engine::step`] calls continue the captured run bit-identically.
    ///
    /// The engine must have been constructed over the *same scenario*: a
    /// config whose semantic knobs (`m`, `speed`, path, memory mode)
    /// match the snapshot's, a policy with the same name, auditing off,
    /// and an arrival source that can [`ArrivalSource::fast_forward`] to
    /// the snapshot's admission count and then agrees on the next arrival
    /// time — anything else is a different trajectory, not a resume, and
    /// is refused.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SimError> {
        let bad = |what: String| SimError::BadInstance { what };
        if self.state.auditor.is_some() {
            return Err(bad(
                "restore requires AuditLevel::Off (audit state is not captured)".into(),
            ));
        }
        let have = self.snap_cfg();
        if have.m.to_bits() != snap.cfg.m.to_bits()
            || have.speed.to_bits() != snap.cfg.speed.to_bits()
            || have.full_reassign != snap.cfg.full_reassign
            || have.streaming != snap.cfg.streaming
        {
            return Err(bad(format!(
                "restore config mismatch: engine {have:?} vs snapshot {:?}",
                snap.cfg
            )));
        }
        let snap_mode = if snap.levels.is_some() {
            ExecMode::Levels
        } else if snap.suffix.is_some() {
            ExecMode::Suffix
        } else if snap.incremental {
            ExecMode::Incremental
        } else {
            ExecMode::Exhaustive
        };
        let paths = [
            snap.levels.is_some(),
            snap.suffix.is_some(),
            snap.incremental,
        ];
        if self.state.mode != snap_mode || paths.into_iter().filter(|&p| p).count() > 1 {
            return Err(bad(format!(
                "restore path mismatch: engine is {:?} but the snapshot was taken on the \
                 {snap_mode:?} path (policy stability and observer must match the original run)",
                self.state.mode,
            )));
        }
        if self.state.policy_name != snap.policy_name {
            return Err(bad(format!(
                "restore policy mismatch: engine runs '{}', snapshot was taken under '{}'",
                self.state.policy_name, snap.policy_name
            )));
        }
        // Structural validation up front, so a corrupt document errors
        // instead of corrupting lanes mid-rebuild.
        let n = snap.jobs.len();
        let valid_class = |c: u32| {
            c == CLASS_CURVE || c == CLASS_UNGROUPED || (c as usize) < snap.class_alpha_bits.len()
        };
        if let Some(j) = snap.jobs.iter().find(|j| !valid_class(j.class)) {
            return Err(bad(format!(
                "snapshot job {} references unknown kernel class {}",
                j.spec.id, j.class
            )));
        }
        // Every arena slot must hold what admission would have admitted,
        // and lanes the event loop divides by or orders on must be
        // finite: a non-finite release, weight, or remaining work decodes
        // fine but would poison the run that follows.
        for j in &snap.jobs {
            check_spec(&j.spec)?;
            if !(j.remaining.is_finite() && j.remaining >= 0.0 && j.run_key.is_finite()) {
                return Err(bad(format!(
                    "snapshot job {} has invalid remaining work {} or SRPT key {}",
                    j.spec.id, j.remaining, j.run_key
                )));
            }
        }
        check_run_scalars(snap)?;
        if snap.class_alpha_bits.len() > MAX_CLASSES {
            return Err(bad(format!(
                "snapshot carries {} kernel classes (registry capacity {MAX_CLASSES})",
                snap.class_alpha_bits.len()
            )));
        }
        if let Some(&bits) = snap
            .class_alpha_bits
            .iter()
            .find(|&&b| !(0.0..=1.0).contains(&f64::from_bits(b)))
        {
            return Err(bad(format!(
                "snapshot kernel class α = {} outside [0, 1]",
                f64::from_bits(bits)
            )));
        }
        // The share/rate lanes track `alive` only while the allocation is
        // fresh; after an admission they lag until the next lazy
        // `refresh_allocation` (which clears and resizes them), so a
        // stale-allocation snapshot may legitimately carry shorter lanes.
        if snap.shares.len() != snap.rates.len() {
            return Err(bad("snapshot share/rate lanes disagree in length".into()));
        }
        if snap.alloc_fresh && !snap.incremental && snap.shares.len() != snap.alive.len() {
            return Err(bad(
                "fresh-allocation snapshot share lane disagrees with alive set".into(),
            ));
        }
        if let Some(&idx) = snap
            .alive
            .iter()
            .chain(snap.free.iter())
            .chain(snap.srpt.running.iter().map(|e| &e.idx))
            .chain(snap.srpt.queued.iter().map(|e| &e.idx))
            .chain(snap.suffix.iter().flat_map(|s| s.entries()).map(|e| &e.idx))
            .find(|&&idx| idx >= n)
        {
            return Err(bad(format!(
                "snapshot references arena slot {idx} (arena holds {n})"
            )));
        }
        if let Some(suffix) = &snap.suffix {
            suffix.check().map_err(bad)?;
        }
        // The SRPT set, the level heaps and the arrival suffix break ties
        // by reading each entry's arena spec, so an entry must describe
        // the job its slot holds, bit for bit. Off the exhaustive path the
        // structure is the alive set, so it must also hold every alive
        // slot exactly once: a slot left out would never complete, and
        // one held twice or after its completion would complete again.
        let mut held: Vec<bool> = snap.jobs.iter().map(|j| j.done).collect();
        let suffix_entries = snap
            .suffix
            .iter()
            .flat_map(|s| s.entries())
            .map(|e| ("suffix", e.idx, e.release, e.id, e.size));
        let level_entries = snap
            .levels
            .iter()
            .flat_map(|l| &l.levels)
            .flat_map(|l| &l.entries)
            .map(|e| ("levels", e.idx, e.release, e.id, e.size));
        let set_entries = [
            ("srpt.running", &snap.srpt.running),
            ("srpt.queued", &snap.srpt.queued),
        ]
        .into_iter()
        .flat_map(|(part, entries)| {
            entries
                .iter()
                .map(move |e| (part, e.idx, e.release, e.id, e.size))
        });
        for (part, idx, release, id, size) in set_entries.chain(level_entries).chain(suffix_entries)
        {
            let Some(slot) = snap.jobs.get(idx) else {
                return Err(bad(format!(
                    "snapshot references arena slot {idx} (arena holds {n})"
                )));
            };
            if std::mem::replace(&mut held[idx], true) {
                return Err(bad(format!(
                    "snapshot {part} holds arena slot {idx} twice or after its job completed"
                )));
            }
            let spec = &slot.spec;
            let field = if release.to_bits() != spec.release.to_bits() {
                "release"
            } else if id != spec.id {
                "id"
            } else if size.to_bits() != spec.size.to_bits() {
                "size"
            } else {
                continue;
            };
            return Err(bad(format!(
                "snapshot {part} entry for arena slot {idx} disagrees with the slot's spec on \
                 {field}"
            )));
        }
        if snap_mode != ExecMode::Exhaustive {
            if let Some(idx) = held.iter().position(|&h| !h) {
                return Err(bad(format!(
                    "snapshot {snap_mode:?} state misses alive arena slot {idx}"
                )));
            }
        }
        if let Some(slot) = snap
            .levels
            .iter()
            .flat_map(|l| &l.levels)
            .flat_map(|l| &l.tally)
            .find_map(|t| match t.tag {
                CurveTag::Own(slot) if slot as usize >= n => Some(slot),
                _ => None,
            })
        {
            return Err(bad(format!(
                "snapshot level tally references arena slot {slot} (arena holds {n})"
            )));
        }
        // A suffix group drains its members at one rate, so they must share
        // one curve.
        if let Some(group) = snap.suffix.iter().flat_map(|s| &s.groups).find(|g| {
            let curve = |e: &crate::srpt_set::HeapEntrySnap| &snap.jobs[e.idx].spec.curve;
            g.entries
                .iter()
                .any(|e| !curve(e).same_bits(curve(&g.entries[0])))
        }) {
            return Err(bad(format!(
                "snapshot suffix group of job {} mixes speed-up curves",
                group.entries[0].id
            )));
        }
        if !self.source.fast_forward(snap.admitted) {
            return Err(bad(format!(
                "arrival source cannot fast-forward to {} admitted jobs; restore needs a \
                 replayable source positioned at the suspend point",
                snap.admitted
            )));
        }
        self.policy.reset();
        if !self.policy.restore_state(&snap.policy_state) {
            return Err(bad(format!(
                "policy '{}' rejected its captured state ({} words)",
                self.state.policy_name,
                snap.policy_state.len()
            )));
        }
        self.clear_run_state();
        // `clear_run_state` refreshed `next_arrival` from the
        // fast-forwarded source; it must agree with the capture bit-for-bit
        // or the source replays a different stream than the original run.
        let arrivals_agree = match (self.state.next_arrival, snap.next_arrival) {
            (None, None) => true,
            (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        };
        if !arrivals_agree {
            return Err(bad(format!(
                "arrival stream diverged at restore: source offers {:?}, snapshot expects {:?}",
                self.state.next_arrival, snap.next_arrival
            )));
        }
        // Arena lanes. The kernel lane is reconstructed from each curve;
        // this is bit-identical to the admission-time kernels because
        // construction is deterministic in α (see the `JobArena::classes`
        // invariant). The registry itself is rebuilt from the captured α
        // bit patterns in first-seen order — replaying admissions cannot
        // recover it under streaming slot recycling, where retired slots
        // may have carried classes no resident job mentions.
        for j in &snap.jobs {
            self.state
                .jobs
                .kern
                .push(j.spec.curve.kernel().unwrap_or_else(|| PowKernel::new(1.0)));
            self.state.jobs.specs.push(j.spec.clone());
            self.state.jobs.remaining.push(j.remaining);
            self.state.jobs.run_key.push(j.run_key);
            self.state.jobs.class.push(j.class);
            self.state.jobs.in_running.push(j.in_running);
            self.state.jobs.done.push(j.done);
        }
        for &bits in &snap.class_alpha_bits {
            self.state
                .jobs
                .classes
                .push(PowKernel::new(f64::from_bits(bits)));
            self.state.jobs.class_rates.push(0.0);
        }
        // Id map: every resident slot except (in streaming mode) retired
        // ones, whose ids were forgotten by the original run too. Dense
        // vs. sparse placement may differ from the original insertion
        // history — that is a lookup-performance detail, not observable
        // state.
        for (idx, j) in snap.jobs.iter().enumerate() {
            if self.state.cfg.streaming && j.done {
                continue;
            }
            if self.state.ids.get(j.spec.id).is_some() {
                return Err(bad(format!("snapshot duplicates job id {}", j.spec.id)));
            }
            self.state.ids.insert(j.spec.id, idx);
        }
        self.state.free.extend_from_slice(&snap.free);
        self.state.alive.extend_from_slice(&snap.alive);
        self.state.shares.extend_from_slice(&snap.shares);
        self.state.rates.extend_from_slice(&snap.rates);
        self.state
            .srpt
            .restore_state(&snap.srpt, &self.state.jobs.specs);
        if let Some(levels) = &snap.levels {
            self.state
                .levels
                .restore_state(levels, &self.state.jobs.specs);
        }
        if let Some(suffix) = &snap.suffix {
            self.state
                .suffix
                .restore_state(suffix, &self.state.jobs.specs);
        }
        self.state.profile = PrefixAllocation {
            count: snap.profile_count,
            share: snap.profile_share,
        };
        self.state.interval = match snap.interval {
            SnapInterval::Idle => IntervalKind::Idle,
            SnapInterval::Uniform { rate } => IntervalKind::Uniform { rate },
            SnapInterval::Scan => IntervalKind::Scan,
        };
        self.state.next_completion = snap.next_completion;
        self.state.coalesced = snap.coalesced;
        self.state.now = snap.now;
        self.state.alloc_fresh = snap.alloc_fresh;
        self.state.quantum_deadline = snap.quantum_deadline;
        self.state.events = snap.events;
        self.state.finished = snap.finished;
        self.state.frac_flow = NeumaierSum::from_parts(snap.frac_flow.0, snap.frac_flow.1);
        self.state.alive_integral =
            NeumaierSum::from_parts(snap.alive_integral.0, snap.alive_integral.1);
        if !self.state.sink.restore_state(&snap.sink) {
            return Err(bad(
                "snapshot sketch bucket array has the wrong length".into()
            ));
        }
        self.state.completed.extend(snap.completed.iter().cloned());
        self.state.admitted = snap.admitted;
        self.state.peak_alive = snap.peak_alive;
        // The per-class rate cache is only contractually valid while the
        // interval is Scan; refill it for exactly that case (same call
        // site semantics as the profile refresh that classified it).
        if matches!(self.state.interval, IntervalKind::Scan) {
            self.state
                .jobs
                .refresh_class_rates(self.state.cfg.speed, self.state.profile.share);
        }
        Ok(())
    }

    fn snap_tolerance(size: Work) -> f64 {
        EPS * size.max(1.0)
    }

    /// Completion tolerance for a job that was draining at `rate` with the
    /// clock at `now`: the size-relative snap, widened by the largest work
    /// sliver whose drain time sits below the clock's float resolution.
    /// Such a sliver can never advance the clock (`now + rem/rate == now`
    /// in f64), so without this term the event loop would spin on
    /// zero-length events once `now` grows past ~`EPS / ulp` ≈ 4·10⁶ —
    /// multi-million-job streaming runs reach that within the first few
    /// million completions.
    fn completion_tolerance(size: Work, rate: f64, now: Time) -> f64 {
        let clock_ulp = now.abs().max(1.0) * f64::EPSILON;
        Self::snap_tolerance(size).max(rate * 4.0 * clock_ulp)
    }

    /// Releases all arrivals due at the current time. Returns whether any
    /// arrived. The entry test is inlined so the common non-arrival event
    /// pays one float compare, not a call.
    #[inline]
    fn admit_due<const VALIDATE: bool, const NOTIFY: bool>(&mut self) -> Result<bool, SimError> {
        let due = self.state.next_arrival.is_some_and(|t| {
            t <= self.state.now + crate::source::arrival_tolerance(self.state.now)
        });
        if !due {
            return Ok(false);
        }
        self.admit_core::<VALIDATE, NOTIFY>()
    }

    /// Admission core, monomorphized with the event loop (see
    /// [`Engine::run_loop`]): `VALIDATE` gates the per-spec checks (elided
    /// when the source [`ArrivalSource::pre_validated`]s its stream) and
    /// `NOTIFY` the observer announcement (elided when
    /// [`Observer::is_noop`]).
    ///
    /// Specs are validated, announced to the observer, then *moved* into
    /// the job arena — the seed engine cloned each spec twice here, which
    /// dominated arrival cost for jobs with piecewise curves.
    fn admit_core<const VALIDATE: bool, const NOTIFY: bool>(&mut self) -> Result<bool, SimError> {
        let mut any = false;
        while let Some(t) = self.state.next_arrival {
            if t > self.state.now + crate::source::arrival_tolerance(self.state.now) {
                break;
            }
            let mut batch = std::mem::take(&mut self.state.scratch_batch);
            batch.clear();
            // Adaptive sources get the full alive view, built in the
            // retained view buffer; replay sources declare they don't read
            // it, which keeps arrivals O(batch) on the incremental path
            // (and allocation-free via the reused batch buffer).
            let state = &mut self.state;
            if self.source.needs_system_view() {
                let mut views: Vec<AliveJob<'_>> = std::mem::take(&mut state.views);
                let specs = &state.jobs.specs;
                match state.mode {
                    ExecMode::Exhaustive => {
                        views.extend(state.alive.iter().map(|&i| AliveJob {
                            spec: &specs[i],
                            remaining: state.jobs.remaining[i],
                        }));
                    }
                    ExecMode::Incremental => {
                        views.extend(state.srpt.iter_alive(specs).map(|(i, remaining)| AliveJob {
                            spec: &specs[i],
                            remaining,
                        }));
                    }
                    ExecMode::Levels => state.levels.for_each(|slot, remaining, _| {
                        views.push(AliveJob {
                            spec: &specs[slot.idx],
                            remaining,
                        });
                    }),
                    ExecMode::Suffix => state.suffix.for_each(specs, |slot, remaining, _| {
                        views.push(AliveJob {
                            spec: &specs[slot.idx],
                            remaining,
                        });
                    }),
                }
                let view = SystemView {
                    now: state.now,
                    m: state.cfg.m,
                    alive: &views,
                };
                self.source.emit_into(&view, &mut batch);
                state.views = recycle_views(views);
            } else {
                let view = SystemView {
                    now: state.now,
                    m: state.cfg.m,
                    alive: &[],
                };
                self.source.emit_into(&view, &mut batch);
            }
            // The emission is the only thing that can move the source's
            // clock; refresh the cache once per round, not per query.
            self.state.next_arrival = self.source.next_time();
            if batch.is_empty() {
                self.state.scratch_batch = batch;
                // An empty batch is a decision-only wakeup (used by
                // adaptive adversaries at phase midpoints); the
                // source must still make progress or we'd loop
                // forever.
                let stuck = self
                    .state
                    .next_arrival
                    .is_some_and(|nt| nt <= t + EPS * t.abs().max(1.0));
                if stuck {
                    return Err(SimError::BadInstance {
                        // lint:allow(L007) error construction: a failed admission validation terminates the run
                        what: format!(
                            "source emitted nothing at its next_time {t} and did not advance"
                        ),
                    });
                }
                continue;
            }
            // Validate up front, mirroring `Instance::new`'s invariants —
            // admission is the single validation point, which lets the
            // outcome instance be rebuilt without a second O(n) pass.
            // (Skipped when the source pre-validates: its specs already
            // satisfy exactly these invariants, so the checks cannot fire.)
            for (i, spec) in batch.iter().enumerate().filter(|_| VALIDATE) {
                check_spec(spec)?;
                if spec.release < self.state.now - EPS * self.state.now.max(1.0) {
                    return Err(SimError::ArrivalInPast {
                        now: self.state.now,
                        release: spec.release,
                    });
                }
                if self.state.ids.get(spec.id).is_some()
                    // lint:allow(L007) range slice bounded by the enumeration index i < batch.len()
                    || batch[..i].iter().any(|s| s.id == spec.id)
                {
                    return Err(SimError::BadInstance {
                        // lint:allow(L007) error construction: a failed admission validation terminates the run
                        what: format!("duplicate job id {}", spec.id),
                    });
                }
            }
            if NOTIFY {
                self.observer.on_arrivals(self.state.now, &batch);
            }
            for spec in batch.drain(..) {
                // Streaming mode recycles retired slots so the arena stays
                // O(peak alive). The arena index is *not* part of any
                // ordering key (SRPT orders by `(remaining, release, id)`;
                // the set only looks the tie-break up through the slot,
                // and a slot is free only once its job has left the set),
                // so slot reuse cannot perturb the arithmetic relative to
                // an ever-growing arena.
                let idx = self.state.free.pop().unwrap_or(self.state.jobs.len());
                self.state.ids.insert(spec.id, idx);
                self.state.admitted += 1;
                let remaining = spec.size;
                let (kern, class) = self.state.jobs.classify(spec.curve.kernel());
                // The slot is written before the SRPT insert: the set
                // breaks key ties by reading the new job's spec there.
                let jobs = &mut self.state.jobs;
                if idx == jobs.len() {
                    jobs.specs.push(spec);
                    jobs.remaining.push(remaining);
                    jobs.run_key.push(0.0);
                    jobs.kern.push(kern);
                    jobs.class.push(class);
                    jobs.in_running.push(false);
                    jobs.done.push(false);
                } else {
                    jobs.specs[idx] = spec;
                    jobs.remaining[idx] = remaining;
                    jobs.run_key[idx] = 0.0;
                    jobs.kern[idx] = kern;
                    jobs.class[idx] = class;
                    jobs.in_running[idx] = false;
                    jobs.done[idx] = false;
                }
                // The specialized loop (`NOTIFY` off) only ever runs the
                // incremental path, so it skips the mode dispatch.
                if !NOTIFY || self.state.mode == ExecMode::Incremental {
                    let (specs, mut lanes) = jobs.split_placement();
                    let placement = self.state.srpt.insert(idx, remaining, specs);
                    lanes.apply(idx, placement);
                } else if self.state.mode == ExecMode::Levels {
                    self.state.levels.admit(idx, remaining, &jobs.specs);
                } else if self.state.mode == ExecMode::Suffix {
                    self.state.suffix.insert(idx, remaining, &jobs.specs);
                } else {
                    self.state.alive.push(idx);
                }
            }
            self.state.scratch_batch = batch;
            self.state.peak_alive = self.state.peak_alive.max(self.num_alive());
            any = true;
        }
        if any {
            self.state.alloc_fresh = false;
        }
        Ok(any)
    }

    /// Revalidates the allocation for the interval starting now:
    /// [`Engine::refresh_allocation`] on the exhaustive path,
    /// [`Engine::refresh_levels`] on the level path,
    /// [`Engine::refresh_suffix`] on the arrival-suffix path,
    /// [`Engine::refresh_profile`] on the incremental one. `GENERIC` is
    /// the event loop's instantiation flag; the specialized loop only
    /// ever runs the incremental path, so it skips the mode dispatch.
    #[inline]
    fn refresh<const GENERIC: bool>(&mut self) -> Result<(), SimError> {
        if GENERIC && self.state.mode == ExecMode::Exhaustive {
            self.refresh_allocation()
        } else if GENERIC && self.state.mode == ExecMode::Levels {
            self.refresh_levels()
        } else if GENERIC && self.state.mode == ExecMode::Suffix {
            self.refresh_suffix()
        } else {
            self.refresh_profile()
        }
    }

    /// Arrival-suffix refresh: replays the policy's `(count, share)`
    /// profile from the per-`n` memo ([`Engine::memo_profile`]), restores
    /// the running suffix to the latest `count` arrivals (one demotion or
    /// promotion per arrival or completion), and schedules each curve
    /// group's drain rate `speed·Γ_g(share)` and the earliest group-front
    /// completion. `O(log n)` for the boundary moves plus `O(groups)`.
    /// A group's rate is memoized per `n` like the incremental path's
    /// uniform rate, so a one-curve run evaluates Γ once per distinct
    /// alive count.
    fn refresh_suffix(&mut self) -> Result<(), SimError> {
        self.state.quantum_deadline = None;
        self.state.next_completion = None;
        let n = self.state.suffix.len();
        if n == 0 {
            self.state.alloc_fresh = true;
            return Ok(());
        }
        let (count, share) = self.memo_profile(n)?;
        self.state.profile = PrefixAllocation { count, share };
        let state = &mut self.state;
        state.suffix.rebalance(count, &state.jobs.specs);
        let (now, speed) = (state.now, state.cfg.speed);
        let jobs = &state.jobs;
        let memo = &mut state.profile_cache[n];
        state.next_completion = state.suffix.schedule(now, &jobs.specs, |idx| {
            let class = jobs.class[idx];
            if class < CLASS_UNGROUPED && memo.rate_class == class {
                return memo.rate;
            }
            let rate = speed * jobs.gamma(idx, share);
            if class < CLASS_UNGROUPED {
                memo.rate_class = class;
                memo.rate = rate;
            }
            rate
        });
        state.alloc_fresh = true;
        Ok(())
    }

    /// Level-path refresh: merges the levels tied with the served one,
    /// asks the policy for the served level's common rate and per-curve
    /// shares ([`Policy::equalize_curves`], given its distinct curves and
    /// their counts), validates them as the exhaustive path would, and
    /// schedules the interval: a uniform drain at the served level's
    /// rate, its front completion, and the catch-up with the level below
    /// as the re-decision deadline. `O(distinct curves)` plus the
    /// policy's equalizer, and the amortized merge cost.
    ///
    /// The drain rate is `speed·Γ(share)` of the level's first curve.
    /// The other curves' rates differ from it by rounding only, since
    /// each share is its curve's inverse at the common rate.
    fn refresh_levels(&mut self) -> Result<(), SimError> {
        self.state.quantum_deadline = None;
        self.state.next_completion = None;
        let state = &mut self.state;
        state.levels.settle(&state.jobs.specs);
        let mut curves: Vec<CurveCount<'_>> = std::mem::take(&mut state.level_curves);
        state.levels.top_curves(&state.jobs.specs, &mut curves);
        if curves.is_empty() {
            state.level_curves = recycle_views(curves);
            state.interval = IntervalKind::Idle;
            state.alloc_fresh = true;
            return Ok(());
        }
        let m = state.cfg.m;
        state.level_shares.clear();
        state.level_shares.resize(curves.len(), 0.0);
        let rho = self
            .policy
            .equalize_curves(m, &curves, &mut state.level_shares);
        let mut total = 0.0;
        let mut invalid = None;
        for (c, share) in curves.iter().zip(&mut state.level_shares) {
            if !share.is_finite() || *share < -EPS {
                invalid = Some(*share);
                break;
            }
            *share = share.max(0.0);
            total += c.count as f64 * *share;
        }
        let rate = match (curves.first(), state.level_shares.first()) {
            (Some(c), Some(&share)) => state.cfg.speed * c.curve.rate(share),
            _ => 0.0,
        };
        state.level_curves = recycle_views(curves);
        // A policy that declares the level contract but returns no rate
        // has answered with no valid share.
        let invalid = if rho.is_none() {
            Some(f64::NAN)
        } else {
            invalid
        };
        let checked = if let Some(share) = invalid {
            Err(SimError::InvalidShare {
                at: state.now,
                share,
                policy: self.policy.name(),
            })
        } else if total > m * (1.0 + 1e-9) + EPS {
            Err(SimError::InfeasibleAllocation {
                at: state.now,
                requested: total,
                available: m,
                policy: self.policy.name(),
            })
        } else {
            Ok(())
        };
        checked?;
        if rate > 0.0 {
            if let Some((_, rem)) = state.levels.front() {
                state.next_completion = Some(state.now + rem / rate);
            }
            if let Some(gap) = state.levels.catch_up_gap() {
                state.quantum_deadline = Some(state.now + gap.max(0.0) / rate);
            }
        }
        state.interval = IntervalKind::Uniform { rate };
        state.alloc_fresh = true;
        Ok(())
    }

    /// Incremental-path allocation refresh: applies the policy's prefix
    /// profile, rebalances the running/queued partition, and classifies the
    /// upcoming interval's drain shape. `O(log n)` plus `O(moved)` for the
    /// partition moves (amortized `O(1)` moves per event for the θ = 1
    /// family; threshold crossings can move a batch, which the rebalance
    /// handles in bulk).
    ///
    /// The validated `(count, share)` pair is replayed from the per-`n`
    /// memo: the [`PrefixAllocation`] contract makes the profile a pure
    /// function of `(n_alive, m)` with `m` fixed per run, and the
    /// clamping/feasibility pipeline applied to it is deterministic, so
    /// caching the *validated* result is exact. A memo miss (the first
    /// time this alive count is seen) queries the policy, validates the
    /// answer, and fills the slot, so the policy is asked at most once per
    /// distinct alive count per run. Uniform-interval rates are likewise
    /// memoized per `(n, kernel class)`: same class ⇒ bit-identical
    /// kernel ⇒ bit-identical `speed·Γ_c(share)`.
    #[inline]
    fn refresh_profile(&mut self) -> Result<(), SimError> {
        self.state.quantum_deadline = None;
        self.state.next_completion = None;
        let n = self.state.srpt.len();
        if n == 0 {
            self.state.interval = IntervalKind::Idle;
            self.state.alloc_fresh = true;
            return Ok(());
        }
        let (count, share) = self.memo_profile(n)?;
        self.state.profile = PrefixAllocation { count, share };
        let (specs, mut lanes) = self.state.jobs.split_placement();
        self.state
            .srpt
            .maybe_rebase(specs, |idx, p| lanes.apply(idx, p));
        self.state
            .srpt
            .rebalance(count, specs, |idx, p| lanes.apply(idx, p));
        // Classify the interval. Uniform (O(1) drain) whenever every
        // running job provably drains at one common rate: a single runner,
        // identical curves, or share 1 with Γ(1) = 1 across the prefix.
        let share_is_unit = (share - 1.0).abs() <= 1e-12;
        let unit_rate = share_is_unit && self.state.srpt.unit_rate_at_one();
        let uniform =
            self.state.srpt.running_len() <= 1 || self.state.srpt.uniform_curves() || unit_rate;
        if uniform {
            let rate = match self.state.srpt.front_running() {
                Some((slot, rem)) => {
                    // Γ(1) = 1 across the prefix ⇒ rate is the bare speed;
                    // skip the curve evaluation in the overload steady
                    // state.
                    let rate = if unit_rate {
                        self.state.cfg.speed
                    } else {
                        let class = self.state.jobs.class[slot.idx];
                        let memo = self.state.profile_cache[n];
                        if class < CLASS_UNGROUPED && memo.rate_class == class {
                            memo.rate
                        } else {
                            let r = self.state.cfg.speed * self.state.jobs.gamma(slot.idx, share);
                            if class < CLASS_UNGROUPED {
                                self.state.profile_cache[n].rate_class = class;
                                self.state.profile_cache[n].rate = r;
                            }
                            r
                        }
                    };
                    if rate > 0.0 {
                        // Invariant under uniform drain, so it doubles as
                        // the completion candidate for this interval.
                        self.state.next_completion = Some(self.state.now + rem / rate);
                    }
                    rate
                }
                None => 0.0,
            };
            self.state.interval = IntervalKind::Uniform { rate };
        } else {
            // Scan interval: one Γ evaluation per kernel *class*, then a
            // contiguous walk over the prefix through the per-class rate
            // cache (no per-job pointer chase, no per-job powf).
            self.state
                .jobs
                .refresh_class_rates(self.state.cfg.speed, share);
            let mut next: Option<Time> = None;
            let jobs = &self.state.jobs;
            let now = self.state.now;
            let speed = self.state.cfg.speed;
            self.state
                .srpt
                .for_each_running_ordered(&jobs.specs, |slot, rem| {
                    let rate = jobs.rate_cached(slot.idx, speed, share);
                    if rate > 0.0 {
                        let t = now + rem / rate;
                        if next.is_none_or(|n| t < n) {
                            next = Some(t);
                        }
                    }
                });
            self.state.interval = IntervalKind::Scan;
            self.state.next_completion = next;
        }
        self.state.alloc_fresh = true;
        Ok(())
    }

    /// The validated `(count, share)` profile for `n` alive jobs, replayed
    /// from the per-`n` memo; the first time an alive count is seen,
    /// [`Engine::memo_miss`] fills its slot.
    #[inline(always)]
    fn memo_profile(&mut self, n: usize) -> Result<(usize, f64), SimError> {
        match self.state.profile_cache.get(n) {
            Some(memo) if memo.count != u32::MAX => Ok((memo.count as usize, memo.share)),
            _ => self.memo_miss(n),
        }
    }

    /// A memo miss of [`Engine::memo_profile`]: queries
    /// [`Policy::prefix_allocation`], applies the exhaustive path's
    /// feasibility checks (same error taxonomy, `O(1)` instead of `O(n)`),
    /// and fills the slot, so the policy is asked at most once per
    /// distinct alive count per run. Out of line, so the event loop's
    /// refreshes carry only the replay.
    #[cold]
    #[inline(never)]
    fn memo_miss(&mut self, n: usize) -> Result<(usize, f64), SimError> {
        if self.state.profile_cache.len() <= n {
            self.state.profile_cache.resize(n + 1, CachedProfile::EMPTY);
        }
        let Some(profile) = self.policy.prefix_allocation(n, self.state.cfg.m) else {
            return Err(SimError::BadInstance {
                // lint:allow(L007) error construction: an infeasible profile terminates the run
                what: format!(
                    "policy {} declares {:?} stability but returned no prefix profile for n = {n}",
                    self.policy.name(),
                    self.policy.stability()
                ),
            });
        };
        // Mirror the exhaustive path's feasibility checks (same error
        // taxonomy, O(1) instead of O(n)).
        if !profile.share.is_finite() || profile.share < -EPS {
            return Err(SimError::InvalidShare {
                at: self.state.now,
                share: profile.share,
                policy: self.policy.name(),
            });
        }
        let count = profile.count.clamp(1, n);
        let share = profile.share.max(0.0);
        let total = count as f64 * share;
        if total > self.state.cfg.m * (1.0 + 1e-9) + EPS {
            return Err(SimError::InfeasibleAllocation {
                at: self.state.now,
                requested: total,
                available: self.state.cfg.m,
                policy: self.policy.name(),
            });
        }
        // lint:allow(L005, L007) count ≤ n ≤ the u32 arena-slot envelope the IdMap already enforces
        let count_u32 = u32::try_from(count).expect("alive count exceeds u32");
        self.state.profile_cache[n] = CachedProfile {
            count: count_u32,
            rate_class: CLASS_CURVE,
            share,
            rate: 0.0,
        };
        Ok((count, share))
    }

    /// Exhaustive-path refresh: runs the policy on a view of the alive set,
    /// then makes one sweep over its answer that validates and clamps each
    /// share, sets the job's drain rate, and folds the completion
    /// candidate that [`Engine::decide`] reuses.
    ///
    /// The sweep is exact with respect to separate validation, rate, and
    /// candidate passes: an invalid share still reports the first
    /// offender in alive order, the total is summed in the same order and
    /// checked after the sweep, and a failed check ends the run, so rates
    /// written before it are never observed. The candidate folds the same
    /// `now + remaining/rate` terms in the same order with the same strict
    /// `<` as `decide`'s sweep.
    fn refresh_allocation(&mut self) -> Result<(), SimError> {
        let n = self.state.alive.len();
        self.state.shares.clear();
        self.state.shares.resize(n, 0.0);
        self.state.rates.clear();
        self.state.rates.resize(n, 0.0);
        self.state.quantum_deadline = None;
        self.state.completion_candidate = None;
        if n == 0 {
            self.state.completion_candidate = Some(None);
            self.state.alloc_fresh = true;
            return Ok(());
        }
        let state = &mut self.state;
        let mut views: Vec<AliveJob<'_>> = std::mem::take(&mut state.views);
        let specs = &state.jobs.specs;
        views.extend(state.alive.iter().map(|&i| AliveJob {
            spec: &specs[i],
            remaining: state.jobs.remaining[i],
        }));
        let quantum = self
            .policy
            .assign(state.now, state.cfg.m, &views, &mut state.shares);
        let now = state.now;
        let speed = state.cfg.speed;
        let mut total = 0.0;
        let mut next: Option<Time> = None;
        let mut invalid = None;
        for (i, &idx) in state.alive.iter().enumerate() {
            let s = state.shares[i];
            if !s.is_finite() || s < -EPS {
                invalid = Some(s);
                break;
            }
            total += s.max(0.0);
            let share = s.max(0.0);
            state.shares[i] = share;
            let rate = speed * state.jobs.gamma(idx, share);
            state.rates[i] = rate;
            if rate > 0.0 {
                fold_earliest(&mut next, now + state.jobs.remaining[idx] / rate);
            }
        }
        let checked = if let Some(share) = invalid {
            Err(SimError::InvalidShare {
                at: now,
                share,
                policy: self.policy.name(),
            })
        } else if total > state.cfg.m * (1.0 + 1e-9) + EPS {
            Err(SimError::InfeasibleAllocation {
                at: now,
                requested: total,
                available: state.cfg.m,
                policy: self.policy.name(),
            })
        } else {
            self.observer.on_allocation(now, &views, &state.shares);
            Ok(())
        };
        state.views = recycle_views(views);
        checked?;
        if let Some(q) = quantum {
            // A least-elapsed policy's quantum is elapsed work at unit
            // speed (see `AllocationStability::LeastElapsed`).
            let q = if self.policy.stability() == AllocationStability::LeastElapsed {
                q / speed
            } else {
                q
            };
            if q.is_finite() && q > 0.0 {
                state.quantum_deadline = Some(now + q);
            }
        }
        state.completion_candidate = Some(next);
        state.alloc_fresh = true;
        Ok(())
    }

    /// The exhaustive path's completion candidate for the current
    /// allocation: the refresh's fold while the clock has not moved since,
    /// otherwise the same fold swept again (and cached until the next
    /// advance).
    fn exhaustive_candidate(&mut self) -> Option<Time> {
        if let Some(candidate) = self.state.completion_candidate {
            return candidate;
        }
        let now = self.state.now;
        let mut next: Option<Time> = None;
        for (&idx, &rate) in self.state.alive.iter().zip(&self.state.rates) {
            if rate > 0.0 {
                fold_earliest(&mut next, now + self.state.jobs.remaining[idx] / rate);
            }
        }
        self.state.completion_candidate = Some(next);
        next
    }

    /// The next time at which anything happens (completion, arrival, or
    /// quantum expiry), or `None` when the run is over. Admits the
    /// arrivals due now and refreshes a stale allocation first, so the
    /// engine is at an event boundary with a fresh allocation afterwards.
    /// With [`Engine::advance_to`] this exposes [`Engine::step`]'s phases
    /// (minus its audit frame and event-budget charge) to drivers that
    /// advance several engines in lockstep.
    pub fn next_event_time(&mut self) -> Result<Option<Time>, SimError> {
        if self.state.finished {
            return Ok(None);
        }
        hp_phase!(self, queue_ns, self.admit_due::<true, true>())?;
        self.decide::<true>()
    }

    /// Advances the clock to `t` (which must not exceed the next event
    /// time), integrating metrics and processing completions and arrivals
    /// that fall exactly at `t`.
    pub fn advance_to(&mut self, t: Time) -> Result<(), SimError> {
        if !self.state.alloc_fresh {
            hp_phase!(self, refresh_ns, self.refresh::<true>())?;
        }
        self.advance::<true, true>(t)
    }

    /// Event-loop phase 1: refreshes a stale allocation and selects the
    /// next event time — the interval's completion candidate (or, on the
    /// exhaustive path, every job's), the cached next arrival, and the
    /// quantum deadline, in that order, the earliest winning and the
    /// first of equals kept. `None` ends the run when nothing is alive
    /// and is a stall otherwise.
    #[inline]
    fn decide<const GENERIC: bool>(&mut self) -> Result<Option<Time>, SimError> {
        if !self.state.alloc_fresh {
            hp_phase!(self, refresh_ns, self.refresh::<GENERIC>())?;
        }
        let next = hp_phase!(self, queue_ns, {
            let now = self.state.now;
            let mut next = if GENERIC && self.state.mode == ExecMode::Exhaustive {
                self.exhaustive_candidate()
            } else {
                self.state.next_completion.map(|t| t.max(now))
            };
            let mut consider = |t: Time| fold_earliest(&mut next, t);
            if let Some(t) = self.state.next_arrival {
                consider(t.max(now));
            }
            // Only the exhaustive path schedules quanta.
            if let Some(t) = self.state.quantum_deadline.filter(|_| GENERIC) {
                consider(t.max(now));
            }
            next
        });
        if next.is_none() {
            if self.num_alive() > 0 {
                return Err(SimError::Stalled {
                    at: self.state.now,
                    alive: self.num_alive(),
                });
            }
            self.state.finished = true;
        }
        Ok(next)
    }

    /// Event-loop phase 2: charges one event against the event budget.
    #[inline]
    fn charge_event(&mut self) -> Result<(), SimError> {
        self.state.events += 1;
        if self.state.events > self.state.cfg.max_events {
            return Err(SimError::EventLimit {
                limit: self.state.cfg.max_events,
            });
        }
        #[cfg(feature = "hotpath")]
        if self.state.cfg.hotpath_profile {
            self.state.hotpath.events += 1;
        }
        Ok(())
    }

    /// Event-loop phase 3: integrates the interval up to `t`, then
    /// processes the completions and arrivals that fall exactly at `t`.
    /// The allocation must be fresh.
    #[inline]
    fn advance<const VALIDATE: bool, const GENERIC: bool>(
        &mut self,
        t: Time,
    ) -> Result<(), SimError> {
        debug_assert!(
            t >= self.state.now - EPS * self.state.now.max(1.0),
            "time went backwards"
        );
        let exhaustive = GENERIC && self.state.mode == ExecMode::Exhaustive;
        let levels = GENERIC && self.state.mode == ExecMode::Levels;
        let suffix = GENERIC && self.state.mode == ExecMode::Suffix;
        if exhaustive {
            self.state.completion_candidate = None;
        }
        let dt = (t - self.state.now).max(0.0);
        // Whether a job may complete at `t`: the exhaustive integration
        // evaluates the completion predicate as it drains; a zero-length
        // advance has no such answer and sweeps.
        let mut any_due = true;
        if dt > 0.0 {
            if exhaustive {
                any_due = hp_phase!(self, metrics_ns, self.integrate_exhaustive(dt, t));
            } else if levels {
                hp_phase!(self, metrics_ns, self.integrate_levels(dt));
            } else if suffix {
                hp_phase!(self, metrics_ns, self.integrate_suffix(dt));
            } else {
                hp_phase!(self, metrics_ns, self.integrate_incremental(dt));
            }
            if GENERIC {
                self.observer.on_advance(self.state.now, t);
            }
            self.state.now = t;
        } else {
            self.state.now = self.state.now.max(t);
        }
        debug_assert!(
            !exhaustive || any_due || !(0..self.state.alive.len()).any(|i| self.completion_due(i)),
            "the integration found no completion due, but the completion sweep would"
        );
        let completed_any = hp_phase!(self, dispatch_ns, {
            let completed_any = if exhaustive {
                any_due && self.collect_completions_exhaustive()
            } else if levels {
                self.collect_completions_levels()
            } else if suffix {
                self.collect_completions_suffix()
            } else {
                self.collect_completions_incremental::<GENERIC>()
            };
            if completed_any {
                self.state.alloc_fresh = false;
            }
            completed_any
        });
        // Quantum expiry forces a re-decision. On the level path the
        // deadline is the served level's catch-up with the level below,
        // which merges the two here, before this instant's arrivals stack
        // new levels on top.
        if let Some(q) = self.state.quantum_deadline.filter(|_| GENERIC) {
            if self.state.now + EPS * self.state.now.max(1.0) >= q {
                self.state.alloc_fresh = false;
                if levels {
                    self.state.quantum_deadline = None;
                    self.state.levels.catch_up(&self.state.jobs.specs);
                }
            }
        }
        // Arrivals due exactly now. A completion and an arrival landing
        // on one timestamp are processed inside this single call — one
        // event, one step — which is the first-class same-timestamp
        // coalescing documented in `docs/PERF.md` §4; count it so tests
        // can pin the behavior instead of inferring it from event totals.
        let arrived = hp_phase!(self, queue_ns, self.admit_due::<VALIDATE, GENERIC>())?;
        if completed_any && arrived {
            self.state.coalesced += 1;
        }
        Ok(())
    }

    /// Exhaustive-path interval integration up to `t = now + dt`: per-job
    /// linear drain. Returns whether any job now meets the completion
    /// predicate at `t` — the one [`Engine::collect_completions_exhaustive`]
    /// applies to the same remaining work, size, and rate — so the
    /// completion sweep can be skipped when none does.
    fn integrate_exhaustive(&mut self, dt: f64, t: Time) -> bool {
        self.state
            .alive_integral
            .add(self.state.alive.len() as f64 * dt);
        let mut any_due = false;
        for (&idx, &rate) in self.state.alive.iter().zip(&self.state.rates) {
            let rem = self.state.jobs.remaining[idx];
            let size = self.state.jobs.specs[idx].size;
            let drained = rate * dt;
            // Fractional flow: ∫ p_j(τ)/p_j dτ over [now, t], exact for
            // the linear drain.
            self.state
                .frac_flow
                .add((rem - drained / 2.0).max(0.0) * dt / size);
            let left = (rem - drained).max(0.0);
            self.state.jobs.remaining[idx] = left;
            any_due |= left <= Self::completion_tolerance(size, rate, t);
        }
        any_due
    }

    /// Incremental-path interval integration. Uniform intervals are O(1):
    /// the drain offset bumps once and fractional flow comes from the
    /// set's maintained sums in closed form — with `D₀` the offset at the
    /// interval start and rate `r`,
    /// `∫ Σ p_j(τ)/p_j dτ = (Σkey_j/p_j − D₀·Σ1/p_j)·dt − (r·dt²/2)·Σ1/p_j`
    /// over the running prefix, plus `dt·Σ rem_j/p_j` over the (static)
    /// queue. Scan intervals fall back to per-job integration over the
    /// prefix only.
    #[inline]
    fn integrate_incremental(&mut self, dt: f64) {
        self.state
            .alive_integral
            .add(self.state.srpt.len() as f64 * dt);
        match self.state.interval {
            IntervalKind::Idle => {}
            IntervalKind::Uniform { rate } => {
                let s1 = self.state.srpt.running_inv_size_sum();
                let run = (self.state.srpt.running_key_frac_sum()
                    - self.state.srpt.drain_offset() * s1)
                    * dt
                    - rate * dt * dt / 2.0 * s1;
                self.state
                    .frac_flow
                    .add(run.max(0.0) + self.state.srpt.queued_frac_sum() * dt);
                self.state.srpt.advance_uniform(rate * dt);
            }
            IntervalKind::Scan => {
                let share = self.state.profile.share;
                let speed = self.state.cfg.speed;
                // The per-class rate cache is valid for this (speed, share)
                // whenever the interval is Scan (refilled by the profile
                // refresh that classified it).
                let mut run = 0.0;
                {
                    let jobs = &self.state.jobs;
                    self.state
                        .srpt
                        .for_each_running_ordered(&jobs.specs, |slot, rem| {
                            let rate = jobs.rate_cached(slot.idx, speed, share);
                            run += (rem - rate * dt / 2.0).max(0.0) / slot.size;
                        });
                }
                self.state
                    .frac_flow
                    .add((run + self.state.srpt.queued_frac_sum()) * dt);
                let mut moves = std::mem::take(&mut self.state.scratch_moves);
                moves.clear();
                {
                    let jobs = &self.state.jobs;
                    self.state.srpt.drain_scan(
                        dt,
                        &jobs.specs,
                        |idx| jobs.rate_cached(idx, speed, share),
                        // lint:allow(L007) pushes into scratch_moves taken via mem::take; donated capacity is retained across events
                        |idx, p| moves.push((idx, p)),
                    );
                }
                let (_, mut lanes) = self.state.jobs.split_placement();
                for &(idx, p) in &moves {
                    lanes.apply(idx, p);
                }
                self.state.scratch_moves = moves;
                // The scan may have reordered the prefix; re-classify
                // before the next interval.
                self.state.alloc_fresh = false;
            }
        }
    }

    /// Level-path interval integration, `O(1)`: the served level drains
    /// uniformly, so its fractional flow has the same closed form as the
    /// SRPT set's uniform prefix (with the level's offset and sums), and
    /// the frozen levels contribute their static sum times `dt`.
    fn integrate_levels(&mut self, dt: f64) {
        self.state
            .alive_integral
            .add(self.state.levels.len() as f64 * dt);
        if let IntervalKind::Uniform { rate } = self.state.interval {
            let (s1, sk, drain) = self.state.levels.served_sums();
            let run = (sk - drain * s1) * dt - rate * dt * dt / 2.0 * s1;
            self.state
                .frac_flow
                .add(run.max(0.0) + self.state.levels.frozen_frac_sum() * dt);
            self.state.levels.advance(rate * dt);
        }
    }

    /// Arrival-suffix interval integration, `O(groups)`: each curve group
    /// of the running suffix drains uniformly at its own rate, so its
    /// fractional flow has the SRPT set's closed form, and the waiting
    /// jobs contribute their static sum times `dt`.
    fn integrate_suffix(&mut self, dt: f64) {
        self.state
            .alive_integral
            .add(self.state.suffix.len() as f64 * dt);
        let frac = self.state.suffix.integrate(dt);
        self.state.frac_flow.add(frac);
    }

    /// Arrival-suffix completions: only running jobs drain, and a group's
    /// members drain at one rate, so only a group's front can be due — pop
    /// fronts while one is.
    fn collect_completions_suffix(&mut self) -> bool {
        let now = self.state.now;
        let mut completed_any = false;
        while let Some(slot) = self
            .state
            .suffix
            .pop_due(&self.state.jobs.specs, |slot, rem, rate| {
                rem <= Self::completion_tolerance(slot.size, rate, now)
            })
        {
            self.finish_job::<true>(slot.idx);
            completed_any = true;
        }
        completed_any
    }

    /// Level-path completions: only the served level drains, and its
    /// members drain at one rate, so only the front of its heap can be
    /// due — pop while it is. A frozen job cannot be due: it was not due
    /// when its level froze, under a tolerance at least as wide. When the
    /// served level empties, the level below it was frozen all interval:
    /// stop there, and drop the catch-up deadline, which the emptied
    /// level owned.
    fn collect_completions_levels(&mut self) -> bool {
        let rate = match self.state.interval {
            IntervalKind::Uniform { rate } => rate,
            IntervalKind::Scan | IntervalKind::Idle => 0.0,
        };
        let depth = self.state.levels.depth();
        let mut completed_any = false;
        while let Some((slot, rem)) = self.state.levels.front() {
            if rem > Self::completion_tolerance(slot.size, rate, self.state.now) {
                break;
            }
            self.state.levels.pop_front(&self.state.jobs.specs);
            self.finish_job::<true>(slot.idx);
            completed_any = true;
            if self.state.levels.depth() < depth {
                self.state.quantum_deadline = None;
                break;
            }
        }
        completed_any
    }

    /// Records a completion at the current time into the aggregate sink
    /// (both modes) and the completion list (in-memory mode), then retires
    /// the arena slot (streaming mode). Callers have already detached the
    /// job from their alive structure. `NOTIFY` gates the observer
    /// callback (elided by the specialized loop, whose eligibility
    /// requires [`Observer::is_noop`]).
    fn finish_job<const NOTIFY: bool>(&mut self, idx: usize) {
        self.state.jobs.remaining[idx] = 0.0;
        self.state.jobs.in_running[idx] = false;
        self.state.jobs.done[idx] = true;
        let spec = &self.state.jobs.specs[idx];
        self.state
            .sink
            .record(spec.release, spec.size, self.state.now, spec.weight);
        if !self.state.cfg.streaming {
            self.state.completed.push(CompletedJob {
                id: spec.id,
                release: spec.release,
                size: spec.size,
                completion: self.state.now,
                weight: spec.weight,
            });
        }
        if NOTIFY {
            self.observer
                .on_completion(self.state.now, &self.state.jobs.specs[idx]);
        }
        if self.state.cfg.streaming {
            // Retire the slot: forget the id and hand the arena index to
            // the next arrival. The spec stays in place (inert) until
            // overwritten — nothing reads `done` slots.
            self.state.ids.remove(self.state.jobs.specs[idx].id);
            self.state.free.push(idx);
        }
    }

    /// The exhaustive path's completion predicate for `alive[i]` at the
    /// current clock.
    fn completion_due(&self, i: usize) -> bool {
        let idx = self.state.alive[i];
        let size = self.state.jobs.specs[idx].size;
        self.state.jobs.remaining[idx]
            <= Self::completion_tolerance(size, self.state.rates[i], self.state.now)
    }

    /// Exhaustive-path completion sweep over the whole alive set.
    fn collect_completions_exhaustive(&mut self) -> bool {
        let mut completed_any = false;
        let mut i = 0;
        while i < self.state.alive.len() {
            if self.completion_due(i) {
                let idx = self.state.alive[i];
                self.state.alive.swap_remove(i);
                // Keep the parallel share/rate vectors aligned with `alive`
                // for the rest of this sweep (they are rebuilt on the next
                // refresh either way).
                self.state.rates.swap_remove(i);
                self.state.shares.swap_remove(i);
                self.finish_job::<true>(idx);
                completed_any = true;
            } else {
                i += 1;
            }
        }
        completed_any
    }

    /// Incremental-path completions: only the *front* of the running prefix
    /// can finish (SRPT order), so this pops while the front is within
    /// tolerance — O(log n) per completion, no sweep. `NOTIFY` as in
    /// [`Engine::finish_job`].
    #[inline]
    fn collect_completions_incremental<const NOTIFY: bool>(&mut self) -> bool {
        let mut completed_any = false;
        while let Some((slot, rem)) = self.state.srpt.front_running() {
            let rate = match self.state.interval {
                IntervalKind::Uniform { rate } => rate,
                IntervalKind::Scan => self.state.jobs.rate_cached(
                    slot.idx,
                    self.state.cfg.speed,
                    self.state.profile.share,
                ),
                IntervalKind::Idle => 0.0,
            };
            if rem > Self::completion_tolerance(slot.size, rate, self.state.now) {
                break;
            }
            let idx = slot.idx;
            self.state.srpt.pop_front_running(&self.state.jobs.specs);
            self.finish_job::<NOTIFY>(idx);
            completed_any = true;
        }
        completed_any
    }

    /// Builds an audit snapshot of the alive set with the allocation
    /// decided for the interval starting now, refilling the policy string
    /// and job vector the auditor lent back ([`Auditor::take_spare`]).
    /// Only valid while the allocation is fresh (callers capture right
    /// after [`Engine::next_event_time`]).
    fn build_audit_frame(&mut self, (mut policy, mut jobs): (String, Vec<FrameJob>)) -> AuditFrame {
        policy.push_str(&self.state.policy_name);
        let state = &mut self.state;
        match state.mode {
            ExecMode::Exhaustive => {
                for (i, &idx) in state.alive.iter().enumerate() {
                    let spec = &state.jobs.specs[idx];
                    jobs.push(FrameJob {
                        id: spec.id,
                        slot: idx,
                        release: spec.release,
                        size: spec.size,
                        remaining: state.jobs.remaining[idx],
                        share: state.shares[i],
                        rate: state.rates[i],
                    });
                }
            }
            ExecMode::Incremental => {
                let share = state.profile.share;
                let speed = state.cfg.speed;
                let arena = &state.jobs;
                state
                    .srpt
                    .for_each_running_ordered(&arena.specs, |slot, remaining| {
                        let spec = &arena.specs[slot.idx];
                        jobs.push(FrameJob {
                            id: spec.id,
                            slot: slot.idx,
                            release: spec.release,
                            size: spec.size,
                            remaining,
                            share,
                            rate: speed * arena.gamma(slot.idx, share),
                        });
                    });
                state
                    .srpt
                    .for_each_queued_ordered(&arena.specs, |slot, remaining| {
                        let spec = &arena.specs[slot.idx];
                        jobs.push(FrameJob {
                            id: spec.id,
                            slot: slot.idx,
                            release: spec.release,
                            size: spec.size,
                            remaining,
                            share: 0.0,
                            rate: 0.0,
                        });
                    });
            }
            ExecMode::Levels => {
                let state = &*state;
                let rate = match state.interval {
                    IntervalKind::Uniform { rate } => rate,
                    IntervalKind::Scan | IntervalKind::Idle => 0.0,
                };
                let specs = &state.jobs.specs;
                state.levels.for_each(|slot, remaining, served| {
                    let spec = &specs[slot.idx];
                    let (share, rate) = if served {
                        let share = state
                            .levels
                            .top_curve_of(slot.idx, &spec.curve)
                            .and_then(|c| state.level_shares.get(c))
                            .copied()
                            .unwrap_or(0.0);
                        (share, rate)
                    } else {
                        (0.0, 0.0)
                    };
                    jobs.push(FrameJob {
                        id: spec.id,
                        slot: slot.idx,
                        release: spec.release,
                        size: spec.size,
                        remaining,
                        share,
                        rate,
                    });
                });
            }
            ExecMode::Suffix => {
                let state = &*state;
                let specs = &state.jobs.specs;
                state.suffix.for_each(specs, |slot, remaining, running| {
                    let spec = &specs[slot.idx];
                    let (share, rate) = if running {
                        (state.profile.share, state.suffix.rate_of(slot.idx))
                    } else {
                        (0.0, 0.0)
                    };
                    jobs.push(FrameJob {
                        id: spec.id,
                        slot: slot.idx,
                        release: spec.release,
                        size: spec.size,
                        remaining,
                        share,
                        rate,
                    });
                });
            }
        }
        AuditFrame {
            event: state.events,
            t: state.now,
            m: state.cfg.m,
            path: self.path(),
            policy,
            jobs,
            // The incremental path iterates its maintained SRPT order
            // (running prefix, then queue); the exhaustive alive vector is
            // reordered by swap_remove and promises nothing.
            srpt_ordered_iteration: self.state.mode == ExecMode::Incremental,
            srpt_ordered_policy: self.state.policy_srpt_ordered,
            latest_arrivals_policy: self.policy.stability() == AllocationStability::LatestArrivals,
        }
    }

    /// Processes one event. Returns `false` when the run is complete.
    ///
    /// One iteration of the all-checks instantiation of the event loop
    /// (see [`Engine::run_loop`]): it validates admissions, notifies the
    /// observer, serves every execution path, and feeds the auditor.
    pub fn step(&mut self) -> Result<bool, SimError> {
        self.run_events::<true, true>(true)
    }

    /// Drives the run to completion without finalizing. All four `run*`
    /// finalizers route through here; it is public so external drivers
    /// (benchmarks, the allocation audit) can execute the exact finalizer
    /// loop and then inspect the engine before materializing an outcome.
    ///
    /// There is one event loop, the private `Engine::run_events`, monomorphized
    /// over what the run is known to need. A run on the incremental path
    /// with auditing off and a no-op observer ([`Observer::is_noop`])
    /// takes the specialized instantiation: no mode dispatch, no audit
    /// frames, no observer calls, no quantum bookkeeping, and — when the
    /// source is [`ArrivalSource::pre_validated`] — no admission
    /// re-validation. Every other run takes the all-checks
    /// instantiation that [`Engine::step`] iterates. The instantiations
    /// differ in dispatch and bookkeeping, not arithmetic, so a run is
    /// bit-identical either way, which
    /// `tests/engine_fastpath_differential.rs` pins policy by policy.
    pub fn run_loop(&mut self) -> Result<(), SimError> {
        let specialized = self.state.mode == ExecMode::Incremental
            && self.state.auditor.is_none()
            && self.observer.is_noop();
        if !specialized {
            return self.run_events::<true, true>(false).map(drop);
        }
        if self.source.pre_validated() {
            self.run_events::<false, false>(false).map(drop)
        } else {
            self.run_events::<true, false>(false).map(drop)
        }
    }

    /// The event loop: leading admission, then per event
    /// [`Engine::decide`], the audit frame, [`Engine::charge_event`], and
    /// [`Engine::advance`]. Runs one event when `once`, else until the run
    /// ends; returns `false` once the run is over.
    ///
    /// `VALIDATE` re-checks admitted specs and `GENERIC` serves the
    /// exhaustive, level and arrival-suffix paths, the observer, and the
    /// auditor; with `GENERIC` off
    /// the run must be on the incremental path, unaudited, and unobserved
    /// (see [`Engine::run_loop`]).
    #[inline]
    fn run_events<const VALIDATE: bool, const GENERIC: bool>(
        &mut self,
        once: bool,
    ) -> Result<bool, SimError> {
        if self.state.finished {
            return Ok(false);
        }
        // Arrivals due now: the ones at the first event's time before the
        // first step. Every event ends by admitting what is due at its
        // time, and nothing moves the clock in between, so from then on
        // this is a no-op.
        hp_phase!(self, queue_ns, self.admit_due::<VALIDATE, GENERIC>())?;
        loop {
            let Some(t) = self.decide::<GENERIC>()? else {
                return Ok(false);
            };
            if GENERIC {
                self.audit_event()?;
            }
            self.charge_event()?;
            self.advance::<VALIDATE, GENERIC>(t)?;
            if once {
                return Ok(true);
            }
        }
    }

    /// Audit hook: at this point the allocation is fresh and constant over
    /// the coming interval, so the frame captures exactly what the engine
    /// is about to execute.
    fn audit_event(&mut self) -> Result<(), SimError> {
        let Some(mut aud) = self.state.auditor.take() else {
            return Ok(());
        };
        let checked = if aud.wants_frame(self.state.events) {
            let frame = self.build_audit_frame(aud.take_spare());
            aud.check_frame(frame)
        } else {
            Ok(())
        };
        self.state.auditor = Some(aud);
        checked
    }

    /// Runs to completion and returns the outcome. Streaming runs must use
    /// [`Engine::run_streaming`] instead — a `RunOutcome` materializes the
    /// full completion list and instance, defeating the memory bound.
    pub fn run(mut self) -> Result<RunOutcome, SimError> {
        if self.state.cfg.streaming {
            return Err(SimError::BadInstance {
                what: "streaming engines produce a StreamingOutcome; \
                       call run_streaming() instead of run()"
                    .into(),
            });
        }
        self.run_loop()?;
        self.into_outcome()
    }

    /// Like [`Engine::run`], additionally handing back the engine's
    /// buffers for the next run (see [`EngineBuffers`]). The outcome's
    /// completion list and instance are freshly owned by the caller —
    /// those allocations transfer with the outcome by design — but the
    /// arena, heaps, and scratch are all recycled.
    pub fn run_reusing(mut self) -> Result<(RunOutcome, EngineBuffers), SimError> {
        if self.state.cfg.streaming {
            return Err(SimError::BadInstance {
                what: "streaming engines produce a StreamingOutcome; \
                       call run_streaming_reusing() instead of run_reusing()"
                    .into(),
            });
        }
        self.run_loop()?;
        let outcome = self.take_outcome()?;
        // The completion log transferred to the outcome (it *is* the
        // outcome). Re-reserve its capacity now, at finalization, so the
        // next run on these buffers logs completions without regrowing —
        // the steady-state zero-allocation contract (docs/PERF.md §6)
        // covers the in-memory reuse path too.
        self.state.completed.reserve_exact(outcome.completed.len());
        Ok((outcome, self.into_buffers()))
    }

    /// Runs to completion and returns the constant-size
    /// [`StreamingOutcome`]. Works in either mode (a non-streaming engine
    /// simply doesn't recycle memory), so the same finalizer serves the
    /// differential tests on both sides.
    pub fn run_streaming(mut self) -> Result<StreamingOutcome, SimError> {
        self.run_loop()?;
        self.into_streaming_outcome()
    }

    /// Like [`Engine::run_streaming`], additionally handing back the
    /// engine's buffers for the next run. This is the fully
    /// allocation-free repeat-run shape: the streaming outcome is
    /// constant-size and nothing per-job survives the run.
    pub fn run_streaming_reusing(mut self) -> Result<(StreamingOutcome, EngineBuffers), SimError> {
        self.run_loop()?;
        let outcome = self.take_streaming_outcome()?;
        Ok((outcome, self.into_buffers()))
    }

    /// Runs the end-of-run audit identities, if auditing is on.
    fn check_final_audit(&mut self) -> Result<Option<crate::invariant::AuditReport>, SimError> {
        match self.state.auditor.take() {
            Some(mut aud) => {
                aud.check_final(&FinalAccounting {
                    total_flow: self.state.sink.total_flow(),
                    alive_integral: self.state.alive_integral.value(),
                    fractional_flow: self.state.frac_flow.value(),
                    completed: self.state.sink.count() as usize,
                    admitted: self.state.admitted,
                    alive_left: self.num_alive(),
                    at: self.state.now,
                    events: self.state.events,
                    policy: self.state.policy_name.clone(),
                    path: self.path(),
                })?;
                Ok(Some(aud.report()))
            }
            None => Ok(None),
        }
    }

    /// Aggregate metrics from the sink — the single construction site for
    /// both finalizers, so the streaming and in-memory paths cannot drift.
    fn final_metrics(&self) -> RunMetrics {
        self.state.sink.run_metrics(
            self.state.events,
            self.state.frac_flow.value(),
            self.state.alive_integral.value(),
        )
    }

    /// Non-consuming finalizer core: extracts the [`RunOutcome`], leaving
    /// the engine's buffers empty but with capacity intact. The completion
    /// list and the instance's spec vector transfer to the outcome (they
    /// are the outcome); the job arena's own allocation stays behind.
    fn take_outcome(&mut self) -> Result<RunOutcome, SimError> {
        let audit = self.check_final_audit()?;
        let metrics = self.final_metrics();
        Ok(RunOutcome {
            metrics,
            completed: std::mem::take(&mut self.state.completed),
            // The arena holds every spec ever emitted (done or not), in
            // admission order, already validated at admission; rebuilding
            // the instance from it avoids both the seed engine's duplicate
            // `emitted` clone stream and a second O(n) validation pass.
            instance: Instance::from_admitted(self.state.jobs.specs.drain(..).collect()),
            audit,
        })
    }

    /// Non-consuming finalizer core for the streaming outcome.
    fn take_streaming_outcome(&mut self) -> Result<StreamingOutcome, SimError> {
        let audit = self.check_final_audit()?;
        let metrics = self.final_metrics();
        Ok(StreamingOutcome {
            metrics,
            quantiles: self.state.sink.sketch().clone(),
            peak_alive: self.state.peak_alive,
            admitted: self.state.admitted,
            audit,
        })
    }

    /// Finalizes the run into a [`RunOutcome`] (all jobs must be finished).
    pub fn into_outcome(mut self) -> Result<RunOutcome, SimError> {
        if self.state.cfg.streaming {
            return Err(SimError::BadInstance {
                what: "streaming engines produce a StreamingOutcome; \
                       call into_streaming_outcome() instead"
                    .into(),
            });
        }
        self.take_outcome()
    }

    /// Finalizes the run into a constant-size [`StreamingOutcome`].
    pub fn into_streaming_outcome(mut self) -> Result<StreamingOutcome, SimError> {
        self.take_streaming_outcome()
    }
}

/// Simulates `policy` on `instance` with `m` processors using default
/// engine settings.
pub fn simulate(
    instance: &Instance,
    policy: &mut dyn Policy,
    m: f64,
) -> Result<RunOutcome, SimError> {
    let mut obs = NullObserver;
    simulate_with_observer(instance, policy, m, &mut obs)
}

/// Like [`simulate`], but with runtime invariant auditing enabled at the
/// given [`AuditLevel`]. A violation surfaces as
/// [`SimError::AuditFailed`]; on success the outcome carries the
/// [`crate::invariant::AuditReport`].
pub fn simulate_audited(
    instance: &Instance,
    policy: &mut dyn Policy,
    m: f64,
    audit: AuditLevel,
) -> Result<RunOutcome, SimError> {
    let mut source = StaticSource::new(instance);
    let mut obs = NullObserver;
    Engine::new(
        EngineConfig::new(m).with_audit(audit),
        policy,
        &mut source,
        &mut obs,
    )
    .run()
}

/// Like [`simulate`], but with a custom [`Observer`].
pub fn simulate_with_observer(
    instance: &Instance,
    policy: &mut dyn Policy,
    m: f64,
    observer: &mut dyn Observer,
) -> Result<RunOutcome, SimError> {
    let mut source = StaticSource::new(instance);
    Engine::new(EngineConfig::new(m), policy, &mut source, observer).run()
}

/// Simulates `policy` against a (possibly unbounded) [`ArrivalSource`] in
/// memory-bounded streaming mode: resident state is O(peak alive set), not
/// O(total jobs), and the result is the constant-size [`StreamingOutcome`]
/// whose aggregate metrics are bit-identical to [`simulate`] on workloads
/// small enough to run both. The event budget is raised to effectively
/// unlimited — the source, not the default cap sized for in-memory runs,
/// bounds a streaming run's length.
pub fn simulate_streaming(
    source: &mut dyn ArrivalSource,
    policy: &mut dyn Policy,
    m: f64,
) -> Result<StreamingOutcome, SimError> {
    simulate_streaming_audited(source, policy, m, AuditLevel::Off)
}

/// Like [`simulate_streaming`], with runtime invariant auditing at the
/// given [`AuditLevel`]. The audit layer works unchanged in streaming mode
/// (frames are built from the alive window only); prefer
/// [`AuditLevel::Sampled`] at large `n` — strict per-event frames cost
/// O(alive) each.
pub fn simulate_streaming_audited(
    source: &mut dyn ArrivalSource,
    policy: &mut dyn Policy,
    m: f64,
    audit: AuditLevel,
) -> Result<StreamingOutcome, SimError> {
    let mut obs = NullObserver;
    Engine::new(
        EngineConfig::new(m)
            .with_streaming(true)
            .with_audit(audit)
            .with_max_events(u64::MAX),
        policy,
        source,
        &mut obs,
    )
    .run_streaming()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::EquiSplit;
    use parsched_speedup::Curve;

    fn inst(jobs: &[(f64, f64)], curve: Curve) -> Instance {
        Instance::from_sizes(jobs, curve).unwrap()
    }

    #[test]
    fn single_sequential_job_cannot_be_sped_up() {
        // One sequential job of size 5 on 8 processors: flow = 5.
        let outcome =
            simulate(&inst(&[(0.0, 5.0)], Curve::Sequential), &mut EquiSplit, 8.0).unwrap();
        assert!((outcome.metrics.total_flow - 5.0).abs() < 1e-9);
        assert_eq!(outcome.metrics.num_jobs, 1);
    }

    #[test]
    fn single_parallel_job_uses_all_processors() {
        let outcome = simulate(
            &inst(&[(0.0, 8.0)], Curve::FullyParallel),
            &mut EquiSplit,
            4.0,
        )
        .unwrap();
        assert!((outcome.metrics.total_flow - 2.0).abs() < 1e-9);
    }

    #[test]
    fn two_power_jobs_under_equi() {
        // 2 jobs, size 4, α = 0.5, m = 4 → each at rate √2, both finish at
        // 4/√2 = 2√2; total flow = 4√2.
        let outcome = simulate(
            &inst(&[(0.0, 4.0), (0.0, 4.0)], Curve::power(0.5)),
            &mut EquiSplit,
            4.0,
        )
        .unwrap();
        assert!((outcome.metrics.total_flow - 4.0 * 2f64.sqrt()).abs() < 1e-9);
        assert!((outcome.metrics.makespan - 2.0 * 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn mid_run_arrival_triggers_reallocation() {
        // m=2 fully parallel. Job0 size 4 at t=0 (rate 2); job1 size 2 at t=1.
        // t∈[0,1): job0 alone, rate 2, remaining 2 at t=1.
        // t≥1: each gets 1 processor, rate 1. Job1 (rem 2) and job0 (rem 2)
        // both finish at t=3. Flows: 3 and 2 → total 5.
        let outcome = simulate(
            &inst(&[(0.0, 4.0), (1.0, 2.0)], Curve::FullyParallel),
            &mut EquiSplit,
            2.0,
        )
        .unwrap();
        assert!((outcome.metrics.total_flow - 5.0).abs() < 1e-9);
        assert_eq!(outcome.flow_of(JobId(0)), Some(3.0));
        assert_eq!(outcome.flow_of(JobId(1)), Some(2.0));
    }

    #[test]
    fn alive_integral_equals_total_flow() {
        let outcome = simulate(
            &inst(&[(0.0, 3.0), (0.5, 1.0), (2.0, 2.5)], Curve::power(0.7)),
            &mut EquiSplit,
            3.0,
        )
        .unwrap();
        assert!(
            (outcome.metrics.alive_integral - outcome.metrics.total_flow).abs() < 1e-6,
            "∫|A| = {} vs Σflow = {}",
            outcome.metrics.alive_integral,
            outcome.metrics.total_flow
        );
    }

    #[test]
    fn fractional_flow_never_exceeds_integral_flow() {
        let outcome = simulate(
            &inst(&[(0.0, 3.0), (0.5, 1.0), (2.0, 2.5)], Curve::power(0.7)),
            &mut EquiSplit,
            3.0,
        )
        .unwrap();
        assert!(outcome.metrics.fractional_flow <= outcome.metrics.total_flow + 1e-9);
        assert!(outcome.metrics.fractional_flow > 0.0);
    }

    /// A policy that allocates nothing, to exercise the stall detector.
    struct Starver;
    impl Policy for Starver {
        fn name(&self) -> String {
            "starver".into()
        }
        fn assign(
            &mut self,
            _: Time,
            _: f64,
            _: &[AliveJob<'_>],
            shares: &mut [f64],
        ) -> Option<f64> {
            shares.fill(0.0);
            None
        }
    }

    #[test]
    fn starvation_is_detected() {
        let err = simulate(&inst(&[(0.0, 1.0)], Curve::Sequential), &mut Starver, 1.0).unwrap_err();
        assert!(matches!(err, SimError::Stalled { alive: 1, .. }));
    }

    /// A policy that over-allocates.
    struct GreedyHog;
    impl Policy for GreedyHog {
        fn name(&self) -> String {
            "hog".into()
        }
        fn assign(
            &mut self,
            _: Time,
            m: f64,
            _: &[AliveJob<'_>],
            shares: &mut [f64],
        ) -> Option<f64> {
            shares.fill(m); // every job demands all processors
            None
        }
    }

    #[test]
    fn infeasible_allocation_is_rejected() {
        let err = simulate(
            &inst(&[(0.0, 1.0), (0.0, 1.0)], Curve::Sequential),
            &mut GreedyHog,
            2.0,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InfeasibleAllocation { .. }));
    }

    #[test]
    fn event_limit_guards_runaway_quanta() {
        struct TinyQuantum;
        impl Policy for TinyQuantum {
            fn name(&self) -> String {
                "tiny".into()
            }
            fn assign(
                &mut self,
                _: Time,
                m: f64,
                jobs: &[AliveJob<'_>],
                shares: &mut [f64],
            ) -> Option<f64> {
                let each = m / jobs.len() as f64;
                shares.fill(each);
                Some(1e-7)
            }
        }
        let instance = inst(&[(0.0, 100.0)], Curve::Sequential);
        let mut p = TinyQuantum;
        let mut source = StaticSource::new(&instance);
        let mut obs = NullObserver;
        let engine = Engine::new(
            EngineConfig::new(1.0).with_max_events(1000),
            &mut p,
            &mut source,
            &mut obs,
        );
        let err = engine.run().unwrap_err();
        assert!(matches!(err, SimError::EventLimit { limit: 1000 }));
    }

    /// A source that emits a job whose release time lies in the past.
    struct StaleSource {
        fired: bool,
    }
    impl crate::source::ArrivalSource for StaleSource {
        fn next_time(&self) -> Option<Time> {
            (!self.fired).then_some(5.0)
        }
        fn emit_into(&mut self, _view: &crate::source::SystemView<'_>, out: &mut Vec<JobSpec>) {
            self.fired = true;
            out.push(JobSpec::new(JobId(0), 1.0, 1.0, Curve::Sequential));
        }
    }

    #[test]
    fn stale_arrivals_are_rejected() {
        let mut p = EquiSplit;
        let mut source = StaleSource { fired: false };
        let mut obs = NullObserver;
        let err = Engine::new(EngineConfig::new(1.0), &mut p, &mut source, &mut obs)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::ArrivalInPast { .. }), "{err:?}");
    }

    /// A source that emits the same job id twice.
    struct DuplicatingSource {
        count: usize,
    }
    impl crate::source::ArrivalSource for DuplicatingSource {
        fn next_time(&self) -> Option<Time> {
            (self.count < 2).then_some(self.count as f64)
        }
        fn emit_into(&mut self, view: &crate::source::SystemView<'_>, out: &mut Vec<JobSpec>) {
            self.count += 1;
            out.push(JobSpec::new(JobId(7), view.now, 10.0, Curve::Sequential));
        }
    }

    #[test]
    fn duplicate_ids_from_sources_are_rejected() {
        let mut p = EquiSplit;
        let mut source = DuplicatingSource { count: 0 };
        let mut obs = NullObserver;
        let err = Engine::new(EngineConfig::new(1.0), &mut p, &mut source, &mut obs)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::BadInstance { .. }), "{err:?}");
    }

    /// A source that wakes up but never advances its next_time.
    struct StuckSource;
    impl crate::source::ArrivalSource for StuckSource {
        fn next_time(&self) -> Option<Time> {
            Some(1.0)
        }
        fn emit_into(&mut self, _view: &crate::source::SystemView<'_>, _out: &mut Vec<JobSpec>) {}
    }

    #[test]
    fn non_advancing_empty_sources_are_rejected() {
        let mut p = EquiSplit;
        let mut source = StuckSource;
        let mut obs = NullObserver;
        let err = Engine::new(EngineConfig::new(1.0), &mut p, &mut source, &mut obs)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::BadInstance { .. }), "{err:?}");
    }

    #[test]
    fn speed_augmentation_scales_flow() {
        let instance = inst(&[(0.0, 4.0)], Curve::FullyParallel);
        let mut p = EquiSplit;
        let mut source = StaticSource::new(&instance);
        let mut obs = NullObserver;
        let outcome = Engine::new(
            EngineConfig::new(2.0).with_speed(2.0),
            &mut p,
            &mut source,
            &mut obs,
        )
        .run()
        .unwrap();
        // Rate 2 processors × speed 2 = 4 → size-4 job finishes at t = 1.
        assert!((outcome.metrics.total_flow - 1.0).abs() < 1e-9);
    }

    #[test]
    fn outcome_instance_matches_input() {
        let instance = inst(&[(0.0, 2.0), (1.0, 3.0)], Curve::power(0.5));
        let outcome = simulate(&instance, &mut EquiSplit, 2.0).unwrap();
        assert_eq!(outcome.instance, instance);
    }

    #[test]
    fn remaining_of_tracks_lifecycle() {
        let instance = inst(&[(0.0, 2.0), (5.0, 1.0)], Curve::Sequential);
        let mut p = EquiSplit;
        let mut source = StaticSource::new(&instance);
        let mut obs = NullObserver;
        let mut engine = Engine::new(EngineConfig::new(1.0), &mut p, &mut source, &mut obs);
        // Before any event, job 1 hasn't been emitted.
        assert_eq!(engine.remaining_of(JobId(1)), None);
        let t = engine.next_event_time().unwrap().unwrap();
        assert!((t - 2.0).abs() < 1e-9); // completion of job 0
        assert_eq!(engine.remaining_of(JobId(0)), Some(2.0));
        engine.advance_to(1.0).unwrap(); // partial advance is allowed
        assert_eq!(engine.remaining_of(JobId(0)), Some(1.0));
        engine.advance_to(2.0).unwrap();
        assert_eq!(engine.remaining_of(JobId(0)), Some(0.0)); // done
        assert_eq!(engine.num_alive(), 0);
        while engine.step().unwrap() {}
        assert!(engine.is_finished());
    }

    #[test]
    fn stretch_metrics_match_hand_computation() {
        // m = 1, sequential sizes 1 and 2: completions at 1, 3.
        // Stretches: 1/1 = 1 and 3/2 = 1.5.
        let outcome = simulate(
            &inst(&[(0.0, 1.0), (0.0, 2.0)], Curve::Sequential),
            &mut crate::policy::EquiSplit,
            1.0,
        )
        .unwrap();
        // EQUI on m=1: both share 0.5 → rates 0.5; size-1 done at 2
        // (stretch 2), then size-2 with 1 left at rate 1 → done at 3
        // (stretch 1.5).
        assert!((outcome.metrics.total_stretch - 3.5).abs() < 1e-9);
        assert!((outcome.metrics.max_stretch - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_instance_finishes_immediately() {
        let instance = Instance::new(vec![]).unwrap();
        let outcome = simulate(&instance, &mut EquiSplit, 4.0).unwrap();
        assert_eq!(outcome.metrics.num_jobs, 0);
        assert_eq!(outcome.metrics.total_flow, 0.0);
    }

    #[test]
    fn path_selection_honours_policy_observer_and_config() {
        let instance = inst(&[(0.0, 1.0)], Curve::Sequential);
        let mut p = EquiSplit;
        // SrptPrefix policy + NullObserver → incremental.
        let mut source = StaticSource::new(&instance);
        let mut obs = NullObserver;
        let e = Engine::new(EngineConfig::new(1.0), &mut p, &mut source, &mut obs);
        assert!(e.uses_incremental_path());
        // full_reassign forces the exhaustive oracle.
        let mut source = StaticSource::new(&instance);
        let mut obs = NullObserver;
        let e = Engine::new(
            EngineConfig::new(1.0).with_full_reassign(true),
            &mut p,
            &mut source,
            &mut obs,
        );
        assert!(!e.uses_incremental_path());
        // An observer consuming the allocation stream forces it too.
        let mut source = StaticSource::new(&instance);
        let mut trace = crate::observer::AllocationTrace::new();
        let e = Engine::new(EngineConfig::new(1.0), &mut p, &mut source, &mut trace);
        assert!(!e.uses_incremental_path());
        // A General-stability policy never takes the incremental path.
        let mut source = StaticSource::new(&instance);
        let mut obs = NullObserver;
        let mut hog = GreedyHog;
        let e = Engine::new(EngineConfig::new(1.0), &mut hog, &mut source, &mut obs);
        assert!(!e.uses_incremental_path());
        assert_eq!(e.path(), EnginePath::Exhaustive);
        // A LeastElapsed policy takes the level path, unless the run is
        // forced onto the exhaustive one.
        let mut least = LeastElapsedParallel;
        let mut source = StaticSource::new(&instance);
        let e = Engine::new(EngineConfig::new(1.0), &mut least, &mut source, &mut obs);
        assert_eq!(e.path(), EnginePath::Levels);
        assert!(!e.uses_incremental_path());
        let mut source = StaticSource::new(&instance);
        let e = Engine::new(
            EngineConfig::new(1.0).with_full_reassign(true),
            &mut least,
            &mut source,
            &mut obs,
        );
        assert_eq!(e.path(), EnginePath::Exhaustive);
        let mut source = StaticSource::new(&instance);
        let mut trace = crate::observer::AllocationTrace::new();
        let e = Engine::new(EngineConfig::new(1.0), &mut least, &mut source, &mut trace);
        assert_eq!(e.path(), EnginePath::Exhaustive);
    }

    /// LAPS(½) in miniature: the latest `⌈n/2⌉` arrivals in `(release,
    /// id)` order split the machine evenly.
    struct LatestHalf;

    impl Policy for LatestHalf {
        fn name(&self) -> String {
            "latest-half".into()
        }

        fn assign(
            &mut self,
            _now: Time,
            m: f64,
            jobs: &[AliveJob<'_>],
            shares: &mut [f64],
        ) -> Option<f64> {
            let mut order: Vec<usize> = (0..jobs.len()).collect();
            order.sort_by(|&a, &b| {
                jobs[a]
                    .release()
                    .total_cmp(&jobs[b].release())
                    .then(jobs[a].id().cmp(&jobs[b].id()))
            });
            let k = jobs.len().div_ceil(2);
            shares.fill(0.0);
            for &i in &order[jobs.len() - k..] {
                shares[i] = m / k as f64;
            }
            None
        }

        fn stability(&self) -> AllocationStability {
            AllocationStability::LatestArrivals
        }

        fn prefix_allocation(&self, n_alive: usize, m: f64) -> Option<PrefixAllocation> {
            let count = n_alive.div_ceil(2);
            (n_alive > 0).then(|| PrefixAllocation {
                count,
                share: m / count as f64,
            })
        }
    }

    #[test]
    fn arrival_suffix_path_serves_the_latest_arrivals() {
        // Job 0 runs alone on [0, 1) at rate 2 and has 2 left. Job 1
        // arrives, and of two jobs the latest one runs: it takes the
        // machine and finishes at 1.5, then job 0 resumes and finishes at
        // 2.5.
        let instance = Instance::new(vec![
            JobSpec::new(JobId(0), 0.0, 4.0, Curve::FullyParallel),
            JobSpec::new(JobId(1), 1.0, 1.0, Curve::FullyParallel),
        ])
        .unwrap();
        let run = |cfg: EngineConfig, path: EnginePath| {
            let mut policy = LatestHalf;
            let mut source = StaticSource::new(&instance);
            let mut obs = NullObserver;
            let e = Engine::new(cfg, &mut policy, &mut source, &mut obs);
            assert_eq!(e.path(), path);
            let out = e.run().unwrap();
            [out.flow_of(JobId(0)), out.flow_of(JobId(1))]
        };
        let suffix = run(EngineConfig::new(2.0), EnginePath::ArrivalSuffix);
        assert_eq!(suffix, [Some(2.5), Some(0.5)]);
        let oracle = run(
            EngineConfig::new(2.0).with_full_reassign(true),
            EnginePath::Exhaustive,
        );
        assert_eq!(suffix, oracle);
        let mut policy = LatestHalf;
        let mut source = StaticSource::new(&instance);
        let mut trace = crate::observer::AllocationTrace::new();
        let e = Engine::new(EngineConfig::new(2.0), &mut policy, &mut source, &mut trace);
        assert_eq!(e.path(), EnginePath::Exhaustive);
    }

    /// SETF for fully parallel jobs: the least-elapsed tie group splits
    /// the machine evenly (`Γ(x) = x`, so equal shares are the equal
    /// rates), on both the exhaustive and the level path.
    struct LeastElapsedParallel;

    impl Policy for LeastElapsedParallel {
        fn name(&self) -> String {
            "least-elapsed".to_string()
        }

        fn assign(
            &mut self,
            _now: Time,
            m: f64,
            jobs: &[AliveJob<'_>],
            shares: &mut [f64],
        ) -> Option<f64> {
            let elapsed = |j: &AliveJob<'_>| (j.size() - j.remaining).max(0.0);
            let least = jobs.iter().map(elapsed).fold(f64::INFINITY, f64::min);
            let cut = least + crate::ELAPSED_TIE_TOL * least.max(1.0);
            let g = jobs.iter().filter(|j| elapsed(j) <= cut).count();
            let mut gap = f64::INFINITY;
            for (j, share) in jobs.iter().zip(shares.iter_mut()) {
                let e = elapsed(j);
                *share = if e <= cut { m / g as f64 } else { 0.0 };
                if e > cut {
                    gap = gap.min(e - least);
                }
            }
            gap.is_finite().then(|| gap / (m / g as f64))
        }

        fn stability(&self) -> AllocationStability {
            AllocationStability::LeastElapsed
        }

        fn equalize_curves(
            &mut self,
            m: f64,
            curves: &[CurveCount<'_>],
            shares: &mut [f64],
        ) -> Option<f64> {
            let g: usize = curves.iter().map(|c| c.count).sum();
            shares.fill(m / g as f64);
            Some(m / g as f64)
        }
    }

    #[test]
    fn level_path_serves_the_least_elapsed_group() {
        // Fully parallel, m = 2: job 0 (size 4) runs alone on [0, 1) and
        // has elapsed 2 there; job 1 (size 3) arrives at 1 and runs alone
        // until its elapsed work catches up at t = 2; the two then share
        // the machine, 1 each, with 2 and 1 left: job 1 finishes at 3,
        // job 0 runs alone again and finishes at 3.5.
        let instance = Instance::new(vec![
            JobSpec::new(JobId(0), 0.0, 4.0, Curve::FullyParallel),
            JobSpec::new(JobId(1), 1.0, 3.0, Curve::FullyParallel),
        ])
        .unwrap();
        let mut policy = LeastElapsedParallel;
        let mut source = StaticSource::new(&instance);
        let mut obs = NullObserver;
        let mut engine = Engine::new(EngineConfig::new(2.0), &mut policy, &mut source, &mut obs);
        assert_eq!(engine.path(), EnginePath::Levels);
        // The arrival at 1, then the catch-up at 2.
        assert!(engine.step().unwrap() && engine.step().unwrap());
        assert_eq!(engine.now(), 2.0);
        assert_eq!(engine.num_alive(), 2);
        assert_eq!(engine.remaining_of(JobId(0)), Some(2.0));
        assert_eq!(engine.remaining_of(JobId(1)), Some(1.0));
        let out = engine.run().unwrap();
        let levels = [out.flow_of(JobId(0)), out.flow_of(JobId(1))];
        assert_eq!(levels, [Some(3.5), Some(2.0)]);
        let (_, oracle) = {
            let mut policy = LeastElapsedParallel;
            let mut source = StaticSource::new(&instance);
            let mut obs = NullObserver;
            let cfg = EngineConfig::new(2.0).with_full_reassign(true);
            let out = Engine::new(cfg, &mut policy, &mut source, &mut obs)
                .run()
                .unwrap();
            ((), [out.flow_of(JobId(0)), out.flow_of(JobId(1))])
        };
        assert_eq!(levels, oracle);
    }

    fn run_both_paths(instance: &Instance, m: f64) -> (RunOutcome, RunOutcome) {
        let run = |full_reassign: bool| {
            let mut p = EquiSplit;
            let mut source = StaticSource::new(instance);
            let mut obs = NullObserver;
            let engine = Engine::new(
                EngineConfig::new(m).with_full_reassign(full_reassign),
                &mut p,
                &mut source,
                &mut obs,
            );
            assert_eq!(engine.uses_incremental_path(), !full_reassign);
            engine.run().unwrap()
        };
        (run(false), run(true))
    }

    #[test]
    fn incremental_matches_exhaustive_oracle_on_equi() {
        let instance = inst(
            &[
                (0.0, 5.0),
                (0.0, 2.0),
                (1.0, 4.0),
                (1.5, 0.5),
                (3.0, 6.0),
                (3.0, 1.0),
            ],
            Curve::power(0.5),
        );
        let (inc, orc) = run_both_paths(&instance, 3.0);
        assert_eq!(inc.metrics.num_jobs, orc.metrics.num_jobs);
        for c in &orc.completed {
            let f = inc.flow_of(c.id).unwrap();
            assert!(
                (f - c.flow()).abs() < 1e-6 * c.flow().max(1.0),
                "job {} flow {} vs oracle {}",
                c.id,
                f,
                c.flow()
            );
        }
        for (a, b) in [
            (inc.metrics.total_flow, orc.metrics.total_flow),
            (inc.metrics.fractional_flow, orc.metrics.fractional_flow),
            (inc.metrics.alive_integral, orc.metrics.alive_integral),
            (inc.metrics.makespan, orc.metrics.makespan),
        ] {
            assert!((a - b).abs() < 1e-6 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn incremental_matches_oracle_with_mixed_curves() {
        // Heterogeneous curves force the scan interval classification.
        let instance = Instance::new(vec![
            JobSpec::new(JobId(0), 0.0, 4.0, Curve::Sequential),
            JobSpec::new(JobId(1), 0.0, 4.0, Curve::FullyParallel),
            JobSpec::new(JobId(2), 0.5, 3.0, Curve::power(0.5)),
            JobSpec::new(JobId(3), 2.0, 2.0, Curve::power(0.8)),
        ])
        .unwrap();
        let (inc, orc) = run_both_paths(&instance, 2.0);
        for c in &orc.completed {
            let f = inc.flow_of(c.id).unwrap();
            assert!(
                (f - c.flow()).abs() < 1e-6 * c.flow().max(1.0),
                "job {} flow {} vs oracle {}",
                c.id,
                f,
                c.flow()
            );
        }
        assert!(
            (inc.metrics.fractional_flow - orc.metrics.fractional_flow).abs()
                < 1e-6 * orc.metrics.fractional_flow.max(1.0)
        );
    }

    #[test]
    fn incremental_remaining_of_partial_advance() {
        // Same scenario as remaining_of_tracks_lifecycle but asserting the
        // incremental path is the one being exercised.
        let instance = inst(&[(0.0, 2.0), (5.0, 1.0)], Curve::Sequential);
        let mut p = EquiSplit;
        let mut source = StaticSource::new(&instance);
        let mut obs = NullObserver;
        let mut engine = Engine::new(EngineConfig::new(1.0), &mut p, &mut source, &mut obs);
        assert!(engine.uses_incremental_path());
        engine.next_event_time().unwrap();
        engine.advance_to(1.0).unwrap();
        assert_eq!(engine.remaining_of(JobId(0)), Some(1.0));
        engine.advance_to(2.0).unwrap();
        assert_eq!(engine.remaining_of(JobId(0)), Some(0.0));
        assert_eq!(engine.num_alive(), 0);
    }

    #[test]
    fn id_map_handles_dense_and_sparse_ids() {
        let mut map = IdMap::default();
        map.insert(JobId(0), 10);
        map.insert(JobId(3), 11);
        map.insert(JobId(u64::MAX - 1), 12);
        map.insert(JobId(1 << 40), 13);
        assert_eq!(map.get(JobId(0)), Some(10));
        assert_eq!(map.get(JobId(3)), Some(11));
        assert_eq!(map.get(JobId(u64::MAX - 1)), Some(12));
        assert_eq!(map.get(JobId(1 << 40)), Some(13));
        assert_eq!(map.get(JobId(2)), None);
        assert_eq!(map.get(JobId(99)), None);
    }

    #[test]
    fn sparse_ids_work_end_to_end() {
        // Huge ids exercise the sorted-vec fallback inside a real run.
        let instance = Instance::new(vec![
            JobSpec::new(JobId(u64::MAX - 7), 0.0, 2.0, Curve::Sequential),
            JobSpec::new(JobId(5), 0.0, 1.0, Curve::Sequential),
        ])
        .unwrap();
        let outcome = simulate(&instance, &mut EquiSplit, 2.0).unwrap();
        assert_eq!(outcome.metrics.num_jobs, 2);
        assert_eq!(outcome.flow_of(JobId(u64::MAX - 7)), Some(2.0));
        assert_eq!(outcome.flow_of(JobId(5)), Some(1.0));
    }

    #[test]
    fn strict_audit_passes_on_both_paths() {
        let instance = inst(
            &[(0.0, 5.0), (0.0, 2.0), (1.0, 4.0), (1.5, 0.5), (3.0, 6.0)],
            Curve::power(0.5),
        );
        for full_reassign in [false, true] {
            let mut p = EquiSplit;
            let mut source = StaticSource::new(&instance);
            let mut obs = NullObserver;
            let engine = Engine::new(
                EngineConfig::new(3.0)
                    .with_full_reassign(full_reassign)
                    .with_audit(AuditLevel::Strict),
                &mut p,
                &mut source,
                &mut obs,
            );
            let outcome = engine.run().unwrap();
            let report = outcome.audit.expect("audited run carries a report");
            assert_eq!(report.level, AuditLevel::Strict);
            assert!(report.frames > 0);
            assert!(report.final_checked);
        }
    }

    #[test]
    fn unaudited_runs_carry_no_report() {
        let outcome =
            simulate(&inst(&[(0.0, 1.0)], Curve::Sequential), &mut EquiSplit, 1.0).unwrap();
        assert!(outcome.audit.is_none());
    }

    #[test]
    fn simulate_audited_runs_final_checks() {
        let outcome = simulate_audited(
            &inst(&[(0.0, 2.0), (0.0, 1.0)], Curve::Sequential),
            &mut EquiSplit,
            2.0,
            AuditLevel::Final,
        )
        .unwrap();
        let report = outcome.audit.unwrap();
        assert_eq!(report.frames, 0);
        assert!(report.final_checked);
    }

    #[test]
    fn simultaneous_completions_handled_in_one_event() {
        // Two identical jobs complete at the same instant.
        let outcome = simulate(
            &inst(&[(0.0, 2.0), (0.0, 2.0)], Curve::Sequential),
            &mut EquiSplit,
            2.0,
        )
        .unwrap();
        assert_eq!(outcome.metrics.num_jobs, 2);
        assert!((outcome.metrics.makespan - 2.0).abs() < 1e-9);
        assert!((outcome.metrics.total_flow - 4.0).abs() < 1e-9);
    }

    #[test]
    fn streaming_aggregates_are_bit_identical_to_in_memory() {
        let instance = inst(
            &[
                (0.0, 5.0),
                (0.0, 2.0),
                (1.0, 4.0),
                (1.5, 0.5),
                (3.0, 6.0),
                (3.0, 1.0),
            ],
            Curve::power(0.5),
        );
        for full_reassign in [false, true] {
            let mut p = EquiSplit;
            let mut source = StaticSource::new(&instance);
            let mut obs = NullObserver;
            let mem = Engine::new(
                EngineConfig::new(3.0).with_full_reassign(full_reassign),
                &mut p,
                &mut source,
                &mut obs,
            )
            .run()
            .unwrap();
            let mut p = EquiSplit;
            let mut source = StaticSource::new(&instance);
            let mut obs = NullObserver;
            let st = Engine::new(
                EngineConfig::new(3.0)
                    .with_full_reassign(full_reassign)
                    .with_streaming(true),
                &mut p,
                &mut source,
                &mut obs,
            )
            .run_streaming()
            .unwrap();
            // Exact equality, not a tolerance: both modes fold completions
            // through the same sink in the same order.
            assert_eq!(mem.metrics, st.metrics, "full_reassign={full_reassign}");
            assert_eq!(st.admitted, 6);
            assert!(st.peak_alive >= 2);
            assert_eq!(st.quantiles.count(), 6);
        }
    }

    #[test]
    fn streaming_arena_stays_bounded_by_alive_set() {
        // 16 sequential jobs with disjoint lifetimes: the free list must
        // recycle one arena slot throughout.
        let jobs: Vec<(f64, f64)> = (0..16).map(|i| (2.0 * f64::from(i), 1.0)).collect();
        let instance = inst(&jobs, Curve::Sequential);
        let mut p = EquiSplit;
        let mut source = StaticSource::new(&instance);
        let mut obs = NullObserver;
        let mut engine = Engine::new(
            EngineConfig::new(1.0).with_streaming(true),
            &mut p,
            &mut source,
            &mut obs,
        );
        while engine.step().unwrap() {}
        assert_eq!(engine.state.peak_alive, 1);
        assert_eq!(engine.state.jobs.len(), 1, "slots were not recycled");
        assert_eq!(engine.state.admitted, 16);
        let out = engine.into_streaming_outcome().unwrap();
        assert_eq!(out.metrics.num_jobs, 16);
        assert!((out.metrics.total_flow - 16.0).abs() < 1e-9);
    }

    #[test]
    fn streaming_retires_completed_ids() {
        let instance = inst(&[(0.0, 2.0), (5.0, 1.0)], Curve::Sequential);
        let mut p = EquiSplit;
        let mut source = StaticSource::new(&instance);
        let mut obs = NullObserver;
        let mut engine = Engine::new(
            EngineConfig::new(1.0).with_streaming(true),
            &mut p,
            &mut source,
            &mut obs,
        );
        engine.next_event_time().unwrap();
        assert_eq!(engine.remaining_of(JobId(0)), Some(2.0));
        engine.advance_to(2.0).unwrap();
        // Completed → retired: the record is gone, not zeroed.
        assert_eq!(engine.remaining_of(JobId(0)), None);
        while engine.step().unwrap() {}
        let out = engine.into_streaming_outcome().unwrap();
        assert_eq!(out.metrics.num_jobs, 2);
    }

    #[test]
    fn streaming_engine_rejects_in_memory_finalizers() {
        let instance = inst(&[(0.0, 1.0)], Curve::Sequential);
        let mut p = EquiSplit;
        let mut source = StaticSource::new(&instance);
        let mut obs = NullObserver;
        let err = Engine::new(
            EngineConfig::new(1.0).with_streaming(true),
            &mut p,
            &mut source,
            &mut obs,
        )
        .run()
        .unwrap_err();
        assert!(matches!(err, SimError::BadInstance { .. }), "{err:?}");
    }

    #[test]
    fn run_streaming_finalizer_works_in_memory_too() {
        // The streaming finalizer on a non-streaming engine reports the
        // same aggregates — it reads the same sink.
        let instance = inst(&[(0.0, 2.0), (1.0, 3.0)], Curve::power(0.5));
        let mem = simulate(&instance, &mut EquiSplit, 2.0).unwrap();
        let mut p = EquiSplit;
        let mut source = StaticSource::new(&instance);
        let mut obs = NullObserver;
        let st = Engine::new(EngineConfig::new(2.0), &mut p, &mut source, &mut obs)
            .run_streaming()
            .unwrap();
        assert_eq!(mem.metrics, st.metrics);
    }

    #[test]
    fn simulate_streaming_audits_and_bounds_memory() {
        let instance = inst(&[(0.0, 2.0), (0.5, 1.0), (4.0, 1.0)], Curve::power(0.5));
        let mut source = StaticSource::new(&instance);
        let out = simulate_streaming_audited(&mut source, &mut EquiSplit, 2.0, AuditLevel::Strict)
            .unwrap();
        assert_eq!(out.metrics.num_jobs, 3);
        let report = out.audit.expect("audited run carries a report");
        assert!(report.frames > 0);
        assert!(report.final_checked);
    }

    #[test]
    fn id_map_remove_frees_dense_and_sparse_slots() {
        let mut map = IdMap::default();
        map.insert(JobId(1), 0);
        map.insert(JobId(1 << 40), 1);
        map.remove(JobId(1));
        map.remove(JobId(1 << 40));
        assert_eq!(map.get(JobId(1)), None);
        assert_eq!(map.get(JobId(1 << 40)), None);
        assert_eq!(map.live, 0);
        map.insert(JobId(1), 5);
        assert_eq!(map.get(JobId(1)), Some(5));
        assert_eq!(map.live, 1);
        // Removing an absent id is a no-op.
        map.remove(JobId(999));
        assert_eq!(map.live, 1);
    }

    #[test]
    fn large_clock_values_cannot_spin_the_event_loop() {
        // Past t ≈ 4·10⁶, `ulp(now)` exceeds `EPS` and a unit-size job's
        // final work sliver can round to a drain time below the clock's
        // resolution: `now + rem/rate == now` in f64. Without the
        // clock-aware completion tolerance the loop then spins on
        // zero-length events forever (the bug surfaced on multi-million-job
        // streaming runs, whose makespans reach 10⁷). The event cap turns a
        // regression into an error instead of a hang.
        let t0 = 9_000_000.0;
        let jobs: Vec<(f64, f64)> = (0..200).map(|i| (t0 + f64::from(i) * 0.37, 1.0)).collect();
        let instance = inst(&jobs, Curve::power(0.5));
        let mut p = EquiSplit;
        let mut source = StaticSource::new(&instance);
        let mut obs = NullObserver;
        let out = Engine::new(
            EngineConfig::new(2.0).with_max_events(20_000),
            &mut p,
            &mut source,
            &mut obs,
        )
        .run()
        .expect("run must terminate at large clock values");
        assert_eq!(out.metrics.num_jobs, 200);
        // The identity the audit layer checks must also hold out here,
        // where the admission window is at its absolute cap.
        assert!(
            (out.metrics.total_flow - out.metrics.alive_integral).abs()
                < 1e-6 * out.metrics.total_flow.max(1.0),
            "flow {} vs alive integral {}",
            out.metrics.total_flow,
            out.metrics.alive_integral
        );
    }
}
