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
//! (see `docs/PERF.md`). Each path's alive structure sits behind one
//! crate-private seam (`crate::alive_set`), and the event loop is
//! monomorphized per structure.
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

use crate::alive_list::AliveList;
use crate::alive_set::{
    fold_earliest, AliveSet, AliveSets, Drained, IntervalKind, Refresh, SetWalk,
};
use crate::arena::{JobArena, ProfileMemo, CLASS_CURVE, CLASS_UNGROUPED, MAX_CLASSES};
use crate::arrival_suffix::ArrivalSuffix;
use crate::error::SimError;
use crate::invariant::{AuditFrame, AuditLevel, Auditor, EnginePath, FinalAccounting, FrameJob};
use crate::job::{Instance, JobId, JobSpec, Time, Work};
use crate::kahan::NeumaierSum;
use crate::level_stack::LevelStack;
use crate::metrics::{CompletedJob, RunMetrics, RunOutcome};
use crate::observer::{Allocation, NullObserver, Observer};
use crate::policy::{AllocationStability, Policy};
use crate::snapshot::{in_range, SlotCheck, SnapCfg, SnapJob, Snapshot};
use crate::source::{ArrivalSource, StaticSource, SystemView};
use crate::srpt_set::{SetSnap, SrptSet};
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
}

// Phase accounting for the hot-path profiler: wraps one phase's work and
// charges its wall-clock duration to the named `PhaseTotals` slot when the
// `hotpath` feature is compiled in. Compiles to the bare body otherwise.
#[cfg(feature = "hotpath")]
macro_rules! hp_phase {
    ($self:ident, $slot:ident, $body:expr) => {{
        let __hp_t0 = crate::hotpath::stamp();
        let __hp_r = $body;
        $self.state.hotpath.$slot += crate::hotpath::ns_since(__hp_t0);
        __hp_r
    }};
}
#[cfg(not(feature = "hotpath"))]
macro_rules! hp_phase {
    ($self:ident, $slot:ident, $body:expr) => {{
        let _ = stringify!($slot);
        $body
    }};
}

/// Evaluates `$body` with `$S` naming the alive structure of the
/// execution path `$path`: the one match on the path a dispatching entry
/// point makes, after which the call runs monomorphized for `$S`.
macro_rules! on_path {
    ($path:expr, $S:ident => $body:expr) => {
        match $path {
            EnginePath::Exhaustive => {
                type $S = AliveList;
                $body
            }
            EnginePath::Incremental => {
                type $S = SrptSet;
                $body
            }
            EnginePath::Levels => {
                type $S = LevelStack;
                $body
            }
            EnginePath::ArrivalSuffix => {
                type $S = ArrivalSuffix;
                $body
            }
        }
    };
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
/// observer: the run state that [`Engine::park`] detaches by value and
/// that [`EngineBuffers`] holds cleared between runs.
#[derive(Debug)]
struct RunState {
    cfg: EngineConfig,
    jobs: JobArena,
    // lint:allow(L009) id map is rebuilt from the admitted specs during restore; rendering it would duplicate the spec lane
    ids: IdMap,
    /// The execution path, which picks the run's structure in `sets`.
    path: EnginePath,
    /// One alive structure per path (see [`crate::alive_set`]).
    sets: AliveSets,
    /// Incremental and arrival-suffix paths: per-`n` memo of the
    /// validated prefix profile and uniform rate.
    // lint:allow(L009) pure memo of the policy's (n, m)-pure prefix profile; a cold cache re-derives every entry bit-identically
    memo: ProfileMemo,
    /// The interval's precomputed next completion time, when its
    /// structure precomputes one. Absolute, so it stays valid across
    /// partial `advance_to` calls (for uniform drains the front's `now +
    /// rem/rate` is invariant under the drain).
    next_completion: Option<Time>,
    /// Cached `source.next_time()`, refreshed after every emission round.
    /// `next_time` takes `&self` and the engine holds the only borrow of
    /// the source, so the value can only change when the engine itself
    /// emits. It is the whole arrival timeline: the next event is the
    /// minimum of this, the interval's completion candidate, and the
    /// re-decision deadline.
    next_arrival: Option<Time>,
    /// Steps that processed a completion *and* an arrival at one
    /// timestamp — the same-timestamp coalescing the event loop performs
    /// as a first-class step (see `docs/PERF.md` §4).
    coalesced: u64,
    /// Reusable arrival-batch buffer (avoids per-arrival allocation).
    // lint:allow(L009) transient per-event scratch, empty between events; nothing to restore
    scratch_batch: Vec<JobSpec>,
    now: Time,
    alloc_fresh: bool,
    /// The interval's re-decision deadline: the exhaustive path's
    /// quantum, or the level path's catch-up.
    quantum_deadline: Option<Time>,
    events: u64,
    finished: bool,
    /// Runtime invariant auditor (present iff `cfg.audit` is not `Off`),
    /// boxed so that lending it out for an audited event moves a pointer.
    auditor: Option<Box<Auditor>>,
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
    /// Per-phase wall-clock totals (see [`crate::hotpath`]); pure
    /// diagnostics, kept whenever the `hotpath` feature is compiled in.
    #[cfg(feature = "hotpath")]
    // lint:allow(L009) profiler diagnostics, not run state; deliberately not captured (like the audit layer)
    hotpath: crate::hotpath::PhaseTotals,
}

impl Default for RunState {
    /// An empty run state: no buffer allocated yet, and placeholders for
    /// the run's identity (config, path, policy), which
    /// [`Engine::with_buffers`] sets.
    fn default() -> Self {
        Self {
            cfg: EngineConfig::new(1.0),
            jobs: JobArena::default(),
            ids: IdMap::default(),
            path: EnginePath::Exhaustive,
            sets: AliveSets::default(),
            memo: ProfileMemo::default(),
            next_completion: None,
            next_arrival: None,
            coalesced: 0,
            scratch_batch: Vec::new(),
            now: 0.0,
            alloc_fresh: false,
            quantum_deadline: None,
            events: 0,
            finished: false,
            auditor: None,
            policy_name: String::new(),
            policy_srpt_ordered: false,
            frac_flow: NeumaierSum::new(),
            alive_integral: NeumaierSum::new(),
            sink: StreamingMetrics::default(),
            completed: Vec::new(),
            free: Vec::new(),
            admitted: 0,
            peak_alive: 0,
            #[cfg(feature = "hotpath")]
            hotpath: crate::hotpath::PhaseTotals::ZERO,
        }
    }
}

impl RunState {
    /// Clears all per-run state and drops the auditor, retaining every
    /// buffer's capacity. The run's identity (config, path, policy) stays
    /// for the caller to keep or replace, and the cached next arrival is
    /// left for it to refresh from its source.
    fn clear(&mut self) {
        self.jobs.clear();
        self.ids.reset();
        self.sets.reset();
        self.memo.clear();
        self.next_completion = None;
        self.coalesced = 0;
        self.scratch_batch.clear();
        self.now = 0.0;
        self.alloc_fresh = false;
        self.quantum_deadline = None;
        self.events = 0;
        self.finished = false;
        self.auditor = None;
        self.frac_flow = NeumaierSum::new();
        self.alive_integral = NeumaierSum::new();
        self.sink.reset();
        self.completed.clear();
        self.free.clear();
        self.admitted = 0;
        self.peak_alive = 0;
        #[cfg(feature = "hotpath")]
        {
            self.hotpath = crate::hotpath::PhaseTotals::ZERO;
        }
    }
}

/// The engine's heap-backed working state, detached from any run: a
/// cleared run state, as a [`ParkedEngine`] is a parked one.
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
pub struct EngineBuffers(RunState);

impl EngineBuffers {
    /// Fresh, empty buffers (what [`Engine::new`] starts from).
    pub fn new() -> Self {
        Self::default()
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
/// continues) and the same source (positioned where the engine left it),
/// with any observer. The resumed engine then continues the run
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
    /// from: a policy with a different SRPT-ordering claim, a policy that
    /// would put the run on another execution path, or a source whose
    /// next arrival is not the one the engine expects. The
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

        if engine_path(&state.cfg, policy) != state.path {
            return mismatch("the policy selects another execution path");
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

/// The execution path for a run of `policy` under `cfg`: when
/// [`EngineConfig::full_reassign`] is off, the incremental path for a
/// policy declaring [`AllocationStability::SrptPrefix`], the level path
/// for one declaring [`AllocationStability::LeastElapsed`], and the
/// arrival-suffix path for one declaring
/// [`AllocationStability::LatestArrivals`]; the exhaustive path otherwise.
fn engine_path(cfg: &EngineConfig, policy: &dyn Policy) -> EnginePath {
    if cfg.full_reassign {
        return EnginePath::Exhaustive;
    }
    match policy.stability() {
        AllocationStability::General => EnginePath::Exhaustive,
        AllocationStability::SrptPrefix => EnginePath::Incremental,
        AllocationStability::LeastElapsed => EnginePath::Levels,
        AllocationStability::LatestArrivals => EnginePath::ArrivalSuffix,
    }
}

/// The per-spec invariants every [`Instance`] constructor guarantees: a
/// finite non-negative release, finite positive size and weight, and a
/// valid curve. Admission checks each emitted spec against them (before
/// its own arrival-time and duplicate-id checks) and restore checks each
/// snapshot arena slot, so every spec in the arena satisfies them.
fn check_spec(spec: &JobSpec) -> Result<(), SimError> {
    let invalid = if !spec.release.is_finite() || spec.release < 0.0 {
        Some(("release", spec.release))
    } else if !spec.size.is_finite() || spec.size <= 0.0 {
        Some(("size", spec.size))
    } else if !spec.weight.is_finite() || spec.weight <= 0.0 {
        Some(("weight", spec.weight))
    } else {
        None
    };
    let what = match invalid {
        // lint:allow(L007) error construction: a failed admission validation terminates the run
        Some((field, value)) => format!("job {} has invalid {field} {value}", spec.id),
        None if spec.curve.validate().is_err() => {
            // lint:allow(L007) error construction: a failed admission validation terminates the run
            format!("job {} has invalid curve {:?}", spec.id, spec.curve)
        }
        None => return Ok(()),
    };
    Err(SimError::BadInstance { what })
}

/// Checks the run-state scalars the engine owns against the domains
/// [`Engine::snapshot`] emits them in: the clock finite and non-negative,
/// every other scalar the event loop computes with finite (the sketch's
/// bounds are exempt: `±∞` is its empty state). A NaN, ∞, or negative
/// clock decodes fine but sends the resumed run to a wrong total flow or
/// around its event budget. Each alive structure checks its own scalars.
fn check_run_scalars(snap: &Snapshot) -> Result<(), String> {
    in_range("clock", "now", snap.now, true)?;
    let rate = match snap.interval {
        IntervalKind::Uniform { rate } => Some(rate),
        IntervalKind::Idle | IntervalKind::Scan => None,
    };
    let sink = &snap.sink;
    let finite = [
        ("clock", "quantum_deadline", snap.quantum_deadline),
        ("clock", "next_completion", snap.next_completion),
        ("interval", "rate", rate),
    ]
    .into_iter()
    .filter_map(|(part, name, v)| v.map(|v| (part, name, v)))
    .chain([
        ("profile", "share", snap.profile_share),
        ("accum", "frac_flow", snap.frac_flow.0),
        ("accum", "frac_flow", snap.frac_flow.1),
        ("accum", "alive_integral", snap.alive_integral.0),
        ("accum", "alive_integral", snap.alive_integral.1),
        ("sink", "total_flow", sink.total_flow.0),
        ("sink", "total_flow", sink.total_flow.1),
        ("sink", "max_flow", sink.max_flow),
        ("sink", "total_stretch", sink.total_stretch.0),
        ("sink", "total_stretch", sink.total_stretch.1),
        ("sink", "max_stretch", sink.max_stretch),
        ("sink", "total_weighted_flow", sink.total_weighted_flow.0),
        ("sink", "total_weighted_flow", sink.total_weighted_flow.1),
        ("sink", "makespan", sink.makespan),
    ]);
    for (part, name, v) in finite {
        in_range(part, name, v, false)?;
    }
    Ok(())
}

/// Checks the alive set a snapshot captures, through each alive
/// structure's check of its own part (the exhaustive lanes and the SRPT
/// set's part are in every document, empty off their paths). Every slot
/// may be held at most once and never after its job completed, and on
/// `path` every alive slot must be held: a slot left out would never
/// complete, and one held twice would complete again. The free list hands
/// its slots to the next arrivals, so it may list only retired slots,
/// each once: a streaming run's completed ones.
fn check_alive_set(snap: &Snapshot, path: EnginePath) -> Result<(), String> {
    let mut free = vec![false; snap.jobs.len()];
    for &idx in &snap.free {
        let retired = snap.cfg.streaming && snap.jobs.get(idx).is_some_and(|j| j.done);
        if !retired || std::mem::replace(&mut free[idx], true) {
            return Err(format!(
                "arena.free lists slot {idx}, which is not a retired slot listed once"
            ));
        }
    }
    let mut slots = SlotCheck::new(&snap.jobs);
    AliveList::check(snap, &mut slots)?;
    SrptSet::check(snap, &mut slots)?;
    LevelStack::check(snap, &mut slots)?;
    ArrivalSuffix::check(snap, &mut slots)?;
    match slots.first_unheld() {
        Some(idx) => Err(format!("{path} state misses alive arena slot {idx}")),
        None => Ok(()),
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
    /// [`AllocationStability::LatestArrivals`] respectively, and
    /// [`EngineConfig::full_reassign`] to be off; otherwise the exhaustive
    /// `O(n)` path runs. The observer never picks the path: every path
    /// serves every callback, so watching a run does not change it.
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
        bufs: EngineBuffers,
    ) -> Self {
        let mut state = bufs.0;
        state.clear();
        policy.reset();
        state.path = engine_path(&cfg, policy);
        state.auditor = (!cfg.audit.is_off()).then(|| Box::new(Auditor::new(cfg.audit)));
        state.policy_name = policy.name();
        state.policy_srpt_ordered = policy.srpt_ordered();
        state.next_arrival = source.next_time();
        state.cfg = cfg;
        Self {
            policy,
            source,
            observer,
            state,
        }
    }

    /// Tears the engine down to its reusable buffers (cleared, capacity
    /// retained), releasing the policy/source/observer borrows.
    pub fn into_buffers(mut self) -> EngineBuffers {
        self.state.clear();
        EngineBuffers(self.state)
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

    /// Which execution path this run takes (fixed at construction).
    pub fn path(&self) -> EnginePath {
        self.state.path
    }

    /// Number of unfinished released jobs `|A(t)|`.
    pub fn num_alive(&self) -> usize {
        on_path!(self.state.path, S => S::of(&self.state.sets).len())
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
    /// the `hotpath` feature). Read before finalizing — the finalizers
    /// consume the engine.
    #[cfg(feature = "hotpath")]
    pub fn hotpath_totals(&self) -> crate::hotpath::PhaseTotals {
        self.state.hotpath
    }

    /// Remaining work of a job: `Some(0.0)` once completed, `None` if the
    /// job has not been released (emitted) yet. In streaming mode a
    /// completed job's slot is retired, so `None` is also returned after
    /// completion (there is no per-job record to consult).
    pub fn remaining_of(&self, id: JobId) -> Option<Work> {
        let state = &self.state;
        state.ids.get(id).map(|i| {
            if state.jobs.done[i] {
                0.0
            } else {
                on_path!(state.path, S => S::of(&state.sets).remaining(i, &state.jobs))
            }
        })
    }

    /// Owned snapshots of all alive jobs, in no contractual order (the
    /// incremental path lists its heaps as stored).
    pub fn alive_snapshot(&self) -> Vec<AliveSnapshot> {
        let mut out = Vec::with_capacity(self.num_alive());
        let state = &self.state;
        let specs = &state.jobs.specs;
        let mut push = |idx: usize, remaining: Work| {
            let spec = &specs[idx];
            out.push(AliveSnapshot {
                id: spec.id,
                release: spec.release,
                size: spec.size,
                remaining,
                curve: spec.curve.clone(),
            });
        };
        on_path!(state.path, S => S::of(&state.sets).walk(&state.jobs, &mut push));
        out
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
        let state = &self.state;
        if state.auditor.is_some() {
            return Err(SimError::BadInstance {
                what: "snapshot requires AuditLevel::Off (audit state is not captured)".into(),
            });
        }
        let arena = &state.jobs;
        let jobs = (0..arena.len())
            .map(|i| SnapJob {
                spec: arena.specs[i].clone(),
                remaining: arena.remaining[i],
                run_key: arena.run_key[i],
                class: arena.class[i],
                in_running: arena.in_running[i],
                done: arena.done[i],
            })
            .collect();
        // The alive structures' parts start out as an idle, empty run's;
        // the run's own structure then writes its part.
        let mut snap = Snapshot {
            cfg: self.snap_cfg(),
            policy_name: state.policy_name.clone(),
            policy_state: self.policy.snapshot_state(),
            incremental: false,
            now: state.now,
            events: state.events,
            coalesced: state.coalesced,
            finished: state.finished,
            alloc_fresh: state.alloc_fresh,
            quantum_deadline: state.quantum_deadline,
            next_completion: state.next_completion,
            next_arrival: state.next_arrival,
            profile_count: 0,
            profile_share: 0.0,
            interval: IntervalKind::Idle,
            frac_flow: state.frac_flow.parts(),
            alive_integral: state.alive_integral.parts(),
            admitted: state.admitted,
            peak_alive: state.peak_alive,
            sink: state.sink.snapshot_state(),
            jobs,
            class_alpha_bits: arena.classes.iter().map(|k| k.alpha().to_bits()).collect(),
            free: state.free.clone(),
            alive: Vec::new(),
            shares: Vec::new(),
            rates: Vec::new(),
            srpt: SetSnap::default(),
            levels: None,
            suffix: None,
            completed: state.completed.clone(),
        };
        on_path!(state.path, S => S::of(&state.sets).snapshot(&arena.specs, &mut snap));
        Ok(snap)
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
    ///
    /// The whole document is checked before any run state changes, so a
    /// refused restore leaves the engine's run state as it was. Its source
    /// and policy may have been moved and reset by then: continue a
    /// refused engine only with collaborators known to be where it left
    /// them.
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
        let snap_path = snap.path();
        if snap_path != Some(self.state.path) {
            return Err(bad(format!(
                "restore path mismatch: engine is on the {} path but the snapshot was taken on \
                 the {} path (policy stability must match the original run)",
                self.state.path,
                snap_path.map_or("ambiguous".into(), |p| p.to_string()),
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
        check_run_scalars(snap)
            .and_then(|()| check_alive_set(snap, self.state.path))
            .map_err(|e| bad(format!("snapshot {e}")))?;
        // The id map and the sink can refuse the document only while they
        // are filled, so they are filled here, before the run state is
        // touched. Id map: every resident slot except (in streaming mode)
        // retired ones, whose ids were forgotten by the original run too.
        // Dense vs. sparse placement may differ from the original
        // insertion history — that is a lookup-performance detail, not
        // observable state.
        let mut ids = IdMap::default();
        for (idx, j) in snap.jobs.iter().enumerate() {
            if self.state.cfg.streaming && j.done {
                continue;
            }
            if ids.get(j.spec.id).is_some() {
                return Err(bad(format!("snapshot duplicates job id {}", j.spec.id)));
            }
            ids.insert(j.spec.id, idx);
        }
        let mut sink = StreamingMetrics::default();
        if !sink.restore_state(&snap.sink) {
            return Err(bad(
                "snapshot sketch bucket array has the wrong length".into()
            ));
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
        // The fast-forwarded source's next arrival must agree with the
        // capture bit-for-bit, or the source replays a different stream
        // than the original run.
        let next_arrival = self.source.next_time();
        if next_arrival.map(f64::to_bits) != snap.next_arrival.map(f64::to_bits) {
            return Err(bad(format!(
                "arrival stream diverged at restore: source offers {next_arrival:?}, snapshot \
                 expects {:?}",
                snap.next_arrival
            )));
        }
        // Everything is checked: the rebuild below cannot fail.
        self.state.clear();
        self.state.next_arrival = next_arrival;
        self.state.ids = ids;
        self.state.sink = sink;
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
        let state = &mut self.state;
        state.free.extend_from_slice(&snap.free);
        on_path!(state.path, S => {
            S::of_mut(&mut state.sets).restore(snap, &mut state.jobs, state.cfg.speed);
        });
        state.next_completion = snap.next_completion;
        state.coalesced = snap.coalesced;
        state.now = snap.now;
        state.alloc_fresh = snap.alloc_fresh;
        state.quantum_deadline = snap.quantum_deadline;
        state.events = snap.events;
        state.finished = snap.finished;
        state.frac_flow = NeumaierSum::from_parts(snap.frac_flow.0, snap.frac_flow.1);
        state.alive_integral =
            NeumaierSum::from_parts(snap.alive_integral.0, snap.alive_integral.1);
        state.completed.extend(snap.completed.iter().cloned());
        state.admitted = snap.admitted;
        state.peak_alive = snap.peak_alive;
        Ok(())
    }

    /// Releases all arrivals due at the current time. Returns whether any
    /// arrived. The entry test is inlined so the common non-arrival event
    /// pays one float compare, not a call.
    #[inline]
    fn admit_due<S: AliveSet, const VALIDATE: bool, const NOTIFY: bool>(
        &mut self,
    ) -> Result<bool, SimError> {
        let due = self.state.next_arrival.is_some_and(|t| {
            t <= self.state.now + crate::source::arrival_tolerance(self.state.now)
        });
        if !due {
            return Ok(false);
        }
        self.admit_core::<S, VALIDATE, NOTIFY>()
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
    fn admit_core<S: AliveSet, const VALIDATE: bool, const NOTIFY: bool>(
        &mut self,
    ) -> Result<bool, SimError> {
        let mut any = false;
        while let Some(t) = self.state.next_arrival {
            if t > self.state.now + crate::source::arrival_tolerance(self.state.now) {
                break;
            }
            let mut batch = std::mem::take(&mut self.state.scratch_batch);
            batch.clear();
            // The view walks the alive structure only if the source reads
            // it, so replay sources keep arrivals O(batch) on every path.
            let state = &self.state;
            let alive = SetWalk(S::of(&state.sets), &state.jobs);
            let view = SystemView::over(state.now, state.cfg.m, &alive);
            self.source.emit_into(&view, &mut batch);
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
                // The slot is written before the structure admits the job:
                // the ordered ones break key ties by reading its spec there.
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
                S::of_mut(&mut self.state.sets).admit(idx, remaining, jobs);
            }
            self.state.scratch_batch = batch;
            let alive = S::of(&self.state.sets).len();
            self.state.peak_alive = self.state.peak_alive.max(alive);
            any = true;
        }
        if any {
            self.state.alloc_fresh = false;
        }
        Ok(any)
    }

    /// Decides the allocation for the interval starting now through the
    /// run's alive structure ([`AliveSet::refresh`]) and installs the
    /// interval's schedule: its precomputed next completion and its
    /// re-decision deadline. `NOTIFY` hands a non-empty allocation to
    /// [`Observer::on_allocation`].
    #[inline]
    fn refresh<S: AliveSet, const NOTIFY: bool>(&mut self) -> Result<(), SimError> {
        let state = &mut self.state;
        state.quantum_deadline = None;
        state.next_completion = None;
        let cx = Refresh {
            jobs: &mut state.jobs,
            memo: &mut state.memo,
            policy: &mut *self.policy,
            policy_name: &state.policy_name,
            now: state.now,
            m: state.cfg.m,
            speed: state.cfg.speed,
        };
        let schedule = S::of_mut(&mut state.sets).refresh(cx)?;
        state.next_completion = schedule.completion;
        state.quantum_deadline = schedule.deadline;
        state.alloc_fresh = true;
        if NOTIFY && S::of(&state.sets).len() > 0 {
            let set = SetWalk(S::of(&state.sets), &state.jobs);
            self.observer
                .on_allocation(state.now, &Allocation::over(&set));
        }
        Ok(())
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
        on_path!(self.state.path, S => {
            hp_phase!(self, queue_ns, self.admit_due::<S, true, true>())?;
            self.decide::<S, true>()
        })
    }

    /// Advances the clock to `t` (which must not exceed the next event
    /// time), integrating metrics and processing completions and arrivals
    /// that fall exactly at `t`.
    pub fn advance_to(&mut self, t: Time) -> Result<(), SimError> {
        on_path!(self.state.path, S => {
            if !self.state.alloc_fresh {
                hp_phase!(self, refresh_ns, self.refresh::<S, true>())?;
            }
            self.advance::<S, true, true>(t)
        })
    }

    /// Event-loop phase 1: refreshes a stale allocation and selects the
    /// next event time — the interval's completion candidate, the cached
    /// next arrival, and the re-decision deadline, in that order, the
    /// earliest winning and the first of equals kept. `None` ends the run
    /// when nothing is alive and is a stall otherwise. `NOTIFY` serves the
    /// refresh to the observer.
    #[inline]
    fn decide<S: AliveSet, const NOTIFY: bool>(&mut self) -> Result<Option<Time>, SimError> {
        if !self.state.alloc_fresh {
            hp_phase!(self, refresh_ns, self.refresh::<S, NOTIFY>())?;
        }
        let next = hp_phase!(self, queue_ns, {
            let state = &mut self.state;
            let now = state.now;
            let set = S::of_mut(&mut state.sets);
            let mut next = set.next_completion(now, &state.jobs, state.next_completion);
            if let Some(t) = state.next_arrival {
                fold_earliest(&mut next, t.max(now));
            }
            if let Some(t) = state.quantum_deadline {
                fold_earliest(&mut next, t.max(now));
            }
            next
        });
        if next.is_none() {
            let alive = S::of(&self.state.sets).len();
            if alive > 0 {
                return Err(SimError::Stalled {
                    at: self.state.now,
                    alive,
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
        {
            self.state.hotpath.events += 1;
        }
        Ok(())
    }

    /// Event-loop phase 3: integrates the interval up to `t`, then
    /// processes the completions and arrivals that fall exactly at `t`.
    /// The allocation must be fresh.
    #[inline]
    fn advance<S: AliveSet, const VALIDATE: bool, const CHECKED: bool>(
        &mut self,
        t: Time,
    ) -> Result<(), SimError> {
        debug_assert!(
            t >= self.state.now - EPS * self.state.now.max(1.0),
            "time went backwards"
        );
        let dt = (t - self.state.now).max(0.0);
        // Whether a job may complete at `t`: the exhaustive integration
        // evaluates the completion predicate as it drains; a zero-length
        // advance has no such answer and sweeps.
        let mut due = true;
        if dt > 0.0 {
            due = hp_phase!(self, metrics_ns, {
                let state = &mut self.state;
                let set = S::of_mut(&mut state.sets);
                state.alive_integral.add(set.len() as f64 * dt);
                let speed = state.cfg.speed;
                let drained = set.integrate(dt, t, &mut state.jobs, speed, &mut state.frac_flow);
                if drained == Drained::Reordered {
                    state.alloc_fresh = false;
                }
                drained != Drained::NoneDue
            });
            if CHECKED {
                self.observer.on_advance(self.state.now, t);
            }
            self.state.now = t;
        } else {
            self.state.now = self.state.now.max(t);
        }
        let completed_any = hp_phase!(self, dispatch_ns, {
            let completed_any = due && self.complete_due::<S, CHECKED>();
            if completed_any {
                self.state.alloc_fresh = false;
            }
            completed_any
        });
        // Deadline expiry forces a re-decision (and, on the level path,
        // the catch-up merge, before this instant's arrivals stack new
        // levels on top).
        if let Some(q) = self.state.quantum_deadline {
            if self.state.now + EPS * self.state.now.max(1.0) >= q {
                let state = &mut self.state;
                state.alloc_fresh = false;
                S::of_mut(&mut state.sets).expire(&state.jobs.specs, &mut state.quantum_deadline);
            }
        }
        // Arrivals due exactly now. A completion and an arrival landing
        // on one timestamp are processed inside this single call — one
        // event, one step — which is the first-class same-timestamp
        // coalescing documented in `docs/PERF.md` §4; count it so tests
        // can pin the behavior instead of inferring it from event totals.
        let arrived = hp_phase!(self, queue_ns, self.admit_due::<S, VALIDATE, CHECKED>())?;
        if completed_any && arrived {
            self.state.coalesced += 1;
        }
        Ok(())
    }

    /// Detaches the jobs due now from the run's alive structure and
    /// records each completion into the aggregate sink (both modes) and
    /// the completion list (in-memory mode), then retires its arena slot
    /// (streaming mode). `NOTIFY` gates the observer callback.
    #[inline]
    fn complete_due<S: AliveSet, const NOTIFY: bool>(&mut self) -> bool {
        let state = &mut self.state;
        let (now, speed, streaming) = (state.now, state.cfg.speed, state.cfg.streaming);
        let (sink, completed) = (&mut state.sink, &mut state.completed);
        let (ids, free, observer) = (&mut state.ids, &mut state.free, &mut *self.observer);
        let set = S::of_mut(&mut state.sets);
        let deadline = &mut state.quantum_deadline;
        set.complete_due(now, &mut state.jobs, speed, deadline, |jobs, idx| {
            jobs.remaining[idx] = 0.0;
            jobs.in_running[idx] = false;
            jobs.done[idx] = true;
            let spec = &jobs.specs[idx];
            sink.record(spec.release, spec.size, now, spec.weight);
            if !streaming {
                completed.push(CompletedJob {
                    id: spec.id,
                    release: spec.release,
                    size: spec.size,
                    completion: now,
                    weight: spec.weight,
                });
            }
            if NOTIFY {
                observer.on_completion(now, spec);
            }
            if streaming {
                // Retire the slot: forget the id and hand the arena index
                // to the next arrival. The spec stays in place (inert)
                // until overwritten — nothing reads `done` slots.
                ids.remove(spec.id);
                free.push(idx);
            }
        })
    }

    /// Builds an audit snapshot of the alive set with the allocation
    /// decided for the interval starting now, refilling the policy string
    /// and job vector the auditor lent back ([`Auditor::take_spare`]).
    /// Only valid while the allocation is fresh (callers capture right
    /// after [`Engine::next_event_time`]).
    fn build_audit_frame<S: AliveSet>(
        &self,
        (mut policy, mut jobs): (String, Vec<FrameJob>),
    ) -> AuditFrame {
        policy.push_str(&self.state.policy_name);
        let state = &self.state;
        let specs = &state.jobs.specs;
        let srpt_running = S::of(&state.sets).audit(
            &state.jobs,
            state.cfg.speed,
            |idx, remaining, share, rate| {
                let spec = &specs[idx];
                jobs.push(FrameJob {
                    id: spec.id,
                    slot: idx,
                    release: spec.release,
                    size: spec.size,
                    remaining,
                    share,
                    rate,
                });
            },
        );
        AuditFrame {
            event: state.events,
            t: state.now,
            m: state.cfg.m,
            path: Some(state.path),
            policy,
            jobs,
            srpt_running,
            srpt_ordered_policy: state.policy_srpt_ordered,
            latest_arrivals_policy: self.policy.stability() == AllocationStability::LatestArrivals,
        }
    }

    /// Processes one event. Returns `false` when the run is complete.
    ///
    /// One iteration of the all-checks instantiation of the event loop
    /// (see [`Engine::run_loop`]): it validates admissions, notifies the
    /// observer, and feeds the auditor.
    pub fn step(&mut self) -> Result<bool, SimError> {
        on_path!(self.state.path, S => self.run_events::<S, true, true>(true))
    }

    /// Drives the run to completion without finalizing. All four `run*`
    /// finalizers route through here; it is public so external drivers
    /// (benchmarks, the allocation audit) can execute the exact finalizer
    /// loop and then inspect the engine before materializing an outcome.
    ///
    /// There is one event loop, the private `Engine::run_events`,
    /// monomorphized per alive structure (one per execution path, see
    /// `crate::alive_set`) and over the checks the run needs. A run with
    /// auditing off and a no-op observer ([`Observer::is_noop`]) takes an
    /// instantiation without audit frames or observer calls and — when
    /// the source is [`ArrivalSource::pre_validated`] — without admission
    /// re-validation. Every other run takes the all-checks instantiation
    /// that [`Engine::step`] iterates. The instantiations differ in
    /// bookkeeping, not arithmetic, so a run is bit-identical either way,
    /// which `tests/engine_fastpath_differential.rs` pins policy by policy.
    pub fn run_loop(&mut self) -> Result<(), SimError> {
        let checked = self.state.auditor.is_some() || !self.observer.is_noop();
        let validate = checked || !self.source.pre_validated();
        on_path!(self.state.path, S => match (validate, checked) {
            (_, true) => self.run_events::<S, true, true>(false),
            (true, false) => self.run_events::<S, true, false>(false),
            (false, false) => self.run_events::<S, false, false>(false),
        })
        .map(drop)
    }

    /// The event loop over the alive structure `S`: leading admission,
    /// then per event [`Engine::decide`], the audit frame,
    /// [`Engine::charge_event`], and [`Engine::advance`]. Runs one event
    /// when `once`, else until the run ends; returns `false` once the run
    /// is over.
    ///
    /// `VALIDATE` re-checks admitted specs, and `CHECKED` serves the
    /// observer and the auditor; with `CHECKED` off the run must be
    /// unaudited and unobserved (see [`Engine::run_loop`]).
    #[inline]
    fn run_events<S: AliveSet, const VALIDATE: bool, const CHECKED: bool>(
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
        hp_phase!(self, queue_ns, self.admit_due::<S, VALIDATE, CHECKED>())?;
        loop {
            let Some(t) = self.decide::<S, CHECKED>()? else {
                return Ok(false);
            };
            if CHECKED {
                self.audit_event::<S>()?;
            }
            self.charge_event()?;
            self.advance::<S, VALIDATE, CHECKED>(t)?;
            if once {
                return Ok(true);
            }
        }
    }

    /// Audit hook: at this point the allocation is fresh and constant over
    /// the coming interval, so the frame captures exactly what the engine
    /// is about to execute.
    fn audit_event<S: AliveSet>(&mut self) -> Result<(), SimError> {
        let Some(mut aud) = self.state.auditor.take() else {
            return Ok(());
        };
        let checked = if aud.wants_frame(self.state.events) {
            let frame = self.build_audit_frame::<S>(aud.take_spare());
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
                    path: Some(self.path()),
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
    use crate::policy::{AliveJob, CurveCount, EquiSplit, PrefixAllocation};
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
        assert_eq!(e.path(), EnginePath::Incremental);
        // full_reassign forces the exhaustive oracle.
        let mut source = StaticSource::new(&instance);
        let mut obs = NullObserver;
        let e = Engine::new(
            EngineConfig::new(1.0).with_full_reassign(true),
            &mut p,
            &mut source,
            &mut obs,
        );
        assert_eq!(e.path(), EnginePath::Exhaustive);
        // An observer reading the allocation stream keeps the policy's
        // path: watching a run does not change it.
        let mut source = StaticSource::new(&instance);
        let mut trace = crate::observer::AllocationTrace::new();
        let e = Engine::new(EngineConfig::new(1.0), &mut p, &mut source, &mut trace);
        assert_eq!(e.path(), EnginePath::Incremental);
        // A General-stability policy never takes the incremental path.
        let mut source = StaticSource::new(&instance);
        let mut obs = NullObserver;
        let mut hog = GreedyHog;
        let e = Engine::new(EngineConfig::new(1.0), &mut hog, &mut source, &mut obs);
        assert_eq!(e.path(), EnginePath::Exhaustive);
        // A LeastElapsed policy takes the level path, unless the run is
        // forced onto the exhaustive one.
        let mut least = LeastElapsedParallel;
        let mut source = StaticSource::new(&instance);
        let e = Engine::new(EngineConfig::new(1.0), &mut least, &mut source, &mut obs);
        assert_eq!(e.path(), EnginePath::Levels);
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
        assert_eq!(e.path(), EnginePath::Levels);
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
        assert_eq!(e.path(), EnginePath::ArrivalSuffix);
        e.run().unwrap();
        // The suffix path serves the trace the latest arrival's takeover.
        let seg = |start: f64, end: f64, id: u64| crate::observer::AllocationSegment {
            start,
            end,
            id: JobId(id),
            share: 2.0,
        };
        assert_eq!(trace.of_job(JobId(1)), [seg(1.0, 1.5, 1)]);
        assert_eq!(trace.of_job(JobId(0)), [seg(0.0, 1.0, 0), seg(1.5, 2.5, 0)]);
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
            assert_eq!(engine.path() == EnginePath::Incremental, !full_reassign);
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
        assert_eq!(engine.path(), EnginePath::Incremental);
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

    /// Under the `hotpath` feature the profiler runs on every run: it
    /// charges each event the loop processes to its totals.
    #[cfg(feature = "hotpath")]
    #[test]
    fn hotpath_profiler_counts_every_event() {
        let jobs: Vec<(f64, f64)> = (0..50).map(|i| (f64::from(i) * 0.3, 1.0)).collect();
        let instance = inst(&jobs, Curve::power(0.5));
        let mut p = EquiSplit;
        let mut source = StaticSource::new(&instance);
        let mut obs = NullObserver;
        let mut engine = Engine::new(EngineConfig::new(2.0), &mut p, &mut source, &mut obs);
        engine.run_loop().expect("run");
        let totals = engine.hotpath_totals();
        let metrics = engine.into_outcome().expect("outcome").metrics;
        assert!(metrics.events > 0);
        assert_eq!(totals.events, metrics.events);
    }
}
