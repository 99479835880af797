//! Multi-tenant serving layer over the scheduling engine.
//!
//! A *tenant* is an independent scheduling scenario — an [`Instance`], a
//! policy from the registry, a machine count, and an engine mode
//! (in-memory or streaming). The fleet runs many tenants concurrently on
//! the shared work-stealing shard pool ([`Pool`]): each round, every
//! in-flight tenant advances by at most [`FleetConfig::slice_events`]
//! engine events on whichever shard claims it, then is either finalized
//! (ran out of events) or parked until the next round.
//!
//! # Tenant lifecycle
//!
//! An admitted tenant owns its policy, its arrival source, and — from its
//! first slice on — an engine built on them. Between slices the engine is
//! a [`ParkedEngine`]: the run state by value, detached from the policy
//! and source it continues with. A slice is resume → at most
//! `slice_events` [`Engine::step`] calls → park, so it costs what the same
//! events cost in a dedicated run; nothing is cleared, copied, or
//! re-validated per slice. When a tenant finishes, its engine's buffers
//! are handed to the next admitted tenant.
//!
//! # Determinism and migration
//!
//! A tenant's state travels with it as one pool item, so which shard runs
//! it next round is irrelevant, and [`Pool::map_with`] commits results by
//! input index. The fleet therefore produces **byte-identical** per-tenant
//! results for any worker count, equal to dedicated uninterrupted runs.
//! With [`FleetConfig::migrate`] set, every suspension is additionally
//! forced through the `parsched-snap/v3` text codec
//! ([`Engine::snapshot`] → [`Snapshot::to_json`] →
//! [`Snapshot::from_json`]) — the exact document a real cross-host
//! migration would ship — and the decoded snapshot must reproduce the
//! original bit-for-bit or the tenant is failed; the tenant then continues
//! from the decoded document ([`Engine::restore`]).
//!
//! # Admission and backpressure
//!
//! Capacity is bounded: at most [`FleetConfig::max_in_flight`] tenants
//! hold engine state at once, at most [`FleetConfig::max_pending`] wait
//! in a FIFO overflow queue, and submissions beyond both are *shed* with
//! a recorded reason. Shedding is decided at submission time, purely from
//! the submission order — never from execution timing — so the shed set
//! is deterministic too.
//!
//! # Queries
//!
//! [`FleetSession::query_batch`] answers projection queries from live
//! engine state: each queried tenant's parked engine is captured as a
//! [`Snapshot`], and a scratch engine restores it on a pool shard and runs
//! it forward (the run is deterministic, so the projection is exact, not
//! an estimate). See [`FleetQuery`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use parsched::PolicyKind;
use parsched_analysis::Pool;
use parsched_sim::{
    Engine, EngineBuffers, EngineConfig, Instance, JobId, JobSpec, NullObserver, Observer,
    ParkedEngine, Policy, RunMetrics, SimError, Snapshot, StaticSource, Time,
};

/// One tenant: an independent scheduling scenario.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name (used to address queries; need not be unique, the
    /// first match wins).
    pub name: String,
    /// The workload.
    pub instance: Instance,
    /// The scheduling policy driving this tenant.
    pub policy: PolicyKind,
    /// Number of processors in the tenant's scenario.
    pub m: f64,
    /// Run the engine in memory-bounded streaming mode.
    pub streaming: bool,
}

impl TenantSpec {
    /// A tenant with the common defaults (in-memory engine).
    pub fn new(name: impl Into<String>, instance: Instance, policy: PolicyKind, m: f64) -> Self {
        Self {
            name: name.into(),
            instance,
            policy,
            m,
            streaming: false,
        }
    }

    /// Switches the tenant to the streaming engine path.
    pub fn with_streaming(mut self, streaming: bool) -> Self {
        self.streaming = streaming;
        self
    }
}

/// Fleet-wide capacity and scheduling knobs.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Maximum tenants holding engine state at once.
    pub max_in_flight: usize,
    /// Maximum tenants waiting in the FIFO overflow queue; submissions
    /// beyond `max_in_flight + max_pending` are shed.
    pub max_pending: usize,
    /// Engine events a tenant may advance per round (≥ 1).
    pub slice_events: u64,
    /// Force every suspension through the text codec, as a cross-host
    /// migration would (and fail the tenant on any codec divergence).
    pub migrate: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            max_in_flight: 64,
            max_pending: 1024,
            slice_events: 256,
            migrate: false,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedReason(pub String);

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Final disposition of a tenant.
#[derive(Debug, Clone)]
pub enum TenantStatus {
    /// Ran to completion.
    Done {
        /// Final run metrics — bit-identical to a dedicated
        /// uninterrupted run of the same scenario.
        metrics: RunMetrics,
        /// Rounds the tenant was scheduled for (including the finishing
        /// one).
        rounds: u64,
    },
    /// Refused admission at submission time.
    Shed {
        /// Why.
        reason: ShedReason,
    },
    /// The engine (or the migration codec) reported an error mid-run.
    Failed {
        /// The error description.
        error: String,
    },
}

/// Per-tenant result, in submission order.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Policy name (from the registry).
    pub policy: String,
    /// Whether the tenant ran on the streaming path.
    pub streaming: bool,
    /// Number of jobs in the tenant's instance.
    pub jobs: usize,
    /// Final disposition.
    pub status: TenantStatus,
}

/// Whole-fleet result.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Per-tenant reports, in submission order.
    pub reports: Vec<TenantReport>,
    /// Rounds executed.
    pub rounds: u64,
    /// Tenants that completed.
    pub done: usize,
    /// Tenants shed at admission.
    pub shed: usize,
    /// Tenants that failed mid-run.
    pub failed: usize,
}

/// A projection query against a tenant's live state. Projections are
/// answered by restoring the tenant's snapshot into a scratch engine on a
/// pool shard and running it forward — the engine is deterministic, so
/// the answer is the exact future of the tenant's remaining trajectory,
/// not an estimate.
#[derive(Debug, Clone)]
pub enum FleetQuery {
    /// When will `job` complete under the tenant's policy?
    ProjectedCompletion {
        /// Tenant name.
        tenant: String,
        /// Job to watch.
        job: JobId,
    },
    /// Final total flow time of the tenant if left to run out.
    ProjectedFlow {
        /// Tenant name.
        tenant: String,
    },
    /// Flow time accumulated by completions so far.
    FlowSoFar {
        /// Tenant name.
        tenant: String,
    },
    /// Clock, event count, and completion progress so far.
    Progress {
        /// Tenant name.
        tenant: String,
    },
}

impl FleetQuery {
    fn tenant(&self) -> &str {
        match self {
            FleetQuery::ProjectedCompletion { tenant, .. }
            | FleetQuery::ProjectedFlow { tenant }
            | FleetQuery::FlowSoFar { tenant }
            | FleetQuery::Progress { tenant } => tenant,
        }
    }
}

/// Answer to a [`FleetQuery`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAnswer {
    /// Completion time of the watched job.
    Completion(Time),
    /// A flow-time total.
    Flow(f64),
    /// Progress counters at the tenant's current suspend point.
    Progress {
        /// Simulation clock.
        now: Time,
        /// Engine events processed.
        events: u64,
        /// Jobs completed.
        completed: u64,
        /// Jobs admitted from the source.
        admitted: usize,
    },
}

enum TenantState {
    /// Waiting in the overflow queue.
    Pending,
    /// Holding an in-flight slot.
    Running(Live),
    Done {
        metrics: Box<RunMetrics>,
    },
    Shed {
        reason: ShedReason,
    },
    Failed {
        error: String,
    },
}

/// An in-flight tenant between slices.
enum Live {
    /// Not started yet: the buffers its engine is built on at its first
    /// slice.
    Admitted(Box<EngineBuffers>),
    /// Started: its own policy and source, and its engine parked on them.
    Parked(Box<Resident>),
}

/// A started tenant's state between slices.
struct Resident {
    policy: Box<dyn Policy + Send>,
    source: StaticSource,
    engine: ParkedEngine,
}

impl Resident {
    /// Captures the tenant's current state: resume on its own policy and
    /// source, snapshot, park again. Fails, dropping the tenant's state,
    /// only when the engine cannot be resumed.
    fn snapshot(self) -> Result<(Self, Result<Snapshot, SimError>), SimError> {
        let Resident {
            mut policy,
            mut source,
            engine,
        } = self;
        let mut obs = NullObserver;
        let engine = engine.resume(policy.as_mut(), &mut source, &mut obs)?;
        let snap = engine.snapshot();
        let engine = engine.park();
        let resident = Resident {
            policy,
            source,
            engine,
        };
        Ok((resident, snap))
    }
}

struct TenantSlot {
    /// Shared with the pool shard that runs the tenant's slice.
    spec: Arc<TenantSpec>,
    state: TenantState,
    rounds: u64,
}

enum SliceResult {
    Done(Box<RunMetrics>),
    Suspended(Box<Resident>),
    Failed(String),
}

/// Advances one tenant by at most `slice` events, building its engine
/// first if this is its first slice. Returns the slice's result and, when
/// the tenant's engine was torn down, its buffers for reuse.
fn run_slice(
    spec: &TenantSpec,
    live: Live,
    slice: u64,
    migrate: bool,
) -> (SliceResult, Option<EngineBuffers>) {
    let (mut policy, mut source, parked) = match live {
        Live::Parked(r) => {
            let Resident {
                policy,
                source,
                engine,
            } = *r;
            (policy, source, Ok(engine))
        }
        Live::Admitted(bufs) => (
            spec.policy.build(),
            StaticSource::new(&spec.instance),
            Err(*bufs),
        ),
    };
    let mut obs = NullObserver;
    let mut engine = match parked {
        Ok(engine) => match engine.resume(policy.as_mut(), &mut source, &mut obs) {
            Ok(engine) => engine,
            Err(e) => return (SliceResult::Failed(format!("resume: {e}")), None),
        },
        Err(bufs) => {
            let cfg = EngineConfig::new(spec.m).with_streaming(spec.streaming);
            Engine::with_buffers(cfg, policy.as_mut(), &mut source, &mut obs, bufs)
        }
    };
    let mut stepped = 0u64;
    let mut live = true;
    while stepped < slice {
        match engine.step() {
            Ok(true) => stepped += 1,
            Ok(false) => {
                live = false;
                break;
            }
            Err(e) => {
                return (
                    SliceResult::Failed(format!("step: {e}")),
                    Some(engine.into_buffers()),
                )
            }
        }
    }
    if !live {
        // Finished inside the slice: finalize. The streaming finalizer is
        // valid in either mode and its metrics are bit-identical to the
        // in-memory path's.
        return match engine.run_streaming_reusing() {
            Ok((out, bufs)) => (SliceResult::Done(Box::new(out.metrics)), Some(bufs)),
            Err(e) => (SliceResult::Failed(format!("finalize: {e}")), None),
        };
    }
    if migrate {
        if let Err(error) = migrate_through_codec(&mut engine) {
            return (SliceResult::Failed(error), Some(engine.into_buffers()));
        }
    }
    let engine = engine.park();
    let resident = Resident {
        policy,
        source,
        engine,
    };
    (SliceResult::Suspended(Box::new(resident)), None)
}

/// Ships the engine's state through the text codec, exactly as a
/// cross-host migration would: snapshot, render, parse, require the
/// decoded snapshot to reproduce the captured one bit-for-bit, and
/// continue from the decoded document.
fn migrate_through_codec(engine: &mut Engine<'_>) -> Result<(), String> {
    let snap = engine.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    let decoded =
        Snapshot::from_json(&snap.to_json()).map_err(|e| format!("migration decode: {e}"))?;
    if decoded != snap {
        return Err("migration codec divergence".to_string());
    }
    engine
        .restore(&decoded)
        .map_err(|e| format!("restore: {e}"))
}

/// A fleet of tenants being served round-by-round.
pub struct FleetSession {
    cfg: FleetConfig,
    slots: Vec<TenantSlot>,
    /// Indices of in-flight tenants, in admission order.
    active: Vec<usize>,
    /// FIFO overflow queue of admitted-but-waiting tenants.
    pending: VecDeque<usize>,
    /// Buffers of finished tenants' engines, for the next admissions (at
    /// most one per pending tenant).
    spare: Vec<EngineBuffers>,
    rounds: u64,
}

impl FleetSession {
    /// Submits `tenants` in order under `cfg`. Admission is decided here,
    /// from the submission order alone: the first
    /// [`FleetConfig::max_in_flight`] tenants go in-flight, the next
    /// [`FleetConfig::max_pending`] queue FIFO, the rest are shed.
    pub fn new(cfg: FleetConfig, tenants: Vec<TenantSpec>) -> Result<Self, SimError> {
        if cfg.slice_events == 0 {
            return Err(SimError::BadInstance {
                what: "fleet slice_events must be >= 1".to_string(),
            });
        }
        if cfg.max_in_flight == 0 {
            return Err(SimError::BadInstance {
                what: "fleet max_in_flight must be >= 1".to_string(),
            });
        }
        let mut session = Self {
            cfg,
            slots: Vec::with_capacity(tenants.len()),
            active: Vec::new(),
            pending: VecDeque::new(),
            spare: Vec::new(),
            rounds: 0,
        };
        for spec in tenants {
            let idx = session.slots.len();
            let state = if session.active.len() < cfg.max_in_flight {
                session.active.push(idx);
                TenantState::Running(Live::Admitted(Box::default()))
            } else if session.pending.len() < cfg.max_pending {
                session.pending.push_back(idx);
                TenantState::Pending
            } else {
                TenantState::Shed {
                    reason: ShedReason(format!(
                        "admission queue full ({} in-flight + {} pending)",
                        cfg.max_in_flight, cfg.max_pending
                    )),
                }
            };
            session.slots.push(TenantSlot {
                spec: Arc::new(spec),
                state,
                rounds: 0,
            });
        }
        Ok(session)
    }

    /// Tenants currently holding engine state.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Tenants waiting in the overflow queue.
    pub fn queued(&self) -> usize {
        self.pending.len()
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Runs one round: every in-flight tenant advances by at most
    /// [`FleetConfig::slice_events`] events on the pool, then freed slots
    /// are refilled from the overflow queue. Returns the number of
    /// tenants still in flight.
    pub fn round(&mut self, pool: &Pool) -> usize {
        if self.active.is_empty() {
            return 0;
        }
        self.rounds += 1;
        // Detach each in-flight tenant's state so the shard that claims it
        // owns the tenant for the duration of the slice.
        let mut taken: Vec<(usize, Live)> = Vec::with_capacity(self.active.len());
        for &idx in &self.active {
            let slot = &mut self.slots[idx];
            slot.rounds += 1;
            // The in-flight list only ever holds Running slots.
            if let TenantState::Running(live) =
                std::mem::replace(&mut slot.state, TenantState::Pending)
            {
                taken.push((idx, live));
            }
        }
        let items: Vec<(usize, Arc<TenantSpec>, Live)> = taken
            .into_iter()
            .map(|(idx, live)| (idx, Arc::clone(&self.slots[idx].spec), live))
            .collect();
        let slice = self.cfg.slice_events;
        let migrate = self.cfg.migrate;
        let results = pool.map(items, move |(idx, spec, live)| {
            (idx, run_slice(&spec, live, slice, migrate))
        });
        // Commit serially, in item order — deterministic whatever the
        // shard interleaving was.
        let mut freed = Vec::new();
        for (idx, (res, bufs)) in results {
            // Keep a finished engine's buffers only for a tenant still
            // waiting to take them; past that they are dropped.
            if self.spare.len() < self.pending.len() {
                self.spare.extend(bufs);
            }
            match res {
                SliceResult::Suspended(resident) => {
                    self.slots[idx].state = TenantState::Running(Live::Parked(resident));
                }
                SliceResult::Done(metrics) => {
                    self.slots[idx].state = TenantState::Done { metrics };
                    freed.push(idx);
                }
                SliceResult::Failed(error) => {
                    self.slots[idx].state = TenantState::Failed { error };
                    freed.push(idx);
                }
            }
        }
        if !freed.is_empty() {
            self.active.retain(|idx| !freed.contains(idx));
            self.admit_pending();
        }
        self.active.len()
    }

    /// Refills free in-flight slots from the overflow queue, in FIFO order.
    fn admit_pending(&mut self) {
        while self.active.len() < self.cfg.max_in_flight {
            let Some(next) = self.pending.pop_front() else {
                break;
            };
            let bufs = self.spare.pop().unwrap_or_default();
            self.slots[next].state = TenantState::Running(Live::Admitted(Box::new(bufs)));
            self.active.push(next);
        }
    }

    /// Runs rounds until every admitted tenant is done or failed, then
    /// returns the per-tenant reports in submission order.
    pub fn run(&mut self, pool: &Pool) -> FleetOutcome {
        while self.round(pool) > 0 {}
        self.outcome()
    }

    /// The current per-tenant reports in submission order. Tenants still
    /// in flight or queued report as failed-with-reason only after
    /// [`FleetSession::run`]; call this after `run` for final results.
    pub fn outcome(&self) -> FleetOutcome {
        let mut done = 0;
        let mut shed = 0;
        let mut failed = 0;
        let reports = self
            .slots
            .iter()
            .map(|slot| {
                let status = match &slot.state {
                    TenantState::Done { metrics } => {
                        done += 1;
                        TenantStatus::Done {
                            metrics: (**metrics).clone(),
                            rounds: slot.rounds,
                        }
                    }
                    TenantState::Shed { reason } => {
                        shed += 1;
                        TenantStatus::Shed {
                            reason: reason.clone(),
                        }
                    }
                    TenantState::Failed { error } => {
                        failed += 1;
                        TenantStatus::Failed {
                            error: error.clone(),
                        }
                    }
                    TenantState::Pending => TenantStatus::Failed {
                        error: "still pending (fleet not run to completion)".to_string(),
                    },
                    TenantState::Running(_) => TenantStatus::Failed {
                        error: "still in flight (fleet not run to completion)".to_string(),
                    },
                };
                TenantReport {
                    name: slot.spec.name.clone(),
                    policy: slot.spec.policy.name(),
                    streaming: slot.spec.streaming,
                    jobs: slot.spec.instance.len(),
                    status,
                }
            })
            .collect();
        FleetOutcome {
            reports,
            rounds: self.rounds,
            done,
            shed,
            failed,
        }
    }

    /// Answers a batch of projection queries on the pool. Answers are
    /// returned in query order; each is independent (a scratch engine per
    /// query), so a failed query never poisons its neighbours.
    ///
    /// Each queried in-flight tenant is first captured as a [`Snapshot`]
    /// (serially: resume its parked engine, snapshot, park again), which
    /// is why this takes `&mut self`; the tenant's run is unaffected.
    pub fn query_batch(
        &mut self,
        pool: &Pool,
        queries: &[FleetQuery],
    ) -> Vec<Result<QueryAnswer, String>> {
        let mut snaps: BTreeMap<usize, Result<Arc<Snapshot>, String>> = BTreeMap::new();
        for query in queries {
            if let Ok(idx) = self.find(query.tenant()) {
                if let Entry::Vacant(slot) = snaps.entry(idx) {
                    if let Some(snap) = self.capture(idx) {
                        slot.insert(snap.map(Arc::new).map_err(|e| format!("snapshot: {e}")));
                    }
                }
            }
        }
        let items: Vec<(FleetQuery, Result<Target, String>)> = queries
            .iter()
            .map(|q| (q.clone(), self.target(q.tenant(), &snaps)))
            .collect();
        pool.map_with(EngineBuffers::new, items, |bufs, (query, target)| {
            answer(bufs, &query, target?)
        })
    }

    /// The snapshot of tenant `idx`'s parked engine, or `None` when the
    /// tenant has no engine (not started, or no longer in flight). A
    /// tenant whose engine cannot be resumed has lost its state: it is
    /// failed and its in-flight slot refilled.
    fn capture(&mut self, idx: usize) -> Option<Result<Snapshot, SimError>> {
        let slot = &mut self.slots[idx];
        match std::mem::replace(&mut slot.state, TenantState::Pending) {
            TenantState::Running(live) => match live {
                Live::Parked(resident) => match resident.snapshot() {
                    Ok((resident, snap)) => {
                        slot.state = TenantState::Running(Live::Parked(Box::new(resident)));
                        Some(snap)
                    }
                    Err(e) => {
                        slot.state = TenantState::Failed {
                            error: format!("resume: {e}"),
                        };
                        self.active.retain(|&i| i != idx);
                        self.admit_pending();
                        Some(Err(e))
                    }
                },
                admitted => {
                    slot.state = TenantState::Running(admitted);
                    None
                }
            },
            other => {
                slot.state = other;
                None
            }
        }
    }

    fn find(&self, name: &str) -> Result<usize, String> {
        self.slots
            .iter()
            .position(|s| s.spec.name == name)
            .ok_or_else(|| format!("unknown tenant {name:?}"))
    }

    /// What a query about tenant `name` needs, given the captured
    /// snapshots.
    fn target(
        &self,
        name: &str,
        snaps: &BTreeMap<usize, Result<Arc<Snapshot>, String>>,
    ) -> Result<Target, String> {
        let idx = self.find(name)?;
        let slot = &self.slots[idx];
        let standing = match &slot.state {
            TenantState::Shed { reason } => return Err(format!("tenant shed: {reason}")),
            TenantState::Failed { error } => return Err(format!("tenant failed: {error}")),
            TenantState::Done { metrics } => Standing::Done(metrics.clone()),
            TenantState::Running(_) => match snaps.get(&idx) {
                Some(Ok(s)) => Standing::Running(Some(Arc::clone(s))),
                Some(Err(e)) => return Err(e.clone()),
                None => Standing::Running(None),
            },
            TenantState::Pending => Standing::Pending,
        };
        Ok(Target {
            spec: Arc::clone(&slot.spec),
            standing,
        })
    }
}

/// A query's tenant, as the pool shard answering it sees it.
struct Target {
    spec: Arc<TenantSpec>,
    standing: Standing,
}

/// Where a queried tenant stands.
enum Standing {
    /// Waiting in the overflow queue.
    Pending,
    /// In flight; the snapshot is `None` until its first slice has run.
    Running(Option<Arc<Snapshot>>),
    /// Finished with these metrics.
    Done(Box<RunMetrics>),
}

fn answer(
    bufs: &mut EngineBuffers,
    query: &FleetQuery,
    target: Target,
) -> Result<QueryAnswer, String> {
    let spec = &*target.spec;
    let (snap, done) = match &target.standing {
        Standing::Running(snap) => (snap.as_deref(), None),
        Standing::Done(metrics) => (None, Some(&**metrics)),
        Standing::Pending => (None, None),
    };
    let not_started = QueryAnswer::Progress {
        now: 0.0,
        events: 0,
        completed: 0,
        admitted: 0,
    };
    match query {
        FleetQuery::ProjectedCompletion { job, .. } => {
            // Pre-suspend completions are recorded in the snapshot on the
            // in-memory path; otherwise watch the remaining run. Completed
            // tenants retain aggregates only, so theirs re-runs the whole
            // deterministic scenario from scratch (`snap` is `None`).
            if let Some(t) = snap.and_then(|s| s.completion_of(*job)) {
                return Ok(QueryAnswer::Completion(t));
            }
            match project_completion(bufs, spec, snap, *job)? {
                Some(t) => Ok(QueryAnswer::Completion(t)),
                None => {
                    if spec.instance.jobs().iter().any(|j| j.id == *job) {
                        Err(format!(
                            "job {:?} completed before the suspend point and the \
                             streaming path retains no completion records",
                            job
                        ))
                    } else {
                        Err(format!("job {:?} is not in the tenant's instance", job))
                    }
                }
            }
        }
        FleetQuery::ProjectedFlow { .. } => match done {
            Some(metrics) => Ok(QueryAnswer::Flow(metrics.total_flow)),
            None => project_flow(bufs, spec, snap).map(QueryAnswer::Flow),
        },
        FleetQuery::FlowSoFar { .. } => Ok(QueryAnswer::Flow(match done {
            Some(metrics) => metrics.total_flow,
            None => snap.map_or(0.0, Snapshot::total_flow_so_far),
        })),
        FleetQuery::Progress { .. } => Ok(match (done, snap) {
            (Some(metrics), _) => QueryAnswer::Progress {
                now: metrics.makespan,
                events: metrics.events,
                completed: metrics.num_jobs as u64,
                admitted: metrics.num_jobs,
            },
            (None, Some(s)) => QueryAnswer::Progress {
                now: s.now(),
                events: s.events(),
                completed: s.completed_count(),
                admitted: s.admitted(),
            },
            (None, None) => not_started,
        }),
    }
}

/// Records the first completion of one job id.
struct CompletionWatcher {
    target: JobId,
    at: Option<Time>,
}

impl Observer for CompletionWatcher {
    fn on_completion(&mut self, t: Time, job: &JobSpec) {
        if job.id == self.target && self.at.is_none() {
            self.at = Some(t);
        }
    }

    fn needs_allocation_stream(&self) -> bool {
        // Watching completions only; keep the incremental path (and with
        // it the exec-mode match required by `Engine::restore`).
        false
    }
}

/// Scratch engine for a query: build the tenant's scenario on the warm
/// buffers, restore `snap` if given, and run it to the end under `obs`.
fn scratch_run(
    bufs: &mut EngineBuffers,
    spec: &TenantSpec,
    snap: Option<&Snapshot>,
    obs: &mut dyn Observer,
) -> Result<RunMetrics, String> {
    let mut policy = spec.policy.build();
    let mut source = StaticSource::new(&spec.instance);
    let cfg = EngineConfig::new(spec.m).with_streaming(spec.streaming);
    let taken = std::mem::replace(bufs, EngineBuffers::new());
    let mut engine = Engine::with_buffers(cfg, policy.as_mut(), &mut source, obs, taken);
    if let Some(s) = snap {
        if let Err(e) = engine.restore(s) {
            *bufs = engine.into_buffers();
            return Err(format!("restore: {e}"));
        }
    }
    match engine.run_streaming_reusing() {
        Ok((out, b)) => {
            *bufs = b;
            Ok(out.metrics)
        }
        Err(e) => Err(format!("projection run: {e}")),
    }
}

fn project_completion(
    bufs: &mut EngineBuffers,
    spec: &TenantSpec,
    snap: Option<&Snapshot>,
    job: JobId,
) -> Result<Option<Time>, String> {
    let mut watcher = CompletionWatcher {
        target: job,
        at: None,
    };
    scratch_run(bufs, spec, snap, &mut watcher)?;
    Ok(watcher.at)
}

fn project_flow(
    bufs: &mut EngineBuffers,
    spec: &TenantSpec,
    snap: Option<&Snapshot>,
) -> Result<f64, String> {
    scratch_run(bufs, spec, snap, &mut NullObserver).map(|m| m.total_flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_sim::{simulate, Instance, JobSpec};
    use parsched_speedup::Curve;

    fn tiny_instance(n: usize, seed: u64) -> Instance {
        // Deterministic splitmix-derived mix of sizes/releases/alphas.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let alphas = [0.25, 0.5, 0.75, 1.0];
        let mut release = 0.0;
        let jobs = (0..n)
            .map(|i| {
                let u = next();
                release += (u % 7) as f64 * 0.25;
                let size = 1.0 + (u % 5) as f64;
                let alpha = alphas[(u as usize >> 8) % alphas.len()];
                JobSpec::new(JobId(i as u64), release, size, Curve::power(alpha))
            })
            .collect();
        Instance::new(jobs).expect("tiny instance")
    }

    fn fleet_of(n: usize) -> Vec<TenantSpec> {
        let policies = PolicyKind::all_registered();
        (0..n)
            .map(|i| {
                TenantSpec::new(
                    format!("t{i:03}"),
                    tiny_instance(4 + i % 5, i as u64),
                    policies[i % policies.len()],
                    4.0,
                )
                .with_streaming(i % 3 == 0)
            })
            .collect()
    }

    #[test]
    fn admission_cap_is_honored_and_overflow_is_fifo() {
        let cfg = FleetConfig {
            max_in_flight: 2,
            max_pending: 3,
            slice_events: 4,
            migrate: false,
        };
        let mut session = FleetSession::new(cfg, fleet_of(7)).expect("session");
        assert_eq!(session.in_flight(), 2);
        assert_eq!(session.queued(), 3);
        let out = session.outcome();
        // Submissions 5 and 6 are beyond 2 + 3 and must be shed, with the
        // reason recorded; earlier submissions are never shed.
        for (i, report) in out.reports.iter().enumerate() {
            let is_shed = matches!(report.status, TenantStatus::Shed { .. });
            assert_eq!(is_shed, i >= 5, "tenant {i}");
        }
        match &out.reports[5].status {
            TenantStatus::Shed { reason } => {
                assert!(reason.0.contains("2 in-flight + 3 pending"), "{reason}")
            }
            other => panic!("expected shed, got {other:?}"),
        }
        // Run out: every admitted tenant completes, in-flight never
        // exceeds the cap, and the queue drains FIFO.
        let pool = Pool::new(2);
        loop {
            let in_flight = session.round(&pool);
            assert!(in_flight <= 2);
            if in_flight == 0 {
                break;
            }
        }
        let out = session.outcome();
        assert_eq!(out.done, 5);
        assert_eq!(out.shed, 2);
        assert_eq!(out.failed, 0);
    }

    #[test]
    fn fleet_metrics_match_dedicated_runs_bit_for_bit() {
        let tenants = fleet_of(9);
        let dedicated: Vec<RunMetrics> = tenants
            .iter()
            .map(|t| {
                let mut policy = t.policy.build();
                simulate(&t.instance, policy.as_mut(), t.m)
                    .expect("dedicated run")
                    .metrics
            })
            .collect();
        let cfg = FleetConfig {
            max_in_flight: 4,
            max_pending: 16,
            slice_events: 3,
            migrate: true,
        };
        let mut session = FleetSession::new(cfg, tenants).expect("session");
        let out = session.run(&Pool::new(3));
        assert_eq!(out.done, 9, "{:?}", out.reports);
        for (report, want) in out.reports.iter().zip(&dedicated) {
            match &report.status {
                TenantStatus::Done { metrics, .. } => {
                    assert_eq!(
                        metrics.total_flow.to_bits(),
                        want.total_flow.to_bits(),
                        "{}",
                        report.name
                    );
                    assert_eq!(metrics.events, want.events, "{}", report.name);
                    assert_eq!(
                        metrics.makespan.to_bits(),
                        want.makespan.to_bits(),
                        "{}",
                        report.name
                    );
                }
                other => panic!("{}: {other:?}", report.name),
            }
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        let cfg = FleetConfig {
            slice_events: 0,
            ..FleetConfig::default()
        };
        assert!(FleetSession::new(cfg, Vec::new()).is_err());
        let cfg = FleetConfig {
            max_in_flight: 0,
            ..FleetConfig::default()
        };
        assert!(FleetSession::new(cfg, Vec::new()).is_err());
    }

    #[test]
    fn queries_answer_from_suspended_state() {
        let tenants = fleet_of(3);
        let cfg = FleetConfig {
            max_in_flight: 3,
            max_pending: 0,
            slice_events: 2,
            migrate: false,
        };
        let mut session = FleetSession::new(cfg, tenants.clone()).expect("session");
        let pool = Pool::new(2);
        session.round(&pool); // suspend everyone mid-run
        let queries = vec![
            FleetQuery::ProjectedFlow {
                tenant: "t001".to_string(),
            },
            FleetQuery::ProjectedCompletion {
                tenant: "t001".to_string(),
                job: JobId(0),
            },
            FleetQuery::FlowSoFar {
                tenant: "t001".to_string(),
            },
            FleetQuery::Progress {
                tenant: "t001".to_string(),
            },
            FleetQuery::ProjectedFlow {
                tenant: "nope".to_string(),
            },
        ];
        let answers = session.query_batch(&pool, &queries);
        // The projection must equal the dedicated uninterrupted run.
        let t = &tenants[1];
        let mut policy = t.policy.build();
        let dedicated = simulate(&t.instance, policy.as_mut(), t.m).expect("dedicated");
        match answers[0].as_ref().expect("projected flow") {
            QueryAnswer::Flow(f) => {
                assert_eq!(f.to_bits(), dedicated.metrics.total_flow.to_bits())
            }
            other => panic!("{other:?}"),
        }
        let want_c0 = dedicated
            .completed
            .iter()
            .find(|c| c.id == JobId(0))
            .expect("job 0 completes")
            .completion;
        match answers[1].as_ref().expect("projected completion") {
            QueryAnswer::Completion(t) => assert_eq!(t.to_bits(), want_c0.to_bits()),
            other => panic!("{other:?}"),
        }
        match answers[2].as_ref().expect("flow so far") {
            QueryAnswer::Flow(f) => assert!(f.is_finite() && *f >= 0.0),
            other => panic!("{other:?}"),
        }
        match answers[3].as_ref().expect("progress") {
            QueryAnswer::Progress { events, .. } => assert_eq!(*events, 2),
            other => panic!("{other:?}"),
        }
        assert!(answers[4].is_err(), "unknown tenant must be an error");
    }
}
