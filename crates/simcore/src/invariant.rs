//! Runtime invariant auditing for the simulation engine.
//!
//! The paper's model (§1.1) imposes hard conservation laws that every run
//! must satisfy no matter which engine path executes it: the allocation can
//! never exceed the machine capacity (`Σ_j x_j ≤ m`), work drains exactly
//! at the speed-up curve (`ṗ_j = −Γ_j(x_j)`), remaining work never goes
//! negative, the event clock never goes backwards, and at the end of the
//! run the flow-time identity `Σ_j F_j = ∫ |A(t)| dt` closes the books.
//! The competitive analyses this repository reproduces (and the related
//! heSRPT / SRPT-on-identical-machines lines of work) lean on exactly
//! these identities, so checking them at runtime turns the analysis
//! machinery into executable correctness tooling.
//!
//! The [`Auditor`] consumes [`AuditFrame`]s — per-event snapshots of the
//! alive set with its current allocation — and checks the per-event laws
//! of [`INVARIANTS`] on each in one pass over its jobs, taken in whatever
//! order the producer lists them. Each law is a few comparisons per job;
//! the ones that compare jobs with each other need only extremes gathered
//! on the way (the longest running and the shortest queued job, the
//! longest and the oldest scheduled one, the shortest and the latest
//! starved one), and a second pass runs only to name the first starved
//! job in frame order that breaks `srpt-prefix` or `arrival-suffix`. The
//! work-drain law pairs each job with its entry in the previous frame
//! through a retained slot table ([`WorkDrainConsistency`]). At the end of
//! a run the auditor checks the flow-time identity. Frames come from two
//! producers:
//!
//! * the [`crate::Engine`] itself, when [`crate::EngineConfig::with_audit`]
//!   enables auditing (both the exhaustive and the incremental path build
//!   frames from their own internal state, so the audit observes what the
//!   engine *actually did*, not what it intended);
//! * [`crate::trace::replay`], which reconstructs frames from a recorded
//!   event log and re-checks a run offline.
//!
//! A violation aborts the run with [`SimError::AuditFailed`] carrying a
//! structured [`Violation`] — event index, time, job, expected vs. actual,
//! policy and path — so a failure is a minimal bug report.

use parsched_speedup::EPS;

use crate::error::SimError;
use crate::job::{JobId, Time, Work};

/// Relative tolerance for drain-consistency and end-of-run accounting
/// identities (looser than [`EPS`]: these compare *accumulated* sums).
const REL_TOL: f64 = 1e-6;

/// Default stride for [`AuditLevel::Sampled`]: one frame *pair* (two
/// consecutive events, so drain consistency stays checkable) every this
/// many events.
pub const DEFAULT_SAMPLE_STRIDE: u32 = 64;

/// How much auditing the engine performs during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditLevel {
    /// No auditing (the default; zero overhead).
    Off,
    /// Only the end-of-run accounting identities are checked.
    Final,
    /// Per-event checks on a sampled subset of events: two consecutive
    /// events (a *pair*, so the drain check applies) every `stride`
    /// events, plus the end-of-run identities.
    Sampled(u32),
    /// Every event is checked, plus the end-of-run identities. An audited
    /// event costs `O(alive)` with no sort: one walk of the alive set
    /// builds its frame and one pass checks it (after the work-drain
    /// check indexes the previous frame), on the incremental path too —
    /// auditing is a diagnostic mode, not a production fast path.
    Strict,
}

impl AuditLevel {
    /// Whether auditing is disabled.
    pub fn is_off(&self) -> bool {
        matches!(self, AuditLevel::Off)
    }

    /// Whether a frame should be captured for the event with this index.
    pub fn wants_frame(&self, event: u64) -> bool {
        match *self {
            AuditLevel::Off | AuditLevel::Final => false,
            AuditLevel::Sampled(stride) => event % u64::from(stride.max(2)) < 2,
            AuditLevel::Strict => true,
        }
    }

    /// Stable lowercase name (`off`, `final`, `sampled`, `strict`).
    pub fn name(&self) -> &'static str {
        match self {
            AuditLevel::Off => "off",
            AuditLevel::Final => "final",
            AuditLevel::Sampled(_) => "sampled",
            AuditLevel::Strict => "strict",
        }
    }
}

impl std::str::FromStr for AuditLevel {
    type Err = String;

    /// Parses `off`, `final`, `sampled`, `sampled:<stride>`, or `strict`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Ok(AuditLevel::Off),
            "final" => Ok(AuditLevel::Final),
            "sampled" => Ok(AuditLevel::Sampled(DEFAULT_SAMPLE_STRIDE)),
            "strict" => Ok(AuditLevel::Strict),
            other => {
                if let Some(stride) = other.strip_prefix("sampled:") {
                    let stride: u32 = stride
                        .parse()
                        .map_err(|e| format!("bad sample stride: {e}"))?;
                    if stride < 2 {
                        return Err("sample stride must be ≥ 2".to_string());
                    }
                    Ok(AuditLevel::Sampled(stride))
                } else {
                    Err(format!(
                        "unknown audit level '{s}' (expected off|final|sampled[:stride]|strict)"
                    ))
                }
            }
        }
    }
}

/// An engine execution path. Audit frames, violations and end-of-run
/// accounting carry the path that produced them, so a failure names the
/// code path that broke the law; the offline trace replayer, which runs
/// none of them, tags its own as `None` (rendered "replay").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePath {
    /// Full view + `Policy::assign` at every event.
    Exhaustive,
    /// SRPT-ordered alive set + prefix profile.
    Incremental,
    /// Least-elapsed level stack + common-rate equalizer.
    Levels,
    /// Arrival-ordered alive set whose latest arrivals share the machine.
    ArrivalSuffix,
}

impl EnginePath {
    /// The name a producer tag renders as: its path's, or "replay" for
    /// the trace replayer (`None`).
    fn producer(path: Option<Self>) -> &'static str {
        match path {
            Some(EnginePath::Exhaustive) => "exhaustive",
            Some(EnginePath::Incremental) => "incremental",
            Some(EnginePath::Levels) => "levels",
            Some(EnginePath::ArrivalSuffix) => "arrival-suffix",
            None => "replay",
        }
    }
}

impl std::fmt::Display for EnginePath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(Self::producer(Some(*self)))
    }
}

/// A structured invariant violation: everything needed to reproduce and
/// localize the failure without re-running under a debugger.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the violated invariant (stable identifier).
    pub invariant: &'static str,
    /// Engine event index at which the violation was observed.
    pub event: u64,
    /// Simulation time of the offending frame.
    pub at: Time,
    /// The job involved, when the violation is job-local.
    pub job: Option<JobId>,
    /// The value the invariant required.
    pub expected: f64,
    /// The value actually observed.
    pub actual: f64,
    /// Name of the active policy.
    pub policy: String,
    /// Which engine path was executing (`None`: the trace replayer).
    pub path: Option<EnginePath>,
    /// Human-readable description of the defect.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant '{}' violated at t={} (event {}{}) [policy {}, {} path]: {} (expected {}, actual {})",
            self.invariant,
            self.at,
            self.event,
            self.job
                .map(|j| format!(", job {j}"))
                .unwrap_or_default(),
            self.policy,
            EnginePath::producer(self.path),
            self.detail,
            self.expected,
            self.actual,
        )
    }
}

/// One alive job inside an [`AuditFrame`].
#[derive(Debug, Clone, PartialEq)]
pub struct FrameJob {
    /// Job id.
    pub id: JobId,
    /// The producer's slot for the job: its arena index on both engine
    /// paths, its own index in the trace replayer. A slot is stable while
    /// its job is alive (it may be reused once the job retires), which is
    /// what lets [`WorkDrainConsistency`] find the job's previous-frame
    /// entry without an id index; a wrong slot only costs that shortcut.
    pub slot: usize,
    /// Release time.
    pub release: Time,
    /// Original size `p_j`.
    pub size: Work,
    /// Remaining work `p_j(t)` at the frame time.
    pub remaining: Work,
    /// Processors allocated for the interval starting at the frame time.
    pub share: f64,
    /// Speed-adjusted drain rate `speed · Γ_j(share)` for that interval.
    pub rate: f64,
}

/// A per-event snapshot of the system with the allocation decided for the
/// interval *starting* at [`AuditFrame::t`].
#[derive(Debug, Clone, PartialEq)]
pub struct AuditFrame {
    /// Engine event index (frames within one run strictly increase).
    pub event: u64,
    /// Frame time (start of the constant-allocation interval).
    pub t: Time,
    /// Machine capacity `m`.
    pub m: f64,
    /// Which execution path produced the frame (`None`: the trace
    /// replayer).
    pub path: Option<EnginePath>,
    /// Active policy name.
    pub policy: String,
    /// The alive jobs, in no promised order within a partition: the
    /// incremental path lists its SRPT set as the heaps store it, the
    /// running partition's entries first and then the queue's (see
    /// [`AuditFrame::srpt_running`]); the other producers list their own
    /// alive structures as they hold them.
    pub jobs: Vec<FrameJob>,
    /// On the incremental path, the length `k` of the SRPT set's running
    /// partition: `jobs[..k]` are its running jobs and `jobs[k..]` its
    /// queue, and the `srpt-order` check requires no queued job to have
    /// less remaining work than a running one. `None` elsewhere (no
    /// partition to check).
    pub srpt_running: Option<usize>,
    /// Whether the active policy declares [`crate::Policy::srpt_ordered`]
    /// (gates the `srpt-prefix` check; e.g. EQUI does not claim it — its
    /// allocation is order-agnostic).
    pub srpt_ordered_policy: bool,
    /// Whether the active policy declares
    /// [`crate::AllocationStability::LatestArrivals`] (gates the
    /// `arrival-suffix` check).
    pub latest_arrivals_policy: bool,
}

/// End-of-run accounting handed to [`Auditor::check_final`].
#[derive(Debug, Clone, PartialEq)]
pub struct FinalAccounting {
    /// `Σ_j F_j` over completed jobs.
    pub total_flow: f64,
    /// `∫ |A(t)| dt` as integrated by the engine.
    pub alive_integral: f64,
    /// Total fractional flow `∫ Σ_j p_j(t)/p_j dt`.
    pub fractional_flow: f64,
    /// Number of completed jobs.
    pub completed: usize,
    /// Number of jobs ever admitted.
    pub admitted: usize,
    /// Jobs still alive when the run ended (0 for a completed run).
    pub alive_left: usize,
    /// Final simulation time.
    pub at: Time,
    /// Events processed.
    pub events: u64,
    /// Active policy name.
    pub policy: String,
    /// Which execution path ran (`None`: the trace replayer).
    pub path: Option<EnginePath>,
}

/// The audited laws by their stable names, in check order. A frame that
/// breaks several laws reports the first one listed here, and a law that
/// several jobs break names the first of them in frame order (the
/// incremental path's `srpt-order` excepted, which names the job the SRPT
/// order would name).
///
/// * `monotone-clock` — the clock never runs backwards and event indices
///   strictly increase;
/// * `capacity` — every share is finite and ≥ 0 and `Σ_j x_j ≤ m + ε`;
/// * `non-negative-remaining` — remaining work stays within `[0, p_j]`;
/// * `work-drain` — between consecutive events,
///   `p_j(t₁) = max(0, p_j(t₀) − speed·Γ_j(x_j)·(t₁ − t₀))`;
/// * `srpt-order` — on the incremental path, no queued job has less
///   remaining work than a running one ([`AuditFrame::srpt_running`]);
/// * `srpt-prefix` — for [`crate::Policy::srpt_ordered`] policies, the
///   scheduled jobs share equally and no starved job is shorter than a
///   scheduled one;
/// * `arrival-suffix` — for [`crate::AllocationStability::LatestArrivals`]
///   policies, the scheduled jobs share equally and no waiting job
///   arrived after a scheduled one in `(release, id)` order;
/// * `flow-identity` — at the end of a run, every admitted job completed,
///   `Σ_j F_j = ∫ |A(t)| dt` and the fractional flow is at most the flow.
pub const INVARIANTS: [&str; 8] = [
    "monotone-clock",
    "capacity",
    "non-negative-remaining",
    "work-drain",
    "srpt-order",
    "srpt-prefix",
    "arrival-suffix",
    "flow-identity",
];

/// Ranks of the per-frame checks, in the order their violations are
/// reported: each law's per-job check before its aggregate one.
const CLOCK_TIME: u8 = 0;
const CLOCK_EVENT: u8 = 1;
const SHARE: u8 = 2;
const CAPACITY: u8 = 3;
const REMAINING: u8 = 4;
const DRAIN: u8 = 5;
const ORDER: u8 = 6;
const PREFIX_SHARE: u8 = 7;
const PREFIX_STARVED: u8 = 8;
const SUFFIX_SHARE: u8 = 9;
const SUFFIX_WAITING: u8 = 10;

/// A failed check as the pass records it, until the pass is over and the
/// first one is described ([`describe`]).
#[derive(Clone, Copy)]
struct Hit<'a> {
    rank: u8,
    /// The job that broke the law, when the law is job-local.
    job: Option<&'a FrameJob>,
    /// The job it was held against: its previous entry (`work-drain`),
    /// the longest running job (`srpt-order`), the longest or the oldest
    /// scheduled job (`srpt-prefix`, `arrival-suffix`).
    other: Option<&'a FrameJob>,
    expected: f64,
    actual: f64,
}

/// Keeps the first failure in rank order: a lower rank replaces a higher
/// one, and within one rank the first offered stays.
fn offer<'a>(first: &mut Option<Hit<'a>>, hit: Hit<'a>) {
    if first.is_none_or(|f| hit.rank < f.rank) {
        *first = Some(hit);
    }
}

/// Whether a failure of `rank` would still change the first one.
fn wants(first: &Option<Hit<'_>>, rank: u8) -> bool {
    first.is_none_or(|f| rank < f.rank)
}

fn hit<'a>(
    rank: u8,
    job: &'a FrameJob,
    other: Option<&'a FrameJob>,
    expected: f64,
    actual: f64,
) -> Hit<'a> {
    Hit {
        rank,
        job: Some(job),
        other,
        expected,
        actual,
    }
}

/// The violation a failed check reports on `cur` (checked after `prev`,
/// `dt` after it when the two are adjacent).
#[cold]
fn describe(hit: Hit<'_>, prev: Option<&AuditFrame>, cur: &AuditFrame, dt: f64) -> Violation {
    let Hit {
        rank,
        job,
        other,
        expected,
        actual,
    } = hit;
    let name = |f: Option<&FrameJob>| f.map(|f| f.id.to_string()).unwrap_or_default();
    let (j, o) = (name(job), name(other));
    let (invariant, detail) = match rank {
        CLOCK_TIME => (
            "monotone-clock",
            format!("time went backwards: {actual} after {expected}"),
        ),
        CLOCK_EVENT => (
            "monotone-clock",
            format!(
                "event index did not advance: {} after {}",
                cur.event,
                prev.map_or(0, |p| p.event)
            ),
        ),
        SHARE => (
            "capacity",
            format!("share of job {j} is {actual}, not a finite value ≥ 0"),
        ),
        CAPACITY => (
            "capacity",
            format!("allocated {actual} of {expected} processors"),
        ),
        REMAINING => (
            "non-negative-remaining",
            format!("remaining work {actual} of job {j} outside [0, {expected}]"),
        ),
        DRAIN => (
            "work-drain",
            format!(
                "job {j} drained to {actual} over dt={dt} at rate {}, speed-up curve predicts {expected}",
                other.map_or(0.0, |p| p.rate)
            ),
        ),
        ORDER => (
            "srpt-order",
            format!(
                "alive set left SRPT order: job {j} (remaining {actual}) follows job {o} (remaining {expected})"
            ),
        ),
        PREFIX_SHARE | SUFFIX_SHARE => (
            if rank == PREFIX_SHARE {
                "srpt-prefix"
            } else {
                "arrival-suffix"
            },
            format!("scheduled jobs do not share equally: job {j} holds {actual}, others hold {expected}"),
        ),
        PREFIX_STARVED => (
            "srpt-prefix",
            format!(
                "scheduled set is not an SRPT prefix: job {j} (remaining {actual}) is starved while job {o} (remaining {expected}) runs"
            ),
        ),
        _ => (
            "arrival-suffix",
            format!(
                "scheduled set is not the latest arrivals: job {j} (release {actual}) waits while \
                 older job {o} (release {expected}) runs"
            ),
        ),
    };
    Violation {
        invariant,
        event: cur.event,
        at: cur.t,
        job: job.map(|j| j.id),
        expected,
        actual,
        policy: cur.policy.clone(),
        path: cur.path,
        detail,
    }
}

/// `a` comes after `b` in SRPT order: `(remaining, release, id)`, the
/// order the incremental path's SRPT set keeps.
fn srpt_after(a: &FrameJob, b: &FrameJob) -> bool {
    a.remaining
        .total_cmp(&b.remaining)
        .then(a.release.total_cmp(&b.release))
        .then(a.id.cmp(&b.id))
        .is_gt()
}

/// `a` arrived after `b` in `(release, id)` order.
fn arrived_after(a: &FrameJob, b: &FrameJob) -> bool {
    a.release
        .total_cmp(&b.release)
        .then(a.id.cmp(&b.id))
        .is_gt()
}

/// A starved job with `remaining` work is shorter than the longest
/// scheduled job `s`, beyond tolerance.
fn starved_short(remaining: f64, s: &FrameJob) -> bool {
    let tol = EPS * remaining.abs().max(s.remaining.abs()).max(1.0);
    remaining < s.remaining - tol
}

/// Widest slot range the [`WorkDrainConsistency`] position table covers;
/// previous-frame jobs whose slot lies further above the frame's lowest
/// slot are found by id search instead.
const SLOT_WINDOW: usize = 1 << 20;

/// Fill for new cells of the [`WorkDrainConsistency`] position table
/// (never a valid position).
const NO_POS: u32 = u32::MAX;

/// The `work-drain` law's pairing of each job with its entry in the
/// previous frame, and the law on its own.
///
/// A job is paired with the previous frame's entry of the same id. The
/// lookup goes through a retained table from slot (relative to the
/// previous frame's lowest slot) to previous-frame position, written for
/// the previous frame's jobs at each check, so a frame costs `O(alive)`
/// whatever the arena size. A table hit counts only when its id matches;
/// a miss whose id lies in the previous frame's id range falls back to
/// searching that frame by id, last match first, and any other miss has
/// no entry. Frames list distinct ids (the engine rejects a duplicate alive
/// id, the replayer a duplicate trace id), so an entry whose id matches
/// is *the* entry of that id: every job is paired with exactly the entry
/// an id-keyed map of the previous frame would give it, whatever slots
/// the producer reports — and cells left over from older frames need no
/// clearing, since a stale cell either misses or names that same entry.
#[derive(Debug, Default)]
pub struct WorkDrainConsistency {
    /// `pos[slot − base]`: position in the previous frame of the last
    /// job with that slot, for the previous frame's slots; other cells
    /// hold [`NO_POS`] or stale positions. Grows to the widest slot range
    /// seen (its high-water mark).
    pos: Vec<u32>,
}

/// The table cell of `slot` for a frame whose lowest slot is `base`.
fn window_cell(base: usize, slot: usize) -> Option<usize> {
    slot.checked_sub(base).filter(|&k| k < SLOT_WINDOW)
}

/// A previous frame indexed for pairing ([`WorkDrainConsistency::index`]).
struct Pairing<'a> {
    prev: &'a AuditFrame,
    base: usize,
    pos: &'a [u32],
    /// The least and greatest id in `prev` (`None` when it is empty).
    ids: Option<(JobId, JobId)>,
}

impl<'a> Pairing<'a> {
    /// The previous frame's entry of `j`'s id. An id outside the previous
    /// frame's id range has no entry there, so a table miss searches the
    /// frame only for an id inside it: an arrival, whose id the producer
    /// has not listed before, costs no search when ids grow with arrivals.
    fn previous(&self, j: &FrameJob) -> Option<&'a FrameJob> {
        let hit = window_cell(self.base, j.slot)
            .and_then(|k| self.pos.get(k))
            .and_then(|&i| self.prev.jobs.get(i as usize))
            .filter(|p| p.id == j.id);
        let (lo, hi) = self.ids?;
        hit.or_else(|| {
            (lo..=hi)
                .contains(&j.id)
                .then(|| self.prev.jobs.iter().rev().find(|p| p.id == j.id))
                .flatten()
        })
    }

    /// The remaining work the speed-up curve predicts for `j` from its
    /// previous entry `p` over `dt`, when `j` holds something else (beyond
    /// the accumulated-sum tolerance).
    fn miss(p: &FrameJob, j: &FrameJob, dt: f64) -> Option<f64> {
        let expected = (p.remaining - p.rate * dt).max(0.0);
        let tol = REL_TOL * j.size.max(1.0);
        ((j.remaining - expected).abs() > tol).then_some(expected)
    }
}

impl WorkDrainConsistency {
    /// Every `work-drain` violation of `cur` after `prev`, in frame order:
    /// the law alone, with the pairing the audit's pass uses.
    pub fn check_frame(
        &mut self,
        prev: Option<&AuditFrame>,
        cur: &AuditFrame,
        out: &mut Vec<Violation>,
    ) {
        let dt = interval(prev, cur);
        let Some(pairing) = self.index(prev, cur) else {
            return;
        };
        for j in &cur.jobs {
            if let Some(p) = pairing.previous(j) {
                if let Some(expected) = Pairing::miss(p, j, dt) {
                    let h = hit(DRAIN, j, Some(p), expected, j.remaining);
                    out.push(describe(h, prev, cur, dt));
                }
            }
        }
    }

    /// Indexes `prev` for pairing `cur`'s jobs with their entries in it,
    /// when `prev` is the frame of the event just before `cur`. Only
    /// adjacent events share one constant-allocation interval; a sampled
    /// gap spans many reallocation decisions, so across one no job is
    /// paired.
    fn index<'a>(
        &'a mut self,
        prev: Option<&'a AuditFrame>,
        cur: &AuditFrame,
    ) -> Option<Pairing<'a>> {
        let prev = prev.filter(|p| cur.event == p.event + 1)?;
        let base = prev.jobs.iter().map(|p| p.slot).min().unwrap_or(0);
        let mut ids: Option<(JobId, JobId)> = None;
        for (i, p) in prev.jobs.iter().enumerate() {
            ids = Some(ids.map_or((p.id, p.id), |(lo, hi)| (lo.min(p.id), hi.max(p.id))));
            let Some(k) = window_cell(base, p.slot) else {
                continue;
            };
            if k >= self.pos.len() {
                self.pos.resize(k + 1, NO_POS);
            }
            // A position past `u32::MAX` would wrap, and then miss the id
            // check like any stale cell.
            self.pos[k] = i as u32;
        }
        Some(Pairing {
            prev,
            base,
            pos: &self.pos,
            ids,
        })
    }
}

/// The interval from `prev` to `cur` (zero when the clock went back).
fn interval(prev: Option<&AuditFrame>, cur: &AuditFrame) -> f64 {
    prev.map_or(0.0, |p| (cur.t - p.t).max(0.0))
}

/// The first violation of the per-frame laws ([`INVARIANTS`] but
/// `flow-identity`) on `cur`, checked after `prev`, the frame checked
/// before it.
///
/// One pass over the frame checks each job's share, remaining work and
/// drain, and gathers what the checks that compare jobs need: the total
/// share, the longest running and the shortest queued job in SRPT order,
/// the scheduled jobs' common share, longest and oldest member, and the
/// starved jobs' shortest and latest. A second pass, over the starved
/// jobs, runs only when one of them breaks `srpt-prefix` or
/// `arrival-suffix`, to name the first in frame order.
fn first_violation(
    drain: &mut WorkDrainConsistency,
    prev: Option<&AuditFrame>,
    cur: &AuditFrame,
) -> Option<Violation> {
    let mut first: Option<Hit<'_>> = None;
    let whole = |rank, expected, actual| Hit {
        rank,
        job: None,
        other: None,
        expected,
        actual,
    };
    if let Some(prev) = prev {
        if cur.t < prev.t - EPS * prev.t.abs().max(1.0) {
            offer(&mut first, whole(CLOCK_TIME, prev.t, cur.t));
        }
        if cur.event <= prev.event {
            let expected = prev.event as f64 + 1.0;
            offer(&mut first, whole(CLOCK_EVENT, expected, cur.event as f64));
        }
    }
    let dt = interval(prev, cur);
    let pairing = drain.index(prev, cur);
    let (srpt_prefix, latest_arrivals) = (cur.srpt_ordered_policy, cur.latest_arrivals_policy);
    let running = cur.srpt_running.unwrap_or(usize::MAX);
    let mut total = 0.0;
    let mut longest_running: Option<&FrameJob> = None;
    let mut shortest_queued: Option<&FrameJob> = None;
    let mut common_share: Option<f64> = None;
    let mut longest_scheduled: Option<&FrameJob> = None;
    let mut oldest_scheduled: Option<&FrameJob> = None;
    let mut shortest_starved = f64::INFINITY;
    let mut latest_starved: Option<&FrameJob> = None;
    for (at, j) in cur.jobs.iter().enumerate() {
        if !j.share.is_finite() || j.share < -EPS {
            offer(&mut first, hit(SHARE, j, None, 0.0, j.share));
        }
        total += j.share.max(0.0);
        let tol = EPS * j.size.max(1.0);
        if !j.remaining.is_finite() || j.remaining < -tol || j.remaining > j.size + tol {
            offer(&mut first, hit(REMAINING, j, None, j.size, j.remaining));
        }
        if let Some(p) = pairing.as_ref().and_then(|pairing| pairing.previous(j)) {
            if let Some(expected) = Pairing::miss(p, j, dt) {
                offer(&mut first, hit(DRAIN, j, Some(p), expected, j.remaining));
            }
        }
        if cur.srpt_running.is_some() {
            if at < running {
                if longest_running.is_none_or(|l| srpt_after(j, l)) {
                    longest_running = Some(j);
                }
            } else if shortest_queued.is_none_or(|s| srpt_after(s, j)) {
                shortest_queued = Some(j);
            }
        }
        if !(srpt_prefix || latest_arrivals) {
            continue;
        }
        if j.share > EPS {
            match common_share {
                None => common_share = Some(j.share),
                Some(s) if (j.share - s).abs() > EPS * s.max(1.0) => {
                    if srpt_prefix {
                        offer(&mut first, hit(PREFIX_SHARE, j, None, s, j.share));
                    }
                    if latest_arrivals {
                        offer(&mut first, hit(SUFFIX_SHARE, j, None, s, j.share));
                    }
                }
                Some(_) => {}
            }
            if srpt_prefix && longest_scheduled.is_none_or(|s| j.remaining > s.remaining) {
                longest_scheduled = Some(j);
            }
            if latest_arrivals && oldest_scheduled.is_none_or(|s| arrived_after(s, j)) {
                oldest_scheduled = Some(j);
            }
        } else if j.share <= EPS {
            if srpt_prefix {
                shortest_starved = shortest_starved.min(j.remaining);
            }
            if latest_arrivals && latest_starved.is_none_or(|w| arrived_after(j, w)) {
                latest_starved = Some(j);
            }
        }
    }
    if total > cur.m * (1.0 + 1e-9) + EPS {
        offer(&mut first, whole(CAPACITY, cur.m, total));
    }
    // Within each partition the SRPT order is non-decreasing by
    // construction, so the order can only break at the boundary.
    if let (Some(l), Some(s)) = (longest_running, shortest_queued) {
        let tol = EPS * l.remaining.abs().max(s.remaining.abs()).max(1.0);
        if s.remaining < l.remaining - tol {
            offer(&mut first, hit(ORDER, s, Some(l), l.remaining, s.remaining));
        }
    }
    // Some starved job is shorter than the longest scheduled one only if
    // the shortest is, or a remaining work is negative: for remaining work
    // ≥ 0 the tolerance only grows with it. Some job waits out of turn
    // only if the latest waiting one does. So the pass that names the
    // first such job in frame order runs only when there is one.
    let longest = longest_scheduled.filter(|s| {
        wants(&first, PREFIX_STARVED)
            && (shortest_starved < 0.0 || starved_short(shortest_starved, s))
    });
    let oldest = oldest_scheduled.filter(|o| {
        wants(&first, SUFFIX_WAITING) && latest_starved.is_some_and(|w| arrived_after(w, o))
    });
    if longest.is_some() || oldest.is_some() {
        for j in cur.jobs.iter().filter(|j| j.share <= EPS) {
            if let Some(s) = longest.filter(|s| starved_short(j.remaining, s)) {
                offer(
                    &mut first,
                    hit(PREFIX_STARVED, j, Some(s), s.remaining, j.remaining),
                );
            }
            if let Some(o) = oldest.filter(|o| arrived_after(j, o)) {
                offer(
                    &mut first,
                    hit(SUFFIX_WAITING, j, Some(o), o.release, j.release),
                );
            }
        }
    }
    first.map(|h| describe(h, prev, cur, dt))
}

/// The first violation of the end-of-run identities (`flow-identity`):
/// every admitted job completed, and the flow-time identity
/// `Σ_j F_j = ∫ |A(t)| dt` holds (with `fractional ≤ integral`).
fn final_violation(end: &FinalAccounting) -> Option<Violation> {
    let broken = |expected: f64, actual: f64, detail: String| Violation {
        invariant: "flow-identity",
        event: end.events,
        at: end.at,
        job: None,
        expected,
        actual,
        policy: end.policy.clone(),
        path: end.path,
        detail,
    };
    let tol = REL_TOL * end.total_flow.abs().max(1.0);
    // The identity only closes once every alive job has completed.
    if end.alive_left == 0 {
        if end.completed != end.admitted {
            return Some(broken(
                end.admitted as f64,
                end.completed as f64,
                format!(
                    "{} jobs admitted but {} completed",
                    end.admitted, end.completed
                ),
            ));
        }
        if (end.total_flow - end.alive_integral).abs() > tol {
            return Some(broken(
                end.alive_integral,
                end.total_flow,
                format!(
                    "flow-time identity broken: Σ F_j = {} but ∫|A(t)|dt = {}",
                    end.total_flow, end.alive_integral
                ),
            ));
        }
    }
    (end.fractional_flow > end.total_flow + tol).then(|| {
        broken(
            end.total_flow,
            end.fractional_flow,
            format!(
                "fractional flow {} exceeds integral flow {}",
                end.fractional_flow, end.total_flow
            ),
        )
    })
}

/// Summary of a completed audit, attached to
/// [`crate::RunOutcome::audit`].
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// The level the audit ran at.
    pub level: AuditLevel,
    /// Number of per-event frames checked.
    pub frames: u64,
    /// Whether the end-of-run identities were checked.
    pub final_checked: bool,
    /// Names of the checked invariants ([`INVARIANTS`]).
    pub invariants: Vec<&'static str>,
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "audit {} ✓ ({} frames, {} invariants{})",
            self.level.name(),
            self.frames,
            self.invariants.len(),
            if self.final_checked {
                ", final identities"
            } else {
                ""
            }
        )
    }
}

/// Checks a stream of frames and a final accounting against the
/// [`INVARIANTS`], failing fast on the first violation.
pub struct Auditor {
    level: AuditLevel,
    /// The work-drain pairing's table, retained across frames.
    drain: WorkDrainConsistency,
    prev: Option<AuditFrame>,
    /// The frame retired by the last check, lent back to the producer by
    /// [`Auditor::take_spare`] so frames reuse their buffers.
    spare: Option<AuditFrame>,
    frames: u64,
    final_checked: bool,
}

impl std::fmt::Debug for Auditor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Auditor")
            .field("level", &self.level)
            .field("frames", &self.frames)
            .finish()
    }
}

impl Auditor {
    /// Creates an auditor at `level`.
    pub fn new(level: AuditLevel) -> Self {
        Self {
            level,
            drain: WorkDrainConsistency::default(),
            prev: None,
            spare: None,
            frames: 0,
            final_checked: false,
        }
    }

    /// The audit level.
    pub fn level(&self) -> AuditLevel {
        self.level
    }

    /// Whether the frame for event index `event` should be captured (and
    /// handed to [`Auditor::check_frame`]).
    pub fn wants_frame(&self, event: u64) -> bool {
        self.level.wants_frame(event)
    }

    /// The policy string and job vector of the frame retired by the last
    /// check, emptied, for the producer to refill into its next frame (a
    /// fresh pair before two frames have been checked). After warm-up a
    /// producer that builds every frame from these allocates nothing.
    pub fn take_spare(&mut self) -> (String, Vec<FrameJob>) {
        match self.spare.take() {
            Some(AuditFrame {
                mut policy,
                mut jobs,
                ..
            }) => {
                policy.clear();
                jobs.clear();
                (policy, jobs)
            }
            None => (String::new(), Vec::new()),
        }
    }

    /// Checks one frame against every per-frame law in one `O(alive)`
    /// pass ([`INVARIANTS`]). Fails with the first violation in that
    /// order.
    pub fn check_frame(&mut self, frame: AuditFrame) -> Result<(), SimError> {
        let found = first_violation(&mut self.drain, self.prev.as_ref(), &frame);
        self.frames += 1;
        self.spare = self.prev.replace(frame);
        match found {
            Some(v) => Err(SimError::AuditFailed {
                violation: Box::new(v),
            }),
            None => Ok(()),
        }
    }

    /// Checks the end-of-run accounting identities.
    pub fn check_final(&mut self, end: &FinalAccounting) -> Result<(), SimError> {
        self.final_checked = true;
        match final_violation(end) {
            Some(v) => Err(SimError::AuditFailed {
                violation: Box::new(v),
            }),
            None => Ok(()),
        }
    }

    /// The report of everything checked so far.
    pub fn report(&self) -> AuditReport {
        AuditReport {
            level: self.level,
            frames: self.frames,
            final_checked: self.final_checked,
            invariants: INVARIANTS.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(event: u64, t: f64, jobs: Vec<FrameJob>) -> AuditFrame {
        AuditFrame {
            event,
            t,
            m: 4.0,
            path: Some(EnginePath::Exhaustive),
            policy: "test".to_string(),
            jobs,
            srpt_running: None,
            srpt_ordered_policy: false,
            latest_arrivals_policy: false,
        }
    }

    fn job(id: u64, remaining: f64, share: f64, rate: f64) -> FrameJob {
        FrameJob {
            id: JobId(id),
            slot: id as usize,
            release: 0.0,
            size: 10.0,
            remaining,
            share,
            rate,
        }
    }

    #[test]
    fn audit_level_parsing_and_sampling() {
        assert_eq!("strict".parse::<AuditLevel>().unwrap(), AuditLevel::Strict);
        assert_eq!("off".parse::<AuditLevel>().unwrap(), AuditLevel::Off);
        assert_eq!(
            "sampled".parse::<AuditLevel>().unwrap(),
            AuditLevel::Sampled(DEFAULT_SAMPLE_STRIDE)
        );
        assert_eq!(
            "sampled:10".parse::<AuditLevel>().unwrap(),
            AuditLevel::Sampled(10)
        );
        assert!("sampled:1".parse::<AuditLevel>().is_err());
        assert!("bogus".parse::<AuditLevel>().is_err());
        // Sampled captures event pairs so the drain check stays possible.
        let lvl = AuditLevel::Sampled(10);
        assert!(lvl.wants_frame(0) && lvl.wants_frame(1));
        assert!(!lvl.wants_frame(2) && !lvl.wants_frame(9));
        assert!(lvl.wants_frame(10) && lvl.wants_frame(11));
        assert!(AuditLevel::Strict.wants_frame(7));
        assert!(!AuditLevel::Final.wants_frame(0));
        assert!(!AuditLevel::Off.wants_frame(0));
    }

    #[test]
    fn capacity_violation_is_structured() {
        let mut aud = Auditor::new(AuditLevel::Strict);
        let err = aud
            .check_frame(frame(
                3,
                1.5,
                vec![job(0, 5.0, 3.0, 3.0), job(1, 6.0, 3.0, 3.0)],
            ))
            .unwrap_err();
        let SimError::AuditFailed { violation } = err else {
            panic!("wrong error kind")
        };
        assert_eq!(violation.invariant, "capacity");
        assert_eq!(violation.event, 3);
        assert_eq!(violation.at, 1.5);
        assert!((violation.actual - 6.0).abs() < 1e-12);
        assert!((violation.expected - 4.0).abs() < 1e-12);
        assert!(violation.to_string().contains("capacity"), "{violation}");
    }

    /// The previous-frame lookup by id range: a table hit, a present id
    /// under a wrong slot (found by the search), and ids below, above and
    /// inside the previous frame's range that it does not hold.
    #[test]
    fn pairing_answers_ids_outside_the_previous_range_without_an_entry() {
        let prev = frame(4, 1.0, vec![job(5, 3.0, 1.0, 1.0), job(9, 4.0, 1.0, 1.0)]);
        let cur = frame(5, 2.0, Vec::new());
        let mut drain = WorkDrainConsistency::default();
        let pairing = drain
            .index(Some(&prev), &cur)
            .expect("adjacent frames pair");
        assert_eq!(pairing.ids, Some((JobId(5), JobId(9))));
        let found = |id: u64, slot: usize| {
            let j = FrameJob {
                slot,
                ..job(id, 1.0, 1.0, 1.0)
            };
            pairing.previous(&j).map(|p| p.id.0)
        };
        assert_eq!(found(9, 9), Some(9), "table hit");
        assert_eq!(found(9, 2), Some(9), "present id under another slot");
        assert_eq!(found(3, 3), None, "id below the range");
        assert_eq!(
            found(12, 5),
            None,
            "id above the range, slot of another job"
        );
        assert_eq!(found(7, 7), None, "absent id inside the range");
        let empty = frame(4, 1.0, Vec::new());
        let pairing = drain
            .index(Some(&empty), &cur)
            .expect("adjacent frames pair");
        assert_eq!(pairing.previous(&job(5, 1.0, 1.0, 1.0)).map(|p| p.id), None);
    }

    #[test]
    fn drain_consistency_flags_teleporting_work() {
        let mut aud = Auditor::new(AuditLevel::Strict);
        aud.check_frame(frame(0, 0.0, vec![job(0, 10.0, 1.0, 1.0)]))
            .unwrap();
        // After dt = 2 at rate 1 the job must hold 8, not 5.
        let err = aud
            .check_frame(frame(1, 2.0, vec![job(0, 5.0, 1.0, 1.0)]))
            .unwrap_err();
        let SimError::AuditFailed { violation } = err else {
            panic!("wrong error kind")
        };
        assert_eq!(violation.invariant, "work-drain");
        assert_eq!(violation.job, Some(JobId(0)));
        assert!((violation.expected - 8.0).abs() < 1e-9);
        assert!((violation.actual - 5.0).abs() < 1e-12);
    }

    #[test]
    fn drain_check_skips_sampled_gaps() {
        let mut aud = Auditor::new(AuditLevel::Sampled(8));
        aud.check_frame(frame(0, 0.0, vec![job(0, 10.0, 1.0, 1.0)]))
            .unwrap();
        // Event 8 is far from event 0: the interval spans many decisions,
        // so the drain invariant must not fire.
        aud.check_frame(frame(8, 2.0, vec![job(0, 3.0, 1.0, 1.0)]))
            .unwrap();
    }

    /// An incremental-path frame listing its running partition (`k`
    /// jobs) and then its queue, each in the heap order given.
    fn partitioned(running: &[f64], queued: &[f64]) -> AuditFrame {
        let jobs = running
            .iter()
            .map(|&r| (r, 1.0))
            .chain(queued.iter().map(|&r| (r, 0.0)))
            .enumerate()
            .map(|(id, (r, share))| job(id as u64, r, share, share))
            .collect();
        AuditFrame {
            srpt_running: Some(running.len()),
            ..frame(0, 0.0, jobs)
        }
    }

    #[test]
    fn srpt_order_passes_a_heap_ordered_frame_with_a_valid_partition() {
        // Neither partition is sorted, but no queued job is shorter than
        // a running one.
        let f = partitioned(&[1.0, 3.0, 2.0], &[3.5, 9.0, 4.0]);
        Auditor::new(AuditLevel::Strict).check_frame(f).unwrap();
    }

    #[test]
    fn srpt_order_flags_and_names_a_queued_job_shorter_than_a_running_one() {
        // Job 4 (remaining 4) waits while job 1 (remaining 6) runs; job 3
        // (remaining 5) is shorter too, but SRPT order names job 4 first.
        let f = partitioned(&[1.0, 6.0], &[7.0, 5.0, 4.0]);
        let err = Auditor::new(AuditLevel::Strict).check_frame(f).unwrap_err();
        let SimError::AuditFailed { violation } = err else {
            panic!("wrong error kind")
        };
        assert_eq!(violation.invariant, "srpt-order");
        assert_eq!(violation.job, Some(JobId(4)));
        assert_eq!(violation.expected, 6.0);
        assert_eq!(violation.actual, 4.0);
        let follows = format!("follows job {}", JobId(1));
        assert!(violation.detail.contains(&follows), "{}", violation.detail);
    }

    #[test]
    fn srpt_order_passes_an_exact_tie_across_the_boundary() {
        let f = partitioned(&[5.0, 2.0], &[8.0, 5.0]);
        Auditor::new(AuditLevel::Strict).check_frame(f).unwrap();
    }

    #[test]
    fn srpt_prefix_flags_starved_short_job() {
        let mut f = frame(2, 1.0, vec![job(0, 9.0, 4.0, 4.0), job(1, 2.0, 0.0, 0.0)]);
        f.srpt_ordered_policy = true;
        let err = Auditor::new(AuditLevel::Strict).check_frame(f).unwrap_err();
        let SimError::AuditFailed { violation } = err else {
            panic!("wrong error kind")
        };
        assert_eq!(violation.invariant, "srpt-prefix");
        assert_eq!(violation.job, Some(JobId(1)));
        assert!(violation.detail.contains("starved"), "{}", violation.detail);
    }

    #[test]
    fn flow_identity_checked_at_final() {
        let mut aud = Auditor::new(AuditLevel::Final);
        let mut end = FinalAccounting {
            total_flow: 10.0,
            alive_integral: 10.0 + 1e-9,
            fractional_flow: 6.0,
            completed: 3,
            admitted: 3,
            alive_left: 0,
            at: 7.0,
            events: 9,
            policy: "test".to_string(),
            path: Some(EnginePath::Exhaustive),
        };
        aud.check_final(&end).unwrap();
        assert!(aud.report().final_checked);
        end.alive_integral = 12.0;
        let err = Auditor::new(AuditLevel::Final)
            .check_final(&end)
            .unwrap_err();
        let SimError::AuditFailed { violation } = err else {
            panic!("wrong error kind")
        };
        assert_eq!(violation.invariant, "flow-identity");
    }

    #[test]
    fn retired_frames_are_lent_back_emptied() {
        let mut aud = Auditor::new(AuditLevel::Strict);
        let (policy, jobs) = aud.take_spare();
        assert!(policy.is_empty() && jobs.capacity() == 0);
        let three = vec![
            job(0, 9.0, 1.0, 1.0),
            job(1, 8.0, 1.0, 1.0),
            job(2, 7.0, 0.0, 0.0),
        ];
        aud.check_frame(frame(0, 0.0, three)).unwrap();
        aud.check_frame(frame(1, 0.0, vec![])).unwrap();
        // Frame 0 is retired by the second check and comes back empty,
        // with its buffers.
        let (policy, jobs) = aud.take_spare();
        assert!(policy.is_empty() && policy.capacity() >= "test".len());
        assert!(jobs.is_empty() && jobs.capacity() >= 3);
        let (_, jobs) = aud.take_spare();
        assert_eq!(jobs.capacity(), 0, "a spare is lent once");
    }

    #[test]
    fn report_counts_frames() {
        let mut aud = Auditor::new(AuditLevel::Strict);
        aud.check_frame(frame(0, 0.0, vec![])).unwrap();
        aud.check_frame(frame(1, 1.0, vec![])).unwrap();
        let report = aud.report();
        assert_eq!(report.frames, 2);
        assert!(!report.final_checked);
        assert!(report.invariants.contains(&"capacity"));
        assert!(report.to_string().contains("2 frames"), "{report}");
    }
}
