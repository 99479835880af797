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
//! alive set with its current allocation — and drives a suite of
//! [`Invariant`]s over them. Frames come from two producers:
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
    /// Every event is checked, plus the end-of-run identities. This makes
    /// audited events `O(alive)` again, on the incremental path too —
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

/// Which engine execution path produced a frame (carried into violations
/// so a failure names the code path that broke the law).
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
    /// Offline replay of a recorded trace.
    Replay,
}

impl std::fmt::Display for EnginePath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EnginePath::Exhaustive => "exhaustive",
            EnginePath::Incremental => "incremental",
            EnginePath::Levels => "levels",
            EnginePath::ArrivalSuffix => "arrival-suffix",
            EnginePath::Replay => "replay",
        })
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
    /// Which engine path was executing.
    pub path: EnginePath,
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
            self.path,
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
    /// Which execution path produced the frame.
    pub path: EnginePath,
    /// Active policy name.
    pub policy: String,
    /// The alive jobs. On the incremental path (and only there) the order
    /// is the engine's maintained SRPT order, which
    /// [`SrptOrderPreserved`] checks; other producers make no order
    /// promise.
    pub jobs: Vec<FrameJob>,
    /// Whether `jobs` is claimed to be in SRPT order.
    pub srpt_ordered_iteration: bool,
    /// Whether the active policy declares [`crate::Policy::srpt_ordered`]
    /// (gates the [`SrptPrefixShares`] check; e.g. EQUI does not claim
    /// it — its allocation is order-agnostic).
    pub srpt_ordered_policy: bool,
    /// Whether the active policy declares
    /// [`crate::AllocationStability::LatestArrivals`] (gates the
    /// [`LatestArrivalShares`] check).
    pub latest_arrivals_policy: bool,
}

/// End-of-run accounting handed to [`Invariant::check_final`].
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
    /// Which execution path ran.
    pub path: EnginePath,
}

/// A runtime-checkable law of the simulation.
///
/// Implementations are stateful (the auditor keeps them across the whole
/// run) but the built-in suite only ever compares *consecutive* frames,
/// which the auditor hands over explicitly. `Send`, so an audited engine
/// can be parked (see [`crate::ParkedEngine`]) and resumed on another
/// thread.
pub trait Invariant: Send {
    /// Stable identifier used in violations and reports.
    fn name(&self) -> &'static str;

    /// Checks one frame (with the previous captured frame, if any). Push
    /// any violations into `out`.
    fn check_frame(
        &mut self,
        prev: Option<&AuditFrame>,
        cur: &AuditFrame,
        out: &mut Vec<Violation>,
    ) {
        let _ = (prev, cur, out);
    }

    /// Checks the end-of-run accounting.
    fn check_final(&mut self, end: &FinalAccounting, out: &mut Vec<Violation>) {
        let _ = (end, out);
    }
}

fn violation(cur: &AuditFrame, invariant: &'static str) -> Violation {
    Violation {
        invariant,
        event: cur.event,
        at: cur.t,
        job: None,
        expected: 0.0,
        actual: 0.0,
        policy: cur.policy.clone(),
        path: cur.path,
        detail: String::new(),
    }
}

/// Capacity conservation: every share is finite and non-negative and the
/// shares sum to at most `m` (`Σ_j x_j ≤ m + ε`).
#[derive(Debug, Default)]
pub struct CapacityConservation;

impl Invariant for CapacityConservation {
    fn name(&self) -> &'static str {
        "capacity"
    }

    fn check_frame(
        &mut self,
        _prev: Option<&AuditFrame>,
        cur: &AuditFrame,
        out: &mut Vec<Violation>,
    ) {
        let mut total = 0.0;
        for j in &cur.jobs {
            if !j.share.is_finite() || j.share < -EPS {
                out.push(Violation {
                    job: Some(j.id),
                    expected: 0.0,
                    actual: j.share,
                    detail: format!(
                        "share of job {} is {}, not a finite value ≥ 0",
                        j.id, j.share
                    ),
                    ..violation(cur, self.name())
                });
            }
            total += j.share.max(0.0);
        }
        let cap = cur.m * (1.0 + 1e-9) + EPS;
        if total > cap {
            out.push(Violation {
                expected: cur.m,
                actual: total,
                detail: format!("allocated {} of {} processors", total, cur.m),
                ..violation(cur, self.name())
            });
        }
    }
}

/// Remaining work stays within `[0, p_j]` (up to tolerance) while a job is
/// alive.
#[derive(Debug, Default)]
pub struct NonNegativeRemaining;

impl Invariant for NonNegativeRemaining {
    fn name(&self) -> &'static str {
        "non-negative-remaining"
    }

    fn check_frame(
        &mut self,
        _prev: Option<&AuditFrame>,
        cur: &AuditFrame,
        out: &mut Vec<Violation>,
    ) {
        for j in &cur.jobs {
            let tol = EPS * j.size.max(1.0);
            if !j.remaining.is_finite() || j.remaining < -tol || j.remaining > j.size + tol {
                out.push(Violation {
                    job: Some(j.id),
                    expected: j.size,
                    actual: j.remaining,
                    detail: format!(
                        "remaining work {} of job {} outside [0, {}]",
                        j.remaining, j.id, j.size
                    ),
                    ..violation(cur, self.name())
                });
            }
        }
    }
}

/// The event clock never runs backwards and event indices strictly
/// increase.
#[derive(Debug, Default)]
pub struct MonotoneClock;

impl Invariant for MonotoneClock {
    fn name(&self) -> &'static str {
        "monotone-clock"
    }

    fn check_frame(
        &mut self,
        prev: Option<&AuditFrame>,
        cur: &AuditFrame,
        out: &mut Vec<Violation>,
    ) {
        let Some(prev) = prev else { return };
        if cur.t < prev.t - EPS * prev.t.abs().max(1.0) {
            out.push(Violation {
                expected: prev.t,
                actual: cur.t,
                detail: format!("time went backwards: {} after {}", cur.t, prev.t),
                ..violation(cur, self.name())
            });
        }
        if cur.event <= prev.event {
            out.push(Violation {
                expected: prev.event as f64 + 1.0,
                actual: cur.event as f64,
                detail: format!(
                    "event index did not advance: {} after {}",
                    cur.event, prev.event
                ),
                ..violation(cur, self.name())
            });
        }
    }
}

/// Widest slot range the [`WorkDrainConsistency`] position table covers;
/// previous-frame jobs whose slot lies further above the frame's lowest
/// slot are found by id search instead.
const SLOT_WINDOW: usize = 1 << 20;

/// Fill for new cells of the [`WorkDrainConsistency`] position table
/// (never a valid position).
const NO_POS: u32 = u32::MAX;

/// Work drains exactly at the speed-up curve: between two *consecutive*
/// events, `p_j(t₁) = max(0, p_j(t₀) − speed·Γ_j(x_j)·(t₁ − t₀))` for every
/// job alive in both frames.
///
/// A job is paired with the previous frame's entry of the same id. The
/// lookup goes through a retained table from slot (relative to the
/// previous frame's lowest slot) to previous-frame position, written for
/// the previous frame's jobs at each check, so a frame costs `O(alive)`
/// whatever the arena size. A table hit counts only when its id matches;
/// any miss falls back to searching the previous frame by id, last match
/// first. Frames list distinct ids (the engine rejects a duplicate alive
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

impl Invariant for WorkDrainConsistency {
    fn name(&self) -> &'static str {
        "work-drain"
    }

    fn check_frame(
        &mut self,
        prev: Option<&AuditFrame>,
        cur: &AuditFrame,
        out: &mut Vec<Violation>,
    ) {
        let Some(prev) = prev else { return };
        // Only adjacent events share one constant-allocation interval; a
        // sampled gap spans many reallocation decisions.
        if cur.event != prev.event + 1 {
            return;
        }
        let dt = (cur.t - prev.t).max(0.0);
        let base = prev.jobs.iter().map(|p| p.slot).min().unwrap_or(0);
        for (i, p) in prev.jobs.iter().enumerate() {
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
        for j in &cur.jobs {
            let hit = window_cell(base, j.slot)
                .and_then(|k| self.pos.get(k))
                .and_then(|&i| prev.jobs.get(i as usize))
                .filter(|p| p.id == j.id);
            let Some(p) = hit.or_else(|| prev.jobs.iter().rev().find(|p| p.id == j.id)) else {
                continue;
            };
            let expected = (p.remaining - p.rate * dt).max(0.0);
            let tol = REL_TOL * j.size.max(1.0);
            if (j.remaining - expected).abs() > tol {
                out.push(Violation {
                    job: Some(j.id),
                    expected,
                    actual: j.remaining,
                    detail: format!(
                        "job {} drained to {} over dt={} at rate {}, speed-up curve predicts {}",
                        j.id, j.remaining, dt, p.rate, expected
                    ),
                    ..violation(cur, self.name())
                });
            }
        }
    }
}

/// On the incremental path the engine's maintained alive order must be the
/// SRPT order: remaining work is non-decreasing along the iteration.
#[derive(Debug, Default)]
pub struct SrptOrderPreserved;

impl Invariant for SrptOrderPreserved {
    fn name(&self) -> &'static str {
        "srpt-order"
    }

    fn check_frame(
        &mut self,
        _prev: Option<&AuditFrame>,
        cur: &AuditFrame,
        out: &mut Vec<Violation>,
    ) {
        if !cur.srpt_ordered_iteration {
            return;
        }
        for w in cur.jobs.windows(2) {
            let tol = EPS * w[0].remaining.abs().max(w[1].remaining.abs()).max(1.0);
            if w[1].remaining < w[0].remaining - tol {
                out.push(Violation {
                    job: Some(w[1].id),
                    expected: w[0].remaining,
                    actual: w[1].remaining,
                    detail: format!(
                        "alive set left SRPT order: job {} (remaining {}) follows job {} (remaining {})",
                        w[1].id, w[1].remaining, w[0].id, w[0].remaining
                    ),
                    ..violation(cur, self.name())
                });
            }
        }
    }
}

/// For policies that declare [`crate::Policy::srpt_ordered`], the
/// scheduled set must be a *prefix of the SRPT order* with one common
/// share: no zero-share job may have less remaining work than a scheduled
/// job, and all scheduled jobs receive the same share.
#[derive(Debug, Default)]
pub struct SrptPrefixShares;

impl Invariant for SrptPrefixShares {
    fn name(&self) -> &'static str {
        "srpt-prefix"
    }

    fn check_frame(
        &mut self,
        _prev: Option<&AuditFrame>,
        cur: &AuditFrame,
        out: &mut Vec<Violation>,
    ) {
        if !cur.srpt_ordered_policy {
            return;
        }
        let mut max_scheduled: Option<&FrameJob> = None;
        let mut share: Option<f64> = None;
        for j in cur.jobs.iter().filter(|j| j.share > EPS) {
            if max_scheduled.is_none_or(|s| j.remaining > s.remaining) {
                max_scheduled = Some(j);
            }
            match share {
                None => share = Some(j.share),
                Some(s) if (j.share - s).abs() > EPS * s.max(1.0) => {
                    out.push(Violation {
                        job: Some(j.id),
                        expected: s,
                        actual: j.share,
                        detail: format!(
                            "scheduled jobs do not share equally: job {} holds {}, others hold {}",
                            j.id, j.share, s
                        ),
                        ..violation(cur, self.name())
                    });
                }
                Some(_) => {}
            }
        }
        let Some(max_scheduled) = max_scheduled else {
            return;
        };
        for j in cur.jobs.iter().filter(|j| j.share <= EPS) {
            let tol = EPS
                * j.remaining
                    .abs()
                    .max(max_scheduled.remaining.abs())
                    .max(1.0);
            if j.remaining < max_scheduled.remaining - tol {
                out.push(Violation {
                    job: Some(j.id),
                    expected: max_scheduled.remaining,
                    actual: j.remaining,
                    detail: format!(
                        "scheduled set is not an SRPT prefix: job {} (remaining {}) is starved while job {} (remaining {}) runs",
                        j.id, j.remaining, max_scheduled.id, max_scheduled.remaining
                    ),
                    ..violation(cur, self.name())
                });
            }
        }
    }
}

/// For policies that declare
/// [`crate::AllocationStability::LatestArrivals`], the scheduled set must
/// be a *suffix of the arrival order* with one common share: no zero-share
/// job may arrive after a scheduled job in `(release, id)` order, and all
/// scheduled jobs receive the same share. It reads only the frame's
/// releases, ids and shares, so it checks the arrival-suffix path and the
/// exhaustive path alike.
#[derive(Debug, Default)]
pub struct LatestArrivalShares;

impl Invariant for LatestArrivalShares {
    fn name(&self) -> &'static str {
        "arrival-suffix"
    }

    fn check_frame(
        &mut self,
        _prev: Option<&AuditFrame>,
        cur: &AuditFrame,
        out: &mut Vec<Violation>,
    ) {
        if !cur.latest_arrivals_policy {
            return;
        }
        let later = |a: &FrameJob, b: &FrameJob| {
            a.release.total_cmp(&b.release).then(a.id.cmp(&b.id)) == std::cmp::Ordering::Greater
        };
        let mut oldest_scheduled: Option<&FrameJob> = None;
        let mut share: Option<f64> = None;
        for j in cur.jobs.iter().filter(|j| j.share > EPS) {
            if oldest_scheduled.is_none_or(|s| later(s, j)) {
                oldest_scheduled = Some(j);
            }
            match share {
                None => share = Some(j.share),
                Some(s) if (j.share - s).abs() > EPS * s.max(1.0) => {
                    out.push(Violation {
                        job: Some(j.id),
                        expected: s,
                        actual: j.share,
                        detail: format!(
                            "scheduled jobs do not share equally: job {} holds {}, others hold {}",
                            j.id, j.share, s
                        ),
                        ..violation(cur, self.name())
                    });
                }
                Some(_) => {}
            }
        }
        let Some(oldest) = oldest_scheduled else {
            return;
        };
        if let Some(j) = cur
            .jobs
            .iter()
            .filter(|j| j.share <= EPS)
            .find(|j| later(j, oldest))
        {
            out.push(Violation {
                job: Some(j.id),
                expected: oldest.release,
                actual: j.release,
                detail: format!(
                    "scheduled set is not the latest arrivals: job {} (release {}) waits while \
                     older job {} (release {}) runs",
                    j.id, j.release, oldest.id, oldest.release
                ),
                ..violation(cur, self.name())
            });
        }
    }
}

/// End-of-run accounting: every admitted job completed, and the flow-time
/// identity `Σ_j F_j = ∫ |A(t)| dt` holds (with `fractional ≤ integral`).
#[derive(Debug, Default)]
pub struct FlowTimeIdentity;

impl Invariant for FlowTimeIdentity {
    fn name(&self) -> &'static str {
        "flow-identity"
    }

    fn check_final(&mut self, end: &FinalAccounting, out: &mut Vec<Violation>) {
        let base = Violation {
            invariant: self.name(),
            event: end.events,
            at: end.at,
            job: None,
            expected: 0.0,
            actual: 0.0,
            policy: end.policy.clone(),
            path: end.path,
            detail: String::new(),
        };
        if end.alive_left == 0 && end.completed != end.admitted {
            out.push(Violation {
                expected: end.admitted as f64,
                actual: end.completed as f64,
                detail: format!(
                    "{} jobs admitted but {} completed",
                    end.admitted, end.completed
                ),
                ..base.clone()
            });
        }
        // The identity only closes once every alive job has completed.
        if end.alive_left == 0 {
            let tol = REL_TOL * end.total_flow.abs().max(1.0);
            if (end.total_flow - end.alive_integral).abs() > tol {
                out.push(Violation {
                    expected: end.alive_integral,
                    actual: end.total_flow,
                    detail: format!(
                        "flow-time identity broken: Σ F_j = {} but ∫|A(t)|dt = {}",
                        end.total_flow, end.alive_integral
                    ),
                    ..base.clone()
                });
            }
        }
        let tol = REL_TOL * end.total_flow.abs().max(1.0);
        if end.fractional_flow > end.total_flow + tol {
            out.push(Violation {
                expected: end.total_flow,
                actual: end.fractional_flow,
                detail: format!(
                    "fractional flow {} exceeds integral flow {}",
                    end.fractional_flow, end.total_flow
                ),
                ..base
            });
        }
    }
}

/// The built-in invariant suite, in check order.
pub fn builtin_invariants() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(MonotoneClock),
        Box::new(CapacityConservation),
        Box::new(NonNegativeRemaining),
        Box::new(WorkDrainConsistency::default()),
        Box::new(SrptOrderPreserved),
        Box::new(SrptPrefixShares),
        Box::new(LatestArrivalShares),
        Box::new(FlowTimeIdentity),
    ]
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
    /// Names of the active invariants.
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

/// Drives a suite of [`Invariant`]s over a stream of frames and a final
/// accounting, failing fast on the first violation.
pub struct Auditor {
    level: AuditLevel,
    invariants: Vec<Box<dyn Invariant>>,
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
            .field("invariants", &self.invariants.len())
            .finish()
    }
}

impl Auditor {
    /// Creates an auditor running the [`builtin_invariants`] suite.
    pub fn new(level: AuditLevel) -> Self {
        Self::with_invariants(level, builtin_invariants())
    }

    /// Creates an auditor over a custom invariant suite.
    pub fn with_invariants(level: AuditLevel, invariants: Vec<Box<dyn Invariant>>) -> Self {
        Self {
            level,
            invariants,
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

    /// Checks one frame against the suite. Fails with the first (most
    /// severe by suite order) violation.
    pub fn check_frame(&mut self, frame: AuditFrame) -> Result<(), SimError> {
        let mut out = Vec::new();
        for inv in &mut self.invariants {
            inv.check_frame(self.prev.as_ref(), &frame, &mut out);
        }
        self.frames += 1;
        self.spare = self.prev.replace(frame);
        match out.into_iter().next() {
            Some(v) => Err(SimError::AuditFailed {
                violation: Box::new(v),
            }),
            None => Ok(()),
        }
    }

    /// Checks the end-of-run accounting identities.
    pub fn check_final(&mut self, end: &FinalAccounting) -> Result<(), SimError> {
        let mut out = Vec::new();
        for inv in &mut self.invariants {
            inv.check_final(end, &mut out);
        }
        self.final_checked = true;
        match out.into_iter().next() {
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
            invariants: self.invariants.iter().map(|i| i.name()).collect(),
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
            path: EnginePath::Exhaustive,
            policy: "test".to_string(),
            jobs,
            srpt_ordered_iteration: false,
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

    #[test]
    fn srpt_order_checked_only_when_claimed() {
        let jobs = vec![job(0, 9.0, 1.0, 1.0), job(1, 2.0, 1.0, 1.0)];
        let mut unordered = frame(0, 0.0, jobs.clone());
        Auditor::new(AuditLevel::Strict)
            .check_frame(unordered.clone())
            .unwrap();
        unordered.srpt_ordered_iteration = true;
        let err = Auditor::new(AuditLevel::Strict)
            .check_frame(unordered)
            .unwrap_err();
        let SimError::AuditFailed { violation } = err else {
            panic!("wrong error kind")
        };
        assert_eq!(violation.invariant, "srpt-order");
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
            path: EnginePath::Exhaustive,
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
