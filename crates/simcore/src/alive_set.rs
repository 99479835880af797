//! The seam between the event loop and its alive structures: one per
//! allocation shape of the paper's policies, each behind [`AliveSet`] —
//! [`AliveList`] (any policy, re-decided in full at every event: the
//! exhaustive path), [`SrptSet`] (SRPT prefixes: the incremental path),
//! [`LevelStack`] (least-elapsed levels) and [`ArrivalSuffix`]
//! (latest-arrival suffixes). The event loop is monomorphized per
//! structure (`Engine::run_events`), and a run state holds one of each
//! ([`AliveSets`]) so that buffers donated across runs on different paths
//! keep every structure's capacity.

use parsched_speedup::EPS;

use crate::alive_list::AliveList;
use crate::arena::{JobArena, ProfileMemo};
use crate::arrival_suffix::ArrivalSuffix;
use crate::error::SimError;
use crate::job::{JobSpec, Time, Work};
use crate::kahan::NeumaierSum;
use crate::level_stack::LevelStack;
use crate::observer::Shares;
use crate::policy::{AliveJob, Policy};
use crate::snapshot::{SlotCheck, Snapshot};
use crate::source::Walk;
use crate::srpt_set::SrptSet;

/// How the current constant-allocation interval drains.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) enum IntervalKind {
    /// No alive jobs (or no interval decided yet).
    #[default]
    Idle,
    /// Every running job drains at the same `rate`; the drain offset
    /// advances in `O(1)`.
    Uniform { rate: f64 },
    /// Heterogeneous per-job rates; drained by an `O(k log k)` scan.
    Scan,
}

/// What a refresh schedules for the interval starting now, both absolute.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Schedule {
    /// The interval's next completion, when the structure precomputes it.
    pub(crate) completion: Option<Time>,
    /// The re-decision deadline: the exhaustive path's quantum, or the
    /// level path's catch-up of the served level with the one below.
    pub(crate) deadline: Option<Time>,
}

/// What an integration leaves for the completion pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Drained {
    /// No job can be due: the pass is skipped.
    NoneDue,
    /// Jobs may be due.
    MaybeDue,
    /// Jobs may be due, and the drain may have reordered the structure:
    /// the allocation must be re-decided even if none completes.
    Reordered,
}

/// What a refresh reads and writes besides the structure itself.
pub(crate) struct Refresh<'a> {
    pub(crate) jobs: &'a mut JobArena,
    /// The per-`n` profile memo (incremental and arrival-suffix paths).
    pub(crate) memo: &'a mut ProfileMemo,
    pub(crate) policy: &'a mut dyn Policy,
    pub(crate) policy_name: &'a str,
    pub(crate) now: Time,
    pub(crate) m: f64,
    pub(crate) speed: f64,
}

/// The four alive structures of a run state, one per execution path; a
/// run uses the one of its path and leaves the others reset.
#[derive(Debug, Default)]
pub(crate) struct AliveSets {
    pub(crate) list: AliveList,
    pub(crate) srpt: SrptSet,
    pub(crate) levels: LevelStack,
    pub(crate) suffix: ArrivalSuffix,
}

impl AliveSets {
    /// Resets every structure, retaining its buffers.
    pub(crate) fn reset(&mut self) {
        self.list.reset();
        self.srpt.reset();
        self.levels.reset();
        self.suffix.reset();
    }
}

/// One execution path's alive structure, as the event loop drives it.
/// Every operation indexes the structure's jobs by arena slot, in the
/// engine's job arena (or its spec lane).
pub(crate) trait AliveSet {
    /// This structure among a run state's four.
    fn of(sets: &AliveSets) -> &Self;
    fn of_mut(sets: &mut AliveSets) -> &mut Self;

    fn len(&self) -> usize;

    /// Clears all state for a fresh run, retaining every buffer.
    fn reset(&mut self);

    /// Admits the job in arena slot `idx`, whose lanes hold its spec.
    fn admit(&mut self, idx: usize, remaining: Work, jobs: &mut JobArena);

    /// Decides the allocation for the interval starting now and returns
    /// its schedule; an invalid answer of the policy ends the run.
    fn refresh(&mut self, cx: Refresh<'_>) -> Result<Schedule, SimError>;

    /// The interval's next completion: what the refresh `scheduled`,
    /// unless the structure recomputes it.
    fn next_completion(
        &mut self,
        now: Time,
        _: &JobArena,
        scheduled: Option<Time>,
    ) -> Option<Time> {
        scheduled.map(|t| t.max(now))
    }

    /// Drains the interval `[t − dt, t]` at the decided allocation, folding
    /// its fractional flow into `frac_flow`.
    fn integrate(
        &mut self,
        dt: f64,
        t: Time,
        jobs: &mut JobArena,
        speed: f64,
        frac_flow: &mut NeumaierSum,
    ) -> Drained;

    /// Detaches every job due at `now` and hands each to `finish`, in
    /// completion order; returns whether any was. The level path drops
    /// its catch-up `deadline` when the served level empties.
    fn complete_due(
        &mut self,
        now: Time,
        jobs: &mut JobArena,
        speed: f64,
        deadline: &mut Option<Time>,
        finish: impl FnMut(&mut JobArena, usize),
    ) -> bool;

    /// The re-decision `deadline` has passed; the next refresh schedules
    /// a new one.
    fn expire(&mut self, _specs: &[JobSpec], _deadline: &mut Option<Time>) {}

    /// Remaining work of the alive job in arena slot `idx`.
    fn remaining(&self, idx: usize, jobs: &JobArena) -> Work;

    /// Visits the alive set as `(arena slot, remaining)` in the
    /// structure's order: the list's, the SRPT set's heaps as stored
    /// (running partition first, no order promised within either), the
    /// served level first, or oldest arrival first.
    fn walk(&self, jobs: &JobArena, f: impl FnMut(usize, Work));

    /// Visits the alive set as `(arena slot, remaining, share, rate)` of
    /// the decided allocation, in no promised order within a partition;
    /// returns the length of the SRPT set's running partition, which
    /// leads (`None` off the incremental path).
    fn audit(
        &self,
        jobs: &JobArena,
        speed: f64,
        f: impl FnMut(usize, Work, f64, f64),
    ) -> Option<usize>;

    /// Writes the structure's part of a snapshot (with its interval,
    /// profile and path flag where it keeps them) into `snap`, whose
    /// parts start out as an idle, empty run's.
    fn snapshot(&self, specs: &[JobSpec], snap: &mut Snapshot);

    /// Checks the structure's part of `snap` before any restore: each
    /// slot it holds passes through `slots`, and a part may hold jobs
    /// only on its own path.
    fn check(snap: &Snapshot, slots: &mut SlotCheck<'_>) -> Result<(), String>;

    /// Rebuilds the structure from its checked part of `snap`; the arena
    /// is already restored.
    fn restore(&mut self, snap: &Snapshot, jobs: &mut JobArena, speed: f64);
}

/// A run's alive structure over its arena, behind the engine's
/// [`crate::SystemView`] and an observed refresh's `Allocation`.
pub(crate) struct SetWalk<'a, S>(pub(crate) &'a S, pub(crate) &'a JobArena);

impl<S: AliveSet> Walk for SetWalk<'_, S> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn walk(&self, f: &mut dyn FnMut(&AliveJob<'_>)) {
        let jobs = self.1;
        self.0.walk(jobs, |idx, remaining| {
            let spec = &jobs.specs[idx];
            f(&AliveJob { spec, remaining });
        });
    }
}

impl<S: AliveSet> Shares for SetWalk<'_, S> {
    /// Walks [`AliveSet::audit`]; it drops the rates, so any speed serves.
    fn for_each(&self, f: &mut dyn FnMut(&AliveJob<'_>, f64)) {
        let jobs = self.1;
        self.0.audit(jobs, 1.0, |idx, remaining, share, _| {
            let spec = &jobs.specs[idx];
            f(&AliveJob { spec, remaining }, share);
        });
    }
}

/// Completion tolerance for a job that was draining at `rate` with the
/// clock at `now`: the size-relative snap, widened by the largest work
/// sliver whose drain time sits below the clock's float resolution.
/// Such a sliver can never advance the clock (`now + rem/rate == now`
/// in f64), so without this term the event loop would spin on
/// zero-length events once `now` grows past ~`EPS / ulp` ≈ 4·10⁶ —
/// multi-million-job streaming runs reach that within the first few
/// million completions.
#[inline]
pub(crate) fn completion_tolerance(size: Work, rate: f64, now: Time) -> f64 {
    let clock_ulp = now.abs().max(1.0) * f64::EPSILON;
    (EPS * size.max(1.0)).max(rate * 4.0 * clock_ulp)
}

/// The check every path applies to a policy's allocation, with one error
/// taxonomy: the first invalid share found (`invalid`), else a `total`
/// over the `m` processors beyond rounding slack, naming the `policy`.
#[inline]
pub(crate) fn check_allocation(
    at: Time,
    invalid: Option<f64>,
    total: f64,
    m: f64,
    policy: &str,
) -> Result<(), SimError> {
    if let Some(share) = invalid {
        return Err(SimError::InvalidShare {
            at,
            share,
            policy: policy.into(),
        });
    }
    if total > m * (1.0 + 1e-9) + EPS {
        return Err(SimError::InfeasibleAllocation {
            at,
            requested: total,
            available: m,
            policy: policy.into(),
        });
    }
    Ok(())
}

/// Folds `t` into the running minimum `next`, keeping the first of equals
/// (the strict `<` of every next-event fold in the engine).
#[inline]
pub(crate) fn fold_earliest(next: &mut Option<Time>, t: Time) {
    if next.is_none_or(|n| t < n) {
        *next = Some(t);
    }
}

/// Hands a borrowed-view buffer's capacity back to its `'static` slot in
/// its structure (the exhaustive list's alive-job views and the level
/// path's curve views).
/// The buffer is emptied, so the in-place collect into the same element
/// type at another lifetime (same size and alignment) keeps its
/// allocation; `tests/engine_zero_alloc.rs` audits that it does.
pub(crate) fn recycle_views<T, U>(mut views: Vec<T>) -> Vec<U> {
    views.clear();
    // lint:allow(L007) in-place collect of an emptied Vec into the same element layout keeps its allocation (audited by tests/engine_zero_alloc.rs)
    views.into_iter().map_while(|_| None).collect()
}
