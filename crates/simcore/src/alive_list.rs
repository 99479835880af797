//! The alive set behind the engine's exhaustive path: a plain list of
//! arena slots, re-decided in full by [`Policy::assign`] at every event.
//!
//! `O(n)` per event, correct for arbitrary policies, and the differential
//! oracle for the three `O(log n)` structures
//! ([`crate::EngineConfig::with_full_reassign`]).
//!
//! [`Policy::assign`]: crate::Policy::assign

use parsched_speedup::EPS;

use crate::alive_set::{
    check_allocation, completion_tolerance, fold_earliest, recycle_views, AliveSet, AliveSets,
    Drained, Refresh, Schedule,
};
use crate::arena::JobArena;
use crate::error::SimError;
use crate::invariant::EnginePath;
use crate::job::{JobSpec, Time, Work};
use crate::kahan::NeumaierSum;
use crate::policy::{AliveJob, AllocationStability};
use crate::snapshot::{in_range, SlotCheck, Snapshot};

/// The exhaustive path's alive set with the allocation decided for it.
#[derive(Debug, Default)]
pub(crate) struct AliveList {
    /// Arena slots of the unfinished, released jobs.
    alive: Vec<usize>,
    /// Allocation for `alive[i]` (valid while the allocation is fresh).
    shares: Vec<f64>,
    /// Speed-adjusted drain rate of `alive[i]` (valid while the
    /// allocation is fresh).
    rates: Vec<f64>,
    /// The earliest `now + remaining/rate` over the list (`Some(None)`
    /// when nothing drains), folded by the refresh that set the rates so
    /// that the next-event choice need not sweep again. `None` once an
    /// integration has moved the clock or the remaining work it was
    /// computed from; the next-event choice then sweeps and caches it.
    // lint:allow(L009) derived from the clock, remaining work and rates that the snapshot does capture; restore drops it and the next decide sweeps again
    candidate: Option<Option<Time>>,
    /// The buffer behind each refresh's view of the list, empty between
    /// uses (see [`recycle_views`]).
    // lint:allow(L009) empty between events; it only lends its capacity to each view, so there is nothing to capture
    views: Vec<AliveJob<'static>>,
}

impl AliveList {
    /// The completion predicate for `alive[i]` at `now`.
    fn due(&self, i: usize, jobs: &JobArena, now: Time) -> bool {
        let idx = self.alive[i];
        jobs.remaining[idx] <= completion_tolerance(jobs.specs[idx].size, self.rates[i], now)
    }
}

impl AliveSet for AliveList {
    fn of(sets: &AliveSets) -> &Self {
        &sets.list
    }

    fn of_mut(sets: &mut AliveSets) -> &mut Self {
        &mut sets.list
    }

    fn len(&self) -> usize {
        self.alive.len()
    }

    fn reset(&mut self) {
        self.alive.clear();
        self.shares.clear();
        self.rates.clear();
        self.candidate = None;
        self.views.clear();
    }

    fn admit(&mut self, idx: usize, _remaining: Work, _jobs: &mut JobArena) {
        self.alive.push(idx);
    }

    /// Runs the policy on a view of the list, then makes one sweep over
    /// its answer that validates and clamps each share, sets the job's
    /// drain rate, and folds the completion candidate.
    ///
    /// The sweep is exact with respect to separate validation, rate, and
    /// candidate passes: an invalid share still reports the first
    /// offender in list order, the total is summed in the same order and
    /// checked after the sweep, and a failed check ends the run, so rates
    /// written before it are never observed. The candidate folds the same
    /// `now + remaining/rate` terms in the same order with the same strict
    /// `<` as [`AliveSet::next_completion`]'s sweep.
    fn refresh(&mut self, cx: Refresh<'_>) -> Result<Schedule, SimError> {
        let n = self.alive.len();
        self.shares.clear();
        self.shares.resize(n, 0.0);
        self.rates.clear();
        self.rates.resize(n, 0.0);
        self.candidate = None;
        if n == 0 {
            self.candidate = Some(None);
            return Ok(Schedule::default());
        }
        let jobs = &*cx.jobs;
        let mut views: Vec<AliveJob<'_>> = std::mem::take(&mut self.views);
        views.extend(self.alive.iter().map(|&i| AliveJob {
            spec: &jobs.specs[i],
            remaining: jobs.remaining[i],
        }));
        let (now, speed) = (cx.now, cx.speed);
        let quantum = cx.policy.assign(now, cx.m, &views, &mut self.shares);
        let mut total = 0.0;
        let mut next: Option<Time> = None;
        let mut invalid = None;
        for (i, &idx) in self.alive.iter().enumerate() {
            let s = self.shares[i];
            if !s.is_finite() || s < -EPS {
                invalid = Some(s);
                break;
            }
            total += s.max(0.0);
            let share = s.max(0.0);
            self.shares[i] = share;
            let rate = speed * jobs.gamma(idx, share);
            self.rates[i] = rate;
            if rate > 0.0 {
                fold_earliest(&mut next, now + jobs.remaining[idx] / rate);
            }
        }
        self.views = recycle_views(views);
        check_allocation(now, invalid, total, cx.m, cx.policy_name)?;
        // A least-elapsed policy's quantum is elapsed work at unit speed
        // (see `AllocationStability::LeastElapsed`).
        let deadline = quantum
            .map(|q| match cx.policy.stability() {
                AllocationStability::LeastElapsed => q / speed,
                _ => q,
            })
            .filter(|q| q.is_finite() && *q > 0.0)
            .map(|q| now + q);
        self.candidate = Some(next);
        Ok(Schedule {
            completion: None,
            deadline,
        })
    }

    /// The refresh's fold while the clock has not moved since, otherwise
    /// the same fold swept again (and cached until the next integration).
    fn next_completion(&mut self, now: Time, jobs: &JobArena, _: Option<Time>) -> Option<Time> {
        if let Some(candidate) = self.candidate {
            return candidate;
        }
        let mut next: Option<Time> = None;
        for (&idx, &rate) in self.alive.iter().zip(&self.rates) {
            if rate > 0.0 {
                fold_earliest(&mut next, now + jobs.remaining[idx] / rate);
            }
        }
        self.candidate = Some(next);
        next
    }

    /// Per-job linear drain. Reports whether any job now meets the
    /// completion predicate at `t`, the one the completion sweep applies,
    /// so the sweep can be skipped when none does.
    fn integrate(
        &mut self,
        dt: f64,
        t: Time,
        jobs: &mut JobArena,
        _speed: f64,
        frac_flow: &mut NeumaierSum,
    ) -> Drained {
        self.candidate = None;
        let mut any_due = false;
        for (&idx, &rate) in self.alive.iter().zip(&self.rates) {
            let rem = jobs.remaining[idx];
            let size = jobs.specs[idx].size;
            let drained = rate * dt;
            // Fractional flow: ∫ p_j(τ)/p_j dτ over the interval, exact
            // for the linear drain.
            frac_flow.add((rem - drained / 2.0).max(0.0) * dt / size);
            let left = (rem - drained).max(0.0);
            jobs.remaining[idx] = left;
            any_due |= left <= completion_tolerance(size, rate, t);
        }
        debug_assert!(
            any_due || !(0..self.alive.len()).any(|i| self.due(i, jobs, t)),
            "the integration found no completion due, but the completion sweep would"
        );
        if any_due {
            Drained::MaybeDue
        } else {
            Drained::NoneDue
        }
    }

    /// A sweep over the whole list, swap-removing each due job (and its
    /// share and rate, which the next refresh rebuilds either way).
    fn complete_due(
        &mut self,
        now: Time,
        jobs: &mut JobArena,
        _speed: f64,
        _deadline: &mut Option<Time>,
        mut finish: impl FnMut(&mut JobArena, usize),
    ) -> bool {
        let mut completed_any = false;
        let mut i = 0;
        while i < self.alive.len() {
            if self.due(i, jobs, now) {
                let idx = self.alive.swap_remove(i);
                self.rates.swap_remove(i);
                self.shares.swap_remove(i);
                finish(jobs, idx);
                completed_any = true;
            } else {
                i += 1;
            }
        }
        completed_any
    }

    fn remaining(&self, idx: usize, jobs: &JobArena) -> Work {
        jobs.remaining[idx]
    }

    fn walk(&self, jobs: &JobArena, mut f: impl FnMut(usize, Work)) {
        for &idx in &self.alive {
            f(idx, jobs.remaining[idx]);
        }
    }

    fn audit(
        &self,
        jobs: &JobArena,
        _speed: f64,
        mut f: impl FnMut(usize, Work, f64, f64),
    ) -> Option<usize> {
        for (i, &idx) in self.alive.iter().enumerate() {
            f(idx, jobs.remaining[idx], self.shares[i], self.rates[i]);
        }
        None
    }

    fn snapshot(&self, _specs: &[JobSpec], snap: &mut Snapshot) {
        snap.alive.clone_from(&self.alive);
        snap.shares.clone_from(&self.shares);
        snap.rates.clone_from(&self.rates);
    }

    /// The list's slots, and its share and rate lanes. The lanes track the
    /// list only while the allocation is fresh: after an admission they
    /// lag until the next refresh, so a stale-allocation snapshot may
    /// carry shorter ones.
    fn check(snap: &Snapshot, slots: &mut SlotCheck<'_>) -> Result<(), String> {
        for &idx in &snap.alive {
            slots.hold("exhaustive.alive", idx)?;
        }
        let lanes = [snap.alive.len(), snap.shares.len(), snap.rates.len()];
        if snap.path() != Some(EnginePath::Exhaustive) && lanes != [0; 3] {
            return Err("exhaustive lanes hold entries off the exhaustive path".into());
        }
        for (name, lane) in [("shares", &snap.shares), ("rates", &snap.rates)] {
            for &v in lane {
                in_range("exhaustive", name, v, false)?;
            }
        }
        if snap.shares.len() != snap.rates.len() {
            return Err("share/rate lanes disagree in length".into());
        }
        if snap.alloc_fresh && snap.shares.len() != snap.alive.len() {
            return Err("fresh-allocation share lane disagrees with the alive set".into());
        }
        Ok(())
    }

    fn restore(&mut self, snap: &Snapshot, _jobs: &mut JobArena, _speed: f64) {
        self.alive.extend_from_slice(&snap.alive);
        self.shares.extend_from_slice(&snap.shares);
        self.rates.extend_from_slice(&snap.rates);
    }
}
