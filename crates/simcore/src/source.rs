//! Arrival sources: static replay and the hook for adaptive adversaries.

use std::sync::Arc;

use parsched_speedup::EPS;

use crate::job::{Instance, JobSpec, Time};
use crate::kahan::NeumaierSum;
use crate::policy::AliveJob;

/// A read-only handle on the running system handed to an adaptive
/// [`ArrivalSource`] when it emits jobs.
///
/// The paper's Theorem 2 adversary inspects the *online algorithm's*
/// remaining work when deciding whether to continue releasing phases; this
/// view is exactly the information such an adversary may use. The engine's
/// view walks the run's alive structure, in its order, only when read.
/// The order is not part of the contract: the incremental path lists its
/// heaps as stored.
pub struct SystemView<'a> {
    /// Current simulation time.
    pub now: Time,
    /// Number of processors.
    pub m: f64,
    alive: Alive<'a>,
}

/// A caller's slice, or a run's alive set walked on demand.
enum Alive<'a> {
    Jobs(&'a [AliveJob<'a>]),
    Set(&'a dyn Walk),
}

/// An alive set that a [`SystemView`] walks only when read.
pub(crate) trait Walk {
    fn len(&self) -> usize;
    fn walk(&self, f: &mut dyn FnMut(&AliveJob<'_>));
}

impl<'a> SystemView<'a> {
    /// A view of `alive`, for sources driven outside the engine.
    pub fn new(now: Time, m: f64, alive: &'a [AliveJob<'a>]) -> Self {
        let alive = Alive::Jobs(alive);
        Self { now, m, alive }
    }

    pub(crate) fn over(now: Time, m: f64, set: &'a dyn Walk) -> Self {
        let alive = Alive::Set(set);
        Self { now, m, alive }
    }

    /// Number of alive jobs, in `O(1)`.
    pub fn num_alive(&self) -> usize {
        match self.alive {
            Alive::Jobs(jobs) => jobs.len(),
            Alive::Set(set) => set.len(),
        }
    }

    /// Visits every alive job with its remaining work.
    pub fn for_each(&self, mut f: impl FnMut(&AliveJob<'_>)) {
        match self.alive {
            Alive::Jobs(jobs) => jobs.iter().for_each(f),
            Alive::Set(set) => Walk::walk(set, &mut f),
        }
    }

    /// Total remaining work over alive jobs satisfying `pred`.
    ///
    /// Compensated (Neumaier) summation: adaptive adversaries call this
    /// over alive sets of 10⁵–10⁶ jobs whose remaining-work magnitudes
    /// span many orders, where naive left-to-right summation silently
    /// drops the small terms (see [`NeumaierSum`]).
    pub fn remaining_work_where(&self, pred: impl Fn(&AliveJob<'_>) -> bool) -> f64 {
        let mut sum = NeumaierSum::new();
        self.for_each(|j| {
            if pred(j) {
                sum.add(j.remaining);
            }
        });
        sum.value()
    }
}

/// Produces job arrivals, possibly adaptively.
///
/// The engine polls [`ArrivalSource::next_time`] to schedule the next
/// arrival event; when simulation time reaches it,
/// [`ArrivalSource::emit_into`] is called with a [`SystemView`] and must
/// append the jobs released at that moment (each with `release` equal to
/// the current time; emitting into the past is an error).
pub trait ArrivalSource {
    /// The next time at which this source wants to emit jobs, or `None` if
    /// exhausted. Must be non-decreasing across calls.
    fn next_time(&self) -> Option<Time>;

    /// Appends the jobs released at `view.now` (which equals the last value
    /// returned by [`ArrivalSource::next_time`], up to float tolerance) to
    /// `out`. The engine passes a reused scratch vector, so steady-state
    /// arrivals allocate nothing.
    fn emit_into(&mut self, view: &SystemView<'_>, out: &mut Vec<JobSpec>);

    /// Positions the source as if it had already emitted `emitted_jobs`
    /// jobs, returning `true` on success, so [`crate::Engine::restore`]
    /// can resume against the same arrival stream. Replay sources seek their
    /// cursor; sources that cannot reproduce their position keep the
    /// default `false`, which makes restore refuse rather than resume
    /// against a divergent arrival stream.
    fn fast_forward(&mut self, emitted_jobs: usize) -> bool {
        let _ = emitted_jobs;
        false
    }

    /// Whether every spec this source emits already satisfies the
    /// admission invariants (finite non-negative release, positive finite
    /// size and weight, valid curve, globally unique ids).
    ///
    /// Sources that replay an [`Instance`] can return `true` — the
    /// instance constructors enforce exactly those invariants — which lets
    /// the engine's specialized event loop skip its per-spec
    /// re-validation. Generative or adaptive sources keep the default
    /// `false`, the conservative answer that re-validates every admission.
    fn pre_validated(&self) -> bool {
        false
    }
}

/// Cap on the clock-relative admission window (absolute sim-time units).
const ARRIVAL_TOL_CAP: f64 = 1e-6;

/// The admission window at clock value `now`: arrivals within this of
/// `now` are released at the current event.
///
/// Relative to the clock so that release times computed along a different
/// float path than the engine's (quantum-heavy policies, `t += gap`
/// cursors) still batch with the event they were scheduled for — but
/// capped absolutely, because an uncapped `EPS · now` window reaches
/// ~0.02 sim-seconds by `t ≈ 2·10⁷` (routine for multi-million-job
/// streaming runs) and admits jobs *visibly* early, inflating
/// `∫|A(t)|dt` until the flow identity `Σ F_j = ∫|A(t)|dt` fails its
/// audit. The engine and every pre-filtering
/// [`ArrivalSource::emit_into`] implementation must use this same
/// window, or a source could emit a job the engine refuses to admit.
pub fn arrival_tolerance(now: Time) -> f64 {
    (EPS * now.abs().max(1.0)).min(ARRIVAL_TOL_CAP)
}

/// Replays a fixed [`Instance`].
#[derive(Debug, Clone)]
pub struct StaticSource {
    jobs: Arc<Vec<JobSpec>>,
    cursor: usize,
}

impl StaticSource {
    /// A source that replays the given instance's jobs at their release
    /// times. It shares the instance's job storage instead of copying it.
    pub fn new(instance: &Instance) -> Self {
        Self {
            jobs: instance.shared_jobs(),
            cursor: 0,
        }
    }
}

impl ArrivalSource for StaticSource {
    fn next_time(&self) -> Option<Time> {
        self.jobs.get(self.cursor).map(|j| j.release)
    }

    fn emit_into(&mut self, view: &SystemView<'_>, out: &mut Vec<JobSpec>) {
        let tol = arrival_tolerance(view.now);
        while self.cursor < self.jobs.len() {
            let j = &self.jobs[self.cursor];
            // Release all jobs due now (equal release times batch together).
            // The tolerance is the shared admission window, so a clock that
            // drifted by a few ulps (quantum-heavy policies) still collects
            // the arrival it was woken for.
            if j.release <= view.now + tol {
                out.push(j.clone());
                self.cursor += 1;
            } else {
                break;
            }
        }
    }

    fn fast_forward(&mut self, emitted_jobs: usize) -> bool {
        if emitted_jobs > self.jobs.len() {
            return false;
        }
        self.cursor = emitted_jobs;
        true
    }

    fn pre_validated(&self) -> bool {
        // Every `Instance` constructor validates its specs (or, for
        // `Instance::from_admitted`, receives specs the engine already
        // validated at admission), so replaying one cannot emit an
        // invalid or duplicate job.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use parsched_speedup::Curve;

    fn instance() -> Instance {
        Instance::new(vec![
            JobSpec::new(JobId(0), 0.0, 1.0, Curve::Sequential),
            JobSpec::new(JobId(1), 0.0, 2.0, Curve::Sequential),
            JobSpec::new(JobId(2), 3.0, 1.0, Curve::Sequential),
        ])
        .unwrap()
    }

    fn view(now: Time) -> SystemView<'static> {
        SystemView::new(now, 1.0, &[])
    }

    fn due(s: &mut StaticSource, now: Time) -> Vec<JobSpec> {
        let mut out = Vec::new();
        s.emit_into(&view(now), &mut out);
        out
    }

    #[test]
    fn static_source_batches_equal_release_times() {
        let mut s = StaticSource::new(&instance());
        assert_eq!(s.next_time(), Some(0.0));
        let batch = due(&mut s, 0.0);
        assert_eq!(batch.len(), 2);
        assert_eq!(s.next_time(), Some(3.0));
        let batch = due(&mut s, 3.0);
        assert_eq!(batch.len(), 1);
        assert_eq!(s.next_time(), None);
    }

    #[test]
    fn static_source_does_not_emit_early() {
        let mut s = StaticSource::new(&instance());
        due(&mut s, 0.0);
        // At t = 2.9 nothing is due.
        assert_eq!(due(&mut s, 2.9).len(), 0);
        assert_eq!(s.next_time(), Some(3.0));
    }

    #[test]
    fn system_view_aggregates() {
        let spec_a = JobSpec::new(JobId(0), 0.0, 4.0, Curve::Sequential);
        let spec_b = JobSpec::new(JobId(1), 1.0, 2.0, Curve::Sequential);
        let alive = [
            AliveJob {
                spec: &spec_a,
                remaining: 3.0,
            },
            AliveJob {
                spec: &spec_b,
                remaining: 1.0,
            },
        ];
        let v = SystemView::new(2.0, 4.0, &alive);
        assert_eq!(v.num_alive(), 2);
        let mut ids = Vec::new();
        v.for_each(|j| ids.push(j.id()));
        assert_eq!(ids, [JobId(0), JobId(1)]);
        assert_eq!(v.remaining_work_where(|_| true), 4.0);
        assert_eq!(v.remaining_work_where(|j| j.size() <= 2.0), 1.0);
    }

    #[test]
    fn remaining_work_sum_does_not_drift_over_a_million_tiny_jobs() {
        // One huge job followed by 10⁶ unit jobs: every unit term is below
        // half an ulp of the 10¹⁶-scale running sum, so a naive
        // left-to-right sum returns exactly 1e16 — off by 10⁶ absolute.
        let big = JobSpec::new(JobId(0), 0.0, 1e16, Curve::Sequential);
        let tiny = JobSpec::new(JobId(1), 0.0, 1.0, Curve::Sequential);
        let mut alive = vec![AliveJob {
            spec: &big,
            remaining: 1e16,
        }];
        alive.extend((0..1_000_000).map(|_| AliveJob {
            spec: &tiny,
            remaining: 1.0,
        }));
        let naive: f64 = alive.iter().map(|j| j.remaining).sum();
        assert_eq!(naive, 1e16, "test premise: naive summation drifts");
        let v = SystemView::new(0.0, 1.0, &alive);
        assert_eq!(v.remaining_work_where(|_| true), 1e16 + 1e6);
    }

    #[test]
    fn arrival_tolerance_is_relative_then_capped() {
        // Small clocks: the usual EPS-relative window.
        assert_eq!(arrival_tolerance(0.0), EPS);
        assert_eq!(arrival_tolerance(100.0), EPS * 100.0);
        // Large clocks: capped absolutely, so an n = 10^7 streaming run
        // (makespan ~2*10^7) cannot admit jobs ~0.02 sim-seconds early.
        assert_eq!(arrival_tolerance(2.0e7), 1e-6);
        assert!(arrival_tolerance(1.0e12) == 1e-6);
    }
}
