//! Trace hooks fired by the engine at every event boundary.

use crate::job::{JobId, JobSpec, Time};
use crate::policy::AliveJob;

/// The allocation the engine decided for the interval starting at an
/// event, handed to [`Observer::on_allocation`] on every execution path.
///
/// The handle walks the run's alive structure, in `O(n)`, only when read,
/// so an observer that ignores it costs the `O(log n)` paths nothing.
pub struct Allocation<'a>(&'a dyn Shares);

/// A decided allocation that an [`Allocation`] walks only when read.
pub(crate) trait Shares {
    fn for_each(&self, f: &mut dyn FnMut(&AliveJob<'_>, f64));
}

impl<'a> Allocation<'a> {
    pub(crate) fn over(shares: &'a dyn Shares) -> Self {
        Self(shares)
    }

    /// Visits every alive job with the processors it holds over the
    /// interval (zero for a waiting job). The exhaustive path visits the
    /// jobs in the order it handed them to [`crate::Policy::assign`];
    /// the other paths promise no order.
    pub fn for_each(&self, mut f: impl FnMut(&AliveJob<'_>, f64)) {
        self.0.for_each(&mut f);
    }
}

/// Callbacks invoked by the [`crate::Engine`] as the simulation advances.
///
/// All methods have empty defaults; implement only what you need. The
/// engine guarantees the call order per event boundary at time `t`:
/// `on_completion`* → `on_arrivals`? → `on_allocation` (for the interval
/// *starting* at `t`). Every execution path serves every callback, so an
/// observer never changes the run it watches.
pub trait Observer {
    /// Jobs released at time `t` (called once per batch).
    fn on_arrivals(&mut self, t: Time, jobs: &[JobSpec]) {
        let _ = (t, jobs);
    }

    /// A job completed at time `t`.
    fn on_completion(&mut self, t: Time, job: &JobSpec) {
        let _ = (t, job);
    }

    /// A fresh allocation decision covering the interval starting at `t`,
    /// fired on every execution path whenever a job is alive.
    fn on_allocation(&mut self, t: Time, alloc: &Allocation<'_>) {
        let _ = (t, alloc);
    }

    /// The engine advanced from `t0` to `t1` with a constant allocation.
    fn on_advance(&mut self, t0: Time, t1: Time) {
        let _ = (t0, t1);
    }

    /// Whether every callback on this observer is a no-op.
    ///
    /// Observers returning `true` promise that skipping their callbacks
    /// entirely is indistinguishable from calling them, which lets the
    /// engine's specialized event loop elide the per-event virtual
    /// dispatch (see `Engine::run_loop`). The default is `false` — the
    /// conservative answer that keeps every callback firing.
    fn is_noop(&self) -> bool {
        false
    }
}

/// An observer that records nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn is_noop(&self) -> bool {
        true
    }
}

/// One sample of the alive-job count step function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Sample time.
    pub t: Time,
    /// `|A(t)|` immediately after the event at `t`.
    pub alive: usize,
}

/// Records the step function `t ↦ |A(t)|` (one point per event).
///
/// Used by experiment F5 to visualize Intermediate-SRPT's regime switching
/// between overloaded (`|A(t)| ≥ m`) and underloaded times.
#[derive(Debug, Default, Clone)]
pub struct AliveTrace {
    points: Vec<TracePoint>,
    alive_now: usize,
}

impl AliveTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded samples in time order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Largest observed `|A(t)|`.
    pub fn peak(&self) -> usize {
        self.points.iter().map(|p| p.alive).max().unwrap_or(0)
    }

    /// `|A(t)|` at an arbitrary time (the value of the step function:
    /// the last sample at or before `t`; 0 before the first sample).
    pub fn alive_at(&self, t: Time) -> usize {
        let idx = self.points.partition_point(|p| p.t <= t + 1e-12);
        if idx == 0 {
            0
        } else {
            self.points[idx - 1].alive
        }
    }

    /// Fraction of *event samples* at which `|A(t)| ≥ m` (a cheap summary
    /// of how often the system was overloaded; time-weighted statistics can
    /// be derived from [`AliveTrace::points`]).
    pub fn overloaded_fraction(&self, m: usize) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let over = self.points.iter().filter(|p| p.alive >= m).count();
        over as f64 / self.points.len() as f64
    }

    fn push(&mut self, t: Time) {
        // Collapse repeated samples at the same instant: keep the last.
        if let Some(last) = self.points.last_mut() {
            if last.t == t {
                last.alive = self.alive_now;
                return;
            }
        }
        self.points.push(TracePoint {
            t,
            alive: self.alive_now,
        });
    }
}

impl Observer for AliveTrace {
    fn on_arrivals(&mut self, t: Time, jobs: &[JobSpec]) {
        self.alive_now += jobs.len();
        self.push(t);
    }

    fn on_completion(&mut self, t: Time, _job: &JobSpec) {
        self.alive_now -= 1;
        self.push(t);
    }
}

/// One constant-allocation segment of one job's schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocationSegment {
    /// Segment start.
    pub start: Time,
    /// Segment end.
    pub end: Time,
    /// The job.
    pub id: JobId,
    /// Processors held throughout the segment.
    pub share: f64,
}

/// Records the full allocation timeline of a run: one
/// [`AllocationSegment`] per (job, constant-allocation interval).
///
/// This is the observer behind Gantt-chart rendering and share-based
/// post-hoc analyses. Adjacent segments with the same share are merged.
#[derive(Debug, Default, Clone)]
pub struct AllocationTrace {
    segments: Vec<AllocationSegment>,
    current: Vec<(JobId, f64)>,
    /// Each job's latest segment, the only one an advance can extend.
    latest: std::collections::BTreeMap<JobId, usize>,
}

impl AllocationTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded segments in time order (per interval; jobs within an
    /// interval are in [`Allocation::for_each`] order).
    pub fn segments(&self) -> &[AllocationSegment] {
        &self.segments
    }

    /// Total processor-time recorded (`Σ share·(end − start)`).
    pub fn total_processor_time(&self) -> f64 {
        crate::kahan::NeumaierSum::total(self.segments.iter().map(|s| s.share * (s.end - s.start)))
    }

    /// The segments of one job, in time order.
    pub fn of_job(&self, id: JobId) -> Vec<AllocationSegment> {
        self.segments
            .iter()
            .filter(|s| s.id == id)
            .copied()
            .collect()
    }
}

impl Observer for AllocationTrace {
    fn on_allocation(&mut self, _t: Time, alloc: &Allocation<'_>) {
        self.current.clear();
        alloc.for_each(|j, s| {
            if s > 0.0 {
                self.current.push((j.id(), s));
            }
        });
    }

    /// A finished job holds nothing from now on, even when no allocation
    /// follows (the alive set emptied): an idle gap draws no segment.
    fn on_completion(&mut self, _t: Time, job: &JobSpec) {
        self.current.retain(|&(id, _)| id != job.id);
        self.latest.remove(&job.id);
    }

    fn on_advance(&mut self, t0: Time, t1: Time) {
        if t1 <= t0 {
            return;
        }
        for &(id, share) in &self.current {
            // Merge with the job's latest segment when the allocation is
            // unchanged and the intervals abut; no earlier segment of the
            // job can end at `t0`.
            if let Some(&k) = self.latest.get(&id) {
                let last = &mut self.segments[k];
                if (last.end - t0).abs() < 1e-12 && (last.share - share).abs() < 1e-12 {
                    last.end = t1;
                    continue;
                }
            }
            self.latest.insert(id, self.segments.len());
            self.segments.push(AllocationSegment {
                start: t0,
                end: t1,
                id,
                share,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use parsched_speedup::Curve;

    fn spec(id: u64) -> JobSpec {
        JobSpec::new(JobId(id), 0.0, 1.0, Curve::Sequential)
    }

    #[test]
    fn alive_trace_counts_arrivals_and_completions() {
        let mut tr = AliveTrace::new();
        tr.on_arrivals(0.0, &[spec(0), spec(1)]);
        tr.on_arrivals(1.0, &[spec(2)]);
        tr.on_completion(2.0, &spec(0));
        assert_eq!(
            tr.points(),
            &[
                TracePoint { t: 0.0, alive: 2 },
                TracePoint { t: 1.0, alive: 3 },
                TracePoint { t: 2.0, alive: 2 },
            ]
        );
        assert_eq!(tr.peak(), 3);
    }

    #[test]
    fn alive_trace_collapses_simultaneous_events() {
        let mut tr = AliveTrace::new();
        tr.on_arrivals(0.0, &[spec(0)]);
        tr.on_completion(1.0, &spec(0));
        tr.on_arrivals(1.0, &[spec(1), spec(2)]);
        // Both t=1 events collapse to the final state.
        assert_eq!(tr.points().len(), 2);
        assert_eq!(tr.points()[1], TracePoint { t: 1.0, alive: 2 });
    }

    #[test]
    fn alive_at_reads_the_step_function() {
        let mut tr = AliveTrace::new();
        tr.on_arrivals(1.0, &[spec(0), spec(1)]);
        tr.on_completion(3.0, &spec(0));
        assert_eq!(tr.alive_at(0.5), 0);
        assert_eq!(tr.alive_at(1.0), 2);
        assert_eq!(tr.alive_at(2.9), 2);
        assert_eq!(tr.alive_at(3.0), 1);
        assert_eq!(tr.alive_at(99.0), 1);
    }

    #[test]
    fn allocation_trace_records_and_merges_segments() {
        use crate::engine::simulate_with_observer;
        use crate::job::Instance;
        use crate::policy::EquiSplit;
        // Two sequential jobs, m = 2: each holds 1 processor from 0 to its
        // completion; the allocation never changes so segments merge.
        let inst = Instance::from_sizes(&[(0.0, 2.0), (0.0, 3.0)], Curve::Sequential).unwrap();
        let mut trace = AllocationTrace::new();
        simulate_with_observer(&inst, &mut EquiSplit, 2.0, &mut trace).unwrap();
        let j0 = trace.of_job(JobId(0));
        assert_eq!(j0.len(), 1);
        assert!((j0[0].start - 0.0).abs() < 1e-12 && (j0[0].end - 2.0).abs() < 1e-9);
        assert!((j0[0].share - 1.0).abs() < 1e-12);
        let j1 = trace.of_job(JobId(1));
        // Job 1: share 1 on [0,2), then share 2 on [2,3) — distinct
        // segments because the share changed.
        assert_eq!(j1.len(), 2);
        assert!((j1[1].share - 2.0).abs() < 1e-12);
        // Processor-time = total work actually drained at Γ(x) ≤ x… for
        // sequential jobs share 2 wastes 1: 2 + (2 + 2·1) = work 5 ≤ 6.
        assert!((trace.total_processor_time() - 6.0).abs() < 1e-9);
    }

    /// An idle gap draws no segment: on one processor, j0 (size 1 at
    /// t = 0) completes at 1 and j1 (size 1) arrives at 5, so the machine
    /// idles over [1, 5) and j0's last segment ends at 1.
    #[test]
    fn allocation_trace_draws_nothing_across_an_idle_gap() {
        use crate::engine::simulate_with_observer;
        use crate::job::Instance;
        use crate::policy::EquiSplit;
        let inst = Instance::from_sizes(&[(0.0, 1.0), (5.0, 1.0)], Curve::Sequential).unwrap();
        let mut trace = AllocationTrace::new();
        simulate_with_observer(&inst, &mut EquiSplit, 1.0, &mut trace).unwrap();
        let j0 = trace.of_job(JobId(0));
        assert_eq!(j0.last().map(|s| s.end), Some(1.0), "{j0:?}");
        let j1 = trace.of_job(JobId(1));
        assert_eq!(j1.first().map(|s| s.start), Some(5.0), "{j1:?}");
        assert_eq!(trace.total_processor_time(), 2.0);
    }

    /// The merge [`AllocationTrace`] made before it indexed each job's
    /// latest segment: a backwards scan over every segment so far.
    #[derive(Default)]
    struct ScanTrace {
        segments: Vec<AllocationSegment>,
        current: Vec<(JobId, f64)>,
    }

    impl Observer for ScanTrace {
        fn on_allocation(&mut self, _t: Time, alloc: &Allocation<'_>) {
            self.current.clear();
            alloc.for_each(|j, s| {
                if s > 0.0 {
                    self.current.push((j.id(), s));
                }
            });
        }

        fn on_advance(&mut self, t0: Time, t1: Time) {
            if t1 <= t0 {
                return;
            }
            for &(id, share) in &self.current {
                if let Some(last) = self
                    .segments
                    .iter_mut()
                    .rev()
                    .find(|s| s.id == id && (s.end - t0).abs() < 1e-12)
                {
                    if (last.share - share).abs() < 1e-12 {
                        last.end = t1;
                        continue;
                    }
                }
                self.segments.push(AllocationSegment {
                    start: t0,
                    end: t1,
                    id,
                    share,
                });
            }
        }
    }

    /// A fixed allocation: `shares[i]` processors for `jobs[i]`.
    struct Fixed<'a>(&'a [JobSpec], &'a [f64]);

    impl Shares for Fixed<'_> {
        fn for_each(&self, f: &mut dyn FnMut(&AliveJob<'_>, f64)) {
            for (spec, &share) in self.0.iter().zip(self.1) {
                f(
                    &AliveJob {
                        spec,
                        remaining: 1.0,
                    },
                    share,
                );
            }
        }
    }

    #[test]
    fn allocation_trace_merges_like_the_backwards_scan() {
        // A pseudo-random stream of allocations over eight jobs, each
        // running or waiting at one of two shares, with zero-length
        // advances mixed in: jobs stop, resume, keep or change shares.
        let specs: Vec<JobSpec> = (0..8).map(spec).collect();
        let mut state = 7u64;
        let mut draw = |k: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % k
        };
        let (mut trace, mut scan) = (AllocationTrace::new(), ScanTrace::default());
        let (mut t, mut intervals) = (0.0, 0);
        for _ in 0..400 {
            let shares: Vec<f64> = specs.iter().map(|_| draw(3) as f64).collect();
            let dt = draw(3) as f64 * 0.5;
            let alloc = Fixed(&specs, &shares);
            for obs in [&mut trace as &mut dyn Observer, &mut scan] {
                obs.on_allocation(t, &Allocation::over(&alloc));
                obs.on_advance(t, t + dt);
            }
            if dt > 0.0 {
                intervals += shares.iter().filter(|&&s| s > 0.0).count();
            }
            t += dt;
        }
        assert_eq!(trace.segments(), &scan.segments[..]);
        let n = trace.segments().len();
        assert!(
            n > specs.len() && n < intervals,
            "{n} segments of {intervals}"
        );
    }

    #[test]
    fn overloaded_fraction_counts_samples() {
        let mut tr = AliveTrace::new();
        tr.on_arrivals(0.0, &[spec(0), spec(1)]); // alive 2
        tr.on_completion(1.0, &spec(0)); // alive 1
        assert_eq!(tr.overloaded_fraction(2), 0.5);
        assert_eq!(tr.overloaded_fraction(5), 0.0);
        assert_eq!(AliveTrace::new().overloaded_fraction(1), 0.0);
    }
}
