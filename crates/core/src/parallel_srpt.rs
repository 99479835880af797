//! Parallel-SRPT: the optimal policy for fully parallelizable jobs.

use parsched_sim::{AliveJob, AllocationStability, Policy, PrefixAllocation, Time};

use crate::util::srpt_cmp;

/// **Parallel-SRPT**: allocate *all* `m` processors to the single job with
/// the least unprocessed work.
///
/// For fully parallelizable jobs (`Γ(x) = x`) this is exactly SRPT on one
/// speed-`m` processor, which is optimal for total flow time (competitive
/// ratio 1). The paper's starting observation is that the moment `α < 1`
/// this "give everything to the shortest" strategy wastes capacity —
/// `Γ(m) = m^α ≪ m` — and its competitive ratio explodes (it degenerates to
/// a special case of the §3 greedy's failure mode).
#[derive(Debug, Default, Clone, Copy)]
pub struct ParallelSrpt;

impl ParallelSrpt {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl Policy for ParallelSrpt {
    fn name(&self) -> String {
        "Parallel-SRPT".to_string()
    }

    fn assign(
        &mut self,
        _now: Time,
        m: f64,
        jobs: &[AliveJob<'_>],
        shares: &mut [f64],
    ) -> Option<f64> {
        if jobs.is_empty() {
            return None;
        }
        shares.fill(0.0);
        let first = jobs
            .iter()
            .enumerate()
            .min_by(|a, b| srpt_cmp(a.1, b.1))
            .map(|(i, _)| i);
        if let Some(share) = first.and_then(|i| shares.get_mut(i)) {
            *share = m;
        }
        None
    }

    fn stability(&self) -> AllocationStability {
        AllocationStability::SrptPrefix
    }

    fn srpt_ordered(&self) -> bool {
        true
    }

    fn prefix_allocation(&self, n_alive: usize, m: f64) -> Option<PrefixAllocation> {
        (n_alive > 0).then_some(PrefixAllocation { count: 1, share: m })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_sim::{simulate, Instance, JobId};
    use parsched_speedup::Curve;

    #[test]
    fn is_optimal_for_parallel_jobs() {
        // SRPT on a speed-4 machine: sizes 4, 8 at t=0.
        // Job of size 4 first: done at t=1; then size 8: done at t=3.
        let inst = Instance::from_sizes(&[(0.0, 8.0), (0.0, 4.0)], Curve::FullyParallel).unwrap();
        let outcome = simulate(&inst, &mut ParallelSrpt::new(), 4.0).unwrap();
        assert_eq!(outcome.flow_of(JobId(1)), Some(1.0));
        assert_eq!(outcome.flow_of(JobId(0)), Some(3.0));
    }

    #[test]
    fn preempts_on_shorter_arrival() {
        // Size 4 at t=0 (rate 2, m=2), size 1 arrives at t=1 with remaining
        // 1 < 2 → preempts; finishes at 1.5; then job 0 finishes at 2.5.
        let inst = Instance::from_sizes(&[(0.0, 4.0), (1.0, 1.0)], Curve::FullyParallel).unwrap();
        let outcome = simulate(&inst, &mut ParallelSrpt::new(), 2.0).unwrap();
        assert_eq!(outcome.flow_of(JobId(1)), Some(0.5));
        assert_eq!(outcome.flow_of(JobId(0)), Some(2.5));
    }

    #[test]
    fn wastes_capacity_on_intermediate_jobs() {
        // Two α=0.5 jobs of size 4 on m=4. Parallel-SRPT: first at rate
        // 4^0.5 = 2 → done t=2; second done t=4. Total flow 6.
        // (EQUI would finish both at 2√2 ≈ 2.83 for total ≈ 5.66.)
        let inst = Instance::from_sizes(&[(0.0, 4.0), (0.0, 4.0)], Curve::power(0.5)).unwrap();
        let outcome = simulate(&inst, &mut ParallelSrpt::new(), 4.0).unwrap();
        assert!((outcome.metrics.total_flow - 6.0).abs() < 1e-9);
    }
}
