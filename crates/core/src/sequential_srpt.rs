//! Sequential-SRPT: the optimally competitive policy for sequential jobs.

use parsched_sim::{AliveJob, AllocationStability, Policy, PrefixAllocation, Time};

use crate::util::{machine_count, srpt_prefix, whole_processor};

/// **Sequential-SRPT**: the up to `m` jobs with the least unprocessed work
/// each get exactly one processor; everything else (including leftover
/// processors) idles.
///
/// For sequential jobs (`Γ(x) = min(x, 1)`) extra processors are useless,
/// and Leonardi–Raz show this policy is `Θ(log P)`-competitive for total
/// flow time on parallel machines — the best possible. The paper's
/// Intermediate-SRPT coincides with it whenever the system is overloaded
/// (`|A(t)| ≥ m`) but, unlike it, refuses to idle processors when
/// underloaded.
#[derive(Debug, Default, Clone)]
pub struct SequentialSrpt {
    /// Retained selection scratch for `assign` (see [`srpt_prefix`]).
    order: Vec<usize>,
}

impl SequentialSrpt {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for SequentialSrpt {
    fn name(&self) -> String {
        "Sequential-SRPT".to_string()
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
        let unit = whole_processor(m);
        for &i in srpt_prefix(jobs, machine_count(m), &mut self.order) {
            shares[i] = unit;
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
        if n_alive == 0 {
            return None;
        }
        Some(PrefixAllocation {
            count: machine_count(m).min(n_alive),
            share: whole_processor(m),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_sim::{simulate, Instance, JobId};
    use parsched_speedup::Curve;

    #[test]
    fn leaves_processors_idle_in_underload() {
        // One fully parallel job of size 4 on m = 4: Sequential-SRPT still
        // gives it only 1 processor → flow 4 (vs 1 for an even split).
        let inst = Instance::from_sizes(&[(0.0, 4.0)], Curve::FullyParallel).unwrap();
        let outcome = simulate(&inst, &mut SequentialSrpt::new(), 4.0).unwrap();
        assert!((outcome.metrics.total_flow - 4.0).abs() < 1e-9);
    }

    #[test]
    fn schedules_shortest_m_jobs() {
        // m = 2, sequential sizes 1, 2, 3 at t = 0.
        // t∈[0,1): jobs 1&2 run. Job(1) done at 1; then job(3) starts.
        // Job(2) done at 2; job(3) done at 1 + 3 = 4.
        let inst =
            Instance::from_sizes(&[(0.0, 3.0), (0.0, 1.0), (0.0, 2.0)], Curve::Sequential).unwrap();
        let outcome = simulate(&inst, &mut SequentialSrpt::new(), 2.0).unwrap();
        assert_eq!(outcome.flow_of(JobId(1)), Some(1.0));
        assert_eq!(outcome.flow_of(JobId(2)), Some(2.0));
        assert_eq!(outcome.flow_of(JobId(0)), Some(4.0));
    }

    #[test]
    fn agrees_with_intermediate_srpt_in_overload() {
        use crate::IntermediateSrpt;
        // 5 jobs, m = 2: always overloaded → identical flows.
        let inst = Instance::from_sizes(
            &[(0.0, 3.0), (0.0, 1.0), (0.5, 2.0), (1.0, 4.0), (1.5, 1.5)],
            Curve::power(0.5),
        )
        .unwrap();
        let a = simulate(&inst, &mut SequentialSrpt::new(), 2.0).unwrap();
        let b = simulate(&inst, &mut IntermediateSrpt::new(), 2.0).unwrap();
        // Identical until the alive count drops below m; from then on
        // Intermediate-SRPT can only do better.
        assert!(b.metrics.total_flow <= a.metrics.total_flow + 1e-9);
    }
}
