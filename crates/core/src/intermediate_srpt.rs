//! The paper's algorithm: Intermediate-SRPT.

use parsched_sim::{AliveJob, AllocationStability, Policy, PrefixAllocation, Time};

use crate::util::{machine_count, srpt_prefix, whole_processor};

/// **Intermediate-SRPT** (SPAA'14, Theorem 1).
///
/// > *"If there are at least `m` tasks, the `m` tasks with the least
/// > unprocessed work are each allocated one processor (this is like
/// > Sequential-SRPT). If there are strictly fewer than `m` tasks, the
/// > processors are evenly partitioned among the tasks (this is essentially
/// > the Round Robin or Processor Sharing Algorithm)."*
///
/// For jobs with speed-up curves `Γ(x) = x` (`x ≤ 1`), `x^α` (`x ≥ 1`) and
/// sizes in `[1, P]`, this policy is `O(4^{1/(1-α)} · log P)`-competitive
/// for total flow time, matching the general `Ω(log P)` lower bound
/// (Theorem 2) up to the `α`-dependent constant.
///
/// Two properties make it exactly simulable event-to-event:
/// * **Overloaded** (`|A(t)| ≥ m`): every scheduled job drains at rate
///   `Γ(1) = 1` and unscheduled jobs don't move, so the SRPT order is
///   invariant until an arrival or completion.
/// * **Underloaded** (`|A(t)| < m`): every job's share `m/|A(t)|` is
///   constant until an arrival or completion.
///
/// Ties on remaining work break by `(release, id)`, which keeps runs
/// deterministic.
#[derive(Debug, Default, Clone)]
pub struct IntermediateSrpt {
    /// Retained selection scratch for `assign` (see [`srpt_prefix`]).
    order: Vec<usize>,
}

impl IntermediateSrpt {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for IntermediateSrpt {
    fn name(&self) -> String {
        "Intermediate-SRPT".to_string()
    }

    fn assign(
        &mut self,
        _now: Time,
        m: f64,
        jobs: &[AliveJob<'_>],
        shares: &mut [f64],
    ) -> Option<f64> {
        let n = jobs.len();
        if n == 0 {
            return None;
        }
        let machines = machine_count(m);
        shares.fill(0.0);
        if n >= machines {
            // Sequential-SRPT regime: one processor to each of the m jobs
            // with least remaining work.
            let unit = whole_processor(m);
            for &i in srpt_prefix(jobs, machines, &mut self.order) {
                shares[i] = unit;
            }
        } else {
            // EQUI regime: even split.
            let each = m / n as f64;
            shares.fill(each);
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
        let machines = machine_count(m);
        Some(if n_alive >= machines {
            PrefixAllocation {
                count: machines.min(n_alive),
                share: whole_processor(m),
            }
        } else {
            PrefixAllocation {
                count: n_alive,
                share: m / n_alive as f64,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_sim::{simulate, Instance, JobId, JobSpec};
    use parsched_speedup::Curve;

    fn jobs(specs: &[(u64, f64, f64, f64)]) -> Vec<JobSpec> {
        // (id, release, size, alpha)
        specs
            .iter()
            .map(|&(id, r, p, a)| JobSpec::new(JobId(id), r, p, Curve::power(a)))
            .collect()
    }

    fn assign_once(m: f64, specs: &[JobSpec], remaining: &[f64]) -> Vec<f64> {
        let views: Vec<AliveJob<'_>> = specs
            .iter()
            .zip(remaining)
            .map(|(s, &rem)| AliveJob {
                spec: s,
                remaining: rem,
            })
            .collect();
        let mut shares = vec![0.0; views.len()];
        IntermediateSrpt::new().assign(0.0, m, &views, &mut shares);
        shares
    }

    #[test]
    fn overloaded_schedules_m_shortest_one_each() {
        let specs = jobs(&[
            (0, 0.0, 5.0, 0.5),
            (1, 0.0, 1.0, 0.5),
            (2, 0.0, 3.0, 0.5),
            (3, 0.0, 2.0, 0.5),
        ]);
        let shares = assign_once(2.0, &specs, &[5.0, 1.0, 3.0, 2.0]);
        assert_eq!(shares, vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn overloaded_uses_remaining_not_original_size() {
        // Job 0 is originally huge but nearly done → it is "shortest".
        let specs = jobs(&[(0, 0.0, 100.0, 0.5), (1, 0.0, 2.0, 0.5), (2, 0.0, 3.0, 0.5)]);
        let shares = assign_once(1.0, &specs, &[0.5, 2.0, 3.0]);
        assert_eq!(shares, vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn underloaded_splits_evenly() {
        let specs = jobs(&[(0, 0.0, 5.0, 0.5), (1, 0.0, 1.0, 0.5)]);
        let shares = assign_once(8.0, &specs, &[5.0, 1.0]);
        assert_eq!(shares, vec![4.0, 4.0]);
    }

    #[test]
    fn boundary_n_equals_m_is_sequential_regime() {
        // n = m: "at least m tasks" → one each (which equals the even split).
        let specs = jobs(&[(0, 0.0, 5.0, 0.5), (1, 0.0, 1.0, 0.5)]);
        let shares = assign_once(2.0, &specs, &[5.0, 1.0]);
        assert_eq!(shares, vec![1.0, 1.0]);
    }

    #[test]
    fn ties_break_by_release_then_id() {
        let mut specs = jobs(&[(5, 0.0, 2.0, 0.5), (3, 0.0, 2.0, 0.5)]);
        specs[0].release = 1.0; // id 5 released later
        let shares = assign_once(1.0, &specs, &[2.0, 2.0]);
        // Equal remaining → earlier release (id 3) wins the processor.
        assert_eq!(shares, vec![0.0, 1.0]);
    }

    #[test]
    fn matches_srpt_on_sequential_singleton() {
        // One sequential job: gets everything but can only use rate 1.
        let inst = Instance::new(jobs(&[(0, 0.0, 4.0, 0.0)])).unwrap();
        let outcome = simulate(&inst, &mut IntermediateSrpt::new(), 8.0).unwrap();
        assert!((outcome.metrics.total_flow - 4.0).abs() < 1e-9);
    }

    #[test]
    fn underload_beats_sequential_srpt_on_parallel_work() {
        // 2 fully parallel jobs on m = 8: even split (4 each) finishes both
        // at 1.0; one-processor-each would take 4.0.
        let inst = Instance::new(jobs(&[(0, 0.0, 4.0, 1.0), (1, 0.0, 4.0, 1.0)])).unwrap();
        let outcome = simulate(&inst, &mut IntermediateSrpt::new(), 8.0).unwrap();
        assert!((outcome.metrics.total_flow - 2.0).abs() < 1e-9);
    }

    #[test]
    fn overload_drains_shortest_first() {
        // m = 1, jobs of size 1, 2, 4 (α irrelevant at share 1):
        // completes at 1, 3, 7 → total flow 11.
        let inst = Instance::new(jobs(&[
            (0, 0.0, 4.0, 0.5),
            (1, 0.0, 1.0, 0.5),
            (2, 0.0, 2.0, 0.5),
        ]))
        .unwrap();
        let outcome = simulate(&inst, &mut IntermediateSrpt::new(), 1.0).unwrap();
        assert_eq!(outcome.flow_of(JobId(1)), Some(1.0));
        assert_eq!(outcome.flow_of(JobId(2)), Some(3.0));
        assert_eq!(outcome.flow_of(JobId(0)), Some(7.0));
        assert!((outcome.metrics.total_flow - 11.0).abs() < 1e-9);
    }

    #[test]
    fn regime_switch_mid_run() {
        // m = 2. Three unit sequential jobs at t=0 (overload: 2 scheduled),
        // third starts at t=1, finishes t=2 in underload with share 2 but
        // sequential rate 1.
        let inst = Instance::new(jobs(&[
            (0, 0.0, 1.0, 0.0),
            (1, 0.0, 1.0, 0.0),
            (2, 0.0, 1.0, 0.0),
        ]))
        .unwrap();
        let outcome = simulate(&inst, &mut IntermediateSrpt::new(), 2.0).unwrap();
        assert!((outcome.metrics.total_flow - 4.0).abs() < 1e-9);
        assert!((outcome.metrics.makespan - 2.0).abs() < 1e-9);
    }
}
