//! Threshold-SRPT: the ablation family around Intermediate-SRPT's regime
//! switch.

use parsched_sim::{AliveJob, AllocationStability, Policy, PrefixAllocation, Time};

use crate::util::{machine_count, srpt_prefix, whole_processor};

/// **Threshold-SRPT(θ)** — Intermediate-SRPT with the regime boundary
/// moved from `|A(t)| ≥ m` to `|A(t)| ≥ ⌈θ·m⌉`.
///
/// * Above the threshold: the `min(m, |A(t)|)` jobs with least remaining
///   work get one processor each (Sequential-SRPT style).
/// * Below it: the processors are split evenly (EQUI style).
///
/// `θ = 1` is exactly [`crate::IntermediateSrpt`]. The ablation
/// experiment (X3) shows why the paper's choice is the right one:
///
/// * `θ < 1` idles processors when `⌈θm⌉ ≤ |A| < m` (the Sequential-SRPT
///   mistake — wasted capacity on parallelizable work);
/// * `θ > 1` splits processors among more than `m` jobs when
///   `m ≤ |A| < ⌈θm⌉`, handing sub-unit shares to *long* jobs too —
///   breaking the SRPT ordering argument the overload analysis needs.
#[derive(Debug, Clone)]
pub struct ThresholdSrpt {
    theta: f64,
    /// Retained selection scratch for `assign` (see [`srpt_prefix`]).
    order: Vec<usize>,
}

impl ThresholdSrpt {
    /// Creates the policy with regime threshold `θ > 0`.
    pub fn new(theta: f64) -> Self {
        assert!(
            theta > 0.0 && theta.is_finite(),
            "threshold must be positive, got {theta}"
        );
        Self {
            theta,
            order: Vec::new(),
        }
    }

    /// The threshold multiplier θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

impl Policy for ThresholdSrpt {
    fn name(&self) -> String {
        format!("Threshold-SRPT({})", self.theta)
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
        let cutoff = ((self.theta * machines as f64).ceil() as usize).max(1);
        shares.fill(0.0);
        if n >= cutoff {
            let unit = whole_processor(m);
            for &i in srpt_prefix(jobs, machines, &mut self.order) {
                shares[i] = unit;
            }
        } else {
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
        let cutoff = ((self.theta * machines as f64).ceil() as usize).max(1);
        Some(if n_alive >= cutoff {
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
    use crate::IntermediateSrpt;
    use parsched_sim::{simulate, Instance};
    use parsched_speedup::Curve;

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_theta() {
        let _ = ThresholdSrpt::new(0.0);
    }

    #[test]
    fn theta_one_is_intermediate_srpt() {
        let inst = Instance::from_sizes(
            &[
                (0.0, 4.0),
                (0.0, 1.0),
                (0.5, 2.0),
                (1.0, 8.0),
                (1.5, 1.0),
                (2.0, 3.0),
            ],
            Curve::power(0.5),
        )
        .unwrap();
        for m in [2.0, 4.0, 8.0] {
            let a = simulate(&inst, &mut ThresholdSrpt::new(1.0), m).unwrap();
            let b = simulate(&inst, &mut IntermediateSrpt::new(), m).unwrap();
            assert_eq!(a.completed, b.completed, "m={m}");
        }
    }

    #[test]
    fn small_theta_idles_processors() {
        // One parallel job, θ = 0.25 on m = 4 ⇒ cutoff 1 ⇒ "overload"
        // branch even for a single job ⇒ it gets 1 processor, not 4.
        let inst = Instance::from_sizes(&[(0.0, 4.0)], Curve::FullyParallel).unwrap();
        let out = simulate(&inst, &mut ThresholdSrpt::new(0.25), 4.0).unwrap();
        assert!((out.metrics.total_flow - 4.0).abs() < 1e-9);
        // θ = 1 uses the full machine.
        let best = simulate(&inst, &mut ThresholdSrpt::new(1.0), 4.0).unwrap();
        assert!((best.metrics.total_flow - 1.0).abs() < 1e-9);
    }

    #[test]
    fn large_theta_shares_in_overload() {
        // 4 jobs on m = 2 with θ = 4 ⇒ cutoff 8 ⇒ EQUI branch: everybody
        // gets 0.5 processors (rate 0.5 each).
        let inst = Instance::from_sizes(
            &[(0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)],
            Curve::power(0.5),
        )
        .unwrap();
        let out = simulate(&inst, &mut ThresholdSrpt::new(4.0), 2.0).unwrap();
        // All four drain at rate 0.5 → all complete at t = 2 → flow 8,
        // versus Intermediate-SRPT's SRPT order (1,1,2,2 → flow 6).
        assert!((out.metrics.total_flow - 8.0).abs() < 1e-9);
        let isrpt = simulate(&inst, &mut IntermediateSrpt::new(), 2.0).unwrap();
        assert!((isrpt.metrics.total_flow - 6.0).abs() < 1e-9);
    }

    #[test]
    fn overload_never_overcommits_when_n_below_m() {
        // θ = 0.5, m = 4, n = 3 ⇒ cutoff 2 ≤ n ⇒ sequential branch with
        // only 3 jobs: exactly 3 processors used (1 idle), none negative.
        let inst =
            Instance::from_sizes(&[(0.0, 2.0), (0.0, 2.0), (0.0, 2.0)], Curve::Sequential).unwrap();
        let out = simulate(&inst, &mut ThresholdSrpt::new(0.5), 4.0).unwrap();
        assert_eq!(out.metrics.num_jobs, 3);
        assert!((out.metrics.makespan - 2.0).abs() < 1e-9);
    }
}
