//! EQUI / processor sharing.

use parsched_sim::{AliveJob, AllocationStability, EquiSplit, Policy, PrefixAllocation, Time};

/// **EQUI** (equipartition / processor sharing): all alive jobs share the
/// `m` processors evenly.
///
/// Introduced into the speed-up-curve literature by Edmonds et al.: EQUI is
/// 2-competitive for total flow time when all jobs are released at time 0
/// (arbitrary speed-up curves), and `(2+ε)`-speed `O(1)`-competitive with
/// arbitrary release times. It is also exactly what Intermediate-SRPT does
/// during underloaded times, so it doubles as that policy's underload
/// regime in ablations.
///
/// This is a thin, documented wrapper over the engine-level
/// [`parsched_sim::EquiSplit`] so the policy crate presents one coherent
/// namespace.
#[derive(Debug, Default, Clone, Copy)]
pub struct Equi(EquiSplit);

impl Equi {
    /// Creates the policy.
    pub fn new() -> Self {
        Self(EquiSplit::new())
    }
}

impl Policy for Equi {
    fn name(&self) -> String {
        "EQUI".to_string()
    }

    fn assign(
        &mut self,
        now: Time,
        m: f64,
        jobs: &[AliveJob<'_>],
        shares: &mut [f64],
    ) -> Option<f64> {
        self.0.assign(now, m, jobs, shares)
    }

    fn stability(&self) -> AllocationStability {
        self.0.stability()
    }

    fn srpt_ordered(&self) -> bool {
        // Forwards the engine-level EquiSplit's answer: EQUI serves
        // every alive job evenly, so its allocation is *not* an SRPT
        // prefix and the audit layer must not hold it to that claim.
        self.0.srpt_ordered()
    }

    fn prefix_allocation(&self, n_alive: usize, m: f64) -> Option<PrefixAllocation> {
        self.0.prefix_allocation(n_alive, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_sim::{simulate, Instance};
    use parsched_speedup::Curve;

    #[test]
    fn splits_evenly_regardless_of_size() {
        // Batch of 4 parallel jobs, sizes 1..4, m = 4: each runs at rate 1
        // until the shortest finishes, then shares grow.
        // Completions: job size 1 at t=1 (4 alive, rate 1 each).
        // Then 3 alive, rate 4/3: size-2 job has 1 left → done at 1.75.
        let inst = Instance::from_sizes(
            &[(0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (0.0, 4.0)],
            Curve::FullyParallel,
        )
        .unwrap();
        let outcome = simulate(&inst, &mut Equi::new(), 4.0).unwrap();
        assert_eq!(outcome.flow_of(parsched_sim::JobId(0)), Some(1.0));
        assert_eq!(outcome.flow_of(parsched_sim::JobId(1)), Some(1.75));
        assert_eq!(outcome.metrics.num_jobs, 4);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Equi::new().name(), "EQUI");
    }
}
