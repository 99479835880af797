//! LAPS: Latest Arrival Processor Sharing.

use parsched_sim::{AliveJob, AllocationStability, Policy, Time};

use crate::util::select_first;

/// **LAPS(β)** — Latest Arrival Processor Sharing (Edmonds–Pruhs,
/// TALG 2012): the `⌈β · |A(t)|⌉` *latest-arriving* alive jobs share the
/// `m` processors evenly; older jobs wait.
///
/// LAPS is non-clairvoyant and `(1+β+ε)`-speed `O(1)`-competitive for
/// arbitrary speed-up curves — the scalable baseline from the paper's
/// related-work section. Without speed augmentation (the paper's setting)
/// it has no constant guarantee, which our cross-policy table (experiment
/// T1) makes visible.
#[derive(Debug, Clone)]
pub struct Laps {
    beta: f64,
    /// Retained selection scratch for `assign` (see [`select_first`]).
    order: Vec<usize>,
}

impl Laps {
    /// Creates LAPS with parameter `β ∈ (0, 1]`. Panics outside that range.
    pub fn new(beta: f64) -> Self {
        assert!(
            beta > 0.0 && beta <= 1.0 && beta.is_finite(),
            "LAPS β must lie in (0, 1], got {beta}"
        );
        Self {
            beta,
            order: Vec::new(),
        }
    }

    /// The sharing fraction β.
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

impl Default for Laps {
    /// β = 1/2, a common choice in the literature's experiments.
    fn default() -> Self {
        Self::new(0.5)
    }
}

impl Policy for Laps {
    fn name(&self) -> String {
        // lint:allow(L007) Policy::name runs at engine construction and in error reporting, never per event
        format!("LAPS({})", self.beta)
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
        shares.fill(0.0);
        let k = ((self.beta * n as f64).ceil() as usize).clamp(1, n);
        // The k first by latest arrival (ties: higher id first, matching
        // "without loss of generality each job arrives at a unique time" —
        // ids encode arrival order for equal stamps). Ids are unique, so
        // the order is strict and the selected set is the sorted prefix.
        let latest = select_first(n, k, &mut self.order, |&a, &b| {
            jobs[b]
                .release()
                .partial_cmp(&jobs[a].release())
                // lint:allow(L007) comparator on admission-validated finite releases; cannot fail at runtime
                .expect("finite releases")
                .then(jobs[b].id().cmp(&jobs[a].id()))
        });
        let each = m / k as f64;
        for &i in latest {
            shares[i] = each;
        }
        None
    }

    fn stability(&self) -> AllocationStability {
        // The served set is the ⌈βn⌉ *latest arrivals*, which changes with
        // every arrival/completion in a way the incremental SRPT-prefix
        // bookkeeping cannot express.
        AllocationStability::General
    }

    fn srpt_ordered(&self) -> bool {
        // Latest-arrival-first is the opposite of an SRPT prefix.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_sim::{simulate, Instance, JobId, JobSpec};
    use parsched_speedup::Curve;

    #[test]
    #[should_panic(expected = "must lie in (0, 1]")]
    fn rejects_zero_beta() {
        let _ = Laps::new(0.0);
    }

    #[test]
    fn beta_one_is_equi() {
        let inst = Instance::from_sizes(&[(0.0, 2.0), (0.0, 2.0)], Curve::FullyParallel).unwrap();
        let a = simulate(&inst, &mut Laps::new(1.0), 2.0).unwrap();
        let b = simulate(&inst, &mut crate::Equi::new(), 2.0).unwrap();
        assert!((a.metrics.total_flow - b.metrics.total_flow).abs() < 1e-9);
    }

    #[test]
    fn favors_latest_arrivals() {
        // β = 0.5, n = 2: only the latest job runs.
        let specs = [
            JobSpec::new(JobId(0), 0.0, 4.0, Curve::FullyParallel),
            JobSpec::new(JobId(1), 1.0, 1.0, Curve::FullyParallel),
        ];
        let inst = Instance::new(specs.to_vec()).unwrap();
        let outcome = simulate(&inst, &mut Laps::new(0.5), 2.0).unwrap();
        // Job 0 runs alone [0,1) at rate 2 → 2 left. Job 1 arrives and
        // monopolizes: done at 1.5. Job 0 resumes: done at 2.5.
        assert_eq!(outcome.flow_of(JobId(1)), Some(0.5));
        assert_eq!(outcome.flow_of(JobId(0)), Some(2.5));
    }

    #[test]
    fn share_count_rounds_up() {
        // β = 0.5 with n = 3 → k = 2 jobs share.
        let specs = [
            JobSpec::new(JobId(0), 0.0, 1.0, Curve::FullyParallel),
            JobSpec::new(JobId(1), 0.5, 1.0, Curve::FullyParallel),
            JobSpec::new(JobId(2), 1.0, 8.0, Curve::FullyParallel),
        ];
        let views: Vec<AliveJob<'_>> = specs
            .iter()
            .map(|s| AliveJob {
                spec: s,
                remaining: 1.0,
            })
            .collect();
        let mut shares = vec![0.0; 3];
        Laps::new(0.5).assign(1.0, 4.0, &views, &mut shares);
        assert_eq!(shares, vec![0.0, 2.0, 2.0]);
    }
}
