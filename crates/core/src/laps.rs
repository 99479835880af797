//! LAPS: Latest Arrival Processor Sharing.

use parsched_sim::{AliveJob, AllocationStability, Policy, PrefixAllocation, Time};

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
///
/// # The arrival-suffix path
///
/// LAPS declares [`AllocationStability::LatestArrivals`], so by default
/// the engine runs it on its arrival-suffix path: the engine keeps the
/// alive set in `(release, id)` order itself and asks
/// [`Policy::prefix_allocation`] only for `(⌈βn⌉, m/⌈βn⌉)`. `assign` and
/// the exhaustive path it drives stay as they are, and
/// `EngineConfig::with_full_reassign` selects them as the oracle.
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
        let k = latest_count(self.beta, n);
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
        // The served set is the ⌈βn⌉ latest arrivals at one common share,
        // a function of n alone: the arrival-suffix path's contract. (The
        // SRPT set cannot hold it: the served set is not an SRPT prefix.)
        AllocationStability::LatestArrivals
    }

    fn prefix_allocation(&self, n_alive: usize, m: f64) -> Option<PrefixAllocation> {
        if n_alive == 0 {
            return None;
        }
        let count = latest_count(self.beta, n_alive);
        Some(PrefixAllocation {
            count,
            share: m / count as f64,
        })
    }

    fn srpt_ordered(&self) -> bool {
        // Latest-arrival-first is the opposite of an SRPT prefix.
        false
    }
}

/// How many jobs LAPS(β) serves among `n ≥ 1` alive: `⌈β·n⌉`, clamped
/// to `[1, n]`, shared by `assign` and `prefix_allocation`.
///
/// β is usually written in decimal, and its nearest double can push the
/// float product `β·n` a few ulps past an integer that the decimal
/// product equals: `0.55 · 100` evaluates to `55.000000000000007`, whose
/// ceiling is 56. A product within [`SNAP_ULPS`] ulps of an integer is
/// therefore taken as that integer. A decimal `βn` that is not an integer
/// lies at least `10⁻ᵈ` from one for `d` decimal digits of β, far outside
/// the snap, so the snap only repairs representation error. Exact
/// products (β = ½ and every dyadic β) are unchanged.
fn latest_count(beta: f64, n: usize) -> usize {
    let product = beta * n as f64;
    let nearest = product.round();
    let k = if (product - nearest).abs() <= SNAP_ULPS * f64::EPSILON * nearest.max(1.0) {
        nearest
    } else {
        product.ceil()
    };
    (k as usize).clamp(1, n)
}

/// The snap window of [`latest_count`], in ulps of the product.
const SNAP_ULPS: f64 = 4.0;

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
    fn latest_count_matches_the_decimal_ceiling() {
        // β in hundredths; the decimal ⌈βn⌉ in integer arithmetic.
        let hundredths = [1u64, 5, 10, 15, 20, 30, 33, 35, 40, 45, 55, 60, 70, 80, 90];
        let mut float_ceil_wrong = 0;
        for h in hundredths {
            let beta: f64 = format!("0.{h:02}").parse().unwrap();
            for n in 1..=100_000u64 {
                let want = (h * n).div_ceil(100).max(1) as usize;
                assert_eq!(latest_count(beta, n as usize), want, "β = {beta}, n = {n}");
                let old = ((beta * n as f64).ceil() as usize).clamp(1, n as usize);
                float_ceil_wrong += usize::from(old != want);
            }
        }
        // The plain float ceiling gets thousands of these wrong.
        assert_eq!(float_ceil_wrong, 2_759);
        assert_eq!(latest_count(0.55, 100), 55);
        // Exact products are untouched, and the clamp holds at both ends.
        for n in 1..=1_000 {
            assert_eq!(latest_count(0.5, n), n.div_ceil(2));
            assert_eq!(latest_count(1.0, n), n);
            assert_eq!(latest_count(1e-9, n), 1);
        }
    }

    #[test]
    fn prefix_profile_matches_assign() {
        let laps = Laps::new(0.55);
        assert_eq!(laps.stability(), AllocationStability::LatestArrivals);
        assert!(laps.prefix_allocation(0, 4.0).is_none());
        let p = laps.prefix_allocation(100, 4.0).unwrap();
        assert_eq!(p.count, 55);
        assert_eq!(p.share, 4.0 / 55.0);
        let specs: Vec<JobSpec> = (0..100)
            .map(|i| JobSpec::new(JobId(i), i as f64, 1.0, Curve::FullyParallel))
            .collect();
        let views: Vec<AliveJob<'_>> = specs
            .iter()
            .map(|s| AliveJob {
                spec: s,
                remaining: 1.0,
            })
            .collect();
        let mut shares = vec![0.0; 100];
        Laps::new(0.55).assign(0.0, 4.0, &views, &mut shares);
        assert!(shares[..45].iter().all(|&s| s == 0.0));
        assert!(shares[45..].iter().all(|&s| s == p.share));
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
