//! The "natural" greedy hybrid of the paper's §3 — the cautionary tale.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use parsched_sim::{AliveJob, AllocationStability, Policy, Time};

use crate::util::{machine_count, whole_processor};

/// **Greedy hybrid** (paper §3): at every moment, allocate processors to
/// maximize the instantaneous rate of decrease of the *fractional number of
/// unfinished jobs*, treating each job's remaining work as its original
/// work.
///
/// Concretely (the paper's exchange-argument implementation): number the
/// processors `1..m`; processor `i` is given to the job `j` maximizing the
/// marginal gain `(Γ_j(c_j + 1) − Γ_j(c_j)) / p_j(t)`, where `c_j` is the
/// number of processors already handed to `j`.
///
/// This policy coincides with Parallel-SRPT when all jobs are fully
/// parallelizable and with Sequential-SRPT when all jobs are sequential —
/// which is exactly why it looks like the "right" interpolation. The
/// paper's Lemma 10 shows it is nonetheless `Ω(max{P, n^{1/3}})`
/// competitive: on the greedy-trap family it pours all `m` processors into
/// each arriving unit job while `m − m^{1−ε}` size-`m` jobs starve.
///
/// # Simulation accuracy
///
/// Unlike the SRPT-family policies, greedy's argmax depends on the
/// *current* remaining works and can flip between discrete events, so the
/// policy requests a re-decision quantum: a fraction `resolution` of the
/// shortest completion horizon under the chosen allocation. Smaller values
/// track the continuous-time policy more faithfully at the cost of more
/// events (benchmarked in the X1 ablation).
#[derive(Debug, Clone)]
pub struct GreedyHybrid {
    resolution: f64,
    /// Retained scratch for `assign`: whole processors granted per job.
    counts: Vec<u32>,
    /// Retained scratch for `assign`: the marginal-gain heap.
    heap: BinaryHeap<Entry>,
}

/// Total-ordered f64 wrapper so marginal gains can live in a heap.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
struct Gain(f64);

/// A heap entry: marginal gain, then the smaller id on ties (encoded by
/// `Reverse`), then the job's position. Ids are unique among alive jobs,
/// so the order is strict and the pop order does not depend on how the
/// heap was built.
type Entry = (Gain, Reverse<u64>, usize);

impl Eq for Gain {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Gain {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl GreedyHybrid {
    /// Default re-decision resolution (fraction of the shortest completion
    /// horizon).
    pub const DEFAULT_RESOLUTION: f64 = 0.1;

    /// Creates the policy with the default resolution.
    pub fn new() -> Self {
        Self::with_resolution(Self::DEFAULT_RESOLUTION)
    }

    /// Creates the policy with a custom re-decision resolution in
    /// `(0, 1]`. Panics outside that range.
    pub fn with_resolution(resolution: f64) -> Self {
        assert!(
            resolution > 0.0 && resolution <= 1.0 && resolution.is_finite(),
            "resolution must lie in (0, 1], got {resolution}"
        );
        Self {
            resolution,
            counts: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }
}

impl Default for GreedyHybrid {
    fn default() -> Self {
        Self::new()
    }
}

/// Hands out `machines` whole processors (`unit` each) one at a time, each
/// to the job of largest marginal gain `(Γ_j(c_j + 1) − Γ_j(c_j)) / p_j(t)`,
/// adding them to `shares` and counting them in the retained `counts`;
/// `heap` is the retained max-heap of [`Entry`]s.
fn grant_greedily(
    jobs: &[AliveJob<'_>],
    machines: usize,
    unit: f64,
    shares: &mut [f64],
    counts: &mut Vec<u32>,
    heap: &mut BinaryHeap<Entry>,
) {
    let n = jobs.len();
    counts.clear();
    counts.resize(n, 0);
    heap.clear();
    heap.extend((0..n).map(|i| {
        (
            Gain(jobs[i].curve().marginal(0) / jobs[i].remaining),
            Reverse(jobs[i].id().0),
            i,
        )
    }));
    for _ in 0..machines {
        let Some((_, _, i)) = heap.pop() else { break };
        counts[i] += 1;
        shares[i] += unit;
        // Re-pushes the entry just popped, so the heap never outgrows the
        // capacity it was built with.
        heap.push((
            Gain(jobs[i].curve().marginal(counts[i]) / jobs[i].remaining),
            Reverse(jobs[i].id().0),
            i,
        ));
    }
}

impl Policy for GreedyHybrid {
    fn name(&self) -> String {
        "Greedy".to_string()
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
        grant_greedily(
            jobs,
            machine_count(m),
            whole_processor(m),
            shares,
            &mut self.counts,
            &mut self.heap,
        );
        // Re-decide after a fraction of the shortest completion horizon so
        // the drifting argmax is tracked.
        let mut horizon = f64::INFINITY;
        for (i, job) in jobs.iter().enumerate() {
            let rate = job.curve().rate(shares[i]);
            if rate > 0.0 {
                horizon = horizon.min(job.remaining / rate);
            }
        }
        if horizon.is_finite() {
            Some((self.resolution * horizon).max(1e-9))
        } else {
            None
        }
    }

    fn stability(&self) -> AllocationStability {
        // The marginal-gain argmax drifts with remaining work and carries
        // no prefix structure: the engine must take the exhaustive path.
        AllocationStability::General
    }

    fn srpt_ordered(&self) -> bool {
        // Integer machine grants follow marginal gain, not the SRPT order.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_sim::{simulate, Instance, JobId, JobSpec};
    use parsched_speedup::Curve;

    fn assign_once(m: f64, specs: &[JobSpec]) -> Vec<f64> {
        let views: Vec<AliveJob<'_>> = specs
            .iter()
            .map(|s| AliveJob {
                spec: s,
                remaining: s.size,
            })
            .collect();
        let mut shares = vec![0.0; views.len()];
        GreedyHybrid::new().assign(0.0, m, &views, &mut shares);
        shares
    }

    #[test]
    #[should_panic(expected = "resolution must lie in (0, 1]")]
    fn rejects_zero_resolution() {
        let _ = GreedyHybrid::with_resolution(0.0);
    }

    #[test]
    fn matches_parallel_srpt_for_parallel_jobs() {
        // Fully parallel: marginal gain is 1/p_j for every processor →
        // everything goes to the shortest job.
        let specs = vec![
            JobSpec::new(JobId(0), 0.0, 4.0, Curve::FullyParallel),
            JobSpec::new(JobId(1), 0.0, 2.0, Curve::FullyParallel),
        ];
        assert_eq!(assign_once(4.0, &specs), vec![0.0, 4.0]);
    }

    #[test]
    fn matches_sequential_srpt_for_sequential_jobs() {
        // Sequential: only the first processor on a job has positive gain.
        let specs = vec![
            JobSpec::new(JobId(0), 0.0, 4.0, Curve::Sequential),
            JobSpec::new(JobId(1), 0.0, 2.0, Curve::Sequential),
            JobSpec::new(JobId(2), 0.0, 3.0, Curve::Sequential),
        ];
        let shares = assign_once(2.0, &specs);
        // Two processors, three jobs: shortest two get one each.
        assert_eq!(shares, vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn monopolizes_short_job_on_trap_shape() {
        // The Lemma 10 failure mode: one unit job vs size-m jobs, α < 1.
        // Marginal of processor k+1 on the unit job: (k+1)^α − k^α ≥
        // marginal-per-size of giving it to a size-m job (1/m), so greedy
        // gives *all* m processors to the unit job.
        let m = 16usize;
        let mut specs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec::new(JobId(i), 0.0, m as f64, Curve::power(0.9)))
            .collect();
        specs.push(JobSpec::new(JobId(99), 0.0, 1.0, Curve::power(0.9)));
        let shares = assign_once(m as f64, &specs);
        assert_eq!(
            shares[4], m as f64,
            "unit job should monopolize: {shares:?}"
        );
    }

    #[test]
    fn splits_between_equal_intermediate_jobs() {
        // Two identical α=0.5 jobs: marginal gains alternate, so the m
        // processors split evenly.
        let specs = vec![
            JobSpec::new(JobId(0), 0.0, 4.0, Curve::power(0.5)),
            JobSpec::new(JobId(1), 0.0, 4.0, Curve::power(0.5)),
        ];
        let shares = assign_once(6.0, &specs);
        assert_eq!(shares, vec![3.0, 3.0]);
    }

    #[test]
    fn end_to_end_simulation_completes() {
        let inst = Instance::from_sizes(
            &[(0.0, 4.0), (0.0, 1.0), (0.5, 2.0), (1.0, 3.0)],
            Curve::power(0.5),
        )
        .unwrap();
        let outcome = simulate(&inst, &mut GreedyHybrid::new(), 4.0).unwrap();
        assert_eq!(outcome.metrics.num_jobs, 4);
        // Sanity: all flows positive and finite.
        assert!(outcome
            .completed
            .iter()
            .all(|c| c.flow() > 0.0 && c.flow().is_finite()));
    }

    #[test]
    fn finer_resolution_changes_flow_only_slightly() {
        let inst = Instance::from_sizes(
            &[(0.0, 4.0), (0.0, 3.0), (0.0, 2.0), (1.0, 5.0)],
            Curve::power(0.7),
        )
        .unwrap();
        let coarse = simulate(&inst, &mut GreedyHybrid::with_resolution(0.5), 4.0)
            .unwrap()
            .metrics
            .total_flow;
        let fine = simulate(&inst, &mut GreedyHybrid::with_resolution(0.01), 4.0)
            .unwrap()
            .metrics
            .total_flow;
        let rel = (coarse - fine).abs() / fine;
        assert!(rel < 0.05, "resolution sensitivity too high: {rel}");
    }
}
