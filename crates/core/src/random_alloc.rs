//! A seeded random (but always feasible) policy, for fuzzing.
//!
//! The paper's structural lemmas hold for Intermediate-SRPT against *any*
//! feasible reference schedule; this policy generates arbitrary feasible
//! references so the lemma checkers aren't only exercised against
//! well-behaved schedulers.

use parsched_sim::{AliveJob, AllocationStability, Policy, Time};

/// Allocates processors uniformly at random (Dirichlet-ish via normalized
/// exponential weights) among a random subset of alive jobs, re-rolling on
/// every decision point and after a fixed quantum.
///
/// Deterministic per seed (uses a splitmix-style internal generator so
/// `rand` isn't a dependency of the policy crate's runtime path).
#[derive(Debug, Clone, Copy)]
pub struct RandomAllocation {
    state: u64,
    seed: u64,
    quantum: f64,
}

impl RandomAllocation {
    /// Creates the policy from a seed, re-rolling every `quantum` time
    /// units.
    pub fn new(seed: u64, quantum: f64) -> Self {
        assert!(quantum > 0.0 && quantum.is_finite());
        Self {
            state: seed,
            seed,
            quantum,
        }
    }

    /// splitmix64 step.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Policy for RandomAllocation {
    fn name(&self) -> String {
        format!("Random({})", self.seed)
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
        // Random positive weights, drawn into `shares` and then scaled to
        // `m` in place; occasionally zero a job out entirely so
        // starvation paths are exercised (but never all of them).
        let mut total = 0.0;
        for w in shares.iter_mut().take(n) {
            let u = self.next_f64();
            *w = if u < 0.25 {
                0.0
            } else {
                -((1.0 - u).max(1e-12)).ln()
            };
            total += *w;
        }
        if total <= 0.0 {
            let pick = (self.next_u64() as usize) % n;
            if let Some(w) = shares.get_mut(pick) {
                *w = 1.0;
            }
            total = 1.0;
        }
        for s in shares.iter_mut().take(n) {
            *s = m * *s / total;
        }
        Some(self.quantum)
    }

    fn reset(&mut self) {
        self.state = self.seed;
    }

    fn snapshot_state(&self) -> Vec<u64> {
        // The generator position is the policy's only run-mutable state;
        // re-running `assign` on restore (instead of restoring the word)
        // would advance the stream off-timeline and diverge the resume.
        vec![self.state]
    }

    fn restore_state(&mut self, state: &[u64]) -> bool {
        match state {
            [s] => {
                self.state = *s;
                true
            }
            _ => false,
        }
    }

    fn stability(&self) -> AllocationStability {
        // Shares are re-rolled at every decision point; nothing prefix-
        // shaped for the incremental path to maintain.
        AllocationStability::General
    }

    fn srpt_ordered(&self) -> bool {
        // Random weights ignore remaining work by construction.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_sim::{simulate, Instance};
    use parsched_speedup::Curve;

    fn instance() -> Instance {
        Instance::from_sizes(
            &[(0.0, 4.0), (0.5, 1.0), (1.0, 2.0), (1.5, 3.0)],
            Curve::power(0.5),
        )
        .unwrap()
    }

    #[test]
    fn is_feasible_and_completes() {
        // The engine validates Σ shares ≤ m on every decision; surviving a
        // full run is the feasibility proof.
        let out = simulate(&instance(), &mut RandomAllocation::new(7, 0.5), 4.0).unwrap();
        assert_eq!(out.metrics.num_jobs, 4);
    }

    #[test]
    fn deterministic_per_seed_and_resettable() {
        let mut p = RandomAllocation::new(9, 0.5);
        let a = simulate(&instance(), &mut p, 4.0).unwrap();
        let b = simulate(&instance(), &mut p, 4.0).unwrap(); // reset() re-seeds
        assert_eq!(a.completed, b.completed);
        let c = simulate(&instance(), &mut RandomAllocation::new(10, 0.5), 4.0).unwrap();
        assert_ne!(a.completed, c.completed);
    }

    #[test]
    fn different_seeds_visit_different_schedules() {
        let flows: Vec<f64> = (0..5)
            .map(|s| {
                simulate(&instance(), &mut RandomAllocation::new(s, 0.5), 4.0)
                    .unwrap()
                    .metrics
                    .total_flow
            })
            .collect();
        let mut uniq = flows.clone();
        uniq.sort_by(f64::total_cmp);
        uniq.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        assert!(uniq.len() >= 3, "{flows:?}");
    }
}
