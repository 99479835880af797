//! # parsched — Intermediate-SRPT and friends
//!
//! Scheduling algorithms for tasks of *intermediate parallelizability*,
//! reproducing **"Competitively Scheduling Tasks with Intermediate
//! Parallelizability"** (Im, Moseley, Pruhs, Torng — SPAA 2014).
//!
//! The setting: `m` identical processors must be divided among online jobs
//! whose speed-up curves are `Γ(x) = x` for `x ≤ 1` and `Γ(x) = x^α` for
//! `x ≥ 1`, with `α ∈ (0, 1)` strictly between sequential (`α = 0`) and
//! fully parallelizable (`α = 1`). The objective is total flow (waiting)
//! time, judged by the competitive ratio against the offline optimum on
//! instances with job sizes in `[1, P]`.
//!
//! ## The algorithms
//!
//! * [`IntermediateSrpt`] — **the paper's algorithm (Theorem 1)**: when at
//!   least `m` jobs are alive, run Sequential-SRPT (the `m` jobs with least
//!   remaining work get one processor each); when fewer than `m` jobs are
//!   alive, split the processors evenly (EQUI). It is
//!   `O(4^{1/(1-α)} · log P)`-competitive, which is optimal up to the
//!   constant: Theorem 2 shows *every* algorithm is `Ω(log P)`-competitive
//!   the moment `α < 1`.
//! * [`ParallelSrpt`] — all `m` processors to the job with least remaining
//!   work; optimal for fully parallelizable jobs, terrible otherwise.
//! * [`SequentialSrpt`] — one processor each to the (up to `m`) jobs with
//!   least remaining work; `O(log P)`-competitive for sequential jobs
//!   (Leonardi–Raz).
//! * [`GreedyHybrid`] — the "natural" greedy of the paper's §3 that
//!   maximizes the instantaneous drain rate of the fractional number of
//!   unfinished jobs. Lemma 10 shows its competitive ratio is
//!   `Ω(max{P, n^{1/3}})` — the cautionary tale motivating
//!   Intermediate-SRPT.
//! * [`Equi`] — even split among all alive jobs (Edmonds),
//!   [`Laps`] — even split among the `⌈β·n⌉` latest-arriving jobs
//!   (Edmonds–Pruhs), and [`Setf`] — rate-equalized sharing among the
//!   least-processed jobs; the non-clairvoyant baselines from the related
//!   work.
//! * [`ThresholdSrpt`] — Intermediate-SRPT with the regime boundary moved
//!   to `⌈θ·m⌉` (the X3 ablation; `θ = 1` is the paper's algorithm), and
//!   [`RandomAllocation`] — a seeded feasible fuzzing policy used as an
//!   arbitrary reference schedule by the lemma checkers.
//!
//! All of them implement [`parsched_sim::Policy`] and run on the exact
//! continuous-time engine in `parsched-sim`.
//!
//! ## Quick example
//!
//! ```
//! use parsched::IntermediateSrpt;
//! use parsched_sim::{simulate, Instance};
//! use parsched_speedup::Curve;
//!
//! // Six jobs of intermediate parallelizability (α = 0.5) on 4 processors.
//! let inst = Instance::from_sizes(
//!     &[(0.0, 8.0), (0.0, 1.0), (0.0, 2.0), (1.0, 4.0), (2.0, 1.0), (3.0, 2.0)],
//!     Curve::power(0.5),
//! ).unwrap();
//! let outcome = simulate(&inst, &mut IntermediateSrpt::new(), 4.0).unwrap();
//! assert_eq!(outcome.metrics.num_jobs, 6);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod equi;
mod greedy;
mod intermediate_srpt;
mod laps;
mod parallel_srpt;
mod random_alloc;
mod registry;
mod sequential_srpt;
mod setf;
pub mod theory;
mod threshold_srpt;
mod weighted;

pub use equi::Equi;
pub use greedy::GreedyHybrid;
pub use intermediate_srpt::IntermediateSrpt;
pub use laps::Laps;
pub use parallel_srpt::ParallelSrpt;
pub use random_alloc::RandomAllocation;
pub use registry::PolicyKind;
pub use sequential_srpt::SequentialSrpt;
pub use setf::Setf;
pub use threshold_srpt::ThresholdSrpt;
pub use weighted::WeightedIntermediateSrpt;

pub(crate) mod util {
    use std::cmp::Ordering;

    use parsched_sim::AliveJob;

    /// The SRPT order `(remaining work, release, id)`. Ids are unique
    /// among alive jobs, so this is a strict total order.
    pub(crate) fn srpt_cmp(a: &AliveJob<'_>, b: &AliveJob<'_>) -> Ordering {
        a.remaining
            .partial_cmp(&b.remaining)
            // lint:allow(L007) comparator on admission-validated finite remaining work; cannot fail at runtime
            .expect("remaining work is finite")
            .then(
                a.release()
                    .partial_cmp(&b.release())
                    // lint:allow(L007) comparator on admission-validated finite releases; cannot fail at runtime
                    .expect("release times are finite"),
            )
            .then(a.id().cmp(&b.id()))
    }

    /// The positions `0..n` of the first `k` items under `cmp` (all `n`
    /// when `k ≥ n`), in unspecified order, selected in the retained
    /// `order` buffer in expected `O(n)`. `cmp` must be a strict total
    /// order; the selected set is then exactly the first `k` of the sorted
    /// order, which is all a policy that grants the same share to each of
    /// them reads.
    pub(crate) fn select_first(
        n: usize,
        k: usize,
        order: &mut Vec<usize>,
        cmp: impl FnMut(&usize, &usize) -> Ordering,
    ) -> &[usize] {
        order.clear();
        order.extend(0..n);
        if k < n {
            order.select_nth_unstable_by(k, cmp);
            order.truncate(k);
        }
        order
    }

    /// The positions of the (up to) `k` jobs first in SRPT order, in
    /// unspecified order (see [`select_first`]).
    pub(crate) fn srpt_prefix<'o>(
        jobs: &[AliveJob<'_>],
        k: usize,
        order: &'o mut Vec<usize>,
    ) -> &'o [usize] {
        select_first(jobs.len(), k, order, |&a, &b| srpt_cmp(&jobs[a], &jobs[b]))
    }

    /// The integral machine count used by policies that reason about "one
    /// job per machine" (the paper's `m` is an integer): `⌊m⌋`, at least 1.
    /// Flooring keeps `machine_count(m)` whole-processor grants within `m`
    /// for every `m ≥ 1`; below one processor a grant is capped by
    /// [`whole_processor`].
    pub(crate) fn machine_count(m: f64) -> usize {
        (m.floor().max(1.0)) as usize
    }

    /// One job's whole-processor grant on `m` processors: 1, or all of `m`
    /// when there is less than one processor.
    pub(crate) fn whole_processor(m: f64) -> f64 {
        m.min(1.0)
    }
}
