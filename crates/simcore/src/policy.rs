//! The online scheduling policy interface.

use parsched_speedup::Curve;

use crate::job::{JobId, JobSpec, Time, Work};

/// A view of one unfinished job handed to a [`Policy`] at a decision point.
#[derive(Debug, Clone, Copy)]
pub struct AliveJob<'a> {
    /// The job's immutable description.
    pub spec: &'a JobSpec,
    /// Remaining unprocessed work `p_j(t)`.
    pub remaining: Work,
}

impl AliveJob<'_> {
    /// Job id.
    pub fn id(&self) -> JobId {
        self.spec.id
    }

    /// Release time `r_j`.
    pub fn release(&self) -> Time {
        self.spec.release
    }

    /// Original size `p_j`.
    pub fn size(&self) -> Work {
        self.spec.size
    }

    /// Speed-up curve `Γ_j`.
    pub fn curve(&self) -> &Curve {
        &self.spec.curve
    }
}

/// How a policy's preferred allocation evolves between discrete events —
/// the contract that decides which of the engine's four execution paths
/// is sound: the exhaustive path for [`AllocationStability::General`], the
/// incremental SRPT-set path for [`AllocationStability::SrptPrefix`], the
/// level path for [`AllocationStability::LeastElapsed`], and the
/// arrival-suffix path for [`AllocationStability::LatestArrivals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationStability {
    /// No structural guarantee: the engine must call
    /// [`Policy::assign`] on the full alive set at every event (the
    /// `O(n)`-per-event legacy path).
    General,
    /// The allocation is a *prefix profile of the SRPT order*: at every
    /// decision point, the first `k` jobs in `(remaining, release, id)`
    /// order each receive the same share `s` and every other job receives
    /// zero, where `(k, s)` depends only on `(|A(t)|, m)` (via
    /// [`Policy::prefix_allocation`]). The whole SRPT policy family —
    /// Intermediate-SRPT, Sequential-SRPT, Parallel-SRPT, Threshold-SRPT,
    /// and EQUI — has this shape, and it is what makes the incremental
    /// `O(log n)`-per-event engine path sound: between events the scheduled
    /// prefix drains at a common rate, so the SRPT order is invariant.
    ///
    /// Policies declaring this MUST return `Some` from
    /// [`Policy::prefix_allocation`] for every `n ≥ 1`, MUST have `assign`
    /// agree with that profile, and MUST NOT rely on quantum re-decisions
    /// (the incremental path never calls `assign`, so a returned quantum
    /// would be ignored).
    SrptPrefix,
    /// The allocation serves the *least-elapsed tie group* at a common
    /// rate: the jobs whose elapsed work `p_j − p_j(t)` is within
    /// [`ELAPSED_TIE_TOL`] (relative) of the least receive the shares that
    /// drain them all at one rate `ρ`, and every other job receives zero.
    /// SETF has this shape. The group and `ρ` only change at events
    /// (arrival, completion, or the group catching up to the next
    /// least-elapsed job), which makes the engine's *level* path sound:
    /// it keeps the alive set as a stack of equal-elapsed levels, serves
    /// the top one, and asks the policy for `ρ` and the shares through
    /// [`Policy::equalize_curves`], given only the group's distinct curves
    /// and their member counts.
    ///
    /// Policies declaring this MUST return `Some` from
    /// [`Policy::equalize_curves`] for every non-empty group, MUST have
    /// `assign` agree with it, and MUST NOT rely on `assign`'s quantum
    /// (the level path never calls `assign`; it schedules the catch-up
    /// itself).
    ///
    /// A quantum `assign` returns on the exhaustive path is a catch-up
    /// measured in *elapsed work at unit speed*: the engine divides it by
    /// [`crate::EngineConfig::speed`] before scheduling the re-decision,
    /// so both paths land the catch-up at `gap/(speed·ρ)`.
    LeastElapsed,
    /// The allocation is a *suffix profile of the arrival order*: at every
    /// decision point, the `k` latest jobs in `(release, id)` order each
    /// receive the same share `s` and every other job receives zero, where
    /// `(k, s)` depends only on `(|A(t)|, m)` (via
    /// [`Policy::prefix_allocation`], whose `count` then counts the latest
    /// arrivals). LAPS has this shape. Waiting jobs receive nothing, so
    /// they never complete, and the running set changes only at arrivals
    /// and completions, which makes the engine's *arrival-suffix* path
    /// sound: it keeps the alive set in arrival order, drains the running
    /// suffix under one offset per curve, and demotes or promotes one job
    /// at the suffix boundary when `k` moves.
    ///
    /// Policies declaring this MUST return `Some` from
    /// [`Policy::prefix_allocation`] for every `n ≥ 1`, MUST have `assign`
    /// agree with that profile, and MUST NOT rely on quantum re-decisions
    /// (the arrival-suffix path never calls `assign`).
    LatestArrivals,
}

/// Relative tolerance under which two elapsed-work values are *tied* for
/// [`AllocationStability::LeastElapsed`]: a job belongs to the served
/// group when its elapsed work is at most `e + ELAPSED_TIE_TOL·max(e, 1)`,
/// with `e` the least elapsed work of any alive job. It absorbs the
/// float residue that catch-ups and merges leave between jobs that are
/// tied in exact arithmetic.
pub const ELAPSED_TIE_TOL: f64 = 1e-7;

/// One distinct speed-up curve of a tie group and the number of group
/// members that carry it (see [`Policy::equalize_curves`]).
#[derive(Debug, Clone, Copy)]
pub struct CurveCount<'a> {
    /// The curve.
    pub curve: &'a Curve,
    /// Group members with this curve (at least 1).
    pub count: usize,
}

/// A prefix-of-SRPT-order allocation: the first `count` jobs in
/// `(remaining, release, id)` order each receive `share` processors; all
/// other alive jobs receive zero. For a policy declaring
/// [`AllocationStability::LatestArrivals`] the `count` scheduled jobs are
/// the latest arrivals in `(release, id)` order instead.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PrefixAllocation {
    /// Number of scheduled jobs `k ≥ 1` (callers clamp to `n`).
    pub count: usize,
    /// Processors per scheduled job (`count · share ≤ m`).
    pub share: f64,
}

/// An online scheduler: maps the current system state to a processor
/// allocation.
///
/// # Contract
///
/// * `assign` must fill `shares[i]` with the allocation of `jobs[i]`; each
///   share must be finite and `≥ 0`, and the shares must sum to at most `m`
///   (the engine verifies this and fails the run otherwise).
/// * The engine calls `assign` at every *event* (arrival, completion) and
///   whenever the previously returned *quantum* expires. Returning
///   `Some(dt)` asks for re-decision after at most `dt` time units even if
///   no discrete event happens — policies whose preferred allocation drifts
///   as remaining work drains (e.g. the §3 greedy hybrid) use this; policies
///   whose allocation only changes at events return `None` and are simulated
///   exactly.
/// * `reset` restores the policy to its initial state so one policy value
///   can be reused across runs.
///
/// # Incremental protocol
///
/// Policies whose allocation is a prefix profile of the SRPT order can opt
/// into the engine's `O(log n)`-per-event path by returning
/// [`AllocationStability::SrptPrefix`] from [`Policy::stability`] and
/// implementing [`Policy::prefix_allocation`]. On that path the engine
/// never calls `assign`; it maintains the SRPT order itself and applies the
/// profile directly. A policy learns of arrivals and completions only
/// through the alive set (and its size) passed to the next decision; the
/// engine sends no separate event notifications.
///
/// Policies whose allocation serves the least-elapsed tie group at a
/// common rate opt into the engine's level path the same way, by returning
/// [`AllocationStability::LeastElapsed`] and implementing
/// [`Policy::equalize_curves`]. Policies that share the machine equally
/// among the latest arrivals opt into the arrival-suffix path by returning
/// [`AllocationStability::LatestArrivals`] and implementing
/// [`Policy::prefix_allocation`].
pub trait Policy {
    /// Stable display name (used in tables, errors, and traces).
    fn name(&self) -> String;

    /// Chooses the allocation at time `now` for the given alive jobs on `m`
    /// processors. Returns an optional re-decision quantum.
    fn assign(
        &mut self,
        now: Time,
        m: f64,
        jobs: &[AliveJob<'_>],
        shares: &mut [f64],
    ) -> Option<f64>;

    /// Restores initial state (default: stateless, nothing to do).
    fn reset(&mut self) {}

    /// How this policy's allocation evolves between events (default:
    /// [`AllocationStability::General`], the conservative answer).
    fn stability(&self) -> AllocationStability {
        AllocationStability::General
    }

    /// The prefix profile `(k, s)` for `n` alive jobs on `m` processors.
    ///
    /// Must be `Some` (with `1 ≤ k ≤ n`, `s > 0`, `k·s ≤ m`) whenever
    /// [`Policy::stability`] returns [`AllocationStability::SrptPrefix`]
    /// or [`AllocationStability::LatestArrivals`] and `n ≥ 1`; the default
    /// returns `None`.
    fn prefix_allocation(&self, n_alive: usize, m: f64) -> Option<PrefixAllocation> {
        let _ = (n_alive, m);
        None
    }

    /// The common rate `ρ` at which a tie group drains on `m` processors,
    /// given the group's distinct curves with their member counts: writes
    /// the share of each member carrying `curves[c]` into `shares[c]`
    /// (`shares.len() == curves.len()`) and returns `ρ`.
    ///
    /// Must be `Some` (with finite `shares[c] ≥ 0`, `Σ count·share ≤ m`,
    /// and `ρ > 0` for `m > 0`) whenever [`Policy::stability`] returns
    /// [`AllocationStability::LeastElapsed`] and `curves` is non-empty;
    /// the default returns `None`.
    fn equalize_curves(
        &mut self,
        m: f64,
        curves: &[CurveCount<'_>],
        shares: &mut [f64],
    ) -> Option<f64> {
        let _ = (m, curves, shares);
        None
    }

    /// Whether this policy's allocation is always *SRPT-ordered*: the set
    /// of jobs with positive share is a prefix of the SRPT order
    /// (`(remaining, release, id)`) and all scheduled jobs receive the
    /// same share. The runtime invariant audit
    /// ([`crate::EngineConfig::with_audit`]) checks the `srpt-prefix`
    /// invariant only for policies that declare this.
    ///
    /// This is a *claimed semantic property checked by the audit*, distinct
    /// from [`Policy::stability`], which is an *execution-path contract*:
    /// EQUI runs on the incremental path (its equal split is a trivial
    /// whole-set prefix profile) but does not claim SRPT ordering — its
    /// allocation is order-agnostic, so the check would be vacuous. The
    /// SRPT policy family (Intermediate/Sequential/Parallel/Threshold-SRPT)
    /// overrides this to `true`. Default: `false`, the conservative answer.
    fn srpt_ordered(&self) -> bool {
        false
    }

    /// The policy's mutable run state as opaque words, for
    /// [`crate::Engine::snapshot`]. Stateless policies (the default) return
    /// an empty vector. Stateful policies (e.g. a seeded randomized policy's
    /// RNG position) must capture everything their future decisions depend
    /// on: after `reset()` + [`Policy::restore_state`] with these words, the
    /// policy must make bit-identical decisions to the captured one.
    fn snapshot_state(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restores run state captured by [`Policy::snapshot_state`]. Called
    /// after `reset()`. Returns `false` when the words are not a valid
    /// state for this policy (the default accepts only an empty slice).
    fn restore_state(&mut self, state: &[u64]) -> bool {
        state.is_empty()
    }
}

impl<P: Policy + ?Sized> Policy for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn assign(
        &mut self,
        now: Time,
        m: f64,
        jobs: &[AliveJob<'_>],
        shares: &mut [f64],
    ) -> Option<f64> {
        (**self).assign(now, m, jobs, shares)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn stability(&self) -> AllocationStability {
        (**self).stability()
    }

    fn prefix_allocation(&self, n_alive: usize, m: f64) -> Option<PrefixAllocation> {
        (**self).prefix_allocation(n_alive, m)
    }

    fn equalize_curves(
        &mut self,
        m: f64,
        curves: &[CurveCount<'_>],
        shares: &mut [f64],
    ) -> Option<f64> {
        (**self).equalize_curves(m, curves, shares)
    }

    fn srpt_ordered(&self) -> bool {
        (**self).srpt_ordered()
    }

    fn snapshot_state(&self) -> Vec<u64> {
        (**self).snapshot_state()
    }

    fn restore_state(&mut self, state: &[u64]) -> bool {
        (**self).restore_state(state)
    }
}

/// The simplest useful policy: split all `m` processors evenly among all
/// alive jobs (EQUI / processor sharing, Edmonds [TCS'00]).
///
/// Lives in `parsched-sim` (rather than the policy crate) so the engine can
/// be tested and documented without a circular dev-dependency; the policy
/// crate re-exports it as `Equi`.
#[derive(Debug, Default, Clone, Copy)]
pub struct EquiSplit;

impl EquiSplit {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl Policy for EquiSplit {
    fn name(&self) -> String {
        "EQUI".to_string()
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
        let each = m / jobs.len() as f64;
        shares.fill(each);
        None
    }

    fn stability(&self) -> AllocationStability {
        AllocationStability::SrptPrefix
    }

    fn prefix_allocation(&self, n_alive: usize, m: f64) -> Option<PrefixAllocation> {
        if n_alive == 0 {
            return None;
        }
        Some(PrefixAllocation {
            count: n_alive,
            share: m / n_alive as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_speedup::Curve;

    #[test]
    fn equi_splits_evenly() {
        let specs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec::new(JobId(i), 0.0, 1.0, Curve::FullyParallel))
            .collect();
        let jobs: Vec<AliveJob<'_>> = specs
            .iter()
            .map(|s| AliveJob {
                spec: s,
                remaining: 1.0,
            })
            .collect();
        let mut shares = vec![0.0; 4];
        let q = EquiSplit::new().assign(0.0, 6.0, &jobs, &mut shares);
        assert_eq!(q, None);
        assert!(shares.iter().all(|&s| (s - 1.5).abs() < 1e-12));
    }

    #[test]
    fn equi_handles_empty_system() {
        let mut shares: Vec<f64> = vec![];
        assert_eq!(EquiSplit::new().assign(0.0, 6.0, &[], &mut shares), None);
    }

    #[test]
    fn boxed_policy_delegates() {
        let mut p: Box<dyn Policy> = Box::new(EquiSplit::new());
        assert_eq!(p.name(), "EQUI");
        p.reset();
        let spec = JobSpec::new(JobId(0), 0.0, 1.0, Curve::Sequential);
        let jobs = [AliveJob {
            spec: &spec,
            remaining: 0.5,
        }];
        let mut shares = [0.0];
        p.assign(0.0, 2.0, &jobs, &mut shares);
        assert_eq!(shares[0], 2.0);
    }

    #[test]
    fn equi_prefix_profile_matches_assign() {
        let p = EquiSplit::new();
        assert_eq!(p.stability(), AllocationStability::SrptPrefix);
        // EQUI rides the incremental path but does not claim SRPT ordering.
        assert!(!p.srpt_ordered());
        for n in 1..=9usize {
            let prof = p.prefix_allocation(n, 6.0).unwrap();
            assert_eq!(prof.count, n);
            assert!((prof.count as f64 * prof.share - 6.0).abs() < 1e-12);
        }
        assert!(p.prefix_allocation(0, 6.0).is_none());
    }

    #[test]
    fn alive_job_accessors() {
        let spec = JobSpec::new(JobId(7), 1.5, 3.0, Curve::power(0.5));
        let j = AliveJob {
            spec: &spec,
            remaining: 2.0,
        };
        assert_eq!(j.id(), JobId(7));
        assert_eq!(j.release(), 1.5);
        assert_eq!(j.size(), 3.0);
        assert_eq!(j.remaining, 2.0);
        assert_eq!(j.curve().rate(4.0), 2.0);
    }
}
