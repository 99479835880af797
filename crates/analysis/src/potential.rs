//! The paper's potential function, evaluated in lockstep over two runs.
//!
//! §2.3 defines, for the algorithm's schedule `A` and a reference schedule
//! `OPT` (any feasible schedule works for every lemma the paper proves
//! about `Φ`):
//!
//! ```text
//! z_i(t)    = max(p_i^A(t) − p_i^OPT(t), 0)
//! rank(i,t) = min(m, |{ j ∈ A(t) : r_j ≤ r_i }|)
//! Φ(t)      = 16 · Σ_{i ∈ A(t)} z_i(t) / Γ_i(m / rank(i, t))
//! ```
//!
//! The lockstep runner advances both engines to the *merged* event
//! timeline; between events every quantity is piecewise-linear, so
//! sampling `Φ` just before and just after each event measures both the
//! continuous drift `dΦ/dt` (exactly, as a per-interval average) and the
//! discontinuous jumps.

use parsched::theory;
use parsched_sim::{
    AliveSnapshot, Engine, EngineConfig, Instance, NullObserver, Policy, SimError, StaticSource,
};

use crate::lemmas::{check_sample, LemmaReport};

/// The paper's `Φ(t)`, computed from owned snapshots of both engines'
/// alive sets. `ref_remaining(id)` must return the reference schedule's
/// remaining work (0 once finished).
pub fn phi(alg_alive: &[AliveSnapshot], ref_remaining: impl Fn(u64) -> f64, m: f64) -> f64 {
    let mut jobs: Vec<&AliveSnapshot> = alg_alive.iter().collect();
    // rank(i, t) counts alive jobs released no later than i (the paper
    // assumes unique arrival times; ties break by id, which encodes
    // emission order).
    jobs.sort_by(|a, b| {
        a.release
            .partial_cmp(&b.release)
            .expect("finite releases")
            .then(a.id.cmp(&b.id))
    });
    let m_int = m.round().max(1.0);
    let mut total = 0.0;
    for (pos, job) in jobs.iter().enumerate() {
        let rank = ((pos + 1) as f64).min(m_int);
        let z = (job.remaining - ref_remaining(job.id.0)).max(0.0);
        let gamma = job.curve.rate(m / rank);
        debug_assert!(gamma > 0.0);
        total += z / gamma;
    }
    theory::PHI_PREFACTOR * total
}

/// Verdicts from one lockstep run.
#[derive(Debug, Clone, PartialEq)]
pub struct PotentialReport {
    /// `Φ` at the first sample (must be 0: no jobs yet).
    pub phi_start: f64,
    /// `Φ` after the last event (must be 0: both schedules empty).
    pub phi_end: f64,
    /// Largest increase of `Φ` across any discontinuous event
    /// (§2.3 proves jumps are never positive).
    pub max_jump: f64,
    /// Largest empirical constant `c` such that
    /// `dΦ/dt ≤ c · 4^{1/(1-α)} log₂P · |OPT(t)|` was needed at an
    /// overloaded interval with `|OPT(t)| > 0` (Lemma 2's shape).
    pub overload_c: f64,
    /// Largest `dΦ/dt` over overloaded intervals with `|OPT(t)| = 0`
    /// (must be ≤ 0 up to numerics: with no reference jobs left the
    /// potential can only drain).
    pub overload_zero_opt_drift: f64,
    /// Largest empirical constant `c` such that
    /// `|A(t)| + dΦ/dt ≤ c · 2^{1/(1-α)} · |OPT(t)|` was needed at an
    /// underloaded interval with `|OPT(t)| > 0` (Lemma 3's shape).
    pub underload_c: f64,
    /// Largest `|A(t)| + dΦ/dt` over underloaded intervals with
    /// `|OPT(t)| = 0` (must be ≤ 0 up to numerics).
    pub underload_zero_opt_drift: f64,
    /// Number of continuous intervals measured.
    pub intervals: usize,
}

impl PotentialReport {
    /// Whether every condition the paper proves holds on this trace
    /// (with `max_c` allowed for the two O(1) constants and `tol` for
    /// float noise).
    pub fn satisfies_paper_conditions(&self, max_c: f64, tol: f64) -> bool {
        self.phi_start.abs() <= tol
            && self.phi_end.abs() <= tol
            && self.max_jump <= tol
            && self.overload_c <= max_c
            && self.overload_zero_opt_drift <= tol
            && self.underload_c <= max_c
            && self.underload_zero_opt_drift <= tol
    }
}

/// A potential report plus the pointwise lemma checks gathered on the same
/// trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LockstepReport {
    /// Potential-function conditions.
    pub potential: PotentialReport,
    /// Lemma 1/4/5 checks.
    pub lemmas: LemmaReport,
    /// Total flow of the algorithm's run.
    pub alg_flow: f64,
    /// Total flow of the reference run.
    pub ref_flow: f64,
}

/// Runs `alg` and `reference` on `instance` in lockstep and checks every
/// §2 condition along the merged event timeline.
///
/// `alpha` is the paper's `α = max_j α_j` (used in the Lemma 2/3 bound
/// shapes); pass the workload's generating exponent.
pub fn lockstep_report(
    instance: &Instance,
    m: f64,
    alg: &mut dyn Policy,
    reference: &mut dyn Policy,
    alpha: f64,
) -> Result<LockstepReport, SimError> {
    let p = instance.size_ratio().max(2.0);
    let four_log = theory::four_power(alpha).min(1e12) * p.log2().max(1.0);
    let two_pow = 2f64.powf(1.0 / (1.0 - alpha).max(1e-9)).min(1e12);

    let mut src_a = StaticSource::new(instance);
    let mut src_b = StaticSource::new(instance);
    let mut obs_a = NullObserver;
    let mut obs_b = NullObserver;
    let mut a = Engine::new(EngineConfig::new(m), alg, &mut src_a, &mut obs_a);
    let mut b = Engine::new(EngineConfig::new(m), reference, &mut src_b, &mut obs_b);

    let phi_of = |a: &Engine<'_>, b: &Engine<'_>| {
        let snap = a.alive_snapshot();
        phi(
            &snap,
            |id| b.remaining_of(parsched_sim::JobId(id)).unwrap_or(0.0),
            m,
        )
    };

    let mut report = PotentialReport {
        phi_start: phi_of(&a, &b),
        phi_end: 0.0,
        max_jump: f64::NEG_INFINITY,
        overload_c: 0.0,
        overload_zero_opt_drift: f64::NEG_INFINITY,
        underload_c: 0.0,
        underload_zero_opt_drift: f64::NEG_INFINITY,
        intervals: 0,
    };
    let mut lemmas = LemmaReport::default();
    let m_int = m.round().max(1.0) as usize;

    let mut prev_t = 0.0f64;
    let mut prev_phi = report.phi_start;
    loop {
        let ta = a.next_event_time()?;
        let tb = b.next_event_time()?;
        let t = match (ta, tb) {
            (None, None) => break,
            (Some(x), None) => x,
            (None, Some(y)) => y,
            (Some(x), Some(y)) => x.min(y),
        };
        let dt = t - prev_t;
        let mut phi_pre = prev_phi;
        if dt > 1e-6 {
            // Sample just before the event: allocations (hence drift) are
            // constant on (prev_t, t), so the averaged slope is the exact
            // instantaneous one.
            // Small enough that the continuous drift accrued on
            // [t−ε, t] (rate ≤ 16(|A|+|OPT|)) cannot masquerade as a
            // discontinuous jump, large enough that completions at t don't
            // fire early through the engine's snap tolerance.
            let eps = (dt * 1e-6).clamp(1e-9, 1e-6);
            let t_pre = t - eps;
            a.advance_to(t_pre)?;
            b.advance_to(t_pre)?;
            phi_pre = phi_of(&a, &b);
            let slope = (phi_pre - prev_phi) / (t_pre - prev_t);
            let alg_alive = a.num_alive();
            let ref_alive = b.num_alive();
            report.intervals += 1;
            if alg_alive >= m_int {
                if ref_alive > 0 {
                    report.overload_c =
                        report.overload_c.max(slope / (four_log * ref_alive as f64));
                } else {
                    report.overload_zero_opt_drift = report.overload_zero_opt_drift.max(slope);
                }
            } else if alg_alive > 0 {
                let lhs = alg_alive as f64 + slope;
                if ref_alive > 0 {
                    report.underload_c = report.underload_c.max(lhs / (two_pow * ref_alive as f64));
                } else {
                    report.underload_zero_opt_drift = report.underload_zero_opt_drift.max(lhs);
                }
            }
        }
        a.advance_to(t)?;
        b.advance_to(t)?;
        let phi_post = phi_of(&a, &b);
        report.max_jump = report.max_jump.max(phi_post - phi_pre);
        // Pointwise lemma checks at the post-event state.
        lemmas.absorb(&check_sample(
            &a.alive_snapshot(),
            &b.alive_snapshot(),
            m,
            p,
        ));
        prev_t = t;
        prev_phi = phi_post;
    }
    report.phi_end = prev_phi;
    if !report.max_jump.is_finite() {
        report.max_jump = 0.0;
    }
    if !report.overload_zero_opt_drift.is_finite() {
        report.overload_zero_opt_drift = 0.0;
    }
    if !report.underload_zero_opt_drift.is_finite() {
        report.underload_zero_opt_drift = 0.0;
    }

    let a_out = a.into_outcome()?;
    let b_out = b.into_outcome()?;
    Ok(LockstepReport {
        potential: report,
        lemmas,
        alg_flow: a_out.metrics.total_flow,
        ref_flow: b_out.metrics.total_flow,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched::{Equi, IntermediateSrpt, SequentialSrpt};
    use parsched_sim::{Instance, JobId, JobSpec};
    use parsched_speedup::Curve;

    fn mixed_instance(alpha: f64) -> Instance {
        let sizes = [
            (0.0, 4.0),
            (0.0, 1.0),
            (0.5, 2.0),
            (1.0, 8.0),
            (1.5, 1.0),
            (2.0, 3.0),
            (2.5, 1.5),
            (6.0, 2.0),
        ];
        Instance::from_sizes(&sizes, Curve::power(alpha)).unwrap()
    }

    #[test]
    fn phi_is_zero_when_schedules_agree() {
        // If the reference has the same remaining work, all z_i = 0.
        let snap = vec![AliveSnapshot {
            id: JobId(0),
            release: 0.0,
            size: 4.0,
            remaining: 2.0,
            curve: Curve::power(0.5),
        }];
        assert_eq!(phi(&snap, |_| 2.0, 4.0), 0.0);
    }

    #[test]
    fn phi_matches_hand_computation() {
        // Two alive jobs, m = 4.
        // Sorted by release: job0 (rank 1), job1 (rank 2).
        // z_0 = 3 − 1 = 2, Γ(4/1) = 2      → 1.0
        // z_1 = 2 − 0 = 2, Γ(4/2) = √2     → 2/√2 = √2
        // Φ = 16 (1 + √2).
        let mk = |id: u64, release: f64, remaining: f64| AliveSnapshot {
            id: JobId(id),
            release,
            size: 4.0,
            remaining,
            curve: Curve::power(0.5),
        };
        let snap = vec![mk(0, 0.0, 3.0), mk(1, 1.0, 2.0)];
        let refrem = |id: u64| if id == 0 { 1.0 } else { 0.0 };
        let expected = 16.0 * (1.0 + 2f64.sqrt());
        assert!((phi(&snap, refrem, 4.0) - expected).abs() < 1e-9);
    }

    #[test]
    fn phi_ranks_saturate_at_m() {
        // With more alive jobs than machines, rank caps at m.
        let mk = |id: u64| AliveSnapshot {
            id: JobId(id),
            release: id as f64,
            size: 1.0,
            remaining: 1.0,
            curve: Curve::power(0.5),
        };
        let snap: Vec<_> = (0..5).map(mk).collect();
        // m = 2: ranks 1, 2, 2, 2, 2 → Γ(2/1)=√2, Γ(2/2)=1 for the rest.
        let val = phi(&snap, |_| 0.0, 2.0);
        let expected = 16.0 * (1.0 / 2f64.sqrt() + 4.0);
        assert!((val - expected).abs() < 1e-9);
    }

    #[test]
    fn lockstep_conditions_hold_for_isrpt_vs_equi() {
        let inst = mixed_instance(0.5);
        let rep = lockstep_report(
            &inst,
            2.0,
            &mut IntermediateSrpt::new(),
            &mut Equi::new(),
            0.5,
        )
        .unwrap();
        assert!(
            rep.potential.satisfies_paper_conditions(100.0, 1e-3),
            "{rep:?}"
        );
        assert!(rep.lemmas.lemma1_ok() && rep.lemmas.lemma4_ok() && rep.lemmas.lemma5_ok());
        assert!(rep.potential.intervals > 0);
    }

    #[test]
    fn lockstep_conditions_hold_for_isrpt_vs_sequential_srpt() {
        let inst = mixed_instance(0.3);
        let rep = lockstep_report(
            &inst,
            3.0,
            &mut IntermediateSrpt::new(),
            &mut SequentialSrpt::new(),
            0.3,
        )
        .unwrap();
        assert!(
            rep.potential.satisfies_paper_conditions(100.0, 1e-3),
            "{rep:?}"
        );
    }

    #[test]
    fn boundary_condition_zero_at_both_ends() {
        let inst = mixed_instance(0.7);
        let rep = lockstep_report(
            &inst,
            2.0,
            &mut IntermediateSrpt::new(),
            &mut Equi::new(),
            0.7,
        )
        .unwrap();
        assert!(rep.potential.phi_start.abs() < 1e-9);
        assert!(rep.potential.phi_end.abs() < 1e-6);
    }

    #[test]
    fn flows_reported_match_direct_simulation() {
        use parsched_sim::simulate;
        let inst = mixed_instance(0.5);
        let rep = lockstep_report(
            &inst,
            2.0,
            &mut IntermediateSrpt::new(),
            &mut Equi::new(),
            0.5,
        )
        .unwrap();
        let direct = simulate(&inst, &mut IntermediateSrpt::new(), 2.0).unwrap();
        assert!((rep.alg_flow - direct.metrics.total_flow).abs() < 1e-6);
        let direct_ref = simulate(&inst, &mut Equi::new(), 2.0).unwrap();
        assert!((rep.ref_flow - direct_ref.metrics.total_flow).abs() < 1e-6);
    }

    /// A job spec list where the algorithm gets *ahead* of the reference
    /// (z_i = 0 throughout): Φ must stay 0.
    #[test]
    fn phi_zero_when_algorithm_leads() {
        let specs = vec![JobSpec::new(JobId(0), 0.0, 4.0, Curve::FullyParallel)];
        let inst = Instance::new(specs).unwrap();
        // Algorithm: EQUI (full speed on the single job). Reference:
        // Sequential-SRPT (1 processor only) — strictly slower.
        let rep = lockstep_report(
            &inst,
            4.0,
            &mut Equi::new(),
            &mut SequentialSrpt::new(),
            1.0,
        )
        .unwrap();
        assert!(rep.potential.max_jump <= 1e-9);
        assert!(rep.potential.phi_end.abs() < 1e-9);
    }
}
