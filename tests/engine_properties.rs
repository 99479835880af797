//! Property-based tests of the simulation engine's conservation laws and
//! the policies' structural invariants, on randomized instances.

use proptest::prelude::*;

use parsched_repro::opt::bounds;
use parsched_repro::policies::PolicyKind;
use parsched_repro::sim::{
    simulate, Engine, EngineConfig, Instance, JobId, JobSpec, NullObserver, Policy, StaticSource,
};
use parsched_repro::speedup::Curve;

/// Strategy: a small random instance of power-law jobs.
fn arb_instance() -> impl Strategy<Value = Instance> {
    let job = (0.0f64..20.0, 1.0f64..16.0, 0.0f64..=1.0);
    proptest::collection::vec(job, 1..24).prop_map(|jobs| {
        Instance::new(
            jobs.into_iter()
                .enumerate()
                .map(|(i, (r, p, a))| JobSpec::new(JobId(i as u64), r, p, Curve::power(a)))
                .collect(),
        )
        .expect("valid instance")
    })
}

fn arb_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::IntermediateSrpt),
        Just(PolicyKind::ParallelSrpt),
        Just(PolicyKind::SequentialSrpt),
        Just(PolicyKind::Greedy),
        Just(PolicyKind::Equi),
        Just(PolicyKind::Laps(0.5)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every job completes, exactly once, no earlier than both its release
    /// and its fastest possible processing time.
    #[test]
    fn completion_sanity(inst in arb_instance(), kind in arb_policy(), m in 1u32..=8) {
        let m = f64::from(m);
        let out = simulate(&inst, &mut kind.build(), m).expect("run");
        prop_assert_eq!(out.metrics.num_jobs, inst.len());
        let mut seen = std::collections::HashSet::new();
        for c in &out.completed {
            prop_assert!(seen.insert(c.id));
            let spec = inst.jobs().iter().find(|j| j.id == c.id).expect("spec");
            let min_flow = spec.curve.time_to_finish(spec.size, m);
            prop_assert!(c.completion >= spec.release + min_flow - 1e-6,
                "job {} finished impossibly fast: {} < {} + {}",
                c.id, c.completion, spec.release, min_flow);
        }
    }

    /// ∫|A(t)|dt = Σ_j F_j — the engine's two flow accountings agree.
    #[test]
    fn flow_conservation(inst in arb_instance(), kind in arb_policy(), m in 1u32..=8) {
        let m = f64::from(m);
        let out = simulate(&inst, &mut kind.build(), m).expect("run");
        let rel = (out.metrics.alive_integral - out.metrics.total_flow).abs()
            / out.metrics.total_flow.max(1.0);
        prop_assert!(rel < 1e-6, "∫|A| = {}, Σflow = {}", out.metrics.alive_integral, out.metrics.total_flow);
    }

    /// Fractional flow never exceeds integral flow, and max ≤ total.
    #[test]
    fn metric_orderings(inst in arb_instance(), kind in arb_policy(), m in 1u32..=8) {
        let m = f64::from(m);
        let out = simulate(&inst, &mut kind.build(), m).expect("run");
        prop_assert!(out.metrics.fractional_flow <= out.metrics.total_flow + 1e-6);
        prop_assert!(out.metrics.max_flow <= out.metrics.total_flow + 1e-9);
        prop_assert!(out.metrics.mean_flow <= out.metrics.max_flow + 1e-9);
    }

    /// Both OPT lower bounds really are lower bounds, for every policy.
    #[test]
    fn opt_lower_bounds_hold(inst in arb_instance(), kind in arb_policy(), m in 1u32..=8) {
        let m = f64::from(m);
        let flow = simulate(&inst, &mut kind.build(), m).expect("run").metrics.total_flow;
        // Relative slack: the engine's completion snap (≤ EPS·size per
        // job) accumulates across completions, so exact-optimal policies
        // can undershoot the exact bound by O(n²·EPS).
        let budget = flow * (1.0 + 1e-6) + 1e-6;
        prop_assert!(bounds::processing_lb(&inst, m) <= budget);
        prop_assert!(bounds::srpt_fluid_lb(&inst, m) <= budget);
    }

    /// Speed augmentation can only help (run at speed 2 ≤ flow at speed 1).
    #[test]
    fn speed_augmentation_monotone(inst in arb_instance(), m in 1u32..=4) {
        use parsched_repro::sim::{Engine, EngineConfig, NullObserver, StaticSource};
        let m = f64::from(m);
        let run = |speed: f64| {
            let mut p = PolicyKind::IntermediateSrpt.build();
            let mut s = StaticSource::new(&inst);
            let mut o = NullObserver;
            Engine::new(EngineConfig::new(m).with_speed(speed), &mut p, &mut s, &mut o)
                .run()
                .expect("run")
                .metrics
                .total_flow
        };
        prop_assert!(run(2.0) <= run(1.0) + 1e-6);
    }

    /// More processors never hurt Intermediate-SRPT on these instances.
    #[test]
    fn more_processors_do_not_hurt_isrpt(inst in arb_instance(), m in 1u32..=4) {
        let m = f64::from(m);
        let f1 = simulate(&inst, &mut PolicyKind::IntermediateSrpt.build(), m)
            .expect("run").metrics.total_flow;
        let f2 = simulate(&inst, &mut PolicyKind::IntermediateSrpt.build(), 2.0 * m)
            .expect("run").metrics.total_flow;
        prop_assert!(f2 <= f1 * (1.0 + 1e-6), "m={m}: {f1} vs 2m: {f2}");
    }

    /// Allocation feasibility at a non-integral processor count: the
    /// engine rejects any allocation with a negative share or a total
    /// above `m`, so every registry policy running to completion on both
    /// engine paths shows that none asks for more processors than exist
    /// (policies that grant whole processors use `⌊m⌋` of them, and less
    /// than one processor when `m < 1`).
    #[test]
    fn fractional_processor_counts_work(inst in arb_instance(), m_draw in 0.05f64..7.95) {
        let drawn = if m_draw.fract() == 0.0 { m_draw + 0.5 } else { m_draw };
        for m in [0.6, 2.6, 3.5, drawn] {
            for kind in PolicyKind::all_registered() {
                for full_reassign in [false, true] {
                    let mut policy = kind.build();
                    let mut source = StaticSource::new(&inst);
                    let mut obs = NullObserver;
                    let cfg = EngineConfig::new(m).with_full_reassign(full_reassign);
                    let out = Engine::new(cfg, policy.as_mut(), &mut source, &mut obs).run();
                    prop_assert!(
                        out.is_ok(),
                        "{} at m = {m} (full_reassign = {full_reassign}): {:?}",
                        kind.name(),
                        out.err()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential test: the exact event engine agrees with the naive
    /// fixed-timestep oracle to within the oracle's discretization error.
    /// (Event-invariant policies only: the greedy hybrid intentionally
    /// drifts between quanta, so its two simulations legitimately differ.)
    #[test]
    fn exact_engine_matches_quantized_oracle(
        inst in arb_instance(),
        kind in prop_oneof![
            Just(PolicyKind::IntermediateSrpt),
            Just(PolicyKind::SequentialSrpt),
            Just(PolicyKind::ParallelSrpt),
            Just(PolicyKind::Equi),
        ],
        m in 1u32..=6,
    ) {
        use parsched_repro::sim::quantized::simulate_quantized;
        let m = f64::from(m);
        let exact = simulate(&inst, &mut kind.build(), m).expect("exact").metrics;
        let dt = 1e-3;
        let quant = simulate_quantized(&inst, &mut kind.build(), m, dt, 50_000_000)
            .expect("quantized");
        prop_assert_eq!(quant.num_jobs, exact.num_jobs);
        // Each completion can be late by up to one step (plus trajectory
        // divergence bounded by steps since allocations refresh every dt);
        // empirically n·dt·small-constant covers it.
        let budget = inst.len() as f64 * dt * 20.0 + 1e-6;
        prop_assert!(
            (quant.total_flow - exact.total_flow).abs() <= budget,
            "exact {} vs quantized {} (budget {})",
            exact.total_flow, quant.total_flow, budget
        );
    }
}

/// A policy that deliberately reorders its shares to stress the engine's
/// validation paths (still feasible).
struct Shuffler(u64);

impl Policy for Shuffler {
    fn name(&self) -> String {
        "shuffler".into()
    }
    fn assign(
        &mut self,
        _now: f64,
        m: f64,
        jobs: &[parsched_repro::sim::AliveJob<'_>],
        shares: &mut [f64],
    ) -> Option<f64> {
        // Rotate a full allocation around the alive set, deterministically
        // varying with an internal counter.
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
        let pick = (self.0 >> 33) as usize % jobs.len();
        shares.fill(0.0);
        shares[pick] = m;
        Some(0.25)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Even an adversarially churning (but feasible) policy conserves the
    /// engine's accounting.
    #[test]
    fn churning_policy_conserves_flow(inst in arb_instance()) {
        let mut p = Shuffler(42);
        let out = simulate(&inst, &mut p, 4.0).expect("run");
        prop_assert_eq!(out.metrics.num_jobs, inst.len());
        let rel = (out.metrics.alive_integral - out.metrics.total_flow).abs()
            / out.metrics.total_flow.max(1.0);
        prop_assert!(rel < 1e-6);
    }
}
