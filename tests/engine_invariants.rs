//! Property tests of the runtime invariant-audit layer: every registry
//! policy, on both engine paths, passes a strict audit on random
//! workloads — and a deliberately broken policy is *caught*, with
//! structured context identifying the event.

use proptest::prelude::*;

use parsched_repro::policies::PolicyKind;
use parsched_repro::sim::{
    AllocationStability, AuditLevel, Engine, EngineConfig, EnginePath, Instance, JobId, JobSpec,
    NullObserver, Policy, PrefixAllocation, RunOutcome, SimError, StaticSource,
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

/// Every policy the registry can build, including the θ-ablation.
fn arb_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::IntermediateSrpt),
        Just(PolicyKind::ParallelSrpt),
        Just(PolicyKind::SequentialSrpt),
        Just(PolicyKind::Greedy),
        Just(PolicyKind::Equi),
        Just(PolicyKind::Laps(0.5)),
        Just(PolicyKind::Laps(0.55)),
        Just(PolicyKind::Setf),
        Just(PolicyKind::Threshold(2.0)),
    ]
}

fn run_audited(
    inst: &Instance,
    kind: PolicyKind,
    m: f64,
    full_reassign: bool,
    level: AuditLevel,
) -> Result<RunOutcome, SimError> {
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    Engine::new(
        EngineConfig::new(m)
            .with_full_reassign(full_reassign)
            .with_audit(level),
        &mut policy,
        &mut source,
        &mut obs,
    )
    .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zero violations at Strict for every registry policy, on both the
    /// exhaustive and (where the policy supports it) incremental paths —
    /// and the audited metrics match the unaudited run exactly.
    #[test]
    fn strict_audit_passes_everywhere(
        inst in arb_instance(),
        kind in arb_policy(),
        m in 1u32..=8,
    ) {
        let m = f64::from(m);
        for full_reassign in [false, true] {
            let plain = run_audited(&inst, kind, m, full_reassign, AuditLevel::Off).expect("run");
            prop_assert!(plain.audit.is_none());
            let out = run_audited(&inst, kind, m, full_reassign, AuditLevel::Strict)
                .unwrap_or_else(|e| panic!(
                    "{} (full_reassign={full_reassign}) failed audit: {e}",
                    kind.name()
                ));
            let report = out.audit.expect("audited run carries a report");
            prop_assert!(report.frames > 0 || inst.is_empty());
            prop_assert!(report.final_checked);
            // Auditing is observation only: the schedule is unchanged.
            prop_assert_eq!(&out.metrics, &plain.metrics);
        }
    }

    /// Sampled and Final levels accept whatever Strict accepts.
    #[test]
    fn weaker_levels_are_monotone(
        inst in arb_instance(),
        kind in arb_policy(),
        stride in 2u32..=128,
    ) {
        run_audited(&inst, kind, 4.0, false, AuditLevel::Strict).expect("strict");
        let sampled = run_audited(&inst, kind, 4.0, false, AuditLevel::Sampled(stride))
            .expect("sampled");
        let report = sampled.audit.expect("report");
        prop_assert!(report.frames <= sampled.metrics.events);
        let fin = run_audited(&inst, kind, 4.0, false, AuditLevel::Final).expect("final");
        let report = fin.audit.expect("report");
        prop_assert_eq!(report.frames, 0);
        prop_assert!(report.final_checked);
    }
}

/// A deliberately broken policy: it *claims* SRPT-ordered allocations
/// ([`Policy::srpt_ordered`]) but gives the whole machine to the job with
/// the **most** remaining work — the exact mutation the srpt-prefix
/// invariant exists to catch.
struct AntiSrpt;

impl Policy for AntiSrpt {
    fn name(&self) -> String {
        "anti-srpt".into()
    }

    fn assign(
        &mut self,
        _now: f64,
        m: f64,
        jobs: &[parsched_repro::sim::AliveJob<'_>],
        shares: &mut [f64],
    ) -> Option<f64> {
        let longest = (0..jobs.len())
            .max_by(|&a, &b| jobs[a].remaining.total_cmp(&jobs[b].remaining))
            .expect("assign is called with alive jobs");
        shares.fill(0.0);
        shares[longest] = m;
        None
    }

    fn srpt_ordered(&self) -> bool {
        true
    }
}

#[test]
fn mutated_policy_is_caught_with_structured_context() {
    // Two jobs alive from t = 0 with distinct remaining work: serving the
    // larger one while starving the smaller violates the SRPT-prefix claim
    // at the very first allocation.
    let inst = Instance::new(vec![
        JobSpec::new(JobId(0), 0.0, 1.0, Curve::FullyParallel),
        JobSpec::new(JobId(1), 0.0, 2.0, Curve::FullyParallel),
    ])
    .unwrap();
    let mut policy = AntiSrpt;
    let mut source = StaticSource::new(&inst);
    let mut obs = NullObserver;
    let err = Engine::new(
        EngineConfig::new(1.0).with_audit(AuditLevel::Strict),
        &mut policy,
        &mut source,
        &mut obs,
    )
    .run()
    .expect_err("the auditor must reject the anti-SRPT allocation");
    let SimError::AuditFailed { violation } = err else {
        panic!("expected AuditFailed, got {err:?}")
    };
    assert_eq!(violation.invariant, "srpt-prefix");
    assert_eq!(violation.event, 0, "caught at the first allocation");
    assert_eq!(violation.at, 0.0);
    assert_eq!(violation.policy, "anti-srpt");
    assert_eq!(violation.path, Some(EnginePath::Exhaustive));
    assert!(
        violation.detail.contains("job"),
        "detail names the starved job: {}",
        violation.detail
    );
    // The same policy without the claim is (by this invariant) fine.
    struct Honest;
    impl Policy for Honest {
        fn name(&self) -> String {
            "honest-lrpt".into()
        }
        fn assign(
            &mut self,
            now: f64,
            m: f64,
            jobs: &[parsched_repro::sim::AliveJob<'_>],
            shares: &mut [f64],
        ) -> Option<f64> {
            AntiSrpt.assign(now, m, jobs, shares)
        }
    }
    let mut policy = Honest;
    let mut source = StaticSource::new(&inst);
    let mut obs = NullObserver;
    Engine::new(
        EngineConfig::new(1.0).with_audit(AuditLevel::Strict),
        &mut policy,
        &mut source,
        &mut obs,
    )
    .run()
    .expect("without the srpt_ordered claim the run is conservation-clean");
}

/// A deliberately broken LAPS(½): it declares the arrival-suffix contract
/// and reports LAPS's profile, but when its `⌈n/2⌉` running jobs leave
/// some waiting it demotes the *latest* arrival instead of the oldest
/// running one — the mutation the arrival-suffix invariant exists to
/// catch.
struct WrongDemotion;

impl Policy for WrongDemotion {
    fn name(&self) -> String {
        "wrong-demotion".into()
    }

    fn assign(
        &mut self,
        _now: f64,
        m: f64,
        jobs: &[parsched_repro::sim::AliveJob<'_>],
        shares: &mut [f64],
    ) -> Option<f64> {
        let n = jobs.len();
        let k = n.div_ceil(2);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            jobs[a]
                .release()
                .total_cmp(&jobs[b].release())
                .then(jobs[a].id().cmp(&jobs[b].id()))
        });
        // The latest k, shifted one older when anyone waits.
        let end = if k < n { n - 1 } else { n };
        shares.fill(0.0);
        for &i in &order[end - k..end] {
            shares[i] = m / k as f64;
        }
        None
    }

    fn stability(&self) -> AllocationStability {
        AllocationStability::LatestArrivals
    }

    fn prefix_allocation(&self, n_alive: usize, m: f64) -> Option<PrefixAllocation> {
        let count = n_alive.div_ceil(2);
        (n_alive > 0).then(|| PrefixAllocation {
            count,
            share: m / count as f64,
        })
    }
}

#[test]
fn wrong_demotion_is_caught_at_its_event() {
    // Job 0 runs alone from t = 0; job 1 arrives at t = 1, when LAPS(½)
    // runs one job: the latest, job 1. The mutant demotes job 1 and keeps
    // job 0, so the check fails at that event (event 1), naming job 1.
    let inst = Instance::new(vec![
        JobSpec::new(JobId(0), 0.0, 4.0, Curve::FullyParallel),
        JobSpec::new(JobId(1), 1.0, 4.0, Curve::FullyParallel),
    ])
    .unwrap();
    let run = |full_reassign: bool| {
        let mut policy = WrongDemotion;
        let mut source = StaticSource::new(&inst);
        let mut obs = NullObserver;
        Engine::new(
            EngineConfig::new(2.0)
                .with_full_reassign(full_reassign)
                .with_audit(AuditLevel::Strict),
            &mut policy,
            &mut source,
            &mut obs,
        )
        .run()
    };
    let err = run(true).expect_err("the auditor must reject the wrong demotion");
    let SimError::AuditFailed { violation } = err else {
        panic!("expected AuditFailed, got {err:?}")
    };
    assert_eq!(violation.invariant, "arrival-suffix");
    assert_eq!(violation.event, 1, "caught at the arrival that demotes");
    assert_eq!(violation.at, 1.0);
    assert_eq!(violation.job, Some(JobId(1)));
    assert_eq!(violation.policy, "wrong-demotion");
    assert_eq!(violation.path, Some(EnginePath::Exhaustive));
    // The arrival-suffix path never calls `assign`: it demotes by itself,
    // and the same check passes on it.
    let out = run(false).expect("the arrival-suffix path demotes the oldest running job");
    assert_eq!(out.completed.len(), 2);
    // And LAPS itself passes on both paths.
    for full_reassign in [false, true] {
        run_audited(
            &inst,
            PolicyKind::Laps(0.5),
            2.0,
            full_reassign,
            AuditLevel::Strict,
        )
        .expect("LAPS is arrival-suffix clean");
    }
}

#[test]
fn corrupted_trace_allocation_is_caught_as_capacity_violation() {
    // A live policy cannot oversubscribe — the engine rejects infeasible
    // allocations before the auditor sees them — so the capacity mutation
    // goes through the offline replayer, which trusts only the invariants.
    use parsched_repro::sim::{record_run, replay, TraceEvent};

    let inst = Instance::new(vec![
        JobSpec::new(JobId(0), 0.0, 4.0, Curve::FullyParallel),
        JobSpec::new(JobId(1), 0.0, 4.0, Curve::FullyParallel),
    ])
    .unwrap();
    let (mut trace, _) = record_run(&inst, &mut PolicyKind::Equi.build(), 2.0).unwrap();
    let (corrupt_index, t) = trace
        .events
        .iter()
        .enumerate()
        .find_map(|(i, ev)| match ev {
            TraceEvent::Allocation { t, shares } if !shares.is_empty() => Some((i, *t)),
            _ => None,
        })
        .expect("trace has allocations");
    if let TraceEvent::Allocation { shares, .. } = &mut trace.events[corrupt_index] {
        shares[0].1 += 5.0;
    }
    let err = replay(&trace, AuditLevel::Strict)
        .expect_err("the replayer must reject an oversubscribed allocation");
    let SimError::AuditFailed { violation } = err else {
        panic!("expected AuditFailed, got {err:?}")
    };
    assert_eq!(violation.invariant, "capacity");
    assert_eq!(violation.path, None);
    assert_eq!(violation.at, t);
    assert!((violation.expected - 2.0).abs() < 1e-12);
    assert!(violation.actual > 2.0);
}
