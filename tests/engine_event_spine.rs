//! Engine-level contracts for the event spine — arrival admission, event
//! selection, and same-timestamp coalescing:
//!
//! * a same-timestamp arrival + completion is one engine step, counted
//!   once (`Engine::coalesced_steps`, docs/PERF.md §4);
//! * the Parallel-SRPT event count on the standard n = 10⁴ fixture is
//!   pinned exactly: 19_999 = 2n − 1, one coalesced step on this seed,
//!   while Intermediate-SRPT sees 20_000 (no coincidence under its
//!   allocation). Any drift in arrival admission, event ordering, or
//!   coalescing shows up here as an off-by-k;
//! * a mixed-α run suspended at assorted event boundaries resumes
//!   bit-identically, Γ class registry included.

use parsched::PolicyKind;
use parsched_bench::{mixed_alpha_fixture, poisson_fixture};
use parsched_sim::{
    Engine, EngineConfig, Instance, JobId, JobSpec, NullObserver, RunOutcome, StaticSource,
};
use parsched_speedup::Curve;

fn run(inst: &Instance, kind: &PolicyKind) -> RunOutcome {
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    Engine::new(
        EngineConfig::new(8.0),
        policy.as_mut(),
        &mut source,
        &mut obs,
    )
    .run()
    .expect("run")
}

/// Two fully parallelizable jobs on m = 8: job 0 (size 8, release 0)
/// drains at rate 8 and completes at exactly t = 1.0 — the instant job 1
/// is released. The engine must process that coincidence as ONE step
/// (completion + arrival coalesced), and count it once.
#[test]
fn same_timestamp_arrival_and_completion_coalesce_into_one_counted_step() {
    let inst = Instance::new(vec![
        JobSpec::new(JobId(0), 0.0, 8.0, Curve::power(1.0)),
        JobSpec::new(JobId(1), 1.0, 8.0, Curve::power(1.0)),
    ])
    .expect("coincidence instance");
    let mut policy = PolicyKind::IntermediateSrpt.build();
    let mut source = StaticSource::new(&inst);
    let mut obs = NullObserver;
    let cfg = EngineConfig::new(8.0);
    let mut engine = Engine::new(cfg, policy.as_mut(), &mut source, &mut obs);
    while engine.step().expect("step") {}
    assert_eq!(
        engine.coalesced_steps(),
        1,
        "the t = 1.0 coincidence must be one coalesced step"
    );
    let out = engine.into_outcome().expect("outcome");
    // 2 events: the t = 0 admission precedes the first step (not an
    // event), t = 1 is ONE coalesced completion+arrival step (not
    // two), t = 2 is the final completion.
    assert_eq!(out.metrics.events, 2, "event count");
    assert_eq!(out.metrics.makespan, 2.0, "makespan");
}

#[test]
fn parallel_srpt_event_count_is_pinned_on_the_standard_n1e4_fixture() {
    let inst = poisson_fixture(10_000, 0.9, 8.0);
    let psrpt = run(&inst, &PolicyKind::ParallelSrpt);
    assert_eq!(
        psrpt.metrics.events, 19_999,
        "Parallel-SRPT event count moved — arrival admission, event \
         ordering, or coalescing changed"
    );
    let isrpt = run(&inst, &PolicyKind::IntermediateSrpt);
    assert_eq!(
        isrpt.metrics.events, 20_000,
        "Intermediate-SRPT event count moved"
    );
}

/// Regression for snapshot/restore across the arrival timeline and the
/// Γ class registry: suspend a mixed-α run (multi-class Γ registry) at
/// assorted event boundaries, restore into a fresh engine, and require the
/// resumed trajectory to be bit-identical to the uninterrupted run. The
/// cached next arrival must survive verbatim (else the arrival timeline
/// is silently dropped), and the rebuilt Γ class registry must assign
/// every resumed job its original class id so the per-class rate cache
/// stays bit-identical through later Scan intervals.
#[test]
fn snapshot_restore_resumes_bit_identically_across_the_class_registry() {
    let inst = mixed_alpha_fixture(600, 0.9, 8.0);
    for kind in [PolicyKind::IntermediateSrpt, PolicyKind::Equi] {
        let baseline = run(&inst, &kind);
        for suspend_at in [0u64, 1, 7, 200, 899] {
            // Run the original engine up to the suspend point.
            let mut policy = kind.build();
            let mut source = StaticSource::new(&inst);
            let mut obs = NullObserver;
            let cfg = EngineConfig::new(8.0);
            let mut engine = Engine::new(cfg, policy.as_mut(), &mut source, &mut obs);
            for _ in 0..suspend_at {
                assert!(engine.step().expect("pre-suspend step"));
            }
            let snap = engine.snapshot().expect("snapshot");
            drop(engine);
            // Resume on a fresh engine (fresh policy/source values,
            // as a migrated shard would hold) and run out.
            let mut policy2 = kind.build();
            let mut source2 = StaticSource::new(&inst);
            let mut obs2 = NullObserver;
            let mut resumed = Engine::new(cfg, policy2.as_mut(), &mut source2, &mut obs2);
            resumed.restore(&snap).expect("restore");
            while resumed.step().expect("post-restore step") {}
            let out = resumed.into_outcome().expect("resumed outcome");
            let ctx = format!("{} / suspend@{suspend_at}", kind.name());
            assert_eq!(out.metrics.events, baseline.metrics.events, "{ctx}: events");
            assert_eq!(
                out.metrics.total_flow.to_bits(),
                baseline.metrics.total_flow.to_bits(),
                "{ctx}: total_flow"
            );
            assert_eq!(
                out.metrics.fractional_flow.to_bits(),
                baseline.metrics.fractional_flow.to_bits(),
                "{ctx}: fractional_flow"
            );
            assert_eq!(
                out.metrics.makespan.to_bits(),
                baseline.metrics.makespan.to_bits(),
                "{ctx}: makespan"
            );
            assert_eq!(
                out.completed.len(),
                baseline.completed.len(),
                "{ctx}: completion count"
            );
            for (a, b) in out.completed.iter().zip(&baseline.completed) {
                assert_eq!(a.id, b.id, "{ctx}: completion order");
                assert_eq!(
                    a.completion.to_bits(),
                    b.completion.to_bits(),
                    "{ctx}: completion time of {:?}",
                    a.id
                );
            }
        }
    }
}

/// The coalesced-step counter explains the 2n − 1 above: Parallel-SRPT
/// hits exactly one arrival/completion coincidence on this seed.
#[test]
fn parallel_srpt_coalesces_exactly_one_step_on_the_standard_fixture() {
    let inst = poisson_fixture(10_000, 0.9, 8.0);
    let mut policy = PolicyKind::ParallelSrpt.build();
    let mut source = StaticSource::new(&inst);
    let mut obs = NullObserver;
    let mut engine = Engine::new(
        EngineConfig::new(8.0),
        policy.as_mut(),
        &mut source,
        &mut obs,
    );
    while engine.step().expect("step") {}
    assert_eq!(engine.coalesced_steps(), 1);
    assert_eq!(
        engine.into_outcome().expect("outcome").metrics.events,
        19_999
    );
}
