//! Differential oracle for the engine's specialized event-loop
//! instantiation (`Engine::run_loop`, see docs/PERF.md §8): with a no-op
//! observer and no auditor, `run_loop` must be **bit-identical** to a run
//! driven one `step()` at a time (the all-checks instantiation) — same
//! aggregate metric bits, same completion sequence (including intra-event
//! order), same per-completion time bits — for every registry policy. The
//! instantiations differ in dispatch and bookkeeping, not arithmetic, so
//! there is no tolerance anywhere in this suite.
//!
//! The specialized loop has two instantiations, with and without the
//! per-spec admission checks; `run_loop` takes the unchecked one when the
//! source is `pre_validated`. Both are compared with `step()`: the checked
//! one through a forwarding source that keeps the trait's default
//! `pre_validated() == false`.
//!
//! Coverage:
//! * every [`PolicyKind::all_registered`] policy × the three
//!   `parsched_bench` fixtures (stable load, overload, mixed-α), whose
//!   recipes perfbench's sim workloads also run;
//! * random mixed-curve instances under proptest, including burst
//!   arrivals and single-machine cases;
//! * a strict audit forces the all-checks instantiation (the specialized
//!   one requires `auditor.is_none()`), and that audited run must still
//!   reproduce the specialized run bit-for-bit — pinning that the
//!   fallback is the same schedule, not a near miss;
//! * suspend under `step()`, round-trip the `parsched-snap/v3` document,
//!   resume into `run_loop`: the memoized allocation profile and cached
//!   next-completion are rebuilt from restored state, so the resumed run
//!   must finish bit-identically to both uninterrupted arms;
//! * a counting policy wrapper: the allocation memo queries each alive
//!   count once, and the incremental path never calls `assign` (also on
//!   the two 10,000-job fixtures of `tests/engine_complexity_floor.rs`,
//!   with their event counts pinned).

use parsched::PolicyKind;
use parsched_bench::{mixed_alpha_fixture, overload_fixture, poisson_fixture};
use parsched_sim::{
    AliveJob, AllocationStability, ArrivalSource, AuditLevel, Engine, EngineConfig, EnginePath,
    Instance, JobId, JobSpec, NullObserver, Policy, PrefixAllocation, RunOutcome, SimError,
    Snapshot, StaticSource, SystemView, Time,
};
use parsched_speedup::Curve;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Forwards to a [`StaticSource`] but keeps the trait's default
/// `pre_validated() == false`, so `run_loop` takes the specialized
/// instantiation that re-checks every admitted spec.
struct Unvalidated(StaticSource);

impl ArrivalSource for Unvalidated {
    fn next_time(&self) -> Option<Time> {
        self.0.next_time()
    }

    fn emit_into(&mut self, view: &SystemView<'_>, out: &mut Vec<JobSpec>) {
        self.0.emit_into(view, out);
    }
}

/// How [`run_arm`] drives a run.
#[derive(Debug, Clone, Copy)]
enum Arm {
    /// `run_loop` over the pre-validated `StaticSource`.
    Fast,
    /// `run_loop` over [`Unvalidated`], re-checking every admission.
    FastChecked,
    /// One `step()` at a time: the all-checks instantiation.
    Step,
}

/// One full run in the specialized instantiation's eligibility
/// configuration (incremental path, no observer, no audit), driven as
/// `arm` says.
fn run_arm(inst: &Instance, kind: PolicyKind, m: f64, arm: Arm) -> RunOutcome {
    let mut policy = kind.build();
    let mut replay = StaticSource::new(inst);
    let mut unvalidated = Unvalidated(StaticSource::new(inst));
    let source: &mut dyn ArrivalSource = match arm {
        Arm::FastChecked => &mut unvalidated,
        Arm::Fast | Arm::Step => &mut replay,
    };
    assert_eq!(source.pre_validated(), !matches!(arm, Arm::FastChecked));
    let mut obs = NullObserver;
    let mut engine = Engine::new(EngineConfig::new(m), policy.as_mut(), source, &mut obs);
    let ran = match arm {
        Arm::Fast | Arm::FastChecked => engine.run_loop(),
        Arm::Step => step_to_end(&mut engine),
    };
    ran.and_then(|()| engine.into_outcome())
        .unwrap_or_else(|e| panic!("{} ({arm:?}): {e}", kind.name()))
}

fn step_to_end(engine: &mut Engine<'_>) -> Result<(), SimError> {
    while engine.step()? {}
    Ok(())
}

/// Completion sequence as raw bits: order, identity, and exact times.
fn completion_bits(out: &RunOutcome) -> Vec<(u64, u64)> {
    out.completed
        .iter()
        .map(|c| (c.id.0, c.completion.to_bits()))
        .collect()
}

/// The headline equivalence: both `run_loop` instantiations ≡ `step()`,
/// exactly.
fn assert_fastpath_identical(inst: &Instance, kind: PolicyKind, m: f64, ctx: &str) {
    let name = kind.name();
    let generic = run_arm(inst, kind, m, Arm::Step);
    for arm in [Arm::Fast, Arm::FastChecked] {
        let fast = run_arm(inst, kind, m, arm);
        assert_eq!(
            fast.metrics, generic.metrics,
            "{ctx}/{name} ({arm:?}): metrics diverge"
        );
        assert_eq!(
            completion_bits(&fast),
            completion_bits(&generic),
            "{ctx}/{name} ({arm:?}): completion sequence diverges"
        );
    }
}

/// Every registry policy the specialized loop must be transparent for.
fn registry() -> Vec<PolicyKind> {
    PolicyKind::all_registered()
}

/// The three committed bench fixtures, at a size that keeps the full
/// catalog sweep in CI budget while still crossing arena growth,
/// slot-reuse, and interval re-classification boundaries many times.
#[test]
fn every_registry_policy_matches_on_bench_fixtures() {
    let m = 8.0;
    for (ctx, inst) in [
        ("stable", poisson_fixture(2_000, 0.9, m)),
        ("overload", overload_fixture(2_000, m)),
        ("mixed_alpha", mixed_alpha_fixture(2_000, 0.9, m)),
    ] {
        for kind in registry() {
            assert_fastpath_identical(&inst, kind, m, ctx);
        }
    }
}

/// A strict audit disables the specialized instantiation (its frames
/// observe every step), yet the audited run must reproduce the unaudited
/// specialized run bit-for-bit: auditing observes the schedule, it never
/// perturbs it.
#[test]
fn strict_audit_falls_back_and_matches_fast_run_exactly() {
    let m = 8.0;
    let inst = mixed_alpha_fixture(1_000, 0.9, m);
    for kind in registry() {
        let name = kind.name();
        let fast = run_arm(&inst, kind, m, Arm::Fast);
        let mut policy = kind.build();
        let mut source = StaticSource::new(&inst);
        let mut obs = NullObserver;
        let cfg = EngineConfig::new(m).with_audit(AuditLevel::Strict);
        let audited = Engine::new(cfg, policy.as_mut(), &mut source, &mut obs)
            .run()
            .unwrap_or_else(|e| panic!("{name} (strict audit): {e}"));
        assert!(
            audited.audit.is_some(),
            "{name}: strict audit did not report"
        );
        assert_eq!(fast.metrics, audited.metrics, "{name}: audited ≠ fast");
        assert_eq!(
            completion_bits(&fast),
            completion_bits(&audited),
            "{name}: audited completion sequence ≠ fast"
        );
    }
}

/// Suspend mid-run under `step()`, round-trip the snapshot document,
/// resume into an engine whose remaining events run through `run_loop`.
/// The restored engine must rebuild the derived state (allocation memo,
/// cached next completion) and finish bit-identically to an
/// uninterrupted run of either arm.
fn suspend_then_resume_fast(
    inst: &Instance,
    kind: PolicyKind,
    m: f64,
    suspend_at: u64,
) -> RunOutcome {
    let name = kind.name();
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let mut engine = Engine::new(EngineConfig::new(m), policy.as_mut(), &mut source, &mut obs);
    for _ in 0..suspend_at {
        match engine.step() {
            Ok(true) => {}
            Ok(false) => break, // short run: resume from the finished state
            Err(e) => panic!("{name}: pre-suspend step: {e}"),
        }
    }
    let snap = engine.snapshot().expect("snapshot");
    drop(engine);

    // Ship the document, not the struct — resume from the decoded form.
    let decoded = Snapshot::from_json(&snap.to_json()).expect("parse own rendering");
    assert_eq!(decoded, snap, "{name}: snapshot codec round trip drifted");

    let mut policy2 = kind.build();
    let mut source2 = StaticSource::new(inst);
    let mut obs2 = NullObserver;
    let mut resumed = Engine::new(
        EngineConfig::new(m),
        policy2.as_mut(),
        &mut source2,
        &mut obs2,
    );
    resumed.restore(&decoded).expect("restore");
    resumed
        .run_loop()
        .unwrap_or_else(|e: SimError| panic!("{name}: post-restore run_loop: {e}"));
    resumed
        .into_outcome()
        .unwrap_or_else(|e| panic!("{name}: resumed outcome: {e}"))
}

#[test]
fn snapshot_resume_into_fast_loop_is_bit_identical() {
    let m = 4.0;
    let inst = poisson_fixture(600, 0.9, m);
    for kind in registry() {
        let name = kind.name();
        let fast = run_arm(&inst, kind, m, Arm::Fast);
        for suspend_at in [1, 37, 250, 900] {
            let resumed = suspend_then_resume_fast(&inst, kind, m, suspend_at);
            assert_eq!(
                fast.metrics, resumed.metrics,
                "{name}@{suspend_at}: resumed metrics diverge"
            );
            assert_eq!(
                completion_bits(&fast),
                completion_bits(&resumed),
                "{name}@{suspend_at}: resumed completion sequence diverges"
            );
        }
    }
}

/// Forwards to a registry policy and counts its `prefix_allocation`
/// queries per alive count and its `assign` calls.
struct CountingPolicy {
    inner: Box<dyn Policy + Send>,
    queries: RefCell<BTreeMap<usize, u32>>,
    assigns: u64,
}

impl Policy for CountingPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn assign(
        &mut self,
        now: Time,
        m: f64,
        jobs: &[AliveJob<'_>],
        shares: &mut [f64],
    ) -> Option<f64> {
        self.assigns += 1;
        self.inner.assign(now, m, jobs, shares)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn stability(&self) -> AllocationStability {
        self.inner.stability()
    }

    fn prefix_allocation(&self, n_alive: usize, m: f64) -> Option<PrefixAllocation> {
        *self.queries.borrow_mut().entry(n_alive).or_default() += 1;
        self.inner.prefix_allocation(n_alive, m)
    }

    fn srpt_ordered(&self) -> bool {
        self.inner.srpt_ordered()
    }

    fn snapshot_state(&self) -> Vec<u64> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &[u64]) -> bool {
        self.inner.restore_state(state)
    }
}

/// The allocation memo is exact and always on: the `PrefixAllocation`
/// contract makes the profile a pure function of `(n_alive, m)`, so a run
/// asks the policy at most once per distinct alive count — through
/// `step()` as through `run_loop` — and never calls `assign`, which only
/// the exhaustive sweep does. A timing-free guard for the memo: a broken
/// memo shows up here as a repeated query, whatever the host.
///
/// Intermediate-SRPT also runs the two 10,000-job fixtures whose
/// wall-clock ratios against the exhaustive path are the floors in
/// `tests/engine_complexity_floor.rs` (overload, where the alive set grows
/// into the thousands, and mixed α): any fallback to the O(alive)
/// exhaustive sweep there fails this exactly, as an `assign` call or a
/// changed event count, rather than as a slower run.
#[test]
fn prefix_profile_is_queried_at_most_once_per_alive_count() {
    let m = 8.0;
    let small = mixed_alpha_fixture(1_000, 0.9, m);
    let overload = overload_fixture(10_000, m);
    let mixed = mixed_alpha_fixture(10_000, 0.9, m);
    // (policy, fixture, instance, pinned event count)
    let mut runs: Vec<(PolicyKind, &str, &Instance, Option<u64>)> = registry()
        .into_iter()
        .filter(|kind| kind.build().stability() == AllocationStability::SrptPrefix)
        .map(|kind| (kind, "mixed-α n=1000", &small, None))
        .collect();
    let isrpt = PolicyKind::IntermediateSrpt;
    runs.push((isrpt, "overload n=10000", &overload, Some(20_000)));
    runs.push((isrpt, "mixed-α n=10000", &mixed, Some(20_000)));
    for (kind, fixture, inst, want_events) in runs {
        for fast in [true, false] {
            let ctx = format!("{} / {fixture} (fast={fast})", kind.name());
            let mut policy = CountingPolicy {
                inner: kind.build(),
                queries: RefCell::new(BTreeMap::new()),
                assigns: 0,
            };
            let mut source = StaticSource::new(inst);
            let mut obs = NullObserver;
            let mut engine = Engine::new(EngineConfig::new(m), &mut policy, &mut source, &mut obs);
            assert_eq!(engine.path(), EnginePath::Incremental, "{ctx}");
            if fast {
                engine.run_loop()
            } else {
                step_to_end(&mut engine)
            }
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let events = engine.into_outcome().expect("outcome").metrics.events;
            assert_eq!(policy.assigns, 0, "{ctx}: assign called");
            if let Some(want) = want_events {
                assert_eq!(events, want, "{ctx}: events");
            }
            let queries = policy.queries.into_inner();
            assert!(!queries.is_empty(), "{ctx}: never queried");
            for (n, count) in queries {
                assert_eq!(
                    count, 1,
                    "{ctx}: prefix profile for n = {n} queried {count} times"
                );
            }
        }
    }
}

/// One generated job: `(release, size, curve selector, alpha)` — the same
/// generator the streaming differential sweeps, so the two oracles probe
/// the same instance space.
fn job_from(id: u64, raw: (f64, f64, u8, f64)) -> JobSpec {
    let (release, size, which, alpha) = raw;
    let curve = match which % 4 {
        0 => Curve::Sequential,
        1 => Curve::FullyParallel,
        2 => Curve::power(alpha),
        _ => Curve::try_amdahl(alpha.min(0.9)).unwrap(),
    };
    JobSpec::new(JobId(id), release, size, curve)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mixed-curve instances: `run_loop` ≡ `step()` for every registry
    /// policy, across machine counts including the single-machine edge.
    #[test]
    fn fast_loop_matches_generic_on_random_instances(
        raw in proptest::collection::vec(
            (0.0f64..12.0, 0.1f64..8.0, 0u8..4, 0.05f64..1.0),
            1..24,
        ),
        m_sel in 0u8..3,
    ) {
        let m = [1.0, 2.0, 8.0][m_sel as usize];
        let jobs: Vec<JobSpec> = raw
            .into_iter()
            .enumerate()
            .map(|(i, r)| job_from(i as u64, r))
            .collect();
        let inst = Instance::new(jobs).unwrap();
        for kind in registry() {
            assert_fastpath_identical(&inst, kind, m, "random");
        }
    }

    /// Coincident arrivals and ties: many jobs released at identical
    /// instants force admission batching, zero-dt events, and slot reuse
    /// in the same event — the paths the loop's leading admission touches
    /// most.
    #[test]
    fn coincident_releases_match(
        sizes in proptest::collection::vec(0.25f64..4.0, 2..12),
        burst_t in 0.0f64..3.0,
    ) {
        let jobs: Vec<JobSpec> = sizes
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                JobSpec::new(JobId(i as u64), burst_t, p, Curve::power(0.5))
            })
            .collect();
        let inst = Instance::new(jobs).unwrap();
        for kind in registry() {
            assert_fastpath_identical(&inst, kind, 2.0, "coincident");
        }
    }
}
