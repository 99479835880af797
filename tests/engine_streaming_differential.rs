//! The four-way differential oracle for the streaming engine path
//! (see docs/TESTING.md):
//!
//! ```text
//!                    in-memory            streaming
//! incremental   run()/into_outcome()   run_streaming()
//! legacy        with_full_reassign     with_full_reassign + streaming
//! ```
//!
//! Streaming is a *memory mode*, not a scheduling path: for a fixed
//! per-event path the streaming run must produce **bit-identical** metrics,
//! the identical completion sequence, and the same strict-audit outcome as
//! the in-memory run, because both route completions through the same
//! constant-size sink in the same order. Across per-event paths
//! (incremental vs legacy) the existing float tolerance applies — the two
//! paths evaluate algebraically-equal expressions in different orders.

use parsched::PolicyKind;
use parsched_sim::{
    AuditLevel, Engine, EngineConfig, Instance, JobId, JobSpec, Observer, RunMetrics, StaticSource,
    Time,
};
use parsched_speedup::Curve;
use proptest::prelude::*;

/// Relative tolerance for comparing *across* per-event paths (incremental
/// vs legacy). Within one path, streaming vs in-memory is exact.
const RTOL: f64 = 1e-6;

fn close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= RTOL * scale.abs().max(1.0)
}

/// Records the exact completion sequence `(id, time)` in event order.
#[derive(Default)]
struct CompletionLog {
    seq: Vec<(JobId, Time)>,
}

impl Observer for CompletionLog {
    fn on_completion(&mut self, t: Time, job: &JobSpec) {
        self.seq.push((job.id, t));
    }
}

/// One run of a registry policy over `inst` in the given mode; returns the
/// aggregate metrics, the completion sequence, and whether a strict audit
/// passed (`run` errors on violation, so reaching the metrics means pass).
fn run_mode(
    inst: &Instance,
    kind: PolicyKind,
    m: f64,
    full_reassign: bool,
    streaming: bool,
    audit: AuditLevel,
) -> (RunMetrics, Vec<(JobId, Time)>) {
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut log = CompletionLog::default();
    let cfg = EngineConfig::new(m)
        .with_full_reassign(full_reassign)
        .with_streaming(streaming)
        .with_audit(audit);
    let engine = Engine::new(cfg, policy.as_mut(), &mut source, &mut log);
    let metrics = if streaming {
        engine
            .run_streaming()
            .unwrap_or_else(|e| {
                panic!(
                    "{} (streaming, full_reassign={full_reassign}): {e}",
                    kind.name()
                )
            })
            .metrics
    } else {
        engine
            .run()
            .unwrap_or_else(|e| {
                panic!(
                    "{} (in-memory, full_reassign={full_reassign}): {e}",
                    kind.name()
                )
            })
            .metrics
    };
    (metrics, log.seq)
}

/// Every registry policy the differential harness sweeps.
fn registry() -> Vec<PolicyKind> {
    let mut kinds = PolicyKind::all_standard();
    kinds.push(PolicyKind::Threshold(2.0));
    kinds
}

/// The full four-way check for one policy on one instance.
///
/// * streaming ≡ in-memory **exactly** (per per-event path): every scalar
///   of [`RunMetrics`] via `assert_eq!`, and the completion sequence
///   including intra-event order;
/// * incremental ≡ legacy within [`RTOL`] (pre-existing guarantee, checked
///   here so a streaming-only regression cannot hide behind it);
/// * strict audits pass in all four modes.
fn assert_four_way(inst: &Instance, kind: PolicyKind, m: f64, audit: AuditLevel) {
    let name = kind.name();
    let (mem_inc, seq_mem_inc) = run_mode(inst, kind, m, false, false, audit);
    let (st_inc, seq_st_inc) = run_mode(inst, kind, m, false, true, audit);
    let (mem_leg, seq_mem_leg) = run_mode(inst, kind, m, true, false, audit);
    let (st_leg, seq_st_leg) = run_mode(inst, kind, m, true, true, audit);

    // Memory mode is invisible: bit-identical aggregates and sequences.
    assert_eq!(
        mem_inc, st_inc,
        "{name}: streaming ≠ in-memory (incremental)"
    );
    assert_eq!(mem_leg, st_leg, "{name}: streaming ≠ in-memory (legacy)");
    assert_eq!(
        seq_mem_inc, seq_st_inc,
        "{name}: completion sequences diverge (incremental)"
    );
    assert_eq!(
        seq_mem_leg, seq_st_leg,
        "{name}: completion sequences diverge (legacy)"
    );

    // Across per-event paths: same schedule up to float tolerance.
    assert_eq!(
        seq_mem_inc.len(),
        seq_mem_leg.len(),
        "{name}: completion counts differ across paths"
    );
    for (what, u, v) in [
        ("total_flow", mem_inc.total_flow, mem_leg.total_flow),
        (
            "fractional_flow",
            mem_inc.fractional_flow,
            mem_leg.fractional_flow,
        ),
        (
            "alive_integral",
            mem_inc.alive_integral,
            mem_leg.alive_integral,
        ),
        ("makespan", mem_inc.makespan, mem_leg.makespan),
        ("max_flow", mem_inc.max_flow, mem_leg.max_flow),
        (
            "total_stretch",
            mem_inc.total_stretch,
            mem_leg.total_stretch,
        ),
        (
            "total_weighted_flow",
            mem_inc.total_weighted_flow,
            mem_leg.total_weighted_flow,
        ),
    ] {
        assert!(
            close(u, v, v),
            "{name}: {what} = {u} (incremental) vs {v} (legacy)"
        );
    }
}

/// One generated job: `(release, size, curve selector, alpha)`.
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

    /// The headline property: all four modes agree for every registry
    /// policy on random mixed-curve instances, under a strict audit.
    #[test]
    fn streaming_matches_all_in_memory_paths_on_random_instances(
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
            assert_four_way(&inst, kind, m, AuditLevel::Strict);
        }
    }

    /// Burst arrivals landing exactly on completion instants: arrivals in
    /// the same event as retirements, so freshly-freed arena slots are
    /// reused immediately. Slot reuse must not perturb anything — the
    /// SRPT order keys on `(remaining, release, id)`, never on the index.
    #[test]
    fn burst_at_retirement_boundary_matches(
        p in 0.5f64..4.0,
        burst in 2usize..6,
        m_sel in 0u8..2,
    ) {
        let m = [2.0, 4.0][m_sel as usize];
        let mut jobs: Vec<JobSpec> = (0..m as u64)
            .map(|i| JobSpec::new(JobId(i), 0.0, p, Curve::Sequential))
            .collect();
        for k in 0..burst as u64 {
            jobs.push(JobSpec::new(
                JobId(m as u64 + k),
                p,
                1.0 + (k / 2) as f64,
                if k % 2 == 0 { Curve::Sequential } else { Curve::power(0.5) },
            ));
        }
        let inst = Instance::new(jobs).unwrap();
        for kind in registry() {
            assert_four_way(&inst, kind, m, AuditLevel::Strict);
        }
    }

    /// Moderately large random workloads (n up to 10⁴ across the suite's
    /// case budget) on the flagship policy, audit sampled: exercises many
    /// admit→retire→reuse cycles per slot.
    #[test]
    fn larger_workloads_stay_bit_identical(
        n in 200usize..1000,
        seed_jobs in proptest::collection::vec(
            (0.0f64..50.0, 0.1f64..16.0, 0u8..4, 0.05f64..1.0),
            8,
        ),
    ) {
        // Tile the 8 sampled job shapes across n ids with arithmetic
        // release jitter — large n without a huge generated vector.
        let jobs: Vec<JobSpec> = (0..n)
            .map(|i| {
                let (release, size, which, alpha) = seed_jobs[i % seed_jobs.len()];
                job_from(
                    i as u64,
                    (release + (i / seed_jobs.len()) as f64 * 0.37, size, which, alpha),
                )
            })
            .collect();
        let inst = Instance::new(jobs).unwrap();
        for kind in [PolicyKind::IntermediateSrpt, PolicyKind::Equi] {
            assert_four_way(&inst, kind, 8.0, AuditLevel::Sampled(64));
        }
    }
}

/// Deterministic regression: simultaneous completions *at* the retirement
/// boundary together with a same-instant burst. Two jobs retire in one
/// event (their slots hit the free list back-to-back), the burst reuses
/// those exact slots, and a straggler lands mid-drain.
#[test]
fn regression_simultaneous_retirement_with_burst() {
    let m = 2.0;
    let jobs = vec![
        JobSpec::new(JobId(0), 0.0, 2.0, Curve::Sequential),
        JobSpec::new(JobId(1), 0.0, 2.0, Curve::Sequential),
        JobSpec::new(JobId(2), 2.0, 1.0, Curve::Sequential),
        JobSpec::new(JobId(3), 2.0, 1.0, Curve::Sequential),
        JobSpec::new(JobId(4), 2.0, 2.0, Curve::power(0.5)),
        JobSpec::new(JobId(5), 2.5, 0.25, Curve::FullyParallel),
    ];
    let inst = Instance::new(jobs).unwrap();
    for kind in registry() {
        assert_four_way(&inst, kind, m, AuditLevel::Strict);
    }
}

/// Deterministic regression: a long chain of disjoint-lifetime jobs, so a
/// single arena slot is recycled dozens of times while the big aggregates
/// accumulate — the shape that would expose any sink/finalizer divergence
/// between the memory modes.
#[test]
fn regression_single_slot_recycled_many_times() {
    let jobs: Vec<JobSpec> = (0..64)
        .map(|i| JobSpec::new(JobId(i), 3.0 * i as f64, 1.0, Curve::power(0.5)))
        .collect();
    let inst = Instance::new(jobs).unwrap();
    for kind in registry() {
        assert_four_way(&inst, kind, 4.0, AuditLevel::Strict);
    }
}

/// The PR 6 mixed-α fixture through the full oracle: four α classes per
/// instance, so the kernel-class registry path (Γ evaluation grouped by
/// curve class, PR 6) is exercised in all four modes rather than the
/// single-class fast path the other fixtures mostly hit.
#[test]
fn mixed_alpha_fixture_agrees_in_all_four_modes() {
    let inst = parsched_bench::mixed_alpha_fixture(160, 0.9, 4.0);
    // The fixture draws from four distinct α values; the class registry
    // must actually be multi-class or this test regressed into the fast
    // path.
    let classes: std::collections::BTreeSet<u64> = inst
        .jobs()
        .iter()
        .map(|j| match j.curve {
            Curve::Power { alpha } => alpha.to_bits(),
            ref other => panic!("fixture emits power curves only, got {other:?}"),
        })
        .collect();
    assert!(
        classes.len() >= 4,
        "expected ≥ 4 α classes, got {classes:?}"
    );
    for kind in registry() {
        assert_four_way(&inst, kind, 4.0, AuditLevel::Strict);
    }
}

/// The convenience entry points agree with each other: `simulate` (the
/// in-memory helper) and `simulate_streaming` over a `StaticSource` of the
/// same instance produce identical metrics.
#[test]
fn convenience_entry_points_agree() {
    let inst = Instance::from_sizes(
        &[(0.0, 4.0), (0.5, 1.0), (1.0, 2.0), (1.0, 2.0), (3.0, 0.5)],
        Curve::power(0.5),
    )
    .unwrap();
    let mut policy = PolicyKind::IntermediateSrpt.build();
    let mem = parsched_sim::simulate(&inst, policy.as_mut(), 4.0).unwrap();
    let mut source = StaticSource::new(&inst);
    let mut policy2 = PolicyKind::IntermediateSrpt.build();
    let st = parsched_sim::simulate_streaming(&mut source, policy2.as_mut(), 4.0).unwrap();
    assert_eq!(mem.metrics, st.metrics);
    assert_eq!(st.admitted, inst.len());
}
