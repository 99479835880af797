//! Steady-state allocation audit for the engine's buffer-reuse contract
//! (see `docs/PERF.md` §6).
//!
//! A counting global allocator wraps the system allocator; the assertions
//! below prove that after a warm-up run, repeated streaming runs on reused
//! [`EngineBuffers`] execute their entire event loop — arrivals, rebalances, drains, completions — without
//! a single heap allocation. Engine *construction* and *finalization* sit
//! outside the audited window: construction clones the policy name and the
//! source clones the instance, and the streaming finalizer clones the
//! constant-size quantile sketch; none of that is per-event.
//!
//! The counter is per thread and armed only around the audited window on
//! the measuring thread, so allocations made concurrently by sibling
//! tests under the default parallel harness are never attributed to it.
//!
//! Strict-audited runs are held to the same bound: donated buffers keep
//! the auditor, whose frames and drain-check table grow to the warm-up
//! run's high-water marks, so a strict run on warm buffers at the same
//! size allocates nothing inside its event loop either.
//!
//! This is an integration test on purpose: the workspace crates carry
//! `#![forbid(unsafe_code)]`, and a `GlobalAlloc` impl is necessarily
//! `unsafe`. Keeping the counter here confines the unsafety to test code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use parsched::PolicyKind;
use parsched_sim::{
    Allocation, ArrivalSource, AuditLevel, Engine, EngineBuffers, EngineConfig, EnginePath,
    Instance, JobId, JobSpec, NullObserver, Observer, Policy, StaticSource, SystemView, Time,
};
use parsched_speedup::Curve;

struct CountingAlloc;

thread_local! {
    // Const-initialized and destructor-free, so reading them from inside
    // the allocator never allocates or re-enters it.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation if this thread's counter is armed.
fn note_alloc() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves or grows is an allocation for the purpose
        // of this audit: buffer reuse is supposed to prevent regrowth.
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocation counter armed; returns its
/// result and the allocations it made (on this thread only).
fn counting_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, ALLOCS.with(Cell::get))
}

/// A deterministic arrival-heavy workload: `n` power-law jobs with LCG
/// sizes and staggered releases, enough churn to exercise insertions,
/// promotions, demotions, uniform drains, and completions.
fn workload(n: usize) -> Instance {
    workload_with_alphas(n, &[0.5])
}

/// Same, cycling per-job α through `alphas`: with several distinct
/// exponents the engine's Scan intervals run the kernel-class registry
/// and the grouped per-class Γ rate cache, so the audit also covers
/// that machinery (registry lookups and cache refills must reuse their
/// vectors, not regrow them).
fn workload_with_alphas(n: usize, alphas: &[f64]) -> Instance {
    let mut rng: u64 = 0x5bd1_e995_9e37_79b9;
    let mut next = || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) as f64 / (1u64 << 31) as f64
    };
    let jobs = (0..n)
        .map(|i| {
            let release = i as f64 * 0.35;
            let size = 0.5 + 8.0 * next();
            let alpha = alphas[i % alphas.len()];
            JobSpec::new(JobId(i as u64), release, size, Curve::power(alpha))
        })
        .collect();
    Instance::new(jobs).expect("valid workload")
}

/// `blocks` copies of the 2,000-job [`workload_with_alphas`], each
/// released 10⁵ time units after the previous one, by which time the
/// previous copy has drained. Every copy then replays the same alive-set
/// trajectory, so a longer run reaches no new high-water mark: any
/// allocation it adds is per event.
fn repeated_workload(blocks: usize, alphas: &[f64]) -> Instance {
    let block = workload_with_alphas(2_000, alphas);
    let jobs = (0..blocks)
        .flat_map(|b| {
            block.jobs().iter().map(move |j| {
                JobSpec::new(
                    JobId(j.id.0 + (b * 2_000) as u64),
                    j.release + b as f64 * 1e5,
                    j.size,
                    j.curve.clone(),
                )
            })
        })
        .collect();
    Instance::new(jobs).expect("valid workload")
}

/// Streams `inst` once on donated buffers; returns the allocation count
/// observed strictly during the event loop, plus the buffers.
fn audited_run(inst: &Instance, bufs: EngineBuffers) -> (u64, EngineBuffers) {
    let mut policy = PolicyKind::IntermediateSrpt.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let cfg = EngineConfig::new(8.0).with_streaming(true);
    let mut engine = Engine::with_buffers(cfg, policy.as_mut(), &mut source, &mut obs, bufs);
    let ((), during) = counting_allocs(|| while engine.step().expect("run failed") {});
    // Finalize outside the audited window (clones the 8 KiB sketch).
    let (outcome, bufs) = engine.run_streaming_reusing().expect("finalize failed");
    assert_eq!(outcome.metrics.num_jobs, inst.jobs().len());
    (during, bufs)
}

#[test]
fn steady_state_streaming_runs_allocate_nothing() {
    let inst = workload(4_000);
    // Warm-up: first run grows every buffer to the workload's high-water
    // marks (and is expected to allocate while doing so).
    let (warmup_allocs, bufs) = audited_run(&inst, EngineBuffers::new());
    assert!(warmup_allocs > 0, "warm-up should have grown the buffers");
    // Steady state: every subsequent run on the reused buffers must not
    // touch the heap inside the event loop.
    let (second, bufs) = audited_run(&inst, bufs);
    assert_eq!(second, 0, "second run allocated {second} times");
    let (third, _bufs) = audited_run(&inst, bufs);
    assert_eq!(third, 0, "third run allocated {third} times");
}

#[test]
fn steady_state_mixed_alpha_runs_allocate_nothing() {
    // Multi-class variant: four distinct α values force Scan intervals
    // through the class registry and the grouped-Γ rate cache
    // (docs/PERF.md §7.2). Warm-up populates the registry; steady-state
    // reruns must re-classify and refill the cache without the heap.
    let inst = workload_with_alphas(4_000, &[0.25, 0.5, 0.75, 0.37]);
    let (warmup_allocs, bufs) = audited_run(&inst, EngineBuffers::new());
    assert!(warmup_allocs > 0, "warm-up should have grown the buffers");
    let (second, bufs) = audited_run(&inst, bufs);
    assert_eq!(second, 0, "second mixed-alpha run allocated {second} times");
    let (third, _bufs) = audited_run(&inst, bufs);
    assert_eq!(third, 0, "third mixed-alpha run allocated {third} times");
}

/// Runs `inst` through [`Engine::run_loop`] — which takes the
/// specialized event-loop instantiation here (incremental policy, no-op
/// observer, no auditor) — on donated buffers; returns the allocation count observed
/// strictly inside the loop, plus the buffers. `streaming` toggles the
/// memory mode; both finalizers run outside the audited window.
fn audited_fast_run(inst: &Instance, streaming: bool, bufs: EngineBuffers) -> (u64, EngineBuffers) {
    let mut policy = PolicyKind::IntermediateSrpt.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let cfg = EngineConfig::new(8.0).with_streaming(streaming);
    let mut engine = Engine::with_buffers(cfg, policy.as_mut(), &mut source, &mut obs, bufs);
    let ((), during) = counting_allocs(|| engine.run_loop().expect("fast run failed"));
    let (num_jobs, bufs) = if streaming {
        let (outcome, bufs) = engine.run_streaming_reusing().expect("finalize failed");
        (outcome.metrics.num_jobs, bufs)
    } else {
        let (outcome, bufs) = engine.run_reusing().expect("finalize failed");
        (outcome.metrics.num_jobs, bufs)
    };
    assert_eq!(num_jobs, inst.jobs().len());
    (during, bufs)
}

#[test]
fn fast_loop_steady_state_allocates_nothing() {
    // The specialized loops inherit the buffer-reuse contract: after a
    // warm-up, the specialized event loop — including the delta-refresh
    // memo, which the mixed-α workload forces through the kernel-class
    // registry and the grouped-Γ rate cache on every re-classification —
    // must run the whole event loop without touching the heap. Audited
    // in both memory modes, since the incremental in-memory path grows
    // the completion log and the streaming path exercises the sink.
    let inst = workload_with_alphas(4_000, &[0.25, 0.5, 0.75, 0.37]);
    for streaming in [false, true] {
        let (warmup_allocs, bufs) = audited_fast_run(&inst, streaming, EngineBuffers::new());
        assert!(
            warmup_allocs > 0,
            "warm-up (streaming={streaming}) should have grown the buffers"
        );
        let (second, bufs) = audited_fast_run(&inst, streaming, bufs);
        assert_eq!(
            second, 0,
            "second fast run (streaming={streaming}) allocated {second} times"
        );
        let (third, _bufs) = audited_fast_run(&inst, streaming, bufs);
        assert_eq!(
            third, 0,
            "third fast run (streaming={streaming}) allocated {third} times"
        );
    }
}

/// Runs `inst` through [`Engine::run_loop`] on the exhaustive path —
/// where the General-stability policies always run, and where
/// `with_full_reassign` puts the SRPT family — reusing `policy` and the
/// donated buffers; returns the allocations made strictly inside the
/// loop, plus the buffers. Reusing the policy value matters: its own
/// selection and equalizer scratch is retained across `reset`, the way
/// the engine's buffers are across runs.
fn audited_exhaustive_run(
    inst: &Instance,
    policy: &mut dyn Policy,
    streaming: bool,
    bufs: EngineBuffers,
) -> (u64, EngineBuffers) {
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let cfg = EngineConfig::new(8.0)
        .with_streaming(streaming)
        .with_full_reassign(true);
    let mut engine = Engine::with_buffers(cfg, policy, &mut source, &mut obs, bufs);
    assert_eq!(engine.path(), EnginePath::Exhaustive);
    let ((), during) = counting_allocs(|| engine.run_loop().expect("exhaustive run failed"));
    let (num_jobs, bufs) = if streaming {
        let (outcome, bufs) = engine.run_streaming_reusing().expect("finalize failed");
        (outcome.metrics.num_jobs, bufs)
    } else {
        let (outcome, bufs) = engine.run_reusing().expect("finalize failed");
        (outcome.metrics.num_jobs, bufs)
    };
    assert_eq!(num_jobs, inst.jobs().len());
    (during, bufs)
}

#[test]
fn exhaustive_steady_state_allocates_nothing() {
    // The exhaustive path lends one retained view buffer to every policy
    // call and keeps its shares, rates and completion candidate in
    // donated vectors; the General policies keep their own scratch. So
    // after a warm-up, a rerun of the same workload must not touch the
    // heap, for each policy on this path and in both memory modes. Three
    // α classes make SETF's tie groups mix curves. Greedy re-decides on a
    // quantum, about a hundred events per job, so it gets a shorter run.
    let inst = workload_with_alphas(600, &[0.25, 0.5, 0.75]);
    let short = workload_with_alphas(120, &[0.25, 0.5, 0.75]);
    for kind in [
        PolicyKind::Setf,
        PolicyKind::Laps(0.5),
        PolicyKind::Weighted,
        PolicyKind::Random(7),
        PolicyKind::Greedy,
        PolicyKind::IntermediateSrpt,
    ] {
        let name = kind.name();
        let inst = if kind == PolicyKind::Greedy {
            &short
        } else {
            &inst
        };
        let mut policy = kind.build();
        for streaming in [false, true] {
            let (warmup_allocs, bufs) =
                audited_exhaustive_run(inst, policy.as_mut(), streaming, EngineBuffers::new());
            assert!(
                warmup_allocs > 0,
                "{name}: warm-up (streaming={streaming}) should have grown the buffers"
            );
            let (second, bufs) = audited_exhaustive_run(inst, policy.as_mut(), streaming, bufs);
            assert_eq!(
                second, 0,
                "{name}: second exhaustive run (streaming={streaming}) allocated {second} times"
            );
            let (third, _bufs) = audited_exhaustive_run(inst, policy.as_mut(), streaming, bufs);
            assert_eq!(
                third, 0,
                "{name}: third exhaustive run (streaming={streaming}) allocated {third} times"
            );
        }
    }
}

/// Runs `inst` through [`Engine::run_loop`] on `path` (the level path for
/// SETF, the arrival-suffix path for LAPS), reusing `policy` and the
/// donated buffers; returns the allocations made strictly inside the
/// loop, plus the buffers.
fn audited_path_run(
    inst: &Instance,
    policy: &mut dyn Policy,
    path: EnginePath,
    streaming: bool,
    bufs: EngineBuffers,
) -> (u64, EngineBuffers) {
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let cfg = EngineConfig::new(8.0).with_streaming(streaming);
    let mut engine = Engine::with_buffers(cfg, policy, &mut source, &mut obs, bufs);
    assert_eq!(engine.path(), path);
    let ((), during) = counting_allocs(|| engine.run_loop().expect("fast-path run failed"));
    let (num_jobs, bufs) = if streaming {
        let (outcome, bufs) = engine.run_streaming_reusing().expect("finalize failed");
        (outcome.metrics.num_jobs, bufs)
    } else {
        let (outcome, bufs) = engine.run_reusing().expect("finalize failed");
        (outcome.metrics.num_jobs, bufs)
    };
    assert_eq!(num_jobs, inst.jobs().len());
    (during, bufs)
}

#[test]
fn level_path_steady_state_allocates_nothing() {
    // SETF's level path keeps the alive set in levels whose heaps and
    // curve tallies come from a retained free list, lends one retained
    // buffer to every curve view it hands the policy, and keeps the
    // per-curve shares in a donated vector; the policy keeps its memo and
    // curve table. So after a warm-up, a rerun must not touch the heap,
    // in both memory modes, on one curve (the memoized equalizer) and on
    // three (mixed tie groups, the count-weighted bisection).
    for alphas in [&[0.5][..], &[0.25, 0.5, 0.75]] {
        let inst = workload_with_alphas(600, alphas);
        let mut policy = PolicyKind::Setf.build();
        for streaming in [false, true] {
            let ctx = format!("α {alphas:?}, streaming={streaming}");
            let (warmup_allocs, bufs) = audited_path_run(
                &inst,
                policy.as_mut(),
                EnginePath::Levels,
                streaming,
                EngineBuffers::new(),
            );
            assert!(
                warmup_allocs > 0,
                "{ctx}: warm-up should have grown the buffers"
            );
            let (second, bufs) =
                audited_path_run(&inst, policy.as_mut(), EnginePath::Levels, streaming, bufs);
            assert_eq!(
                second, 0,
                "{ctx}: second level-path run allocated {second} times"
            );
            let (third, _bufs) =
                audited_path_run(&inst, policy.as_mut(), EnginePath::Levels, streaming, bufs);
            assert_eq!(
                third, 0,
                "{ctx}: third level-path run allocated {third} times"
            );
        }
    }
}

#[test]
fn arrival_suffix_path_steady_state_allocates_nothing() {
    // LAPS's arrival-suffix path keeps per-slot links and heap positions
    // in a lane that grows to the arena, and its curve groups' heaps in a
    // slab whose emptied groups are reused. So after a warm-up, a rerun
    // must not touch the heap, in both memory modes, on one curve (one
    // group) and on three (a group per curve, formed and emptied as the
    // running suffix turns over).
    for alphas in [&[0.5][..], &[0.25, 0.5, 0.75]] {
        let inst = workload_with_alphas(600, alphas);
        for kind in [PolicyKind::Laps(0.5), PolicyKind::Laps(0.55)] {
            let mut policy = kind.build();
            for streaming in [false, true] {
                let ctx = format!("{} α {alphas:?}, streaming={streaming}", kind.name());
                let path = EnginePath::ArrivalSuffix;
                let (warmup_allocs, bufs) = audited_path_run(
                    &inst,
                    policy.as_mut(),
                    path,
                    streaming,
                    EngineBuffers::new(),
                );
                assert!(
                    warmup_allocs > 0,
                    "{ctx}: warm-up should have grown the buffers"
                );
                let (second, bufs) =
                    audited_path_run(&inst, policy.as_mut(), path, streaming, bufs);
                assert_eq!(
                    second, 0,
                    "{ctx}: second arrival-suffix run allocated {second} times"
                );
                let (third, _bufs) =
                    audited_path_run(&inst, policy.as_mut(), path, streaming, bufs);
                assert_eq!(
                    third, 0,
                    "{ctx}: third arrival-suffix run allocated {third} times"
                );
            }
        }
    }
}

/// A replay source that reads the alive view at every emission, as an
/// adaptive adversary does, but allocates nothing itself: it emits from
/// the instance's shared job vector and only folds the view into a sum.
struct ViewReadingSource {
    inner: StaticSource,
    seen: f64,
}

impl ArrivalSource for ViewReadingSource {
    fn next_time(&self) -> Option<Time> {
        self.inner.next_time()
    }

    fn emit_into(&mut self, view: &SystemView<'_>, out: &mut Vec<JobSpec>) {
        view.for_each(|j| self.seen += j.remaining);
        self.inner.emit_into(view, out);
    }
}

/// An observer that reads every allocation the engine decides, as a
/// Gantt recorder does, but only folds its shares into a sum.
#[derive(Default)]
struct ShareSum {
    total: f64,
}

impl Observer for ShareSum {
    fn on_allocation(&mut self, _t: Time, alloc: &Allocation<'_>) {
        alloc.for_each(|_, share| self.total += share);
    }
}

/// Runs `inst` through [`Engine::run_loop`] from a [`ViewReadingSource`]
/// under a [`ShareSum`] observer, reusing `policy` and the donated
/// buffers; returns the allocations made strictly inside the loop, plus
/// the buffers.
fn audited_view_run(
    inst: &Instance,
    policy: &mut dyn Policy,
    streaming: bool,
    bufs: EngineBuffers,
) -> (u64, EngineBuffers) {
    let mut source = ViewReadingSource {
        inner: StaticSource::new(inst),
        seen: 0.0,
    };
    let mut obs = ShareSum::default();
    let cfg = EngineConfig::new(8.0).with_streaming(streaming);
    let mut engine = Engine::with_buffers(cfg, policy, &mut source, &mut obs, bufs);
    let ((), during) = counting_allocs(|| engine.run_loop().expect("view-reading run failed"));
    let bufs = if streaming {
        engine.run_streaming_reusing().expect("finalize failed").1
    } else {
        engine.run_reusing().expect("finalize failed").1
    };
    assert!(source.seen > 0.0, "the source saw no alive job");
    assert!(obs.total > 0.0, "the observer saw no allocation");
    (during, bufs)
}

#[test]
fn view_reading_source_admits_without_allocating() {
    // A source that reads the alive view walks each path's alive set in
    // its order at every admission, and an observer that reads each
    // allocation walks it again at every refresh. On the incremental path
    // the view's walk sorts the SRPT set's partitions in its retained
    // scratch, so after a warm-up a rerun must not touch the heap, on
    // every alive structure (Greedy runs the exhaustive list) and in both
    // memory modes.
    let inst = workload(600);
    for kind in [
        PolicyKind::IntermediateSrpt,
        PolicyKind::Setf,
        PolicyKind::Laps(0.5),
        PolicyKind::Greedy,
    ] {
        let mut policy = kind.build();
        for streaming in [false, true] {
            let ctx = format!("{}, streaming={streaming}", kind.name());
            let (warmup_allocs, bufs) =
                audited_view_run(&inst, policy.as_mut(), streaming, EngineBuffers::new());
            assert!(
                warmup_allocs > 0,
                "{ctx}: warm-up should have grown the buffers"
            );
            let (second, bufs) = audited_view_run(&inst, policy.as_mut(), streaming, bufs);
            assert_eq!(second, 0, "{ctx}: second run allocated {second} times");
            let (third, _bufs) = audited_view_run(&inst, policy.as_mut(), streaming, bufs);
            assert_eq!(third, 0, "{ctx}: third run allocated {third} times");
        }
    }
}

/// Runs `inst` on the incremental path under [`AuditLevel::Strict`] on
/// donated buffers; returns the allocations made strictly inside the
/// event loop (every event audited), plus the buffers.
fn strict_run(inst: &Instance, streaming: bool, bufs: EngineBuffers) -> (u64, EngineBuffers) {
    let mut policy = PolicyKind::IntermediateSrpt.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let cfg = EngineConfig::new(8.0)
        .with_streaming(streaming)
        .with_audit(AuditLevel::Strict);
    let mut engine = Engine::with_buffers(cfg, policy.as_mut(), &mut source, &mut obs, bufs);
    assert_eq!(engine.path(), EnginePath::Incremental);
    let ((), during) = counting_allocs(|| engine.run_loop().expect("strict run failed"));
    let (frames, num_jobs, bufs) = if streaming {
        let (outcome, bufs) = engine.run_streaming_reusing().expect("finalize failed");
        let frames = outcome.audit.expect("audited").frames;
        (frames, outcome.metrics.num_jobs, bufs)
    } else {
        let (outcome, bufs) = engine.run_reusing().expect("finalize failed");
        let frames = outcome.audit.expect("audited").frames;
        (frames, outcome.metrics.num_jobs, bufs)
    };
    assert_eq!(num_jobs, inst.jobs().len());
    assert!(frames as usize >= 2 * num_jobs - 1, "{frames} frames");
    (during, bufs)
}

#[test]
fn strict_audited_runs_allocate_per_run_not_per_event() {
    for alphas in [&[0.5][..], &[0.25, 0.5, 0.75, 0.37]] {
        for streaming in [false, true] {
            for blocks in [1, 4] {
                let inst = repeated_workload(blocks, alphas);
                // Warm-up at the same size grows the engine's own buffers
                // and the auditor's.
                let (warmup, bufs) = strict_run(&inst, streaming, EngineBuffers::new());
                assert!(warmup > 0, "warm-up should have grown the buffers");
                let (second, bufs) = strict_run(&inst, streaming, bufs);
                let (third, _) = strict_run(&inst, streaming, bufs);
                assert_eq!(
                    (second, third),
                    (0, 0),
                    "α {alphas:?}, streaming={streaming}, n = {}: strict runs on warm \
                     buffers allocated",
                    inst.jobs().len()
                );
            }
        }
    }
}

#[test]
fn buffer_reuse_reproduces_identical_metrics() {
    // The reuse machinery must be invisible in the results: a run on
    // dirty recycled buffers is bit-identical to a run on fresh ones.
    let inst = workload(1_500);
    let run = |bufs: EngineBuffers| {
        let mut policy = PolicyKind::IntermediateSrpt.build();
        let mut source = StaticSource::new(&inst);
        let mut obs = NullObserver;
        let cfg = EngineConfig::new(8.0).with_streaming(true);
        Engine::with_buffers(cfg, policy.as_mut(), &mut source, &mut obs, bufs)
            .run_streaming_reusing()
            .expect("run failed")
    };
    let (fresh, bufs) = run(EngineBuffers::new());
    let (reused, _) = run(bufs);
    assert_eq!(
        fresh.metrics.total_flow.to_bits(),
        reused.metrics.total_flow.to_bits()
    );
    assert_eq!(
        fresh.metrics.fractional_flow.to_bits(),
        reused.metrics.fractional_flow.to_bits()
    );
    assert_eq!(
        fresh.metrics.makespan.to_bits(),
        reused.metrics.makespan.to_bits()
    );
    assert_eq!(fresh.metrics.events, reused.metrics.events);
    assert_eq!(fresh.quantiles, reused.quantiles);
}
