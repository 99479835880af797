//! Engine throughput: events per second as the instance, machine count,
//! and schedule representation scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use parsched::IntermediateSrpt;
use parsched_bench::{
    mixed_alpha_fixture, overload_fixture, poisson_fixture, poisson_stream_fixture,
    timed_audited_run, timed_run, timed_run_cfg, timed_step_run, timed_streaming_run,
};
use parsched_sim::{simulate, AuditLevel, EngineConfig, PlannedPolicy};
use parsched_workloads::GreedyTrap;

fn engine_scaling_n(c: &mut Criterion) {
    // The incremental path across instance sizes, plus the legacy
    // full-reassign oracle at n = 10_000 on the same fixtures in the same
    // run, so the speed-up ratio is directly readable from one report.
    //
    // Two fixtures, two regimes (see docs/PERF.md):
    // * load 0.9 keeps the alive set at ~9 jobs independent of n, so the
    //   legacy O(|A|)-per-event path is not asymptotically handicapped and
    //   the gap is the constant-factor win (~2.5–3×);
    // * the overload fixture (load 1.5) grows |A(t)| linearly in n — the
    //   O(n) vs O(log n) separation, where the gap is >100×.
    let mut g = c.benchmark_group("engine/jobs");
    g.sample_size(20);
    for &n in &[100usize, 1_000, 10_000, 100_000] {
        let inst = poisson_fixture(n, 0.9, 8.0);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| {
                let out = simulate(black_box(inst), &mut IntermediateSrpt::new(), 8.0).unwrap();
                black_box(out.metrics.total_flow)
            })
        });
    }
    let n = 10_000usize;
    g.throughput(Throughput::Elements(n as u64));
    let inst = poisson_fixture(n, 0.9, 8.0);
    g.bench_with_input(BenchmarkId::new("legacy", n), &inst, |b, inst| {
        b.iter(|| {
            black_box(
                timed_run(black_box(inst), &mut IntermediateSrpt::new(), 8.0, true).total_flow,
            )
        })
    });
    let over = overload_fixture(n, 8.0);
    g.bench_with_input(BenchmarkId::new("overload", n), &over, |b, inst| {
        b.iter(|| {
            black_box(
                timed_run(black_box(inst), &mut IntermediateSrpt::new(), 8.0, false).total_flow,
            )
        })
    });
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::new("overload-legacy", n), &over, |b, inst| {
        b.iter(|| {
            black_box(
                timed_run(black_box(inst), &mut IntermediateSrpt::new(), 8.0, true).total_flow,
            )
        })
    });
    g.finish();
}

fn engine_overload_scaling(c: &mut Criterion) {
    // Offered load 1.5: the alive set grows ~linearly in n, so every
    // event works against a large SRPT set — the regime the incremental
    // engine is built for (n = 100_000 here is minutes on the legacy
    // path, seconds here).
    let mut g = c.benchmark_group("engine/overload");
    g.sample_size(10);
    for &n in &[10_000usize, 100_000] {
        let inst = overload_fixture(n, 8.0);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| {
                let out = simulate(black_box(inst), &mut IntermediateSrpt::new(), 8.0).unwrap();
                black_box(out.metrics.total_flow)
            })
        });
    }
    g.finish();
}

fn engine_mixed_alpha(c: &mut Criterion) {
    // Per-job mixed α ({0.25, 0.5, 0.75} fast classes + a general 0.37):
    // every refresh walks jobs on *different* speed-up curves, so this is
    // the group that exercises the class registry, the per-class Γ rate
    // cache, and the grouped `gamma_by_class` driver. The single-α groups
    // above collapse to one kernel class and cannot catch a regression
    // there. The legacy arm at n = 10_000 gives the same-run ratio.
    let mut g = c.benchmark_group("engine/mixed_alpha");
    g.sample_size(20);
    for &n in &[1_000usize, 10_000] {
        let inst = mixed_alpha_fixture(n, 0.9, 8.0);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| {
                let out = simulate(black_box(inst), &mut IntermediateSrpt::new(), 8.0).unwrap();
                black_box(out.metrics.total_flow)
            })
        });
    }
    let n = 10_000usize;
    let inst = mixed_alpha_fixture(n, 0.9, 8.0);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_with_input(BenchmarkId::new("legacy", n), &inst, |b, inst| {
        b.iter(|| {
            black_box(
                timed_run(black_box(inst), &mut IntermediateSrpt::new(), 8.0, true).total_flow,
            )
        })
    });
    g.finish();
}

fn engine_audit_overhead(c: &mut Criterion) {
    // Cost of the runtime invariant auditor on the incremental path:
    // `off` is the baseline, `sampled` (stride 64) is the always-on
    // production setting and must stay within 2× of it, `strict` audits
    // every event (frame construction is O(|A|), so this one is the
    // price of full conservation-law coverage).
    let mut g = c.benchmark_group("engine/audit");
    g.sample_size(20);
    let n = 10_000usize;
    let inst = poisson_fixture(n, 0.9, 8.0);
    g.throughput(Throughput::Elements(n as u64));
    for (label, level) in [
        ("off", AuditLevel::Off),
        ("sampled", AuditLevel::Sampled(64)),
        ("strict", AuditLevel::Strict),
    ] {
        g.bench_with_input(BenchmarkId::new(label, n), &inst, |b, inst| {
            b.iter(|| {
                black_box(
                    timed_audited_run(black_box(inst), &mut IntermediateSrpt::new(), 8.0, level)
                        .total_flow,
                )
            })
        });
    }
    g.finish();
}

fn engine_streaming_path(c: &mut Criterion) {
    // The memory-bounded streaming path against the in-memory path on the
    // same Poisson fixture: per-event overhead of the free-list arena and
    // constant-size metric sink should be in the noise (both paths run
    // the identical event loop and arithmetic), so this group is a
    // regression alarm for accidental O(n) state sneaking back in.
    let mut g = c.benchmark_group("engine/streaming");
    g.sample_size(20);
    for &n in &[10_000usize, 100_000] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("stream", n), &n, |b, &n| {
            b.iter(|| {
                let mut src = poisson_stream_fixture(n, 0.9, 8.0);
                black_box(
                    timed_streaming_run(
                        &mut src,
                        &mut IntermediateSrpt::new(),
                        8.0,
                        AuditLevel::Off,
                    )
                    .total_flow,
                )
            })
        });
        let inst = poisson_fixture(n, 0.9, 8.0);
        g.bench_with_input(BenchmarkId::new("in-memory", n), &inst, |b, inst| {
            b.iter(|| {
                black_box(
                    timed_run(black_box(inst), &mut IntermediateSrpt::new(), 8.0, false).total_flow,
                )
            })
        });
    }
    g.finish();
}

fn engine_scaling_m(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/machines");
    g.sample_size(20);
    for &m in &[2.0f64, 8.0, 32.0, 128.0] {
        let inst = poisson_fixture(2_000, 0.9, m);
        g.bench_with_input(BenchmarkId::from_parameter(m as u64), &inst, |b, inst| {
            b.iter(|| {
                let out = simulate(black_box(inst), &mut IntermediateSrpt::new(), m).unwrap();
                black_box(out.metrics.total_flow)
            })
        });
    }
    g.finish();
}

fn planned_schedule_replay(c: &mut Criterion) {
    // Executing a large piecewise-constant plan (the OPT-certificate
    // path): dominated by per-segment share lookups.
    let trap = GreedyTrap::new(16, 0.5).with_stream_duration(64.0);
    let inst = trap.instance().unwrap();
    let plan = trap.alternative_plan().unwrap();
    c.bench_function("engine/planned_replay_trap_m16", |b| {
        b.iter(|| {
            let out = simulate(
                black_box(&inst),
                &mut PlannedPolicy::new(plan.clone()),
                16.0,
            )
            .unwrap();
            black_box(out.metrics.total_flow)
        })
    });
}

fn plan_from_tracks(c: &mut Criterion) {
    // The sweep-merge that turns per-job tracks into a plan.
    let trap = GreedyTrap::new(36, 0.5).with_stream_duration(128.0);
    c.bench_function("engine/plan_from_tracks_m36", |b| {
        b.iter(|| black_box(trap.alternative_plan().unwrap()))
    });
}

fn engine_sweep_pool(c: &mut Criterion) {
    // The work-stealing sweep pool at 1/2/4/8 workers over a fixed
    // 16-run Intermediate-SRPT grid, each worker recycling one set of
    // engine buffers. On a single-core host the >1-worker rows measure
    // the pool's overhead rather than any speed-up; the snapshot's
    // `sweep_scaling_8c` field records the same ratio next to
    // `host_cores` so the two are read together.
    use parsched_analysis::{simulate_audited_reusing, Pool};
    use parsched_bench::poisson_workload;
    use parsched_sim::{AuditLevel, EngineBuffers};

    let m = 8.0;
    let instances: Vec<_> = (0..16u64)
        .map(|seed| {
            let mut w = poisson_workload(1_000, 0.9, m);
            w.seed = w.seed.wrapping_add(seed);
            w.generate().expect("sweep fixture")
        })
        .collect();
    let mut g = c.benchmark_group("engine/sweep_pool");
    g.sample_size(10);
    g.throughput(Throughput::Elements(instances.len() as u64));
    for &jobs in &[1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                let flows = Pool::new(jobs).map_with(
                    EngineBuffers::new,
                    instances.iter().collect(),
                    |bufs, inst| {
                        let mut policy = IntermediateSrpt::new();
                        let (out, next) = simulate_audited_reusing(
                            std::mem::take(bufs),
                            inst,
                            &mut policy,
                            m,
                            AuditLevel::Off,
                        );
                        *bufs = next;
                        out.expect("sweep run").metrics.total_flow
                    },
                );
                black_box(flows)
            })
        });
    }
    g.finish();
}

fn engine_hotpath(c: &mut Criterion) {
    // `run_loop` (the specialized instantiation of the event loop) vs a
    // `step()`-driven run (the all-checks instantiation, iterated), same
    // binary and fixtures: the ratio is readable from one report
    // (docs/PERF.md §8). The two arms compute bit-identical results
    // (tests/engine_fastpath_differential.rs), so any gap is pure
    // dispatch/bookkeeping.
    let m = 8.0;
    let mut g = c.benchmark_group("engine/hotpath");
    g.sample_size(20);
    for (label, inst) in [
        ("stable-1e4", poisson_fixture(10_000, 0.9, m)),
        ("stable-1e5", poisson_fixture(100_000, 0.9, m)),
        ("overload-1e4", overload_fixture(10_000, m)),
        ("mixed-1e4", mixed_alpha_fixture(10_000, 0.9, m)),
    ] {
        g.throughput(Throughput::Elements(inst.jobs().len() as u64));
        for (arm, fast) in [("fast", true), ("generic", false)] {
            g.bench_with_input(BenchmarkId::new(arm, label), &inst, |b, inst| {
                b.iter(|| {
                    let cfg = EngineConfig::new(m);
                    let mut policy = IntermediateSrpt::new();
                    let s = if fast {
                        timed_run_cfg(black_box(inst), &mut policy, cfg)
                    } else {
                        timed_step_run(black_box(inst), &mut policy, cfg)
                    };
                    black_box(s.total_flow)
                })
            });
        }
        // With the `hotpath` feature, append the per-phase breakdown for
        // both arms — the microbench view of where the event loop spends
        // its time. Stamping adds clock reads per phase, so these numbers
        // compare phases between arms; the criterion rows above are the
        // wall-clock of record.
        #[cfg(feature = "hotpath")]
        for (arm, fast) in [("fast", true), ("generic", false)] {
            use parsched_sim::{Engine, NullObserver, StaticSource};
            let cfg = EngineConfig::new(m).with_hotpath_profile(true);
            let mut policy = IntermediateSrpt::new();
            let mut src = StaticSource::new(&inst);
            let mut obs = NullObserver;
            let mut eng = Engine::new(cfg, &mut policy, &mut src, &mut obs);
            if fast {
                eng.run_loop().expect("profiled run");
            } else {
                while eng.step().expect("profiled step") {}
            }
            let hp = eng.hotpath_totals();
            let (queue, refresh, metrics, dispatch) = hp.per_event();
            eprintln!(
                "engine/hotpath/{arm}/{label} phases (ns/event): queue {queue:.1}, \
                 refresh {refresh:.1}, metrics {metrics:.1}, dispatch {dispatch:.1}"
            );
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    engine_scaling_n,
    engine_overload_scaling,
    engine_mixed_alpha,
    engine_audit_overhead,
    engine_streaming_path,
    engine_scaling_m,
    planned_schedule_replay,
    plan_from_tracks,
    engine_sweep_pool,
    engine_hotpath
);
criterion_main!(benches);
