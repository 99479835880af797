//! The traced run's layer probe.
//!
//! Workload entry points (`FleetSession::round`, `run_search`) reach most
//! layers from inside the library, where the benchmark cannot place a
//! span. The probe therefore re-drives each workload's own scenarios
//! (the sim instance, every fleet tenant, every re-driven adversary
//! elite) through the public call of each layer, one span per call:
//!
//! * `Engine::with_buffers` then `run_reusing` (in-memory, fast loop);
//! * `simulate_streaming` on the same instance;
//! * suspend/resume slices: `Engine::new → restore → step × 64 →
//!   snapshot`, each snapshot through `to_json` / `from_json`;
//! * `strict_dual_path_check` and `best_lower_bound`;
//! * `PowKernel::gamma_batch` per α class and a no-op `Pool::map_with`.
//!
//! Besides timing, the probe checks that the in-memory run, the
//! streaming run and the sliced run agree bit for bit, and that every
//! snapshot survives the codec unchanged.

use std::hint::black_box;
use std::time::Instant;

use parsched::PolicyKind;
use parsched_adversary::strict_dual_path_check;
use parsched_analysis::Pool;
use parsched_opt::best_lower_bound;
use parsched_sim::{
    simulate, simulate_streaming, Engine, EngineBuffers, EngineConfig, Instance, NullObserver,
    RunMetrics, Snapshot, StaticSource,
};
use parsched_speedup::PowKernel;

use crate::checksum::metric_bits;
use crate::report::{Metrics, Ops};
use crate::stats::median;
use crate::trace::Recorder;

/// Engine events per suspend/resume slice.
pub const SLICE_EVENTS: u64 = 64;

/// Worker count of every pool the benchmark uses (never automatic).
pub const POOL_WORKERS: usize = 2;

/// Items per no-op pool call: the fleet's in-flight cap and the
/// adversary's population are both 16.
const POOL_ITEMS: usize = 16;
const POOL_REPS: usize = 201;

/// α classes timed by the kernel probe: the mixed-α workload's four.
const KERNEL_ALPHAS: [(f64, &str, &str); 4] = [
    (0.25, "speedup.gamma_batch.0.25", "speedup.eval_ns.0.25"),
    (0.37, "speedup.gamma_batch.0.37", "speedup.eval_ns.0.37"),
    (0.5, "speedup.gamma_batch.0.5", "speedup.eval_ns.0.5"),
    (0.75, "speedup.gamma_batch.0.75", "speedup.eval_ns.0.75"),
];
const KERNEL_LEN: usize = 4096;
const KERNEL_REPS: usize = 201;

/// Jobs the strict audit covers per scenario: its per-event frames cost
/// O(alive), so an overloaded 2·10⁴-job instance would take minutes.
const STRICT_JOBS: usize = 4_000;

/// One scheduling scenario a workload runs.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub instance: Instance,
    pub policy: PolicyKind,
    pub m: f64,
    pub streaming: bool,
}

/// How much of each layer the probe drives.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Slices suspended per scenario before it runs to the end
    /// uninterrupted from its last snapshot.
    pub max_slices: usize,
    /// Leading scenarios given the strict audit (on their first
    /// `STRICT_JOBS` jobs).
    pub strict: usize,
}

/// Timing sums that span names alone do not separate.
#[derive(Debug, Default)]
pub struct Probe {
    strict_ns: u64,
    plain_ns: u64,
    solo_ns: u64,
    solo_events: u64,
    peak_alive: usize,
}

/// Runs a single scenario in memory on `bufs`, inside the
/// `simcore.engine.build` and `simcore.engine.run` spans. Returns the
/// metrics and the host ns of build plus run.
pub fn engine_run(
    rec: &mut Recorder,
    bufs: &mut EngineBuffers,
    instance: &Instance,
    policy: PolicyKind,
    m: f64,
    unit: u64,
) -> Result<(RunMetrics, u64), String> {
    let mut pol = policy.build();
    let mut source = StaticSource::new(instance);
    let mut obs = NullObserver;
    let taken = std::mem::take(bufs);
    let t0 = Instant::now();
    let engine = rec.span("simcore.engine.build", unit, |_| {
        Engine::with_buffers(
            EngineConfig::new(m),
            pol.as_mut(),
            &mut source,
            &mut obs,
            taken,
        )
    });
    let (out, back) = rec
        .span("simcore.engine.run", unit, |_| engine.run_reusing())
        .map_err(|e| format!("engine run: {e}"))?;
    let ns = t0.elapsed().as_nanos() as u64;
    *bufs = back;
    rec.add("simcore.engine.run_events", out.metrics.events);
    Ok((out.metrics, ns))
}

impl Probe {
    /// Drives every scenario through every layer. Returns each scenario's
    /// in-memory metrics (`None` where the run failed).
    pub fn run(
        &mut self,
        rec: &mut Recorder,
        scenarios: &[Scenario],
        limits: Limits,
        ops: &mut Ops,
    ) -> Vec<Option<RunMetrics>> {
        let mut bufs = EngineBuffers::new();
        let mut out = Vec::with_capacity(scenarios.len());
        for (i, sc) in scenarios.iter().enumerate() {
            let unit = i as u64;
            let mem = ops.record(engine_run(
                rec,
                &mut bufs,
                &sc.instance,
                sc.policy,
                sc.m,
                unit,
            ));
            let (mem, mem_ns) = match mem {
                Some((m, ns)) => (Some(m), ns),
                None => (None, 0),
            };
            if let Some(m) = &mem {
                rec.add("simcore.engine.events", m.events);
                rec.add("simcore.engine.completions", m.num_jobs as u64);
            }
            let streamed = ops.record(
                rec.span("simcore.streaming.run", unit, |_| {
                    let mut source = StaticSource::new(&sc.instance);
                    simulate_streaming(&mut source, sc.policy.build().as_mut(), sc.m)
                })
                .map_err(|e| format!("streaming run: {e}")),
            );
            let st_ns = rec.last_closed_ns();
            if let Some(s) = &streamed {
                rec.add("simcore.streaming.events", s.metrics.events);
                self.peak_alive = self.peak_alive.max(s.peak_alive);
            }
            if let (Some(a), Some(b)) = (&mem, &streamed) {
                ops.check(metric_bits(a) == metric_bits(&b.metrics), || {
                    format!("scenario {i}: in-memory and streaming runs differ")
                });
                let (ns, ev) = if sc.streaming {
                    (st_ns, b.metrics.events)
                } else {
                    (mem_ns, a.events)
                };
                self.solo_ns += ns;
                self.solo_events += ev;
            }
            if let Some(sliced) = ops.record(slice_drive(rec, sc, unit, limits.max_slices)) {
                if let Some(a) = &mem {
                    ops.check(metric_bits(a) == metric_bits(&sliced), || {
                        format!("scenario {i}: suspended/resumed run differs from the plain run")
                    });
                }
            }
            if i < limits.strict {
                self.strict(rec, sc, unit, ops);
            }
            let lb = rec.span("opt.lower_bound", unit, |_| {
                best_lower_bound(&sc.instance, sc.m)
            });
            ops.check(lb.0.is_finite() && lb.0 > 0.0, || {
                format!("scenario {i}: lower bound {} is not positive", lb.0)
            });
            out.push(mem);
        }
        kernel_probe(rec);
        pool_probe(rec);
        out
    }

    /// `strict_dual_path_check` on the scenario's leading jobs, and the
    /// same two runs with the audit off as its baseline.
    fn strict(&mut self, rec: &mut Recorder, sc: &Scenario, unit: u64, ops: &mut Ops) {
        let jobs = sc.instance.jobs();
        let instance = match Instance::new(jobs[..jobs.len().min(STRICT_JOBS)].to_vec()) {
            Ok(inst) => inst,
            Err(e) => {
                ops.check(false, || format!("strict-check prefix: {e}"));
                return;
            }
        };
        let res = rec.span("simcore.invariant.strict_check", unit, |_| {
            strict_dual_path_check(&instance, sc.policy, sc.m)
        });
        self.strict_ns += rec.last_closed_ns();
        ops.record(res.map_err(|e| format!("scenario {unit}: {e}")));
        let base = rec.span("simcore.invariant.baseline", unit, |_| {
            let mem = simulate(&instance, sc.policy.build().as_mut(), sc.m)?;
            let st = simulate_streaming(
                &mut StaticSource::new(&instance),
                sc.policy.build().as_mut(),
                sc.m,
            )?;
            Ok::<_, parsched_sim::SimError>((mem, st))
        });
        self.plain_ns += rec.last_closed_ns();
        ops.record(base.map_err(|e| format!("scenario {unit}: baseline run: {e}")));
    }

    /// Every per-layer metric the probe and the workload's spans give.
    pub fn layer_metrics(&self, rec: &Recorder, m: &mut Metrics) {
        let med = |name: &str| median(&rec.durations(name));
        let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        m.push(
            "workloads.generate_ms",
            med("workloads.generate") / 1e6,
            "ms",
        );
        m.push(
            "simcore.engine.build_us",
            med("simcore.engine.build") / 1e3,
            "us",
        );
        m.push(
            "simcore.engine.run_us",
            med("simcore.engine.run") / 1e3,
            "us",
        );
        m.push(
            "simcore.engine.ns_per_event",
            per(
                rec.total_self_ns("simcore.engine.run"),
                rec.count("simcore.engine.run_events"),
            ),
            "ns",
        );
        m.push(
            "simcore.engine.step_ns",
            per(
                rec.total_ns("simcore.engine.step"),
                rec.count("simcore.engine.steps"),
            ),
            "ns",
        );
        m.push(
            "simcore.engine.events",
            rec.count("simcore.engine.events") as f64,
            "count",
        );
        m.push(
            "simcore.engine.completions",
            rec.count("simcore.engine.completions") as f64,
            "count",
        );
        m.push(
            "simcore.streaming.ns_per_event",
            per(
                rec.total_ns("simcore.streaming.run"),
                rec.count("simcore.streaming.events"),
            ),
            "ns",
        );
        m.push(
            "simcore.streaming.peak_alive",
            self.peak_alive as f64,
            "count",
        );
        m.push(
            "simcore.snapshot.restore_us",
            med("simcore.snapshot.restore") / 1e3,
            "us",
        );
        m.push(
            "simcore.snapshot.capture_us",
            med("simcore.snapshot.capture") / 1e3,
            "us",
        );
        let bytes = rec.count("simcore.snapshot.bytes");
        m.push("simcore.snapshot.bytes", bytes as f64, "bytes");
        // bytes per ns × 1e3 = MB/s.
        m.push(
            "simcore.snapshot.encode_mb_per_s",
            per(bytes, rec.total_ns("simcore.snapshot.encode")) * 1e3,
            "MB/s",
        );
        m.push(
            "simcore.snapshot.decode_mb_per_s",
            per(bytes, rec.total_ns("simcore.snapshot.decode")) * 1e3,
            "MB/s",
        );
        m.push(
            "simcore.invariant.strict_check_ms",
            med("simcore.invariant.strict_check") / 1e6,
            "ms",
        );
        m.push(
            "simcore.invariant.audit_overhead",
            per(self.strict_ns, self.plain_ns),
            "ratio",
        );
        m.push("opt.lower_bound_us", med("opt.lower_bound") / 1e3, "us");
        for (_, span, metric) in KERNEL_ALPHAS {
            m.push(metric, med(span) / KERNEL_LEN as f64, "ns");
        }
        m.push(
            "analysis.sweep.map_us",
            med("analysis.sweep.map_with") / 1e3,
            "us",
        );
        m.push(
            "fleet.solo_events_per_s",
            per(self.solo_events, self.solo_ns) * 1e9,
            "1/s",
        );
    }
}

/// Re-drives one scenario in suspend/resume slices, the way the fleet
/// serves a tenant, for at most `max_slices` suspensions; then resumes
/// from the last snapshot and runs to the end. Returns the final metrics.
///
/// Each slice builds its engine with `Engine::new`, on fresh buffers
/// (the fleet keeps warm ones per worker), so `restore` also pays for
/// growing them.
fn slice_drive(
    rec: &mut Recorder,
    sc: &Scenario,
    unit: u64,
    max_slices: usize,
) -> Result<RunMetrics, String> {
    let cfg = EngineConfig::new(sc.m).with_streaming(sc.streaming);
    let mut snap: Option<Snapshot> = None;
    let mut slices = 0usize;
    let mut codec_ok = true;
    let result = loop {
        let mut policy = sc.policy.build();
        let mut source = StaticSource::new(&sc.instance);
        let mut obs = NullObserver;
        let mut engine = rec.span("simcore.engine.build", unit, |_| {
            Engine::new(cfg, policy.as_mut(), &mut source, &mut obs)
        });
        if let Some(s) = &snap {
            rec.span("simcore.snapshot.restore", unit, |_| engine.restore(s))
                .map_err(|e| format!("restore: {e}"))?;
        }
        let live = if slices < max_slices {
            let (stepped, live) = rec
                .span("simcore.engine.step", unit, |_| {
                    let mut k = 0u64;
                    while k < SLICE_EVENTS {
                        if !engine.step()? {
                            return Ok((k, false));
                        }
                        k += 1;
                    }
                    Ok((k, true))
                })
                .map_err(|e: parsched_sim::SimError| format!("step: {e}"))?;
            rec.add("simcore.engine.steps", stepped);
            live
        } else {
            false
        };
        if !live {
            let out = engine
                .run_streaming()
                .map_err(|e| format!("finalize: {e}"))?;
            break out.metrics;
        }
        let s = rec
            .span("simcore.snapshot.capture", unit, |_| engine.snapshot())
            .map_err(|e| format!("snapshot: {e}"))?;
        let doc = rec.span("simcore.snapshot.encode", unit, |_| s.to_json());
        rec.add("simcore.snapshot.bytes", doc.len() as u64);
        let decoded = rec
            .span("simcore.snapshot.decode", unit, |_| {
                Snapshot::from_json(&doc)
            })
            .map_err(|e| format!("decode: {e}"))?;
        codec_ok &= decoded == s;
        snap = Some(s);
        slices += 1;
    };
    if !codec_ok {
        return Err("a snapshot changed through to_json/from_json".to_string());
    }
    Ok(result)
}

/// `PowKernel::gamma_batch` on a fixed share vector spanning both sides
/// of the knee, per α class.
fn kernel_probe(rec: &mut Recorder) {
    let xs: Vec<f64> = (0..KERNEL_LEN)
        .map(|i| 0.05 + 7.95 * i as f64 / (KERNEL_LEN - 1) as f64)
        .collect();
    let mut out = vec![0.0; KERNEL_LEN];
    for (alpha, span, _) in KERNEL_ALPHAS {
        let kernel = PowKernel::new(alpha);
        for rep in 0..KERNEL_REPS {
            rec.span(span, rep as u64, |_| {
                kernel.gamma_batch(black_box(&xs), &mut out);
            });
            black_box(&out);
        }
    }
}

/// The shard pool's fork/join cost: a no-op `map_with` over the item
/// count of one fleet round or one adversary generation.
fn pool_probe(rec: &mut Recorder) {
    let pool = Pool::new(POOL_WORKERS);
    for rep in 0..POOL_REPS {
        let items: Vec<usize> = (0..POOL_ITEMS).collect();
        let out = rec.span("analysis.sweep.map_with", rep as u64, |_| {
            pool.map_with(
                || 0usize,
                items,
                |state, i| {
                    *state += 1;
                    black_box(i)
                },
            )
        });
        black_box(out);
    }
}
