//! `sim-stable` and `sim-overload-mixed`: Intermediate-SRPT on one
//! in-memory Poisson instance, re-run on reused `EngineBuffers`.

use parsched::{IntermediateSrpt, PolicyKind};
use parsched_bench::{mixed_alpha_workload, poisson_workload};
use parsched_sim::{simulate_streaming, EngineBuffers, Instance, RunMetrics};
use parsched_workloads::random::PoissonWorkload;
use parsched_workloads::PoissonSource;

use crate::checksum::{metric_bits, Checksum};
use crate::probe::{engine_run, Limits, Probe, Scenario};
use crate::report::Ops;
use crate::trace::Recorder;
use crate::{timed_phase, Measured, RunCfg, Setup};

/// Processors.
const M: f64 = 8.0;
/// Timed runs at least.
const MIN_RUNS: usize = 20;
/// Suspensions the probe drives before resuming to the end: the
/// in-memory snapshot grows with the admitted count, so a whole
/// 10⁵-job instance in slices would dominate the traced run.
const PROBE_SLICES: usize = 64;

/// One simulation workload's instance shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: usize,
    pub load: f64,
    pub mixed_alpha: bool,
}

/// Load 0.9, α = ½: an alive set of about 9 jobs, so the fast loop's
/// per-event spine dominates.
pub const STABLE: Shape = Shape {
    n: 100_000,
    load: 0.9,
    mixed_alpha: false,
};

/// Load 1.5 with α from {¼, ½, ¾, 0.37}: the alive set grows to
/// thousands, so SRPT-set upkeep, multi-class Γ and the event queue
/// dominate.
pub const OVERLOAD_MIXED: Shape = Shape {
    n: 20_000,
    load: 1.5,
    mixed_alpha: true,
};

/// The workload: `parsched_bench`'s Poisson recipe (log-uniform sizes
/// on [1, 32], α = ½ or the four-way mix) at the shape's load on `M`
/// processors, seeded by the benchmark seed.
pub fn workload(shape: Shape, seed: u64) -> PoissonWorkload {
    let mut w = if shape.mixed_alpha {
        mixed_alpha_workload(shape.n, shape.load, M)
    } else {
        poisson_workload(shape.n, shape.load, M)
    };
    w.seed = seed;
    w
}

/// The checksum of one run's simulated output.
pub fn checksum(reference: &RunMetrics) -> u64 {
    let mut sum = Checksum::default();
    sum.metrics(reference);
    sum.value()
}

/// Exact counts of one run.
fn counts(reference: &RunMetrics) -> Vec<(&'static str, u64)> {
    vec![
        ("simcore.engine.events", reference.events),
        ("simcore.engine.completions", reference.num_jobs as u64),
    ]
}

/// The reference run of `shape` at `seed`: an untimed in-memory run,
/// which must match the streaming engine fed lazily from the same seed.
fn reference(
    rec: &mut Recorder,
    bufs: &mut EngineBuffers,
    w: &PoissonWorkload,
    inst: &Instance,
    ops: &mut Ops,
) -> Result<RunMetrics, String> {
    let (reference, _) = engine_run(rec, bufs, inst, PolicyKind::IntermediateSrpt, M, 0)?;
    let mut lazy = PoissonSource::new(w.clone());
    let streamed = simulate_streaming(&mut lazy, &mut IntermediateSrpt::new(), M)
        .map_err(|e| format!("streaming run: {e}"))?;
    ops.check(
        metric_bits(&reference) == metric_bits(&streamed.metrics),
        || "in-memory run and simulate_streaming differ".to_string(),
    );
    Ok(reference)
}

/// Runs the workload.
pub fn run(
    shape: Shape,
    cfg: &RunCfg,
    rec: &mut Recorder,
    ops: &mut Ops,
) -> Result<Measured, String> {
    let w = workload(shape, cfg.seed);
    let mut rep = 0;
    // One build: the instance and the first (empty) buffers.
    let (inst, mut setup) = Setup::new(rec, |rec: &mut Recorder| {
        rep += 1;
        let inst = rec
            .span("workloads.generate", rep, |_| w.generate())
            .map_err(|e| format!("generate: {e}"))?;
        drop(EngineBuffers::new());
        Ok(inst)
    })?;
    rec.set_enabled(false);
    let mut bufs = EngineBuffers::new();
    let reference = reference(rec, &mut bufs, &w, &inst, ops)?;
    let events = reference.events as f64;

    let mut phase = |rec: &mut Recorder, seconds: f64, ops: &mut Ops| {
        timed_phase(seconds, MIN_RUNS, 1, rec, &mut setup, |i, rec, lat| {
            let unit = i as u64 + 1;
            let res = rec.span("sim.unit", unit, |rec| {
                engine_run(rec, &mut bufs, &inst, PolicyKind::IntermediateSrpt, M, unit)
            });
            let Some((m, ns)) = ops.record(res) else {
                return 0.0;
            };
            let same = ops.check(metric_bits(&m) == metric_bits(&reference), || {
                format!("run {unit} differs from the reference run")
            });
            lat.push(ns as f64 * 1e-9);
            if same {
                events
            } else {
                0.0
            }
        })
    };
    let measured = |setup, phase, overhead| Measured {
        setup,
        phase,
        checksum: checksum(&reference),
        overhead,
        counts: counts(&reference),
    };
    if !cfg.trace {
        let timed = phase(rec, cfg.seconds, ops)?;
        return Ok(measured(setup.finish(rec)?, timed, None));
    }
    let plain = phase(rec, cfg.seconds / 2.0, ops)?;
    rec.set_enabled(true);
    let traced = phase(rec, cfg.seconds / 2.0, ops)?;
    let overhead = traced.throughput() / plain.throughput();
    let setup = setup.finish(rec)?;
    let mut probe = Probe::default();
    let scenarios = [Scenario {
        instance: inst,
        policy: PolicyKind::IntermediateSrpt,
        m: M,
        streaming: false,
    }];
    probe.run(
        rec,
        &scenarios,
        Limits {
            max_slices: PROBE_SLICES,
            strict: 1,
        },
        ops,
    );
    Ok(measured(setup, traced, Some((overhead, probe))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_checksum(seed: u64) -> u64 {
        let shape = Shape {
            n: 2_000,
            ..OVERLOAD_MIXED
        };
        let w = workload(shape, seed);
        let inst = w.generate().unwrap();
        let mut rec = Recorder::new(false);
        let mut ops = Ops::default();
        let m = reference(&mut rec, &mut EngineBuffers::new(), &w, &inst, &mut ops).unwrap();
        assert_eq!(ops.failed, 0);
        checksum(&m)
    }

    #[test]
    fn checksum_is_stable_per_seed_and_differs_across_seeds() {
        assert_eq!(small_checksum(11), small_checksum(11));
        assert_ne!(small_checksum(11), small_checksum(12));
    }
}
