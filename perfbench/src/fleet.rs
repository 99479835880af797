//! `fleet-resident`: a `FleetSession` serving 128 Poisson tenants in
//! 64-event slices, 16 in flight, on a pool of 2, without migration.

use std::time::Instant;

use parsched::PolicyKind;
use parsched_analysis::Pool;
use parsched_bench::poisson_workload;
use parsched_fleet::{FleetConfig, FleetOutcome, FleetSession, TenantSpec, TenantStatus};
use parsched_sim::RunMetrics;

use crate::checksum::{metric_bits, Checksum};
use crate::probe::{Limits, Probe, Scenario, POOL_WORKERS, SLICE_EVENTS};
use crate::report::Ops;
use crate::trace::Recorder;
use crate::{timed_phase, Measured, RunCfg, Setup};

const TENANTS: usize = 128;
const JOBS: usize = 1_000;
const M: f64 = 8.0;
const LOAD: f64 = 0.9;
/// Timed fleet passes at least (each pass is a few hundred rounds).
const MIN_PASSES: usize = 2;

/// Every queued tenant is admitted (`max_pending` covers the fleet), so
/// nothing is shed.
const CONFIG: FleetConfig = FleetConfig {
    max_in_flight: 16,
    max_pending: TENANTS,
    slice_events: SLICE_EVENTS,
    migrate: false,
};

/// The registry minus Greedy: its quantum steps give two orders of
/// magnitude more events per job than any other policy, so with it one
/// policy would be most of the fleet's work.
fn policies() -> Vec<PolicyKind> {
    PolicyKind::all_registered()
        .into_iter()
        .filter(|p| *p != PolicyKind::Greedy)
        .collect()
}

/// Tenant `i`'s seed, derived from the workload seed (splitmix64).
fn tenant_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The tenants: policies round-robin, every other tenant streaming.
fn tenants(rec: &mut Recorder, seed: u64, n: usize) -> Result<Vec<TenantSpec>, String> {
    let policies = policies();
    (0..n)
        .map(|i| {
            let mut w = poisson_workload(JOBS, LOAD, M);
            w.seed = tenant_seed(seed, i);
            let instance = rec
                .span("workloads.generate", i as u64, |_| w.generate())
                .map_err(|e| format!("tenant {i}: {e}"))?;
            Ok(TenantSpec::new(
                format!("tenant-{i:03}"),
                instance,
                policies[i % policies.len()],
                M,
            )
            .with_streaming(i % 2 == 1))
        })
        .collect()
}

/// Per-tenant final metrics, or a description of the first tenant that
/// did not finish.
fn tenant_metrics(out: &FleetOutcome) -> Result<Vec<RunMetrics>, String> {
    if out.shed != 0 || out.failed != 0 {
        return Err(format!(
            "{} shed and {} failed tenants",
            out.shed, out.failed
        ));
    }
    out.reports
        .iter()
        .map(|r| match &r.status {
            TenantStatus::Done { metrics, .. } => Ok(metrics.clone()),
            other => Err(format!("{}: {other:?}", r.name)),
        })
        .collect()
}

/// The checksum of a pass: rounds and every tenant's metrics.
fn checksum(out: &FleetOutcome, metrics: &[RunMetrics]) -> u64 {
    let mut sum = Checksum::default();
    sum.word(out.rounds);
    for m in metrics {
        sum.metrics(m);
    }
    sum.value()
}

/// One fleet pass; round latencies (s) go to `rounds` when given.
fn pass(
    rec: &mut Recorder,
    specs: &[TenantSpec],
    unit: u64,
    mut rounds: Option<&mut Vec<f64>>,
) -> Result<FleetOutcome, String> {
    let pool = Pool::new(POOL_WORKERS);
    let mut session = FleetSession::new(CONFIG, specs.to_vec()).map_err(|e| e.to_string())?;
    loop {
        let t0 = Instant::now();
        let left = rec.span("fleet.round", unit, |_| session.round(&pool));
        if let Some(r) = rounds.as_deref_mut() {
            r.push(t0.elapsed().as_secs_f64());
        }
        if left == 0 {
            return Ok(session.outcome());
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, rec: &mut Recorder, ops: &mut Ops) -> Result<Measured, String> {
    // One build: the tenants and their session.
    let (specs, mut setup) = Setup::new(rec, |rec: &mut Recorder| {
        let specs = tenants(rec, cfg.seed, TENANTS)?;
        drop(FleetSession::new(CONFIG, specs.clone()).map_err(|e| e.to_string())?);
        Ok(specs)
    })?;
    // The untimed first pass is the reference every later pass must
    // reproduce bit for bit.
    rec.set_enabled(false);
    let first = pass(rec, &specs, 0, None)?;
    let reference = tenant_metrics(&first)?;
    let events: u64 = reference.iter().map(|m| m.events).sum();
    let slices = first
        .reports
        .iter()
        .map(|r| match r.status {
            TenantStatus::Done { rounds, .. } => rounds,
            _ => 0,
        })
        .sum();

    let mut phase = |rec: &mut Recorder, seconds: f64, ops: &mut Ops| {
        timed_phase(seconds, MIN_PASSES, 1, rec, &mut setup, |i, rec, lat| {
            let unit = i as u64 + 1;
            let Some(out) = ops.record(pass(rec, &specs, unit, Some(lat))) else {
                return 0.0;
            };
            let same = tenant_metrics(&out).map(|ms| {
                out.rounds == first.rounds
                    && ms
                        .iter()
                        .zip(&reference)
                        .all(|(a, b)| metric_bits(a) == metric_bits(b))
            });
            if ops.check(same == Ok(true), || {
                format!("pass {unit} differs from the first: {same:?}")
            }) {
                events as f64
            } else {
                0.0
            }
        })
    };
    let measured = |setup, phase, overhead| Measured {
        setup,
        phase,
        checksum: checksum(&first, &reference),
        overhead,
        counts: vec![
            ("fleet.rounds", first.rounds),
            ("fleet.slices", slices),
            ("simcore.engine.events", events),
        ],
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
    let scenarios: Vec<Scenario> = specs
        .iter()
        .map(|s| Scenario {
            instance: s.instance.clone(),
            policy: s.policy,
            m: s.m,
            streaming: s.streaming,
        })
        .collect();
    let mut probe = Probe::default();
    let solo = probe.run(
        rec,
        &scenarios,
        Limits {
            max_slices: usize::MAX,
            strict: policies().len(),
        },
        ops,
    );
    for (i, (solo, fleet)) in solo.iter().zip(&reference).enumerate() {
        ops.check(
            solo.as_ref()
                .is_some_and(|s| metric_bits(s) == metric_bits(fleet)),
            || format!("tenant {i}: fleet metrics differ from its solo run"),
        );
    }
    Ok(measured(setup, traced, Some((overhead, probe))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_checksum(seed: u64) -> u64 {
        let mut rec = Recorder::new(false);
        let specs: Vec<TenantSpec> = tenants(&mut rec, seed, 9)
            .unwrap()
            .into_iter()
            .map(|mut t| {
                t.instance = parsched_sim::Instance::new(t.instance.jobs()[..50].to_vec()).unwrap();
                t
            })
            .collect();
        let out = pass(&mut rec, &specs, 0, None).unwrap();
        checksum(&out, &tenant_metrics(&out).unwrap())
    }

    #[test]
    fn checksum_is_stable_per_seed_and_differs_across_seeds() {
        assert_eq!(small_checksum(5), small_checksum(5));
        assert_ne!(small_checksum(5), small_checksum(6));
    }
}
