//! `adversary`: `run_search` for the standard policies but Greedy in
//! turn, over consecutive seeds, on a pool of 2.

use std::hint::black_box;
use std::time::Instant;

use parsched::PolicyKind;
use parsched_adversary::{run_search, InstanceGenome, SearchConfig, SearchOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checksum::Checksum;
use crate::probe::{Limits, Probe, Scenario, POOL_WORKERS};
use crate::report::Ops;
use crate::trace::Recorder;
use crate::{timed_phase, Measured, RunCfg, Setup};

/// Candidate evaluations per search: the default of `parsched
/// adversary --budget`, 13 generations of 16 (the last one cut to 8).
const BUDGET: usize = 200;

/// The standard policies minus Greedy. At budget 200 a Greedy search
/// takes 1.3–1.7 s (its quantum steps dominate) against a median of
/// about 50 ms for the others, so with it one policy would be about 80%
/// of the workload, and its swing with the seed most of the spread.
fn policies() -> Vec<PolicyKind> {
    PolicyKind::all_standard()
        .into_iter()
        .filter(|p| *p != PolicyKind::Greedy)
        .collect()
}

/// The config of search `j`: policy `j` mod the policy count, seed
/// derived from the workload seed.
fn config(policies: &[PolicyKind], seed: u64, j: usize) -> SearchConfig {
    let mut cfg = SearchConfig::new(
        policies[j % policies.len()],
        seed.wrapping_mul(1_000_003).wrapping_add(j as u64),
        BUDGET,
    );
    cfg.jobs = POOL_WORKERS;
    cfg
}

/// One search and its checks: no fuzz failure, the whole budget spent.
fn search(
    rec: &mut Recorder,
    cfg: &SearchConfig,
    unit: u64,
    ops: &mut Ops,
) -> (SearchOutcome, f64, bool) {
    let t0 = Instant::now();
    let out = rec.span("adversary.search", unit, |_| run_search(cfg));
    let secs = t0.elapsed().as_secs_f64();
    let ok = ops.check(out.failures.is_empty(), || {
        format!("search {unit}: fuzz failures {:?}", out.failures)
    }) & ops.check(out.evals == cfg.budget, || {
        format!(
            "search {unit}: {} evals for a budget of {}",
            out.evals, cfg.budget
        )
    });
    (out, secs, ok)
}

/// The checksum of a search prefix: evals, trajectories and every elite's
/// flow, bound and ratio.
fn checksum(outs: &[SearchOutcome]) -> u64 {
    let mut sum = Checksum::default();
    for out in outs {
        sum.word(out.evals as u64);
        for &r in &out.trajectory {
            sum.float(r);
        }
        for e in &out.elites {
            sum.float(e.flow);
            sum.float(e.lb);
            sum.float(e.ratio);
        }
    }
    sum.value()
}

/// Exact counts of the search prefix.
fn counts(prefix: &[SearchOutcome]) -> Vec<(&'static str, u64)> {
    vec![
        (
            "adversary.evals",
            prefix.iter().map(|o| o.evals as u64).sum(),
        ),
        (
            "adversary.generations",
            prefix.iter().map(|o| o.trajectory.len() as u64).sum(),
        ),
    ]
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, rec: &mut Recorder, ops: &mut Ops) -> Result<Measured, String> {
    let policies = policies();
    // One build: the configs of one search per policy, and the instances
    // of a generation of genomes drawn the way `run_search` draws its
    // fresh ones (from an RNG seeded with the search seed).
    let (configs, mut setup) = Setup::new(rec, |_: &mut Recorder| {
        let configs: Vec<SearchConfig> = (0..policies.len())
            .map(|j| config(&policies, cfg.seed, j))
            .collect();
        for c in &configs {
            let mut rng = StdRng::seed_from_u64(c.seed);
            for _ in 0..c.population {
                let genome = InstanceGenome::random(&mut rng, c.bounds);
                let instance = genome
                    .materialize(c.m)
                    .map_err(|e| format!("materialize {}: {e}", genome.provenance()))?;
                black_box(instance);
            }
        }
        Ok(configs)
    })?;
    rec.set_enabled(false);
    // Search 0 is the untimed warm-up; it and the searches after it up to
    // one per policy are the prefix the checksum and the probe cover.
    let (warm, _, _) = search(rec, &configs[0], 0, ops);
    let mut prefix = vec![warm];
    let mut next = 1usize;
    let mut phase = |rec: &mut Recorder, seconds: f64, ops: &mut Ops| {
        timed_phase(
            seconds,
            policies.len(),
            policies.len(),
            rec,
            &mut setup,
            |_, rec, lat| {
                let j = next;
                next += 1;
                let (out, secs, ok) = search(rec, &config(&policies, cfg.seed, j), j as u64, ops);
                lat.push(secs);
                let evals = if ok { out.evals as f64 } else { 0.0 };
                if prefix.len() < policies.len() {
                    prefix.push(out);
                }
                evals
            },
        )
    };
    if !cfg.trace {
        let timed = phase(rec, cfg.seconds, ops)?;
        return Ok(Measured {
            setup: setup.finish(rec)?,
            phase: timed,
            checksum: checksum(&prefix),
            overhead: None,
            counts: counts(&prefix),
        });
    }
    let plain = phase(rec, cfg.seconds / 2.0, ops)?;
    rec.set_enabled(true);
    let traced = phase(rec, cfg.seconds / 2.0, ops)?;
    let overhead = traced.throughput() / plain.throughput();
    let setup = setup.finish(rec)?;

    // Re-drive every elite of the prefix through the layers; each must
    // reproduce the flow the search recorded.
    let mut scenarios = Vec::new();
    let mut recorded = Vec::new();
    for (j, out) in prefix.iter().enumerate() {
        let search_cfg = &configs[j];
        for e in &out.elites {
            let instance = rec
                .span("workloads.generate", j as u64, |_| {
                    e.genome.materialize(search_cfg.m)
                })
                .map_err(|err| format!("materialize {}: {err}", e.genome.provenance()))?;
            scenarios.push(Scenario {
                instance,
                policy: search_cfg.policy,
                m: search_cfg.m,
                streaming: false,
            });
            recorded.push(e.flow);
        }
    }
    let mut probe = Probe::default();
    let mem = probe.run(
        rec,
        &scenarios,
        Limits {
            max_slices: usize::MAX,
            strict: scenarios.len(),
        },
        ops,
    );
    for (i, (m, flow)) in mem.iter().zip(&recorded).enumerate() {
        ops.check(
            m.as_ref()
                .is_some_and(|m| m.total_flow.to_bits() == flow.to_bits()),
            || format!("elite {i}: re-driven flow differs from the recorded one"),
        );
    }
    Ok(Measured {
        setup,
        phase: traced,
        checksum: checksum(&prefix),
        overhead: Some((overhead, probe)),
        counts: counts(&prefix),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_checksum(seed: u64) -> u64 {
        let policies = policies();
        let mut rec = Recorder::new(false);
        let mut ops = Ops::default();
        let outs: Vec<SearchOutcome> = (0..2)
            .map(|j| {
                let mut c = config(&policies, seed, j);
                c.budget = 16;
                search(&mut rec, &c, j as u64, &mut ops).0
            })
            .collect();
        assert_eq!(ops.failed, 0);
        checksum(&outs)
    }

    #[test]
    fn checksum_is_stable_per_seed_and_differs_across_seeds() {
        assert_eq!(small_checksum(3), small_checksum(3));
        assert_ne!(small_checksum(3), small_checksum(4));
    }
}
