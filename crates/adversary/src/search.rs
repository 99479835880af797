//! The seeded evolutionary hard-instance search.
//!
//! A (μ + λ) elite-selection loop over [`InstanceGenome`]s: each
//! generation evaluates a population of candidates **in parallel** on the
//! deterministic [`Pool`] (per-worker [`EngineBuffers`], results
//! committed in input order), scores each by measured flow time divided
//! by the best provable OPT lower bound for the target policy, and
//! breeds the next generation from the elites by single-axis mutation.
//!
//! # Determinism
//!
//! Every RNG draw happens in the serial main loop (candidate generation
//! and mutation); workers only evaluate pure functions of the genome.
//! Evaluation order is therefore irrelevant and the whole search — the
//! elite set, the best-ratio trajectory, any fuzz failures — is
//! byte-identical across `--jobs N` (locked in by
//! `crates/analysis/tests/sweep_pool_determinism.rs`).
//!
//! # Fuzzing
//!
//! Each generation's top candidates are re-run under
//! [`AuditLevel::Strict`] on **both** engine paths (in-memory
//! incremental and streaming) with bit-exact cross-path comparison of
//! the aggregate metrics, so the search doubles as a fuzzer pointed at
//! exactly the instances that stress the engine most. Failures are
//! minimized by the domain-aware shrinker ([`crate::shrink_jobs`]) and
//! reported as reproducers.

use parsched::PolicyKind;
use parsched_analysis::{simulate_audited_reusing, Pool};
use parsched_opt::{best_lower_bound, LbKind};
use parsched_sim::{
    simulate_audited, simulate_streaming_audited, AuditLevel, EngineBuffers, Instance, JobSpec,
    StaticSource,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

use crate::genome::{GenomeBounds, InstanceGenome, ReleasePattern};
use crate::shrink::shrink_jobs;

/// Search parameters. Everything that affects the outcome is explicit
/// here — two equal configs produce byte-identical [`SearchOutcome`]s
/// regardless of `jobs`.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// The policy under attack.
    pub policy: PolicyKind,
    /// Processor count for every evaluation.
    pub m: f64,
    /// Master seed for candidate generation and mutation.
    pub seed: u64,
    /// Total number of candidate evaluations.
    pub budget: usize,
    /// Pool worker count (`0` = automatic). Affects wall clock only,
    /// never results.
    pub jobs: usize,
    /// Candidates per generation.
    pub population: usize,
    /// Elite pool size (parents of the next generation, and the
    /// candidates reported back).
    pub elites: usize,
    /// Bounds every genome is kept within.
    pub bounds: GenomeBounds,
    /// Per generation, how many of its best candidates get the strict
    /// dual-path fuzz treatment.
    pub fuzz_top: usize,
}

impl SearchConfig {
    /// A config with the standard knobs: `m = 4`, population 16, elite
    /// pool 8, top-4 fuzzing, automatic worker count.
    pub fn new(policy: PolicyKind, seed: u64, budget: usize) -> Self {
        SearchConfig {
            policy,
            m: 4.0,
            seed,
            budget,
            jobs: 0,
            population: 16,
            elites: 8,
            bounds: GenomeBounds::default(),
            fuzz_top: 4,
        }
    }
}

/// One scored candidate.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The genome that produced the instance.
    pub genome: InstanceGenome,
    /// Measured total flow under the target policy.
    pub flow: f64,
    /// The best applicable OPT lower bound.
    pub lb: f64,
    /// Which bound produced `lb`.
    pub lb_kind: LbKind,
    /// `flow / lb` — the fitness; an empirical competitive-ratio
    /// certificate when `lb_kind` is tight.
    pub ratio: f64,
}

/// A strict-audit or cross-path failure, minimized to a reproducer.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Provenance of the genome that first triggered the failure.
    pub provenance: String,
    /// The shrunk job list that still reproduces the failure.
    pub jobs: Vec<JobSpec>,
    /// What went wrong (audit violation or cross-path divergence).
    pub error: String,
}

/// Everything a search run produced.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The elite pool, best ratio first (deterministic order).
    pub elites: Vec<Evaluated>,
    /// Best ratio seen so far, recorded after every generation.
    pub trajectory: Vec<f64>,
    /// Number of candidate evaluations actually performed.
    pub evals: usize,
    /// Engine failures discovered (and shrunk) along the way. Empty on a
    /// healthy engine — any entry is a bug reproducer.
    pub failures: Vec<FuzzFailure>,
}

/// Hand-picked generation-0 genomes: batch/common-α instances where the
/// heSRPT denominator is exact, plus one ramp — so the search starts
/// from provably-tight territory instead of random noise.
fn seed_genomes(cfg: &SearchConfig) -> Vec<InstanceGenome> {
    use parsched_workloads::random::{AlphaDist, SizeDist};
    let mut out = Vec::new();
    for (n, alpha) in [(4usize, 0.5f64), (12, 0.5), (24, 0.25), (24, 0.75)] {
        out.push(InstanceGenome {
            n: n.min(cfg.bounds.max_n),
            seed: cfg.seed ^ ((n as u64) << 8) ^ alpha.to_bits(),
            sizes: SizeDist::LogUniform { p: 16.0 },
            alphas: AlphaDist::Fixed(alpha),
            release: ReleasePattern::Batch,
        });
    }
    out.push(InstanceGenome {
        n: 16.min(cfg.bounds.max_n),
        seed: cfg.seed ^ 0x52414d50, // "RAMP"
        sizes: SizeDist::Bimodal {
            small: 1.0,
            large: 32.0,
            prob_large: 0.2,
        },
        alphas: AlphaDist::Fixed(0.5),
        release: ReleasePattern::Ramp { horizon: 8.0 },
    });
    out
}

/// Evaluates one genome: materialize, simulate (audit off — elites get
/// the strict treatment separately), score against the best LB.
///
/// Pure function of `(genome, policy, m)` — must stay free of worker
/// state so the pool's ordering guarantee makes the search
/// jobs-invariant. Returns `None` when the genome fails to materialize
/// or simulate; the selection loop just skips it.
fn evaluate(
    bufs: &mut EngineBuffers,
    genome: InstanceGenome,
    policy: PolicyKind,
    m: f64,
) -> Option<Evaluated> {
    let instance = genome.materialize(m).ok()?;
    let mut p = policy.build();
    let owned = std::mem::take(bufs);
    let (result, returned) =
        simulate_audited_reusing(owned, &instance, p.as_mut(), m, AuditLevel::Off);
    *bufs = returned;
    let outcome = result.ok()?;
    let flow = outcome.metrics.total_flow;
    let (lb, lb_kind) = best_lower_bound(&instance, m);
    // Reject non-finite or non-positive denominators (NaN included: a
    // NaN lb fails `is_finite` before the sign check can miss it).
    if !lb.is_finite() || lb <= 0.0 || !flow.is_finite() {
        return None;
    }
    Some(Evaluated {
        genome,
        flow,
        lb,
        lb_kind,
        ratio: flow / lb,
    })
}

/// Strict dual-path check: in-memory incremental vs streaming, both
/// under [`AuditLevel::Strict`], aggregates compared bit-for-bit.
///
/// `Ok(())` means both paths ran clean and agreed. `Err` carries a
/// human-readable description of the audit violation or divergence.
pub fn strict_dual_path_check(
    instance: &Instance,
    policy: PolicyKind,
    m: f64,
) -> Result<(), String> {
    let mem = simulate_audited(instance, policy.build().as_mut(), m, AuditLevel::Strict)
        .map_err(|e| format!("in-memory strict audit: {e}"))?;
    let mut source = StaticSource::new(instance);
    let st =
        simulate_streaming_audited(&mut source, policy.build().as_mut(), m, AuditLevel::Strict)
            .map_err(|e| format!("streaming strict audit: {e}"))?;
    let a = &mem.metrics;
    let b = &st.metrics;
    if a.total_flow.to_bits() != b.total_flow.to_bits()
        || a.makespan.to_bits() != b.makespan.to_bits()
        || a.num_jobs != b.num_jobs
    {
        return Err(format!(
            "cross-path divergence: in-memory (flow {}, makespan {}, n {}) \
             vs streaming (flow {}, makespan {}, n {})",
            a.total_flow, a.makespan, a.num_jobs, b.total_flow, b.makespan, b.num_jobs
        ));
    }
    Ok(())
}

/// Runs the search to completion. See the module docs for the loop
/// structure and the determinism contract.
pub fn run_search(cfg: &SearchConfig) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pool = Pool::new(cfg.jobs);
    let population = cfg.population.max(2);
    let mut elites: Vec<Evaluated> = Vec::new();
    let mut trajectory = Vec::new();
    let mut failures = Vec::new();
    let mut fuzzed: BTreeSet<String> = BTreeSet::new();
    let mut evals = 0usize;

    let mut generation: Vec<InstanceGenome> = seed_genomes(cfg);
    generation.truncate(population);
    while generation.len() < population {
        generation.push(InstanceGenome::random(&mut rng, cfg.bounds));
    }

    while evals < cfg.budget {
        if evals + generation.len() > cfg.budget {
            generation.truncate(cfg.budget - evals);
            if generation.is_empty() {
                break;
            }
        }
        evals += generation.len();
        let (policy, m) = (cfg.policy, cfg.m);
        let scored: Vec<Option<Evaluated>> = pool.map_with(
            EngineBuffers::new,
            std::mem::take(&mut generation),
            move |bufs, genome| evaluate(bufs, genome, policy, m),
        );
        let mut scored: Vec<Evaluated> = scored.into_iter().flatten().collect();
        sort_by_ratio(&mut scored);

        // Strict dual-path fuzz pass over this generation's best — the
        // instances most likely to stress the engine. Dedup by
        // provenance so repeated elites are checked once.
        for e in scored.iter().take(cfg.fuzz_top) {
            let prov = e.genome.provenance();
            if !fuzzed.insert(prov.clone()) {
                continue;
            }
            let Ok(instance) = e.genome.materialize(cfg.m) else {
                continue;
            };
            if let Err(error) = strict_dual_path_check(&instance, cfg.policy, cfg.m) {
                let jobs = shrink_jobs(instance.jobs().to_vec(), &|jobs| {
                    Instance::new(jobs.to_vec())
                        .ok()
                        .is_some_and(|i| strict_dual_path_check(&i, cfg.policy, cfg.m).is_err())
                });
                failures.push(FuzzFailure {
                    provenance: prov,
                    jobs,
                    error,
                });
            }
        }

        // Merge into the elite pool (dedup by provenance, keep best).
        elites.extend(scored);
        dedup_by_provenance(&mut elites);
        sort_by_ratio(&mut elites);
        elites.truncate(cfg.elites);
        trajectory.push(elites.first().map_or(0.0, |e| e.ratio));

        // Breed: elites survive implicitly; children are single-axis
        // mutants of the elites (round-robin) plus fresh randoms.
        let mut next = Vec::with_capacity(population);
        let n_fresh = population / 4;
        for i in 0..population.saturating_sub(n_fresh) {
            match elites.get(i % elites.len().max(1)) {
                Some(parent) => next.push(parent.genome.mutate(&mut rng, cfg.bounds)),
                None => next.push(InstanceGenome::random(&mut rng, cfg.bounds)),
            }
        }
        while next.len() < population {
            next.push(InstanceGenome::random(&mut rng, cfg.bounds));
        }
        generation = next;
    }

    SearchOutcome {
        elites,
        trajectory,
        evals,
        failures,
    }
}

/// Descending by ratio; ties broken by provenance so the order is total
/// and deterministic.
fn sort_by_ratio(items: &mut [Evaluated]) {
    items.sort_by(|a, b| {
        b.ratio
            .total_cmp(&a.ratio)
            .then_with(|| a.genome.provenance().cmp(&b.genome.provenance()))
    });
}

/// Keeps the first (i.e. best, after sorting) entry per provenance.
fn dedup_by_provenance(items: &mut Vec<Evaluated>) {
    let mut seen = BTreeSet::new();
    items.retain(|e| seen.insert(e.genome.provenance()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_finds_nontrivial_ratios_fast() {
        let cfg = SearchConfig::new(PolicyKind::Equi, 7, 32);
        let out = run_search(&cfg);
        assert_eq!(out.evals, 32);
        assert!(!out.elites.is_empty());
        assert!(
            out.elites[0].ratio > 1.0,
            "EQUI should beat the trivial 1.0 baseline immediately: {}",
            out.elites[0].ratio
        );
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }

    #[test]
    fn trajectory_is_monotone_and_matches_elites() {
        let cfg = SearchConfig::new(PolicyKind::IntermediateSrpt, 3, 48);
        let out = run_search(&cfg);
        for w in out.trajectory.windows(2) {
            assert!(w[1] >= w[0], "best-so-far must not regress: {w:?}");
        }
        assert_eq!(*out.trajectory.last().unwrap(), out.elites[0].ratio);
    }

    #[test]
    fn budget_is_respected_exactly() {
        let cfg = SearchConfig::new(PolicyKind::Equi, 1, 37);
        assert_eq!(run_search(&cfg).evals, 37);
    }

    #[test]
    fn same_seed_same_outcome() {
        let cfg = SearchConfig::new(PolicyKind::Greedy, 42, 40);
        let a = run_search(&cfg);
        let b = run_search(&cfg);
        assert_eq!(a.trajectory.len(), b.trajectory.len());
        for (x, y) in a.trajectory.iter().zip(&b.trajectory) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.elites.len(), b.elites.len());
        for (x, y) in a.elites.iter().zip(&b.elites) {
            assert_eq!(x.genome, y.genome);
            assert_eq!(x.ratio.to_bits(), y.ratio.to_bits());
        }
    }

    #[test]
    fn strict_dual_path_check_passes_on_a_healthy_engine() {
        let g = InstanceGenome {
            n: 10,
            seed: 2,
            sizes: parsched_workloads::random::SizeDist::LogUniform { p: 8.0 },
            alphas: parsched_workloads::random::AlphaDist::Fixed(0.5),
            release: ReleasePattern::Trickle { spacing: 0.5 },
        };
        let inst = g.materialize(4.0).unwrap();
        strict_dual_path_check(&inst, PolicyKind::IntermediateSrpt, 4.0).unwrap();
    }
}
