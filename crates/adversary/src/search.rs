//! The seeded evolutionary hard-instance search.
//!
//! A (μ + λ) elite-selection loop over [`InstanceGenome`]s: each
//! generation evaluates a population of candidates **in parallel** on the
//! deterministic [`Pool`] (per-worker engine buffers and policy value,
//! results committed in input order), scores each by measured flow time
//! divided by the best provable OPT lower bound for the target policy,
//! and breeds the next generation from the elites by single-axis
//! mutation.
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
//! What a worker keeps between evaluations, and the fuzz pass between
//! its strict runs, is caches that never change a result: the engine's
//! [`EngineBuffers`] (cleared by every run, the auditor restarted) and
//! one policy value (reset by every run; what survives a reset, such as
//! SETF's equalizer memo, is a pure function of its key). The outcome
//! digests in `tests/adversary_search_digest.rs` were recorded on a
//! search that rebuilt all of it per run.
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
use parsched_analysis::Pool;
use parsched_opt::{best_lower_bound, LbKind};
use parsched_sim::{
    AuditLevel, Engine, EngineBuffers, EngineConfig, Instance, JobSpec, NullObserver, Policy,
    RunMetrics, SimError, StaticSource,
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

/// A candidate under selection: its evaluation and its genome's
/// provenance, formatted once for every sort, dedup and fuzz lookup.
struct Scored {
    eval: Evaluated,
    provenance: String,
}

/// One engine's buffers and one policy value, kept across runs. Every run
/// clears the buffers and resets the policy (see the module docs).
struct Runner {
    bufs: EngineBuffers,
    policy: Box<dyn Policy>,
}

impl Runner {
    fn new(policy: PolicyKind) -> Self {
        Runner {
            bufs: EngineBuffers::new(),
            policy: policy.build(),
        }
    }

    /// Runs `instance` under `cfg` and returns its aggregate metrics. On
    /// error the buffers died with the engine, and the next run starts
    /// from fresh ones.
    fn run(&mut self, instance: &Instance, cfg: EngineConfig) -> Result<RunMetrics, SimError> {
        let mut source = StaticSource::new(instance);
        let mut obs = NullObserver;
        let bufs = std::mem::take(&mut self.bufs);
        let engine = Engine::with_buffers(cfg, self.policy.as_mut(), &mut source, &mut obs, bufs);
        let (metrics, bufs) = engine.run_metrics_reusing()?;
        self.bufs = bufs;
        Ok(metrics)
    }

    /// Evaluates one genome: materialize, simulate (audit off — elites
    /// get the strict treatment separately), score against the best LB.
    ///
    /// A pure function of `(genome, policy, m)`, so the pool's ordering
    /// guarantee makes the search jobs-invariant. Returns `None` when the
    /// genome fails to materialize or simulate; the selection loop just
    /// skips it.
    fn evaluate(&mut self, genome: InstanceGenome, m: f64) -> Option<Scored> {
        let instance = genome.materialize(m).ok()?;
        let flow = self.run(&instance, EngineConfig::new(m)).ok()?.total_flow;
        let (lb, lb_kind) = best_lower_bound(&instance, m);
        // Reject non-finite or non-positive denominators (NaN included: a
        // NaN lb fails `is_finite` before the sign check can miss it).
        if !lb.is_finite() || lb <= 0.0 || !flow.is_finite() {
            return None;
        }
        Some(Scored {
            provenance: genome.provenance(),
            eval: Evaluated {
                genome,
                flow,
                lb,
                lb_kind,
                ratio: flow / lb,
            },
        })
    }

    /// [`strict_dual_path_check`] on this runner's buffers and policy.
    fn strict_dual_path(&mut self, instance: &Instance, m: f64) -> Result<(), String> {
        let strict = EngineConfig::new(m).with_audit(AuditLevel::Strict);
        let a = self
            .run(instance, strict)
            .map_err(|e| format!("in-memory strict audit: {e}"))?;
        let streaming = strict.with_streaming(true).with_max_events(u64::MAX);
        let b = self
            .run(instance, streaming)
            .map_err(|e| format!("streaming strict audit: {e}"))?;
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
    Runner::new(policy).strict_dual_path(instance, m)
}

/// Runs the search to completion. See the module docs for the loop
/// structure and the determinism contract.
pub fn run_search(cfg: &SearchConfig) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pool = Pool::new(cfg.jobs);
    let population = cfg.population.max(2);
    let mut fuzzer = Runner::new(cfg.policy);
    let mut elites: Vec<Scored> = Vec::new();
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
        let scored: Vec<Option<Scored>> = pool.map_with(
            move || Runner::new(policy),
            std::mem::take(&mut generation),
            move |runner, genome| runner.evaluate(genome, m),
        );
        let mut scored: Vec<Scored> = scored.into_iter().flatten().collect();
        sort_by_ratio(&mut scored);

        // Strict dual-path fuzz pass over this generation's best — the
        // instances most likely to stress the engine. Dedup by
        // provenance so repeated elites are checked once.
        for c in scored.iter().take(cfg.fuzz_top) {
            if !fuzzed.insert(c.provenance.clone()) {
                continue;
            }
            let Ok(instance) = c.eval.genome.materialize(cfg.m) else {
                continue;
            };
            if let Err(error) = fuzzer.strict_dual_path(&instance, cfg.m) {
                let jobs = shrink_jobs(instance.jobs().to_vec(), &|jobs| {
                    Instance::new(jobs.to_vec())
                        .ok()
                        .is_some_and(|i| strict_dual_path_check(&i, cfg.policy, cfg.m).is_err())
                });
                failures.push(FuzzFailure {
                    provenance: c.provenance.clone(),
                    jobs,
                    error,
                });
            }
        }

        // Merge into the elite pool (dedup by provenance, keep best).
        elites.extend(scored);
        sort_by_ratio(&mut elites);
        // Equal provenances are equal genomes, hence equal evaluations,
        // and so adjacent once sorted.
        elites.dedup_by(|a, b| a.provenance == b.provenance);
        elites.truncate(cfg.elites);
        trajectory.push(elites.first().map_or(0.0, |e| e.eval.ratio));

        // Breed: elites survive implicitly; children are single-axis
        // mutants of the elites (round-robin) plus fresh randoms.
        let mut next = Vec::with_capacity(population);
        let n_fresh = population / 4;
        for i in 0..population.saturating_sub(n_fresh) {
            match elites.get(i % elites.len().max(1)) {
                Some(parent) => next.push(parent.eval.genome.mutate(&mut rng, cfg.bounds)),
                None => next.push(InstanceGenome::random(&mut rng, cfg.bounds)),
            }
        }
        while next.len() < population {
            next.push(InstanceGenome::random(&mut rng, cfg.bounds));
        }
        generation = next;
    }

    SearchOutcome {
        elites: elites.into_iter().map(|c| c.eval).collect(),
        trajectory,
        evals,
        failures,
    }
}

/// Descending by ratio; ties broken by provenance so the order is total
/// and deterministic.
fn sort_by_ratio(items: &mut [Scored]) {
    items.sort_by(|a, b| {
        b.eval
            .ratio
            .total_cmp(&a.eval.ratio)
            .then_with(|| a.provenance.cmp(&b.provenance))
    });
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
