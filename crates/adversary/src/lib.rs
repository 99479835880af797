//! Adversarial instance mining for the SPAA'14 scheduling model.
//!
//! Theorem 2 of the source paper hand-constructs *one* adversarial
//! instance family to lower-bound the competitive ratio of deterministic
//! online policies. This crate treats that construction as a single
//! point in instance space and **searches** the rest of it: a seeded,
//! fully deterministic evolutionary loop over instance genomes
//! ([`InstanceGenome`]: job count, size distribution, α mix, release
//! pattern) whose fitness is measured flow time divided by the best
//! provable OPT lower bound ([`parsched_opt::best_lower_bound`]) for a
//! chosen policy.
//!
//! Three outputs, one loop:
//!
//! * **Hard instances** — the elite pool, each an empirical
//!   competitive-ratio witness (exact where the heSRPT closed form is
//!   the denominator). Committed under `tests/corpus/adversary/` and
//!   replayed by `tests/adversary_corpus.rs` so ratios never silently
//!   regress.
//! * **Fuzzing** — every generation's best candidates re-run under
//!   [`parsched_sim::AuditLevel::Strict`] on both engine paths
//!   (in-memory incremental + streaming) with bit-exact cross-path
//!   comparison; the search optimizes *towards* numerically nasty
//!   schedules, which is exactly where engine bugs live.
//! * **Reproducers** — any failure is minimized by a domain-aware
//!   shrinker ([`shrink_jobs`]) before being reported, proptest-style.
//!
//! Entry points: [`run_search`] (library), `parsched adversary` (CLI),
//! [`summary_table`] (the `t5`-style per-policy worst-ratio table).
//!
//! # Determinism
//!
//! Candidate generation and selection happen serially from one
//! [`rand::rngs::StdRng`]; evaluation fans out on the deterministic
//! [`parsched_analysis::Pool`] with per-worker
//! [`parsched_sim::EngineBuffers`] and policy values, caches that never
//! change a result. Results are committed in input order, so the entire
//! outcome — elites, trajectory, corpus bytes — is invariant under
//! `--jobs N`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod corpus;
mod genome;
mod search;
mod shrink;

pub use corpus::{CorpusEntry, KIND_HARD, KIND_REPRODUCER, SCHEMA};
pub use genome::{GenomeBounds, InstanceGenome, ReleasePattern};
pub use search::{
    run_search, strict_dual_path_check, Evaluated, FuzzFailure, SearchConfig, SearchOutcome,
};
pub use shrink::shrink_jobs;

use parsched_analysis::Table;

/// The `t5`-style summary: one row per searched policy, reporting the
/// worst (largest) flow/LB ratio found, which bound certified it, and
/// the instance shape that achieved it.
///
/// `results` pairs each policy's CLI token with its search outcome;
/// rows render in input order.
pub fn summary_table(results: &[(String, SearchOutcome)]) -> Table {
    let mut t = Table::new(
        "t5: adversary search — worst flow/LB ratio per policy",
        &[
            "policy",
            "worst ratio",
            "lb",
            "n",
            "release",
            "evals",
            "failures",
        ],
    );
    for (policy, out) in results {
        match out.elites.first() {
            Some(best) => t.push_row(vec![
                policy.clone(),
                format!("{:.4}", best.ratio),
                best.lb_kind.name().to_string(),
                best.genome.n.to_string(),
                release_label(&best.genome.release),
                out.evals.to_string(),
                out.failures.len().to_string(),
            ]),
            None => t.push_row(vec![
                policy.clone(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                out.evals.to_string(),
                out.failures.len().to_string(),
            ]),
        }
    }
    t
}

/// Short label for a release pattern, for table cells.
fn release_label(r: &ReleasePattern) -> String {
    match r {
        ReleasePattern::Batch => "batch".to_string(),
        ReleasePattern::Poisson { load } => format!("poisson(ρ={load:.2})"),
        ReleasePattern::Bursts { waves, gap } => format!("bursts({waves}×{gap:.2})"),
        ReleasePattern::Trickle { spacing } => format!("trickle({spacing:.2})"),
        ReleasePattern::Ramp { horizon } => format!("ramp({horizon:.2})"),
        ReleasePattern::Phases { split, spacing } => {
            format!("phases({split:.2}|{spacing:.2})")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched::PolicyKind;

    #[test]
    fn summary_table_renders_one_row_per_policy() {
        let cfg = SearchConfig::new(PolicyKind::Equi, 5, 20);
        let out = run_search(&cfg);
        let t = summary_table(&[("equi".to_string(), out)]);
        let text = t.render();
        assert!(text.contains("equi"), "{text}");
        assert!(text.contains("t5"), "{text}");
    }
}
