//! A value-level registry of the policies, for sweeps and CLIs.

use parsched_sim::Policy;
use serde::{Deserialize, Serialize};

use crate::{
    Equi, GreedyHybrid, IntermediateSrpt, Laps, ParallelSrpt, RandomAllocation, SequentialSrpt,
    WeightedIntermediateSrpt,
};

/// Re-roll quantum for [`PolicyKind::Random`] references (the fuzzing
/// policy re-decides at least this often; see [`RandomAllocation::new`]).
const RANDOM_QUANTUM: f64 = 0.5;

/// A nameable, serializable policy descriptor that can build the
/// corresponding [`Policy`] value.
///
/// Experiments sweep over `PolicyKind`s (cheap to copy across threads,
/// stable names for tables) and call [`PolicyKind::build`] per run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// [`IntermediateSrpt`] — the paper's algorithm.
    IntermediateSrpt,
    /// [`ParallelSrpt`].
    ParallelSrpt,
    /// [`SequentialSrpt`].
    SequentialSrpt,
    /// [`GreedyHybrid`] with its default resolution.
    Greedy,
    /// [`Equi`].
    Equi,
    /// [`Laps`] with the given β.
    Laps(f64),
    /// [`crate::ThresholdSrpt`] with the given θ (ablation of
    /// Intermediate-SRPT's regime boundary; θ = 1 reproduces it exactly).
    Threshold(f64),
    /// [`crate::Setf`] — shortest elapsed time first.
    Setf,
    /// [`WeightedIntermediateSrpt`] — the weighted-flow extension.
    Weighted,
    /// [`RandomAllocation`] with the given seed — the seeded feasible
    /// fuzzing reference.
    Random(u64),
}

impl PolicyKind {
    /// All standard policies compared in the cross-policy experiments.
    ///
    /// Deliberately *narrower* than [`PolicyKind::all_registered`]: the
    /// experiment tables reproduce the paper's comparisons, which the
    /// weighted extension and the fuzzing reference are not part of.
    pub fn all_standard() -> Vec<PolicyKind> {
        vec![
            PolicyKind::IntermediateSrpt,
            PolicyKind::ParallelSrpt,
            PolicyKind::SequentialSrpt,
            PolicyKind::Greedy,
            PolicyKind::Equi,
            PolicyKind::Laps(0.5),
            PolicyKind::Setf,
        ]
    }

    /// One representative of *every* registered policy, for suites that
    /// must cover the whole catalog (differential oracles, invariant
    /// audits, metadata checks) rather than reproduce the paper's tables.
    pub fn all_registered() -> Vec<PolicyKind> {
        let mut kinds = Self::all_standard();
        kinds.push(PolicyKind::Threshold(2.0));
        kinds.push(PolicyKind::Weighted);
        kinds.push(PolicyKind::Random(7));
        kinds
    }

    /// Builds a boxed policy instance (`Send`, so a fleet tenant can own
    /// it while shards pass the tenant between threads).
    pub fn build(&self) -> Box<dyn Policy + Send> {
        match *self {
            PolicyKind::IntermediateSrpt => Box::new(IntermediateSrpt::new()),
            PolicyKind::ParallelSrpt => Box::new(ParallelSrpt::new()),
            PolicyKind::SequentialSrpt => Box::new(SequentialSrpt::new()),
            PolicyKind::Greedy => Box::new(GreedyHybrid::new()),
            PolicyKind::Equi => Box::new(Equi::new()),
            PolicyKind::Laps(beta) => Box::new(Laps::new(beta)),
            PolicyKind::Threshold(theta) => Box::new(crate::ThresholdSrpt::new(theta)),
            PolicyKind::Setf => Box::new(crate::Setf::new()),
            PolicyKind::Weighted => Box::new(WeightedIntermediateSrpt::new()),
            PolicyKind::Random(seed) => Box::new(RandomAllocation::new(seed, RANDOM_QUANTUM)),
        }
    }

    /// The policy's display name (matches `Policy::name` of the built
    /// value).
    pub fn name(&self) -> String {
        self.build().name()
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    /// Parses a CLI-friendly name: `isrpt`, `psrpt`, `ssrpt`, `greedy`,
    /// `equi`, `laps` or `laps:<beta>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "isrpt" | "intermediate-srpt" | "intermediate" => Ok(PolicyKind::IntermediateSrpt),
            "psrpt" | "parallel-srpt" | "parallel" => Ok(PolicyKind::ParallelSrpt),
            "ssrpt" | "sequential-srpt" | "sequential" => Ok(PolicyKind::SequentialSrpt),
            "greedy" => Ok(PolicyKind::Greedy),
            "equi" => Ok(PolicyKind::Equi),
            "laps" => Ok(PolicyKind::Laps(0.5)),
            "setf" => Ok(PolicyKind::Setf),
            "weighted" | "wisrpt" => Ok(PolicyKind::Weighted),
            _ => {
                if let Some(beta) = lower.strip_prefix("laps:") {
                    let beta: f64 = beta.parse().map_err(|e| format!("bad LAPS β: {e}"))?;
                    if beta > 0.0 && beta <= 1.0 {
                        Ok(PolicyKind::Laps(beta))
                    } else {
                        Err(format!("LAPS β must lie in (0, 1], got {beta}"))
                    }
                } else if let Some(seed) = lower.strip_prefix("random:") {
                    let seed: u64 = seed.parse().map_err(|e| format!("bad random seed: {e}"))?;
                    Ok(PolicyKind::Random(seed))
                } else if let Some(theta) = lower.strip_prefix("threshold:") {
                    let theta: f64 = theta.parse().map_err(|e| format!("bad threshold θ: {e}"))?;
                    if theta > 0.0 && theta.is_finite() {
                        Ok(PolicyKind::Threshold(theta))
                    } else {
                        Err(format!("threshold θ must be positive, got {theta}"))
                    }
                } else {
                    Err(format!(
                        "unknown policy '{s}' (expected isrpt|psrpt|ssrpt|greedy|equi|laps[:beta]|threshold:<θ>|setf|weighted|random:<seed>)"
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_all_standard_policies() {
        for kind in PolicyKind::all_standard() {
            let p = kind.build();
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn all_registered_extends_all_standard() {
        let registered = PolicyKind::all_registered();
        for kind in PolicyKind::all_standard() {
            assert!(registered.contains(&kind), "{kind:?} missing");
        }
        assert!(registered.contains(&PolicyKind::Weighted));
        assert!(registered.contains(&PolicyKind::Random(7)));
        for kind in registered {
            assert!(!kind.build().name().is_empty());
        }
    }

    #[test]
    fn parses_cli_names() {
        assert_eq!(
            "isrpt".parse::<PolicyKind>().unwrap(),
            PolicyKind::IntermediateSrpt
        );
        assert_eq!("GREEDY".parse::<PolicyKind>().unwrap(), PolicyKind::Greedy);
        assert_eq!(
            "laps:0.25".parse::<PolicyKind>().unwrap(),
            PolicyKind::Laps(0.25)
        );
        assert!("laps:2.0".parse::<PolicyKind>().is_err());
        assert_eq!(
            "threshold:2.0".parse::<PolicyKind>().unwrap(),
            PolicyKind::Threshold(2.0)
        );
        assert!("threshold:-1".parse::<PolicyKind>().is_err());
        assert_eq!(
            "weighted".parse::<PolicyKind>().unwrap(),
            PolicyKind::Weighted
        );
        assert_eq!(
            "random:42".parse::<PolicyKind>().unwrap(),
            PolicyKind::Random(42)
        );
        assert!("random:x".parse::<PolicyKind>().is_err());
        assert!("nope".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn srpt_ordered_metadata_matches_policy_family() {
        // The SRPT family claims SRPT-ordered allocations (audited by the
        // invariant layer); EQUI and the elapsed-time/latest-arrival
        // policies must not.
        for kind in PolicyKind::all_standard() {
            let p = kind.build();
            let expect = matches!(
                kind,
                PolicyKind::IntermediateSrpt
                    | PolicyKind::ParallelSrpt
                    | PolicyKind::SequentialSrpt
            );
            assert_eq!(p.srpt_ordered(), expect, "{}", p.name());
        }
        assert!(PolicyKind::Threshold(2.0).build().srpt_ordered());
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<String> = PolicyKind::all_standard()
            .iter()
            .map(|k| k.name())
            .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}
