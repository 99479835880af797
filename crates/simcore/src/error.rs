//! Simulation error type.

use std::fmt;

use crate::job::Time;

/// Errors surfaced by the engine or by instance validation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An instance failed validation.
    BadInstance {
        /// Human-readable description of the defect.
        what: String,
    },
    /// A policy requested more processors than exist.
    InfeasibleAllocation {
        /// Time of the offending decision.
        at: Time,
        /// Total processors requested.
        requested: f64,
        /// Processors available.
        available: f64,
        /// Policy name.
        policy: String,
    },
    /// A policy returned a negative or non-finite share.
    InvalidShare {
        /// Time of the offending decision.
        at: Time,
        /// The offending share value.
        share: f64,
        /// Policy name.
        policy: String,
    },
    /// Jobs remain but nothing can make progress and no arrivals are pending.
    Stalled {
        /// Time at which the simulation stalled.
        at: Time,
        /// Number of starved jobs.
        alive: usize,
    },
    /// The configured event budget was exhausted (runaway quantum loop).
    EventLimit {
        /// The budget that was exhausted.
        limit: u64,
    },
    /// An arrival source emitted a job releasing in the past.
    ArrivalInPast {
        /// Current simulation time.
        now: Time,
        /// The stale release time.
        release: Time,
    },
    /// A runtime invariant audit detected a conservation-law violation.
    AuditFailed {
        /// The structured violation (invariant name, event, time, job,
        /// expected vs. actual, policy, path).
        violation: Box<crate::invariant::Violation>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadInstance { what } => write!(f, "invalid instance: {what}"),
            SimError::InfeasibleAllocation {
                at,
                requested,
                available,
                policy,
            } => write!(
                f,
                "policy {policy} requested {requested} of {available} processors at t={at}"
            ),
            SimError::InvalidShare { at, share, policy } => {
                write!(
                    f,
                    "policy {policy} returned invalid share {share} at t={at}"
                )
            }
            SimError::Stalled { at, alive } => {
                write!(f, "simulation stalled at t={at} with {alive} starved jobs")
            }
            SimError::EventLimit { limit } => write!(f, "event budget of {limit} exhausted"),
            SimError::ArrivalInPast { now, release } => {
                write!(f, "source emitted release {release} in the past of t={now}")
            }
            SimError::AuditFailed { violation } => write!(f, "audit failed: {violation}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_numbers() {
        let e = SimError::InfeasibleAllocation {
            at: 3.0,
            requested: 5.0,
            available: 4.0,
            policy: "test".into(),
        };
        let s = e.to_string();
        assert!(s.contains('5') && s.contains('4') && s.contains("test"));
        assert!(SimError::EventLimit { limit: 10 }
            .to_string()
            .contains("10"));
    }
}
