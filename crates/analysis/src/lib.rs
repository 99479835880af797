//! Analysis instrumentation for the SPAA'14 reproduction.
//!
//! Where `parsched-opt` brackets *what* the optimum costs, this crate
//! validates *how* the paper proves Intermediate-SRPT competitive:
//!
//! * [`potential`] — evaluates the paper's potential function
//!   `Φ(t) = 16 Σ_{i∈A(t)} z_i(t) / Γ_i(m / rank(i,t))` in **lockstep**
//!   over two simulations (the algorithm and a feasible reference
//!   schedule) and checks the Boundary, Discontinuous-Changes, and
//!   per-regime Continuous-Changes conditions of §2.1–§2.5 numerically on
//!   real traces.
//! * [`lemmas`] — pointwise checkers for Lemma 1 (local competitiveness),
//!   Lemma 4 (volume difference per class), and Lemma 5 (job-count
//!   difference), all of which the paper proves against *any* feasible
//!   schedule — so checking against arbitrary reference policies is sound.
//! * [`ratio`] — direction-aware competitive-ratio measurements built on
//!   [`parsched_opt::OptEstimate`] brackets.
//! * [`sweep`] — a deterministic parallel parameter-sweep runner (a
//!   work-stealing pool of persistent helper threads) used by every
//!   experiment, the fleet and the adversary miner.
//! * [`table`] / [`stats`] — experiment reporting: aligned text tables,
//!   markdown, CSV, and summary statistics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod gantt;
pub mod lemmas;
pub mod potential;
pub mod ratio;
pub mod stats;
pub mod sweep;
pub mod table;

pub use lemmas::{LemmaReport, LemmaSample};
pub use potential::{lockstep_report, LockstepReport, PotentialReport};
pub use ratio::RatioMeasurement;
pub use sweep::{
    parallel_map, set_sweep_jobs, simulate_audited_reusing, streaming_sweep, sweep_jobs, Pool,
};
pub use table::Table;
