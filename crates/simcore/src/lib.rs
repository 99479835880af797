//! Continuous-time, event-driven simulator for malleable tasks with
//! speed-up curves.
//!
//! This crate is the machine-model substrate for the SPAA'14 reproduction:
//! `m` identical unit-speed processors that can be **fractionally divided**
//! among jobs, where a job allocated `x` processors drains work at rate
//! `Γ_j(x)` given by its speed-up curve ([`parsched_speedup::Curve`]).
//!
//! # Architecture
//!
//! * [`Instance`] / [`JobSpec`] — a static description of a workload.
//! * [`Policy`] — an online scheduler: at each decision point it maps the
//!   set of alive jobs to a processor allocation (and may request an early
//!   re-decision via a *quantum*, used by policies whose allocation drifts
//!   between discrete events, like the paper's §3 greedy hybrid).
//! * [`ArrivalSource`] — where jobs come from. [`StaticSource`] replays an
//!   [`Instance`]; adaptive adversaries (the paper's Theorem 2 construction)
//!   implement this trait and may inspect the live system state through
//!   [`SystemView`], a handle that walks the alive set only when read.
//! * [`Engine`] — the event loop. Between events every allocation is
//!   constant, so each job's remaining work is a linear function of time and
//!   the engine computes the next completion **analytically**; for all the
//!   SRPT-family policies in `parsched` the simulation is therefore exact
//!   (up to `f64`), not time-stepped.
//! * [`Observer`] — trace hooks (per event) used by the potential-function
//!   instrumentation and the lemma checkers in `parsched-analysis`.
//! * [`AllocationPlan`] / [`PlannedPolicy`] — replay a hand-constructed
//!   schedule (the paper's "standard" and "alternative" OPT schedules).
//!
//! # Example
//!
//! ```
//! use parsched_sim::{simulate, Instance, JobSpec, JobId, EquiSplit};
//! use parsched_speedup::Curve;
//!
//! // Two jobs of intermediate parallelizability on 4 processors.
//! let inst = Instance::new(vec![
//!     JobSpec::new(JobId(0), 0.0, 4.0, Curve::power(0.5)),
//!     JobSpec::new(JobId(1), 0.0, 4.0, Curve::power(0.5)),
//! ]).unwrap();
//! let outcome = simulate(&inst, &mut EquiSplit::new(), 4.0).unwrap();
//! // Each job gets 2 processors → rate √2 → finishes at 4/√2 ≈ 2.83.
//! assert!((outcome.metrics.total_flow - 2.0 * 4.0 / 2f64.sqrt()).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod alive_list;
mod alive_set;
mod arena;
mod arrival_suffix;
pub mod csv;
mod drained;
mod engine;
mod error;
#[cfg(feature = "hotpath")]
pub mod hotpath;
pub mod invariant;
mod job;
pub mod jsonlite;
mod kahan;
mod level_stack;
mod metrics;
mod observer;
mod plan;
mod policy;
pub mod quantized;
mod snapshot;
mod source;
mod srpt_set;
mod streaming;
pub mod trace;

pub use engine::{
    simulate, simulate_audited, simulate_streaming, simulate_streaming_audited,
    simulate_with_observer, AliveSnapshot, Engine, EngineBuffers, EngineConfig, ParkedEngine,
};
pub use error::SimError;
pub use invariant::{AuditLevel, AuditReport, Auditor, EnginePath, Violation};
pub use job::{class_index, num_classes, Instance, JobId, JobSpec, Time, Work};
pub use kahan::NeumaierSum;
pub use metrics::{CompletedJob, RunMetrics, RunOutcome};
pub use observer::{
    AliveTrace, Allocation, AllocationSegment, AllocationTrace, NullObserver, Observer, TracePoint,
};
pub use plan::{AllocationPlan, PlanSegment, PlannedPolicy};
pub use policy::{
    AliveJob, AllocationStability, CurveCount, EquiSplit, Policy, PrefixAllocation, ELAPSED_TIE_TOL,
};
pub use snapshot::{Snapshot, SNAP_FORMAT};
pub use source::{arrival_tolerance, ArrivalSource, StaticSource, SystemView};
pub use streaming::{QuantileSketch, StreamingMetrics, StreamingOutcome};
pub use trace::{record_run, replay, ReplayOutcome, Trace, TraceEvent, TraceRecorder};
