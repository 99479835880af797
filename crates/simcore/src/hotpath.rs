//! Per-phase hot-path profiler for the event loops (`hotpath` feature).
//!
//! Compiled only under the `hotpath` cargo feature, which alone arms it:
//! every engine built with the feature times every phase, and a build
//! without it compiles each phase to its bare body. The engine buckets
//! every event's wall-clock time into four phases:
//!
//! * **queue** — arrival admission and next-event selection,
//! * **refresh** — allocation/profile refresh (policy dispatch,
//!   rebalance, interval classification),
//! * **metrics** — interval integration of the flow/work accumulators,
//! * **dispatch** — completion collection, sink recording, and policy
//!   callbacks.
//!
//! The totals are diagnostics, not run state: they never feed back into
//! the simulation, are not snapshotted, and are only meaningful relative
//! to each other (the timestamping itself costs tens of ns per event, so
//! headline throughput is always measured without the feature and a
//! profiled pass is a separate build). Wall-clock reads are confined to this module and
//! are exempt from the determinism lint because the measured durations
//! never influence engine arithmetic.

/// Accumulated wall-clock nanoseconds per event-loop phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTotals {
    /// Arrival admission + next-event selection.
    pub queue_ns: u64,
    /// Allocation/profile refresh.
    pub refresh_ns: u64,
    /// Interval metric integration.
    pub metrics_ns: u64,
    /// Completion collection + callbacks.
    pub dispatch_ns: u64,
    /// Events measured (so callers can form per-event averages).
    pub events: u64,
}

impl PhaseTotals {
    /// All-zero totals. The engine resets with this constant rather than
    /// `Default::default()` so the determinism lint's call graph (which
    /// links qualified calls by name) doesn't pick up spurious edges to
    /// every workspace `default`.
    pub const ZERO: Self = Self {
        queue_ns: 0,
        refresh_ns: 0,
        metrics_ns: 0,
        dispatch_ns: 0,
        events: 0,
    };

    /// Whether anything was measured.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Per-event averages `(queue, refresh, metrics, dispatch)` in ns.
    pub fn per_event(&self) -> (f64, f64, f64, f64) {
        let n = (self.events as f64).max(1.0);
        (
            self.queue_ns as f64 / n,
            self.refresh_ns as f64 / n,
            self.metrics_ns as f64 / n,
            self.dispatch_ns as f64 / n,
        )
    }
}

/// An opaque phase-start timestamp.
// lint:allow(L002) profiler-only wall clock; durations are diagnostics and never feed back into simulation arithmetic
pub struct Stamp(std::time::Instant);

/// Takes a phase-start timestamp.
#[inline]
pub fn stamp() -> Stamp {
    // lint:allow(L002) profiler-only wall clock; durations are diagnostics and never feed back into simulation arithmetic
    Stamp(std::time::Instant::now())
}

/// Nanoseconds elapsed since `s` (saturating into `u64`).
#[inline]
pub fn ns_since(s: Stamp) -> u64 {
    u64::try_from(s.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
