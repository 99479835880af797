//! Constant-size metric accumulation for the streaming engine path.
//!
//! The in-memory engine keeps every [`crate::CompletedJob`] and derives the
//! aggregate [`RunMetrics`] at the end of the run — `O(total jobs)` memory.
//! The streaming path replaces that accumulator with [`StreamingMetrics`]:
//! a fixed-size sink that folds each completion into the scalar aggregates
//! *at the moment it happens*, in completion order, using the exact same
//! floating-point operations the in-memory finalizer would perform. Both
//! engine modes route completions through this sink, so every scalar in
//! [`RunMetrics`] is **bit-identical** between a streaming run and an
//! in-memory run of the same workload (see `docs/TESTING.md` on the
//! four-way differential oracle).
//!
//! Flow-time *distributions* cannot be kept exactly in constant space, so
//! the sink also maintains a [`QuantileSketch`]: a log-bucketed histogram
//! with a deterministic, a-priori relative error bound (§ sketch docs).

use crate::invariant::AuditReport;
use crate::job::{Time, Work};
use crate::kahan::NeumaierSum;
use crate::metrics::RunMetrics;

/// Number of histogram buckets per octave (factor-of-2 range) — buckets are
/// geometric with ratio `2^(1/8)`.
const BUCKETS_PER_OCTAVE: f64 = 8.0;
/// Bucket index offset: bucket 512 starts at 1.0, covering `2^-64 ..
/// 2^64` overall (flow times far outside that range clamp to the ends).
const BUCKET_OFFSET: i64 = 512;
/// Total bucket count: 8 KiB of `u64` counters, independent of `n`.
const NUM_BUCKETS: usize = 1024;

/// `y.floor() as i64` in integer arithmetic: truncate toward zero, then
/// step down when that rounded a negative fraction up. Exact for every
/// finite `|y| < 2^63`; [`QuantileSketch::bucket_of`] passes
/// `8·log2(x)`, so `|y| ≤ 8592`. On a baseline x86-64 target (no SSE4.1
/// `roundsd`) `f64::floor` is a software routine, called once per
/// completion.
#[inline]
fn floor_i64(y: f64) -> i64 {
    let t = y as i64;
    t - i64::from((t as f64) > y)
}

/// A fixed-size quantile sketch over positive values (flow times).
///
/// Values land in geometric buckets `[2^(k/8), 2^((k+1)/8))`; a quantile
/// query returns the geometric midpoint of the bucket holding the target
/// rank, clamped to the exact observed `[min, max]`. The midpoint is within
/// a factor `2^(1/16)` of every value in its bucket, so the **relative
/// error of any quantile is at most `2^(1/16) − 1 ≈ 4.4%`** — deterministic
/// and independent of `n`, unlike sampling sketches. Memory is a flat
/// `1024 × u64` array (8 KiB) covering `2^-64 .. 2^64`; non-positive values
/// (a flow can be exactly 0 when a job completes within snap tolerance of
/// its release) count in the lowest bucket and are represented by `min`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    counts: Vec<u64>,
    total: u64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Clears all recorded values in place, retaining the bucket array.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    fn bucket_of(x: f64) -> usize {
        if x > 0.0 && x.is_finite() {
            let k = floor_i64(x.log2() * BUCKETS_PER_OCTAVE) + BUCKET_OFFSET;
            k.clamp(0, NUM_BUCKETS as i64 - 1) as usize
        } else {
            0
        }
    }

    /// Records one value.
    pub fn record(&mut self, x: f64) {
        self.counts[Self::bucket_of(x)] += 1;
        self.total += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value (`NaN` when empty).
    pub fn min(&self) -> f64 {
        if self.is_empty() {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest recorded value (`NaN` when empty).
    pub fn max(&self) -> f64 {
        if self.is_empty() {
            f64::NAN
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`), or `NaN` when empty.
    ///
    /// Returns the geometric midpoint of the bucket containing the rank
    /// `⌈q·n⌉` value, clamped to the observed `[min, max]` — so `q = 0`
    /// yields exactly `min` and `q = 1` exactly `max`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.is_empty() {
            return f64::NAN;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        // The extreme ranks are tracked exactly; everything between them
        // carries the bucket-midpoint error bound.
        if rank == 1 {
            return self.min;
        }
        if rank == self.total {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let mid =
                    ((i as i64 - BUCKET_OFFSET) as f64 / BUCKETS_PER_OCTAVE + 1.0 / 16.0).exp2();
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// The streaming replacement for the `Vec<CompletedJob>` accumulator.
///
/// One `record` call per completion, in completion order; all state is
/// constant-size. The scalar aggregates mirror the in-memory finalizer's
/// arithmetic term-for-term (totals via [`NeumaierSum`], extrema via
/// `f64::max`), which is what makes the two paths bit-identical.
#[derive(Debug, Clone, Default)]
pub struct StreamingMetrics {
    count: u64,
    total_flow: NeumaierSum,
    max_flow: f64,
    total_stretch: NeumaierSum,
    max_stretch: f64,
    total_weighted_flow: NeumaierSum,
    makespan: Time,
    sketch: QuantileSketch,
}

impl StreamingMetrics {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all aggregates in place, retaining the sketch's bucket array
    /// (part of the engine's buffer-reuse contract; see
    /// [`crate::EngineBuffers`]).
    pub fn reset(&mut self) {
        self.count = 0;
        self.total_flow = NeumaierSum::new();
        self.max_flow = 0.0;
        self.total_stretch = NeumaierSum::new();
        self.max_stretch = 0.0;
        self.total_weighted_flow = NeumaierSum::new();
        self.makespan = 0.0;
        self.sketch.reset();
    }

    /// Folds one completion into the aggregates. Must be called in
    /// completion order (the engine's event order).
    pub fn record(&mut self, release: Time, size: Work, completion: Time, weight: f64) {
        let flow = completion - release;
        self.count += 1;
        self.total_flow.add(flow);
        self.max_flow = self.max_flow.max(flow);
        self.total_stretch.add(flow / size);
        self.max_stretch = self.max_stretch.max(flow / size);
        self.total_weighted_flow.add(weight * flow);
        self.makespan = self.makespan.max(completion);
        self.sketch.record(flow);
    }

    /// Number of recorded completions.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total flow time so far.
    pub fn total_flow(&self) -> f64 {
        self.total_flow.value()
    }

    /// Largest individual flow time so far.
    pub fn max_flow(&self) -> f64 {
        self.max_flow
    }

    /// Time of the latest completion so far.
    pub fn makespan(&self) -> Time {
        self.makespan
    }

    /// The flow-time distribution sketch.
    pub fn sketch(&self) -> &QuantileSketch {
        &self.sketch
    }

    /// Captures the full accumulator state for a snapshot. Totals are kept
    /// as raw Neumaier `(sum, compensation)` pairs — collapsing them to
    /// `value()` would drop the low-order bits and break bit-identical
    /// resume.
    pub(crate) fn snapshot_state(&self) -> SinkState {
        let (tf, tfc) = self.total_flow.parts();
        let (ts, tsc) = self.total_stretch.parts();
        let (tw, twc) = self.total_weighted_flow.parts();
        SinkState {
            count: self.count,
            total_flow: (tf, tfc),
            max_flow: self.max_flow,
            total_stretch: (ts, tsc),
            max_stretch: self.max_stretch,
            total_weighted_flow: (tw, twc),
            makespan: self.makespan,
            sketch_counts: self.sketch.counts.clone(),
            sketch_total: self.sketch.total,
            sketch_min: self.sketch.min,
            sketch_max: self.sketch.max,
        }
    }

    /// Restores the accumulator state captured by
    /// [`StreamingMetrics::snapshot_state`]. Returns `false` when the
    /// sketch bucket array has the wrong length (a corrupt document).
    pub(crate) fn restore_state(&mut self, s: &SinkState) -> bool {
        if s.sketch_counts.len() != NUM_BUCKETS {
            return false;
        }
        self.count = s.count;
        self.total_flow = NeumaierSum::from_parts(s.total_flow.0, s.total_flow.1);
        self.max_flow = s.max_flow;
        self.total_stretch = NeumaierSum::from_parts(s.total_stretch.0, s.total_stretch.1);
        self.max_stretch = s.max_stretch;
        self.total_weighted_flow =
            NeumaierSum::from_parts(s.total_weighted_flow.0, s.total_weighted_flow.1);
        self.makespan = s.makespan;
        self.sketch.counts.clear();
        self.sketch.counts.extend_from_slice(&s.sketch_counts);
        self.sketch.total = s.sketch_total;
        self.sketch.min = s.sketch_min;
        self.sketch.max = s.sketch_max;
        true
    }

    /// Assembles the aggregate [`RunMetrics`], identical to what the
    /// in-memory finalizer computes from its completion list.
    pub fn run_metrics(
        &self,
        events: u64,
        fractional_flow: f64,
        alive_integral: f64,
    ) -> RunMetrics {
        let n = self.count as usize;
        let total_flow = self.total_flow.value();
        RunMetrics {
            total_flow,
            mean_flow: if n == 0 { 0.0 } else { total_flow / n as f64 },
            max_flow: self.max_flow,
            fractional_flow,
            makespan: self.makespan,
            num_jobs: n,
            events,
            alive_integral,
            total_stretch: self.total_stretch.value(),
            max_stretch: self.max_stretch,
            total_weighted_flow: self.total_weighted_flow.value(),
        }
    }
}

/// Raw accumulator state of a [`StreamingMetrics`] sink, as captured for a
/// `parsched-snap/v3` document. Every `f64` here is stored/compared by bit
/// pattern (the sketch's empty-state extrema are ±∞).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SinkState {
    pub(crate) count: u64,
    pub(crate) total_flow: (f64, f64),
    pub(crate) max_flow: f64,
    pub(crate) total_stretch: (f64, f64),
    pub(crate) max_stretch: f64,
    pub(crate) total_weighted_flow: (f64, f64),
    pub(crate) makespan: Time,
    pub(crate) sketch_counts: Vec<u64>,
    pub(crate) sketch_total: u64,
    pub(crate) sketch_min: f64,
    pub(crate) sketch_max: f64,
}

/// Everything a streaming run produces. There is deliberately no
/// per-job completion list and no materialized [`crate::Instance`] — the
/// whole point of the path is that nothing here grows with `n`.
#[derive(Debug, Clone)]
pub struct StreamingOutcome {
    /// Aggregates — every scalar bit-identical to the in-memory path's
    /// [`crate::RunOutcome::metrics`] on the same workload.
    pub metrics: RunMetrics,
    /// Flow-time distribution sketch (see [`QuantileSketch`] error bound).
    pub quantiles: QuantileSketch,
    /// High-water mark of the alive set — the quantity that actually
    /// bounds the streaming engine's memory.
    pub peak_alive: usize,
    /// Total jobs admitted from the source over the run.
    pub admitted: usize,
    /// Invariant-audit report when auditing was enabled (see
    /// [`crate::EngineConfig::with_audit`]).
    pub audit: Option<AuditReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `floor_i64` is `f64::floor` on integers, signed zeros, negative and
    /// positive halves, values one ulp off an integer, and the extremes
    /// `bucket_of` can produce.
    #[test]
    fn integer_floor_matches_f64_floor() {
        let mut ys = vec![0.0, -0.0, 8592.0, -8592.0, 8191.999, -8_592.000_000_1];
        for i in -40..=40 {
            let y = f64::from(i);
            ys.extend([y, y + 0.5, y - 0.5, y + 0.25]);
            ys.push(f64::from_bits(y.to_bits() + 1));
            if y != 0.0 {
                ys.push(f64::from_bits(y.to_bits() - 1));
            }
        }
        ys.extend([f64::from_bits(1), -f64::from_bits(1), 1e-300, -1e-300]);
        for y in ys {
            assert_eq!(floor_i64(y), y.floor() as i64, "y = {y:e}");
        }
    }

    /// `bucket_of` puts every value in the bucket the `f64::floor`
    /// formula does: subnormal and huge `x`, every bucket edge `2^(k/8)`
    /// and its neighbours one ulp away, and a run of integers.
    #[test]
    fn bucket_of_matches_the_float_floor_formula() {
        let reference = |x: f64| -> usize {
            if x > 0.0 && x.is_finite() {
                let k = (x.log2() * BUCKETS_PER_OCTAVE).floor() as i64 + BUCKET_OFFSET;
                k.clamp(0, NUM_BUCKETS as i64 - 1) as usize
            } else {
                0
            }
        };
        let mut xs = vec![
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            1e300,
            1e-300,
            0.0,
            -1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for k in -600..600 {
            let edge = (f64::from(k) / BUCKETS_PER_OCTAVE).exp2();
            xs.extend([
                edge,
                f64::from_bits(edge.to_bits() + 1),
                f64::from_bits(edge.to_bits() - 1),
            ]);
        }
        xs.extend((1..=2000).map(f64::from));
        for x in xs {
            assert_eq!(QuantileSketch::bucket_of(x), reference(x), "x = {x:e}");
        }
    }

    #[test]
    fn sketch_quantiles_respect_relative_error_bound() {
        let mut s = QuantileSketch::new();
        let values: Vec<f64> = (1..=10_000).map(|i| f64::from(i) * 0.37).collect();
        for &v in &values {
            s.record(v);
        }
        let bound = 2f64.powf(1.0 / 16.0) - 1.0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let est = s.quantile(q);
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            assert!(
                (est - exact).abs() <= bound * exact + 1e-12,
                "q={q}: est {est} vs exact {exact} (bound {bound})"
            );
        }
    }

    #[test]
    fn sketch_extreme_quantiles_are_exact() {
        let mut s = QuantileSketch::new();
        for v in [3.0, 1.5, 97.0, 0.25] {
            s.record(v);
        }
        assert_eq!(s.quantile(0.0), 0.25);
        assert_eq!(s.quantile(1.0), 97.0);
        assert_eq!(s.min(), 0.25);
        assert_eq!(s.max(), 97.0);
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn sketch_handles_degenerate_values() {
        let mut s = QuantileSketch::new();
        s.record(0.0); // flow can be exactly 0 via snap tolerance
        s.record(1e-300); // subnormal-adjacent
        s.record(1e300); // far beyond the top bucket
        assert_eq!(s.count(), 3);
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 1e300);
        assert!(s.quantile(0.5).is_finite());
    }

    #[test]
    fn empty_sketch_yields_nan() {
        let s = QuantileSketch::new();
        assert!(s.quantile(0.5).is_nan());
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
        assert!(s.is_empty());
    }

    #[test]
    fn sink_matches_hand_computed_aggregates() {
        let mut sink = StreamingMetrics::new();
        // (release, size, completion, weight)
        sink.record(0.0, 1.0, 2.0, 1.0); // flow 2, stretch 2
        sink.record(1.0, 4.0, 4.0, 2.0); // flow 3, stretch 0.75, weighted 6
        let m = sink.run_metrics(7, 4.5, 5.0);
        assert_eq!(m.total_flow, 5.0);
        assert_eq!(m.mean_flow, 2.5);
        assert_eq!(m.max_flow, 3.0);
        assert_eq!(m.total_stretch, 2.75);
        assert_eq!(m.max_stretch, 2.0);
        assert_eq!(m.total_weighted_flow, 8.0);
        assert_eq!(m.makespan, 4.0);
        assert_eq!(m.num_jobs, 2);
        assert_eq!(m.events, 7);
        assert_eq!(m.fractional_flow, 4.5);
        assert_eq!(m.alive_integral, 5.0);
    }

    #[test]
    fn empty_sink_yields_zero_metrics() {
        let m = StreamingMetrics::new().run_metrics(0, 0.0, 0.0);
        assert_eq!(m.num_jobs, 0);
        assert_eq!(m.total_flow, 0.0);
        assert_eq!(m.mean_flow, 0.0);
    }
}
