//! Simulated-output checksum: FNV-1a over 64-bit words.
//!
//! It hashes what the simulator computed (event counts, flow bits,
//! per-tenant metrics, elite ratios), never a timing, so a change that
//! only alters speed leaves it unchanged.

use parsched_sim::RunMetrics;

/// FNV-1a (64-bit) accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }
}

impl Checksum {
    /// Mixes in one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes in the exact bits of a float.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Mixes in every field of a run's aggregate metrics.
    pub fn metrics(&mut self, m: &RunMetrics) {
        for w in metric_bits(m) {
            self.word(w);
        }
    }

    /// The digest.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Every field of `m` as exact bits, for bit-for-bit comparisons.
pub fn metric_bits(m: &RunMetrics) -> [u64; 11] {
    [
        m.total_flow.to_bits(),
        m.mean_flow.to_bits(),
        m.max_flow.to_bits(),
        m.fractional_flow.to_bits(),
        m.makespan.to_bits(),
        m.num_jobs as u64,
        m.events,
        m.alive_integral.to_bits(),
        m.total_stretch.to_bits(),
        m.max_stretch.to_bits(),
        m.total_weighted_flow.to_bits(),
    ]
}
