//! A host-speed gauge: a fixed reference kernel timed beside the workload.
//!
//! CPU time (see `clock`) removes hypervisor steal, but not the speed of
//! the core while the process holds it, and on the shared host the
//! benchmark was tuned on that moves by up to 1.6× for seconds at a
//! time, and its run-long average by 30%, with what the other tenants
//! run. The gauge runs the same fixed work after every timed batch and
//! every set-up batch, and each batch is scaled by how far the gauge's
//! rate fell below or rose above its nominal rate: a batch run while the
//! core is 20% slow reads 20% low in both, and the scaled figure holds.
//! The kernel touches none of the workspace crates, so a change to them
//! moves the workload and never the gauge.
//!
//! The kernel is an event loop in miniature, like the engine: a binary
//! heap of 4,096 timers, a `powf` and a `sqrt` per pop, and a random read
//! and write in a 128 KiB table. The table is small so that where its
//! pages land does not matter: across eight processes started seconds
//! apart, the kernel read 3.7–6.2 M pops/s with a 2 MiB table and
//! 5.5–6.1 M with this one, and a larger table moved between runs while
//! the sims held (see `perfbench/README.md`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Heap pops per chunk: about 0.35 ms on the host below.
const CHUNK_OPS: u32 = 2_000;
/// Chunks per sample; the sample is the median chunk, so a preemption or
/// a steal episode that hits fewer than half of them does not show.
const CHUNKS: usize = 32;
/// Timers in the heap.
const TIMERS: u32 = 4_096;
/// `u64` slots in the table: 128 KiB, a thirty-second of the L2 of the
/// host below.
const TABLE: usize = 1 << 14;
/// The table's bytes, all of them resident once the gauge is built;
/// `peak_rss_mib` leaves them out.
pub const TABLE_BYTES: u64 = (TABLE * std::mem::size_of::<u64>()) as u64;
/// The gauge's rate in pops per second on the host the benchmark was
/// tuned on (2 vCPUs of an Intel Xeon, 4 MiB L2 each). Scaling by it
/// keeps the metrics near what that host reads as measured.
pub const NOMINAL_OPS_PER_S: f64 = 5.8e6;

/// The reference kernel's state, kept across samples.
pub struct Gauge {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    table: Vec<u64>,
    x: u64,
    /// Every sample's rate, in pops per second.
    pub rates: Vec<f64>,
}

impl Default for Gauge {
    fn default() -> Self {
        let mut g = Gauge {
            heap: BinaryHeap::with_capacity(TIMERS as usize),
            table: (0..TABLE as u64).collect(),
            x: 0x9E37_79B9_7F4A_7C15,
            rates: Vec::new(),
        };
        for id in 0..TIMERS {
            let t = g.next() >> 20;
            g.heap.push(Reverse((t, id)));
        }
        g
    }
}

impl Gauge {
    /// Xorshift64.
    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    fn chunk(&mut self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..CHUNK_OPS {
            let Some(Reverse((t, id))) = self.heap.pop() else {
                break;
            };
            let r = self.next();
            acc += ((r >> 11) as f64 * 1e-16).powf(0.37) + (t as f64).sqrt();
            let j = r as usize % TABLE;
            self.table[j] = self.table[j].wrapping_add(t);
            acc += self.table[(j * 7 + 1) % TABLE] as f64;
            self.heap.push(Reverse((t + (r >> 40), id)));
        }
        acc
    }

    /// Runs one sample and returns the host's slowdown against nominal:
    /// divide a time by it, or multiply a throughput by it, to get the
    /// value at nominal speed.
    pub fn slowdown(&mut self) -> f64 {
        let mut secs = [0.0; CHUNKS];
        for s in &mut secs {
            let t0 = Instant::now();
            std::hint::black_box(self.chunk());
            *s = t0.elapsed().as_secs_f64();
        }
        let rate = f64::from(CHUNK_OPS) / crate::stats::median(&secs);
        self.rates.push(rate);
        NOMINAL_OPS_PER_S / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_positive_and_the_work_is_fixed() {
        let (mut a, mut b) = (Gauge::default(), Gauge::default());
        assert!(a.slowdown() > 0.0);
        b.slowdown();
        assert_eq!(a.x, b.x);
        assert_eq!(a.heap.len(), TIMERS as usize);
        assert_eq!(a.rates.len(), 1);
    }
}
