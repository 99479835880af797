//! Golden metric bits of the engine's exhaustive path.
//!
//! The exhaustive (`AllocationStability::General`) path is the
//! differential oracle for the incremental one, so its arithmetic is
//! pinned here bit for bit: Greedy, SETF, LAPS(½), W-Intermediate-SRPT,
//! Random(7), and Intermediate-SRPT forced onto the exhaustive path with
//! `with_full_reassign`, on three fixtures (single-α Poisson, mixed-α
//! overload, a mixed-α batch), in both memory modes. Each digest folds
//! every aggregate metric bit, and in memory also the completion sequence
//! (order, ids, time bits); a streaming digest adds the peak alive count
//! and three sketch quantiles. Any change to the path's arithmetic, its
//! completion order, or its event count changes a digest.
//!
//! The digests were recorded before the path's sweeps were fused
//! (docs/PERF.md §11), so they also witness that the fusion is exact.
//! Greedy's rows were recorded later, on the quantized rule as it stood
//! before any change to its grant, so a faster Greedy must reproduce them.

use parsched::PolicyKind;
use parsched_bench::{mixed_alpha_fixture, poisson_fixture};
use parsched_sim::{
    Engine, EngineConfig, EnginePath, Instance, JobSpec, NullObserver, RunMetrics, StaticSource,
};
use parsched_workloads::batch::BatchWorkload;
use parsched_workloads::random::{AlphaDist, SizeDist};

const M: f64 = 8.0;

/// The six exhaustive-path policies the digests pin.
fn policies() -> [PolicyKind; 6] {
    [
        PolicyKind::Greedy,
        PolicyKind::Setf,
        PolicyKind::Laps(0.5),
        PolicyKind::Weighted,
        PolicyKind::Random(7),
        PolicyKind::IntermediateSrpt,
    ]
}

/// Re-weights `inst` (weights 1–4 by id) so the weighted policy's
/// density order is not the SRPT order.
fn weighted(inst: Instance) -> Instance {
    let jobs: Vec<JobSpec> = inst
        .jobs()
        .iter()
        .map(|j| j.clone().with_weight(1.0 + (j.id.0 % 4) as f64))
        .collect();
    Instance::new(jobs).expect("re-weighted fixture")
}

/// The three fixtures, by name.
fn fixtures() -> Vec<(&'static str, Instance)> {
    let batch = BatchWorkload {
        n: 200,
        sizes: SizeDist::LogUniform { p: 32.0 },
        alphas: AlphaDist::Choice(vec![(0.25, 1.0), (0.5, 1.0), (0.75, 1.0)]),
        seed: 0x5e7f,
    }
    .generate()
    .expect("batch fixture");
    vec![
        ("poisson", weighted(poisson_fixture(1_000, 0.9, M))),
        ("mixed_overload", weighted(mixed_alpha_fixture(600, 1.5, M))),
        ("batch", weighted(batch)),
    ]
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn metrics(&mut self, m: &RunMetrics) {
        for x in [
            m.total_flow,
            m.mean_flow,
            m.max_flow,
            m.fractional_flow,
            m.makespan,
            m.alive_integral,
            m.total_stretch,
            m.max_stretch,
            m.total_weighted_flow,
        ] {
            self.word(x.to_bits());
        }
        self.word(m.num_jobs as u64);
        self.word(m.events);
    }
}

/// The digest of one exhaustive-path run of `kind` on `inst`.
fn digest(inst: &Instance, kind: PolicyKind, streaming: bool) -> u64 {
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let cfg = EngineConfig::new(M)
        .with_full_reassign(true)
        .with_streaming(streaming);
    let engine = Engine::new(cfg, policy.as_mut(), &mut source, &mut obs);
    assert_eq!(engine.path(), EnginePath::Exhaustive);
    let mut d = Digest::new();
    if streaming {
        let out = engine
            .run_streaming()
            .unwrap_or_else(|e| panic!("{} (streaming): {e}", kind.name()));
        d.metrics(&out.metrics);
        d.word(out.peak_alive as u64);
        for q in [0.5, 0.9, 0.99] {
            d.word(out.quantiles.quantile(q).to_bits());
        }
    } else {
        let out = engine
            .run()
            .unwrap_or_else(|e| panic!("{} (in memory): {e}", kind.name()));
        d.metrics(&out.metrics);
        for c in &out.completed {
            d.word(c.id.0);
            d.word(c.completion.to_bits());
        }
    }
    d.0
}

/// `(fixture, policy, streaming, digest)`, recorded on the unfused path.
const GOLDEN: &[(&str, &str, bool, u64)] = &[
    ("poisson", "Greedy", false, 0x2c72cff4b3113c31),
    ("poisson", "Greedy", true, 0x650a86cdf293b627),
    ("poisson", "SETF", false, 0xebf6ec53ddc64ca1),
    ("poisson", "SETF", true, 0x2a31fc6b135af494),
    ("poisson", "LAPS(0.5)", false, 0xd9c811b01c0e718b),
    ("poisson", "LAPS(0.5)", true, 0x12acfa26eb3cbbc8),
    ("poisson", "W-Intermediate-SRPT", false, 0xf3117885349950c9),
    ("poisson", "W-Intermediate-SRPT", true, 0x61f6dac1f3debf57),
    ("poisson", "Random(7)", false, 0x4ee9c7c9513d5d85),
    ("poisson", "Random(7)", true, 0xb620ba308905f593),
    ("poisson", "Intermediate-SRPT", false, 0x944585e4f87cf58f),
    ("poisson", "Intermediate-SRPT", true, 0x8a454137f9ef9b80),
    ("mixed_overload", "Greedy", false, 0x07d493e542d952ec),
    ("mixed_overload", "Greedy", true, 0x3735650053390054),
    ("mixed_overload", "SETF", false, 0xef932dd8cdc3eec1),
    ("mixed_overload", "SETF", true, 0x5046aa99c2826da0),
    ("mixed_overload", "LAPS(0.5)", false, 0x96c6e987880809a8),
    ("mixed_overload", "LAPS(0.5)", true, 0xb13a0f5573a84b9d),
    (
        "mixed_overload",
        "W-Intermediate-SRPT",
        false,
        0x99fcd139bf6c77c2,
    ),
    (
        "mixed_overload",
        "W-Intermediate-SRPT",
        true,
        0x9ef0190d5e3a4fcb,
    ),
    ("mixed_overload", "Random(7)", false, 0xa459b3bf5e14d9c1),
    ("mixed_overload", "Random(7)", true, 0x4bf1d46ed0c1111a),
    (
        "mixed_overload",
        "Intermediate-SRPT",
        false,
        0x383662a484ef179e,
    ),
    (
        "mixed_overload",
        "Intermediate-SRPT",
        true,
        0x829c5ba24a340f57,
    ),
    ("batch", "Greedy", false, 0xf2821376fc0efb68),
    ("batch", "Greedy", true, 0x2b67e418ffceab31),
    ("batch", "SETF", false, 0x221e6c168378bc65),
    ("batch", "SETF", true, 0xe47b69b0d03fb203),
    ("batch", "LAPS(0.5)", false, 0xa790db5fcd6ad1b3),
    ("batch", "LAPS(0.5)", true, 0x437b77b84cdc4047),
    ("batch", "W-Intermediate-SRPT", false, 0x38f3bb2aa771be8a),
    ("batch", "W-Intermediate-SRPT", true, 0xa4f11c647d0e24f1),
    ("batch", "Random(7)", false, 0xaa153dfe2fb43b7d),
    ("batch", "Random(7)", true, 0xcc571ea7bc90a364),
    ("batch", "Intermediate-SRPT", false, 0x83b1865e562fe11a),
    ("batch", "Intermediate-SRPT", true, 0xd5a171494d262464),
];

#[test]
fn exhaustive_path_metric_bits_are_pinned() {
    let mut actual = Vec::new();
    for (fixture, inst) in fixtures() {
        for kind in policies() {
            for streaming in [false, true] {
                actual.push((
                    fixture,
                    kind.name(),
                    streaming,
                    digest(&inst, kind, streaming),
                ));
            }
        }
    }
    let rendered: Vec<String> = actual
        .iter()
        .map(|(f, p, s, d)| format!("    ({f:?}, {p:?}, {s}, 0x{d:016x}),"))
        .collect();
    let expected: Vec<String> = GOLDEN
        .iter()
        .map(|(f, p, s, d)| format!("    ({f:?}, {p:?}, {s}, 0x{d:016x}),"))
        .collect();
    assert_eq!(
        rendered,
        expected,
        "exhaustive-path digests changed; actual table:\n{}",
        rendered.join("\n")
    );
}
