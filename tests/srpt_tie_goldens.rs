//! Golden digests of the SRPT tie-break on instances built from ties.
//!
//! The SRPT order is `(remaining, release, id)`: bit-equal remaining work
//! falls back to the release (under `f64::total_cmp`, so a `-0.0` release
//! precedes `+0.0`) and then to the id. These fixtures are made of such
//! ties — equal sizes, equal releases, ids out of arrival order, a
//! `-0.0`/`+0.0` release pair, and a wave whose sizes equal exactly the
//! remaining work of the jobs it meets — so any change in how the alive
//! set breaks ties moves a completion and changes a digest.
//!
//! One more fixture, `mixed_overload`, covers the Scan intervals at scale:
//! a mixed-α Poisson instance at load 1.5 keeps a few hundred jobs alive
//! on four curves, so EQUI (share `m/n < 1`) and Threshold-SRPT(2) (share
//! `> 1` below its cutoff) drain their prefixes at per-job rates, and its
//! digests pin those drains and the completions they lead to. Over this
//! many events a one-ulp change in one interval's flow term is absorbed
//! by the run's compensated flow sum, so the order of the per-job flow
//! fold is pinned by the `classes` EQUI rows and by `srpt_set`'s unit
//! tests.
//!
//! Five SRPT-family policies run each fixture in both memory modes, once
//! straight through and once suspended, encoded, decoded, and restored
//! into a fresh engine every 7th event; both runs must produce the digest
//! recorded here. Each digest folds every aggregate metric bit, plus the
//! completion sequence (ids and time bits) in memory, or the peak alive
//! count and three sketch quantiles when streaming.

use parsched::PolicyKind;
use parsched_bench::mixed_alpha_fixture;
use parsched_sim::{
    Engine, EngineConfig, Instance, JobId, JobSpec, NullObserver, RunMetrics, Snapshot,
    StaticSource,
};
use parsched_speedup::Curve;

const M: f64 = 4.0;

/// The policies the digests pin.
fn policies() -> [PolicyKind; 5] {
    [
        PolicyKind::IntermediateSrpt,
        PolicyKind::ParallelSrpt,
        PolicyKind::SequentialSrpt,
        PolicyKind::Threshold(2.0),
        PolicyKind::Equi,
    ]
}

/// Distinct ids in scrambled order: `i ↦ (37·i mod 101) + 1000`.
fn scrambled_id(i: u64) -> JobId {
    JobId((37 * i) % 101 + 1000)
}

/// The fixtures, by name.
fn fixtures() -> Vec<(&'static str, Instance)> {
    // One batch at t = 0 of equal sizes and one curve; releases alternate
    // between -0.0 and +0.0, so only the release sign and the id order
    // the whole set.
    let signed_zero: Vec<JobSpec> = (0..32)
        .map(|i| {
            let release = if i % 2 == 0 { -0.0 } else { 0.0 };
            JobSpec::new(scrambled_id(i), release, 3.0, Curve::power(0.5))
        })
        .collect();
    // Two sizes, four curves (so prefixes drain at per-job rates and
    // rebuild their order through ties), releases split between the two
    // zeros.
    let curves = [
        Curve::power(0.25),
        Curve::power(0.75),
        Curve::Sequential,
        Curve::FullyParallel,
    ];
    let classes: Vec<JobSpec> = (0..48)
        .map(|i| {
            let size = if i % 3 == 0 { 5.0 } else { 2.0 };
            let release = if i % 5 < 2 { -0.0 } else { 0.0 };
            JobSpec::new(
                scrambled_id(i),
                release,
                size,
                curves[i as usize % 4].clone(),
            )
        })
        .collect();
    // Sequential jobs drain at rate exactly 1, so each wave's size equals
    // the remaining work of the jobs the previous waves left running:
    // 8 jobs of 4.0 at t = 0, 6 jobs of 2.0 at t = 2, 6 of 1.0 at t = 3,
    // ids descending within a wave.
    let mut waves = Vec::new();
    let mut next_id = 10_000u64;
    for (release, size, count) in [(0.0, 4.0, 8), (2.0, 2.0, 6), (3.0, 1.0, 6), (3.0, 4.0, 4)] {
        for k in 0..count {
            waves.push(JobSpec::new(
                JobId(next_id - k),
                release,
                size,
                Curve::Sequential,
            ));
        }
        next_id -= 100;
    }
    vec![
        (
            "signed_zero",
            Instance::new(signed_zero).expect("signed_zero"),
        ),
        ("classes", Instance::new(classes).expect("classes")),
        ("waves", Instance::new(waves).expect("waves")),
        ("mixed_overload", mixed_alpha_fixture(900, 1.5, M)),
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

fn config(streaming: bool) -> EngineConfig {
    EngineConfig::new(M).with_streaming(streaming)
}

/// Digest of a finished engine's outcome.
fn finish(engine: Engine<'_>, streaming: bool, ctx: &str) -> u64 {
    let mut d = Digest::new();
    if streaming {
        let out = engine
            .into_streaming_outcome()
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        d.metrics(&out.metrics);
        d.word(out.peak_alive as u64);
        for q in [0.5, 0.9, 0.99] {
            d.word(out.quantiles.quantile(q).to_bits());
        }
    } else {
        let out = engine
            .into_outcome()
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        d.metrics(&out.metrics);
        for c in &out.completed {
            d.word(c.id.0);
            d.word(c.completion.to_bits());
        }
    }
    d.0
}

/// Digest of one uninterrupted run.
fn straight(inst: &Instance, kind: PolicyKind, streaming: bool) -> u64 {
    let ctx = format!("{} straight (streaming {streaming})", kind.name());
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let mut engine = Engine::new(config(streaming), policy.as_mut(), &mut source, &mut obs);
    engine.run_loop().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    finish(engine, streaming, &ctx)
}

/// Digest of a run suspended through the text codec every 7th event.
fn resumed_every_7(inst: &Instance, kind: PolicyKind, streaming: bool) -> u64 {
    let ctx = format!("{} resumed (streaming {streaming})", kind.name());
    let mut doc: Option<String> = None;
    loop {
        let mut policy = kind.build();
        let mut source = StaticSource::new(inst);
        let mut obs = NullObserver;
        let mut engine = Engine::new(config(streaming), policy.as_mut(), &mut source, &mut obs);
        if let Some(doc) = &doc {
            let snap = Snapshot::from_json(doc).unwrap_or_else(|e| panic!("{ctx}: decode: {e}"));
            engine
                .restore(&snap)
                .unwrap_or_else(|e| panic!("{ctx}: restore: {e}"));
        }
        for _ in 0..7 {
            if !engine.step().unwrap_or_else(|e| panic!("{ctx}: step: {e}")) {
                return finish(engine, streaming, &ctx);
            }
        }
        doc = Some(
            engine
                .snapshot()
                .unwrap_or_else(|e| panic!("{ctx}: snapshot: {e}"))
                .to_json(),
        );
    }
}

/// `(fixture, policy, streaming, digest)`, recorded before the alive set
/// read its tie-break from the arena; the `mixed_overload` rows before the
/// SRPT set stopped sorting its Scan intervals' flow fold out of line.
const GOLDEN: &[(&str, &str, bool, u64)] = &[
    (
        "signed_zero",
        "Intermediate-SRPT",
        false,
        0x7594d4a7bb27732f,
    ),
    ("signed_zero", "Intermediate-SRPT", true, 0xf61eb7482cab7403),
    ("signed_zero", "Parallel-SRPT", false, 0xa72a804a1e9072b8),
    ("signed_zero", "Parallel-SRPT", true, 0x9d9558617f48b242),
    ("signed_zero", "Sequential-SRPT", false, 0x7594d4a7bb27732f),
    ("signed_zero", "Sequential-SRPT", true, 0xf61eb7482cab7403),
    (
        "signed_zero",
        "Threshold-SRPT(2)",
        false,
        0x7594d4a7bb27732f,
    ),
    ("signed_zero", "Threshold-SRPT(2)", true, 0xf61eb7482cab7403),
    ("signed_zero", "EQUI", false, 0x596e589b680a2db1),
    ("signed_zero", "EQUI", true, 0xc486b69787571ad1),
    ("classes", "Intermediate-SRPT", false, 0xb71e980e28e301b4),
    ("classes", "Intermediate-SRPT", true, 0xed835b1fe5b2b28c),
    ("classes", "Parallel-SRPT", false, 0x3ecdef4e06ef65cf),
    ("classes", "Parallel-SRPT", true, 0x1d4f4c42016c9338),
    ("classes", "Sequential-SRPT", false, 0xb71e980e28e301b4),
    ("classes", "Sequential-SRPT", true, 0xed835b1fe5b2b28c),
    ("classes", "Threshold-SRPT(2)", false, 0xb71e980e28e301b4),
    ("classes", "Threshold-SRPT(2)", true, 0xed835b1fe5b2b28c),
    ("classes", "EQUI", false, 0x96155e8fa1ff291e),
    ("classes", "EQUI", true, 0xf25b8e94c7bfc0eb),
    ("waves", "Intermediate-SRPT", false, 0xe07bfd6bc251f135),
    ("waves", "Intermediate-SRPT", true, 0x30c8ce4146c85dd7),
    ("waves", "Parallel-SRPT", false, 0x124cf90c9ed999a9),
    ("waves", "Parallel-SRPT", true, 0xa202b24ba8d23759),
    ("waves", "Sequential-SRPT", false, 0xe07bfd6bc251f135),
    ("waves", "Sequential-SRPT", true, 0x30c8ce4146c85dd7),
    ("waves", "Threshold-SRPT(2)", false, 0xc17f94f73098f676),
    ("waves", "Threshold-SRPT(2)", true, 0x2cd67f53faf94285),
    ("waves", "EQUI", false, 0x21ee07feffc9a634),
    ("waves", "EQUI", true, 0x4f1bc5f844d2d1bf),
    (
        "mixed_overload",
        "Intermediate-SRPT",
        false,
        0xf434e3c55a60fba8,
    ),
    (
        "mixed_overload",
        "Intermediate-SRPT",
        true,
        0xdc4a8ea42e7919cc,
    ),
    ("mixed_overload", "Parallel-SRPT", false, 0xe64f6e5fba636249),
    ("mixed_overload", "Parallel-SRPT", true, 0x1f762dd181bc143d),
    (
        "mixed_overload",
        "Sequential-SRPT",
        false,
        0x1e98a263cba17b17,
    ),
    (
        "mixed_overload",
        "Sequential-SRPT",
        true,
        0x6acc1c3dd7e32d0f,
    ),
    (
        "mixed_overload",
        "Threshold-SRPT(2)",
        false,
        0xe9c0fd42962a82a5,
    ),
    (
        "mixed_overload",
        "Threshold-SRPT(2)",
        true,
        0xbd0bea2c7a8fc6ef,
    ),
    ("mixed_overload", "EQUI", false, 0xf67794814d185547),
    ("mixed_overload", "EQUI", true, 0xd56a4c3f53149ceb),
];

#[test]
fn tie_break_digests_are_pinned_in_both_modes_and_across_restores() {
    let mut actual = Vec::new();
    for (fixture, inst) in fixtures() {
        for kind in policies() {
            for streaming in [false, true] {
                let d = straight(&inst, kind, streaming);
                assert_eq!(
                    resumed_every_7(&inst, kind, streaming),
                    d,
                    "{fixture} / {} / streaming {streaming}: a run restored every 7th \
                     event diverged from the straight run",
                    kind.name()
                );
                actual.push((fixture, kind.name(), streaming, d));
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
        "tie-break digests changed; actual table:\n{}",
        rendered.join("\n")
    );
}

/// The fixtures really are made of ties: the `-0.0`/`+0.0` pair survives
/// instance construction, and the first wave's completions come in id
/// order within each release.
#[test]
fn fixtures_carry_the_ties_they_claim() {
    let fx = fixtures();
    let (_, signed) = &fx[0];
    let negative = signed
        .jobs()
        .iter()
        .filter(|j| j.release.is_sign_negative())
        .count();
    assert_eq!(negative, 16, "the -0.0 releases survive Instance::new");
    let mut policy = PolicyKind::IntermediateSrpt.build();
    let mut source = StaticSource::new(signed);
    let mut obs = NullObserver;
    let out = Engine::new(config(false), policy.as_mut(), &mut source, &mut obs)
        .run()
        .expect("signed_zero run");
    // Intermediate-SRPT on equal sizes serves in tie order: every -0.0
    // release (ascending id) before any +0.0 one.
    let mut tie_order: Vec<&JobSpec> = signed.jobs().iter().collect();
    tie_order.sort_by(|a, b| a.release.total_cmp(&b.release).then(a.id.cmp(&b.id)));
    let first_completed: Vec<JobId> = out.completed.iter().take(4).map(|c| c.id).collect();
    let expected: Vec<JobId> = tie_order.iter().take(4).map(|j| j.id).collect();
    assert_eq!(first_completed, expected);
}

/// The overload fixture keeps hundreds of jobs alive under EQUI, so its
/// share `m/n` sits below one and its intervals are Scan intervals.
#[test]
fn mixed_overload_holds_hundreds_alive() {
    let fx = fixtures();
    let (name, inst) = &fx[3];
    assert_eq!(*name, "mixed_overload");
    let mut policy = PolicyKind::Equi.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let mut engine = Engine::new(config(true), policy.as_mut(), &mut source, &mut obs);
    engine.run_loop().expect("mixed_overload run");
    let peak = engine
        .into_streaming_outcome()
        .expect("mixed_overload outcome")
        .peak_alive;
    assert!(peak >= 200, "peak alive {peak}");
}
