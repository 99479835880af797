//! Layer-6 conformance suite for `Engine::snapshot` / `Engine::restore`
//! (docs/TESTING.md): the fleet's suspend/migrate/resume machinery is
//! only sound if a snapshot taken at ANY event boundary, under EVERY
//! registry policy, in BOTH engine modes, resumes to a bit-identical
//! remaining trajectory — and if the `parsched-snap/v3` text codec is a
//! byte-exact fixed point, since that document is what a migration
//! actually ships between shards.
//!
//! Suspend points are drawn pseudo-randomly (splitmix64, fixed seed) plus
//! the structural corners (0, 1, midpoint, last event), so the suite is
//! deterministic yet not tuned to any particular event alignment.
//!
//! The fleet keeps tenants between slices as parked engines
//! (`Engine::park` / `ParkedEngine::resume`), so the same bit-identity is
//! required of parking every `k` events.

use parsched::PolicyKind;
use parsched_bench::{mixed_alpha_fixture, poisson_fixture};
use parsched_sim::jsonlite::Json;
use parsched_sim::{
    AliveJob, AllocationStability, CurveCount, Engine, EngineConfig, Instance, NullObserver,
    Observer, ParkedEngine, Policy, PrefixAllocation, RunMetrics, SimError, Snapshot, StaticSource,
    Time,
};

const M: f64 = 8.0;

fn engine_cfg(streaming: bool) -> EngineConfig {
    EngineConfig::new(M).with_streaming(streaming)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Uninterrupted reference run. The streaming finalizer's metrics are
/// bit-identical to the in-memory path's, so one shape fits both modes;
/// the completion list is compared separately on the in-memory mode.
fn baseline(inst: &Instance, kind: &PolicyKind, streaming: bool) -> (RunMetrics, Vec<(u64, u64)>) {
    baseline_with(inst, kind, engine_cfg(streaming))
}

fn baseline_with(
    inst: &Instance,
    kind: &PolicyKind,
    cfg: EngineConfig,
) -> (RunMetrics, Vec<(u64, u64)>) {
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let engine = Engine::new(cfg, policy.as_mut(), &mut source, &mut obs);
    if cfg.streaming {
        let out = engine.run_streaming().expect("baseline streaming run");
        (out.metrics, Vec::new())
    } else {
        let out = engine.run().expect("baseline run");
        let completions = out
            .completed
            .iter()
            .map(|c| (c.id.0, c.completion.to_bits()))
            .collect();
        (out.metrics, completions)
    }
}

fn assert_metrics_bit_identical(got: &RunMetrics, want: &RunMetrics, ctx: &str) {
    assert_eq!(got.events, want.events, "{ctx}: events");
    assert_eq!(got.num_jobs, want.num_jobs, "{ctx}: num_jobs");
    for (name, a, b) in [
        ("total_flow", got.total_flow, want.total_flow),
        ("fractional_flow", got.fractional_flow, want.fractional_flow),
        ("makespan", got.makespan, want.makespan),
        ("max_flow", got.max_flow, want.max_flow),
        ("total_stretch", got.total_stretch, want.total_stretch),
        ("max_stretch", got.max_stretch, want.max_stretch),
        (
            "total_weighted_flow",
            got.total_weighted_flow,
            want.total_weighted_flow,
        ),
        ("alive_integral", got.alive_integral, want.alive_integral),
    ] {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{ctx}: {name} diverged ({a} vs {b})"
        );
    }
}

/// Run to `suspend_at`, capture, force the snapshot through the text
/// codec (checking the byte-exact fixed point), resume on a fresh engine,
/// and return the final metrics (+ completion list on the in-memory
/// path).
fn suspend_resume(
    inst: &Instance,
    kind: &PolicyKind,
    streaming: bool,
    suspend_at: u64,
    ctx: &str,
) -> (RunMetrics, Vec<(u64, u64)>) {
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let mut engine = Engine::new(
        engine_cfg(streaming),
        policy.as_mut(),
        &mut source,
        &mut obs,
    );
    for _ in 0..suspend_at {
        assert!(engine.step().expect("pre-suspend step"), "{ctx}: ran out");
    }
    let snap = engine.snapshot().expect("snapshot");
    drop(engine);

    // Codec round trip: parse(render(s)) == s exactly, and re-rendering
    // the parsed snapshot reproduces the document byte-for-byte.
    let doc = snap.to_json();
    let decoded = Snapshot::from_json(&doc).expect("parse own rendering");
    assert_eq!(
        decoded, snap,
        "{ctx}: codec round trip changed the snapshot"
    );
    assert_eq!(
        decoded.to_json(),
        doc,
        "{ctx}: re-rendering is not byte-stable"
    );

    // Resume from the DECODED snapshot — the document is what a migration
    // ships, so the decoded form must carry the full state.
    let mut policy2 = kind.build();
    let mut source2 = StaticSource::new(inst);
    let mut obs2 = NullObserver;
    let mut resumed = Engine::new(
        engine_cfg(streaming),
        policy2.as_mut(),
        &mut source2,
        &mut obs2,
    );
    resumed.restore(&decoded).expect("restore");
    while resumed.step().expect("post-restore step") {}
    if streaming {
        let out = resumed
            .into_streaming_outcome()
            .expect("resumed streaming outcome");
        (out.metrics, Vec::new())
    } else {
        let out = resumed.into_outcome().expect("resumed outcome");
        let completions = out
            .completed
            .iter()
            .map(|c| (c.id.0, c.completion.to_bits()))
            .collect();
        (out.metrics, completions)
    }
}

#[test]
fn every_policy_and_mode_resumes_bit_identically_from_random_suspend_points() {
    let inst = mixed_alpha_fixture(300, 0.9, M);
    let mut rng = 0x5eed_f1ee7u64;
    for kind in PolicyKind::all_registered() {
        for streaming in [false, true] {
            let (want_metrics, want_completions) = baseline(&inst, &kind, streaming);
            let events = want_metrics.events;
            let mut points = vec![0, 1, events / 2, events - 1];
            for _ in 0..3 {
                points.push(splitmix(&mut rng) % events);
            }
            points.sort_unstable();
            points.dedup();
            for suspend_at in points {
                let ctx = format!(
                    "{} / {} / suspend@{suspend_at}",
                    kind.name(),
                    if streaming { "streaming" } else { "in-memory" }
                );
                let (metrics, completions) =
                    suspend_resume(&inst, &kind, streaming, suspend_at, &ctx);
                assert_metrics_bit_identical(&metrics, &want_metrics, &ctx);
                assert_eq!(
                    completions, want_completions,
                    "{ctx}: completion sequence diverged"
                );
            }
        }
    }
}

/// A registry policy that refuses to round-trip its state and counts its
/// resets: parking must carry the policy value itself across the pause
/// (so `Random(7)`'s RNG simply continues), never capture or reset it.
struct NoRoundTrip {
    inner: Box<dyn Policy + Send>,
    resets: u32,
}

impl Policy for NoRoundTrip {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn assign(
        &mut self,
        now: Time,
        m: f64,
        jobs: &[AliveJob<'_>],
        shares: &mut [f64],
    ) -> Option<f64> {
        self.inner.assign(now, m, jobs, shares)
    }

    fn reset(&mut self) {
        self.resets += 1;
        self.inner.reset();
    }

    fn stability(&self) -> AllocationStability {
        self.inner.stability()
    }

    fn prefix_allocation(&self, n_alive: usize, m: f64) -> Option<PrefixAllocation> {
        self.inner.prefix_allocation(n_alive, m)
    }

    fn equalize_curves(
        &mut self,
        m: f64,
        curves: &[CurveCount<'_>],
        shares: &mut [f64],
    ) -> Option<f64> {
        self.inner.equalize_curves(m, curves, shares)
    }

    fn srpt_ordered(&self) -> bool {
        self.inner.srpt_ordered()
    }

    fn snapshot_state(&self) -> Vec<u64> {
        panic!("parking must not capture policy state")
    }

    fn restore_state(&mut self, _state: &[u64]) -> bool {
        panic!("resuming must not restore policy state")
    }
}

/// Runs `inst` parking the engine every `k` events and resuming it on the
/// same policy and source; returns the final metrics (+ completion list
/// on the in-memory path).
fn park_every(
    inst: &Instance,
    kind: &PolicyKind,
    cfg: EngineConfig,
    k: u64,
    ctx: &str,
) -> (RunMetrics, Vec<(u64, u64)>) {
    let mut policy = NoRoundTrip {
        inner: kind.build(),
        resets: 0,
    };
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let mut parked = Engine::new(cfg, &mut policy, &mut source, &mut obs).park();
    let mut parks = 0u64;
    let engine = loop {
        let mut engine = parked
            .resume(&mut policy, &mut source, &mut obs)
            .expect("resume on the parked-from collaborators");
        let mut live = true;
        for _ in 0..k {
            if !engine.step().expect("step between parks") {
                live = false;
                break;
            }
        }
        if !live {
            break engine;
        }
        parked = engine.park();
        parks += 1;
    };
    let out = if cfg.streaming {
        let out = engine
            .into_streaming_outcome()
            .expect("parked streaming outcome");
        (out.metrics, Vec::new())
    } else {
        let out = engine.into_outcome().expect("parked outcome");
        let completions = out
            .completed
            .iter()
            .map(|c| (c.id.0, c.completion.to_bits()))
            .collect();
        (out.metrics, completions)
    };
    assert_eq!(
        policy.resets, 1,
        "{ctx}: only construction resets the policy"
    );
    assert!(parks >= out.0.events / k, "{ctx}: parked {parks} times");
    out
}

/// An observer that consumes the allocation stream (the trait default),
/// so an engine watched by it runs on the exhaustive path.
struct AllocationStreamObserver;

impl Observer for AllocationStreamObserver {}

/// Steps a fresh in-memory engine over `policy` and `source` ten times and
/// parks it.
fn park_after_ten(policy: &mut dyn Policy, source: &mut StaticSource) -> ParkedEngine {
    let mut obs = NullObserver;
    let mut engine = Engine::new(engine_cfg(false), policy, source, &mut obs);
    for _ in 0..10 {
        assert!(engine.step().expect("step"));
    }
    engine.park()
}

/// The error `resume` returns, or a panic if it resumes.
fn resume_error(
    parked: ParkedEngine,
    policy: &mut dyn Policy,
    source: &mut StaticSource,
    observer: &mut dyn Observer,
) -> String {
    match parked.resume(policy, source, observer) {
        Ok(_) => panic!("resume accepted mismatched collaborators"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn resume_rejects_collaborators_that_visibly_differ() {
    let inst = mixed_alpha_fixture(120, 0.9, M);
    let mut policy = PolicyKind::IntermediateSrpt.build();
    let mut source = StaticSource::new(&inst);

    // A policy with another SRPT-ordering claim.
    let parked = park_after_ten(policy.as_mut(), &mut source);
    let mut setf = PolicyKind::Setf.build();
    let err = resume_error(parked, setf.as_mut(), &mut source, &mut NullObserver);
    assert!(err.contains("SRPT-ordering"), "{err}");

    // An observer that would move the incremental run to the exhaustive
    // path.
    let mut source = StaticSource::new(&inst);
    let parked = park_after_ten(policy.as_mut(), &mut source);
    let err = resume_error(
        parked,
        policy.as_mut(),
        &mut source,
        &mut AllocationStreamObserver,
    );
    assert!(err.contains("execution path"), "{err}");

    // A source that is not where the engine left it.
    let mut source = StaticSource::new(&inst);
    let parked = park_after_ten(policy.as_mut(), &mut source);
    let mut rewound = StaticSource::new(&inst);
    let err = resume_error(parked, policy.as_mut(), &mut rewound, &mut NullObserver);
    assert!(err.contains("positioned"), "{err}");

    // The parked-from collaborators resume.
    let mut source = StaticSource::new(&inst);
    let parked = park_after_ten(policy.as_mut(), &mut source);
    assert!(parked
        .resume(policy.as_mut(), &mut source, &mut NullObserver)
        .is_ok());
}

#[test]
fn parking_every_k_events_is_bit_identical_for_every_policy_mode_and_path() {
    let inst = mixed_alpha_fixture(120, 0.9, M);
    for kind in PolicyKind::all_registered() {
        for streaming in [false, true] {
            // `full_reassign` forces the exhaustive path even for the
            // SRPT-prefix policies that would otherwise run incrementally.
            for full_reassign in [false, true] {
                let cfg = engine_cfg(streaming).with_full_reassign(full_reassign);
                let (want_metrics, want_completions) = baseline_with(&inst, &kind, cfg);
                for k in [1, 7, 64] {
                    let ctx = format!(
                        "{} / {} / {} / park every {k}",
                        kind.name(),
                        if streaming { "streaming" } else { "in-memory" },
                        if full_reassign {
                            "exhaustive"
                        } else {
                            "default path"
                        },
                    );
                    let (metrics, completions) = park_every(&inst, &kind, cfg, k, &ctx);
                    assert_metrics_bit_identical(&metrics, &want_metrics, &ctx);
                    assert_eq!(
                        completions, want_completions,
                        "{ctx}: completion sequence diverged"
                    );
                }
            }
        }
    }
}

/// A snapshot of a FINISHED run must restore and immediately report
/// finished with untouched aggregates — the fleet takes this path when a
/// tenant's last slice ends exactly at its final event.
#[test]
fn finished_snapshots_restore_to_finished_engines() {
    let inst = mixed_alpha_fixture(50, 0.9, M);
    for streaming in [false, true] {
        let mut policy = PolicyKind::IntermediateSrpt.build();
        let mut source = StaticSource::new(&inst);
        let mut obs = NullObserver;
        let mut engine = Engine::new(
            engine_cfg(streaming),
            policy.as_mut(),
            &mut source,
            &mut obs,
        );
        while engine.step().expect("step") {}
        let snap = engine.snapshot().expect("snapshot of finished run");
        assert!(snap.is_finished());
        drop(engine);
        let mut policy2 = PolicyKind::IntermediateSrpt.build();
        let mut source2 = StaticSource::new(&inst);
        let mut obs2 = NullObserver;
        let mut resumed = Engine::new(
            engine_cfg(streaming),
            policy2.as_mut(),
            &mut source2,
            &mut obs2,
        );
        resumed.restore(&snap).expect("restore finished snapshot");
        assert!(
            !resumed.step().expect("step on finished engine"),
            "restored finished engine must not step"
        );
    }
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden_snapshot.json")
}

/// The committed `parsched-snap/v3` document must match what the current
/// engine captures for the same scenario — any change to the snapshot
/// schema, field order, or float rendering shows up as a diff here.
/// Regenerate deliberately with:
/// `PARSCHED_REGEN_GOLDEN=1 cargo test --test fleet_snapshot_props`.
#[test]
fn golden_snapshot_fixture_is_stable_and_restorable() {
    let inst = mixed_alpha_fixture(40, 0.9, 4.0);
    let kind = PolicyKind::IntermediateSrpt;
    let cfg = EngineConfig::new(4.0);
    let mut policy = kind.build();
    let mut source = StaticSource::new(&inst);
    let mut obs = NullObserver;
    let mut engine = Engine::new(cfg, policy.as_mut(), &mut source, &mut obs);
    for _ in 0..25 {
        assert!(engine.step().expect("step"));
    }
    let fresh = engine.snapshot().expect("snapshot").to_json();
    drop(engine);

    let path = golden_path();
    if std::env::var_os("PARSCHED_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
        std::fs::write(&path, &fresh).expect("write golden snapshot");
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (regenerate with PARSCHED_REGEN_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        committed, fresh,
        "golden snapshot drifted from the current schema/engine"
    );

    // The committed document must still restore and resume to the same
    // final metrics as an uninterrupted run.
    let mut policy_b = kind.build();
    let mut source_b = StaticSource::new(&inst);
    let mut obs_b = NullObserver;
    let want = Engine::new(cfg, policy_b.as_mut(), &mut source_b, &mut obs_b)
        .run()
        .expect("baseline")
        .metrics;
    let snap = Snapshot::from_json(&committed).expect("parse committed golden");
    let mut policy_c = kind.build();
    let mut source_c = StaticSource::new(&inst);
    let mut obs_c = NullObserver;
    let mut resumed = Engine::new(cfg, policy_c.as_mut(), &mut source_c, &mut obs_c);
    resumed.restore(&snap).expect("restore committed golden");
    while resumed.step().expect("resume step") {}
    let got = resumed.into_outcome().expect("resumed outcome").metrics;
    assert_metrics_bit_identical(&got, &want, "golden resume");
}

/// Documents in an older format are refused with a typed error, not
/// misread as the current one: `parsched-snap/v1` (before the engine's
/// event queue and kernel knob were removed) and `parsched-snap/v2`
/// (before the SRPT set's two remaining-work sums were).
#[test]
fn v1_snapshot_documents_are_refused() {
    for version in ["v1", "v2"] {
        let path = golden_path().with_file_name(format!("golden_snapshot_{version}.json"));
        let doc =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let tag = format!("parsched-snap/{version}");
        assert!(doc.contains(&format!("\"{tag}\"")), "{}", path.display());
        match Snapshot::from_json(&doc) {
            Err(SimError::BadInstance { what }) => assert!(what.contains(&tag), "{what}"),
            other => panic!("{tag} document was not refused: {other:?}"),
        }
    }
}

/// Replaces the value at `path` in a snapshot document: object keys, or
/// array indices written in decimal.
fn corrupt_at(doc: &str, path: &[&str], value: Json) -> String {
    let mut json = Json::parse(doc).expect("parse snapshot document");
    let mut node = &mut json;
    for &key in path {
        node = match node {
            Json::Obj(fields) => fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("snapshot document has no field {key}")),
            Json::Arr(items) => &mut items[key.parse::<usize>().expect("array index")],
            _ => panic!("snapshot document: {key} is not inside a container"),
        };
    }
    *node = value;
    json.render()
}

/// The codec's rendering of an f64: its bit pattern.
fn f64_bits(value: f64) -> Json {
    Json::Num(value.to_bits().to_string())
}

/// Overwrites field `lane` of arena job row `row` in a snapshot document.
fn corrupt_job_lane(doc: &str, row: usize, lane: usize, value: f64) -> String {
    let (row, lane) = (row.to_string(), lane.to_string());
    corrupt_at(doc, &["arena", "jobs", &row, &lane], f64_bits(value))
}

/// Restores `bad` into a fresh engine for `kind`, then runs out and
/// finalizes whatever restore accepts, so a value that slips through
/// panics or errors here rather than in a later session.
fn restore_run_finalize(
    inst: &Instance,
    kind: &PolicyKind,
    streaming: bool,
    bad: &Snapshot,
) -> Result<(), SimError> {
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let mut resumed = Engine::new(
        engine_cfg(streaming),
        policy.as_mut(),
        &mut source,
        &mut obs,
    );
    resumed.restore(bad)?;
    while resumed.step()? {}
    if streaming {
        resumed.into_streaming_outcome().map(drop)
    } else {
        resumed.into_outcome().map(drop)
    }
}

/// Restore runs admission's spec checks on every arena slot and requires
/// finite, non-negative remaining work: a document whose job lanes hold
/// NaN, ∞, or a negative value is refused with a typed error, on the
/// incremental path and on two exhaustive policies whose per-job state
/// (LAPS's release order, Weighted's densities) would otherwise be
/// poisoned, in both memory modes. Run out and finalize whatever restore
/// accepts, so a lane that slips through panics or errors here rather
/// than in a later session.
#[test]
fn corrupted_job_lanes_are_refused_with_a_typed_error() {
    let inst = mixed_alpha_fixture(60, 0.9, M);
    // Arena job row layout: [id, release, size, weight, curve,
    // remaining, run_key, class, in_running, done].
    let lanes = [(1, "release"), (2, "size"), (3, "weight"), (5, "remaining")];
    for kind in [
        PolicyKind::IntermediateSrpt,
        PolicyKind::Laps(0.5),
        PolicyKind::Weighted,
    ] {
        for streaming in [false, true] {
            let mut policy = kind.build();
            let mut source = StaticSource::new(&inst);
            let mut obs = NullObserver;
            let mut engine = Engine::new(
                engine_cfg(streaming),
                policy.as_mut(),
                &mut source,
                &mut obs,
            );
            for _ in 0..40 {
                assert!(engine.step().expect("pre-suspend step"));
            }
            let doc = engine.snapshot().expect("snapshot").to_json();
            drop(engine);
            // An alive job: its lanes feed the run that follows.
            let snap = Snapshot::from_json(&doc).expect("parse");
            assert!(snap.alive_count() > 0, "suspend point has no alive job");
            let Json::Obj(top) = Json::parse(&doc).expect("parse") else {
                unreachable!()
            };
            let rows = top
                .iter()
                .find(|(k, _)| k == "arena")
                .and_then(|(_, a)| a.get("jobs"))
                .and_then(|j| j.as_arr().ok())
                .expect("arena jobs")
                .to_vec();
            let row = rows
                .iter()
                .position(|r| {
                    matches!(
                        r.as_arr().ok().and_then(|f| f.get(9)),
                        Some(Json::Bool(false))
                    )
                })
                .expect("an alive arena slot");
            for (lane, name) in lanes {
                for value in [f64::NAN, f64::INFINITY, -1.0] {
                    let ctx = format!(
                        "{} / {} / {name} = {value}",
                        kind.name(),
                        if streaming { "streaming" } else { "in-memory" }
                    );
                    let bad = Snapshot::from_json(&corrupt_job_lane(&doc, row, lane, value))
                        .unwrap_or_else(|e| panic!("{ctx}: the codec refused the lane: {e}"));
                    let result = restore_run_finalize(&inst, &kind, streaming, &bad);
                    assert!(
                        matches!(result, Err(SimError::BadInstance { .. })),
                        "{ctx}: expected a typed restore error, got {result:?}"
                    );
                }
            }
        }
    }
}

/// Restore holds the run-state scalars to the domains `snapshot()` emits
/// them in: the clock and the SRPT drain offset finite and non-negative,
/// and every other scalar the run computes with finite — the optional
/// clock times and the uniform interval rate when present, the profile
/// share, the SRPT set's sums, the Neumaier accumulator parts, the sink's
/// aggregates, and the exhaustive share and rate lanes. Each corrupted
/// value is refused with a typed error on the incremental path and on an
/// exhaustive policy, in both memory modes, while the untouched document
/// (whose empty quantile sketch carries its `±∞` bounds until the first
/// completion) restores.
#[test]
fn corrupted_run_scalars_are_refused_with_a_typed_error() {
    let inst = mixed_alpha_fixture(60, 0.9, M);
    let non_negative: &[&[&str]] = &[&["clock", "now"], &["srpt", "drain"]];
    let finite: &[&[&str]] = &[
        &["clock", "quantum_deadline"],
        &["clock", "next_completion"],
        &["interval"],
        &["profile", "share"],
        &["srpt", "s1"],
        &["srpt", "sk"],
        &["srpt", "q_frac"],
        &["accum", "frac_flow", "0"],
        &["accum", "frac_flow", "1"],
        &["accum", "alive_integral", "0"],
        &["accum", "alive_integral", "1"],
        &["sink", "total_flow", "0"],
        &["sink", "total_flow", "1"],
        &["sink", "max_flow"],
        &["sink", "total_stretch", "0"],
        &["sink", "max_stretch"],
        &["sink", "total_weighted_flow", "0"],
        &["sink", "makespan"],
        &["exhaustive", "shares", "0"],
        &["exhaustive", "rates", "0"],
    ];
    let fields = non_negative
        .iter()
        .map(|&path| (path, &[f64::NAN, f64::INFINITY, -1.0][..]))
        .chain(
            finite
                .iter()
                .map(|&path| (path, &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY][..])),
        );
    for kind in [PolicyKind::IntermediateSrpt, PolicyKind::Laps(0.5)] {
        for streaming in [false, true] {
            let mode = if streaming { "streaming" } else { "in-memory" };
            let mut policy = kind.build();
            let mut source = StaticSource::new(&inst);
            let mut obs = NullObserver;
            let mut engine = Engine::new(
                engine_cfg(streaming),
                policy.as_mut(),
                &mut source,
                &mut obs,
            );
            assert!(engine.step().expect("first step"));
            let early = engine.snapshot().expect("snapshot").to_json();
            for _ in 1..40 {
                assert!(engine.step().expect("pre-suspend step"));
            }
            let doc = engine.snapshot().expect("snapshot").to_json();
            drop(engine);
            for untouched in [&early, &doc] {
                let snap = Snapshot::from_json(untouched).expect("parse");
                restore_run_finalize(&inst, &kind, streaming, &snap).unwrap_or_else(|e| {
                    panic!("{} / {mode}: untouched document: {e}", kind.name())
                });
            }
            let parsed = Json::parse(&doc).expect("parse");
            for (path, values) in fields.clone() {
                // The exhaustive lanes are empty on the incremental path.
                if path[0] == "exhaustive"
                    && parsed
                        .get("exhaustive")
                        .and_then(|e| e.get(path[1]))
                        .and_then(|l| l.as_arr().ok())
                        .is_some_and(<[Json]>::is_empty)
                {
                    continue;
                }
                for &value in values {
                    let ctx = format!("{} / {mode} / {} = {value}", kind.name(), path.join("."));
                    let bad = if path == ["interval"] {
                        let uniform = Json::Obj(vec![
                            ("kind".into(), Json::Str("uniform".into())),
                            ("rate".into(), f64_bits(value)),
                        ]);
                        corrupt_at(&doc, path, uniform)
                    } else {
                        corrupt_at(&doc, path, f64_bits(value))
                    };
                    let bad = Snapshot::from_json(&bad)
                        .unwrap_or_else(|e| panic!("{ctx}: the codec refused the value: {e}"));
                    let result = restore_run_finalize(&inst, &kind, streaming, &bad);
                    assert!(
                        matches!(result, Err(SimError::BadInstance { .. })),
                        "{ctx}: expected a typed restore error, got {result:?}"
                    );
                }
            }
        }
    }
}

/// SETF's snapshots carry the level stack, and restore checks it like the
/// SRPT set: a level's offset or sums, the frozen levels' sum, or a
/// member's key that is NaN or ±∞ (the offset, which is the level's
/// elapsed work, also −1); a
/// member whose `release`, `id` or `size` disagrees with its arena slot's
/// spec; or a tally naming an arena slot past the arena's end: each is a
/// typed restore error, in both memory modes.
#[test]
fn corrupted_level_stack_is_refused_with_a_typed_error() {
    let inst = mixed_alpha_fixture(60, 0.9, M);
    let kind = PolicyKind::Setf;
    let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for streaming in [false, true] {
        let mode = if streaming { "streaming" } else { "in-memory" };
        let mut policy = kind.build();
        let mut source = StaticSource::new(&inst);
        let mut obs = NullObserver;
        let mut engine = Engine::new(
            engine_cfg(streaming),
            policy.as_mut(),
            &mut source,
            &mut obs,
        );
        for _ in 0..40 {
            assert!(engine.step().expect("pre-suspend step"));
        }
        let doc = engine.snapshot().expect("snapshot").to_json();
        drop(engine);
        let snap = Snapshot::from_json(&doc).expect("parse");
        restore_run_finalize(&inst, &kind, streaming, &snap)
            .unwrap_or_else(|e| panic!("{mode}: untouched document: {e}"));
        let mut cases: Vec<(String, String)> = Vec::new();
        for field in ["drain", "s1", "sk"] {
            for v in values {
                let bad = corrupt_at(&doc, &["levels", "levels", "0", field], f64_bits(v));
                cases.push((format!("levels.0.{field} = {v}"), bad));
            }
        }
        let bad = corrupt_at(&doc, &["levels", "levels", "0", "drain"], f64_bits(-1.0));
        cases.push(("levels.0.drain = -1".into(), bad));
        for v in values {
            let bad = corrupt_at(&doc, &["levels", "frozen"], f64_bits(v));
            cases.push((format!("levels.frozen = {v}"), bad));
            let key = &["levels", "levels", "0", "entries", "0", "0"];
            cases.push((
                format!("entry key = {v}"),
                corrupt_at(&doc, key, f64_bits(v)),
            ));
        }
        let release = &["levels", "levels", "0", "entries", "0", "1"];
        cases.push((
            "entry release".into(),
            corrupt_at(&doc, release, f64_bits(1e9)),
        ));
        let id = &["levels", "levels", "0", "entries", "0", "2"];
        cases.push((
            "entry id".into(),
            corrupt_at(&doc, id, Json::Num("999999".into())),
        ));
        let size = &["levels", "levels", "0", "entries", "0", "4"];
        cases.push(("entry size".into(), corrupt_at(&doc, size, f64_bits(1e9))));
        let tally = Json::Arr(vec![Json::Num("999999".into()), Json::Num("1".into())]);
        let parsed = Json::parse(&doc).expect("parse");
        let one_member_tally = parsed
            .get("levels")
            .and_then(|l| l.get("levels"))
            .and_then(|l| l.as_arr().ok())
            .and_then(|l| l.first())
            .and_then(|l| l.get("tally"))
            .and_then(|t| t.as_arr().ok())
            .and_then(|t| t.first())
            .and_then(|t| t.as_arr().ok())
            .is_some_and(|t| t.get(1) == Some(&Json::Num("1".into())));
        if one_member_tally {
            let path = &["levels", "levels", "0", "tally", "0"];
            cases.push(("tally slot".into(), corrupt_at(&doc, path, tally)));
        }
        for (what, bad) in cases {
            let ctx = format!("{mode} / {what}");
            let bad = Snapshot::from_json(&bad)
                .unwrap_or_else(|e| panic!("{ctx}: the codec refused the value: {e}"));
            let result = restore_run_finalize(&inst, &kind, streaming, &bad);
            assert!(
                matches!(result, Err(SimError::BadInstance { .. })),
                "{ctx}: expected a typed restore error, got {result:?}"
            );
        }
    }
}

/// LAPS at a non-dyadic and a small β, on four α classes (several curve
/// groups in its running suffix): suspend/resume at spread-out points and
/// parking every `k` events continue the arrival-suffix path bit-exactly,
/// in both memory modes.
#[test]
fn arrival_suffix_path_resumes_and_parks_bit_identically() {
    let inst = mixed_alpha_fixture(300, 0.9, M);
    for kind in [PolicyKind::Laps(0.55), PolicyKind::Laps(0.1)] {
        for streaming in [false, true] {
            let mode = if streaming { "streaming" } else { "in-memory" };
            let (want_metrics, want_completions) = baseline(&inst, &kind, streaming);
            let events = want_metrics.events;
            for suspend_at in [1, events / 3, events / 2, events - 2] {
                let ctx = format!("{} / {mode} / suspend@{suspend_at}", kind.name());
                let (metrics, completions) =
                    suspend_resume(&inst, &kind, streaming, suspend_at, &ctx);
                assert_metrics_bit_identical(&metrics, &want_metrics, &ctx);
                assert_eq!(completions, want_completions, "{ctx}: completions");
            }
            for k in [1, 64] {
                let ctx = format!("{} / {mode} / park every {k}", kind.name());
                let (metrics, completions) =
                    park_every(&inst, &kind, engine_cfg(streaming), k, &ctx);
                assert_metrics_bit_identical(&metrics, &want_metrics, &ctx);
                assert_eq!(completions, want_completions, "{ctx}: completions");
            }
        }
    }
}

/// LAPS's snapshots carry the arrival suffix, and restore checks it like
/// the level stack: a group's offset, sums or rate, the waiting jobs' sum,
/// or a key that is NaN or ±∞ (the offset and a waiting job's remaining
/// work also −1); an entry whose `release`, `id` or `size` disagrees with
/// its arena slot's spec; an arena slot held twice, or an alive one not
/// at all; and a waiting stack out of arrival order: each is a typed
/// restore error, in both memory modes.
#[test]
fn corrupted_arrival_suffix_is_refused_with_a_typed_error() {
    let inst = mixed_alpha_fixture(60, 0.9, M);
    let kind = PolicyKind::Laps(0.5);
    let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for streaming in [false, true] {
        let mode = if streaming { "streaming" } else { "in-memory" };
        let mut policy = kind.build();
        let mut source = StaticSource::new(&inst);
        let mut obs = NullObserver;
        let mut engine = Engine::new(
            engine_cfg(streaming),
            policy.as_mut(),
            &mut source,
            &mut obs,
        );
        for _ in 0..40 {
            assert!(engine.step().expect("pre-suspend step"));
        }
        let doc = engine.snapshot().expect("snapshot").to_json();
        drop(engine);
        let snap = Snapshot::from_json(&doc).expect("parse");
        restore_run_finalize(&inst, &kind, streaming, &snap)
            .unwrap_or_else(|e| panic!("{mode}: untouched document: {e}"));
        let parsed = Json::parse(&doc).expect("parse");
        let suffix = parsed.get("suffix").expect("a suffix member");
        let waiting = suffix
            .get("waiting")
            .and_then(|w| w.as_arr().ok())
            .expect("waiting stack");
        assert!(
            waiting.len() >= 2,
            "{mode}: the fixture leaves jobs waiting"
        );
        fn at<'a>(tail: &[&'a str]) -> Vec<&'a str> {
            ["suffix", "groups", "0"]
                .into_iter()
                .chain(tail.iter().copied())
                .collect()
        }
        let mut cases: Vec<(String, String)> = Vec::new();
        for field in ["drain", "s1", "sk", "rate"] {
            for v in values {
                let bad = corrupt_at(&doc, &at(&[field]), f64_bits(v));
                cases.push((format!("groups.0.{field} = {v}"), bad));
            }
        }
        cases.push((
            "groups.0.drain = -1".into(),
            corrupt_at(&doc, &at(&["drain"]), f64_bits(-1.0)),
        ));
        for v in values {
            cases.push((
                format!("waiting_frac = {v}"),
                corrupt_at(&doc, &["suffix", "waiting_frac"], f64_bits(v)),
            ));
            cases.push((
                format!("group entry key = {v}"),
                corrupt_at(&doc, &at(&["entries", "0", "0"]), f64_bits(v)),
            ));
            cases.push((
                format!("waiting key = {v}"),
                corrupt_at(&doc, &["suffix", "waiting", "0", "0"], f64_bits(v)),
            ));
        }
        cases.push((
            "waiting key = -1".into(),
            corrupt_at(&doc, &["suffix", "waiting", "0", "0"], f64_bits(-1.0)),
        ));
        cases.push((
            "entry release".into(),
            corrupt_at(&doc, &at(&["entries", "0", "1"]), f64_bits(1e9)),
        ));
        cases.push((
            "entry id".into(),
            corrupt_at(
                &doc,
                &at(&["entries", "0", "2"]),
                Json::Num("999999".into()),
            ),
        ));
        cases.push((
            "entry size".into(),
            corrupt_at(&doc, &at(&["entries", "0", "4"]), f64_bits(1e9)),
        ));
        // The first waiting job again at the top of the stack: one slot
        // twice, and the stack out of order.
        cases.push((
            "slot twice".into(),
            corrupt_at(
                &doc,
                &["suffix", "waiting", &(waiting.len() - 1).to_string()],
                waiting[0].clone(),
            ),
        ));
        // The oldest waiting job dropped: its job would never complete.
        let parsed_waiting: Vec<Json> = waiting[1..].to_vec();
        cases.push((
            "job dropped".into(),
            corrupt_at(&doc, &["suffix", "waiting"], Json::Arr(parsed_waiting)),
        ));
        // The two oldest waiting jobs swapped.
        let swapped = corrupt_at(&doc, &["suffix", "waiting", "0"], waiting[1].clone());
        cases.push((
            "waiting order".into(),
            corrupt_at(&swapped, &["suffix", "waiting", "1"], waiting[0].clone()),
        ));
        for (what, bad) in cases {
            let ctx = format!("{mode} / {what}");
            let bad = Snapshot::from_json(&bad)
                .unwrap_or_else(|e| panic!("{ctx}: the codec refused the value: {e}"));
            let result = restore_run_finalize(&inst, &kind, streaming, &bad);
            assert!(
                matches!(result, Err(SimError::BadInstance { .. })),
                "{ctx}: expected a typed restore error, got {result:?}"
            );
        }
    }
}

/// The value at `path` in a snapshot document (see [`corrupt_at`]).
fn value_at(doc: &str, path: &[&str]) -> Json {
    let mut node = Json::parse(doc).expect("parse snapshot document");
    for &key in path {
        node = match node {
            Json::Obj(fields) => fields
                .into_iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("snapshot document has no field {key}")),
            Json::Arr(mut items) => items.swap_remove(key.parse::<usize>().expect("array index")),
            _ => panic!("snapshot document: {key} is not inside a container"),
        };
    }
    node
}

/// The SRPT set (Intermediate-SRPT) and the level stack (SETF) hold the
/// alive set, so restore requires each to hold every alive arena slot
/// exactly once: a document with one entry dropped, whose job would never
/// complete, or one entry held twice is refused with a typed error, in
/// both memory modes, while the untouched document resumes bit-identically.
/// A level's tally is adjusted with its entries, so the codec accepts the
/// edited document and only restore can refuse it.
#[test]
fn alive_structures_that_drop_or_repeat_a_job_are_refused() {
    let inst = poisson_fixture(200, 1.5, M);
    let suspend_at = 60;
    for kind in [PolicyKind::IntermediateSrpt, PolicyKind::Setf] {
        for streaming in [false, true] {
            let ctx = format!(
                "{} / {}",
                kind.name(),
                if streaming { "streaming" } else { "in-memory" }
            );
            let (want, _) = baseline(&inst, &kind, streaming);
            let (got, _) = suspend_resume(&inst, &kind, streaming, suspend_at, &ctx);
            assert_metrics_bit_identical(&got, &want, &format!("{ctx} / untouched"));

            let mut policy = kind.build();
            let mut source = StaticSource::new(&inst);
            let mut obs = NullObserver;
            let mut engine = Engine::new(
                engine_cfg(streaming),
                policy.as_mut(),
                &mut source,
                &mut obs,
            );
            for _ in 0..suspend_at {
                assert!(engine.step().expect("pre-suspend step"));
            }
            let doc = engine.snapshot().expect("snapshot").to_json();
            drop(engine);

            let mut cases: Vec<(&str, String)> = Vec::new();
            if kind == PolicyKind::Setf {
                // The first level with two members of one curve: the
                // single-α fixture gives each level one tally row.
                let Json::Arr(levels) = value_at(&doc, &["levels", "levels"]) else {
                    panic!("{ctx}: levels is not an array")
                };
                let at = levels
                    .iter()
                    .position(|l| {
                        l.get("tally")
                            .and_then(|t| t.as_arr().ok())
                            .and_then(|t| t.first())
                            .and_then(|row| row.as_arr().ok())
                            .and_then(|row| row.get(1))
                            .is_some_and(|c| c.as_u64().expect("tally count") >= 2)
                    })
                    .expect("a level with two members")
                    .to_string();
                let entries_path = ["levels", "levels", &at, "entries"];
                let count_path = ["levels", "levels", &at, "tally", "0", "1"];
                let Json::Arr(entries) = value_at(&doc, &entries_path) else {
                    panic!("{ctx}: level entries is not an array")
                };
                let count = value_at(&doc, &count_path).as_u64().expect("tally count");
                for (what, edited, count) in [
                    ("level entry dropped", entries[1..].to_vec(), count - 1),
                    (
                        "level entry repeated",
                        [entries.clone(), vec![entries[0].clone()]].concat(),
                        count + 1,
                    ),
                ] {
                    let bad = corrupt_at(&doc, &entries_path, Json::Arr(edited));
                    let bad = corrupt_at(&bad, &count_path, Json::Num(count.to_string()));
                    cases.push((what, bad));
                }
            } else {
                let Json::Arr(queued) = value_at(&doc, &["srpt", "queued"]) else {
                    panic!("{ctx}: srpt.queued is not an array")
                };
                assert!(!queued.is_empty(), "{ctx}: the fixture leaves jobs queued");
                let dropped = queued[1..].to_vec();
                let repeated = [queued.clone(), vec![queued[0].clone()]].concat();
                for (what, edited) in [
                    ("srpt.queued entry dropped", dropped),
                    ("srpt.queued entry repeated", repeated),
                ] {
                    cases.push((
                        what,
                        corrupt_at(&doc, &["srpt", "queued"], Json::Arr(edited)),
                    ));
                }
            }
            for (what, bad) in cases {
                let bad = Snapshot::from_json(&bad)
                    .unwrap_or_else(|e| panic!("{ctx} / {what}: the codec refused it: {e}"));
                let result = restore_run_finalize(&inst, &kind, streaming, &bad);
                assert!(
                    matches!(result, Err(SimError::BadInstance { .. })),
                    "{ctx} / {what}: expected a typed restore error, got {result:?}"
                );
            }
        }
    }
}

/// Applies `edit` to field `field` of the first entry of `srpt.<part>` in
/// a snapshot document. Entry layout: `[key, release, id, idx, size,
/// hetero, nonunit]`, f64 fields as bit patterns.
fn corrupt_srpt_entry(
    doc: &str,
    part: &str,
    field: usize,
    edit: impl FnOnce(&Json) -> Json,
) -> String {
    let mut json = Json::parse(doc).expect("parse snapshot document");
    let Json::Obj(top) = &mut json else {
        panic!("snapshot document is not an object")
    };
    let Some((_, Json::Obj(srpt))) = top.iter_mut().find(|(k, _)| k == "srpt") else {
        panic!("srpt is not an object")
    };
    let Some((_, Json::Arr(entries))) = srpt.iter_mut().find(|(k, _)| k == part) else {
        panic!("srpt.{part} is not an array")
    };
    let Json::Arr(fields) = &mut entries[0] else {
        panic!("srpt.{part} entry is not an array")
    };
    fields[field] = edit(&fields[field]);
    json.render()
}

/// The alive set breaks key ties by reading each entry's arena spec, so a
/// document whose `srpt.running` or `srpt.queued` entry disagrees with
/// its slot's spec on `release`, `id`, or `size` — each still a
/// well-formed value the codec accepts — is refused by restore with a
/// typed error, in both memory modes, rather than resumed into an order
/// the original run never had.
#[test]
fn srpt_entries_that_disagree_with_their_arena_slot_are_refused() {
    let inst = mixed_alpha_fixture(200, 1.5, M);
    let f64_edit = |v: &Json| {
        let x = f64::from_bits(v.as_u64().expect("f64 bits"));
        Json::Num((x + 0.5).to_bits().to_string())
    };
    let id_edit = |v: &Json| Json::Num((v.as_u64().expect("id") + 1_000_000).to_string());
    for streaming in [false, true] {
        let mut policy = PolicyKind::IntermediateSrpt.build();
        let mut source = StaticSource::new(&inst);
        let mut obs = NullObserver;
        let mut engine = Engine::new(
            engine_cfg(streaming),
            policy.as_mut(),
            &mut source,
            &mut obs,
        );
        for _ in 0..120 {
            assert!(engine.step().expect("pre-suspend step"));
        }
        assert!(
            engine.num_alive() > M as usize,
            "the suspend point needs a non-empty queue"
        );
        let doc = engine.snapshot().expect("snapshot").to_json();
        drop(engine);
        let restore = |doc: &str| {
            let snap = Snapshot::from_json(doc).expect("the codec accepts the document");
            let mut policy = PolicyKind::IntermediateSrpt.build();
            let mut source = StaticSource::new(&inst);
            let mut obs = NullObserver;
            let mut resumed = Engine::new(
                engine_cfg(streaming),
                policy.as_mut(),
                &mut source,
                &mut obs,
            );
            resumed.restore(&snap)
        };
        restore(&doc).expect("the untouched document restores");
        for part in ["running", "queued"] {
            for (field, name) in [(1, "release"), (2, "id"), (4, "size")] {
                let bad = match name {
                    "id" => corrupt_srpt_entry(&doc, part, field, id_edit),
                    _ => corrupt_srpt_entry(&doc, part, field, f64_edit),
                };
                match restore(&bad) {
                    Err(SimError::BadInstance { what }) => assert!(
                        what.contains(&format!("srpt.{part}")) && what.contains(name),
                        "streaming {streaming} / {part} / {name}: {what}"
                    ),
                    other => panic!(
                        "streaming {streaming} / {part} / {name}: expected a typed refusal, \
                         got {other:?}"
                    ),
                }
            }
        }
    }
}
