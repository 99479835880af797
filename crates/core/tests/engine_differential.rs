//! Differential tests: the incremental `O(log n)`-per-event engine path
//! and the level path must compute the *same schedule* as the legacy
//! full-reassign path.
//!
//! The legacy path (`EngineConfig::with_full_reassign(true)`) calls the
//! policy's `assign` at every event and rebuilds every share from scratch
//! — slow but obviously correct, which makes it the oracle. The
//! incremental path maintains the SRPT order and the allocation profile
//! across events, the level path (SETF) the least-elapsed levels and the
//! served level's common rate, the arrival-suffix path (LAPS) the arrival
//! order and its running suffix; all must agree on every per-job
//! completion time and every aggregate metric. Event *counts* may legitimately differ
//! (the incremental path coalesces some zero-length intervals), so they
//! are deliberately not compared; completion times may differ by float
//! ulps because the two paths evaluate algebraically-equal expressions in
//! different orders.

use parsched::PolicyKind;
use parsched_sim::{
    simulate, simulate_audited, simulate_streaming, Allocation, ArrivalSource, AuditLevel, Engine,
    EngineConfig, EnginePath, Instance, JobId, JobSpec, NullObserver, Observer, RunOutcome,
    StaticSource, SystemView, Time,
};
use parsched_speedup::{Curve, PiecewiseLinear};
use proptest::prelude::*;

/// Relative tolerance for comparing the two paths' float results.
///
/// Both paths are analytically exact; the differences are accumulated
/// rounding from differently-ordered arithmetic, far below 1e-6.
const RTOL: f64 = 1e-6;

fn close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= RTOL * scale.abs().max(1.0)
}

fn run(inst: &Instance, kind: PolicyKind, m: f64, full_reassign: bool) -> RunOutcome {
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    Engine::new(
        EngineConfig::new(m).with_full_reassign(full_reassign),
        policy.as_mut(),
        &mut source,
        &mut obs,
    )
    .run()
    .unwrap_or_else(|e| panic!("{} (full_reassign={full_reassign}): {e}", kind.name()))
}

/// Every registry policy the differential harness sweeps. Policies with
/// `General` stability run the exhaustive path in both configurations, so
/// for them this is a self-consistency check; the SRPT-prefix family
/// (Intermediate/Sequential/Parallel/Threshold-SRPT, EQUI) on the
/// incremental path and SETF on the level path are where the two
/// configurations genuinely diverge in implementation.
fn registry() -> Vec<PolicyKind> {
    let mut kinds = PolicyKind::all_standard();
    kinds.push(PolicyKind::Threshold(2.0));
    kinds
}

/// Asserts the two outcomes describe the same schedule.
fn assert_equivalent(kind: PolicyKind, inc: &RunOutcome, leg: &RunOutcome) {
    let name = kind.name();
    assert_eq!(
        inc.completed.len(),
        leg.completed.len(),
        "{name}: completion counts differ"
    );
    // Compare per-job by id: the two paths may order simultaneous
    // completions differently within one event.
    let mut a: Vec<_> = inc.completed.iter().collect();
    let mut b: Vec<_> = leg.completed.iter().collect();
    a.sort_by_key(|c| c.id);
    b.sort_by_key(|c| c.id);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.id, y.id, "{name}: completed job sets differ");
        assert!(
            close(x.completion, y.completion, y.completion),
            "{name}: job {} completes at {} (incremental) vs {} (legacy)",
            x.id,
            x.completion,
            y.completion
        );
    }
    let (mi, ml) = (&inc.metrics, &leg.metrics);
    for (what, u, v) in [
        ("total_flow", mi.total_flow, ml.total_flow),
        ("fractional_flow", mi.fractional_flow, ml.fractional_flow),
        ("alive_integral", mi.alive_integral, ml.alive_integral),
        ("makespan", mi.makespan, ml.makespan),
        ("max_flow", mi.max_flow, ml.max_flow),
    ] {
        assert!(
            close(u, v, v),
            "{name}: {what} = {u} (incremental) vs {v} (legacy)"
        );
    }
}

/// One generated job: `(release, size, curve selector, alpha)`.
fn job_from(id: u64, raw: (f64, f64, u8, f64)) -> JobSpec {
    let (release, size, which, alpha) = raw;
    let curve = match which % 4 {
        0 => Curve::Sequential,
        1 => Curve::FullyParallel,
        2 => Curve::power(alpha),
        _ => Curve::try_amdahl(alpha.min(0.9)).unwrap(),
    };
    JobSpec::new(JobId(id), release, size, curve)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: incremental ≡ legacy for every registry
    /// policy on random mixed-curve instances.
    #[test]
    fn incremental_matches_legacy_on_random_instances(
        raw in proptest::collection::vec(
            (0.0f64..12.0, 0.1f64..8.0, 0u8..4, 0.05f64..1.0),
            1..24,
        ),
        m_sel in 0u8..3,
    ) {
        let m = [1.0, 2.0, 8.0][m_sel as usize];
        let jobs: Vec<JobSpec> = raw
            .into_iter()
            .enumerate()
            .map(|(i, r)| job_from(i as u64, r))
            .collect();
        let inst = Instance::new(jobs).unwrap();
        for kind in registry() {
            let inc = run(&inst, kind, m, false);
            let leg = run(&inst, kind, m, true);
            assert_equivalent(kind, &inc, &leg);
        }
    }

    /// Arrival bursts landing *exactly* on completion instants, with size
    /// ties: the hardest case for the incremental sorted-insert (the new
    /// job keys collide with the completing front of the SRPT set).
    #[test]
    fn burst_at_completion_instant_matches(
        p in 0.5f64..4.0,
        burst in 2usize..6,
        m_sel in 0u8..2,
    ) {
        let m = [2.0, 4.0][m_sel as usize];
        // Seed jobs: `m` sequential jobs of size p, all released at 0 →
        // each runs at rate 1 and they complete simultaneously at t = p.
        let mut jobs: Vec<JobSpec> = (0..m as u64)
            .map(|i| JobSpec::new(JobId(i), 0.0, p, Curve::Sequential))
            .collect();
        // Burst at exactly t = p, with pairwise-equal sizes to force
        // tie-broken inserts at the boundary.
        for k in 0..burst as u64 {
            jobs.push(JobSpec::new(
                JobId(m as u64 + k),
                p,
                1.0 + (k / 2) as f64,
                if k % 2 == 0 { Curve::Sequential } else { Curve::power(0.5) },
            ));
        }
        let inst = Instance::new(jobs).unwrap();
        for kind in registry() {
            let inc = run(&inst, kind, m, false);
            let leg = run(&inst, kind, m, true);
            assert_equivalent(kind, &inc, &leg);
        }
    }
}

/// Deterministic regression for the sorted-insert boundary: a burst whose
/// members tie with each other *and* with a job completing at the same
/// instant. Simultaneous completions may drain in either order inside one
/// event, so equivalence is per-job by id, never by vector position.
#[test]
fn regression_burst_and_simultaneous_completion_ordering() {
    let m = 2.0;
    let jobs = vec![
        // Both complete at t = 2 simultaneously (rate 1 each).
        JobSpec::new(JobId(0), 0.0, 2.0, Curve::Sequential),
        JobSpec::new(JobId(1), 0.0, 2.0, Curve::Sequential),
        // Burst at exactly t = 2: equal remaining (tie on the sort key,
        // broken by id), one job matching the completing jobs' key space.
        JobSpec::new(JobId(2), 2.0, 1.0, Curve::Sequential),
        JobSpec::new(JobId(3), 2.0, 1.0, Curve::Sequential),
        JobSpec::new(JobId(4), 2.0, 2.0, Curve::power(0.5)),
        // A straggler arriving mid-drain of the burst.
        JobSpec::new(JobId(5), 2.5, 0.25, Curve::FullyParallel),
    ];
    let inst = Instance::new(jobs).unwrap();
    for kind in registry() {
        let inc = run(&inst, kind, m, false);
        let leg = run(&inst, kind, m, true);
        assert_equivalent(kind, &inc, &leg);
        assert_eq!(inc.completed.len(), 6, "{}: all jobs finish", kind.name());
    }
}

/// `simulate` (the convenience entry point) takes the incremental path for
/// SRPT-prefix policies; pin that it agrees with an explicit legacy run.
#[test]
fn simulate_entry_point_agrees_with_legacy() {
    let inst = Instance::from_sizes(
        &[(0.0, 4.0), (0.5, 1.0), (1.0, 2.0), (1.0, 2.0), (3.0, 0.5)],
        Curve::power(0.5),
    )
    .unwrap();
    let mut policy = PolicyKind::IntermediateSrpt.build();
    let inc = simulate(&inst, policy.as_mut(), 4.0).unwrap();
    let leg = run(&inst, PolicyKind::IntermediateSrpt, 4.0, true);
    assert_equivalent(PolicyKind::IntermediateSrpt, &inc, &leg);
}

/// A Poisson-like stream of `n` jobs on `m` processors at about `load`,
/// curves drawn from the power family, Amdahl, the two extremes and a
/// piecewise curve, sizes log-uniform over `[1/4, 16]`.
fn mixed_stream(n: usize, m: f64, load: f64, seed: u64) -> Instance {
    let mut state = seed;
    let mut unit = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let pwl = Curve::Piecewise(
        PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 1.0), (4.0, 2.5), (16.0, 4.0)]).unwrap(),
    );
    let mut t = 0.0;
    let jobs = (0..n)
        .map(|i| {
            let size = 0.25 * 64f64.powf(unit());
            let curve = match (unit() * 7.0) as u32 {
                0 => Curve::power(0.25),
                1 => Curve::power(0.5),
                2 => Curve::power(0.75),
                3 => Curve::try_amdahl(0.1).unwrap(),
                4 => Curve::Sequential,
                5 => Curve::FullyParallel,
                _ => pwl.clone(),
            };
            // Mean size ≈ 3.8 and a unit-speed rate of about √m per
            // busy machine: gaps sized for `load`.
            t += -(1.0 - unit()).ln() * 3.8 / (load * m.sqrt());
            JobSpec::new(JobId(i as u64), t, size, curve)
        })
        .collect();
    Instance::new(jobs).unwrap()
}

/// SETF's level path against its exhaustive oracle on longer mixed-curve
/// streams than the proptests draw, at several loads and machine sizes
/// (fractional included): the same schedule within the tolerance, strict
/// audits clean on the level path, and streaming bit-identical to in
/// memory there.
#[test]
fn setf_level_path_matches_the_exhaustive_oracle_on_mixed_streams() {
    let kind = PolicyKind::Setf;
    for (seed, m, load) in [(1, 2.0, 0.8), (2, 8.0, 0.9), (3, 8.5, 1.3), (4, 4.0, 2.0)] {
        let inst = mixed_stream(300, m, load, seed);
        let mut policy = kind.build();
        let mut source = StaticSource::new(&inst);
        let mut obs = NullObserver;
        let engine = Engine::new(EngineConfig::new(m), policy.as_mut(), &mut source, &mut obs);
        assert_eq!(engine.path(), EnginePath::Levels);
        let levels = engine.run().unwrap();
        let oracle = run(&inst, kind, m, true);
        assert_equivalent(kind, &levels, &oracle);
        let audited = simulate_audited(&inst, kind.build().as_mut(), m, AuditLevel::Strict)
            .unwrap_or_else(|e| panic!("seed {seed}: strict audit on the level path: {e}"));
        assert_eq!(
            audited.metrics.total_flow.to_bits(),
            levels.metrics.total_flow.to_bits()
        );
        let streamed =
            simulate_streaming(&mut StaticSource::new(&inst), kind.build().as_mut(), m).unwrap();
        for (what, a, b) in [
            (
                "total_flow",
                streamed.metrics.total_flow,
                levels.metrics.total_flow,
            ),
            (
                "fractional_flow",
                streamed.metrics.fractional_flow,
                levels.metrics.fractional_flow,
            ),
            (
                "makespan",
                streamed.metrics.makespan,
                levels.metrics.makespan,
            ),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}: streaming {what}");
        }
    }
}

/// Runs `kind` from `source` under `cfg`, asserting the engine path.
fn run_on(
    source: &mut dyn ArrivalSource,
    kind: PolicyKind,
    cfg: EngineConfig,
    path: EnginePath,
) -> RunOutcome {
    let mut policy = kind.build();
    let mut obs = NullObserver;
    let engine = Engine::new(cfg, policy.as_mut(), source, &mut obs);
    assert_eq!(engine.path(), path, "{}", kind.name());
    engine
        .run()
        .unwrap_or_else(|e| panic!("{} on the {path} path: {e}", kind.name()))
}

/// LAPS's arrival-suffix path against its exhaustive oracle on mixed-curve
/// streams (seven curves, so several curve groups run at once), for a
/// small, a non-dyadic and the whole-set β, at unit and augmented speed:
/// the same schedule within the tolerance, strict audits clean on the
/// suffix path, and streaming bit-identical to in memory there.
#[test]
fn laps_arrival_suffix_path_matches_the_exhaustive_oracle() {
    for beta in [0.1, 0.55, 1.0] {
        let kind = PolicyKind::Laps(beta);
        for (seed, m, load, speed) in [
            (1, 2.0, 0.8, 1.0),
            (2, 8.0, 0.9, 1.5),
            (3, 8.5, 1.3, 1.0),
            (4, 4.0, 2.0, 1.5),
        ] {
            let inst = mixed_stream(300, m, load, seed);
            let cfg = EngineConfig::new(m).with_speed(speed);
            let suffix = run_on(
                &mut StaticSource::new(&inst),
                kind,
                cfg,
                EnginePath::ArrivalSuffix,
            );
            let oracle = run_on(
                &mut StaticSource::new(&inst),
                kind,
                cfg.with_full_reassign(true),
                EnginePath::Exhaustive,
            );
            assert_equivalent(kind, &suffix, &oracle);
            let audited = run_on(
                &mut StaticSource::new(&inst),
                kind,
                cfg.with_audit(AuditLevel::Strict),
                EnginePath::ArrivalSuffix,
            );
            assert_eq!(audited.metrics, suffix.metrics, "β {beta} seed {seed}");
            let mut policy = kind.build();
            let mut obs = NullObserver;
            let mut source = StaticSource::new(&inst);
            let streamed = Engine::new(
                cfg.with_streaming(true),
                policy.as_mut(),
                &mut source,
                &mut obs,
            )
            .run_streaming()
            .unwrap();
            assert_eq!(
                streamed.metrics, suffix.metrics,
                "β {beta} seed {seed}: streaming differs from in memory"
            );
        }
    }
}

/// Replays `jobs` grouped by release, each group emitted in the given
/// order over two `emit_into` calls: a streaming source whose admission
/// order need not be `(release, id)` order.
struct Batches {
    jobs: Vec<JobSpec>,
    next: usize,
}

impl ArrivalSource for Batches {
    fn next_time(&self) -> Option<Time> {
        self.jobs.get(self.next).map(|j| j.release)
    }

    fn emit_into(&mut self, _view: &SystemView<'_>, out: &mut Vec<JobSpec>) {
        let Some(release) = self.next_time() else {
            return;
        };
        let end = self.jobs[self.next..]
            .iter()
            .position(|j| j.release != release)
            .map_or(self.jobs.len(), |k| self.next + k);
        // The first half of the batch now, the rest at the next call.
        let half = self.next + (end - self.next).div_ceil(2);
        out.extend_from_slice(&self.jobs[self.next..half]);
        self.next = half;
    }
}

/// Equal-release batches whose ids arrive in descending order: the suffix
/// path links each arrival in behind the jobs of its batch that follow it
/// in `(release, id)` order, and must agree with the exhaustive oracle,
/// which selects the latest arrivals by that order from scratch, and with
/// the same jobs replayed in order from an instance.
#[test]
fn laps_suffix_path_orders_descending_id_batches_by_release_and_id() {
    let mut jobs = Vec::new();
    let mut state = 0x0dd_ba7c_u64;
    let mut unit = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let curves = [Curve::power(0.5), Curve::power(0.25), Curve::Sequential];
    for batch in 0..40u64 {
        let release = batch as f64 * 1.5;
        let size = 1 + (unit() * 6.0) as u64;
        for k in (0..size).rev() {
            jobs.push(JobSpec::new(
                JobId(batch * 100 + k),
                release,
                0.25 + 4.0 * unit(),
                curves[(unit() * 3.0) as usize].clone(),
            ));
        }
    }
    let inst = Instance::new(jobs.clone()).unwrap();
    for beta in [0.1, 0.55, 1.0] {
        let kind = PolicyKind::Laps(beta);
        for m in [2.0, 5.0] {
            let cfg = EngineConfig::new(m);
            let suffix = run_on(
                &mut Batches {
                    jobs: jobs.clone(),
                    next: 0,
                },
                kind,
                cfg.with_audit(AuditLevel::Strict),
                EnginePath::ArrivalSuffix,
            );
            let oracle = run_on(
                &mut Batches {
                    jobs: jobs.clone(),
                    next: 0,
                },
                kind,
                cfg.with_full_reassign(true),
                EnginePath::Exhaustive,
            );
            assert_equivalent(kind, &suffix, &oracle);
            let in_order = run_on(
                &mut StaticSource::new(&inst),
                kind,
                cfg,
                EnginePath::ArrivalSuffix,
            );
            assert_equivalent(kind, &suffix, &in_order);
        }
    }
}

/// SETF on the exhaustive path under speed augmentation: its catch-up
/// quantum is elapsed work at unit speed, which the engine scales by the
/// speed, so the run ends (instead of leapfrogging the tied groups past
/// each other at every quantum) and agrees with the level path.
#[test]
fn setf_exhaustive_path_lands_catch_ups_under_speed_augmentation() {
    let kind = PolicyKind::Setf;
    for (seed, m, load) in [(5, 4.0, 0.8), (6, 8.0, 1.2)] {
        let inst = mixed_stream(300, m, load, seed);
        let cfg = EngineConfig::new(m)
            .with_speed(1.5)
            .with_max_events(200_000);
        let levels = run_on(&mut StaticSource::new(&inst), kind, cfg, EnginePath::Levels);
        let oracle = run_on(
            &mut StaticSource::new(&inst),
            kind,
            cfg.with_full_reassign(true),
            EnginePath::Exhaustive,
        );
        assert_equivalent(kind, &levels, &oracle);
    }
}

/// Advances `engine` to the event time `t` the lockstep driver chose.
fn lockstep_advance(engine: &mut Engine<'_>, t: Time, ctx: &str) {
    engine
        .advance_to(t)
        .unwrap_or_else(|e| panic!("{ctx}: advance_to({t}): {e}"));
}

/// The alive set as `id → remaining` through both query paths of one
/// engine: `alive_snapshot` must list `num_alive` distinct jobs, and
/// `remaining_of` must report what the snapshot lists for each.
fn alive_by_id(engine: &mut Engine<'_>, ctx: &str) -> Vec<(JobId, f64, f64)> {
    let mut alive: Vec<_> = engine
        .alive_snapshot()
        .into_iter()
        .map(|a| (a.id, a.remaining, a.size))
        .collect();
    alive.sort_by_key(|a| a.0);
    assert_eq!(alive.len(), engine.num_alive(), "{ctx}: num_alive");
    assert!(
        alive.windows(2).all(|w| w[0].0 != w[1].0),
        "{ctx}: alive_snapshot lists a job twice"
    );
    for &(id, remaining, _) in &alive {
        assert_eq!(
            engine.remaining_of(id).map(f64::to_bits),
            Some(remaining.to_bits()),
            "{ctx}: remaining_of({id}) disagrees with alive_snapshot"
        );
    }
    alive
}

/// Every incremental path's queries against the exhaustive oracle, event
/// by event: the two engines run in lockstep (`next_event_time` on both,
/// then `advance_to` the earlier of the two), and after every step they
/// must agree on the alive set and on each alive job's remaining work
/// within the suite's tolerance. A job one path has just completed and
/// the other has not yet may differ only by a sliver of remaining work.
/// Intermediate-SRPT runs mixed curves, so Scan intervals occur; SETF
/// exercises the level stack, LAPS(0.55) the arrival suffix; each in
/// both memory modes.
#[test]
fn per_path_queries_match_the_exhaustive_oracle_in_lockstep() {
    for (kind, path) in [
        (PolicyKind::IntermediateSrpt, EnginePath::Incremental),
        (PolicyKind::Setf, EnginePath::Levels),
        (PolicyKind::Laps(0.55), EnginePath::ArrivalSuffix),
    ] {
        for streaming in [false, true] {
            let (m, n) = (4.0, 150);
            let inst = mixed_stream(n, m, 1.1, 11);
            let cfg = EngineConfig::new(m).with_streaming(streaming);
            let ctx = format!("{} ({path} path, streaming {streaming})", kind.name());
            let (mut pa, mut pb) = (kind.build(), kind.build());
            let (mut sa, mut sb) = (StaticSource::new(&inst), StaticSource::new(&inst));
            let (mut oa, mut ob) = (NullObserver, NullObserver);
            let mut fast = Engine::new(cfg, pa.as_mut(), &mut sa, &mut oa);
            let mut oracle =
                Engine::new(cfg.with_full_reassign(true), pb.as_mut(), &mut sb, &mut ob);
            assert_eq!(fast.path(), path, "{ctx}");
            assert_eq!(oracle.path(), EnginePath::Exhaustive, "{ctx}");
            let mut steps = 0u64;
            loop {
                let ta = fast.next_event_time().expect("next event (fast)");
                let tb = oracle.next_event_time().expect("next event (oracle)");
                let t = match (ta, tb) {
                    (None, None) => break,
                    (Some(a), Some(b)) => a.min(b),
                    (a, b) => a.or(b).expect("one side has an event"),
                };
                lockstep_advance(&mut fast, t, &ctx);
                lockstep_advance(&mut oracle, t, &ctx);
                steps += 1;
                let at = format!("{ctx} at t = {t}");
                let a = alive_by_id(&mut fast, &at);
                let b = alive_by_id(&mut oracle, &at);
                // The union of both alive sets, each id once.
                let mut ids: Vec<JobId> = a.iter().chain(&b).map(|j| j.0).collect();
                ids.sort();
                ids.dedup();
                for id in ids {
                    let size = a.iter().chain(&b).find(|j| j.0 == id).map_or(1.0, |j| j.2);
                    let ra = fast.remaining_of(id).unwrap_or(0.0);
                    let rb = oracle.remaining_of(id).unwrap_or(0.0);
                    assert!(
                        close(ra, rb, size),
                        "{at}: job {id} has {ra} left on the {path} path, {rb} on the oracle"
                    );
                }
            }
            assert!(fast.is_finished() && oracle.is_finished(), "{ctx}");
            assert!(
                steps as usize >= 2 * n,
                "{ctx}: only {steps} lockstep events"
            );
        }
    }
}

/// What a [`ViewRecorder`] saw at one arrival round: the clock, the
/// view's `num_alive`, the number of jobs its `for_each` visited, and the
/// visited `(id, remaining)` pairs sorted by id.
type ViewRound = (Time, usize, usize, Vec<(JobId, f64)>);

/// Replays an instance and reads the whole system view at every arrival
/// round, as an adaptive adversary may.
struct ViewRecorder {
    inner: StaticSource,
    rounds: Vec<ViewRound>,
}

impl ArrivalSource for ViewRecorder {
    fn next_time(&self) -> Option<Time> {
        self.inner.next_time()
    }

    fn emit_into(&mut self, view: &SystemView<'_>, out: &mut Vec<JobSpec>) {
        let mut seen = Vec::new();
        view.for_each(|j| seen.push((j.id(), j.remaining)));
        // The compensated total folds the same walk in the same order.
        let mut sum = parsched_sim::NeumaierSum::new();
        seen.iter().for_each(|&(_, r)| sum.add(r));
        assert_eq!(
            view.remaining_work_where(|_| true).to_bits(),
            sum.value().to_bits(),
            "at t = {}: remaining_work_where disagrees with for_each",
            view.now
        );
        let visited = seen.len();
        seen.sort_by_key(|j| j.0);
        self.rounds
            .push((view.now, view.num_alive(), visited, seen));
        self.inner.emit_into(view, out);
    }
}

/// Runs `kind` from a [`ViewRecorder`] over `inst` under `cfg` in the
/// given memory mode, asserting the path; returns the recorded rounds.
fn view_rounds(
    inst: &Instance,
    kind: PolicyKind,
    cfg: EngineConfig,
    streaming: bool,
    path: EnginePath,
) -> Vec<ViewRound> {
    let mut source = ViewRecorder {
        inner: StaticSource::new(inst),
        rounds: Vec::new(),
    };
    let mut policy = kind.build();
    let mut obs = NullObserver;
    let cfg = cfg.with_streaming(streaming);
    let engine = Engine::new(cfg, policy.as_mut(), &mut source, &mut obs);
    assert_eq!(engine.path(), path, "{}", kind.name());
    let run = if streaming {
        engine.run_streaming().map(drop)
    } else {
        engine.run().map(drop)
    };
    run.unwrap_or_else(|e| panic!("{} on the {path} path: {e}", kind.name()));
    source.rounds
}

/// Every path hands a view-reading source the same system: at each
/// arrival round, `num_alive` equals the number of jobs `for_each`
/// visits, and the alive jobs with their remaining work agree with the
/// exhaustive oracle's within the suite's tolerance. Intermediate-SRPT
/// walks the SRPT set, SETF the level stack, LAPS(0.5) the arrival suffix
/// and Greedy the exhaustive list, each in both memory modes.
#[test]
fn every_path_hands_sources_the_same_system_view() {
    let (m, n) = (4.0, 150);
    let inst = mixed_stream(n, m, 1.1, 17);
    for (kind, path) in [
        (PolicyKind::IntermediateSrpt, EnginePath::Incremental),
        (PolicyKind::Setf, EnginePath::Levels),
        (PolicyKind::Laps(0.5), EnginePath::ArrivalSuffix),
        (PolicyKind::Greedy, EnginePath::Exhaustive),
    ] {
        for streaming in [false, true] {
            let ctx = format!("{} ({path} path, streaming {streaming})", kind.name());
            let cfg = EngineConfig::new(m);
            let fast = view_rounds(&inst, kind, cfg, streaming, path);
            let oracle = view_rounds(
                &inst,
                kind,
                cfg.with_full_reassign(true),
                streaming,
                EnginePath::Exhaustive,
            );
            assert_eq!(fast.len(), oracle.len(), "{ctx}: arrival rounds");
            assert!(
                fast.iter().any(|r| r.1 > 1),
                "{ctx}: no round saw more than one alive job"
            );
            for (a, b) in fast.iter().zip(&oracle) {
                let at = format!("{ctx} at t = {}", a.0);
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "{at}: round clock");
                assert_eq!(a.1, a.2, "{at}: num_alive vs for_each count");
                assert_eq!(b.1, b.2, "{at}: oracle num_alive vs for_each count");
                assert_eq!(
                    a.3.iter().map(|j| j.0).collect::<Vec<_>>(),
                    b.3.iter().map(|j| j.0).collect::<Vec<_>>(),
                    "{at}: alive ids"
                );
                for (&(id, ra), &(_, rb)) in a.3.iter().zip(&b.3) {
                    let size = inst.jobs()[id.0 as usize].size;
                    assert!(
                        close(ra, rb, size),
                        "{at}: job {id} has {ra} left on the {path} path, {rb} on the oracle"
                    );
                }
            }
        }
    }
}

/// One [`Observer::on_allocation`] call: its clock and the alive jobs
/// with their shares, sorted by id.
type AllocationCall = (Time, Vec<(JobId, f64)>);

/// Records every allocation the engine hands its observer.
#[derive(Default)]
struct AllocationLog {
    calls: Vec<AllocationCall>,
}

impl Observer for AllocationLog {
    fn on_allocation(&mut self, t: Time, alloc: &Allocation<'_>) {
        let mut shares = Vec::new();
        alloc.for_each(|j, share| shares.push((j.id(), share)));
        shares.sort_by_key(|s| s.0);
        self.calls.push((t, shares));
    }
}

/// Runs `kind` over `inst` under `cfg` in the given memory mode with an
/// [`AllocationLog`]; returns the path it took and the recorded calls.
fn allocation_calls(
    inst: &Instance,
    kind: PolicyKind,
    cfg: EngineConfig,
    streaming: bool,
) -> (EnginePath, Vec<AllocationCall>) {
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut log = AllocationLog::default();
    let engine = Engine::new(
        cfg.with_streaming(streaming),
        policy.as_mut(),
        &mut source,
        &mut log,
    );
    let path = engine.path();
    let run = if streaming {
        engine.run_streaming().map(drop)
    } else {
        engine.run().map(drop)
    };
    run.unwrap_or_else(|e| panic!("{} on the {path} path: {e}", kind.name()));
    (path, log.calls)
}

/// Every path hands an observer the same allocation stream as the
/// exhaustive oracle: the same number of `on_allocation` calls, each at a
/// close clock, over the same alive jobs with close shares. Watching a run
/// leaves it on its policy's path, so this covers the incremental, level
/// and arrival-suffix paths, in both memory modes.
#[test]
fn every_path_hands_observers_the_same_allocation() {
    let mut kinds = registry();
    kinds.push(PolicyKind::Laps(0.55));
    let mut paths = Vec::new();
    for (m, load, seed) in [(4.0, 1.1, 17), (3.0, 0.8, 5), (8.0, 1.5, 9)] {
        let inst = mixed_stream(200, m, load, seed);
        for &kind in &kinds {
            for streaming in [false, true] {
                let cfg = EngineConfig::new(m);
                let (path, fast) = allocation_calls(&inst, kind, cfg, streaming);
                if !paths.contains(&path) {
                    paths.push(path);
                }
                let ctx = format!(
                    "{} ({path} path, m {m}, seed {seed}, streaming {streaming})",
                    kind.name()
                );
                let (_, oracle) =
                    allocation_calls(&inst, kind, cfg.with_full_reassign(true), streaming);
                assert!(fast.len() > inst.len(), "{ctx}: {} calls", fast.len());
                assert_eq!(fast.len(), oracle.len(), "{ctx}: allocation calls");
                for ((ta, a), (tb, b)) in fast.iter().zip(&oracle) {
                    let at = format!("{ctx} at t = {tb}");
                    assert!(close(*ta, *tb, *tb), "{at}: clock {ta}");
                    assert!(!a.is_empty(), "{at}: an allocation over no job");
                    assert_eq!(
                        a.iter().map(|s| s.0).collect::<Vec<_>>(),
                        b.iter().map(|s| s.0).collect::<Vec<_>>(),
                        "{at}: alive ids"
                    );
                    for (&(id, sa), &(_, sb)) in a.iter().zip(b) {
                        assert!(
                            close(sa, sb, m),
                            "{at}: job {id} holds {sa} on the {path} path, {sb} on the oracle"
                        );
                    }
                }
            }
        }
    }
    assert_eq!(paths.len(), 4, "paths covered: {paths:?}");
}
