//! Wall-clock floors for the incremental path against the exhaustive one
//! (`EngineConfig::with_full_reassign`), Intermediate-SRPT on two
//! 10,000-job fixtures, each arm timed best of three in this process:
//!
//! * overload (`overload_fixture`, load 1.5): incremental ≥ 2.0× the
//!   exhaustive path. The alive set grows into the thousands, so the
//!   observed ratio is in the tens; the floor trips only when O(alive)
//!   work per event comes back.
//! * mixed α (`mixed_alpha_fixture`, load 0.9): incremental ≥ 0.6×. About
//!   nine jobs are alive and mixed curves force Scan intervals, so the
//!   ratio is thin (observed 1–2×); the floor trips only when the
//!   multi-class path collapses.
//!
//! Both are `#[ignore]`d: a timing is only meaningful in a release build
//! with nothing else running, so they stay out of the parallel tier-1
//! harness. Run them with
//!
//! ```text
//! cargo test --release --test engine_complexity_floor -- --ignored --test-threads=1
//! ```
//!
//! The timing-free half of the same property, that these runs stay on the
//! incremental path, never call `assign` and take exactly `2n` events,
//! is `prefix_profile_is_queried_at_most_once_per_alive_count` in
//! `tests/engine_fastpath_differential.rs`.

use std::time::{Duration, Instant};

use parsched::PolicyKind;
use parsched_bench::{mixed_alpha_fixture, overload_fixture};
use parsched_sim::{Engine, EngineConfig, Instance, NullObserver, StaticSource};

const M: f64 = 8.0;

/// The fastest of three runs of Intermediate-SRPT on `inst`, with the
/// run's event count.
fn best_of_three(inst: &Instance, full_reassign: bool) -> (Duration, u64) {
    let mut best = (Duration::MAX, 0);
    for _ in 0..3 {
        let mut policy = PolicyKind::IntermediateSrpt.build();
        let mut source = StaticSource::new(inst);
        let mut obs = NullObserver;
        let cfg = EngineConfig::new(M).with_full_reassign(full_reassign);
        let start = Instant::now();
        let outcome = Engine::new(cfg, policy.as_mut(), &mut source, &mut obs)
            .run()
            .expect("simulation");
        let took = start.elapsed();
        if took < best.0 {
            best = (took, outcome.metrics.events);
        }
    }
    best
}

/// Incremental over exhaustive throughput (events per second) on `inst`.
fn speedup(inst: &Instance) -> f64 {
    let rate = |(took, events): (Duration, u64)| events as f64 / took.as_secs_f64().max(1e-12);
    rate(best_of_three(inst, false)) / rate(best_of_three(inst, true))
}

#[test]
#[ignore = "wall-clock floor: run in release with --ignored --test-threads=1"]
fn incremental_path_is_at_least_2x_the_exhaustive_path_under_overload() {
    let ratio = speedup(&overload_fixture(10_000, M));
    println!("overload incremental/exhaustive = {ratio:.1}x");
    assert!(
        ratio >= 2.0,
        "incremental/exhaustive overload speed-up collapsed: {ratio:.2}x"
    );
}

#[test]
#[ignore = "wall-clock floor: run in release with --ignored --test-threads=1"]
fn incremental_path_is_at_least_0_6x_the_exhaustive_path_on_mixed_alpha() {
    let ratio = speedup(&mixed_alpha_fixture(10_000, 0.9, M));
    println!("mixed-alpha incremental/exhaustive = {ratio:.1}x");
    assert!(
        ratio >= 0.6,
        "incremental/exhaustive mixed-alpha speed-up collapsed: {ratio:.2}x"
    );
}
