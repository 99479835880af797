//! Differential for the exhaustive path's cached completion candidate.
//!
//! An exhaustive refresh computes the earliest `now + remaining/rate`
//! while it validates the policy's shares, and the next `decide` reuses
//! it instead of sweeping the alive set again. The candidate is only the
//! sweep's answer for the clock and remaining work it was computed from,
//! so every advance must drop it, a partial `advance_to` included.
//!
//! Each run here is driven by `next_event_time` and `advance_to`, with
//! every interval split by a partial advance to its midpoint. One arm
//! keeps the engine as it is; the other snapshots it after every partial
//! advance and restores it in place, which drops all derived state. Both
//! must finish bit for bit alike. A candidate that survived the partial
//! advance would answer with the stale `now₀ + rem₀/rate` where the
//! restored engine sweeps `now₁ + rem₁/rate`, and the runs would part in
//! the last bits.

use parsched::PolicyKind;
use parsched_bench::mixed_alpha_fixture;
use parsched_sim::{
    Engine, EngineConfig, EnginePath, Instance, NullObserver, RunMetrics, SimError, StaticSource,
};

const M: f64 = 4.0;

/// Completion order, ids and time bits (empty for streaming runs).
type Completions = Vec<(u64, u64)>;

/// Runs `kind` on `inst` on the exhaustive path, splitting every interval
/// with a partial advance; `restore_each` snapshots and restores the
/// engine after each partial advance.
fn run(
    inst: &Instance,
    kind: PolicyKind,
    streaming: bool,
    restore_each: bool,
) -> Result<(RunMetrics, Completions, u64), SimError> {
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let cfg = EngineConfig::new(M)
        .with_full_reassign(true)
        .with_streaming(streaming);
    let mut engine = Engine::new(cfg, policy.as_mut(), &mut source, &mut obs);
    assert_eq!(engine.path(), EnginePath::Exhaustive);
    let mut partials = 0u64;
    while let Some(t) = engine.next_event_time()? {
        let now = engine.now();
        let mid = now + 0.5 * (t - now);
        if mid <= now || mid >= t {
            engine.advance_to(t)?;
            continue;
        }
        engine.advance_to(mid)?;
        partials += 1;
        if restore_each {
            let snap = engine.snapshot()?;
            engine.restore(&snap)?;
        }
        let Some(t) = engine.next_event_time()? else {
            panic!("{}: run ended inside an interval", kind.name());
        };
        // Asking again without advancing must give the same answer.
        assert_eq!(
            engine.next_event_time()?.map(f64::to_bits),
            Some(t.to_bits())
        );
        engine.advance_to(t)?;
    }
    if streaming {
        let out = engine.into_streaming_outcome()?;
        Ok((out.metrics, Vec::new(), partials))
    } else {
        let out = engine.into_outcome()?;
        let completions = out
            .completed
            .iter()
            .map(|c| (c.id.0, c.completion.to_bits()))
            .collect();
        Ok((out.metrics, completions, partials))
    }
}

#[test]
fn partial_advances_match_a_restored_engine_bit_for_bit() {
    let inst = mixed_alpha_fixture(200, 1.2, M);
    for kind in [
        PolicyKind::Setf,
        PolicyKind::Laps(0.5),
        PolicyKind::Weighted,
        PolicyKind::Random(7),
        PolicyKind::IntermediateSrpt,
    ] {
        for streaming in [false, true] {
            let name = kind.name();
            let kept = run(&inst, kind, streaming, false)
                .unwrap_or_else(|e| panic!("{name} (streaming={streaming}): {e}"));
            let restored = run(&inst, kind, streaming, true)
                .unwrap_or_else(|e| panic!("{name} (streaming={streaming}, restored): {e}"));
            assert!(kept.2 > 100, "{name}: only {} partial advances", kept.2);
            assert_eq!(kept.2, restored.2, "{name}: partial advance counts differ");
            assert_eq!(
                kept.0, restored.0,
                "{name} (streaming={streaming}): metrics diverge"
            );
            assert_eq!(
                kept.1, restored.1,
                "{name} (streaming={streaming}): completion sequence diverges"
            );
        }
    }
}
