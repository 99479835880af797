//! Per-rule fixture pairs: each violating tree under `tests/fixtures/<rule>/`
//! trips exactly its rule, and the `clean/` tree is silent. CI runs the same
//! trees through the `parsched lint --root …` CLI and asserts the exit codes.

use std::path::PathBuf;

use parsched_lint::{lint_root, LintOutcome};

fn fixture(name: &str) -> LintOutcome {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    lint_root(&root, &[]).expect("fixture tree readable")
}

/// Distinct rule ids among a fixture's violations.
fn rules_hit(out: &LintOutcome) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = out.violations.iter().map(|d| d.rule).collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn l001_fixture_trips_only_l001() {
    let out = fixture("l001");
    assert_eq!(rules_hit(&out), vec!["L001"], "{:?}", out.violations);
    // Both forms: the named-accumulator `+=` and the un-annotated `.sum()`.
    assert_eq!(out.violations.len(), 2);
}

#[test]
fn l002_fixture_trips_only_l002() {
    let out = fixture("l002");
    assert_eq!(rules_hit(&out), vec!["L002"], "{:?}", out.violations);
    let msgs: Vec<&str> = out.violations.iter().map(|d| d.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("HashMap")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("Instant")), "{msgs:?}");
}

#[test]
fn l003_fixture_trips_only_l003() {
    let out = fixture("l003");
    assert_eq!(rules_hit(&out), vec!["L003"], "{:?}", out.violations);
    // `speed == 1.0` and `x != f64::INFINITY`.
    assert_eq!(out.violations.len(), 2);
}

#[test]
fn l004_fixture_trips_only_l004() {
    let out = fixture("l004");
    assert_eq!(rules_hit(&out), vec!["L004"], "{:?}", out.violations);
    // Unregistered + missing stability() + missing srpt_ordered().
    assert_eq!(out.violations.len(), 3);
}

#[test]
fn l005_fixture_trips_only_l005() {
    let out = fixture("l005");
    assert_eq!(rules_hit(&out), vec!["L005"], "{:?}", out.violations);
    let msgs: Vec<&str> = out.violations.iter().map(|d| d.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("forbid(unsafe_code)")),
        "{msgs:?}"
    );
    assert!(msgs.iter().any(|m| m.contains("unwrap")), "{msgs:?}");
}

#[test]
fn l006_fixture_trips_only_l006() {
    let out = fixture("l006");
    assert_eq!(rules_hit(&out), vec!["L006"], "{:?}", out.violations);
    // One `.powf(` and one `.powi(` on the hot path.
    assert_eq!(out.violations.len(), 2);
    let msgs: Vec<&str> = out.violations.iter().map(|d| d.message.as_str()).collect();
    assert!(msgs.iter().all(|m| m.contains("PowKernel")), "{msgs:?}");
}

#[test]
fn l007_fixture_trips_only_l007() {
    let out = fixture("l007");
    assert_eq!(rules_hit(&out), vec!["L007"], "{:?}", out.violations);
    // Non-donated push, local-buffer push, panic!, unchecked indexing,
    // the assert reached only via `run_events`'s turbofish call, and the
    // unreachable! reached only through its bound `S: Set` — and NOT the
    // EngineBuffers-donated `completed.push`.
    assert_eq!(out.violations.len(), 6, "{:?}", out.violations);
    let msgs: Vec<&str> = out.violations.iter().map(|d| d.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("panic!")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("indexing")), "{msgs:?}");
    assert!(
        out.violations
            .iter()
            .any(|d| d.message.contains("assert!") && d.message.contains("run_events")),
        "turbofish-only root path not resolved: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("unreachable!") && m.contains("in `refresh`")),
        "call through the bound `S: Set` not resolved: {msgs:?}"
    );
    assert!(
        msgs.iter().all(|m| m.contains("event-loop root")),
        "{msgs:?}"
    );
}

#[test]
fn l008_fixture_trips_only_l008() {
    let out = fixture("l008");
    assert_eq!(rules_hit(&out), vec!["L008"], "{:?}", out.violations);
    // `Instant` and `HashMap` in the reached helpers; the unreached
    // `SystemTime` stays silent.
    assert_eq!(out.violations.len(), 2, "{:?}", out.violations);
    for d in &out.violations {
        assert_eq!(d.path, "crates/analysis/src/util.rs", "{d}");
        assert!(d.message.contains("simulation path"), "{d}");
    }
}

#[test]
fn l009_fixture_trips_only_l009() {
    let out = fixture("l009");
    assert_eq!(rules_hit(&out), vec!["L009"], "{:?}", out.violations);
    // `Engine.peak` off both codec paths + `Srpt` snapshotting without
    // restoring.
    assert_eq!(out.violations.len(), 2, "{:?}", out.violations);
    let msgs: Vec<&str> = out.violations.iter().map(|d| d.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("`Engine.peak`")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("restore_state")), "{msgs:?}");
}

#[test]
fn clean_fixture_is_clean() {
    let out = fixture("clean");
    assert!(out.is_clean(), "{:?}", out.violations);
    assert!(out.files > 0, "clean fixture loaded no files");
}

#[test]
fn diagnostics_carry_real_positions() {
    let out = fixture("l001");
    for d in &out.violations {
        assert!(d.path.starts_with("crates/simcore/src/"), "{d}");
        assert!(d.line > 1, "{d}"); // below the doc comment
        assert!(d.col >= 1, "{d}");
    }
}
