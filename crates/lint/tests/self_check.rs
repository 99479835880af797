//! The committed workspace must be lint-clean — the same gate CI enforces
//! with `parsched lint`. A failure here means a change introduced a
//! determinism/float-hygiene/registry violation (or left a waiver stale);
//! fix it or waive it inline with a reason.

use std::path::PathBuf;

use parsched_lint::rules::event_loop_roots;
use parsched_lint::{lint_root, report::render_human, Workspace};

#[test]
fn workspace_is_lint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = lint_root(&root, &[]).expect("workspace readable");
    assert!(out.files >= 50, "suspiciously few files: {}", out.files);
    assert!(
        out.is_clean(),
        "workspace lint failures:\n{}",
        render_human(&out)
    );
}

/// L007's proof is only as good as its root set: if a rename or refactor
/// drops an `Engine::run*` entry point out of the symbol index, the rule
/// silently proves nothing about it. Resolve the roots over the real
/// workspace and pin the coverage.
#[test]
fn l007_roots_cover_every_engine_entry_point() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root, &[]).expect("workspace readable");
    let graph = ws.graph();
    let roots: Vec<String> = event_loop_roots(graph)
        .into_iter()
        .map(|id| graph.fns[id].qual_name())
        .collect();
    for required in [
        "Engine::run",
        "Engine::run_reusing",
        "Engine::run_streaming",
        "Engine::run_streaming_reusing",
        "Engine::run_loop",
        "Engine::run_events",
        "Engine::step",
    ] {
        assert!(
            roots.iter().any(|r| r == required),
            "`{required}` missing from the L007 root set; roots resolved: {roots:?}"
        );
    }
    // The SRPT-set mutation surface is part of the proof too.
    assert!(
        roots.iter().any(|r| r.starts_with("SrptSet::")),
        "no SrptSet mutation roots resolved: {roots:?}"
    );
}
