//! The committed workspace must be lint-clean — the same gate CI enforces
//! with `parsched lint`. A failure here means a change introduced a
//! determinism/float-hygiene/registry violation (or left a waiver stale);
//! fix it or waive it inline with a reason.

use std::path::PathBuf;

use parsched_lint::rules::{event_loop_roots, ENGINE_ROOTS};
use parsched_lint::{explain, lint_root, report::render_human, Workspace};

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
/// workspace and pin the coverage; then check that the proof reaches every
/// alive structure's per-event operations through the loop's `AliveSet`
/// bound, which no root names.
#[test]
fn l007_roots_cover_every_engine_entry_point() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root, &[]).expect("workspace readable");
    let graph = ws.graph();
    let roots = event_loop_roots(graph);
    let names: Vec<String> = roots.iter().map(|&id| graph.fns[id].qual_name()).collect();
    for required in ENGINE_ROOTS {
        assert!(
            names.iter().any(|r| r == required),
            "`{required}` missing from the L007 root set; roots resolved: {names:?}"
        );
    }
    let impls = &graph.trait_impls["AliveSet"];
    assert_eq!(impls.len(), 4, "alive structures: {impls:?}");
    for ty in impls {
        for method in ["refresh", "integrate", "complete_due", "walk"] {
            let why = explain(&ws, "L007", &format!("{ty}::{method}")).expect("explainable");
            assert!(
                why.contains("\n  Engine::run_events -> "),
                "`{ty}::{method}` is not reachable from `Engine::run_events`:\n{why}"
            );
        }
    }
}
