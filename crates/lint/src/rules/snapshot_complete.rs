//! L009 — `parsched-snap/v3` completeness.
//!
//! The snapshot codec round-trips the engine mid-run (suspend/resume,
//! fleet migration). Its failure mode is silent: add a field to `Engine`'s
//! `RunState`, `JobArena`, or an alive structure, forget the codec, and
//! every test that doesn't cross a suspend point still passes — restore
//! just resurrects a subtly different engine. This rule makes the
//! omission a lint error: every field of the participating structs must
//! be *referenced* both somewhere on the render path (reachable from
//! `Engine::snapshot` / `Snapshot::to_value`, the alive structures'
//! `AliveSet::snapshot` included) and somewhere on the parse path
//! (reachable from `Engine::restore` / `Snapshot::from_value`).
//!
//! The check is name-based (an identifier token equal to the field name
//! inside a reachable function body counts), so a field whose name is
//! ubiquitous (`m`) is vacuously covered — the rule under-approximates
//! there, which is documented in docs/LINTS.md. Fields that are
//! *deliberately* not snapshotted (borrowed collaborators, scratch
//! buffers rebuilt on restore) carry inline waivers at their definition
//! line stating why restore fidelity does not need them.
//!
//! A paired check covers policy state: a `Policy` impl that overrides
//! `snapshot_state` without `restore_state` (or vice versa) round-trips
//! to a policy that silently dropped its state.

use std::collections::BTreeSet;

use crate::engine::Workspace;
use crate::lex::TokenKind;
use crate::reach::Reach;
use crate::rules::{diag_at, Rule};
use crate::Diagnostic;

/// Structs participating in `parsched-snap/v3`.
const CHECKED: &[&str] = &[
    "Engine",
    "RunState",
    "JobArena",
    "SrptSet",
    "LevelStack",
    "Level",
    "LevelsSnap",
    "LevelSnap",
    "HeapEntrySnap",
    "Tally",
    "ArrivalSuffix",
    "Group",
    "AliveList",
    "SuffixSnap",
    "GroupSnap",
    "Snapshot",
    "SnapCfg",
    "SnapJob",
    "SetSnap",
    "SinkState",
];

/// Entry points of the render (suspend) path.
const RENDER_ROOTS: &[&str] = &["Engine::snapshot", "Snapshot::to_value"];

/// Entry points of the parse (resume) path.
const PARSE_ROOTS: &[&str] = &["Engine::restore", "Snapshot::from_value"];

/// The L009 rule value.
pub struct SnapshotComplete;

/// The render-path and parse-path identifier sets, or `None` when the
/// workspace has no codec (shared with `--explain`).
pub(crate) fn coverage(ws: &Workspace) -> Option<(BTreeSet<String>, BTreeSet<String>)> {
    let graph = ws.graph();
    let lookup_all =
        |names: &[&str]| -> Vec<usize> { names.iter().flat_map(|n| graph.lookup(n)).collect() };
    let render_roots = lookup_all(RENDER_ROOTS);
    let parse_roots = lookup_all(PARSE_ROOTS);
    if render_roots.is_empty() && parse_roots.is_empty() {
        return None;
    }
    Some((
        reachable_idents(ws, &render_roots),
        reachable_idents(ws, &parse_roots),
    ))
}

/// All identifier tokens inside bodies of functions reachable from
/// `roots`.
fn reachable_idents(ws: &Workspace, roots: &[usize]) -> BTreeSet<String> {
    let graph = ws.graph();
    let reach = Reach::compute(graph, roots, |_| false);
    let mut idents = BTreeSet::new();
    for (id, f) in graph.fns.iter().enumerate() {
        if !reach.contains(id) || f.def.is_test {
            continue;
        }
        let Some((start, end)) = f.def.body else {
            continue;
        };
        let file = &ws.files[f.file];
        for i in start..end.min(file.tokens.len()) {
            if file.tokens[i].kind == TokenKind::Ident {
                idents.insert(file.tok(i).to_string());
            }
        }
    }
    idents
}

impl Rule for SnapshotComplete {
    fn id(&self) -> &'static str {
        "L009"
    }

    fn summary(&self) -> &'static str {
        "parsched-snap/v3 completeness: every field of the snapshot-participating structs is \
         referenced on both the render and parse paths, and Policy snapshot_state/restore_state \
         come in pairs"
    }

    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let graph = ws.graph();
        let Some((render, parse)) = coverage(ws) else {
            return Vec::new(); // No codec in this workspace — rule is inert.
        };
        let mut out = Vec::new();
        for name in CHECKED {
            for s in graph.structs_named(name) {
                if s.def.is_enum {
                    continue;
                }
                let file = &ws.files[s.file];
                for field in &s.def.fields {
                    let in_render = render.contains(&field.name);
                    let in_parse = parse.contains(&field.name);
                    if in_render && in_parse {
                        continue;
                    }
                    let missing = match (in_render, in_parse) {
                        (false, false) => "render or parse path",
                        (false, true) => "render path (Engine::snapshot / Snapshot::to_value)",
                        (true, false) => "parse path (Engine::restore / Snapshot::from_value)",
                        _ => unreachable!(),
                    };
                    out.push(diag_at(
                        file,
                        field.name_tok,
                        self.id(),
                        format!(
                            "field `{}.{}` is not referenced on the parsched-snap/v3 {missing}; \
                             extend the codec or waive here stating why restore fidelity does \
                             not need it",
                            name, field.name
                        ),
                    ));
                }
            }
        }
        // Policy state must round-trip in pairs.
        if let Some(impls) = graph.trait_impls.get("Policy") {
            for ty in impls {
                let snap = graph.lookup(&format!("{ty}::snapshot_state"));
                let rest = graph.lookup(&format!("{ty}::restore_state"));
                let (present, missing) = match (snap.is_empty(), rest.is_empty()) {
                    (false, true) => (snap[0], "restore_state"),
                    (true, false) => (rest[0], "snapshot_state"),
                    _ => continue,
                };
                let f = &graph.fns[present];
                out.push(diag_at(
                    &ws.files[f.file],
                    f.def.name_tok,
                    self.id(),
                    format!(
                        "`{ty}` overrides `{}` without `{missing}`: snapshot round-trip would \
                         silently drop this policy's state",
                        f.def.name
                    ),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{run, Workspace};
    use crate::Diagnostic;

    fn l009(src: &str) -> Vec<Diagnostic> {
        let ws = Workspace::from_memory([("crates/simcore/src/engine.rs", src)]);
        run(&ws)
            .violations
            .into_iter()
            .filter(|d| d.rule == "L009")
            .collect()
    }

    const COMPLETE: &str = "\
pub struct Engine { now: f64, events: u64 }
pub struct Snapshot { now: f64, events: u64 }
impl Engine {
    pub fn snapshot(&self) -> Snapshot { Snapshot { now: self.now, events: self.events } }
    pub fn restore(&mut self, s: &Snapshot) { self.now = s.now; self.events = s.events; }
}
";

    #[test]
    fn complete_codec_is_clean() {
        assert!(l009(COMPLETE).is_empty(), "{:#?}", l009(COMPLETE));
    }

    #[test]
    fn missing_field_flags_at_its_definition() {
        let v = l009(
            "pub struct Engine { now: f64, peak: u64 }\n\
             pub struct Snapshot { now: f64 }\n\
             impl Engine {\n\
                 pub fn snapshot(&self) -> Snapshot { Snapshot { now: self.now } }\n\
                 pub fn restore(&mut self, s: &Snapshot) { self.now = s.now; }\n\
             }\n",
        );
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(v[0].message.contains("`Engine.peak`"), "{}", v[0].message);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn one_sided_reference_names_the_missing_side() {
        let v = l009(
            "pub struct Engine { now: f64, peak: u64 }\n\
             pub struct Snapshot { now: f64, peak: u64 }\n\
             impl Engine {\n\
                 pub fn snapshot(&self) -> Snapshot { Snapshot { now: self.now, peak: self.peak } }\n\
                 pub fn restore(&mut self, s: &Snapshot) { self.now = s.now; }\n\
             }\n",
        );
        // `peak` appears on render only — flagged (twice: Engine.peak and
        // Snapshot.peak) as missing from the parse path.
        assert_eq!(v.len(), 2, "{v:#?}");
        assert!(v.iter().all(|d| d.message.contains("parse path")), "{v:#?}");
    }

    #[test]
    fn unpaired_policy_state_flags() {
        let src = "\
pub struct Engine { now: f64 }
pub struct Snapshot { now: f64 }
impl Engine {
    pub fn snapshot(&self) -> Snapshot { Snapshot { now: self.now } }
    pub fn restore(&mut self, s: &Snapshot) { self.now = s.now; }
}
pub trait Policy { fn go(&self); }
pub struct Srpt;
impl Policy for Srpt {
    fn go(&self) {}
    fn snapshot_state(&self) -> Vec<u8> { Vec::new() }
}
";
        let v = l009(src);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(v[0].message.contains("restore_state"), "{}", v[0].message);
        assert!(v[0].message.contains("`Srpt`"), "{}", v[0].message);
    }

    #[test]
    fn inert_without_a_codec() {
        let v =
            l009("pub struct Engine { hidden: u64 }\nimpl Engine { pub fn run(&mut self) {} }\n");
        assert!(v.is_empty(), "{v:#?}");
    }
}
