//! L007 — panic- and allocation-freedom of the event loop, proven over
//! the call graph.
//!
//! After warm-up, stepping events must neither allocate nor panic
//! (docs/PERF.md §6). The counting-allocator test checks that for the
//! configurations it runs; this rule checks it statically. Every function
//! reachable from [`ENGINE_ROOTS`] (the alive structures included, through
//! the `AliveSet` bounds of the monomorphized loop) is checked for panic
//! sinks (`unwrap`/`expect`, panic macros, unchecked indexing) and
//! allocation sinks (`Vec::push`, `Box::new`, `format!`, …), with three
//! exemptions:
//!
//! * **Donated state.** A buffer donated through [`EngineBuffers`] keeps
//!   its capacity across runs, so pushing to it (`self.completed.push(x)`)
//!   or indexing one of its lanes by an arena slot is the zero-alloc
//!   mechanism itself. The exempt names are derived from the
//!   `EngineBuffers` field closure in the symbol index, so they never go
//!   stale; a donated type's own `self` calls are exempt likewise.
//! * **Caller-donated parameters.** An allocating method on a parameter
//!   (`out.push(job)` in `emit_into(&mut self, out: &mut Vec<Job>)`) grows
//!   a buffer the caller owns, and the caller is checked. Indexing a
//!   parameter is not exempt: bounds are a panic question.
//! * **Instrumentation boundary.** `Observer` impls, the `Auditor`, and
//!   `Engine::build_audit_frame` / `check_final_audit` run only in
//!   observed or audited configurations, outside the contract. They are
//!   reachable but not traversed.
//!
//! Anything else that fires is a violation or an over-approximation
//! carrying an inline waiver with its reason.

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::engine::Workspace;
use crate::parse::CallKind;
use crate::reach::Reach;
use crate::rules::{diag_at, Rule};
use crate::Diagnostic;

/// The event-loop entry points. `run_loop` is the shared driver behind
/// the five `run*` finalizers and `run_events` the one monomorphized
/// event loop that it and `step` instantiate; both are listed so the
/// proof keeps covering them if the finalizers delegate differently.
pub const ENGINE_ROOTS: &[&str] = &[
    "Engine::run",
    "Engine::run_reusing",
    "Engine::run_streaming",
    "Engine::run_streaming_reusing",
    "Engine::run_metrics_reusing",
    "Engine::run_loop",
    "Engine::run_events",
    "Engine::step",
];

/// Methods that panic on `None`/`Err`.
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros that panic (note: `debug_assert*` compiles out of release
/// builds, which is what the perf contract measures — allowed).
const PANIC_MACROS: &[&str] = &[
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "assert!",
    "assert_eq!",
    "assert_ne!",
];

/// Method names that (re)allocate on std collections/strings.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_str",
    "insert",
    "append",
    "extend",
    "extend_from_slice",
    "resize",
    "reserve",
    "reserve_exact",
    "split_off",
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
    "into_boxed_slice",
    "with_capacity",
];

/// Qualified constructors that allocate.
const ALLOC_QUALIFIED: &[&str] = &[
    "Box::new",
    "Rc::new",
    "Arc::new",
    "String::from",
    "Vec::from",
    "String::from_utf8",
    "String::from_utf8_lossy",
];

/// Macros that allocate (or do I/O, which the loop must not).
const ALLOC_MACROS: &[&str] = &[
    "format!",
    "vec!",
    "println!",
    "print!",
    "eprintln!",
    "eprint!",
];

/// The L007 root set: [`ENGINE_ROOTS`] as resolved in the symbol index.
pub fn event_loop_roots(graph: &CallGraph) -> Vec<usize> {
    ENGINE_ROOTS.iter().flat_map(|r| graph.lookup(r)).collect()
}

/// The instrumentation boundary: reachable, but calls inside are not
/// followed (see module docs).
pub(crate) fn is_boundary(graph: &CallGraph, id: usize) -> bool {
    let f = &graph.fns[id];
    if let Some(owner) = f.def.owner.as_deref() {
        if owner == "Observer" || owner == "Auditor" || graph.implements(owner, "Observer") {
            return true;
        }
        if owner == "Engine"
            && matches!(
                f.def.name.as_str(),
                "build_audit_frame" | "check_final_audit"
            )
        {
            return true;
        }
    }
    false
}

/// Names of buffers donated through `EngineBuffers`: its fields plus,
/// transitively, the fields of every workspace type appearing in those
/// fields' types; and the names of those types.
pub(crate) fn donated_names(graph: &CallGraph) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut names = BTreeSet::new();
    let mut seen_types: BTreeSet<String> = BTreeSet::new();
    let mut worklist: Vec<String> = vec!["EngineBuffers".to_string()];
    while let Some(ty) = worklist.pop() {
        if !seen_types.insert(ty.clone()) {
            continue;
        }
        for s in graph.structs_named(&ty) {
            for field in &s.def.fields {
                if !s.def.is_enum {
                    names.insert(field.name.clone());
                }
                for t in &field.ty_idents {
                    if !seen_types.contains(t) && !graph.structs_named(t).is_empty() {
                        worklist.push(t.clone());
                    }
                }
            }
        }
    }
    (names, seen_types)
}

/// The L007 rule value.
pub struct EventLoopReachability;

impl Rule for EventLoopReachability {
    fn id(&self) -> &'static str {
        "L007"
    }

    fn summary(&self) -> &'static str {
        "panic or allocation reachable from an event-loop root (Engine::run*/step); the \
         steady-state loop must be panic- and alloc-free"
    }

    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let graph = ws.graph();
        let roots = event_loop_roots(graph);
        if roots.is_empty() {
            return Vec::new();
        }
        let reach = Reach::compute(graph, &roots, |id| is_boundary(graph, id));
        let (donated, donated_types) = donated_names(graph);
        let mut out = Vec::new();
        for (id, f) in graph.fns.iter().enumerate() {
            // Boundary fns are reachable but are instrumentation — their
            // bodies are outside the steady-state contract.
            if !reach.contains(id) || f.def.is_test || is_boundary(graph, id) {
                continue;
            }
            let file = &ws.files[f.file];
            let root = reach
                .path_to(id)
                .and_then(|p| p.first().map(|&r| graph.fns[r].qual_name()))
                .unwrap_or_default();
            let here = f.def.name.clone();
            for call in &graph.resolved[id] {
                let site = &call.site;
                let qual = site.qualified_name();
                let self_donated = f
                    .def
                    .owner
                    .as_ref()
                    .is_some_and(|o| donated_types.contains(o));
                let donated_recv = site
                    .receiver
                    .as_deref()
                    .is_some_and(|r| donated.contains(r) || (r == "self" && self_donated));
                // Caller-donated buffer (see module docs): exempts alloc
                // methods only, never indexing, and never a value typed by
                // a chain head (`S::of_mut(…).push(x)`).
                let param_recv = site.receiver.as_deref().is_some_and(|r| {
                    r.starts_with(char::is_lowercase) && f.def.params.iter().any(|(p, _)| p == r)
                });
                let hit: Option<String> = match &site.kind {
                    CallKind::Method(n) | CallKind::Plain(n)
                        if PANIC_METHODS.contains(&n.as_str()) =>
                    {
                        Some(format!("`.{n}()` can panic"))
                    }
                    CallKind::Macro(_) if PANIC_MACROS.contains(&qual.as_str()) => {
                        Some(format!("`{qual}` panics"))
                    }
                    CallKind::Macro(_) if ALLOC_MACROS.contains(&qual.as_str()) => {
                        Some(format!("`{qual}` allocates"))
                    }
                    CallKind::Method(n) if ALLOC_METHODS.contains(&n.as_str()) => {
                        if donated_recv || param_recv {
                            None
                        } else {
                            Some(format!(
                                "`.{n}()` may allocate (receiver is not EngineBuffers-donated state)"
                            ))
                        }
                    }
                    CallKind::Qualified { .. }
                        if ALLOC_QUALIFIED.contains(&qual.as_str())
                            || ALLOC_METHODS
                                .iter()
                                .any(|m| qual.ends_with(&format!("::{m}"))) =>
                    {
                        Some(format!("`{qual}` allocates"))
                    }
                    CallKind::Index => {
                        if donated_recv {
                            None
                        } else {
                            Some(
                                "unchecked indexing can panic out-of-bounds (base is not a \
                                 donated SoA lane)"
                                    .to_string(),
                            )
                        }
                    }
                    _ => None,
                };
                if let Some(what) = hit {
                    out.push(diag_at(
                        file,
                        site.tok,
                        self.id(),
                        format!(
                            "{what} in `{here}`, reachable from event-loop root `{root}` \
                             (path: `parsched lint --explain L007 {here}`); the steady-state \
                             loop must be panic- and alloc-free"
                        ),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, Workspace};

    const ENGINE_SRC: &str = "\
pub struct JobArena { remaining: Vec<f64> }
pub struct EngineBuffers { jobs: JobArena, completed: Vec<u64> }
pub struct Engine { jobs: JobArena, completed: Vec<u64>, log: Vec<u64> }
impl Engine {
    pub fn run(&mut self) { self.step(); }
    pub fn step(&mut self) {
        self.completed.push(1);
        self.log.push(2);
        let x = peek_first(&self.jobs.remaining);
        let _ = x;
    }
}
fn peek_first(xs: &[f64]) -> f64 { xs[0] }
";

    fn outcome(src: &str) -> Vec<Diagnostic> {
        let ws = Workspace::from_memory([("crates/simcore/src/engine.rs", src)]);
        run(&ws)
            .violations
            .into_iter()
            .filter(|d| d.rule == "L007")
            .collect()
    }

    #[test]
    fn donated_push_is_exempt_and_others_flag() {
        let v = outcome(ENGINE_SRC);
        // `log` is not an EngineBuffers field; `xs[0]` is not a donated
        // lane. `completed.push` is donated.
        assert_eq!(v.len(), 2, "{v:#?}");
        assert!(v.iter().any(|d| d.message.contains("`.push()`")), "{v:#?}");
        assert!(v.iter().any(|d| d.message.contains("indexing")), "{v:#?}");
    }

    #[test]
    fn unreachable_code_is_ignored() {
        let v = outcome(
            "pub struct Engine;\nimpl Engine { pub fn run(&mut self) {} }\n\
             fn island() { let v: Vec<u32> = vec![]; v.to_vec().reverse(); helper().unwrap(); }\n\
             fn helper() -> Option<u32> { None }\n",
        );
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn observer_impls_are_a_traversal_boundary() {
        let v = outcome(
            "pub trait Observer { fn on_advance(&mut self); }\n\
             pub struct Trace; impl Observer for Trace {\n\
                 fn on_advance(&mut self) { self.samples.push(1); }\n}\n\
             pub struct Engine;\nimpl Engine { pub fn run(&mut self) { self.obs.on_advance(); } }\n",
        );
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn panic_macros_and_unwrap_flag_transitively() {
        let v = outcome(
            "pub struct Engine;\nimpl Engine { pub fn run(&mut self) { helper(); } }\n\
             fn helper() { deep(); }\nfn deep() { panic!(\"boom\"); }\n",
        );
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(v[0].message.contains("panic!"));
    }
}
