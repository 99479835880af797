//! Workspace symbol index and conservative call-graph resolution.
//!
//! Every file's [`crate::parse::FileItems`] are merged into one flat
//! function table with name- and `(owner, name)`-keyed lookup maps, and
//! every call site is resolved against it. Resolution is deliberately
//! **conservative**, but *typed* where the source gives us types for free:
//!
//! * a method call `.name(…)` resolves through its receiver's candidate
//!   types: `self.name(…)` links the enclosing impl's method; `x.name(…)`
//!   links `T::name` for every type `T` that a caller parameter named `x`
//!   or a workspace struct field named `x` declares. Candidate types that
//!   are trait names expand to every `impl Trait for T` method (dynamic
//!   dispatch stays over-approximated). Every method call additionally
//!   stays an *open edge*, because the receiver may be a `std` type
//!   (`Vec::push` and `SrptSet::push` are indistinguishable at a `.push(`
//!   site) or a local whose type the lexical analyzer cannot see;
//! * type bounds, aliases and chain heads type receivers and qualified
//!   heads: a type parameter stands for its bounds, an alias (the
//!   engine's `type $S = SrptSet;` arms included) for its targets, and
//!   `Head::f(…).g(…)` is typed by `Head`. So `S::of_mut(…).refresh(cx)`
//!   in `Engine::refresh::<S: AliveSet>` reaches every `AliveSet` impl. In
//!   generic code a receiver with no visible type takes the bounds;
//! * a call that resolves to nothing in the workspace is an explicit open
//!   edge carrying its (qualified) name. Rules match sink names against
//!   open edges, so leaving the workspace never silently drops a
//!   forbidden call — it is either followed or named.
//!
//! Receiver typing exists because the earlier name-only scheme (`.len(`
//! links every workspace `len`) manufactured false bridges between
//! unrelated crates — `CalendarQueue::settle → TrapStreamSource::len`,
//! `f64::round → FleetSession::round` — flooding the reachability rules.
//! Residual false edges from shared field/param names are accepted: they
//! only make reachability *larger*, never smaller, which is the safe
//! direction for deny-by-default rules. Sink matching at call sites stays
//! name-based, so a forbidden `.push(`/`.unwrap()` is caught even when it
//! resolves to nothing.

use std::collections::BTreeMap;

use crate::parse::{parse_items, CallKind, CallSite, FnDef, StructDef};
use crate::source::SourceFile;

/// One function in the workspace index.
#[derive(Debug)]
pub struct FnInfo {
    /// Index of the defining file in the workspace's file list.
    pub file: usize,
    /// The parsed definition (owner, body span, call sites, …).
    pub def: FnDef,
}

impl FnInfo {
    /// `Owner::name` or plain `name` — the display form used in
    /// diagnostics and `--explain` paths.
    pub fn qual_name(&self) -> String {
        match &self.def.owner {
            Some(o) => format!("{o}::{}", self.def.name),
            None => self.def.name.clone(),
        }
    }
}

/// One struct/enum in the workspace index.
#[derive(Debug)]
pub struct StructInfo {
    /// Index of the defining file.
    pub file: usize,
    /// The parsed definition.
    pub def: StructDef,
}

/// A call site with its workspace resolution.
#[derive(Debug)]
pub struct ResolvedCall {
    /// The syntactic site.
    pub site: CallSite,
    /// Workspace functions this call may invoke (empty if none matched).
    pub targets: Vec<usize>,
    /// Whether the call may also leave the workspace (method calls
    /// always; unresolved plain/qualified calls and macros too).
    pub open: bool,
}

/// The whole-workspace symbol index + resolved call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All functions (test functions included, flagged via `def.is_test`).
    pub fns: Vec<FnInfo>,
    /// All structs/enums.
    pub structs: Vec<StructInfo>,
    /// Non-test functions by bare name.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Non-test functions by `(owner, name)`.
    pub by_owner_name: BTreeMap<(String, String), Vec<usize>>,
    /// Non-test structs/enums by name.
    pub struct_ids: BTreeMap<String, Vec<usize>>,
    /// Trait name → self types with an `impl Trait for Type` block.
    pub trait_impls: BTreeMap<String, Vec<String>>,
    /// Field name → type identifiers it is declared with anywhere in the
    /// workspace (non-test structs only). Gives `x.name(…)` receiver
    /// candidates when `x` is a struct field.
    pub field_types: BTreeMap<String, Vec<String>>,
    /// Type alias → the types it is declared as anywhere in the workspace.
    pub aliases: BTreeMap<String, Vec<String>>,
    /// Per-function resolved call sites (parallel to `fns`).
    pub resolved: Vec<Vec<ResolvedCall>>,
    /// Per-function deduplicated adjacency (parallel to `fns`).
    pub edges: Vec<Vec<usize>>,
    /// Names of calls that resolved to nothing in the workspace, with
    /// occurrence counts — the open-edge report.
    pub unresolved_names: BTreeMap<String, usize>,
}

impl CallGraph {
    /// Builds the index and resolves every call site.
    pub fn build(files: &[SourceFile]) -> Self {
        let mut g = CallGraph::default();
        for (fi, file) in files.iter().enumerate() {
            let items = parse_items(file);
            for (alias, target) in items.aliases {
                let entry = g.aliases.entry(alias).or_default();
                if !entry.contains(&target) {
                    entry.push(target);
                }
            }
            for imp in &items.impls {
                if let Some(tr) = &imp.trait_name {
                    let entry = g.trait_impls.entry(tr.clone()).or_default();
                    if !entry.contains(&imp.self_ty) {
                        entry.push(imp.self_ty.clone());
                    }
                }
            }
            for s in items.structs {
                let id = g.structs.len();
                if !s.is_test {
                    g.struct_ids.entry(s.name.clone()).or_default().push(id);
                    if !s.is_enum {
                        for field in &s.fields {
                            let entry = g.field_types.entry(field.name.clone()).or_default();
                            for ty in &field.ty_idents {
                                if !entry.contains(ty) {
                                    entry.push(ty.clone());
                                }
                            }
                        }
                    }
                }
                g.structs.push(StructInfo { file: fi, def: s });
            }
            for f in items.fns {
                let id = g.fns.len();
                if !f.is_test {
                    g.by_name.entry(f.name.clone()).or_default().push(id);
                    if let Some(owner) = &f.owner {
                        g.by_owner_name
                            .entry((owner.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                    }
                }
                g.fns.push(FnInfo { file: fi, def: f });
            }
        }
        g.resolve_all();
        g
    }

    fn resolve_all(&mut self) {
        let mut resolved = Vec::with_capacity(self.fns.len());
        let mut edges = Vec::with_capacity(self.fns.len());
        for f in &self.fns {
            let mut calls = Vec::with_capacity(f.def.calls.len());
            let mut adj: Vec<usize> = Vec::new();
            for site in &f.def.calls {
                let rc = self.resolve_one(f, site);
                if !f.def.is_test {
                    for &t in &rc.targets {
                        if !adj.contains(&t) {
                            adj.push(t);
                        }
                    }
                    if rc.open && rc.targets.is_empty() && !matches!(site.kind, CallKind::Index) {
                        *self
                            .unresolved_names
                            .entry(site.qualified_name())
                            .or_insert(0) += 1;
                    }
                }
                calls.push(rc);
            }
            resolved.push(calls);
            edges.push(adj);
        }
        self.resolved = resolved;
        self.edges = edges;
    }

    fn resolve_one(&self, caller: &FnInfo, site: &CallSite) -> ResolvedCall {
        let (targets, open) = match &site.kind {
            CallKind::Index => (Vec::new(), false),
            CallKind::Macro(_) => (Vec::new(), true),
            CallKind::Method(name) => {
                // Resolve through the receiver's candidate types; always
                // open, since the receiver may be a std type or a local
                // whose type is not lexically visible.
                let mut candidates: Vec<String> = Vec::new();
                let recv = site.receiver.as_deref();
                match recv {
                    Some("self") | Some("Self") => candidates.extend(caller.def.owner.clone()),
                    // A chain head names its type (`S::of(…).len()`).
                    Some(r) if r.starts_with(|c: char| c.is_ascii_uppercase()) => {
                        candidates.push(r.to_string())
                    }
                    Some(recv) => {
                        // A caller parameter of that name contributes its
                        // declared type idents, and so does a field of the
                        // caller's own impl type (the common `self.x.m()`
                        // shape).
                        let params = (caller.def.params.iter()).filter(|(p, _)| p == recv);
                        let fields = (caller.def.owner.iter())
                            .flat_map(|o| self.structs_named(o))
                            .flat_map(|s| &s.def.fields)
                            .filter(|f| f.name == recv);
                        let tys = params.map(|(_, t)| t).chain(fields.map(|f| &f.ty_idents));
                        candidates.extend(tys.flatten().cloned());
                    }
                    None => {}
                }
                // Only when local knowledge does not type the receiver do
                // we fall back to the workspace-wide union of same-named
                // struct fields, and in generic code to the bounds of
                // every type parameter (`let set = S::of_mut(…)`, `self.0`).
                if candidates.is_empty() {
                    if let Some(tys) = recv.and_then(|r| self.field_types.get(r)) {
                        candidates.extend(tys.iter().cloned());
                    }
                    candidates.extend(
                        (caller.def.params.iter().map(|(p, _)| p))
                            .filter(|p| p.starts_with(|c: char| c.is_ascii_uppercase()))
                            .cloned(),
                    );
                }
                (self.lookup_through(caller, &candidates, name), true)
            }
            // A call through a parameter (`finish(jobs, idx)` with `finish:
            // impl FnMut(…)`) runs whatever the caller passed in; a closure
            // is scanned in its defining function, so the call links
            // nothing here.
            CallKind::Plain(name) if caller.def.params.iter().any(|(p, _)| p == name) => {
                (Vec::new(), true)
            }
            CallKind::Plain(name) => {
                let t = self.by_name.get(name).cloned().unwrap_or_default();
                // Unresolved uppercase-initial plain calls are tuple-struct
                // constructors / enum variants (`Some(x)`), not open edges.
                let ctor_like = name.chars().next().is_some_and(|c| c.is_ascii_uppercase());
                let open = t.is_empty() && !ctor_like;
                (t, open)
            }
            CallKind::Qualified { head, name, .. } => self.resolve_qualified(caller, head, name),
        };
        ResolvedCall {
            site: site.clone(),
            targets,
            open,
        }
    }

    /// Methods named `name` on any of `types`, each read in `caller`: a
    /// type parameter stands for its bounds, an alias for its targets.
    fn lookup_through(&self, caller: &FnInfo, types: &[String], name: &str) -> Vec<usize> {
        let mut t: Vec<usize> = Vec::new();
        for ty in types {
            let param = caller.def.params.iter().find(|(p, _)| p == ty);
            let expanded = match param.map(|(_, b)| b).or(self.aliases.get(ty)) {
                Some(tys) => tys.as_slice(),
                None => std::slice::from_ref(ty),
            };
            for ty in expanded {
                for id in self.owner_lookup(ty, name) {
                    if !t.contains(&id) {
                        t.push(id);
                    }
                }
            }
        }
        t
    }

    /// Methods named `name` on `owner`: the owner's own `(owner, name)`
    /// entries, plus — when `owner` is a trait — every `impl owner for T`
    /// method of that name (dynamic dispatch over-approximation).
    fn owner_lookup(&self, owner: &str, name: &str) -> Vec<usize> {
        let mut t = self
            .by_owner_name
            .get(&(owner.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default();
        if let Some(names) = self.by_name.get(name) {
            for &i in names {
                if self.fns[i].def.trait_impl.as_deref() == Some(owner) && !t.contains(&i) {
                    t.push(i);
                }
            }
        }
        t
    }

    fn resolve_qualified(&self, caller: &FnInfo, head: &str, name: &str) -> (Vec<usize>, bool) {
        match head {
            "Self" => {
                let t = match &caller.def.owner {
                    Some(owner) => self.owner_lookup(owner, name),
                    None => Vec::new(),
                };
                let open = t.is_empty();
                (t, open)
            }
            "self" | "crate" | "super" => {
                let t = self.by_name.get(name).cloned().unwrap_or_default();
                let open = t.is_empty();
                (t, open)
            }
            _ if head.chars().next().is_some_and(|c| c.is_ascii_uppercase()) => {
                // Type-, trait-, type-parameter- or alias-qualified. If the
                // head names workspace types/traits, their methods;
                // otherwise (std / primitive shorthand like `Vec`, `Box`)
                // an open edge.
                let t = self.lookup_through(caller, &[head.to_string()], name);
                let open = t.is_empty();
                (t, open)
            }
            _ => {
                // Module/crate path: free functions of that name.
                let t = self
                    .by_name
                    .get(name)
                    .map(|ids| {
                        ids.iter()
                            .copied()
                            .filter(|&i| self.fns[i].def.owner.is_none())
                            .collect::<Vec<_>>()
                    })
                    .unwrap_or_default();
                let open = t.is_empty();
                (t, open)
            }
        }
    }

    /// Ids of non-test functions matching `symbol`, which is either a
    /// bare `name` or a qualified `Owner::name`.
    pub fn lookup(&self, symbol: &str) -> Vec<usize> {
        if let Some((owner, name)) = symbol.split_once("::") {
            self.by_owner_name
                .get(&(owner.to_string(), name.to_string()))
                .cloned()
                .unwrap_or_default()
        } else {
            self.by_name.get(symbol).cloned().unwrap_or_default()
        }
    }

    /// Whether `ty` has an `impl Trait for ty` block for the given trait.
    pub fn implements(&self, ty: &str, trait_name: &str) -> bool {
        self.trait_impls
            .get(trait_name)
            .is_some_and(|tys| tys.iter().any(|t| t == ty))
    }

    /// All non-test struct/enum defs with the given name.
    pub fn structs_named(&self, name: &str) -> Vec<&StructInfo> {
        self.struct_ids
            .get(name)
            .map(|ids| ids.iter().map(|&i| &self.structs[i]).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(srcs: &[(&str, &str)]) -> CallGraph {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(rel, text)| SourceFile::new(*rel, *text))
            .collect();
        CallGraph::build(&files)
    }

    #[test]
    fn resolves_plain_and_qualified_calls() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            "fn a() { b(); Widget::make(); }\nfn b() {}\n\
             struct Widget;\nimpl Widget { fn make() {} }\n",
        )]);
        let a = g.lookup("a")[0];
        let b = g.lookup("b")[0];
        let make = g.lookup("Widget::make")[0];
        assert!(g.edges[a].contains(&b));
        assert!(g.edges[a].contains(&make));
        // Both calls resolved — nothing left the workspace.
        assert!(g.resolved[a].iter().all(|c| !c.targets.is_empty()));
    }

    #[test]
    fn method_calls_resolve_through_receiver_types_and_stay_open() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            "struct A; impl A { fn push(&mut self) {} }\n\
             struct B; impl B { fn push(&mut self) {} }\n\
             struct Holder { a: A }\n\
             impl Holder { fn go(&mut self) { self.a.push(); } }\n\
             fn f(v: &mut A) { v.push(); }\n\
             fn h(v: &mut Vec<u32>) { v.push(1); }\n",
        )]);
        // Param-typed receiver: links A::push only, not B::push.
        let f = g.lookup("f")[0];
        let a_push = g.lookup("A::push")[0];
        assert_eq!(g.resolved[f][0].targets, vec![a_push]);
        assert!(g.resolved[f][0].open, "receiver could still be a std type");
        // Field-typed receiver: `self.a.push()` has receiver ident `a`,
        // whose workspace field type is A.
        let go = g.lookup("Holder::go")[0];
        assert_eq!(g.resolved[go][0].targets, vec![a_push]);
        // A std-typed receiver links nothing in the workspace but stays
        // an open edge a rule can still name-match.
        let h = g.lookup("h")[0];
        assert!(g.resolved[h][0].targets.is_empty());
        assert!(g.resolved[h][0].open);
    }

    #[test]
    fn self_method_calls_resolve_through_the_enclosing_impl() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            "struct E; impl E { fn a(&mut self) { self.b(); } fn b(&mut self) {} }\n\
             struct F; impl F { fn b(&mut self) {} }\n",
        )]);
        let a = g.lookup("E::a")[0];
        let eb = g.lookup("E::b")[0];
        assert_eq!(g.resolved[a][0].targets, vec![eb], "not F::b");
    }

    #[test]
    fn trait_typed_receivers_dispatch_to_every_impl() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            "trait P { fn go(&self); }\n\
             struct X; impl P for X { fn go(&self) {} }\n\
             struct Y; impl P for Y { fn go(&self) {} }\n\
             struct Eng { policy: Box<dyn P> }\n\
             impl Eng { fn step(&self) { self.policy.go(); } }\n",
        )]);
        let step = g.lookup("Eng::step")[0];
        assert_eq!(
            g.resolved[step][0].targets.len(),
            3,
            "trait decl + both impls"
        );
    }

    /// The trait `T` with impls `X` and `Y`, both defining `go` and `of`.
    const TWO_IMPLS: &str = "trait T { fn of() -> Self; fn go(&self); }\n\
         struct X; impl T for X { fn of() -> Self { X } fn go(&self) {} }\n\
         struct Y; impl T for Y { fn of() -> Self { Y } fn go(&self) {} }\n";

    /// Qualified names of the `go` targets of `caller`'s calls.
    fn go_targets(g: &CallGraph, caller: &str) -> Vec<String> {
        let f = g.lookup(caller)[0];
        let mut t: Vec<String> = (g.resolved[f].iter())
            .filter(|c| c.site.kind.name() == "go")
            .flat_map(|c| c.targets.iter().map(|&i| g.fns[i].qual_name()))
            .collect();
        t.sort();
        t.dedup();
        t
    }

    #[test]
    fn fn_bounds_type_a_parameter_and_its_qualified_calls() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            &format!(
                "{TWO_IMPLS}fn f<S: T>(s: &S) {{ s.go(); }}\n\
                 fn q<S: T>() {{ S::of(); }}\n"
            ),
        )]);
        assert_eq!(go_targets(&g, "f"), ["T::go", "X::go", "Y::go"]);
        let q = g.lookup("q")[0];
        assert_eq!(
            g.resolved[q][0].targets.len(),
            3,
            "S::of reaches T::of's impls"
        );
    }

    #[test]
    fn where_bounds_type_a_parameter() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            &format!("{TWO_IMPLS}fn f<S>(s: &S) where S: T {{ s.go(); }}\n"),
        )]);
        assert_eq!(go_targets(&g, "f"), ["T::go", "X::go", "Y::go"]);
    }

    #[test]
    fn impl_bounds_type_an_untyped_positional_field() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            &format!(
                "{TWO_IMPLS}struct W<S>(S);\n\
                 impl<S: T> W<S> {{ fn go(&self) {{ self.0.go(); }} }}\n"
            ),
        )]);
        assert_eq!(go_targets(&g, "W::go"), ["T::go", "X::go", "Y::go"]);
    }

    #[test]
    fn a_chain_is_typed_by_its_head() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            &format!("{TWO_IMPLS}fn f() {{ X::of().go(); }}\nfn h<S: T>() {{ S::of().go(); }}\n"),
        )]);
        assert_eq!(go_targets(&g, "f"), ["X::go"], "not Y::go");
        assert_eq!(go_targets(&g, "h"), ["T::go", "X::go", "Y::go"]);
    }

    #[test]
    fn an_untyped_local_in_generic_code_takes_the_bounds() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            &format!(
                "{TWO_IMPLS}fn f<S: T>() {{ let s = S::of(); s.go(); }}\n\
                 fn plain() {{ let s = X::of(); s.go(); }}\n"
            ),
        )]);
        assert_eq!(go_targets(&g, "f"), ["T::go", "X::go", "Y::go"]);
        assert!(
            go_targets(&g, "plain").is_empty(),
            "no bounds to fall back on"
        );
    }

    #[test]
    fn macro_arm_aliases_resolve_to_every_target() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            &format!(
                "{TWO_IMPLS}macro_rules! each {{\n\
                     ($k:expr, $S:ident => $body:expr) => {{ match $k {{\n\
                         0 => {{ type $S = X; $body }}\n\
                         _ => {{ type $S = Y; $body }}\n\
                     }} }};\n\
                 }}\n\
                 fn f(k: u8) {{ each!(k, S => S::of().go()) }}\n"
            ),
        )]);
        assert_eq!(g.aliases["S"], ["X", "Y"]);
        assert_eq!(go_targets(&g, "f"), ["X::go", "Y::go"]);
    }

    #[test]
    fn unresolved_calls_become_named_open_edges() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            "fn f() { let b = Box::new(1); mystery(); let v = vec![0]; let s = Some(1); }\n",
        )]);
        assert_eq!(g.unresolved_names.get("Box::new"), Some(&1));
        assert_eq!(g.unresolved_names.get("mystery"), Some(&1));
        assert_eq!(g.unresolved_names.get("vec!"), Some(&1));
        // `Some(…)` is a variant constructor, not an open edge.
        assert!(!g.unresolved_names.contains_key("Some"));
    }

    #[test]
    fn self_calls_resolve_through_the_enclosing_impl() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            "struct E; impl E { fn a() { Self::b(); } fn b() {} }\n",
        )]);
        let a = g.lookup("E::a")[0];
        let b = g.lookup("E::b")[0];
        assert!(g.edges[a].contains(&b));
    }

    #[test]
    fn trait_qualified_calls_reach_every_impl() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            "trait P { fn go(&self); }\n\
             struct X; impl P for X { fn go(&self) {} }\n\
             struct Y; impl P for Y { fn go(&self) {} }\n\
             fn f(p: &dyn P) { P::go(p); }\n",
        )]);
        let f = g.lookup("f")[0];
        // The bodiless trait declaration plus both impls.
        assert_eq!(g.resolved[f][0].targets.len(), 3);
        assert!(g.implements("X", "P"));
        assert!(g.implements("Y", "P"));
        assert!(!g.implements("X", "Q"));
    }

    #[test]
    fn test_functions_are_indexed_but_never_targets() {
        let g = graph(&[(
            "crates/x/src/lib.rs",
            "fn f() { helper(); }\n\
             #[cfg(test)]\nmod tests { fn helper() {} }\n",
        )]);
        let f = g.lookup("f")[0];
        assert!(g.resolved[f][0].targets.is_empty());
        assert_eq!(g.unresolved_names.get("helper"), Some(&1));
    }

    #[test]
    fn cross_file_resolution() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "pub fn entry() { shared_util(); }\n"),
            ("crates/b/src/lib.rs", "pub fn shared_util() {}\n"),
        ]);
        let e = g.lookup("entry")[0];
        let s = g.lookup("shared_util")[0];
        assert!(g.edges[e].contains(&s));
        assert_eq!(g.fns[s].file, 1);
    }
}
