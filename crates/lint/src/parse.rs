//! A lightweight item parser on top of the span-tracking lexer.
//!
//! Extracts just enough structure from the token stream for whole-workspace
//! reasoning: `mod`/`impl`/`trait` nesting, `fn` items (with their owner
//! type, parameters, generic bounds and body span), `struct`/`enum` shapes
//! with named fields, `type` aliases, and every call-shaped expression
//! inside function bodies
//! (plain calls, method calls, `Path::calls`, macro invocations, and
//! bracket indexing). It does **not** build an AST or resolve types — the
//! same offline, conservative discipline as the lexer. Resolution lives in
//! [`crate::callgraph`]; what cannot be resolved there stays an explicit
//! *open edge* rather than being dropped.
//!
//! Like the lexer, the parser is total: any byte sequence produces *some*
//! item list (possibly empty) without panicking — the robustness property
//! suite under `crates/lint/tests/` locks this in alongside the jsonlite
//! fuzz suite it mirrors.

use crate::lex::TokenKind;
use crate::source::SourceFile;

/// Words that can precede `(` without being a call.
const NON_CALL_WORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "let", "fn", "impl", "struct", "enum", "use",
    "mod", "pub", "where", "unsafe", "as", "in", "move", "ref", "mut", "else", "break", "continue",
    "super", "crate", "dyn", "box", "type", "trait", "const", "static", "extern", "yield",
];

/// One call-shaped expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(…)` with no path or receiver.
    Plain(String),
    /// `.name(…)` — receiver type unknown to a lexical analyzer, so the
    /// resolver links every same-named workspace method *and* keeps the
    /// edge open.
    Method(String),
    /// `Head::name(…)`; `head` is the path segment immediately before the
    /// callee, `root` the first segment of the whole path.
    Qualified {
        /// Segment immediately before the callee (`Vec` in `Vec::new`).
        head: String,
        /// First segment of the path (`std` in `std::mem::take`).
        root: String,
        /// The callee name.
        name: String,
    },
    /// `name!(…)` / `name![…]` / `name!{…}`.
    Macro(String),
    /// `expr[…]` indexing (panics on out-of-bounds).
    Index,
}

impl CallKind {
    /// The name rules match sinks against (macros carry a trailing `!`,
    /// qualified calls also expose `Head::name` via
    /// [`CallSite::qualified_name`]).
    pub fn name(&self) -> String {
        match self {
            CallKind::Plain(n) | CallKind::Method(n) => n.clone(),
            CallKind::Qualified { name, .. } => name.clone(),
            CallKind::Macro(n) => format!("{n}!"),
            CallKind::Index => "[]".to_string(),
        }
    }
}

/// A call expression, anchored at its callee token.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Token index of the callee name (for `Index`, of the `[`).
    pub tok: usize,
    /// Shape of the call.
    pub kind: CallKind,
    /// For method/field chains: the identifier immediately before the
    /// final `.` (`completed` in `self.completed.push(x)`), if any.
    pub receiver: Option<String>,
}

impl CallSite {
    /// `Head::name` for qualified calls (`Vec::with_capacity`), else the
    /// plain name.
    pub fn qualified_name(&self) -> String {
        match &self.kind {
            CallKind::Qualified { head, name, .. } => format!("{head}::{name}"),
            other => other.name(),
        }
    }
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` self-type or `trait` name, if any.
    pub owner: Option<String>,
    /// For `impl Trait for Type` methods, the trait name.
    pub trait_impl: Option<String>,
    /// Enclosing in-file module path.
    pub module: Vec<String>,
    /// Token index of the name.
    pub name_tok: usize,
    /// Token range `[start, end)` of the body including braces; `None` for
    /// bodiless trait declarations.
    pub body: Option<(usize, usize)>,
    /// Parameters as `(name, type identifiers)`, then the bounded type
    /// parameters of the fn and its `impl` (`<S: Bound>` and `where S:
    /// Bound` alike) as `(name, bound identifiers)`. The resolver gives a
    /// method call on a parameter its type, and a type parameter its bounds.
    pub params: Vec<(String, Vec<String>)>,
    /// Whether the item sits inside a `#[cfg(test)]` module.
    pub is_test: bool,
    /// Call-shaped expressions inside the body.
    pub calls: Vec<CallSite>,
}

/// One named field (or enum variant) with the head identifiers of its type.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field (or variant) name.
    pub name: String,
    /// Token index of the name.
    pub name_tok: usize,
    /// Identifier tokens appearing in the type (for the donated-state
    /// closure in L007: `jobs: JobArena` yields `["JobArena"]`,
    /// `srpt: Vec<SrptSet>` yields `["Vec", "SrptSet"]`).
    pub ty_idents: Vec<String>,
}

/// One `struct` or `enum` item with its named fields/variants.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Token index of the name.
    pub name_tok: usize,
    /// Named fields (structs) or variants (enums).
    pub fields: Vec<FieldDef>,
    /// Whether this is an `enum` (fields are variants).
    pub is_enum: bool,
    /// Whether the item sits inside a `#[cfg(test)]` module.
    pub is_test: bool,
}

/// One `impl` block header (or `trait` header, owning default methods).
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// The self type's (or trait's) final path segment.
    pub self_ty: String,
    /// The trait's final path segment for `impl Trait for Type`.
    pub trait_name: Option<String>,
    /// The bounded type parameters of `impl<…>` and its `where` clause.
    pub bounds: Vec<(String, Vec<String>)>,
}

/// Everything extracted from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// Functions, in source order.
    pub fns: Vec<FnDef>,
    /// Structs and enums, in source order.
    pub structs: Vec<StructDef>,
    /// Impl-block headers, in source order.
    pub impls: Vec<ImplDef>,
    /// `type Alias = Target;` items as `(alias, target's final path
    /// segment)`, including those a `macro_rules!` arm declares.
    pub aliases: Vec<(String, String)>,
}

/// What kind of scope a brace opened.
#[derive(Debug, Clone)]
enum ScopeKind {
    Mod(String),
    Owner(ImplDef),
    Fn(usize),
    Block,
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    depth: usize,
}

struct Parser<'a> {
    file: &'a SourceFile,
    /// Indices of non-comment tokens, the stream the parser walks.
    code: Vec<usize>,
    items: FileItems,
    scopes: Vec<Scope>,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(file: &'a SourceFile) -> Self {
        let code: Vec<usize> = (0..file.tokens.len())
            .filter(|&i| !file.tokens[i].is_comment())
            .collect();
        Self {
            file,
            code,
            items: FileItems::default(),
            scopes: Vec::new(),
            depth: 0,
        }
    }

    /// Text of the `i`-th *code* token.
    fn txt(&self, i: usize) -> &str {
        self.file.tok(self.code[i])
    }

    fn kind(&self, i: usize) -> TokenKind {
        self.file.tokens[self.code[i]].kind
    }

    /// Original token index of the `i`-th code token.
    fn orig(&self, i: usize) -> usize {
        self.code[i]
    }

    fn len(&self) -> usize {
        self.code.len()
    }

    /// Skips a matched `< … >` group starting at `i` (which must be `<`).
    /// Returns the index just past the closing `>`. Handles `>>` closing
    /// two levels. Gives up (returns input + 1) after the stream ends.
    fn skip_angles(&self, mut i: usize) -> usize {
        let mut depth = 0isize;
        while i < self.len() {
            match self.txt(i) {
                "<" | "<<" => depth += if self.txt(i) == "<<" { 2 } else { 1 },
                ">" => depth -= 1,
                ">>" => depth -= 2,
                // A brace or semicolon here means the `<` was a comparison,
                // not generics — bail out without consuming.
                "{" | "}" | ";" => return i,
                _ => {}
            }
            i += 1;
            if depth <= 0 {
                return i;
            }
        }
        i
    }

    /// Skips a matched delimiter group (`(`/`[`/`{`) starting at `i`.
    /// Returns the index just past the closing delimiter.
    fn skip_group(&self, mut i: usize) -> usize {
        let (open, close) = match self.txt(i) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return i + 1,
        };
        let mut depth = 0usize;
        while i < self.len() {
            let t = self.txt(i);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        i
    }

    /// The innermost enclosing owner (impl/trait), if any.
    fn current_owner(&self) -> Option<&ImplDef> {
        self.scopes.iter().rev().find_map(|s| match &s.kind {
            ScopeKind::Owner(imp) => Some(imp),
            _ => None,
        })
    }

    /// The enclosing module path.
    fn current_module(&self) -> Vec<String> {
        self.scopes
            .iter()
            .filter_map(|s| match &s.kind {
                ScopeKind::Mod(m) => Some(m.clone()),
                _ => None,
            })
            .collect()
    }

    /// Index of the innermost enclosing fn, if any.
    fn current_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| match s.kind {
            ScopeKind::Fn(idx) => Some(idx),
            _ => None,
        })
    }

    fn open_scope(&mut self, kind: ScopeKind) {
        self.depth += 1;
        self.scopes.push(Scope {
            kind,
            depth: self.depth,
        });
    }

    /// Splits the code tokens in `[start, end)` on top-level commas
    /// (delimiter and angle depth both tracked, so `BTreeMap<K, V>` doesn't
    /// split) and reads each segment as `[mut|ref|&|'…] name : Type…`: a
    /// parameter list, a generic parameter list or a `where` clause.
    fn split_params(&self, start: usize, end: usize) -> Vec<(String, Vec<String>)> {
        let mut params = Vec::new();
        let mut flush = |seg: &[usize]| {
            // The receiver (`self: &mut Self` too) is not a named parameter.
            let Some(colon) = seg.iter().position(|&c| self.txt(c) == ":") else {
                return;
            };
            if seg.iter().any(|&c| self.txt(c) == "self") {
                return;
            }
            let ident = |c: &&usize| self.kind(**c) == TokenKind::Ident;
            if let Some(&name) = seg[..colon].iter().rev().find(ident) {
                let ty: Vec<String> = seg[colon + 1..]
                    .iter()
                    .filter(ident)
                    .map(|&c| self.txt(c).to_string())
                    .filter(|t| !matches!(t.as_str(), "mut" | "dyn" | "ref" | "impl"))
                    .collect();
                params.push((self.txt(name).to_string(), ty));
            }
        };
        let mut seg: Vec<usize> = Vec::new();
        let (mut pdepth, mut adepth) = (0isize, 0isize);
        for k in start..end.min(self.len()) {
            match self.txt(k) {
                "(" | "[" | "{" => pdepth += 1,
                ")" | "]" | "}" => pdepth -= 1,
                "<" => adepth += 1,
                "<<" => adepth += 2,
                ">" => adepth -= 1,
                ">>" => adepth -= 2,
                "," if pdepth == 0 && adepth <= 0 => {
                    flush(&seg);
                    seg.clear();
                    adepth = 0;
                    continue;
                }
                _ => {}
            }
            seg.push(k);
        }
        flush(&seg);
        params
    }

    /// The bounded type parameters of a `<…>` group opening at `j` (if
    /// one does), and the index just past it.
    fn generics(&self, j: usize) -> (Vec<(String, Vec<String>)>, usize) {
        if j < self.len() && self.txt(j) == "<" {
            let close = self.skip_angles(j);
            (self.split_params(j + 1, close - 1), close)
        } else {
            (Vec::new(), j)
        }
    }

    /// Reads a `where` clause at `j` (if one starts there) into `bounds`;
    /// returns the index of the `{` or `;` that ends it.
    fn where_clause(&self, j: usize, bounds: &mut Vec<(String, Vec<String>)>) -> usize {
        let mut end = j;
        while end < self.len() && !matches!(self.txt(end), "{" | ";") {
            end += 1;
        }
        bounds.extend(self.split_params(j + 1, end));
        end
    }

    /// Parses a `fn` item whose `fn` keyword sits at code index `i`.
    /// Returns the index to continue from.
    fn parse_fn(&mut self, i: usize) -> usize {
        let j = i + 1;
        if j >= self.len() || self.kind(j) != TokenKind::Ident {
            return i + 1; // `fn(...)` pointer type or malformed — skip.
        }
        let name = self.txt(j).to_string();
        let name_tok = self.orig(j);
        let (bounds, mut j) = self.generics(j + 1);
        let mut params = Vec::new();
        if j < self.len() && self.txt(j) == "(" {
            let end = self.skip_group(j);
            params = self.split_params(j + 1, end - 1);
            j = end;
        }
        params.extend(bounds);
        // Find the body `{` or a terminating `;` (trait declaration).
        while j < self.len() && !matches!(self.txt(j), "{" | ";") {
            match self.txt(j) {
                "where" => j = self.where_clause(j, &mut params),
                "(" | "[" => j = self.skip_group(j),
                _ => j += 1,
            }
        }
        if j >= self.len() {
            return j;
        }
        let owner = self.current_owner();
        params.extend(owner.iter().flat_map(|o| o.bounds.iter().cloned()));
        let trait_impl = owner.and_then(|o| o.trait_name.clone());
        let owner = owner.map(|o| o.self_ty.clone());
        let has_body = self.txt(j) == "{";
        let idx = self.items.fns.len();
        self.items.fns.push(FnDef {
            name,
            owner,
            trait_impl,
            module: self.current_module(),
            name_tok,
            // The body's end is patched when its scope closes.
            body: has_body.then(|| (self.orig(j), self.orig(j))),
            params,
            is_test: self.file.in_test_code(name_tok),
            calls: Vec::new(),
        });
        if has_body {
            self.open_scope(ScopeKind::Fn(idx));
        }
        j + 1
    }

    /// Parses an `impl` header at code index `i`; returns the continue
    /// index (just past the opening `{`, with the scope pushed).
    fn parse_impl(&mut self, i: usize) -> usize {
        let (mut bounds, mut j) = self.generics(i + 1);
        // Collect path segments until `for`, `where`, or `{`.
        let mut first: Vec<String> = Vec::new();
        let mut second: Vec<String> = Vec::new();
        let mut after_for = false;
        while j < self.len() {
            let t = self.txt(j);
            match t {
                "{" => break,
                ";" => return j + 1, // `impl Trait for Type;` — not Rust, bail
                "for" => {
                    after_for = true;
                    j += 1;
                }
                "where" => j = self.where_clause(j, &mut bounds),
                "<" => j = self.skip_angles(j),
                "(" | "[" => j = self.skip_group(j),
                _ => {
                    if self.kind(j) == TokenKind::Ident
                        && !matches!(t, "dyn" | "mut" | "const" | "unsafe")
                    {
                        if after_for {
                            second.push(t.to_string());
                        } else {
                            first.push(t.to_string());
                        }
                    }
                    j += 1;
                }
            }
        }
        if j >= self.len() {
            return j;
        }
        let (self_ty, trait_name) = if after_for {
            (
                second.last().cloned().unwrap_or_else(|| "?".to_string()),
                first.last().cloned(),
            )
        } else {
            (
                first.last().cloned().unwrap_or_else(|| "?".to_string()),
                None,
            )
        };
        let imp = ImplDef {
            self_ty,
            trait_name,
            bounds,
        };
        self.items.impls.push(imp.clone());
        self.open_scope(ScopeKind::Owner(imp));
        j + 1
    }

    /// Parses a `trait Name … {` header; default method bodies are owned
    /// by the trait name.
    fn parse_trait(&mut self, i: usize) -> usize {
        let mut j = i + 1;
        if j >= self.len() || self.kind(j) != TokenKind::Ident {
            return i + 1;
        }
        let name = self.txt(j).to_string();
        j += 1;
        while j < self.len() {
            match self.txt(j) {
                "{" => break,
                ";" => return j + 1, // `trait X: Y;` alias-like — skip
                "<" => j = self.skip_angles(j),
                "(" | "[" => j = self.skip_group(j),
                _ => j += 1,
            }
        }
        if j >= self.len() {
            return j;
        }
        self.open_scope(ScopeKind::Owner(ImplDef {
            self_ty: name,
            trait_name: None,
            bounds: Vec::new(),
        }));
        j + 1
    }

    /// Records `type [$]Alias<…> = path::Target…;` (the `$` of a
    /// `macro_rules!` arm's metavariable included) as `(Alias, Target)`.
    /// Associated type declarations and non-path targets record nothing.
    fn parse_alias(&mut self, i: usize) {
        let mut j = i + 1;
        if j < self.len() && self.txt(j) == "$" {
            j += 1;
        }
        if j >= self.len() || self.kind(j) != TokenKind::Ident {
            return;
        }
        let alias = self.txt(j).to_string();
        let (_, mut j) = self.generics(j + 1);
        if j >= self.len() || self.txt(j) != "=" {
            return;
        }
        let mut target = None;
        j += 1;
        while j < self.len() && (self.kind(j) == TokenKind::Ident || self.txt(j) == "::") {
            if self.txt(j) != "::" {
                target = Some(self.txt(j).to_string());
            }
            j += 1;
        }
        self.items.aliases.extend(target.map(|t| (alias, t)));
    }

    /// Parses `struct`/`enum` items, recording named fields / variants.
    fn parse_struct(&mut self, i: usize, is_enum: bool) -> usize {
        let mut j = i + 1;
        if j >= self.len() || self.kind(j) != TokenKind::Ident {
            return i + 1;
        }
        let name = self.txt(j).to_string();
        let name_tok = self.orig(j);
        j += 1;
        if j < self.len() && self.txt(j) == "<" {
            j = self.skip_angles(j);
        }
        while j < self.len() && self.txt(j) == "where" {
            while j < self.len() && !matches!(self.txt(j), "{" | ";") {
                j += 1;
            }
        }
        let mut fields = Vec::new();
        if j < self.len() && self.txt(j) == "(" {
            // Tuple struct: positional fields named `0`, `1`, … after the
            // `.0` that reaches them.
            let end = self.skip_group(j);
            let mut k = j + 1;
            let mut depth = 0isize;
            let mut field: Option<FieldDef> = None;
            while k + 1 < end {
                let t = self.txt(k);
                match t {
                    "," if depth == 0 => fields.extend(field.take()),
                    // An attribute, or a visibility with its scope.
                    "#" | "pub"
                        if depth == 0 && k + 1 < end && matches!(self.txt(k + 1), "[" | "(") =>
                    {
                        k = self.skip_group(k + 1);
                        continue;
                    }
                    "pub" => {}
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => depth -= 1,
                    ">>" => depth -= 2,
                    _ if self.kind(k) == TokenKind::Ident => {
                        let pos = fields.len();
                        let ftok = self.orig(k);
                        field
                            .get_or_insert_with(|| FieldDef {
                                name: pos.to_string(),
                                name_tok: ftok,
                                ty_idents: Vec::new(),
                            })
                            .ty_idents
                            .push(t.to_string());
                    }
                    _ => {}
                }
                k += 1;
            }
            fields.extend(field);
            j = end;
        } else if j < self.len() && self.txt(j) == "{" {
            let end = self.skip_group(j);
            let mut k = j + 1;
            let mut fdepth = 0usize;
            while k + 1 < end {
                let t = self.txt(k);
                match t {
                    "{" | "(" | "[" => {
                        fdepth += 1;
                        k += 1;
                    }
                    "}" | ")" | "]" => {
                        fdepth = fdepth.saturating_sub(1);
                        k += 1;
                    }
                    "<" if fdepth == 0 => k = self.skip_angles(k),
                    "#" if fdepth == 0 => {
                        // Attribute on a field/variant.
                        k += 1;
                        if k < end && self.txt(k) == "[" {
                            k = self.skip_group(k);
                        }
                    }
                    "pub" if fdepth == 0 => {
                        k += 1;
                        if k < end && self.txt(k) == "(" {
                            k = self.skip_group(k);
                        }
                    }
                    _ if fdepth == 0 && self.kind(k) == TokenKind::Ident => {
                        // Field `name : Type` or enum variant
                        // `Name`/`Name(…)`/`Name{…}`.
                        let fname = t.to_string();
                        let ftok = self.orig(k);
                        k += 1;
                        let mut ty_idents = Vec::new();
                        if !is_enum {
                            if k < end && self.txt(k) == ":" {
                                k += 1;
                                let mut tdepth = 0isize;
                                while k + 1 < end {
                                    let tt = self.txt(k);
                                    match tt {
                                        "<" => tdepth += 1,
                                        ">" => tdepth -= 1,
                                        ">>" => tdepth -= 2,
                                        "(" | "[" => tdepth += 1,
                                        ")" | "]" => tdepth -= 1,
                                        "," if tdepth <= 0 => break,
                                        _ => {
                                            if self.kind(k) == TokenKind::Ident {
                                                ty_idents.push(tt.to_string());
                                            }
                                        }
                                    }
                                    k += 1;
                                }
                            } else {
                                // Not a `name: ty` shape — skip forward.
                                continue;
                            }
                        } else {
                            // Variant payload.
                            if k < end && (self.txt(k) == "(" || self.txt(k) == "{") {
                                let pend = self.skip_group(k);
                                for p in k..pend {
                                    if self.kind(p) == TokenKind::Ident {
                                        ty_idents.push(self.txt(p).to_string());
                                    }
                                }
                                k = pend;
                            }
                            // Discriminant `= expr` — skip to `,`.
                            while k + 1 < end && self.txt(k) != "," {
                                k += 1;
                            }
                        }
                        fields.push(FieldDef {
                            name: fname,
                            name_tok: ftok,
                            ty_idents,
                        });
                        if k < end && self.txt(k) == "," {
                            k += 1;
                        }
                    }
                    _ => k += 1,
                }
            }
            j = end;
        } else if j < self.len() && self.txt(j) == ";" {
            j += 1;
        }
        self.items.structs.push(StructDef {
            name,
            name_tok,
            fields,
            is_enum,
            is_test: self.file.in_test_code(name_tok),
        });
        j
    }

    /// The identifier a method/index chain hangs off, looking backwards
    /// from code index `k`: walks over balanced `(…)`/`[…]` groups so
    /// `self.ring[b].push(x)` and `buckets[i].len()` both report their
    /// base identifier (`ring`, `buckets`), not `None`, and
    /// `S::of_mut(sets).refresh(cx)` its head `S`. `self`/`Self` count
    /// (they name the enclosing impl type to the resolver).
    fn receiver_before(&self, mut k: usize) -> Option<String> {
        let end = k;
        loop {
            let t = self.txt(k);
            match t {
                ")" | "]" => {
                    let (open, close) = if t == ")" { ("(", ")") } else { ("[", "]") };
                    let mut depth = 1i32;
                    while k > 0 && depth > 0 {
                        k -= 1;
                        let u = self.txt(k);
                        if u == close {
                            depth += 1;
                        } else if u == open {
                            depth -= 1;
                        }
                    }
                    if depth > 0 || k == 0 {
                        return None;
                    }
                    k -= 1; // token before the opening delimiter
                }
                // A chain `Head::f(…).g(…)` is typed by its type `Head`.
                _ if k < end
                    && k >= 2
                    && self.txt(k - 1) == "::"
                    && self
                        .txt(k - 2)
                        .starts_with(|c: char| c.is_ascii_uppercase()) =>
                {
                    return Some(self.txt(k - 2).to_string());
                }
                _ => {
                    return if self.kind(k) == TokenKind::Ident
                        && (!is_keyword(t) || matches!(t, "self" | "Self"))
                    {
                        Some(t.to_string())
                    } else {
                        None
                    };
                }
            }
        }
    }

    /// The code index just past a balanced `<…>` group opening at `open`
    /// (which must be `<`), or `None` if the group hits a token that
    /// cannot appear inside a turbofish argument list before closing.
    /// `>>` closes two levels (the lexer folds nested closers like
    /// `Vec<Vec<u8>>` into one shift token).
    fn angle_close(&self, open: usize) -> Option<usize> {
        let mut depth = 0i32;
        let mut k = open;
        while k < self.len() {
            match self.txt(k) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(k + 1);
                    }
                }
                ">>" => {
                    depth -= 2;
                    if depth <= 0 {
                        return Some(k + 1);
                    }
                }
                "(" | ")" | "{" | "}" | ";" | "&&" | "||" => return None,
                _ => {}
            }
            k += 1;
        }
        None
    }

    /// Records a call-shaped expression at code index `i` into the
    /// innermost enclosing fn (if any). Returns whether one was recorded.
    fn record_call(&mut self, i: usize) {
        let Some(fn_idx) = self.current_fn() else {
            return;
        };
        let t = self.txt(i).to_string();
        let site = if self.txt(i) == "[" {
            // Indexing: previous code token ends an expression.
            if i == 0 {
                return;
            }
            let prev = self.txt(i - 1);
            let is_index = matches!(self.kind(i - 1), TokenKind::Ident) && !is_keyword(prev)
                || prev == ")"
                || prev == "]"
                || prev == "?";
            if !is_index {
                return;
            }
            CallSite {
                tok: self.orig(i),
                kind: CallKind::Index,
                receiver: self.receiver_before(i - 1),
            }
        } else {
            // Identifier followed by `(` or `!(`-like.
            if self.kind(i) != TokenKind::Ident || is_keyword(&t) {
                return;
            }
            let next = if i + 1 < self.len() {
                self.txt(i + 1)
            } else {
                return;
            };
            // `name::<T, …>(…)` — a turbofish call. The `::<` belongs to
            // the argument list, not a path segment, so when the balanced
            // `<…>` closes directly onto `(` this classifies exactly like
            // the plain `name(…)` shape below. Without this, const-generic
            // helpers invoked as `self.helper::<true>()` (the engine's
            // monomorphized event-loop phases) would fall out of the call
            // graph and look unreachable to L007/L008.
            let turbofish_call = next == "::"
                && i + 2 < self.len()
                && self.txt(i + 2) == "<"
                && self
                    .angle_close(i + 2)
                    .is_some_and(|j| j < self.len() && self.txt(j) == "(");
            if next == "!" {
                let after = if i + 2 < self.len() {
                    self.txt(i + 2)
                } else {
                    ""
                };
                if !matches!(after, "(" | "[" | "{") {
                    return; // `!=`-adjacent or macro def — not an invocation
                }
                CallSite {
                    tok: self.orig(i),
                    kind: CallKind::Macro(t),
                    receiver: None,
                }
            } else if next == "(" || turbofish_call {
                let prev = if i > 0 { self.txt(i - 1) } else { "" };
                if prev == "." {
                    let receiver = if i >= 2 {
                        self.receiver_before(i - 2)
                    } else {
                        None
                    };
                    CallSite {
                        tok: self.orig(i),
                        kind: CallKind::Method(t),
                        receiver,
                    }
                } else if prev == "::" {
                    // Walk the path backwards: (Ident ::)+ name.
                    let mut segs: Vec<String> = Vec::new();
                    let mut k = i;
                    while k >= 2 && self.txt(k - 1) == "::" && self.kind(k - 2) == TokenKind::Ident
                    {
                        segs.push(self.txt(k - 2).to_string());
                        k -= 2;
                    }
                    let head = segs.first().cloned().unwrap_or_default();
                    let root = segs.last().cloned().unwrap_or_default();
                    CallSite {
                        tok: self.orig(i),
                        kind: CallKind::Qualified {
                            head,
                            root,
                            name: t,
                        },
                        receiver: None,
                    }
                } else if prev == "fn" {
                    return;
                } else {
                    CallSite {
                        tok: self.orig(i),
                        kind: CallKind::Plain(t),
                        receiver: None,
                    }
                }
            } else {
                return;
            }
        };
        self.items.fns[fn_idx].calls.push(site);
    }

    fn run(mut self) -> FileItems {
        let mut i = 0usize;
        while i < self.len() {
            match self.txt(i) {
                "mod" => {
                    // `mod name { … }` or `mod name;`.
                    if i + 1 < self.len() && self.kind(i + 1) == TokenKind::Ident {
                        let name = self.txt(i + 1).to_string();
                        if i + 2 < self.len() && self.txt(i + 2) == "{" {
                            self.open_scope(ScopeKind::Mod(name));
                            i += 3;
                            continue;
                        }
                    }
                    i += 1;
                }
                "impl" => i = self.parse_impl(i),
                "trait" => i = self.parse_trait(i),
                "fn" => i = self.parse_fn(i),
                "struct" => i = self.parse_struct(i, false),
                "enum" => i = self.parse_struct(i, true),
                "type" => {
                    self.parse_alias(i);
                    i += 1;
                }
                "macro_rules" => {
                    // `macro_rules! name { … }` — skip the whole definition
                    // but the aliases its arms declare (`type $S = X;`).
                    let mut j = i + 1;
                    while j < self.len() && !matches!(self.txt(j), "{" | "(" | "[") {
                        j += 1;
                    }
                    let end = if j < self.len() {
                        self.skip_group(j)
                    } else {
                        j
                    };
                    for k in j..end {
                        if self.txt(k) == "type" {
                            self.parse_alias(k);
                        }
                    }
                    i = end;
                }
                "{" => {
                    self.open_scope(ScopeKind::Block);
                    i += 1;
                }
                "}" => {
                    while let Some(s) = self.scopes.last() {
                        if s.depth == self.depth {
                            if let ScopeKind::Fn(idx) = s.kind {
                                if let Some((start, _)) = self.items.fns[idx].body {
                                    self.items.fns[idx].body = Some((start, self.orig(i) + 1));
                                }
                            }
                            self.scopes.pop();
                        } else {
                            break;
                        }
                    }
                    self.depth = self.depth.saturating_sub(1);
                    i += 1;
                }
                _ => {
                    self.record_call(i);
                    i += 1;
                }
            }
        }
        self.items
    }
}

fn is_keyword(t: &str) -> bool {
    NON_CALL_WORDS.contains(&t) || t == "self" || t == "Self"
}

/// Parses one file's items. Total: never panics, always terminates.
pub fn parse_items(file: &SourceFile) -> FileItems {
    Parser::new(file).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> FileItems {
        parse_items(&SourceFile::new("crates/x/src/lib.rs", src))
    }

    #[test]
    fn extracts_fns_with_owners_and_receivers() {
        let it = items(
            "pub struct Engine { now: f64 }\n\
             impl Engine {\n    pub fn run(&mut self) { self.step(); }\n    fn peek(&self) {}\n}\n\
             impl std::fmt::Display for Engine { fn fmt(&self) {} }\n\
             fn free() {}\n",
        );
        let run = it.fns.iter().find(|f| f.name == "run").unwrap();
        assert_eq!(run.owner.as_deref(), Some("Engine"));
        assert!(
            run.params.is_empty(),
            "`&mut self` is not a named parameter"
        );
        let typed = items("struct E; impl E { fn f(self: &mut Self, n: u32) {} }\n");
        assert_eq!(
            typed.fns[0].params,
            [("n".to_string(), vec!["u32".to_string()])]
        );
        let fmt = it.fns.iter().find(|f| f.name == "fmt").unwrap();
        assert_eq!(fmt.trait_impl.as_deref(), Some("Display"));
        assert_eq!(fmt.owner.as_deref(), Some("Engine"));
        let free = it.fns.iter().find(|f| f.name == "free").unwrap();
        assert!(free.owner.is_none());
    }

    #[test]
    fn extracts_call_shapes() {
        let it = items(
            "fn f(xs: &mut Vec<u32>) {\n\
                 helper();\n\
                 xs.push(1);\n\
                 let b = Box::new(2);\n\
                 let v = vec![1, 2];\n\
                 let y = xs[0];\n\
                 std::mem::take(xs);\n\
             }\n",
        );
        let f = &it.fns[0];
        let kinds: Vec<String> = f.calls.iter().map(|c| c.kind.name()).collect();
        assert!(kinds.contains(&"helper".to_string()), "{kinds:?}");
        assert!(kinds.contains(&"push".to_string()));
        assert!(kinds.contains(&"new".to_string()));
        assert!(kinds.contains(&"vec!".to_string()));
        assert!(kinds.contains(&"[]".to_string()));
        let take = f
            .calls
            .iter()
            .find(|c| matches!(&c.kind, CallKind::Qualified { name, .. } if name == "take"))
            .unwrap();
        assert_eq!(take.qualified_name(), "mem::take");
        match &take.kind {
            CallKind::Qualified { root, .. } => assert_eq!(root, "std"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn turbofish_calls_are_recorded() {
        let it = items(
            "fn f(&mut self) {\n\
                 self.admit_core::<true, false, NOTIFY>();\n\
                 run_events::<false>();\n\
                 parse::<Vec<Vec<u8>>>(s);\n\
                 Wrapper::lift::<u32>(x);\n\
                 let small = a < b;\n\
             }\n",
        );
        let f = &it.fns[0];
        let admit = f
            .calls
            .iter()
            .find(|c| c.kind.name() == "admit_core")
            .expect("const-generic method turbofish records a call");
        assert!(matches!(&admit.kind, CallKind::Method(_)));
        assert!(
            f.calls
                .iter()
                .any(|c| c.kind.name() == "run_events" && matches!(&c.kind, CallKind::Plain(_))),
            "plain turbofish call recorded"
        );
        assert!(
            f.calls.iter().any(|c| c.kind.name() == "parse"),
            "nested generics with a folded `>>` closer still resolve"
        );
        assert!(
            f.calls
                .iter()
                .any(|c| matches!(&c.kind, CallKind::Qualified { name, .. } if name == "lift")),
            "qualified turbofish call keeps its path"
        );
        // A bare comparison must not be mistaken for a turbofish.
        assert!(!f.calls.iter().any(|c| c.kind.name() == "b"));
    }

    #[test]
    fn method_calls_carry_their_receiver_ident() {
        let it = items("fn f(&mut self) { self.completed.push(1); moves.push(2); }\n");
        let pushes: Vec<_> = it.fns[0]
            .calls
            .iter()
            .filter(|c| c.kind.name() == "push")
            .collect();
        assert_eq!(pushes.len(), 2);
        assert_eq!(pushes[0].receiver.as_deref(), Some("completed"));
        assert_eq!(pushes[1].receiver.as_deref(), Some("moves"));
    }

    #[test]
    fn struct_fields_and_enum_variants() {
        let it = items(
            "pub struct Buffers { jobs: JobArena, alive: Vec<usize>, pair: (f64, f64) }\n\
             enum Queue { Calendar(CalendarQueue), Heap { h: BinaryHeap<u64> } }\n\
             struct Unit;\nstruct Tup(pub(crate) Vec<f64>, #[doc = \"x\"] u32);\n",
        );
        let b = it.structs.iter().find(|s| s.name == "Buffers").unwrap();
        let names: Vec<&str> = b.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["jobs", "alive", "pair"]);
        assert_eq!(b.fields[0].ty_idents, ["JobArena"]);
        assert_eq!(b.fields[1].ty_idents, ["Vec", "usize"]);
        let q = it.structs.iter().find(|s| s.name == "Queue").unwrap();
        assert!(q.is_enum);
        let vn: Vec<&str> = q.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(vn, ["Calendar", "Heap"]);
        assert!(q.fields[0].ty_idents.contains(&"CalendarQueue".to_string()));
        assert!(it.structs.iter().any(|s| s.name == "Unit"));
        let t = it.structs.iter().find(|s| s.name == "Tup").unwrap();
        let tn: Vec<(&str, &[String])> = t
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.ty_idents.as_slice()))
            .collect();
        assert_eq!(
            tn,
            [
                ("0", &["Vec".to_string(), "f64".to_string()][..]),
                ("1", &["u32".to_string()][..])
            ]
        );
    }

    #[test]
    fn nested_modules_and_test_ranges() {
        let it = items(
            "mod inner { pub fn g() {} }\n\
             #[cfg(test)]\nmod tests { fn t() { danger(); } }\n",
        );
        let g = it.fns.iter().find(|f| f.name == "g").unwrap();
        assert_eq!(g.module, ["inner"]);
        assert!(!g.is_test);
        let t = it.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.is_test);
    }

    #[test]
    fn trait_default_methods_are_owned_by_the_trait() {
        let it = items(
            "pub trait Observer {\n    fn on_advance(&mut self, t: f64) { let _ = t; }\n    fn hook(&self);\n}\n",
        );
        let d = it.fns.iter().find(|f| f.name == "on_advance").unwrap();
        assert_eq!(d.owner.as_deref(), Some("Observer"));
        assert!(d.body.is_some());
        let h = it.fns.iter().find(|f| f.name == "hook").unwrap();
        assert!(h.body.is_none());
    }

    #[test]
    fn attributes_and_slice_patterns_are_not_indexing() {
        let it = items("#[derive(Debug)]\nfn f(a: [u8; 4]) { let [x, _y] = [1, 2]; let _ = x; }\n");
        let f = it.fns.iter().find(|x| x.name == "f").unwrap();
        assert!(
            !f.calls.iter().any(|c| c.kind == CallKind::Index),
            "{:?}",
            f.calls
        );
    }

    #[test]
    fn total_on_garbage() {
        for src in ["fn", "impl <<<", "struct {", "fn f( {{{", "}}}}", "mod"] {
            let _ = items(src);
        }
    }
}
