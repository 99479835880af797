//! # parsched-lint — domain-specific static analysis for this workspace
//!
//! The repo's correctness rests on contracts the compiler cannot see:
//! trace replay and the four-way differential oracle assume the
//! simulation crates are **deterministic**; the flow-identity audit
//! assumes every metric accumulation is **Neumaier-compensated**
//! (`kahan::NeumaierSum`); the SRPT-order invariants are only audited for
//! policies that **declare their metadata in the registry**. A single raw
//! `a += b` fold or default-hasher iteration compiles clean and corrupts
//! results at n = 10⁷, where no reviewer will spot it.
//!
//! This crate machine-enforces those contracts offline, with no external
//! dependencies: a span-tracking Rust lexer ([`lex`]), a lightweight item
//! parser ([`parse`]) feeding a workspace symbol index and conservative
//! call graph ([`callgraph`]) with reachability queries ([`reach`]), a
//! rule framework ([`rules`]) with deny-by-default diagnostics, inline
//! waivers (`// lint:allow(L001) reason` — reasons are mandatory, stale
//! waivers are themselves errors), and human/JSON/SARIF reporting
//! ([`report`]). The CLI front-end is `parsched lint`; the full catalog
//! is documented in `docs/LINTS.md`.
//!
//! | rule | contract |
//! |------|----------|
//! | L001 | flow/metric accumulation goes through `kahan::NeumaierSum` |
//! | L002 | no wall clocks, entropy RNGs, or hash-order iteration in sim paths |
//! | L003 | no `==`/`!=` against float values outside the tolerance helpers |
//! | L004 | every `Policy` impl is registry-buildable and declares its metadata |
//! | L005 | crate roots forbid unsafe; the event loop never `unwrap()`s |
//! | L006 | hot-path powers route through the `PowKernel` dispatch |
//! | L007 | no panic or allocation reachable from the event-loop roots |
//! | L008 | the L002 forbidden set is unreachable from any sim path |
//! | L009 | every snapshot-participant field round-trips through `parsched-snap/v3` |
//!
//! L001–L006 are *token-local*: they see shapes in one file. L007–L009
//! are *reachability* rules over the whole-workspace call graph. The
//! graph is conservative in the safe direction — method calls link every
//! same-named workspace function, and calls that resolve to nothing
//! become named **open edges** that rules still match sinks against, so
//! leaving the workspace never hides a forbidden call. Both layers are
//! still *lexical* by design (the same offline discipline as
//! `simcore::jsonlite`): no types, no inference; anything the
//! over-approximation flags intentionally is waived inline where a
//! reviewer will see the reason.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod callgraph;
pub mod engine;
pub mod lex;
pub mod parse;
pub mod reach;
pub mod report;
pub mod rules;
pub mod source;

pub use engine::{explain, lint_root, run, LintOutcome, Workspace};
pub use source::SourceFile;

/// One finding: a rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule id (`L001` …).
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}
