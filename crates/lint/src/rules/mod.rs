//! The rule catalog.
//!
//! Each rule is a token-pattern check over a [`Workspace`], scoped to the
//! paths where its contract applies. Rules are **deny by default**: every
//! hit is a violation unless an inline waiver with a reason covers it
//! (see [`crate::source::Waiver`]).

use crate::engine::Workspace;
use crate::source::SourceFile;
use crate::Diagnostic;

pub(crate) mod event_loop;
mod float_eq;
mod float_sum;
mod hygiene;
mod nondeterminism;
mod pow_kernel;
mod registry;
pub(crate) mod snapshot_complete;
pub(crate) mod taint;

pub use event_loop::{event_loop_roots, EventLoopReachability, ENGINE_ROOTS};
pub use float_eq::FloatEq;
pub use float_sum::FloatSum;
pub use hygiene::CrateHygiene;
pub use nondeterminism::Nondeterminism;
pub use pow_kernel::PowKernelRouting;
pub use registry::RegistryComplete;
pub use snapshot_complete::SnapshotComplete;
pub use taint::DeterminismTaint;

/// One static-analysis rule.
pub trait Rule {
    /// Stable id (`L001` … `L009`), the name waivers use.
    fn id(&self) -> &'static str;
    /// One-line description for `--format json` and docs.
    fn summary(&self) -> &'static str;
    /// Runs the rule over the workspace.
    fn check(&self, ws: &Workspace) -> Vec<Diagnostic>;
}

/// Every shipped rule, in id order.
pub fn catalog() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(FloatSum),
        Box::new(Nondeterminism),
        Box::new(FloatEq),
        Box::new(RegistryComplete),
        Box::new(CrateHygiene),
        Box::new(PowKernelRouting),
        Box::new(EventLoopReachability),
        Box::new(DeterminismTaint),
        Box::new(SnapshotComplete),
    ]
}

/// Whether `rel` lives under any of the given path prefixes.
pub(crate) fn in_scope(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

/// Builds a diagnostic anchored at token `i` of `file`.
pub(crate) fn diag_at(
    file: &SourceFile,
    i: usize,
    rule: &'static str,
    message: String,
) -> Diagnostic {
    let t = &file.tokens[i];
    Diagnostic {
        rule,
        path: file.rel.clone(),
        line: t.line,
        col: t.col,
        message,
    }
}
