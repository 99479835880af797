//! L005 — crate hygiene.
//!
//! Two checks:
//!
//! 1. Every crate root carries `#![forbid(unsafe_code)]`. The workspace's
//!    correctness story (replayable traces, differential oracles) assumes
//!    no aliasing or uninitialized-memory surprises anywhere.
//! 2. No `unwrap()`/`expect()` in the engine event-loop sources. The
//!    engine returns structured `SimError`s; a panic mid-run loses the
//!    audit context that makes failures diagnosable at n = 10⁷.

use crate::engine::Workspace;
use crate::rules::{diag_at, Rule};
use crate::Diagnostic;

/// Files forming the engine event loop, where panicking shortcuts are
/// banned.
const EVENT_LOOP: &[&str] = &[
    "crates/simcore/src/engine.rs",
    // The alive structures the engine drives through `AliveSet`, and the
    // arena they share.
    "crates/simcore/src/alive_set.rs",
    "crates/simcore/src/alive_list.rs",
    "crates/simcore/src/arena.rs",
    "crates/simcore/src/srpt_set.rs",
    "crates/simcore/src/level_stack.rs",
    "crates/simcore/src/arrival_suffix.rs",
    "crates/simcore/src/streaming.rs",
    // The snapshot codec and the fleet's serving loop sit on the same
    // hot path: a corrupt migration document must surface as a
    // `SimError` / failed tenant, never a panic that takes down every
    // co-scheduled tenant on the shard.
    "crates/simcore/src/snapshot.rs",
    "crates/fleet/src/lib.rs",
];

/// The L005 rule value.
pub struct CrateHygiene;

/// Whether `rel` is a crate root the forbid-attr check applies to.
fn is_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" || rel == "src/main.rs" {
        return true;
    }
    let Some(rest) = rel.strip_prefix("crates/") else {
        return false;
    };
    let mut parts = rest.split('/');
    let (_crate_name, src, file) = (parts.next(), parts.next(), parts.next());
    src == Some("src")
        && (file == Some("lib.rs") || file == Some("main.rs"))
        && parts.next().is_none()
}

impl Rule for CrateHygiene {
    fn id(&self) -> &'static str {
        "L005"
    }

    fn summary(&self) -> &'static str {
        "crate roots must `#![forbid(unsafe_code)]`; the engine event loop must not \
         `unwrap()`/`expect()` (errors carry audit context)"
    }

    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in &ws.files {
            if is_crate_root(&file.rel) {
                let has_forbid = (0..file.tokens.len()).any(|i| {
                    file.tok(i) == "forbid"
                        && file.next_code(i).is_some_and(|p| file.tok(p) == "(")
                        && file
                            .next_code(i)
                            .and_then(|p| file.next_code(p))
                            .is_some_and(|a| file.tok(a) == "unsafe_code")
                });
                if !has_forbid {
                    out.push(Diagnostic {
                        rule: self.id(),
                        path: file.rel.clone(),
                        line: 1,
                        col: 1,
                        message: "crate root missing `#![forbid(unsafe_code)]`".to_string(),
                    });
                }
            }
            if EVENT_LOOP.contains(&file.rel.as_str()) {
                for i in 0..file.tokens.len() {
                    if file.in_test_code(i) {
                        continue;
                    }
                    let text = file.tok(i);
                    if (text == "unwrap" || text == "expect")
                        && file.prev_code(i).is_some_and(|p| file.tok(p) == ".")
                        && file.next_code(i).is_some_and(|n| file.tok(n) == "(")
                    {
                        out.push(diag_at(
                            file,
                            i,
                            self.id(),
                            format!(
                                "`.{text}()` in the engine event loop; return a SimError \
                                 (panics lose the audit context that diagnoses large-n runs)"
                            ),
                        ));
                    }
                }
            }
        }
        out
    }
}
