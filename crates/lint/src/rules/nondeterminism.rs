//! L002 — nondeterminism in simulation paths.
//!
//! Trace replay (`parsched audit`) and the four-way differential oracle
//! are only sound if a simulation is a pure function of its inputs and
//! seed. Wall clocks, entropy-seeded RNGs, and default-hasher map/set
//! iteration (whose order varies per process) all break that, usually in
//! ways no test at small `n` will catch.

use crate::engine::Workspace;
use crate::lex::TokenKind;
use crate::rules::{diag_at, in_scope, Rule};
use crate::Diagnostic;

/// The crates whose code paths feed simulations. Shared with L008, which
/// treats the same forbidden set as a *reachability* sink: L002 scans
/// these files token-locally, L008 follows calls that leave them.
pub(crate) const SCOPE: &[&str] = &[
    "crates/simcore/src/",
    "crates/core/src/",
    "crates/workloads/src/",
    // The adversary search promises byte-identical output across
    // `--jobs N`; a wall clock or entropy seed anywhere in it breaks
    // the corpus replay contract the same way it breaks trace replay.
    "crates/adversary/src/",
    // The fleet promises byte-identical per-tenant results across shard
    // counts and migrations; any ambient entropy in the serving layer
    // would break that the same way.
    "crates/fleet/src/",
];

/// (identifier, what is wrong with it). Shared with L008.
pub(crate) const BANNED: &[(&str, &str)] = &[
    (
        "Instant",
        "wall-clock time in a simulation path; simulations are driven by the virtual clock \
         (timing belongs in perfbench)",
    ),
    (
        "SystemTime",
        "wall-clock time in a simulation path; simulations are driven by the virtual clock",
    ),
    (
        "thread_rng",
        "entropy-seeded RNG in a simulation path; all randomness must flow from an explicit \
         u64 seed so runs replay bit-identically",
    ),
    (
        "from_entropy",
        "entropy-seeded RNG in a simulation path; all randomness must flow from an explicit \
         u64 seed so runs replay bit-identically",
    ),
    (
        "OsRng",
        "OS entropy in a simulation path; all randomness must flow from an explicit u64 seed",
    ),
    (
        "HashMap",
        "default-hasher HashMap in a simulation path; iteration order varies per process \
         (std's RandomState), so derived output can too — use BTreeMap or a dense \
         JobId-indexed structure",
    ),
    (
        "HashSet",
        "default-hasher HashSet in a simulation path; iteration order varies per process — \
         use BTreeSet or a dense JobId-indexed structure",
    ),
];

/// The L002 rule value.
pub struct Nondeterminism;

impl Rule for Nondeterminism {
    fn id(&self) -> &'static str {
        "L002"
    }

    fn summary(&self) -> &'static str {
        "nondeterminism in a simulation path (wall clocks, entropy-seeded RNGs, \
         default-hasher HashMap/HashSet)"
    }

    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in &ws.files {
            if !in_scope(&file.rel, SCOPE) {
                continue;
            }
            for i in 0..file.tokens.len() {
                if file.tokens[i].kind != TokenKind::Ident
                    || file.in_test_code(i)
                    || file.tokens[i].is_comment()
                {
                    continue;
                }
                let text = file.tok(i);
                if let Some((_, why)) = BANNED.iter().find(|(name, _)| *name == text) {
                    out.push(diag_at(file, i, self.id(), format!("`{text}`: {why}")));
                }
            }
        }
        out
    }
}
