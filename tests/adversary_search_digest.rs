//! Pinned digests of whole adversary searches.
//!
//! `run_search` keeps caches between its runs: per-worker engine buffers
//! and policy values, one engine and policy for the strict fuzz pass, and
//! the candidates' provenance strings. None of them may change a result,
//! so each search's outcome is folded into one digest here and compared
//! against the value recorded before any of that state was retained: the
//! evaluation count, every trajectory bit, every elite's genome
//! (provenance), bound kind and flow/bound/ratio bits, and every fuzz
//! failure. The searches are the benchmark's six policies at seed 7 and
//! budget 200, and Greedy at budget 40.

use parsched::PolicyKind;
use parsched_adversary::{run_search, SearchConfig, SearchOutcome};

/// FNV-1a over bytes.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// The digest of one search outcome.
fn digest(out: &SearchOutcome) -> u64 {
    let mut d = Digest::new();
    d.word(out.evals as u64);
    d.word(out.trajectory.len() as u64);
    for r in &out.trajectory {
        d.word(r.to_bits());
    }
    d.word(out.elites.len() as u64);
    for e in &out.elites {
        d.text(&e.genome.provenance());
        d.text(e.lb_kind.name());
        for x in [e.flow, e.lb, e.ratio] {
            d.word(x.to_bits());
        }
    }
    d.word(out.failures.len() as u64);
    for f in &out.failures {
        d.text(&f.provenance);
        d.text(&f.error);
        d.word(f.jobs.len() as u64);
    }
    d.0
}

/// `(policy, budget, digest)` at seed 7, recorded on a search that
/// rebuilt every engine, auditor and policy per run.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("Intermediate-SRPT", 200, 0x0beec65549503cf9),
    ("Parallel-SRPT", 200, 0xa41b76920d38879a),
    ("Sequential-SRPT", 200, 0xc9e1bb90a4921b59),
    ("EQUI", 200, 0x0d5745b347c31d6c),
    ("LAPS(0.5)", 200, 0x187a7a2b3de181c3),
    ("SETF", 200, 0x1ff20cd87d3abaaf),
    ("Greedy", 40, 0x3b6735b07dcdea17),
];

#[test]
fn search_outcomes_match_their_pinned_digests() {
    let searches: Vec<(PolicyKind, usize)> = PolicyKind::all_standard()
        .into_iter()
        .filter(|p| *p != PolicyKind::Greedy)
        .map(|p| (p, 200))
        .chain([(PolicyKind::Greedy, 40)])
        .collect();
    let rendered: Vec<String> = searches
        .iter()
        .map(|&(policy, budget)| {
            let mut cfg = SearchConfig::new(policy, 7, budget);
            cfg.jobs = 2;
            let d = digest(&run_search(&cfg));
            format!("    ({:?}, {budget}, 0x{d:016x}),", policy.name())
        })
        .collect();
    let expected: Vec<String> = GOLDEN
        .iter()
        .map(|(p, b, d)| format!("    ({p:?}, {b}, 0x{d:016x}),"))
        .collect();
    assert_eq!(
        rendered,
        expected,
        "search digests changed; actual table:\n{}",
        rendered.join("\n")
    );
}
