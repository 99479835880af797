//! F6 — the competitive ratio does not grow with m (machine-count
//! independence of Theorem 1).
//!
//! Theorem 1's bound `O(4^{1/(1-α)}·log P)` contains no `m`; Theorem 2's
//! lower bound likewise scales the *flow* with `m` but not the *ratio*.
//! A falsifiable consequence: sweeping `m` at fixed `α, P` on the phase
//! family, Intermediate-SRPT's rigorous ratio should stay flat (each
//! doubling of `m` doubles both the online flow and the certificate's).
//! Policies whose waste scales with `m` — Parallel-SRPT hoards `m`
//! processors for `m^α` work — must instead degrade.

use parsched::{IntermediateSrpt, ParallelSrpt};
use parsched_sim::Policy;
use parsched_workloads::PhaseFamily;

use super::util::bracket_cheap;
use super::{ExpOptions, ExpResult};
use crate::sweep::parallel_map;
use crate::table::{fnum, Table};

const ALPHA: f64 = 0.5;
const P: f64 = 64.0;

pub(super) fn run(opts: &ExpOptions) -> ExpResult {
    let ms: Vec<usize> = if opts.quick {
        vec![2, 8]
    } else {
        vec![2, 4, 8, 16, 32]
    };
    // A capped stream suffices here: both the online flow and the
    // certificate scale linearly with the stream, so the *ratio* columns
    // stabilize long before P² waves — and Parallel-SRPT's unbounded
    // backlog makes full-length streams quadratically expensive.
    let stream = if opts.quick { 512 } else { 1024 };

    let rows = parallel_map(ms, move |m| {
        let fam = PhaseFamily::new(m, ALPHA, P).with_stream_len(stream);
        let measure = |policy: &mut dyn Policy| {
            let (outcome, record) = fam.run_against(policy).expect("adversary run");
            let plan = fam.opt_plan(&record).expect("certificate");
            let est = bracket_cheap(
                &outcome.instance,
                m as f64,
                &[("standard-schedule".to_string(), plan)],
            )
            .expect("bracket");
            outcome.metrics.total_flow / est.upper
        };
        let isrpt = measure(&mut IntermediateSrpt::new());
        let psrpt = measure(&mut ParallelSrpt::new());
        (m, isrpt, psrpt)
    });

    let mut table = Table::new(
        format!("F6: ratio vs m on the Theorem-2 family (α={ALPHA}, P={P}, stream={stream})"),
        &["m", "ISRPT ratio ≥", "PSRPT ratio ≥", "PSRPT/ISRPT"],
    );
    for &(m, isrpt, psrpt) in &rows {
        table.push_row(vec![
            m.to_string(),
            fnum(isrpt),
            fnum(psrpt),
            fnum(psrpt / isrpt),
        ]);
    }

    // Shape: ISRPT's ratio is m-independent (spread < 40% across a 16×
    // range of m); PSRPT's is far above it at every m ≥ 4.
    let isrpt_vals: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let spread = isrpt_vals.iter().cloned().fold(0.0, f64::max)
        / isrpt_vals.iter().cloned().fold(f64::INFINITY, f64::min);
    let flat = spread < 1.4;
    let psrpt_degrades = rows.iter().filter(|r| r.0 >= 4).all(|r| r.2 > 3.0 * r.1);
    ExpResult {
        id: "f6",
        title: "Machine-count independence of the competitive ratio (Theorem 1)",
        tables: vec![table],
        notes: vec![
            format!(
                "ISRPT ratio spread across m ∈ {{2..32}}: ×{spread:.2} (flat ⇒ bound is m-free)"
            ),
            "PSRPT hoards m processors for m^α work, so its ratio must grow with m".to_string(),
        ],
        pass: flat && psrpt_degrades,
    }
}
