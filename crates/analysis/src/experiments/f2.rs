//! F2 — the α-dependence of Theorem 1, and the jump at α = 1.
//!
//! Two sub-experiments on a fixed batch of identical jobs plus a
//! heavy-tail Poisson tail:
//!
//! * For `α < 1`, run Intermediate-SRPT and Parallel-SRPT and report the
//!   rigorous ratio bracket against the OPT bracket. Theorem 1 + Theorem 2
//!   predict: Intermediate-SRPT's measured `ratio ≤` column stays modest
//!   for all α, while Parallel-SRPT degrades as α drops (hoarding `m`
//!   processors wastes `m − m^α` of them).
//! * At `α = 1` (fully parallelizable), Parallel-SRPT is *optimal*
//!   (ratio exactly 1 vs the fluid lower bound, which is tight there) —
//!   the discontinuity the paper highlights: the optimal competitive
//!   ratio jumps from 1 to Θ(log P) the instant α < 1.

use parsched::{IntermediateSrpt, ParallelSrpt, PolicyKind};
use parsched_opt::{bounds, OptEstimate};
use parsched_sim::simulate;
use parsched_workloads::random::{AlphaDist, PoissonWorkload, SizeDist};

use super::{ExpOptions, ExpResult};
use crate::sweep::parallel_map;
use crate::table::{fnum, Table};

const M: f64 = 8.0;
const P: f64 = 64.0;

pub(super) fn run(opts: &ExpOptions) -> ExpResult {
    let alphas: Vec<f64> = if opts.quick {
        vec![0.25, 0.75, 1.0]
    } else {
        vec![0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    };
    let n = if opts.quick { 120 } else { 400 };
    let seed = opts.seed;

    let rows = parallel_map(alphas.clone(), move |alpha| {
        let sizes = SizeDist::LogUniform { p: P };
        let w = PoissonWorkload {
            n,
            rate: PoissonWorkload::rate_for_load(0.9, M, &sizes),
            sizes,
            alphas: AlphaDist::Fixed(alpha),
            seed,
        };
        let inst = w.generate().expect("workload");
        let est =
            OptEstimate::bracket_with(&inst, M, &PolicyKind::all_standard(), &[]).expect("bracket");
        let isrpt = simulate(&inst, &mut IntermediateSrpt::new(), M)
            .expect("isrpt")
            .metrics
            .total_flow;
        let psrpt = simulate(&inst, &mut ParallelSrpt::new(), M)
            .expect("psrpt")
            .metrics
            .total_flow;
        (alpha, isrpt, psrpt, est)
    });

    let mut table = Table::new(
        "F2: ratio brackets vs α (m=8, P=64, load 0.9, log-uniform sizes)",
        &[
            "α",
            "4^{1/(1-α)}",
            "ISRPT ratio ≤",
            "PSRPT ratio ≤",
            "PSRPT/ISRPT flow",
        ],
    );
    let mut psrpt_over_isrpt = Vec::new();
    for &(alpha, isrpt, psrpt, ref est) in &rows {
        let four = parsched::theory::four_power(alpha);
        psrpt_over_isrpt.push((alpha, psrpt / isrpt));
        table.push_row(vec![
            fnum(alpha),
            if four.is_finite() {
                fnum(four)
            } else {
                "∞".into()
            },
            fnum(isrpt / est.lower),
            fnum(psrpt / est.lower),
            fnum(psrpt / isrpt),
        ]);
    }

    // At α = 1: Parallel-SRPT equals the fluid lower bound exactly.
    // α = 1 is a literal grid point of ALPHAS, not a computed value.
    let alpha1 = rows.iter().find(|r| parsched_speedup::exact_eq(r.0, 1.0));
    let psrpt_optimal_at_one = alpha1.is_some_and(|&(_, _, psrpt, _)| {
        let sizes = SizeDist::LogUniform { p: P };
        let w = PoissonWorkload {
            n,
            rate: PoissonWorkload::rate_for_load(0.9, M, &sizes),
            sizes,
            alphas: AlphaDist::Fixed(1.0),
            seed,
        };
        let inst = w.generate().expect("workload");
        let fluid = bounds::srpt_fluid_lb(&inst, M);
        (psrpt - fluid).abs() / fluid < 1e-4
    });

    // Shape: PSRPT/ISRPT worsens as α decreases below 1, and at α = 1
    // PSRPT is optimal.
    let degraded_low_alpha = {
        let lo = psrpt_over_isrpt
            .iter()
            .filter(|&&(a, _)| a <= 0.5)
            .map(|&(_, r)| r)
            .fold(0.0, f64::max);
        lo > 1.3
    };

    ExpResult {
        id: "f2",
        title: "α-dependence and the jump at α = 1 (Theorem 1 constant)",
        tables: vec![table],
        notes: vec![
            "ratio ≤ is flow / provable OPT lower bound (conservative)".to_string(),
            format!("Parallel-SRPT optimal at α=1 (matches fluid SRPT): {psrpt_optimal_at_one}"),
        ],
        pass: degraded_low_alpha && psrpt_optimal_at_one,
    }
}
