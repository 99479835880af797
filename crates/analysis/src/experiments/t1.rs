//! T1 — cross-policy comparison on Poisson workloads.
//!
//! The motivating table: mean flow time of every policy across offered
//! loads and parallelizability levels, averaged over seeds. The paper's
//! thesis translates to: Intermediate-SRPT should be at or near the best
//! policy across the whole grid, while each baseline has a region where it
//! falls off (Parallel-SRPT at low α, Sequential-SRPT at low load with
//! parallel work, EQUI/LAPS under heavy overload of mixed sizes).

use parsched::PolicyKind;
use parsched_opt::bounds;
use parsched_sim::{simulate_audited, AuditLevel, EngineBuffers};
use parsched_workloads::random::{AlphaDist, PoissonWorkload, SizeDist};

use super::{ExpOptions, ExpResult};
use crate::stats::geomean;
use crate::sweep::{grid2, simulate_audited_reusing, Pool};
use crate::table::{fnum, Table};

const M: f64 = 8.0;
const P: f64 = 32.0;

pub(super) fn run(opts: &ExpOptions) -> ExpResult {
    let loads: Vec<f64> = if opts.quick {
        vec![0.6, 1.1]
    } else {
        vec![0.5, 0.8, 0.95, 1.2]
    };
    let alphas: Vec<f64> = if opts.quick {
        vec![0.5]
    } else {
        vec![0.25, 0.5, 0.75]
    };
    let seeds: Vec<u64> = if opts.quick {
        vec![opts.seed]
    } else {
        (0..3).map(|i| opts.seed + i).collect()
    };
    let n = if opts.quick { 150 } else { 500 };
    let policies = PolicyKind::all_standard();

    let cells = grid2(&grid2(&loads, &alphas), &seeds);
    // Each sweep worker owns one set of recycled engine buffers for its
    // whole share of the grid; results are committed in input order, so
    // the table is byte-identical however many workers run it (tested in
    // `tests/sweep_pool_determinism.rs`).
    let results = Pool::current().map_with(
        EngineBuffers::new,
        cells,
        move |bufs, ((load, alpha), seed)| {
            let sizes = SizeDist::Pareto { p: P, shape: 1.5 };
            let w = PoissonWorkload {
                n,
                rate: PoissonWorkload::rate_for_load(load, M, &sizes),
                sizes,
                alphas: AlphaDist::Fixed(alpha),
                seed,
            };
            let inst = w.generate().expect("workload");
            let lb = bounds::lower_bound(&inst, M);
            // Every run goes through the sampled invariant auditor: an audit
            // failure is data (the table's last column), not a panic.
            let flows: Vec<(String, f64, bool)> = PolicyKind::all_standard()
                .iter()
                .map(|k| {
                    let (out, next) = simulate_audited_reusing(
                        std::mem::take(bufs),
                        &inst,
                        k.build().as_mut(),
                        M,
                        AuditLevel::Sampled(64),
                    );
                    *bufs = next;
                    match out {
                        Ok(out) => (k.name(), out.metrics.total_flow, out.audit.is_some()),
                        Err(parsched_sim::SimError::AuditFailed { .. }) => {
                            let f = simulate_audited(&inst, &mut k.build(), M, AuditLevel::Off)
                                .expect("policy run")
                                .metrics
                                .total_flow;
                            (k.name(), f, false)
                        }
                        Err(e) => panic!("policy run: {e}"),
                    }
                })
                .collect();
            (load, alpha, lb, flows)
        },
    );

    // Aggregate per (load, α): normalized flow = flow / LB, geomean over
    // seeds.
    let mut headers = vec!["load".to_string(), "α".to_string()];
    headers.extend(policies.iter().map(|k| k.name()));
    headers.push("audit".to_string());
    let mut table = Table::with_headers(
        format!("T1: flow / OPT-LB per policy (m={M}, P={P}, Pareto sizes, n={n})"),
        headers,
    );

    let mut isrpt_wins = 0usize;
    let mut combos = 0usize;
    let mut all_audits_pass = true;
    for &load in &loads {
        for &alpha in &alphas {
            let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
            let mut cell_audit = true;
            for (l, a, lb, flows) in &results {
                if (*l - load).abs() < 1e-12 && (*a - alpha).abs() < 1e-12 {
                    for (i, (_, f, audit_ok)) in flows.iter().enumerate() {
                        per_policy[i].push(f / lb);
                        cell_audit &= audit_ok;
                    }
                }
            }
            let norms: Vec<f64> = per_policy.iter().map(|v| geomean(v)).collect();
            combos += 1;
            all_audits_pass &= cell_audit;
            let best = norms.iter().copied().fold(f64::INFINITY, f64::min);
            // Intermediate-SRPT is index 0 in all_standard().
            if norms[0] <= best * 1.25 {
                isrpt_wins += 1;
            }
            let mut row = vec![fnum(load), fnum(alpha)];
            row.extend(norms.iter().map(|&x| fnum(x)));
            row.push(if cell_audit { "✓" } else { "✗" }.to_string());
            table.push_row(row);
        }
    }

    // Shape claim AND conservation-law audit must both hold.
    let pass = isrpt_wins * 4 >= combos * 3 && all_audits_pass;
    ExpResult {
        id: "t1",
        title: "Cross-policy comparison on Poisson workloads",
        tables: vec![table],
        notes: vec![
            "cells are geometric means over seeds of total flow / provable OPT lower bound"
                .to_string(),
            "audit column: every policy run in the cell passed the sampled invariant audit"
                .to_string(),
            format!(
                "Intermediate-SRPT within 25% of the best policy in {isrpt_wins}/{combos} cells"
            ),
        ],
        pass,
    }
}
