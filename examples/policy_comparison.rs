//! Sweep offered load × parallelizability and print a policy league table.
//!
//! Uses the parallel sweep runner, heavy-tail (bounded Pareto) sizes, and
//! rigorous OPT lower bounds, like experiment T1 but as a compact,
//! hackable program.
//!
//! ```sh
//! cargo run --release --example policy_comparison
//! ```

use parsched::PolicyKind;
use parsched_analysis::sweep::{grid2, parallel_map};
use parsched_analysis::table::{fnum, Table};
use parsched_opt::bounds;
use parsched_sim::simulate;
use parsched_workloads::random::{AlphaDist, PoissonWorkload, SizeDist};

fn main() {
    let m = 16.0;
    let p = 64.0;
    let n = 600;
    let loads = [0.5, 0.9, 1.3];
    let alphas = [0.2, 0.5, 0.8];

    let cells = grid2(&loads, &alphas);
    let rows = parallel_map(cells, move |(load, alpha)| {
        let sizes = SizeDist::Pareto { p, shape: 1.3 };
        let inst = PoissonWorkload {
            n,
            rate: PoissonWorkload::rate_for_load(load, m, &sizes),
            sizes,
            alphas: AlphaDist::Fixed(alpha),
            seed: 7,
        }
        .generate()
        .expect("workload");
        let lb = bounds::lower_bound(&inst, m);
        let flows: Vec<f64> = PolicyKind::all_standard()
            .iter()
            .map(|k| {
                simulate(&inst, &mut k.build(), m)
                    .expect("run")
                    .metrics
                    .total_flow
                    / lb
            })
            .collect();
        (load, alpha, flows)
    });

    let mut headers = vec!["load".to_string(), "α".to_string()];
    headers.extend(PolicyKind::all_standard().iter().map(|k| k.name()));
    let mut table = Table::with_headers(
        format!("flow / OPT-LB, m={m}, Pareto(1.3) sizes on [1,{p}], n={n}"),
        headers,
    );
    for (load, alpha, flows) in rows {
        let mut row = vec![fnum(load), fnum(alpha)];
        row.extend(flows.iter().map(|&f| fnum(f)));
        table.push_row(row);
    }
    println!("{}", table.render());
    println!("(values are conservative upper estimates of each policy's ratio — lower is better)");
}
