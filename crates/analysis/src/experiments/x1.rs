//! X1 — ablation of the greedy hybrid's re-decision quantum.
//!
//! Greedy's argmax depends on the current remaining works and can flip
//! between discrete events, so the engine simulates it with a re-decision
//! quantum: a fraction `resolution` of the shortest completion horizon.
//! Shrinking the resolution tracks the continuous-time policy more
//! closely and costs more events. The sweep reports, per resolution, the
//! total flow, its deviation from a fine 0.005 baseline, and the event
//! count; the shape is that the event count never falls as the
//! resolution shrinks.

use parsched::GreedyHybrid;
use parsched_sim::simulate;
use parsched_workloads::random::{AlphaDist, PoissonWorkload, SizeDist};

use super::{ExpOptions, ExpResult};
use crate::sweep::parallel_map;
use crate::table::{fnum, Table};

const M: f64 = 8.0;
const ALPHA: f64 = 0.5;
const LOAD: f64 = 1.0;
/// The finest resolution, which the other rows are compared against.
const BASELINE: f64 = 0.005;

pub(super) fn run(opts: &ExpOptions) -> ExpResult {
    let (n, coarse): (usize, Vec<f64>) = if opts.quick {
        (100, vec![0.5, 0.1, 0.02])
    } else {
        (500, vec![0.5, 0.2, 0.1, 0.05, 0.02])
    };
    let sizes = SizeDist::LogUniform { p: 32.0 };
    let inst = PoissonWorkload {
        n,
        rate: PoissonWorkload::rate_for_load(LOAD, M, &sizes),
        sizes,
        alphas: AlphaDist::Fixed(ALPHA),
        seed: opts.seed,
    }
    .generate()
    .expect("poisson");

    // Coarsest first, the baseline last: the event counts must not fall
    // down the table.
    let resolutions: Vec<f64> = coarse.into_iter().chain([BASELINE]).collect();
    let rows = parallel_map(resolutions, move |res| {
        let metrics = simulate(&inst, &mut GreedyHybrid::with_resolution(res), M)
            .expect("run")
            .metrics;
        (res, metrics.total_flow, metrics.events)
    });
    let (_, base_flow, _) = *rows.last().expect("baseline row");

    let mut table = Table::with_headers(
        format!("X1: Greedy re-decision resolution (n={n}, load {LOAD}, m={M}, α={ALPHA})"),
        vec![
            "resolution".to_string(),
            "flow".to_string(),
            format!("Δ vs {BASELINE} (%)"),
            "events".to_string(),
        ],
    );
    for &(res, flow, events) in &rows {
        table.push_row(vec![
            res.to_string(),
            fnum(flow),
            fnum(100.0 * (flow - base_flow) / base_flow),
            events.to_string(),
        ]);
    }
    let events_never_fall = rows.windows(2).all(|w| w[1].2 >= w[0].2);

    ExpResult {
        id: "x1",
        title: "Ablation: Greedy's re-decision quantum trades events for accuracy",
        tables: vec![table],
        notes: vec![
            format!(
                "resolution = fraction of the shortest completion horizon; default {}",
                GreedyHybrid::DEFAULT_RESOLUTION
            ),
            format!(
                "baseline (resolution {BASELINE}) total flow {}",
                fnum(base_flow)
            ),
        ],
        pass: events_never_fall,
    }
}
