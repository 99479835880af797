//! X3 — ablation of Intermediate-SRPT's regime boundary.
//!
//! The algorithm switches from Sequential-SRPT to EQUI exactly at
//! `|A(t)| = m`. Threshold-SRPT(θ) moves that boundary to `⌈θ·m⌉`;
//! sweeping θ across workloads shows the paper's choice `θ = 1` is the
//! sweet spot: `θ < 1` idles processors on parallelizable work in
//! underload, `θ > 1` abandons the SRPT discipline in overload.

use parsched::PolicyKind;
use parsched_sim::{simulate, Instance};
use parsched_workloads::mix::SawtoothWorkload;
use parsched_workloads::random::{AlphaDist, PoissonWorkload, SizeDist};

use super::{ExpOptions, ExpResult};
use crate::sweep::parallel_map;
use crate::table::{fnum, Table};

const M: usize = 8;
const ALPHA: f64 = 0.6;

pub(super) fn run(opts: &ExpOptions) -> ExpResult {
    let thetas: Vec<f64> = if opts.quick {
        vec![0.25, 1.0, 4.0]
    } else {
        vec![0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0]
    };
    let sizes = SizeDist::LogUniform { p: 32.0 };
    let mk_poisson = |load: f64, seed: u64| -> Instance {
        PoissonWorkload {
            n: if opts.quick { 150 } else { 400 },
            rate: PoissonWorkload::rate_for_load(load, M as f64, &sizes),
            sizes,
            alphas: AlphaDist::Fixed(ALPHA),
            seed,
        }
        .generate()
        .expect("poisson")
    };
    let workloads: Vec<(String, Instance)> = vec![
        ("poisson-0.7x".to_string(), mk_poisson(0.7, opts.seed)),
        ("poisson-1.2x".to_string(), mk_poisson(1.2, opts.seed + 1)),
        (
            "sawtooth".to_string(),
            SawtoothWorkload::crossing(M, if opts.quick { 4 } else { 10 }, ALPHA)
                .generate()
                .expect("sawtooth"),
        ),
    ];

    let mut headers = vec!["θ".to_string()];
    headers.extend(workloads.iter().map(|(n, _)| format!("{n} (×θ=1)")));
    let rows = parallel_map(thetas.clone(), move |theta| {
        let flows: Vec<f64> = workloads
            .iter()
            .map(|(_, inst)| {
                simulate(inst, &mut PolicyKind::Threshold(theta).build(), M as f64)
                    .expect("run")
                    .metrics
                    .total_flow
            })
            .collect();
        (theta, flows)
    });

    // Normalize each workload column by its θ = 1 value.
    let base_idx = thetas
        .iter()
        .position(|&t| (t - 1.0).abs() < 1e-12)
        .expect("θ=1 in grid");
    let base = &rows[base_idx].1;
    let mut table = Table::with_headers(
        format!("X3: Threshold-SRPT(θ) flow normalized to θ=1 (m={M}, α={ALPHA})"),
        headers,
    );
    let mut worst_at_one = 1.0f64;
    for (theta, flows) in &rows {
        let mut row = vec![fnum(*theta)];
        for (f, b) in flows.iter().zip(base) {
            let norm = f / b;
            if (*theta - 1.0).abs() > 1e-12 {
                worst_at_one = worst_at_one.min(norm);
            }
            row.push(fnum(norm));
        }
        table.push_row(row);
    }

    // Shape: θ = 1 is near-optimal across the grid — no alternative θ
    // beats it by more than a few percent on any workload, and the
    // extremes are clearly worse somewhere.
    let extremes_hurt = rows.iter().any(|(theta, flows)| {
        (*theta <= 0.5 || *theta >= 2.0) && flows.iter().zip(base).any(|(f, b)| f / b > 1.15)
    });
    let theta_one_near_best = worst_at_one > 0.9;

    ExpResult {
        id: "x3",
        title: "Ablation: the regime boundary belongs exactly at |A| = m",
        tables: vec![table],
        notes: vec![
            format!("best improvement any θ≠1 achieves anywhere: ×{worst_at_one:.3}"),
            "values > 1 mean worse than Intermediate-SRPT (θ = 1)".to_string(),
        ],
        pass: extremes_hurt && theta_one_near_best,
    }
}
