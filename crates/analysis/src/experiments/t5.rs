//! T5 — fairness: the stretch trade-off behind SRPT-style policies.
//!
//! Total flow time is a *throughput* objective; the classic worry about
//! SRPT-style policies is fairness to large jobs. Stretch (`F_j / p_j`)
//! is the standard lens: a policy with small total flow but huge max
//! stretch is starving somebody. This table reports mean and max stretch
//! per policy on heavy-tailed Poisson workloads — the regime where the
//! trade-off bites.
//!
//! Expected shape: Intermediate-SRPT (and Sequential-SRPT/EQUI) land in
//! the efficient-and-fair corner — low flow AND bounded max stretch —
//! while the recency/parallelism-biased policies starve someone badly:
//! LAPS postpones *old* jobs indefinitely under overload, SETF restarts
//! everything behind fresh arrivals, and Parallel-SRPT parks the heavy
//! tail behind its hoarded machine. Their max stretch blows up by an
//! order of magnitude relative to Intermediate-SRPT's.

use parsched::PolicyKind;
use parsched_sim::simulate;
use parsched_workloads::random::{AlphaDist, PoissonWorkload, SizeDist};

use super::{ExpOptions, ExpResult};
use crate::stats::geomean;
use crate::sweep::parallel_map;
use crate::table::{fnum, Table};

const M: f64 = 8.0;
const P: f64 = 64.0;
const ALPHA: f64 = 0.5;

pub(super) fn run(opts: &ExpOptions) -> ExpResult {
    let loads: Vec<f64> = if opts.quick {
        vec![1.1]
    } else {
        vec![0.8, 1.1]
    };
    let seeds: Vec<u64> = if opts.quick {
        vec![opts.seed]
    } else {
        (0..3).map(|i| opts.seed + i).collect()
    };
    let n = if opts.quick { 150 } else { 500 };

    let mut cells = Vec::new();
    for &load in &loads {
        for &seed in &seeds {
            cells.push((load, seed));
        }
    }
    let runs = parallel_map(cells, move |(load, seed)| {
        let sizes = SizeDist::Pareto { p: P, shape: 1.2 };
        let inst = PoissonWorkload {
            n,
            rate: PoissonWorkload::rate_for_load(load, M, &sizes),
            sizes,
            alphas: AlphaDist::Fixed(ALPHA),
            seed,
        }
        .generate()
        .expect("workload");
        let per_policy: Vec<(String, f64, f64, f64)> = PolicyKind::all_standard()
            .iter()
            .map(|k| {
                let m = simulate(&inst, &mut k.build(), M).expect("run").metrics;
                (
                    k.name(),
                    m.total_flow,
                    m.total_stretch / m.num_jobs as f64,
                    m.max_stretch,
                )
            })
            .collect();
        (load, per_policy)
    });

    let mut table = Table::new(
        format!(
            "T5: fairness — stretch per policy (m={M}, Pareto(1.2) sizes on [1,{P}], α={ALPHA})"
        ),
        &[
            "load",
            "policy",
            "total flow (gm)",
            "mean stretch (gm)",
            "max stretch (gm)",
        ],
    );
    let policies = PolicyKind::all_standard();
    let mut isrpt_max = vec![];
    let mut starver_max = vec![];
    let mut equi_flow = vec![];
    let mut isrpt_flow = vec![];
    let mut best_flow = vec![];
    for &load in &loads {
        for (pi, kind) in policies.iter().enumerate() {
            let flows: Vec<f64> = runs
                .iter()
                .filter(|(l, _)| (*l - load).abs() < 1e-12)
                .map(|(_, per)| per[pi].1)
                .collect();
            let means: Vec<f64> = runs
                .iter()
                .filter(|(l, _)| (*l - load).abs() < 1e-12)
                .map(|(_, per)| per[pi].2)
                .collect();
            let maxes: Vec<f64> = runs
                .iter()
                .filter(|(l, _)| (*l - load).abs() < 1e-12)
                .map(|(_, per)| per[pi].3)
                .collect();
            match *kind {
                PolicyKind::IntermediateSrpt => {
                    isrpt_max.push(geomean(&maxes));
                    isrpt_flow.push(geomean(&flows));
                }
                PolicyKind::Laps(_) | PolicyKind::Setf | PolicyKind::ParallelSrpt => {
                    starver_max.push(geomean(&maxes));
                }
                PolicyKind::Equi => equi_flow.push(geomean(&flows)),
                _ => {}
            }
            if pi == 0 {
                best_flow.push(f64::INFINITY);
            }
            let last = best_flow.len() - 1;
            best_flow[last] = best_flow[last].min(geomean(&flows));
            table.push_row(vec![
                fnum(load),
                kind.name(),
                fnum(geomean(&flows)),
                fnum(geomean(&means)),
                fnum(geomean(&maxes)),
            ]);
        }
    }

    // Shape: Intermediate-SRPT is flow-efficient (within 5% of the best
    // policy), its worst-case stretch stays small in absolute terms, and
    // the recency/parallelism-biased policies starve someone by a wide
    // margin relative to it.
    let isrpt_efficient = isrpt_flow
        .iter()
        .zip(&best_flow)
        .all(|(i, b)| i <= &(b * 1.05));
    let equi_pays_flow = equi_flow
        .iter()
        .zip(&isrpt_flow)
        .all(|(e, i)| e >= &(i * 0.999));
    let isrpt_fair = isrpt_max.iter().all(|&x| x < 5.0);
    let starvers_starve = starver_max
        .iter()
        .zip(isrpt_max.iter().cycle())
        .any(|(s, i)| s > &(i * 3.0));
    ExpResult {
        id: "t5",
        title: "Fairness: the stretch trade-off (flow vs starvation)",
        tables: vec![table],
        notes: vec![
            "gm = geometric mean over seeds; stretch = flow / size".to_string(),
            "heavy tails make max stretch the starvation detector".to_string(),
        ],
        pass: isrpt_efficient && equi_pays_flow && isrpt_fair && starvers_starve,
    }
}
