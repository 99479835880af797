//! X2 — speed augmentation rescues the non-clairvoyant baselines.
//!
//! The paper's related-work section leans on two classic results: EQUI is
//! `(2+ε)`-speed `O(1)`-competitive (Edmonds), and LAPS is scalable
//! (`(1+β+ε)`-speed `O(1)`-competitive, Edmonds–Pruhs). We replay fixed
//! instances (an overloaded Poisson workload and a Theorem-2 adversarial
//! instance materialized at speed 1) with the engine's speed-augmentation
//! knob and measure `flow_s / UB(OPT at speed 1)`. The shape: both
//! policies' ratios collapse toward O(1) once `s` clears their respective
//! thresholds, while at `s = 1` the adversarial instance hurts them —
//! exactly why augmentation-free guarantees (the paper's setting) are the
//! harder target.

use parsched::{Equi, PolicyKind};
use parsched_sim::{Engine, EngineConfig, Instance, NullObserver, Policy, StaticSource};
use parsched_workloads::random::{AlphaDist, PoissonWorkload, SizeDist};
use parsched_workloads::PhaseFamily;

use super::util::bracket_cheap;
use super::{ExpOptions, ExpResult};
use crate::sweep::parallel_map;
use crate::table::{fnum, Table};

const M: usize = 4;
const ALPHA: f64 = 0.5;

fn run_with_speed(inst: &Instance, policy: &mut dyn Policy, m: f64, speed: f64) -> f64 {
    let mut src = StaticSource::new(inst);
    let mut obs = NullObserver;
    Engine::new(
        EngineConfig::new(m).with_speed(speed),
        policy,
        &mut src,
        &mut obs,
    )
    .run()
    .expect("augmented run")
    .metrics
    .total_flow
}

pub(super) fn run(opts: &ExpOptions) -> ExpResult {
    let speeds: Vec<f64> = if opts.quick {
        vec![1.0, 2.0, 3.0]
    } else {
        vec![1.0, 1.25, 1.5, 2.0, 2.5, 3.0]
    };

    // Fixed instances: an overloaded Poisson workload and the phase-family
    // instance materialized against EQUI at speed 1.
    let sizes = SizeDist::LogUniform { p: 32.0 };
    let poisson = PoissonWorkload {
        n: if opts.quick { 150 } else { 400 },
        rate: PoissonWorkload::rate_for_load(1.2, M as f64, &sizes),
        sizes,
        alphas: AlphaDist::Fixed(ALPHA),
        seed: opts.seed,
    }
    .generate()
    .expect("poisson");
    let fam = PhaseFamily::new(M, ALPHA, 32.0).with_stream_len(if opts.quick { 128 } else { 1024 });
    let (adv_outcome, record) = fam.run_against(&mut Equi::new()).expect("adversary");
    let plan = fam.opt_plan(&record).expect("certificate");
    let adv_est = bracket_cheap(
        &adv_outcome.instance,
        M as f64,
        &[("standard-schedule".to_string(), plan)],
    )
    .expect("bracket");
    let poisson_est = bracket_cheap(&poisson, M as f64, &[]).expect("bracket");

    let mut cells = Vec::new();
    for &s in &speeds {
        for kind in [PolicyKind::Equi, PolicyKind::Laps(0.5)] {
            cells.push((s, kind));
        }
    }
    let instances = [
        ("poisson-1.2x", poisson, poisson_est.upper),
        ("phase-adversary", adv_outcome.instance, adv_est.upper),
    ];
    let rows = parallel_map(cells, move |(s, kind)| {
        let mut per_inst = Vec::new();
        for (name, inst, ub) in &instances {
            let flow = run_with_speed(inst, &mut kind.build(), M as f64, s);
            per_inst.push((name.to_string(), flow / ub));
        }
        (s, kind.name(), per_inst)
    });

    let mut table = Table::new(
        format!("X2: s-speed flow / OPT-UB(speed 1) (m={M}, α={ALPHA})"),
        &["speed", "policy", "poisson-1.2x", "phase-adversary"],
    );
    let equi_at = |target: f64| -> f64 {
        rows.iter()
            .filter(|(s, name, _)| (*s - target).abs() < 1e-9 && name == "EQUI")
            .map(|(_, _, per)| per.iter().map(|(_, r)| *r).fold(0.0, f64::max))
            .next()
            .unwrap_or(f64::NAN)
    };
    let equi_1 = equi_at(1.0);
    let equi_fast = equi_at(*speeds.last().expect("speeds"));
    for (s, name, per) in &rows {
        table.push_row(vec![fnum(*s), name.clone(), fnum(per[0].1), fnum(per[1].1)]);
    }

    // Shape: augmentation helps a lot — EQUI's worst normalized flow at
    // the top speed is far below its speed-1 value (and small in absolute
    // terms; "O(1)" at this scale).
    let pass = equi_fast < 0.6 * equi_1 && equi_fast < 3.0;
    ExpResult {
        id: "x2",
        title: "Speed augmentation rescues EQUI/LAPS (related-work context)",
        tables: vec![table],
        notes: vec![
            "values are flow at speed s divided by the speed-1 OPT upper bound".to_string(),
            format!(
                "EQUI worst cell: {equi_1:.2} at s=1 → {equi_fast:.2} at s={}",
                speeds.last().expect("speeds")
            ),
        ],
        pass,
    }
}
