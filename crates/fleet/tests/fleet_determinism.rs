//! Fleet-level determinism and cross-check contracts:
//!
//! * a fleet of N tenants produces **byte-identical** per-tenant results
//!   whatever the shard count (`Pool::new(1)` vs `Pool::new(4)`) and
//!   whether or not every suspension is forced through a cross-shard
//!   migration (the `parsched-snap/v3` text codec);
//! * one pool reused across two sessions and a query batch gives the
//!   same bytes as running them on `Pool::new(1)`;
//! * tenants kept as parked engines between slices finish bit-identically
//!   to dedicated solo runs, for every registry policy;
//! * mid-run projection queries answered from parked tenants equal the
//!   answers derived from a tenant driven slice by slice through
//!   `snapshot` / `restore` on fresh engines;
//! * batched projection queries agree with the heSRPT closed form
//!   (`parsched_opt::hesrpt_batch_lb`) on batch-release pure-power
//!   tenants — the one family where an exact external answer exists.

use parsched::PolicyKind;
use parsched_analysis::Pool;
use parsched_fleet::{
    FleetConfig, FleetOutcome, FleetQuery, FleetSession, QueryAnswer, TenantSpec, TenantStatus,
};
use parsched_opt::hesrpt_batch_lb;
use parsched_sim::{
    Engine, EngineConfig, Instance, JobId, JobSpec, NullObserver, Observer, RunMetrics, Snapshot,
    StaticSource, Time,
};
use parsched_speedup::Curve;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn mixed_instance(n: usize, seed: u64) -> Instance {
    let mut state = seed;
    let alphas = [0.25, 0.5, 0.75, 1.0];
    let mut release = 0.0;
    let jobs = (0..n)
        .map(|i| {
            let u = splitmix(&mut state);
            release += (u % 5) as f64 * 0.5;
            let size = 1.0 + (u % 7) as f64;
            let alpha = alphas[(u as usize >> 8) % alphas.len()];
            JobSpec::new(JobId(i as u64), release, size, Curve::power(alpha))
        })
        .collect();
    Instance::new(jobs).expect("mixed instance")
}

fn fleet(n: usize) -> Vec<TenantSpec> {
    let policies = PolicyKind::all_registered();
    (0..n)
        .map(|i| {
            TenantSpec::new(
                format!("tenant-{i:04}"),
                mixed_instance(5 + i % 9, 0xfee1 + i as u64),
                policies[i % policies.len()],
                if i % 2 == 0 { 4.0 } else { 8.0 },
            )
            .with_streaming(i % 3 == 0)
        })
        .collect()
}

/// Canonical byte rendering of a fleet outcome: every float as its exact
/// bit pattern, so "byte-identical" below really means bit-identical.
fn render(out: &FleetOutcome) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for r in &out.reports {
        let _ = write!(s, "{}|{}|{}|{}|", r.name, r.policy, r.streaming, r.jobs);
        match &r.status {
            TenantStatus::Done { metrics, rounds } => {
                let _ = writeln!(
                    s,
                    "done|{}|{}|{}|{}|{}",
                    rounds,
                    metrics.events,
                    metrics.total_flow.to_bits(),
                    metrics.fractional_flow.to_bits(),
                    metrics.makespan.to_bits()
                );
            }
            TenantStatus::Shed { reason } => {
                let _ = writeln!(s, "shed|{reason}");
            }
            TenantStatus::Failed { error } => {
                let _ = writeln!(s, "failed|{error}");
            }
        }
    }
    s
}

fn run_fleet(jobs: usize, migrate: bool) -> String {
    let cfg = FleetConfig {
        max_in_flight: 8,
        max_pending: 64,
        slice_events: 5,
        migrate,
    };
    let mut session = FleetSession::new(cfg, fleet(24)).expect("session");
    let out = session.run(&Pool::new(jobs));
    assert_eq!(out.done, 24, "all tenants must complete:\n{}", render(&out));
    render(&out)
}

#[test]
fn fleet_results_are_byte_identical_across_shard_counts_and_migration() {
    let serial = run_fleet(1, false);
    let parallel = run_fleet(4, false);
    assert_eq!(serial, parallel, "shard count leaked into results");
    // Forcing every suspension through the text codec — a migration to
    // another shard/host each round — must change nothing.
    let migrated_serial = run_fleet(1, true);
    let migrated_parallel = run_fleet(4, true);
    assert_eq!(serial, migrated_serial, "migration changed results");
    assert_eq!(serial, migrated_parallel, "migrated parallel run diverged");
}

/// Canonical byte rendering of query answers, floats as bit patterns.
fn render_answers(answers: &[Result<QueryAnswer, String>]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for answer in answers {
        let _ = match answer {
            Ok(QueryAnswer::Completion(t)) => writeln!(s, "completion|{}", t.to_bits()),
            Ok(QueryAnswer::Flow(f)) => writeln!(s, "flow|{}", f.to_bits()),
            Ok(QueryAnswer::Progress {
                now,
                events,
                completed,
                admitted,
            }) => writeln!(
                s,
                "progress|{}|{events}|{completed}|{admitted}",
                now.to_bits()
            ),
            Err(e) => writeln!(s, "error|{e}"),
        };
    }
    s
}

/// Two fleet sessions and a mid-run query batch, one after another on
/// the same `pool`: the first session, its answers, and the second
/// (migrating) session, each rendered byte for byte.
fn sessions_on(pool: &Pool) -> Vec<String> {
    let cfg = FleetConfig {
        max_in_flight: 8,
        max_pending: 64,
        slice_events: 5,
        migrate: false,
    };
    let mut first = FleetSession::new(cfg, fleet(24)).expect("session");
    for _ in 0..3 {
        first.round(pool);
    }
    let queries: Vec<FleetQuery> = (0..24)
        .step_by(5)
        .flat_map(|i| {
            let tenant = format!("tenant-{i:04}");
            [
                FleetQuery::ProjectedCompletion {
                    tenant: tenant.clone(),
                    job: JobId(3),
                },
                FleetQuery::ProjectedFlow {
                    tenant: tenant.clone(),
                },
                FleetQuery::FlowSoFar {
                    tenant: tenant.clone(),
                },
                FleetQuery::Progress { tenant },
            ]
        })
        .collect();
    let answers = first.query_batch(pool, &queries);
    let first = first.run(pool);
    let cfg = FleetConfig {
        slice_events: 7,
        migrate: true,
        ..cfg
    };
    let second = FleetSession::new(cfg, fleet(17))
        .expect("session")
        .run(pool);
    assert_eq!(first.done + second.done, 24 + 17);
    vec![render(&first), render_answers(&answers), render(&second)]
}

/// One pool, reused across sessions and a query batch — its helper
/// threads persist from call to call — changes no byte of any report.
#[test]
fn one_pool_serves_sessions_and_queries_byte_identically() {
    let serial = sessions_on(&Pool::new(1));
    let shared = Pool::new(4);
    assert_eq!(sessions_on(&shared), serial, "shared pool diverged");
    // The same pool again, its helpers now warm.
    assert_eq!(sessions_on(&shared), serial, "warm pool diverged");
}

/// Batch-release pure-power tenants under Intermediate-SRPT: the
/// projected total flow answered from a mid-run snapshot must dominate
/// the heSRPT closed-form lower bound, and on single-job tenants (where
/// the policy's one-job allocation of all `m` processors is exactly the
/// heSRPT schedule and the repo's kneed curve is degenerate at `x ≤ m`
/// only when sized to stay fully parallel) the projection equals the
/// closed form up to float tolerance.
#[test]
fn batched_queries_cross_check_against_the_hesrpt_closed_form() {
    // Multi-job batch tenants: α = 0.5, all released at t = 0.
    let batch = |sizes: &[f64], id0: u64| {
        let jobs = sizes
            .iter()
            .enumerate()
            .map(|(i, &p)| JobSpec::new(JobId(id0 + i as u64), 0.0, p, Curve::power(0.5)))
            .collect();
        Instance::new(jobs).expect("batch instance")
    };
    let m = 4.0;
    let tenants = vec![
        TenantSpec::new(
            "batch-a",
            batch(&[1.0, 2.0, 3.0, 5.0], 0),
            PolicyKind::IntermediateSrpt,
            m,
        ),
        TenantSpec::new(
            "batch-b",
            batch(&[2.0, 2.0, 2.0], 100),
            PolicyKind::IntermediateSrpt,
            m,
        ),
        // Single job of size 2 on m = 4 with Γ(x) = min(x, x^0.5·…) kneed
        // at 1: allocated all 4 processors, rate 4^0.5 = 2 — but the pure
        // power law gives the same rate only when the curve is pure; the
        // kneed curve caps Γ(x) ≤ x. Both give Γ(4) = 2 here, so the LB
        // is tight.
        TenantSpec::new("solo", batch(&[2.0], 200), PolicyKind::IntermediateSrpt, m),
    ];
    let cfg = FleetConfig {
        max_in_flight: 3,
        max_pending: 0,
        slice_events: 2,
        migrate: true,
    };
    let mut session = FleetSession::new(cfg, tenants.clone()).expect("session");
    let pool = Pool::new(2);
    // Suspend everyone mid-run, then ask for the projected final flow.
    session.round(&pool);
    let queries: Vec<FleetQuery> = tenants
        .iter()
        .map(|t| FleetQuery::ProjectedFlow {
            tenant: t.name.clone(),
        })
        .collect();
    let answers = session.query_batch(&pool, &queries);
    for (t, answer) in tenants.iter().zip(&answers) {
        let lb = hesrpt_batch_lb(&t.instance, m).expect("closed form applies");
        let projected = match answer.as_ref().expect("projected flow") {
            QueryAnswer::Flow(f) => *f,
            other => panic!("{}: {other:?}", t.name),
        };
        assert!(
            projected >= lb - 1e-9,
            "{}: projected flow {projected} below the heSRPT lower bound {lb}",
            t.name
        );
        if t.instance.len() == 1 {
            assert!(
                (projected - lb).abs() < 1e-9,
                "{}: single-job projection {projected} != closed form {lb}",
                t.name
            );
        }
    }
    // The projections must also be what actually happens: run the fleet
    // out and compare the final flows.
    let out = session.run(&pool);
    for (report, answer) in out.reports.iter().zip(&answers) {
        let projected = match answer.as_ref().expect("projected flow") {
            QueryAnswer::Flow(f) => *f,
            other => panic!("{other:?}"),
        };
        match &report.status {
            TenantStatus::Done { metrics, .. } => assert_eq!(
                metrics.total_flow.to_bits(),
                projected.to_bits(),
                "{}: projection was not exact",
                report.name
            ),
            other => panic!("{}: {other:?}", report.name),
        }
    }
}

fn solo_metrics(t: &TenantSpec) -> RunMetrics {
    let mut policy = t.policy.build();
    let mut source = StaticSource::new(&t.instance);
    let mut obs = NullObserver;
    let cfg = EngineConfig::new(t.m).with_streaming(t.streaming);
    Engine::new(cfg, policy.as_mut(), &mut source, &mut obs)
        .run_streaming()
        .expect("solo run")
        .metrics
}

fn metric_bits(m: &RunMetrics) -> [u64; 10] {
    [
        m.events,
        m.num_jobs as u64,
        m.total_flow.to_bits(),
        m.fractional_flow.to_bits(),
        m.makespan.to_bits(),
        m.max_flow.to_bits(),
        m.total_stretch.to_bits(),
        m.max_stretch.to_bits(),
        m.total_weighted_flow.to_bits(),
        m.alive_integral.to_bits(),
    ]
}

#[test]
fn parked_tenants_finish_bit_identically_to_solo_runs() {
    let tenants = fleet(30);
    assert!(
        PolicyKind::all_registered()
            .iter()
            .all(|p| tenants.iter().any(|t| t.policy == *p)),
        "the fleet must cover every registry policy"
    );
    let solo: Vec<[u64; 10]> = tenants
        .iter()
        .map(|t| metric_bits(&solo_metrics(t)))
        .collect();
    for (slice_events, migrate) in [(1, false), (3, true), (7, false), (64, false)] {
        let cfg = FleetConfig {
            max_in_flight: 6,
            max_pending: 64,
            slice_events,
            migrate,
        };
        let mut session = FleetSession::new(cfg, tenants.clone()).expect("session");
        let out = session.run(&Pool::new(2));
        assert_eq!(out.done, tenants.len(), "{}", render(&out));
        for (report, want) in out.reports.iter().zip(&solo) {
            match &report.status {
                TenantStatus::Done { metrics, .. } => assert_eq!(
                    &metric_bits(metrics),
                    want,
                    "{} ({}) slice {slice_events} migrate {migrate}",
                    report.name,
                    report.policy
                ),
                other => panic!("{}: {other:?}", report.name),
            }
        }
    }
}

/// Where a tenant driven slice by slice through `snapshot` / `restore` on
/// fresh engines stands after `slices` slices.
enum Reference {
    Suspended(Box<Snapshot>),
    Done(RunMetrics),
}

fn snapshot_restore_drive(t: &TenantSpec, slice: u64, slices: u64) -> Reference {
    let cfg = EngineConfig::new(t.m).with_streaming(t.streaming);
    let mut snap: Option<Snapshot> = None;
    for _ in 0..slices {
        let mut policy = t.policy.build();
        let mut source = StaticSource::new(&t.instance);
        let mut obs = NullObserver;
        let mut engine = Engine::new(cfg, policy.as_mut(), &mut source, &mut obs);
        if let Some(s) = &snap {
            engine.restore(s).expect("restore");
        }
        for _ in 0..slice {
            if !engine.step().expect("step") {
                return Reference::Done(engine.run_streaming().expect("finalize").metrics);
            }
        }
        snap = Some(engine.snapshot().expect("snapshot"));
    }
    Reference::Suspended(Box::new(snap.expect("at least one slice")))
}

struct Watch {
    job: JobId,
    at: Option<Time>,
}

impl Observer for Watch {
    fn on_completion(&mut self, t: Time, job: &JobSpec) {
        if job.id == self.job && self.at.is_none() {
            self.at = Some(t);
        }
    }

    fn needs_allocation_stream(&self) -> bool {
        false
    }
}

/// Runs `t` to the end from `snap` (or from scratch), watching `job`.
fn project(t: &TenantSpec, snap: Option<&Snapshot>, job: JobId) -> (RunMetrics, Option<Time>) {
    let cfg = EngineConfig::new(t.m).with_streaming(t.streaming);
    let mut policy = t.policy.build();
    let mut source = StaticSource::new(&t.instance);
    let mut watch = Watch { job, at: None };
    let mut engine = Engine::new(cfg, policy.as_mut(), &mut source, &mut watch);
    if let Some(s) = snap {
        engine.restore(s).expect("restore");
    }
    let metrics = engine.run_streaming().expect("projection").metrics;
    (metrics, watch.at)
}

#[test]
fn mid_run_queries_from_parked_tenants_match_the_snapshot_restore_path() {
    let tenants = fleet(20);
    let slice = 4;
    let rounds = 2;
    let cfg = FleetConfig {
        max_in_flight: tenants.len(),
        max_pending: 0,
        slice_events: slice,
        migrate: false,
    };
    let mut session = FleetSession::new(cfg, tenants.clone()).expect("session");
    let pool = Pool::new(2);
    for _ in 0..rounds {
        session.round(&pool);
    }
    for t in &tenants {
        let last_job = t.instance.jobs().last().expect("non-empty").id;
        let queries = vec![
            FleetQuery::ProjectedFlow {
                tenant: t.name.clone(),
            },
            FleetQuery::ProjectedCompletion {
                tenant: t.name.clone(),
                job: JobId(0),
            },
            FleetQuery::ProjectedCompletion {
                tenant: t.name.clone(),
                job: last_job,
            },
            FleetQuery::FlowSoFar {
                tenant: t.name.clone(),
            },
            FleetQuery::Progress {
                tenant: t.name.clone(),
            },
        ];
        let got = session.query_batch(&pool, &queries);
        let reference = snapshot_restore_drive(t, slice, rounds);
        let completion = |job: JobId| -> Result<QueryAnswer, String> {
            let (snap, recorded) = match &reference {
                Reference::Suspended(s) => (Some(&**s), s.completion_of(job)),
                Reference::Done(_) => (None, None),
            };
            match recorded.or_else(|| project(t, snap, job).1) {
                Some(at) => Ok(QueryAnswer::Completion(at)),
                None => Err("no completion record".to_string()),
            }
        };
        let want: Vec<Result<QueryAnswer, String>> = match &reference {
            Reference::Suspended(s) => vec![
                Ok(QueryAnswer::Flow(
                    project(t, Some(s), JobId(0)).0.total_flow,
                )),
                completion(JobId(0)),
                completion(last_job),
                Ok(QueryAnswer::Flow(s.total_flow_so_far())),
                Ok(QueryAnswer::Progress {
                    now: s.now(),
                    events: s.events(),
                    completed: s.completed_count(),
                    admitted: s.admitted(),
                }),
            ],
            Reference::Done(m) => vec![
                Ok(QueryAnswer::Flow(m.total_flow)),
                completion(JobId(0)),
                completion(last_job),
                Ok(QueryAnswer::Flow(m.total_flow)),
                Ok(QueryAnswer::Progress {
                    now: m.makespan,
                    events: m.events,
                    completed: m.num_jobs as u64,
                    admitted: m.num_jobs,
                }),
            ],
        };
        for (q, (g, w)) in queries.iter().zip(got.iter().zip(&want)) {
            match (g, w) {
                (Ok(g), Ok(w)) => assert_eq!(bits(g), bits(w), "{}: {q:?}", t.name),
                (Err(_), Err(_)) => {}
                _ => panic!("{}: {q:?}: parked {g:?} vs snapshot-restore {w:?}", t.name),
            }
        }
    }
    // Capturing the parked tenants for the queries left their runs intact.
    let out = session.run(&pool);
    for (report, t) in out.reports.iter().zip(&tenants) {
        match &report.status {
            TenantStatus::Done { metrics, .. } => assert_eq!(
                metric_bits(metrics),
                metric_bits(&solo_metrics(t)),
                "{}",
                t.name
            ),
            other => panic!("{}: {other:?}", t.name),
        }
    }
}

/// A query answer as exact bits.
fn bits(a: &QueryAnswer) -> Vec<u64> {
    match a {
        QueryAnswer::Completion(t) => vec![0, t.to_bits()],
        QueryAnswer::Flow(f) => vec![1, f.to_bits()],
        QueryAnswer::Progress {
            now,
            events,
            completed,
            admitted,
        } => vec![2, now.to_bits(), *events, *completed, *admitted as u64],
    }
}
