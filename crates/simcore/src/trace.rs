//! Deterministic run traces: a compact event log recorded through the
//! [`Observer`] hook, a JSON codec, and an offline [`replay`] that
//! re-drives a recorded run through the invariant-audit suite.
//!
//! A trace captures everything needed to re-derive a run from first
//! principles: the header (policy, `m`, speed, whether the policy claims
//! SRPT ordering), the full event stream (arrival batches, allocation
//! decisions, constant-allocation advances, completions), and optionally
//! the recorded [`RunMetrics`] of the original run. The [`replay`]
//! reconstructs every job's remaining work by integrating
//! `speed · Γ_j(x_j)` over the recorded intervals, feeds per-allocation
//! [`AuditFrame`]s through the same [`Auditor`] the engine uses online,
//! recomputes the run metrics independently, and cross-checks them against
//! the recorded ones — so a corrupted or hand-edited trace fails with a
//! structured [`Violation`] naming the exact event.
//!
//! Recording uses [`TraceRecorder`], an observer of the allocation
//! stream; [`record_run_with_config`] runs it on the exhaustive
//! differential-oracle path ([`EngineConfig::with_full_reassign`]), so a
//! trace records the oracle's allocations, one record per event, whatever
//! path the policy would take unwatched.
//!
//! The serialization is hand-rolled JSON (see [`crate::jsonlite`] for
//! why); curves reuse the compact field syntax of [`crate::csv`].

use std::collections::BTreeMap;

use crate::csv::{curve_from_field, curve_to_field};
use crate::engine::{Engine, EngineConfig};
use crate::error::SimError;
use crate::invariant::{
    AuditFrame, AuditLevel, AuditReport, Auditor, FinalAccounting, FrameJob, Violation,
};
use crate::job::{Instance, JobId, JobSpec, Time};
use crate::jsonlite::{escape, Json};
use crate::kahan::NeumaierSum;
use crate::metrics::{CompletedJob, RunMetrics, RunOutcome};
use crate::observer::{Allocation, Observer};
use crate::policy::Policy;
use crate::source::StaticSource;

/// Relative tolerance for the replay's cross-checks (completion snap and
/// recorded-metrics agreement). Matches the audit layer's accumulated-sum
/// tolerance, not the per-operation [`parsched_speedup::EPS`].
const REL_TOL: f64 = 1e-6;

/// One record of a run's event log.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A batch of jobs released at `t`.
    Arrivals {
        /// Release instant.
        t: Time,
        /// The released specs.
        jobs: Vec<JobSpec>,
    },
    /// An allocation decision covering the interval starting at `t`.
    /// Only positive shares are recorded; an alive job without an entry
    /// holds zero processors.
    Allocation {
        /// Decision instant.
        t: Time,
        /// `(job, share)` pairs with `share > 0`.
        shares: Vec<(JobId, f64)>,
    },
    /// The clock advanced from `t0` to `t1` under a constant allocation.
    Advance {
        /// Interval start.
        t0: Time,
        /// Interval end.
        t1: Time,
    },
    /// A job completed at `t`.
    Completion {
        /// Completion instant.
        t: Time,
        /// The finished job.
        id: JobId,
    },
}

/// A recorded run: header + event log + (optionally) the metrics the
/// original run reported, for replay cross-checking.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Name of the policy that ran.
    pub policy: String,
    /// Machine capacity `m`.
    pub m: f64,
    /// Speed-augmentation factor.
    pub speed: f64,
    /// Whether the policy claims SRPT-ordered allocations
    /// ([`Policy::srpt_ordered`]); gates the `srpt-prefix` check on replay.
    pub srpt_ordered: bool,
    /// The event log, in engine order.
    pub events: Vec<TraceEvent>,
    /// Metrics of the original run, when recorded.
    pub recorded: Option<RunMetrics>,
}

/// An [`Observer`] that records the full event log of a run.
///
/// [`record_run_with_config`] runs it on the exhaustive
/// (differential-oracle) path, whose allocations a trace records.
#[derive(Debug)]
pub struct TraceRecorder {
    policy: String,
    m: f64,
    speed: f64,
    srpt_ordered: bool,
    events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// Creates a recorder. The header fields are taken here because the
    /// [`Observer`] callbacks never see the policy or config.
    pub fn new(policy: String, m: f64, speed: f64, srpt_ordered: bool) -> Self {
        Self {
            policy,
            m,
            speed,
            srpt_ordered,
            events: Vec::new(),
        }
    }

    /// Number of recorded events so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finalizes into a [`Trace`], attaching the original run's metrics
    /// for replay cross-checking.
    pub fn into_trace(self, recorded: Option<RunMetrics>) -> Trace {
        Trace {
            policy: self.policy,
            m: self.m,
            speed: self.speed,
            srpt_ordered: self.srpt_ordered,
            events: self.events,
            recorded,
        }
    }
}

impl Observer for TraceRecorder {
    fn on_arrivals(&mut self, t: Time, jobs: &[JobSpec]) {
        self.events.push(TraceEvent::Arrivals {
            t,
            jobs: jobs.to_vec(),
        });
    }

    fn on_completion(&mut self, t: Time, job: &JobSpec) {
        self.events.push(TraceEvent::Completion { t, id: job.id });
    }

    fn on_allocation(&mut self, t: Time, alloc: &Allocation<'_>) {
        let mut shares = Vec::new();
        alloc.for_each(|j, s| {
            if s > 0.0 {
                shares.push((j.id(), s));
            }
        });
        self.events.push(TraceEvent::Allocation { t, shares });
    }

    fn on_advance(&mut self, t0: Time, t1: Time) {
        self.events.push(TraceEvent::Advance { t0, t1 });
    }
}

/// Runs `policy` on `instance` with `m` processors while recording a
/// trace; returns the trace (with the run's metrics embedded) and the
/// outcome. The run takes the exhaustive engine path.
pub fn record_run(
    instance: &Instance,
    policy: &mut dyn Policy,
    m: f64,
) -> Result<(Trace, RunOutcome), SimError> {
    record_run_with_config(instance, policy, EngineConfig::new(m))
}

/// Like [`record_run`], with full [`EngineConfig`] control (speed,
/// audit level, limits); the run is always on the exhaustive path.
pub fn record_run_with_config(
    instance: &Instance,
    policy: &mut dyn Policy,
    cfg: EngineConfig,
) -> Result<(Trace, RunOutcome), SimError> {
    let mut recorder = TraceRecorder::new(policy.name(), cfg.m, cfg.speed, policy.srpt_ordered());
    let mut source = StaticSource::new(instance);
    let cfg = cfg.with_full_reassign(true);
    let outcome = Engine::new(cfg, policy, &mut source, &mut recorder).run()?;
    let trace = recorder.into_trace(Some(outcome.metrics.clone()));
    Ok((trace, outcome))
}

fn num(x: f64) -> String {
    format!("{x:?}")
}

/// Serializes a trace to the `parsched-trace/v1` JSON format.
pub fn trace_to_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(64 * trace.events.len() + 256);
    out.push_str("{\n");
    out.push_str("  \"schema\": \"parsched-trace/v1\",\n");
    out.push_str(&format!("  \"policy\": \"{}\",\n", escape(&trace.policy)));
    out.push_str(&format!("  \"m\": {},\n", num(trace.m)));
    out.push_str(&format!("  \"speed\": {},\n", num(trace.speed)));
    out.push_str(&format!("  \"srpt_ordered\": {},\n", trace.srpt_ordered));
    match &trace.recorded {
        Some(r) => {
            out.push_str("  \"metrics\": {");
            let fields = [
                ("total_flow", num(r.total_flow)),
                ("mean_flow", num(r.mean_flow)),
                ("max_flow", num(r.max_flow)),
                ("fractional_flow", num(r.fractional_flow)),
                ("makespan", num(r.makespan)),
                ("num_jobs", r.num_jobs.to_string()),
                ("events", r.events.to_string()),
                ("alive_integral", num(r.alive_integral)),
                ("total_stretch", num(r.total_stretch)),
                ("max_stretch", num(r.max_stretch)),
                ("total_weighted_flow", num(r.total_weighted_flow)),
            ];
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            out.push_str(&body.join(", "));
            out.push_str("},\n");
        }
        None => out.push_str("  \"metrics\": null,\n"),
    }
    out.push_str("  \"events\": [\n");
    for (i, ev) in trace.events.iter().enumerate() {
        let line = match ev {
            TraceEvent::Arrivals { t, jobs } => {
                let specs: Vec<String> = jobs
                    .iter()
                    .map(|j| {
                        format!(
                            "{{\"id\": {}, \"release\": {}, \"size\": {}, \"curve\": \"{}\", \"weight\": {}}}",
                            j.id.0,
                            num(j.release),
                            num(j.size),
                            escape(&curve_to_field(&j.curve)),
                            num(j.weight)
                        )
                    })
                    .collect();
                format!(
                    "{{\"kind\": \"arrivals\", \"t\": {}, \"jobs\": [{}]}}",
                    num(*t),
                    specs.join(", ")
                )
            }
            TraceEvent::Allocation { t, shares } => {
                let pairs: Vec<String> = shares
                    .iter()
                    .map(|(id, s)| format!("[{}, {}]", id.0, num(*s)))
                    .collect();
                format!(
                    "{{\"kind\": \"alloc\", \"t\": {}, \"shares\": [{}]}}",
                    num(*t),
                    pairs.join(", ")
                )
            }
            TraceEvent::Advance { t0, t1 } => format!(
                "{{\"kind\": \"advance\", \"t0\": {}, \"t1\": {}}}",
                num(*t0),
                num(*t1)
            ),
            TraceEvent::Completion { t, id } => format!(
                "{{\"kind\": \"complete\", \"t\": {}, \"id\": {}}}",
                num(*t),
                id.0
            ),
        };
        out.push_str("    ");
        out.push_str(&line);
        out.push_str(if i + 1 < trace.events.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn bad(what: String) -> SimError {
    SimError::BadInstance {
        what: format!("trace: {what}"),
    }
}

/// Parses the `parsched-trace/v1` JSON format.
pub fn trace_from_json(text: &str) -> Result<Trace, SimError> {
    let doc = Json::parse(text).map_err(bad)?;
    let schema = doc.req("schema").and_then(Json::as_str).map_err(bad)?;
    if schema != "parsched-trace/v1" {
        return Err(bad(format!("unsupported schema '{schema}'")));
    }
    let policy = doc
        .req("policy")
        .and_then(Json::as_str)
        .map_err(bad)?
        .to_string();
    let m = doc.req("m").and_then(Json::as_f64).map_err(bad)?;
    let speed = doc.req("speed").and_then(Json::as_f64).map_err(bad)?;
    let srpt_ordered = match doc.req("srpt_ordered").map_err(bad)? {
        Json::Bool(b) => *b,
        other => return Err(bad(format!("srpt_ordered must be a bool, got {other:?}"))),
    };
    let recorded = match doc.get("metrics") {
        None | Some(Json::Null) => None,
        Some(mj) => Some(RunMetrics {
            total_flow: mj.req("total_flow").and_then(Json::as_f64).map_err(bad)?,
            mean_flow: mj.req("mean_flow").and_then(Json::as_f64).map_err(bad)?,
            max_flow: mj.req("max_flow").and_then(Json::as_f64).map_err(bad)?,
            fractional_flow: mj
                .req("fractional_flow")
                .and_then(Json::as_f64)
                .map_err(bad)?,
            makespan: mj.req("makespan").and_then(Json::as_f64).map_err(bad)?,
            num_jobs: mj.req("num_jobs").and_then(Json::as_usize).map_err(bad)?,
            events: mj.req("events").and_then(Json::as_u64).map_err(bad)?,
            alive_integral: mj
                .req("alive_integral")
                .and_then(Json::as_f64)
                .map_err(bad)?,
            total_stretch: mj
                .req("total_stretch")
                .and_then(Json::as_f64)
                .map_err(bad)?,
            max_stretch: mj.req("max_stretch").and_then(Json::as_f64).map_err(bad)?,
            total_weighted_flow: mj
                .req("total_weighted_flow")
                .and_then(Json::as_f64)
                .map_err(bad)?,
        }),
    };
    let mut events = Vec::new();
    for (i, ev) in doc
        .req("events")
        .and_then(Json::as_arr)
        .map_err(bad)?
        .iter()
        .enumerate()
    {
        let at = |what: String| bad(format!("event {i}: {what}"));
        let kind = ev.req("kind").and_then(Json::as_str).map_err(&at)?;
        events.push(match kind {
            "arrivals" => {
                let t = ev.req("t").and_then(Json::as_f64).map_err(&at)?;
                let mut jobs = Vec::new();
                for j in ev.req("jobs").and_then(Json::as_arr).map_err(&at)? {
                    let id = JobId(j.req("id").and_then(Json::as_u64).map_err(&at)?);
                    let release = j.req("release").and_then(Json::as_f64).map_err(&at)?;
                    let size = j.req("size").and_then(Json::as_f64).map_err(&at)?;
                    let curve =
                        curve_from_field(j.req("curve").and_then(Json::as_str).map_err(&at)?)?;
                    let weight = j.req("weight").and_then(Json::as_f64).map_err(&at)?;
                    jobs.push(JobSpec::new(id, release, size, curve).with_weight(weight));
                }
                TraceEvent::Arrivals { t, jobs }
            }
            "alloc" => {
                let t = ev.req("t").and_then(Json::as_f64).map_err(&at)?;
                let mut shares = Vec::new();
                for pair in ev.req("shares").and_then(Json::as_arr).map_err(&at)? {
                    let pair = pair.as_arr().map_err(&at)?;
                    if pair.len() != 2 {
                        return Err(at("share pair must be [id, share]".to_string()));
                    }
                    shares.push((
                        JobId(pair[0].as_u64().map_err(&at)?),
                        pair[1].as_f64().map_err(&at)?,
                    ));
                }
                TraceEvent::Allocation { t, shares }
            }
            "advance" => TraceEvent::Advance {
                t0: ev.req("t0").and_then(Json::as_f64).map_err(&at)?,
                t1: ev.req("t1").and_then(Json::as_f64).map_err(&at)?,
            },
            "complete" => TraceEvent::Completion {
                t: ev.req("t").and_then(Json::as_f64).map_err(&at)?,
                id: JobId(ev.req("id").and_then(Json::as_u64).map_err(&at)?),
            },
            other => return Err(at(format!("unknown event kind '{other}'"))),
        });
    }
    Ok(Trace {
        policy,
        m,
        speed,
        srpt_ordered,
        events,
        recorded,
    })
}

/// What a successful [`replay`] produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Metrics recomputed from the event log alone (independently of the
    /// recorded ones). The engine-internal `events` counter cannot be
    /// reconstructed from a trace, so it is adopted from the recorded
    /// metrics when present (trace-event count otherwise); every other
    /// field is re-derived and cross-checked.
    pub metrics: RunMetrics,
    /// Per-job completions, in completion order.
    pub completed: Vec<CompletedJob>,
    /// The audit report.
    pub report: AuditReport,
}

struct ReplayJob {
    spec: JobSpec,
    remaining: f64,
    done: bool,
}

/// Re-drives a recorded trace through the invariant-audit suite and
/// recomputes its metrics from first principles.
///
/// Structural defects (unknown ids, malformed ordering of records)
/// surface as [`SimError::BadInstance`]; conservation-law breaches —
/// including disagreement with the recorded metrics — surface as
/// [`SimError::AuditFailed`] with a structured [`Violation`].
pub fn replay(trace: &Trace, level: AuditLevel) -> Result<ReplayOutcome, SimError> {
    let mut auditor = Auditor::new(level);
    let mut jobs: Vec<ReplayJob> = Vec::new();
    let mut index: BTreeMap<JobId, usize> = BTreeMap::new();
    // Alive arena indices in admission order (replay frames iterate this).
    let mut alive: Vec<usize> = Vec::new();
    let mut shares: BTreeMap<JobId, f64> = BTreeMap::new();
    let mut now: Time = 0.0;
    let mut frames: u64 = 0;
    let mut total_flow = NeumaierSum::new();
    let mut max_flow = 0.0_f64;
    let mut frac_flow = NeumaierSum::new();
    let mut alive_integral = NeumaierSum::new();
    let mut completed: Vec<CompletedJob> = Vec::new();
    let violation = |invariant: &'static str, event: usize, at: Time| Violation {
        invariant,
        event: event as u64,
        at,
        job: None,
        expected: 0.0,
        actual: 0.0,
        policy: trace.policy.clone(),
        path: None,
        detail: String::new(),
    };
    let fail = |v: Violation| SimError::AuditFailed {
        violation: Box::new(v),
    };

    for (i, ev) in trace.events.iter().enumerate() {
        match ev {
            TraceEvent::Arrivals { t, jobs: batch } => {
                if *t < now - REL_TOL * now.abs().max(1.0) {
                    return Err(fail(Violation {
                        expected: now,
                        actual: *t,
                        detail: format!("arrival at {t} before the clock at {now}"),
                        ..violation("monotone-clock", i, *t)
                    }));
                }
                now = now.max(*t);
                for spec in batch {
                    if index.contains_key(&spec.id) {
                        return Err(bad(format!("event {i}: duplicate job id {}", spec.id)));
                    }
                    let idx = jobs.len();
                    index.insert(spec.id, idx);
                    alive.push(idx);
                    jobs.push(ReplayJob {
                        spec: spec.clone(),
                        remaining: spec.size,
                        done: false,
                    });
                }
            }
            TraceEvent::Allocation { t, shares: pairs } => {
                if *t < now - REL_TOL * now.abs().max(1.0) {
                    return Err(fail(Violation {
                        expected: now,
                        actual: *t,
                        detail: format!("allocation at {t} before the clock at {now}"),
                        ..violation("monotone-clock", i, *t)
                    }));
                }
                now = now.max(*t);
                shares.clear();
                for &(id, s) in pairs {
                    let Some(&idx) = index.get(&id) else {
                        return Err(bad(format!("event {i}: allocation to unknown job {id}")));
                    };
                    if jobs[idx].done {
                        return Err(bad(format!("event {i}: allocation to finished job {id}")));
                    }
                    shares.insert(id, s);
                }
                let event = frames;
                frames += 1;
                if auditor.wants_frame(event) {
                    let (mut policy, mut frame_jobs) = auditor.take_spare();
                    policy.push_str(&trace.policy);
                    frame_jobs.extend(alive.iter().map(|&idx| {
                        let j = &jobs[idx];
                        let share = shares.get(&j.spec.id).copied().unwrap_or(0.0);
                        let rate = if share > 0.0 {
                            trace.speed * j.spec.curve.rate(share)
                        } else {
                            0.0
                        };
                        FrameJob {
                            id: j.spec.id,
                            slot: idx,
                            release: j.spec.release,
                            size: j.spec.size,
                            remaining: j.remaining,
                            share,
                            rate,
                        }
                    }));
                    auditor.check_frame(AuditFrame {
                        event,
                        t: now,
                        m: trace.m,
                        path: None,
                        policy,
                        jobs: frame_jobs,
                        // Replay keeps no SRPT partition; the
                        // (order-independent) srpt-prefix check still
                        // applies when the policy claims it.
                        srpt_running: None,
                        srpt_ordered_policy: trace.srpt_ordered,
                        latest_arrivals_policy: false,
                    })?;
                }
            }
            TraceEvent::Advance { t0, t1 } => {
                if (*t0 - now).abs() > REL_TOL * now.abs().max(1.0) {
                    return Err(bad(format!(
                        "event {i}: advance starts at {t0} but the clock is at {now}"
                    )));
                }
                if *t1 < *t0 {
                    return Err(fail(Violation {
                        expected: *t0,
                        actual: *t1,
                        detail: format!("advance runs backwards: {t0} → {t1}"),
                        ..violation("monotone-clock", i, *t0)
                    }));
                }
                let dt = *t1 - *t0;
                alive_integral.add(alive.len() as f64 * dt);
                for &idx in &alive {
                    let j = &mut jobs[idx];
                    let share = shares.get(&j.spec.id).copied().unwrap_or(0.0);
                    let rate = if share > 0.0 {
                        trace.speed * j.spec.curve.rate(share)
                    } else {
                        0.0
                    };
                    let drained = rate * dt;
                    frac_flow.add((j.remaining - drained / 2.0).max(0.0) * dt / j.spec.size);
                    j.remaining = (j.remaining - drained).max(0.0);
                }
                now = *t1;
            }
            TraceEvent::Completion { t, id } => {
                if *t < now - REL_TOL * now.abs().max(1.0) {
                    return Err(fail(Violation {
                        expected: now,
                        actual: *t,
                        detail: format!("completion at {t} before the clock at {now}"),
                        ..violation("monotone-clock", i, *t)
                    }));
                }
                now = now.max(*t);
                let Some(&idx) = index.get(id) else {
                    return Err(bad(format!("event {i}: completion of unknown job {id}")));
                };
                if jobs[idx].done {
                    return Err(bad(format!("event {i}: job {id} completed twice")));
                }
                // The engine snaps a completion when remaining work is
                // within EPS·p_j of zero; a recorded completion whose
                // replayed drain leaves real work behind is a violation.
                let leftover = jobs[idx].remaining;
                let tol = REL_TOL * jobs[idx].spec.size.max(1.0);
                if leftover > tol {
                    return Err(fail(Violation {
                        job: Some(*id),
                        expected: 0.0,
                        actual: leftover,
                        detail: format!(
                            "job {id} completed with {leftover} work left: the recorded \
                             allocations do not drain it by t={t}"
                        ),
                        ..violation("completion", i, *t)
                    }));
                }
                jobs[idx].remaining = 0.0;
                jobs[idx].done = true;
                alive.retain(|&a| a != idx);
                shares.remove(id);
                let spec = &jobs[idx].spec;
                let cj = CompletedJob {
                    id: spec.id,
                    release: spec.release,
                    size: spec.size,
                    completion: now,
                    weight: spec.weight,
                };
                total_flow.add(cj.flow());
                max_flow = max_flow.max(cj.flow());
                completed.push(cj);
            }
        }
    }

    let n = completed.len();
    let total_flow = total_flow.value();
    let metrics = RunMetrics {
        total_flow,
        mean_flow: if n == 0 { 0.0 } else { total_flow / n as f64 },
        max_flow,
        fractional_flow: frac_flow.value(),
        makespan: completed.iter().map(|c| c.completion).fold(0.0, f64::max),
        num_jobs: n,
        events: trace
            .recorded
            .as_ref()
            .map(|r| r.events)
            .unwrap_or(trace.events.len() as u64),
        alive_integral: alive_integral.value(),
        total_stretch: NeumaierSum::total(completed.iter().map(|c| c.stretch())),
        max_stretch: completed.iter().map(|c| c.stretch()).fold(0.0, f64::max),
        total_weighted_flow: NeumaierSum::total(completed.iter().map(|c| c.weighted_flow())),
    };

    // Cross-check against the recorded metrics, when present: the replay
    // recomputed everything from the event log alone, so any disagreement
    // means the log and the summary tell different stories.
    if let Some(rec) = &trace.recorded {
        let last_event = trace.events.len().saturating_sub(1);
        if rec.num_jobs != metrics.num_jobs {
            return Err(fail(Violation {
                expected: rec.num_jobs as f64,
                actual: metrics.num_jobs as f64,
                detail: format!(
                    "recorded metrics claim {} completions but the log replays {}",
                    rec.num_jobs, metrics.num_jobs
                ),
                ..violation("recorded-metrics", last_event, now)
            }));
        }
        for (name, recorded, replayed) in [
            ("total_flow", rec.total_flow, metrics.total_flow),
            ("max_flow", rec.max_flow, metrics.max_flow),
            (
                "fractional_flow",
                rec.fractional_flow,
                metrics.fractional_flow,
            ),
            ("makespan", rec.makespan, metrics.makespan),
            ("alive_integral", rec.alive_integral, metrics.alive_integral),
            ("total_stretch", rec.total_stretch, metrics.total_stretch),
            (
                "total_weighted_flow",
                rec.total_weighted_flow,
                metrics.total_weighted_flow,
            ),
        ] {
            if (recorded - replayed).abs() > REL_TOL * recorded.abs().max(1.0) {
                return Err(fail(Violation {
                    expected: recorded,
                    actual: replayed,
                    detail: format!(
                        "recorded {name} = {recorded} but the log replays to {replayed}"
                    ),
                    ..violation("recorded-metrics", last_event, now)
                }));
            }
        }
    }

    auditor.check_final(&FinalAccounting {
        total_flow,
        alive_integral: alive_integral.value(),
        fractional_flow: frac_flow.value(),
        completed: n,
        admitted: jobs.len(),
        alive_left: alive.len(),
        at: now,
        events: trace.events.len() as u64,
        policy: trace.policy.clone(),
        path: None,
    })?;

    Ok(ReplayOutcome {
        metrics,
        completed,
        report: auditor.report(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::EquiSplit;
    use parsched_speedup::Curve;

    fn sample_instance() -> Instance {
        Instance::new(vec![
            JobSpec::new(JobId(0), 0.0, 4.0, Curve::power(0.5)),
            JobSpec::new(JobId(1), 0.5, 2.0, Curve::Sequential),
            JobSpec::new(JobId(2), 1.0, 3.0, Curve::FullyParallel),
        ])
        .unwrap()
    }

    #[test]
    fn record_replay_agrees_with_live_metrics() {
        let inst = sample_instance();
        let (trace, outcome) = record_run(&inst, &mut EquiSplit, 2.0).unwrap();
        let replayed = replay(&trace, AuditLevel::Strict).unwrap();
        assert_eq!(replayed.metrics, outcome.metrics);
        assert!(replayed.report.frames > 0);
        assert!(replayed.report.final_checked);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let inst = sample_instance();
        let (trace, _) = record_run(&inst, &mut EquiSplit, 2.0).unwrap();
        let json = trace_to_json(&trace);
        let back = trace_from_json(&json).unwrap();
        assert_eq!(back, trace);
        // And a second trip produces byte-identical text.
        assert_eq!(trace_to_json(&back), json);
    }

    #[test]
    fn corrupted_allocation_is_caught_with_context() {
        let inst = sample_instance();
        let (mut trace, _) = record_run(&inst, &mut EquiSplit, 2.0).unwrap();
        // Inflate one share beyond capacity.
        let target = trace
            .events
            .iter_mut()
            .find_map(|ev| match ev {
                TraceEvent::Allocation { shares, .. } if !shares.is_empty() => Some(shares),
                _ => None,
            })
            .expect("trace has allocations");
        target[0].1 *= 10.0;
        let err = replay(&trace, AuditLevel::Strict).unwrap_err();
        let SimError::AuditFailed { violation } = err else {
            panic!("expected audit failure")
        };
        assert_eq!(violation.invariant, "capacity");
        assert_eq!(violation.path, None);
        assert_eq!(violation.policy, "EQUI");
    }

    #[test]
    fn dropped_completion_breaks_recorded_metrics() {
        let inst = sample_instance();
        let (mut trace, _) = record_run(&inst, &mut EquiSplit, 2.0).unwrap();
        let last_completion = trace
            .events
            .iter()
            .rposition(|ev| matches!(ev, TraceEvent::Completion { .. }))
            .unwrap();
        trace.events.remove(last_completion);
        let err = replay(&trace, AuditLevel::Strict).unwrap_err();
        let SimError::AuditFailed { violation } = err else {
            panic!("expected audit failure")
        };
        assert_eq!(violation.invariant, "recorded-metrics");
    }

    #[test]
    fn starving_a_job_is_caught_at_its_completion() {
        let inst = sample_instance();
        let (mut trace, _) = record_run(&inst, &mut EquiSplit, 2.0).unwrap();
        // Zero out every share of job 0: its recorded completion becomes
        // impossible because no work drains.
        for ev in &mut trace.events {
            if let TraceEvent::Allocation { shares, .. } = ev {
                shares.retain(|&(id, _)| id != JobId(0));
            }
        }
        // Drop the recorded metrics so the leftover-work check (not the
        // summary cross-check) is what fires.
        trace.recorded = None;
        let err = replay(&trace, AuditLevel::Strict).unwrap_err();
        let SimError::AuditFailed { violation } = err else {
            panic!("expected audit failure")
        };
        assert_eq!(violation.invariant, "completion");
        assert_eq!(violation.job, Some(JobId(0)));
        assert!(violation.actual > 0.0);
    }

    #[test]
    fn structural_defects_are_not_violations() {
        let inst = sample_instance();
        let (mut trace, _) = record_run(&inst, &mut EquiSplit, 2.0).unwrap();
        if let Some(TraceEvent::Allocation { shares, .. }) = trace
            .events
            .iter_mut()
            .find(|ev| matches!(ev, TraceEvent::Allocation { .. }))
        {
            shares.push((JobId(999), 0.5));
        }
        let err = replay(&trace, AuditLevel::Strict).unwrap_err();
        assert!(matches!(err, SimError::BadInstance { .. }), "{err:?}");
    }

    #[test]
    fn unknown_schema_is_rejected() {
        assert!(trace_from_json("{\"schema\": \"nope\"}").is_err());
        assert!(trace_from_json("not json").is_err());
    }
}
