//! Oracles for the strict audit's frame check.
//!
//! The audit checks every per-frame law in one pass. The seven checks it
//! fused, one law each, are kept here as its reference
//! ([`reference_suite`]): on random chains of frames shaped like each
//! engine path's, with one fault per law injected into some frames and
//! exact remaining-work ties on the incremental path's running/queued
//! boundary, the auditor must report the reference's first violation,
//! field for field, or none when it has none.
//!
//! The work-drain law's pairing has an oracle of its own:
//! [`WorkDrainConsistency`] pairs each job with its previous-frame entry
//! through a retained slot-indexed position table, falling back to an id
//! search on any miss. The id-keyed map it replaced is kept here verbatim
//! as the reference: on every frame pair — reordered jobs, arrivals and
//! completions, a slot reused by a different id, duplicate and
//! out-of-range slots, wrong slots, sampled gaps — both must report the
//! same violations (same jobs, same expected/actual bits, same order).
//! One checker is reused along each chain of frames, so every check
//! also runs over the table cells the earlier ones left behind.

use std::collections::BTreeMap;

use parsched::PolicyKind;
use parsched_sim::invariant::{AuditFrame, EnginePath, FrameJob, Violation, WorkDrainConsistency};
use parsched_sim::jsonlite::Json;
use parsched_sim::{
    simulate, AuditLevel, Auditor, Engine, EngineConfig, Instance, JobId, JobSpec, NullObserver,
    SimError, StaticSource,
};
use parsched_speedup::{Curve, EPS};
use proptest::prelude::*;

/// Same tolerance as the production check.
const REL_TOL: f64 = 1e-6;

/// The work-drain check before the slot lookup: an id-keyed map of the
/// previous frame (the last entry wins for a repeated id).
fn reference_drain(prev: &AuditFrame, cur: &AuditFrame) -> Vec<Violation> {
    let mut out = Vec::new();
    if cur.event != prev.event + 1 {
        return out;
    }
    let dt = (cur.t - prev.t).max(0.0);
    let index: BTreeMap<JobId, &FrameJob> = prev.jobs.iter().map(|j| (j.id, j)).collect();
    for j in &cur.jobs {
        let Some(p) = index.get(&j.id) else { continue };
        let expected = (p.remaining - p.rate * dt).max(0.0);
        let tol = REL_TOL * j.size.max(1.0);
        if (j.remaining - expected).abs() > tol {
            out.push(Violation {
                invariant: "work-drain",
                event: cur.event,
                at: cur.t,
                job: Some(j.id),
                expected,
                actual: j.remaining,
                policy: cur.policy.clone(),
                path: cur.path,
                detail: format!(
                    "job {} drained to {} over dt={} at rate {}, speed-up curve predicts {}",
                    j.id, j.remaining, dt, p.rate, expected
                ),
            });
        }
    }
    out
}

fn assert_same_violations(got: &[Violation], want: &[Violation], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: {got:?} vs {want:?}");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        let same = g.invariant == w.invariant
            && g.event == w.event
            && g.at.to_bits() == w.at.to_bits()
            && g.job == w.job
            && g.expected.to_bits() == w.expected.to_bits()
            && g.actual.to_bits() == w.actual.to_bits()
            && g.policy == w.policy
            && g.path == w.path
            && g.detail == w.detail;
        assert!(same, "{ctx}: violation {k}: {g:?} vs {w:?}");
    }
}

/// Checks `cur` after `prev` with the reused checker and with the
/// reference; returns how many violations they (both) reported.
fn check_pair(
    sut: &mut WorkDrainConsistency,
    prev: &AuditFrame,
    cur: &AuditFrame,
    ctx: &str,
) -> usize {
    let mut got = Vec::new();
    sut.check_frame(Some(prev), cur, &mut got);
    let want = reference_drain(prev, cur);
    assert_same_violations(&got, &want, ctx);
    got.len()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn below(state: &mut u64, n: usize) -> usize {
    (splitmix(state) % n.max(1) as u64) as usize
}

/// A job's true state as the random producer tracks it.
#[derive(Clone)]
struct Live {
    id: u64,
    /// The slot the job occupies; frames may report another.
    slot: usize,
    size: f64,
    remaining: f64,
    rate: f64,
}

/// A random producer: an arena with a free list (so retired slots are
/// reused by later arrivals), plus faults in the reported slots.
struct Producer {
    state: u64,
    alive: Vec<Live>,
    free: Vec<usize>,
    next_slot: usize,
    next_id: u64,
    event: u64,
    t: f64,
}

impl Producer {
    fn new(seed: u64) -> Self {
        Producer {
            state: seed,
            alive: Vec::new(),
            free: Vec::new(),
            next_slot: 0,
            next_id: 0,
            event: 0,
            t: 0.0,
        }
    }

    fn arrive(&mut self) {
        let slot = if !self.free.is_empty() && unit(&mut self.state) < 0.7 {
            let k = below(&mut self.state, self.free.len());
            self.free.swap_remove(k)
        } else {
            self.next_slot += 1 + below(&mut self.state, 3);
            self.next_slot
        };
        let size = 0.5 + 20.0 * unit(&mut self.state);
        self.alive.push(Live {
            id: self.next_id,
            slot,
            size,
            remaining: size,
            rate: 0.0,
        });
        // Ids are distinct but not dense.
        self.next_id += 1 + below(&mut self.state, 4) as u64;
    }

    /// The slot a frame reports for `job`: usually its own, sometimes a
    /// fault.
    fn reported_slot(&mut self, job: &Live, others: &[Live]) -> usize {
        let u = unit(&mut self.state);
        if u < 0.85 {
            return job.slot;
        }
        match below(&mut self.state, 6) {
            // Another alive job's slot: a duplicate in this frame.
            0 => others[below(&mut self.state, others.len())].slot,
            // A retired slot.
            1 => self
                .free
                .get(below(&mut self.state, self.free.len()))
                .copied()
                .unwrap_or(0),
            2 => usize::MAX,
            3 => 1 << 40,
            // Past the position table's window, or below the frame's
            // lowest slot.
            4 => job.slot + (1 << 21),
            _ => 0,
        }
    }

    fn frame(&mut self) -> AuditFrame {
        let alive = self.alive.clone();
        let mut jobs: Vec<FrameJob> = Vec::with_capacity(alive.len());
        for j in &alive {
            let slot = self.reported_slot(j, &alive);
            jobs.push(FrameJob {
                id: JobId(j.id),
                slot,
                release: 0.0,
                size: j.size,
                remaining: j.remaining,
                share: j.rate,
                rate: j.rate,
            });
        }
        match below(&mut self.state, 3) {
            0 => jobs.reverse(),
            1 => {
                for i in (1..jobs.len()).rev() {
                    let k = below(&mut self.state, i + 1);
                    jobs.swap(i, k);
                }
            }
            _ => {}
        }
        AuditFrame {
            event: self.event,
            t: self.t,
            m: 8.0,
            path: None,
            policy: "random".to_string(),
            jobs,
            srpt_running: None,
            srpt_ordered_policy: false,
            latest_arrivals_policy: false,
        }
    }

    /// Advances to the next event: drain (faithfully or not), complete,
    /// arrive, and draw new rates.
    fn advance(&mut self) {
        self.event += if unit(&mut self.state) < 0.15 {
            2 + below(&mut self.state, 8) as u64
        } else {
            1
        };
        let dt = if unit(&mut self.state) < 0.2 {
            0.0
        } else {
            2.0 * unit(&mut self.state)
        };
        self.t += dt;
        for j in &mut self.alive {
            let drained = (j.remaining - j.rate * dt).max(0.0);
            let u = unit(&mut self.state);
            j.remaining = if u < 0.75 {
                drained
            } else if u < 0.85 {
                // Within tolerance.
                drained + 0.5 * REL_TOL * j.size.max(1.0)
            } else {
                // Teleporting work.
                (drained + 1.0 - 2.0 * unit(&mut self.state)).clamp(0.0, j.size)
            };
        }
        let mut k = 0;
        while k < self.alive.len() {
            if unit(&mut self.state) < 0.15 {
                let done = self.alive.swap_remove(k);
                self.free.push(done.slot);
            } else {
                k += 1;
            }
        }
        for _ in 0..below(&mut self.state, 4) {
            self.arrive();
        }
        for j in &mut self.alive {
            j.rate = if unit(&mut self.state) < 0.3 {
                0.0
            } else {
                3.0 * unit(&mut self.state)
            };
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn slot_lookup_reports_exactly_what_the_id_lookup_does(
        seed in 0u64..u64::MAX,
        initial in 0usize..=64,
        steps in 1usize..=24,
    ) {
        let mut producer = Producer::new(seed);
        for _ in 0..initial {
            producer.arrive();
        }
        let mut sut = WorkDrainConsistency::default();
        let mut first = Vec::new();
        let mut prev = producer.frame();
        sut.check_frame(None, &prev, &mut first);
        prop_assert!(first.is_empty());
        for step in 0..steps {
            producer.advance();
            let cur = producer.frame();
            check_pair(&mut sut, &prev, &cur, &format!("seed {seed} step {step}"));
            prev = cur;
        }
    }
}

#[test]
fn random_chains_cover_every_case() {
    // The generator must actually produce what the property claims to
    // cover: violations, sampled gaps, and slots that change hands.
    let (mut violations, mut gaps, mut reused) = (0, 0, 0);
    for seed in 0..200u64 {
        let mut producer = Producer::new(seed);
        for _ in 0..16 {
            producer.arrive();
        }
        let mut sut = WorkDrainConsistency::default();
        let mut prev = producer.frame();
        for step in 0..12 {
            producer.advance();
            let cur = producer.frame();
            violations += check_pair(&mut sut, &prev, &cur, &format!("seed {seed} step {step}"));
            gaps += usize::from(cur.event != prev.event + 1);
            reused += cur
                .jobs
                .iter()
                .filter(|j| prev.jobs.iter().any(|p| p.slot == j.slot && p.id != j.id))
                .count();
            prev = cur;
        }
    }
    assert!(violations > 100, "{violations} violations");
    assert!(gaps > 100, "{gaps} gaps");
    assert!(reused > 100, "{reused} reused slots");
}

fn job(id: u64, slot: usize, remaining: f64, rate: f64) -> FrameJob {
    FrameJob {
        id: JobId(id),
        slot,
        release: 0.0,
        size: 10.0,
        remaining,
        share: rate,
        rate,
    }
}

fn frame(event: u64, t: f64, jobs: Vec<FrameJob>) -> AuditFrame {
    AuditFrame {
        event,
        t,
        m: 4.0,
        path: Some(EnginePath::Incremental),
        policy: "test".to_string(),
        jobs,
        srpt_running: None,
        srpt_ordered_policy: false,
        latest_arrivals_policy: false,
    }
}

#[test]
fn a_recycled_slot_is_not_paired_with_its_previous_owner() {
    // Job 1 retires and job 2 takes its slot: pairing by slot alone would
    // predict job 2 drained from job 1's state.
    let prev = frame(4, 1.0, vec![job(0, 0, 9.0, 1.0), job(1, 1, 0.5, 1.0)]);
    let cur = frame(5, 1.5, vec![job(0, 0, 8.5, 0.0), job(2, 1, 7.0, 0.0)]);
    let mut sut = WorkDrainConsistency::default();
    assert_eq!(check_pair(&mut sut, &prev, &cur, "recycled"), 0);
}

#[test]
fn a_wrong_slot_still_pairs_by_id() {
    // Job 0 reports job 1's slot, and job 1 one far out of range; both are
    // still compared with their own previous entries, and job 1's drain
    // is caught.
    let prev = frame(0, 0.0, vec![job(0, 3, 9.0, 1.0), job(1, 4, 6.0, 2.0)]);
    let cur = frame(
        1,
        1.0,
        vec![job(1, usize::MAX, 3.0, 0.0), job(0, 4, 8.0, 0.0)],
    );
    let mut sut = WorkDrainConsistency::default();
    assert_eq!(check_pair(&mut sut, &prev, &cur, "wrong slots"), 1);
}

/// Jobs 0 (long) and 1 (short) start at 0; job 2 is released at the exact
/// time the engine completes job 1.
fn coincident_instance(m: f64) -> Instance {
    let mut jobs = vec![
        JobSpec::new(JobId(0), 0.0, 40.0, Curve::power(0.5)),
        JobSpec::new(JobId(1), 0.0, 1.0, Curve::power(0.5)),
    ];
    let probe = simulate(
        &Instance::new(jobs.clone()).expect("valid"),
        PolicyKind::IntermediateSrpt.build().as_mut(),
        m,
    )
    .expect("probe run");
    let done = probe
        .completed
        .iter()
        .find(|c| c.id == JobId(1))
        .expect("job 1 completes")
        .completion;
    jobs.push(JobSpec::new(JobId(2), done, 3.0, Curve::power(0.5)));
    Instance::new(jobs).expect("valid")
}

#[test]
fn streaming_strict_audit_through_a_slot_recycled_at_one_timestamp() {
    let m = 4.0;
    let inst = coincident_instance(m);
    // An unaudited twin shows the recycling: once job 2 is admitted, the
    // streaming arena still holds two slots.
    {
        let mut policy = PolicyKind::IntermediateSrpt.build();
        let mut source = StaticSource::new(&inst);
        let mut obs = NullObserver;
        let cfg = EngineConfig::new(m).with_streaming(true);
        let mut engine = Engine::new(cfg, policy.as_mut(), &mut source, &mut obs);
        let snap = loop {
            let snap = engine.snapshot().expect("snapshot");
            if snap.admitted() == 3 {
                break snap;
            }
            assert!(engine.step().expect("step"), "job 2 never admitted");
        };
        let doc = Json::parse(&snap.to_json()).expect("snapshot json");
        let arena = doc
            .req("arena")
            .and_then(|a| a.req("jobs"))
            .and_then(Json::as_arr)
            .expect("arena jobs")
            .len();
        assert_eq!(arena, 2, "job 2 should take job 1's retired slot");
        assert_eq!(snap.completed_count(), 1);
    }
    // Both engine paths, strictly audited across that event.
    for full_reassign in [false, true] {
        let mut policy = PolicyKind::IntermediateSrpt.build();
        let mut source = StaticSource::new(&inst);
        let mut obs = NullObserver;
        let cfg = EngineConfig::new(m)
            .with_streaming(true)
            .with_full_reassign(full_reassign)
            .with_audit(AuditLevel::Strict);
        let out = Engine::new(cfg, policy.as_mut(), &mut source, &mut obs)
            .run_streaming()
            .unwrap_or_else(|e| panic!("full_reassign={full_reassign}: {e}"));
        assert_eq!(out.metrics.num_jobs, 3);
        let report = out.audit.expect("audit report");
        assert!(report.frames >= 3, "{report}");
    }
}

// The audit's fused pass against the seven per-frame checks it replaced,
// each run on its own as before, with srpt-order applied to the frame's
// partitions sorted into SRPT order (the incremental path used to list
// them so).

fn base(cur: &AuditFrame, invariant: &'static str) -> Violation {
    Violation {
        invariant,
        event: cur.event,
        at: cur.t,
        job: None,
        expected: 0.0,
        actual: 0.0,
        policy: cur.policy.clone(),
        path: cur.path,
        detail: String::new(),
    }
}

fn reference_clock(prev: &AuditFrame, cur: &AuditFrame, out: &mut Vec<Violation>) {
    if cur.t < prev.t - EPS * prev.t.abs().max(1.0) {
        out.push(Violation {
            expected: prev.t,
            actual: cur.t,
            detail: format!("time went backwards: {} after {}", cur.t, prev.t),
            ..base(cur, "monotone-clock")
        });
    }
    if cur.event <= prev.event {
        out.push(Violation {
            expected: prev.event as f64 + 1.0,
            actual: cur.event as f64,
            detail: format!(
                "event index did not advance: {} after {}",
                cur.event, prev.event
            ),
            ..base(cur, "monotone-clock")
        });
    }
}

fn reference_capacity(cur: &AuditFrame, out: &mut Vec<Violation>) {
    let mut total = 0.0;
    for j in &cur.jobs {
        if !j.share.is_finite() || j.share < -EPS {
            out.push(Violation {
                job: Some(j.id),
                expected: 0.0,
                actual: j.share,
                detail: format!(
                    "share of job {} is {}, not a finite value ≥ 0",
                    j.id, j.share
                ),
                ..base(cur, "capacity")
            });
        }
        total += j.share.max(0.0);
    }
    let cap = cur.m * (1.0 + 1e-9) + EPS;
    if total > cap {
        out.push(Violation {
            expected: cur.m,
            actual: total,
            detail: format!("allocated {} of {} processors", total, cur.m),
            ..base(cur, "capacity")
        });
    }
}

fn reference_remaining(cur: &AuditFrame, out: &mut Vec<Violation>) {
    for j in &cur.jobs {
        let tol = EPS * j.size.max(1.0);
        if !j.remaining.is_finite() || j.remaining < -tol || j.remaining > j.size + tol {
            out.push(Violation {
                job: Some(j.id),
                expected: j.size,
                actual: j.remaining,
                detail: format!(
                    "remaining work {} of job {} outside [0, {}]",
                    j.remaining, j.id, j.size
                ),
                ..base(cur, "non-negative-remaining")
            });
        }
    }
}

/// SRPT order: `(remaining, release, id)`.
fn srpt_cmp(a: &FrameJob, b: &FrameJob) -> std::cmp::Ordering {
    a.remaining
        .total_cmp(&b.remaining)
        .then(a.release.total_cmp(&b.release))
        .then(a.id.cmp(&b.id))
}

/// srpt-order as it ran on the sorted incremental frame: remaining work
/// never decreases along the running partition and then the queue.
fn reference_order(cur: &AuditFrame, out: &mut Vec<Violation>) {
    let Some(k) = cur.srpt_running else { return };
    let mut jobs = cur.jobs.clone();
    let k = k.min(jobs.len());
    jobs[..k].sort_by(srpt_cmp);
    jobs[k..].sort_by(srpt_cmp);
    for w in jobs.windows(2) {
        let tol = EPS * w[0].remaining.abs().max(w[1].remaining.abs()).max(1.0);
        if w[1].remaining < w[0].remaining - tol {
            out.push(Violation {
                job: Some(w[1].id),
                expected: w[0].remaining,
                actual: w[1].remaining,
                detail: format!(
                    "alive set left SRPT order: job {} (remaining {}) follows job {} (remaining {})",
                    w[1].id, w[1].remaining, w[0].id, w[0].remaining
                ),
                ..base(cur, "srpt-order")
            });
        }
    }
}

/// The scheduled jobs' share check shared by srpt-prefix and
/// arrival-suffix: each scheduled job holds the first one's share.
fn reference_equal_shares(cur: &AuditFrame, invariant: &'static str, out: &mut Vec<Violation>) {
    let mut share: Option<f64> = None;
    for j in cur.jobs.iter().filter(|j| j.share > EPS) {
        match share {
            None => share = Some(j.share),
            Some(s) if (j.share - s).abs() > EPS * s.max(1.0) => {
                out.push(Violation {
                    job: Some(j.id),
                    expected: s,
                    actual: j.share,
                    detail: format!(
                        "scheduled jobs do not share equally: job {} holds {}, others hold {}",
                        j.id, j.share, s
                    ),
                    ..base(cur, invariant)
                });
            }
            Some(_) => {}
        }
    }
}

fn reference_prefix(cur: &AuditFrame, out: &mut Vec<Violation>) {
    if !cur.srpt_ordered_policy {
        return;
    }
    reference_equal_shares(cur, "srpt-prefix", out);
    let mut max_scheduled: Option<&FrameJob> = None;
    for j in cur.jobs.iter().filter(|j| j.share > EPS) {
        if max_scheduled.is_none_or(|s| j.remaining > s.remaining) {
            max_scheduled = Some(j);
        }
    }
    let Some(max_scheduled) = max_scheduled else {
        return;
    };
    for j in cur.jobs.iter().filter(|j| j.share <= EPS) {
        let tol = EPS
            * j.remaining
                .abs()
                .max(max_scheduled.remaining.abs())
                .max(1.0);
        if j.remaining < max_scheduled.remaining - tol {
            out.push(Violation {
                job: Some(j.id),
                expected: max_scheduled.remaining,
                actual: j.remaining,
                detail: format!(
                    "scheduled set is not an SRPT prefix: job {} (remaining {}) is starved while job {} (remaining {}) runs",
                    j.id, j.remaining, max_scheduled.id, max_scheduled.remaining
                ),
                ..base(cur, "srpt-prefix")
            });
        }
    }
}

fn reference_suffix(cur: &AuditFrame, out: &mut Vec<Violation>) {
    if !cur.latest_arrivals_policy {
        return;
    }
    let later = |a: &FrameJob, b: &FrameJob| {
        a.release.total_cmp(&b.release).then(a.id.cmp(&b.id)) == std::cmp::Ordering::Greater
    };
    reference_equal_shares(cur, "arrival-suffix", out);
    let mut oldest: Option<&FrameJob> = None;
    for j in cur.jobs.iter().filter(|j| j.share > EPS) {
        if oldest.is_none_or(|s| later(s, j)) {
            oldest = Some(j);
        }
    }
    let Some(oldest) = oldest else {
        return;
    };
    if let Some(j) = cur
        .jobs
        .iter()
        .filter(|j| j.share <= EPS)
        .find(|j| later(j, oldest))
    {
        out.push(Violation {
            job: Some(j.id),
            expected: oldest.release,
            actual: j.release,
            detail: format!(
                "scheduled set is not the latest arrivals: job {} (release {}) waits while \
                 older job {} (release {}) runs",
                j.id, j.release, oldest.id, oldest.release
            ),
            ..base(cur, "arrival-suffix")
        });
    }
}

/// Every violation the seven separate checks report for `cur` after
/// `prev`, in the order they ran.
fn reference_suite(prev: Option<&AuditFrame>, cur: &AuditFrame) -> Vec<Violation> {
    let mut out = Vec::new();
    if let Some(prev) = prev {
        reference_clock(prev, cur, &mut out);
    }
    reference_capacity(cur, &mut out);
    reference_remaining(cur, &mut out);
    if let Some(prev) = prev {
        out.extend(reference_drain(prev, cur));
    }
    reference_order(cur, &mut out);
    reference_prefix(cur, &mut out);
    reference_suffix(cur, &mut out);
    out
}

/// Which engine path (and policy claims) a chain of frames imitates.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    /// The incremental path: the SRPT prefix runs, listed first.
    Incremental { claims_prefix: bool },
    /// The exhaustive path of an SRPT-ordered policy.
    Exhaustive,
    /// The arrival-suffix path: the latest arrivals run.
    Suffix,
    /// No order claim: arbitrary shares.
    Plain,
}

/// The fault a frame carries.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    None,
    Clock,
    Capacity,
    Remaining,
    Drain,
    Order,
    Prefix,
    Suffix,
}

const FAULTS: [Fault; 8] = [
    Fault::None,
    Fault::Clock,
    Fault::Capacity,
    Fault::Remaining,
    Fault::Drain,
    Fault::Order,
    Fault::Prefix,
    Fault::Suffix,
];

#[derive(Clone)]
struct Job {
    id: u64,
    slot: usize,
    release: f64,
    size: f64,
    remaining: f64,
    rate: f64,
}

/// A producer of frame chains whose frames obey every law, but for one
/// fault injected into some of them. Arrivals often copy an alive job's
/// remaining work as their size, so exact ties sit on the running/queued
/// boundary.
struct Chain {
    state: u64,
    shape: Shape,
    m: f64,
    alive: Vec<Job>,
    free: Vec<usize>,
    next_slot: usize,
    next_id: u64,
    event: u64,
    t: f64,
    /// The last frame's event and time, for clock faults.
    last: Option<(u64, f64)>,
}

impl Chain {
    fn new(seed: u64) -> Self {
        let mut state = seed;
        let shape = match below(&mut state, 5) {
            0 => Shape::Incremental {
                claims_prefix: false,
            },
            1 => Shape::Exhaustive,
            2 => Shape::Suffix,
            3 => Shape::Plain,
            _ => Shape::Incremental {
                claims_prefix: true,
            },
        };
        Chain {
            state,
            shape,
            m: [1.0, 2.0, 4.0, 8.0][below(&mut state, 4)],
            alive: Vec::new(),
            free: Vec::new(),
            next_slot: 0,
            next_id: 0,
            event: 0,
            t: 0.0,
            last: None,
        }
    }

    fn arrive(&mut self) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.next_slot += 1;
            self.next_slot
        });
        let tie = (!self.alive.is_empty() && unit(&mut self.state) < 0.4)
            .then(|| self.alive[below(&mut self.state, self.alive.len())].remaining)
            .filter(|&r| r > 0.0);
        let size = tie.unwrap_or_else(|| 0.5 + 10.0 * unit(&mut self.state));
        self.alive.push(Job {
            id: self.next_id,
            slot,
            release: self.t,
            size,
            remaining: size,
            rate: 0.0,
        });
        self.next_id += 1 + below(&mut self.state, 3) as u64;
    }

    /// Positions into `alive` in SRPT order, and in arrival order.
    fn order(&self, by_arrival: bool) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.alive.len()).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (&self.alive[a], &self.alive[b]);
            if by_arrival {
                a.release.total_cmp(&b.release).then(a.id.cmp(&b.id))
            } else {
                a.remaining
                    .total_cmp(&b.remaining)
                    .then(a.release.total_cmp(&b.release))
                    .then(a.id.cmp(&b.id))
            }
        });
        order
    }

    fn shuffle(&mut self, v: &mut [FrameJob]) {
        for i in (1..v.len()).rev() {
            let k = below(&mut self.state, i + 1);
            v.swap(i, k);
        }
    }

    /// The next frame, carrying `fault` where the shape allows it.
    fn frame(&mut self, fault: Fault) -> AuditFrame {
        let n = self.alive.len();
        let k = if n == 0 {
            0
        } else {
            1 + below(&mut self.state, n)
        };
        let mut shares = vec![0.0; n];
        match self.shape {
            Shape::Incremental { .. } | Shape::Exhaustive => {
                for &i in &self.order(false)[..k] {
                    shares[i] = self.m / k as f64;
                }
            }
            Shape::Suffix => {
                for &i in &self.order(true)[n - k..] {
                    shares[i] = self.m / k as f64;
                }
            }
            Shape::Plain => {
                for s in &mut shares {
                    if unit(&mut self.state) < 0.6 {
                        *s = self.m / n as f64 * unit(&mut self.state);
                    }
                }
            }
        }
        for (j, &s) in self.alive.iter_mut().zip(&shares) {
            j.rate = s.sqrt();
        }
        let mut jobs: Vec<FrameJob> = self
            .alive
            .iter()
            .map(|j| FrameJob {
                id: JobId(j.id),
                slot: j.slot,
                release: j.release,
                size: j.size,
                remaining: j.remaining,
                share: j.rate * j.rate,
                rate: j.rate,
            })
            .collect();
        // The incremental path lists its running partition first.
        jobs.sort_by_key(|j| j.share == 0.0);
        let (running, queued) = jobs.split_at_mut(k);
        self.shuffle(running);
        self.shuffle(queued);
        let (srpt_running, srpt_ordered_policy, latest_arrivals_policy) = match self.shape {
            Shape::Incremental { claims_prefix } => (Some(k), claims_prefix, false),
            Shape::Exhaustive => (None, true, false),
            Shape::Suffix => (None, false, true),
            Shape::Plain => (None, false, false),
        };
        if srpt_running.is_none() {
            self.shuffle(&mut jobs);
        }
        let mut frame = AuditFrame {
            event: self.event,
            t: self.t,
            m: self.m,
            path: None,
            policy: "fault".to_string(),
            jobs,
            srpt_running,
            srpt_ordered_policy,
            latest_arrivals_policy,
        };
        self.inject(&mut frame, fault);
        self.last = Some((frame.event, frame.t));
        frame
    }

    fn inject(&mut self, f: &mut AuditFrame, fault: Fault) {
        let n = f.jobs.len();
        let scheduled: Vec<usize> = (0..n).filter(|&i| f.jobs[i].share > 0.0).collect();
        let starved: Vec<usize> = (0..n).filter(|&i| f.jobs[i].share == 0.0).collect();
        let pick = |state: &mut u64, from: &[usize]| from[below(state, from.len())];
        match fault {
            Fault::None => {}
            Fault::Clock => match self.last {
                Some((_, t)) if unit(&mut self.state) < 0.5 => {
                    f.t = t - 0.5 - unit(&mut self.state);
                }
                Some((event, _)) => f.event = event,
                None => {}
            },
            Fault::Capacity if n > 0 => {
                let i = below(&mut self.state, n);
                match below(&mut self.state, 4) {
                    0 => f.jobs[i].share = -0.25,
                    1 => f.jobs[i].share = f64::NAN,
                    2 => f.jobs[i].share = f64::INFINITY,
                    _ => f.jobs[i].share = f.m + 1.0,
                }
            }
            Fault::Remaining if n > 0 => {
                let i = below(&mut self.state, n);
                let j = &mut f.jobs[i];
                j.remaining = if unit(&mut self.state) < 0.5 {
                    -0.5
                } else {
                    j.size + 0.5
                };
            }
            Fault::Drain => {
                if let Some(j) = f.jobs.iter_mut().find(|j| j.remaining >= 1.0) {
                    j.remaining -= 0.5;
                }
            }
            // Swap the longest running job with the shortest queued one in
            // the listing, and half the time in the allocation too; on an
            // exact tie that breaks nothing.
            Fault::Order => {
                let Some(k) = f.srpt_running.filter(|&k| k > 0 && k < n) else {
                    return;
                };
                let by = |a: &usize, b: &usize| srpt_cmp(&f.jobs[*a], &f.jobs[*b]);
                let longest = (0..k).max_by(by).expect("k > 0");
                let shortest = (k..n).min_by(by).expect("k < n");
                if unit(&mut self.state) < 0.5 {
                    let (a, b) = (f.jobs[longest].share, f.jobs[shortest].share);
                    f.jobs[longest].share = b;
                    f.jobs[shortest].share = a;
                }
                f.jobs.swap(longest, shortest);
            }
            // Give the scheduled set's longest (or oldest) job's share to a
            // starved job that should have run first, or unbalance one
            // share.
            Fault::Prefix | Fault::Suffix if !scheduled.is_empty() => {
                if starved.is_empty() || unit(&mut self.state) < 0.3 {
                    let i = pick(&mut self.state, &scheduled);
                    f.jobs[i].share *= 0.5;
                    return;
                }
                let s = pick(&mut self.state, &scheduled);
                let w = pick(&mut self.state, &starved);
                let share = f.jobs[s].share;
                f.jobs[s].share = 0.0;
                f.jobs[w].share = share;
            }
            _ => {}
        }
    }

    /// Advances to the next event: jobs drain at their rates, finished
    /// jobs leave, and some arrive.
    fn advance(&mut self) {
        self.event += if unit(&mut self.state) < 0.1 {
            2 + below(&mut self.state, 4) as u64
        } else {
            1
        };
        let dt = if unit(&mut self.state) < 0.2 {
            0.0
        } else {
            unit(&mut self.state)
        };
        self.t += dt;
        for j in &mut self.alive {
            j.remaining = (j.remaining - j.rate * dt).max(0.0);
        }
        let done: Vec<usize> = self
            .alive
            .iter()
            .filter(|j| j.remaining == 0.0)
            .map(|j| j.slot)
            .collect();
        self.free.extend(done);
        self.alive.retain(|j| j.remaining > 0.0);
        for _ in 0..below(&mut self.state, 4) {
            self.arrive();
        }
    }
}

/// What the fused check and the reference said about one frame.
#[derive(Default)]
struct Tally {
    /// Frames on which a fault of each kind was injected and reported
    /// under its own law.
    caught: [usize; 8],
    /// Clean verdicts on incremental frames whose running partition's
    /// longest job ties the queue's shortest exactly.
    boundary_ties: usize,
}

/// Checks `cur` with the auditor (which holds the chain so far) and with
/// the reference; both must give the same first violation, field for
/// field.
fn check_fused(
    aud: &mut Auditor,
    prev: Option<&AuditFrame>,
    cur: &AuditFrame,
    fault: Fault,
    tally: &mut Tally,
    ctx: &str,
) {
    let want = reference_suite(prev, cur);
    let got = match aud.check_frame(cur.clone()) {
        Ok(()) => None,
        Err(SimError::AuditFailed { violation }) => Some(*violation),
        Err(e) => panic!("{ctx}: {e}"),
    };
    match (&got, want.first()) {
        (None, None) => {}
        (Some(g), Some(w)) => assert_same_violations(
            std::slice::from_ref(g),
            std::slice::from_ref(w),
            &format!("{ctx} ({fault:?})"),
        ),
        _ => panic!(
            "{ctx} ({fault:?}): fused {got:?}, reference {:?}",
            want.first()
        ),
    }
    let law = match fault {
        Fault::None => None,
        Fault::Clock => Some("monotone-clock"),
        Fault::Capacity => Some("capacity"),
        Fault::Remaining => Some("non-negative-remaining"),
        Fault::Drain => Some("work-drain"),
        Fault::Order => Some("srpt-order"),
        Fault::Prefix => Some("srpt-prefix"),
        Fault::Suffix => Some("arrival-suffix"),
    };
    if law.is_some() && got.as_ref().map(|v| v.invariant) == law {
        tally.caught[FAULTS.iter().position(|&f| f == fault).expect("listed")] += 1;
    }
    if let (None, Some(k)) = (&got, cur.srpt_running) {
        let longest = cur.jobs[..k].iter().map(|j| j.remaining).reduce(f64::max);
        let shortest = cur.jobs[k..].iter().map(|j| j.remaining).reduce(f64::min);
        if longest.is_some() && longest == shortest {
            tally.boundary_ties += 1;
        }
    }
}

/// Runs one chain of `steps` frames after `initial` arrivals.
fn run_chain(seed: u64, initial: usize, steps: usize, tally: &mut Tally) {
    let mut chain = Chain::new(seed);
    for _ in 0..initial {
        chain.arrive();
    }
    let mut aud = Auditor::new(AuditLevel::Strict);
    let mut prev: Option<AuditFrame> = None;
    for step in 0..steps {
        let fault = if unit(&mut chain.state) < 0.5 {
            Fault::None
        } else {
            FAULTS[below(&mut chain.state, FAULTS.len())]
        };
        let cur = chain.frame(fault);
        let ctx = format!("seed {seed} step {step} {:?}", chain.shape);
        check_fused(&mut aud, prev.as_ref(), &cur, fault, tally, &ctx);
        prev = Some(cur);
        chain.advance();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fused_check_reports_what_the_seven_separate_checks_report(
        seed in 0u64..u64::MAX,
        initial in 0usize..=32,
        steps in 1usize..=24,
    ) {
        run_chain(seed, initial, steps, &mut Tally::default());
    }
}

#[test]
fn fault_chains_catch_every_law_and_tie_at_the_boundary() {
    let mut tally = Tally::default();
    for seed in 0..400u64 {
        run_chain(seed, 12, 16, &mut tally);
    }
    for (fault, &caught) in FAULTS.iter().zip(&tally.caught).skip(1) {
        assert!(caught > 20, "{fault:?} caught under its law {caught} times");
    }
    assert!(
        tally.boundary_ties > 20,
        "{} boundary ties",
        tally.boundary_ties
    );
}
