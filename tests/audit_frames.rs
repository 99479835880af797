//! Oracle for the work-drain check's slot lookup.
//!
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
use parsched_sim::invariant::{
    AuditFrame, EnginePath, FrameJob, Invariant, Violation, WorkDrainConsistency,
};
use parsched_sim::jsonlite::Json;
use parsched_sim::{
    simulate, AuditLevel, Engine, EngineConfig, Instance, JobId, JobSpec, NullObserver,
    StaticSource,
};
use parsched_speedup::Curve;
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
            path: EnginePath::Replay,
            policy: "random".to_string(),
            jobs,
            srpt_ordered_iteration: false,
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
        path: EnginePath::Incremental,
        policy: "test".to_string(),
        jobs,
        srpt_ordered_iteration: false,
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
