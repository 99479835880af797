//! The Theorem 2 construction: an **adaptive** adversary forcing every
//! online algorithm to competitive ratio `Ω(log P)`.
//!
//! The instance family (paper §4), parameterized by `α` with `ε = 1 − α`
//! and length-reduction factor `r = ½(1 − 2^{-ε})`:
//!
//! * **Part 1** runs up to `L = ½·log_{1/r} P` phases. Phase `i` has length
//!   `p_i = P·rⁱ` and starts at `s_i = Σ_{j<i} p_j`; it releases `m/2`
//!   *long* jobs of size `p_i` at `s_i` and `m` *short* unit jobs at each
//!   time `s_i + j`, `0 ≤ j ≤ p_i/2 − 1`.
//! * At each phase midpoint `s_i + p_i/2` the adversary inspects the online
//!   algorithm: if at least `m·log_{1/r} P` work remains from phase-`i`
//!   short jobs, it jumps to part 2 immediately (**case 1**); otherwise the
//!   online algorithm must have starved the long jobs, and the adversary
//!   continues to phase `i+1` (after the last phase: **case 2**).
//! * **Part 2** releases `m` unit jobs at each of `stream_len` consecutive
//!   integer times (the paper uses `P²`).
//!
//! Either way the online algorithm carries `Ω(m·log_{1/r} P)` unfinished
//! jobs through the entire stream while OPT carries `O(m)`; the paper's
//! explicit *standard schedules* — built here as executable
//! [`AllocationPlan`]s — certify `OPT = O(m·P²)`.

use std::collections::VecDeque;

use parsched::theory;
use parsched_sim::{
    arrival_tolerance, AllocationPlan, ArrivalSource, Engine, EngineConfig, JobId, JobSpec,
    NullObserver, Policy, RunOutcome, SimError, SystemView, Time,
};
use parsched_speedup::Curve;
use serde::{Deserialize, Serialize};

/// Parameters of the Theorem 2 family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseFamily {
    /// Number of processors (must be even: each phase has `m/2` long jobs).
    pub m: usize,
    /// Parallelizability exponent `α ∈ [0, 1)`.
    pub alpha: f64,
    /// Longest job size `P ≥ 4`.
    pub p: f64,
    /// Number of unit-job waves in part 2 (the paper's `P²`; capped by
    /// default so sweeps stay tractable — the ratio saturates once the
    /// stream dominates, so the cap trades closeness to the asymptote for
    /// run time).
    pub stream_len: usize,
}

impl PhaseFamily {
    /// Creates the family with the default stream length
    /// `min(P², 4096)`.
    ///
    /// ```
    /// use parsched::IntermediateSrpt;
    /// use parsched_workloads::PhaseFamily;
    ///
    /// let fam = PhaseFamily::new(4, 0.5, 64.0).with_stream_len(16);
    /// let (outcome, record) = fam.run_against(&mut IntermediateSrpt::new()).unwrap();
    /// // The adversary committed to a concrete instance…
    /// assert_eq!(outcome.metrics.num_jobs, outcome.instance.len());
    /// // …and its standard-schedule OPT certificate is executable.
    /// let plan = fam.opt_plan(&record).unwrap();
    /// assert!(plan.horizon() > 0.0);
    /// ```
    pub fn new(m: usize, alpha: f64, p: f64) -> Self {
        assert!(
            m >= 2 && m.is_multiple_of(2),
            "m must be even and ≥ 2, got {m}"
        );
        assert!((0.0..1.0).contains(&alpha), "Theorem 2 needs α < 1");
        assert!(p >= 4.0, "P must be at least 4, got {p}");
        Self {
            m,
            alpha,
            p,
            stream_len: ((p * p) as usize).min(4096),
        }
    }

    /// Overrides the part-2 stream length.
    pub fn with_stream_len(mut self, stream_len: usize) -> Self {
        assert!(stream_len >= 1);
        self.stream_len = stream_len;
        self
    }

    /// The length-reduction factor `r = ½(1 − 2^{-ε})`.
    pub fn reduction(&self) -> f64 {
        theory::reduction_factor(self.alpha)
    }

    /// Number of phases `L ≈ ½·log_{1/r} P` (the paper chooses `P` so this
    /// is an integer; we round to the nearest integer, at least 1).
    pub fn num_phases(&self) -> usize {
        (theory::phase_count(self.alpha, self.p).round() as usize).max(1)
    }

    /// Phase length `p_i = P·rⁱ`.
    pub fn phase_len(&self, i: usize) -> f64 {
        self.p * self.reduction().powi(i as i32)
    }

    /// Phase start `s_i = P·(1 − rⁱ)/(1 − r)`.
    pub fn phase_start(&self, i: usize) -> f64 {
        let r = self.reduction();
        self.p * (1.0 - r.powi(i as i32)) / (1.0 - r)
    }

    /// Number of short-job waves in phase `i`: `⌊p_i/2⌋`.
    pub fn short_waves(&self, i: usize) -> usize {
        (self.phase_len(i) / 2.0).floor() as usize
    }

    /// The adversary's trigger: `m·log_{1/r} P` remaining short work.
    pub fn threshold(&self) -> f64 {
        self.m as f64 * theory::log_inv_r(self.alpha, self.p)
    }

    /// Whether `P` is large enough that even the *last* phase carries more
    /// short work than the threshold (the paper's integrality/size side
    /// conditions, `log²_{1/r} P < ¼·((2^ε−1)/(2^ε+1))·√P`, serve the same
    /// purpose). A poorly parameterized family still runs but the case-1
    /// trigger can become unreachable in late phases.
    pub fn is_well_parameterized(&self) -> bool {
        let last = self.num_phases() - 1;
        self.m as f64 * self.short_waves(last) as f64 > self.threshold()
    }

    /// The speed-up curve shared by every job in the family.
    pub fn curve(&self) -> Curve {
        Curve::power(self.alpha)
    }

    /// Creates a fresh adaptive adversary for one run.
    pub fn adversary(&self) -> PhaseAdversary {
        PhaseAdversary::new(*self)
    }

    /// Runs `policy` against the adaptive adversary, returning the online
    /// outcome (which embeds the concrete emitted [`parsched_sim::Instance`]) and the
    /// adversary's record of what it did.
    pub fn run_against(
        &self,
        policy: &mut dyn Policy,
    ) -> Result<(RunOutcome, AdversaryOutcome), SimError> {
        let mut obs = NullObserver;
        self.run_against_observed(policy, &mut obs)
    }

    /// [`PhaseFamily::run_against`] with a custom observer attached to the
    /// online algorithm's engine (e.g. an
    /// [`parsched_sim::AliveTrace`] to measure the backlog `|A(T)|` at the
    /// stream start — the quantity Theorem 2 lower-bounds by
    /// `Ω(m·log_{1/r} P)`).
    pub fn run_against_observed(
        &self,
        policy: &mut dyn Policy,
        observer: &mut dyn parsched_sim::Observer,
    ) -> Result<(RunOutcome, AdversaryOutcome), SimError> {
        let mut adversary = self.adversary();
        let outcome = Engine::new(
            EngineConfig::new(self.m as f64),
            policy,
            &mut adversary,
            observer,
        )
        .run()?;
        let record = adversary.into_outcome();
        Ok((outcome, record))
    }

    /// Builds the paper's explicit feasible schedule ("standard schedule"
    /// plus the case-specific tail) certifying `OPT = O(m·P²)` for the
    /// instance the adversary committed to.
    pub fn opt_plan(&self, record: &AdversaryOutcome) -> Result<AllocationPlan, SimError> {
        let m = self.m as f64;
        let mut tracks: Vec<(Time, Time, JobId, f64)> = Vec::new();
        let standard_through = match record.case {
            StoppingCase::MidPhase { phase } => phase,
            StoppingCase::AllPhases => record.phases.len(),
        };
        // Standard schedule for fully played phases.
        for (i, rec) in record.phases.iter().enumerate().take(standard_through) {
            let s = self.phase_start(i);
            let len = self.phase_len(i);
            for &id in &rec.long_ids {
                tracks.push((s, s + len, id, 1.0));
            }
            let half = len / 2.0;
            for &(t, ref ids) in &rec.short_waves {
                let (now_half, later_half) = ids.split_at(ids.len() / 2);
                for &id in now_half {
                    tracks.push((t, t + 1.0, id, 1.0));
                }
                for &id in later_half {
                    tracks.push((t + half, t + half + 1.0, id, 1.0));
                }
            }
        }
        // Case 1: the interrupted phase ignores its long jobs until after
        // the stream; its short jobs each get a dedicated machine on
        // arrival.
        if let StoppingCase::MidPhase { phase } = record.case {
            let rec = &record.phases[phase];
            for &(t, ref ids) in &rec.short_waves {
                for &id in ids {
                    tracks.push((t, t + 1.0, id, 1.0));
                }
            }
            let stream_end = record.t_part2 + record.stream.len() as f64;
            let len = self.phase_len(phase);
            let dur = len / 2f64.powf(self.alpha);
            for &id in &rec.long_ids {
                tracks.push((stream_end, stream_end + dur, id, 2.0));
            }
        }
        // The stream: one machine per unit job for one time unit.
        for &(t, ref ids) in &record.stream {
            for &id in ids {
                tracks.push((t, t + 1.0, id, 1.0));
            }
        }
        AllocationPlan::from_tracks(&tracks, m)
    }
}

/// Which of the paper's two stopping cases the adversary took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoppingCase {
    /// Case 1: the online algorithm held ≥ the threshold of unfinished
    /// short work at the midpoint of `phase`; part 2 started there.
    MidPhase {
        /// The interrupted phase index.
        phase: usize,
    },
    /// Case 2: every phase ran to completion; part 2 started at the end of
    /// the last phase.
    AllPhases,
}

/// What one adversary run did: per-phase job ids and the stopping decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdversaryOutcome {
    /// The stopping case.
    pub case: StoppingCase,
    /// Part-2 start time `T`.
    pub t_part2: Time,
    /// Per-released-phase records (long ids and short waves).
    pub phases: Vec<PhaseRecord>,
    /// Stream waves `(time, ids)`.
    pub stream: Vec<(Time, Vec<JobId>)>,
    /// The online algorithm's remaining phase-short work at each midpoint
    /// the adversary inspected (diagnostics for experiment F4).
    pub midpoint_debt: Vec<f64>,
}

/// The jobs released during one phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PhaseRecord {
    /// Ids of the `m/2` long jobs.
    pub long_ids: Vec<JobId>,
    /// `(release time, ids)` of each wave of `m` short jobs.
    pub short_waves: Vec<(Time, Vec<JobId>)>,
}

#[derive(Debug, Clone)]
enum PendingEvent {
    Longs { phase: usize },
    Shorts { phase: usize },
    Decision { phase: usize },
    StreamWave,
}

/// The adaptive arrival source implementing the Theorem 2 adversary.
///
/// Feed it to a [`parsched_sim::Engine`] (or use
/// [`PhaseFamily::run_against`]); afterwards, [`PhaseAdversary::into_outcome`]
/// yields the record needed to build the OPT certificate for the concrete
/// instance that materialized.
#[derive(Debug, Clone)]
pub struct PhaseAdversary {
    family: PhaseFamily,
    queue: VecDeque<(Time, PendingEvent)>,
    next_id: u64,
    phases: Vec<PhaseRecord>,
    stream: Vec<(Time, Vec<JobId>)>,
    case: Option<StoppingCase>,
    t_part2: Time,
    midpoint_debt: Vec<f64>,
}

impl PhaseAdversary {
    /// Creates the adversary positioned at phase 0.
    pub fn new(family: PhaseFamily) -> Self {
        let mut a = Self {
            family,
            queue: VecDeque::new(),
            next_id: 0,
            phases: Vec::new(),
            stream: Vec::new(),
            case: None,
            t_part2: 0.0,
            midpoint_debt: Vec::new(),
        };
        a.schedule_phase(0);
        a
    }

    fn schedule_phase(&mut self, i: usize) {
        let s = self.family.phase_start(i);
        self.queue.push_back((s, PendingEvent::Longs { phase: i }));
        for j in 0..self.family.short_waves(i) {
            self.queue
                .push_back((s + j as f64, PendingEvent::Shorts { phase: i }));
        }
        self.queue.push_back((
            s + self.family.phase_len(i) / 2.0,
            PendingEvent::Decision { phase: i },
        ));
        // lint:allow(L007) adversary bookkeeping grows once per phase, not per event; adaptive sources are outside the zero-alloc contract
        self.phases.push(PhaseRecord::default());
        // Events are pushed in increasing time order: waves precede the
        // midpoint because j ≤ ⌊p_i/2⌋ − 1 < p_i/2.
        debug_assert!(self
            .queue
            .iter()
            .zip(self.queue.iter().skip(1))
            .all(|(a, b)| a.0 <= b.0 + 1e-9));
    }

    fn start_part2(&mut self, t: Time, case: StoppingCase) {
        self.case = Some(case);
        self.t_part2 = t;
        for k in 0..self.family.stream_len {
            self.queue
                .push_back((t + k as f64, PendingEvent::StreamWave));
        }
    }

    fn fresh_ids(&mut self, count: usize) -> Vec<JobId> {
        let start = self.next_id;
        self.next_id += count as u64;
        // lint:allow(L007) fresh id batch per wave; adaptive sources are outside the zero-alloc contract
        (start..self.next_id).map(JobId).collect()
    }

    /// The record of this run; call after the simulation finishes.
    pub fn into_outcome(self) -> AdversaryOutcome {
        AdversaryOutcome {
            case: self.case.unwrap_or(StoppingCase::AllPhases),
            t_part2: self.t_part2,
            phases: self.phases,
            stream: self.stream,
            midpoint_debt: self.midpoint_debt,
        }
    }
}

impl ArrivalSource for PhaseAdversary {
    fn next_time(&self) -> Option<Time> {
        self.queue.front().map(|&(t, _)| t)
    }

    fn emit_into(&mut self, view: &SystemView<'_>, out: &mut Vec<JobSpec>) {
        let curve = self.family.curve();
        let m = self.family.m;
        while let Some(&(t, _)) = self.queue.front() {
            if t > view.now + arrival_tolerance(view.now) {
                break;
            }
            // lint:allow(L007) front() was checked non-empty by the loop condition just above
            let (t, ev) = self.queue.pop_front().expect("non-empty");
            match ev {
                PendingEvent::Longs { phase } => {
                    let ids = self.fresh_ids(m / 2);
                    let len = self.family.phase_len(phase);
                    for &id in &ids {
                        out.push(JobSpec::new(id, t, len, curve.clone()));
                    }
                    // lint:allow(L007) phase indices are assigned from phases.len() at scheduling; in bounds by construction
                    self.phases[phase].long_ids = ids;
                }
                PendingEvent::Shorts { phase } => {
                    let ids = self.fresh_ids(m);
                    for &id in &ids {
                        out.push(JobSpec::new(id, t, 1.0, curve.clone()));
                    }
                    // lint:allow(L007) phase indices are in bounds by construction and wave bookkeeping grows per wave; adaptive sources are outside the zero-alloc contract
                    self.phases[phase].short_waves.push((t, ids));
                }
                PendingEvent::Decision { phase } => {
                    // Remaining short work of this phase in the online
                    // algorithm's queue.
                    // lint:allow(L007) phase indices are assigned from phases.len() at scheduling; in bounds by construction
                    let shorts: std::collections::BTreeSet<JobId> = self.phases[phase]
                        .short_waves
                        .iter()
                        .flat_map(|(_, ids)| ids.iter().copied())
                        // lint:allow(L007) midpoint debt set is rebuilt per wave; adaptive sources are outside the zero-alloc contract
                        .collect();
                    let debt = view.remaining_work_where(|j| shorts.contains(&j.id()));
                    // lint:allow(L007) midpoint debt grows per wave; adaptive sources are outside the zero-alloc contract
                    self.midpoint_debt.push(debt);
                    if debt >= self.family.threshold() {
                        self.start_part2(t, StoppingCase::MidPhase { phase });
                    } else if phase + 1 < self.family.num_phases() {
                        self.schedule_phase(phase + 1);
                    } else {
                        let t2 = self.family.phase_start(phase) + self.family.phase_len(phase);
                        self.start_part2(t2, StoppingCase::AllPhases);
                    }
                }
                PendingEvent::StreamWave => {
                    let ids = self.fresh_ids(m);
                    for &id in &ids {
                        out.push(JobSpec::new(id, t, 1.0, curve.clone()));
                    }
                    // lint:allow(L007) stream bookkeeping grows per wave; adaptive sources are outside the zero-alloc contract
                    self.stream.push((t, ids));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched::{IntermediateSrpt, ParallelSrpt};
    use parsched_sim::{simulate, PlannedPolicy};

    fn family() -> PhaseFamily {
        PhaseFamily::new(4, 0.5, 64.0).with_stream_len(32)
    }

    #[test]
    fn phase_geometry_matches_paper() {
        let f = family();
        let r = f.reduction();
        assert!((0.0..0.5).contains(&r));
        assert!((f.phase_len(0) - 64.0).abs() < 1e-9);
        assert!((f.phase_len(1) - 64.0 * r).abs() < 1e-9);
        assert_eq!(f.phase_start(0), 0.0);
        assert!((f.phase_start(1) - 64.0).abs() < 1e-9);
        assert!((f.phase_start(2) - 64.0 * (1.0 + r)).abs() < 1e-9);
        assert!(f.num_phases() >= 1);
        assert_eq!(f.short_waves(0), 32);
    }

    #[test]
    fn adversary_emits_well_formed_instances() {
        let f = family();
        let (outcome, record) = f.run_against(&mut IntermediateSrpt::new()).unwrap();
        // All emitted jobs completed and the instance validates.
        assert_eq!(outcome.metrics.num_jobs, outcome.instance.len());
        assert!(!record.stream.is_empty(), "part 2 must always run");
        assert_eq!(record.stream.len(), f.stream_len);
        // Long jobs per released phase = m/2, shorts per wave = m.
        for rec in &record.phases {
            if !rec.long_ids.is_empty() {
                assert_eq!(rec.long_ids.len(), f.m / 2);
            }
            for (_, ids) in &rec.short_waves {
                assert_eq!(ids.len(), f.m);
            }
        }
    }

    #[test]
    fn opt_plan_is_feasible_for_intermediate_srpt_run() {
        let f = family();
        let (outcome, record) = f.run_against(&mut IntermediateSrpt::new()).unwrap();
        let plan = f.opt_plan(&record).unwrap();
        let opt = simulate(
            &outcome.instance,
            &mut PlannedPolicy::named(plan, "standard"),
            f.m as f64,
        )
        .unwrap();
        assert_eq!(opt.metrics.num_jobs, outcome.instance.len());
        // The certificate is what the paper predicts: O(m·P·…) scale, far
        // below a pathological schedule — finite and positive suffices here;
        // the ratio experiments assert the real inequalities.
        assert!(opt.metrics.total_flow.is_finite() && opt.metrics.total_flow > 0.0);
    }

    #[test]
    fn opt_plan_is_feasible_for_parallel_srpt_run() {
        // Parallel-SRPT hoards processors → likely triggers case 1; the
        // certificate must be feasible for that branch too.
        let f = family();
        let (outcome, record) = f.run_against(&mut ParallelSrpt::new()).unwrap();
        let plan = f.opt_plan(&record).unwrap();
        let opt = simulate(
            &outcome.instance,
            &mut PlannedPolicy::named(plan, "standard"),
            f.m as f64,
        )
        .unwrap();
        assert_eq!(opt.metrics.num_jobs, outcome.instance.len());
    }

    #[test]
    fn decision_records_midpoint_debt() {
        let f = family();
        let (_, record) = f.run_against(&mut IntermediateSrpt::new()).unwrap();
        assert!(!record.midpoint_debt.is_empty());
        match record.case {
            StoppingCase::MidPhase { phase } => {
                assert!(record.midpoint_debt[phase] >= f.threshold());
            }
            StoppingCase::AllPhases => {
                assert!(record.midpoint_debt.iter().all(|&d| d < f.threshold()));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Geometry invariants across the (m, α, P) grid: phase lengths
        /// shrink by exactly r, starts telescope, and an Intermediate-SRPT
        /// run against the adversary completes with a valid instance and
        /// an executable certificate.
        #[test]
        fn family_geometry_invariants(
            m_half in 1usize..5,
            alpha in 0.05f64..0.9,
            p_exp in 3u32..9,
        ) {
            let m = 2 * m_half;
            let p = f64::from(2u32.pow(p_exp));
            let f = PhaseFamily::new(m, alpha, p).with_stream_len(8);
            let r = f.reduction();
            proptest::prop_assert!(r > 0.0 && r < 0.5);
            for i in 0..f.num_phases() {
                proptest::prop_assert!((f.phase_len(i) - p * r.powi(i as i32)).abs() < 1e-6);
                if i > 0 {
                    let telescoped = f.phase_start(i - 1) + f.phase_len(i - 1);
                    proptest::prop_assert!((f.phase_start(i) - telescoped).abs() < 1e-6);
                }
            }
            let (outcome, record) = f
                .run_against(&mut IntermediateSrpt::new())
                .expect("adversary run");
            proptest::prop_assert_eq!(outcome.metrics.num_jobs, outcome.instance.len());
            let plan = f.opt_plan(&record).expect("certificate");
            let opt = simulate(
                &outcome.instance,
                &mut PlannedPolicy::named(plan, "standard"),
                m as f64,
            )
            .expect("certificate executes");
            proptest::prop_assert_eq!(opt.metrics.num_jobs, outcome.instance.len());
        }
    }

    #[test]
    fn well_parameterized_check() {
        // Because L = ½·log_{1/r} P, the last phase retains ≳ √P of length
        // and its short work dominates the logarithmic threshold for every
        // sane parameterization — the guard should hold across the
        // experiment grid.
        for &(m, alpha, p) in &[(4usize, 0.5, 64.0), (8, 0.25, 256.0), (16, 0.9, 1024.0)] {
            let f = PhaseFamily::new(m, alpha, p);
            assert!(f.is_well_parameterized(), "m={m} α={alpha} P={p}");
            // Threshold formula matches theory helpers.
            let expected = m as f64 * theory::log_inv_r(alpha, p);
            assert!((f.threshold() - expected).abs() < 1e-9);
        }
    }
}
