//! Generator-backed [`ArrivalSource`]s for the streaming engine path.
//!
//! The eager generators in this crate ([`PoissonWorkload::generate`],
//! [`GreedyTrap::instance`], the [`PhaseFamily`] layout) materialize a full
//! [`Instance`] — `O(n)` memory before the simulation even starts. The
//! sources here produce the *same job sequences* lazily, holding only a
//! cursor and (for Poisson) the RNG state, so a streaming run's memory is
//! bounded by the alive set no matter how long the stream
//! (see `docs/PERF.md`, "The streaming path").
//!
//! Each source is a drop-in [`ArrivalSource`]: feeding it to
//! [`parsched_sim::simulate_streaming`] yields metrics **bit-identical** to
//! the in-memory run over the eager instance, because the emitted
//! [`JobSpec`] sequence is identical element-for-element (the unit tests
//! pin this by draining each source and comparing against its eager
//! counterpart).

use parsched_sim::{
    arrival_tolerance, ArrivalSource, Instance, JobId, JobSpec, SimError, SystemView, Time,
};
use parsched_speedup::Curve;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::random::PoissonWorkload;
use crate::GreedyTrap;
use crate::PhaseFamily;

/// Lazy equivalent of [`PoissonWorkload::generate`]: the same seed produces
/// the same job sequence, one pre-generated job at a time.
///
/// The per-job RNG call order (inter-arrival draw, then size, then α) is
/// replicated exactly, so `PoissonSource::new(w)` drained as a stream equals
/// `w.generate()` element-for-element — which is what makes streaming runs
/// comparable against in-memory runs of the eager instance.
#[derive(Debug, Clone)]
pub struct PoissonSource {
    workload: PoissonWorkload,
    rng: StdRng,
    t: f64,
    emitted: usize,
    next: Option<JobSpec>,
}

impl PoissonSource {
    /// A lazy stream over `workload`'s job sequence.
    pub fn new(workload: PoissonWorkload) -> Self {
        let rng = StdRng::seed_from_u64(workload.seed);
        let mut src = Self {
            workload,
            rng,
            t: 0.0,
            emitted: 0,
            next: None,
        };
        src.next = src.generate_next();
        src
    }

    /// Generates the next job with exactly the RNG sequence of
    /// [`PoissonWorkload::generate`].
    fn generate_next(&mut self) -> Option<JobSpec> {
        if self.emitted >= self.workload.n {
            return None;
        }
        let u: f64 = self.rng.gen::<f64>().max(1e-300);
        self.t += -u.ln() / self.workload.rate;
        let size = self.workload.sizes.sample(&mut self.rng).max(1e-9);
        let alpha = self.workload.alphas.sample(&mut self.rng).clamp(0.0, 1.0);
        let spec = JobSpec::new(
            JobId(self.emitted as u64),
            self.t,
            size,
            Curve::power(alpha),
        );
        self.emitted += 1;
        Some(spec)
    }
}

impl ArrivalSource for PoissonSource {
    fn next_time(&self) -> Option<Time> {
        self.next.as_ref().map(|j| j.release)
    }

    fn emit_into(&mut self, view: &SystemView<'_>, out: &mut Vec<JobSpec>) {
        let due = view.now + arrival_tolerance(view.now);
        while self.next.as_ref().is_some_and(|j| j.release <= due) {
            out.extend(self.next.take());
            self.next = self.generate_next();
        }
    }
}

/// Lazy equivalent of [`GreedyTrap::instance`]: the Lemma 10 layout emitted
/// job-by-job from a cursor, never materialized.
///
/// The stream portion is parameterized through
/// [`GreedyTrap::with_stream_duration`], so multi-million-job traps cost
/// only the alive set.
#[derive(Debug, Clone)]
pub struct TrapStreamSource {
    trap: GreedyTrap,
    cursor: usize,
}

impl TrapStreamSource {
    /// A lazy stream over `trap`'s instance layout.
    pub fn new(trap: GreedyTrap) -> Self {
        Self { trap, cursor: 0 }
    }

    /// Total number of jobs this source will emit.
    pub fn len(&self) -> usize {
        self.trap.num_long() + self.trap.num_phase1_units() + self.trap.num_stream_units()
    }

    /// Whether the source emits nothing (never true for a valid trap).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `idx`-th job of the layout — longs at 0, then phase-1 units
    /// every `1/K`, then the stream from `m + 1` (identical order and ids
    /// to [`GreedyTrap::instance`]).
    fn job_at(&self, idx: usize) -> Option<JobSpec> {
        if idx >= self.len() {
            return None;
        }
        let m = self.trap.m as f64;
        let delta = 1.0 / self.trap.k() as f64;
        let (release, size) = if idx < self.trap.num_long() {
            (0.0, m)
        } else if idx < self.trap.num_long() + self.trap.num_phase1_units() {
            let j = idx - self.trap.num_long();
            (j as f64 * delta, 1.0)
        } else {
            let j = idx - self.trap.num_long() - self.trap.num_phase1_units();
            (m + 1.0 + j as f64 * delta, 1.0)
        };
        Some(JobSpec::new(
            JobId(idx as u64),
            release,
            size,
            Curve::power(self.trap.alpha),
        ))
    }
}

impl ArrivalSource for TrapStreamSource {
    fn next_time(&self) -> Option<Time> {
        self.job_at(self.cursor).map(|j| j.release)
    }

    fn emit_into(&mut self, view: &SystemView<'_>, out: &mut Vec<JobSpec>) {
        let due = view.now + arrival_tolerance(view.now);
        while let Some(j) = self.job_at(self.cursor).filter(|j| j.release <= due) {
            out.push(j);
            self.cursor += 1;
        }
    }
}

/// Where a [`PhaseStreamSource`] cursor currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseStage {
    /// Emitting wave `wave` of phase `phase` (wave 0 also carries the
    /// phase's long jobs).
    Phase { phase: usize, wave: usize },
    /// Emitting part-2 stream wave `wave`.
    Stream { wave: usize },
    /// Exhausted.
    Done,
}

/// The **non-adaptive** phase-family layout as a lazy stream: every phase
/// plays to completion (the Theorem 2 adversary's case-2 branch), then the
/// part-2 unit-job stream runs for [`PhaseFamily::stream_len`] waves.
///
/// Unlike [`PhaseAdversary`](crate::PhaseAdversary) this source never
/// inspects the online algorithm, so it works on the engine's incremental
/// path without materializing the alive view and its memory is a cursor —
/// the right workload for multi-million-job streaming benchmarks with the
/// phase structure (set `stream_len` large via
/// [`PhaseFamily::with_stream_len`]).
#[derive(Debug, Clone)]
pub struct PhaseStreamSource {
    family: PhaseFamily,
    stage: PhaseStage,
    next_id: u64,
}

impl PhaseStreamSource {
    /// A lazy all-phases stream over `family`'s layout.
    pub fn new(family: PhaseFamily) -> Self {
        Self {
            family,
            stage: PhaseStage::Phase { phase: 0, wave: 0 },
            next_id: 0,
        }
    }

    /// Number of wave slots in phase `i` — at least 1 so the long jobs are
    /// emitted even when the phase is too short for any short wave.
    fn waves_in_phase(&self, i: usize) -> usize {
        self.family.short_waves(i).max(1)
    }

    /// Part-2 start: the end of the last phase.
    fn t_part2(&self) -> Time {
        let last = self.family.num_phases() - 1;
        self.family.phase_start(last) + self.family.phase_len(last)
    }

    /// Advances the cursor past the current wave slot.
    fn advance(&mut self) {
        self.stage = match self.stage {
            PhaseStage::Phase { phase, wave } => {
                if wave + 1 < self.waves_in_phase(phase) {
                    PhaseStage::Phase {
                        phase,
                        wave: wave + 1,
                    }
                } else if phase + 1 < self.family.num_phases() {
                    PhaseStage::Phase {
                        phase: phase + 1,
                        wave: 0,
                    }
                } else {
                    PhaseStage::Stream { wave: 0 }
                }
            }
            PhaseStage::Stream { wave } => {
                if wave + 1 < self.family.stream_len {
                    PhaseStage::Stream { wave: wave + 1 }
                } else {
                    PhaseStage::Done
                }
            }
            PhaseStage::Done => PhaseStage::Done,
        };
    }

    fn fresh_id(&mut self) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Emits the jobs of the current wave slot in the family's canonical
    /// order: long jobs first (wave 0 only), then the `m` unit shorts.
    fn emit_slot(&mut self, out: &mut Vec<JobSpec>) {
        let curve = self.family.curve();
        let m = self.family.m;
        match self.stage {
            PhaseStage::Phase { phase, wave } => {
                let t = self.family.phase_start(phase) + wave as f64;
                if wave == 0 {
                    let len = self.family.phase_len(phase);
                    for _ in 0..m / 2 {
                        let id = self.fresh_id();
                        out.push(JobSpec::new(id, t, len, curve.clone()));
                    }
                }
                if self.family.short_waves(phase) > 0 {
                    for _ in 0..m {
                        let id = self.fresh_id();
                        out.push(JobSpec::new(id, t, 1.0, curve.clone()));
                    }
                }
            }
            PhaseStage::Stream { wave } => {
                let t = self.t_part2() + wave as f64;
                for _ in 0..m {
                    let id = self.fresh_id();
                    out.push(JobSpec::new(id, t, 1.0, curve.clone()));
                }
            }
            PhaseStage::Done => {}
        }
        self.advance();
    }

    /// Materializes the full layout eagerly — the in-memory counterpart the
    /// differential tests compare streaming runs against. `O(n)` memory, so
    /// only call it at test/sweep scales.
    pub fn instance(family: PhaseFamily) -> Result<Instance, SimError> {
        let mut src = Self::new(family);
        let mut jobs = Vec::new();
        while src.stage != PhaseStage::Done {
            src.emit_slot(&mut jobs);
        }
        Instance::new(jobs)
    }
}

impl ArrivalSource for PhaseStreamSource {
    fn next_time(&self) -> Option<Time> {
        match self.stage {
            PhaseStage::Phase { phase, wave } => Some(self.family.phase_start(phase) + wave as f64),
            PhaseStage::Stream { wave } => Some(self.t_part2() + wave as f64),
            PhaseStage::Done => None,
        }
    }

    fn emit_into(&mut self, view: &SystemView<'_>, out: &mut Vec<JobSpec>) {
        let due = view.now + arrival_tolerance(view.now);
        while self.next_time().is_some_and(|t| t <= due) {
            self.emit_slot(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{AlphaDist, SizeDist};
    use parsched::IntermediateSrpt;
    use parsched_sim::{simulate, simulate_streaming};

    /// Drains a source eagerly, stepping time to each announced arrival.
    fn drain(src: &mut dyn ArrivalSource) -> Vec<JobSpec> {
        let mut out = Vec::new();
        while let Some(t) = src.next_time() {
            src.emit_into(&SystemView::new(t, 1.0, &[]), &mut out);
        }
        out
    }

    fn workload() -> PoissonWorkload {
        PoissonWorkload {
            n: 500,
            rate: 2.0,
            sizes: SizeDist::LogUniform { p: 16.0 },
            alphas: AlphaDist::Uniform { lo: 0.2, hi: 0.9 },
            seed: 7,
        }
    }

    #[test]
    fn poisson_source_replays_generate_exactly() {
        let w = workload();
        let eager = w.generate().unwrap();
        let lazy = drain(&mut PoissonSource::new(w));
        assert_eq!(eager.jobs(), lazy.as_slice());
    }

    #[test]
    fn trap_source_replays_instance_exactly() {
        let trap = GreedyTrap::new(8, 0.5).with_stream_duration(16.0);
        let eager = trap.instance().unwrap();
        let lazy = drain(&mut TrapStreamSource::new(trap));
        assert_eq!(eager.jobs(), lazy.as_slice());
    }

    #[test]
    fn phase_source_replays_its_eager_instance_exactly() {
        let fam = PhaseFamily::new(4, 0.5, 64.0).with_stream_len(8);
        let eager = PhaseStreamSource::instance(fam).unwrap();
        let lazy = drain(&mut PhaseStreamSource::new(fam));
        assert_eq!(eager.jobs(), lazy.as_slice());
        // Every phase contributes m/2 longs plus m per wave, then the
        // stream contributes m per wave.
        let expected: usize = (0..fam.num_phases())
            .map(|i| fam.m / 2 + fam.m * fam.short_waves(i))
            .sum::<usize>()
            + fam.m * fam.stream_len;
        assert_eq!(eager.len(), expected);
    }

    #[test]
    fn streaming_run_over_lazy_source_matches_in_memory_run() {
        let w = workload();
        let eager = w.generate().unwrap();
        let mem = simulate(&eager, &mut IntermediateSrpt::new(), 4.0).unwrap();
        let mut src = PoissonSource::new(w);
        let st = simulate_streaming(&mut src, &mut IntermediateSrpt::new(), 4.0).unwrap();
        assert_eq!(mem.metrics, st.metrics);
        assert_eq!(st.admitted, eager.len());
        assert!(st.peak_alive <= eager.len());
    }

    #[test]
    fn sources_announce_nondecreasing_times() {
        let trap = GreedyTrap::new(4, 0.5).with_stream_duration(8.0);
        for src in [
            &mut TrapStreamSource::new(trap) as &mut dyn ArrivalSource,
            &mut PoissonSource::new(workload()),
            &mut PhaseStreamSource::new(PhaseFamily::new(4, 0.5, 64.0).with_stream_len(4)),
        ] {
            let mut last = f64::NEG_INFINITY;
            while let Some(t) = src.next_time() {
                assert!(t >= last, "time went backwards: {last} → {t}");
                last = t;
                let mut batch = Vec::new();
                src.emit_into(&SystemView::new(t, 1.0, &[]), &mut batch);
                assert!(!batch.is_empty(), "announced {t} but emitted nothing");
                for j in &batch {
                    assert!((j.release - t).abs() <= 1e-9 * t.abs().max(1.0));
                }
            }
        }
    }
}
