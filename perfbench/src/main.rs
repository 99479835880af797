//! The parsched benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `sim-stable`, `sim-overload-mixed`, `fleet-resident`,
//! `adversary` (see `perfbench/README.md` for why each exists). The
//! inputs are made from `--seed`; the workload runs for about
//! `--seconds`, checks its outputs, and prints its simulated-output
//! checksum, its batches as measured, the host-speed gauge's reading,
//! its latency summary and, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs with spans around
//! every layer call and reports the per-layer metrics instead, writing
//! the spans to `perfbench/traces/` when it ends.

#![forbid(unsafe_code)]

mod adversary;
mod checksum;
mod clock;
mod fleet;
mod gauge;
mod probe;
mod report;
mod sim;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use gauge::Gauge;
use probe::Probe;
use report::{Metrics, Ops};
use trace::Recorder;

const USAGE: &str =
    "usage: perfbench --workload <sim-stable|sim-overload-mixed|fleet-resident|adversary> \
                     --seed <n> --seconds <s> --trace <0|1>";

const WORKLOADS: [&str; 4] = [
    "sim-stable",
    "sim-overload-mixed",
    "fleet-resident",
    "adversary",
];

/// The command line.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunCfg {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut args = args;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        Ok(RunCfg {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What a workload measured.
#[derive(Debug)]
pub struct Measured {
    /// The set-up batches and the gauge.
    pub setup: SetupTimes,
    /// The timed phase (traced runs: the traced half).
    pub phase: Phase,
    /// Simulated-output checksum.
    pub checksum: u64,
    /// Traced run only: traced ÷ untraced throughput, and the probe.
    pub overhead: Option<(f64, Probe)>,
    /// Exact counts of the simulated work, printed on the `counts` line.
    pub counts: Vec<(&'static str, u64)>,
}

/// Set-up batches timed for `setup_s`, at least.
const SETUP_BATCHES: usize = 7;
/// Each batch repeats the build for about this long, so that the thread
/// clock's 4 ms resolution stays within 2% of the batch.
const SETUP_BATCH_S: f64 = 0.2;
/// A timed phase runs one set-up batch after every this many of its own
/// batches, so that the set-up batches sample the whole run rather than
/// its first second or two, during which the host may run fast or slow.
const SETUP_EVERY: usize = 4;

/// What [`Setup::finish`] returns.
#[derive(Debug)]
pub struct SetupTimes {
    /// CPU seconds per input build at nominal host speed, one value per
    /// set-up batch.
    pub per_build: Vec<f64>,
    /// Every gauge sample of the run, in pops per second.
    pub gauge: Vec<f64>,
}

/// A workload's input build, repeated in batches of equally many builds
/// and timed for `setup_s`; the clock is read only at a batch's ends.
/// It also holds the run's gauge, sampled after every set-up batch and
/// every timed batch.
pub struct Setup<B> {
    build: B,
    reps: u32,
    per_build: Vec<f64>,
    gauge: Gauge,
}

impl<T, B: FnMut(&mut Recorder) -> Result<T, String>> Setup<B> {
    /// Builds the input, then finds how many builds last about
    /// `SETUP_BATCH_S`: a chunk of them is doubled until it lasts a
    /// tenth of that, then scaled up. Returns the last input built.
    pub fn new(rec: &mut Recorder, mut build: B) -> Result<(T, Self), String> {
        let mut last = build(rec)?;
        let mut reps = 1u32;
        let reps = loop {
            let t0 = Instant::now();
            for _ in 0..reps {
                last = build(rec)?;
            }
            let secs = t0.elapsed().as_secs_f64();
            if secs >= SETUP_BATCH_S / 10.0 {
                break (f64::from(reps) * SETUP_BATCH_S / secs).ceil() as u32;
            }
            reps *= 2;
        };
        let setup = Setup {
            build,
            reps,
            per_build: Vec::with_capacity(SETUP_BATCHES),
            gauge: Gauge::default(),
        };
        Ok((last, setup))
    }

    /// One batch; records its thread CPU seconds per build, scaled to
    /// nominal host speed by the gauge sample that follows it.
    fn batch(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let cpu0 = clock::thread_cpu_s()?;
        for _ in 0..self.reps {
            drop((self.build)(rec)?);
        }
        let cpu = clock::thread_cpu_s()? - cpu0;
        let slowdown = self.gauge.slowdown();
        self.per_build.push(cpu / f64::from(self.reps) / slowdown);
        Ok(())
    }

    /// Tops the batches up to `SETUP_BATCHES` and returns them, with
    /// every gauge sample.
    pub fn finish(mut self, rec: &mut Recorder) -> Result<SetupTimes, String> {
        while self.per_build.len() < SETUP_BATCHES {
            self.batch(rec)?;
        }
        Ok(SetupTimes {
            per_build: self.per_build,
            gauge: self.gauge.rates,
        })
    }
}

/// A timed phase is cut into batches of at least this much wall time;
/// each batch's throughput is its operations over its CPU seconds. At
/// the process clock's 10 ms resolution a batch reads within 2%.
const BATCH_S: f64 = 0.5;

/// One batch of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    /// Operations: engine events or candidate evaluations.
    pub ops: f64,
    /// Process CPU seconds, pool workers included.
    pub cpu_s: f64,
    /// Wall seconds.
    pub wall_s: f64,
    /// The host's slowdown, from the gauge sample after the batch.
    pub slowdown: f64,
}

/// A timed phase: its batches, and each unit's wall latency.
#[derive(Debug, Default)]
pub struct Phase {
    pub batches: Vec<Batch>,
    pub latencies: Vec<f64>,
}

impl Phase {
    /// Operations per CPU second at nominal host speed: the median of
    /// the batches' throughputs, each scaled by its gauge sample. CPU
    /// time leaves out hypervisor steal (see `clock`), the gauge most of
    /// the core's changes of speed (see `gauge`), and the median the
    /// batches in which the two moved apart.
    pub fn throughput(&self) -> f64 {
        let per: Vec<f64> = self
            .batches
            .iter()
            .map(|b| b.ops / b.cpu_s * b.slowdown)
            .collect();
        stats::median(&per)
    }

    /// Operations per CPU second as measured: the same median, unscaled.
    pub fn raw_throughput(&self) -> f64 {
        let per: Vec<f64> = self.batches.iter().map(|b| b.ops / b.cpu_s).collect();
        stats::median(&per)
    }

    /// How many CPUs the process kept busy: the median over batches of
    /// CPU seconds ÷ wall seconds. About 1 for the single-threaded sims;
    /// up to the pool's 2 workers on the pooled workloads, where a change
    /// that serializes the pool or idles a worker lowers it while
    /// `throughput` may not move. Wall time includes hypervisor steal, so
    /// it reads below the true figure on a busy host.
    pub fn cpu_per_wall(&self) -> f64 {
        let per: Vec<f64> = self.batches.iter().map(|b| b.cpu_s / b.wall_s).collect();
        stats::median(&per)
    }
}

/// Runs `unit(i, rec, latencies)` for `i = 0, 1, …` until `seconds` have
/// passed, at least `min_units` ran and the unit count is a multiple of
/// `cycle`. Each unit returns the operations it completed and pushes its
/// wall latencies. Batches close on cycle boundaries; after every
/// `SETUP_EVERY` of them, one set-up batch runs outside any batch.
pub fn timed_phase<T>(
    seconds: f64,
    min_units: usize,
    cycle: usize,
    rec: &mut Recorder,
    setup: &mut Setup<impl FnMut(&mut Recorder) -> Result<T, String>>,
    mut unit: impl FnMut(usize, &mut Recorder, &mut Vec<f64>) -> f64,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let t0 = Instant::now();
    let (mut batch_t, mut batch_cpu, mut batch_ops) =
        (Instant::now(), clock::process_cpu_s()?, 0.0);
    let mut i = 0;
    while i < min_units || i % cycle != 0 || t0.elapsed().as_secs_f64() < seconds {
        batch_ops += unit(i, rec, &mut phase.latencies);
        i += 1;
        let wall_s = batch_t.elapsed().as_secs_f64();
        if i % cycle == 0 && wall_s >= BATCH_S {
            let cpu = clock::process_cpu_s()?;
            let slowdown = setup.gauge.slowdown();
            if cpu > batch_cpu {
                phase.batches.push(Batch {
                    ops: batch_ops,
                    cpu_s: cpu - batch_cpu,
                    wall_s,
                    slowdown,
                });
            }
            if phase.batches.len() % SETUP_EVERY == 0 {
                setup.batch(rec)?;
            }
            (batch_t, batch_cpu, batch_ops) = (Instant::now(), clock::process_cpu_s()?, 0.0);
        }
    }
    if phase.batches.is_empty() {
        return Err(format!("no {BATCH_S} s batch completed in {seconds} s"));
    }
    Ok(phase)
}

fn run(cfg: &RunCfg) -> Result<(), String> {
    let mut rec = Recorder::new(cfg.trace);
    let mut ops = Ops::default();
    let measured = match cfg.workload.as_str() {
        "sim-stable" => sim::run(sim::STABLE, cfg, &mut rec, &mut ops)?,
        "sim-overload-mixed" => sim::run(sim::OVERLOAD_MIXED, cfg, &mut rec, &mut ops)?,
        "fleet-resident" => fleet::run(cfg, &mut rec, &mut ops)?,
        "adversary" => adversary::run(cfg, &mut rec, &mut ops)?,
        other => return Err(format!("unknown workload {other}")),
    };
    println!("checksum {} {:016x}", cfg.workload, measured.checksum);
    let counts: Vec<String> = measured
        .counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("counts {}: {}", cfg.workload, counts.join(" "));
    let lat = &measured.phase.latencies;
    let p90 = stats::p90(lat).map_or_else(
        |e| format!("p90 refused ({e})"),
        |v| format!("p90={:.3}ms", v * 1e3),
    );
    let tail = stats::highest_tail_permille(lat.len())
        .filter(|&p| p > 900)
        .and_then(|p| Some((p, stats::percentile(lat, p)?)))
        .map_or(String::new(), |(p, v)| {
            format!(" p{}={:.3}ms", p as f64 / 10.0, v * 1e3)
        });
    let per_batch: Vec<String> = measured
        .phase
        .batches
        .iter()
        .map(|b| format!("{:.4e}", b.ops / b.cpu_s))
        .collect();
    println!(
        "batches {} (ops per CPU second as measured, in order): {}",
        cfg.workload,
        per_batch.join(" ")
    );
    println!(
        "host {}: ops per CPU second as measured {:.6e}, gauge median {:.6e} pops/s \
         (nominal {:.1e}) over {} samples",
        cfg.workload,
        measured.phase.raw_throughput(),
        stats::median(&measured.setup.gauge),
        gauge::NOMINAL_OPS_PER_S,
        measured.setup.gauge.len()
    );
    println!(
        "latency {} (wall clock): n={} p50={:.3}ms {p90}{tail}",
        cfg.workload,
        lat.len(),
        stats::median(lat) * 1e3
    );

    let mut m = Metrics::default();
    match &measured.overhead {
        None => {
            m.push("setup_s", stats::median(&measured.setup.per_build), "s");
            m.push("ops_per_ref_s", measured.phase.throughput(), "1/s");
            let rss = parsched_bench::peak_rss_bytes().ok_or("no VmHWM in /proc/self/status")?;
            let rss = rss.saturating_sub(gauge::TABLE_BYTES);
            m.push("peak_rss_mib", rss as f64 / (1024.0 * 1024.0), "MiB");
        }
        Some((overhead, probe)) => {
            probe.layer_metrics(&rec, &mut m);
            m.push(
                "analysis.sweep.cpu_per_wall",
                measured.phase.cpu_per_wall(),
                "ratio",
            );
            m.push("trace.overhead", *overhead, "ratio");
            let dir = std::path::Path::new("perfbench/traces");
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let path = dir.join(format!("{}-seed{}.jsonl", cfg.workload, cfg.seed));
            std::fs::write(&path, rec.to_jsonl())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    println!("{}", m.result_line(ops)?);
    Ok(())
}

fn main() -> ExitCode {
    let cfg = match RunCfg::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
