//! `parsched` — the experiment harness.
//!
//! Regenerates every table/figure of the reproduction (see DESIGN.md's
//! per-experiment index and EXPERIMENTS.md for recorded outputs).
//!
//! ```text
//! parsched list                     # list experiments
//! parsched exp f1 [--quick] [--csv] [--md] [--seed N]
//! parsched all  [--quick]           # run the full suite
//! parsched compare --m 8 --p 64 --alpha 0.5 --n 300 --load 0.9
//! parsched lint [--format json|sarif] [--explain L00X <symbol>] [paths...]
//! ```

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use parsched_analysis::experiments::{all_ids, run, ExpOptions};

/// `println!` for the CLI's stdout, through [`write_out`].
macro_rules! outln {
    () => {
        write_out(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` for the CLI's stdout, through [`write_out`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_out(format_args!($($arg)*))
    };
}

/// Writes to stdout. A reader that closed the pipe early
/// (`parsched gen | head -1`) has all it wanted, so the process ends
/// quietly with status 0 rather than panicking on the broken pipe; any
/// other write error ends it with status 2.
fn write_out(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(2);
    }
}

fn usage() -> &'static str {
    "parsched — SPAA'14 'Intermediate Parallelizability' experiment harness

USAGE:
  parsched list                         list experiment ids and titles
  parsched exp <id> [FLAGS]             run one experiment (f1..f6, t1..t5, x1..x3)
  parsched all [FLAGS]                  run the whole suite
  parsched sweep [--jobs N] [ids...]    run experiments through the
                                        work-stealing sweep pool
                                        (default: whole suite; --jobs 0 =
                                        one worker per core, 1 = serial)
  parsched compare [OPTIONS]            ad-hoc policy comparison
  parsched gen [OPTIONS]                generate a workload as CSV on stdout
  parsched run [OPTIONS]                simulate a CSV instance with one policy
  parsched audit <trace.json> [OPTIONS] replay a recorded trace through the
                                        invariant-audit suite
  parsched adversary [OPTIONS]          seeded evolutionary search for hard
                                        instances (maximizes flow / OPT-LB)
                                        doubling as a strict dual-path
                                        engine fuzzer; see docs/TESTING.md
  parsched fleet [OPTIONS]              multi-tenant serving demo: N
                                        scheduling scenarios advance in
                                        slices on the shard pool, parked
                                        between slices; output is
                                        byte-identical for every --jobs N
  parsched lint [OPTIONS] [paths...]    static analysis: determinism, float
                                        hygiene, registry contracts, and
                                        call-graph reachability (rules
                                        L001–L009, see docs/LINTS.md);
                                        --format human|json|sarif,
                                        --explain L00X <symbol> prints the
                                        offending call path

GEN OPTIONS:
  --kind poisson|batch|sawtooth|trap|mix   workload family (default poisson)
  --n <int> --m <int> --load <f> --alpha <f> --p <f>   family parameters

RUN OPTIONS:
  --instance <file>   CSV instance (as produced by gen); '-' for stdin
  --policy <name>     isrpt|psrpt|ssrpt|greedy|equi|laps[:β]|threshold:<θ>|setf
  --m <int>           processors (default 8)
  --speed <f>         resource augmentation factor (default 1)
  --audit <level>     run with the invariant auditor enabled:
                      off|final|sampled[:stride]|strict (default off)
  --trace <file>      also record the run as a replayable JSON trace
  --gantt <cols>      also print an ASCII Gantt chart
  --bracket           also bracket OPT and report the ratio interval
  --stream            memory-bounded streaming path over a lazy generator
                      instead of a CSV instance; memory is O(peak alive),
                      so --n 10000000 is fine. Takes --kind poisson|trap|
                      phases plus the gen family parameters (--n --m --load
                      --alpha --p), and reports flow quantiles, the peak
                      alive set, and peak RSS

AUDIT OPTIONS:
  --level <level>     final|sampled[:stride]|strict (default strict)

ADVERSARY OPTIONS:
  --policy <p|all>     target policy token, or 'all' for the standard set
                       (default all)
  --budget <evals>     candidate evaluations per policy (default 200)
  --m <int>            processors (default 4)
  --jobs <N>           sweep-pool workers (0 = auto). Wall clock only:
                       results are byte-identical for every N
  --emit-corpus <dir>  write the elites (and any shrunk engine-failure
                       reproducers) as parsched-adv/v1 JSON into <dir>
  --corpus-top <K>     elites per policy to emit (default 2)
  --seed <N>           master search seed (default 0x5eed5eed)
  exit 0 = clean, 1 = engine failure discovered (reproducer emitted)

FLEET OPTIONS:
  --tenants <N>       scenarios to submit (default 12; seeded mix of
                      policies, machine counts, and engine modes)
  --cap <K>           max tenants holding engine state at once (default 8)
  --queue <Q>         FIFO overflow-queue depth; submissions beyond
                      cap + queue are shed with a reason (default: enough
                      for everyone)
  --slice <E>         engine events per tenant per round (default 16)
  --migrate           force every suspension through the parsched-snap/v3
                      text codec, as a cross-host migration would
  --jobs <N>          shard-pool workers (0 = auto). Wall clock only:
                      output is byte-identical for every N
  --seed <N>          tenant-generation seed (default 42)
  --json              machine-readable single-line report
  exit 0 = all tenants done, 1 = any shed or failed, 2 = usage error

LINT OPTIONS:
  --root <dir>        workspace root to analyze (default .)
  --format <fmt>      human (default) or json
  [paths...]          restrict to files under these workspace-relative
                      prefixes (e.g. crates/simcore)
  exit 0 = clean, 1 = violations or waiver problems, 2 = usage/IO error

FLAGS:
  --quick         small grids (seconds); default is the full grids
  --csv           also print tables as CSV
  --md            also print tables as markdown
  --seed <N>      RNG seed for randomized workloads (default 0x5eed5eed)

COMPARE OPTIONS:
  --m <int>       processors (default 8)
  --p <float>     max job size P (default 64)
  --alpha <f>     parallelizability exponent (default 0.5)
  --n <int>       number of jobs (default 300)
  --load <f>      offered load (default 0.9)
"
}

#[derive(Debug, Clone)]
struct Flags {
    quick: bool,
    csv: bool,
    md: bool,
    seed: u64,
    named: Vec<(String, String)>,
}

/// The flags each command reads. Any other flag is refused like a value
/// that does not parse, so a misspelt one cannot silently keep a default.
const KNOWN_FLAGS: &[(&str, &[&str])] = &[
    ("exp", &["quick", "csv", "md", "seed"]),
    ("all", &["quick", "csv", "md", "seed"]),
    ("sweep", &["jobs", "quick", "csv", "md", "seed"]),
    ("compare", &["m", "p", "alpha", "n", "load", "csv", "seed"]),
    (
        "gen",
        &["kind", "n", "m", "load", "alpha", "p", "rate", "seed"],
    ),
    (
        "run",
        &[
            "instance", "policy", "m", "speed", "audit", "gantt", "trace", "bracket",
        ],
    ),
    (
        "run --stream",
        &[
            "stream", "kind", "n", "m", "load", "alpha", "p", "policy", "speed", "audit", "seed",
        ],
    ),
    ("audit", &["level"]),
    (
        "adversary",
        &[
            "policy",
            "budget",
            "m",
            "jobs",
            "emit-corpus",
            "corpus-top",
            "seed",
        ],
    ),
    (
        "fleet",
        &[
            "tenants", "cap", "queue", "slice", "jobs", "migrate", "json", "seed",
        ],
    ),
];

/// Parses the flags of command `cmd`, refusing any it does not read.
fn parse_flags(cmd: &str, args: &[String]) -> Result<Flags, String> {
    let known = KNOWN_FLAGS
        .iter()
        .find(|(c, _)| *c == cmd)
        .map_or(&[][..], |(_, known)| known);
    let mut flags = Flags {
        quick: false,
        csv: false,
        md: false,
        seed: ExpOptions::default().seed,
        named: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        if let Some(flag) = args[i].strip_prefix("--") {
            let key = flag.split_once('=').map_or(flag, |(k, _)| k);
            if !known.contains(&key) {
                return Err(format!("bad --{key}: `{cmd}` takes no such flag"));
            }
        }
        match args[i].as_str() {
            "--quick" => flags.quick = true,
            "--csv" => flags.csv = true,
            "--md" => flags.md = true,
            "--bracket" => flags.named.push(("bracket".to_string(), String::new())),
            "--stream" => flags.named.push(("stream".to_string(), String::new())),
            "--migrate" => flags.named.push(("migrate".to_string(), String::new())),
            "--json" => flags.named.push(("json".to_string(), String::new())),
            other if other.starts_with("--") => {
                let key = other.trim_start_matches("--").to_string();
                // Both `--audit strict` and `--audit=strict` are accepted.
                if let Some((k, v)) = key.split_once('=') {
                    flags.named.push((k.to_string(), v.to_string()));
                } else {
                    i += 1;
                    let v = args
                        .get(i)
                        .ok_or_else(|| format!("--{key} needs a value"))?;
                    flags.named.push((key, v.clone()));
                }
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    flags.seed = flags.get("seed", flags.seed)?;
    Ok(flags)
}

impl Flags {
    fn get_str(&self, key: &str) -> Option<&str> {
        self.named
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `--key` parsed as a `T`, `None` when the flag is absent; a value
    /// that does not parse is an error naming the flag.
    fn get_opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.get_str(key)
            .map(|v| v.parse().map_err(|e| format!("bad --{key}: {e}")))
            .transpose()
    }

    /// [`Flags::get_opt`], with `default` for an absent flag.
    fn get<T: FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.get_opt(key)?.unwrap_or(default))
    }

    /// [`Flags::get`] for a quantity that must be positive and finite
    /// (`--m`, `--speed`), refused before anything runs.
    fn get_positive(&self, key: &str, default: f64) -> Result<f64, String> {
        let v = self.get(key, default)?;
        if v > 0.0 && v.is_finite() {
            Ok(v)
        } else {
            Err(format!("bad --{key}: {v} is not a positive finite number"))
        }
    }

    fn opts(&self) -> ExpOptions {
        ExpOptions {
            quick: self.quick,
            seed: self.seed,
        }
    }
}

fn print_result(res: &parsched_analysis::experiments::ExpResult, flags: &Flags) {
    outln!("{}", res.render());
    if flags.md {
        for t in &res.tables {
            outln!("markdown ({}):\n{}", t.title(), t.to_markdown());
        }
    }
    if flags.csv {
        for t in &res.tables {
            outln!("csv ({}):\n{}", t.title(), t.to_csv());
        }
    }
}

/// `parsched sweep [--jobs N] [FLAGS] [ids...]` — run experiments through
/// the work-stealing sweep pool with an explicit worker count.
///
/// `--jobs 0` (the default) sizes the pool automatically; `--jobs 1`
/// forces the serial path, which must produce byte-identical output (the
/// pool commits results in input order — see `parsched_analysis::sweep`).
fn cmd_sweep(args: &[String]) -> Result<bool, String> {
    // Experiment ids may appear anywhere among the flags.
    let (ids, flag_args): (Vec<String>, Vec<String>) = args
        .iter()
        .cloned()
        .partition(|a| all_ids().contains(&a.as_str()));
    let flags = parse_flags("sweep", &flag_args)?;
    let jobs = flags.get("jobs", 0)?;
    parsched_analysis::set_sweep_jobs(jobs);
    let ids: Vec<&str> = if ids.is_empty() {
        all_ids().to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    let workers = parsched_analysis::Pool::current().workers_for(usize::MAX);
    eprintln!("sweep pool: {workers} worker(s)");
    let mut all_pass = true;
    for id in &ids {
        let start = std::time::Instant::now();
        let res = run(id, &flags.opts()).ok_or_else(|| {
            format!(
                "unknown experiment '{id}' (expected one of {})",
                all_ids().join(", ")
            )
        })?;
        print_result(&res, &flags);
        eprintln!(
            "{id}: {:.2}s on {workers} worker(s)",
            start.elapsed().as_secs_f64()
        );
        all_pass &= res.pass;
    }
    Ok(all_pass)
}

fn cmd_exp(id: &str, flags: &Flags) -> Result<bool, String> {
    let res = run(id, &flags.opts()).ok_or_else(|| {
        format!(
            "unknown experiment '{id}' (expected one of {})",
            all_ids().join(", ")
        )
    })?;
    print_result(&res, flags);
    Ok(res.pass)
}

fn cmd_all(flags: &Flags) -> bool {
    let mut all_pass = true;
    for id in all_ids() {
        match run(id, &flags.opts()) {
            Some(res) => {
                print_result(&res, flags);
                all_pass &= res.pass;
            }
            None => unreachable!("registry ids always resolve"),
        }
    }
    outln!(
        "suite verdict: {}",
        if all_pass {
            "ALL SHAPES OK"
        } else {
            "SOME SHAPES MISMATCHED"
        }
    );
    all_pass
}

fn cmd_compare(flags: &Flags) -> Result<(), String> {
    use parsched::PolicyKind;
    use parsched_analysis::table::{fnum, Table};
    use parsched_opt::OptEstimate;
    use parsched_sim::simulate;
    use parsched_workloads::random::{AlphaDist, PoissonWorkload, SizeDist};

    let m = flags.get_positive("m", 8.0)?;
    let p = flags.get("p", 64.0)?;
    let alpha = flags.get("alpha", 0.5)?;
    let n = flags.get("n", 300.0)? as usize;
    let load = flags.get("load", 0.9)?;
    let sizes = SizeDist::LogUniform { p };
    let w = PoissonWorkload {
        n,
        rate: PoissonWorkload::rate_for_load(load, m, &sizes),
        sizes,
        alphas: AlphaDist::Fixed(alpha),
        seed: flags.seed,
    };
    let inst = w.generate().map_err(|e| e.to_string())?;
    let est = OptEstimate::bracket(&inst, m).map_err(|e| e.to_string())?;
    let mut table = Table::new(
        format!(
            "compare: m={m}, P={p}, α={alpha}, n={n}, load={load}, seed={}",
            flags.seed
        ),
        &["policy", "total flow", "mean flow", "max flow", "ratio ∈"],
    );
    for kind in PolicyKind::all_standard() {
        let out = simulate(&inst, &mut kind.build(), m).map_err(|e| e.to_string())?;
        table.push_row(vec![
            kind.name(),
            fnum(out.metrics.total_flow),
            fnum(out.metrics.mean_flow),
            fnum(out.metrics.max_flow),
            format!(
                "[{}, {}]",
                fnum(out.metrics.total_flow / est.upper),
                fnum(out.metrics.total_flow / est.lower)
            ),
        ]);
    }
    outln!("{}", table.render());
    outln!(
        "  OPT bracket: [{:.1}, {:.1}] (UB witness: {})",
        est.lower,
        est.upper,
        est.upper_witness
    );
    if flags.csv {
        outln!("{}", table.to_csv());
    }
    Ok(())
}

fn cmd_gen(flags: &Flags) -> Result<(), String> {
    use parsched_sim::csv::instance_to_csv;
    use parsched_workloads::mix::{DatacenterMix, SawtoothWorkload};
    use parsched_workloads::random::{AlphaDist, PoissonWorkload, SizeDist};
    use parsched_workloads::{batch::BatchWorkload, GreedyTrap};

    let kind = flags
        .named
        .iter()
        .find(|(k, _)| k == "kind")
        .map(|(_, v)| v.as_str())
        .unwrap_or("poisson");
    let n = flags.get("n", 200.0)? as usize;
    let m = flags.get_positive("m", 8.0)?;
    let load = flags.get("load", 0.9)?;
    let alpha = flags.get("alpha", 0.5)?;
    let p = flags.get("p", 32.0)?;
    let instance = match kind {
        "poisson" => {
            let sizes = SizeDist::LogUniform { p };
            PoissonWorkload {
                n,
                rate: PoissonWorkload::rate_for_load(load, m, &sizes),
                sizes,
                alphas: AlphaDist::Fixed(alpha),
                seed: flags.seed,
            }
            .generate()
        }
        "batch" => BatchWorkload {
            n,
            sizes: SizeDist::LogUniform { p },
            alphas: AlphaDist::Fixed(alpha),
            seed: flags.seed,
        }
        .generate(),
        "sawtooth" => {
            SawtoothWorkload::crossing(m as usize, (n / (2 * m as usize)).max(1), alpha).generate()
        }
        "trap" => GreedyTrap::new(m as usize, alpha).instance(),
        "mix" => DatacenterMix {
            n,
            rate: flags.get("rate", m / 4.0)?,
            p,
            seed: flags.seed,
        }
        .generate(),
        other => return Err(format!("unknown workload kind '{other}'")),
    }
    .map_err(|e| e.to_string())?;
    out!("{}", instance_to_csv(&instance));
    Ok(())
}

/// `parsched run --stream`: the memory-bounded engine path over a lazy
/// generator-backed source. No instance is ever materialized, so `--n` in
/// the tens of millions costs only the alive set.
fn cmd_run_stream(flags: &Flags) -> Result<(), String> {
    use parsched::PolicyKind;
    use parsched_analysis::table::fnum;
    use parsched_bench::peak_rss_bytes;
    use parsched_sim::{ArrivalSource, AuditLevel, Engine, EngineConfig, NullObserver};
    use parsched_workloads::random::{AlphaDist, PoissonWorkload, SizeDist};
    use parsched_workloads::{
        GreedyTrap, PhaseFamily, PhaseStreamSource, PoissonSource, TrapStreamSource,
    };

    let kind_name = flags
        .named
        .iter()
        .find(|(k, _)| k == "kind")
        .map(|(_, v)| v.as_str())
        .unwrap_or("poisson");
    let n = flags.get("n", 100_000.0)? as usize;
    let m = flags.get_positive("m", 8.0)?;
    let load = flags.get("load", 0.9)?;
    let alpha = flags.get("alpha", 0.5)?;
    let p = flags.get("p", 64.0)?;
    let policy_kind: PolicyKind = flags
        .named
        .iter()
        .find(|(k, _)| k == "policy")
        .map(|(_, v)| v.as_str())
        .unwrap_or("isrpt")
        .parse()?;
    let speed = flags.get_positive("speed", 1.0)?;
    let audit: AuditLevel = flags
        .named
        .iter()
        .find(|(k, _)| k == "audit")
        .map(|(_, v)| v.parse())
        .transpose()?
        .unwrap_or(AuditLevel::Off);

    // Each family sizes itself so the stream totals ≈ n jobs.
    let mut source: Box<dyn ArrivalSource> = match kind_name {
        "poisson" => {
            let sizes = SizeDist::LogUniform { p };
            Box::new(PoissonSource::new(PoissonWorkload {
                n,
                rate: PoissonWorkload::rate_for_load(load, m, &sizes),
                sizes,
                alphas: AlphaDist::Fixed(alpha),
                seed: flags.seed,
            }))
        }
        "trap" => {
            let trap = GreedyTrap::new(m as usize, alpha.clamp(0.05, 0.95));
            let fixed = trap.num_long() + trap.num_phase1_units();
            let x = (n.saturating_sub(fixed).max(1) as f64 / trap.k() as f64).max(1.0);
            Box::new(TrapStreamSource::new(trap.with_stream_duration(x)))
        }
        "phases" => {
            let m_even = ((m as usize).max(2) + 1) & !1;
            let fam = PhaseFamily::new(m_even, alpha.min(0.99), p.max(4.0));
            let phase_jobs: usize = (0..fam.num_phases())
                .map(|i| m_even / 2 + m_even * fam.short_waves(i))
                .sum();
            let len = (n.saturating_sub(phase_jobs) / m_even).max(1);
            Box::new(PhaseStreamSource::new(fam.with_stream_len(len)))
        }
        other => return Err(format!("unknown --kind '{other}' for --stream")),
    };

    let mut policy = policy_kind.build();
    let mut obs = NullObserver;
    let cfg = EngineConfig::new(m)
        .with_speed(speed)
        .with_audit(audit)
        .with_streaming(true)
        .with_max_events(u64::MAX);
    let engine = Engine::new(cfg, policy.as_mut(), source.as_mut(), &mut obs);
    let path = engine.path();
    let outcome = engine.run_streaming().map_err(|e| e.to_string())?;
    let mm = &outcome.metrics;
    outln!(
        "{} on m={m}{} [streaming {kind_name}] [{path} path]: n={}, total flow={}, mean={}, \
         max={}, makespan={}, stretch Σ={} max={}, events={}",
        policy_kind.name(),
        // Display-only: was --speed left at its (exact, parsed) default?
        if !parsched_speedup::exact_eq(speed, 1.0) {
            format!(" (speed {speed})")
        } else {
            String::new()
        },
        mm.num_jobs,
        fnum(mm.total_flow),
        fnum(mm.mean_flow),
        fnum(mm.max_flow),
        fnum(mm.makespan),
        fnum(mm.total_stretch),
        fnum(mm.max_stretch),
        mm.events
    );
    let q = &outcome.quantiles;
    outln!(
        "  flow quantiles (sketch, ≤4.4% rel err): p50={} p90={} p99={}",
        fnum(q.quantile(0.5)),
        fnum(q.quantile(0.9)),
        fnum(q.quantile(0.99))
    );
    out!(
        "  admitted={} peak alive={} (resident state is O(peak alive))",
        outcome.admitted,
        outcome.peak_alive
    );
    match peak_rss_bytes() {
        Some(rss) => outln!(", peak RSS={:.1} MiB", rss as f64 / (1024.0 * 1024.0)),
        None => outln!(),
    }
    if let Some(report) = &outcome.audit {
        outln!("  {report}");
    }
    Ok(())
}

fn cmd_run(flags: &Flags) -> Result<(), String> {
    use parsched::PolicyKind;
    use parsched_analysis::gantt::render_gantt;
    use parsched_analysis::table::fnum;
    use parsched_opt::OptEstimate;
    use parsched_sim::csv::instance_from_csv;
    use parsched_sim::trace::{record_run_with_config, trace_to_json};
    use parsched_sim::{
        AllocationTrace, AuditLevel, Engine, EngineConfig, NullObserver, Observer, StaticSource,
    };

    if flags.named.iter().any(|(k, _)| k == "stream") {
        return cmd_run_stream(flags);
    }
    let path = flags
        .named
        .iter()
        .find(|(k, _)| k == "instance")
        .map(|(_, v)| v.clone())
        .ok_or("run needs --instance <file>")?;
    let text = if path == "-" {
        use std::io::Read as _;
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| e.to_string())?;
        s
    } else {
        std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?
    };
    let instance = instance_from_csv(&text).map_err(|e| e.to_string())?;
    let kind: PolicyKind = flags
        .named
        .iter()
        .find(|(k, _)| k == "policy")
        .map(|(_, v)| v.as_str())
        .unwrap_or("isrpt")
        .parse()?;
    let m = flags.get_positive("m", 8.0)?;
    let speed = flags.get_positive("speed", 1.0)?;
    let audit: AuditLevel = flags
        .named
        .iter()
        .find(|(k, _)| k == "audit")
        .map(|(_, v)| v.parse())
        .transpose()?
        .unwrap_or(AuditLevel::Off);
    let gantt: Option<usize> = flags.get_opt("gantt")?;
    let mut policy = kind.build();
    let mut source = StaticSource::new(&instance);
    // Only the Gantt chart reads the allocation stream. Every path serves
    // it, so a charted run takes the path `simulate` would, like any other.
    let mut trace = AllocationTrace::new();
    let mut null = NullObserver;
    let observer: &mut dyn Observer = if gantt.is_some() {
        &mut trace
    } else {
        &mut null
    };
    let engine = Engine::new(
        EngineConfig::new(m).with_speed(speed).with_audit(audit),
        &mut policy,
        &mut source,
        observer,
    );
    let path = engine.path();
    let outcome = engine.run().map_err(|e| e.to_string())?;
    let mm = &outcome.metrics;
    outln!(
        "{} on m={m}{} [{path} path]: n={}, total flow={}, mean={}, max={}, makespan={}, stretch Σ={} max={}, events={}",
        kind.name(),
        if !parsched_speedup::exact_eq(speed, 1.0) { format!(" (speed {speed})") } else { String::new() },
        mm.num_jobs,
        fnum(mm.total_flow),
        fnum(mm.mean_flow),
        fnum(mm.max_flow),
        fnum(mm.makespan),
        fnum(mm.total_stretch),
        fnum(mm.max_stretch),
        mm.events
    );
    if let Some(report) = &outcome.audit {
        outln!("  {report}");
    }
    if let Some((_, path)) = flags.named.iter().find(|(k, _)| k == "trace") {
        // A trace records the exhaustive oracle's allocations, so it is
        // produced by a second, deterministic run on that path with the
        // same configuration.
        let (rec, _) = record_run_with_config(
            &instance,
            kind.build().as_mut(),
            EngineConfig::new(m).with_speed(speed),
        )
        .map_err(|e| e.to_string())?;
        std::fs::write(path, trace_to_json(&rec)).map_err(|e| format!("{path}: {e}"))?;
        outln!(
            "  wrote trace {path} ({} events; replay with `parsched audit {path}`)",
            rec.events.len()
        );
    }
    if let Some(cols) = gantt {
        let width = cols.clamp(8, 400);
        outln!(
            "\n{}",
            render_gantt(trace.segments(), mm.makespan.max(1e-9), width, 1.0)
        );
    }
    if flags.named.iter().any(|(k, _)| k == "bracket") {
        let est = OptEstimate::bracket(&instance, m).map_err(|e| e.to_string())?;
        let (lo, hi) = est.ratio_interval(mm.total_flow);
        outln!(
            "OPT ∈ [{}, {}] (witness {}) ⇒ ratio ∈ [{}, {}]",
            fnum(est.lower),
            fnum(est.upper),
            est.upper_witness,
            fnum(lo),
            fnum(hi)
        );
    }
    Ok(())
}

fn cmd_audit(path: &str, flags: &Flags) -> Result<bool, String> {
    use parsched_analysis::table::fnum;
    use parsched_sim::trace::{replay, trace_from_json};
    use parsched_sim::{AuditLevel, SimError};

    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let trace = trace_from_json(&text).map_err(|e| e.to_string())?;
    let level: AuditLevel = flags
        .named
        .iter()
        .find(|(k, _)| k == "level")
        .map(|(_, v)| v.parse())
        .transpose()?
        .unwrap_or(AuditLevel::Strict);
    outln!(
        "replaying {path}: policy={}, m={}, speed={}, {} records{}",
        trace.policy,
        trace.m,
        trace.speed,
        trace.events.len(),
        if trace.recorded.is_some() {
            ", recorded metrics attached"
        } else {
            ""
        }
    );
    match replay(&trace, level) {
        Ok(out) => {
            outln!("audit PASS: {}", out.report);
            let mm = &out.metrics;
            outln!(
                "  replayed: n={}, total flow={}, mean={}, max={}, makespan={}",
                mm.num_jobs,
                fnum(mm.total_flow),
                fnum(mm.mean_flow),
                fnum(mm.max_flow),
                fnum(mm.makespan)
            );
            Ok(true)
        }
        Err(SimError::AuditFailed { violation }) => {
            eprintln!("audit FAIL: {violation}");
            Ok(false)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// `parsched adversary` — the seeded evolutionary hard-instance search
/// (see `crates/adversary`). One search per target policy; everything on
/// stdout (trajectories, failures, the t5-style summary table, corpus
/// entries) is a deterministic function of `(--policy, --budget, --seed,
/// --m)` — `--jobs` only changes wall clock. Returns `Ok(false)` when
/// the strict dual-path fuzz pass discovered an engine failure (exit 1)
/// so CI fails loudly on a fresh reproducer.
fn cmd_adversary(flags: &Flags) -> Result<bool, String> {
    use parsched::PolicyKind;
    use parsched_adversary::{
        run_search, summary_table, CorpusEntry, SearchConfig, KIND_HARD, KIND_REPRODUCER,
    };

    let budget = flags.get("budget", 200.0)? as usize;
    let m = flags.get_positive("m", 4.0)?;
    let jobs = flags.get("jobs", 0.0)? as usize;
    let policy_arg = flags.get_str("policy").unwrap_or("all");
    let targets: Vec<(String, PolicyKind)> = if policy_arg == "all" {
        [
            "isrpt", "psrpt", "ssrpt", "greedy", "equi", "laps:0.5", "setf",
        ]
        .iter()
        .map(|t| (t.to_string(), t.parse().expect("standard token parses")))
        .collect()
    } else {
        vec![(policy_arg.to_string(), policy_arg.parse::<PolicyKind>()?)]
    };

    // Provenance only — replay re-measures, so an unset var is harmless.
    let engine_commit =
        std::env::var("PARSCHED_ENGINE_COMMIT").unwrap_or_else(|_| "unrecorded".to_string());
    let emit_dir = flags.get_str("emit-corpus").map(str::to_string);
    if let Some(dir) = &emit_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("--emit-corpus {dir}: {e}"))?;
    }

    let mut results = Vec::new();
    let mut clean = true;
    for (token, kind) in &targets {
        let mut cfg = SearchConfig::new(*kind, flags.seed, budget);
        cfg.m = m;
        cfg.jobs = jobs;
        let start = std::time::Instant::now();
        let out = run_search(&cfg);
        eprintln!(
            "{token}: {} evals in {:.2}s",
            out.evals,
            start.elapsed().as_secs_f64()
        );
        let traj: Vec<String> = out.trajectory.iter().map(|r| format!("{r:.4}")).collect();
        outln!("{token}: best-ratio trajectory {}", traj.join(" -> "));
        for f in &out.failures {
            clean = false;
            outln!(
                "{token}: ENGINE FAILURE: {} — shrunk to {} job(s) [{}]",
                f.error,
                f.jobs.len(),
                f.provenance
            );
        }
        if let Some(dir) = &emit_dir {
            let corpus_top = flags.get("corpus-top", 2.0)? as usize;
            let mut written = 0usize;
            for (rank, e) in out.elites.iter().take(corpus_top).enumerate() {
                let instance = e
                    .genome
                    .materialize(m)
                    .map_err(|err| format!("elite rematerialization: {err}"))?;
                let entry = CorpusEntry {
                    kind: KIND_HARD.to_string(),
                    policy: token.clone(),
                    m,
                    search_seed: flags.seed,
                    budget,
                    ratio: e.ratio,
                    flow: e.flow,
                    lb: e.lb,
                    lb_kind: e.lb_kind.name().to_string(),
                    engine_commit: engine_commit.clone(),
                    genome: e.genome.provenance(),
                    jobs: instance.jobs().to_vec(),
                };
                let name = entry.file_name(rank);
                std::fs::write(format!("{dir}/{name}"), entry.to_json())
                    .map_err(|err| format!("writing {dir}/{name}: {err}"))?;
                written += 1;
            }
            for (rank, f) in out.failures.iter().enumerate() {
                let entry = CorpusEntry {
                    kind: KIND_REPRODUCER.to_string(),
                    policy: token.clone(),
                    m,
                    search_seed: flags.seed,
                    budget,
                    ratio: 0.0,
                    flow: 0.0,
                    lb: 0.0,
                    lb_kind: "none".to_string(),
                    engine_commit: engine_commit.clone(),
                    genome: f.provenance.clone(),
                    jobs: f.jobs.clone(),
                };
                let name = format!("repro-{}", entry.file_name(rank));
                std::fs::write(format!("{dir}/{name}"), entry.to_json())
                    .map_err(|err| format!("writing {dir}/{name}: {err}"))?;
                written += 1;
            }
            outln!("{token}: wrote {written} corpus entr(y/ies)");
        }
        results.push((token.clone(), out));
    }
    outln!("{}", summary_table(&results).render());
    Ok(clean)
}

/// `parsched fleet` — the multi-tenant serving demo. Generates a seeded
/// mix of scheduling scenarios (policy × machine count × engine mode),
/// submits them under the admission caps, and drives them round-by-round
/// on the shard pool, parking each tenant's engine between slices. The
/// report (text or `--json`) is **byte-identical for every `--jobs N`**
/// and with `--migrate` on or off — that invariance is pinned by
/// `tests/cli.rs` and CI's fleet job. `Ok(false)` (exit 1) when any
/// tenant was shed or failed; parameter errors are `Err` (exit 2).
fn cmd_fleet(flags: &Flags) -> Result<bool, String> {
    use parsched_analysis::Pool;
    use parsched_fleet::{FleetConfig, FleetSession, TenantStatus};

    let tenants_n = flags.get("tenants", 12)?;
    let cap = flags.get("cap", 8)?;
    let queue = flags.get("queue", tenants_n)?;
    let slice = flags.get("slice", 16)?;
    let jobs = flags.get("jobs", 0)?;
    let migrate = flags.get_str("migrate").is_some();
    let json = flags.get_str("json").is_some();
    let seed = flags.get("seed", 42)?;

    let cfg = FleetConfig {
        max_in_flight: cap,
        max_pending: queue,
        slice_events: slice,
        migrate,
    };
    let mut session =
        FleetSession::new(cfg, fleet_tenants(tenants_n, seed)).map_err(|e| e.to_string())?;
    let out = session.run(&Pool::new(jobs));

    if json {
        outln!("{}", fleet_report_json(&out, cap, queue, slice, migrate));
    } else {
        outln!(
            "fleet: {} tenants, cap {cap} in-flight + {queue} queued, \
             slice {slice} events, migrate {}",
            out.reports.len(),
            if migrate { "on" } else { "off" }
        );
        for r in &out.reports {
            let mode = if r.streaming {
                "streaming"
            } else {
                "in-memory"
            };
            match &r.status {
                TenantStatus::Done { metrics, rounds } => outln!(
                    "  {}  {:<22} {:<9} jobs {:>3}  done in {rounds} rounds: \
                     events {} flow {:?} makespan {:?}",
                    r.name,
                    r.policy,
                    mode,
                    r.jobs,
                    metrics.events,
                    metrics.total_flow,
                    metrics.makespan
                ),
                TenantStatus::Shed { reason } => {
                    outln!(
                        "  {}  {:<22} {:<9} jobs {:>3}  SHED: {reason}",
                        r.name,
                        r.policy,
                        mode,
                        r.jobs
                    )
                }
                TenantStatus::Failed { error } => {
                    outln!(
                        "  {}  {:<22} {:<9} jobs {:>3}  FAILED: {error}",
                        r.name,
                        r.policy,
                        mode,
                        r.jobs
                    )
                }
            }
        }
        outln!(
            "fleet done: {} done, {} shed, {} failed in {} rounds",
            out.done,
            out.shed,
            out.failed,
            out.rounds
        );
    }
    Ok(out.shed == 0 && out.failed == 0)
}

/// Deterministic tenant mix for `parsched fleet`: policies cycle through
/// the whole registry, machine counts alternate 4/8, every third tenant
/// runs the streaming path, and each instance is a small seeded
/// mixed-α workload.
fn fleet_tenants(n: usize, seed: u64) -> Vec<parsched_fleet::TenantSpec> {
    use parsched::PolicyKind;
    use parsched_fleet::TenantSpec;
    use parsched_sim::{Instance, JobId, JobSpec};
    use parsched_speedup::Curve;

    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let policies = PolicyKind::all_registered();
    let alphas = [0.25, 0.5, 0.75, 1.0];
    (0..n)
        .map(|i| {
            let n_jobs = 3 + (next() % 8) as usize;
            let mut release = 0.0;
            let jobs = (0..n_jobs)
                .map(|j| {
                    let u = next();
                    release += (u % 5) as f64 * 0.5;
                    let size = 1.0 + (u % 7) as f64;
                    let alpha = alphas[(u as usize >> 8) % alphas.len()];
                    JobSpec::new(JobId(j as u64), release, size, Curve::power(alpha))
                })
                .collect();
            let instance = Instance::new(jobs).expect("seeded fleet instance is valid");
            TenantSpec::new(
                format!("tenant-{i:04}"),
                instance,
                policies[i % policies.len()],
                if i % 2 == 0 { 4.0 } else { 8.0 },
            )
            .with_streaming(i % 3 == 0)
        })
        .collect()
}

/// Single-line machine-readable fleet report. Field order is fixed and
/// floats render via Rust's shortest-round-trip formatting, so the
/// document is byte-stable run-to-run.
fn fleet_report_json(
    out: &parsched_fleet::FleetOutcome,
    cap: usize,
    queue: usize,
    slice: u64,
    migrate: bool,
) -> String {
    use parsched_fleet::TenantStatus;
    use parsched_sim::jsonlite::Json;
    let obj = |fields: Vec<(&str, Json)>| {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let num = |x: f64| Json::Num(format!("{x:?}"));
    let reports = out
        .reports
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("name", Json::Str(r.name.clone())),
                ("policy", Json::Str(r.policy.clone())),
                ("streaming", Json::Bool(r.streaming)),
                ("jobs", Json::Num(r.jobs.to_string())),
            ];
            match &r.status {
                TenantStatus::Done { metrics, rounds } => {
                    fields.push(("status", Json::Str("done".to_string())));
                    fields.push(("rounds", Json::Num(rounds.to_string())));
                    fields.push(("events", Json::Num(metrics.events.to_string())));
                    fields.push(("total_flow", num(metrics.total_flow)));
                    fields.push(("makespan", num(metrics.makespan)));
                }
                TenantStatus::Shed { reason } => {
                    fields.push(("status", Json::Str("shed".to_string())));
                    fields.push(("reason", Json::Str(reason.to_string())));
                }
                TenantStatus::Failed { error } => {
                    fields.push(("status", Json::Str("failed".to_string())));
                    fields.push(("error", Json::Str(error.clone())));
                }
            }
            obj(fields)
        })
        .collect();
    obj(vec![
        ("format", Json::Str("parsched-fleet/v1".to_string())),
        ("cap", Json::Num(cap.to_string())),
        ("queue", Json::Num(queue.to_string())),
        ("slice", Json::Num(slice.to_string())),
        ("migrate", Json::Bool(migrate)),
        ("rounds", Json::Num(out.rounds.to_string())),
        ("done", Json::Num(out.done.to_string())),
        ("shed", Json::Num(out.shed.to_string())),
        ("failed", Json::Num(out.failed.to_string())),
        ("reports", Json::Arr(reports)),
    ])
    .render()
}

/// `parsched lint [--root dir] [--format human|json|sarif]
/// [--explain L00X <symbol>] [paths...]`.
///
/// Returns `Ok(true)` when the tree is clean, `Ok(false)` on violations or
/// waiver problems (exit 1), `Err` on usage/IO errors (exit 2). Paths are
/// workspace-relative prefixes that restrict which files are analyzed.
fn cmd_lint(args: &[String]) -> Result<bool, String> {
    let mut root = std::path::PathBuf::from(".");
    let mut format = "human".to_string();
    let mut explain: Option<(String, String)> = None;
    let mut filters: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let (key, inline_val) = match arg.split_once('=') {
            Some((k, v)) => (k, Some(v.to_string())),
            None => (arg, None),
        };
        match key {
            "--root" | "--format" => {
                let val = match inline_val {
                    Some(v) => v,
                    None => {
                        i += 1;
                        args.get(i)
                            .cloned()
                            .ok_or_else(|| format!("{key} needs a value"))?
                    }
                };
                if key == "--root" {
                    root = std::path::PathBuf::from(val);
                } else {
                    match val.as_str() {
                        "json" | "human" | "sarif" => format = val,
                        other => return Err(format!("unknown lint format '{other}'")),
                    }
                }
            }
            "--explain" => {
                // `--explain L007 Engine::advance_to` — rule then symbol.
                let rule = match inline_val {
                    Some(v) => v,
                    None => {
                        i += 1;
                        args.get(i)
                            .cloned()
                            .ok_or_else(|| "--explain needs a rule id".to_string())?
                    }
                };
                i += 1;
                let symbol = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| "--explain needs a rule id and a symbol".to_string())?;
                explain = Some((rule, symbol));
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown lint option '{other}'"));
            }
            path => {
                // Normalize `./crates/simcore/` → `crates/simcore` so
                // prefixes match the workspace-relative file paths.
                let p = path.trim_start_matches("./").trim_end_matches('/');
                filters.push(p.to_string());
            }
        }
        i += 1;
    }
    let ws = match parsched_lint::Workspace::load(&root, &filters) {
        Ok(ws) => ws,
        Err(e) => {
            // The exit-2 path still emits a structured document for the
            // machine formats, so a failed run can never be mistaken for
            // a clean empty one.
            let msg = format!("lint: cannot read {}: {e}", root.display());
            let outcome = parsched_lint::LintOutcome::from_errors(vec![msg.clone()]);
            match format.as_str() {
                "json" => out!("{}", parsched_lint::report::render_json(&outcome)),
                "sarif" => out!("{}", parsched_lint::report::render_sarif(&outcome)),
                _ => {}
            }
            return Err(msg);
        }
    };
    if let Some((rule, symbol)) = explain {
        let text = parsched_lint::explain(&ws, &rule, &symbol)?;
        out!("{text}");
        return Ok(true);
    }
    let outcome = parsched_lint::run(&ws);
    match format.as_str() {
        "json" => out!("{}", parsched_lint::report::render_json(&outcome)),
        "sarif" => out!("{}", parsched_lint::report::render_sarif(&outcome)),
        _ => out!("{}", parsched_lint::report::render_human(&outcome)),
    }
    Ok(outcome.is_clean())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match cmd {
        "list" => {
            for id in all_ids() {
                let res_title = match *id {
                    "f1" => "Θ(log P) scaling of Intermediate-SRPT (Theorems 1 & 2)",
                    "f2" => "α-dependence and the jump at α = 1",
                    "f3" => "Greedy hybrid is Ω(P) on the trap family (Lemma 10)",
                    "f4" => "No online algorithm escapes the phase adversary (Theorem 2)",
                    "f5" => "Overload ↔ underload regime switching",
                    "f6" => "Machine-count independence of the ratio (Theorem 1)",
                    "t1" => "Cross-policy comparison on Poisson workloads",
                    "t2" => "Lemmas 1, 4, 5 verified pointwise on traces",
                    "t3" => "Potential-function analysis verified numerically (§2)",
                    "t4" => "EQUI is 2-competitive for batch release (Edmonds sanity)",
                    "t5" => "Fairness: the stretch trade-off (flow vs starvation)",
                    "x1" => "Ablation: Greedy's re-decision quantum (accuracy vs events)",
                    "x2" => "Speed augmentation rescues EQUI/LAPS (related-work context)",
                    "x3" => "Ablation: the regime boundary belongs exactly at |A| = m",
                    _ => "",
                };
                outln!("{id}  {res_title}");
            }
            ExitCode::SUCCESS
        }
        "exp" => {
            let Some((id, fl)) = rest.split_first() else {
                eprintln!("exp needs an experiment id\n\n{}", usage());
                return ExitCode::from(2);
            };
            match parse_flags("exp", fl).and_then(|flags| cmd_exp(id, &flags)) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        "sweep" => match cmd_sweep(rest) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        "all" => match parse_flags("all", rest) {
            Ok(flags) => {
                if cmd_all(&flags) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        "gen" => match parse_flags("gen", rest).and_then(|flags| cmd_gen(&flags)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        "run" => {
            // A streaming run reads a generator's flags, not an instance's.
            let stream = rest.iter().any(|a| a == "--stream");
            let cmd = if stream { "run --stream" } else { "run" };
            match parse_flags(cmd, rest).and_then(|flags| cmd_run(&flags)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        "audit" => {
            let Some((path, fl)) = rest.split_first() else {
                eprintln!("audit needs a trace file\n\n{}", usage());
                return ExitCode::from(2);
            };
            match parse_flags("audit", fl).and_then(|flags| cmd_audit(path, &flags)) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        "compare" => match parse_flags("compare", rest).and_then(|flags| cmd_compare(&flags)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        "fleet" => match parse_flags("fleet", rest).and_then(|flags| cmd_fleet(&flags)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        "adversary" => match parse_flags("adversary", rest).and_then(|flags| cmd_adversary(&flags))
        {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        "lint" => match cmd_lint(rest) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        "help" | "--help" | "-h" => {
            out!("{}", usage());
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command '{other}'\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}
