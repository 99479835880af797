//! The sweep pool's ordering guarantee, end to end: running an experiment
//! through the work-stealing pool must produce output **byte-identical**
//! to the serial path — tables, notes, and verdict. CI runs this in the
//! audit job (see `.github/workflows/ci.yml`).
//!
//! The worker count is process-global (`set_sweep_jobs`), so the
//! comparisons live in one `#[test]` to avoid harness-thread interleaving.

use parsched_analysis::experiments::{run, ExpOptions, ExpResult};
use parsched_analysis::set_sweep_jobs;

/// Everything an experiment emits, flattened to one comparable string.
fn render(result: &ExpResult) -> String {
    let mut out = String::new();
    for table in &result.tables {
        out.push_str(&table.render());
        out.push_str(&table.to_markdown());
        out.push_str(&table.to_csv());
    }
    for note in &result.notes {
        out.push_str(note);
        out.push('\n');
    }
    out.push_str(&format!("pass={}\n", result.pass));
    out
}

#[test]
fn pooled_experiments_match_serial_byte_for_byte() {
    let opts = ExpOptions::quick();
    for id in ["t1", "t2", "t3"] {
        set_sweep_jobs(1);
        let serial = run(id, &opts).expect("known experiment id");
        for jobs in [2, 4, 8] {
            set_sweep_jobs(jobs);
            let pooled = run(id, &opts).expect("known experiment id");
            assert_eq!(
                render(&pooled),
                render(&serial),
                "{id}: pool with {jobs} workers diverged from serial output"
            );
        }
    }
    set_sweep_jobs(0);
}

/// Everything an adversary search emits, flattened to one comparable
/// string: elite corpus documents (the bytes `--emit-corpus` writes) plus
/// the bit-exact best-ratio trajectory.
fn render_search(out: &parsched_adversary::SearchOutcome, cfg_label: &str) -> String {
    use parsched_adversary::{CorpusEntry, KIND_HARD};
    let mut s = String::new();
    for (rank, e) in out.elites.iter().enumerate() {
        let instance = e.genome.materialize(4.0).expect("elite rematerializes");
        let entry = CorpusEntry {
            kind: KIND_HARD.to_string(),
            policy: cfg_label.to_string(),
            m: 4.0,
            search_seed: 0,
            budget: 0,
            ratio: e.ratio,
            flow: e.flow,
            lb: e.lb,
            lb_kind: e.lb_kind.name().to_string(),
            engine_commit: "test".to_string(),
            genome: e.genome.provenance(),
            jobs: instance.jobs().to_vec(),
        };
        s.push_str(&entry.file_name(rank));
        s.push('\n');
        s.push_str(&entry.to_json());
    }
    for r in &out.trajectory {
        s.push_str(&format!("{:016x}\n", r.to_bits()));
    }
    s.push_str(&format!(
        "evals={} failures={}\n",
        out.evals,
        out.failures.len()
    ));
    s
}

/// Satellite of the adversary-search PR: the search rides on the same
/// pool, so the same guarantee must hold one level up — identical
/// `--seed`/`--budget` produce byte-identical corpus output and best-ratio
/// trajectory whatever `--jobs` is.
#[test]
fn adversary_search_is_jobs_invariant_byte_for_byte() {
    use parsched::PolicyKind;
    use parsched_adversary::{run_search, SearchConfig};
    // SETF's equalizer memo lives on in each worker's policy value across
    // evaluations, and LAPS runs on its own alive structure.
    for (token, policy) in [
        ("isrpt", PolicyKind::IntermediateSrpt),
        ("equi", PolicyKind::Equi),
        ("setf", PolicyKind::Setf),
        ("laps:0.5", PolicyKind::Laps(0.5)),
    ] {
        let mut cfg = SearchConfig::new(policy, 7, 64);
        cfg.jobs = 1;
        let serial = render_search(&run_search(&cfg), token);
        for jobs in [2, 4] {
            cfg.jobs = jobs;
            let pooled = render_search(&run_search(&cfg), token);
            assert_eq!(
                pooled, serial,
                "{token}: search with {jobs} workers diverged from serial"
            );
        }
    }
}
