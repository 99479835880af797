//! End-to-end tests of the `parsched` binary.

use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_parsched"))
}

/// Runs the binary with `input` on stdin. A run that refuses its flags
/// may exit before reading stdin, so a broken pipe on the write is not an
/// error; its exit status and output are what the caller checks.
fn run_with_stdin(args: &[&str], input: &str) -> std::process::Output {
    let mut child = bin()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    use std::io::Write as _;
    let written = child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes());
    if let Err(e) = written {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "write: {e}");
    }
    child.wait_with_output().expect("wait")
}

#[test]
fn list_shows_every_experiment() {
    let out = bin().arg("list").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    for id in [
        "f1", "f2", "f3", "f4", "f5", "f6", "t1", "t2", "t3", "t4", "t5", "x1", "x2", "x3",
    ] {
        assert!(text.contains(id), "missing {id} in:\n{text}");
    }
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("USAGE"));
    assert!(text.contains("compare"));
}

#[test]
fn no_args_fails_with_usage() {
    let out = bin().output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .expect("utf8")
        .contains("USAGE"));
}

#[test]
fn unknown_experiment_is_an_error() {
    let out = bin().args(["exp", "zz"]).output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .expect("utf8")
        .contains("unknown experiment"));
}

#[test]
fn quick_experiment_runs_and_reports_shape() {
    let out = bin().args(["exp", "f5", "--quick"]).output().expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("SHAPE OK"));
    assert!(text.contains("F5b"));
}

#[test]
fn markdown_and_csv_flags_add_formats() {
    let out = bin()
        .args(["exp", "f5", "--quick", "--md", "--csv"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("markdown ("));
    assert!(text.contains("csv ("));
    assert!(text.contains("|---|"));
}

#[test]
fn gen_then_run_pipeline() {
    let out = bin()
        .args([
            "gen", "--kind", "poisson", "--n", "20", "--m", "4", "--p", "8",
        ])
        .output()
        .expect("gen");
    assert!(out.status.success());
    let csv = String::from_utf8(out.stdout).expect("utf8");
    assert!(csv.starts_with("id,release,size,curve\n"));
    assert_eq!(csv.lines().count(), 21);

    // Pipe it back through `run` via stdin.
    let out = run_with_stdin(
        &[
            "run",
            "--instance",
            "-",
            "--policy",
            "isrpt",
            "--m",
            "4",
            "--gantt",
            "40",
            "--bracket",
        ],
        &csv,
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("Intermediate-SRPT on m=4"));
    assert!(text.contains("n=20"));
    assert!(text.contains('█'), "gantt missing: {text}");
    assert!(text.contains("ratio ∈"));
}

/// `run` takes the path `simulate` would: the incremental path for an
/// SRPT-family policy, the level path for SETF and the arrival-suffix
/// path for LAPS, reported on the run line; `--gantt`, which records the
/// allocation stream, charts that same run.
#[test]
fn run_reports_the_engine_path_it_took() {
    let gen = bin()
        .args(["gen", "--kind", "poisson", "--n", "30", "--m", "4"])
        .output()
        .expect("gen");
    assert!(gen.status.success());
    let tmp = std::env::temp_dir().join(format!("parsched_cli_path_{}.csv", std::process::id()));
    std::fs::write(&tmp, &gen.stdout).expect("write tmp");
    let run = |policy: &str, gantt: bool| {
        let mut args = vec![
            "run",
            "--instance",
            tmp.to_str().expect("utf8 path"),
            "--policy",
            policy,
            "--m",
            "4",
        ];
        if gantt {
            args.extend(["--gantt", "40"]);
        }
        let out = bin().args(&args).output().expect("run");
        assert!(
            out.status.success(),
            "{policy}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8")
    };
    for (policy, fast) in [
        ("isrpt", "[incremental path]"),
        ("setf", "[levels path]"),
        ("laps", "[arrival-suffix path]"),
        ("laps:0.55", "[arrival-suffix path]"),
    ] {
        let plain = run(policy, false);
        assert!(plain.contains(fast), "{policy}: {plain}");
        // Charting a run does not change it: the same path, the same
        // run line, byte for byte.
        let charted = run(policy, true);
        assert_eq!(charted.lines().next(), plain.lines().next(), "{policy}");
        assert!(charted.contains('█'), "{policy}: gantt missing: {charted}");
    }
    let _ = std::fs::remove_file(&tmp);
}

#[test]
fn gen_covers_every_family() {
    for kind in ["poisson", "batch", "sawtooth", "trap", "mix"] {
        let out = bin()
            .args(["gen", "--kind", kind, "--n", "16", "--m", "4"])
            .output()
            .expect("gen");
        assert!(out.status.success(), "{kind}");
        let csv = String::from_utf8(out.stdout).expect("utf8");
        assert!(csv.lines().count() > 2, "{kind} produced {csv}");
    }
    let out = bin()
        .args(["gen", "--kind", "bogus"])
        .output()
        .expect("gen");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn compare_prints_policy_table() {
    let out = bin()
        .args(["compare", "--n", "40", "--m", "4"])
        .output()
        .expect("compare");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("Intermediate-SRPT"));
    assert!(text.contains("OPT bracket"));
}

#[test]
fn run_with_speed_augmentation() {
    let gen = bin()
        .args(["gen", "--kind", "batch", "--n", "10", "--m", "4"])
        .output()
        .expect("gen");
    let tmp = std::env::temp_dir().join("parsched_cli_test_batch.csv");
    std::fs::write(&tmp, &gen.stdout).expect("write tmp");
    let out = bin()
        .args([
            "run",
            "--instance",
            tmp.to_str().expect("utf8 path"),
            "--policy",
            "equi",
            "--m",
            "4",
            "--speed",
            "2.0",
        ])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("(speed 2)"));
    let _ = std::fs::remove_file(&tmp);
}

#[test]
fn run_stream_reports_quantiles_and_memory() {
    let out = bin()
        .args([
            "run",
            "--stream",
            "--kind",
            "poisson",
            "--n",
            "5000",
            "--m",
            "8",
            "--policy",
            "isrpt",
            "--audit=sampled:256",
        ])
        .output()
        .expect("run --stream");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("[streaming poisson]"), "{text}");
    assert!(text.contains("n=5000"), "{text}");
    assert!(text.contains("flow quantiles"), "{text}");
    assert!(text.contains("peak alive="), "{text}");
    assert!(text.contains("audit sampled ✓"), "{text}");
}

#[test]
fn run_stream_covers_trap_and_phase_families() {
    for kind in ["trap", "phases"] {
        let out = bin()
            .args([
                "run", "--stream", "--kind", kind, "--n", "2000", "--m", "4", "--policy", "equi",
            ])
            .output()
            .expect("run --stream");
        assert!(
            out.status.success(),
            "{kind} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).expect("utf8");
        assert!(text.contains(&format!("[streaming {kind}]")), "{text}");
        assert!(text.contains("admitted="), "{text}");
    }
}

/// Exit-code contract of `parsched audit`: 0 = replay clean, 1 = audit
/// violation, 2 = unreadable/unparseable input. The library-level split
/// between the two error shapes is pinned in `tests/trace_roundtrip.rs`;
/// this checks the mapping end to end on real files.
#[test]
fn audit_exit_codes_distinguish_parse_errors_from_violations() {
    let golden = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/golden_trace.json");
    let text = std::fs::read_to_string(&golden).expect("committed golden trace");
    let tmp = std::env::temp_dir();

    // Clean replay → 0.
    let out = bin()
        .args(["audit", golden.to_str().expect("utf8 path")])
        .output()
        .expect("audit golden");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("audit PASS"));

    // Parse errors → 2: missing file, empty file, truncated file.
    let empty = tmp.join("parsched_cli_audit_empty.json");
    std::fs::write(&empty, "").expect("write tmp");
    let truncated = tmp.join("parsched_cli_audit_truncated.json");
    std::fs::write(&truncated, &text[..text.len() / 2]).expect("write tmp");
    for path in [
        "/nonexistent/trace.json",
        empty.to_str().unwrap(),
        truncated.to_str().unwrap(),
    ] {
        let out = bin().args(["audit", path]).output().expect("audit");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{path}: parse/IO failure must exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // A parseable trace whose recorded summary contradicts its event log
    // → violation → 1.
    let tampered = tmp.join("parsched_cli_audit_tampered.json");
    let needle = "\"num_jobs\": 5";
    assert!(text.contains(needle), "golden fixture shape changed");
    std::fs::write(&tampered, text.replace(needle, "\"num_jobs\": 6")).expect("write tmp");
    let out = bin()
        .args(["audit", tampered.to_str().unwrap()])
        .output()
        .expect("audit tampered");
    assert_eq!(
        out.status.code(),
        Some(1),
        "violation must exit 1, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("audit FAIL"));

    for f in [empty, truncated, tampered] {
        let _ = std::fs::remove_file(f);
    }
}

/// The adversary search's CLI contract: identical stdout whatever
/// `--jobs` is (timings go to stderr), a t5-style summary table, and
/// exit 0 on a clean search.
#[test]
fn adversary_smoke_is_jobs_invariant_on_stdout() {
    let run = |jobs: &str| {
        let out = bin()
            .args([
                "adversary",
                "--policy",
                "isrpt",
                "--budget",
                "24",
                "--seed",
                "7",
                "--jobs",
                jobs,
            ])
            .output()
            .expect("adversary");
        assert!(
            out.status.success(),
            "--jobs {jobs} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8")
    };
    let serial = run("1");
    assert!(serial.contains("best-ratio trajectory"), "{serial}");
    assert!(serial.contains("worst ratio"), "{serial}");
    assert_eq!(serial, run("4"), "stdout must not depend on --jobs");
}

#[test]
fn adversary_rejects_unknown_policy() {
    let out = bin()
        .args(["adversary", "--policy", "bogus", "--budget", "4"])
        .output()
        .expect("adversary");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn run_stream_rejects_unknown_kind() {
    let out = bin()
        .args(["run", "--stream", "--kind", "nope", "--n", "10"])
        .output()
        .expect("run --stream");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --kind"));
}

/// A numeric flag whose value does not parse is an error naming the flag
/// (exit 2), not a silent fallback to its default.
#[test]
fn unparseable_numbers_are_rejected() {
    let csv = "id,release,size,curve\n0,0,1,seq\n1,5,1,seq\n";
    for (args, flag) in [
        (&["run", "--instance", "-", "--m", "abc"][..], "bad --m"),
        (
            &["run", "--instance", "-", "--gantt", "wide"][..],
            "bad --gantt",
        ),
        (&["gen", "--n", "x"][..], "bad --n"),
        (&["fleet", "--seed", "x"][..], "bad --seed"),
    ] {
        let out = run_with_stdin(args, csv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// A count flag takes a whole number from 0: a negative, fractional, NaN
/// or out-of-range value is refused (exit 2) instead of being cast to a
/// count, and a whole value written as a float (`1e1`) is accepted.
#[test]
fn count_flags_take_whole_numbers_only() {
    for args in [
        &["adversary", "--policy", "isrpt", "--budget", "-5"][..],
        &["adversary", "--policy", "isrpt", "--budget", "2.7"][..],
        &["adversary", "--policy", "isrpt", "--jobs", "-3"][..],
        &["adversary", "--policy", "isrpt", "--corpus-top", "0.5"][..],
        &["compare", "--n", "NaN"][..],
        &["gen", "--n", "-4"][..],
        &["gen", "--n", "1e30"][..],
        &["run", "--stream", "--n", "inf"][..],
    ] {
        let out = bin().args(args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args[args.len() - 2];
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("bad {flag}")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    let out = bin()
        .args(["gen", "--kind", "batch", "--n", "1e1"])
        .output()
        .expect("run");
    assert!(out.status.success());
    // The header and ten jobs.
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 11);
    let out = bin()
        .args([
            "adversary",
            "--policy",
            "isrpt",
            "--budget",
            "8e0",
            "--jobs",
            "1",
        ])
        .output()
        .expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("8 evals"));
}

/// A flag its command does not read is an error naming it (exit 2), not
/// a misspelling that silently keeps the default: `--polcy equi` must not
/// run Intermediate-SRPT.
#[test]
fn unknown_flags_are_rejected() {
    let csv = "id,release,size,curve\n0,0,1,seq\n1,5,1,seq\n";
    for (args, flag) in [
        (
            &["run", "--instance", "-", "--polcy", "equi", "--m", "1"][..],
            "bad --polcy",
        ),
        (
            &["run", "--instance", "-", "--polcy=equi"][..],
            "bad --polcy",
        ),
        (&["gen", "--stream"][..], "bad --stream"),
        (
            &["run", "--instance", "-", "--kind", "trap"][..],
            "bad --kind",
        ),
        (&["run", "--stream", "--gantt", "60"][..], "bad --gantt"),
        (&["exp", "f1", "--quick", "--m", "3"][..], "bad --m"),
        (&["fleet", "--tenant", "3"][..], "bad --tenant"),
    ] {
        let out = run_with_stdin(args, csv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// `--m` and `--speed` must be positive and finite: 0, −1 and `inf` are
/// refused up front (exit 2) rather than ending as a stalled run or an
/// invalid share.
#[test]
fn degenerate_machine_counts_and_speeds_are_rejected() {
    let csv = "id,release,size,curve\n0,0,1,seq\n1,5,1,seq\n";
    for flag in ["--m", "--speed"] {
        for value in ["0", "-1", "inf"] {
            for args in [
                &["run", "--instance", "-", flag, value][..],
                &["run", "--stream", "--n", "10", flag, value][..],
            ] {
                let out = run_with_stdin(args, csv);
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
                assert!(
                    stderr.contains(&format!("bad {flag}")),
                    "{args:?}: {stderr}"
                );
                assert!(out.stdout.is_empty(), "{args:?} printed a result");
            }
        }
    }
    for cmd in ["gen", "compare", "adversary"] {
        let out = bin().args([cmd, "--m", "0"]).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert!(stderr.contains("bad --m"), "{cmd}: {stderr}");
    }
}

/// `fleet --seed` picks the tenant mix (default 42), and `--seed=N` is
/// `--seed N`.
#[test]
fn fleet_honours_its_seed() {
    let run = |args: &[&str]| {
        let out = bin()
            .args(["fleet", "--tenants", "3"])
            .args(args)
            .output()
            .expect("fleet");
        assert!(out.status.success(), "{args:?}");
        out.stdout
    };
    assert_eq!(run(&["--seed", "42"]), run(&[]));
    assert_eq!(run(&["--seed=7"]), run(&["--seed", "7"]));
    assert_ne!(run(&["--seed", "7"]), run(&[]));
}

/// `parsched fleet` output — text and JSON — must be byte-identical for
/// every `--jobs N`, including with every suspension forced through the
/// migration codec. This is the CLI face of the fleet determinism
/// contract (crates/fleet/tests/fleet_determinism.rs).
#[test]
fn fleet_is_jobs_invariant_including_forced_migrations() {
    let run = |extra: &[&str]| {
        let mut args = vec!["fleet", "--tenants", "14", "--slice", "6", "--json"];
        args.extend_from_slice(extra);
        let out = bin().args(&args).output().expect("fleet");
        assert!(
            out.status.success(),
            "{extra:?} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8")
    };
    let serial = run(&["--jobs", "1"]);
    assert!(
        serial.contains("\"format\":\"parsched-fleet/v1\""),
        "{serial}"
    );
    assert!(serial.contains("\"done\":14"), "{serial}");
    assert_eq!(
        serial,
        run(&["--jobs", "4"]),
        "stdout must not depend on --jobs"
    );
    let migrated = run(&["--jobs", "1", "--migrate"]);
    assert_eq!(
        migrated,
        run(&["--jobs", "4", "--migrate"]),
        "migrated stdout must not depend on --jobs"
    );
    // Migration may only change the echoed `migrate` config field, never
    // a tenant result.
    assert_eq!(
        serial.replace("\"migrate\":false", "\"migrate\":true"),
        migrated,
        "forcing migrations changed tenant results"
    );
}

/// Admission caps: submissions beyond `--cap + --queue` are shed with a
/// recorded reason, shedding is reported in the JSON contract, and the
/// exit code flips to 1. The shed set depends only on submission order,
/// so it is identical for every worker count.
#[test]
fn fleet_backpressure_sheds_deterministically_and_exits_1() {
    let run = |jobs: &str| {
        let out = bin()
            .args([
                "fleet",
                "--tenants",
                "9",
                "--cap",
                "2",
                "--queue",
                "3",
                "--jobs",
                jobs,
                "--json",
            ])
            .output()
            .expect("fleet");
        assert_eq!(out.status.code(), Some(1), "shed fleet must exit 1");
        String::from_utf8(out.stdout).expect("utf8")
    };
    let serial = run("1");
    assert!(serial.contains("\"done\":5"), "{serial}");
    assert!(serial.contains("\"shed\":4"), "{serial}");
    assert!(serial.contains("\"failed\":0"), "{serial}");
    assert!(
        serial.contains(
            "\"status\":\"shed\",\"reason\":\"admission queue full (2 in-flight + 3 pending)\""
        ),
        "{serial}"
    );
    // Exactly tenants 5..8 (submission order) are shed.
    for (name, want_shed) in (0..9).map(|i| (format!("tenant-{i:04}"), i >= 5)) {
        let section = serial
            .split(&format!("\"name\":\"{name}\""))
            .nth(1)
            .unwrap_or_else(|| panic!("missing {name} in {serial}"));
        let status = &section[..section.find('}').unwrap_or(section.len())];
        assert_eq!(
            status.contains("\"status\":\"shed\""),
            want_shed,
            "{name}: {status}"
        );
    }
    assert_eq!(serial, run("4"), "shed set must not depend on --jobs");
}

#[test]
fn fleet_rejects_degenerate_parameters() {
    let out = bin()
        .args(["fleet", "--tenants", "3", "--slice", "0"])
        .output()
        .expect("fleet");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("slice_events"));
    let out = bin()
        .args(["fleet", "--tenants", "x"])
        .output()
        .expect("fleet");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --tenants"));
}

/// Path to a lint fixture tree committed under the lint crate.
fn lint_fixture(name: &str) -> String {
    format!(
        "{}/../lint/tests/fixtures/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn lint_exit_codes_agree_across_formats() {
    // The CI gate keys off the exit code, not the report body: a tripping
    // tree must exit 1 and a clean tree 0 in every format.
    for (tree, want) in [("l007", 1), ("clean", 0)] {
        for fmt in ["human", "json", "sarif"] {
            let out = bin()
                .args(["lint", "--root", &lint_fixture(tree), "--format", fmt])
                .output()
                .expect("lint");
            assert_eq!(
                out.status.code(),
                Some(want),
                "{tree}/{fmt}:\n{}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }
}

#[test]
fn lint_sarif_document_carries_rules_and_results() {
    let out = bin()
        .args(["lint", "--root", &lint_fixture("l009"), "--format", "sarif"])
        .output()
        .expect("lint");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("\"version\": \"2.1.0\""), "{text}");
    assert!(text.contains("\"id\": \"L009\""), "{text}");
    assert!(text.contains("\"results\""), "{text}");
}

#[test]
fn lint_unreadable_root_exits_2_with_structured_errors() {
    // Exit 2 must be structurally distinguishable from a clean empty run:
    // the JSON document carries a non-empty `errors` array.
    let out = bin()
        .args([
            "lint",
            "--root",
            "/nonexistent-parsched-root",
            "--format",
            "json",
        ])
        .output()
        .expect("lint");
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("\"schema\": \"parsched-lint/v1\""), "{text}");
    assert!(text.contains("\"errors\": [\n    \""), "{text}");
    assert!(text.contains("cannot read"), "{text}");
    // Clean runs keep the (empty) array, so consumers can always key off it.
    let clean = bin()
        .args(["lint", "--root", &lint_fixture("clean"), "--format", "json"])
        .output()
        .expect("lint");
    let clean_text = String::from_utf8(clean.stdout).expect("utf8");
    assert!(clean_text.contains("\"errors\": [\n  ]"), "{clean_text}");
}

#[test]
fn lint_explain_traces_a_reachability_path() {
    let out = bin()
        .args([
            "lint",
            "--root",
            &lint_fixture("l007"),
            "--explain",
            "L007",
            "first",
        ])
        .output()
        .expect("lint");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    // `step` is itself a root, so the shortest witness starts there.
    assert!(text.contains("Engine::step -> grow -> first"), "{text}");
}

/// A reader that closes the pipe after one line (`parsched gen | head -1`)
/// ends the run quietly: status 0 and nothing on stderr, not a panic on
/// the broken pipe.
#[test]
fn closed_stdout_pipe_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader};
    let mut child = bin()
        .args(["gen", "--n", "200000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let stdout = child.stdout.take().expect("stdout pipe");
    let mut first = String::new();
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("read one line");
    assert!(!first.is_empty(), "gen printed nothing");
    // The reader (and with it the pipe's read end) is dropped here; the
    // CSV is megabytes, so the writer is still going.
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "status {:?}, stderr: {stderr}",
        out.status
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
}
