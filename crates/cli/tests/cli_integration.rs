//! End-to-end tests of the `smc` binary.

use std::process::Command;

fn smc(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_smc"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Run `smc` on input it must reject as bad usage: exit status 2.
/// Returns stderr.
fn smc_usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_smc"))
        .args(args)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    stderr
}

fn write_tmp(name: &str, content: &str) -> String {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn check_single_history_single_model() {
    let f = write_tmp("smc_fig1.litmus", "p: w(x)1 r(y)0\nq: w(y)1 r(x)0\n");
    let (ok, stdout, _) = smc(&["check", &f, "--model", "tso"]);
    assert!(ok);
    assert!(stdout.contains("TSO"));
    assert!(stdout.contains("allowed"));
    assert!(stdout.contains("S_{p+w}"));
}

#[test]
fn check_suite_with_expectations_validates() {
    let f = write_tmp(
        "smc_suite_ok.litmus",
        "test t {\n p: w(x)1 r(y)0\n q: w(y)1 r(x)0\n} expect { SC: no, TSO: yes }\n",
    );
    let (ok, stdout, _) = smc(&["check", &f]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("[expected]"));
}

#[test]
fn check_suite_mismatch_fails() {
    let f = write_tmp(
        "smc_suite_bad.litmus",
        "test t {\n p: w(x)1 r(y)0\n q: w(y)1 r(x)0\n} expect { SC: yes }\n",
    );
    let (ok, stdout, stderr) = smc(&["check", &f]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("[MISMATCH]"));
    assert!(stderr.contains("failed"));
}

#[test]
fn explore_enumerates_machine_histories() {
    let f = write_tmp("smc_sb.litmus", "p: w(x)1 r(y)0\nq: w(y)1 r(x)0\n");
    let (ok, stdout, _) = smc(&["explore", &f, "--memory", "sc"]);
    assert!(ok);
    assert!(stdout.contains("SC: 3 distinct histories"));
    let (ok, stdout, _) = smc(&["explore", &f, "--memory", "tso"]);
    assert!(ok);
    assert!(stdout.contains("TSO: 4 distinct histories"));
}

#[test]
fn bakery_subcommand_reports_violations() {
    let (ok, stdout, _) = smc(&["bakery", "--memory", "rcpc", "--runs", "300"]);
    assert!(ok);
    assert!(stdout.contains("violated mutual exclusion"));
    // RC_pc violates at least once in 300 seeded runs.
    assert!(stdout.contains("first violation"), "{stdout}");
    let (ok, stdout, _) = smc(&["bakery", "--memory", "rcsc", "--runs", "100"]);
    assert!(ok);
    assert!(stdout.contains("0/100"), "{stdout}");
}

#[test]
fn models_lists_everything() {
    let (ok, stdout, _) = smc(&["models"]);
    assert!(ok);
    for name in [
        "SC", "TSO", "PC", "PRAM", "Causal", "RCsc", "RCpc", "WO", "Hybrid",
    ] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn bad_usage_is_reported() {
    let (ok, _, stderr) = smc(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"));
    let (ok, _, stderr) = smc(&["check", "/nonexistent/file.litmus"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn matrix_runs_on_the_shipped_corpus() {
    // The repository ships litmus/paper.litmus (regenerated by the
    // export_corpus binary); the matrix over it must succeed.
    let root = env!("CARGO_MANIFEST_DIR");
    let path = format!("{root}/../../litmus/paper.litmus");
    if std::path::Path::new(&path).exists() {
        let (ok, stdout, _) = smc(&["matrix", &path]);
        assert!(ok);
        assert!(stdout.contains("bakery_s5"));
    }
}

#[test]
fn forbidden_verdict_shows_cycle_certificate() {
    let f = write_tmp("smc_mp_stale.litmus", "p: w(d)1 w(f)1\nq: r(f)1 r(d)0\n");
    let (ok, stdout, _) = smc(&["check", &f, "--model", "causal"]);
    assert!(ok);
    assert!(stdout.contains("forbidden"));
    assert!(stdout.contains("unsatisfiable ordering cycle"), "{stdout}");
    assert!(stdout.contains("no view exists for q"), "{stdout}");
}

#[test]
fn explore_supports_all_machines() {
    let f = write_tmp("smc_sb2.litmus", "p: w(x)1 r(y)0\nq: w(y)1 r(x)0\n");
    for mem in [
        "pram", "causal", "pc", "coherent", "rcsc", "rcpc", "wo", "hybrid", "tso-fwd",
    ] {
        let (ok, stdout, stderr) = smc(&["explore", &f, "--memory", mem]);
        assert!(ok, "{mem}: {stderr}");
        assert!(stdout.contains("distinct histories"), "{mem}: {stdout}");
    }
    let (ok, _, stderr) = smc(&["explore", &f, "--memory", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown memory"));
}

#[test]
fn separate_finds_store_buffering_for_sc_vs_tso() {
    let (ok, stdout, _) = smc(&["separate", "sc", "tso", "--max-universe", "2x2x2x1"]);
    assert!(ok, "{stdout}");
    // SC ⊆ TSO is known, so only the TSO-admits direction can be witnessed,
    // and its minimal witness is the store-buffering litmus of Figure 1.
    assert!(stdout.contains("known inclusion"), "{stdout}");
    assert!(stdout.contains("TSO admits / SC refutes"), "{stdout}");
    assert!(stdout.contains("w(x)1 r(y)0"), "{stdout}");
    assert!(stdout.contains("strictly stronger"), "{stdout}");
}

#[test]
fn separate_reports_incomparable_pc_variants() {
    let (ok, stdout, _) = smc(&["separate", "dash_pc", "goodman_pc", "--jobs", "2"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("PC admits / PCG refutes"), "{stdout}");
    assert!(stdout.contains("PCG admits / PC refutes"), "{stdout}");
    assert!(stdout.contains("incomparable"), "{stdout}");
}

#[test]
fn separate_rejects_bad_arguments() {
    let (ok, _, stderr) = smc(&["separate", "sc"]);
    assert!(!ok);
    assert!(stderr.contains("expected <model-a> <model-b>"), "{stderr}");
    let (ok, _, stderr) = smc(&["separate", "sc", "nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"), "{stderr}");
    let (ok, _, stderr) = smc(&["separate", "sc", "sc"]);
    assert!(!ok);
    assert!(stderr.contains("nothing to separate"), "{stderr}");
    let (ok, _, stderr) = smc(&["separate", "sc", "tso", "--max-universe", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("max-universe"), "{stderr}");
}

#[test]
fn separate_json_lines_report_every_direction() {
    let json = std::env::temp_dir().join("smc_sep_sc_pram.json");
    let json = json.to_string_lossy().into_owned();
    let (ok, _, _) = smc(&[
        "separate",
        "sc",
        "pram",
        "--json",
        &json,
        "--max-universe",
        "small",
    ]);
    assert!(ok);
    let body = std::fs::read_to_string(&json).unwrap();
    assert!(
        body.contains(r#""admits":"PRAM","refutes":"SC","status":"found""#),
        "{body}"
    );
    assert!(
        body.contains(r#""admits":"SC","refutes":"PRAM","status":"impossible""#),
        "{body}"
    );
    assert!(body.contains(r#""checked""#), "{body}");
}

#[test]
fn bakery_show_program_renders_pseudocode() {
    let (ok, stdout, _) = smc(&["bakery", "--runs", "1", "--show-program"]);
    assert!(ok);
    assert!(stdout.contains("shared: choosing[2] number[2] d"));
    assert!(stdout.contains("enter critical section"));
}

#[test]
fn trace_gen_alias_values_caps_distinct_writes() {
    let (ok, stdout, _) = smc(&[
        "trace",
        "gen",
        "--memory",
        "sc",
        "--procs",
        "3",
        "--events",
        "60",
        "--locs",
        "2",
        "--alias-values",
        "3",
        "--seed",
        "7",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("--alias-values 3"), "{stdout}");
    let mut distinct = std::collections::BTreeSet::new();
    for line in stdout.lines() {
        for piece in line.split_whitespace() {
            if let Some(rest) = piece.strip_prefix("w(") {
                let val = rest.split(')').nth(1).expect("write value");
                distinct.insert(val.to_owned());
            }
        }
    }
    assert!(!distinct.is_empty(), "{stdout}");
    assert!(distinct.len() <= 3, "{distinct:?}\n{stdout}");
}

#[test]
fn trace_gen_alias_values_rejects_values_flag_and_bad_counts() {
    let (ok, _, stderr) = smc(&["trace", "gen", "--alias-values", "3", "--values", "2"]);
    assert!(!ok);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
    let (ok, _, stderr) = smc(&["trace", "gen", "--alias-values", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--alias-values"), "{stderr}");
}

#[test]
fn trace_gen_sessions_interleaves_parseable_streams() {
    let (ok, stdout, _) = smc(&[
        "trace",
        "gen",
        "--memory",
        "tso",
        "--sessions",
        "4",
        "--procs",
        "2",
        "--events",
        "12",
        "--seed",
        "5",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("--sessions 4"), "{stdout}");
    // Every non-comment line carries an @sid prefix, and the stream
    // demultiplexes back into 4 well-formed traces.
    for line in stdout.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        assert!(line.starts_with('@'), "unprefixed line `{line}`\n{stdout}");
    }
    let sessions = smc_history::trace::parse_multi_trace(&stdout).expect("parses");
    assert_eq!(sessions.len(), 4, "{stdout}");
    for (sid, trace) in &sessions {
        assert!(sid.starts_with('s'), "sid `{sid}`");
        assert_eq!(trace.len(), 12, "session {sid} has {} events", trace.len());
    }
}

#[test]
fn trace_gen_churn_streams_admit_the_generating_model() {
    let (ok, stdout, _) = smc(&[
        "trace", "gen", "--memory", "sc", "--churn", "2", "--procs", "2", "--locs", "2",
        "--events", "12", "--seed", "7",
    ]);
    assert!(ok, "{stdout}");
    // Three generations enter via `join` and the first two retire.
    assert_eq!(stdout.lines().filter(|l| l.starts_with("join ")).count(), 6);
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with("retire ")).count(),
        4
    );
    // The stream must be admissible under the model that generated it:
    // later generations inherit earlier generations' final memory, so
    // the monitor admits SC (and exits 0) instead of refuting a read of
    // stale initial memory. Folding must engage across the retires.
    let f = write_tmp("smc_gen_churn.trace", &stdout);
    let (ok, out, err) = smc(&["monitor", &f, "--window", "4", "--stats"]);
    assert!(ok, "{out}\n{err}");
    assert!(out.contains("SC") && out.contains("admitted"), "{out}");
    assert!(out.contains("4 fold(s)"), "{out}");
}

#[test]
fn monitor_restore_inherits_checkpoint_limits() {
    let f = write_tmp(
        "smc_ckpt_inherit.trace",
        "procs p q\nlocs x\np w(x)1\nq r(x)1\np w(x)2\nq r(x)2\n",
    );
    let ckpt = std::env::temp_dir().join("smc_ckpt_inherit.ckpt");
    let ckpt = ckpt.to_string_lossy().into_owned();
    let (ok, out, err) = smc(&["monitor", &f, "--window", "2", "--checkpoint-file", &ckpt]);
    assert!(ok, "{out}\n{err}");
    // Resuming without repeating --window inherits the checkpoint's
    // windowing instead of erroring on the mismatch with the default.
    let more = write_tmp("smc_ckpt_inherit_more.trace", "p w(x)3\nq r(x)3\n");
    let (ok, out, err) = smc(&["monitor", &more, "--restore-from", &ckpt, "--stats"]);
    assert!(ok, "{out}\n{err}");
    assert!(err.contains("restored 4 event(s)"), "{err}");
    assert!(out.contains("windows: 3 sealed"), "{out}");
    // An explicit conflicting flag is still a mismatch error.
    let (ok, _, err) = smc(&["monitor", &more, "--restore-from", &ckpt, "--window", "5"]);
    assert!(!ok);
    assert!(err.contains("window size 2 != configured 5"), "{err}");
}

#[test]
fn monitor_skips_malformed_lines_and_counts_them() {
    let f = write_tmp(
        "smc_mon_skip.trace",
        "p w(x)1\nthis is not an event\nq r(x)1\n",
    );
    let json = std::env::temp_dir().join("smc_mon_skip.json");
    let json = json.to_string_lossy().into_owned();
    let (ok, stdout, stderr) = smc(&["monitor", &f, "--stats", "--json", &json]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("1 malformed line(s) skipped"), "{stdout}");
    let body = std::fs::read_to_string(&json).unwrap();
    assert!(body.contains(r#""skipped_line":2"#), "{body}");
    assert!(body.contains(r#""skipped_lines":1"#), "{body}");
}

#[test]
fn monitor_skips_lines_that_are_not_utf8() {
    let path = std::env::temp_dir().join("smc_mon_utf8.trace");
    std::fs::write(&path, b"p w(x)1\n\xff\nq r(x)1\n").unwrap();
    let f = path.to_string_lossy().into_owned();
    let json = std::env::temp_dir().join("smc_mon_utf8.json");
    let json = json.to_string_lossy().into_owned();
    let (ok, stdout, stderr) = smc(&["monitor", &f, "--stats", "--json", &json]);
    assert!(ok, "{stdout}\n{stderr}");
    assert_eq!(stderr.matches("warning:").count(), 1, "{stderr}");
    assert!(
        stderr.contains("line 2 (byte 8): invalid utf-8"),
        "{stderr}"
    );
    assert!(
        stdout.contains("2 event(s), 1 malformed line(s) skipped"),
        "{stdout}"
    );
    let body = std::fs::read_to_string(&json).unwrap();
    assert!(body.contains(r#""skipped_line":2"#), "{body}");
    assert!(body.contains(r#""events":2,"#), "{body}");
    assert!(body.contains(r#""skipped_lines":1"#), "{body}");
}

#[test]
fn monitor_skips_over_long_lines_without_buffering_them() {
    use smc_history::trace::MAX_LINE;
    let mut text = "a".repeat(MAX_LINE + 1);
    text.push_str("\np w(x)1\n");
    let f = write_tmp("smc_mon_long.trace", &text);
    let (ok, stdout, stderr) = smc(&["monitor", &f]);
    assert!(ok, "{stdout}\n{stderr}");
    assert_eq!(stderr.matches("warning:").count(), 1, "{stderr}");
    assert!(
        stderr.contains(&format!(
            "line 1 (byte 0): line longer than {MAX_LINE} bytes"
        )),
        "{stderr}"
    );
    assert!(
        stdout.contains("1 event(s), 1 malformed line(s) skipped"),
        "{stdout}"
    );
}

#[test]
fn litmus_files_over_the_cap_are_refused() {
    use smc_history::litmus::MAX_LITMUS_BYTES;
    let path = std::env::temp_dir().join("smc_huge.litmus");
    // Sparse: one byte over the cap, without writing it.
    std::fs::File::create(&path)
        .and_then(|f| f.set_len(MAX_LITMUS_BYTES + 1))
        .unwrap();
    let f = path.to_string_lossy().into_owned();
    for args in [
        &["check", &f, "--model", "sc"][..],
        &["matrix", &f],
        &["trace", "from", &f],
    ] {
        let stderr = smc_usage_error(args);
        assert!(
            stderr.contains(&format!("larger than {MAX_LITMUS_BYTES} bytes")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn monitor_batch_matches_per_event_verdicts() {
    // A 64-event TSO stream whose engines exhaust a 1024-state cap, so
    // restart-mode rechecks run, and batching has something to amortize.
    let dir = std::env::temp_dir();
    let trace = dir.join("smc_mon_batch.trace");
    let trace = trace.to_str().unwrap();
    let (ok, _, stderr) = smc(&[
        "trace", "gen", "--memory", "tso", "--procs", "3", "--locs", "2", "--values", "2",
        "--events", "64", "--seed", "3", "--out", trace,
    ]);
    assert!(ok, "{stderr}");
    let run = |batch: &str| {
        let json = dir.join(format!("smc_mon_batch_{batch}.json"));
        let json = json.to_str().unwrap();
        let (ok, stdout, stderr) = smc(&[
            "monitor",
            trace,
            "--max-states",
            "1024",
            "--batch",
            batch,
            "--json",
            json,
        ]);
        (ok, stdout, std::fs::read_to_string(json).expect(&stderr))
    };
    let (ok1, per_event, json1) = run("1");
    let (ok8, batched, json8) = run("8");
    assert_eq!(ok1, ok8, "{per_event}\n{batched}");
    // One monitor step per eight events.
    let steps: Vec<&str> = json8.lines().filter(|l| l.contains("\"op\":")).collect();
    assert_eq!(steps.len(), 8, "{json8}");
    assert!(
        steps.iter().all(|l| l.contains("\"op\":\"+8 events\"")),
        "{json8}"
    );
    // Restart-mode models settle once per step, not once per event.
    let rechecks = |json: &str| -> u64 {
        let summary = json.lines().last().unwrap();
        let tail = summary.split("\"rechecks\":").nth(1).expect(summary);
        tail.split(',').next().unwrap().parse().unwrap()
    };
    assert!(
        rechecks(&json8) < rechecks(&json1),
        "{} rechecks batched vs {} per event",
        rechecks(&json8),
        rechecks(&json1)
    );
    // Compare the final verdict table (indented `<model> <verdict>`
    // rows); per-event transition lines may legitimately coalesce
    // under batching.
    let table = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| l.starts_with("  ") && (l.contains("admitted") || l.contains("violated")))
            .map(str::to_owned)
            .collect()
    };
    let (a, b) = (table(&per_event), table(&batched));
    assert!(!a.is_empty(), "{per_event}");
    assert_eq!(a, b, "{per_event}\n---\n{batched}");
}

/// Start `smc serve` on a free loopback port, drive it with `smc loadgen
/// --verify --shutdown` plus `loadgen_args`, and wait for the server to
/// exit cleanly. Returns loadgen's (success, stdout, stderr).
fn serve_and_loadgen(loadgen_args: &[&str]) -> (bool, String, String) {
    use std::io::{BufRead, BufReader, Read};
    let mut server = Command::new(env!("CARGO_BIN_EXE_smc"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    // Keep the pipe open until the server exits: it prints once more
    // when it stops.
    let mut server_out = BufReader::new(server.stdout.take().unwrap());
    let mut first = String::new();
    server_out.read_line(&mut first).unwrap();
    let addr = first.trim().strip_prefix("listening on ").expect(&first);
    let mut args = vec!["loadgen", "--addr", addr, "--verify", "--shutdown"];
    args.extend_from_slice(loadgen_args);
    let (ok, stdout, stderr) = smc(&args);
    if !ok {
        server.kill().ok();
    }
    let status = server.wait().unwrap();
    let mut rest = String::new();
    server_out.read_to_string(&mut rest).unwrap();
    assert!(ok, "{stdout}\n{stderr}");
    assert!(status.success(), "{rest}");
    (ok, stdout, stderr)
}

#[test]
fn serve_bench_smoke_verifies_verdicts() {
    let (_, stdout, _) = serve_and_loadgen(&[
        "--sessions",
        "16",
        "--events",
        "8",
        "--conns",
        "2",
        "--query-every",
        "4",
        "--memory",
        "tso",
        "--seed",
        "11",
    ]);
    assert!(
        stdout.contains("all verdicts match offline monitor"),
        "{stdout}"
    );
    assert!(stdout.contains("16 session(s)"), "{stdout}");
}

#[test]
fn serve_bench_defaults_to_64_events_per_session() {
    // No --events: each session carries loadgen's default 64 events.
    let (_, stdout, _) = serve_and_loadgen(&["--sessions", "4"]);
    assert!(stdout.contains("4 session(s), 256 event(s)"), "{stdout}");
}

#[test]
fn loadgen_requires_addr() {
    let (ok, _, stderr) = smc(&["loadgen"]);
    assert!(!ok);
    assert!(stderr.contains("--addr"), "{stderr}");
}

#[test]
fn switches_before_the_file_leave_it_positional() {
    let f = write_tmp(
        "smc_switch_first.litmus",
        "p: w(x)1 r(y)0\nq: w(y)1 r(x)0\n",
    );
    let (ok, stdout, stderr) = smc(&["check", "--stats", &f, "--model", "sc"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("forbidden") && stdout.contains("nodes"),
        "{stdout}"
    );
    let (ok, stdout, stderr) = smc(&["matrix", "--stats", &f]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("total search nodes"), "{stdout}");
    let (ok, stdout, stderr) = smc(&["explore", "--check", &f, "--memory", "sc"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("SC: 3 distinct histories"), "{stdout}");
    assert!(stdout.contains("yes"), "{stdout}");
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    let f = write_tmp(
        "smc_unknown_flag.litmus",
        "p: w(x)1 r(y)0\nq: w(y)1 r(x)0\n",
    );
    let cases: [(&[&str], &str); 12] = [
        (&["check", &f, "--engin", "saturate"], "--engin"),
        (&["check", &f, "--job", "4"], "--job"),
        (&["check", &f, "--jobs=4"], "--jobs=4"),
        (&["trace", "gen", "--sed", "5"], "--sed"),
        (
            &[
                "loadgen",
                "--addr",
                "127.0.0.1:1",
                "--sessions",
                "4",
                "--events",
                "8",
                "--bogus",
                "1",
            ],
            "--bogus",
        ),
        // `smc serve` only serves; `smc loadgen` drives and measures it.
        (&["serve", "--bench"], "--bench"),
        // No subcommand takes --cutover.
        (&["check", &f, "--cutover", "9"], "--cutover"),
        (&["separate", "sc", "tso", "--cutover", "9"], "--cutover"),
        // The engine and monitor equivalence checks are cargo tests
        // (`tests/engine_equiv.rs`, `tests/monitor_equiv.rs`), not modes.
        (&["corpus", "--engine-equiv"], "--engine-equiv"),
        (&["monitor", "--corpus"], "--corpus"),
        // A check runs on one thread: `--jobs` spreads histories and
        // pairs, which a monitor or a server session never has.
        (&["monitor", "--jobs", "2"], "--jobs"),
        (&["serve", "--jobs", "2"], "--jobs"),
    ];
    for (args, flag) in cases {
        let stderr = smc_usage_error(args);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
        // Only the failing subcommand's usage follows the error.
        assert!(stderr.contains(&format!("smc {}", args[0])), "{stderr}");
        assert!(!stderr.contains("smc models"), "{stderr}");
    }
}

/// One check runs on one thread, whatever `--jobs` says: on a one-test
/// file (fewer pairs than jobs), `--stats` prints what one job prints,
/// apart from the wall time.
#[test]
fn check_stats_are_the_same_at_every_job_count() {
    let f = write_tmp("smc_one_test.litmus", "p: w(x)1 r(y)0\nq: w(y)1 r(x)0\n");
    let run = |jobs: &str| {
        let (ok, stdout, stderr) = smc(&["check", &f, "--model", "pc", "--stats", "--jobs", jobs]);
        assert!(ok, "{stderr}");
        // The wall time is the third field of the stats line.
        stdout
            .lines()
            .map(|line| match line.split_once(" rf assignment(s), ") {
                Some((head, tail)) => format!("{head}{}", tail.split_once(',').map_or("", |t| t.1)),
                None => line.to_owned(),
            })
            .collect::<Vec<_>>()
    };
    let one = run("1");
    assert!(one.iter().any(|l| l.contains("nodes")), "{one:?}");
    assert_eq!(run("4"), one);
}

#[test]
fn value_flags_without_a_value_are_rejected() {
    let f = write_tmp(
        "smc_missing_value.litmus",
        "p: w(x)1 r(y)0\nq: w(y)1 r(x)0\n",
    );
    for args in [&["check", &f, "--model"][..], &["bakery", "--n"]] {
        let stderr = smc_usage_error(args);
        assert!(stderr.contains("requires a value"), "{args:?}: {stderr}");
    }
}
