//! The repository benchmark: end-to-end and per-layer performance of the
//! admission checkers (`core`), the streaming monitor (`monitor`) and
//! the multi-session server (`serve`), driven through their public APIs
//! in one process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload is set up three times (the median
//! set-up time is reported), measured for `--seconds`, and its outputs
//! are checked; every end-to-end metric is printed by name with its
//! unit, and the last line is one JSON object. With `--trace 1` every
//! workload, the named one first, runs an untraced and a traced pass of
//! `--seconds / 8` each: the traced pass records spans around every call
//! into a layer, writes them to `perfbench/out/spans-<workload>.tsv`,
//! and the per-layer metrics, their mapping to end-to-end metrics and
//! the tracing overhead are printed. See `perfbench/README.md`.

mod check_bighist;
mod check_universe;
mod gen;
mod monitor_long;
mod serve_sessions;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use stats::{median, totals_by_name, write_spans, Span};

/// Workloads, in the order a traced run visits the ones not named.
const WORKLOADS: [&str; 4] = [
    "serve_sessions",
    "monitor_long",
    "check_universe",
    "check_bighist",
];

/// Set-ups per untraced run; the median is reported.
const SETUP_REPEATS: usize = 3;

/// Every pass repeats its work list at least this often, so each item
/// has a fastest repetition to report (see [`stats::Fastest`]).
pub(crate) const MIN_REPETITIONS: usize = 2;

/// Spans written per workload; metrics are computed from all of them.
/// The first spans of a pass cover whole requests, and the cap keeps
/// the universe sweep's file to a few MB.
const MAX_WRITTEN_SPANS: usize = 100_000;

/// Per-layer metrics: name, unit, whether it goes into the JSON result
/// (metrics that read zero at every committed seed are printed only),
/// and the end-to-end metrics it should move.
const LAYERS: &[(&str, &str, bool, &str)] = &[
    ("serve.send_us_per_event", "us", true, SERVE_MOVES),
    ("serve.close_rtt_p50_us", "us", true, SERVE_MOVES),
    ("serve.busy_frac", "ratio", false, SERVE_MOVES),
    ("serve.rechecks_per_event", "count", true, SERVE_MOVES),
    ("serve.memo_hit_ratio", "ratio", false, SERVE_MOVES),
    (
        "history.parse_ns_per_line",
        "ns",
        true,
        "events_per_s on serve_sessions",
    ),
    ("monitor.feed_ns_per_event", "ns", true, FRONTIER_MOVES),
    (
        "monitor.frontier_created_per_event",
        "count",
        true,
        FRONTIER_MOVES,
    ),
    (
        "monitor.frontier_expanded_per_event",
        "count",
        true,
        FRONTIER_MOVES,
    ),
    (
        "monitor.frontier_reuse_ratio",
        "ratio",
        true,
        FRONTIER_MOVES,
    ),
    ("monitor.rechecks_per_event", "count", true, RECHECK_MOVES),
    (
        "monitor.recheck_nodes_per_event",
        "count",
        true,
        RECHECK_MOVES,
    ),
    ("monitor.propagated_ratio", "ratio", true, RECHECK_MOVES),
    ("monitor.late_over_early", "ratio", true, RECHECK_MOVES),
    ("core.saturate_ns_per_check", "ns", true, SATURATE_MOVES),
    ("core.sat_steps_per_check", "count", true, SATURATE_MOVES),
    ("core.sat_branches_per_check", "count", true, SATURATE_MOVES),
    ("core.sat_wakeups_per_check", "count", true, SATURATE_MOVES),
    (
        "core.sat_conflicts_per_check",
        "count",
        true,
        SATURATE_MOVES,
    ),
    ("core.sat_learned_per_check", "count", true, SATURATE_MOVES),
    ("core.sat_restarts_per_check", "count", true, SATURATE_MOVES),
    ("core.exhaustive_ns_per_check", "ns", true, EXHAUSTIVE_MOVES),
    ("core.nodes_per_check", "count", true, EXHAUSTIVE_MOVES),
    ("core.rf_enum_ns_per_history", "ns", true, EXHAUSTIVE_MOVES),
    (
        "core.rf_assignments_per_check",
        "count",
        true,
        EXHAUSTIVE_MOVES,
    ),
    ("core.canon_ns_per_history", "ns", true, EXHAUSTIVE_MOVES),
    ("core.memo_hit_ratio", "ratio", true, EXHAUSTIVE_MOVES),
    (
        "core.lattice_propagated_ratio",
        "ratio",
        true,
        EXHAUSTIVE_MOVES,
    ),
    ("core.exhausted_frac", "ratio", false, EXHAUSTIVE_MOVES),
    ("sim.trace_gen_ms", "ms", true, "setup_s on serve_sessions"),
];
const SERVE_MOVES: &str = "events_per_s, query_p99_ms on serve_sessions; none elsewhere";
const FRONTIER_MOVES: &str = "events_per_s on serve_sessions; event_p50_us on monitor_long";
const RECHECK_MOVES: &str = "events_per_s, event_p99_us on monitor_long; little on serve_sessions";
const SATURATE_MOVES: &str =
    "checks_per_s, check_p90_ms on check_bighist; event_p99_us on monitor_long; none on check_universe";
const EXHAUSTIVE_MOVES: &str = "histories_per_s on check_universe";

/// One end-to-end metric as the issue names it, for the human-readable
/// lines.
pub(crate) struct Line {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

impl Line {
    pub(crate) fn new(name: &'static str, value: f64, unit: &'static str, note: String) -> Self {
        Line {
            name,
            value,
            unit,
            note,
        }
    }
}

/// The workload's end-to-end numbers under the names every workload
/// shares in the JSON result.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Headline {
    /// Work finished per second (events, histories or checks).
    pub throughput_per_s: f64,
    /// Median latency of one operation.
    pub latency_p50_ms: f64,
    /// Tail latency of one operation (p99; p90 for big-history checks).
    pub latency_tail_ms: f64,
}

/// What one measured pass returns.
pub(crate) struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; the run is correct when this is empty.
    pub mismatches: Vec<String>,
    pub lines: Vec<Line>,
    pub headline: Headline,
    /// Per-layer metrics (traced passes only).
    pub layers: Vec<(&'static str, f64)>,
    /// Recorded spans (traced passes only).
    pub spans: Vec<Span>,
}

/// A prepared workload: inputs generated, process warmed up.
pub(crate) trait Workload {
    /// Seed and input shape, printed with every result.
    fn describe(&self) -> String;
    /// Measure for about `seconds` (whole units of work: at least one),
    /// then check the outputs outside the timed region.
    fn run(&mut self, seconds: f64, traced: bool) -> Result<Report, String>;
}

fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "serve_sessions" => Box::new(serve_sessions::setup(seed)?),
        "monitor_long" => Box::new(monitor_long::setup(seed)?),
        "check_universe" => Box::new(check_universe::setup(seed)?),
        "check_bighist" => Box::new(check_bighist::setup(seed)?),
        other => return Err(format!("unknown workload `{other}` (one of {WORKLOADS:?})")),
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: smc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut vals: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        };
        let v = it
            .next()
            .ok_or_else(|| format!("{key} needs a value\n{USAGE}"))?;
        vals.insert(key, v);
    }
    let get = |k: &str| {
        vals.get(k)
            .copied()
            .ok_or_else(|| format!("missing {k}\n{USAGE}"))
    };
    let workload = get("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed: not an unsigned integer".to_owned())?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .ok()
        .filter(|&s| s >= 1)
        .ok_or("--seconds: not a positive integer")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: `{other}` is not 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// `{"value": v, "unit": u}`; non-finite values are an error.
fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) -> Result<(), String> {
    if !value.is_finite() {
        return Err(format!("metric {name} is not finite: {value}"));
    }
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    write!(
        out,
        "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
    )
    .map_err(|e| e.to_string())
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> Result<String, String> {
    let mut m = String::from("{");
    for (name, value, unit) in metrics {
        json_metric(&mut m, name, *value, unit)?;
    }
    m.push('}');
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {m}}}",
        attempted.max(1)
    ))
}

fn print_mismatches(mismatches: &[String]) {
    for m in mismatches.iter().take(20) {
        println!("MISMATCH {m}");
    }
    if mismatches.len() > 20 {
        println!("MISMATCH ... {} more", mismatches.len() - 20);
    }
}

fn untraced(a: &Args) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut bench: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up before timing the next.
        drop(bench.take());
        let t0 = Instant::now();
        let b = setup(&a.workload, a.seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    let w = &a.workload;
    println!("# {w} {}", bench.describe());
    let rep = bench.run(a.seconds, false)?;
    let setup_s = median(&setups);
    let rss = peak_rss_mb()?;
    for l in &rep.lines {
        println!("{w} {} {} {} ({})", l.name, l.value, l.unit, l.note);
    }
    println!("{w} setup_s {setup_s} s (median of {SETUP_REPEATS} set-ups)");
    // Printed, not bounded: the server's peak moves with drain timing
    // and allocator arenas (470-750 MB over five runs of one build).
    println!("{w} peak_rss_mb {rss} MB (VmHWM)");
    print_mismatches(&rep.mismatches);
    let h = rep.headline;
    println!(
        "{}",
        json_result(
            rep.mismatches.is_empty(),
            rep.attempted,
            rep.failed,
            &[
                ("setup_s", setup_s, "s"),
                ("throughput_per_s", h.throughput_per_s, "1/s"),
                ("latency_p50_ms", h.latency_p50_ms, "ms"),
                ("latency_tail_ms", h.latency_tail_ms, "ms"),
            ],
        )?
    );
    Ok(())
}

fn traced(a: &Args) -> Result<(), String> {
    let pass = a.seconds / 8.0;
    let order: Vec<&str> = std::iter::once(a.workload.as_str())
        .chain(WORKLOADS.iter().copied().filter(|w| *w != a.workload))
        .collect();
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut mismatches = Vec::new();
    for w in order {
        let mut bench = setup(w, a.seed)?;
        println!("# {w} {}", bench.describe());
        let base = bench.run(pass, false)?;
        let rep = bench.run(pass, true)?;
        for (metric, b, t) in [
            (
                "throughput_per_s",
                base.headline.throughput_per_s,
                rep.headline.throughput_per_s,
            ),
            (
                "latency_p50_ms",
                base.headline.latency_p50_ms,
                rep.headline.latency_p50_ms,
            ),
            (
                "latency_tail_ms",
                base.headline.latency_tail_ms,
                rep.headline.latency_tail_ms,
            ),
        ] {
            println!(
                "{w} trace_overhead {metric} untraced={b} traced={t} change={:+.1}%",
                (t / b - 1.0) * 100.0
            );
        }
        for (name, t) in totals_by_name(&rep.spans) {
            println!(
                "{w} span {name} count={} total_ms={:.3} self_ms={:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let path = out_dir.join(format!("spans-{w}.tsv"));
        let kept = &rep.spans[..rep.spans.len().min(MAX_WRITTEN_SPANS)];
        write_spans(&path, kept).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "{w} spans written to {} ({} of {} spans)",
            path.display(),
            kept.len(),
            rep.spans.len()
        );
        layers.extend(rep.layers.iter().copied());
        for r in [&base, &rep] {
            attempted += r.attempted;
            failed += r.failed;
            mismatches.extend(r.mismatches.iter().cloned());
        }
    }
    let mut metrics = Vec::new();
    for &(name, unit, in_json, moves) in LAYERS {
        let v = *layers
            .get(name)
            .ok_or_else(|| format!("no workload measured layer metric {name}"))?;
        println!("layer {name} {v} {unit} -> {moves}");
        if in_json {
            metrics.push((name, v, unit));
        }
    }
    print_mismatches(&mismatches);
    println!(
        "{}",
        json_result(mismatches.is_empty(), attempted, failed, &metrics)?
    );
    Ok(())
}

fn main() -> ExitCode {
    let res = parse_args().and_then(|a| if a.trace { traced(&a) } else { untraced(&a) });
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("smc-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
