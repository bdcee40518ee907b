//! Subcommand implementations for the `smc` binary.

use crate::args::Args;
use crate::json::JsonObject;
use smc_core::batch::{check_batch, BatchResult};
use smc_core::checker::{format_view, CheckConfig, CheckStats, Engine, EngineKind, Verdict};
use smc_core::memo::MemoStats;
use smc_core::models;
use smc_core::spec::ModelSpec;
use smc_history::litmus::{parse_history, parse_suite, LitmusTest, MAX_LITMUS_BYTES};
use smc_history::trace::TraceError;
use smc_history::{History, Label, ProcId};
use smc_programs::bakery::bakery;
use smc_programs::interp::ProgramWorkload;
use smc_sim::explore::{explore, ExploreConfig};
use smc_sim::mem::MemorySystem;
use smc_sim::sched::run_random;
use smc_sim::workload::{Access, OpScript};
use smc_sim::{
    CausalMem, CoherentMem, HybridMem, PcMem, PramMem, RcMem, ScMem, SyncMode, TsoMem, WoMem,
};
use std::process::ExitCode;

/// Evaluate `$body` with `$mem` bound to the operational machine named
/// `$name` (a `--memory` name) over `$n` processors and `$l` locations,
/// or `Err` for an unknown name. A macro because each machine is its
/// own type behind a trait that cannot be made into an object.
macro_rules! with_machine {
    ($name:expr, $n:expr, $l:expr, |$mem:ident| $body:expr) => {{
        let (n, l) = ($n, $l);
        match $name {
            "sc" => Ok({
                let $mem = ScMem::new(n, l);
                $body
            }),
            "tso" => Ok({
                let $mem = TsoMem::new(n, l);
                $body
            }),
            "tso-fwd" => Ok({
                let $mem = TsoMem::with_forwarding(n, l);
                $body
            }),
            "pram" => Ok({
                let $mem = PramMem::new(n, l);
                $body
            }),
            "causal" => Ok({
                let $mem = CausalMem::new(n, l);
                $body
            }),
            "pc" => Ok({
                let $mem = PcMem::new(n, l);
                $body
            }),
            "coherent" => Ok({
                let $mem = CoherentMem::new(n, l);
                $body
            }),
            "rcsc" => Ok({
                let $mem = RcMem::new(SyncMode::Sc, n, l);
                $body
            }),
            "rcpc" => Ok({
                let $mem = RcMem::new(SyncMode::Pc, n, l);
                $body
            }),
            "wo" => Ok({
                let $mem = WoMem::new(n, l);
                $body
            }),
            "hybrid" => Ok({
                let $mem = HybridMem::new(n, l);
                $body
            }),
            other => Err(format!("unknown memory `{other}`")),
        }
    }};
}

/// Top-level usage text.
pub const USAGE: &str = "\
usage:
  smc check <file> [--model NAME] [--jobs N] [--stats]
            [--memo-file PATH] [--engine exhaustive|saturate|auto]
                                    check a litmus history or suite;
                                    --memo-file persists decided verdicts
                                    across runs (corrupt or mismatched
                                    files are ignored with a warning)
  smc corpus [--jobs N] [--stats] [--json PATH] [--exhaustive]
            [--memo-file PATH] [--engine exhaustive|saturate|auto]
                                    check the embedded litmus corpus
                                    against its recorded expectations;
                                    --json writes machine-readable per-case
                                    stats + memo counters; --exhaustive
                                    sweeps the full small-history universe
                                    instead (Figure 5 models, with memoized
                                    + lattice-propagated verdicts)
  smc matrix <file> [--jobs N] [--stats] [--memo-file PATH]
            [--engine exhaustive|saturate|auto]
                                    classification matrix for a suite
  smc explore <file> --memory NAME [--check] [--model NAME] [--jobs N]
                                    enumerate every history a machine
                                    produces for the file's program shape;
                                    --check classifies each history
  smc bakery [--memory NAME] [--n N] [--runs R] [--show-program]
                                    run the Bakery algorithm (default rcpc)
  smc separate <model-a> <model-b> [--jobs N] [--max-universe SPEC]
            [--json PATH] [--memo-file PATH] [--emit-dir DIR]
            [--no-minimize] [--engine exhaustive|saturate|auto]
                                    search universes of increasing size for
                                    minimized witness histories one model
                                    admits and the other refutes;
                                    --max-universe is small|medium|large or
                                    an explicit PxOxLxV cap like 3x2x2x2
                                    (default medium); --emit-dir writes
                                    each witness as a litmus test file;
                                    witnesses are the same at every
                                    --jobs N, but above one job the work
                                    counters (classes, checks,
                                    propagated) vary with thread timing
  smc separate --all [...]          sweep every unlabeled model pair and
                                    report the full witness table
  smc monitor [<file>|-] [--model NAME] [--jobs N] [--stats]
            [--json PATH] [--max-states N] [--batch N]
            [--memo-file PATH] [--engine exhaustive|saturate|auto]
            [--window N] [--checkpoint-file PATH] [--restore-from PATH]
                                    stream a trace (stdin when `-` or no
                                    file) through the incremental admission
                                    monitor; malformed lines warn with
                                    their byte offset and are skipped
                                    (counted in --stats/--json); --batch N
                                    feeds the monitor once per N events
                                    (one --stats step per batch;
                                    restart-mode models settle once per
                                    batch, final verdicts unchanged);
                                    `join p`/`retire p` lines move
                                    processors in and out of the active
                                    set (retired processors fold into a
                                    summarized prefix); `@sid`-prefixed
                                    lines replay a multi-session stream,
                                    one monitor per session (warnings
                                    then name the session); --window N
                                    seals the decided prefix every N
                                    events to bound frontier memory;
                                    --checkpoint-file saves the monitor
                                    state at end of input and
                                    --restore-from resumes warm from
                                    such a file (same models required;
                                    cap and window are inherited unless
                                    overridden); exits nonzero if
                                    any model's final verdict is
                                    violated
  smc serve [--listen ADDR] [--workers N] [--max-sessions N]
            [--max-conns N] [--queue N] [--model NAME] [--jobs N]
            [--max-states N] [--window N] [--evict-dir DIR]
                                    run the multi-session streaming
                                    admission server: line-oriented TCP
                                    (OPEN/EV/QUERY/CLOSE, `@sid <event>`
                                    shorthand), one incremental monitor
                                    per session, bounded per-session
                                    queues (BUSY backpressure), verdicts
                                    on QUERY; `join`/`retire` lines count
                                    against --queue like events;
                                    --evict-dir spills the least
                                    recently active idle session to disk
                                    instead of refusing OPEN when
                                    --max-sessions is reached (evicted
                                    sessions resume transparently on
                                    next use), and SNAPSHOT <sid> <name>
                                    / RESUME <sid> <name> checkpoint a
                                    session to DIR/<name>.snap and
                                    resume it warm (names are letters,
                                    digits, `-`, `_`; without
                                    --evict-dir both answer ERR);
                                    --window N bounds each
                                    session's frontier memory; stops on
                                    SHUTDOWN
  smc loadgen --addr HOST:PORT [--sessions N] [--events N] [--conns C]
            [--query-every K] [--memory NAME] [--seed S] [--verify]
            [--model NAME] [--max-states N] [--shutdown] [--json PATH]
            [--procs N] [--locs L] [--values V | --alias-values K]
                                    drive a running `smc serve` with
                                    generated multi-session traffic
                                    (default 1024 sessions of 64 tso
                                    events over 8 connections, a QUERY
                                    every 32 events) and report events/sec
                                    and QUERY latency percentiles;
                                    --verify diffs final verdicts
                                    against the offline monitor (give it
                                    the server's --model and --max-states),
                                    --shutdown stops the server after;
                                    --procs, --locs, --values and
                                    --alias-values shape each session's
                                    trace as in `trace gen`
  smc trace gen [--memory NAME] [--procs N] [--ops N | --events N]
            [--locs L] [--values V | --alias-values K] [--seed S]
            [--sessions N] [--churn K] [--out PATH]
                                    run a random program on an operational
                                    machine and emit its arrival-order
                                    event stream in the trace format;
                                    --ops sizes per processor, --events
                                    fixes the total event count (the
                                    stream is cut to exactly N events);
                                    --alias-values folds fresh write
                                    values into a K-letter alphabet so
                                    reads-from stays heavily ambiguous;
                                    --sessions N interleaves N
                                    independent streams with @sid
                                    prefixes (the `smc serve` format);
                                    --churn K runs K+1 processor
                                    generations joined and retired over
                                    one stream (`join`/`retire` lines,
                                    for the monitor's churn folding)
  smc trace from <file> [--test NAME] [--out PATH]
                                    linearize a litmus history into the
                                    trace format (processor-major order)
  smc models                        list available models and machines

--jobs N runs checks on N worker threads (default 1; results are
reported in the same order as sequential checking). With more workers
than (history, model) pairs, the workers move inside each check: a
check that does not decide within a 4096-node sequential probe runs one
layer of its enumeration side by side, the reads-from assignments, TSO
store orders, or PRAM-like per-processor views. One search is never
split, so SC, Coherent, PCG and Hybrid checks stay sequential.

--engine picks the checking backend: `exhaustive` enumerates schedules,
`saturate` decides by order-constraint propagation (no enumeration; it
handles unlabeled models without release-consistency or fence structure
and scales to 100-1000-op histories), `auto` (the default) saturates
when the model is supported and the history is big enough to repay it
(more than 16 operations for models with a global store order or
coherence, more than 32 for structure-free models like SC and PRAM),
else stays exhaustive.

memories for --memory: sc tso tso-fwd pram causal pc coherent rcsc rcpc wo hybrid";

/// The flags the checking subcommands share (see [`CheckFlags`]).
const CHECKING: &str = "--jobs N --engine exhaustive|saturate|auto --memo-file PATH";

type Command = fn(&Args) -> Result<ExitCode, String>;

/// Every subcommand with its flag table, in synopsis form (see
/// [`Args::parse`]); `USAGE` documents exactly these flags.
const COMMANDS: &[(&str, &[&str], Command)] = &[
    ("check", CHECK_FLAGS, cmd_check),
    ("corpus", CORPUS_FLAGS, cmd_corpus),
    ("matrix", MATRIX_FLAGS, cmd_matrix),
    ("explore", EXPLORE_FLAGS, cmd_explore),
    ("bakery", BAKERY_FLAGS, cmd_bakery),
    ("separate", SEPARATE_FLAGS, cmd_separate),
    ("monitor", MONITOR_FLAGS, cmd_monitor),
    ("serve", SERVE_FLAGS, cmd_serve),
    ("loadgen", LOADGEN_FLAGS, cmd_loadgen),
    ("trace", TRACE_FLAGS, cmd_trace),
    ("models", &[], cmd_models),
];

/// Dispatch on the first argument.
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let sub = match args.first().map(String::as_str) {
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            return Ok(ExitCode::SUCCESS);
        }
        Some(sub) => sub,
        None => return Err("missing subcommand".into()),
    };
    let (_, table, command) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == sub)
        .ok_or_else(|| format!("unknown subcommand `{sub}`"))?;
    command(&Args::parse(&args[1..], table)?)
}

/// The usage to print after an error in subcommand `sub`: its own
/// blocks of `USAGE`, or all of it when `sub` names no subcommand.
pub fn usage_for(sub: Option<&str>) -> String {
    match sub.map(usage_blocks) {
        Some(blocks) if !blocks.is_empty() => format!("usage:\n{blocks}"),
        _ => USAGE.to_owned(),
    }
}

/// The `USAGE` blocks of subcommand `sub`: each synopsis line naming it,
/// with the lines under it up to the next synopsis or blank line.
fn usage_blocks(sub: &str) -> String {
    let head = format!("  smc {sub} ");
    let mut inside = false;
    let lines: Vec<&str> = USAGE
        .lines()
        .filter(|line| {
            if line.is_empty() || line.starts_with("  smc ") {
                inside = format!("{line} ").starts_with(&head);
            }
            inside
        })
        .collect();
    lines.join("\n")
}

/// Print `text` (a history, witness or counterexample) indented under
/// the line before it.
fn print_indented(text: &dyn std::fmt::Display) {
    for line in text.to_string().lines() {
        println!("    {line}");
    }
}

/// Read a litmus file, under [`MAX_LITMUS_BYTES`].
fn read_file(path: &str) -> Result<String, String> {
    let bytes = smc_core::binfmt::read_file(std::path::Path::new(path), MAX_LITMUS_BYTES)
        .map_err(|e| format!("cannot read `{path}`: {e}"))?;
    String::from_utf8(bytes).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// Parse a file as a suite if it contains `test` blocks, else as a bare
/// history wrapped in an anonymous test.
fn load(path: &str) -> Result<Vec<LitmusTest>, String> {
    let text = read_file(path)?;
    let looks_like_suite = text
        .lines()
        .map(str::trim_start)
        .any(|l| l.starts_with("test"));
    if looks_like_suite {
        parse_suite(&text).map_err(|e| e.to_string())
    } else {
        let history = parse_history(&text).map_err(|e| e.to_string())?;
        Ok(vec![LitmusTest {
            name: path.to_owned(),
            description: String::new(),
            history,
            expectations: Vec::new(),
        }])
    }
}

/// The models `--model NAME` selects: that one model, or all of `every`
/// when the flag is absent or `all`.
fn resolve_models(
    selector: Option<&str>,
    every: fn() -> Vec<ModelSpec>,
) -> Result<Vec<ModelSpec>, String> {
    match selector {
        None | Some("all") => Ok(every()),
        Some(name) => Ok(vec![model_named(name)?]),
    }
}

fn model_named(name: &str) -> Result<ModelSpec, String> {
    models::by_name(name).ok_or_else(|| format!("unknown model `{name}` (try `smc models`)"))
}

/// Parse `--jobs N` (default 1 = sequential).
fn jobs_flag(args: &Args) -> Result<usize, String> {
    Ok(args.positive("--jobs")?.unwrap_or(1))
}

fn exit_status(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The ` [N jobs]` suffix of a summary line (empty when sequential).
fn jobs_suffix(jobs: usize) -> String {
    if jobs > 1 {
        format!(" [{jobs} jobs]")
    } else {
        String::new()
    }
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))
}

/// Write a `--json` report: one JSON object per line.
fn write_json_lines(path: &str, lines: &[String]) -> Result<(), String> {
    write_file(path, &format!("{}\n", lines.join("\n")))
}

fn render_stats(stats: &CheckStats) -> String {
    let mut s = format!(
        "{} nodes, {} rf assignment(s), {:.1?}",
        stats.nodes_spent, stats.rf_assignments_tried, stats.wall
    );
    if stats.rf_truncated {
        s.push_str(", rf truncated");
    }
    // Cutover decision: `ran_sequential` means the check answered without
    // spawning workers (jobs 1, a shape with nothing to fan out, or the
    // bounded probe decided). A non-zero
    // probe count without it means the probe exhausted and workers were
    // spawned anyway. Plain sequential runs take no cutover decision, so
    // print nothing for them.
    if stats.ran_sequential {
        if stats.probe_nodes > 0 {
            s.push_str(&format!(
                ", ran sequential (cutover probe: {} nodes)",
                stats.probe_nodes
            ));
        } else {
            s.push_str(", ran sequential");
        }
    } else if stats.probe_nodes > 0 {
        s.push_str(&format!(
            ", cutover probe exhausted ({} nodes), fanned out",
            stats.probe_nodes
        ));
    }
    // The engine line only matters when the saturation backend ran; the
    // exhaustive engine is the default and its saturation counters are
    // structurally zero.
    if stats.engine_used == Engine::Saturate {
        s.push_str(&format!(
            ", engine saturate ({} closure steps, {} branches, {} wakeups, \
             {} conflicts, {} learned, {} restarts)",
            stats.saturation_steps,
            stats.saturation_branches,
            stats.saturation_wakeups,
            stats.saturation_conflicts,
            stats.saturation_learned,
            stats.saturation_restarts
        ));
    }
    if let Some(stage) = stats.exhausted_stage {
        s.push_str(&format!(", exhausted in {stage}"));
    }
    s
}

/// Check every (test × model) pair of a suite on `jobs` threads; results
/// come back indexed test-major, matching the sequential print order.
/// With more workers than pairs, batch-level fan-out would leave threads
/// idle, so the workers move *inside* each check instead
/// ([`smc_core::batch::check_parallel`] runs its independent searches
/// side by side).
fn check_suite(
    suite: &[LitmusTest],
    model_list: &[ModelSpec],
    cfg: &CheckConfig,
    jobs: usize,
) -> Vec<BatchResult> {
    let pairs: Vec<(&History, &ModelSpec)> = suite
        .iter()
        .flat_map(|t| model_list.iter().map(move |m| (&t.history, m)))
        .collect();
    if jobs > 1 && pairs.len() < jobs {
        return pairs
            .iter()
            .enumerate()
            .map(|(index, (h, m))| {
                let (verdict, stats) = smc_core::batch::check_parallel(h, m, cfg, jobs);
                BatchResult {
                    index,
                    verdict,
                    stats,
                }
            })
            .collect();
    }
    check_batch(&pairs, cfg, jobs)
}

/// Parse `--engine exhaustive|saturate|auto` (default auto).
fn engine_flag(args: &Args) -> Result<EngineKind, String> {
    match args.value("--engine") {
        None | Some("auto") => Ok(EngineKind::Auto),
        Some("exhaustive") => Ok(EngineKind::Exhaustive),
        Some("saturate") => Ok(EngineKind::Saturate),
        Some(other) => Err(format!(
            "--engine: `{other}` is not `exhaustive`, `saturate` or `auto`"
        )),
    }
}

/// The `CHECKING` flags the checking subcommands (`check`, `corpus`,
/// `matrix`, `separate`, `monitor`) share, parsed in one place so the
/// commands cannot drift apart in spelling, defaults or error messages.
struct CheckFlags<'a> {
    jobs: usize,
    engine: EngineKind,
    memo_file: Option<&'a str>,
}

impl<'a> CheckFlags<'a> {
    fn parse(args: &Args<'a>) -> Result<Self, String> {
        Ok(CheckFlags {
            jobs: jobs_flag(args)?,
            engine: engine_flag(args)?,
            memo_file: args.value("--memo-file"),
        })
    }

    /// `base` with the parsed engine, and with a memo cache when `memo`
    /// is set or `--memo-file` names one (loaded from it).
    fn config(&self, base: CheckConfig, memo: bool) -> CheckConfig {
        let mut cfg = CheckConfig {
            engine: self.engine,
            ..base
        };
        if memo || self.memo_file.is_some() {
            cfg = cfg.with_memo();
        }
        memo_file_load(&cfg, self.memo_file);
        cfg
    }
}

/// Load `--memo-file` into `cfg`'s cache if the flag is present. A
/// missing file is a cold start; a corrupt or mismatched file is ignored
/// with a warning — persistence must never fail a check.
fn memo_file_load(cfg: &CheckConfig, path: Option<&str>) {
    let (Some(path), Some(memo)) = (path, &cfg.memo) else {
        return;
    };
    if !std::path::Path::new(path).exists() {
        return;
    }
    match memo.load(std::path::Path::new(path)) {
        Ok(n) => eprintln!("memo: loaded {n} cached verdict(s) from {path}"),
        Err(e) => eprintln!("warning: ignoring memo file: {e}"),
    }
}

/// Save `cfg`'s cache back to `--memo-file`, if the flag is present.
fn memo_file_save(cfg: &CheckConfig, path: Option<&str>) {
    let (Some(path), Some(memo)) = (path, &cfg.memo) else {
        return;
    };
    match memo.save(std::path::Path::new(path)) {
        Ok(n) => eprintln!("memo: saved {n} cached verdict(s) to {path}"),
        Err(e) => eprintln!("warning: could not save memo file `{path}`: {e}"),
    }
}

const CHECK_FLAGS: &[&str] = &["--model NAME --stats", CHECKING];

fn cmd_check(args: &Args) -> Result<ExitCode, String> {
    let path = args.operands().first().ok_or("check: missing <file>")?;
    let model_list = resolve_models(args.value("--model"), models::all_models)?;
    let flags = CheckFlags::parse(args)?;
    let jobs = flags.jobs;
    let show_stats = args.switch("--stats");
    let cfg = flags.config(CheckConfig::default(), false);
    let suite = load(path)?;
    let results = check_suite(&suite, &model_list, &cfg, jobs);
    memo_file_save(&cfg, flags.memo_file);
    let mut failures = 0;
    for (ti, t) in suite.iter().enumerate() {
        println!("== {} ==", t.name);
        print_indented(&t.history);
        for (mi, m) in model_list.iter().enumerate() {
            let r = &results[ti * model_list.len() + mi];
            let v = &r.verdict;
            let cell = match v {
                Verdict::Allowed(_) => "allowed".to_owned(),
                Verdict::Disallowed => "forbidden".to_owned(),
                Verdict::Exhausted => "undecided (budget)".to_owned(),
                Verdict::Unsupported(e) => format!("unsupported: {e}"),
            };
            let expect = t.expectation(&m.name);
            let marker = match (expect, v.decided()) {
                (Some(e), Some(g)) if e == g => "  [expected]",
                (Some(_), _) => {
                    failures += 1;
                    "  [MISMATCH]"
                }
                _ => "",
            };
            println!("  {:<16} {cell}{marker}", m.name);
            if show_stats {
                println!("                   ({})", render_stats(&r.stats));
            }
            if model_list.len() == 1 {
                match v {
                    Verdict::Allowed(w) => {
                        for (p, view) in w.views.iter().enumerate() {
                            println!("    {}", format_view(&t.history, ProcId(p as u32), view));
                        }
                    }
                    Verdict::Disallowed => {
                        if let Some(cert) = smc_core::explain::explain_disallowed(&t.history, m) {
                            println!("    {}", cert.render(&t.history));
                        }
                    }
                    _ => {}
                }
            }
        }
        println!();
    }
    if failures > 0 {
        eprintln!("{failures} expectation(s) failed");
    }
    Ok(exit_status(failures == 0))
}

/// The `--stats` memo-counter line.
fn memo_line(s: &MemoStats) -> String {
    format!(
        "memo: {} hits, {} misses, {} inserts, {} evictions",
        s.hits, s.misses, s.inserts, s.evictions
    )
}

fn memo_json(memo: &MemoStats) -> String {
    JsonObject::new()
        .num("hits", memo.hits)
        .num("misses", memo.misses)
        .num("inserts", memo.inserts)
        .num("evictions", memo.evictions)
        .finish()
}

fn verdict_word(v: &Verdict) -> &'static str {
    match v {
        Verdict::Allowed(_) => "allowed",
        Verdict::Disallowed => "forbidden",
        Verdict::Exhausted => "exhausted",
        Verdict::Unsupported(_) => "unsupported",
    }
}

/// A verdict as one cell of a classification matrix.
fn matrix_cell(v: &Verdict) -> &'static str {
    match v {
        Verdict::Allowed(_) => "yes",
        Verdict::Disallowed => "no",
        Verdict::Exhausted => "?",
        Verdict::Unsupported(_) => "n/a",
    }
}

const CORPUS_FLAGS: &[&str] = &["--stats --json PATH --exhaustive", CHECKING];

fn cmd_corpus(args: &Args) -> Result<ExitCode, String> {
    let flags = CheckFlags::parse(args)?;
    let jobs = flags.jobs;
    let show_stats = args.switch("--stats");
    let json_path = args.value("--json");
    if args.switch("--exhaustive") {
        return corpus_exhaustive(jobs, show_stats, json_path);
    }
    // Decided verdicts are renaming-invariant, so the memo is safe here:
    // expectations compare only allowed/forbidden, never the witness.
    let cfg = flags.config(CheckConfig::default(), true);
    let memo = cfg.memo.clone().expect("with_memo attaches a cache");
    let suite = smc_programs::corpus::litmus_suite();
    let model_list = models::all_models();
    let results = check_suite(&suite, &model_list, &cfg, jobs);
    memo_file_save(&cfg, flags.memo_file);
    let mut failures = 0;
    let mut checked = 0;
    let mut nodes = 0u64;
    let mut json_lines: Vec<String> = Vec::new();
    for (ti, t) in suite.iter().enumerate() {
        for (mi, m) in model_list.iter().enumerate() {
            let r = &results[ti * model_list.len() + mi];
            nodes += r.stats.nodes_spent;
            if json_path.is_some() {
                json_lines.push(
                    JsonObject::new()
                        .str("test", &t.name)
                        .str("model", &m.name)
                        .str("verdict", verdict_word(&r.verdict))
                        .num("nodes", r.stats.nodes_spent)
                        .num("rf_tried", r.stats.rf_assignments_tried as u64)
                        .num("wall_us", r.stats.wall.as_micros() as u64)
                        .bool("memo_hit", r.stats.memo_hit)
                        .bool("ran_sequential", r.stats.ran_sequential)
                        .num("probe_nodes", r.stats.probe_nodes)
                        .str("engine", &r.stats.engine_used.to_string())
                        .num("saturation_steps", r.stats.saturation_steps)
                        .num("saturation_branches", r.stats.saturation_branches)
                        .num("saturation_wakeups", r.stats.saturation_wakeups)
                        .num("saturation_conflicts", r.stats.saturation_conflicts)
                        .num("saturation_learned", r.stats.saturation_learned)
                        .num("saturation_restarts", r.stats.saturation_restarts)
                        .finish(),
                );
            }
            let Some(expected) = t.expectation(&m.name) else {
                continue;
            };
            checked += 1;
            match r.verdict.decided() {
                Some(got) if got == expected => {}
                Some(_) => {
                    failures += 1;
                    println!(
                        "MISMATCH {}: {} expected {}, got {}",
                        t.name,
                        m.name,
                        if expected { "allowed" } else { "forbidden" },
                        if expected { "forbidden" } else { "allowed" },
                    );
                }
                None => {
                    failures += 1;
                    println!(
                        "UNDECIDED {}: {} ({})",
                        t.name,
                        m.name,
                        render_stats(&r.stats)
                    );
                }
            }
        }
    }
    let memo_stats = memo.stats();
    if let Some(path) = json_path {
        json_lines.push(
            JsonObject::new()
                .num("tests", suite.len() as u64)
                .num("models", model_list.len() as u64)
                .num("checked", checked as u64)
                .num("failures", failures as u64)
                .num("total_nodes", nodes)
                .raw("memo", &memo_json(&memo_stats))
                .finish(),
        );
        write_json_lines(path, &json_lines)?;
    }
    println!(
        "corpus: {} tests × {} models, {} expectation(s) checked, {} failure(s){}",
        suite.len(),
        model_list.len(),
        checked,
        failures,
        jobs_suffix(jobs)
    );
    if show_stats {
        println!("total search nodes: {nodes}");
        println!("{}", memo_line(&memo_stats));
    }
    Ok(exit_status(failures == 0))
}

/// `smc corpus --exhaustive`: classify the full universe of small
/// histories (2 processors × 2 ops × 2 locations × 1 value) against the
/// Figure 5 models, with the memo table and lattice propagation on. One
/// JSON line per history carries the verdict row, so a checked-in golden
/// file can detect verdict drift between revisions.
fn corpus_exhaustive(
    jobs: usize,
    show_stats: bool,
    json_path: Option<&str>,
) -> Result<ExitCode, String> {
    let params = smc_core::histgen::GenParams {
        procs: 2,
        ops_per_proc: 2,
        locs: 2,
        values: 1,
    };
    let corpus = smc_core::histgen::all_histories(&params);
    let model_list = models::figure5_models();
    let cfg = CheckConfig::default().with_memo();
    let memo = cfg.memo.clone().expect("with_memo attaches a cache");
    let (classifications, prop) =
        smc_core::lattice::classify_all_propagating(&corpus, &model_list, &cfg, jobs);

    let mut undecided = 0usize;
    let mut json_lines: Vec<String> = Vec::new();
    for (hi, c) in classifications.iter().enumerate() {
        if c.allowed.iter().any(Option::is_none) {
            undecided += 1;
        }
        if json_path.is_some() {
            let row: Vec<String> = model_list
                .iter()
                .zip(&c.allowed)
                .map(|(m, a)| {
                    format!(
                        "{}:{}",
                        m.name,
                        match a {
                            Some(true) => "y",
                            Some(false) => "n",
                            None => "?",
                        }
                    )
                })
                .collect();
            json_lines.push(
                JsonObject::new()
                    .num("index", hi as u64)
                    .str("history", &corpus[hi].to_string().replace('\n', "; "))
                    .str("verdicts", &row.join(" "))
                    .finish(),
            );
        }
    }
    let memo_stats = memo.stats();
    if let Some(path) = json_path {
        json_lines.push(
            JsonObject::new()
                .num("histories", corpus.len() as u64)
                .num("models", model_list.len() as u64)
                .num("undecided", undecided as u64)
                .num("checked", prop.checked)
                .num("propagated", prop.propagated)
                .raw("memo", &memo_json(&memo_stats))
                .finish(),
        );
        write_json_lines(path, &json_lines)?;
    }
    println!(
        "exhaustive: {} histories × {} models, {} checked, {} propagated, {} undecided{}",
        corpus.len(),
        model_list.len(),
        prop.checked,
        prop.propagated,
        undecided,
        jobs_suffix(jobs)
    );
    if show_stats {
        println!("{}", memo_line(&memo_stats));
    }
    Ok(exit_status(undecided == 0))
}

const MATRIX_FLAGS: &[&str] = &["--stats", CHECKING];

fn cmd_matrix(args: &Args) -> Result<ExitCode, String> {
    let path = args.operands().first().ok_or("matrix: missing <file>")?;
    let flags = CheckFlags::parse(args)?;
    let jobs = flags.jobs;
    let show_stats = args.switch("--stats");
    let suite = load(path)?;
    let model_list = models::all_models();
    let cfg = flags.config(CheckConfig::default(), show_stats);
    let results = check_suite(&suite, &model_list, &cfg, jobs);
    memo_file_save(&cfg, flags.memo_file);
    let name_w = suite.iter().map(|t| t.name.len()).max().unwrap_or(7).max(7);
    print!("{:<name_w$}", "history");
    for m in &model_list {
        print!(" {:>14}", m.name);
    }
    if show_stats {
        print!(" {:>12}", "nodes");
    }
    println!();
    let mut nodes = 0u64;
    for (ti, t) in suite.iter().enumerate() {
        print!("{:<name_w$}", t.name);
        let mut row_nodes = 0u64;
        for mi in 0..model_list.len() {
            let r = &results[ti * model_list.len() + mi];
            row_nodes += r.stats.nodes_spent;
            print!(" {:>14}", matrix_cell(&r.verdict));
        }
        if show_stats {
            print!(" {row_nodes:>12}");
        }
        nodes += row_nodes;
        println!();
    }
    if show_stats {
        println!("total search nodes: {nodes}");
        if let Some(memo) = &cfg.memo {
            println!("{}", memo_line(&memo.stats()));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Turn a history into the program shape that generated it: per-processor
/// access lists (write values kept, read values ignored).
fn to_script(h: &History) -> OpScript {
    let threads = (0..h.num_procs())
        .map(|p| {
            h.proc_ops(ProcId(p as u32))
                .iter()
                .map(|o| Access {
                    kind: o.kind,
                    loc: o.loc,
                    value: o.value,
                    label: o.label,
                })
                .collect()
        })
        .collect();
    OpScript::new(threads, h.num_locs())
}

const EXPLORE_FLAGS: &[&str] = &["--memory NAME --check --model NAME --jobs N"];

fn cmd_explore(args: &Args) -> Result<ExitCode, String> {
    let path = args.operands().first().ok_or("explore: missing <file>")?;
    let memory = args
        .value("--memory")
        .ok_or("explore: missing --memory NAME")?;
    let jobs = jobs_flag(args)?;
    let tests = load(path)?;
    let t = tests.first().ok_or("explore: file contains no history")?;
    let script = to_script(&t.history);
    let cfg = ExploreConfig::default();
    let (n, l) = (t.history.num_procs(), t.history.num_locs());
    let (mem_name, out) = with_machine!(memory, n, l, |mem| (
        mem.name(),
        explore(&mem, &script, &cfg)
    ))?;
    println!(
        "{}: {} distinct histories over {} states{}{}",
        mem_name,
        out.histories.len(),
        out.states_explored,
        if out.truncated { " (TRUNCATED)" } else { "" },
        if out.bounded { " (bounded)" } else { "" },
    );
    if !args.switch("--check") {
        for h in &out.histories {
            print_indented(h);
            println!();
        }
        return Ok(ExitCode::SUCCESS);
    }

    // --check: classify every explored history against the models, using
    // the batch engine (explored histories come out in a deterministic
    // order, and batch results preserve input order).
    let model_list = resolve_models(args.value("--model"), models::all_models)?;
    let check_cfg = CheckConfig::default();
    let results = smc_core::batch::check_matrix(&out.histories, &model_list, &check_cfg, jobs);
    print!("{:<8}", "");
    for m in &model_list {
        print!(" {:>14}", m.name);
    }
    println!();
    for (hi, h) in out.histories.iter().enumerate() {
        print!("#{hi:<7}");
        for mi in 0..model_list.len() {
            let cell = matrix_cell(&results[hi * model_list.len() + mi].verdict);
            print!(" {cell:>14}");
        }
        println!();
        print_indented(h);
    }
    Ok(ExitCode::SUCCESS)
}

const BAKERY_FLAGS: &[&str] = &["--memory NAME --n N --runs R --show-program"];

fn cmd_bakery(args: &Args) -> Result<ExitCode, String> {
    let n: usize = args.num("--n", 2)?;
    let runs: u64 = args.num("--runs", 1000)?;
    let memory = args.value("--memory").unwrap_or("rcpc");
    let program = bakery(n, Label::Labeled);
    let locs = program.num_locs();
    if args.switch("--show-program") {
        println!("{program}");
    }

    fn trial<M: MemorySystem>(
        mem: M,
        program: &smc_programs::Program,
        runs: u64,
    ) -> (u64, Option<(u64, String, History)>) {
        let mut violations = 0;
        let mut first = None;
        for seed in 0..runs {
            let w = ProgramWorkload::new(program.clone(), 200);
            let r = run_random(mem.clone(), w, seed, 200_000);
            if let Some(v) = r.violation {
                violations += 1;
                if first.is_none() {
                    first = Some((seed, v, r.history));
                }
            }
        }
        (violations, first)
    }

    if !["sc", "tso", "rcsc", "rcpc", "wo", "hybrid"].contains(&memory) {
        return Err(format!("bakery: unsupported memory `{memory}`"));
    }
    let (violations, first) = with_machine!(memory, n, locs, |mem| trial(mem, &program, runs))?;
    println!("Bakery n={n} on {memory}: {violations}/{runs} runs violated mutual exclusion");
    if let Some((seed, msg, history)) = first {
        println!("first violation (seed {seed}): {msg}");
        print_indented(&history);
    }
    Ok(ExitCode::SUCCESS)
}

const SEPARATE_FLAGS: &[&str] = &[
    "--all --no-minimize --max-universe SPEC --json PATH --emit-dir DIR",
    CHECKING,
];

/// `smc separate`: search for model-separation witness histories.
fn cmd_separate(args: &Args) -> Result<ExitCode, String> {
    use smc_core::separate::{DirectionStatus, Separator};

    let model_list: Vec<ModelSpec> = if args.switch("--all") {
        if !args.operands().is_empty() {
            return Err("separate: --all takes no model arguments".into());
        }
        models::lattice_models()
    } else {
        let [a, b] = args.operands()[..] else {
            return Err("separate: expected <model-a> <model-b>, or --all".into());
        };
        let (ma, mb) = (model_named(a)?, model_named(b)?);
        if ma.name == mb.name {
            return Err(format!(
                "`{a}` and `{b}` are both {} — nothing to separate",
                ma.name
            ));
        }
        vec![ma, mb]
    };
    let flags = CheckFlags::parse(args)?;
    let spec = args.value("--max-universe").unwrap_or("medium");
    let universes = smc_core::separate::ladder(spec).map_err(|e| format!("--max-universe: {e}"))?;
    let json_path = args.value("--json");
    let cfg = flags.config(CheckConfig::default(), true);

    let t0 = std::time::Instant::now();
    let mut sep = Separator::new(model_list.clone(), cfg.clone(), flags.jobs);
    let impossible = sep.directions().len() - sep.open_directions();
    println!(
        "separating {} model(s): {} direction(s) to decide, {} impossible by known inclusions",
        model_list.len(),
        sep.open_directions(),
        impossible
    );
    for u in &universes {
        if sep.open_directions() == 0 {
            break;
        }
        println!(
            "universe {:>7}: {} histories (~{} symmetry classes), {} direction(s) open",
            u.label(),
            u.universe_size(),
            u.reduced_universe_estimate(),
            sep.open_directions()
        );
        let resolved = sep.run_universe(u);
        if resolved > 0 {
            println!("    -> {resolved} direction(s) witnessed");
        }
    }
    if !args.switch("--no-minimize") {
        sep.minimize_found();
    }
    memo_file_save(&cfg, flags.memo_file);
    let wall = t0.elapsed();
    let last_label = universes.last().map_or_else(String::new, |u| u.label());

    println!();
    let mut found = 0usize;
    let mut json_lines: Vec<String> = Vec::new();
    for d in sep.directions() {
        let a = &model_list[d.admits].name;
        let r = &model_list[d.refutes].name;
        let mut line = JsonObject::new().str("admits", a).str("refutes", r);
        match &d.status {
            DirectionStatus::Impossible => {
                println!(
                    "{a} ⊆ {r} is a known inclusion — no {a}-admits/{r}-refutes witness can exist"
                );
                line = line.str("status", "impossible");
            }
            DirectionStatus::Open => {
                println!(
                    "{a} admits / {r} refutes: no witness up to {last_label} (consistent with {a} ⊆ {r})"
                );
                line = line.str("status", "open");
            }
            DirectionStatus::Found(w) => {
                found += 1;
                println!(
                    "{a} admits / {r} refutes: witness in {} (index {}{}):",
                    w.universe.label(),
                    w.index,
                    if w.minimized { ", minimized" } else { "" }
                );
                print_indented(&w.history);
                line = line
                    .str("status", "found")
                    .str("universe", &w.universe.label())
                    .num("index", w.index)
                    .num("ops", w.history.num_ops() as u64)
                    .str("witness", &w.history.to_string());
            }
        }
        json_lines.push(line.finish());
    }
    if model_list.len() == 2 {
        let status = |admits: usize, refutes: usize| {
            &sep.directions()
                .iter()
                .find(|d| d.admits == admits && d.refutes == refutes)
                .expect("pair directions exist")
                .status
        };
        let ab = matches!(status(0, 1), DirectionStatus::Found(_));
        let ba = matches!(status(1, 0), DirectionStatus::Found(_));
        let (a, b) = (&model_list[0].name, &model_list[1].name);
        println!();
        match (ab, ba) {
            (true, true) => println!("=> {a} and {b} are incomparable: each admits a history the other refutes"),
            (false, true) => println!("=> {a} is strictly stronger than {b} on the searched universes ({a} ⊆ {b}, and {b} admits a history {a} refutes)"),
            (true, false) => println!("=> {b} is strictly stronger than {a} on the searched universes ({b} ⊆ {a}, and {a} admits a history {b} refutes)"),
            (false, false) => println!("=> {a} and {b} are indistinguishable up to {last_label}"),
        }
    }

    let st = sep.stats;
    println!(
        "\nscanned {} histories ({} skipped by form, {} unexplainable) -> {} classes ({} repeat encounters), {} checks + {} propagated, {} undecided in {:.1?}{}",
        st.enumerated,
        st.skipped_form,
        st.skipped_unexplainable,
        st.classes,
        st.class_hits,
        st.checked,
        st.propagated,
        st.undecided,
        wall,
        jobs_suffix(flags.jobs)
    );

    if let Some(path) = json_path {
        json_lines.push(
            JsonObject::new()
                .num("models", model_list.len() as u64)
                .num("directions", sep.directions().len() as u64)
                .num("found", found as u64)
                .num("enumerated", st.enumerated)
                .num("skipped_form", st.skipped_form)
                .num("skipped_unexplainable", st.skipped_unexplainable)
                .num("classes", st.classes)
                .num("class_hits", st.class_hits)
                .num("checked", st.checked)
                .num("propagated", st.propagated)
                .num("undecided", st.undecided)
                .num("wall_ms", wall.as_millis() as u64)
                .finish(),
        );
        write_json_lines(path, &json_lines)?;
    }

    if let Some(dir) = args.value("--emit-dir") {
        emit_separation_files(dir, &model_list, &sep)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Write each separated pair's witnesses to `<dir>/<a>_vs_<b>.litmus` as
/// litmus tests with `expect` lines for both models.
fn emit_separation_files(
    dir: &str,
    model_list: &[ModelSpec],
    sep: &smc_core::separate::Separator,
) -> Result<(), String> {
    use smc_core::separate::DirectionStatus;
    use smc_history::litmus::emit_litmus_test;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
    for a in 0..model_list.len() {
        for b in a + 1..model_list.len() {
            let mut text = String::new();
            for d in sep.directions() {
                let pair = (d.admits == a && d.refutes == b) || (d.admits == b && d.refutes == a);
                let DirectionStatus::Found(w) = &d.status else {
                    continue;
                };
                if !pair {
                    continue;
                }
                let adm = &model_list[d.admits].name;
                let rfu = &model_list[d.refutes].name;
                let t = LitmusTest {
                    name: format!("{}_not_{}", adm.to_lowercase(), rfu.to_lowercase()),
                    description: format!(
                        "{adm} admits, {rfu} refutes (found by smc separate in {})",
                        w.universe.label()
                    ),
                    history: w.history.clone(),
                    expectations: vec![(adm.clone(), true), (rfu.clone(), false)],
                };
                text.push_str(&emit_litmus_test(&t));
                text.push('\n');
            }
            if text.is_empty() {
                continue;
            }
            let path = format!(
                "{dir}/{}_vs_{}.litmus",
                model_list[a].name.to_lowercase(),
                model_list[b].name.to_lowercase()
            );
            let header = "# Machine-found separation witnesses; regenerate with\n\
                          #     smc separate --all --emit-dir litmus/separations\n\n";
            write_file(&path, &format!("{header}{text}"))?;
            println!("wrote {path}");
        }
    }
    Ok(())
}

/// Per-stream monitoring state for `smc monitor`: one incremental
/// monitor plus the parsed input it has not been fed yet. A plain
/// replay uses one stream; a `@sid`-prefixed multi-session trace (the
/// `smc serve` wire format) gets one per session id.
struct MonitorStream {
    /// Session id for `@sid` streams; `None` for the unprefixed stream.
    label: Option<String>,
    mon: smc_monitor::Monitor,
    /// Parsed lines not yet fed: events, lifecycle lines and names.
    pending: smc_history::trace::Trace,
    /// Events fed from this run's input.
    fed: usize,
    prev: Vec<smc_monitor::TriVerdict>,
    warnings: usize,
}

impl MonitorStream {
    fn new(label: Option<String>, mon: smc_monitor::Monitor) -> MonitorStream {
        MonitorStream {
            label,
            prev: mon.verdicts().to_vec(),
            mon,
            pending: smc_history::trace::Trace::new(),
            fed: 0,
            warnings: 0,
        }
    }

    /// A `--json` line, tagged with the session id in a multi-session
    /// replay.
    fn json(&self) -> JsonObject {
        let line = JsonObject::new();
        match &self.label {
            Some(sid) => line.str("session", sid),
            None => line,
        }
    }

    /// Printed-line prefix identifying the session in a multi-session
    /// replay (empty for the default stream).
    fn tag(&self) -> String {
        match &self.label {
            Some(sid) => format!("[session {sid}] "),
            None => String::new(),
        }
    }

    /// Warn that an input line was skipped, and count it.
    fn skip_line(&mut self, e: &TraceError, want_json: bool, json_lines: &mut Vec<String>) {
        self.warnings += 1;
        eprintln!("warning: {}skipping malformed trace input: {e}", self.tag());
        if want_json {
            json_lines.push(
                self.json()
                    .num("skipped_line", e.line as u64)
                    .str("error", &e.to_string())
                    .finish(),
            );
        }
    }

    /// Feed the next `batch` pending events — with the lifecycle lines
    /// and names that came before them — as one monitor step, and
    /// report it. A step without events reports nothing.
    fn step(
        &mut self,
        models: &[ModelSpec],
        batch: usize,
        show_stats: bool,
        want_json: bool,
        json_lines: &mut Vec<String>,
    ) {
        let front = self.pending.split_front(batch);
        let rep = self.mon.feed_trace(&front);
        if front.is_empty() {
            return;
        }
        let what = match front.events() {
            [ev] => front.format_event(ev),
            evs => format!("+{} events", evs.len()),
        };
        self.fed += front.len();
        let tag = self.tag();
        if show_stats {
            println!(
                "{tag}#{} {}: frontier {}, created {}, expanded {}, reuse {}, rechecks {}, recheck-nodes {}, propagated {}",
                rep.events,
                what,
                rep.frontier_states,
                rep.created,
                rep.expanded,
                rep.reuse_hits,
                rep.rechecks,
                rep.recheck_nodes,
                rep.propagated
            );
        }
        for (i, now) in self.mon.verdicts().iter().enumerate() {
            if *now != self.prev[i] {
                println!(
                    "{tag}event {}: {} {} -> {}",
                    rep.events,
                    models[i].name,
                    self.prev[i].word(),
                    now.word()
                );
                self.prev[i] = *now;
            }
        }
        if want_json {
            json_lines.push(
                self.json()
                    .num("event", rep.events as u64)
                    .str("op", &what)
                    .num("frontier_states", rep.frontier_states)
                    .num("created", rep.created)
                    .num("expanded", rep.expanded)
                    .num("reuse_hits", rep.reuse_hits)
                    .num("rechecks", rep.rechecks)
                    .num("recheck_nodes", rep.recheck_nodes)
                    .num("propagated", rep.propagated)
                    .finish(),
            );
        }
    }
}

const MONITOR_FLAGS: &[&str] = &[
    "--model NAME --stats --json PATH --max-states N --batch N --window N \
     --checkpoint-file PATH --restore-from PATH",
    CHECKING,
];

/// `smc monitor`: stream a trace through the incremental admission
/// monitor, reporting per-prefix verdicts as events arrive.
fn cmd_monitor(args: &Args) -> Result<ExitCode, String> {
    use smc_history::trace::{is_session_id, parse_trace_line, split_session_line, MAX_LINE};
    use smc_monitor::{Monitor, MonitorConfig, TriVerdict};
    use std::io::{BufRead, Read};

    let flags = CheckFlags::parse(args)?;
    let jobs = flags.jobs;
    let show_stats = args.switch("--stats");
    let json_path = args.value("--json");
    // Feed granularity: --batch N feeds the monitor once per N parsed
    // events, amortizing interning, table growth and restart-model
    // settling over the batch. Verdict transitions and per-step stats
    // then report at batch granularity; final verdicts are identical to
    // per-event feeding.
    let batch: usize = args.positive("--batch")?.unwrap_or(1);

    // Lattice order keeps stronger models first, so one frontier
    // verdict propagates to as many weaker models as possible.
    let model_list = resolve_models(args.value("--model"), models::lattice_models)?;
    let mut cfg = MonitorConfig {
        jobs,
        ..MonitorConfig::default()
    };
    cfg.max_frontier_states = args.num("--max-states", cfg.max_frontier_states)?;
    // --window N seals the decided prefix every N events, bounding
    // frontier memory (0 = unwindowed, the default).
    let window: usize = args.num("--window", 0)?;
    cfg.window = (window > 0).then_some(window);
    cfg.check = flags.config(cfg.check, false);
    // The memo cache is shared by Arc, so this clone saves the verdicts
    // the monitor's rechecks insert while it owns `cfg`.
    let memo_cfg = cfg.check.clone();
    let checkpoint_file = args.value("--checkpoint-file");
    let restore_from = args.value("--restore-from");
    // A restore must resume under the exact configuration the
    // checkpoint was cut with; `Monitor::restore_bytes` rejects mismatched
    // models, frontier caps and window sizes with a byte-offset error.
    // Limits not picked explicitly on this command line inherit the
    // checkpoint's, so `--restore-from` alone resumes any session.
    let base_mon = match restore_from {
        Some(p) => {
            let bytes = smc_core::binfmt::read_file(
                std::path::Path::new(p),
                smc_monitor::ckpt::MAX_CHECKPOINT_BYTES,
            )
            .map_err(|e| format!("cannot read `{p}`: {e}"))?;
            let (cap, win) = smc_monitor::ckpt::peek_limits(&bytes)
                .map_err(|e| format!("monitor: cannot restore `{p}`: {e}"))?;
            if args.value("--max-states").is_none() {
                cfg.max_frontier_states = cap;
            }
            if args.value("--window").is_none() {
                cfg.window = (win > 0).then_some(win);
            }
            let mon = Monitor::restore_bytes(&bytes, model_list.clone(), cfg.clone())
                .map_err(|e| format!("monitor: cannot restore `{p}`: {e}"))?;
            eprintln!("restored {} event(s) from {p}", mon.num_events());
            mon
        }
        None => Monitor::new(model_list.clone(), cfg.clone()),
    };

    let path = args.operands().first().copied().unwrap_or("-");
    let mut reader: Box<dyn BufRead> = if path == "-" {
        Box::new(std::io::BufReader::new(std::io::stdin()))
    } else {
        let f = std::fs::File::open(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        Box::new(std::io::BufReader::new(f))
    };

    // Lines are parsed into the owning stream's pending trace, which
    // feeds its monitor whenever `batch` events are pending; a
    // malformed line warns (with its byte offset into the stream, and
    // its session id in a `@sid` multi-session replay) and is skipped,
    // keeping any events parsed before the offending token. A line is
    // read up to `MAX_LINE` bytes and its newline, so a longer one is
    // never buffered whole: it is skipped with a warning too, as is a
    // line that is not UTF-8 (at the offset of its first invalid byte).
    let want_json = json_path.is_some();
    let mut streams: Vec<MonitorStream> = vec![MonitorStream::new(None, base_mon)];
    let (mut line_no, mut offset) = (0usize, 0usize);
    let mut json_lines: Vec<String> = Vec::new();
    let mut buf = Vec::new();
    let read_err = |e: std::io::Error| format!("read error on `{path}`: {e}");
    loop {
        buf.clear();
        let n = (&mut reader)
            .take(MAX_LINE as u64 + 1)
            .read_until(b'\n', &mut buf)
            .map_err(read_err)?;
        if n == 0 {
            break;
        }
        line_no += 1;
        let start = offset;
        offset += n;
        // An over-long line, or one that is not UTF-8, cannot be routed
        // to a session, so the default stream counts it.
        let read = if buf.len() > MAX_LINE && !buf.ends_with(b"\n") {
            offset += reader.skip_until(b'\n').map_err(read_err)?;
            Err((0, format!("line longer than {MAX_LINE} bytes")))
        } else {
            std::str::from_utf8(&buf).map_err(|e| (e.valid_up_to(), "invalid utf-8".to_owned()))
        };
        let line = match read {
            Ok(line) => line,
            Err((at, message)) => {
                let e = TraceError {
                    line: line_no,
                    offset: start + at,
                    message,
                };
                streams[0].skip_line(&e, want_json, &mut json_lines);
                continue;
            }
        };
        // As `BufRead::lines` does: drop a trailing `\n` or `\r\n`.
        let line = line
            .strip_suffix('\n')
            .map_or(line, |l| l.strip_suffix('\r').unwrap_or(l));
        // Route `@sid` lines to their session's monitor; everything
        // else belongs to the default (unprefixed) stream.
        let (idx, content, content_off) = match split_session_line(line) {
            Some((sid, rest)) if is_session_id(sid) => {
                if checkpoint_file.is_some() || restore_from.is_some() {
                    return Err(
                        "monitor: --checkpoint-file/--restore-from work on single-session \
                         streams (no `@sid` prefixes)"
                            .into(),
                    );
                }
                let idx = match streams.iter().position(|s| s.label.as_deref() == Some(sid)) {
                    Some(i) => i,
                    None => {
                        streams.push(MonitorStream::new(
                            Some(sid.to_owned()),
                            Monitor::new(model_list.clone(), cfg.clone()),
                        ));
                        streams.len() - 1
                    }
                };
                // `rest` slices `line`, so pointer distance is the
                // prefix width the reported byte offset must skip.
                let skip = rest.as_ptr() as usize - line.as_ptr() as usize;
                (idx, rest, start + skip)
            }
            _ => (0, line, start),
        };
        let s = &mut streams[idx];
        if let Err(e) = parse_trace_line(&mut s.pending, content, line_no, content_off) {
            s.skip_line(&e, want_json, &mut json_lines);
        }
        while s.pending.len() >= batch {
            s.step(&model_list, batch, show_stats, want_json, &mut json_lines);
        }
    }
    // End of input: whatever is pending goes down as a last step, so
    // trailing lifecycle lines and headers reach the monitor too.
    for s in &mut streams {
        s.step(&model_list, batch, show_stats, want_json, &mut json_lines);
    }

    if let Some(p) = checkpoint_file {
        let s = &streams[0];
        smc_core::binfmt::write_file(std::path::Path::new(p), &s.mon.checkpoint_bytes())
            .map_err(|e| format!("cannot write `{p}`: {e}"))?;
        eprintln!("checkpointed {} event(s) to {p}", s.mon.num_events());
    }

    // In a multi-session replay an untouched default stream is just an
    // artifact of pre-creating it; don't report an empty block for it.
    let multi = streams.len() > 1;
    let report: Vec<&MonitorStream> = streams
        .iter()
        .filter(|s| !multi || s.label.is_some() || s.mon.num_events() > 0 || s.warnings > 0)
        .collect();
    let mut violated = 0usize;
    for s in &report {
        println!();
        if let Some(sid) = &s.label {
            println!("== session {sid} ==");
        }
        for (i, m) in model_list.iter().enumerate() {
            let v = s.mon.verdicts()[i];
            let note = match (v, s.mon.first_violation(i)) {
                (TriVerdict::Violated, Some(n)) => {
                    violated += 1;
                    format!("  (first violated at event {n})")
                }
                (_, Some(n)) => format!("  (transient violation at event {n}, healed)"),
                _ => String::new(),
            };
            println!("  {:<16} {}{note}", m.name, v.word());
            if want_json {
                let mut line = s.json().str("model", &m.name).str("verdict", v.word());
                if let Some(n) = s.mon.first_violation(i) {
                    line = line.num("first_violation", n as u64);
                }
                json_lines.push(line.finish());
            }
        }
        if let Some(w) = s.mon.windows() {
            println!(
                "  windows: {} sealed ({} frontier states retired)",
                w.windows_sealed, w.states_sealed
            );
            if show_stats {
                for (wi, rec) in w.records().iter().enumerate() {
                    let row: Vec<String> = model_list
                        .iter()
                        .zip(&rec.verdicts)
                        .map(|(m, v)| format!("{} {}", m.name, v.word()))
                        .collect();
                    println!(
                        "    window {} @ event {}: {}",
                        wi + 1,
                        rec.end,
                        row.join(", ")
                    );
                }
            }
            if want_json {
                for (wi, rec) in w.records().iter().enumerate() {
                    let row: Vec<String> = model_list
                        .iter()
                        .zip(&rec.verdicts)
                        .map(|(m, v)| format!("{}:{}", m.name, v.word()))
                        .collect();
                    json_lines.push(
                        s.json()
                            .num("window", (wi + 1) as u64)
                            .num("end", rec.end as u64)
                            .str("verdicts", &row.join(" "))
                            .finish(),
                    );
                }
            }
        }
        // Minimized counterexamples only for models that end violated;
        // a healed transient is already noted above.
        for (i, _) in model_list.iter().enumerate() {
            if s.mon.verdicts()[i] != TriVerdict::Violated {
                continue;
            }
            if let Some(rep) = s.mon.violation_report(i) {
                println!(
                    "\n{}{} violated by the {}-event prefix; minimal counterexample:",
                    s.tag(),
                    rep.model,
                    rep.prefix_len
                );
                print_indented(&rep.litmus);
            }
        }
    }

    let mut fed = 0usize;
    let mut warnings = 0usize;
    let mut totals = smc_monitor::StepReport::default();
    for s in &report {
        fed += s.fed;
        warnings += s.warnings;
        totals.absorb(s.mon.totals());
    }
    println!(
        "\n{fed} event(s), {warnings} malformed line(s) skipped; frontier: {} created, {} expanded, {} reuse ({} rebuild); rechecks {} ({} nodes), propagated {}",
        totals.created,
        totals.expanded,
        totals.reuse_hits,
        totals.rebuild_work,
        totals.rechecks,
        totals.recheck_nodes,
        totals.propagated
    );
    if totals.joins + totals.retires + totals.folds > 0 {
        println!(
            "lifecycle: {} join(s), {} retire(s), {} fold(s)",
            totals.joins, totals.retires, totals.folds
        );
    }
    if let Some(path) = json_path {
        json_lines.push(
            JsonObject::new()
                .num("events", fed as u64)
                .num("warnings", warnings as u64)
                .num("skipped_lines", warnings as u64)
                .num("models", model_list.len() as u64)
                .num("sessions", report.len() as u64)
                .num("violated", violated as u64)
                .num("created", totals.created)
                .num("expanded", totals.expanded)
                .num("reuse_hits", totals.reuse_hits)
                .num("rebuild_work", totals.rebuild_work)
                .num("rechecks", totals.rechecks)
                .num("recheck_nodes", totals.recheck_nodes)
                .num("propagated", totals.propagated)
                .num("joins", totals.joins)
                .num("retires", totals.retires)
                .num("folds", totals.folds)
                .num("windows_sealed", totals.windows_sealed)
                .num("states_sealed", totals.states_sealed)
                .finish(),
        );
        write_json_lines(path, &json_lines)?;
    }
    memo_file_save(&memo_cfg, flags.memo_file);
    Ok(exit_status(violated == 0))
}

const SERVE_FLAGS: &[&str] = &[
    "--listen ADDR --workers N --max-sessions N --max-conns N --queue N --model NAME --jobs N \
     --max-states N --window N --evict-dir DIR",
];

/// `smc serve`: run the multi-session streaming admission server until
/// a client sends `SHUTDOWN`.
fn cmd_serve(args: &Args) -> Result<ExitCode, String> {
    let mut cfg = smc_serve::ServeConfig::default();
    if let Some(a) = args.value("--listen") {
        cfg.addr = a.to_owned();
    }
    cfg.workers = args.num("--workers", cfg.workers)?;
    cfg.max_sessions = args.num("--max-sessions", cfg.max_sessions)?;
    cfg.max_conns = args.num("--max-conns", cfg.max_conns)?;
    cfg.queue_cap = args.positive("--queue")?.unwrap_or(cfg.queue_cap);
    // Lattice order, so frontier verdicts propagate maximally.
    cfg.models = resolve_models(args.value("--model"), models::lattice_models)?;
    cfg.monitor.jobs = jobs_flag(args)?;
    cfg.monitor.max_frontier_states = args.num("--max-states", cfg.monitor.max_frontier_states)?;
    let window: usize = args.num("--window", 0)?;
    cfg.monitor.window = (window > 0).then_some(window);
    cfg.evict_dir = args.value("--evict-dir").map(std::path::PathBuf::from);
    let server = smc_serve::Server::start(cfg).map_err(|e| format!("serve: {e}"))?;
    println!("listening on {}", server.addr());
    // Scripts wait for this line before connecting; a redirected stdout
    // is block-buffered, so push it out now.
    std::io::Write::flush(&mut std::io::stdout()).ok();
    server.wait();
    println!("server stopped");
    Ok(ExitCode::SUCCESS)
}

/// Print a load-generator run's summary line, and write it as JSON to
/// `--json` if given.
fn report_traffic(
    args: &Args,
    report: &smc_serve::loadgen::LoadgenReport,
    verified: Option<usize>,
) -> Result<(), String> {
    let human = format!(
        "{} session(s), {} event(s) in {:.2}s: {:.0} events/sec; {} quer{} p50 {}us p99 {}us; {} busy{}",
        report.sessions,
        report.events,
        report.elapsed_ns as f64 / 1e9,
        report.events_per_sec,
        report.queries,
        if report.queries == 1 { "y" } else { "ies" },
        report.query_p50_us,
        report.query_p99_us,
        report.busy,
        match verified {
            Some(0) => "; all verdicts match offline monitor".to_owned(),
            Some(n) => format!("; {n} VERDICT MISMATCH(ES)"),
            None => String::new(),
        }
    );
    let mut json = JsonObject::new()
        .str("bench", "serve")
        .num("sessions", report.sessions as u64)
        .num("events", report.events)
        .num("elapsed_ns", report.elapsed_ns)
        .num("events_per_sec", report.events_per_sec as u64)
        .num("queries", report.queries)
        .num("query_p50_us", report.query_p50_us)
        .num("query_p99_us", report.query_p99_us)
        .num("busy", report.busy);
    if let Some(n) = verified {
        json = json.bool("verified", n == 0).num("mismatches", n as u64);
    }
    println!("{human}");
    if let Some(path) = args.value("--json") {
        write_json_lines(path, &[json.finish()])?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

const LOADGEN_FLAGS: &[&str] = &[
    "--addr HOST:PORT --verify --model NAME --max-states N --shutdown --json PATH \
     --sessions N --events N --conns C --query-every K --memory NAME --seed S \
     --procs N --locs L --values V --alias-values K",
];

/// `smc loadgen`: drive a *running* server (see `smc serve`) with
/// generated multi-session traffic and report throughput, latency
/// percentiles and (with `--verify`) a diff of every session's final
/// verdict against the offline monitor.
fn cmd_loadgen(args: &Args) -> Result<ExitCode, String> {
    let addr = args
        .value("--addr")
        .ok_or("loadgen: missing --addr HOST:PORT")?;
    let sessions = args.positive("--sessions")?.unwrap_or(1024);
    let lg = smc_serve::loadgen::LoadgenConfig {
        addr: addr.to_owned(),
        conns: args.positive("--conns")?.unwrap_or(8),
        query_every: args.num("--query-every", 32)?,
        shutdown: args.switch("--shutdown"),
    };
    let work = gen_session_work(&GenSpec::parse(args, Some(64))?, sessions)?;
    let report = smc_serve::loadgen::run(&lg, &work)?;
    let verified = if args.switch("--verify") {
        // The offline twin assumes the server monitors the same models
        // (its default set, or the matching --model) under the same
        // per-session frontier budget (the serve default, or the
        // matching --max-states).
        let model_list = resolve_models(args.value("--model"), models::lattice_models)?;
        let mut mon_cfg = smc_serve::ServeConfig::default().monitor;
        mon_cfg.max_frontier_states = args.num("--max-states", mon_cfg.max_frontier_states)?;
        let mismatches = smc_serve::loadgen::verify(&work, &report, &model_list, &mon_cfg);
        for m in mismatches.iter().take(5) {
            eprintln!("mismatch: {m}");
        }
        Some(mismatches.len())
    } else {
        None
    };
    report_traffic(args, &report, verified)?;
    Ok(exit_status(verified.unwrap_or(0) == 0))
}

const TRACE_FLAGS: &[&str] = &[
    "--memory NAME --procs N --ops N --events N --locs L --values V \
     --alias-values K --seed S --sessions N --churn K --out PATH --test NAME",
];

/// `smc trace`: generate traces (`gen`) or linearize litmus files
/// (`from`).
fn cmd_trace(args: &Args) -> Result<ExitCode, String> {
    match args.operands() {
        ["gen", ..] => trace_gen(args),
        ["from", rest @ ..] => trace_from(args, rest.first().copied()),
        _ => Err("trace: expected `gen` or `from <file>`".into()),
    }
}

fn write_out(path: Option<&str>, text: &str) -> Result<ExitCode, String> {
    match path {
        Some(p) => {
            write_file(p, text)?;
            eprintln!("wrote {p}");
        }
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// `smc trace from <file>`: linearize a litmus history in
/// processor-major program order.
fn trace_from(args: &Args, path: Option<&str>) -> Result<ExitCode, String> {
    use smc_history::trace::{emit_trace, Trace};
    let path = path.ok_or("trace from: missing <file>")?;
    let suite = load(path)?;
    let t = match args.value("--test") {
        Some(name) => suite
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| format!("trace from: no test named `{name}` in `{path}`"))?,
        None => {
            let first = suite
                .first()
                .ok_or("trace from: file contains no history")?;
            if suite.len() > 1 {
                eprintln!(
                    "note: `{path}` has {} tests; emitting `{}` (select with --test NAME)",
                    suite.len(),
                    first.name
                );
            }
            first
        }
    };
    let mut text = format!("# {}\n", t.name);
    text.push_str(&emit_trace(&Trace::from_history(&t.history)));
    write_out(args.value("--out"), &text)
}

/// Random-trace generation parameters, shared by `smc trace gen` and
/// `smc loadgen` so every consumer of "random machine traffic" draws
/// from one seeded well.
#[derive(Debug, Clone)]
struct GenSpec {
    memory: String,
    procs: usize,
    events: Option<usize>,
    ops: usize,
    locs: usize,
    values: i64,
    alias_values: Option<i64>,
    seed: u64,
}

impl GenSpec {
    /// Read the generator flags. `events` is the `--events` default;
    /// `None` sizes the program by `--ops` (per processor) instead.
    fn parse(args: &Args, events: Option<usize>) -> Result<GenSpec, String> {
        let procs: usize = args.num("--procs", 3)?;
        let events = args.positive("--events")?.or(events);
        let ops: usize = match events {
            // Cover the requested total even when it does not divide
            // evenly; the surplus is trimmed from the emitted stream.
            Some(n) => n.div_ceil(procs.max(1)),
            None => args.num("--ops", 4)?,
        };
        let locs: usize = args.num("--locs", 2)?;
        let values: i64 = args.num("--values", 2)?;
        // Aliasing-heavy mode: write values come from a fresh counter
        // folded into a K-letter alphabet, so the emitted trace has the
        // *structure* of a fresh-value execution but every read ends up
        // with many same-value reads-from candidates — the adversarial
        // regime for checkers. Mutually exclusive with --values (it
        // replaces the value pool, it does not sample from one).
        let alias_values: Option<i64> = args.positive("--alias-values")?;
        if alias_values.is_some() && args.value("--values").is_some() {
            return Err("trace gen: --alias-values and --values are mutually exclusive".into());
        }
        let seed: u64 = args.num("--seed", 0)?;
        if procs == 0 || locs == 0 || values < 1 {
            return Err("trace gen: --procs/--locs/--values must be at least 1".into());
        }
        Ok(GenSpec {
            memory: args.value("--memory").unwrap_or("tso").to_owned(),
            procs,
            events,
            ops,
            locs,
            values,
            alias_values,
            seed,
        })
    }

    /// The provenance comment line `smc trace gen` writes above a
    /// generated stream.
    fn comment(&self) -> String {
        let sizing = match self.events {
            Some(n) => format!("--events {n}"),
            None => format!("--ops {}", self.ops),
        };
        let valuing = match self.alias_values {
            Some(k) => format!("--alias-values {k}"),
            None => format!("--values {}", self.values),
        };
        format!(
            "# smc trace gen --memory {} --procs {} {sizing} --locs {} {valuing} --seed {}\n",
            self.memory, self.procs, self.locs, self.seed
        )
    }

    /// Run the random program on the operational machine under a seeded
    /// random scheduler; returns the (possibly cut) arrival-order trace
    /// and whether the run drained before the step limit.
    fn generate(&self) -> Result<(smc_history::trace::Trace, bool), String> {
        use smc_prng::SmallRng;

        let (procs, ops, locs, seed) = (self.procs, self.ops, self.locs, self.seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fresh = 0i64;
        let mut threads: Vec<Vec<Access>> = Vec::with_capacity(procs);
        for _ in 0..procs {
            let mut thread = Vec::with_capacity(ops);
            for _ in 0..ops {
                let loc = rng.gen_range(0..locs) as u32;
                if rng.gen_range(0..2usize) == 0 {
                    let v = match self.alias_values {
                        Some(k) => {
                            fresh += 1;
                            (fresh - 1) % k + 1
                        }
                        None => rng.gen_range(0..self.values as usize) as i64 + 1,
                    };
                    thread.push(Access::write(loc, v));
                } else {
                    thread.push(Access::read(loc));
                }
            }
            threads.push(thread);
        }
        let script = OpScript::new(threads, locs);
        let out = with_machine!(self.memory.as_str(), procs, locs, |mem| run_random(
            mem, script, seed, 200_000
        ))?;
        let mut trace = out.trace;
        if let Some(n) = self.events {
            if trace.len() < n {
                return Err(format!(
                    "trace gen: machine produced only {} of {n} requested events (step limit)",
                    trace.len()
                ));
            }
            trace = trace.split_front(n);
        }
        Ok((trace, out.completed))
    }
}

/// `--churn K`: K+1 processor generations over one stream. Each
/// generation is an independent machine run (seed `S+g`) whose
/// processors are renamed `g<g>p<i>`, introduced by `join` lines and —
/// except the last generation — removed by `retire` lines before the
/// next generation starts. Locations are shared across generations, so
/// a retired generation's final writes stay visible: the regime the
/// monitor's churn folding (summarize-and-forget) is built for. No
/// `procs` header is emitted on purpose — processors must enter via
/// `join` for the monitor's frontier width to stay O(active).
///
/// Each machine runs from zero-initialized memory, but generation `g+1`
/// inherits generation `g`'s final memory in the emitted stream. Written
/// values are always >= 1, so a read of 0 is exactly a read of the
/// machine's initial memory — those are rewritten to the inherited
/// contents (last write per location in stream order, which is what the
/// monitor's fold commits). Without the rewrite the stream contradicts
/// the generating model the moment a new generation reads a location an
/// old one wrote.
fn gen_churn_text(spec: &GenSpec, churn: usize) -> Result<String, String> {
    let mut out = String::new();
    let mut mem: std::collections::HashMap<String, i64> = std::collections::HashMap::new();
    for g in 0..=churn {
        let mut s = spec.clone();
        s.seed = spec.seed.wrapping_add(g as u64);
        let (t, _) = s.generate()?;
        if g == 0 {
            out.push_str(&format!("locs {}\n", t.loc_names().join(" ")));
        }
        for p in t.proc_names() {
            out.push_str(&format!("join g{g}{p}\n"));
        }
        // Initial-memory reads are rewritten against the snapshot at the
        // generation boundary: a stale read of initial memory later in
        // the generation must still see the *inherited* value, not a
        // write from its own generation.
        let inherit = mem.clone();
        for ev in t.events() {
            let mut e = *ev;
            let loc = t.loc_name(e.loc);
            if e.kind.is_write() {
                mem.insert(loc.to_string(), e.value.0);
            } else if e.value.0 == 0 {
                if let Some(&v) = inherit.get(loc) {
                    e.value.0 = v;
                }
            }
            // `format_event` leads with the processor name, so the
            // generation prefix renames it in place.
            out.push_str(&format!("g{g}{}\n", t.format_event(&e)));
        }
        if g < churn {
            for p in t.proc_names() {
                out.push_str(&format!("retire g{g}{p}\n"));
            }
        }
    }
    Ok(out)
}

/// One generated trace per session, with its session id.
type SessionWork = Vec<(String, smc_history::trace::Trace)>;

/// `sessions` independent random traces, one per session id `s0..`,
/// derived from `spec` with per-session seeds `seed + i`. Shared by
/// `smc trace gen --sessions` and `smc loadgen`.
fn gen_session_work(spec: &GenSpec, sessions: usize) -> Result<SessionWork, String> {
    (0..sessions)
        .map(|i| {
            let mut s = spec.clone();
            s.seed = spec.seed.wrapping_add(i as u64);
            let (t, _) = s.generate()?;
            Ok((format!("s{i}"), t))
        })
        .collect()
}

/// `smc trace gen`: run a random program shape on an operational machine
/// under a seeded random scheduler and emit the arrival-order stream.
/// `--events N` fixes the *total* event count instead of `--ops`
/// (per-processor): the program is sized to cover N and the emitted
/// stream is cut to exactly N events, so generating a 1000-op trace
/// costs one run and one emission. `--sessions N` instead emits N
/// independent streams (per-session seeds `S..S+N-1`) interleaved
/// line-by-line under a seeded shuffle, each line `@sid`-prefixed — the
/// multi-session wire format `smc serve` ingests and
/// `parse_multi_trace` demultiplexes.
fn trace_gen(args: &Args) -> Result<ExitCode, String> {
    use smc_history::trace::{emit_trace, session_line};
    use smc_prng::SmallRng;

    let spec = GenSpec::parse(args, None)?;
    let sessions: usize = args.num("--sessions", 0)?;
    let churn: usize = args.num("--churn", 0)?;
    if churn > 0 && sessions > 0 {
        return Err("trace gen: --churn and --sessions are mutually exclusive".into());
    }
    if churn > 0 {
        let mut text = spec.comment().replacen(
            "# smc trace gen",
            &format!("# smc trace gen --churn {churn}"),
            1,
        );
        text.push_str(&gen_churn_text(&spec, churn)?);
        return write_out(args.value("--out"), &text);
    }
    if sessions == 0 {
        let (trace, completed) = spec.generate()?;
        let mut text = spec.comment();
        if !completed {
            text.push_str("# note: run hit the step limit before draining\n");
        }
        text.push_str(&emit_trace(&trace));
        return write_out(args.value("--out"), &text);
    }

    let work = gen_session_work(&spec, sessions)?;
    let mut text = format!("# smc trace gen --sessions {sessions}\n");
    text.push_str(
        &spec
            .comment()
            .replacen("# smc trace gen", "# per-session base:", 1),
    );
    let lines: Vec<Vec<String>> = work
        .iter()
        .map(|(sid, t)| {
            emit_trace(t)
                .lines()
                .map(|l| session_line(sid, l))
                .collect()
        })
        .collect();
    // Seeded interleave: each step hands the next line of a randomly
    // chosen still-live session, so the emitted stream exercises
    // demultiplexing the way genuinely concurrent clients would.
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x5e55_1011);
    let mut cursor = vec![0usize; lines.len()];
    let mut live: Vec<usize> = (0..lines.len()).collect();
    while !live.is_empty() {
        let k = rng.gen_range(0..live.len());
        let s = live[k];
        text.push_str(&lines[s][cursor[s]]);
        text.push('\n');
        cursor[s] += 1;
        if cursor[s] == lines[s].len() {
            live.swap_remove(k);
        }
    }
    write_out(args.value("--out"), &text)
}

fn cmd_models(_: &Args) -> Result<ExitCode, String> {
    println!("Declarative models (for `smc check --model ...`):");
    for m in models::all_models() {
        println!(
            "  {:<16} δ={:?}, mutual: [{}{}{}{}], order: {:?}{}{}{}",
            m.name,
            m.delta,
            if m.identical_views {
                "identical-views "
            } else {
                ""
            },
            if m.global_write_order {
                "store-order "
            } else {
                ""
            },
            if m.coherence { "coherence " } else { "" },
            m.labeled
                .map(|l| format!("labeled:{l:?} "))
                .unwrap_or_default(),
            m.global_order,
            if m.rc_bracketing {
                " +rc-bracketing"
            } else {
                ""
            },
            if m.fence_bracketing { " +fences" } else { "" },
            match m.owner_order {
                smc_core::spec::OwnerOrder::None => "",
                _ => " +owner-order",
            },
        );
    }
    println!("\nOperational machines (for `smc explore --memory ...`):");
    println!("  sc tso tso-fwd pram causal pc coherent rcsc rcpc wo hybrid");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` on the words of `line` parsed against `table`.
    fn parsed<R>(
        line: &str,
        table: &[&'static str],
        f: impl FnOnce(&Args) -> Result<R, String>,
    ) -> Result<R, String> {
        let words: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        f(&Args::parse(&words, table)?)
    }

    #[test]
    fn engine_flag_parsing() {
        let engine = |line| parsed(line, &[CHECKING], engine_flag);
        assert_eq!(engine(""), Ok(EngineKind::Auto));
        assert_eq!(engine("--engine saturate"), Ok(EngineKind::Saturate));
        assert_eq!(engine("--engine exhaustive"), Ok(EngineKind::Exhaustive));
        assert_eq!(engine("--engine auto"), Ok(EngineKind::Auto));
        assert!(engine("--engine").is_err());
        assert!(engine("--engine warp").is_err());
    }

    #[test]
    fn check_flags_parse_and_configure() {
        let line = "--jobs 3 --engine saturate --memo-file m.bin";
        parsed(line, &[CHECKING], |args| {
            let flags = CheckFlags::parse(args)?;
            assert_eq!(flags.jobs, 3);
            assert_eq!(flags.memo_file, Some("m.bin"));
            let cfg = flags.config(CheckConfig::default(), false);
            assert_eq!(cfg.engine, EngineKind::Saturate);
            assert!(cfg.memo.is_some());
            Ok(())
        })
        .unwrap();
        // Defaults when no flags are given.
        parsed("", &[CHECKING], |args| {
            let flags = CheckFlags::parse(args)?;
            assert_eq!(flags.jobs, 1);
            assert_eq!(flags.engine, EngineKind::Auto);
            assert!(flags.memo_file.is_none());
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn resolve_model_selectors() {
        assert!(resolve_models(None, models::all_models).unwrap().len() > 5);
        assert_eq!(
            resolve_models(Some("tso"), models::all_models).unwrap()[0].name,
            "TSO"
        );
        assert!(resolve_models(Some("bogus"), models::all_models).is_err());
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        assert!(run(&["frobnicate".to_string()]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn models_subcommand_succeeds() {
        assert!(run(&["models".to_string()]).is_ok());
    }

    #[test]
    fn usage_blocks_list_exactly_the_table_flags() {
        for (name, table, _) in COMMANDS {
            let usage = usage_blocks(name);
            assert!(!usage.is_empty(), "no usage block for `smc {name}`");
            let documented: std::collections::BTreeSet<&str> = usage
                .match_indices("--")
                .map(|(i, _)| {
                    let flag = &usage[i..];
                    let end = flag[2..]
                        .find(|c: char| !c.is_ascii_alphanumeric() && c != '-')
                        .map_or(flag.len(), |e| e + 2);
                    &flag[..end]
                })
                .collect();
            let declared: std::collections::BTreeSet<&str> = table
                .iter()
                .flat_map(|s| s.split_whitespace())
                .filter(|w| w.starts_with("--"))
                .collect();
            assert_eq!(documented, declared, "`smc {name}`");
        }
        assert!(usage_for(Some("check")).contains("smc check"));
        assert!(!usage_for(Some("check")).contains("smc corpus"));
        assert_eq!(usage_for(Some("frobnicate")), USAGE);
        assert_eq!(usage_for(None), USAGE);
    }

    #[test]
    fn serve_takes_only_serving_flags() {
        let flags: Vec<&str> = SERVE_FLAGS
            .iter()
            .flat_map(|s| s.split_whitespace())
            .filter(|w| w.starts_with("--"))
            .collect();
        assert_eq!(
            flags,
            [
                "--listen",
                "--workers",
                "--max-sessions",
                "--max-conns",
                "--queue",
                "--model",
                "--jobs",
                "--max-states",
                "--window",
                "--evict-dir"
            ]
        );
    }

    #[test]
    fn script_conversion_preserves_shape() {
        let h = parse_history("p: w(x)1 rl(y)0\nq: wl(y)2").unwrap();
        let s = to_script(&h);
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.num_locs(), 2);
    }
}
