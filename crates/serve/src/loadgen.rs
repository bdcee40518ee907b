//! Load generator for the admission server.
//!
//! Drives prepared `(session id, trace)` work over loopback: `C`
//! connections each own a slice of the sessions, `OPEN` them, stream
//! their events round-robin (so sessions interleave on the wire the
//! way independent clients would), pace a `QUERY` every `query_every`
//! events per session — which both samples verdict latency and bounds
//! the server-side queue, so a well-configured run never sees `BUSY` —
//! and finally `CLOSE` every session to collect its end-of-stream
//! verdict payload.
//!
//! The generator is deliberately dumb about *what* it sends: callers
//! hand it complete traces (from `smc trace gen` machinery or the
//! litmus corpus), keeping this crate free of simulator dependencies.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Instant;

use smc_core::models;
use smc_core::spec::ModelSpec;
use smc_history::trace::{emit_trace, session_line, Trace};
use smc_monitor::MonitorConfig;

/// Tuning for [`run`].
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7400`.
    pub addr: String,
    /// Concurrent connections; sessions are dealt round-robin across
    /// them.
    pub conns: usize,
    /// Issue a latency-sampled `QUERY` every this many events per
    /// session (0 = only the final `CLOSE`). Keep at or below the
    /// server's queue cap and `BUSY` can never fire.
    pub query_every: usize,
    /// Send `SHUTDOWN` after the last session closes.
    pub shutdown: bool,
}

/// End-of-stream result for one session.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Session id.
    pub sid: String,
    /// Verdict payload from the `CLOSED` reply (event count, then
    /// `model=verdict` tokens — or `error: ...` for poisoned
    /// sessions). Compare against [`crate::offline_payload`].
    pub payload: String,
}

/// Aggregate measurements from one load-generator run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Sessions driven.
    pub sessions: usize,
    /// Events sent (header lines excluded).
    pub events: u64,
    /// Wall time from first `OPEN` to last `CLOSED`, in nanoseconds.
    pub elapsed_ns: u64,
    /// `events / elapsed` — the sustained ingest rate, counted only
    /// once every event's verdict work is drained (the `CLOSE` barrier).
    pub events_per_sec: f64,
    /// Latency-sampled `QUERY` round-trips.
    pub queries: u64,
    /// Median `QUERY` round-trip, microseconds.
    pub query_p50_us: u64,
    /// 99th-percentile `QUERY` round-trip, microseconds.
    pub query_p99_us: u64,
    /// `BUSY` replies observed (0 in a well-paced run).
    pub busy: u64,
    /// Per-session final payloads, in `work` order.
    pub outcomes: Vec<SessionOutcome>,
}

struct ConnResult {
    outcomes: Vec<(usize, SessionOutcome)>,
    latencies_us: Vec<u64>,
    events: u64,
    busy: u64,
}

/// Read the next solicited reply line, absorbing asynchronous `BUSY`
/// notices (which answer an earlier `EV`, not the request we just
/// wrote).
fn read_reply(r: &mut BufReader<TcpStream>, busy: &mut u64) -> Result<String, String> {
    loop {
        let mut line = String::new();
        r.read_line(&mut line).map_err(|e| format!("read: {e}"))?;
        if line.is_empty() {
            return Err("server closed the connection".into());
        }
        let line = line.trim_end();
        if line.starts_with("BUSY ") {
            *busy += 1;
            continue;
        }
        return Ok(line.to_owned());
    }
}

fn drive_conn(
    cfg: &LoadgenConfig,
    work: &[(usize, &(String, Trace))],
) -> Result<ConnResult, String> {
    let stream = TcpStream::connect(&cfg.addr).map_err(|e| format!("connect {}: {e}", cfg.addr))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut r = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut w = BufWriter::with_capacity(64 * 1024, stream);
    let mut res = ConnResult {
        outcomes: Vec::with_capacity(work.len()),
        latencies_us: Vec::new(),
        events: 0,
        busy: 0,
    };

    // Pre-render every session's wire lines (headers first, so the
    // server declares tables before events and never rebuilds).
    let lines: Vec<Vec<String>> = work
        .iter()
        .map(|(_, (sid, t))| {
            emit_trace(t)
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(|l| session_line(sid, l))
                .collect()
        })
        .collect();
    let header_count: Vec<usize> = work
        .iter()
        .map(|(_, (_, t))| usize::from(t.num_procs() > 0) + usize::from(t.num_locs() > 0))
        .collect();

    for (_, (sid, _)) in work {
        writeln!(w, "OPEN {sid}").map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())?;
    for (_, (sid, _)) in work {
        let reply = read_reply(&mut r, &mut res.busy)?;
        if reply != format!("OK {sid}") {
            return Err(format!("OPEN {sid}: unexpected reply `{reply}`"));
        }
    }

    // Round-robin across this connection's sessions: one line each per
    // sweep, so the server sees genuinely interleaved traffic.
    let mut cursor = vec![0usize; work.len()];
    let mut since_query = vec![0usize; work.len()];
    let mut live = work.len();
    while live > 0 {
        live = 0;
        for (i, session_lines) in lines.iter().enumerate() {
            if cursor[i] >= session_lines.len() {
                continue;
            }
            live += 1;
            writeln!(w, "{}", session_lines[cursor[i]]).map_err(|e| e.to_string())?;
            if cursor[i] >= header_count[i] {
                res.events += 1;
                since_query[i] += 1;
            }
            cursor[i] += 1;
            if cfg.query_every > 0 && since_query[i] >= cfg.query_every {
                since_query[i] = 0;
                let sid = &work[i].1 .0;
                writeln!(w, "QUERY {sid}").map_err(|e| e.to_string())?;
                w.flush().map_err(|e| e.to_string())?;
                let t0 = Instant::now();
                let reply = read_reply(&mut r, &mut res.busy)?;
                res.latencies_us
                    .push(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
                if !reply.starts_with(&format!("VERDICT {sid} ")) {
                    return Err(format!("QUERY {sid}: unexpected reply `{reply}`"));
                }
            }
        }
    }

    for (orig, (sid, _)) in work {
        writeln!(w, "CLOSE {sid}").map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
        let reply = read_reply(&mut r, &mut res.busy)?;
        let prefix = format!("CLOSED {sid} ");
        let Some(payload) = reply.strip_prefix(&prefix) else {
            return Err(format!("CLOSE {sid}: unexpected reply `{reply}`"));
        };
        res.outcomes.push((
            *orig,
            SessionOutcome {
                sid: sid.clone(),
                payload: payload.to_owned(),
            },
        ));
    }
    Ok(res)
}

/// Drive `work` against a running server and collect throughput,
/// latency percentiles and every session's final verdict payload.
pub fn run(cfg: &LoadgenConfig, work: &[(String, Trace)]) -> Result<LoadgenReport, String> {
    if work.is_empty() {
        return Err("loadgen: no sessions to drive".into());
    }
    let conns = cfg.conns.clamp(1, work.len());
    // SHUTDOWN (if asked) goes on a connection of its own, once every
    // connection has closed its sessions.
    let t0 = Instant::now();
    let results: Vec<Result<ConnResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let my_work: Vec<(usize, &(String, Trace))> = work
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % conns == c)
                    .collect();
                scope.spawn(move || drive_conn(cfg, &my_work))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("loadgen thread panicked".into()))
            })
            .collect()
    });
    let elapsed_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;

    let mut outcomes_by_idx: Vec<Option<SessionOutcome>> = vec![None; work.len()];
    let mut latencies: Vec<u64> = Vec::new();
    let (mut events, mut busy) = (0u64, 0u64);
    for res in results {
        let res = res?;
        events += res.events;
        busy += res.busy;
        latencies.extend(res.latencies_us);
        for (i, o) in res.outcomes {
            outcomes_by_idx[i] = Some(o);
        }
    }
    if cfg.shutdown {
        let reply = request(&cfg.addr, "SHUTDOWN")?;
        if reply != "BYE" {
            return Err(format!("SHUTDOWN: unexpected reply `{reply}`"));
        }
    }

    latencies.sort_unstable();
    let pct = |p: usize| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[(latencies.len() * p / 100).min(latencies.len() - 1)]
        }
    };
    let secs = (elapsed_ns as f64) / 1e9;
    Ok(LoadgenReport {
        sessions: work.len(),
        events,
        elapsed_ns,
        events_per_sec: if secs > 0.0 {
            events as f64 / secs
        } else {
            0.0
        },
        queries: latencies.len() as u64,
        query_p50_us: pct(50),
        query_p99_us: pct(99),
        busy,
        outcomes: outcomes_by_idx
            .into_iter()
            .map(|o| o.expect("every session closed"))
            .collect(),
    })
}

/// Send `command` to the server at `addr` on a connection of its own
/// and return the reply.
fn request(addr: &str, command: &str) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut r = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    writeln!(&stream, "{command}").map_err(|e| e.to_string())?;
    read_reply(&mut r, &mut 0)
}

/// The models, frontier cap and window a session of the server at
/// `addr` runs under when `OPEN` names no model: the `models=`,
/// `max_states=` and `window=` keys of its `STATS` line. [`verify`]'s
/// offline twin must run under them.
pub fn session_settings(addr: &str) -> Result<(Vec<ModelSpec>, MonitorConfig), String> {
    let stats = request(addr, "STATS")?;
    let field = |key: &str| {
        stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .ok_or_else(|| format!("STATS reply lacks `{key}=`: {stats}"))
    };
    let num = |key: &str| {
        let v = field(key)?;
        v.parse::<usize>()
            .map_err(|_| format!("STATS `{key}={v}` is not a number"))
    };
    let models = field("models")?
        .split(',')
        .map(|name| {
            models::by_name(name).ok_or_else(|| format!("STATS names unknown model `{name}`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let window = num("window")?;
    let cfg = MonitorConfig {
        max_frontier_states: num("max_states")?,
        window: (window > 0).then_some(window),
        ..MonitorConfig::default()
    };
    Ok((models, cfg))
}

/// Diff every session's server payload against the offline monitor on
/// the same trace; returns the list of mismatches (empty = verified).
pub fn verify(
    work: &[(String, Trace)],
    report: &LoadgenReport,
    models: &[ModelSpec],
    cfg: &MonitorConfig,
) -> Vec<String> {
    let mut mismatches = Vec::new();
    for ((sid, t), outcome) in work.iter().zip(&report.outcomes) {
        let want = crate::offline_payload(models, cfg, t);
        if outcome.payload != want {
            mismatches.push(format!(
                "session {sid}: serve said `{}`, offline says `{want}`",
                outcome.payload
            ));
        }
    }
    mismatches
}
