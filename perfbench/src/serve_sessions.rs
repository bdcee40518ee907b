//! `serve_sessions`: many short sessions through an in-process admission
//! server on loopback.
//!
//! Why: parsing, the inbox, the drain workers, the wire and the
//! per-event frontier dominate here. At 64 events a restart recheck is
//! still cheap, so a change to the serve layer shows on this workload
//! and on no other.
//!
//! Each measured round starts a fresh server (a cold memo, so every
//! round is the same experiment), streams all the sessions through
//! [`smc_serve::loadgen::run`] in a closed loop, and shuts the server
//! down; the run reports its fastest round. Payloads are checked against
//! [`smc_serve::offline_payload`] after the timed rounds.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Instant;

use smc_core::spec::ModelSpec;
use smc_history::trace::{emit_trace, parse_trace_line, session_line, split_session_line, Trace};
use smc_monitor::MonitorConfig;
use smc_serve::loadgen::{self, LoadgenConfig};
use smc_serve::{offline_payload, ServeConfig, Server, DEFAULT_SESSION_MAX_STATES};

use crate::gen::{machine_trace, sub_seed, Machine, TraceShape};
use crate::stats::{fail_frac, percentile, ratio, Tracer};
use crate::{Headline, Line, Report, Workload, MIN_REPETITIONS};

const SHAPE: TraceShape = TraceShape {
    machine: Machine::Tso,
    procs: 3,
    locs: 2,
    events: 64,
    values: Some(2),
};
/// Sessions per round, all distinct: 1024 paced `QUERY`s a round, so
/// the round's p99 has ten samples beyond it.
const ROUND_SESSIONS: usize = 512;
const WARMUP_SESSIONS: usize = 64;
/// `QUERY` every this many events per session (the loadgen default).
const QUERY_EVERY: usize = 32;
/// Drain workers: one, leaving the second core to the client side.
const WORKERS: usize = 1;

/// Connections: at most two, and never more than the cores.
fn conns() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

fn monitor_config() -> MonitorConfig {
    MonitorConfig {
        max_frontier_states: DEFAULT_SESSION_MAX_STATES,
        ..MonitorConfig::default()
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        monitor: monitor_config(),
        ..ServeConfig::default()
    }
}

/// Prepared session pool.
pub struct ServeSessions {
    seed: u64,
    pool: Vec<(String, Trace)>,
    models: Vec<ModelSpec>,
    gen_ms: f64,
}

/// Generate the pool and warm the process up with one small round.
pub fn setup(seed: u64) -> Result<ServeSessions, String> {
    let t0 = Instant::now();
    let pool = (0..ROUND_SESSIONS)
        .map(|i| {
            Ok((
                format!("s{i}"),
                machine_trace(&SHAPE, sub_seed(seed, 1, i as u64))?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let bench = ServeSessions {
        seed,
        models: serve_config().models,
        pool,
        gen_ms,
    };
    let server = Server::start(serve_config()).map_err(|e| format!("serve: {e}"))?;
    let warm = loadgen::run(
        &bench.loadgen_config(&server),
        &bench.pool[..WARMUP_SESSIONS],
    );
    server.shutdown();
    warm?;
    Ok(bench)
}

/// What one round returned, for the checks after the timed region.
struct RoundResult {
    payloads: Vec<String>,
    busy: u64,
}

impl ServeSessions {
    fn loadgen_config(&self, server: &Server) -> LoadgenConfig {
        LoadgenConfig {
            addr: server.addr().to_string(),
            conns: conns(),
            query_every: QUERY_EVERY,
            shutdown: false,
        }
    }

    /// Offline payloads of every pool session, computed on all cores.
    fn expected(&self) -> Vec<String> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let chunk = self.pool.len().div_ceil(threads);
        let cfg = monitor_config();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .pool
                .chunks(chunk)
                .map(|part| {
                    let (models, cfg) = (&self.models, &cfg);
                    s.spawn(move || {
                        part.iter()
                            .map(|(_, t)| offline_payload(models, cfg, t))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("verification thread panicked"))
                .collect()
        })
    }

    /// Compare every round's payloads with the offline monitor. Returns
    /// `(failed events, mismatch messages)`: a session whose payload
    /// differs or holds an `unknown` verdict fails all its events, and
    /// every `BUSY` fails one.
    fn check(&self, rounds: &[RoundResult]) -> (u64, Vec<String>) {
        let want = self.expected();
        let mut failed = 0u64;
        let mut mismatches = Vec::new();
        for r in rounds {
            failed += r.busy;
            for ((got, want), (sid, t)) in r.payloads.iter().zip(&want).zip(&self.pool) {
                if got != want {
                    failed += t.len() as u64;
                    mismatches.push(format!(
                        "serve_sessions: session {sid}: serve said `{got}`, offline says `{want}`"
                    ));
                } else if got.contains("=unknown") {
                    failed += t.len() as u64;
                }
            }
        }
        (failed, mismatches)
    }

    fn untraced(&self, seconds: f64) -> Result<Report, String> {
        let mut rounds = Vec::new();
        let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        let (mut events, mut queries) = (0u64, 0u64);
        let t0 = Instant::now();
        while rounds.len() < MIN_REPETITIONS || t0.elapsed().as_secs_f64() < seconds {
            let server = Server::start(serve_config()).map_err(|e| format!("serve: {e}"))?;
            let rep = loadgen::run(&self.loadgen_config(&server), &self.pool);
            server.shutdown();
            let rep = rep?;
            rates.push(rep.events as f64 / (rep.elapsed_ns as f64 / 1e9));
            p50s.push(rep.query_p50_us as f64 / 1e3);
            p99s.push(rep.query_p99_us as f64 / 1e3);
            events += rep.events;
            queries += rep.queries;
            rounds.push(RoundResult {
                payloads: rep.outcomes.into_iter().map(|o| o.payload).collect(),
                busy: rep.busy,
            });
        }
        let (failed, mismatches) = self.check(&rounds);
        let n = rounds.len();
        let per_round = queries / n as u64;
        let headline = Headline {
            throughput_per_s: max(&rates),
            latency_p50_ms: min(&p50s),
            latency_tail_ms: min(&p99s),
        };
        Ok(Report {
            attempted: events,
            failed,
            mismatches,
            lines: vec![
                Line::new(
                    "events_per_s",
                    headline.throughput_per_s,
                    "1/s",
                    format!("fastest of {n} rounds, to the CLOSE barrier"),
                ),
                Line::new(
                    "query_p50_ms",
                    headline.latency_p50_ms,
                    "ms",
                    format!("lowest round p50 of {n} rounds, {per_round} QUERYs a round"),
                ),
                Line::new(
                    "query_p99_ms",
                    headline.latency_tail_ms,
                    "ms",
                    format!(
                        "lowest round p99 of {n} rounds, {per_round} QUERYs a round, {} beyond",
                        per_round - (99 * per_round).div_ceil(100)
                    ),
                ),
                Line::new(
                    "fail_frac",
                    fail_frac(failed, events),
                    "ratio",
                    format!("{failed} of {events} events"),
                ),
            ],
            headline,
            layers: Vec::new(),
            spans: Vec::new(),
        })
    }

    fn traced(&self, seconds: f64) -> Result<Report, String> {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin);
        let mut rounds = Vec::new();
        let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        let (mut events, mut busy, mut memo_hits, mut memo_misses) = (0u64, 0u64, 0u64, 0u64);
        let t0 = Instant::now();
        while rounds.len() < MIN_REPETITIONS || t0.elapsed().as_secs_f64() < seconds {
            let server = Server::start(serve_config()).map_err(|e| format!("serve: {e}"))?;
            let round = rounds.len() as u64;
            let rep = traced_round(&server.addr().to_string(), &self.pool, round, origin);
            let stats = server.stats_line();
            server.shutdown();
            let rep = rep?;
            rates.push(rep.events as f64 / rep.elapsed_s);
            p50s.push(percentile(&rep.query_ms, 50).value);
            p99s.push(percentile(&rep.query_ms, 99).value);
            events += rep.events;
            busy += stat_field(&stats, "busy")?;
            memo_hits += stat_field(&stats, "memo_hits")?;
            memo_misses += stat_field(&stats, "memo_misses")?;
            for t in rep.tracers {
                tracer.absorb(t);
            }
            rounds.push(RoundResult {
                payloads: rep.payloads,
                busy: rep.busy,
            });
        }
        let (mut failed, mismatches) = self.check(&rounds);

        // history.parse_*: replay the same wire lines through the
        // server's framing and line parser.
        let mut lines = 0u64;
        for (i, (sid, t)) in self.pool.iter().enumerate() {
            let wire: Vec<String> = emit_trace(t)
                .lines()
                .map(|l| session_line(sid, l))
                .collect();
            let mut scratch = Trace::new();
            let span = tracer.begin("history.parse", i as u64);
            let mut offset = 0usize;
            for (n, line) in wire.iter().enumerate() {
                let (_, rest) = split_session_line(line).ok_or("unframed wire line")?;
                parse_trace_line(&mut scratch, rest, n + 1, offset)
                    .map_err(|e| format!("replaying {sid}: {e}"))?;
                offset += rest.len() + 1;
            }
            tracer.end(span);
            lines += wire.len() as u64;
            if scratch.events() != t.events() {
                failed += t.len() as u64;
            }
        }

        let spans = tracer.into_spans();
        let totals = crate::stats::totals_by_name(&spans);
        let close_us: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "serve.close")
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        let send_ns = totals.get("serve.send").map_or(0, |t| t.self_ns);
        let parse_ns = totals.get("history.parse").map_or(0, |t| t.total_ns);
        let headline = Headline {
            throughput_per_s: max(&rates),
            latency_p50_ms: min(&p50s),
            latency_tail_ms: min(&p99s),
        };
        Ok(Report {
            attempted: events,
            failed,
            mismatches,
            lines: Vec::new(),
            headline,
            layers: vec![
                (
                    "serve.send_us_per_event",
                    send_ns as f64 / 1e3 / events as f64,
                ),
                ("serve.close_rtt_p50_us", percentile(&close_us, 50).value),
                ("serve.busy_frac", ratio(busy as f64, events as f64)),
                // Every restart-mode recheck consults the shared memo once.
                (
                    "serve.rechecks_per_event",
                    (memo_hits + memo_misses) as f64 / events as f64,
                ),
                (
                    "serve.memo_hit_ratio",
                    ratio(memo_hits as f64, (memo_hits + memo_misses) as f64),
                ),
                ("history.parse_ns_per_line", parse_ns as f64 / lines as f64),
                ("sim.trace_gen_ms", self.gen_ms),
            ],
            spans,
        })
    }
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The counter `key=` of a `STATS` line.
fn stat_field(stats: &str, key: &str) -> Result<u64, String> {
    stats
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("STATS line lacks `{key}=`: {stats}"))
}

impl Workload for ServeSessions {
    fn describe(&self) -> String {
        format!(
            "seed={} inputs: {} sessions ({}), each round all of them on a fresh server, \
             closed loop over {} connections, {} drain worker(s), QUERY every {} events, \
             {} models, frontier cap {}",
            self.seed,
            ROUND_SESSIONS,
            SHAPE.label(),
            conns(),
            WORKERS,
            QUERY_EVERY,
            self.models.len(),
            DEFAULT_SESSION_MAX_STATES
        )
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Result<Report, String> {
        if traced {
            self.traced(seconds)
        } else {
            self.untraced(seconds)
        }
    }
}

struct TracedRound {
    events: u64,
    elapsed_s: f64,
    query_ms: Vec<f64>,
    busy: u64,
    payloads: Vec<String>,
    tracers: Vec<Tracer>,
}

/// One round with the load generator's protocol — sessions dealt over
/// the connections, events round-robin, a `QUERY` every
/// [`QUERY_EVERY`] events per session, then `CLOSE` — with a span
/// around every wire exchange.
fn traced_round(
    addr: &str,
    work: &[(String, Trace)],
    round: u64,
    origin: Instant,
) -> Result<TracedRound, String> {
    let c = conns().min(work.len());
    let t0 = Instant::now();
    let results: Vec<Result<ConnOut, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..c)
            .map(|k| {
                let mine: Vec<(usize, &(String, Trace))> = work
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % c == k)
                    .collect();
                s.spawn(move || traced_conn(addr, &mine, round, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    let mut out = TracedRound {
        events: 0,
        elapsed_s,
        query_ms: Vec::new(),
        busy: 0,
        payloads: vec![String::new(); work.len()],
        tracers: Vec::new(),
    };
    for r in results {
        let r = r?;
        out.events += r.events;
        out.busy += r.busy;
        out.query_ms.extend(r.query_ms);
        for (i, p) in r.payloads {
            out.payloads[i] = p;
        }
        out.tracers.push(r.tracer);
    }
    Ok(out)
}

struct ConnOut {
    events: u64,
    busy: u64,
    query_ms: Vec<f64>,
    payloads: Vec<(usize, String)>,
    tracer: Tracer,
}

fn reply(r: &mut BufReader<TcpStream>, busy: &mut u64) -> Result<String, String> {
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

fn traced_conn(
    addr: &str,
    work: &[(usize, &(String, Trace))],
    round: u64,
    origin: Instant,
) -> Result<ConnOut, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut tr = Tracer::new(origin);
    let lines: Vec<Vec<String>> = work
        .iter()
        .map(|(_, (sid, t))| {
            emit_trace(t)
                .lines()
                .map(|l| session_line(sid, l))
                .collect()
        })
        .collect();
    let headers: Vec<usize> = work
        .iter()
        .map(|(_, (_, t))| usize::from(t.num_procs() > 0) + usize::from(t.num_locs() > 0))
        .collect();
    let conn_span = tr.begin("serve.conn", round);
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(io)?;
    let mut r = BufReader::new(stream.try_clone().map_err(io)?);
    let mut w = BufWriter::with_capacity(64 * 1024, stream);
    let mut out = ConnOut {
        events: 0,
        busy: 0,
        query_ms: Vec::new(),
        payloads: Vec::with_capacity(work.len()),
        tracer: Tracer::new(origin),
    };

    let open = tr.begin("serve.open", round);
    for (_, (sid, _)) in work {
        writeln!(w, "OPEN {sid}").map_err(io)?;
    }
    w.flush().map_err(io)?;
    for (_, (sid, _)) in work {
        let got = reply(&mut r, &mut out.busy)?;
        if got != format!("OK {sid}") {
            return Err(format!("OPEN {sid}: unexpected reply `{got}`"));
        }
    }
    tr.end(open);

    let mut cursor = vec![0usize; work.len()];
    let mut since_query = vec![0usize; work.len()];
    loop {
        let send = tr.begin("serve.send", round);
        let mut live = 0;
        for (i, session) in lines.iter().enumerate() {
            let Some(line) = session.get(cursor[i]) else {
                continue;
            };
            live += 1;
            writeln!(w, "{line}").map_err(io)?;
            if cursor[i] >= headers[i] {
                out.events += 1;
                since_query[i] += 1;
            }
            cursor[i] += 1;
            if since_query[i] >= QUERY_EVERY {
                since_query[i] = 0;
                let (pos, (sid, _)) = work[i];
                let q = tr.begin("serve.query", pos as u64);
                writeln!(w, "QUERY {sid}").map_err(io)?;
                w.flush().map_err(io)?;
                let got = reply(&mut r, &mut out.busy)?;
                out.query_ms.push(tr.end(q) as f64 / 1e6);
                if !got.starts_with(&format!("VERDICT {sid} ")) {
                    return Err(format!("QUERY {sid}: unexpected reply `{got}`"));
                }
            }
        }
        tr.end(send);
        if live == 0 {
            break;
        }
    }

    for (pos, (sid, _)) in work {
        let close = tr.begin("serve.close", *pos as u64);
        writeln!(w, "CLOSE {sid}").map_err(io)?;
        w.flush().map_err(io)?;
        let got = reply(&mut r, &mut out.busy)?;
        tr.end(close);
        let payload = got
            .strip_prefix(&format!("CLOSED {sid} "))
            .ok_or_else(|| format!("CLOSE {sid}: unexpected reply `{got}`"))?;
        out.payloads.push((*pos, payload.to_owned()));
    }
    tr.end(conn_span);
    out.tracer = tr;
    Ok(out)
}
