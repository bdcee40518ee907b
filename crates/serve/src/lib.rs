//! Multi-session streaming admission server.
//!
//! `smc serve` turns the streaming [`Monitor`] into an always-on
//! network service: a TCP listener accepts line-oriented connections,
//! each carrying events for any number of independent *sessions*, and
//! every session is backed by its own incremental monitor over its own
//! trace. The protocol is plain text, one command per line:
//!
//! ```text
//! OPEN <sid> [model]     -> OK <sid> | ERR ...
//! EV <sid> <trace line>  -> (silent) | BUSY <sid> | ERR ...
//! @<sid> <trace line>    -> shorthand for EV
//! QUERY <sid>            -> VERDICT <sid> <events> SC=admitted ...
//! CLOSE <sid>            -> CLOSED <sid> <events> SC=admitted ...
//! SNAPSHOT <sid> <name>  -> SNAPSHOTTED <sid> <events> (session stays open)
//! RESUME <sid> <name>    -> RESUMED <sid> <events> (session resumes warm)
//! PING                   -> PONG
//! STATS                  -> STATS sessions=.. events=.. ...
//! SHUTDOWN               -> BYE (server stops)
//! ```
//!
//! Event lines reuse the `smc trace` grammar verbatim (headers
//! included), parsed by [`smc_history::trace::parse_trace_line`]; the
//! `@sid` framing is [`smc_history::trace::split_session_line`].
//!
//! # Architecture
//!
//! * **Acceptor + connection readers.** One acceptor thread accepts
//!   connections (bounded by `max_conns`); each connection gets a
//!   reader thread that parses command lines and replies inline.
//!   Sessions are server-scoped, not connection-scoped: any connection
//!   may feed or query any session, and dropping a connection leaves
//!   its sessions running (a second connection can issue out-of-band
//!   `QUERY`s while the first streams events).
//! * **Sharded session map.** Session ids hash into 16 independently
//!   locked shards (the same shape as the checker's `MemoCache`), so
//!   thousands of concurrent sessions never serialize on one lock.
//! * **Batched draining.** `EV` only parses the line into the
//!   session's inbox — a pending [`Trace`] of the unfed lines — and
//!   schedules the session on a run queue. A fixed pool of `workers`
//!   drain threads cuts off whatever has accumulated with
//!   [`Trace::split_front`] and feeds it to the session's monitor with
//!   one [`Monitor::feed_trace`] call, so batch size adapts to load: an
//!   idle server feeds per-event, a saturated one amortizes interning,
//!   table growth and restart-model settling over hundreds of events.
//! * **Backpressure.** A session's inbox holds at most `queue_cap`
//!   unfed lines, events and `join`/`retire` lines alike. Past that,
//!   `EV` replies `BUSY <sid>` and drops the line — a slow session
//!   costs bounded memory, never an unbounded queue. `QUERY`/`CLOSE`
//!   drain synchronously, so a client that paces a query every
//!   `queue_cap` lines can never be refused.
//! * **Line cap.** A command line may be at most 1 MiB long. A
//!   connection that sends a longer one gets `ERR line too long` and is
//!   closed; its sessions stay open, like those of any connection that
//!   drops.
//! * **Poisoning.** A malformed event line poisons only its session:
//!   the parse error is recorded, later events for that session are
//!   discarded, and `QUERY`/`CLOSE` report `error: <msg>` instead of
//!   verdicts. The connection — and every other session — stays up.
//! * **Lifecycle.** `join`/`retire` lines wait in the inbox with the
//!   events and apply at their recorded stream positions when the
//!   drain feeds them. `SNAPSHOT` drains a session and writes its
//!   [`Monitor::checkpoint_bytes`] to `<evict-dir>/<name>.snap`; `RESUME`
//!   rebuilds a session from such a file, warm — its verdict stream
//!   continues byte-identically. The client sends a name, not a path
//!   (1–64 letters, digits, `-` and `_`), and without `--evict-dir`
//!   both verbs answer `ERR`. With `--evict-dir` set, an `OPEN` that
//!   hits `max_sessions` also checkpoints the least-recently-active
//!   idle session to disk and evicts it instead of refusing; a later
//!   command addressed to an evicted session resumes it transparently
//!   from the same directory. Every resume reads at most
//!   `MAX_CHECKPOINT_BYTES` (256 MiB).
//!
//! Verdict payloads list one `model=verdict` token per monitored
//! model, with `,first=N` appended for models whose first refuted
//! prefix is event-exact under batching (see
//! [`Monitor::is_event_exact`]); [`offline_payload`] computes the
//! byte-identical payload for a complete trace without a server, which
//! is what the load generator's verify mode and the integration tests
//! diff against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loadgen;

use std::collections::{HashMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use smc_core::binfmt::read_file;
use smc_core::models;
use smc_core::spec::ModelSpec;
use smc_history::trace::{is_session_id, parse_trace_line, split_session_line, Trace, MAX_LINE};
use smc_monitor::ckpt::MAX_CHECKPOINT_BYTES;
use smc_monitor::{Monitor, MonitorConfig, StepReport};

/// Number of shards in the session map. Power of two; sixteen matches
/// the checker's `MemoCache` sharding.
const SHARDS: usize = 16;

/// Poll interval for the non-blocking acceptor and the connection
/// readers' timeout, bounding shutdown latency.
const POLL: Duration = Duration::from_millis(20);

/// Tuning for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks an ephemeral port (see
    /// [`Server::addr`]).
    pub addr: String,
    /// Drain worker threads. `0` disables asynchronous draining —
    /// events sit in the inbox until a `QUERY`/`CLOSE` drains them
    /// synchronously (deterministic, used to test backpressure).
    pub workers: usize,
    /// Admission cap: `OPEN` beyond this many live sessions is refused.
    pub max_sessions: usize,
    /// Concurrent connection cap; excess connections are refused.
    pub max_conns: usize,
    /// Per-session inbox bound in unfed events; `EV` past it gets
    /// `BUSY`.
    pub queue_cap: usize,
    /// Models monitored by a session when `OPEN` names none.
    pub models: Vec<ModelSpec>,
    /// Monitor tuning template, cloned per session. The clone shares
    /// the template's memo cache, so restart-model re-checks memoize
    /// across sessions.
    pub monitor: MonitorConfig,
    /// Directory for checkpoint-to-disk eviction and snapshots. When
    /// set, an `OPEN` (or transparent resume) that finds the server full
    /// evicts the least-recently-active idle session to
    /// `<dir>/<sid>-<hash>.ckpt` instead of refusing, and a command
    /// addressed to an evicted session resumes it from the same file;
    /// `SNAPSHOT`/`RESUME` names resolve to `<dir>/<name>.snap`. `None`
    /// disables eviction and both verbs.
    pub evict_dir: Option<PathBuf>,
}

/// Default per-engine frontier state budget for server sessions.
///
/// The offline monitor defaults to `1 << 20` states — fine for one
/// trace, ruinous for thousands of concurrent sessions (a 64-event
/// aliased trace can reach ~24k frontier states ≈ 5 MB *per session*,
/// and per-event append cost grows with the state count). Capping at
/// 1024 keeps typical litmus-scale sessions fully event-exact while an
/// engine that overflows falls back to batch-end rechecks: bounded
/// memory, and measured ~20× higher sustained throughput at 1024
/// sessions. Override with `--max-states`.
pub const DEFAULT_SESSION_MAX_STATES: usize = 1024;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(2).max(1))
                .unwrap_or(2),
            max_sessions: 4096,
            max_conns: 256,
            queue_cap: 1024,
            models: models::lattice_models(),
            monitor: MonitorConfig {
                max_frontier_states: DEFAULT_SESSION_MAX_STATES,
                ..MonitorConfig::default()
            },
            evict_dir: None,
        }
    }
}

/// Parsed-but-unfed lines plus the session's stream bookkeeping.
/// Guarded by its own lock so `EV` (parse + append) never waits on a
/// drain in progress; lock order is monitor before inbox.
struct Inbox {
    /// The wire lines parsed but not yet fed: events, lifecycle lines
    /// and the names they use.
    pending: Trace,
    /// Session is queued on the run queue or mid-drain.
    scheduled: bool,
    /// First parse error; set once, never cleared.
    poisoned: Option<String>,
    /// `CLOSE` ran; late `EV`s racing the map removal get an error.
    closed: bool,
    /// Per-session line number for parse-error messages.
    line_no: usize,
    /// Per-session byte offset for parse-error messages.
    offset: usize,
}

/// One monitored session. The id lives in the shard map key; replies
/// echo the id the client sent.
struct Session {
    inbox: Mutex<Inbox>,
    mon: Mutex<Monitor>,
    /// Logical activity tick (from [`Shared::tick`]); the eviction scan
    /// picks the smallest.
    last_active: AtomicU64,
}

impl Session {
    fn new(models: Vec<ModelSpec>, cfg: MonitorConfig) -> Arc<Session> {
        Session::with_monitor(Monitor::new(models, cfg))
    }

    /// Wrap an already-built monitor (the `RESUME` path).
    fn with_monitor(mon: Monitor) -> Arc<Session> {
        Arc::new(Session {
            inbox: Mutex::new(Inbox {
                pending: Trace::new(),
                scheduled: false,
                poisoned: None,
                closed: false,
                line_no: 0,
                offset: 0,
            }),
            mon: Mutex::new(mon),
            last_active: AtomicU64::new(0),
        })
    }
}

/// State shared by the acceptor, connection readers and drain workers.
struct Shared {
    cfg: ServeConfig,
    shards: Vec<Mutex<HashMap<String, Arc<Session>>>>,
    runq: Mutex<VecDeque<Arc<Session>>>,
    runq_cv: Condvar,
    shutdown: AtomicBool,
    open_sessions: AtomicUsize,
    peak_sessions: AtomicUsize,
    conns: AtomicUsize,
    events_fed: AtomicU64,
    busy: AtomicU64,
    poisoned: AtomicU64,
    queries: AtomicU64,
    /// Logical clock stamping session activity for LRU eviction.
    tick: AtomicU64,
    snapshots: AtomicU64,
    resumes: AtomicU64,
    evictions: AtomicU64,
    /// Monitor counters of already-closed sessions; live sessions are
    /// summed on demand by [`Shared::totals`].
    closed: Mutex<StepReport>,
}

impl Shared {
    fn shard(&self, sid: &str) -> &Mutex<HashMap<String, Arc<Session>>> {
        // FNV-1a; only distribution matters.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in sid.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h as usize) % SHARDS]
    }

    fn session(&self, sid: &str) -> Option<Arc<Session>> {
        self.shard(sid).lock().unwrap().get(sid).cloned()
    }

    /// Stamp `s` as the most recently active session.
    fn touch(&self, s: &Session) {
        s.last_active.store(
            self.tick.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
    }

    /// Monitor counters over closed and live sessions. Locks each live
    /// monitor briefly.
    fn totals(&self) -> StepReport {
        let mut t = *self.closed.lock().unwrap();
        for shard in &self.shards {
            let sessions: Vec<Arc<Session>> = shard.lock().unwrap().values().cloned().collect();
            for s in sessions {
                t.absorb(s.mon.lock().unwrap().totals());
            }
        }
        t
    }

    fn stats_line(&self) -> String {
        let (hits, misses) = self
            .cfg
            .monitor
            .check
            .memo
            .as_ref()
            .map(|m| {
                let s = m.stats();
                (s.hits, s.misses)
            })
            .unwrap_or((0, 0));
        let t = self.totals();
        format!(
            "STATS sessions={} peak={} conns={} events={} busy={} poisoned={} queries={} \
             memo_hits={hits} memo_misses={misses} snapshots={} resumes={} evictions={} \
             joins={} retires={} folds={} windows={}",
            self.open_sessions.load(Ordering::Relaxed),
            self.peak_sessions.load(Ordering::Relaxed),
            self.conns.load(Ordering::Relaxed),
            self.events_fed.load(Ordering::Relaxed),
            self.busy.load(Ordering::Relaxed),
            self.poisoned.load(Ordering::Relaxed),
            self.queries.load(Ordering::Relaxed),
            self.snapshots.load(Ordering::Relaxed),
            self.resumes.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
            t.joins,
            t.retires,
            t.folds,
            t.windows_sealed,
        )
    }
}

/// Verdict payload for the monitor's current prefix: the event count
/// followed by one `model=verdict` token per model, with `,first=N`
/// for models whose first refuted prefix is event-exact.
pub fn verdict_payload(mon: &Monitor) -> String {
    use std::fmt::Write;
    let mut s = mon.num_events().to_string();
    for (i, m) in mon.models().iter().enumerate() {
        let _ = write!(s, " {}={}", m.name, mon.verdicts()[i].word());
        if mon.is_event_exact(i) {
            if let Some(n) = mon.first_violation(i) {
                let _ = write!(s, ",first={n}");
            }
        }
    }
    s
}

/// The payload a server session would report after ingesting `t`
/// whole: feed offline, format with [`verdict_payload`]. The serve
/// equivalence tests and the load generator's verify mode diff server
/// payloads against this.
pub fn offline_payload(models: &[ModelSpec], cfg: &MonitorConfig, t: &Trace) -> String {
    let mut mon = Monitor::new(models.to_vec(), cfg.clone());
    mon.feed_trace(t);
    verdict_payload(&mon)
}

/// Feed everything pending in the session's inbox to its monitor and
/// return the monitor guard (still locked, so the caller can read
/// verdicts of exactly the drained prefix). Safe to race with other
/// drains: the monitor lock serializes them, and each takes its lines
/// out of the inbox while holding it.
fn drain_locked<'a>(s: &'a Session, shared: &Shared) -> MutexGuard<'a, Monitor> {
    let mut mon = s.mon.lock().unwrap();
    loop {
        // Take the pending lines out under the inbox lock, feed them
        // after release: EV keeps appending while the batch feeds.
        let front = {
            let mut inbox = s.inbox.lock().unwrap();
            let n = inbox.pending.len();
            let front = inbox.pending.split_front(n);
            if unfed_lines(&front) == 0 {
                inbox.scheduled = false;
            }
            front
        };
        // A segment without events or lifecycle lines may still carry
        // names a header introduced.
        mon.feed_trace(&front);
        if unfed_lines(&front) == 0 {
            return mon;
        }
        shared
            .events_fed
            .fetch_add(front.len() as u64, Ordering::Relaxed);
    }
}

/// Lines of `pending` still to feed — its events and lifecycle lines —
/// the unit `queue_cap` bounds.
fn unfed_lines(pending: &Trace) -> usize {
    pending.len() + pending.lifecycle().len()
}

/// What a command line asks the connection loop to do.
enum Action {
    /// No reply (successful `EV`, blank line, comment).
    Silent,
    /// Write this line back.
    Reply(String),
    /// Write the line, then stop the whole server.
    Shutdown(String),
}

/// Characters a file name built from a client's name may keep.
fn is_file_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '-' || c == '_'
}

/// Checkpoint file an evicted session `sid` lives in: the id sanitized
/// for the filesystem plus an FNV-1a hash so distinct ids never share a
/// file.
fn evict_path(dir: &Path, sid: &str) -> PathBuf {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in sid.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let safe: String = sid
        .chars()
        .map(|c| if is_file_char(c) { c } else { '_' })
        .collect();
    dir.join(format!("{safe}-{h:016x}.ckpt"))
}

/// The file a `SNAPSHOT`/`RESUME` name stands for:
/// `<evict-dir>/<name>.snap`. A name is 1–64 letters, digits, `-` and
/// `_`, so it cannot leave the directory, and the `.snap` suffix keeps
/// it apart from every eviction file (those end in `.ckpt`). Without an
/// eviction directory there is nowhere to put one.
fn snapshot_path(shared: &Shared, name: &str) -> Result<PathBuf, String> {
    let Some(dir) = shared.cfg.evict_dir.as_deref() else {
        return Err("snapshots need --evict-dir".into());
    };
    if name.is_empty() || name.len() > 64 || !name.chars().all(is_file_char) {
        return Err("a snapshot name is 1-64 letters, digits, `-` or `_`".into());
    }
    Ok(dir.join(format!("{name}.snap")))
}

/// Reserve one session slot against `max_sessions`, evicting an idle
/// session to disk if the server is full and eviction is enabled.
/// Returns `false` (with the reservation released) when no capacity can
/// be made.
fn reserve_slot(shared: &Shared) -> bool {
    loop {
        let live = shared.open_sessions.fetch_add(1, Ordering::Relaxed);
        if live < shared.cfg.max_sessions {
            shared.peak_sessions.fetch_max(live + 1, Ordering::Relaxed);
            return true;
        }
        shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
        if !try_evict(shared) {
            return false;
        }
    }
}

/// Evict the least-recently-active idle session to the eviction
/// directory, freeing one slot. Returns whether a session was evicted.
fn try_evict(shared: &Shared) -> bool {
    let Some(dir) = shared.cfg.evict_dir.as_deref() else {
        return false;
    };
    // Scan for the oldest idle candidate: fully drained, unscheduled,
    // healthy. try_lock so a busy session never blocks the scan.
    let mut best: Option<(u64, String, Arc<Session>)> = None;
    for shard in &shared.shards {
        for (sid, s) in shard.lock().unwrap().iter() {
            let Ok(inbox) = s.inbox.try_lock() else {
                continue;
            };
            let idle = !inbox.scheduled
                && unfed_lines(&inbox.pending) == 0
                && inbox.poisoned.is_none()
                && !inbox.closed;
            drop(inbox);
            if !idle {
                continue;
            }
            let t = s.last_active.load(Ordering::Relaxed);
            if best.as_ref().is_none_or(|(bt, _, _)| t < *bt) {
                best = Some((t, sid.clone(), Arc::clone(s)));
            }
        }
    }
    let Some((_, sid, s)) = best else {
        return false;
    };
    // Claim it by removing it from the map; new commands for the id now
    // miss and go down the transparent-resume path.
    if shared.shard(&sid).lock().unwrap().remove(&sid).is_none() {
        return false;
    }
    let mon = drain_locked(&s, shared);
    s.inbox.lock().unwrap().closed = true;
    let written = std::fs::create_dir_all(dir).is_ok()
        && smc_core::binfmt::write_file(&evict_path(dir, &sid), &mon.checkpoint_bytes()).is_ok();
    drop(mon);
    if !written {
        // Undo: the session stays resident rather than losing state.
        s.inbox.lock().unwrap().closed = false;
        shared.shard(&sid).lock().unwrap().insert(sid, s);
        return false;
    }
    shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
    shared.evictions.fetch_add(1, Ordering::Relaxed);
    true
}

/// Rebuild a session from checkpoint bytes and insert it under `sid`.
/// Returns the restored event count.
fn resume_session(shared: &Shared, sid: &str, bytes: &[u8]) -> Result<usize, String> {
    // The checkpoint names its models; resolve them by name so a
    // single-model session resumes as itself. Unresolvable names fall
    // back to the server's default set — `restore` still validates.
    let specs = smc_monitor::ckpt::peek_models(bytes)
        .ok()
        .and_then(|names| {
            names
                .iter()
                .map(|n| models::by_name(n))
                .collect::<Option<Vec<ModelSpec>>>()
        })
        .unwrap_or_else(|| shared.cfg.models.clone());
    let mon = Monitor::restore_bytes(bytes, specs, shared.cfg.monitor.clone())?;
    if !reserve_slot(shared) {
        return Err(format!("full max-sessions={}", shared.cfg.max_sessions));
    }
    let mut shard = shared.shard(sid).lock().unwrap();
    if shard.contains_key(sid) {
        drop(shard);
        shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
        return Err(format!("session exists `{sid}`"));
    }
    let events = mon.num_events();
    let s = Session::with_monitor(mon);
    shared.touch(&s);
    shard.insert(sid.to_owned(), s);
    shared.resumes.fetch_add(1, Ordering::Relaxed);
    Ok(events)
}

/// Look up a session, transparently resuming it from the eviction
/// directory on a miss.
fn find_session(shared: &Shared, sid: &str) -> Option<Arc<Session>> {
    if let Some(s) = shared.session(sid) {
        return Some(s);
    }
    let dir = shared.cfg.evict_dir.as_deref()?;
    let path = evict_path(dir, sid);
    let bytes = read_file(&path, MAX_CHECKPOINT_BYTES).ok()?;
    match resume_session(shared, sid, &bytes) {
        Ok(_) => {
            let _ = std::fs::remove_file(&path);
            shared.session(sid)
        }
        Err(_) => None,
    }
}

fn cmd_open(shared: &Shared, sid: &str, selector: Option<&str>) -> Action {
    if !is_session_id(sid) {
        return Action::Reply(format!("ERR invalid session id `{sid}`"));
    }
    let session_models = match selector {
        None | Some("all") => shared.cfg.models.clone(),
        Some(name) => match models::by_name(name) {
            Some(m) => vec![m],
            None => return Action::Reply(format!("ERR unknown model `{name}`")),
        },
    };
    // Reserve a slot before touching the map so concurrent OPENs on
    // different shards cannot overshoot the cap.
    if !reserve_slot(shared) {
        return Action::Reply(format!("ERR full max-sessions={}", shared.cfg.max_sessions));
    }
    let mut shard = shared.shard(sid).lock().unwrap();
    if shard.contains_key(sid) {
        drop(shard);
        shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
        return Action::Reply(format!("ERR session exists `{sid}`"));
    }
    let s = Session::new(session_models, shared.cfg.monitor.clone());
    shared.touch(&s);
    shard.insert(sid.to_owned(), s);
    drop(shard);
    // A fresh OPEN supersedes any stale evicted checkpoint of the id.
    if let Some(dir) = shared.cfg.evict_dir.as_deref() {
        let _ = std::fs::remove_file(evict_path(dir, sid));
    }
    Action::Reply(format!("OK {sid}"))
}

fn cmd_snapshot(shared: &Shared, sid: &str, name: &str) -> Action {
    let path = match snapshot_path(shared, name) {
        Ok(p) => p,
        Err(e) => return Action::Reply(format!("ERR snapshot `{name}`: {e}")),
    };
    let Some(s) = find_session(shared, sid) else {
        return Action::Reply(format!("ERR unknown session `{sid}`"));
    };
    shared.touch(&s);
    let mon = drain_locked(&s, shared);
    if let Some(msg) = s.inbox.lock().unwrap().poisoned.clone() {
        return Action::Reply(format!("ERR session `{sid}` poisoned: {msg}"));
    }
    let dir = path.parent().expect("a snapshot lives in the evict dir");
    match std::fs::create_dir_all(dir)
        .and_then(|()| smc_core::binfmt::write_file(&path, &mon.checkpoint_bytes()))
    {
        Ok(()) => {
            shared.snapshots.fetch_add(1, Ordering::Relaxed);
            Action::Reply(format!("SNAPSHOTTED {sid} {}", mon.num_events()))
        }
        Err(e) => Action::Reply(format!("ERR snapshot `{name}`: {e}")),
    }
}

fn cmd_resume(shared: &Shared, sid: &str, name: &str) -> Action {
    if !is_session_id(sid) {
        return Action::Reply(format!("ERR invalid session id `{sid}`"));
    }
    let read = snapshot_path(shared, name).and_then(|p| read_file(&p, MAX_CHECKPOINT_BYTES));
    let bytes = match read {
        Ok(b) => b,
        Err(e) => return Action::Reply(format!("ERR resume `{name}`: {e}")),
    };
    match resume_session(shared, sid, &bytes) {
        Ok(events) => Action::Reply(format!("RESUMED {sid} {events}")),
        Err(e) => Action::Reply(format!("ERR {e}")),
    }
}

fn cmd_ev(shared: &Arc<Shared>, sid: &str, rest: &str) -> Action {
    let Some(s) = find_session(shared, sid) else {
        return Action::Reply(format!("ERR unknown session `{sid}`"));
    };
    shared.touch(&s);
    let schedule = {
        let mut inbox = s.inbox.lock().unwrap();
        if inbox.closed {
            return Action::Reply(format!("ERR unknown session `{sid}`"));
        }
        if inbox.poisoned.is_some() {
            // The session is already failed; swallow the rest of its
            // stream so the connection (and its other sessions) go on.
            return Action::Silent;
        }
        if unfed_lines(&inbox.pending) >= shared.cfg.queue_cap {
            shared.busy.fetch_add(1, Ordering::Relaxed);
            return Action::Reply(format!("BUSY {sid}"));
        }
        inbox.line_no += 1;
        let (line_no, offset) = (inbox.line_no, inbox.offset);
        if let Err(e) = parse_trace_line(&mut inbox.pending, rest, line_no, offset) {
            inbox.poisoned = Some(e.to_string());
            shared.poisoned.fetch_add(1, Ordering::Relaxed);
        }
        inbox.offset += rest.len() + 1;
        if unfed_lines(&inbox.pending) > 0 && !inbox.scheduled && shared.cfg.workers > 0 {
            inbox.scheduled = true;
            true
        } else {
            false
        }
    };
    if schedule {
        shared.runq.lock().unwrap().push_back(s);
        shared.runq_cv.notify_one();
    }
    Action::Silent
}

fn cmd_query(shared: &Shared, sid: &str) -> Action {
    let Some(s) = find_session(shared, sid) else {
        return Action::Reply(format!("ERR unknown session `{sid}`"));
    };
    shared.touch(&s);
    shared.queries.fetch_add(1, Ordering::Relaxed);
    let mon = drain_locked(&s, shared);
    let poisoned = s.inbox.lock().unwrap().poisoned.clone();
    let payload = match poisoned {
        Some(msg) => format!("{} error: {msg}", mon.num_events()),
        None => verdict_payload(&mon),
    };
    Action::Reply(format!("VERDICT {sid} {payload}"))
}

fn cmd_close(shared: &Shared, sid: &str) -> Action {
    let removed = shared.shard(sid).lock().unwrap().remove(sid);
    let s = match removed {
        Some(s) => s,
        // An evicted session can still be closed: resume, then retry
        // the removal (find_session inserted it into the map).
        None => match find_session(shared, sid) {
            Some(_) => match shared.shard(sid).lock().unwrap().remove(sid) {
                Some(s) => s,
                None => return Action::Reply(format!("ERR unknown session `{sid}`")),
            },
            None => return Action::Reply(format!("ERR unknown session `{sid}`")),
        },
    };
    let mon = drain_locked(&s, shared);
    let poisoned = {
        let mut inbox = s.inbox.lock().unwrap();
        inbox.closed = true;
        inbox.poisoned.clone()
    };
    shared.closed.lock().unwrap().absorb(mon.totals());
    shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
    let payload = match poisoned {
        Some(msg) => format!("{} error: {msg}", mon.num_events()),
        None => verdict_payload(&mon),
    };
    Action::Reply(format!("CLOSED {sid} {payload}"))
}

/// Dispatch one protocol line.
fn handle_line(shared: &Arc<Shared>, line: &str) -> Action {
    let line = line.trim_end_matches('\r');
    // `@sid <event>` shorthand outranks keyword parsing so session ids
    // can never collide with command words.
    if let Some((sid, rest)) = split_session_line(line) {
        return cmd_ev(shared, sid, rest);
    }
    let trimmed = line.trim_start();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Action::Silent;
    }
    let (word, rest) = match trimmed.split_once(char::is_whitespace) {
        Some((w, r)) => (w, r.trim_start()),
        None => (trimmed, ""),
    };
    match word {
        "OPEN" => {
            let mut it = rest.split_whitespace();
            match (it.next(), it.next(), it.next()) {
                (Some(sid), sel, None) => cmd_open(shared, sid, sel),
                _ => Action::Reply("ERR usage: OPEN <sid> [model]".into()),
            }
        }
        "EV" => match rest.split_once(char::is_whitespace) {
            Some((sid, ev)) => cmd_ev(shared, sid, ev),
            None if !rest.is_empty() => cmd_ev(shared, rest, ""),
            None => Action::Reply("ERR usage: EV <sid> <event>".into()),
        },
        "QUERY" => match rest.split_whitespace().next() {
            Some(sid) => cmd_query(shared, sid),
            None => Action::Reply("ERR usage: QUERY <sid>".into()),
        },
        "CLOSE" => match rest.split_whitespace().next() {
            Some(sid) => cmd_close(shared, sid),
            None => Action::Reply("ERR usage: CLOSE <sid>".into()),
        },
        "SNAPSHOT" => {
            let mut it = rest.split_whitespace();
            match (it.next(), it.next(), it.next()) {
                (Some(sid), Some(name), None) => cmd_snapshot(shared, sid, name),
                _ => Action::Reply("ERR usage: SNAPSHOT <sid> <name>".into()),
            }
        }
        "RESUME" => {
            let mut it = rest.split_whitespace();
            match (it.next(), it.next(), it.next()) {
                (Some(sid), Some(name), None) => cmd_resume(shared, sid, name),
                _ => Action::Reply("ERR usage: RESUME <sid> <name>".into()),
            }
        }
        "PING" => Action::Reply("PONG".into()),
        "STATS" => Action::Reply(shared.stats_line()),
        "SHUTDOWN" => Action::Shutdown("BYE".into()),
        _ => Action::Reply(format!("ERR unknown command `{word}`")),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let next = {
            let mut q = shared.runq.lock().unwrap();
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                q = shared.runq_cv.wait(q).unwrap();
            }
        };
        match next {
            Some(s) => drop(drain_locked(&s, shared)),
            None => return,
        }
    }
}

fn conn_loop(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let Ok(write_half) = stream.try_clone() else {
        shared.conns.fetch_sub(1, Ordering::Relaxed);
        return;
    };
    let mut out = std::io::BufWriter::new(write_half);
    let mut stream = stream;
    let mut pending: Vec<u8> = Vec::new();
    // Bytes of `pending` already searched for a newline.
    let mut scanned = 0usize;
    let mut buf = [0u8; 16 * 1024];
    'conn: loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        pending.extend_from_slice(&buf[..n]);
        let mut start = 0usize;
        loop {
            let nl = pending[scanned..].iter().position(|&b| b == b'\n');
            let end = nl.map_or(pending.len(), |i| scanned + i);
            if end - start > MAX_LINE {
                let _ = out.write_all(b"ERR line too long\n");
                let _ = out.flush();
                break 'conn;
            }
            if nl.is_none() {
                break;
            }
            let line = &pending[start..end];
            start = end + 1;
            scanned = start;
            let action = match std::str::from_utf8(line) {
                Ok(text) => handle_line(&shared, text),
                Err(_) => Action::Reply("ERR invalid utf-8".into()),
            };
            match action {
                Action::Silent => {}
                Action::Reply(r) => {
                    if out.write_all(r.as_bytes()).is_err()
                        || out.write_all(b"\n").is_err()
                        || out.flush().is_err()
                    {
                        break 'conn;
                    }
                }
                Action::Shutdown(r) => {
                    let _ = out.write_all(r.as_bytes());
                    let _ = out.write_all(b"\n");
                    let _ = out.flush();
                    shared.shutdown.store(true, Ordering::Release);
                    shared.runq_cv.notify_all();
                    break 'conn;
                }
            }
        }
        pending.drain(..start);
        scanned = pending.len();
    }
    shared.conns.fetch_sub(1, Ordering::Relaxed);
}

/// A running admission server. Dropping the handle does **not** stop
/// it — call [`Server::shutdown`] (or send `SHUTDOWN` over a
/// connection and [`Server::wait`]).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind and start accepting. Returns once the listener is live.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let workers_n = cfg.workers;
        let shared = Arc::new(Shared {
            cfg,
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            runq: Mutex::new(VecDeque::new()),
            runq_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            open_sessions: AtomicUsize::new(0),
            peak_sessions: AtomicUsize::new(0),
            conns: AtomicUsize::new(0),
            events_fed: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            resumes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            closed: Mutex::new(StepReport::default()),
        });
        let conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let workers = (0..workers_n)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::spawn(move || loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        // Reap finished readers so the handle list stays
                        // proportional to live connections.
                        let mut threads = conn_threads.lock().unwrap();
                        threads.retain(|t| !t.is_finished());
                        if shared.conns.load(Ordering::Relaxed) >= shared.cfg.max_conns {
                            let _ = stream.write_all(b"ERR too many connections\n");
                            continue;
                        }
                        shared.conns.fetch_add(1, Ordering::Relaxed);
                        let shared = Arc::clone(&shared);
                        threads.push(std::thread::spawn(move || conn_loop(stream, shared)));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            })
        };
        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
            conn_threads,
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One-line server counters, same shape as the `STATS` reply.
    pub fn stats_line(&self) -> String {
        self.shared.stats_line()
    }

    /// True until `SHUTDOWN` arrives or [`Server::shutdown`] runs.
    pub fn running(&self) -> bool {
        !self.shared.shutdown.load(Ordering::Acquire)
    }

    fn join_all(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.runq_cv.notify_all();
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        for t in self.conn_threads.lock().unwrap().drain(..) {
            let _ = t.join();
        }
    }

    /// Stop accepting, finish queued drains, join every thread.
    pub fn shutdown(mut self) {
        self.join_all();
    }

    /// Block until a client sends `SHUTDOWN`, then join every thread.
    pub fn wait(mut self) {
        while self.running() {
            std::thread::sleep(POLL);
        }
        self.join_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_history::trace::{emit_trace, parse_trace};
    use std::io::{BufRead, BufReader, Write};

    fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    }

    fn roundtrip(r: &mut BufReader<TcpStream>, w: &mut TcpStream, line: &str) -> String {
        writeln!(w, "{line}").unwrap();
        let mut reply = String::new();
        r.read_line(&mut reply).unwrap();
        reply.trim_end().to_owned()
    }

    fn test_server(workers: usize, queue_cap: usize) -> Server {
        Server::start(ServeConfig {
            workers,
            queue_cap,
            models: vec![models::sc(), models::causal()],
            ..ServeConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn open_feed_query_close_matches_offline() {
        let server = test_server(2, 1024);
        let (mut r, mut w) = connect(server.addr());
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN s1"), "OK s1");
        let t = parse_trace("p w(x)1\nq w(y)1\np r(y)0\nq r(x)0\n").unwrap();
        for line in emit_trace(&t).lines() {
            writeln!(w, "@s1 {line}").unwrap();
        }
        let cfg = ServeConfig::default();
        let want = offline_payload(&[models::sc(), models::causal()], &cfg.monitor, &t);
        let got = roundtrip(&mut r, &mut w, "QUERY s1");
        assert_eq!(got, format!("VERDICT s1 {want}"));
        let got = roundtrip(&mut r, &mut w, "CLOSE s1");
        assert_eq!(got, format!("CLOSED s1 {want}"));
        // Closed sessions are gone, and their slot is reusable.
        assert!(roundtrip(&mut r, &mut w, "QUERY s1").starts_with("ERR unknown session"));
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN s1"), "OK s1");
        server.shutdown();
    }

    #[test]
    fn bad_line_poisons_only_its_session() {
        let server = test_server(2, 1024);
        let (mut r, mut w) = connect(server.addr());
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN good"), "OK good");
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN bad"), "OK bad");
        writeln!(w, "@good p w(x)1").unwrap();
        writeln!(w, "@bad p w(x)1").unwrap();
        writeln!(w, "@bad p frobnicate").unwrap();
        writeln!(w, "@bad p w(x)2").unwrap();
        let got = roundtrip(&mut r, &mut w, "QUERY bad");
        assert!(got.starts_with("VERDICT bad 1 error:"), "{got}");
        // The poisoned session keeps failing, the connection and the
        // healthy session are untouched.
        let got = roundtrip(&mut r, &mut w, "QUERY good");
        assert!(got.starts_with("VERDICT good 1 SC=admitted"), "{got}");
        assert_eq!(roundtrip(&mut r, &mut w, "PING"), "PONG");
        server.shutdown();
    }

    /// The STATS counter `key=N`.
    fn stat(line: &str, key: &str) -> u64 {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no `{key}` in {line}"))
    }

    #[test]
    fn lifecycle_lines_apply_at_their_stream_positions() {
        // Three processor generations joined and retired over one TSO
        // stream (`smc trace gen --churn 2`, see the fixture's header).
        let text = include_str!("../../../tests/fixtures/churn_tso_seed1.trace");
        let t = parse_trace(text).unwrap();
        let cfg = ServeConfig::default();
        let mut offline = Monitor::new(cfg.models.clone(), cfg.monitor.clone());
        offline.feed_trace(&t);
        let want = offline.totals();
        assert!(want.folds > 0, "the fixture must fold a retired slot");
        let payload = offline_payload(&cfg.models, &cfg.monitor, &t);
        // No drain workers: the whole stream drains at QUERY, in one
        // window. Two workers: drains cut it wherever they race it.
        for workers in [0, 2] {
            let server = Server::start(ServeConfig {
                workers,
                ..ServeConfig::default()
            })
            .unwrap();
            let (mut r, mut w) = connect(server.addr());
            assert_eq!(roundtrip(&mut r, &mut w, "OPEN s"), "OK s");
            for line in text.lines() {
                writeln!(w, "@s {line}").unwrap();
            }
            let got = roundtrip(&mut r, &mut w, "QUERY s");
            assert_eq!(got, format!("VERDICT s {payload}"), "workers={workers}");
            let session = server.shared.session("s").unwrap();
            assert_eq!(
                session.mon.lock().unwrap().churn().width(),
                offline.churn().width(),
                "workers={workers}: a joiner took a fresh slot instead of a folded one"
            );
            let got = roundtrip(&mut r, &mut w, "CLOSE s");
            assert_eq!(got, format!("CLOSED s {payload}"), "workers={workers}");
            let stats = roundtrip(&mut r, &mut w, "STATS");
            assert_eq!(stat(&stats, "joins"), want.joins, "{stats}");
            assert_eq!(stat(&stats, "retires"), want.retires, "{stats}");
            assert_eq!(stat(&stats, "folds"), want.folds, "{stats}");
            server.shutdown();
        }
    }

    #[test]
    fn backpressure_is_busy_not_unbounded() {
        // workers: 0 makes draining purely synchronous, so the third
        // event must find the two-slot inbox full.
        let server = test_server(0, 2);
        let (mut r, mut w) = connect(server.addr());
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN s"), "OK s");
        writeln!(w, "@s p w(x)1").unwrap();
        writeln!(w, "@s p w(x)2").unwrap();
        let got = roundtrip(&mut r, &mut w, "@s p w(x)3");
        assert_eq!(got, "BUSY s");
        // QUERY drains synchronously and frees the queue again.
        let got = roundtrip(&mut r, &mut w, "QUERY s");
        assert!(got.starts_with("VERDICT s 2 "), "{got}");
        writeln!(w, "@s p w(x)3").unwrap();
        let got = roundtrip(&mut r, &mut w, "QUERY s");
        assert!(got.starts_with("VERDICT s 3 "), "{got}");
        server.shutdown();
    }

    #[test]
    fn lifecycle_lines_count_against_the_queue_cap() {
        // No drain workers: every line stays pending until QUERY, so the
        // fifth pending line of any kind finds the inbox full.
        let server = test_server(0, 4);
        let (mut r, mut w) = connect(server.addr());
        // An accepted line gets no reply; fail rather than wait for one.
        r.get_ref()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN s"), "OK s");
        for i in 0..4 {
            writeln!(w, "@s join p{i}").unwrap();
        }
        assert_eq!(roundtrip(&mut r, &mut w, "@s join p4"), "BUSY s");
        assert_eq!(roundtrip(&mut r, &mut w, "@s p0 w(x)1"), "BUSY s");
        // QUERY drains the four joins and frees the inbox.
        let got = roundtrip(&mut r, &mut w, "QUERY s");
        assert!(got.starts_with("VERDICT s 0 "), "{got}");
        let stats = roundtrip(&mut r, &mut w, "STATS");
        assert_eq!(stat(&stats, "joins"), 4, "{stats}");
        assert_eq!(stat(&stats, "busy"), 2, "{stats}");
        writeln!(w, "@s join p4").unwrap();
        let got = roundtrip(&mut r, &mut w, "QUERY s");
        assert!(got.starts_with("VERDICT s 0 "), "{got}");
        let stats = roundtrip(&mut r, &mut w, "STATS");
        assert_eq!(stat(&stats, "joins"), 5, "{stats}");
        server.shutdown();
    }

    #[test]
    fn max_sessions_caps_admission() {
        let server = Server::start(ServeConfig {
            max_sessions: 2,
            models: vec![models::sc()],
            ..ServeConfig::default()
        })
        .unwrap();
        let (mut r, mut w) = connect(server.addr());
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN a"), "OK a");
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN b"), "OK b");
        assert!(roundtrip(&mut r, &mut w, "OPEN c").starts_with("ERR full"));
        // Closing one session frees its slot.
        assert!(roundtrip(&mut r, &mut w, "CLOSE a").starts_with("CLOSED a"));
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN c"), "OK c");
        server.shutdown();
    }

    #[test]
    fn out_of_band_query_from_second_connection() {
        let server = test_server(2, 1024);
        let (mut r1, mut w1) = connect(server.addr());
        assert_eq!(roundtrip(&mut r1, &mut w1, "OPEN s"), "OK s");
        writeln!(w1, "@s p w(x)1").unwrap();
        w1.flush().unwrap();
        // A different connection sees the same session.
        let (mut r2, mut w2) = connect(server.addr());
        let got = roundtrip(&mut r2, &mut w2, "QUERY s");
        assert!(got.starts_with("VERDICT s 1 "), "{got}");
        // Dropping the feeder connection leaves the session alive.
        drop((r1, w1));
        let got = roundtrip(&mut r2, &mut w2, "QUERY s");
        assert!(got.starts_with("VERDICT s 1 "), "{got}");
        server.shutdown();
    }

    /// A test server whose eviction directory — where `SNAPSHOT` and
    /// `RESUME` names resolve — is `dir`.
    fn snapshot_server(dir: &Path) -> Server {
        Server::start(ServeConfig {
            workers: 2,
            models: vec![models::sc(), models::causal()],
            evict_dir: Some(dir.to_path_buf()),
            ..ServeConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn snapshot_and_resume_continue_byte_identically() {
        let dir = std::env::temp_dir().join(format!("smc-serve-snap-{}", std::process::id()));
        let server = snapshot_server(&dir);
        let (mut r, mut w) = connect(server.addr());
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN s1"), "OK s1");
        writeln!(w, "@s1 p w(x)1").unwrap();
        writeln!(w, "@s1 q r(x)1").unwrap();
        let got = roundtrip(&mut r, &mut w, "SNAPSHOT s1 snap-1");
        assert_eq!(got, "SNAPSHOTTED s1 2");
        assert!(dir.join("snap-1.snap").is_file());
        // The snapshot leaves the session open; close it, resume the
        // checkpoint under a new id, and keep streaming.
        assert!(roundtrip(&mut r, &mut w, "CLOSE s1").starts_with("CLOSED s1 2 "));
        let got = roundtrip(&mut r, &mut w, "RESUME s2 snap-1");
        assert_eq!(got, "RESUMED s2 2");
        writeln!(w, "@s2 q r(x)0").unwrap();
        // The resumed stream must report exactly what an uninterrupted
        // offline monitor reports for the whole trace.
        let t = parse_trace("p w(x)1\nq r(x)1\nq r(x)0\n").unwrap();
        let cfg = ServeConfig::default();
        let want = offline_payload(&[models::sc(), models::causal()], &cfg.monitor, &t);
        let got = roundtrip(&mut r, &mut w, "QUERY s2");
        assert_eq!(got, format!("VERDICT s2 {want}"));
        let stats = roundtrip(&mut r, &mut w, "STATS");
        assert!(stats.contains("snapshots=1"), "{stats}");
        assert!(stats.contains("resumes=1"), "{stats}");
        std::fs::remove_dir_all(&dir).ok();
        server.shutdown();
    }

    #[test]
    fn resume_rejects_garbage_and_bad_paths() {
        let dir = std::env::temp_dir().join(format!("smc-serve-bad-{}", std::process::id()));
        let server = snapshot_server(&dir);
        let (mut r, mut w) = connect(server.addr());
        let got = roundtrip(&mut r, &mut w, "RESUME s /nonexistent/path.ckpt");
        assert!(got.starts_with("ERR resume"), "{got}");
        let got = roundtrip(&mut r, &mut w, "RESUME s missing");
        assert!(got.starts_with("ERR resume"), "{got}");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("garbage.snap"), b"not a checkpoint").unwrap();
        let got = roundtrip(&mut r, &mut w, "RESUME s garbage");
        assert!(got.starts_with("ERR"), "{got}");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_names_stay_inside_the_evict_dir() {
        let root = std::env::temp_dir().join(format!("smc-serve-names-{}", std::process::id()));
        let dir = root.join("ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let server = snapshot_server(&dir);
        let (mut r, mut w) = connect(server.addr());
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN s"), "OK s");
        writeln!(w, "@s p w(x)1").unwrap();
        let outside = root.join("outside");
        for name in [
            "../escape".to_owned(),
            outside.display().to_string(),
            "a/b".into(),
            "evicted.ckpt".into(),
        ] {
            let got = roundtrip(&mut r, &mut w, &format!("SNAPSHOT s {name}"));
            assert!(got.starts_with("ERR snapshot"), "{name}: {got}");
            let got = roundtrip(&mut r, &mut w, &format!("RESUME t {name}"));
            assert!(got.starts_with("ERR resume"), "{name}: {got}");
        }
        // Nothing was written, inside the directory or out of it.
        let entries = |d: &Path| -> Vec<String> {
            std::fs::read_dir(d)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect()
        };
        assert_eq!(entries(&root), ["ckpt"]);
        assert!(entries(&dir).is_empty(), "{:?}", entries(&dir));
        // A plain name lands inside, under the snapshot suffix.
        assert_eq!(
            roundtrip(&mut r, &mut w, "SNAPSHOT s ok_1"),
            "SNAPSHOTTED s 1"
        );
        assert_eq!(entries(&dir), ["ok_1.snap"]);
        server.shutdown();
        std::fs::remove_dir_all(&root).ok();
        // Without an eviction directory both verbs are refused.
        let server = test_server(1, 1024);
        let (mut r, mut w) = connect(server.addr());
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN s"), "OK s");
        let got = roundtrip(&mut r, &mut w, "SNAPSHOT s ok_1");
        assert!(got.starts_with("ERR snapshot"), "{got}");
        let got = roundtrip(&mut r, &mut w, "RESUME t ok_1");
        assert!(got.starts_with("ERR resume"), "{got}");
        server.shutdown();
    }

    #[test]
    fn eviction_spills_idle_sessions_and_resumes_transparently() {
        let dir = std::env::temp_dir().join(format!("smc-serve-evict-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let server = Server::start(ServeConfig {
            max_sessions: 2,
            models: vec![models::sc()],
            evict_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let (mut r, mut w) = connect(server.addr());
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN a"), "OK a");
        writeln!(w, "@a p w(x)1").unwrap();
        // QUERY drains `a` so it is idle (and the LRU once b/c arrive).
        assert!(roundtrip(&mut r, &mut w, "QUERY a").starts_with("VERDICT a 1 "));
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN b"), "OK b");
        // The server is full, but eviction spills `a` to disk instead
        // of refusing the third session.
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN c"), "OK c");
        let stats = roundtrip(&mut r, &mut w, "STATS");
        assert!(stats.contains("evictions=1"), "{stats}");
        assert!(stats.contains("sessions=2"), "{stats}");
        // Addressing the evicted session resumes it transparently —
        // with its one event intact — evicting another idle session to
        // make room.
        let got = roundtrip(&mut r, &mut w, "QUERY a");
        assert!(got.starts_with("VERDICT a 1 "), "{got}");
        let stats = roundtrip(&mut r, &mut w, "STATS");
        assert!(stats.contains("resumes=1"), "{stats}");
        std::fs::remove_dir_all(&dir).ok();
        server.shutdown();
    }

    #[test]
    fn overlong_line_closes_its_connection_not_its_sessions() {
        let server = test_server(1, 1024);
        let (mut r, mut w) = connect(server.addr());
        r.get_ref()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN s"), "OK s");
        let t = parse_trace("p w(x)1\nq r(x)1\nq r(x)0\n").unwrap();
        for line in emit_trace(&t).lines() {
            writeln!(w, "@s {line}").unwrap();
        }
        // One byte past the cap, and no newline: the server answers and
        // closes instead of buffering on.
        w.write_all(&vec![b'a'; MAX_LINE + 1]).unwrap();
        let mut reply = String::new();
        r.read_line(&mut reply)
            .expect("reply before the read timeout");
        assert_eq!(reply, "ERR line too long\n");
        reply.clear();
        assert_eq!(r.read_line(&mut reply).expect("EOF, not a timeout"), 0);
        // The session outlives its connection.
        let (mut r2, mut w2) = connect(server.addr());
        let want = offline_payload(
            &[models::sc(), models::causal()],
            &ServeConfig::default().monitor,
            &t,
        );
        assert_eq!(
            roundtrip(&mut r2, &mut w2, "CLOSE s"),
            format!("CLOSED s {want}")
        );
        server.shutdown();
    }

    #[test]
    fn protocol_errors_and_stats() {
        let server = test_server(1, 1024);
        let (mut r, mut w) = connect(server.addr());
        assert!(roundtrip(&mut r, &mut w, "FROB x").starts_with("ERR unknown command"));
        assert!(roundtrip(&mut r, &mut w, "OPEN @bad").starts_with("ERR invalid session id"));
        assert!(roundtrip(&mut r, &mut w, "OPEN s nosuchmodel").starts_with("ERR unknown model"));
        assert!(roundtrip(&mut r, &mut w, "@ghost p w(x)1").starts_with("ERR unknown session"));
        assert_eq!(roundtrip(&mut r, &mut w, "OPEN s sc"), "OK s");
        assert!(roundtrip(&mut r, &mut w, "OPEN s").starts_with("ERR session exists"));
        let stats = roundtrip(&mut r, &mut w, "STATS");
        assert!(stats.starts_with("STATS sessions=1 "), "{stats}");
        assert_eq!(roundtrip(&mut r, &mut w, "SHUTDOWN"), "BYE");
        server.wait();
    }
}
