//! A line-oriented *trace* format: an append-only stream of
//! `(processor, operation)` events in arrival order.
//!
//! Where the litmus notation (one line per processor) describes a
//! complete history, a trace records the order in which operations
//! arrived at the monitor — one event per line:
//!
//! ```text
//! # header lines fix the processor and location tables
//! procs p q
//! locs x y
//! p w(x)1
//! q r(x)1
//! q w(y)1
//! ```
//!
//! Operation tokens use the litmus mnemonics (`w`/`r` ordinary,
//! `wl`/`rl` or `W`/`R` labeled). `#` starts a comment that runs to end
//! of line. The words `procs`, `locs`, `join` and `retire` are reserved
//! and cannot name a processor. The `procs`/`locs` headers are optional
//! — names are also interned on first use — but [`emit_trace`] always
//! writes them so that empty processors and location numbering survive
//! a round trip: `parse_trace(emit_trace(t))` reproduces `t` exactly,
//! and `Trace::from_history(h).history() == h` for every parser- or
//! builder-produced history.
//!
//! Long-lived streams additionally carry processor *lifecycle* lines —
//! `join p` / `retire p` — recording membership churn at a position in
//! the event stream. Lifecycle lines do not affect the [`Trace::history`]
//! projection (a history has a fixed processor table); the streaming
//! monitor consumes them to fold retired processors and reuse their
//! slots.

use crate::builder::HistoryBuilder;
use crate::history::History;
use crate::litmus::{is_ident, is_loc_name, parse_op_token};
use crate::op::{Label, Location, OpKind, ProcId, Value};
use std::fmt;

/// A parse failure, carrying a 1-based line number and the byte offset
/// of the offending token within the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line on which the error was detected.
    pub line: usize,
    /// Byte offset (0-based, into the full input) of the offending token.
    pub offset: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {} (byte {}): {}",
            self.line, self.offset, self.message
        )
    }
}

impl std::error::Error for TraceError {}

/// One event of a trace: a processor performing a single operation.
///
/// The event does not carry a global operation id — its position in the
/// owning [`Trace`] is the arrival order, and `(proc, arrival index
/// among this proc's events)` gives its program-order position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// The issuing processor.
    pub proc: ProcId,
    /// Read or write.
    pub kind: OpKind,
    /// The accessed location.
    pub loc: Location,
    /// The value written (for writes) or reported (for reads).
    pub value: Value,
    /// Ordinary or labeled (synchronization) operation.
    pub label: Label,
}

/// A processor lifecycle transition (`join p` / `retire p`), recorded
/// at a position in the owning trace's event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lifecycle {
    /// The processor enters (or re-enters) the active set.
    Join(ProcId),
    /// The processor leaves the active set; no further events of its
    /// are expected until a matching `join`.
    Retire(ProcId),
}

impl Lifecycle {
    /// The processor undergoing the transition.
    pub fn proc(&self) -> ProcId {
        match *self {
            Lifecycle::Join(p) | Lifecycle::Retire(p) => p,
        }
    }
}

/// An append-only stream of operation events in arrival order, with
/// interned processor and location tables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    proc_names: Vec<String>,
    loc_names: Vec<String>,
    events: Vec<TraceEvent>,
    /// Lifecycle transitions, each tagged with the number of events
    /// that preceded it (so `(k, l)` happened before `events[k]`).
    lifecycle: Vec<(u32, Lifecycle)>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern (or look up) a processor by name.
    pub fn add_proc(&mut self, name: &str) -> ProcId {
        if let Some(i) = self.proc_names.iter().position(|n| n == name) {
            return ProcId(i as u32);
        }
        self.proc_names.push(name.to_owned());
        ProcId((self.proc_names.len() - 1) as u32)
    }

    /// Intern (or look up) a location by name.
    pub fn add_loc(&mut self, name: &str) -> Location {
        if let Some(i) = self.loc_names.iter().position(|n| n == name) {
            return Location(i as u32);
        }
        self.loc_names.push(name.to_owned());
        Location((self.loc_names.len() - 1) as u32)
    }

    /// Append an event. `proc` and `loc` must have been interned.
    pub fn push(&mut self, event: TraceEvent) {
        assert!(event.proc.index() < self.proc_names.len(), "unknown proc");
        assert!(event.loc.index() < self.loc_names.len(), "unknown loc");
        self.events.push(event);
    }

    /// Append an event given by names, interning as needed.
    pub fn push_named(&mut self, proc: &str, kind: OpKind, loc: &str, value: i64, label: Label) {
        let proc = self.add_proc(proc);
        let loc = self.add_loc(loc);
        self.events.push(TraceEvent {
            proc,
            kind,
            loc,
            value: Value(value),
            label,
        });
    }

    /// Record a lifecycle transition at the current stream position.
    /// The processor must have been interned.
    pub fn push_lifecycle(&mut self, l: Lifecycle) {
        assert!(l.proc().index() < self.proc_names.len(), "unknown proc");
        self.lifecycle.push((self.events.len() as u32, l));
    }

    /// The lifecycle transitions, each paired with the number of events
    /// preceding it, in recorded order.
    pub fn lifecycle(&self) -> &[(u32, Lifecycle)] {
        &self.lifecycle
    }

    /// Cut off and return the front of the stream: the first `n` events
    /// (all of them if `n` is past the end) and the lifecycle lines
    /// recorded at or before position `n`. What stays behind is the rest
    /// of the stream, its lifecycle positions rebased to the cut. Both
    /// halves keep the full name tables, so ids mean the same in each.
    pub fn split_front(&mut self, n: usize) -> Trace {
        let n = n.min(self.events.len());
        let cut = self
            .lifecycle
            .partition_point(|&(pos, _)| pos as usize <= n);
        let rest_events = self.events.split_off(n);
        let rest_lifecycle = self.lifecycle[cut..]
            .iter()
            .map(|&(pos, l)| (pos - n as u32, l))
            .collect();
        self.lifecycle.truncate(cut);
        Trace {
            proc_names: self.proc_names.clone(),
            loc_names: self.loc_names.clone(),
            events: std::mem::replace(&mut self.events, rest_events),
            lifecycle: std::mem::replace(&mut self.lifecycle, rest_lifecycle),
        }
    }

    /// The events, in arrival order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of interned processors.
    pub fn num_procs(&self) -> usize {
        self.proc_names.len()
    }

    /// Number of interned locations.
    pub fn num_locs(&self) -> usize {
        self.loc_names.len()
    }

    /// The interned processor names, in id order.
    pub fn proc_names(&self) -> &[String] {
        &self.proc_names
    }

    /// The interned location names, in id order.
    pub fn loc_names(&self) -> &[String] {
        &self.loc_names
    }

    /// The source name of processor `p`.
    pub fn proc_name(&self, p: ProcId) -> &str {
        &self.proc_names[p.index()]
    }

    /// The source name of location `l`.
    pub fn loc_name(&self, l: Location) -> &str {
        &self.loc_names[l.index()]
    }

    /// Serialize one event as it appears on a trace line (no newline).
    pub fn format_event(&self, e: &TraceEvent) -> String {
        let mnemonic = match (e.kind, e.label) {
            (OpKind::Write, Label::Ordinary) => "w",
            (OpKind::Read, Label::Ordinary) => "r",
            (OpKind::Write, Label::Labeled) => "wl",
            (OpKind::Read, Label::Labeled) => "rl",
        };
        format!(
            "{} {}({}){}",
            self.proc_name(e.proc),
            mnemonic,
            self.loc_name(e.loc),
            e.value
        )
    }

    /// Linearize a history into a trace in processor-major program order
    /// (`P0`'s operations first, then `P1`'s, ...). The processor and
    /// location tables are copied verbatim, so empty processors survive.
    pub fn from_history(h: &History) -> Trace {
        let mut t = Trace {
            proc_names: (0..h.num_procs())
                .map(|p| h.proc_name(ProcId(p as u32)).to_owned())
                .collect(),
            loc_names: (0..h.num_locs())
                .map(|l| h.loc_name(Location(l as u32)).to_owned())
                .collect(),
            events: Vec::with_capacity(h.num_ops()),
            lifecycle: Vec::new(),
        };
        for op in h.ops() {
            t.events.push(TraceEvent {
                proc: op.proc,
                kind: op.kind,
                loc: op.loc,
                value: op.value,
                label: op.label,
            });
        }
        t
    }

    /// The complete history of the trace: every processor's events in
    /// arrival order form its program order. Processor and location
    /// tables are preserved exactly, including empty processors.
    pub fn history(&self) -> History {
        self.history_of_prefix(self.events.len())
    }

    /// The history of the first `n` events (same tables as the full
    /// trace). Panics if `n > self.len()`.
    pub fn history_of_prefix(&self, n: usize) -> History {
        let mut b = HistoryBuilder::new();
        for name in &self.proc_names {
            b.add_proc(name);
        }
        for name in &self.loc_names {
            b.add_loc(name);
        }
        for e in &self.events[..n] {
            b.push(
                &self.proc_names[e.proc.index()],
                e.kind,
                &self.loc_names[e.loc.index()],
                e.value,
                e.label,
            );
        }
        b.build()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.proc_names.is_empty() {
            writeln!(f, "procs {}", self.proc_names.join(" "))?;
        }
        if !self.loc_names.is_empty() {
            writeln!(f, "locs {}", self.loc_names.join(" "))?;
        }
        // Lifecycle lines interleave at their recorded positions: an
        // entry at position `k` prints before `events[k]`.
        let mut lc = self.lifecycle.iter().peekable();
        let mut write_lc = |f: &mut fmt::Formatter<'_>, upto: usize| -> fmt::Result {
            while let Some(&&(pos, l)) = lc.peek() {
                if pos as usize > upto {
                    break;
                }
                let (verb, p) = match l {
                    Lifecycle::Join(p) => ("join", p),
                    Lifecycle::Retire(p) => ("retire", p),
                };
                writeln!(f, "{verb} {}", self.proc_name(p))?;
                lc.next();
            }
            Ok(())
        };
        for (i, e) in self.events.iter().enumerate() {
            write_lc(f, i)?;
            writeln!(f, "{}", self.format_event(e))?;
        }
        write_lc(f, self.events.len())?;
        Ok(())
    }
}

/// Render a trace in the line format this module parses. The text is the
/// canonical serialization: `parse_trace(emit_trace(t))` reproduces `t`
/// exactly, provided every name round-trips through the parser — which
/// holds for all parser- or builder-produced traces and histories.
pub fn emit_trace(t: &Trace) -> String {
    t.to_string()
}

/// Longest trace line a reader takes, in bytes without its newline.
/// `smc serve` answers a longer command line with an error and closes
/// the connection; `smc monitor` skips a longer line with a warning.
/// Neither buffers more than this much of one line. An event line is a
/// few dozen bytes, so only garbage comes near the cap.
pub const MAX_LINE: usize = 1 << 20;

/// Words with structural meaning at line start; none may name a
/// processor (an event for it could not be expressed).
const RESERVED: [&str; 4] = ["procs", "locs", "join", "retire"];

fn err<T>(line: usize, offset: usize, message: impl Into<String>) -> Result<T, TraceError> {
    Err(TraceError {
        line,
        offset,
        message: message.into(),
    })
}

/// Byte offset of the slice `part` within `whole` (both must come from
/// the same allocation, which holds for everything the parsers slice).
pub(crate) fn offset_in(whole: &str, part: &str) -> usize {
    part.as_ptr() as usize - whole.as_ptr() as usize
}

/// Parse one raw input line into `t`, returning how many events it
/// appended (0 for blank lines, comments, and headers). `line_no` is the
/// 1-based line number and `base_offset` the byte offset of the line
/// start within the overall input; both are used only to position
/// errors, so a streaming caller reading line-by-line (e.g. from stdin)
/// can report offsets into the stream it has consumed so far.
///
/// On an error, events parsed from tokens *before* the offending one
/// remain appended — a warn-and-skip caller keeps the valid prefix of
/// the line (canonical emitted traces have one event per line, so the
/// distinction only arises on hand-written input).
pub fn parse_trace_line(
    t: &mut Trace,
    raw: &str,
    line_no: usize,
    base_offset: usize,
) -> Result<usize, TraceError> {
    let line = match raw.find('#') {
        Some(c) => &raw[..c],
        None => raw,
    };
    let line = line.trim();
    if line.is_empty() {
        return Ok(0);
    }
    let at = |part: &str| base_offset + offset_in(raw, part);
    let (head, rest) = match line.split_once(char::is_whitespace) {
        Some((h, r)) => (h, r.trim_start()),
        None => (line, ""),
    };
    match head {
        "procs" => {
            for name in rest.split_whitespace() {
                if !is_ident(name) || RESERVED.contains(&name) {
                    return err(
                        line_no,
                        at(name),
                        format!("invalid processor name `{name}`"),
                    );
                }
                t.add_proc(name);
            }
            Ok(0)
        }
        "join" | "retire" => {
            let name = rest.trim();
            if name.is_empty() {
                return err(
                    line_no,
                    at(head),
                    format!("expected a processor name after `{head}`"),
                );
            }
            if !is_ident(name) || RESERVED.contains(&name) {
                return err(
                    line_no,
                    at(name),
                    format!("invalid processor name `{name}`"),
                );
            }
            let p = t.add_proc(name);
            t.push_lifecycle(if head == "join" {
                Lifecycle::Join(p)
            } else {
                Lifecycle::Retire(p)
            });
            Ok(0)
        }
        "locs" => {
            for name in rest.split_whitespace() {
                if !is_loc_name(name) {
                    return err(line_no, at(name), format!("invalid location name `{name}`"));
                }
                t.add_loc(name);
            }
            Ok(0)
        }
        proc => {
            if !is_ident(proc) {
                return err(
                    line_no,
                    at(proc),
                    format!("invalid processor name `{proc}`"),
                );
            }
            if rest.is_empty() {
                return err(
                    line_no,
                    at(proc),
                    format!("expected an operation after processor `{proc}`"),
                );
            }
            let mut ops = rest;
            let mut appended = 0;
            while !ops.is_empty() {
                let tok = parse_op_token(ops).map_err(|message| TraceError {
                    line: line_no,
                    offset: at(ops),
                    message,
                })?;
                t.push_named(proc, tok.kind, tok.loc, tok.value, tok.label);
                appended += 1;
                ops = tok.rest.trim_start();
            }
            Ok(appended)
        }
    }
}

/// Parse a trace from its line format. Errors carry both the 1-based
/// line number and the byte offset of the offending token.
pub fn parse_trace(text: &str) -> Result<Trace, TraceError> {
    let mut t = Trace::new();
    for (i, raw) in text.lines().enumerate() {
        parse_trace_line(&mut t, raw, i + 1, offset_in(text, raw))?;
    }
    Ok(t)
}

/// Split a *session-prefixed* trace line: `@<sid> <rest>` names the
/// session the rest of the line belongs to. Returns `None` when the
/// line carries no prefix (a plain trace line, comment, or blank). The
/// prefix marker must be the first non-whitespace character; the
/// session id runs to the next whitespace and may be empty only in a
/// malformed line, which the caller rejects via [`parse_multi_trace`].
///
/// This is the framing shared by `smc trace gen --sessions`, the
/// multi-session admission server's `@sid` event shorthand, and the
/// loopback load generator: one interleaved stream, one session per
/// monitored history.
pub fn split_session_line(raw: &str) -> Option<(&str, &str)> {
    let line = raw.trim_start();
    let tagged = line.strip_prefix('@')?;
    match tagged.split_once(char::is_whitespace) {
        Some((sid, rest)) => Some((sid, rest)),
        // Keep the empty rest inside `raw`'s allocation so callers can
        // still compute byte offsets against the original line.
        None => Some((tagged, &tagged[tagged.len()..])),
    }
}

/// Render a trace line under a session prefix (the inverse of
/// [`split_session_line`]).
pub fn session_line(sid: &str, line: &str) -> String {
    format!("@{sid} {line}")
}

/// `true` if `sid` is usable as a session id on the wire: nonempty,
/// at most 64 bytes, no whitespace or control characters, and not
/// starting with the prefix marker itself.
pub fn is_session_id(sid: &str) -> bool {
    !sid.is_empty()
        && sid.len() <= 64
        && !sid.starts_with('@')
        && sid.chars().all(|c| !c.is_whitespace() && !c.is_control())
}

/// Demultiplex a session-prefixed stream into one trace per session,
/// in order of first appearance. Unprefixed lines must be blank or
/// comments — a bare event line in a multi-session stream is ambiguous
/// and rejected. Within a session, events keep their interleaved
/// arrival order.
pub fn parse_multi_trace(text: &str) -> Result<Vec<(String, Trace)>, TraceError> {
    let mut out: Vec<(String, Trace)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let base = offset_in(text, raw);
        let Some((sid, rest)) = split_session_line(raw) else {
            // Only structure-free lines may go unprefixed.
            let stripped = match raw.find('#') {
                Some(c) => &raw[..c],
                None => raw,
            };
            if !stripped.trim().is_empty() {
                return err(line_no, base, "expected a `@session` prefix");
            }
            continue;
        };
        if !is_session_id(sid) {
            return err(line_no, base, format!("invalid session id `@{sid}`"));
        }
        let t = match out.iter_mut().find(|(s, _)| s == sid) {
            Some((_, t)) => t,
            None => {
                out.push((sid.to_owned(), Trace::new()));
                &mut out.last_mut().expect("just pushed").1
            }
        };
        parse_trace_line(t, rest, line_no, base + offset_in(raw, rest))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::parse_history;

    #[test]
    fn parses_events_and_headers() {
        let t = parse_trace("procs p q\nlocs x y\np w(x)1\nq r(x)1\nq wl(y)2\n").unwrap();
        assert_eq!(t.num_procs(), 2);
        assert_eq!(t.num_locs(), 2);
        assert_eq!(t.len(), 3);
        assert_eq!(t.events()[0].proc, ProcId(0));
        assert_eq!(t.events()[1].proc, ProcId(1));
        assert!(t.events()[2].label.is_labeled());
        assert_eq!(t.events()[2].value, Value(2));
    }

    #[test]
    fn headers_are_optional_and_names_intern_on_first_use() {
        let t = parse_trace("p w(x)1\nq r(x)1\n").unwrap();
        assert_eq!(t.proc_names(), ["p", "q"]);
        assert_eq!(t.loc_names(), ["x"]);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let t = parse_trace("# hello\n\nprocs p # inline\np w(x)1 # trailing\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn multiple_ops_per_line_arrive_in_order() {
        let t = parse_trace("p w(x)1 r(y)0\n").unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.events()[0].kind.is_write());
        assert!(t.events()[1].kind.is_read());
    }

    #[test]
    fn history_respects_arrival_interleaving() {
        let t = parse_trace("p w(x)1\nq w(x)2\np r(x)2\n").unwrap();
        let h = t.history();
        assert_eq!(h.num_procs(), 2);
        assert_eq!(h.proc_ops(ProcId(0)).len(), 2);
        assert_eq!(h.proc_ops(ProcId(1)).len(), 1);
        // p's program order is its arrival order: w(x)1 then r(x)2.
        assert!(h.proc_ops(ProcId(0))[0].is_write());
        assert!(h.proc_ops(ProcId(0))[1].is_read());
    }

    #[test]
    fn empty_procs_survive_round_trip() {
        let t = parse_trace("procs p idle\nlocs x\np w(x)1\n").unwrap();
        let back = parse_trace(&emit_trace(&t)).unwrap();
        assert_eq!(back, t);
        let h = t.history();
        assert_eq!(h.num_procs(), 2);
        assert!(h.proc_ops(ProcId(1)).is_empty());
    }

    #[test]
    fn from_history_round_trips() {
        let h = parse_history("p: w(x)1 rl(y)0\nq: W(y)2\nidle:").unwrap();
        let t = Trace::from_history(&h);
        assert_eq!(t.history(), h);
        let back = parse_trace(&emit_trace(&t)).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.history(), h);
    }

    #[test]
    fn prefix_histories_share_tables() {
        let t = parse_trace("procs p q\nlocs x y\np w(x)1\nq r(y)0\n").unwrap();
        let h0 = t.history_of_prefix(0);
        assert_eq!(h0.num_ops(), 0);
        assert_eq!(h0.num_procs(), 2);
        assert_eq!(h0.num_locs(), 2);
        let h1 = t.history_of_prefix(1);
        assert_eq!(h1.num_ops(), 1);
    }

    #[test]
    fn errors_carry_line_and_byte_offset() {
        let text = "p w(x)1\nq z(x)1\n";
        let e = parse_trace(text).unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.offset, text.find("z(").unwrap());
        assert!(e.message.contains("mnemonic"), "{e}");
        assert!(e.to_string().contains("byte"), "{e}");

        let text = "procs ok 7bad\n";
        let e = parse_trace(text).unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.offset, text.find("7bad").unwrap());

        let e = parse_trace("p\n").unwrap_err();
        assert!(e.message.contains("expected an operation"), "{e}");

        let e = parse_trace("p w(x)\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("missing value"), "{e}");
    }

    #[test]
    fn reserved_words_cannot_name_processors() {
        // `procs`/`locs` at line start always parse as headers, so an
        // event for a processor of that name cannot be expressed.
        let e = parse_trace("procs procs\n").unwrap_err();
        assert!(e.message.contains("invalid processor name"), "{e}");
        let t = parse_trace("locs w(x)1\n").unwrap_err();
        assert!(t.message.contains("invalid location name"), "{t}");
    }

    #[test]
    fn line_at_a_time_parsing_matches_whole_text() {
        let text = "procs p q\nlocs x\np w(x)1\n# note\nq r(x)1\n";
        let mut t = Trace::new();
        let mut offset = 0;
        let mut events = 0;
        for (i, line) in text.lines().enumerate() {
            events += parse_trace_line(&mut t, line, i + 1, offset).unwrap();
            offset += line.len() + 1;
        }
        assert_eq!(events, 2);
        assert_eq!(t, parse_trace(text).unwrap());

        // Errors position themselves relative to the caller's offset.
        let mut t = Trace::new();
        let e = parse_trace_line(&mut t, "p z(x)1", 7, 100).unwrap_err();
        assert_eq!(e.line, 7);
        assert_eq!(e.offset, 102);
    }

    #[test]
    fn emit_is_a_fixed_point() {
        let t = parse_trace("procs p q\nlocs x\np w(x)1\nq r(x)1\n").unwrap();
        let text = emit_trace(&t);
        assert_eq!(emit_trace(&parse_trace(&text).unwrap()), text);
    }

    #[test]
    fn lifecycle_lines_parse_and_round_trip() {
        let text = "procs p q\nlocs x\njoin p\np w(x)1\nretire p\njoin q\nq r(x)1\nretire q\n";
        let t = parse_trace(text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.lifecycle(),
            [
                (0, Lifecycle::Join(ProcId(0))),
                (1, Lifecycle::Retire(ProcId(0))),
                (1, Lifecycle::Join(ProcId(1))),
                (2, Lifecycle::Retire(ProcId(1))),
            ]
        );
        // Emission interleaves the lines back at their positions.
        assert_eq!(emit_trace(&t), text);
        let back = parse_trace(&emit_trace(&t)).unwrap();
        assert_eq!(back, t);
        // The history projection ignores lifecycle lines.
        assert_eq!(
            t.history(),
            parse_trace("procs p q\nlocs x\np w(x)1\nq r(x)1\n")
                .unwrap()
                .history()
        );
    }

    #[test]
    fn split_front_cuts_events_and_lifecycle_at_n() {
        let text = "procs p q\nlocs x\njoin p\np w(x)1\nq r(x)1\nretire p\nq w(x)2\njoin r\n";
        let mut rest = parse_trace(text).unwrap();
        let front = rest.split_front(2);
        // The first two events, and the lifecycle lines at or before
        // position 2 — `retire p` sits at exactly 2, so it goes front.
        assert_eq!(front.len(), 2);
        assert_eq!(front.events(), &parse_trace(text).unwrap().events()[..2]);
        assert_eq!(
            front.lifecycle(),
            [
                (0, Lifecycle::Join(ProcId(0))),
                (2, Lifecycle::Retire(ProcId(0)))
            ]
        );
        // The rest keeps the later event and `join r`, rebased to the
        // cut: it followed one more event, so it sits at position 1.
        assert_eq!(rest.len(), 1);
        assert_eq!(rest.format_event(&rest.events()[0]), "q w(x)2");
        assert_eq!(rest.lifecycle(), [(1, Lifecycle::Join(ProcId(2)))]);
        // Both halves keep every name, including `r`, which only the
        // rest uses.
        for half in [&front, &rest] {
            assert_eq!(half.proc_names(), ["p", "q", "r"]);
            assert_eq!(half.loc_names(), ["x"]);
        }
        // Cutting past the end takes everything that is left, trailing
        // lifecycle lines included, and leaves the names behind.
        let tail = rest.split_front(100);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail.lifecycle(), [(1, Lifecycle::Join(ProcId(2)))]);
        assert!(rest.is_empty() && rest.lifecycle().is_empty());
        assert_eq!(rest.proc_names(), ["p", "q", "r"]);
    }

    #[test]
    fn lifecycle_interns_new_processors() {
        let t = parse_trace("join late\nlate w(x)1\n").unwrap();
        assert_eq!(t.proc_names(), ["late"]);
        assert_eq!(t.lifecycle(), [(0, Lifecycle::Join(ProcId(0)))]);
    }

    #[test]
    fn lifecycle_lines_reject_bad_names() {
        let e = parse_trace("join\n").unwrap_err();
        assert!(e.message.contains("expected a processor name"), "{e}");
        let e = parse_trace("retire 7bad\n").unwrap_err();
        assert!(e.message.contains("invalid processor name"), "{e}");
        let e = parse_trace("join retire\n").unwrap_err();
        assert!(e.message.contains("invalid processor name"), "{e}");
        // `join`/`retire` are reserved in the procs header too.
        let e = parse_trace("procs p join\n").unwrap_err();
        assert!(e.message.contains("invalid processor name"), "{e}");
    }

    #[test]
    fn session_prefix_splits_and_rejoins() {
        assert_eq!(split_session_line("@s0 p w(x)1"), Some(("s0", "p w(x)1")));
        assert_eq!(
            split_session_line("  @s1 procs p q"),
            Some(("s1", "procs p q"))
        );
        assert_eq!(split_session_line("@lone"), Some(("lone", "")));
        assert_eq!(split_session_line("p w(x)1"), None);
        assert_eq!(split_session_line("# comment"), None);
        assert_eq!(split_session_line(""), None);
        assert_eq!(session_line("s0", "p w(x)1"), "@s0 p w(x)1");
        let joined = session_line("abc", "q r(y)0");
        assert_eq!(split_session_line(&joined), Some(("abc", "q r(y)0")));
    }

    #[test]
    fn session_id_validity() {
        assert!(is_session_id("s0"));
        assert!(is_session_id("client-7.shard_3"));
        assert!(!is_session_id(""));
        assert!(!is_session_id("has space"));
        assert!(!is_session_id("@at"));
        assert!(!is_session_id(&"x".repeat(65)));
    }

    #[test]
    fn multi_trace_demultiplexes_in_first_appearance_order() {
        let text = "# interleaved\n@b procs p q\n@a locs x\n@b p w(x)1\n@a p w(x)2\n@b q r(x)1\n";
        let parts = parse_multi_trace(text).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, "b");
        assert_eq!(parts[1].0, "a");
        assert_eq!(parts[0].1.len(), 2);
        assert_eq!(parts[1].1.len(), 1);
        assert_eq!(parts[0].1.num_procs(), 2);
        // Session b's events keep their interleaved arrival order.
        assert!(parts[0].1.events()[0].kind.is_write());
        assert!(parts[0].1.events()[1].kind.is_read());
    }

    #[test]
    fn multi_trace_rejects_bare_and_malformed_lines() {
        let e = parse_multi_trace("@a p w(x)1\np w(x)2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("prefix"), "{e}");

        let e = parse_multi_trace("@ p w(x)1\n").unwrap_err();
        assert!(e.message.contains("invalid session id"), "{e}");

        // Errors inside a session line carry the global byte offset.
        let text = "@a p w(x)1\n@a q z(x)1\n";
        let e = parse_multi_trace(text).unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.offset, text.find("z(").unwrap());
    }

    #[test]
    fn multi_trace_sessions_match_their_unprefixed_parses() {
        let solo = parse_trace("procs p q\np w(x)1\nq r(x)1\n").unwrap();
        let text = "@s procs p q\n@s p w(x)1\n@s q r(x)1\n";
        let parts = parse_multi_trace(text).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].1, solo);
    }
}
