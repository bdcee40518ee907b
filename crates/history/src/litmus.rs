//! A parser for the paper's litmus notation.
//!
//! A *history* is one line per processor:
//!
//! ```text
//! p: w(x)1 r(y)0
//! q: w(y)1 r(x)0
//! ```
//!
//! Operation mnemonics are `w` / `r` for ordinary writes and reads and
//! `wl` / `rl` (or `W` / `R`) for labeled (synchronization) operations.
//! Location names are identifiers, optionally with an array subscript
//! (`number[0]`); values are (possibly negative) integers. `#` starts a
//! comment that runs to end of line.
//!
//! A *suite* packages named histories with per-model expectations:
//!
//! ```text
//! test fig1 "TSO but not SC" {
//!     p: w(x)1 r(y)0
//!     q: w(y)1 r(x)0
//! } expect { SC: no, TSO: yes }
//! ```

use crate::builder::HistoryBuilder;
use crate::history::History;
use crate::op::{Label, OpKind};
use std::fmt;

/// Largest litmus file the tools read: 16 MiB. A 1,024-operation
/// history takes 8.7 KB in this notation, so the cap holds about 1,900
/// histories of the largest size any engine is measured on; a larger
/// file is refused instead of read until allocation fails.
pub const MAX_LITMUS_BYTES: u64 = 16 << 20;

/// A parse failure, carrying a 1-based line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line on which the error was detected.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "litmus parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// A named litmus test: a history plus expected verdicts per model name.
///
/// Expectations are keyed by model *name* (e.g. `"TSO"`); the checker crate
/// resolves names to models. `true` means the history must be admitted.
#[derive(Debug, Clone)]
pub struct LitmusTest {
    /// Identifier of the test (e.g. `fig1`).
    pub name: String,
    /// Optional human-readable description.
    pub description: String,
    /// The system execution history under test.
    pub history: History,
    /// `(model name, expected admitted?)` pairs, in source order.
    pub expectations: Vec<(String, bool)>,
}

impl LitmusTest {
    /// The expected verdict for `model`, if the test states one.
    pub fn expectation(&self, model: &str) -> Option<bool> {
        self.expectations
            .iter()
            .find(|(m, _)| m.eq_ignore_ascii_case(model))
            .map(|&(_, v)| v)
    }
}

/// Parse a bare history (no `test` wrapper) from litmus text.
pub fn parse_history(text: &str) -> Result<History, ParseError> {
    let mut b = HistoryBuilder::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        parse_proc_line(&mut b, line, line_no)?;
    }
    Ok(b.build())
}

/// Parse a suite of [`LitmusTest`]s.
pub fn parse_suite(text: &str) -> Result<Vec<LitmusTest>, ParseError> {
    let mut tests = Vec::new();
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, strip_comment(l).trim().to_owned()))
        .filter(|(_, l)| !l.is_empty())
        .collect::<Vec<_>>()
        .into_iter()
        .peekable();

    while let Some((line_no, header)) = lines.next() {
        let rest = match header.strip_prefix("test") {
            Some(r) if r.starts_with(char::is_whitespace) => r.trim_start(),
            _ => {
                return err(
                    line_no,
                    format!("expected `test <name> ... {{`, found `{header}`"),
                )
            }
        };
        let (name, rest) = take_ident(rest).ok_or_else(|| ParseError {
            line: line_no,
            message: "missing test name".into(),
        })?;
        let rest = rest.trim_start();
        let (description, rest) = if let Some(r) = rest.strip_prefix('"') {
            let end = r.find('"').ok_or_else(|| ParseError {
                line: line_no,
                message: "unterminated description string".into(),
            })?;
            (r[..end].to_owned(), r[end + 1..].trim_start())
        } else {
            (String::new(), rest)
        };
        if rest != "{" {
            return err(line_no, "expected `{` to open the test body");
        }

        let mut b = HistoryBuilder::new();
        let mut expectations = Vec::new();
        let mut closed = false;
        while let Some((body_line_no, body)) = lines.next() {
            if let Some(tail) = body.strip_prefix('}') {
                let tail = tail.trim_start();
                // An `expect { ... }` block may span multiple lines;
                // gather segments (keeping their line numbers for error
                // reporting) until its closing brace.
                let mut segments: Vec<(usize, String)> = Vec::new();
                if !tail.is_empty() {
                    segments.push((body_line_no, tail.to_owned()));
                }
                if tail.starts_with("expect") {
                    let mut terminated = tail.contains('}');
                    while !terminated {
                        match lines.next() {
                            Some((no, more)) => {
                                terminated = more.contains('}');
                                segments.push((no, more));
                            }
                            None => {
                                return err(body_line_no, "unterminated expect block");
                            }
                        }
                    }
                }
                if !segments.is_empty() {
                    expectations = parse_expect(&segments)?;
                }
                closed = true;
                break;
            }
            parse_proc_line(&mut b, &body, body_line_no)?;
        }
        if !closed {
            return err(line_no, format!("test `{name}` has no closing `}}`"));
        }
        tests.push(LitmusTest {
            name: name.to_owned(),
            description,
            history: b.build(),
            expectations,
        });
    }
    Ok(tests)
}

/// Render a history in the litmus notation this module parses. The text
/// is the canonical serialization: `parse_history(emit_litmus(h))`
/// reproduces `h` exactly (same processors, in order, with identical
/// operation sequences), provided every processor name round-trips
/// through the parser — which holds for all builder- or parser-produced
/// histories.
pub fn emit_litmus(h: &History) -> String {
    h.to_string()
}

/// Render a [`LitmusTest`] as a `test <name> "<description>" { ... }
/// expect { ... }` block that [`parse_suite`] reads back. The test name
/// must be an identifier and the description must not contain `"`; both
/// are debug-asserted.
pub fn emit_litmus_test(t: &LitmusTest) -> String {
    debug_assert!(
        is_ident(&t.name),
        "test name `{}` is not an identifier",
        t.name
    );
    debug_assert!(
        !t.description.contains('"'),
        "description must not contain a quote"
    );
    let mut s = format!("test {}", t.name);
    if !t.description.is_empty() {
        s.push_str(&format!(" \"{}\"", t.description));
    }
    s.push_str(" {\n");
    for line in emit_litmus(&t.history).lines() {
        s.push_str("    ");
        s.push_str(line.trim_start());
        s.push('\n');
    }
    s.push('}');
    if !t.expectations.is_empty() {
        let items: Vec<String> = t
            .expectations
            .iter()
            .map(|(m, v)| format!("{m}: {}", if *v { "yes" } else { "no" }))
            .collect();
        s.push_str(&format!(" expect {{ {} }}", items.join(", ")));
    }
    s.push('\n');
    s
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Parse `expect { SC: no, TSO: yes }` from the gathered segments that
/// followed a test's closing `}` — one `(line number, text)` pair per
/// source line, so every error can name the line it occurred on.
fn parse_expect(segments: &[(usize, String)]) -> Result<Vec<(String, bool)>, ParseError> {
    // Join the segments into one string, remembering where each source
    // line starts so offsets map back to line numbers.
    let mut text = String::new();
    let mut starts: Vec<(usize, usize)> = Vec::new();
    for (line_no, seg) in segments {
        if !text.is_empty() {
            text.push(' ');
        }
        starts.push((text.len(), *line_no));
        text.push_str(seg);
    }
    let first_line = segments.first().map_or(0, |&(no, _)| no);
    let line_at = |offset: usize| -> usize {
        starts
            .iter()
            .rev()
            .find(|&&(start, _)| start <= offset)
            .map_or(first_line, |&(_, no)| no)
    };

    let Some(after_kw) = text.strip_prefix("expect") else {
        return err(
            first_line,
            format!("expected `expect {{...}}` after `}}`, found `{text}`"),
        );
    };
    let open = text.len() - after_kw.trim_start().len();
    if !text[open..].starts_with('{') {
        return err(line_at(open), "expectations must be wrapped in `{...}`");
    }
    let close = match text.rfind('}') {
        Some(close) if close > open => close,
        _ => return err(line_at(open), "expectations must be wrapped in `{...}`"),
    };
    let trailing = text[close + 1..].trim();
    if !trailing.is_empty() {
        return err(
            line_at(close + 1),
            format!("unexpected text after expect block: `{trailing}`"),
        );
    }

    let mut out: Vec<(String, bool)> = Vec::new();
    let mut item_start = open + 1;
    while item_start <= close {
        let item_end = text[item_start..close]
            .find(',')
            .map_or(close, |i| item_start + i);
        let item = text[item_start..item_end].trim();
        let item_line = {
            let leading =
                text[item_start..item_end].len() - text[item_start..item_end].trim_start().len();
            line_at(item_start + leading)
        };
        item_start = item_end + 1;
        if item.is_empty() {
            continue;
        }
        let Some((model, verdict)) = item.split_once(':') else {
            return err(
                item_line,
                format!("expectation `{item}` is not `MODEL: yes|no`"),
            );
        };
        let model = model.trim();
        if !is_ident(model) {
            return err(item_line, format!("invalid model name `{model}`"));
        }
        let v = match verdict.trim() {
            "yes" | "true" | "allowed" => true,
            "no" | "false" | "forbidden" => false,
            other => {
                return err(item_line, format!("unknown verdict `{other}` (use yes/no)"));
            }
        };
        if out.iter().any(|(m, _)| m.eq_ignore_ascii_case(model)) {
            return err(
                item_line,
                format!("duplicate expectation for model `{model}`"),
            );
        }
        out.push((model.to_owned(), v));
    }
    Ok(out)
}

/// Parse `p: w(x)1 r(y)0` into the builder.
fn parse_proc_line(b: &mut HistoryBuilder, line: &str, line_no: usize) -> Result<(), ParseError> {
    let (proc, ops) = line.split_once(':').ok_or_else(|| ParseError {
        line: line_no,
        message: format!("expected `proc: ops...`, found `{line}`"),
    })?;
    let proc = proc.trim();
    if proc.is_empty() || !is_ident(proc) {
        return err(line_no, format!("invalid processor name `{proc}`"));
    }
    b.add_proc(proc);
    let mut rest = ops.trim();
    while !rest.is_empty() {
        rest = parse_op(b, proc, rest, line_no)?.trim_start();
    }
    Ok(())
}

/// Parse a single `w(x)1`-style operation from the front of `s`; returns
/// the remainder.
fn parse_op<'a>(
    b: &mut HistoryBuilder,
    proc: &str,
    s: &'a str,
    line_no: usize,
) -> Result<&'a str, ParseError> {
    let tok = parse_op_token(s).map_err(|message| ParseError {
        line: line_no,
        message,
    })?;
    b.push(proc, tok.kind, tok.loc, tok.value, tok.label);
    Ok(tok.rest)
}

/// A `w(x)1`-style operation token parsed off the front of a line, shared
/// between the litmus and trace formats.
pub(crate) struct OpToken<'a> {
    pub kind: OpKind,
    pub label: Label,
    pub loc: &'a str,
    pub value: i64,
    /// Unconsumed remainder of the input.
    pub rest: &'a str,
}

/// Parse one operation token from the front of `s`. On failure the error
/// is a bare message; callers attach their own position information.
pub(crate) fn parse_op_token(s: &str) -> Result<OpToken<'_>, String> {
    let open = s
        .find('(')
        .ok_or_else(|| format!("expected `(` in operation near `{s}`"))?;
    let (kind, label) = match &s[..open] {
        "w" => (OpKind::Write, Label::Ordinary),
        "r" => (OpKind::Read, Label::Ordinary),
        "wl" | "W" => (OpKind::Write, Label::Labeled),
        "rl" | "R" => (OpKind::Read, Label::Labeled),
        other => {
            return Err(format!(
                "unknown operation mnemonic `{other}` (use w/r/wl/rl)"
            ))
        }
    };
    let after_open = &s[open + 1..];
    let close = after_open
        .find(')')
        .ok_or_else(|| format!("missing `)` in operation near `{s}`"))?;
    let loc = after_open[..close].trim();
    if loc.is_empty() || !is_loc_name(loc) {
        return Err(format!("invalid location name `{loc}`"));
    }
    let after_close = &after_open[close + 1..];
    let val_len = value_prefix_len(after_close);
    if val_len == 0 {
        return Err(format!("missing value after `)` near `{after_close}`"));
    }
    let value: i64 = after_close[..val_len]
        .parse()
        .map_err(|_| format!("invalid value `{}`", &after_close[..val_len]))?;
    Ok(OpToken {
        kind,
        label,
        loc,
        value,
        rest: &after_close[val_len..],
    })
}

fn value_prefix_len(s: &str) -> usize {
    let bytes = s.as_bytes();
    let mut i = 0;
    if bytes.first() == Some(&b'-') {
        i = 1;
    }
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if i == 1 && bytes[0] == b'-' {
        0
    } else {
        i
    }
}

pub(crate) fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

pub(crate) fn is_loc_name(s: &str) -> bool {
    s.chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '[' || c == ']')
        && s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
}

fn take_ident(s: &str) -> Option<(&str, &str)> {
    let end = s
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    if end == 0 {
        None
    } else {
        Some((&s[..end], &s[end..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{ProcId, Value};

    #[test]
    fn parses_fig1() {
        let h = parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap();
        assert_eq!(h.num_ops(), 4);
        assert_eq!(h.num_procs(), 2);
        assert_eq!(h.to_string(), "p: w(x)1 r(y)0\nq: w(y)1 r(x)0\n");
    }

    #[test]
    fn parses_labeled_ops_and_arrays() {
        let h = parse_history("p1: wl(choosing[0])1 rl(number[1])0 w(d)5").unwrap();
        let ops = h.ops();
        assert!(ops[0].is_release());
        assert!(ops[1].is_acquire());
        assert!(!ops[2].is_labeled());
        assert_eq!(h.loc_name(ops[0].loc), "choosing[0]");
    }

    #[test]
    fn uppercase_mnemonics_are_labeled() {
        let h = parse_history("p: W(s)1 R(s)1").unwrap();
        assert!(h.ops()[0].is_release());
        assert!(h.ops()[1].is_acquire());
    }

    #[test]
    fn negative_values_and_comments() {
        let h = parse_history("# leading comment\np: w(x)-3 # trailing\n\nq: r(x)-3").unwrap();
        assert_eq!(h.ops()[0].value, Value(-3));
        assert_eq!(h.ops()[1].value, Value(-3));
    }

    #[test]
    fn multiple_lines_same_proc_accumulate() {
        let h = parse_history("p: w(x)1\np: r(y)0").unwrap();
        assert_eq!(h.num_procs(), 1);
        assert_eq!(h.proc_ops(ProcId(0)).len(), 2);
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = parse_history("p: w(x)1\nq: z(x)1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("mnemonic"));
        let e = parse_history("p w(x)1").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn rejects_missing_value_and_paren() {
        assert!(parse_history("p: w(x)").is_err());
        assert!(parse_history("p: w(x 1").is_err());
        assert!(parse_history("p: w()1").is_err());
        assert!(parse_history("p: w(x)-").is_err());
    }

    #[test]
    fn parses_suite_with_expectations() {
        let suite = parse_suite(
            r#"
            # figure 1 of the paper
            test fig1 "TSO but not SC" {
                p: w(x)1 r(y)0
                q: w(y)1 r(x)0
            } expect { SC: no, TSO: yes, PC: yes }

            test empty {
                p: w(x)1
            }
            "#,
        )
        .unwrap();
        assert_eq!(suite.len(), 2);
        let t = &suite[0];
        assert_eq!(t.name, "fig1");
        assert_eq!(t.description, "TSO but not SC");
        assert_eq!(t.expectation("sc"), Some(false));
        assert_eq!(t.expectation("TSO"), Some(true));
        assert_eq!(t.expectation("PRAM"), None);
        assert!(suite[1].expectations.is_empty());
    }

    #[test]
    fn suite_errors() {
        assert!(parse_suite("test {").is_err());
        assert!(parse_suite("test t \"unterminated {").is_err());
        assert!(parse_suite("test t {\n p: w(x)1").is_err());
        assert!(parse_suite("test t {\n} expect SC: yes").is_err());
        assert!(parse_suite("test t {\n} expect { SC maybe }").is_err());
        assert!(parse_suite("test t {\n} expect { SC: maybe }").is_err());
    }

    #[test]
    fn duplicate_expectations_rejected() {
        let e = parse_suite("test t {\n p: w(x)1\n} expect { SC: yes, SC: no }").unwrap_err();
        assert!(e.message.contains("duplicate expectation"), "{e}");
        assert_eq!(e.line, 3);
        // Case-insensitive, matching `LitmusTest::expectation` lookup.
        let e = parse_suite("test t {\n p: w(x)1\n} expect { SC: yes, sc: yes }").unwrap_err();
        assert!(e.message.contains("duplicate expectation"), "{e}");
    }

    #[test]
    fn expect_errors_carry_line_numbers() {
        // Multiline expect block: the error names the continuation line
        // the bad item is on, not the line the block opened on.
        let e = parse_suite("test t {\n p: w(x)1\n} expect { SC: yes,\n TSO: maybe,\n PC: no }")
            .unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.message.contains("maybe"), "{e}");

        let e = parse_suite("test t {\n p: w(x)1\n} expect { SC: yes,\n 7up: no }").unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.message.contains("invalid model name"), "{e}");
    }

    #[test]
    fn expect_rejects_trailing_text() {
        let e = parse_suite("test t {\n p: w(x)1\n} expect { SC: yes } junk").unwrap_err();
        assert!(e.message.contains("unexpected text"), "{e}");
        assert_eq!(e.line, 3);
    }

    #[test]
    fn multiline_expect_blocks_parse() {
        let suite =
            parse_suite("test t {\n p: w(x)1\n} expect {\n SC: yes,\n TSO: yes,\n PRAM: no\n}")
                .unwrap();
        assert_eq!(
            suite[0].expectations,
            vec![
                ("SC".to_owned(), true),
                ("TSO".to_owned(), true),
                ("PRAM".to_owned(), false)
            ]
        );
    }

    #[test]
    fn unterminated_expect_block_reports_opening_line() {
        let e = parse_suite("test t {\n p: w(x)1\n} expect { SC: yes,\n TSO: yes").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unterminated expect block"), "{e}");
    }

    #[test]
    fn emit_litmus_round_trips() {
        let h = parse_history("p: w(x)1 rl(y)0\nq: W(y)2\nidle:").unwrap();
        let back = parse_history(&emit_litmus(&h)).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn emit_litmus_test_round_trips() {
        let t = LitmusTest {
            name: "sep_tso_not_sc".into(),
            description: "TSO admits, SC refutes".into(),
            history: parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap(),
            expectations: vec![("TSO".into(), true), ("SC".into(), false)],
        };
        let text = emit_litmus_test(&t);
        let back = parse_suite(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].name, t.name);
        assert_eq!(back[0].description, t.description);
        assert_eq!(back[0].history, t.history);
        assert_eq!(back[0].expectations, t.expectations);
        // No expectations → no expect block, still parseable.
        let bare = LitmusTest {
            expectations: Vec::new(),
            ..t
        };
        let back = parse_suite(&emit_litmus_test(&bare)).unwrap();
        assert!(back[0].expectations.is_empty());
    }

    #[test]
    fn suite_text_round_trip() {
        // The litmus text is the canonical serialization: rendering a
        // parsed history and re-wrapping it in a suite block must
        // reproduce the history and expectations exactly.
        let suite = parse_suite("test t \"d\" {\n p: w(x)1 rl(y)0\n} expect { SC: yes }").unwrap();
        let text = format!(
            "test t \"d\" {{\n{}}} expect {{ SC: yes }}",
            suite[0].history
        );
        let back = parse_suite(&text).unwrap();
        assert_eq!(back[0].history, suite[0].history);
        assert_eq!(back[0].expectations, suite[0].expectations);
    }
}
