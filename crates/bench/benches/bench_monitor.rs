//! Amortized cost of streaming admission monitoring: the incremental
//! frontier monitor vs restarting the batch checker on every prefix.
//!
//! The stream is engineered to punish restarts. Once the reader's
//! anti-program-order reads start arriving, every prefix is SC-refuted
//! for an *ordering* reason — every read's value was genuinely written,
//! so the batch checker cannot short-circuit on an unmatched value and
//! must exhaust the reachable scheduling space to prove refutation. A
//! restart-per-event monitor pays that exhaustive search again on every
//! prefix; the frontier monitor discovers and expands each scheduling
//! state once over the entire stream.

use smc_bench::quickbench::{black_box, Harness};
use smc_core::checker::{check_with_config, CheckConfig};
use smc_core::models;
use smc_history::trace::Trace;
use smc_history::{Label, OpKind};
use smc_monitor::{Monitor, MonitorConfig, TriVerdict};

/// `p0`/`p1` alternate writes `w(x)1..n` / `w(y)1..n`, then `p2` reads
/// both locations in *descending* value order: `r(x)n r(y)n r(x)n-1
/// r(y)n-1 ...`. The write-only prefixes are admitted; from the third
/// read on, every prefix is refuted — the reads demand the last-written
/// value of each location to run backwards against the writers' program
/// order, which no interleaving delivers, yet every value read does
/// appear in some write.
fn workload(n: i64) -> Trace {
    let mut t = Trace::new();
    for p in ["p0", "p1", "p2"] {
        t.add_proc(p);
    }
    for l in ["x", "y"] {
        t.add_loc(l);
    }
    for v in 1..=n {
        t.push_named("p0", OpKind::Write, "x", v, Label::Ordinary);
        t.push_named("p1", OpKind::Write, "y", v, Label::Ordinary);
    }
    for v in (1..=n).rev() {
        t.push_named("p2", OpKind::Read, "x", v, Label::Ordinary);
        t.push_named("p2", OpKind::Read, "y", v, Label::Ordinary);
    }
    t
}

fn incremental(t: &Trace) -> TriVerdict {
    let mut mon = Monitor::new(vec![models::sc()], MonitorConfig::default());
    mon.feed_trace(t);
    mon.verdicts()[0]
}

/// What a restart-per-event monitor pays: a cold batch check of every
/// prefix (no memo carries across prefixes — distinct histories would
/// miss the symmetry cache anyway).
fn scratch(t: &Trace) -> Option<bool> {
    let cfg = CheckConfig::default();
    let sc = models::sc();
    let mut last = None;
    for n in 1..=t.len() {
        last = check_with_config(&t.history_of_prefix(n), &sc, &cfg).decided();
    }
    last
}

fn bench_monitor_growing_prefix(harness: &mut Harness) {
    for n in [6i64, 10] {
        let t = workload(n);
        let mut g = harness.group(&format!("monitor/growing_prefix_{}_events", t.len()));
        g.bench("incremental", || {
            assert_eq!(black_box(incremental(&t)), TriVerdict::Violated);
        });
        g.bench("scratch", || {
            assert_eq!(black_box(scratch(&t)), Some(false));
        });
    }
}

fn main() {
    let mut h = Harness::from_env();
    bench_monitor_growing_prefix(&mut h);
}
