//! Session lifecycle costs: warm restore vs cold replay, and windowed
//! steady-state monitoring.
//!
//! `warm_restore` is the checkpoint payoff: a 10k-event session resumed
//! from a checkpoint (deserialize + feed the 10-event tail) against
//! `cold_replay` re-feeding the whole stream through a fresh monitor.
//! The restore parses bytes where the replay re-runs frontier search,
//! so it should be well over an order of magnitude faster; `check.sh`
//! gates on ≥5×.
//!
//! The `windowed_steady_state_*` pair feeds the same per-processor
//! stream at two lengths under `--window 16`. Each body asserts the
//! peak frontier width stays under a fixed ceiling regardless of stream
//! length (memory is flat), and the timings let `check.sh` confirm cost
//! scales linearly — doubling the stream may double the time, not
//! square it.

use smc_bench::quickbench::{black_box, Harness};
use smc_core::models;
use smc_history::trace::Trace;
use smc_history::{Label, OpKind};
use smc_monitor::{Monitor, MonitorConfig, TriVerdict};

/// A sequentially-consistent stream: four single-writer processors,
/// each alternating a write with a read of its own location. Every
/// model stays admitted, so the monitor does real frontier work on
/// every event for the whole stream.
fn workload(events: usize) -> Trace {
    let mut t = Trace::new();
    for p in ["p0", "p1", "p2", "p3"] {
        t.add_proc(p);
    }
    for l in ["a", "b", "c", "d"] {
        t.add_loc(l);
    }
    let locs = ["a", "b", "c", "d"];
    let mut n = 0usize;
    let mut round = 0i64;
    'outer: loop {
        round += 1;
        for (p, loc) in ["p0", "p1", "p2", "p3"].iter().zip(locs) {
            for kind in [OpKind::Write, OpKind::Read] {
                t.push_named(p, kind, loc, round, Label::Ordinary);
                n += 1;
                if n == events {
                    break 'outer;
                }
            }
        }
    }
    t
}

fn config() -> MonitorConfig {
    MonitorConfig {
        window: Some(16),
        ..MonitorConfig::default()
    }
}

fn feed_all(mon: &mut Monitor, t: &Trace, from: usize) -> u64 {
    let mut peak = 0u64;
    for ev in &t.events()[from..] {
        let rep = mon.feed(
            t.proc_name(ev.proc),
            ev.kind,
            t.loc_name(ev.loc),
            ev.value.0,
            ev.label,
        );
        peak = peak.max(rep.frontier_states);
    }
    peak
}

fn bench_restore_vs_replay(harness: &mut Harness) {
    const EVENTS: usize = 10_000;
    const TAIL: usize = 10;
    let model_list = models::lattice_models();
    let t = workload(EVENTS);
    // The checkpoint a long-lived session left behind, taken once
    // outside the timed region: everything but the last TAIL events.
    let blob = {
        let mut mon = Monitor::new(model_list.clone(), config());
        for ev in &t.events()[..EVENTS - TAIL] {
            mon.feed(
                t.proc_name(ev.proc),
                ev.kind,
                t.loc_name(ev.loc),
                ev.value.0,
                ev.label,
            );
        }
        mon.checkpoint_bytes()
    };
    let mut g = harness.group("lifecycle/session_10000_events");
    g.bench("cold_replay", || {
        let mut mon = Monitor::new(model_list.clone(), config());
        feed_all(&mut mon, &t, 0);
        assert!(black_box(&mon)
            .verdicts()
            .iter()
            .all(|v| *v == TriVerdict::Admitted));
    });
    g.bench("warm_restore", || {
        let mut mon =
            Monitor::restore_bytes(&blob, config().check).expect("checkpoint must restore");
        feed_all(&mut mon, &t, EVENTS - TAIL);
        assert!(black_box(&mon)
            .verdicts()
            .iter()
            .all(|v| *v == TriVerdict::Admitted));
    });
}

fn bench_windowed_steady_state(harness: &mut Harness) {
    // With four free-running processors the unwindowed frontier keeps
    // every interleaving of the whole prefix; windowing restarts each
    // window from the sealed memory image. The ceiling below is the
    // empirical per-window peak plus slack — if a change lets state
    // leak across windows, the assert trips long before the timing gate.
    const CEILING: u64 = 4_000;
    let model_list = models::lattice_models();
    for events in [5_000usize, 10_000] {
        let t = workload(events);
        let mut g = harness.group("lifecycle/windowed_steady_state");
        g.bench(&format!("{events}_events"), || {
            let mut mon = Monitor::new(model_list.clone(), config());
            let peak = feed_all(&mut mon, &t, 0);
            assert!(
                peak < CEILING,
                "windowed frontier peak {peak} not flat at {events} events"
            );
            black_box(mon.totals());
        });
    }
}

fn main() {
    let mut h = Harness::from_env();
    bench_restore_vs_replay(&mut h);
    bench_windowed_steady_state(&mut h);
}
