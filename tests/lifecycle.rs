//! Session lifecycle: checkpoint/restore, processor churn, windowing.
//!
//! The tentpole invariant is *transparency*: none of the lifecycle
//! machinery may change what the monitor says. Checkpointing at any
//! point and resuming must be byte-identical to never having stopped
//! (the final checkpoints of the warm and cold runs are compared as raw
//! bytes, which covers verdicts, first-violation positions, totals and
//! every engine's frontier arena at once). Folding a retired processor
//! into the summarized prefix must leave the verdict stream unchanged.
//! And corrupt or truncated checkpoint files must come back as `Err`
//! with a byte offset — never a panic.

use smc_core::checker::{CheckConfig, EngineKind};
use smc_core::models;
use smc_history::trace::Trace;
use smc_history::{History, HistoryBuilder, Label, OpKind};
use smc_monitor::{Monitor, MonitorConfig, TriVerdict};
use smc_prng::SmallRng;
use smc_programs::corpus::litmus_suite;
use smc_serve::{verdict_payload, DEFAULT_SESSION_MAX_STATES};
use smc_sim::sched::run_random;
use smc_sim::workload::{Access, OpScript};
use smc_sim::TsoMem;

const PROCS: [&str; 4] = ["p", "q", "r", "s"];
const LOCS: [&str; 3] = ["x", "y", "z"];

fn random_history(rng: &mut SmallRng) -> History {
    let mut b = HistoryBuilder::new();
    let threads = rng.gen_range(1..5usize);
    for proc in PROCS.iter().take(threads) {
        b.add_proc(proc);
        for _ in 0..rng.gen_range(0..6usize) {
            let loc = LOCS[rng.gen_range(0..LOCS.len())];
            let value = rng.gen_range(0..5i64);
            if rng.gen_bool(0.5) {
                b.write(proc, loc, value.max(1));
            } else {
                b.read(proc, loc, value);
            }
        }
    }
    b.build()
}

/// A monitor configuration for case `ci`, cycling through the check
/// engines and (every fourth case) a small window. Each call attaches a
/// fresh memo cache so the compared runs never warm each other.
fn case_config(ci: usize) -> MonitorConfig {
    let engine = [
        EngineKind::Auto,
        EngineKind::Exhaustive,
        EngineKind::Saturate,
    ][ci % 3];
    MonitorConfig {
        check: CheckConfig {
            engine,
            ..CheckConfig::default().with_memo()
        },
        window: if ci % 4 == 3 { Some(3) } else { None },
        ..MonitorConfig::default()
    }
}

/// Feed `t.events()[from..to]` one event at a time through the
/// intern-on-first-use path, the discipline a live stream uses.
fn feed_events(mon: &mut Monitor, t: &Trace, from: usize, to: usize) {
    for ev in &t.events()[from..to] {
        mon.feed(
            t.proc_name(ev.proc),
            ev.kind,
            t.loc_name(ev.loc),
            ev.value.0,
            ev.label,
        );
    }
}

#[test]
fn checkpoint_round_trip_resumes_byte_identically() {
    let model_list = models::lattice_models();
    let mut cases: Vec<(String, History)> = litmus_suite()
        .into_iter()
        .map(|t| (t.name, t.history))
        .collect();
    for case in 0..200u64 {
        let h = random_history(&mut SmallRng::seed_from_u64(0xc4a7_u64.wrapping_add(case)));
        cases.push((format!("random {case}"), h));
    }
    for (ci, (name, h)) in cases.iter().enumerate() {
        let trace = Trace::from_history(h);
        // Cold: the whole stream through one uninterrupted monitor.
        let mut cold = Monitor::new(model_list.clone(), case_config(ci));
        feed_events(&mut cold, &trace, 0, trace.len());
        // Warm: half the stream, checkpoint, restore, the other half.
        let split = trace.len() / 2;
        let mut warm = Monitor::new(model_list.clone(), case_config(ci));
        feed_events(&mut warm, &trace, 0, split);
        let blob = warm.checkpoint_bytes();
        let mut warm = Monitor::restore_bytes(&blob, case_config(ci).check)
            .unwrap_or_else(|e| panic!("{name}: restore failed: {e}"));
        // Restoring and immediately re-checkpointing reproduces the
        // blob bit for bit.
        assert_eq!(warm.checkpoint_bytes(), blob, "{name}: unstable round trip");
        feed_events(&mut warm, &trace, split, trace.len());
        assert_eq!(
            warm.verdicts(),
            cold.verdicts(),
            "{name}: warm and cold verdicts diverge\n{h}"
        );
        for (i, model) in model_list.iter().enumerate() {
            assert_eq!(
                warm.first_violation(i),
                cold.first_violation(i),
                "{name}: first-violation positions diverge on {}",
                model.name
            );
        }
        assert_eq!(
            warm.checkpoint_bytes(),
            cold.checkpoint_bytes(),
            "{name}: final checkpoints are not byte-identical\n{h}"
        );
    }
}

/// One step of a lifecycle script: a processor transition or an event.
#[derive(Clone, Debug)]
enum Step {
    Join(String),
    Retire(String),
    Ev(String, OpKind, &'static str, i64),
}

fn apply(mon: &mut Monitor, step: &Step) {
    match step {
        Step::Join(p) => mon.join(p),
        Step::Retire(p) => mon.retire(p),
        Step::Ev(p, kind, loc, v) => {
            mon.feed(p, *kind, loc, *v, Label::Ordinary);
        }
    }
}

/// A random stream of joins, events and retires. Reads mostly return
/// the globally last-written value (keeping engines admitted, so folds
/// actually trigger), with an occasional stale read for violation
/// coverage. Retired processors never issue further events.
fn random_lifecycle_script(rng: &mut SmallRng) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut active: Vec<String> = Vec::new();
    let mut next_proc = 0usize;
    let mut last: std::collections::HashMap<&'static str, i64> = Default::default();
    let join = |steps: &mut Vec<Step>, active: &mut Vec<String>, next_proc: &mut usize| {
        let name = format!("p{next_proc}");
        *next_proc += 1;
        steps.push(Step::Join(name.clone()));
        active.push(name);
    };
    for _ in 0..rng.gen_range(1..4usize) {
        join(&mut steps, &mut active, &mut next_proc);
    }
    for _ in 0..rng.gen_range(8..28usize) {
        match rng.gen_range(0..12u32) {
            0 if active.len() > 1 => {
                let i = rng.gen_range(0..active.len());
                steps.push(Step::Retire(active.swap_remove(i)));
            }
            1 if active.len() < 4 => join(&mut steps, &mut active, &mut next_proc),
            _ => {
                let p = active[rng.gen_range(0..active.len())].clone();
                let loc = LOCS[rng.gen_range(0..LOCS.len())];
                if rng.gen_bool(0.5) {
                    let v = rng.gen_range(0..4i64) + 1;
                    last.insert(loc, v);
                    steps.push(Step::Ev(p, OpKind::Write, loc, v));
                } else {
                    let v = if rng.gen_bool(0.85) {
                        *last.get(loc).unwrap_or(&0)
                    } else {
                        rng.gen_range(0..5i64)
                    };
                    steps.push(Step::Ev(p, OpKind::Read, loc, v));
                }
            }
        }
    }
    steps
}

#[test]
fn checkpoint_round_trips_across_churn_and_windows() {
    let model_list = models::lattice_models();
    for case in 0..60usize {
        let script =
            random_lifecycle_script(&mut SmallRng::seed_from_u64(0x10ad_u64 + case as u64));
        let mut cold = Monitor::new(model_list.clone(), case_config(case));
        for s in &script {
            apply(&mut cold, s);
        }
        let split = script.len() / 2;
        let mut warm = Monitor::new(model_list.clone(), case_config(case));
        for s in &script[..split] {
            apply(&mut warm, s);
        }
        let blob = warm.checkpoint_bytes();
        let mut warm = Monitor::restore_bytes(&blob, case_config(case).check)
            .unwrap_or_else(|e| panic!("case {case}: restore failed: {e}"));
        for s in &script[split..] {
            apply(&mut warm, s);
        }
        assert_eq!(
            warm.verdicts(),
            cold.verdicts(),
            "case {case}: warm and cold verdicts diverge\nscript: {script:?}"
        );
        assert_eq!(
            warm.checkpoint_bytes(),
            cold.checkpoint_bytes(),
            "case {case}: final checkpoints are not byte-identical\nscript: {script:?}"
        );
        let t = cold.totals();
        assert_eq!(warm.totals(), t, "case {case}: totals diverge");
        assert!(t.joins >= 1, "case {case}: script produced no joins");
    }
}

#[test]
fn truncated_and_corrupt_checkpoints_are_rejected_not_panicking() {
    let model_list = models::lattice_models();
    let cfg = MonitorConfig {
        window: Some(2),
        ..MonitorConfig::default()
    };
    // A checkpoint exercising every section: churn, folds, windows.
    let mut mon = Monitor::new(model_list.clone(), cfg.clone());
    let script = random_lifecycle_script(&mut SmallRng::seed_from_u64(0xdead));
    for s in &script {
        apply(&mut mon, s);
    }
    let blob = mon.checkpoint_bytes();
    let restore = |bytes: &[u8]| Monitor::restore_bytes(bytes, cfg.check.clone());
    // Every truncation is an error naming an offset, never a panic.
    for cut in 0..blob.len() {
        match restore(&blob[..cut]) {
            Ok(_) => panic!(
                "truncated checkpoint ({cut} of {} bytes) accepted",
                blob.len()
            ),
            Err(e) => assert!(e.contains("byte"), "cut {cut}: error lacks an offset: {e}"),
        }
    }
    // Trailing garbage is rejected too — a checkpoint is the whole file.
    let mut long = blob.clone();
    long.push(0);
    assert!(restore(&long).is_err(), "trailing byte accepted");
    // A bad magic number is called out as not-a-checkpoint.
    let mut bad = blob.clone();
    bad[0] ^= 0xff;
    match restore(&bad) {
        Ok(_) => panic!("bad magic accepted"),
        Err(e) => assert!(e.contains("magic"), "magic error missing: {e}"),
    }
    // Arbitrary single-byte corruption must never panic; it may load
    // (counters are not checksummed) but usually errors with an offset.
    for i in (0..blob.len()).step_by(7) {
        let mut bad = blob.clone();
        bad[i] ^= 0x5a;
        let _ = restore(&bad);
    }
}

#[test]
fn churn_folding_is_transparent_to_verdicts() {
    let model_list = models::lattice_models();
    let mut total_folds = 0u64;
    let mut total_reuse = 0usize;
    for case in 0..40usize {
        let script =
            random_lifecycle_script(&mut SmallRng::seed_from_u64(0xf01d_u64 + case as u64));
        let cfg = MonitorConfig {
            window: Some(2),
            ..MonitorConfig::default()
        };
        // Churned: the script as written, retires folding processors
        // away. Plain: the same event stream with every processor kept
        // active forever.
        let mut churned = Monitor::new(model_list.clone(), cfg.clone());
        let mut plain = Monitor::new(model_list.clone(), cfg.clone());
        for s in &script {
            apply(&mut churned, s);
            if let Step::Ev(..) = s {
                apply(&mut plain, s);
            }
            if let Step::Join(p) = s {
                plain.declare_proc(p);
            }
        }
        assert_eq!(
            churned.verdicts(),
            plain.verdicts(),
            "case {case}: folding changed the verdicts\nscript: {script:?}"
        );
        let t = churned.totals();
        total_folds += t.folds;
        let joins = script.iter().filter(|s| matches!(s, Step::Join(_))).count();
        assert!(
            churned.churn().width() <= joins,
            "case {case}: width {} exceeds total processors {joins}",
            churned.churn().width()
        );
        // A fold before a later join lets that join reuse the freed
        // slot, keeping the frontier narrower than the processor total.
        if churned.churn().width() < joins {
            total_reuse += 1;
        }
    }
    assert!(
        total_folds > 0,
        "no script ever folded a retired processor — the fold path is untested"
    );
    assert!(
        total_reuse > 0,
        "no script ever reused a retired slot — O(active) width is untested"
    );
}

#[test]
fn windowed_monitoring_bounds_frontier_memory() {
    let model_list = models::lattice_models();
    // A long sequentially-consistent stream: disjoint single-writer
    // locations, every read returns the location's last write. All
    // models stay admitted, so the unwindowed frontier keeps every
    // interleaving of the whole prefix while the windowed one restarts
    // from the sealed memory contents.
    let mk_events = || {
        let mut evs = Vec::new();
        for round in 0..25i64 {
            for (p, &loc) in LOCS.iter().enumerate() {
                evs.push((format!("p{p}"), OpKind::Write, loc, round + 1));
                evs.push((format!("p{p}"), OpKind::Read, loc, round + 1));
            }
        }
        evs
    };
    let run = |window: Option<usize>| {
        let mut mon = Monitor::new(
            model_list.clone(),
            MonitorConfig {
                window,
                ..MonitorConfig::default()
            },
        );
        let mut peak = 0u64;
        for (p, kind, loc, v) in mk_events() {
            let rep = mon.feed(&p, kind, loc, v, Label::Ordinary);
            peak = peak.max(rep.frontier_states);
        }
        assert!(
            mon.verdicts().iter().all(|v| *v == TriVerdict::Admitted),
            "SC stream not admitted under window {window:?}: {:?}",
            mon.verdicts()
        );
        (peak, mon.totals().windows_sealed)
    };
    let (peak_plain, _) = run(None);
    let (peak_windowed, sealed) = run(Some(6));
    assert!(sealed >= 20, "expected steady sealing, got {sealed}");
    assert!(
        peak_windowed * 4 < peak_plain,
        "windowing did not bound memory: windowed peak {peak_windowed}, plain peak {peak_plain}"
    );
}

/// FNV-1a over a byte string: a short, stable digest of a checkpoint.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A serve-shaped stream: a random program of `ops` accesses per
/// processor over 2 locations, writes drawing values from `1..=2`, run
/// on the 3-processor TSO machine and cut to its first 64 events.
fn tso_session_trace(seed: u64) -> Trace {
    const PROCS: usize = 3;
    const LOCS: usize = 2;
    const EVENTS: usize = 64;
    let mut rng = SmallRng::seed_from_u64(seed);
    let threads: Vec<Vec<Access>> = (0..PROCS)
        .map(|_| {
            (0..EVENTS.div_ceil(PROCS))
                .map(|_| {
                    let loc = rng.gen_range(0..LOCS) as u32;
                    if rng.gen_bool(0.5) {
                        Access::write(loc, rng.gen_range(1..3i64))
                    } else {
                        Access::read(loc)
                    }
                })
                .collect()
        })
        .collect();
    let out = run_random(
        TsoMem::new(PROCS, LOCS),
        OpScript::new(threads, LOCS),
        seed,
        1 << 20,
    );
    assert!(out.completed, "seed {seed}: run did not drain");
    let mut cut = Trace::new();
    for p in out.trace.proc_names() {
        cut.add_proc(p);
    }
    for l in out.trace.loc_names() {
        cut.add_loc(l);
    }
    for ev in &out.trace.events()[..EVENTS] {
        cut.push(*ev);
    }
    cut
}

/// Pins what the frontier engines do on serve-shaped sessions, where
/// every engine fills the session state budget: the monitor's work
/// counters, which models stay event-exact, the verdict payload, and a
/// digest of the checkpoint (which holds every engine's state rows in
/// id order). A change to the state table or the frontier closure that
/// moves the event at which an engine exhausts, or renumbers its
/// states, changes one of these.
#[test]
fn serve_shaped_sessions_pin_the_frontier() {
    let models = models::lattice_models();
    let mut totals = [0u64; 6];
    let mut lines = Vec::new();
    for seed in 0..16u64 {
        let t = tso_session_trace(0x5e55_1000 + seed);
        let cfg = MonitorConfig {
            max_frontier_states: DEFAULT_SESSION_MAX_STATES,
            ..MonitorConfig::default()
        };
        let mut mon = Monitor::new(models.clone(), cfg);
        feed_events(&mut mon, &t, 0, t.len());
        let m = mon.totals();
        for (sum, x) in totals.iter_mut().zip([
            m.created,
            m.expanded,
            m.reuse_hits,
            m.rechecks,
            m.recheck_nodes,
            m.propagated,
        ]) {
            *sum += x;
        }
        let exact: String = (0..models.len())
            .map(|i| if mon.is_event_exact(i) { '1' } else { '0' })
            .collect();
        lines.push(format!(
            "{} exact={exact} ckpt={:016x}",
            verdict_payload(&mon),
            fnv1a(&mon.checkpoint_bytes())
        ));
    }
    // A change to the state table or the frontier closure must leave
    // every pinned value as it is.
    assert_eq!(
        totals,
        [65392, 62321, 80734, 783, 1204666, 6503],
        "created, expanded, reuse_hits, rechecks, recheck_nodes, propagated"
    );
    // Every engine exhausts the budget, so no model is event-exact;
    // all eight models admit every session but SC, which refutes one.
    let want_ckpt: [u64; 16] = [
        0x098f_4978_5d1c_ae98,
        0x05b2_0982_53c7_433f,
        0x05b1_30bd_d39a_3c6c,
        0x8303_735b_876c_5ddb,
        0x115f_8243_6311_9bc7,
        0xe9fa_e4ed_20ba_9978,
        0x6ea9_e4bb_0f55_c7d2,
        0xe3d2_e335_76e9_0092,
        0x0dec_6c4b_60ad_4e0c,
        0x8d50_e2df_fa5f_57c3,
        0x00a1_6743_cfbd_09f6,
        0x159b_ea5b_c6d9_761e,
        0xb779_47e8_2d9e_ddd6,
        0x1710_29c6_9f33_a0d5,
        0x8e8a_133b_fd56_6966,
        0x59ee_9140_e5bd_f51c,
    ];
    for (i, (line, ckpt)) in lines.iter().zip(want_ckpt).enumerate() {
        let sc = if i == 11 { "violated" } else { "admitted" };
        let want = format!(
            "64 SC={sc} TSO=admitted PC=admitted PCG=admitted CausalCoherent=admitted \
             Causal=admitted PRAM=admitted Coherent=admitted exact=00000000 ckpt={ckpt:016x}"
        );
        assert_eq!(*line, want, "session {i}");
    }
}
