//! The streaming monitor agrees with the batch checker.
//!
//! Each history is fed to a [`Monitor`] one event at a time; after the
//! last event the monitor's per-model verdict must match the batch
//! checker's verdict **whenever the batch checker decides**: for all 12
//! models on the corpus and random histories, and for the lattice models
//! on the per-prefix and simulator cases. The monitor may legitimately
//! decide via sound inclusion-lattice propagation where a direct batch
//! check would exhaust its budget, so batch-undecided pairs are skipped
//! rather than required to be `Unknown`; the small histories here never
//! hit a budget in practice, so the skip is a safety valve, not a
//! loophole.

use smc_core::batch::check_parallel;
use smc_core::checker::CheckConfig;
use smc_core::models;
use smc_history::trace::Trace;
use smc_history::{History, HistoryBuilder};
use smc_monitor::{Monitor, MonitorConfig, TriVerdict};
use smc_prng::SmallRng;
use smc_programs::corpus::litmus_suite;
use smc_sim::sched::run_random;
use smc_sim::workload::{Access, OpScript};
use smc_sim::TsoMem;

fn assert_monitor_matches_batch(h: &History, jobs: usize, ctx: &str) {
    let models = models::all_models();
    let mut mon = Monitor::new(
        models.clone(),
        MonitorConfig {
            check: CheckConfig::default().with_memo(),
            jobs,
            ..MonitorConfig::default()
        },
    );
    mon.feed_trace(&Trace::from_history(h));
    // A fresh memo for the batch side, so neither run warms the other.
    let batch_cfg = CheckConfig::default().with_memo();
    for (i, spec) in models.iter().enumerate() {
        let batch = check_parallel(h, spec, &batch_cfg, jobs).0.decided();
        let Some(batch_admits) = batch else { continue };
        let expected = if batch_admits {
            TriVerdict::Admitted
        } else {
            TriVerdict::Violated
        };
        assert_eq!(
            mon.verdicts()[i],
            expected,
            "{ctx}: monitor disagrees with batch on {} (jobs {jobs})\n{h}",
            spec.name
        );
    }
}

fn corpus_agrees(jobs: usize) {
    for t in litmus_suite() {
        assert_monitor_matches_batch(&t.history, jobs, t.name.as_str());
    }
}

#[test]
fn corpus_agrees_sequential() {
    corpus_agrees(1);
}

#[test]
fn corpus_agrees_two_jobs() {
    corpus_agrees(2);
}

#[test]
fn corpus_agrees_four_jobs() {
    corpus_agrees(4);
}

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

#[test]
fn random_histories_agree() {
    for case in 0..200u64 {
        let h = random_history(&mut SmallRng::seed_from_u64(0x117_u64.wrapping_add(case)));
        let jobs = [1, 2, 4][case as usize % 3];
        assert_monitor_matches_batch(&h, jobs, &format!("case {case}"));
    }
}

/// Headerless ingestion (the documented intern-on-first-use `feed`
/// path): no `declare_proc`/`declare_loc`, so processors and locations
/// appear mid-stream and force frontier rebuilds. After every event the
/// monitor's verdicts must agree with the batch checker on the prefix —
/// this is the regression gate for the rebuild-replay duplication bug,
/// which only bites when a name first appears mid-stream.
#[test]
fn headerless_event_by_event_agrees_per_prefix() {
    let models = models::lattice_models();
    let cfg = CheckConfig::default().with_memo();
    for case in 0..40u64 {
        let h = random_history(&mut SmallRng::seed_from_u64(0xbeef_u64.wrapping_add(case)));
        let trace = Trace::from_history(&h);
        let mut mon = Monitor::new(models.clone(), MonitorConfig::default());
        for (n, ev) in trace.events().iter().enumerate() {
            mon.feed(
                trace.proc_name(ev.proc),
                ev.kind,
                trace.loc_name(ev.loc),
                ev.value.0,
                ev.label,
            );
            let prefix = mon.trace().history_of_prefix(n + 1);
            for (i, spec) in models.iter().enumerate() {
                let Some(batch_admits) = check_parallel(&prefix, spec, &cfg, 1).0.decided() else {
                    continue;
                };
                let expected = if batch_admits {
                    TriVerdict::Admitted
                } else {
                    TriVerdict::Violated
                };
                assert_eq!(
                    mon.verdicts()[i],
                    expected,
                    "case {case}, prefix {}: monitor disagrees with batch on {}\n{prefix}",
                    n + 1,
                    spec.name
                );
            }
        }
    }
}

/// A machine-produced arrival-order trace (the live-monitoring input
/// path): feed the simulator's event stream, then cross-check against
/// the batch checker on the recorded history.
#[test]
fn simulator_traces_agree() {
    let script = OpScript::new(
        vec![
            vec![Access::write(0, 1), Access::read(1)],
            vec![Access::write(1, 1), Access::read(0)],
            vec![Access::read(0), Access::read(1)],
        ],
        2,
    );
    for seed in 0..20u64 {
        let out = run_random(TsoMem::new(3, 2), script.clone(), seed, 200_000);
        assert!(out.completed, "seed {seed}: run did not drain");
        assert_eq!(
            out.trace.history(),
            out.history,
            "seed {seed}: recorded trace and history diverged"
        );
        // Feed the arrival-order stream (not the proc-major
        // linearization) — the verdict over the completed run must not
        // depend on the interleaving the monitor happened to observe.
        let models = models::lattice_models();
        let mut mon = Monitor::new(models.clone(), MonitorConfig::default());
        mon.feed_trace(&out.trace);
        let batch_cfg = CheckConfig::default().with_memo();
        for (i, spec) in models.iter().enumerate() {
            let Some(batch_admits) = check_parallel(&out.history, spec, &batch_cfg, 1)
                .0
                .decided()
            else {
                continue;
            };
            let expected = if batch_admits {
                TriVerdict::Admitted
            } else {
                TriVerdict::Violated
            };
            assert_eq!(
                mon.verdicts()[i],
                expected,
                "sim seed {seed}: monitor disagrees with batch on {}\n{}",
                spec.name,
                out.history
            );
        }
    }
}
