//! Equivalence of the sequential checker and the parallel batch engine.
//!
//! Properties, over random histories and the embedded litmus corpus:
//!
//! * wherever both the sequential check and a parallel check *decide*
//!   (Allowed/Disallowed), they agree;
//! * every `Allowed` the parallel engine produces carries a witness that
//!   the independent verifier accepts;
//! * `check_batch` results are positionally identical to checking each
//!   pair sequentially, for any worker count.

use smc_core::batch::{check_batch, check_matrix, check_parallel};
use smc_core::checker::{check_with_config, CheckConfig, Verdict};
use smc_core::models;
use smc_core::verify::verify_witness;
use smc_core::ModelSpec;
use smc_history::litmus::parse_history;
use smc_history::{History, HistoryBuilder};
use smc_prng::SmallRng;
use smc_programs::corpus::litmus_suite;

const PROCS: [&str; 3] = ["p", "q", "r"];
const LOCS: [&str; 2] = ["x", "y"];

fn random_history(rng: &mut SmallRng) -> History {
    let mut b = HistoryBuilder::new();
    for proc in PROCS.iter().take(rng.gen_range(1..4usize)) {
        b.add_proc(proc);
        for _ in 0..rng.gen_range(0..4usize) {
            let is_write = rng.gen_bool(0.5);
            let loc = LOCS[rng.gen_range(0..LOCS.len())];
            let v = rng.gen_range(0..3i64);
            if is_write {
                b.write(proc, loc, v.clamp(1, 2));
            } else {
                b.read(proc, loc, v);
            }
        }
    }
    b.build()
}

/// Sequential `check` and `check_parallel` agree on every decided verdict,
/// and parallel witnesses verify independently.
#[test]
fn parallel_check_agrees_with_sequential() {
    let cfg = CheckConfig::default();
    for case in 0..64u64 {
        let h = random_history(&mut SmallRng::seed_from_u64(case));
        for spec in models::all_models() {
            let seq = check_with_config(&h, &spec, &cfg);
            for jobs in [2usize, 4] {
                let (par, _stats) = check_parallel(&h, &spec, &cfg, jobs);
                if let (Some(a), Some(b)) = (seq.decided(), par.decided()) {
                    assert_eq!(
                        a, b,
                        "case {case} {} jobs={jobs}: sequential {seq:?} vs parallel {par:?}\n{h}",
                        spec.name
                    );
                }
                if let Verdict::Allowed(w) = &par {
                    verify_witness(&h, &spec, w).unwrap_or_else(|e| {
                        panic!(
                            "case {case} {} jobs={jobs}: bad parallel witness: {e}\n{h}",
                            spec.name
                        )
                    });
                }
            }
        }
    }
}

/// `check_batch` is positionally identical to the sequential per-pair
/// checker, for several worker counts.
#[test]
fn batch_matches_sequential_positionally() {
    let cfg = CheckConfig::default();
    let histories: Vec<History> = (100..116u64)
        .map(|seed| random_history(&mut SmallRng::seed_from_u64(seed)))
        .collect();
    let model_list = models::all_models();
    let pairs: Vec<(&History, &ModelSpec)> = histories
        .iter()
        .flat_map(|h| model_list.iter().map(move |m| (h, m)))
        .collect();
    let sequential: Vec<Verdict> = pairs
        .iter()
        .map(|(h, m)| check_with_config(h, m, &cfg))
        .collect();
    for jobs in [1usize, 3, 8] {
        let batch = check_batch(&pairs, &cfg, jobs);
        assert_eq!(batch.len(), pairs.len());
        for (i, r) in batch.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(
                r.verdict, sequential[i],
                "pair {i} jobs={jobs}: batch verdict diverged"
            );
            if let Verdict::Allowed(w) = &r.verdict {
                let (h, m) = pairs[i];
                verify_witness(h, m, w)
                    .unwrap_or_else(|e| panic!("pair {i}: bad batch witness: {e}"));
            }
        }
    }
}

/// A memoized batch decides exactly like the plain sequential checker,
/// its witnesses (including rehydrated cache hits) verify independently,
/// and repeating the work actually hits the cache.
#[test]
fn memoized_batch_matches_sequential_and_hits() {
    let plain = CheckConfig::default();
    let memo_cfg = CheckConfig::default().with_memo();
    let histories: Vec<History> = litmus_suite().iter().map(|t| t.history.clone()).collect();
    let model_list = models::all_models();
    let pairs: Vec<(&History, &ModelSpec)> = histories
        .iter()
        .flat_map(|h| model_list.iter().map(move |m| (h, m)))
        .collect();
    // Each pair appears twice: the second occurrence must be served from
    // the memo table without changing any verdict.
    let doubled: Vec<(&History, &ModelSpec)> = pairs.iter().chain(pairs.iter()).copied().collect();
    let sequential: Vec<Verdict> = doubled
        .iter()
        .map(|(h, m)| check_with_config(h, m, &plain))
        .collect();
    for jobs in [1usize, 4] {
        let batch = check_batch(&doubled, &memo_cfg, jobs);
        for (i, r) in batch.iter().enumerate() {
            assert_eq!(
                r.verdict.decided(),
                sequential[i].decided(),
                "pair {i} jobs={jobs}: memoized batch diverged"
            );
            if let Verdict::Allowed(w) = &r.verdict {
                let (h, m) = doubled[i];
                verify_witness(h, m, w)
                    .unwrap_or_else(|e| panic!("pair {i}: bad memoized witness: {e}"));
            }
        }
    }
    let stats = memo_cfg.memo.as_ref().expect("with_memo set").stats();
    assert!(
        stats.hits > 0,
        "doubled batch never hit the memo: {stats:?}"
    );
}

/// The embedded litmus corpus classifies identically under sequential and
/// parallel batch checking, and satisfies its recorded expectations both
/// ways.
#[test]
fn corpus_verdicts_identical_across_job_counts() {
    let cfg = CheckConfig::default();
    let suite = litmus_suite();
    let histories: Vec<History> = suite.iter().map(|t| t.history.clone()).collect();
    let model_list = models::all_models();
    let seq = check_matrix(&histories, &model_list, &cfg, 1);
    let par = check_matrix(&histories, &model_list, &cfg, 4);
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.verdict, b.verdict, "pair {} diverged", a.index);
    }
    for (ti, t) in suite.iter().enumerate() {
        for (mi, m) in model_list.iter().enumerate() {
            if let Some(expected) = t.expectation(&m.name) {
                let got = par[ti * model_list.len() + mi].verdict.decided();
                assert_eq!(
                    got,
                    Some(expected),
                    "corpus test {} model {}",
                    t.name,
                    m.name
                );
            }
        }
    }
}

/// The litmus corpus plus one random history per seed.
fn corpus_plus_random(seeds: std::ops::Range<u64>) -> Vec<History> {
    let mut cases: Vec<History> = litmus_suite().iter().map(|t| t.history.clone()).collect();
    cases.extend(seeds.map(|seed| random_history(&mut SmallRng::seed_from_u64(seed))));
    cases
}

/// Every case under SC, TSO, PRAM and causal — the models that exercise
/// every route: the single shared view that stays sequential (SC), the
/// store-order fan-out (TSO), and the independent per-processor views
/// (PRAM, causal) — decides through `check_parallel` at jobs 1/2/4/8
/// exactly like the sequential checker, takes the route the forced
/// cutover pins, and yields witnesses that verify independently. SC and
/// PRAM return the sequential checker's verdict and witness exactly:
/// SC never leaves it, and each PRAM view is the same search.
fn assert_agrees_at_cutover(cases: &[History], cutover: u64) {
    let model_list = [
        models::sc(),
        models::tso(),
        models::pram(),
        models::causal(),
    ];
    let cfg = CheckConfig {
        parallel_cutover: cutover,
        ..CheckConfig::default()
    };
    for (ci, h) in cases.iter().enumerate() {
        for spec in &model_list {
            let seq = check_with_config(h, spec, &cfg);
            for jobs in [1usize, 2, 4, 8] {
                let (par, stats) = check_parallel(h, spec, &cfg, jobs);
                assert_eq!(
                    par.decided(),
                    seq.decided(),
                    "case {ci} {} cutover={cutover} jobs={jobs}: {seq:?} vs {par:?}\n{h}",
                    spec.name
                );
                // The forced settings pin the cutover decision: with
                // the probe disabled only jobs=1 runs sequentially, and
                // SC, which has nothing independent to fan out; with an
                // unbounded probe no check ever fans out.
                if cutover == 0 {
                    assert_eq!(stats.ran_sequential, jobs == 1 || spec.name == "SC");
                    assert_eq!(stats.probe_nodes, 0);
                } else {
                    assert!(stats.ran_sequential);
                }
                if spec.name == "SC" || spec.name == "PRAM" {
                    assert_eq!(
                        par, seq,
                        "case {ci} {} cutover={cutover} jobs={jobs}: verdict or witness differs\n{h}",
                        spec.name
                    );
                }
                if let Verdict::Allowed(w) = &par {
                    verify_witness(h, spec, w).unwrap_or_else(|e| {
                        panic!(
                            "case {ci} {} cutover={cutover} jobs={jobs}: bad witness: {e}\n{h}",
                            spec.name
                        )
                    });
                }
            }
        }
    }
}

/// Verdicts are independent of the adaptive cutover decision: with the
/// probe forced off (`parallel_cutover: 0`, every parallel check fans
/// out immediately) and forced always-on (`u64::MAX`, every parallel
/// check is answered by the sequential probe), `check_parallel` decides
/// exactly like the sequential checker at every worker count, and its
/// witnesses verify independently. Together the two forced settings
/// straddle the default cutover from both sides, so the adaptive path
/// can never change an answer — only where it is computed.
#[test]
fn cutover_extremes_agree_with_sequential() {
    let cases = corpus_plus_random(2000..2200);
    for cutover in [0u64, u64::MAX] {
        assert_agrees_at_cutover(&cases, cutover);
    }
}

/// The parallel drivers match the sequential checker across every worker
/// count, on the litmus corpus plus 200 more random histories. The probe
/// is off (`parallel_cutover: 0`): every litmus-sized check decides
/// inside the default probe, so only with it off do the drivers actually
/// run. This is the bit-identical-verdicts gate for the parallel engine.
#[test]
fn schedulers_agree_across_job_counts() {
    assert_agrees_at_cutover(&corpus_plus_random(1000..1200), 0);
}

/// Regression: the views of different TSO store orders share one op set
/// per processor, and a parallel search that shared refutations across
/// store orders once pruned a live state of one order with another's
/// refutation, answering `Disallowed` for admitted histories. Each store
/// order now runs as its own search. Scheduling is racy, so each history
/// runs many times at every worker count.
#[test]
fn tso_fan_out_matches_sequential() {
    let cases = [
        "p: w(x)2 r(x)1 w(x)1\nq: r(x)0 r(y)0 r(x)1\nr: w(x)1",
        "p: w(y)1 w(x)1\nq:\nr: r(y)1 r(x)1 w(x)1",
    ];
    let spec = models::tso();
    let cfg = CheckConfig {
        parallel_cutover: 0,
        ..CheckConfig::default()
    };
    for src in cases {
        let h = parse_history(src).expect("fixture parses");
        let seq = check_with_config(&h, &spec, &cfg).decided();
        assert!(seq.is_some(), "sequential check must decide:\n{h}");
        for jobs in [2usize, 4, 8] {
            for run in 0..50 {
                let (par, stats) = check_parallel(&h, &spec, &cfg, jobs);
                assert!(
                    !stats.ran_sequential,
                    "jobs={jobs}: the store orders must fan out"
                );
                assert_eq!(
                    par.decided(),
                    seq,
                    "jobs={jobs} run {run}: {par:?} vs sequential\n{h}"
                );
                if let Verdict::Allowed(w) = &par {
                    verify_witness(&h, &spec, w)
                        .unwrap_or_else(|e| panic!("jobs={jobs} run {run}: bad witness: {e}\n{h}"));
                }
            }
        }
    }
}

/// Regression: a reads-from enumeration cut short at `max_rf` may have
/// dropped the one assignment that explains the history, so refuting
/// every enumerated assignment must report exhaustion at the reads-from
/// stage, never `Disallowed`. The default config admits this history
/// under Causal. Both checkers used to read an empty (truncated) list as
/// "no read is explainable", and `check_parallel`'s single-assignment
/// path skipped the truncation rule.
#[test]
fn truncated_reads_from_enumeration_is_exhausted() {
    use smc_core::checker::{check_with_stats, EngineKind, Stage};
    let h = parse_history("p: w(x)1 w(x)5\nq: w(x)5 w(y)1\nr: r(y)1 r(x)5 r(x)1")
        .expect("fixture parses");
    let spec = models::causal();
    let full = CheckConfig {
        engine: EngineKind::Exhaustive,
        ..CheckConfig::default()
    };
    assert!(check_with_config(&h, &spec, &full).is_allowed());
    for max_rf in [0, 1] {
        let cfg = CheckConfig {
            max_rf,
            ..full.clone()
        };
        for (how, (verdict, stats)) in [
            ("check_with_stats", check_with_stats(&h, &spec, &cfg)),
            ("check_parallel j2", check_parallel(&h, &spec, &cfg, 2)),
        ] {
            assert!(
                matches!(verdict, Verdict::Exhausted),
                "max_rf={max_rf} {how}: {verdict:?}"
            );
            assert_eq!(
                stats.exhausted_stage,
                Some(Stage::ReadsFrom),
                "max_rf={max_rf} {how}"
            );
            assert!(stats.rf_truncated, "max_rf={max_rf} {how}");
        }
    }
}
