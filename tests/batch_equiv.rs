//! Equivalence of the sequential checker and the parallel batch engine.
//!
//! Properties, over random histories and the embedded litmus corpus:
//!
//! * `check_batch` results are positionally identical to checking each
//!   pair sequentially, for any worker count;
//! * every `Allowed` a batch produces carries a witness that the
//!   independent verifier accepts.
//!
//! The file also pins the exhaustive search itself: its witnesses and
//! node counts, the memoized sweep's counts, and how a check behaves
//! under every node budget below the one it needs.

use smc_core::batch::{check_batch, check_matrix};
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

/// Regression: a reads-from enumeration cut short at `max_rf` may have
/// dropped the one assignment that explains the history, so refuting
/// every enumerated assignment must report exhaustion at the reads-from
/// stage, never `Disallowed`. The default config admits this history
/// under Causal. The checker used to read an empty (truncated) list as
/// "no read is explainable".
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
        let (verdict, stats) = check_with_stats(&h, &spec, &cfg);
        assert!(
            matches!(verdict, Verdict::Exhausted),
            "max_rf={max_rf}: {verdict:?}"
        );
        assert_eq!(
            stats.exhausted_stage,
            Some(Stage::ReadsFrom),
            "max_rf={max_rf}"
        );
        assert!(stats.rf_truncated, "max_rf={max_rf}");
    }
}

/// Budget soundness: a smaller node budget may leave a check undecided,
/// never flip it. For every litmus-corpus history under every model the
/// engine supports (the exhaustive engine: all of them; saturation: its
/// own models), with no memo and N the nodes the check spends under the
/// default budget, budgets 0, 1, 2, 4, … below N and N − 1 either
/// exhaust, naming the stage (`Saturation` for the saturation engine),
/// or return the unbudgeted verdict; budget N returns the unbudgeted
/// verdict and witness, spending exactly N. With no budget at all, an
/// exhaustive TSO check stops listing its first store order.
#[test]
fn smaller_node_budgets_only_exhaust() {
    use smc_core::checker::{check_with_stats, EngineKind, Stage};
    let mut stepped = 0u64;
    for (engine, model_list) in [
        (EngineKind::Exhaustive, models::all_models()),
        (EngineKind::Saturate, models::saturating_models()),
    ] {
        let full = CheckConfig {
            engine,
            ..CheckConfig::default()
        };
        for t in litmus_suite() {
            let h = &t.history;
            for spec in &model_list {
                let (verdict, stats) = check_with_stats(h, spec, &full);
                assert!(
                    !matches!(verdict, Verdict::Exhausted),
                    "{} {} {engine:?}: the default budget must decide",
                    t.name,
                    spec.name
                );
                let need = stats.nodes_spent;
                let mut budgets: Vec<u64> =
                    std::iter::successors(Some(0u64), |&b| Some((2 * b).max(1)))
                        .take_while(|&b| b < need)
                        .collect();
                budgets.extend([need.saturating_sub(1), need]);
                budgets.dedup();
                for node_budget in budgets {
                    let cfg = CheckConfig {
                        node_budget,
                        ..full.clone()
                    };
                    let (v, st) = check_with_stats(h, spec, &cfg);
                    let at = format!(
                        "{} {} {engine:?} budget {node_budget} of {need}",
                        t.name, spec.name
                    );
                    stepped += 1;
                    if node_budget == need {
                        assert_eq!(v, verdict, "{at}");
                        assert_eq!(st.nodes_spent, need, "{at}");
                        continue;
                    }
                    match v {
                        Verdict::Exhausted if engine == EngineKind::Saturate => {
                            assert_eq!(st.exhausted_stage, Some(Stage::Saturation), "{at}")
                        }
                        Verdict::Exhausted => assert!(st.exhausted_stage.is_some(), "{at}"),
                        v => assert_eq!(v, verdict, "{at}"),
                    }
                    if node_budget == 0 && spec.name == "TSO" && engine == EngineKind::Exhaustive {
                        assert_eq!(st.exhausted_stage, Some(Stage::StoreOrders), "{at}");
                    }
                }
            }
        }
    }
    assert!(stepped > 1000, "{stepped} budgeted checks");
}

/// FNV-1a over a stream of `u64` tokens.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, token: u64) {
        for b in token.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn ops(&mut self, ops: &[smc_history::OpId]) {
        self.push(ops.len() as u64);
        for o in ops {
            self.push(u64::from(o.0));
        }
    }

    fn opt_ops(&mut self, ops: Option<&[smc_history::OpId]>) {
        match ops {
            None => self.push(0),
            Some(ops) => {
                self.push(1);
                self.ops(ops);
            }
        }
    }
}

/// The search itself, not only its verdicts, is pinned: over the whole
/// 2×2×2×1 universe under the lattice models, with no memo, every
/// exhaustive check's verdict, whole witness (views, store order,
/// coherence, labeled order, reads-from), search nodes and reads-from
/// assignments fold into one digest. A refactor of the checker's setup
/// or scratch buffers must leave every one of them as it is.
#[test]
fn exhaustive_search_is_pinned_on_small_universe() {
    use smc_core::checker::{check_with_stats, EngineKind};
    use smc_core::histgen::{all_histories, GenParams};
    let params = GenParams {
        procs: 2,
        ops_per_proc: 2,
        locs: 2,
        values: 1,
    };
    let cfg = CheckConfig {
        engine: EngineKind::Exhaustive,
        ..CheckConfig::default()
    };
    let model_list = models::lattice_models();
    let mut d = Digest::new();
    let mut checks = 0u64;
    for h in all_histories(&params) {
        for m in &model_list {
            let (v, stats) = check_with_stats(&h, m, &cfg);
            checks += 1;
            match &v {
                Verdict::Allowed(w) => {
                    d.push(0);
                    d.push(w.views.len() as u64);
                    for view in &w.views {
                        d.ops(view);
                    }
                    d.opt_ops(w.store_order.as_deref());
                    match &w.coherence {
                        None => d.push(0),
                        Some(coh) => {
                            d.push(1);
                            d.push(coh.len() as u64);
                            for seq in coh {
                                d.ops(seq);
                            }
                        }
                    }
                    d.opt_ops(w.labeled_order.as_deref());
                    match &w.reads_from {
                        None => d.push(0),
                        Some(rf) => {
                            d.push(1);
                            d.push(rf.len() as u64);
                            for src in rf {
                                d.push(src.map_or(0, |s| u64::from(s.0) + 1));
                            }
                        }
                    }
                }
                Verdict::Disallowed => d.push(1),
                Verdict::Exhausted => d.push(2),
                Verdict::Unsupported(_) => d.push(3),
            }
            d.push(stats.nodes_spent);
            d.push(stats.rf_assignments_tried as u64);
        }
    }
    assert_eq!(checks, 1296 * 8);
    assert_eq!(
        d.0, 0x1a07_d983_350e_268c,
        "search digest moved: {:#018x}",
        d.0
    );
}

/// The counts behind perfbench `check_universe`'s
/// `core.lattice_propagated_ratio` and `core.memo_hit_ratio`: the
/// 3×2×2×1 universe under the lattice models, one memo for the sweep.
#[test]
fn memoized_sweep_counts_are_pinned() {
    use smc_core::histgen::{all_histories, GenParams};
    use smc_core::lattice::{classify_all_propagating, PropagationStats};
    let params = GenParams {
        procs: 3,
        ops_per_proc: 2,
        locs: 2,
        values: 1,
    };
    let corpus = all_histories(&params);
    let cfg = CheckConfig::default().with_memo();
    let (_, stats) = classify_all_propagating(&corpus, &models::lattice_models(), &cfg, 1);
    assert_eq!(
        stats,
        PropagationStats {
            checked: 230_208,
            propagated: 143_040,
        }
    );
    let memo = cfg.memo.as_ref().expect("with_memo set").stats();
    assert_eq!(memo.misses, 20_786, "{memo:?}");
}
