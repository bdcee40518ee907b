//! Property-based tests over the whole stack: random histories against
//! the checker's invariants, random relations against the relation
//! engine's laws, and random simulator runs against their declarative
//! models.
//!
//! Inputs come from seeded [`smc_prng::SmallRng`] generators (one seed per
//! case, so failures name a reproducible case index) instead of an
//! external property-testing framework.

use smc_core::checker::{check_with_config, CheckConfig, Verdict};
use smc_core::models;
use smc_core::rf::enumerate_reads_from;
use smc_core::verify::verify_witness;
use smc_history::{History, HistoryBuilder};
use smc_prng::SmallRng;
use smc_relation::{BitSet, Relation};
use smc_sim::mem::MemorySystem;
use smc_sim::sched::run_random;
use smc_sim::workload::{Access, OpScript};
use smc_sim::{CausalMem, PcMem, PramMem, ScMem, TsoMem};

const PROCS: [&str; 3] = ["p", "q", "r"];
const LOCS: [&str; 2] = ["x", "y"];

/// One abstract operation: writes store 1..=2 (never the initial value);
/// reads may claim anything in 0..=2.
fn random_op(rng: &mut SmallRng) -> (bool, usize, i64) {
    let is_write = rng.gen_bool(0.5);
    let loc = rng.gen_range(0..LOCS.len());
    let v = rng.gen_range(0..3i64);
    if is_write {
        (true, loc, v.clamp(1, 2))
    } else {
        (false, loc, v)
    }
}

fn random_history(rng: &mut SmallRng) -> History {
    let mut b = HistoryBuilder::new();
    for proc in PROCS.iter().take(rng.gen_range(1..4usize)) {
        b.add_proc(proc);
        for _ in 0..rng.gen_range(0..4usize) {
            let (is_write, loc, value) = random_op(rng);
            if is_write {
                b.write(proc, LOCS[loc], value);
            } else {
                b.read(proc, LOCS[loc], value);
            }
        }
    }
    b.build()
}

fn cfg() -> CheckConfig {
    CheckConfig::default()
}

/// Every `Allowed` verdict carries a witness the independent verifier
/// accepts — for every model.
#[test]
fn witnesses_always_verify() {
    for case in 0..48u64 {
        let h = random_history(&mut SmallRng::seed_from_u64(case));
        for spec in models::all_models() {
            if let Verdict::Allowed(w) = check_with_config(&h, &spec, &cfg()) {
                verify_witness(&h, &spec, &w)
                    .unwrap_or_else(|e| panic!("case {case} {}: {e}\n{h}", spec.name));
            }
        }
    }
}

/// The strength order of Figure 5 holds pointwise on random histories: a
/// stronger model admitting a history forces every weaker model to admit
/// it.
#[test]
fn strength_order_pointwise() {
    for case in 0..48u64 {
        let h = random_history(&mut SmallRng::seed_from_u64(case));
        let pairs = [
            (models::sc(), models::tso()),
            (models::tso(), models::pc()),
            (models::tso(), models::causal()),
            (models::pc(), models::pram()),
            (models::causal(), models::pram()),
            (models::pc(), models::coherent()),
            (models::causal_coherent(), models::causal()),
            (models::causal_coherent(), models::coherent()),
        ];
        for (strong, weak) in pairs {
            let sv = check_with_config(&h, &strong, &cfg());
            if sv.is_allowed() {
                let wv = check_with_config(&h, &weak, &cfg());
                assert!(
                    wv.is_allowed(),
                    "case {case}: {} admits but {} rejects:\n{h}",
                    strong.name,
                    weak.name
                );
            }
        }
    }
}

/// The checker is a function: re-running yields the same verdict.
#[test]
fn checker_deterministic() {
    for case in 0..48u64 {
        let h = random_history(&mut SmallRng::seed_from_u64(case));
        for spec in [models::sc(), models::tso(), models::causal()] {
            let a = check_with_config(&h, &spec, &cfg()).decided();
            let b = check_with_config(&h, &spec, &cfg()).decided();
            assert_eq!(a, b, "case {case}: {} not deterministic", spec.name);
        }
    }
}

/// Reads-from enumeration only produces consistent attributions.
#[test]
fn reads_from_candidates_consistent() {
    for case in 0..48u64 {
        let h = random_history(&mut SmallRng::seed_from_u64(case));
        let (rfs, _) = enumerate_reads_from(&h, 512);
        for rf in &rfs {
            for o in h.ops() {
                if o.is_read() {
                    match rf.source(o.id) {
                        None => assert!(o.value.is_initial(), "case {case}"),
                        Some(w) => {
                            let src = h.op(w);
                            assert!(src.is_write(), "case {case}");
                            assert_eq!(src.loc, o.loc, "case {case}");
                            assert_eq!(src.value, o.value, "case {case}");
                        }
                    }
                }
            }
        }
    }
}

// ---- Relation-engine laws ------------------------------------------------

fn random_relation(rng: &mut SmallRng, n: usize) -> Relation {
    let edges: Vec<(usize, usize)> = (0..rng.gen_range(0..n * 2))
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    Relation::from_edges(n, edges)
}

/// Transitive closure is idempotent and monotone.
#[test]
fn closure_idempotent() {
    for case in 0..128u64 {
        let r = random_relation(&mut SmallRng::seed_from_u64(case), 8);
        let c = r.closed();
        assert!(r.is_subrelation(&c), "case {case}");
        assert_eq!(c.closed(), c, "case {case}");
    }
}

/// A topological sort, when it exists, respects the relation; when it
/// doesn't, the closure has a self-loop.
#[test]
fn topo_sort_correct() {
    for case in 0..128u64 {
        let r = random_relation(&mut SmallRng::seed_from_u64(case), 8);
        match r.topo_sort() {
            Some(order) => {
                assert_eq!(order.len(), r.len(), "case {case}");
                assert!(r.respects(&order), "case {case}");
            }
            None => {
                let c = r.closed();
                assert!((0..r.len()).any(|i| c.has(i, i)), "case {case}");
            }
        }
    }
}

/// Restriction preserves exactly the internal edges.
#[test]
fn restriction_preserves_edges() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(case);
        let r = random_relation(&mut rng, 8);
        let keep: Vec<bool> = (0..8).map(|_| rng.gen_bool(0.5)).collect();
        let set = BitSet::from_iter(8, (0..8).filter(|&i| keep[i]));
        let (sub, back) = r.restrict(&set);
        for (a, b) in sub.edges() {
            assert!(r.has(back[a], back[b]), "case {case}");
        }
        let internal = r
            .edges()
            .filter(|&(a, b)| set.contains(a) && set.contains(b))
            .count();
        assert_eq!(sub.num_edges(), internal, "case {case}");
    }
}

/// Every linear extension visited respects the relation, and for acyclic
/// relations at least one extension exists.
#[test]
fn linear_extensions_respect() {
    for case in 0..128u64 {
        let r = random_relation(&mut SmallRng::seed_from_u64(case), 6);
        let full = BitSet::full(6);
        let (exts, _) = smc_relation::linext::linear_extensions(&r, &full, 200);
        for e in &exts {
            assert!(r.respects(e), "case {case}");
            assert_eq!(e.len(), 6, "case {case}");
        }
        if r.is_acyclic() {
            assert!(!exts.is_empty(), "case {case}");
        } else {
            assert!(exts.is_empty(), "case {case}");
        }
    }
}

// ---- Random simulator runs vs declarative models --------------------------

fn random_script(rng: &mut SmallRng) -> OpScript {
    let lists = (0..rng.gen_range(2..4usize))
        .map(|_| {
            (0..rng.gen_range(1..4usize))
                .map(|_| {
                    let l = rng.gen_range(0..2u32);
                    if rng.gen_bool(0.5) {
                        Access::write(l, rng.gen_range(1..3i64))
                    } else {
                        Access::read(l)
                    }
                })
                .collect()
        })
        .collect();
    OpScript::new(lists, 2)
}

fn run_and_check<M: MemorySystem>(
    mem: M,
    script: &OpScript,
    spec: &smc_core::ModelSpec,
    seed: u64,
) {
    let r = run_random(mem, script.clone(), seed, 10_000);
    assert!(r.completed, "run did not complete");
    let v = check_with_config(&r.history, spec, &cfg());
    assert!(
        v.is_allowed(),
        "{} machine produced a history its model rejects:\n{}",
        spec.name,
        r.history
    );
}

/// Random runs of every machine stay within their model.
#[test]
fn random_runs_sound() {
    for case in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(case);
        let script = random_script(&mut rng);
        let seed = rng.next_u64();
        let n = 3;
        run_and_check(ScMem::new(n, 2), &script, &models::sc(), seed);
        run_and_check(TsoMem::new(n, 2), &script, &models::tso(), seed);
        run_and_check(PramMem::new(n, 2), &script, &models::pram(), seed);
        run_and_check(CausalMem::new(n, 2), &script, &models::causal(), seed);
        run_and_check(PcMem::new(n, 2), &script, &models::pc(), seed);
    }
}

// ---- Labeled histories (release consistency, WO, hybrid) ------------------

/// Labeled histories with disciplined locations: `x`/`y` ordinary-only,
/// `s`/`t` labeled-only — the properly-labeled shape the RC checker
/// requires.
fn random_labeled_history(rng: &mut SmallRng) -> History {
    let ord = ["x", "y"];
    let syn = ["s", "t"];
    let mut b = HistoryBuilder::new();
    for proc in PROCS.iter().take(rng.gen_range(2..4usize)) {
        b.add_proc(proc);
        for _ in 0..rng.gen_range(0..4usize) {
            let is_write = rng.gen_bool(0.5);
            let is_labeled = rng.gen_bool(0.5);
            let loc = rng.gen_range(0..2usize);
            let value = rng.gen_range(0..3i64);
            let name = if is_labeled { syn[loc] } else { ord[loc] };
            let v = if is_write { value.clamp(1, 2) } else { value };
            match (is_write, is_labeled) {
                (true, true) => b.labeled_write(proc, name, v),
                (true, false) => b.write(proc, name, v),
                (false, true) => b.labeled_read(proc, name, v),
                (false, false) => b.read(proc, name, v),
            };
        }
    }
    b.build()
}

/// WO ⊆ RC_sc ⊆ RC_pc pointwise, and every Allowed witness verifies, on
/// random properly-labeled histories.
#[test]
fn labeled_strength_chain() {
    for case in 0..32u64 {
        let h = random_labeled_history(&mut SmallRng::seed_from_u64(case));
        let chain = [models::weak_ordering(), models::rc_sc(), models::rc_pc()];
        let mut prev: Option<bool> = None;
        let mut undecided = false;
        for spec in &chain {
            let v = check_with_config(&h, spec, &cfg());
            if let Verdict::Allowed(w) = &v {
                verify_witness(&h, spec, w)
                    .unwrap_or_else(|e| panic!("case {case} {}: {e}\n{h}", spec.name));
            }
            let decided = v.decided();
            if decided.is_none() {
                // Budget ran out: skip the rest of this chain (the
                // property is about decided verdicts).
                undecided = true;
                break;
            }
            if prev == Some(true) {
                assert_eq!(
                    decided,
                    Some(true),
                    "case {case}: strength chain broken at {} on\n{}",
                    spec.name,
                    h
                );
            }
            prev = decided;
        }
        let _ = undecided;
    }
}

/// SC admitting a labeled history forces WO, RC_sc, RC_pc and hybrid to
/// admit it (SC is the strongest point of the labeled lattice).
#[test]
fn sc_bottom_of_labeled_lattice() {
    for case in 0..32u64 {
        let h = random_labeled_history(&mut SmallRng::seed_from_u64(case));
        if check_with_config(&h, &models::sc(), &cfg()).is_allowed() {
            for spec in [
                models::weak_ordering(),
                models::rc_sc(),
                models::rc_pc(),
                models::hybrid(),
            ] {
                let v = check_with_config(&h, &spec, &cfg());
                assert!(
                    v.is_allowed(),
                    "case {case}: SC admits but {} gives {v:?} on\n{}",
                    spec.name,
                    h
                );
            }
        }
    }
}

// ---- Random labeled-script runs vs the labeled models ----------------------

/// Scripts with disciplined locations: 0..2 ordinary, 2..4 labeled-only.
fn random_labeled_script(rng: &mut SmallRng) -> OpScript {
    let lists = (0..2)
        .map(|_| {
            (0..rng.gen_range(1..4usize))
                .map(|_| {
                    let l = rng.gen_range(0..2u32);
                    let v = rng.gen_range(1..3i64);
                    match (rng.gen_bool(0.5), rng.gen_bool(0.5)) {
                        (true, false) => Access::write(l, v),
                        (false, false) => Access::read(l),
                        (true, true) => Access::release(l + 2, v),
                        (false, true) => Access::acquire(l + 2),
                    }
                })
                .collect()
        })
        .collect();
    OpScript::new(lists, 4)
}

/// The RC/WO/Hybrid machines stay within their models on random labeled
/// scripts and schedules.
#[test]
fn labeled_random_runs_sound() {
    use smc_sim::{HybridMem, RcMem, SyncMode, WoMem};
    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(case);
        let script = random_labeled_script(&mut rng);
        let seed = rng.next_u64();
        run_and_check(
            RcMem::new(SyncMode::Sc, 2, 4),
            &script,
            &models::rc_sc(),
            seed,
        );
        run_and_check(
            RcMem::new(SyncMode::Pc, 2, 4),
            &script,
            &models::rc_pc(),
            seed,
        );
        run_and_check(WoMem::new(2, 4), &script, &models::weak_ordering(), seed);
        run_and_check(HybridMem::new(2, 4), &script, &models::hybrid(), seed);
    }
}

/// Failed-state memoization changes the view search's cost, never its
/// outcome: the memoized `find_legal_extension` finds an extension
/// exactly when the memo-free `for_each_legal_extension` visits one, and
/// every order either returns is legal.
#[test]
fn failed_state_memo_does_not_change_outcomes() {
    use smc_core::budget::Budget;
    use smc_core::orders::program_order;
    use smc_core::view::{
        find_legal_extension, for_each_legal_extension, is_legal_sequence, LegalityMode, SearchEnd,
        SearchOutcome, ViewProblem,
    };
    use std::ops::ControlFlow;
    for seed in 400..500u64 {
        let h = random_history(&mut SmallRng::seed_from_u64(seed));
        let po = program_order(&h);
        let p = ViewProblem {
            history: &h,
            ops: &BitSet::full(h.num_ops()),
            constraints: &po,
            legality: LegalityMode::ByValue,
        };
        let memoized = match find_legal_extension(&p, &Budget::local(1_000_000)) {
            SearchOutcome::Found(order) => {
                assert!(
                    is_legal_sequence(&h, &order),
                    "seed {seed}: illegal order\n{h}"
                );
                true
            }
            SearchOutcome::NotFound => false,
            SearchOutcome::Exhausted => {
                panic!("seed {seed}: tiny history exhausted a 1M-node budget")
            }
        };
        let memo_free = match for_each_legal_extension(&p, &Budget::local(1_000_000), |order| {
            assert!(
                is_legal_sequence(&h, order),
                "seed {seed}: illegal order\n{h}"
            );
            ControlFlow::Break(())
        }) {
            SearchEnd::Broke(()) => true,
            SearchEnd::Completed => false,
            SearchEnd::Exhausted => {
                panic!("seed {seed}: tiny history exhausted a 1M-node budget")
            }
        };
        assert_eq!(memoized, memo_free, "seed {seed}: outcome changed\n{h}");
    }
}
