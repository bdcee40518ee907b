//! Parallel batch checking: fan (history × model) pairs — or the
//! alternatives inside a single check — across a thread pool.
//!
//! Three entry points, all on `std::thread::scope` (no external
//! runtime):
//!
//! * [`check_batch`] — check many independent (history, model) pairs;
//!   workers pull pairs from a shared index, results come back in input
//!   order regardless of completion order.
//! * [`check_matrix`] — convenience wrapper: every history against every
//!   model, history-major.
//! * [`check_parallel`] — the sequential checker with a job count: one
//!   layer of the check runs its alternatives side by side (reads-from
//!   assignments, TSO store orders, or the per-processor views of
//!   models with no shared order), on one shared node pool
//!   ([`crate::budget::SharedBudget`]); see [`crate::checker`].
//!
//! Every claim-an-index fan-out (here, in the checker's layers, in the
//! propagating sweep in [`crate::lattice`] and in the separation search
//! in [`crate::separate`]) runs on one worker pool, `par_map`.
//!
//! Determinism: `check_batch`/`check_matrix` results are positionally
//! identical to running [`crate::checker::check_with_stats`] on each pair
//! (each pair gets its own budget of `cfg.node_budget` nodes, exactly as
//! in the sequential case). With a memo, the pair of a renaming class
//! that pays for its search is the one a single job would pick, so the
//! per-pair counters match too. `check_parallel` returns the lowest-index
//! decided outcome of the layer it fans out; because its workers share
//! one node pool it may *decide* an instance where the sequential order
//! of exploration exhausts first, but it never contradicts a sequential
//! `Allowed` or `Disallowed`, and every `Allowed` carries a witness that
//! [`crate::verify::verify_witness`] accepts. A per-view fan-out returns
//! the sequential checker's witness itself: each view is the same
//! deterministic search.

use crate::canon::{canonicalize, Canon};
use crate::checker::{check_with_canon, check_with_jobs, CheckConfig, CheckStats, Plan, Verdict};
use crate::spec::ModelSpec;
use smc_history::History;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Outcome of one (history, model) pair in a batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Position of the pair in the input slice.
    pub index: usize,
    /// The checker's answer for this pair.
    pub verdict: Verdict,
    /// Work accounting for this pair.
    pub stats: CheckStats,
}

/// Check every (history, model) pair on up to `jobs` worker threads.
///
/// `results[i]` always corresponds to `pairs[i]`; each pair is checked
/// under its own `cfg.node_budget`, so verdicts are identical to calling
/// [`crate::checker::check_with_config`] on each pair in turn.
///
/// A run of consecutive pairs on the same history (as [`check_matrix`]
/// lists them) is one history's share of the batch: with a memo the
/// history is canonicalized once for the run, and its checks share one
/// check plan. Every pair's [`CheckStats::wall`] includes its history's
/// canonicalization.
///
/// With a memo, the workers share it, and which pair of a renaming class
/// pays for its search would be up to thread timing. So the first pair
/// of each (canonical key, model) class in input order, the one a single
/// job pays with, finishes before any later pair of its class starts:
/// per-pair counters then match one job's wherever that first check
/// decides.
pub fn check_batch(
    pairs: &[(&History, &ModelSpec)],
    cfg: &CheckConfig,
    jobs: usize,
) -> Vec<BatchResult> {
    let mut run_of = Vec::with_capacity(pairs.len());
    let mut runs: Vec<Run> = Vec::new();
    for (i, &(h, _)) in pairs.iter().enumerate() {
        match runs.last() {
            Some(run) if std::ptr::eq(pairs[i - 1].0, h) => {
                run.pending.fetch_add(1, Ordering::Relaxed);
            }
            _ => runs.push(Run::new(h, cfg)),
        }
        run_of.push(runs.len() - 1);
    }
    let check = |index: usize| {
        let run = &runs[run_of[index]];
        let plan = lock(&run.plan)
            .clone()
            .expect("a run keeps its plan until its last pair is checked");
        let canon = run.canon.as_ref();
        let (verdict, mut stats) =
            check_with_canon(&plan, pairs[index].1, cfg, canon.map(|c| &c.0), 1);
        stats.wall += canon.map_or(Duration::ZERO, |c| c.1);
        drop(plan);
        if run.pending.fetch_sub(1, Ordering::Relaxed) == 1 {
            lock(&run.plan).take();
        }
        BatchResult {
            index,
            verdict,
            stats,
        }
    };
    if cfg.memo.is_none() || jobs <= 1 {
        return par_map(pairs.len(), jobs, check);
    }
    let mut seen = HashSet::new();
    let key = |i: usize| runs[run_of[i]].canon.as_ref().map(|c| c.0.key);
    let (first, rest): (Vec<usize>, Vec<usize>) =
        (0..pairs.len()).partition(|&i| seen.insert((key(i), pairs[i].1.param_key())));
    let mut results = par_map(first.len(), jobs, |k| check(first[k]));
    results.extend(par_map(rest.len(), jobs, |k| check(rest[k])));
    results.sort_unstable_by_key(|r| r.index);
    results
}

/// One history's run of consecutive pairs in a [`check_batch`].
struct Run<'h> {
    /// With a memo, the history's canonical form and the time computing
    /// it took.
    canon: Option<(Canon, Duration)>,
    /// The check plan the run's pairs share, dropped with the last of
    /// them so a long batch holds the plans of the histories in flight
    /// only.
    plan: Mutex<Option<Arc<Plan<'h>>>>,
    /// Pairs of the run not yet checked. Each pair takes its copy of the
    /// plan under `plan`'s lock before it counts itself off, so the
    /// count publishes nothing and only picks the pair that drops it.
    pending: AtomicUsize,
}

impl<'h> Run<'h> {
    fn new(h: &'h History, cfg: &CheckConfig) -> Self {
        let canon = cfg.memo.as_ref().map(|_| {
            let start = Instant::now();
            let canon = canonicalize(h);
            (canon, start.elapsed())
        });
        Run {
            canon,
            plan: Mutex::new(Some(Arc::new(Plan::new(h, cfg)))),
            pending: AtomicUsize::new(1),
        }
    }
}

/// Map `f` over `0..n` on up to `jobs` scoped worker threads that claim
/// indices in order from one shared counter. `results[i]` is `f(i)`
/// whatever the completion order; with one job or one index, `f` runs on
/// the caller's thread.
pub(crate) fn par_map<T: Send>(n: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let jobs = jobs.max(1).min(n);
    if jobs <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                lock(&slots)[i] = Some(r);
            });
        }
    });
    // The scope re-raises any worker's panic, so every slot is filled.
    let slots = match slots.into_inner() {
        Ok(s) => s,
        Err(p) => p.into_inner(),
    };
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed and filled"))
        .collect()
}

/// Check every history against every model, history-major: the result for
/// `(histories[i], models[j])` is at index `i * models.len() + j`. Each
/// history is canonicalized (with a memo) and planned once for all its
/// models ([`check_batch`]).
pub fn check_matrix(
    histories: &[History],
    models: &[ModelSpec],
    cfg: &CheckConfig,
    jobs: usize,
) -> Vec<BatchResult> {
    let pairs: Vec<(&History, &ModelSpec)> = histories
        .iter()
        .flat_map(|h| models.iter().map(move |m| (h, m)))
        .collect();
    check_batch(&pairs, cfg, jobs)
}

/// Run a single check on up to `jobs` threads sharing one pool of
/// `cfg.node_budget` search nodes.
///
/// This is [`crate::checker::check_with_stats`] with a job count. Checks that decide
/// within `cfg.parallel_cutover` nodes never spawn a worker; otherwise
/// one layer of the exhaustive check fans out, chosen by the model's
/// shape: the reads-from assignments (causal, PC, RC — any model that
/// enumerates explanations; with exactly one assignment, the layers
/// under it instead), TSO's store orders, or the per-processor views of
/// models with no shared order (PRAM-like). SC's one shared view, and
/// coherence or labeled orders without reads-from, run sequentially,
/// as does the saturation engine.
pub fn check_parallel(
    h: &History,
    spec: &ModelSpec,
    cfg: &CheckConfig,
    jobs: usize,
) -> (Verdict, CheckStats) {
    let (verdict, mut stats) = check_with_jobs(h, spec, cfg, jobs.max(1));
    if jobs <= 1 {
        // One job takes no cutover decision, but it does run sequentially.
        stats.ran_sequential = !stats.memo_hit;
    }
    (verdict, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_with_config;
    use crate::models;
    use crate::verify::verify_witness;
    use smc_history::litmus::parse_history;

    fn figures() -> Vec<History> {
        [
            "p: w(x)1 r(y)0\nq: w(y)1 r(x)0",
            "p: w(x)1\nq: r(x)1 w(y)1\nr: r(y)1 r(x)0",
            "p: w(x)1 r(x)1 r(x)2\nq: w(x)2 r(x)2 r(x)1",
            "p: w(x)1 w(y)1\nq: r(y)1 w(z)1 r(x)2\nr: w(x)2 r(x)1 r(z)1 r(y)1",
            "p: w(x)5\nq: w(x)5\nr: r(x)5 r(x)5",
        ]
        .iter()
        .map(|t| parse_history(t).expect("litmus fixture parses"))
        .collect()
    }

    #[test]
    fn batch_matches_sequential_on_figures() {
        let histories = figures();
        let models = models::all_models();
        let cfg = CheckConfig::default();
        let results = check_matrix(&histories, &models, &cfg, 4);
        assert_eq!(results.len(), histories.len() * models.len());
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            let h = &histories[i / models.len()];
            let m = &models[i % models.len()];
            let seq = check_with_config(h, m, &cfg);
            assert_eq!(
                r.verdict.decided(),
                seq.decided(),
                "{} on history {}",
                m.name,
                i / models.len()
            );
            if let Verdict::Allowed(w) = &r.verdict {
                verify_witness(h, m, w).expect("batch witness verifies");
            }
        }
    }

    #[test]
    fn batch_on_empty_input() {
        let cfg = CheckConfig::default();
        assert!(check_batch(&[], &cfg, 4).is_empty());
    }

    #[test]
    fn parallel_single_check_agrees() {
        let cfg = CheckConfig::default();
        for h in figures() {
            for m in models::all_models() {
                let seq = check_with_config(&h, &m, &cfg);
                let (par, stats) = check_parallel(&h, &m, &cfg, 4);
                if let (Some(a), Some(b)) = (seq.decided(), par.decided()) {
                    assert_eq!(a, b, "{} disagrees", m.name);
                }
                if let Verdict::Allowed(w) = &par {
                    verify_witness(&h, &m, w).expect("parallel witness verifies");
                    assert!(stats.nodes_spent > 0 || h.num_ops() == 0);
                }
            }
        }
    }

    #[test]
    fn parallel_views_refute_pram_violation() {
        // PRAM forbids reordering one processor's writes in another's view.
        let h = parse_history("p: w(x)1 w(y)1\nq: r(y)1 r(x)0").unwrap();
        let cfg = CheckConfig::default();
        let (v, _) = check_parallel(&h, &models::pram(), &cfg, 4);
        assert!(v.is_disallowed());
        assert!(check_with_config(&h, &models::pram(), &cfg).is_disallowed());
    }

    #[test]
    fn split_dfs_agrees_with_sequential_on_sc_and_tso() {
        let cfg = CheckConfig::default();
        for h in figures() {
            for m in [models::sc(), models::tso()] {
                let seq = check_with_config(&h, &m, &cfg);
                for jobs in [2, 4] {
                    let (par, _) = check_parallel(&h, &m, &cfg, jobs);
                    assert_eq!(
                        par.decided(),
                        seq.decided(),
                        "{} at jobs={jobs} disagrees",
                        m.name
                    );
                    if let Verdict::Allowed(w) = &par {
                        verify_witness(&h, &m, w).expect("split witness verifies");
                    }
                }
            }
        }
    }

    #[test]
    fn memoized_parallel_hits_across_renamings() {
        // The same history under a processor/location/value renaming must
        // hit the cache and still return a verifying witness.
        let a = parse_history("p: w(x)1\nq: r(x)1 w(y)1\nr: r(y)1 r(x)0").unwrap();
        let b = parse_history("u: w(c)7\nv: r(c)7 w(d)3\nw: r(d)3 r(c)0").unwrap();
        let cfg = CheckConfig::default().with_memo();
        let memo = cfg.memo.clone().unwrap();
        for m in [models::causal(), models::sc(), models::tso()] {
            let (va, _) = check_parallel(&a, &m, &cfg, 4);
            let (vb, sb) = check_parallel(&b, &m, &cfg, 4);
            assert_eq!(va.decided(), vb.decided(), "{} memo disagrees", m.name);
            assert!(sb.memo_hit, "{} second check missed the memo", m.name);
            if let Verdict::Allowed(w) = &vb {
                verify_witness(&b, &m, w).expect("rehydrated witness verifies");
            }
        }
        assert!(memo.stats().hits >= 3);
    }

    #[test]
    fn memoized_batch_pays_like_one_job() {
        // Each figure next to a twin with its processors reversed and its
        // locations renamed: one canonical class. With a shared memo, the
        // first pair of a class pays for the search and the twin hits,
        // whatever the job count and the thread timing.
        let mut histories = Vec::new();
        for h in figures() {
            let mut b = smc_history::HistoryBuilder::new();
            let procs: Vec<_> = h.procs().collect();
            for ph in procs.into_iter().rev() {
                let name = h.proc_name(ph.proc);
                b.add_proc(name);
                for o in ph.ops {
                    let loc = format!("t{}", h.loc_name(o.loc));
                    b.push(name, o.kind, &loc, o.value.0, o.label);
                }
            }
            let twin = b.build();
            assert_eq!(canonicalize(&h).key, canonicalize(&twin).key);
            histories.extend([h, twin]);
        }
        let models = models::all_models();
        let pairs: Vec<(&History, &ModelSpec)> = models
            .iter()
            .flat_map(|m| histories.iter().map(move |h| (h, m)))
            .collect();
        let spent = |jobs| {
            let cfg = CheckConfig::default().with_memo();
            check_batch(&pairs, &cfg, jobs)
                .into_iter()
                .map(|r| (r.stats.nodes_spent, r.stats.memo_hit))
                .collect::<Vec<_>>()
        };
        let one = spent(1);
        assert!(one
            .iter()
            .skip(1)
            .step_by(2)
            .all(|&(nodes, hit)| hit && nodes == 0));
        for round in 0..20 {
            assert_eq!(spent(4), one, "round {round}");
        }
    }

    #[test]
    fn probe_overrun_hands_off_to_fan_out() {
        // q's PRAM view must interleave 64 of p's writes with its own 64
        // before its reads refute it, which takes more nodes than the
        // default probe grants, so the check fans the views out.
        let pad = |loc: &str| -> String { (1..=64).map(|v| format!(" w({loc}){v}")).collect() };
        let h = parse_history(&format!(
            "p:{} w(x)1 w(y)1\nq:{} r(y)1 r(x)0",
            pad("a"),
            pad("b")
        ))
        .unwrap();
        let cfg = CheckConfig {
            engine: crate::checker::EngineKind::Exhaustive,
            ..CheckConfig::default()
        };
        let (v, stats) = check_parallel(&h, &models::pram(), &cfg, 2);
        assert!(v.is_disallowed());
        assert!(stats.probe_nodes > 0);
        assert!(stats.nodes_spent > stats.probe_nodes);
        assert!(!stats.ran_sequential);
    }

    #[test]
    fn driverless_shape_runs_sequentially() {
        // Coherent memory and SC have no independent searches to fan
        // out: whatever the cutover, the check runs on the sequential
        // checker and says so.
        let h = parse_history("p: w(x)1 w(x)2\nq: r(x)2 r(x)1").unwrap();
        for spec in [models::coherent(), models::sc()] {
            for parallel_cutover in [0, 1, 4096] {
                let cfg = CheckConfig {
                    parallel_cutover,
                    ..CheckConfig::default()
                };
                let (v, stats) = check_parallel(&h, &spec, &cfg, 4);
                assert_eq!(v, check_with_config(&h, &spec, &cfg), "{}", spec.name);
                assert!(v.is_disallowed(), "{}", spec.name);
                let at = format!("{} cutover {parallel_cutover}", spec.name);
                assert!(stats.ran_sequential, "{at}");
                assert_eq!(stats.probe_nodes, 0, "{at}");
            }
        }
    }
}
