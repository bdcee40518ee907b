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
//! Every claim-an-index fan-out (here, in the checker's layers and in
//! the propagating sweep in [`crate::lattice`]) runs on one worker pool,
//! `par_map`; the separation search keeps its own.
//!
//! Determinism: `check_batch`/`check_matrix` results are positionally
//! identical to running [`crate::checker::check_with_stats`] on each pair
//! (each pair gets its own budget of `cfg.node_budget` nodes, exactly as
//! in the sequential case). `check_parallel` returns the lowest-index
//! decided outcome of the layer it fans out; because its workers share
//! one node pool it may *decide* an instance where the sequential order
//! of exploration exhausts first, but it never contradicts a sequential
//! `Allowed` or `Disallowed`, and every `Allowed` carries a witness that
//! [`crate::verify::verify_witness`] accepts. A per-view fan-out returns
//! the sequential checker's witness itself: each view is the same
//! deterministic search.

use crate::checker::{check_with_jobs, check_with_stats, CheckConfig, CheckStats, Verdict};
use crate::spec::ModelSpec;
use smc_history::History;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
pub fn check_batch(
    pairs: &[(&History, &ModelSpec)],
    cfg: &CheckConfig,
    jobs: usize,
) -> Vec<BatchResult> {
    par_map(pairs.len(), jobs, |index| {
        let (h, m) = pairs[index];
        let (verdict, stats) = check_with_stats(h, m, cfg);
        BatchResult {
            index,
            verdict,
            stats,
        }
    })
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
/// `(histories[i], models[j])` is at index `i * models.len() + j`.
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
/// This is [`check_with_stats`] with a job count. Checks that decide
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
