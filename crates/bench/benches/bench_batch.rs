//! Sequential vs parallel corpus checking — the headline numbers for the
//! `smc-core` batch engine.
//!
//! Two scenarios:
//!
//! * the embedded litmus corpus crossed with every model, checked by a
//!   plain sequential loop and by [`check_batch`] at increasing worker
//!   counts (speedup is expected only on multi-core hosts — on one core
//!   the parallel rows measure the engine's overhead);
//! * the same corpus duplicated under renamings, with and without the
//!   memo table.

use smc_bench::quickbench::{black_box, Harness};
use smc_core::batch::check_batch;
use smc_core::checker::{check_with_config, CheckConfig};
use smc_core::{models, ModelSpec};
use smc_history::{History, HistoryBuilder};
use smc_programs::corpus::litmus_suite;

fn corpus_pairs<'a>(
    histories: &'a [History],
    model_list: &'a [ModelSpec],
) -> Vec<(&'a History, &'a ModelSpec)> {
    histories
        .iter()
        .flat_map(|h| model_list.iter().map(move |m| (h, m)))
        .collect()
}

fn bench_corpus(harness: &mut Harness) {
    let histories: Vec<History> = litmus_suite().into_iter().map(|t| t.history).collect();
    let model_list = models::all_models();
    let cfg = CheckConfig::default();
    let pairs = corpus_pairs(&histories, &model_list);
    let mut g = harness.group(&format!("batch/corpus_{}_pairs", pairs.len()));
    g.bench("sequential_loop", || {
        let n = pairs
            .iter()
            .filter(|(h, m)| check_with_config(h, m, &cfg).is_allowed())
            .count();
        black_box(n);
    });
    let hw = std::thread::available_parallelism().map_or(1, usize::from);
    let mut job_counts = vec![1usize, 2, 4];
    if !job_counts.contains(&hw) {
        job_counts.push(hw);
    }
    for jobs in job_counts {
        g.bench(&format!("check_batch_j{jobs}"), || {
            let results = check_batch(&pairs, &cfg, jobs);
            let n = results.iter().filter(|r| r.verdict.is_allowed()).count();
            black_box(n);
        });
    }
}

/// An isomorphic copy of `h`: processors rotated by `r`, locations and
/// processors renamed with an `r`-tagged prefix, and every non-initial
/// value shifted by `3r` (a bijection on the non-zero values that fixes
/// the initial value 0). Verdicts are invariant under all of these, so
/// the canonical key — and hence the memo slot — is shared with `h`.
fn isomorphic_copy(h: &History, r: usize) -> History {
    let mut b = HistoryBuilder::new();
    let np = h.num_procs();
    for i in 0..np {
        let p = smc_history::ProcId(((i + r) % np) as u32);
        let name = format!("c{r}_{}", h.proc_name(p));
        b.add_proc(&name);
        for o in h.proc_ops(p) {
            let loc = format!("c{r}_{}", h.loc_name(o.loc));
            let v = if o.value.is_initial() {
                0
            } else {
                o.value.0 + 3 * r as i64
            };
            b.push(&name, o.kind, &loc, v, o.label);
        }
    }
    b.build()
}

/// The corpus crossed with every model, duplicated 8× under relabelings:
/// without the memo every copy pays the full search; with a (fresh,
/// per-iteration) memo the 7 later copies rehydrate from the first.
fn bench_memoized_sweep(harness: &mut Harness) {
    let base: Vec<History> = litmus_suite().into_iter().map(|t| t.history).collect();
    let histories: Vec<History> = (0..8usize)
        .flat_map(|r| base.iter().map(move |h| isomorphic_copy(h, r)))
        .collect();
    let model_list = models::all_models();
    let pairs = corpus_pairs(&histories, &model_list);
    let mut g = harness.group(&format!("batch/memoized_sweep_{}_pairs", pairs.len()));
    let plain = CheckConfig::default();
    g.bench("memo_off", || {
        let results = check_batch(&pairs, &plain, 1);
        let n = results.iter().filter(|r| r.verdict.is_allowed()).count();
        black_box(n);
    });
    g.bench("memo_on", || {
        let cfg = CheckConfig::default().with_memo();
        let results = check_batch(&pairs, &cfg, 1);
        let n = results.iter().filter(|r| r.verdict.is_allowed()).count();
        black_box(n);
    });
}

fn main() {
    let mut h = Harness::from_env();
    bench_corpus(&mut h);
    bench_memoized_sweep(&mut h);
}
