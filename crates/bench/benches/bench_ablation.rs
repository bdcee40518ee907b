//! Ablations of the checker's design choices (DESIGN.md §6): **parallel
//! vs sequential** classification sweeps (the `smc-core` batch engine).

use smc_bench::quickbench::{black_box, Harness};
use smc_core::batch::check_batch;
use smc_core::checker::CheckConfig;
use smc_core::histgen::{all_histories, GenParams};
use smc_core::lattice::classify;
use smc_core::models;
use smc_history::History;

fn bench_parallel_sweep(harness: &mut Harness) {
    let corpus = all_histories(&GenParams {
        procs: 2,
        ops_per_proc: 2,
        locs: 2,
        values: 1,
    });
    let models = models::figure5_models();
    let cfg = CheckConfig::default();
    let jobs = std::thread::available_parallelism().map_or(2, usize::from);
    let mut g = harness.group("ablation/lattice_sweep_1296_histories");
    g.bench("sequential", || {
        let n: usize = corpus
            .iter()
            .map(|h| classify(h, &models, &cfg).allowed.len())
            .sum();
        black_box(n);
    });
    g.bench(&format!("batch_parallel_j{jobs}"), || {
        let pairs: Vec<(&History, &smc_core::ModelSpec)> = corpus
            .iter()
            .flat_map(|h| models.iter().map(move |m| (h, m)))
            .collect();
        let results = check_batch(&pairs, &cfg, jobs);
        let n = results.iter().filter(|r| r.verdict.is_allowed()).count();
        black_box(n);
    });
}

fn main() {
    let mut h = Harness::from_env();
    bench_parallel_sweep(&mut h);
}
