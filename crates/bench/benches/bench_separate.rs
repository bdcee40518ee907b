//! Throughput of the separation-search engine with canonical-class
//! deduplication (representative filtering plus the sharded per-class
//! verdict cache).
//!
//! The scanned universe (PC vs PCG over 2×2 ops, 2 locs, 2 values)
//! contains no separating witness, so the search never exits early and
//! every row pays for the full scan.

use smc_bench::quickbench::{black_box, Harness};
use smc_core::checker::CheckConfig;
use smc_core::histgen::GenParams;
use smc_core::models;
use smc_core::separate::Separator;

fn universe() -> GenParams {
    GenParams {
        procs: 2,
        ops_per_proc: 2,
        locs: 2,
        values: 2,
    }
}

fn scan(jobs: usize) -> u64 {
    let mut sep = Separator::new(
        vec![models::pc(), models::pc_goodman()],
        CheckConfig::default(),
        jobs,
    );
    let resolved = sep.run_universe(&universe());
    assert_eq!(resolved, 0, "universe unexpectedly separates PC/PCG");
    sep.stats.enumerated
}

fn bench_separate_throughput(harness: &mut Harness) {
    let total = universe().universe_size();
    let mut g = harness.group(&format!("separate/scan_pc_pcg_{total}_histories"));
    for jobs in [1usize, 4] {
        g.bench(&format!("canonical_dedup_j{jobs}"), || {
            black_box(scan(jobs));
        });
    }
}

fn main() {
    let mut h = Harness::from_env();
    bench_separate_throughput(&mut h);
}
