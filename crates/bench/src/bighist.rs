//! Seeded big-history generators for the saturation-engine benchmarks
//! and the engine equivalence tests.
//!
//! [`sc_run`] simulates a sequentially consistent memory step by step —
//! one atomic shared store, random processor interleaving, every write a
//! fresh value — so the produced history is SC-admissible by
//! construction and its reads-from assignment is unambiguous. That is
//! the realistic shape for 100–1000-op traces (real executions have
//! mostly-distinct written values), and it makes the generator usable as
//! ground truth: `saturate` must return `Allowed` on the output under
//! every model at least as weak as SC.

use smc_history::{History, HistoryBuilder};
use smc_prng::SmallRng;

/// Names used for generated processors, in id order.
const PROC_NAMES: [&str; 8] = ["p", "q", "r", "s", "t", "u", "v", "w"];
/// Names used for generated locations, in id order.
const LOC_NAMES: [&str; 8] = ["x", "y", "z", "a", "b", "c", "d", "e"];

/// Generate an `events`-operation history by simulating an SC memory:
/// a random processor issues each next operation, writes store fresh
/// values, reads return the current content of the location.
///
/// # Panics
/// Panics if `procs` or `locs` exceeds 8 (the built-in name tables).
pub fn sc_run(seed: u64, procs: usize, locs: usize, events: usize) -> History {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = HistoryBuilder::new();
    for &p in PROC_NAMES.iter().take(procs) {
        b.add_proc(p);
    }
    let mut mem = vec![0i64; locs];
    let mut next_val = 1i64;
    for _ in 0..events {
        let p = PROC_NAMES[rng.gen_range(0..procs)];
        let l = rng.gen_range(0..locs);
        if rng.gen_bool(0.5) {
            b.write(p, LOC_NAMES[l], next_val);
            mem[l] = next_val;
            next_val += 1;
        } else {
            b.read(p, LOC_NAMES[l], mem[l]);
        }
    }
    b.build()
}

/// Like [`sc_run`], but writes draw from a `vals`-sized value alphabet
/// instead of fresh values, so a read typically has many same-value
/// candidate writes. The history is still an SC execution by
/// construction; what changes is that the reads-from assignment is no
/// longer forced, which is exactly the regime where schedule
/// enumeration pays an exponential price.
///
/// # Panics
/// Panics if `vals == 0`, or if `procs`/`locs` exceeds 8.
pub fn sc_run_aliased(seed: u64, procs: usize, locs: usize, events: usize, vals: i64) -> History {
    assert!(vals > 0, "need a non-empty value alphabet");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = HistoryBuilder::new();
    for &p in PROC_NAMES.iter().take(procs) {
        b.add_proc(p);
    }
    let mut mem = vec![0i64; locs];
    for _ in 0..events {
        let p = PROC_NAMES[rng.gen_range(0..procs)];
        let l = rng.gen_range(0..locs);
        if rng.gen_bool(0.5) {
            let v = rng.gen_range(1..vals + 1);
            b.write(p, LOC_NAMES[l], v);
            mem[l] = v;
        } else {
            b.read(p, LOC_NAMES[l], mem[l]);
        }
    }
    b.build()
}

/// Like [`sc_run`], but with a stale-read violation appended: the first
/// processor writes two fresh values to a location and the second reads
/// them in inverted order with nothing in between — inadmissible under
/// every model that preserves program order per processor (SC, TSO,
/// PRAM, causal, coherent and their combinations).
///
/// # Panics
/// Panics if `procs < 2`, or if `procs`/`locs` exceeds 8.
pub fn stale_run(seed: u64, procs: usize, locs: usize, events: usize) -> History {
    assert!(procs >= 2, "the stale-read pattern needs two processors");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = HistoryBuilder::new();
    for &p in PROC_NAMES.iter().take(procs) {
        b.add_proc(p);
    }
    let mut mem = vec![0i64; locs];
    let mut next_val = 1i64;
    for _ in 0..events.saturating_sub(4) {
        let p = PROC_NAMES[rng.gen_range(0..procs)];
        let l = rng.gen_range(0..locs);
        if rng.gen_bool(0.5) {
            b.write(p, LOC_NAMES[l], next_val);
            mem[l] = next_val;
            next_val += 1;
        } else {
            b.read(p, LOC_NAMES[l], mem[l]);
        }
    }
    let (a, bv) = (next_val, next_val + 1);
    b.write(PROC_NAMES[0], LOC_NAMES[0], a);
    b.write(PROC_NAMES[0], LOC_NAMES[0], bv);
    b.read(PROC_NAMES[1], LOC_NAMES[0], bv);
    b.read(PROC_NAMES[1], LOC_NAMES[0], a);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sc_run_is_deterministic_and_sized() {
        let h1 = sc_run(7, 3, 4, 64);
        let h2 = sc_run(7, 3, 4, 64);
        assert_eq!(h1.to_string(), h2.to_string());
        assert_eq!(h1.num_ops(), 64);
        assert_eq!(h1.num_procs(), 3);
    }

    #[test]
    fn stale_run_keeps_requested_size() {
        let h = stale_run(7, 3, 4, 64);
        assert_eq!(h.num_ops(), 64);
    }
}
