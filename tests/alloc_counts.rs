//! Heap allocations on the checker's hot paths, counted exactly.
//!
//! A counting global allocator tallies allocations per thread, so each
//! test reads only its own thread's count while the harness runs other
//! tests beside it. Unlike a timing, an allocation count repeats
//! exactly from run to run, so a bound on it catches a setup cost that
//! creeps back into the sweep (a rebuilt per-history order, a fresh
//! search buffer per model) on any machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smc_core::checker::{check_with_stats, CheckConfig, EngineKind};
use smc_core::histgen::{all_histories, GenParams};
use smc_core::lattice::classify_all_propagating;
use smc_core::models;
use smc_history::litmus::parse_history;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method hands its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` needs and
// `System`'s are the ones this allocator gives. Counting touches only a
// const-initialized thread-local `Cell<u64>`, which needs no allocation
// and no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// perfbench `check_universe`'s sweep: every 3×2×2×1 history under the
/// lattice models, one history per `classify_all_propagating` call, one
/// fresh memo for the sweep, after a warm-up on the same thread.
#[test]
fn sweep_allocations_per_history_stay_bounded() {
    let params = GenParams {
        procs: 3,
        ops_per_proc: 2,
        locs: 2,
        values: 1,
    };
    let corpus = all_histories(&params);
    let ms = models::lattice_models();
    let warm = CheckConfig::default().with_memo();
    classify_all_propagating(&corpus[..256], &ms, &warm, 1);
    let cfg = CheckConfig::default().with_memo();
    let ((), n) = allocations(|| {
        for h in &corpus {
            classify_all_propagating(std::slice::from_ref(h), &ms, &cfg, 1);
        }
    });
    // 80.8 before histories got one check plan and searches reused
    // their buffers; 18.2 after.
    let per_history = n as f64 / corpus.len() as f64;
    assert!(
        per_history <= 20.0,
        "{n} allocations, {per_history:.2} per history"
    );
}

/// One SC check of a 6-op history that misses the memo: the recall, the
/// plan, the search, the witness and the memo record, after a warm-up
/// check of the same history on the same thread.
#[test]
fn sc_miss_allocations_stay_bounded() {
    let h = parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)1\nr: r(x)1 r(y)1").unwrap();
    assert_eq!(h.num_ops(), 6);
    let sc = models::sc();
    let base = CheckConfig {
        engine: EngineKind::Exhaustive,
        ..CheckConfig::default()
    };
    let warm = base.clone().with_memo();
    assert!(check_with_stats(&h, &sc, &warm).0.is_allowed());
    let cfg = base.with_memo();
    let ((verdict, stats), n) = allocations(|| check_with_stats(&h, &sc, &cfg));
    assert!(verdict.is_allowed() && !stats.memo_hit);
    // 72 before histories got one check plan and searches reused their
    // buffers; 20 after.
    assert!(n <= 24, "{n} allocations");
}
