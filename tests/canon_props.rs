//! Properties of the canonicalization layer (`smc_core::canon`).
//!
//! Over random histories and random relabelings drawn from `smc-prng`:
//!
//! * canonicalization is idempotent — the canonical form of a canonical
//!   history is itself;
//! * the canonical key is invariant under bijective renamings of
//!   processors, locations, and per-location values (the symmetries the
//!   memo table collapses);
//! * canonicalization preserves verdicts, and witnesses translate between
//!   canonical and original coordinates without losing validity.

use smc_core::checker::{check_with_config, CheckConfig, Verdict};
use smc_core::verify::verify_witness;
use smc_core::{canonicalize, models};
use smc_history::{History, HistoryBuilder, ProcId};
use smc_prng::SmallRng;
use smc_programs::corpus::litmus_suite;

const PROCS: [&str; 4] = ["p", "q", "r", "s"];
const LOCS: [&str; 3] = ["x", "y", "z"];

fn random_history(rng: &mut SmallRng) -> History {
    let mut b = HistoryBuilder::new();
    for proc in PROCS.iter().take(rng.gen_range(1..5usize)) {
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

fn shuffle(items: &mut [usize], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Apply a random symmetry: permute the processor listing order, rename
/// processors and locations, and remap the non-initial values used at
/// each location through a random bijection (the initial value 0 is
/// fixed, as required for soundness).
fn relabel(h: &History, rng: &mut SmallRng) -> History {
    let mut proc_order: Vec<usize> = (0..h.num_procs()).collect();
    shuffle(&mut proc_order, rng);
    let mut loc_perm: Vec<usize> = (0..h.num_locs()).collect();
    shuffle(&mut loc_perm, rng);
    let loc_names: Vec<String> = (0..h.num_locs())
        .map(|l| format!("m{}", loc_perm[l]))
        .collect();

    let mut val_maps: Vec<Vec<(i64, i64)>> = vec![Vec::new(); h.num_locs()];
    for (l, map) in val_maps.iter_mut().enumerate() {
        let mut distinct: Vec<i64> = Vec::new();
        for o in h.ops() {
            if o.loc.index() == l && !o.value.is_initial() && !distinct.contains(&o.value.0) {
                distinct.push(o.value.0);
            }
        }
        let mut pool: Vec<usize> = (0..distinct.len() + 4).collect();
        shuffle(&mut pool, rng);
        *map = distinct
            .into_iter()
            .zip(pool.into_iter().map(|i| i as i64 + 1))
            .collect();
    }

    let mut b = HistoryBuilder::new();
    for (ni, &p) in proc_order.iter().enumerate() {
        let name = format!("n{ni}");
        b.add_proc(&name);
        for o in h.proc_ops(ProcId(p as u32)) {
            let v: i64 = if o.value.is_initial() {
                0
            } else {
                val_maps[o.loc.index()]
                    .iter()
                    .find(|(orig, _)| *orig == o.value.0)
                    .expect("value recorded above")
                    .1
            };
            b.push(&name, o.kind, &loc_names[o.loc.index()], v, o.label);
        }
    }
    b.build()
}

/// The canonical form of a canonical history is itself, over both the
/// litmus corpus and random histories.
#[test]
fn canonicalize_is_idempotent() {
    let mut subjects: Vec<History> = litmus_suite().into_iter().map(|t| t.history).collect();
    subjects.extend((0..64u64).map(|s| random_history(&mut SmallRng::seed_from_u64(s))));
    for h in &subjects {
        let c1 = canonicalize(h);
        let h1 = c1.history(h);
        let c2 = canonicalize(&h1);
        assert_eq!(c1.key, c2.key, "key drifted on re-canonicalization\n{h}");
        assert_eq!(h1, c2.history(&h1), "form drifted\n{h}");
    }
}

/// Random relabelings never change the canonical key or the canonical
/// history — the heart of memo-table soundness.
#[test]
fn canonical_key_is_permutation_invariant() {
    for seed in 0..96u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let h = random_history(&mut rng);
        let c = canonicalize(&h);
        for _ in 0..3 {
            let renamed = relabel(&h, &mut rng);
            let cr = canonicalize(&renamed);
            assert_eq!(
                c.key, cr.key,
                "seed {seed}: relabeling changed the key\noriginal:\n{h}\nrenamed:\n{renamed}"
            );
            assert_eq!(
                c.history(&h),
                cr.history(&renamed),
                "seed {seed}: canonical forms differ"
            );
        }
    }
}

/// Checking the canonical history gives the same decided verdict as
/// checking the original, and canonical witnesses translate back into
/// witnesses the independent verifier accepts on the original history.
#[test]
fn canonicalization_preserves_verdicts() {
    let cfg = CheckConfig::default();
    let specs = [
        models::sc(),
        models::tso(),
        models::causal(),
        models::coherent(),
        models::pc_goodman(),
        models::hybrid(),
    ];
    for seed in 200..240u64 {
        let h = random_history(&mut SmallRng::seed_from_u64(seed));
        let c = canonicalize(&h);
        let ch = c.history(&h);
        for spec in &specs {
            let orig = check_with_config(&h, spec, &cfg);
            let canon = check_with_config(&ch, spec, &cfg);
            if let (Some(a), Some(b)) = (orig.decided(), canon.decided()) {
                assert_eq!(
                    a, b,
                    "seed {seed} {}: original {orig:?} vs canonical {canon:?}\n{h}",
                    spec.name
                );
            }
            if let Verdict::Allowed(w) = &canon {
                verify_witness(&ch, spec, w).unwrap_or_else(|e| {
                    panic!("seed {seed} {}: canonical witness: {e}", spec.name)
                });
                let translated = c.witness_from_canon(w);
                verify_witness(&h, spec, &translated).unwrap_or_else(|e| {
                    panic!(
                        "seed {seed} {}: translated witness rejected: {e}\n{h}",
                        spec.name
                    )
                });
            }
        }
    }
}

/// Round-tripping a witness through canonical coordinates is lossless for
/// real checker output (not just hand-built witnesses).
#[test]
fn witness_round_trip_on_checker_output() {
    let cfg = CheckConfig::default();
    for seed in 300..332u64 {
        let h = random_history(&mut SmallRng::seed_from_u64(seed));
        let c = canonicalize(&h);
        for spec in [models::sc(), models::pc(), models::causal_coherent()] {
            if let Verdict::Allowed(w) = check_with_config(&h, &spec, &cfg) {
                let back = c.witness_from_canon(&c.witness_to_canon(&w));
                assert_eq!(back, *w, "seed {seed} {}: round trip lost data", spec.name);
            }
        }
    }
}
