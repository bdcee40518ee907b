//! Seeded input generators shared by the workloads. Every input is made
//! from the run's `--seed`; the same seed gives the same inputs.

use smc_history::trace::Trace;
use smc_prng::SmallRng;
use smc_sim::sched::run_random;
use smc_sim::workload::{Access, OpScript};
use smc_sim::{CausalMem, MemorySystem, PramMem, TsoMem};

/// Operational machine a trace is recorded on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// Store buffers draining into one memory.
    Tso,
    /// Replicas with causal broadcast.
    Causal,
    /// Replicas with per-source FIFO broadcast.
    Pram,
}

impl Machine {
    /// Lower-case machine name, as `smc trace gen --memory` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Machine::Tso => "tso",
            Machine::Causal => "causal",
            Machine::Pram => "pram",
        }
    }
}

/// Shape of one machine-recorded trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceShape {
    /// Machine the program runs on.
    pub machine: Machine,
    /// Processors.
    pub procs: usize,
    /// Locations.
    pub locs: usize,
    /// Events in the emitted stream.
    pub events: usize,
    /// `Some(k)`: writes draw values from `1..=k`; `None`: every write
    /// stores a fresh value, so reads-from is forced.
    pub values: Option<i64>,
}

impl TraceShape {
    /// `machine PxL, N events, values` for result headers.
    pub fn label(&self) -> String {
        let values = match self.values {
            Some(k) => format!("{k} values"),
            None => "fresh values".to_owned(),
        };
        format!(
            "{} machine, {} procs, {} locs, {} events, {values}",
            self.machine.name(),
            self.procs,
            self.locs,
            self.events
        )
    }
}

/// Run a random program of `shape` on its machine under a scheduler
/// seeded with `seed`, and cut the arrival-order stream to exactly
/// `shape.events` events (the same construction as `smc trace gen
/// --events`).
pub fn machine_trace(shape: &TraceShape, seed: u64) -> Result<Trace, String> {
    let procs = shape.procs;
    let ops = shape.events.div_ceil(procs);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut fresh = 0i64;
    let threads: Vec<Vec<Access>> = (0..procs)
        .map(|_| {
            (0..ops)
                .map(|_| {
                    let loc = rng.gen_range(0..shape.locs) as u32;
                    if rng.gen_bool(0.5) {
                        let v = match shape.values {
                            Some(k) => rng.gen_range(0..k as usize) as i64 + 1,
                            None => {
                                fresh += 1;
                                fresh
                            }
                        };
                        Access::write(loc, v)
                    } else {
                        Access::read(loc)
                    }
                })
                .collect()
        })
        .collect();
    let script = OpScript::new(threads, shape.locs);
    fn go<M: MemorySystem>(mem: M, script: OpScript, seed: u64) -> Trace {
        run_random(mem, script, seed, 1_000_000).trace
    }
    let full = match shape.machine {
        Machine::Tso => go(TsoMem::new(procs, shape.locs), script, seed),
        Machine::Causal => go(CausalMem::new(procs, shape.locs), script, seed),
        Machine::Pram => go(PramMem::new(procs, shape.locs), script, seed),
    };
    if full.len() < shape.events {
        return Err(format!(
            "{}: machine produced {} of {} events",
            shape.label(),
            full.len(),
            shape.events
        ));
    }
    let mut cut = Trace::new();
    for p in full.proc_names() {
        cut.add_proc(p);
    }
    for l in full.loc_names() {
        cut.add_loc(l);
    }
    for ev in &full.events()[..shape.events] {
        cut.push(*ev);
    }
    Ok(cut)
}

/// Seed of the `i`-th input drawn from a run seed, so inputs of one run
/// are independent of each other and of other workloads' inputs.
pub fn sub_seed(seed: u64, stream: u64, i: u64) -> u64 {
    // SplitMix64 finalizer over the three coordinates.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(i);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shuffle `items` in place with a seeded Fisher-Yates pass.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Pick `k` distinct items of `items` by a seeded shuffle of indices.
pub fn sample<T: Clone>(items: &[T], k: usize, seed: u64) -> Vec<T> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    shuffle(&mut idx, seed);
    idx.truncate(k);
    idx.sort_unstable();
    idx.into_iter().map(|i| items[i].clone()).collect()
}
