//! Work-stealing parallel extension search over a shared failed-state set.
//!
//! [`crate::view::find_legal_extension`] answers one view question with a
//! sequential DFS whose pruning power comes almost entirely from
//! memoizing *failed* states. Workers that each kept a private memo would
//! re-refute subtrees their siblings had already killed, so on
//! memo-heavy "deep funnel" shapes they would do strictly *more* total
//! work than the sequential search. This module shares the memo instead,
//! with two pieces:
//!
//! * [`SharedFailedSet`] — a sharded, open-addressed table of 64-bit
//!   state fingerprints with bounded memory and per-shard clock
//!   eviction. A present key is treated as a *proof* that the state
//!   `(scheduled set, last writes)` has no legal completion: workers
//!   insert a key only after exhaustively refuting the state's whole
//!   subtree, so a hit prunes soundly. Eviction merely forgets proofs
//!   (extra work, never wrong answers). The table stores hashes, not
//!   keys; two distinct states colliding on all 64 bits could prune a
//!   live state, which we accept at ~2⁻⁶⁴ per pair — the same trade
//!   stateless model checkers make for their visited-state tables
//!   (CDSChecker; Norris & Demsky, OOPSLA 2013). The exact-key
//!   sequential path is unaffected.
//! * a frontier scheduler: each worker owns a deque of schedule-prefix
//!   tasks and extends each with [`crate::view`]'s `Dfs`, the search the
//!   sequential engine runs, over the shared set instead of a private
//!   memo. When siblings go hungry, a busy worker *donates* the untried
//!   children of the shallowest frame of its stack — the biggest
//!   subtrees it still owns — as new tasks; idle workers steal half a
//!   random victim's deque,
//!   oldest (shallowest) tasks first. This is the classic Chase–Lev
//!   discipline (owner works one end, thieves take the other) with a
//!   mutex per deque instead of a lock-free buffer: the workspace
//!   forbids `unsafe`, and the lock is taken once per *task*, not per
//!   search node.
//!
//! Several independent search problems ("units") can share one run: the
//! TSO driver in [`crate::batch`] registers every (store order,
//! processor) view search as a unit, so a worker that finishes its store
//! order steals extension subtrees from stores still in flight instead
//! of idling. Each unit salts the fingerprints with its own id so states
//! from different constraint systems never alias within a run (see
//! [`crate::kernel`]'s `state_hash` for why the salt gets its own round).

use crate::budget::{Budget, SharedBudget};
use crate::kernel::{state_hash, Ctx, NO_WRITE};
use crate::view::{global_order, Dfs, FailedTable, LegalityMode, SearchEnd};
use smc_history::{History, OpId};
use smc_prng::SmallRng;
use smc_relation::{BitSet, Relation};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const NUM_SHARDS: usize = 16;

/// Linear-probe window: an insert that finds the window full evicts a
/// resident fingerprint instead of growing the table.
const PROBE_WINDOW: usize = 8;

/// Chunk size work-stealing workers draw from the shared node pool.
/// Smaller than [`crate::budget`]'s default so many short-lived tasks
/// share the pool fairly.
const STEAL_CHUNK: u64 = 256;

/// Default capacity of the shared failed-state set, in fingerprint
/// slots (8 bytes each, so 512 KiB total). The table is allocated —
/// and zeroed — per parallel check, so the default favors a cheap
/// setup over headroom; litmus-scale searches insert a few hundred
/// fingerprints, and overflowing merely evicts proofs (re-exploration,
/// never wrong verdicts).
pub const DEFAULT_FAILED_CAPACITY: usize = 1 << 16;

struct FailedShard {
    slots: Vec<AtomicU64>,
    /// Clock hand for in-window eviction.
    hand: AtomicUsize,
}

/// A concurrent set of failed-state fingerprints shared by every worker
/// of a parallel search: sharded, open-addressed `AtomicU64` buckets
/// with a bounded memory cap and per-shard clock eviction.
///
/// The value `0` is reserved for empty slots ([`crate::kernel`]'s
/// `state_hash` never produces it). All operations are lock-free loads,
/// stores and CAS; there is no resize — at capacity, inserts evict.
pub struct SharedFailedSet {
    shards: Vec<FailedShard>,
    slot_mask: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

/// A snapshot of a [`SharedFailedSet`]'s counters, surfaced through
/// [`crate::checker::CheckStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailedSetStats {
    /// Probes that found the fingerprint (subtree pruned).
    pub hits: u64,
    /// Probes that found nothing.
    pub misses: u64,
    /// Fingerprints inserted.
    pub inserts: u64,
    /// Resident fingerprints overwritten by inserts at capacity.
    pub evictions: u64,
}

impl std::fmt::Debug for SharedFailedSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SharedFailedSet")
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("inserts", &s.inserts)
            .field("evictions", &s.evictions)
            .finish()
    }
}

impl Default for SharedFailedSet {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_FAILED_CAPACITY)
    }
}

impl SharedFailedSet {
    /// A set bounded to roughly `capacity` fingerprint slots (rounded up
    /// to a power of two per shard, with a floor of one probe window).
    pub fn with_capacity(capacity: usize) -> Self {
        let per_shard = capacity
            .div_ceil(NUM_SHARDS)
            .next_power_of_two()
            .max(PROBE_WINDOW);
        SharedFailedSet {
            shards: (0..NUM_SHARDS)
                .map(|_| FailedShard {
                    slots: (0..per_shard).map(|_| AtomicU64::new(0)).collect(),
                    hand: AtomicUsize::new(0),
                })
                .collect(),
            slot_mask: per_shard - 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Shard by the high bits, slot by the low bits, so the two indices
    /// are independent.
    #[inline]
    fn place(&self, key: u64) -> (&FailedShard, usize) {
        let shard = &self.shards[(key >> 60) as usize & (NUM_SHARDS - 1)];
        (shard, key as usize & self.slot_mask)
    }

    /// Is `key` a recorded refutation? Counts the hit or miss.
    pub fn contains(&self, key: u64) -> bool {
        let (shard, base) = self.place(key);
        for i in 0..PROBE_WINDOW {
            if shard.slots[(base + i) & self.slot_mask].load(Ordering::Relaxed) == key {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Record `key` as refuted. If the probe window is full, one
    /// resident fingerprint is evicted (clock hand per shard) — losing
    /// a proof costs re-exploration, never correctness.
    pub fn insert(&self, key: u64) {
        let (shard, base) = self.place(key);
        for i in 0..PROBE_WINDOW {
            let slot = &shard.slots[(base + i) & self.slot_mask];
            let cur = slot.load(Ordering::Relaxed);
            if cur == key {
                return;
            }
            if cur == 0
                && slot
                    .compare_exchange(0, key, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                self.inserts.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let victim = shard.hand.fetch_add(1, Ordering::Relaxed) % PROBE_WINDOW;
        shard.slots[(base + victim) & self.slot_mask].store(key, Ordering::Relaxed);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the hit/miss/insert/eviction counters.
    pub fn stats(&self) -> FailedSetStats {
        FailedSetStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// One independent extension-search problem registered with a scheduler
/// run: a preprocessed [`Ctx`] plus the fingerprint salt that keeps its
/// states from aliasing other units' states in the shared set.
pub(crate) struct Unit<'a> {
    ctx: Ctx<'a>,
    salt: u64,
}

impl<'a> Unit<'a> {
    /// Build a unit from a view problem's parts. The constraint relation
    /// is copied into the context, so it may live in a shorter scope
    /// (e.g. one relation per store order).
    pub(crate) fn from_parts(
        history: &'a History,
        ops: &BitSet,
        constraints: &Relation,
        legality: LegalityMode<'a>,
        salt: u64,
    ) -> Self {
        Unit {
            ctx: Ctx::from_parts(history, ops, constraints, legality),
            salt,
        }
    }
}

/// How a scheduler run reacts to per-unit results. Implementations
/// combine units into an overall verdict (single view, AND over
/// processors, OR over store orders of AND over processors).
pub(crate) trait StealDriver: Sync {
    /// A unit found a complete legal extension (global op ids). Return
    /// `true` to cancel the whole run because the overall question is
    /// decided.
    fn found(&self, unit: usize, order: Vec<OpId>) -> bool;
    /// Every task of `unit` completed without a witness: the unit's
    /// whole space is refuted. Only called when no task of the unit was
    /// aborted. Return `true` to cancel the run.
    fn refuted(&self, unit: usize) -> bool;
    /// `true` if tasks of this unit have become moot and should be
    /// dropped unprocessed (e.g. a sibling processor of the same store
    /// order was refuted).
    fn skip(&self, unit: usize) -> bool;
}

/// A schedule prefix (local op indices) of one unit, to be extended by
/// an explicit-stack DFS.
struct Task {
    unit: u32,
    prefix: Vec<u32>,
}

struct Deque {
    tasks: Mutex<VecDeque<Task>>,
    /// Mirror of the queue length, so emptiness checks (donation
    /// heuristic, steal scans) don't take the lock.
    len: AtomicUsize,
}

impl Deque {
    fn new() -> Self {
        Deque {
            tasks: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Task>> {
        match self.tasks.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len.load(Ordering::SeqCst) == 0
    }

    /// Owner end: newest (deepest) task.
    fn pop_back(&self) -> Option<Task> {
        let mut q = self.lock();
        let t = q.pop_back();
        self.len.store(q.len(), Ordering::SeqCst);
        t
    }

    fn push_back_many(&self, ts: Vec<Task>) {
        let mut q = self.lock();
        for t in ts {
            q.push_back(t);
        }
        self.len.store(q.len(), Ordering::SeqCst);
    }

    /// Thief end: take the oldest (shallowest, biggest) half.
    fn steal_front_half(&self) -> Vec<Task> {
        let mut q = self.lock();
        let n = q.len();
        if n == 0 {
            return Vec::new();
        }
        let take = n.div_ceil(2);
        let taken: Vec<Task> = q.drain(..take).collect();
        self.len.store(q.len(), Ordering::SeqCst);
        taken
    }
}

struct RunState<'u, 'a> {
    units: &'u [Unit<'a>],
    deques: Vec<Deque>,
    /// Queued + claimed-but-unfinished tasks; the run drains when this
    /// hits zero. Incremented *before* a task is pushed.
    work: AtomicU64,
    /// Unfinished tasks per unit; a unit whose counter drains without a
    /// witness or an abort is refuted.
    outstanding: Vec<AtomicUsize>,
    unit_found: Vec<AtomicBool>,
    /// Workers currently looking for something to steal; busy workers
    /// donate subtrees while this is nonzero.
    hungry: AtomicUsize,
    /// Stop everything: a driver decided the run, or the budget died.
    abort: AtomicBool,
    /// Set only on genuine budget exhaustion (not driver cancellation).
    exhausted: AtomicBool,
}

/// How a scheduler run ended.
pub(crate) struct RunEnd {
    /// The node budget ran out before the search space was covered.
    pub(crate) exhausted: bool,
    /// Search nodes charged across all workers.
    pub(crate) nodes: u64,
}

/// Run every unit to a conclusion (or until the driver cancels / the
/// budget dies) on `jobs` worker threads that steal from each other.
pub(crate) fn run_units<D: StealDriver + ?Sized>(
    units: &[Unit<'_>],
    driver: &D,
    jobs: usize,
    pool: &Arc<SharedBudget>,
    failed: &SharedFailedSet,
) -> RunEnd {
    if units.is_empty() {
        return RunEnd {
            exhausted: false,
            nodes: 0,
        };
    }
    // Oversubscription clamp, the `check_parallel` sibling of
    // `check_batch`'s `jobs.min(pairs.len())` (crates/core/src/batch.rs):
    // never spawn more workers than the run has view operations. When the
    // clamp bites, the whole search space has fewer ops than workers — a
    // tree of at most `total_ops!` nodes — so surplus workers could only
    // pay spawn + pool-attach + cancel overhead and then starve in `hunt`.
    let total_ops: usize = units.iter().map(|u| u.ctx.elems.len()).sum();
    let jobs = jobs.max(1).min(total_ops.max(1));
    let state = RunState {
        units,
        deques: (0..jobs).map(|_| Deque::new()).collect(),
        work: AtomicU64::new(units.len() as u64),
        outstanding: units.iter().map(|_| AtomicUsize::new(1)).collect(),
        unit_found: units.iter().map(|_| AtomicBool::new(false)).collect(),
        hungry: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
        exhausted: AtomicBool::new(false),
    };
    for (u, deque) in (0..units.len()).zip((0..jobs).cycle()) {
        state.deques[deque].push_back_many(vec![Task {
            unit: u as u32,
            prefix: Vec::new(),
        }]);
    }
    let nodes = AtomicU64::new(0);
    std::thread::scope(|s| {
        for id in 0..jobs {
            let state = &state;
            let nodes = &nodes;
            s.spawn(move || worker(id, state, driver, pool, failed, nodes));
        }
    });
    RunEnd {
        exhausted: state.exhausted.load(Ordering::SeqCst),
        nodes: nodes.load(Ordering::SeqCst),
    }
}

fn worker<D: StealDriver + ?Sized>(
    id: usize,
    state: &RunState<'_, '_>,
    driver: &D,
    pool: &Arc<SharedBudget>,
    failed: &SharedFailedSet,
    nodes: &AtomicU64,
) {
    let budget = pool.attach_with_chunk(STEAL_CHUNK);
    let mut rng = SmallRng::seed_from_u64(0x57ea1 ^ (id as u64).wrapping_mul(0x9E37_79B9));
    loop {
        if state.abort.load(Ordering::SeqCst) {
            break;
        }
        let task = match state.deques[id].pop_back() {
            Some(t) => Some(t),
            None => hunt(state, id, &mut rng),
        };
        let Some(task) = task else {
            break;
        };
        let unit = task.unit as usize;
        if state.unit_found[unit].load(Ordering::SeqCst) || driver.skip(unit) {
            finish_task(state, driver, unit, pool);
            continue;
        }
        match run_task(&task, state, driver, failed, &budget, id) {
            TaskEnd::Done => finish_task(state, driver, unit, pool),
            TaskEnd::Decided => {
                state.abort.store(true, Ordering::SeqCst);
                pool.cancel();
                break;
            }
            TaskEnd::Exhausted => {
                // A cancelled pool also surfaces as a failed spend; only
                // a genuinely dry pool counts as exhaustion.
                if !pool.is_cancelled() && !state.abort.load(Ordering::SeqCst) {
                    state.exhausted.store(true, Ordering::SeqCst);
                }
                state.abort.store(true, Ordering::SeqCst);
                break;
            }
            TaskEnd::Abandoned => break,
        }
    }
    budget.release();
    nodes.fetch_add(budget.spent(), Ordering::SeqCst);
}

/// Look for work on other deques, spinning until something shows up,
/// every task drains, or the run aborts.
fn hunt(state: &RunState<'_, '_>, id: usize, rng: &mut SmallRng) -> Option<Task> {
    let n = state.deques.len();
    state.hungry.fetch_add(1, Ordering::SeqCst);
    let got = loop {
        if state.abort.load(Ordering::SeqCst) {
            break None;
        }
        if let Some(t) = try_steal(state, id, rng) {
            break Some(t);
        }
        if state.work.load(Ordering::SeqCst) == 0 {
            break None;
        }
        if n == 1 {
            // Single worker: nothing to steal from, but claimed work may
            // still be running... which would be our own. Drain check
            // above is authoritative; just retry our own deque.
            if let Some(t) = state.deques[id].pop_back() {
                break Some(t);
            }
        }
        std::thread::yield_now();
    };
    state.hungry.fetch_sub(1, Ordering::SeqCst);
    got
}

/// One randomized sweep over the other deques, taking half of the first
/// non-empty victim (oldest tasks first). The first stolen task is
/// returned to run now; the rest go on our own deque.
fn try_steal(state: &RunState<'_, '_>, id: usize, rng: &mut SmallRng) -> Option<Task> {
    let n = state.deques.len();
    if n <= 1 {
        return None;
    }
    let start = rng.gen_range(0..n);
    for k in 0..n {
        let v = (start + k) % n;
        if v == id {
            continue;
        }
        let mut grabbed = state.deques[v].steal_front_half();
        if grabbed.is_empty() {
            continue;
        }
        let first = grabbed.remove(0);
        if !grabbed.is_empty() {
            state.deques[id].push_back_many(grabbed);
        }
        return Some(first);
    }
    None
}

/// Retire one claimed task. If this drains its unit — every task
/// completed, none aborted, no witness — the unit is refuted.
fn finish_task<D: StealDriver + ?Sized>(
    state: &RunState<'_, '_>,
    driver: &D,
    unit: usize,
    pool: &SharedBudget,
) {
    if state.outstanding[unit].fetch_sub(1, Ordering::SeqCst) == 1
        && !state.unit_found[unit].load(Ordering::SeqCst)
        && !state.abort.load(Ordering::SeqCst)
        && driver.refuted(unit)
    {
        state.abort.store(true, Ordering::SeqCst);
        pool.cancel();
    }
    state.work.fetch_sub(1, Ordering::SeqCst);
}

enum TaskEnd {
    /// The task's subtree is fully covered (refuted locally, witness
    /// reported for an undecided run, or donated away).
    Done,
    /// The driver declared the overall question decided.
    Decided,
    /// The node budget died mid-subtree; nothing was recorded for the
    /// unfinished frames.
    Exhausted,
    /// The run was aborted by someone else mid-subtree; the task stops
    /// without recording or concluding anything.
    Abandoned,
}

/// The shared set as one unit's [`FailedTable`]: fingerprints salted
/// with the unit's id.
struct Salted<'s> {
    set: &'s SharedFailedSet,
    salt: u64,
}

impl FailedTable for Salted<'_> {
    fn probe(&mut self, placed: &BitSet, last_write: &[u32]) -> Option<u64> {
        let key = state_hash(self.salt, placed, last_write);
        (!self.set.contains(key)).then_some(key)
    }

    fn record(&mut self, key: u64, _: &BitSet, _: &[u32]) {
        self.set.insert(key);
    }
}

/// Extend one task's prefix with the shared [`Dfs`], checking for an
/// abort and for hungry siblings before each step.
fn run_task<D: StealDriver + ?Sized>(
    task: &Task,
    state: &RunState<'_, '_>,
    driver: &D,
    failed: &SharedFailedSet,
    budget: &Budget,
    id: usize,
) -> TaskEnd {
    let unit = task.unit as usize;
    let u = &state.units[unit];
    let root_len = task.prefix.len();
    let mut table = Salted {
        set: failed,
        salt: u.salt,
    };
    let end = Dfs::new(&u.ctx, &task.prefix).run(
        &mut table,
        budget,
        |order| ControlFlow::Break(report_found(state, driver, unit, &u.ctx, order)),
        |dfs| {
            if state.abort.load(Ordering::SeqCst) {
                // The run is over (another worker decided it or died);
                // this task stops mid-subtree, so record nothing.
                return ControlFlow::Break(TaskEnd::Abandoned);
            }
            if state.hungry.load(Ordering::SeqCst) > 0 && state.deques[id].is_empty() {
                donate(state, unit, dfs, root_len, id);
            }
            ControlFlow::Continue(())
        },
    );
    match end {
        SearchEnd::Broke(e) => e,
        SearchEnd::Completed => TaskEnd::Done,
        SearchEnd::Exhausted => TaskEnd::Exhausted,
    }
}

fn report_found<D: StealDriver + ?Sized>(
    state: &RunState<'_, '_>,
    driver: &D,
    unit: usize,
    ctx: &Ctx<'_>,
    order: &[u32],
) -> TaskEnd {
    state.unit_found[unit].store(true, Ordering::SeqCst);
    if driver.found(unit, global_order(ctx, order)) {
        TaskEnd::Decided
    } else {
        TaskEnd::Done
    }
}

/// Hand the untried children of the shallowest still-open frame to the
/// deque as fresh tasks, where hungry siblings can steal them. The
/// frame's state is rebuilt by replaying the order prefix — donation is
/// rare (only while someone is idle), so the replay cost is irrelevant
/// next to the subtree sizes being moved.
fn donate(
    state: &RunState<'_, '_>,
    unit: usize,
    dfs: &mut Dfs<'_, '_>,
    root_len: usize,
    id: usize,
) {
    let ctx = dfs.ctx;
    let m = ctx.elems.len();
    for (k, frame) in dfs.stack.iter_mut().enumerate() {
        if (frame.cursor as usize) >= m {
            continue;
        }
        let plen = root_len + k;
        let mut placed = BitSet::new(m);
        let mut last_write = vec![NO_WRITE; ctx.num_locs];
        for &l in &dfs.order[..plen] {
            ctx.apply(l as usize, &mut placed, &mut last_write);
        }
        let mut tasks: Vec<Task> = Vec::new();
        let mut cursor = frame.cursor as usize;
        while let Some(i) = ctx.next_ready(&placed, &last_write, cursor) {
            cursor = i + 1;
            let mut prefix = Vec::with_capacity(plen + 1);
            prefix.extend_from_slice(&dfs.order[..plen]);
            prefix.push(i as u32);
            tasks.push(Task {
                unit: unit as u32,
                prefix,
            });
        }
        frame.cursor = m as u32;
        if tasks.is_empty() {
            // No viable children left here after all; the frame is
            // still fully locally covered, so keep looking deeper.
            continue;
        }
        frame.donated = true;
        state.outstanding[unit].fetch_add(tasks.len(), Ordering::SeqCst);
        state.work.fetch_add(tasks.len() as u64, Ordering::SeqCst);
        state.deques[id].push_back_many(tasks);
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orders::program_order;
    use crate::view::{find_legal_extension, is_legal_sequence, SearchOutcome, ViewProblem};
    use smc_history::litmus::parse_history;

    /// Driver for a single view problem: first witness or full refutation
    /// decides the run.
    struct SingleDriver {
        witness: Mutex<Option<Vec<OpId>>>,
    }

    impl StealDriver for SingleDriver {
        fn found(&self, _unit: usize, order: Vec<OpId>) -> bool {
            let mut w = match self.witness.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            if w.is_none() {
                *w = Some(order);
            }
            true
        }

        fn refuted(&self, _unit: usize) -> bool {
            true
        }

        fn skip(&self, _unit: usize) -> bool {
            false
        }
    }

    /// Work-stealing analogue of [`crate::view::find_legal_extension`]: the
    /// same question, answered by `jobs` workers sharing `pool` and the
    /// failed-state set. Returns the outcome plus the search nodes charged.
    ///
    /// The verdict agrees with the sequential search (`Found` witnesses may
    /// be different legal extensions; `NotFound`/`Exhausted` coincide up to
    /// budget-split timing). One worker runs the sequential search itself:
    /// same witness, same node count.
    fn steal_search(
        p: &ViewProblem<'_>,
        jobs: usize,
        pool: &Arc<SharedBudget>,
        failed: &SharedFailedSet,
    ) -> (SearchOutcome, u64) {
        let units = [Unit::from_parts(
            p.history,
            &p.ops,
            p.constraints,
            p.legality,
            0,
        )];
        let driver = SingleDriver {
            witness: Mutex::new(None),
        };
        let end = run_units(&units, &driver, jobs, pool, failed);
        let witness = match driver.witness.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
        .take();
        let outcome = match witness {
            Some(w) => SearchOutcome::Found(w),
            None if end.exhausted => SearchOutcome::Exhausted,
            None => SearchOutcome::NotFound,
        };
        (outcome, end.nodes)
    }

    fn problem<'a>(h: &'a History, po: &'a Relation) -> ViewProblem<'a> {
        ViewProblem {
            history: h,
            ops: BitSet::full(h.num_ops()),
            constraints: po,
            legality: LegalityMode::ByValue,
        }
    }

    /// Store-buffering with `pad` private writes per processor before
    /// the critical section: SC-refuted, with a `(pad+1)²`-state diamond
    /// the search must cover.
    fn padded_sb(pad: usize) -> History {
        let mut src = String::new();
        src.push_str("p:");
        for v in 1..=pad {
            src.push_str(&format!(" w(a){v}"));
        }
        src.push_str(" w(x)1 r(y)0\nq:");
        for v in 1..=pad {
            src.push_str(&format!(" w(b){v}"));
        }
        src.push_str(" w(y)1 r(x)0");
        parse_history(&src).unwrap()
    }

    #[test]
    fn failed_set_insert_then_contains() {
        let set = SharedFailedSet::with_capacity(1024);
        assert!(!set.contains(42));
        set.insert(42);
        assert!(set.contains(42));
        set.insert(42); // idempotent
        let s = set.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.evictions), (1, 1, 1, 0));
    }

    #[test]
    fn failed_set_eviction_is_bounded_and_counted() {
        // Smallest possible table: one probe window per shard.
        let set = SharedFailedSet::with_capacity(1);
        for key in 1..=10_000u64 {
            set.insert(key);
        }
        let s = set.stats();
        assert_eq!(s.inserts, 10_000);
        assert!(s.evictions > 0, "tiny table must evict");
        // Evicted keys are forgotten, not corrupted: everything the set
        // still claims to contain was genuinely inserted.
        let resident = (1..=10_000u64).filter(|&k| set.contains(k)).count();
        assert!(resident <= NUM_SHARDS * PROBE_WINDOW);
        assert!(!set.contains(77_777));
    }

    #[test]
    fn failed_set_concurrent_inserts_are_safe() {
        let set = SharedFailedSet::with_capacity(1 << 12);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let set = &set;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        set.insert(1 + t * 1000 + i);
                    }
                });
            }
        });
        assert!(set.stats().inserts <= 4000);
    }

    #[test]
    fn steal_search_finds_witness_on_message_passing() {
        let h = parse_history("p: w(d)1 w(f)1\nq: r(f)1 r(d)1").unwrap();
        let po = program_order(&h);
        let p = problem(&h, &po);
        for jobs in [1, 2, 4] {
            let pool = SharedBudget::new(1_000_000);
            let failed = SharedFailedSet::default();
            match steal_search(&p, jobs, &pool, &failed).0 {
                SearchOutcome::Found(order) => {
                    assert!(is_legal_sequence(&h, &order));
                    assert!(po.respects(&order.iter().map(|o| o.index()).collect::<Vec<_>>()));
                }
                other => panic!("jobs={jobs}: expected Found, got {other:?}"),
            }
        }
    }

    #[test]
    fn steal_search_refutes_store_buffering() {
        let h = padded_sb(6);
        let po = program_order(&h);
        let p = problem(&h, &po);
        for jobs in [1, 2, 4, 8] {
            let pool = SharedBudget::new(10_000_000);
            let failed = SharedFailedSet::default();
            assert_eq!(
                steal_search(&p, jobs, &pool, &failed).0,
                SearchOutcome::NotFound,
                "jobs={jobs}"
            );
        }
    }

    /// Eviction soundness: a failed set too small to hold the refuted
    /// states of the search loses proofs, so the search does extra
    /// work — but it must never flip a verdict.
    #[test]
    fn eviction_never_fabricates_a_refutation() {
        // 13×13 diamond: 169 distinct failed states, more than the tiny
        // set's 128 slots, so eviction is forced by pigeonhole.
        let refuted = padded_sb(12);
        let po_r = program_order(&refuted);
        let pr = problem(&refuted, &po_r);
        // `w(f)1` is read back, so an admitted witness exists.
        let admitted = parse_history("p: w(d)1 w(d)2 w(f)1\nq: r(f)1 r(d)2 r(d)2").unwrap();
        let po_a = program_order(&admitted);
        let pa = problem(&admitted, &po_a);
        for jobs in [1, 4] {
            // capacity 1 → one probe window per shard → constant churn.
            let tiny = SharedFailedSet::with_capacity(1);
            let pool = SharedBudget::new(10_000_000);
            assert_eq!(
                steal_search(&pr, jobs, &pool, &tiny).0,
                SearchOutcome::NotFound,
                "jobs={jobs}: refuted history must stay refuted under eviction"
            );
            assert!(tiny.stats().evictions > 0, "test must actually evict");
            let pool = SharedBudget::new(10_000_000);
            let tiny = SharedFailedSet::with_capacity(1);
            match steal_search(&pa, jobs, &pool, &tiny).0 {
                SearchOutcome::Found(order) => assert!(is_legal_sequence(&admitted, &order)),
                other => panic!("jobs={jobs}: expected Found, got {other:?}"),
            }
        }
    }

    #[test]
    fn steal_search_agrees_with_sequential() {
        let cases = [
            "p: w(x)1 r(y)0\nq: w(y)1 r(x)0",
            "p: w(d)1 w(f)1\nq: r(f)1 r(d)1",
            "p: w(x)1 w(x)2\nq: r(x)2 r(x)1",
            "p: w(x)1\nq: w(x)2\nr: r(x)1 r(x)2",
        ];
        for src in cases {
            let h = parse_history(src).unwrap();
            let po = program_order(&h);
            let p = problem(&h, &po);
            let budget = Budget::local(1_000_000);
            let seq = find_legal_extension(&p, &budget);
            for jobs in [1, 2, 4] {
                let pool = SharedBudget::new(1_000_000);
                let failed = SharedFailedSet::default();
                let (par, nodes) = steal_search(&p, jobs, &pool, &failed);
                if jobs == 1 {
                    // One worker with nobody to donate to is the
                    // sequential search over a salted table.
                    assert_eq!(par, seq, "{src:?}");
                    assert_eq!(nodes, budget.spent(), "{src:?}");
                }
                match (&seq, &par) {
                    (SearchOutcome::Found(_), SearchOutcome::Found(w)) => {
                        assert!(is_legal_sequence(&h, w))
                    }
                    (a, b) => assert_eq!(a, b, "{src:?} jobs={jobs}"),
                }
            }
        }
    }

    #[test]
    fn tiny_budget_reports_exhaustion() {
        let h = padded_sb(4);
        let po = program_order(&h);
        let p = problem(&h, &po);
        let pool = SharedBudget::new(3);
        let failed = SharedFailedSet::default();
        assert_eq!(
            steal_search(&p, 4, &pool, &failed).0,
            SearchOutcome::Exhausted
        );
    }

    #[test]
    fn empty_problem_is_trivially_found() {
        let h = parse_history("p: w(x)1").unwrap();
        let cons = Relation::new(h.num_ops());
        let p = ViewProblem {
            history: &h,
            ops: BitSet::new(h.num_ops()),
            constraints: &cons,
            legality: LegalityMode::ByValue,
        };
        let pool = SharedBudget::new(100);
        let failed = SharedFailedSet::default();
        assert_eq!(
            steal_search(&p, 2, &pool, &failed).0,
            SearchOutcome::Found(vec![])
        );
    }
}
