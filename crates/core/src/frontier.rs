//! A resumable, incrementally-extendable view search for the streaming
//! monitor.
//!
//! The batch checker ([`crate::view`]) answers "does a legal linear
//! extension exist?" by depth-first search and throws the search tree
//! away. A monitor that re-asks the question after every appended
//! operation would pay for the whole prefix again each time. This module
//! keeps the search *state* instead: a [`FrontierEngine`] maintains the
//! set of all reachable scheduling states of one view and extends it by
//! one operation at a time.
//!
//! # State abstraction
//!
//! The engine handles views whose required order is exactly program
//! order and whose read legality is by value ([`crate::view::LegalityMode::ByValue`]) —
//! the SC and PRAM shapes. Under program order, a schedulable set of
//! operations is downward closed per processor, so a search state is
//! fully described by
//!
//! * `counts[q]` — how many of processor `q`'s view operations have been
//!   scheduled (a prefix of its sequence), and
//! * `values[l]` — the value most recently written to location `l`
//!   (initial `0` if none),
//!
//! because by-value legality of any future read depends only on the
//! current values. Two states agreeing on both components have identical
//! futures, so they are merged; the abstraction is exact.
//!
//! # Incremental closure
//!
//! Let `R_t` be the set of reachable states after `t` appended
//! operations; `R_t` is closed under scheduling any of the first `t`
//! operations. Appending operation `t+1` for processor `p` (its
//! `idx`-th view operation) adds exactly one new transition source: a
//! state can now schedule the new operation iff `counts[p] == idx`. The
//! engine therefore keeps an index `waiting[p][i]` of all states with
//! `counts[p] == i`, seeds the append from `waiting[p][idx]`, and closes
//! the newly created states under *all* arrived operations. Every state
//! discovered during the append has `counts[p] == idx + 1` or more,
//! while every old state has `counts[p] <= idx` — so new states are
//! genuinely new, each state is expanded exactly once over the whole
//! stream, and the amortized per-append cost is the number of *new*
//! states, not the size of `R_t`.
//!
//! The prefix is admitted iff some reachable state is *complete*
//! (`counts[q]` equals the sequence length for every `q`). Note that
//! admission over prefixes is not monotone — a refuted prefix can heal
//! (`p: w(x)1` + `q: r(x)2` is refuted, appending `p: w(x)2` admits) —
//! which is why the engine keeps every reachable state, not just the
//! complete ones, and why the batch checker's dead-state pruning is
//! unsound here: a read that can never again be scheduled *today* may be
//! rescued by a write that arrives tomorrow.

use crate::binfmt::{write_i64, write_u32, write_u64, Reader};
use crate::kernel::{get_u32, hash_words, set_u32, Insert, StateSpace};
use smc_history::{Location, OpKind, ProcId, Value};
use std::collections::VecDeque;

/// One view-relevant operation, as the engine sees it (processor and
/// program-order position are implied by how it is appended).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewOp {
    /// Read or write.
    pub kind: OpKind,
    /// The accessed location.
    pub loc: Location,
    /// The value written (for writes) or required (for reads).
    pub value: Value,
}

/// Lifetime counters of a [`FrontierEngine`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FrontierStats {
    /// Reachable states discovered (including the root).
    pub states: u64,
    /// States expanded (popped from the closure queue).
    pub expanded: u64,
    /// Transitions that led to an already-known state.
    pub reuse_hits: u64,
}

/// Work done by a single [`FrontierEngine::append`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AppendReport {
    /// New states discovered by this append.
    pub created: u64,
    /// States expanded by this append.
    pub expanded: u64,
    /// Transitions of this append that hit an already-known state.
    pub reuse_hits: u64,
}

impl AppendReport {
    /// Accumulate another report into this one.
    pub fn absorb(&mut self, other: AppendReport) {
        self.created += other.created;
        self.expanded += other.expanded;
        self.reuse_hits += other.reuse_hits;
    }
}

/// What a [`FrontierEngine::seal`] did to the reachable set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SealReport {
    /// Distinct states surviving the seal (after rebasing and merging).
    pub kept: usize,
    /// States dropped because they lagged behind the sealed base.
    pub dropped: usize,
}

/// The resumable search: all reachable scheduling states of one view,
/// extendable one operation at a time. See the module docs for the
/// invariants.
///
/// States live in a [`StateSpace`] arena from the shared kernel: one
/// fixed-stride packed `u64` row per state — the `counts` packed two per
/// word, then one word per location value — deduplicated exactly by
/// [`hash_words`] in one probe per transition. A scheduling transition
/// copies the source row into a reusable scratch buffer and edits it in
/// place, and an append reuses the engine's closure queue, so the
/// steady state allocates nothing per transition.
pub struct FrontierEngine {
    num_procs: usize,
    max_states: usize,
    /// Per processor, its view-relevant operations in program order.
    seqs: Vec<Vec<ViewOp>>,
    /// Packed state arena + exact dedup. Row layout: `counts` in words
    /// `0..counts_words` (two per word), `values[l]` in word
    /// `counts_words + l` (the `i64` value's bits).
    space: StateSpace,
    /// Words occupied by the packed counts: `num_procs.div_ceil(2)`.
    counts_words: usize,
    /// Successor-row scratch, reused across transitions.
    scratch: Vec<u64>,
    /// States an append has created but not yet expanded; empty between
    /// appends, kept only to reuse its allocation.
    queue: VecDeque<u32>,
    /// `waiting[p][i]` — ids of all states with `counts[p] == i`, the
    /// seeds for `p`'s `i`-th appended operation.
    waiting: Vec<Vec<Vec<u32>>>,
    /// Reachable states that schedule everything appended so far.
    num_complete: usize,
    exhausted: bool,
    stats: FrontierStats,
}

impl FrontierEngine {
    /// An engine for a view over `num_procs` processor sequences and
    /// `num_locs` locations, giving up (soundly reporting "unknown")
    /// once more than `max_states` reachable states exist.
    pub fn new(num_procs: usize, num_locs: usize, max_states: usize) -> Self {
        let counts_words = num_procs.div_ceil(2);
        let mut e = FrontierEngine {
            num_procs,
            max_states: max_states.max(1),
            seqs: vec![Vec::new(); num_procs],
            space: StateSpace::new(counts_words + num_locs),
            counts_words,
            scratch: Vec::new(),
            queue: VecDeque::new(),
            waiting: vec![vec![Vec::new()]; num_procs],
            num_complete: 0,
            exhausted: false,
            stats: FrontierStats::default(),
        };
        // The root state: nothing scheduled, all locations initial. It
        // is complete for the empty view (every model admits the empty
        // history).
        e.scratch = vec![0u64; e.space.stride()];
        for l in 0..num_locs {
            e.scratch[counts_words + l] = Value::INITIAL.0 as u64;
        }
        e.insert_scratch(usize::MAX);
        e.stats.states += 1;
        e
    }

    /// Total view operations appended so far.
    pub fn num_ops(&self) -> usize {
        self.seqs.iter().map(Vec::len).sum()
    }

    /// Reachable states currently stored.
    pub fn num_states(&self) -> usize {
        self.space.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> FrontierStats {
        self.stats
    }

    /// `true` once the state budget was exceeded; [`FrontierEngine::admitted`]
    /// returns `None` from then on.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Does the view of everything appended so far have a legal linear
    /// extension? `None` if the state budget ran out.
    pub fn admitted(&self) -> Option<bool> {
        if self.exhausted {
            None
        } else {
            Some(self.num_complete > 0)
        }
    }

    /// Scheduled-prefix length of processor `q` in state `sid`.
    #[inline]
    fn count_of(&self, sid: u32, q: usize) -> u32 {
        get_u32(self.space.row(sid), q)
    }

    /// Store the scratch row as a state unless an equal one exists (or
    /// the space already holds `cap` states), and register a new state
    /// in the waiting lists and the completeness count. Does not touch
    /// the lifetime counters — rebuilds (seal, fold, restore) re-register
    /// existing states without re-counting them as discoveries.
    fn insert_scratch(&mut self, cap: usize) -> Insert {
        let hash = hash_words(0, &self.scratch);
        let outcome = self.space.insert(hash, &self.scratch, cap);
        if let Insert::Added(sid) = outcome {
            let mut complete = true;
            for q in 0..self.num_procs {
                let c = get_u32(&self.scratch, q);
                complete &= c as usize == self.seqs[q].len();
                self.waiting[q][c as usize].push(sid);
            }
            if complete {
                self.num_complete += 1;
            }
        }
        outcome
    }

    /// Try to schedule processor `q`'s next unscheduled view operation
    /// from state `sid`; on success the successor state is created (if
    /// new) and queued. Only a new state past the budget exhausts the
    /// engine: a transition to a known state is a reuse hit at any size.
    fn try_schedule(&mut self, sid: u32, q: usize, report: &mut AppendReport) {
        let i = self.count_of(sid, q) as usize;
        let op = self.seqs[q][i];
        let loc = self.counts_words + op.loc.index();
        let row = self.space.row(sid);
        if op.kind.is_read() && Value(row[loc] as i64) != op.value {
            return;
        }
        // Successor row, in place: bump q's count; a write updates the
        // location's value word.
        self.scratch.clear();
        self.scratch.extend_from_slice(row);
        set_u32(&mut self.scratch, q, i as u32 + 1);
        if op.kind.is_write() {
            self.scratch[loc] = op.value.0 as u64;
        }
        match self.insert_scratch(self.max_states) {
            Insert::Present(_) => {
                report.reuse_hits += 1;
                self.stats.reuse_hits += 1;
            }
            Insert::Added(new_sid) => {
                self.stats.states += 1;
                self.queue.push_back(new_sid);
                report.created += 1;
            }
            Insert::Full => self.exhausted = true,
        }
    }

    /// Extend processor `p`'s view sequence by one operation and close
    /// the reachable set under it. Amortized cost is proportional to the
    /// states *discovered* by this append, not to the size of the
    /// reachable set.
    pub fn append(&mut self, p: ProcId, op: ViewOp) -> AppendReport {
        let p = p.index();
        assert!(p < self.num_procs, "processor outside the engine's table");
        let mut report = AppendReport::default();
        let idx = self.seqs[p].len();
        self.seqs[p].push(op);
        self.waiting[p].push(Vec::new());
        if self.exhausted {
            // Keep the sequences in sync (a caller may still read
            // `num_ops`), but do no state work: the reachable set is
            // already incomplete.
            return report;
        }
        // Old complete states all had counts[p] == idx; none of them is
        // complete any more, and every newly complete state is created
        // below.
        self.num_complete = 0;
        // An append that exhausted the engine left its queue behind.
        self.queue.clear();
        // Seed: exactly the states that were waiting on p's idx-th
        // operation, read in place. The waiting list cannot change
        // during this append (every new state has counts[p] > idx).
        let seeds = self.waiting[p][idx].len();
        for k in 0..seeds {
            let sid = self.waiting[p][idx][k];
            self.try_schedule(sid, p, &mut report);
            if self.exhausted {
                return report;
            }
        }
        debug_assert_eq!(self.waiting[p][idx].len(), seeds);
        // Close the new states under all arrived operations.
        while let Some(sid) = self.queue.pop_front() {
            report.expanded += 1;
            self.stats.expanded += 1;
            for q in 0..self.num_procs {
                if (self.count_of(sid, q) as usize) < self.seqs[q].len() {
                    self.try_schedule(sid, q, &mut report);
                    if self.exhausted {
                        return report;
                    }
                }
            }
        }
        report
    }

    /// Processor slots this engine was built for.
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// View operations appended for processor `q` so far.
    pub fn seq_len(&self, q: usize) -> usize {
        self.seqs[q].len()
    }

    /// Has every reachable state scheduled all of `q`'s view operations?
    /// A quiesced processor's column is constant, so sealing it away
    /// ([`FrontierEngine::seal`]) loses nothing.
    pub fn quiesced(&self, q: usize) -> bool {
        let len = self.seqs[q].len();
        self.waiting[q][..len].iter().all(Vec::is_empty)
    }

    /// Per-processor minimum scheduled-prefix length over all reachable
    /// states: the longest per-processor base that *every* state has
    /// already scheduled. Sealing to this base is always lossless.
    pub fn min_counts(&self) -> Vec<u32> {
        (0..self.num_procs)
            .map(|q| {
                (0..self.seqs[q].len() as u32)
                    .find(|&i| !self.waiting[q][i as usize].is_empty())
                    .unwrap_or(self.seqs[q].len() as u32)
            })
            .collect()
    }

    /// Commit a per-processor prefix `base` as decided: drop every state
    /// that has not scheduled at least `base[q]` of each processor `q`'s
    /// operations, rebase the survivors' counts by subtracting `base`,
    /// and forget the sealed operations. Afterwards the engine is
    /// exactly the engine of the *suffix* streams, started from the
    /// surviving value vectors.
    ///
    /// The seal is lossless iff `base[q] <= min_counts()[q]` for all `q`
    /// (nothing is dropped). A larger base — e.g. the full sequence
    /// lengths when the prefix is admitted — commits to the interpreted
    /// states that reached it and discards laggards, which is how the
    /// windowed monitor bounds memory: per-window verdicts are exact for
    /// the committed interpretation. No-op while exhausted.
    pub fn seal(&mut self, base: &[u32]) -> SealReport {
        assert_eq!(base.len(), self.num_procs, "seal base has wrong arity");
        let mut report = SealReport::default();
        if self.exhausted {
            return report;
        }
        for (q, &b) in base.iter().enumerate() {
            assert!(b as usize <= self.seqs[q].len(), "seal base past sequence");
            self.seqs[q].drain(..b as usize);
        }
        let stride = self.space.stride();
        let old = std::mem::replace(&mut self.space, StateSpace::new(stride));
        for q in 0..self.num_procs {
            self.waiting[q].clear();
            self.waiting[q].resize(self.seqs[q].len() + 1, Vec::new());
        }
        self.num_complete = 0;
        for sid in 0..old.len() as u32 {
            let row = old.row(sid);
            if (0..self.num_procs).any(|q| get_u32(row, q) < base[q]) {
                report.dropped += 1;
                continue;
            }
            self.scratch.clear();
            self.scratch.extend_from_slice(row);
            for (q, &b) in base.iter().enumerate() {
                set_u32(&mut self.scratch, q, get_u32(row, q) - b);
            }
            if let Insert::Added(_) = self.insert_scratch(usize::MAX) {
                report.kept += 1;
            }
        }
        report
    }

    /// Overwrite location `loc`'s value word in every reachable state,
    /// merging states that coincide afterwards. Folding a retired
    /// processor replays its summarized last-writes through this, so
    /// surviving states deterministically adopt the summary values.
    pub fn force_write(&mut self, loc: Location, value: Value) {
        if self.exhausted {
            return;
        }
        let stride = self.space.stride();
        let word = self.counts_words + loc.index();
        assert!(word < stride, "location outside the engine's table");
        let old = std::mem::replace(&mut self.space, StateSpace::new(stride));
        for q in 0..self.num_procs {
            self.waiting[q].clear();
            self.waiting[q].resize(self.seqs[q].len() + 1, Vec::new());
        }
        self.num_complete = 0;
        for sid in 0..old.len() as u32 {
            self.scratch.clear();
            self.scratch.extend_from_slice(old.row(sid));
            self.scratch[word] = value.0 as u64;
            self.insert_scratch(usize::MAX);
        }
    }

    /// Serialize the complete engine — sequences, state arena, counters —
    /// under the [`crate::binfmt`] contract. [`FrontierEngine::load_from`]
    /// reconstructs an engine whose future behaviour is identical.
    pub fn save_into(&self, buf: &mut Vec<u8>) {
        write_u32(buf, self.num_procs as u32);
        write_u32(buf, (self.space.stride() - self.counts_words) as u32);
        write_u64(buf, self.max_states as u64);
        buf.push(self.exhausted as u8);
        write_u64(buf, self.stats.states);
        write_u64(buf, self.stats.expanded);
        write_u64(buf, self.stats.reuse_hits);
        for seq in &self.seqs {
            write_u32(buf, seq.len() as u32);
            for op in seq {
                buf.push(if op.kind.is_write() { 1 } else { 0 });
                write_u32(buf, op.loc.0);
                write_i64(buf, op.value.0);
            }
        }
        write_u32(buf, self.space.len() as u32);
        for sid in 0..self.space.len() as u32 {
            for &w in self.space.row(sid) {
                write_u64(buf, w);
            }
        }
    }

    /// Rebuild an engine from [`FrontierEngine::save_into`] bytes. The
    /// dedup index, waiting lists and completeness count are derived by
    /// re-inserting the rows, which gives every state its saved id back.
    /// Every declared length and index is validated, so corrupt input
    /// yields `Err` with a byte offset.
    pub fn load_from(r: &mut Reader<'_>) -> Result<FrontierEngine, String> {
        let at = r.pos();
        let num_procs = r.u32()? as usize;
        if num_procs.saturating_mul(4) > r.remaining() {
            return Err(format!(
                "processor count {num_procs} at byte {at} exceeds remaining input"
            ));
        }
        let at = r.pos();
        let num_locs = r.u32()? as usize;
        if num_locs > r.remaining() {
            return Err(format!(
                "location count {num_locs} at byte {at} exceeds remaining input"
            ));
        }
        let max_states = r.u64()? as usize;
        let exhausted = r.u8()? != 0;
        let stats = FrontierStats {
            states: r.u64()?,
            expanded: r.u64()?,
            reuse_hits: r.u64()?,
        };
        let counts_words = num_procs.div_ceil(2);
        let mut e = FrontierEngine {
            num_procs,
            max_states: max_states.max(1),
            seqs: Vec::with_capacity(num_procs),
            space: StateSpace::new(counts_words + num_locs),
            counts_words,
            scratch: Vec::new(),
            queue: VecDeque::new(),
            waiting: Vec::with_capacity(num_procs),
            num_complete: 0,
            exhausted,
            stats,
        };
        for _ in 0..num_procs {
            // Each serialized op is 1 (kind) + 4 (loc) + 8 (value) bytes.
            let n = r.len_prefix(13)?;
            let mut seq = Vec::with_capacity(n);
            for _ in 0..n {
                let at = r.pos();
                let kind = match r.u8()? {
                    0 => OpKind::Read,
                    1 => OpKind::Write,
                    k => return Err(format!("unknown operation kind {k} at byte {at}")),
                };
                let at = r.pos();
                let loc = r.u32()?;
                if loc as usize >= num_locs {
                    return Err(format!(
                        "location {loc} at byte {at} outside the engine's table"
                    ));
                }
                seq.push(ViewOp {
                    kind,
                    loc: Location(loc),
                    value: Value(r.i64()?),
                });
            }
            e.waiting.push(vec![Vec::new(); seq.len() + 1]);
            e.seqs.push(seq);
        }
        let stride = e.space.stride();
        let n_states = r.len_prefix(stride * 8)?;
        for _ in 0..n_states {
            let at = r.pos();
            e.scratch.clear();
            for _ in 0..stride {
                e.scratch.push(r.u64()?);
            }
            for q in 0..num_procs {
                let c = get_u32(&e.scratch, q) as usize;
                if c > e.seqs[q].len() {
                    return Err(format!(
                        "state row at byte {at} schedules {c} of processor {q}'s {} operations",
                        e.seqs[q].len()
                    ));
                }
            }
            if let Insert::Present(_) = e.insert_scratch(usize::MAX) {
                return Err(format!("duplicate state row at byte {at}"));
            }
        }
        if !exhausted && e.space.is_empty() {
            return Err(format!("engine with no states at byte {}", r.pos()));
        }
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::orders::program_order;
    use crate::view::{find_legal_extension, LegalityMode, SearchOutcome, ViewProblem};
    use smc_history::litmus::parse_history;
    use smc_history::{History, HistoryBuilder};
    use smc_prng::SmallRng;
    use smc_relation::BitSet;

    /// The batch answer the engine must agree with: does the history
    /// have a legal extension of program order (the SC view question)?
    fn batch_admits(h: &History) -> bool {
        let po = program_order(h);
        let p = ViewProblem {
            history: h,
            ops: &BitSet::full(h.num_ops()),
            constraints: &po,
            legality: LegalityMode::ByValue,
        };
        match find_legal_extension(&p, &Budget::local(10_000_000)) {
            SearchOutcome::Found(_) => true,
            SearchOutcome::NotFound => false,
            SearchOutcome::Exhausted => panic!("batch search exhausted"),
        }
    }

    fn feed(engine: &mut FrontierEngine, h: &History, order: &[usize]) {
        for &g in order {
            let o = &h.ops()[g];
            engine.append(
                o.proc,
                ViewOp {
                    kind: o.kind,
                    loc: o.loc,
                    value: o.value,
                },
            );
        }
    }

    #[test]
    fn refuted_prefix_can_heal() {
        // `p: w(x)1` + `q: r(x)2` is refuted; appending `p: w(x)2`
        // admits (w1 w2 r2). The engine must keep the incomplete states
        // that make the recovery reachable.
        let mut e = FrontierEngine::new(2, 1, 1 << 16);
        let w = |v: i64| ViewOp {
            kind: OpKind::Write,
            loc: Location(0),
            value: Value(v),
        };
        let r = |v: i64| ViewOp {
            kind: OpKind::Read,
            loc: Location(0),
            value: Value(v),
        };
        assert_eq!(e.admitted(), Some(true));
        e.append(ProcId(0), w(1));
        assert_eq!(e.admitted(), Some(true));
        e.append(ProcId(1), r(2));
        assert_eq!(e.admitted(), Some(false));
        e.append(ProcId(0), w(2));
        assert_eq!(e.admitted(), Some(true));
    }

    #[test]
    fn agrees_with_batch_search_on_every_prefix() {
        let mut rng = SmallRng::seed_from_u64(0xF00D);
        for case in 0..120 {
            let procs = rng.gen_range(1..4usize);
            let locs = rng.gen_range(1..3usize);
            let total = rng.gen_range(0..10usize);
            // Random arrival order of random ops.
            let mut events: Vec<(usize, ViewOp)> = Vec::new();
            for _ in 0..total {
                let p = rng.gen_range(0..procs);
                let kind = if rng.gen_bool(0.5) {
                    OpKind::Write
                } else {
                    OpKind::Read
                };
                events.push((
                    p,
                    ViewOp {
                        kind,
                        loc: Location(rng.gen_range(0..locs) as u32),
                        value: Value(rng.gen_range(0..3i64)),
                    },
                ));
            }
            let mut e = FrontierEngine::new(procs, locs, 1 << 18);
            let mut b = HistoryBuilder::new();
            let names = ["p", "q", "r", "s"];
            for p in names.iter().take(procs) {
                b.add_proc(p);
            }
            for l in ["x", "y"].iter().take(locs) {
                b.add_loc(l);
            }
            for (n, &(p, op)) in events.iter().enumerate() {
                e.append(ProcId(p as u32), op);
                b.push(
                    names[p],
                    op.kind,
                    ["x", "y"][op.loc.index()],
                    op.value,
                    smc_history::Label::Ordinary,
                );
                let h = b.clone().build();
                assert_eq!(
                    e.admitted(),
                    Some(batch_admits(&h)),
                    "case {case}, prefix {}:\n{h}",
                    n + 1
                );
            }
        }
    }

    #[test]
    fn message_passing_stays_admitted_and_fig1_refutes() {
        let h = parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap();
        let mut e = FrontierEngine::new(2, 2, 1 << 16);
        // Arrival order = processor-major program order.
        feed(&mut e, &h, &[0, 1, 2, 3]);
        assert_eq!(e.admitted(), Some(false), "fig1 is not SC");

        let h = parse_history("p: w(d)1 w(f)1\nq: r(f)1 r(d)1").unwrap();
        let mut e = FrontierEngine::new(2, 2, 1 << 16);
        feed(&mut e, &h, &[0, 1, 2, 3]);
        assert_eq!(e.admitted(), Some(true));
    }

    #[test]
    fn state_budget_reports_unknown() {
        let mut e = FrontierEngine::new(2, 1, 2);
        let w = |v: i64| ViewOp {
            kind: OpKind::Write,
            loc: Location(0),
            value: Value(v),
        };
        e.append(ProcId(0), w(1));
        e.append(ProcId(1), w(2));
        assert!(e.is_exhausted());
        assert_eq!(e.admitted(), None);
        // Appends after exhaustion are harmless no-ops.
        e.append(ProcId(0), w(3));
        assert_eq!(e.num_ops(), 3);
        assert_eq!(e.admitted(), None);
    }

    #[test]
    fn save_load_round_trip_preserves_future_behaviour() {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        for _case in 0..60 {
            let procs = rng.gen_range(1..4usize);
            let locs = rng.gen_range(1..3usize);
            let total = rng.gen_range(0..12usize);
            let split = if total == 0 {
                0
            } else {
                rng.gen_range(0..total)
            };
            let mut ops: Vec<(usize, ViewOp)> = Vec::new();
            for _ in 0..total {
                let kind = if rng.gen_bool(0.5) {
                    OpKind::Write
                } else {
                    OpKind::Read
                };
                ops.push((
                    rng.gen_range(0..procs),
                    ViewOp {
                        kind,
                        loc: Location(rng.gen_range(0..locs) as u32),
                        value: Value(rng.gen_range(0..3i64)),
                    },
                ));
            }
            let mut cold = FrontierEngine::new(procs, locs, 1 << 16);
            for &(p, op) in &ops[..split] {
                cold.append(ProcId(p as u32), op);
            }
            let mut buf = Vec::new();
            cold.save_into(&mut buf);
            let mut r = Reader::new(&buf);
            let mut warm = FrontierEngine::load_from(&mut r).expect("round trip");
            assert!(r.is_at_end());
            assert_eq!(warm.admitted(), cold.admitted());
            assert_eq!(warm.num_states(), cold.num_states());
            assert_eq!(warm.stats(), cold.stats());
            for &(p, op) in &ops[split..] {
                cold.append(ProcId(p as u32), op);
                warm.append(ProcId(p as u32), op);
                assert_eq!(warm.admitted(), cold.admitted());
            }
            assert_eq!(warm.stats(), cold.stats());
        }
    }

    #[test]
    fn truncated_and_corrupt_engine_bytes_are_rejected() {
        let mut e = FrontierEngine::new(2, 2, 1 << 10);
        e.append(
            ProcId(0),
            ViewOp {
                kind: OpKind::Write,
                loc: Location(1),
                value: Value(5),
            },
        );
        let mut buf = Vec::new();
        e.save_into(&mut buf);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(FrontierEngine::load_from(&mut r).is_err(), "cut {cut}");
        }
        // An out-of-table location in a sequence entry is caught.
        let mut bad = buf.clone();
        // Header is 4+4+8+1+24 = 41 bytes; proc 0's seq len follows,
        // then kind (1 byte), then the loc u32.
        bad[46..50].copy_from_slice(&9u32.to_le_bytes());
        let mut r = Reader::new(&bad);
        let e = match FrontierEngine::load_from(&mut r) {
            Err(e) => e,
            Ok(_) => panic!("corrupt location accepted"),
        };
        assert!(e.contains("outside the engine's table"), "{e}");
    }

    #[test]
    fn lossless_seal_preserves_verdicts() {
        // Sealing to min_counts never drops a state, and the sealed
        // engine keeps answering exactly like the unsealed one.
        let h = parse_history("p: w(d)1 w(f)1\nq: r(f)1 r(d)1").unwrap();
        let mut e = FrontierEngine::new(2, 2, 1 << 16);
        feed(&mut e, &h, &[0, 1, 2, 3]);
        assert_eq!(e.admitted(), Some(true));
        let min = e.min_counts();
        let before = e.num_states();
        let rep = e.seal(&min);
        assert_eq!(rep.dropped, 0, "min-counts seal drops nothing");
        assert!(e.num_states() <= before);
        assert_eq!(e.admitted(), Some(true));
        // The sealed engine still refutes a stale read of d.
        e.append(
            ProcId(1),
            ViewOp {
                kind: OpKind::Read,
                loc: Location(0),
                value: Value(0),
            },
        );
        assert_eq!(e.admitted(), Some(false));
    }

    #[test]
    fn quiesced_column_seals_to_fresh_slot() {
        let mut e = FrontierEngine::new(2, 1, 1 << 16);
        let w = |v: i64| ViewOp {
            kind: OpKind::Write,
            loc: Location(0),
            value: Value(v),
        };
        e.append(ProcId(0), w(1));
        // q reads 1: every surviving schedule has p's write first.
        e.append(
            ProcId(1),
            ViewOp {
                kind: OpKind::Read,
                loc: Location(0),
                value: Value(1),
            },
        );
        assert_eq!(e.admitted(), Some(true));
        assert!(!e.quiesced(0), "a state with p unscheduled is reachable");
        // Seal to the complete states only: p's column becomes empty.
        e.seal(&[1, 1]);
        assert!(e.quiesced(0));
        assert_eq!(e.seq_len(0), 0);
        assert_eq!(e.admitted(), Some(true));
        // The slot is indistinguishable from a fresh processor.
        e.append(ProcId(0), w(2));
        assert_eq!(e.admitted(), Some(true));
    }

    #[test]
    fn force_write_merges_states() {
        let mut e = FrontierEngine::new(2, 1, 1 << 16);
        let w = |v: i64| ViewOp {
            kind: OpKind::Write,
            loc: Location(0),
            value: Value(v),
        };
        e.append(ProcId(0), w(1));
        e.append(ProcId(1), w(2));
        let before = e.num_states();
        e.force_write(Location(0), Value(9));
        assert!(e.num_states() <= before);
        // Every state now reads 9.
        e.append(
            ProcId(0),
            ViewOp {
                kind: OpKind::Read,
                loc: Location(0),
                value: Value(9),
            },
        );
        assert_eq!(e.admitted(), Some(true));
    }

    #[test]
    fn states_are_shared_across_appends() {
        // Two processors writing the same value to the same location:
        // the diamond closes and the four interleavings share states.
        let mut e = FrontierEngine::new(2, 1, 1 << 16);
        let w = ViewOp {
            kind: OpKind::Write,
            loc: Location(0),
            value: Value(7),
        };
        e.append(ProcId(0), w);
        let rep = e.append(ProcId(1), w);
        // (1,1) is reachable two ways; one of them is a reuse hit.
        assert!(rep.reuse_hits > 0 || e.stats().reuse_hits > 0);
        assert_eq!(e.admitted(), Some(true));
    }
}
