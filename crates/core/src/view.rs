//! Search for legal sequential views.
//!
//! Section 2 of the paper requires, for each processor `p`, a *legal*
//! sequential history `S_{p+δp}`: a total order over `p`'s operations and
//! the model-selected remote operations in which every read returns the
//! value of the most recent preceding write to its location (initial value
//! `0` if none). The model's ordering and mutual-consistency parameters
//! contribute a partial order that the view must extend.
//!
//! This module answers the per-view question: *given the operation set and
//! the required partial order, does a legal linear extension exist?* — by
//! depth-first search over schedulable operations with
//!
//! * dead-state pruning (a read whose explanation has been overwritten can
//!   never be scheduled), and
//! * a table of failed states, keyed by the scheduled-set bit mask and the
//!   per-location last writes (the only state the future depends on).
//!
//! `Dfs` is the one search loop, run with an exact failed-state memo
//! ([`find_legal_extension`]) or none ([`for_each_legal_extension`]).
//! Every search runs on a per-thread scratch: the context's buffers, the
//! DFS stacks and the failed-state table are cleared, not reallocated,
//! from one search to the next (see `Scratch`).
//! A search runs whole on the thread of its check; parallel callers
//! spread whole checks ([`crate::batch`]). The scheduling state itself —
//! context preprocessing, successor generation, state packing and
//! hashing — lives in [`crate::kernel`] and is shared with the frontier
//! closure.
//!
//! Deciding this question is NP-complete in general (it subsumes checking
//! sequential consistency), but litmus-scale instances are instant.

use crate::budget::Budget;
use crate::kernel::{pack_state, state_hash, with_scratch, Ctx, CtxBufs, StateSpace, NO_WRITE};
use crate::rf::ReadsFrom;
use smc_history::{History, OpId, Value};
use smc_relation::{BitSet, Relation};
use std::cell::Cell;
use std::ops::ControlFlow;

/// How read legality is judged during the search.
#[derive(Clone, Copy)]
pub enum LegalityMode<'a> {
    /// A read of value `v` may be scheduled whenever the most recent write
    /// to its location (if any) stored `v`, or `v = 0` with no write yet.
    /// Used by models whose derived orders do not mention reads-from
    /// (SC, TSO, PRAM, coherent memory).
    ByValue,
    /// A read must be explained by exactly its assigned source write
    /// (or the initial value). Used by models whose ordering constraints
    /// are derived from a reads-from assignment (causal, PC, RC).
    ByReadsFrom(&'a ReadsFrom),
}

/// One per-view satisfiability problem.
pub struct ViewProblem<'a> {
    /// The full history the operations come from.
    pub history: &'a History,
    /// Global ids of the operations that form the view (`H_p ∪ δ_p`).
    pub ops: &'a BitSet,
    /// Required partial order over global ids; only edges between two
    /// members of `ops` constrain the view.
    pub constraints: &'a Relation,
    /// Read-legality mode.
    pub legality: LegalityMode<'a>,
}

/// Outcome of a bounded search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A legal extension exists; the witness view is attached.
    Found(Vec<OpId>),
    /// No legal extension exists.
    NotFound,
    /// The node budget ran out before the search completed.
    Exhausted,
}

/// Result of a visitor-driven enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchEnd<B> {
    /// Every legal extension was visited without the visitor breaking.
    Completed,
    /// The visitor broke with this value.
    Broke(B),
    /// The node budget ran out.
    Exhausted,
}

/// A table of refuted states that the DFS probes when it enters a node
/// and fills when it retires a node whose whole subtree it explored.
/// The search is the same for every caller; only this table varies.
trait FailedTable {
    /// `None` if `(placed, last_write)` is a recorded refutation;
    /// otherwise the key to record it under once refuted.
    fn probe(&mut self, placed: &BitSet, last_write: &[u32]) -> Option<u64>;
    /// Record the state `(placed, last_write)`, probed as `key`, as refuted.
    fn record(&mut self, key: u64, placed: &BitSet, last_write: &[u32]);
}

/// No table: every state is explored, so a visitor sees each distinct
/// legal extension exactly once.
struct NoTable;

impl FailedTable for NoTable {
    fn probe(&mut self, _: &BitSet, _: &[u32]) -> Option<u64> {
        Some(0)
    }

    fn record(&mut self, _: u64, _: &BitSet, _: &[u32]) {}
}

/// Exact (collision-free) memo of failed states for the sequential DFS:
/// a packed [`StateSpace`] arena indexed by [`state_hash`], so the hot
/// path probes by hash first (computed straight off the live state, no
/// packing) and packs the `(scheduled set, last writes)` key into the
/// scratch row only on the rare hash hit — or when a refuted state is
/// inserted. Unlike a plain `HashSet<(BitSet, Vec<u32>)>`, a lookup
/// never clones or allocates.
#[derive(Default)]
struct LocalFailed {
    space: StateSpace,
    scratch: Vec<u64>,
}

impl FailedTable for LocalFailed {
    fn probe(&mut self, placed: &BitSet, last_write: &[u32]) -> Option<u64> {
        let hash = state_hash(placed, last_write);
        if self.space.has_bucket(hash) {
            pack_state(&mut self.scratch, placed, last_write);
            if self.space.find(hash, &self.scratch).is_some() {
                return None;
            }
        }
        Some(hash)
    }

    fn record(&mut self, hash: u64, placed: &BitSet, last_write: &[u32]) {
        pack_state(&mut self.scratch, placed, last_write);
        self.space.insert(hash, &self.scratch, usize::MAX);
    }
}

/// One DFS frame: the op placed to enter this state ([`ROOT`] for the
/// search's starting state), the last write it displaced, the child scan
/// cursor, and the state's failed-table key.
struct Frame {
    op: u32,
    saved: u32,
    cursor: u32,
    key: u64,
}

const ROOT: u32 = u32::MAX;

/// How a node entry ended.
enum Entry {
    /// Every op is placed: the order is a legal extension.
    Complete,
    /// The budget refused the node's charge.
    Exhausted,
    /// The state is dead or a recorded refutation.
    Pruned,
    /// The state must be explored; its failed-table key is attached.
    Open(u64),
}

/// The explicit-stack depth-first search over a [`Ctx`] that every view
/// question runs. A node is entered the same way everywhere: a complete
/// order is a find; otherwise one budget node is charged, dead states are
/// pruned, and the [`FailedTable`] is probed. A node whose children are
/// all covered is retired into the table. The search state lives in
/// buffers that [`Dfs::run`] clears, so one `Dfs` serves search after
/// search.
struct Dfs {
    placed: BitSet,
    last_write: Vec<u32>,
    /// The local ops placed so far, in order.
    order: Vec<u32>,
    stack: Vec<Frame>,
}

impl Default for Dfs {
    fn default() -> Self {
        Dfs {
            placed: BitSet::new(0),
            last_write: Vec::new(),
            order: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Dfs {
    fn enter(&self, ctx: &Ctx<'_>, table: &mut impl FailedTable, budget: &Budget) -> Entry {
        if self.order.len() == ctx.elems.len() {
            return Entry::Complete;
        }
        if !budget.try_spend() {
            return Entry::Exhausted;
        }
        if ctx.dead(&self.placed, &self.last_write) {
            return Entry::Pruned;
        }
        match table.probe(&self.placed, &self.last_write) {
            Some(key) => Entry::Open(key),
            None => Entry::Pruned,
        }
    }

    /// Run the search over `ctx` from the empty schedule to the end.
    /// `found` sees each complete order (local op indices) and may break;
    /// the search resumes after it otherwise.
    fn run<B>(
        &mut self,
        ctx: &Ctx<'_>,
        table: &mut impl FailedTable,
        budget: &Budget,
        mut found: impl FnMut(&[u32]) -> ControlFlow<B>,
    ) -> SearchEnd<B> {
        self.placed.reset(ctx.elems.len());
        self.last_write.clear();
        self.last_write.resize(ctx.num_locs, NO_WRITE);
        self.order.clear();
        self.stack.clear();
        let key = match self.enter(ctx, table, budget) {
            Entry::Open(key) => key,
            Entry::Complete => {
                return match found(&self.order) {
                    ControlFlow::Continue(()) => SearchEnd::Completed,
                    ControlFlow::Break(b) => SearchEnd::Broke(b),
                }
            }
            Entry::Exhausted => return SearchEnd::Exhausted,
            Entry::Pruned => return SearchEnd::Completed,
        };
        self.stack.push(Frame {
            op: ROOT,
            saved: NO_WRITE,
            cursor: 0,
            key,
        });
        while let Some(top) = self.stack.len().checked_sub(1) {
            let mut advanced = false;
            while let Some(i) = ctx.next_ready(
                &self.placed,
                &self.last_write,
                self.stack[top].cursor as usize,
            ) {
                self.stack[top].cursor = i as u32 + 1;
                let saved = ctx.apply(i, &mut self.placed, &mut self.last_write);
                self.order.push(i as u32);
                match self.enter(ctx, table, budget) {
                    Entry::Open(key) => {
                        self.stack.push(Frame {
                            op: i as u32,
                            saved,
                            cursor: 0,
                            key,
                        });
                        advanced = true;
                        break;
                    }
                    Entry::Complete => {
                        if let ControlFlow::Break(b) = found(&self.order) {
                            return SearchEnd::Broke(b);
                        }
                    }
                    Entry::Exhausted => return SearchEnd::Exhausted,
                    Entry::Pruned => {}
                }
                self.order.pop();
                ctx.undo(i, saved, &mut self.placed, &mut self.last_write);
            }
            if advanced {
                continue;
            }
            // Every child of the top frame is covered: retire it.
            let f = self.stack.pop().expect("non-empty stack");
            table.record(f.key, &self.placed, &self.last_write);
            if f.op != ROOT {
                self.order.pop();
                ctx.undo(
                    f.op as usize,
                    f.saved,
                    &mut self.placed,
                    &mut self.last_write,
                );
            }
        }
        SearchEnd::Completed
    }

    /// Bytes of heap the buffers hold.
    fn heap_bytes(&self) -> usize {
        8 * self.placed.words().len()
            + 4 * (self.last_write.capacity() + self.order.capacity())
            + std::mem::size_of::<Frame>() * self.stack.capacity()
    }
}

/// Everything one view search runs on: the context's buffers, the DFS
/// state and the failed-state table. Each thread keeps one idle scratch
/// in [`SCRATCH`] ([`crate::kernel::with_scratch`]).
#[derive(Default)]
struct Scratch {
    ctx: CtxBufs,
    dfs: Dfs,
    failed: LocalFailed,
}

impl Scratch {
    fn heap_bytes(&self) -> usize {
        self.ctx.heap_bytes()
            + self.dfs.heap_bytes()
            + self.failed.space.heap_bytes()
            + 8 * self.failed.scratch.capacity()
    }
}

thread_local! {
    /// This thread's idle search scratch, if it has one.
    static SCRATCH: Cell<Option<Scratch>> = const { Cell::new(None) };
}

/// Search for one legal extension of the problem, charging one unit of
/// `budget` per search node (the same budget is shared across a check's
/// sub-searches and nested enumerations). Failed states are memoized
/// exactly.
pub fn find_legal_extension(p: &ViewProblem<'_>, budget: &Budget) -> SearchOutcome {
    with_scratch(&SCRATCH, Scratch::heap_bytes, |s| {
        let ctx = Ctx::new(p, &mut s.ctx);
        s.failed.space.reset(ctx.packed_stride());
        let end = s.dfs.run(&ctx, &mut s.failed, budget, |order| {
            ControlFlow::Break(global_order(&ctx, order))
        });
        match end {
            SearchEnd::Broke(order) => SearchOutcome::Found(order),
            SearchEnd::Completed => SearchOutcome::NotFound,
            SearchEnd::Exhausted => SearchOutcome::Exhausted,
        }
    })
}

/// Visit every legal extension of the problem (no failure memoization, so
/// the visitor sees each distinct extension exactly once).
pub fn for_each_legal_extension<B>(
    p: &ViewProblem<'_>,
    budget: &Budget,
    mut visit: impl FnMut(&[OpId]) -> ControlFlow<B>,
) -> SearchEnd<B> {
    with_scratch(&SCRATCH, Scratch::heap_bytes, |s| {
        let ctx = Ctx::new(p, &mut s.ctx);
        let mut view = Vec::with_capacity(ctx.elems.len());
        s.dfs.run(&ctx, &mut NoTable, budget, |order| {
            view.clear();
            view.extend(order.iter().map(|&l| OpId(ctx.elems[l as usize] as u32)));
            visit(&view)
        })
    })
}

/// Map a local order to global op ids.
fn global_order(ctx: &Ctx<'_>, order: &[u32]) -> Vec<OpId> {
    order
        .iter()
        .map(|&l| OpId(ctx.elems[l as usize] as u32))
        .collect()
}

/// Check that `order` is a legal sequence for the history: every read
/// returns the most recent preceding write's value (initial `0` if none).
/// Used to validate witnesses independently of the search.
pub fn is_legal_sequence(h: &History, order: &[OpId]) -> bool {
    let mut last: Vec<Option<Value>> = vec![None; h.num_locs()];
    for &id in order {
        let o = h.op(id);
        if o.is_write() {
            last[o.loc.index()] = Some(o.value);
        } else {
            let expect = last[o.loc.index()].unwrap_or(Value::INITIAL);
            if o.value != expect {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orders::program_order;
    use crate::rf::unique_reads_from;
    use smc_history::litmus::parse_history;

    fn all_ops(h: &History) -> BitSet {
        BitSet::full(h.num_ops())
    }

    fn find(h: &History, constraints: &Relation, legality: LegalityMode<'_>) -> SearchOutcome {
        let p = ViewProblem {
            history: h,
            ops: &all_ops(h),
            constraints,
            legality,
        };
        let budget = Budget::local(1_000_000);
        find_legal_extension(&p, &budget)
    }

    #[test]
    fn message_passing_has_legal_po_extension() {
        let h = parse_history("p: w(d)1 w(f)1\nq: r(f)1 r(d)1").unwrap();
        let po = program_order(&h);
        match find(&h, &po, LegalityMode::ByValue) {
            SearchOutcome::Found(order) => {
                assert!(is_legal_sequence(&h, &order));
                assert!(po.respects(&order.iter().map(|o| o.index()).collect::<Vec<_>>()));
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn fig1_has_no_global_po_extension() {
        // The SC-violating store-buffering history: no single legal
        // sequence respects both program orders.
        let h = parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap();
        let po = program_order(&h);
        assert_eq!(
            find(&h, &po, LegalityMode::ByValue),
            SearchOutcome::NotFound
        );
    }

    #[test]
    fn reads_from_mode_pins_the_source() {
        let h = parse_history("p: w(x)1 w(x)2\nq: r(x)1").unwrap();
        let rf = unique_reads_from(&h).unwrap();
        let po = program_order(&h);
        let p = ViewProblem {
            history: &h,
            ops: &all_ops(&h),
            constraints: &po,
            legality: LegalityMode::ByReadsFrom(&rf),
        };
        let budget = Budget::local(1_000_000);
        match find_legal_extension(&p, &budget) {
            SearchOutcome::Found(order) => {
                // r(x)1 must land strictly between the two writes.
                let pos = |id: u32| order.iter().position(|o| o.0 == id).unwrap();
                assert!(pos(0) < pos(2) && pos(2) < pos(1));
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn subset_views_ignore_outside_ops() {
        // Only q's ops + p's writes, as in S_{q+w}.
        let h = parse_history("p: w(x)1 r(z)0\nq: r(x)1").unwrap();
        let po = program_order(&h);
        let ops = BitSet::from_iter(h.num_ops(), [0usize, 2]);
        let p = ViewProblem {
            history: &h,
            ops: &ops,
            constraints: &po,
            legality: LegalityMode::ByValue,
        };
        let budget = Budget::local(1_000);
        match find_legal_extension(&p, &budget) {
            SearchOutcome::Found(order) => assert_eq!(order.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_reported() {
        let h = parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap();
        let po = program_order(&h);
        let p = ViewProblem {
            history: &h,
            ops: &all_ops(&h),
            constraints: &po,
            legality: LegalityMode::ByValue,
        };
        let budget = Budget::local(1);
        assert_eq!(find_legal_extension(&p, &budget), SearchOutcome::Exhausted);
    }

    #[test]
    fn enumeration_visits_each_extension_once() {
        // Two independent writes to different locations: 2 interleavings.
        let h = parse_history("p: w(x)1\nq: w(y)1").unwrap();
        let cons = Relation::new(h.num_ops());
        let p = ViewProblem {
            history: &h,
            ops: &all_ops(&h),
            constraints: &cons,
            legality: LegalityMode::ByValue,
        };
        let budget = Budget::local(1_000);
        let mut seen = Vec::new();
        let end = for_each_legal_extension(&p, &budget, |ext| {
            seen.push(ext.to_vec());
            ControlFlow::<()>::Continue(())
        });
        assert!(matches!(end, SearchEnd::Completed));
        assert_eq!(seen.len(), 2);
        assert_ne!(seen[0], seen[1]);
    }

    #[test]
    fn enumeration_prunes_illegal_prefixes() {
        // r(x)0 cannot follow w(x)1, so only one legal order exists.
        let h = parse_history("p: w(x)1\nq: r(x)0").unwrap();
        let cons = Relation::new(h.num_ops());
        let p = ViewProblem {
            history: &h,
            ops: &all_ops(&h),
            constraints: &cons,
            legality: LegalityMode::ByValue,
        };
        let budget = Budget::local(1_000);
        let mut count = 0;
        for_each_legal_extension(&p, &budget, |_| {
            count += 1;
            ControlFlow::<()>::Continue(())
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn enumeration_break_propagates() {
        let h = parse_history("p: w(x)1\nq: w(y)1").unwrap();
        let cons = Relation::new(h.num_ops());
        let p = ViewProblem {
            history: &h,
            ops: &all_ops(&h),
            constraints: &cons,
            legality: LegalityMode::ByValue,
        };
        let budget = Budget::local(1_000);
        let end = for_each_legal_extension(&p, &budget, |_| ControlFlow::Break(42));
        assert!(matches!(end, SearchEnd::Broke(42)));
    }

    #[test]
    fn is_legal_sequence_checks_values() {
        let h = parse_history("p: w(x)1 r(x)1 r(x)0").unwrap();
        let good = vec![OpId(2), OpId(0), OpId(1)];
        assert!(is_legal_sequence(&h, &good));
        let bad = vec![OpId(0), OpId(1), OpId(2)];
        assert!(!is_legal_sequence(&h, &bad));
    }
}
