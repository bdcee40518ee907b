//! The shared state-space kernel behind every explorer in this crate.
//!
//! Two explorers walk the *same* state space — a view's scheduling state
//! is fully captured by `(scheduled set, last write per location)`:
//!
//! * the depth-first view search ([`crate::view`]'s `Dfs`), which every
//!   view question runs, and
//! * the incremental frontier closure ([`crate::frontier`]) that powers
//!   the streaming monitor.
//!
//! The kernel centralizes:
//!
//! * [`Ctx`] — the preprocessed scheduling context, with
//!   [`Ctx::next_ready`] as the *single* successor-generation function
//!   every engine drives (so a scheduling-rule change lands in all of
//!   them at once), plus [`Ctx::apply`]/[`Ctx::undo`] for in-place
//!   state transitions;
//! * [`StateSpace`] — a compact, arena-allocated set of visited states:
//!   fixed-stride rows of packed `u64` words in one flat allocation,
//!   deduplicated exactly through an open-addressed `(hash, id)` index
//!   (the hash preselects, the packed row comparison decides), with one
//!   probe per insert-or-find. Ids follow insertion order whatever the
//!   index does, so side tables keyed by id, and tables saved and
//!   rebuilt row by row (frontier checkpoints), see the same ids;
//! * the packing helpers ([`pack_state`], [`get_u32`], [`set_u32`]) and
//!   hashes ([`state_hash`], [`hash_words`]) shared by the tables;
//! * [`with_scratch`] — the per-thread scratch buffers the view search
//!   and canonicalization reuse from job to job, capped at
//!   [`RETAIN_BYTES`] per idle scratch.

use crate::view::{LegalityMode, ViewProblem};
use smc_history::{OpId, Value};
use smc_relation::BitSet;
use std::cell::Cell;
use std::thread::LocalKey;

/// Most heap bytes a thread keeps in one idle scratch: a search or
/// canonicalization that grew its buffers past this (a big recheck)
/// drops them when it ends, so a long-lived worker holds no more than
/// this after its largest job.
pub(crate) const RETAIN_BYTES: usize = 64 * 1024;

/// Run `f` on the scratch parked in this thread's `slot`, or on a fresh
/// one if the slot is empty, and park it again afterwards unless it
/// holds more than [`RETAIN_BYTES`] of heap (as `heap_bytes` counts it).
/// The slot is empty while `f` runs, so a job nested in `f` (a view
/// search run from a visitor) gets a scratch of its own.
pub(crate) fn with_scratch<S: Default, T>(
    slot: &'static LocalKey<Cell<Option<S>>>,
    heap_bytes: impl FnOnce(&S) -> usize,
    f: impl FnOnce(&mut S) -> T,
) -> T {
    let mut scratch = slot.try_with(Cell::take).ok().flatten().unwrap_or_default();
    let out = f(&mut scratch);
    if heap_bytes(&scratch) <= RETAIN_BYTES {
        let _ = slot.try_with(|slot| slot.set(Some(scratch)));
    }
    out
}

/// Sentinel for "no write to this location has been scheduled yet".
pub(crate) const NO_WRITE: u32 = u32::MAX;

/// The buffers a [`Ctx`] is built in. A search scratch keeps one and
/// refills it for every view problem, so building a context allocates
/// only when a problem outgrows every earlier one.
#[derive(Default)]
pub(crate) struct CtxBufs {
    elems: Vec<usize>,
    /// Local index per global op, `usize::MAX` outside the view.
    local_of: Vec<usize>,
    preds: Vec<u64>,
    reads: Vec<usize>,
}

impl CtxBufs {
    /// Bytes of heap the buffers hold.
    pub(crate) fn heap_bytes(&self) -> usize {
        8 * (self.elems.capacity()
            + self.local_of.capacity()
            + self.preds.capacity()
            + self.reads.capacity())
    }
}

/// Preprocessed per-view scheduling context: local indexing, predecessor
/// masks copied out of the constraint relation, and read/location
/// metadata: everything the DFS needs. The constraint relation is fully
/// copied into the predecessor masks.
pub(crate) struct Ctx<'a> {
    /// Global op index per local index, ascending.
    pub(crate) elems: &'a [usize],
    h: &'a smc_history::History,
    /// Local predecessor masks, `stride` words per local op, flat.
    preds: &'a [u64],
    /// Words per predecessor mask: the word count of a bit set over the
    /// local ops.
    stride: usize,
    legality: LegalityMode<'a>,
    /// Local indices of reads, for dead-state scans.
    reads: &'a [usize],
    pub(crate) num_locs: usize,
}

impl<'a> Ctx<'a> {
    /// The context of problem `p`, built in `bufs`.
    pub(crate) fn new(p: &ViewProblem<'a>, bufs: &'a mut CtxBufs) -> Self {
        let history = p.history;
        let CtxBufs {
            elems,
            local_of,
            preds,
            reads,
        } = bufs;
        elems.clear();
        elems.extend(p.ops.iter());
        let m = elems.len();
        local_of.clear();
        local_of.resize(history.num_ops(), usize::MAX);
        for (i, &e) in elems.iter().enumerate() {
            local_of[e] = i;
        }
        let stride = m.div_ceil(64);
        preds.clear();
        preds.resize(m * stride, 0);
        for (i, &e) in elems.iter().enumerate() {
            for s in p.constraints.successors(e).iter() {
                let j = local_of[s];
                if j != usize::MAX && j != i {
                    preds[j * stride + i / 64] |= 1 << (i % 64);
                }
            }
        }
        reads.clear();
        reads.extend((0..m).filter(|&i| history.ops()[elems[i]].is_read()));
        Ctx {
            elems,
            h: history,
            preds,
            stride,
            legality: p.legality,
            reads,
            num_locs: history.num_locs(),
        }
    }

    #[inline]
    pub(crate) fn op(&self, local: usize) -> &smc_history::Operation {
        &self.h.ops()[self.elems[local]]
    }

    /// The single successor-generation function: the lowest ready local
    /// index `>= from`, where *ready* means unscheduled, with all
    /// predecessors scheduled, and currently legal to schedule. Every
    /// engine enumerates successors by calling this with an advancing
    /// cursor, so the scheduling rule lives in exactly one place.
    #[inline]
    pub(crate) fn next_ready(
        &self,
        placed: &BitSet,
        last_write: &[u32],
        from: usize,
    ) -> Option<usize> {
        (from..self.elems.len()).find(|&i| {
            !placed.contains(i) && self.preds_placed(i, placed) && self.schedulable(i, last_write)
        })
    }

    /// Whether every predecessor of `local` is scheduled.
    #[inline]
    fn preds_placed(&self, local: usize, placed: &BitSet) -> bool {
        let mask = &self.preds[local * self.stride..(local + 1) * self.stride];
        mask.iter().zip(placed.words()).all(|(p, s)| p & !s == 0)
    }

    /// Schedule `local` in place. Returns the displaced last-write slot
    /// for the location so [`Ctx::undo`] can restore it.
    #[inline]
    pub(crate) fn apply(&self, local: usize, placed: &mut BitSet, last_write: &mut [u32]) -> u32 {
        let o = self.op(local);
        let slot = o.loc.index();
        let saved = last_write[slot];
        if o.is_write() {
            last_write[slot] = local as u32;
        }
        placed.insert(local);
        saved
    }

    /// Undo a matching [`Ctx::apply`] (LIFO order).
    #[inline]
    pub(crate) fn undo(
        &self,
        local: usize,
        saved: u32,
        placed: &mut BitSet,
        last_write: &mut [u32],
    ) {
        placed.remove(local);
        let o = self.op(local);
        if o.is_write() {
            last_write[o.loc.index()] = saved;
        }
    }

    /// May `local` be scheduled now, given the per-location last writes?
    fn schedulable(&self, local: usize, last_write: &[u32]) -> bool {
        let o = self.op(local);
        if o.is_write() {
            return true;
        }
        let lw = last_write[o.loc.index()];
        match self.legality {
            LegalityMode::ByValue => {
                if lw == NO_WRITE {
                    o.value == Value::INITIAL
                } else {
                    self.op(lw as usize).value == o.value
                }
            }
            LegalityMode::ByReadsFrom(rf) => match rf.source(OpId(self.elems[local] as u32)) {
                None => lw == NO_WRITE,
                Some(src) => lw != NO_WRITE && self.elems[lw as usize] == src.index(),
            },
        }
    }

    /// `true` if some unscheduled read can never become schedulable.
    pub(crate) fn dead(&self, placed: &BitSet, last_write: &[u32]) -> bool {
        for &r in self.reads {
            if placed.contains(r) {
                continue;
            }
            let o = self.op(r);
            let lw = last_write[o.loc.index()];
            match self.legality {
                LegalityMode::ByReadsFrom(rf) => {
                    match rf.source(OpId(self.elems[r] as u32)) {
                        None => {
                            // Needs the initial state: dead once any write
                            // to the location has been scheduled.
                            if lw != NO_WRITE {
                                return true;
                            }
                        }
                        Some(src) => {
                            // Dead if the source has been scheduled but is
                            // no longer the most recent write.
                            if let Some(src_local) = self.local_of_global(src.index(), placed) {
                                if lw != src_local as u32 {
                                    return true;
                                }
                            }
                        }
                    }
                }
                LegalityMode::ByValue => {
                    // Dead if the current value mismatches and no pending
                    // write can ever produce the needed value.
                    let current_ok = if lw == NO_WRITE {
                        o.value == Value::INITIAL
                    } else {
                        self.op(lw as usize).value == o.value
                    };
                    if !current_ok {
                        let rescue = (0..self.elems.len()).any(|i| {
                            !placed.contains(i) && {
                                let c = self.op(i);
                                c.is_write() && c.loc == o.loc && c.value == o.value
                            }
                        });
                        if !rescue {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Local index of a scheduled global op, if it is scheduled.
    fn local_of_global(&self, global: usize, placed: &BitSet) -> Option<usize> {
        // elems is ascending, so binary search.
        match self.elems.binary_search(&global) {
            Ok(local) if placed.contains(local) => Some(local),
            _ => None,
        }
    }

    /// Packed-row width (in `u64` words) of one `(scheduled set, last
    /// writes)` state of this context, as produced by [`pack_state`].
    pub(crate) fn packed_stride(&self) -> usize {
        self.stride + self.num_locs.div_ceil(2)
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// 64-bit fingerprint of a search state `(scheduled set, last writes)`:
/// FNV-1a over the bit-set words and last-write vector with a
/// murmur-style finalizer, so both high and low bits are well mixed.
/// Equal to [`hash_words`] with salt `0` over the bit-set words followed
/// by one word per last write, but computed straight off the live state.
/// Never returns `0`, which [`StateSpace`] reserves for empty index
/// slots.
pub(crate) fn state_hash(placed: &BitSet, last_write: &[u32]) -> u64 {
    let mut h = FNV_BASIS;
    for &w in placed.words() {
        h = (h ^ w).wrapping_mul(FNV_PRIME);
    }
    for &lw in last_write {
        h = (h ^ u64::from(lw)).wrapping_mul(FNV_PRIME);
    }
    finalize(h)
}

/// [`state_hash`]'s sibling over an already-packed row of `u64` words
/// (same FNV-1a core and finalizer, same never-zero guarantee). Used by
/// the packed tables, where the row *is* the canonical state. Those
/// tables compare exact rows, so the salt only spreads index slots.
pub fn hash_words(salt: u64, words: &[u64]) -> u64 {
    let mut h = FNV_BASIS ^ salt;
    for &w in words {
        h = (h ^ w).wrapping_mul(FNV_PRIME);
    }
    finalize(h)
}

#[inline]
fn finalize(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    if h == 0 {
        0x9e37_79b9_7f4a_7c15
    } else {
        h
    }
}

/// Read the `idx`-th `u32` of a row that packs two per `u64` word
/// (low half first).
#[inline]
pub fn get_u32(words: &[u64], idx: usize) -> u32 {
    (words[idx / 2] >> ((idx % 2) * 32)) as u32
}

/// Write the `idx`-th `u32` of a packed row (see [`get_u32`]).
#[inline]
pub fn set_u32(words: &mut [u64], idx: usize, v: u32) {
    let shift = (idx % 2) * 32;
    let w = &mut words[idx / 2];
    *w = (*w & !(0xffff_ffff_u64 << shift)) | (u64::from(v) << shift);
}

/// Serialize a `(scheduled set, last writes)` state into `dst` as packed
/// `u64` words: the bit-set words verbatim, then the last-write `u32`s
/// two per word. The layout is canonical — equal states produce equal
/// rows — so packed rows compare with `==` and hash with
/// [`hash_words`].
pub(crate) fn pack_state(dst: &mut Vec<u64>, placed: &BitSet, last_write: &[u32]) {
    dst.clear();
    dst.extend_from_slice(placed.words());
    let base = dst.len();
    dst.resize(base + last_write.len().div_ceil(2), 0);
    for (i, &lw) in last_write.iter().enumerate() {
        set_u32(&mut dst[base..], i, lw);
    }
}

/// A compact, arena-allocated set of visited states.
///
/// Every state is one fixed-stride row of packed `u64` words, stored
/// back-to-back in a single flat `Vec` — no per-state allocation, no
/// cloned keys. Row ids are dense `u32`s in insertion order, so callers
/// can attach parallel per-state side tables (worklists, seed lists)
/// indexed by id, and a table saved row by row and rebuilt by
/// re-inserting the rows gets the same ids back.
///
/// Deduplication is *exact*: an open-addressed index of `(hash, id)`
/// slots preselects candidates by the caller's 64-bit state hash, and
/// the full row comparison decides. The index has a power-of-two slot
/// count, probes linearly from the hash's low bits, marks an empty slot
/// with hash `0` (which [`hash_words`] and [`state_hash`] never return),
/// and doubles before it would become more than half full, so every
/// probe chain ends at an empty slot. It stores only the hash and the
/// id, so growing never rehashes or moves a row.
///
/// A `stride` of zero is legal and means every state is the empty row:
/// the table then deduplicates everything to at most one state.
#[derive(Debug, Default, Clone)]
pub struct StateSpace {
    stride: usize,
    words: Vec<u64>,
    /// `(hash, id)` per slot, hash `0` for an empty slot. Empty or a
    /// power of two long, and at most half full.
    slots: Vec<(u64, u32)>,
    len: usize,
}

/// What [`StateSpace::insert`] found or did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insert {
    /// An equal row was already stored under this id.
    Present(u32),
    /// The row was new and is now stored under this id.
    Added(u32),
    /// The row was new, but the table already held its cap of rows, so
    /// nothing was stored.
    Full,
}

/// Slot count of an index's first allocation.
const MIN_SLOTS: usize = 16;

impl StateSpace {
    /// An empty table whose rows are `stride` words wide.
    pub fn new(stride: usize) -> Self {
        StateSpace {
            stride,
            ..StateSpace::default()
        }
    }

    /// Row width in `u64` words.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Empty the table and make its rows `stride` words wide, keeping
    /// its storage for the rows and the index's first slots.
    pub(crate) fn reset(&mut self, stride: usize) {
        self.stride = stride;
        self.words.clear();
        self.slots.clear();
        self.len = 0;
    }

    /// Bytes of heap the table holds.
    pub(crate) fn heap_bytes(&self) -> usize {
        8 * self.words.capacity() + std::mem::size_of::<(u64, u32)>() * self.slots.capacity()
    }

    /// Number of distinct states stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no state has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed row of state `id`.
    pub fn row(&self, id: u32) -> &[u64] {
        let start = id as usize * self.stride;
        &self.words[start..start + self.stride]
    }

    /// Is any state stored under this hash? A cheap pre-test that lets
    /// callers skip packing the probe row on the (common) miss path.
    pub fn has_bucket(&self, hash: u64) -> bool {
        self.probe(hash, |_| true).is_ok()
    }

    /// Id of the state equal to `row`, if present. `hash` must be
    /// `hash_words(salt, row)` under the caller's fixed salt (or another
    /// never-zero function of the row).
    pub fn find(&self, hash: u64, row: &[u64]) -> Option<u32> {
        debug_assert_eq!(row.len(), self.stride);
        self.probe(hash, |id| self.row(id) == row).ok()
    }

    /// Find `row`, or store it as a new state if the table holds fewer
    /// than `cap` rows, in one walk of its probe chain. `hash` is as for
    /// [`StateSpace::find`].
    pub fn insert(&mut self, hash: u64, row: &[u64], cap: usize) -> Insert {
        debug_assert_eq!(row.len(), self.stride);
        assert!(hash != 0, "hash 0 marks an empty index slot");
        let mut slot = match self.probe(hash, |id| self.row(id) == row) {
            Ok(id) => return Insert::Present(id),
            Err(slot) => slot,
        };
        if self.len >= cap {
            return Insert::Full;
        }
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
            slot = self.vacant_slot(hash);
        }
        let id = u32::try_from(self.len).expect("state space overflow");
        self.words.extend_from_slice(row);
        self.slots[slot] = (hash, id);
        self.len += 1;
        Insert::Added(id)
    }

    /// Walk `hash`'s probe chain: `Ok` with the id of the first slot
    /// holding `hash` whose id `accept` takes, else `Err` with the empty
    /// slot that ends the chain (slot `0` of an unallocated index).
    #[inline]
    fn probe(&self, hash: u64, mut accept: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, id) = self.slots[i];
            if h == 0 {
                return Err(i);
            }
            if h == hash && accept(id) {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// The empty slot at the end of `hash`'s probe chain.
    fn vacant_slot(&self, hash: u64) -> usize {
        self.probe(hash, |_| false)
            .expect_err("a probe that accepts nothing ends at an empty slot")
    }

    /// Double the index (or allocate its first slots) and re-place every
    /// `(hash, id)`; rows and ids stay where they are.
    fn grow(&mut self) {
        if self.slots.is_empty() {
            // An empty table has nothing to re-place; a reset one reuses
            // the storage its index kept.
            self.slots.resize(MIN_SLOTS, (0, 0));
            return;
        }
        let n = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); n]);
        for (hash, id) in old {
            if hash != 0 {
                let slot = self.vacant_slot(hash);
                self.slots[slot] = (hash, id);
            }
        }
    }
}

/// Hash salt for [`NogoodStore`] rows, distinct from the scheduling
/// tables' salts. The store compares exact rows, so the salt only
/// spreads index slots.
const NOGOOD_SALT: u64 = 0x6e6f_676f_6f64;

/// A capacity-bounded, deduplicating store of *no-goods*: fixed-stride
/// packed rows (canonicalized decision sets) that some search has proved
/// unsatisfiable. This is the failed-store face of [`StateSpace`] the
/// saturation engine ([`crate::saturate`]) uses for conflict-driven
/// learning: exhausted decision prefixes and learned reason cuts are
/// stored once and recognized on any later branch that reassembles the
/// same set — including permuted (aliasing-symmetric) orderings, because
/// callers canonicalize rows by sorting before insertion.
#[derive(Debug, Clone)]
pub struct NogoodStore {
    space: StateSpace,
    cap_rows: usize,
}

impl NogoodStore {
    /// An empty store of `stride`-word rows holding at most `cap_rows`
    /// entries (bounding arena memory at `cap_rows × stride × 8` bytes).
    pub fn new(stride: usize, cap_rows: usize) -> Self {
        NogoodStore {
            space: StateSpace::new(stride),
            cap_rows,
        }
    }

    /// Row width in `u64` words.
    pub fn stride(&self) -> usize {
        self.space.stride()
    }

    /// Number of distinct no-goods stored.
    pub fn len(&self) -> usize {
        self.space.len()
    }

    /// `true` if nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.space.is_empty()
    }

    /// Whether `row` (already canonicalized by the caller) is a known
    /// no-good.
    pub fn contains(&self, row: &[u64]) -> bool {
        self.space.find(hash_words(NOGOOD_SALT, row), row).is_some()
    }

    /// Insert `row` unless it is already present or the store is at
    /// capacity; `true` means a new row was actually stored.
    pub fn insert(&mut self, row: &[u64]) -> bool {
        let hash = hash_words(NOGOOD_SALT, row);
        matches!(
            self.space.insert(hash, row, self.cap_rows),
            Insert::Added(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_packing_round_trips() {
        let mut words = vec![0u64; 3];
        let vals = [7u32, NO_WRITE, 0, 0xdead_beef, 42];
        for (i, &v) in vals.iter().enumerate() {
            set_u32(&mut words, i, v);
        }
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(get_u32(&words, i), v);
        }
        // Overwriting one half leaves its neighbor intact.
        set_u32(&mut words, 2, 99);
        assert_eq!(get_u32(&words, 3), 0xdead_beef);
        assert_eq!(get_u32(&words, 2), 99);
    }

    #[test]
    fn pack_state_is_canonical() {
        let mut a = BitSet::new(70);
        a.insert(3);
        a.insert(69);
        let lw = [NO_WRITE, 5, 0];
        let (mut r1, mut r2) = (Vec::new(), Vec::new());
        pack_state(&mut r1, &a, &lw);
        pack_state(&mut r2, &a.clone(), &lw);
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), a.words().len() + 2);
        // Any component change changes the row.
        let mut b = a.clone();
        b.insert(0);
        pack_state(&mut r2, &b, &lw);
        assert_ne!(r1, r2);
        pack_state(&mut r2, &a, &[NO_WRITE, 5, 1]);
        assert_ne!(r1, r2);
    }

    #[test]
    fn state_space_dedups_exactly() {
        let mut s = StateSpace::new(2);
        let rows: [&[u64]; 3] = [&[1, 2], &[1, 3], &[0, 2]];
        let mut ids = Vec::new();
        for r in rows {
            let h = hash_words(0, r);
            assert_eq!(s.find(h, r), None);
            match s.insert(h, r, usize::MAX) {
                Insert::Added(id) => ids.push(id),
                other => panic!("new row not added: {other:?}"),
            }
        }
        assert_eq!(ids, [0, 1, 2]);
        assert_eq!(s.len(), 3);
        for (id, r) in ids.iter().zip(rows) {
            assert_eq!(s.row(*id), r);
            assert_eq!(s.find(hash_words(0, r), r), Some(*id));
            assert_eq!(
                s.insert(hash_words(0, r), r, usize::MAX),
                Insert::Present(*id)
            );
        }
        // Colliding hashes still compare rows exactly.
        let a: &[u64] = &[9, 9];
        let b: &[u64] = &[9, 8];
        let h = hash_words(0, a);
        assert_eq!(s.insert(h, a, usize::MAX), Insert::Added(3));
        assert_eq!(s.find(h, b), None);
        assert_eq!(s.find(h, a), Some(3));
        // At the cap a known row is still found; only a new one is refused.
        assert_eq!(s.insert(h, a, 4), Insert::Present(3));
        assert_eq!(s.insert(h, b, 4), Insert::Full);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn zero_stride_collapses_to_one_state() {
        let mut s = StateSpace::new(0);
        let h = hash_words(0, &[]);
        assert!(s.is_empty());
        assert!(!s.has_bucket(h));
        assert_eq!(s.find(h, &[]), None);
        assert_eq!(s.insert(h, &[], usize::MAX), Insert::Added(0));
        assert_eq!(s.find(h, &[]), Some(0));
        assert_eq!(s.insert(h, &[], usize::MAX), Insert::Present(0));
        assert_eq!(s.len(), 1);
    }

    /// Drive a [`StateSpace`] and a reference map through the same seeded
    /// inserts and lookups. `hash` picks each row's hash, so a constant
    /// makes every row share one probe chain. Returns the table.
    fn check_against_reference(
        stride: usize,
        rows: usize,
        seed: u64,
        hash: impl Fn(&[u64]) -> u64,
    ) -> StateSpace {
        use std::collections::HashMap;
        let mut rng = smc_prng::SmallRng::seed_from_u64(seed);
        let mut s = StateSpace::new(stride);
        let mut reference: HashMap<Vec<u64>, u32> = HashMap::new();
        // Small word values, so draws repeat and inserts also hit.
        let draw = |rng: &mut smc_prng::SmallRng| -> Vec<u64> {
            (0..stride).map(|_| rng.gen_range(0..6u64)).collect()
        };
        for _ in 0..rows {
            let row = draw(&mut rng);
            let h = hash(&row);
            let want = match reference.get(&row) {
                Some(&id) => Insert::Present(id),
                None => {
                    let id = reference.len() as u32;
                    reference.insert(row.clone(), id);
                    Insert::Added(id)
                }
            };
            assert_eq!(s.insert(h, &row, usize::MAX), want, "row {row:?}");
            assert_eq!(s.len(), reference.len());
            // A fresh draw, present or not, is found exactly when the
            // reference has it, and a stored row's hash has a bucket.
            let probe = draw(&mut rng);
            let h = hash(&probe);
            assert_eq!(s.find(h, &probe), reference.get(&probe).copied());
            assert!(s.has_bucket(h) || !reference.contains_key(&probe));
        }
        for (row, &id) in &reference {
            assert_eq!(s.row(id), row.as_slice());
            assert_eq!(s.find(hash(row), row), Some(id));
            assert!(s.has_bucket(hash(row)));
        }
        s
    }

    #[test]
    fn state_space_matches_a_reference_map() {
        // Up to 6^4 = 1296 distinct rows: the index doubles many times.
        let s = check_against_reference(4, 3000, 1, |r| hash_words(0, r));
        assert!(s.slots.len() >= MIN_SLOTS << 3, "fewer than three growths");
        // Every row on one probe chain: rows still compare exactly.
        let s = check_against_reference(3, 400, 2, |_| 0x5eed);
        assert!(s.len() > MIN_SLOTS << 3);
        // A one-word key and its own hash family.
        check_against_reference(1, 200, 3, |r| hash_words(7, r));
        // Zero stride: every row is the empty row.
        check_against_reference(0, 50, 4, |r| hash_words(0, r));
        // A hash with no rows behind it has no bucket.
        let mut s = StateSpace::new(1);
        for w in 0..100u64 {
            s.insert(hash_words(0, &[w]), &[w], usize::MAX);
        }
        assert!(!s.has_bucket(hash_words(0, &[1000])));
    }

    #[test]
    fn nogood_store_dedups_and_caps() {
        let mut s = NogoodStore::new(3, 2);
        assert!(s.is_empty());
        assert_eq!(s.stride(), 3);
        let a: &[u64] = &[1, 2, 3];
        let b: &[u64] = &[1, 2, 4];
        let c: &[u64] = &[5, 0, 0];
        assert!(!s.contains(a));
        assert!(s.insert(a));
        assert!(s.contains(a));
        assert!(!s.contains(b));
        // Duplicates are rejected without consuming capacity.
        assert!(!s.insert(a));
        assert_eq!(s.len(), 1);
        assert!(s.insert(b));
        // At capacity: further inserts are dropped, lookups still work.
        assert!(!s.insert(c));
        assert_eq!(s.len(), 2);
        assert!(s.contains(b));
        assert!(!s.contains(c));
    }

    #[test]
    fn hashes_never_zero_and_salt_separates() {
        assert_ne!(hash_words(0, &[]), 0);
        assert_ne!(hash_words(0, &[0, 0, 0]), 0);
        assert_ne!(hash_words(1, &[7]), hash_words(2, &[7]));
        let mut p = BitSet::new(4);
        p.insert(1);
        let lw = [NO_WRITE, 0];
        assert_ne!(state_hash(&p, &lw), 0);
    }

    #[test]
    fn state_hash_separates_scheduled_sets() {
        // Equal last writes, scheduled sets one op apart.
        let lw = [NO_WRITE, 3];
        let mut a = BitSet::new(4);
        a.insert(1);
        let mut b = BitSet::new(4);
        b.insert(0);
        assert_ne!(state_hash(&a, &lw), state_hash(&b, &lw));
    }

    #[test]
    fn unsalted_state_hash_is_plain_fnv_over_state_words() {
        // Hashing the live state equals hashing its bit-set words
        // followed by one word per last write, with salt 0.
        let mut p = BitSet::new(70);
        p.insert(2);
        p.insert(66);
        let lw = [NO_WRITE, 5];
        let mut words = p.words().to_vec();
        words.extend(lw.iter().map(|&w| u64::from(w)));
        assert_eq!(state_hash(&p, &lw), hash_words(0, &words));
    }
}
