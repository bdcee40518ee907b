//! Canonical forms of histories under symmetry.
//!
//! Admission verdicts are invariant under bijective renamings of
//! processors, locations, and (per location) written/read values: renaming
//! carries legal views to legal views and derived orders to derived
//! orders, so two histories that differ only by such a renaming are
//! admitted by exactly the same models. This module computes a
//! deterministic *canonical form* — processors, locations, and values
//! relabeled by first-occurrence order, with processors tie-broken by a
//! stable fingerprint of their operation sequences — as a 128-bit
//! [`HistoryKey`] hash of that form plus the permutations into it.
//! Canonically-equal histories can then share one cached verdict
//! ([`crate::memo`]), and a cached witness can be translated through the
//! recorded permutations so it remains valid for every history in the
//! symmetry class. The canonical history itself is only built on request
//! ([`Canon::history`]): the memo needs just the key and the maps.
//!
//! Value renaming is sound *per location*: the legality of a view only
//! ever compares a read's value against the most recent write to the same
//! location, so a bijection on the values used at each location (fixing
//! the initial value `0`) preserves legality. Processor renaming permutes
//! the views; location renaming permutes the per-location coherence
//! orders. None of the model parameters mention concrete names.
//!
//! Processor tie groups (processors whose local fingerprints coincide) are
//! resolved by trying every permutation within the groups and keeping the
//! lexicographically least global encoding, capped at [`TIE_CAP`]
//! candidate orders. Exceeding the cap falls back to the fingerprint
//! order, which is still deterministic — it can only *miss* symmetries
//! (fewer cache hits), never conflate non-isomorphic histories.

use crate::checker::Witness;
use crate::kernel::with_scratch;
use smc_history::{History, Label, Location, OpId, OpKind, Operation, ProcId};
use std::cell::Cell;
use std::ops::Range;

/// Maximum candidate processor orders tried when resolving fingerprint
/// ties (6! — every history with at most 6 mutually-tied processors is
/// canonicalized exactly).
pub const TIE_CAP: usize = 720;

/// Separator token between per-processor blocks in the canonical
/// encoding.
const SEP: u64 = u64::MAX;

/// A 128-bit FNV-1a hash of a history's canonical encoding. Renamings of
/// one history always share a key. Distinct canonical encodings could in
/// principle collide and share a key too; at 128 bits over the histories
/// this system checks that is not a practical concern (DESIGN §7).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HistoryKey(pub u128);

impl std::fmt::Debug for HistoryKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HistoryKey({:032x})", self.0)
    }
}

impl std::fmt::Display for HistoryKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// FNV-1a over the little-endian bytes of a token stream, widened to 128
/// bits. A token below 256 is one byte and seven zero bytes, and hashing
/// a zero byte is one multiplication by the prime, so such a token costs
/// one multiplication by the prime's eighth power.
fn fnv128(tokens: &[u64]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;
    const PRIME_POW_8: u128 = PRIME.wrapping_pow(8);
    let mut h = OFFSET;
    for &t in tokens {
        if t < 256 {
            h = (h ^ t as u128).wrapping_mul(PRIME_POW_8);
            continue;
        }
        for b in t.to_le_bytes() {
            h ^= b as u128;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// A history's canonical form: its key, and the permutations needed to
/// translate witnesses between the original and canonical coordinates.
/// [`Canon::history`] builds the canonical history itself.
#[derive(Debug, Clone)]
pub struct Canon {
    /// Hash of the canonical encoding.
    pub key: HistoryKey,
    op_to_canon: Vec<OpId>,
    op_from_canon: Vec<OpId>,
    proc_to_canon: Vec<ProcId>,
    loc_to_canon: Vec<Option<Location>>,
    loc_from_canon: Vec<Location>,
}

fn op_tag(kind: OpKind, label: Label) -> u64 {
    (matches!(kind, OpKind::Write) as u64) | ((matches!(label, Label::Labeled) as u64) << 1)
}

/// First-occurrence relabeling of locations and, per relabeled location,
/// of non-initial values. [`Relabel::reset`] starts a new relabeling and
/// keeps the tables' storage, so one instance serves every fingerprint and
/// candidate encoding of a canonicalization, and [`Relabel::resize`]
/// every history a thread canonicalizes.
#[derive(Default)]
struct Relabel {
    /// Original location → relabeled location.
    locs: Vec<Option<u32>>,
    /// Per relabeled location, its non-initial values in first-occurrence
    /// order (the value relabeled `i + 1` is at index `i`).
    vals: Vec<Vec<i64>>,
    /// Relabeled locations in use; `vals` beyond them is spare storage.
    used: usize,
}

impl Relabel {
    fn new(num_locs: usize) -> Self {
        Relabel {
            locs: vec![None; num_locs],
            vals: Vec::new(),
            used: 0,
        }
    }

    /// Start a relabeling of a history with `num_locs` locations.
    fn resize(&mut self, num_locs: usize) {
        self.reset();
        self.locs.resize(num_locs, None);
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Option<u32>>() * self.locs.capacity()
            + std::mem::size_of::<Vec<i64>>() * self.vals.capacity()
            + self.vals.iter().map(|v| 8 * v.capacity()).sum::<usize>()
    }

    fn reset(&mut self) {
        self.locs.fill(None);
        for vals in &mut self.vals[..self.used] {
            vals.clear();
        }
        self.used = 0;
    }

    /// The relabeled location and value of `o`, relabeling them if they
    /// are new.
    fn relabel(&mut self, o: &Operation) -> (usize, u64) {
        let l = match self.locs[o.loc.index()] {
            Some(l) => l as usize,
            None => {
                let l = self.used;
                self.locs[o.loc.index()] = Some(l as u32);
                if self.vals.len() == l {
                    self.vals.push(Vec::new());
                }
                self.used += 1;
                l
            }
        };
        if o.value.is_initial() {
            return (l, 0);
        }
        let vals = &mut self.vals[l];
        let v = match vals.iter().position(|&x| x == o.value.0) {
            Some(i) => i + 1,
            None => {
                vals.push(o.value.0);
                vals.len()
            }
        };
        (l, v as u64)
    }

    /// Append `p`'s operations to `out` as `(tag, location, value)`
    /// tokens under this relabeling.
    fn encode_proc(&mut self, h: &History, p: usize, out: &mut Vec<u64>) {
        for o in h.proc_ops(ProcId(p as u32)) {
            let (l, v) = self.relabel(o);
            out.extend([op_tag(o.kind, o.label), l as u64, v]);
        }
    }
}

/// Encode the history into `out` under a candidate processor order, with
/// global first-occurrence relabeling of locations and per-location
/// values.
fn encode_order(h: &History, order: &[usize], relabel: &mut Relabel, out: &mut Vec<u64>) {
    relabel.reset();
    out.clear();
    out.push(h.num_procs() as u64);
    for &p in order {
        out.push(SEP);
        relabel.encode_proc(h, p, out);
    }
}

/// Step `v` to its next lexicographic permutation; on the last one, wrap
/// around to ascending order and return `false`.
fn next_permutation(v: &mut [usize]) -> bool {
    let Some(i) = v.windows(2).rposition(|w| w[0] < w[1]) else {
        v.reverse();
        return false;
    };
    let j = v.iter().rposition(|&x| x > v[i]).expect("v[i + 1] > v[i]");
    v.swap(i, j);
    v[i + 1..].reverse();
    true
}

/// Step `order` to the next candidate processor order: every permutation
/// inside each tie group, the last group stepping fastest. Each group
/// starts (and wraps back to) ascending, its fingerprint-sorted order.
/// Returns `false` after the last candidate.
fn next_candidate(order: &mut [usize], groups: &[Range<usize>]) -> bool {
    groups
        .iter()
        .rev()
        .any(|g| next_permutation(&mut order[g.clone()]))
}

/// The temporaries of one canonicalization. Each thread keeps one idle
/// scratch in [`SCRATCH`] ([`crate::kernel::with_scratch`]), so a sweep
/// canonicalizes history after history without reallocating them.
#[derive(Default)]
struct Scratch {
    relabel: Relabel,
    /// Every processor's fingerprint, back to back; processor `p`'s is
    /// `fingerprints[bounds[p]..bounds[p + 1]]`.
    fingerprints: Vec<u64>,
    bounds: Vec<usize>,
    /// The candidate processor order being encoded.
    order: Vec<usize>,
    groups: Vec<Range<usize>>,
    best_order: Vec<usize>,
    best: Vec<u64>,
    candidate: Vec<u64>,
}

impl Scratch {
    fn heap_bytes(&self) -> usize {
        self.relabel.heap_bytes()
            + 8 * (self.fingerprints.capacity()
                + self.bounds.capacity()
                + self.order.capacity()
                + self.best_order.capacity()
                + self.best.capacity()
                + self.candidate.capacity())
            + std::mem::size_of::<Range<usize>>() * self.groups.capacity()
    }
}

thread_local! {
    /// This thread's idle canonicalization scratch, if it has one.
    static SCRATCH: Cell<Option<Scratch>> = const { Cell::new(None) };
}

/// Compute the canonical form of `h`.
pub fn canonicalize(h: &History) -> Canon {
    with_scratch(&SCRATCH, Scratch::heap_bytes, |s| canonicalize_in(h, s))
}

fn canonicalize_in(h: &History, s: &mut Scratch) -> Canon {
    let n = h.num_procs();
    let Scratch {
        relabel,
        fingerprints,
        bounds,
        order,
        groups,
        best_order,
        best,
        candidate,
    } = s;
    relabel.resize(h.num_locs());

    // 1. Fingerprint-sort the processors. A processor's fingerprint is
    //    its operation sequence with locations and values relabeled by
    //    first occurrence *within the processor*: invariant under any
    //    global renaming. The sort is stable, so the base order is
    //    deterministic; ties are resolved by encoding minimization below.
    fingerprints.clear();
    bounds.clear();
    bounds.push(0);
    for p in 0..n {
        relabel.reset();
        relabel.encode_proc(h, p, fingerprints);
        bounds.push(fingerprints.len());
    }
    let fingerprint = |p: usize| &fingerprints[bounds[p]..bounds[p + 1]];
    order.clear();
    order.extend(0..n);
    order.sort_by(|&a, &b| fingerprint(a).cmp(fingerprint(b)));

    // 2. Tie groups: maximal runs of equal fingerprints in the base order.
    groups.clear();
    let mut start = 0;
    for i in 1..=n {
        if i == n || fingerprint(order[i]) != fingerprint(order[start]) {
            if i - start > 1 {
                groups.push(start..i);
            }
            start = i;
        }
    }

    // 3. Lexicographically least encoding over the candidate orders: the
    //    base order, then (if the groups' permutations number at most
    //    TIE_CAP) every other one. The first least encoding wins.
    best_order.clone_from(order);
    encode_order(h, order, relabel, best);
    let within_cap = groups
        .iter()
        .flat_map(|g| 2..=g.len())
        .try_fold(1usize, |combos, k| {
            Some(combos * k).filter(|&c| c <= TIE_CAP)
        })
        .is_some();
    if within_cap {
        while next_candidate(order, groups) {
            encode_order(h, order, relabel, candidate);
            if candidate < best {
                std::mem::swap(best, candidate);
                best_order.copy_from_slice(order);
            }
        }
    }

    // 4. The permutations for the winner.
    let mut proc_to_canon = vec![ProcId(0); n];
    let mut loc_to_canon: Vec<Option<Location>> = vec![None; h.num_locs()];
    let mut loc_from_canon: Vec<Location> = Vec::new();
    let mut op_to_canon = vec![OpId(0); h.num_ops()];
    let mut op_from_canon = Vec::with_capacity(h.num_ops());
    for (c, &p) in best_order.iter().enumerate() {
        proc_to_canon[p] = ProcId(c as u32);
        for o in h.proc_ops(ProcId(p as u32)) {
            if loc_to_canon[o.loc.index()].is_none() {
                loc_to_canon[o.loc.index()] = Some(Location(loc_from_canon.len() as u32));
                loc_from_canon.push(o.loc);
            }
            op_to_canon[o.id.index()] = OpId(op_from_canon.len() as u32);
            op_from_canon.push(o.id);
        }
    }

    Canon {
        key: HistoryKey(fnv128(best)),
        op_to_canon,
        op_from_canon,
        proc_to_canon,
        loc_to_canon,
        loc_from_canon,
    }
}

impl Canon {
    /// The canonical history: processors `p0, p1, ...`, locations `x0,
    /// x1, ...`, values renumbered per location. `h` must be the history
    /// this form was computed from.
    pub fn history(&self, h: &History) -> History {
        let mut procs = vec![ProcId(0); self.proc_to_canon.len()];
        for (p, c) in self.proc_to_canon.iter().enumerate() {
            procs[c.index()] = ProcId(p as u32);
        }
        let mut relabel = Relabel::new(h.num_locs());
        let mut b = smc_history::HistoryBuilder::new();
        for (c, &p) in procs.iter().enumerate() {
            let name = format!("p{c}");
            b.add_proc(&name);
            for o in h.proc_ops(p) {
                let (l, v) = relabel.relabel(o);
                b.push(&name, o.kind, &format!("x{l}"), v as i64, o.label);
            }
        }
        b.build()
    }

    /// Map an original operation id into canonical coordinates.
    pub fn op_to_canon(&self, o: OpId) -> OpId {
        self.op_to_canon[o.index()]
    }

    /// Map a canonical operation id back to original coordinates.
    pub fn op_from_canon(&self, o: OpId) -> OpId {
        self.op_from_canon[o.index()]
    }

    fn map_ops(&self, ops: &[OpId]) -> Vec<OpId> {
        ops.iter().map(|&o| self.op_to_canon[o.index()]).collect()
    }

    /// Map canonical operation ids back, or `None` if one is out of range.
    fn unmap_ops(&self, ops: &[OpId]) -> Option<Vec<OpId>> {
        ops.iter()
            .map(|&o| self.op_from_canon.get(o.index()).copied())
            .collect()
    }

    /// Translate a witness for the *original* history into canonical
    /// coordinates (valid for [`Canon::history`] by the renaming-symmetry
    /// of all witness components).
    pub fn witness_to_canon(&self, w: &Witness) -> Witness {
        let mut views = vec![Vec::new(); self.proc_to_canon.len()];
        for (p, view) in w.views.iter().enumerate() {
            views[self.proc_to_canon[p].index()] = self.map_ops(view);
        }
        let coherence = w.coherence.as_ref().map(|coh| {
            self.loc_from_canon
                .iter()
                .map(|lo| self.map_ops(&coh[lo.index()]))
                .collect()
        });
        let reads_from = w.reads_from.as_ref().map(|rf| {
            let mut out = vec![None; rf.len()];
            for (i, src) in rf.iter().enumerate() {
                out[self.op_to_canon[i].index()] = src.map(|s| self.op_to_canon[s.index()]);
            }
            out
        });
        Witness {
            views,
            store_order: w.store_order.as_deref().map(|s| self.map_ops(s)),
            coherence,
            labeled_order: w.labeled_order.as_deref().map(|t| self.map_ops(t)),
            reads_from,
        }
    }

    /// Translate a witness in canonical coordinates back into a witness
    /// for the original history. Panics if the witness does not fit the
    /// history; see [`Canon::try_witness_from_canon`].
    pub fn witness_from_canon(&self, w: &Witness) -> Witness {
        self.try_witness_from_canon(w)
            .expect("the witness fits the history")
    }

    /// [`Canon::witness_from_canon`], or `None` if the witness does not
    /// fit the history: a view count, operation id, location or
    /// reads-from slot out of range. Memo entries can come from files, so
    /// the memo translates through this.
    pub fn try_witness_from_canon(&self, w: &Witness) -> Option<Witness> {
        if w.views.len() != self.proc_to_canon.len() {
            return None;
        }
        let views = self
            .proc_to_canon
            .iter()
            .map(|c| self.unmap_ops(&w.views[c.index()]))
            .collect::<Option<_>>()?;
        let coherence = match &w.coherence {
            None => None,
            Some(coh) if coh.len() != self.loc_from_canon.len() => return None,
            Some(coh) => Some(
                self.loc_to_canon
                    .iter()
                    .map(|lc| match lc {
                        Some(lc) => self.unmap_ops(&coh[lc.index()]),
                        // A location the history never touches has no writes.
                        None => Some(Vec::new()),
                    })
                    .collect::<Option<_>>()?,
            ),
        };
        let reads_from = match &w.reads_from {
            None => None,
            Some(rf) if rf.len() != self.op_to_canon.len() => return None,
            Some(rf) => Some(
                self.op_to_canon
                    .iter()
                    .map(|c| match rf[c.index()] {
                        None => Some(None),
                        Some(s) => self.op_from_canon.get(s.index()).copied().map(Some),
                    })
                    .collect::<Option<_>>()?,
            ),
        };
        let store_order = match &w.store_order {
            None => None,
            Some(s) => Some(self.unmap_ops(s)?),
        };
        let labeled_order = match &w.labeled_order {
            None => None,
            Some(t) => Some(self.unmap_ops(t)?),
        };
        Some(Witness {
            views,
            store_order,
            coherence,
            labeled_order,
            reads_from,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_history::litmus::parse_history;

    #[test]
    fn canonical_form_is_idempotent() {
        for text in [
            "p: w(x)1 r(y)0\nq: w(y)1 r(x)0",
            "p: w(x)5\nq: w(x)5\nr: r(x)5 r(x)5",
            "a: w(m)3 wl(s)1\nb: rl(s)1 r(m)3",
        ] {
            let h = parse_history(text).unwrap();
            let c1 = canonicalize(&h);
            let h1 = c1.history(&h);
            let c2 = canonicalize(&h1);
            assert_eq!(c1.key, c2.key, "{text}");
            assert_eq!(h1, c2.history(&h1), "{text}");
        }
    }

    #[test]
    fn renamed_histories_share_a_key() {
        // Same history with processors swapped, locations renamed, and
        // values shifted (7 ↔ 1, 9 ↔ 1 per location).
        let a = parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap();
        let b = parse_history("u: w(n)9 r(m)0\nt: w(m)7 r(n)0").unwrap();
        assert_eq!(canonicalize(&a).key, canonicalize(&b).key);
        assert_eq!(canonicalize(&a).history(&a), canonicalize(&b).history(&b));
    }

    #[test]
    fn different_histories_get_different_keys() {
        let a = parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap();
        let b = parse_history("p: w(x)1 r(y)1\nq: w(y)1 r(x)0").unwrap();
        let c = parse_history("p: w(x)1\nq: r(x)1").unwrap();
        assert_ne!(canonicalize(&a).key, canonicalize(&b).key);
        assert_ne!(canonicalize(&a).key, canonicalize(&c).key);
    }

    #[test]
    fn value_renaming_is_per_location() {
        // Values are renamed per location, so cross-location value
        // equality must NOT be canonicalized away: these two differ (the
        // first reuses 1 across locations, the second doesn't) yet both
        // canonicalize to the same form because value identity only
        // matters within a location.
        let a = parse_history("p: w(x)1 w(y)1").unwrap();
        let b = parse_history("p: w(x)1 w(y)2").unwrap();
        assert_eq!(canonicalize(&a).key, canonicalize(&b).key);
        // ...but reusing a value at the SAME location is structural.
        let c = parse_history("p: w(x)1 w(x)1").unwrap();
        let d = parse_history("p: w(x)1 w(x)2").unwrap();
        assert_ne!(canonicalize(&c).key, canonicalize(&d).key);
    }

    #[test]
    fn empty_and_tiny_histories() {
        let empty = smc_history::HistoryBuilder::new().build();
        let c = canonicalize(&empty);
        assert_eq!(c.history(&empty).num_ops(), 0);
        let single = parse_history("p: w(x)1").unwrap();
        let c = canonicalize(&single);
        assert_eq!(c.history(&single).num_ops(), 1);
        assert_eq!(canonicalize(&c.history(&single)).key, c.key);
    }

    #[test]
    fn tie_broken_processors_are_invariant() {
        // Three processors with identical shapes; any listing order must
        // canonicalize identically.
        let a = parse_history("p: w(x)1\nq: w(x)2\nr: r(x)1").unwrap();
        let b = parse_history("p: r(x)7\nq: w(x)7\nr: w(x)3").unwrap();
        // a: procs write/write/read; b: read/write/write with renamed
        // values. Isomorphic via p↔r swap and value bijection.
        assert_eq!(canonicalize(&a).key, canonicalize(&b).key);
    }

    #[test]
    fn witness_round_trip() {
        let h = parse_history("q: w(y)1\np: r(y)1").unwrap();
        let c = canonicalize(&h);
        let w = crate::checker::Witness {
            views: vec![vec![OpId(0), OpId(1)], vec![OpId(0), OpId(1)]],
            store_order: Some(vec![OpId(0)]),
            coherence: Some(vec![vec![OpId(0)]]),
            labeled_order: None,
            reads_from: Some(vec![None, Some(OpId(0))]),
        };
        let back = c.witness_from_canon(&c.witness_to_canon(&w));
        assert_eq!(back, w);
    }

    #[test]
    fn canonical_keys_and_op_maps_are_pinned() {
        // Memo files store these keys: a key that moves makes every saved
        // file miss. The digest folds every key and op map of the 3×2×2×1
        // universe, in generation order.
        let params = crate::histgen::GenParams {
            procs: 3,
            ops_per_proc: 2,
            locs: 2,
            values: 1,
        };
        let mut d = 0u128;
        for h in crate::histgen::all_histories(&params) {
            let c = canonicalize(&h);
            d = d.rotate_left(5) ^ c.key.0;
            for i in 0..h.num_ops() {
                d = d.rotate_left(3) ^ u128::from(c.op_to_canon(OpId(i as u32)).0);
            }
        }
        assert_eq!(d, 0x29d276418cf8a4a4823112df2dfb3bd4);

        let key = |text: &str| canonicalize(&parse_history(text).unwrap()).key.to_string();
        let empty = canonicalize(&smc_history::HistoryBuilder::new().build());
        assert_eq!(empty.key.to_string(), "9d30c1f78465995be47dda5e4e4e77ed");
        assert_eq!(
            key("p: w(x)1 r(y)0\nq: w(y)1 r(x)0"),
            "dd261426447f30cf471d8de578f205df"
        );
        let tied = parse_history("p: w(x)1\nq: w(x)2\nr: r(x)1").unwrap();
        let c = canonicalize(&tied);
        assert_eq!(c.key.to_string(), "6ac86c9df1364bfd5f9ae7cfc9748494");
        let map: Vec<u32> = (0..3).map(|i| c.op_to_canon(OpId(i)).0).collect();
        assert_eq!(map, [1, 2, 0]);
        // Seven tied processors: 7! candidate orders exceed `TIE_CAP`.
        let seven: Vec<String> = (0..7).map(|p| format!("p{p}: w(x)1")).collect();
        assert_eq!(key(&seven.join("\n")), "c6b6f948928f39a9490e28d5660b6ef2");
    }
}
