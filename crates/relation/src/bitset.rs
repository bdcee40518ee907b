//! A dense, fixed-universe bit set.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

const BITS: usize = 64;

/// Words a set keeps inline: a universe of up to `INLINE * 64` elements
/// needs no heap allocation.
const INLINE: usize = 2;

/// A bit set over the universe `0..len`, backed by `u64` words.
///
/// All set-algebra operations require both operands to share the same
/// universe size (this is checked in debug builds). The set is `Hash`able
/// and `Ord`-comparable so it can key memoization tables in the view
/// search: equality, order and hash are those of the pair (its words,
/// `len`). A universe of at most 128 elements keeps its words inline,
/// so building or cloning such a set allocates nothing.
#[derive(Clone)]
pub struct BitSet {
    words: Words,
    len: usize,
}

/// A set's `len.div_ceil(64)` words: inline for a small universe (the
/// words past the universe stay zero), on the heap otherwise.
#[derive(Clone)]
enum Words {
    Inline([u64; INLINE]),
    Heap(Vec<u64>),
}

impl Words {
    fn zeroed(n: usize) -> Self {
        if n <= INLINE {
            Words::Inline([0; INLINE])
        } else {
            Words::Heap(vec![0; n])
        }
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        self.words() == other.words() && self.len == other.len
    }
}

impl Eq for BitSet {}

impl PartialOrd for BitSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitSet {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.words(), self.len).cmp(&(other.words(), other.len))
    }
}

impl Hash for BitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words().hash(state);
        self.len.hash(state);
    }
}

impl BitSet {
    /// The empty set over universe `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: Words::zeroed(len.div_ceil(BITS)),
            len,
        }
    }

    /// The full set over universe `0..len`.
    pub fn full(len: usize) -> Self {
        let mut s = Self::new(len);
        for i in 0..len {
            s.insert(i);
        }
        s
    }

    /// Empty the set and make its universe `0..len`, keeping its storage.
    pub fn reset(&mut self, len: usize) {
        let n = len.div_ceil(BITS);
        match &mut self.words {
            Words::Heap(words) if n > INLINE => {
                words.clear();
                words.resize(n, 0);
            }
            words => *words = Words::zeroed(n),
        }
        self.len = len;
    }

    /// Build a set from an iterator of indices.
    pub fn from_iter(len: usize, iter: impl IntoIterator<Item = usize>) -> Self {
        let mut s = Self::new(len);
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// Size of the universe (NOT the number of elements; see
    /// [`BitSet::count`]).
    #[inline]
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Number of elements currently in the set.
    #[inline]
    pub fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Insert `i`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "index {i} out of universe {}", self.len);
        let (w, b) = (i / BITS, i % BITS);
        let word = &mut self.words_mut()[w];
        let fresh = *word & (1 << b) == 0;
        *word |= 1 << b;
        fresh
    }

    /// Remove `i`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (w, b) = (i / BITS, i % BITS);
        let word = &mut self.words_mut()[w];
        let present = *word & (1 << b) != 0;
        *word &= !(1 << b);
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words()[i / BITS] & (1 << (i % BITS)) != 0
    }

    /// In-place union: `self ∪= other`.
    #[inline]
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a |= b;
        }
    }

    /// In-place intersection: `self ∩= other`.
    #[inline]
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= b;
        }
    }

    /// In-place difference: `self \= other`.
    #[inline]
    pub fn difference_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= !b;
        }
    }

    /// `true` if `self ⊆ other`.
    #[inline]
    pub fn is_subset(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & !b == 0)
    }

    /// `true` if `self ∩ other = ∅`.
    #[inline]
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & b == 0)
    }

    /// Remove all elements.
    #[inline]
    pub fn clear(&mut self) {
        self.words_mut().iter_mut().for_each(|w| *w = 0);
    }

    /// Iterate over the elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * BITS + b)
                }
            })
        })
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// The backing words, `len.div_ceil(64)` of them, exposed for fast
    /// hashing of search states.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(words) => &words[..self.len.div_ceil(BITS)],
            Words::Heap(words) => words,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(words) => &mut words[..self.len.div_ceil(BITS)],
            Words::Heap(words) => words,
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_iter(10, [1, 3, 5]);
        let b = BitSet::from_iter(10, [3, 5, 7]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 3, 5, 7]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3, 5]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1]);
        assert!(i.is_subset(&a) && i.is_subset(&b));
        assert!(!a.is_subset(&b));
        assert!(d.is_disjoint(&b));
    }

    #[test]
    fn reset_changes_the_universe_and_empties() {
        let mut s = BitSet::from_iter(130, [0, 129]);
        s.reset(70);
        assert_eq!(s, BitSet::new(70));
        s.insert(69);
        s.reset(3);
        assert_eq!(s, BitSet::new(3));
    }

    #[test]
    fn full_and_clear() {
        let mut f = BitSet::full(70);
        assert_eq!(f.count(), 70);
        assert!(f.contains(69));
        f.clear();
        assert!(f.is_empty());
        assert_eq!(BitSet::new(0).count(), 0);
    }

    #[test]
    fn iteration_order_is_ascending() {
        let s = BitSet::from_iter(200, [199, 0, 63, 64, 65]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 199]);
        assert_eq!(s.first(), Some(0));
        assert_eq!(BitSet::new(5).first(), None);
    }

    #[test]
    fn inline_and_heap_sets_agree_with_their_words() {
        use std::collections::hash_map::DefaultHasher;
        // The derived impls over `(Vec<u64>, usize)` that equality, order
        // and hash must match, for inline and heap universes alike.
        #[derive(PartialEq, Eq, PartialOrd, Ord, Hash)]
        struct Plain(Vec<u64>, usize);
        let plain = |s: &BitSet| Plain(s.words().to_vec(), s.universe());
        let hash = |x: &dyn Fn(&mut DefaultHasher)| {
            let mut h = DefaultHasher::new();
            x(&mut h);
            h.finish()
        };
        let sets = [
            BitSet::new(0),
            BitSet::from_iter(3, [1]),
            BitSet::from_iter(64, [0, 63]),
            BitSet::from_iter(65, [64]),
            BitSet::from_iter(128, [127]),
            BitSet::from_iter(128, [0, 127]),
            BitSet::from_iter(129, [128]),
            BitSet::from_iter(200, [0, 199]),
            BitSet::full(200),
        ];
        for a in &sets {
            assert_eq!(a.words().len(), a.universe().div_ceil(64));
            for b in &sets {
                assert_eq!(a == b, plain(a) == plain(b));
                assert_eq!(a.cmp(b), plain(a).cmp(&plain(b)));
            }
            assert_eq!(hash(&|h| a.hash(h)), hash(&|h| plain(a).hash(h)), "{a:?}");
        }
        // A reset set is equal to a fresh one, across the inline bound.
        let mut s = BitSet::full(200);
        s.reset(100);
        assert_eq!(s, BitSet::new(100));
        s.insert(99);
        s.reset(130);
        assert_eq!(s, BitSet::new(130));
    }

    #[test]
    fn hash_and_ord_usable_as_key() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        let a = BitSet::from_iter(10, [1, 2]);
        let b = BitSet::from_iter(10, [1, 2]);
        seen.insert(a);
        assert!(seen.contains(&b));
    }
}
