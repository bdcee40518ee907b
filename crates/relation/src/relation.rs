//! Dense bit-matrix binary relations.

use crate::bitset::BitSet;
use std::fmt;

/// A binary relation over the universe `0..n`, stored as one successor
/// [`BitSet`] per element.
///
/// An edge `(a, b)` is read "`a` is ordered before `b`". Relations are the
/// lingua franca of the checker: derived orders (`po`, `ppo`, `wb`, `co`,
/// `sem`), enumerated store/coherence orders, and per-view constraint sets
/// are all `Relation`s that get unioned together.
#[derive(Clone, PartialEq, Eq)]
pub struct Relation {
    n: usize,
    rows: Vec<BitSet>,
}

impl Relation {
    /// The empty relation over `0..n`.
    pub fn new(n: usize) -> Self {
        Relation {
            n,
            rows: (0..n).map(|_| BitSet::new(n)).collect(),
        }
    }

    /// Build from an edge list.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut r = Self::new(n);
        for (a, b) in edges {
            r.add(a, b);
        }
        r
    }

    /// Universe size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the universe is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Add the edge `a → b`; returns `true` if it was new.
    #[inline]
    pub fn add(&mut self, a: usize, b: usize) -> bool {
        self.rows[a].insert(b)
    }

    /// Remove the edge `a → b`.
    #[inline]
    pub fn remove(&mut self, a: usize, b: usize) -> bool {
        self.rows[a].remove(b)
    }

    /// Edge test: is `a` ordered before `b`?
    #[inline]
    pub fn has(&self, a: usize, b: usize) -> bool {
        self.rows[a].contains(b)
    }

    /// The successor set of `a` (everything `a` is ordered before).
    #[inline]
    pub fn successors(&self, a: usize) -> &BitSet {
        &self.rows[a]
    }

    /// The predecessor set of `b`, computed by column scan.
    pub fn predecessors(&self, b: usize) -> BitSet {
        let mut s = BitSet::new(self.n);
        for a in 0..self.n {
            if self.rows[a].contains(b) {
                s.insert(a);
            }
        }
        s
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.rows.iter().map(BitSet::count).sum()
    }

    /// Iterate over all edges `(a, b)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(a, row)| row.iter().map(move |b| (a, b)))
    }

    /// In-place union with another relation over the same universe.
    pub fn union_with(&mut self, other: &Relation) {
        assert_eq!(self.n, other.n, "relation universes differ");
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            a.union_with(b);
        }
    }

    /// The composition `self ; other` (`a → c` iff `a →self b →other c`).
    pub fn compose(&self, other: &Relation) -> Relation {
        assert_eq!(self.n, other.n);
        let mut out = Relation::new(self.n);
        for a in 0..self.n {
            let row = &mut out.rows[a];
            for b in self.rows[a].iter() {
                row.union_with(&other.rows[b]);
            }
        }
        out
    }

    /// In-place transitive closure (Floyd–Warshall with bit-set rows:
    /// `O(n² · n/64)` words).
    pub fn transitive_closure(&mut self) {
        for k in 0..self.n {
            // The pivot step updates every row but row k, so the other
            // rows read row k in place instead of a copy.
            let (before, rest) = self.rows.split_at_mut(k);
            let (row_k, after) = rest.split_first_mut().expect("k < n");
            for row in before.iter_mut().chain(after) {
                if row.contains(k) {
                    row.union_with(row_k);
                }
            }
        }
    }

    /// A transitively-closed copy.
    pub fn closed(&self) -> Relation {
        let mut r = self.clone();
        r.transitive_closure();
        r
    }

    /// `true` if the relation (viewed as a digraph) has no directed cycle.
    ///
    /// Self-loops count as cycles. Kahn's algorithm without recording an
    /// order: `O(n²/64 + e)` on the bit-matrix representation.
    pub fn is_acyclic(&self) -> bool {
        self.kahn(|_| {}) == self.n
    }

    /// A topological order of the universe consistent with the relation, or
    /// `None` if it is cyclic. Ties are broken by ascending index, making
    /// the output deterministic.
    pub fn topo_sort(&self) -> Option<Vec<usize>> {
        let mut out = Vec::with_capacity(self.n);
        (self.kahn(|i| out.push(i)) == self.n).then_some(out)
    }

    /// Kahn's algorithm: hand each element to `emit` once all its
    /// predecessors have been emitted, always the least such index, and
    /// return how many were emitted (fewer than `n` iff there is a cycle).
    fn kahn(&self, mut emit: impl FnMut(usize)) -> usize {
        let mut indeg = vec![0u32; self.n];
        for row in &self.rows {
            for b in row.iter() {
                indeg[b] += 1;
            }
        }
        let mut ready = BitSet::from_iter(self.n, (0..self.n).filter(|&i| indeg[i] == 0));
        let mut emitted = 0;
        while let Some(i) = ready.first() {
            ready.remove(i);
            emit(i);
            emitted += 1;
            for b in self.rows[i].iter() {
                indeg[b] -= 1;
                if indeg[b] == 0 {
                    ready.insert(b);
                }
            }
        }
        emitted
    }

    /// Restrict the relation to the elements of `keep`, reindexing densely
    /// in ascending order of original index. Returns the restricted
    /// relation and the map from new index to old.
    pub fn restrict(&self, keep: &BitSet) -> (Relation, Vec<usize>) {
        let old: Vec<usize> = keep.iter().collect();
        let mut new_of_old = vec![usize::MAX; self.n];
        for (new, &o) in old.iter().enumerate() {
            new_of_old[o] = new;
        }
        let mut out = Relation::new(old.len());
        for (new_a, &a) in old.iter().enumerate() {
            for b in self.rows[a].iter() {
                if keep.contains(b) {
                    out.add(new_a, new_of_old[b]);
                }
            }
        }
        (out, old)
    }

    /// `true` if `self ⊆ other` edge-wise.
    pub fn is_subrelation(&self, other: &Relation) -> bool {
        assert_eq!(self.n, other.n);
        self.rows
            .iter()
            .zip(&other.rows)
            .all(|(a, b)| a.is_subset(b))
    }

    /// Add the total order `seq[0] → seq[1] → ...` (all transitive pairs).
    pub fn add_total_order(&mut self, seq: &[usize]) {
        for i in 0..seq.len() {
            for j in i + 1..seq.len() {
                self.add(seq[i], seq[j]);
            }
        }
    }

    /// `true` if `order` is a linear extension of this relation restricted
    /// to exactly the elements of `order` (i.e. no edge among those
    /// elements points backwards).
    pub fn respects(&self, order: &[usize]) -> bool {
        let mut pos = vec![usize::MAX; self.n];
        for (i, &o) in order.iter().enumerate() {
            pos[o] = i;
        }
        for (i, &a) in order.iter().enumerate() {
            for b in self.rows[a].iter() {
                if pos[b] != usize::MAX && pos[b] < i {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation({} nodes: ", self.n)?;
        f.debug_list().entries(self.edges()).finish()?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_and_queries() {
        let r = Relation::from_edges(4, [(0, 1), (1, 2), (0, 3)]);
        assert!(r.has(0, 1));
        assert!(!r.has(1, 0));
        assert_eq!(r.num_edges(), 3);
        assert_eq!(r.successors(0).iter().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(r.predecessors(2).iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(r.edges().count(), 3);
    }

    #[test]
    fn transitive_closure_basic() {
        let mut r = Relation::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        r.transitive_closure();
        assert!(r.has(0, 3) && r.has(0, 2) && r.has(1, 3));
        assert!(!r.has(3, 0));
        // Idempotent.
        let again = r.closed();
        assert_eq!(again, r);
    }

    #[test]
    fn closure_detects_cycles_as_self_reachability() {
        let mut r = Relation::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        r.transitive_closure();
        assert!(r.has(0, 0));
        assert!(!r.is_acyclic());
    }

    #[test]
    fn compose() {
        let a = Relation::from_edges(4, [(0, 1), (2, 3)]);
        let b = Relation::from_edges(4, [(1, 2), (3, 0)]);
        let c = a.compose(&b);
        assert!(c.has(0, 2));
        assert!(c.has(2, 0));
        assert_eq!(c.num_edges(), 2);
    }

    #[test]
    fn topo_sort_deterministic_and_valid() {
        let r = Relation::from_edges(5, [(3, 1), (1, 0), (4, 0)]);
        let t = r.topo_sort().unwrap();
        assert_eq!(t.len(), 5);
        assert!(r.respects(&t));
        // Ties broken ascending: 2 (free) comes as early as allowed.
        assert_eq!(t, vec![2, 3, 1, 4, 0]);
        assert!(Relation::from_edges(2, [(0, 1), (1, 0)])
            .topo_sort()
            .is_none());
    }

    #[test]
    fn acyclic_checks() {
        assert!(Relation::from_edges(3, [(0, 1), (1, 2)]).is_acyclic());
        assert!(!Relation::from_edges(1, [(0, 0)]).is_acyclic());
        assert!(Relation::new(0).is_acyclic());
    }

    #[test]
    fn restrict_reindexes() {
        let r = Relation::from_edges(5, [(0, 2), (2, 4), (1, 3)]);
        let keep = BitSet::from_iter(5, [0, 2, 4]);
        let (sub, back) = r.restrict(&keep);
        assert_eq!(back, vec![0, 2, 4]);
        assert!(sub.has(0, 1)); // 0→2
        assert!(sub.has(1, 2)); // 2→4
        assert_eq!(sub.num_edges(), 2);
    }

    #[test]
    fn union_and_subrelation() {
        let a = Relation::from_edges(3, [(0, 1)]);
        let b = Relation::from_edges(3, [(1, 2)]);
        let mut u = a.clone();
        u.union_with(&b);
        assert!(a.is_subrelation(&u) && b.is_subrelation(&u));
        assert!(!u.is_subrelation(&a));
        assert_eq!(u.num_edges(), 2);
    }

    #[test]
    fn total_order_and_respects() {
        let mut r = Relation::new(4);
        r.add_total_order(&[2, 0, 3]);
        assert!(r.has(2, 0) && r.has(2, 3) && r.has(0, 3));
        assert!(r.respects(&[2, 0, 3]));
        assert!(r.respects(&[2, 1, 0, 3]));
        assert!(!r.respects(&[0, 2, 3]));
        // `respects` only looks at elements present in the order.
        assert!(r.respects(&[0, 3]));
    }
}
