//! Search-node budgets.
//!
//! Every enumeration in the checker (view searches, store/coherence/
//! labeled-order enumeration) charges one unit per search node to a
//! [`Budget`], so a whole check runs under one node limit. A check runs
//! on one thread, and its budget is a plain counter on that thread.

use std::cell::Cell;

/// A search-node budget held by one thread.
///
/// Spending is a `Cell` update. The type is deliberately `!Sync`
/// (interior `Cell`s): each check owns its budget.
#[derive(Debug)]
pub struct Budget {
    limit: u64,
    spent: Cell<u64>,
}

impl Budget {
    /// A budget of `n` nodes.
    pub fn local(n: u64) -> Self {
        Budget {
            limit: n,
            spent: Cell::new(0),
        }
    }

    /// Charge one search node. Returns `false` when the budget is
    /// exhausted — the caller must then abandon the search and report
    /// exhaustion.
    #[inline]
    pub fn try_spend(&self) -> bool {
        let spent = self.spent.get();
        if spent >= self.limit {
            return false;
        }
        self.spent.set(spent + 1);
        true
    }

    /// Nodes this budget has charged so far.
    pub fn spent(&self) -> u64 {
        self.spent.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_budget_spends_down() {
        let b = Budget::local(3);
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend());
        assert_eq!(b.spent(), 3);
    }

    #[test]
    fn zero_budget_refuses_immediately() {
        let b = Budget::local(0);
        assert!(!b.try_spend());
        assert_eq!(b.spent(), 0);
    }
}
