//! Search-node budgets: a local fast path over a shareable atomic pool.
//!
//! Every enumeration in the checker (view searches, store/coherence/
//! labeled-order enumeration) charges one unit per search node to a
//! [`Budget`]. A budget is either fully local — a plain counter, the
//! sequential case — or *attached* to a [`SharedBudget`]: a pool of nodes
//! held in an `AtomicU64` that several worker threads draw from in chunks,
//! so a parallel check spends the same total budget as a sequential one
//! without contending on the atomic at every node.
//!
//! A [`SharedBudget`] also carries a cancellation flag. Cancelling makes
//! every attached budget refuse further spending, which surfaces inside
//! the search as exhaustion — a checker layer that fans out its
//! alternatives ([`crate::batch::check_parallel`]) uses this to stop
//! sibling workers early once one settles the layer, and then discards
//! the cancelled workers' `Exhausted` results.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How many nodes an attached budget draws from the shared pool at once.
const CHUNK: u64 = 1024;

/// A pool of search nodes shared across worker threads, plus an
/// early-cancel flag.
#[derive(Debug)]
pub struct SharedBudget {
    remaining: AtomicU64,
    cancelled: AtomicBool,
}

impl SharedBudget {
    /// A pool holding `total` nodes.
    pub fn new(total: u64) -> Arc<Self> {
        Arc::new(SharedBudget {
            remaining: AtomicU64::new(total),
            cancelled: AtomicBool::new(false),
        })
    }

    /// A thread-local [`Budget`] drawing from this pool in chunks of
    /// `CHUNK` nodes.
    pub fn attach(self: &Arc<Self>) -> Budget {
        Budget {
            local: Cell::new(0),
            spent: Cell::new(0),
            shared: Some(Arc::clone(self)),
        }
    }

    /// Tell every attached budget to stop spending.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// `true` once [`SharedBudget::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Nodes left in the pool (not counting chunks already handed out).
    pub fn remaining(&self) -> u64 {
        self.remaining.load(Ordering::Relaxed)
    }

    /// Draw up to `chunk` nodes; returns the amount actually granted.
    fn draw(&self, chunk: u64) -> u64 {
        let mut cur = self.remaining.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return 0;
            }
            let take = chunk.min(cur);
            match self.remaining.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(now) => cur = now,
            }
        }
    }
}

/// A search-node budget held by one thread.
///
/// Spending is a `Cell` decrement on the fast path; only when the local
/// chunk runs dry does an attached budget touch the shared pool. The type
/// is deliberately `!Sync` (interior `Cell`s) — each worker thread
/// attaches its own.
#[derive(Debug)]
pub struct Budget {
    local: Cell<u64>,
    spent: Cell<u64>,
    shared: Option<Arc<SharedBudget>>,
}

impl Budget {
    /// A purely local budget of `n` nodes (the sequential fast path).
    pub fn local(n: u64) -> Self {
        Budget {
            local: Cell::new(n),
            spent: Cell::new(0),
            shared: None,
        }
    }

    /// Charge one search node. Returns `false` when the budget (local or
    /// shared) is exhausted or the shared pool was cancelled — the caller
    /// must then abandon the search and report exhaustion.
    #[inline]
    pub fn try_spend(&self) -> bool {
        let local = self.local.get();
        if local > 0 {
            // Cancellation must stop even workers still holding a chunk.
            if let Some(shared) = &self.shared {
                if shared.is_cancelled() {
                    return false;
                }
            }
            self.local.set(local - 1);
            self.spent.set(self.spent.get() + 1);
            return true;
        }
        match &self.shared {
            None => false,
            Some(shared) => {
                if shared.is_cancelled() {
                    return false;
                }
                let got = shared.draw(CHUNK);
                if got == 0 {
                    return false;
                }
                self.local.set(got - 1);
                self.spent.set(self.spent.get() + 1);
                true
            }
        }
    }

    /// Nodes this budget has charged so far.
    pub fn spent(&self) -> u64 {
        self.spent.get()
    }

    /// The shared pool this budget draws from, if any.
    pub fn shared(&self) -> Option<&Arc<SharedBudget>> {
        self.shared.as_ref()
    }

    /// `true` if an attached pool was cancelled (a purely local budget is
    /// never cancelled).
    pub fn is_cancelled(&self) -> bool {
        self.shared.as_ref().is_some_and(|s| s.is_cancelled())
    }

    /// Return any unspent local chunk to the shared pool (workers call
    /// this when they finish early so siblings can use the remainder).
    pub fn release(&self) {
        if let Some(shared) = &self.shared {
            let local = self.local.replace(0);
            if local > 0 {
                shared.remaining.fetch_add(local, Ordering::Relaxed);
            }
        }
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

    #[test]
    fn shared_pool_is_conserved() {
        let pool = SharedBudget::new(10_000);
        let a = pool.attach();
        let b = pool.attach();
        let mut total = 0u64;
        loop {
            let sa = a.try_spend();
            let sb = b.try_spend();
            total += sa as u64 + sb as u64;
            if !sa && !sb {
                break;
            }
        }
        assert_eq!(total, 10_000);
        assert_eq!(a.spent() + b.spent(), 10_000);
    }

    #[test]
    fn cancel_stops_spending_mid_chunk() {
        let pool = SharedBudget::new(1_000_000);
        let b = pool.attach();
        assert!(b.try_spend());
        pool.cancel();
        assert!(!b.try_spend());
        assert!(b.is_cancelled());
    }

    #[test]
    fn release_returns_unspent_chunk() {
        let pool = SharedBudget::new(CHUNK);
        let a = pool.attach();
        assert!(a.try_spend()); // draws the whole pool as one chunk
        assert_eq!(pool.remaining(), 0);
        a.release();
        assert_eq!(pool.remaining(), CHUNK - 1);
        let b = pool.attach();
        assert!(b.try_spend());
    }

    #[test]
    fn threads_share_one_pool() {
        let pool = SharedBudget::new(50_000);
        let spent: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    s.spawn(move || {
                        let b = pool.attach();
                        let mut n = 0u64;
                        while b.try_spend() {
                            n += 1;
                        }
                        n
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(spent, 50_000);
    }
}
