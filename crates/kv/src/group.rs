//! Group commit: K independent store transactions, one drain barrier.
//!
//! Every mutation of the store is one persistent transaction, and on a
//! durable engine each transaction normally pays a drain (the emulated
//! SFENCE round trip) to ack its durability. For logically independent
//! operations — a batch of puts from a message queue, a replication
//! window, a bulk load — that per-transaction drain is the dominant cost
//! and is not required for correctness of the *batch*: each operation
//! still commits (and logs, and marks COMMITTED) individually, but
//! durability only needs to be acknowledged once, for all of them, when
//! the batch's shared drain covers their write-backs.
//!
//! [`GroupCommit`] packages that pattern over the engine-generic
//! [`TmThread`] interface:
//!
//! * [`GroupCommit::execute`] runs one transaction with durability
//!   deferred ([`TmThread::execute_deferred`]);
//! * [`GroupCommit::commit`] (or drop) issues the shared barrier
//!   ([`TmThread::flush_deferred`]) — after it returns, every transaction
//!   in the group is durable.
//!
//! Crash semantics are the natural group-commit contract: a crash before
//! the barrier may lose a suffix of the group's transactions, but each one
//! atomically — recovery rolls a lost transaction back whole, never
//! partially. A deferred transaction's write-backs are still queued when
//! the next one logs, and that next sequence may persist first; Crafty
//! marks such a sequence so that recovery rolls its predecessor back with
//! it, instead of keeping the predecessor half-written behind it. After
//! the barrier every transaction in the group is durable up to the
//! engine's latest-sequence rollback, which
//! [`crafty_common::PersistentTm::persist_fence`] then pins (the service
//! acks only after both). On engines without a deferral fast path
//! the default trait implementations make every `execute` immediately
//! durable and the barrier a no-op, so the same code runs unchanged (just
//! without the saving).
//!
//! [`crate::ShardedKv::apply_batch`] is the store-level convenience built
//! on this layer.

use crafty_common::{TmThread, TxnReport};

/// A durability group over a [`TmThread`]: transactions executed through
/// it share one drain barrier. See the module docs for the contract.
///
/// The barrier is issued by [`GroupCommit::commit`]; dropping the group
/// without calling it issues the barrier too (panic-safe), so a group can
/// never silently leave transactions with unacked durability.
pub struct GroupCommit<'a> {
    thread: &'a mut dyn TmThread,
    executed: u64,
    flushed: bool,
}

impl<'a> GroupCommit<'a> {
    /// Opens a durability group over `thread`.
    pub fn new(thread: &'a mut dyn TmThread) -> Self {
        GroupCommit {
            thread,
            executed: 0,
            flushed: false,
        }
    }

    /// Executes one transaction of the group with durability deferred to
    /// the shared barrier. The transaction is committed — visible to every
    /// other thread — when this returns; it is durable after
    /// [`GroupCommit::commit`].
    pub fn execute(
        &mut self,
        body: &mut dyn FnMut(&mut dyn crafty_common::TxnOps) -> Result<(), crafty_common::TxAbort>,
    ) -> TxnReport {
        self.executed += 1;
        self.thread.execute_deferred(body)
    }

    /// Number of transactions executed in this group so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Issues the shared drain barrier and closes the group: every
    /// transaction executed through it is durable afterwards. Returns the
    /// number of transactions the barrier covered.
    pub fn commit(mut self) -> u64 {
        self.flush();
        self.executed
    }

    fn flush(&mut self) {
        if !self.flushed {
            self.thread.flush_deferred();
            self.flushed = true;
        }
    }
}

impl Drop for GroupCommit<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for GroupCommit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommit")
            .field("executed", &self.executed)
            .field("flushed", &self.flushed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_common::PersistentTm;
    use crafty_core::{Crafty, CraftyConfig};
    use crafty_pmem::{MemorySpace, PmemConfig};
    use std::sync::Arc;

    #[test]
    fn group_commits_are_visible_and_durable_after_the_barrier() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
        let cells = mem.reserve_persistent(64);
        let mut thread = crafty.register_thread(0);
        let mut group = GroupCommit::new(&mut *thread);
        for i in 0..8u64 {
            let cell = cells.add(i * 8);
            group.execute(&mut |ops| {
                let v = ops.read(cell)?;
                ops.write(cell, v + i + 1)?;
                Ok(())
            });
        }
        assert_eq!(group.executed(), 8);
        assert_eq!(group.commit(), 8);
        // All committed (visible) and, after the barrier, written back.
        for i in 0..8u64 {
            assert_eq!(mem.read(cells.add(i * 8)), i + 1);
            assert_eq!(mem.read_persisted(cells.add(i * 8)), i + 1);
        }
    }

    #[test]
    fn dropping_a_group_issues_the_barrier() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
        let cell = mem.reserve_persistent(1);
        let mut thread = crafty.register_thread(0);
        {
            let mut group = GroupCommit::new(&mut *thread);
            group.execute(&mut |ops| ops.write(cell, 42));
        } // dropped without commit()
        assert_eq!(mem.read_persisted(cell), 42);
    }

    /// Satellite robustness check: a body that panics mid-batch unwinds
    /// through `execute_deferred` without corrupting the thread, earlier
    /// transactions of the batch are not yet durable at the moment of the
    /// panic (their drains were deferred), and the group's drop-issued
    /// barrier still fires during unwinding, making them durable.
    #[test]
    fn panicking_body_mid_batch_keeps_the_group_contract() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
        let cells = mem.reserve_persistent(64);
        let mut thread = crafty.register_thread(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut group = GroupCommit::new(&mut *thread);
            for i in 0..4u64 {
                let cell = cells.add(i * 8);
                group.execute(&mut |ops| ops.write(cell, i + 1));
            }
            // Before the barrier: the first transactions committed but
            // their durability is deferred — none may be marked durable.
            for i in 0..4u64 {
                assert_eq!(mem.read(cells.add(i * 8)), i + 1);
                assert_eq!(
                    mem.read_persisted(cells.add(i * 8)),
                    0,
                    "txn {i} must not be durable before the barrier"
                );
            }
            group.execute(&mut |_ops| panic!("boom mid-batch"));
            unreachable!("the panic must propagate");
        }));
        assert!(caught.is_err(), "the body's panic must unwind out");
        // Unwinding dropped the group, which must have issued the barrier:
        // the four completed transactions are durable now.
        for i in 0..4u64 {
            assert_eq!(mem.read_persisted(cells.add(i * 8)), i + 1);
        }
        // The thread survived the unwind and keeps working.
        let cell = cells.add(32);
        thread.execute(&mut |ops| ops.write(cell, 99));
        crafty.quiesce();
        assert_eq!(mem.read_persisted(cell), 99);
    }

    #[test]
    fn a_group_drains_less_than_per_transaction_execution() {
        let run = |grouped: bool| -> u64 {
            let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
            let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
            let cells = mem.reserve_persistent(16 * 8);
            let mut thread = crafty.register_thread(0);
            if grouped {
                let mut group = GroupCommit::new(&mut *thread);
                for i in 0..16u64 {
                    let cell = cells.add(i * 8);
                    group.execute(&mut |ops| ops.write(cell, i + 1));
                }
                group.commit();
            } else {
                for i in 0..16u64 {
                    let cell = cells.add(i * 8);
                    thread.execute(&mut |ops| ops.write(cell, i + 1));
                }
            }
            mem.stats().drains
        };
        let grouped = run(true);
        let per_txn = run(false);
        assert!(
            grouped < per_txn,
            "group commit must share drains: {grouped} grouped vs {per_txn} per-txn"
        );
    }
}
