//! Allocation logging for re-executable transaction bodies.
//!
//! Because Crafty's Log and Validate phases execute the same body twice,
//! the implementation "logs allocations during the Log phase and reuses the
//! allocated memory at corresponding malloc calls during the Validate
//! phase. Similarly, \[it\] logs free calls during the Log phase, and either
//! performs the logged frees after completing the Redo phase or allows the
//! Validate phase to perform free calls and then discards logged frees"
//! (Section 6). [`AllocLog`] implements exactly that bookkeeping.

use crafty_common::PAddr;
use crafty_pmem::PmemAllocator;

/// Per-transaction record of allocator activity.
#[derive(Clone, Debug, Default)]
pub struct AllocLog {
    allocations: Vec<(PAddr, u64)>,
    frees: Vec<(PAddr, u64)>,
    replay_cursor: usize,
}

impl AllocLog {
    /// Creates an empty allocation log.
    pub fn new() -> Self {
        AllocLog::default()
    }

    /// Records an allocation made during the Log phase.
    pub fn record_alloc(&mut self, addr: PAddr, words: u64) {
        self.allocations.push((addr, words));
    }

    /// Allocates `words` from `allocator` for the executing body and
    /// records the allocation — the `TxnOps::alloc` of every context that
    /// runs a body for the first time.
    ///
    /// # Panics
    ///
    /// Panics if the persistent heap is exhausted.
    pub fn alloc(&mut self, allocator: &PmemAllocator, words: u64) -> PAddr {
        let addr = allocator
            .alloc(words)
            .expect("persistent heap exhausted; increase CraftyConfig::heap_words");
        self.record_alloc(addr, words);
        addr
    }

    /// Records a free requested by the transaction body; the actual release
    /// is deferred until the persistent transaction commits.
    pub fn record_free(&mut self, addr: PAddr, words: u64) {
        self.frees.push((addr, words));
    }

    /// True if the body neither allocated nor freed anything.
    pub fn is_empty(&self) -> bool {
        self.allocations.is_empty() && self.frees.is_empty()
    }

    /// Prepares for a Validate-phase re-execution: subsequent
    /// [`AllocLog::replay_alloc`] calls hand back the Log phase's
    /// allocations in order.
    pub fn start_replay(&mut self) {
        self.replay_cursor = 0;
    }

    /// Returns the next logged allocation, checking that the re-executed
    /// body asked for the same size. Returns `None` if the body diverged
    /// (requested a different size or more allocations than were logged),
    /// which the Validate phase treats as a validation failure.
    pub fn replay_alloc(&mut self, words: u64) -> Option<PAddr> {
        let (addr, logged_words) = *self.allocations.get(self.replay_cursor)?;
        if logged_words != words {
            return None;
        }
        self.replay_cursor += 1;
        Some(addr)
    }

    /// Releases every logged allocation back to the allocator. Called when
    /// the whole persistent transaction is abandoned and restarted from the
    /// Log phase, so that failed attempts do not leak persistent memory.
    pub fn release_allocations(&mut self, allocator: &PmemAllocator) {
        for (addr, words) in self.allocations.drain(..) {
            allocator.free(addr, words);
        }
        self.replay_cursor = 0;
        self.frees.clear();
    }

    /// Performs the deferred frees. Called once the persistent transaction
    /// has committed (after the Redo or Validate phase, or the SGL path).
    pub fn apply_frees(&mut self, allocator: &PmemAllocator) {
        for (addr, words) in self.frees.drain(..) {
            allocator.free(addr, words);
        }
        self.allocations.clear();
        self.replay_cursor = 0;
    }

    /// Discards all records without touching the allocator (used for
    /// read-only transactions).
    pub fn clear(&mut self) {
        self.allocations.clear();
        self.frees.clear();
        self.replay_cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allocator() -> PmemAllocator {
        PmemAllocator::new(PAddr::new(64), 1024)
    }

    #[test]
    fn replay_returns_same_addresses_in_order() {
        let a = allocator();
        let mut log = AllocLog::new();
        let x = a.alloc(4).expect("alloc");
        let y = a.alloc(8).expect("alloc");
        log.record_alloc(x, 4);
        log.record_alloc(y, 8);
        log.start_replay();
        assert_eq!(log.replay_alloc(4), Some(x));
        assert_eq!(log.replay_alloc(8), Some(y));
        assert_eq!(log.replay_alloc(8), None, "no more allocations were logged");
    }

    #[test]
    fn replay_with_diverging_size_fails() {
        let mut log = AllocLog::new();
        log.record_alloc(PAddr::new(100), 4);
        log.start_replay();
        assert_eq!(log.replay_alloc(8), None);
    }

    #[test]
    fn release_allocations_returns_memory() {
        let a = allocator();
        let mut log = AllocLog::new();
        let x = a.alloc(4).expect("alloc");
        log.record_alloc(x, 4);
        assert_eq!(a.live_allocations(), 1);
        log.release_allocations(&a);
        assert_eq!(a.live_allocations(), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn frees_are_deferred_until_applied() {
        let a = allocator();
        let mut log = AllocLog::new();
        let x = a.alloc(4).expect("alloc");
        log.record_free(x, 4);
        assert_eq!(a.live_allocations(), 1, "free must be deferred");
        log.apply_frees(&a);
        assert_eq!(a.live_allocations(), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn clear_discards_everything() {
        let mut log = AllocLog::new();
        log.record_alloc(PAddr::new(100), 4);
        log.record_free(PAddr::new(200), 4);
        log.clear();
        assert!(log.is_empty());
    }
}
