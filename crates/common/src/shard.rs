//! Lazily-allocated sharded atomic arrays.
//!
//! Several structures in the workspace are logically "one atomic word per
//! word or cache line of the simulated memory": the simulated memory's
//! volatile view and persistent image (one slot per word), the HTM's
//! versioned line locks, the persistence domain's dirty masks, and the
//! flush queues' per-line dedup stamps (one slot per line). Sizing those
//! densely means a 256 MiB space writes and page-faults over half a
//! gigabyte up front even if the workload touches a few thousand lines.
//!
//! [`LazyAtomicArray`] instead splits the index space into fixed-size
//! *segments* that are allocated on first touch (via [`std::sync::OnceLock`],
//! so concurrent first touches are safe and exactly one allocation wins).
//! Unallocated segments read as zero through [`LazyAtomicArray::peek`] /
//! [`LazyAtomicArray::load_or_zero`], which never allocate — the natural
//! encoding for "version 0", "not dirty", and "never flushed".
//!
//! Steady-state accesses to an already-allocated segment cost one extra
//! atomic load (the `OnceLock` check) over a dense array, and perform no
//! heap allocation — the property the counting-allocator tests assert.
//! Whole-array scans (a crash image capture, for example) walk only the
//! materialized segments through [`LazyAtomicArray::for_each_segment`], so
//! their cost follows the memory actually touched, not the array's length.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Number of `u64` slots per lazily-allocated segment (32 KiB segments).
pub const SEGMENT_SLOTS: u64 = 4096;

/// A fixed-length array of `AtomicU64` whose backing storage is allocated
/// in [`SEGMENT_SLOTS`]-sized segments on first write access.
pub struct LazyAtomicArray {
    segments: Box<[OnceLock<Box<[AtomicU64]>>]>,
    len: u64,
}

impl std::fmt::Debug for LazyAtomicArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyAtomicArray")
            .field("len", &self.len)
            .field("segments", &self.segments.len())
            .field("allocated_segments", &self.allocated_segments())
            .finish()
    }
}

impl LazyAtomicArray {
    /// Creates an array of `len` zero-initialized slots. No segment is
    /// allocated until it is first touched through [`LazyAtomicArray::get`].
    pub fn new(len: u64) -> Self {
        let count = len.div_ceil(SEGMENT_SLOTS) as usize;
        LazyAtomicArray {
            segments: (0..count).map(|_| OnceLock::new()).collect(),
            len,
        }
    }

    /// The logical number of slots.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the array has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of segments that have been materialized so far (diagnostics
    /// and tests).
    pub fn allocated_segments(&self) -> usize {
        self.segments.iter().filter(|s| s.get().is_some()).count()
    }

    /// Calls `f(first, slots)` for every materialized segment in index
    /// order, where `first` is the index of `slots[0]` and `slots` is the
    /// segment clipped to the array's length. Never allocates: the
    /// segments skipped hold only zeros.
    ///
    /// A segment materialized concurrently with the walk may or may not be
    /// visited, exactly as a concurrent store may or may not be observed by
    /// a load.
    pub fn for_each_segment(&self, mut f: impl FnMut(u64, &[AtomicU64])) {
        for (i, seg) in self.segments.iter().enumerate() {
            if let Some(seg) = seg.get() {
                let first = i as u64 * SEGMENT_SLOTS;
                let n = (self.len - first).min(SEGMENT_SLOTS) as usize;
                f(first, &seg[..n]);
            }
        }
    }

    /// Returns the slot at `idx`, allocating its segment if needed.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    pub fn get(&self, idx: u64) -> &AtomicU64 {
        assert!(
            idx < self.len,
            "index {idx} out of bounds (len {})",
            self.len
        );
        let seg = self.segments[(idx / SEGMENT_SLOTS) as usize]
            .get_or_init(|| (0..SEGMENT_SLOTS).map(|_| AtomicU64::new(0)).collect());
        &seg[(idx % SEGMENT_SLOTS) as usize]
    }

    /// Returns the slot at `idx` if its segment has been allocated. Never
    /// allocates; an unallocated segment means every slot in it is still
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    pub fn peek(&self, idx: u64) -> Option<&AtomicU64> {
        assert!(
            idx < self.len,
            "index {idx} out of bounds (len {})",
            self.len
        );
        self.segments[(idx / SEGMENT_SLOTS) as usize]
            .get()
            .map(|seg| &seg[(idx % SEGMENT_SLOTS) as usize])
    }

    /// Acquire-loads the slot at `idx`, or 0 if its segment was never
    /// allocated (the value every slot starts with).
    #[inline]
    pub fn load_or_zero(&self, idx: u64) -> u64 {
        match self.peek(idx) {
            Some(slot) => slot.load(Ordering::Acquire),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_allocates_on_first_touch() {
        let a = LazyAtomicArray::new(3 * SEGMENT_SLOTS + 1);
        assert_eq!(a.len(), 3 * SEGMENT_SLOTS + 1);
        assert_eq!(a.allocated_segments(), 0);
        assert!(a.peek(0).is_none());
        assert_eq!(a.load_or_zero(2 * SEGMENT_SLOTS), 0);
        assert_eq!(a.allocated_segments(), 0, "reads must not allocate");

        a.get(SEGMENT_SLOTS + 5).store(9, Ordering::Release);
        assert_eq!(a.allocated_segments(), 1);
        assert_eq!(a.load_or_zero(SEGMENT_SLOTS + 5), 9);
        assert_eq!(
            a.load_or_zero(SEGMENT_SLOTS + 6),
            0,
            "neighbours in a fresh segment are zero"
        );
    }

    #[test]
    fn last_partial_segment_is_addressable() {
        let a = LazyAtomicArray::new(SEGMENT_SLOTS + 3);
        a.get(SEGMENT_SLOTS + 2).store(7, Ordering::Release);
        assert_eq!(a.load_or_zero(SEGMENT_SLOTS + 2), 7);
    }

    #[test]
    fn segment_visitor_sees_only_materialized_segments() {
        let a = LazyAtomicArray::new(4 * SEGMENT_SLOTS + 3);
        a.get(2).store(5, Ordering::Release);
        a.get(4 * SEGMENT_SLOTS + 1).store(6, Ordering::Release);
        let mut seen = Vec::new();
        a.for_each_segment(|first, slots| {
            let nonzero: Vec<(u64, u64)> = slots
                .iter()
                .enumerate()
                .map(|(i, s)| (first + i as u64, s.load(Ordering::Acquire)))
                .filter(|&(_, v)| v != 0)
                .collect();
            seen.push((first, slots.len(), nonzero));
        });
        assert_eq!(
            seen,
            vec![
                (0, SEGMENT_SLOTS as usize, vec![(2, 5)]),
                (4 * SEGMENT_SLOTS, 3, vec![(4 * SEGMENT_SLOTS + 1, 6)]),
            ],
            "visits touched segments in order, the last one clipped to len"
        );
        assert_eq!(a.allocated_segments(), 2, "the walk allocates nothing");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        LazyAtomicArray::new(4).get(4);
    }

    #[test]
    fn concurrent_first_touch_is_safe() {
        let a = std::sync::Arc::new(LazyAtomicArray::new(SEGMENT_SLOTS * 2));
        std::thread::scope(|s| {
            for t in 0..4 {
                let a = std::sync::Arc::clone(&a);
                s.spawn(move || {
                    for i in 0..SEGMENT_SLOTS {
                        a.get(i).fetch_add(t + 1, Ordering::AcqRel);
                    }
                });
            }
        });
        assert_eq!(a.allocated_segments(), 1);
        let total: u64 = (0..SEGMENT_SLOTS).map(|i| a.load_or_zero(i)).sum::<u64>();
        assert_eq!(total, SEGMENT_SLOTS * (1 + 2 + 3 + 4));
    }
}
