//! Exact latency recording with a fixed memory footprint.
//!
//! Every sample below [`LINEAR_NS`] lands in its own one-nanosecond
//! bucket, so percentiles are exact to the clock's resolution; rarer
//! samples above it are kept verbatim. The bucket array is allocated and
//! touched once at construction, so recording never allocates on the
//! common path and the recorder's resident size does not depend on how
//! many operations a run completes (it would otherwise leak throughput
//! into `peak_rss_mib`).

/// Samples below this many nanoseconds are counted per nanosecond.
const LINEAR_NS: usize = 1 << 20;

/// The fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// A latency distribution in nanoseconds.
pub struct Hist {
    counts: Vec<u32>,
    over: Vec<u64>,
    count: u64,
}

impl Hist {
    pub fn new() -> Hist {
        let mut counts = vec![0u32; LINEAR_NS];
        // Zeroed allocations are mapped lazily; write one word per page so
        // the whole array is resident from the start.
        for i in (0..LINEAR_NS).step_by(1024) {
            counts[i] = std::hint::black_box(0);
        }
        Hist {
            counts,
            over: Vec::new(),
            count: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.over.push(ns),
        }
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.over.extend_from_slice(&other.over);
        self.count += other.count;
    }

    /// The sample of rank `ceil(q · n)` (nearest-rank definition), or
    /// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it: a
    /// percentile the sample cannot support is not reported.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if self.count - rank < MIN_BEYOND {
            return None;
        }
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Some(ns as u64);
            }
        }
        let mut over = self.over.clone();
        over.sort_unstable();
        Some(over[(rank - seen - 1) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut h = Hist::new();
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        assert_eq!(h.percentile(0.5), Some(500));
        assert_eq!(h.percentile(0.99), Some(990));
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn samples_above_the_linear_range_are_kept_exactly() {
        let mut h = Hist::new();
        for i in 0..100u64 {
            h.record(5_000_000 + i);
        }
        assert_eq!(h.percentile(0.5), Some(5_000_049));
        let mut other = Hist::new();
        for _ in 0..100 {
            other.record(7);
        }
        h.merge(&other);
        assert_eq!(h.percentile(0.25), Some(7));
        assert_eq!(h.percentile(0.75), Some(5_000_049));
    }

    #[test]
    fn no_percentile_without_ten_samples_beyond_it() {
        let mut h = Hist::new();
        for ns in 0..1000u64 {
            h.record(ns);
        }
        // Rank 990 leaves exactly ten samples beyond it; rank 991 nine.
        assert!(h.percentile(0.990).is_some());
        assert_eq!(h.percentile(0.991), None);
        assert_eq!(h.percentile(0.999), None);
        assert_eq!(Hist::new().percentile(0.5), None);
        let mut small = Hist::new();
        for ns in 0..15u64 {
            small.record(ns);
        }
        assert!(small.percentile(0.5).is_none());
        assert!(small.percentile(0.3).is_some());
    }
}
