//! The modeled NVM cost of a run's persist traffic.
//!
//! The simulated memory space busy-waits each drain and write-back for the
//! time its [`LatencyModel`] charges, so wall-clock timings carry that cost
//! plus host noise. This module recomputes the charge from the counters
//! alone, which gives a per-operation persist cost that does not depend on
//! the host at all.

use crafty_pmem::{LatencyModel, PmemStats};

/// Nanoseconds the latency model charges for the traffic in `d`:
/// every drain pays the flat drain cost, every ranged flush and every
/// overflow write-back (a one-line flush) pays the range base cost, every
/// line they cover pays the line cost, and every word copied to the
/// persistent image pays the word cost. Spontaneous evictions are not
/// charged by the simulator and do not occur under the strict crash model.
pub fn persist_ns(d: &PmemStats, lat: &LatencyModel) -> u64 {
    d.drains * lat.drain_ns
        + (d.flush_ranges + d.overflow_writebacks) * lat.clwb_range_ns
        + (d.range_lines + d.overflow_writebacks) * lat.clwb_line_ns
        + d.words_persisted * lat.clwb_word_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_common::WORDS_PER_LINE;
    use crafty_pmem::{MemorySpace, PmemConfig};

    #[test]
    fn formula_matches_what_drains_and_overflow_writebacks_charge() {
        let lat = LatencyModel::nvm_300ns();
        let mem = MemorySpace::new(
            PmemConfig::small_for_tests()
                .with_latency(lat)
                .with_flush_queue_capacity(4),
        );
        let base = mem.reserve_persistent(16 * WORDS_PER_LINE);
        let line = |i: u64| base.add(i * WORDS_PER_LINE);
        let before = mem.stats();
        // Lines 0, 1, 2 (adjacent, one word each) and line 5 (two words),
        // then line 7 finds the 4-slot queue full and is written back at
        // once. Drain: one range of three lines, one range of one line.
        for i in [0u64, 1, 2] {
            mem.write(line(i), 10 + i);
        }
        mem.write(line(5), 20);
        mem.write(line(5).add(1), 21);
        mem.write(line(7), 30);
        mem.write(line(7).add(3), 31);
        mem.write(line(7).add(4), 32);
        for i in [0u64, 1, 2, 5, 7] {
            mem.clwb(0, line(i));
        }
        mem.drain(0);
        let d = mem.stats().since(&before);
        assert_eq!(d.drains, 1);
        assert_eq!(d.flush_ranges, 2);
        assert_eq!(d.range_lines, 4);
        assert_eq!(d.overflow_writebacks, 1);
        assert_eq!(d.words_persisted, 3 + 2 + 3);
        // By hand: drain 300; range {0,1,2}: 60 + 3·10 + 3·25 = 165;
        // range {5}: 60 + 10 + 2·25 = 120; overflow {7}: 60 + 10 + 3·25 = 145.
        assert_eq!(persist_ns(&d, &lat), 300 + 165 + 120 + 145);
        assert_eq!(mem.read_persisted(line(7).add(4)), 32);
    }
}
