//! Pins the sparse simulated memory: the volatile view and the persistent
//! image materialize one 32 KiB segment at a time on the first store, reads
//! of untouched words allocate nothing, and crash/boot round trips are exact
//! across runs of segments that were never touched.

use crafty_common::shard::SEGMENT_SLOTS;
use crafty_common::PAddr;
use crafty_pmem::{MemorySpace, PersistentImage, PmemConfig};

fn benchmark_space() -> MemorySpace {
    MemorySpace::new(PmemConfig::benchmark())
}

#[test]
fn fresh_space_materializes_nothing_and_reads_zero() {
    let mem = benchmark_space();
    assert_eq!(mem.materialized_segments(), (0, 0));
    let words = mem.persistent_words();
    for w in [1, 4_095, 4_096, words / 2, words - 1] {
        assert_eq!(mem.read(PAddr::new(w)), 0);
        assert_eq!(mem.read_persisted(PAddr::new(w)), 0);
    }
    let volatile = PAddr::new(mem.config().total_words() - 1);
    assert_eq!(mem.read(volatile), 0);
    assert_eq!(
        mem.materialized_segments(),
        (0, 0),
        "reading untouched words must not materialize a segment"
    );
}

#[test]
fn one_store_and_its_persist_materialize_one_segment_each() {
    let mem = benchmark_space();
    let a = PAddr::new(3 * SEGMENT_SLOTS + 17);
    mem.write(a, 42);
    assert_eq!(
        mem.materialized_segments(),
        (1, 0),
        "a store touches the view only"
    );
    assert_eq!(mem.read_persisted(a), 0);
    mem.clwb(0, a);
    assert_eq!(
        mem.materialized_segments(),
        (1, 0),
        "a queued clwb copies nothing"
    );
    mem.drain(0);
    assert_eq!(
        mem.materialized_segments(),
        (1, 1),
        "the drain's write-back"
    );
    assert_eq!(mem.read_persisted(a), 42);
    // A crash capture and reads elsewhere leave the footprint alone.
    assert_eq!(mem.crash().read(a), 42);
    assert_eq!(mem.read(PAddr::new(7 * SEGMENT_SLOTS)), 0);
    assert_eq!(mem.materialized_segments(), (1, 1));
}

/// Words in segments 1, 5 and 40 of the persistent region (untouched
/// segments between them), some persisted, some left dirty.
fn scattered_space() -> (MemorySpace, Vec<PAddr>) {
    let mem = benchmark_space();
    let addrs: Vec<PAddr> = [1, 5, 40]
        .iter()
        .flat_map(|&seg| {
            [
                seg * SEGMENT_SLOTS + 8,
                seg * SEGMENT_SLOTS + SEGMENT_SLOTS - 1,
            ]
        })
        .map(PAddr::new)
        .collect();
    for (i, &a) in addrs.iter().enumerate() {
        mem.write(a, 1_000 + i as u64);
        if i % 2 == 0 {
            mem.clwb(0, a);
        }
    }
    mem.drain(0);
    // A persisted word overwritten (dirty again) and a persisted word
    // overwritten with zero: the strict crash keeps the persisted values.
    mem.write(addrs[0], 7);
    mem.write(addrs[2], 0);
    (mem, addrs)
}

#[test]
fn strict_crash_equals_the_persisted_image_across_segment_gaps() {
    let (mem, addrs) = scattered_space();
    let img = mem.crash();
    assert_eq!(img.len_words(), mem.persistent_words());
    for w in 0..mem.persistent_words() {
        let a = PAddr::new(w);
        assert_eq!(img.read(a), mem.read_persisted(a), "word {w}");
    }
    assert_eq!(img.read(addrs[0]), 1_000);
    assert_eq!(img.read(addrs[1]), 0, "never flushed");
    assert_eq!(img.read(addrs[2]), 1_002);
}

#[test]
fn boot_round_trip_materializes_only_nonzero_segments() {
    let (mem, _) = scattered_space();
    let img = mem.crash();
    let booted = MemorySpace::boot(&img, *mem.config());
    assert_eq!(booted.crash(), img, "boot(img).crash() == img");
    assert_eq!(
        booted.materialized_segments(),
        (3, 3),
        "only the three segments holding nonzero words"
    );
    for w in (0..img.len_words()).filter(|&w| img.as_words()[w as usize] != 0) {
        assert_eq!(booted.read(PAddr::new(w)), img.read(PAddr::new(w)));
    }

    let empty = MemorySpace::boot(
        &PersistentImage::zeroed(mem.persistent_words()),
        *mem.config(),
    );
    assert_eq!(empty.materialized_segments(), (0, 0));
}
