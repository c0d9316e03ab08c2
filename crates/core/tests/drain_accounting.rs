//! Drain accounting of the Crafty engine: what each execution path pays in
//! drains, counted at the memory space, and whether the engine's breakdown
//! counts the same drains.

use std::sync::Arc;

use crafty_common::{PAddr, PersistentTm, TmThread, TxnOps};
use crafty_core::{Crafty, CraftyConfig, FallbackPolicy};
use crafty_pmem::{MemorySpace, PmemConfig};

/// Drains issued by `f`, counted at the memory space.
fn drains_during(mem: &MemorySpace, f: impl FnOnce()) -> u64 {
    let before = mem.stats();
    f();
    mem.stats().since(&before).drains
}

/// Runs one two-cell write transaction.
fn write_two(thread: &mut dyn TmThread, cells: [PAddr; 2], deferred: bool) {
    let body = &mut |ops: &mut dyn TxnOps| {
        let v = ops.read(cells[0])?;
        ops.write(cells[0], v + 1)?;
        ops.write(cells[1], v + 1)
    };
    if deferred {
        thread.execute_deferred(body);
    } else {
        thread.execute(body);
    }
}

#[test]
fn every_path_pays_the_same_drain_budget() {
    let paths = [
        ("htm", CraftyConfig::small_for_tests()),
        (
            "per-line",
            CraftyConfig::small_for_tests()
                .with_fallback(FallbackPolicy::PerLine)
                .with_force_fallback(true),
        ),
        (
            "sgl",
            CraftyConfig::small_for_tests()
                .with_fallback(FallbackPolicy::Sgl)
                .with_force_fallback(true),
        ),
    ];
    for (name, cfg) in paths {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let crafty = Crafty::new(Arc::clone(&mem), cfg.with_max_threads(1));
        let cells = [mem.reserve_persistent(1), mem.reserve_persistent(1)];
        let mut thread = crafty.register_thread(0);
        // Steady state: a predecessor whose commit write-backs may still be
        // queued (the hardware path drains them at the next begin).
        write_two(thread.as_mut(), cells, false);

        // Immediately durable: the undo entries' drain before the in-place
        // writes, and the commit's drain (eager on the software paths, the
        // next transaction's begin on the hardware path).
        let immediate = drains_during(&mem, || {
            for _ in 0..4 {
                write_two(thread.as_mut(), cells, false);
            }
        });
        assert_eq!(immediate, 8, "{name}: four durable transactions");

        // Deferred: the undo entries' drains stay, the commit drains fold
        // into the group's one barrier.
        let deferred = drains_during(&mem, || {
            for _ in 0..4 {
                write_two(thread.as_mut(), cells, true);
            }
            thread.flush_deferred();
        });
        assert_eq!(deferred, 5, "{name}: a group of four deferred transactions");
        assert_eq!(mem.read(cells[0]), 9, "{name}");
    }
}

#[test]
fn the_breakdown_counts_every_drain() {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    let crafty = Crafty::new(
        Arc::clone(&mem),
        CraftyConfig::small_for_tests().with_max_threads(2),
    );
    let cell = mem.reserve_persistent(1);
    let mut thread = crafty.register_thread(0);
    let before = crafty.breakdown().persist_drains;
    let drains = drains_during(&mem, || {
        thread.execute_deferred(&mut |ops| ops.write(cell, 7));
        thread.flush_deferred();
        crafty.persist_fence(0);
    });
    let recorded = crafty.breakdown().persist_drains - before;
    assert_eq!(drains, 4, "pre-Redo drain, group barrier, one pin per slot");
    assert_eq!(recorded, drains, "the breakdown must count every drain");
}
