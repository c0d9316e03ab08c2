//! Crash-atomicity regression tests for the two durability shortcuts that
//! let a sequence land in a thread's log while that thread's earlier data
//! write-backs are still queued: group commit (`execute_deferred`) and the
//! on-demand persist fence (`persist_fence`).
//!
//! Each test replays one small, deterministic, single-threaded script once
//! per fault-clock step, captures the crash image at that step (resolving
//! still-dirty words under the strict or the word-lottery relaxed model),
//! runs recovery, and checks that a two-cell transaction was recovered
//! whole: both cells old or both cells new, never one of each.

use std::sync::Arc;

use crafty_core::{recover, Crafty, CraftyConfig, RecoveryError};
use crafty_pmem::{CrashModel, FaultPlan, MemorySpace, PersistentImage, PmemConfig};
use crafty_repro::prelude::{PAddr, PersistentTm};

/// A space just large enough for a small engine: a few logs of 64 entries
/// and a tiny heap, so one replay per (step, seed) stays cheap.
fn pmem_cfg(threads: usize, plan: FaultPlan) -> PmemConfig {
    PmemConfig {
        persistent_words: 1 << 11,
        volatile_words: 1 << 10,
        ..PmemConfig::small_for_tests()
    }
    .with_max_threads(threads)
    .with_fault_plan(plan)
}

fn crafty_cfg(threads: usize, force_fallback: bool) -> CraftyConfig {
    CraftyConfig::small_for_tests()
        .with_max_threads(threads)
        .with_undo_log_entries(64)
        .with_heap_words(64)
        .with_force_fallback(force_fallback)
}

/// What one replay of a script left behind.
struct Replay {
    /// The image captured at the armed step (`None` for a counting run).
    image: Option<PersistentImage>,
    /// Fault-clock steps the whole script took.
    steps: u64,
    /// The log directory recovery starts from.
    directory: PAddr,
    /// The two cells written by one transaction (on different lines).
    pair: [PAddr; 2],
    /// The live space after the script ran to completion.
    mem: Arc<MemorySpace>,
}

/// Group commit on one thread: transaction N writes both cells of the pair,
/// transaction N+1 writes a third cell, then the group's drain barrier and
/// a persist fence. N+1's Log phase appends its LOGGED sequence while N's
/// data write-backs are still queued.
fn group_commit_replay(plan: FaultPlan, force_fallback: bool) -> Replay {
    let mem = Arc::new(MemorySpace::new(pmem_cfg(1, plan)));
    let crafty = Crafty::new(Arc::clone(&mem), crafty_cfg(1, force_fallback));
    let pair = [mem.reserve_persistent(1), mem.reserve_persistent(1)];
    let third = mem.reserve_persistent(1);
    {
        let mut thread = crafty.register_thread(0);
        thread.execute_deferred(&mut |ops| {
            ops.write(pair[0], 1)?;
            ops.write(pair[1], 1)
        });
        thread.execute_deferred(&mut |ops| ops.write(third, 1));
        thread.flush_deferred();
    }
    crafty.persist_fence(0);
    Replay {
        image: mem.take_fault_image(),
        steps: mem.fault_steps(),
        directory: crafty.directory_addr(),
        pair,
        mem,
    }
}

/// The fence on another thread: thread 0 commits a two-cell transaction
/// (its data write-backs stay queued, as after every hardware commit), then
/// thread 1 calls `persist_fence`, which pins thread 0's log.
fn fence_replay(plan: FaultPlan) -> Replay {
    let mem = Arc::new(MemorySpace::new(pmem_cfg(2, plan)));
    let crafty = Crafty::new(Arc::clone(&mem), crafty_cfg(2, false));
    let pair = [mem.reserve_persistent(1), mem.reserve_persistent(1)];
    {
        let mut thread = crafty.register_thread(0);
        thread.execute(&mut |ops| {
            ops.write(pair[0], 1)?;
            ops.write(pair[1], 1)
        });
    }
    crafty.persist_fence(1);
    Replay {
        image: mem.take_fault_image(),
        steps: mem.fault_steps(),
        directory: crafty.directory_addr(),
        pair,
        mem,
    }
}

/// Recovers `image` and returns the pair's two recovered values. A crash
/// taken before the engine persisted its log directory has nothing to
/// recover; the pair then still holds its initial zeros.
fn recovered_pair(mut image: PersistentImage, replay: &Replay) -> (u64, u64) {
    match recover(&mut image, replay.directory) {
        Ok(_) | Err(RecoveryError::MissingDirectory { .. }) => {}
    }
    (image.read(replay.pair[0]), image.read(replay.pair[1]))
}

/// Crashes `script` at every fault step under every model in `models` and
/// returns the torn recoveries as `(step, model seed, a, b)`, plus the
/// number of recoveries checked.
fn sweep(
    script: &dyn Fn(FaultPlan) -> Replay,
    models: &[CrashModel],
) -> (Vec<(u64, u64, u64, u64)>, usize) {
    let total = script(FaultPlan::count_only()).steps;
    assert!(total > 0, "the script must tick the fault clock");
    let mut torn = Vec::new();
    let mut checked = 0;
    for step in 1..=total {
        for &model in models {
            let mut replay = script(FaultPlan::crash_at(step, model));
            let image = replay
                .image
                .take()
                .unwrap_or_else(|| panic!("no crash image captured at step {step}"));
            let (a, b) = recovered_pair(image, &replay);
            checked += 1;
            if a != b {
                torn.push((step, model.seed, a, b));
            }
        }
    }
    (torn, checked)
}

fn relaxed_models(seeds: u64) -> Vec<CrashModel> {
    (0..seeds).map(CrashModel::relaxed).collect()
}

fn assert_untorn(what: &str, torn: &[(u64, u64, u64, u64)], checked: usize) {
    assert!(
        torn.is_empty(),
        "{what}: {} of {checked} recoveries tore the two-cell transaction; \
         first (step, seed, a, b) = {:?}",
        torn.len(),
        torn.first()
    );
}

#[test]
fn group_commit_never_tears_its_predecessor_on_the_htm_path() {
    let (torn, checked) = sweep(
        &|plan| group_commit_replay(plan, false),
        &relaxed_models(64),
    );
    assert_untorn("group commit, HTM path", &torn, checked);
}

#[test]
fn group_commit_never_tears_its_predecessor_on_the_fallback_path() {
    let (torn, checked) = sweep(&|plan| group_commit_replay(plan, true), &relaxed_models(64));
    assert_untorn("group commit, forced fallback", &torn, checked);
}

#[test]
fn a_foreign_persist_fence_never_tears_the_pinned_thread() {
    let (torn, checked) = sweep(&fence_replay, &[CrashModel::strict()]);
    assert_untorn("persist_fence, strict", &torn, checked);
    let (torn, checked) = sweep(&fence_replay, &relaxed_models(16));
    assert_untorn("persist_fence, relaxed", &torn, checked);
}

#[test]
fn work_before_a_returned_fence_survives_any_crash() {
    for model in std::iter::once(CrashModel::strict()).chain(relaxed_models(16)) {
        let replay = fence_replay(FaultPlan::inactive());
        let image = replay.mem.crash_with(model);
        assert_eq!(
            recovered_pair(image, &replay),
            (1, 1),
            "fenced transaction lost under {model:?}"
        );
        let replay = group_commit_replay(FaultPlan::inactive(), false);
        let image = replay.mem.crash_with(model);
        assert_eq!(
            recovered_pair(image, &replay),
            (1, 1),
            "fenced group lost under {model:?}"
        );
    }
}
