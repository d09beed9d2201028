//! Counted work per operation in a fleet-shaped run.
//!
//! Wall time on a shared host spreads too widely to pin a per-op cost,
//! but counts repeat exactly. A reduced `perfbench` `fleet` shape (four
//! groups on the SCSI rig with tagged queueing, one of them on a
//! fail-slow disk, at about the same arrival rate per group) runs on one
//! shard, so the whole run stays on the test's thread, and the test pins:
//!
//! * SPTF candidates scored per dispatched drive command;
//! * drive-cache segments examined per dispatched command;
//! * heap allocations per issued op, counted per thread by a counting
//!   global allocator (set-up excluded, the run's own growth included).
//!
//! Counts repeat exactly, so each bound sits at the count measured when
//! the drive stopped scoring lone commands and re-probing the cache at
//! service; the counts before that are beside each bound. A change that
//! lowers a count tightens its bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nfscluster::{FleetConfig, FleetWorld};
use simcore::SimDuration;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// SPTF scores per dispatched command: 1.579 measured (2.114 when every
/// arrived command was scored, a lone one included).
const MAX_SCORES_PER_COMMAND: f64 = 1.58;
/// Cache segments examined per dispatched command: 33.24 measured (48.92
/// when service probed the cache again after scoring).
const MAX_PROBES_PER_COMMAND: f64 = 33.25;
/// Heap allocations per issued op over the whole run: 0.491 measured.
const MAX_ALLOCS_PER_OP: f64 = 0.50;

#[test]
fn fleet_drive_and_allocation_work_per_op_is_pinned() {
    // perfbench's `fleet` runs 1,562 clients per group over 58.6 s, about
    // 27 arrivals/s per group; four groups of 400 over 15 s keep that rate.
    let mut cfg = FleetConfig::scale(1_600);
    cfg.groups = 4;
    cfg.arrival_window = SimDuration::from_secs_f64(15.0);
    simfleet::set_shards_override(Some(1));
    let world = FleetWorld::new(&cfg, 1);
    let before = allocs();
    let r = world.run();
    let run_allocs = allocs() - before;
    simfleet::set_shards_override(None);

    assert!(r.shard_stats.completed, "{:?}", r.shard_stats);
    assert_eq!(r.clients_done + r.clients_timed_out, cfg.clients as u64);
    let d = r.drive;
    assert!(d.commands > 1_000, "the fleet must reach its disks: {d:?}");
    assert!(
        d.sptf_scores > 0,
        "tagged queues must make SPTF choices: {d:?}"
    );
    let scores = d.sptf_scores as f64 / d.commands as f64;
    let probes = d.cache_probes as f64 / d.commands as f64;
    let per_op = run_allocs as f64 / r.ops_issued as f64;
    println!(
        "fleet shape: {} commands, {scores:.3} SPTF scores and {probes:.2} cache \
         segments per command; {} ops, {per_op:.3} allocations per op",
        d.commands, r.ops_issued
    );
    assert!(
        scores <= MAX_SCORES_PER_COMMAND,
        "{scores:.3} SPTF scores per command (bound {MAX_SCORES_PER_COMMAND}): {d:?}"
    );
    assert!(
        probes <= MAX_PROBES_PER_COMMAND,
        "{probes:.2} cache segments per command (bound {MAX_PROBES_PER_COMMAND}): {d:?}"
    );
    assert!(
        per_op <= MAX_ALLOCS_PER_OP,
        "{per_op:.3} allocations per op (bound {MAX_ALLOCS_PER_OP}), {run_allocs} in all"
    );
}
