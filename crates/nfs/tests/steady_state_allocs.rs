//! The simulator's steady state does not allocate per operation.
//!
//! A counting global allocator tallies heap allocations (and reallocs) of
//! the current thread only, so the test harness's other threads do not
//! pollute the count. Two worlds run past their warm-up and are then
//! driven through `NfsWorld::advance_into` with one reused completion
//! buffer while the count runs:
//!
//! * `read_stream`: one UDP client, eight sequential readers, 16 MB read
//!   through a 1,250-block server cache, so the server evicts on most
//!   fills;
//! * `build_tree`: four hosts on an UNSTABLE mount with the attribute
//!   cache on, each cycling LOOKUP, GETATTR, READ, WRITE and CLOSE over
//!   its own files.
//!
//! The bounds are pinned a little above the counts measured: 0.007 per
//! read since the file system, bio layer and drive began handing
//! completions through caller-owned buffers, and none per `build_tree`
//! op since the client's books became one per-file table whose
//! write-behind and attribute slots keep their buffers, and a LOOKUP's
//! name buffer is reused by the client and not copied by the server
//! (0.800 before, 1.400 before that; see CHANGES.md).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use diskmodel::{DriveModel, PartitionTable};
use ffs::FsConfig;
use iosched::SchedulerKind;
use nfsproto::{FileHandle, StableHow};
use nfssim::{ClientHostConfig, NfsWorld, OpDone, WorldConfig};
use simcore::{SimDuration, SimRng};

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

const READ_BYTES: u64 = 8_192;
/// Simulated CPU a process spends between its operations.
const THINK: SimDuration = SimDuration::from_micros(15);

fn server_fs(seed: u64, cache_blocks: usize) -> ffs::FileSystem {
    let disk = DriveModel::WdWd200bbIde.build(SimRng::new(seed));
    let part = PartitionTable::quarters(disk.geometry()).get(1);
    let config = FsConfig {
        cache_blocks,
        ..FsConfig::default()
    };
    ffs::FileSystem::format(disk, part, SchedulerKind::Elevator, config)
}

/// Allocations per completed op over the second half of a closed-loop
/// pass; `issue(world, done)` issues each completion's successor.
fn per_op_in_second_half(
    world: &mut NfsWorld,
    total_ops: u64,
    mut issue: impl FnMut(&mut NfsWorld, &OpDone),
) -> f64 {
    let mut done = Vec::new();
    let mut completed = 0u64;
    let mut measured_from = None;
    while completed < total_ops {
        let t = world.next_event().expect("ops running but no event");
        world.advance_into(t, &mut done);
        for d in &done {
            assert!(d.outcome.is_ok(), "{:?}", d.outcome);
            completed += 1;
            issue(world, d);
        }
        done.clear();
        if measured_from.is_none() && completed >= total_ops / 2 {
            measured_from = Some((completed, allocs()));
        }
    }
    let (ops0, allocs0) = measured_from.expect("the pass has a second half");
    (allocs() - allocs0) as f64 / (completed - ops0) as f64
}

#[test]
fn read_stream_steady_state_does_not_allocate() {
    const READERS: usize = 8;
    const PER_READER: u64 = 2 * 1024 * 1024;
    let mut world = NfsWorld::new(WorldConfig::default(), server_fs(1, 1_250), 1);
    let fhs: Vec<FileHandle> = (0..READERS)
        .map(|_| world.create_file(PER_READER))
        .collect();
    let start = world.now();
    for (i, &fh) in fhs.iter().enumerate() {
        world.read_from(0, start, fh, 0, READ_BYTES, i as u64);
    }
    let mut next_offset = [READ_BYTES; READERS];
    let total = READERS as u64 * PER_READER / READ_BYTES;
    let per_op = per_op_in_second_half(&mut world, total, |w, d| {
        let i = d.tag as usize;
        if next_offset[i] < PER_READER {
            w.read_from(
                0,
                d.done_at + THINK,
                fhs[i],
                next_offset[i],
                READ_BYTES,
                d.tag,
            );
            next_offset[i] += READ_BYTES;
        }
    });
    println!("read_stream: {per_op:.3} allocations per read");
    assert!(per_op <= 0.05, "{per_op:.3} allocations per read");
}

#[test]
fn build_tree_steady_state_allocations_are_bounded() {
    const HOSTS: usize = 4;
    const FILES: usize = 6;
    const FILE_BLOCKS: u64 = 8;
    const OPS: u64 = 8_000;
    let config = WorldConfig {
        stable_how: StableHow::Unstable,
        attr_timeo_min: SimDuration::from_secs(3),
        attr_timeo_max: SimDuration::from_secs(60),
        ..WorldConfig::default()
    };
    let hosts = vec![ClientHostConfig::from_world(&config); HOSTS];
    let mut world = NfsWorld::new_cluster(config, &hosts, server_fs(2, 20_000), 2);
    let files: Vec<Vec<FileHandle>> = (0..HOSTS)
        .map(|h| {
            (0..FILES)
                .map(|_| world.create_file_for(h, FILE_BLOCKS * READ_BYTES))
                .collect()
        })
        .collect();
    // Host `h`'s `n`th op: step `n % 5` of a LOOKUP, GETATTR, READ,
    // WRITE, CLOSE cycle on file `(n / 5) % FILES`, block `(n / 5) % 8`.
    let mut cursor = [0u64; HOSTS];
    let mut issue = |w: &mut NfsWorld, h: usize, at| {
        let n = cursor[h];
        cursor[h] += 1;
        let fh = files[h][(n / 5) as usize % FILES];
        let offset = (n / 5) % FILE_BLOCKS * READ_BYTES;
        let tag = h as u64;
        match n % 5 {
            0 => w.lookup_from(h, at, fh, 12, tag),
            1 => w.getattr_from(h, at, fh, tag),
            2 => w.read_from(h, at, fh, offset, READ_BYTES, tag),
            3 => w.write_from(h, at, fh, offset, READ_BYTES, tag),
            _ => w.close_from(h, at, fh, tag),
        };
    };
    let start = world.now();
    for h in 0..HOSTS {
        issue(&mut world, h, start);
    }
    let per_op = per_op_in_second_half(&mut world, OPS, |w, d| {
        issue(w, d.client, d.done_at + THINK);
    });
    println!("build_tree: {per_op:.3} allocations per op");
    assert!(per_op <= 0.01, "{per_op:.3} allocations per op");
}
