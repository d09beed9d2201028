//! The run-based block map against a per-block reference.
//!
//! `Inode` keeps its block map as runs: the first inline, later ones as
//! `(first file block, first LBA)` pairs merged when they touch on disk.
//! The reference below is the allocator as it was when every file held one
//! address per block: the same cursor and aging draws, with the same space
//! rules (a request above all the space left fails before any draw, then
//! each run is checked and a failure rolls back), but a plain `Vec<Lba>`
//! per file.
//! Random `create_file`/`extend_file` sequences over interleaved files, on
//! a partition small enough to run out, must give the same results, the
//! same free space and, block by block, the same `lba_of`, `contiguous`
//! and `num_blocks`.
//!
//! A counting global allocator (this thread's allocations only) pins that
//! a file laid out as one run owns no heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use diskmodel::{Lba, Partition, SECTOR_BYTES};
use ffs::{Allocator, Inode, NoSpace, BLOCK_BYTES, BLOCK_SECTORS};
use simcore::SimRng;

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

/// Mirrors the allocator's private constants.
const CLUSTER_BLOCKS: u64 = 8;
const AGING_GAP_BLOCKS: u64 = 64;

/// The per-block allocator the run map replaced.
struct Reference {
    partition: Partition,
    aging: f64,
    cursor: u64,
}

impl Reference {
    /// Appends `nblocks` blocks to `blocks` in cluster-sized runs, or
    /// leaves both `blocks` and the cursor as they were.
    fn append(&mut self, blocks: &mut Vec<Lba>, nblocks: u64, rng: &mut SimRng) -> bool {
        if self.cursor + nblocks * BLOCK_SECTORS > self.partition.sectors {
            return false; // More than all the space left: no aging draw.
        }
        let (cursor, held) = (self.cursor, blocks.len());
        let mut remaining = nblocks;
        while remaining > 0 {
            let take = remaining.min(CLUSTER_BLOCKS);
            if self.aging > 0.0 && rng.chance(self.aging) {
                self.cursor += AGING_GAP_BLOCKS * BLOCK_SECTORS;
            }
            if self.cursor + take * BLOCK_SECTORS > self.partition.sectors {
                self.cursor = cursor;
                blocks.truncate(held);
                return false;
            }
            let first = self.partition.start + self.cursor;
            blocks.extend((0..take).map(|i| first + i * BLOCK_SECTORS));
            self.cursor += take * BLOCK_SECTORS;
            remaining -= take;
        }
        true
    }

    fn free_bytes(&self) -> u64 {
        (self.partition.sectors - self.cursor) * SECTOR_BYTES
    }
}

/// `inode`'s block map equals `blocks`, block by block.
#[track_caller]
fn assert_same_map(inode: &Inode, blocks: &[Lba], ctx: &str) {
    let n = blocks.len() as u64;
    assert_eq!(inode.num_blocks(), n, "{ctx}: num_blocks");
    for (b, &lba) in blocks.iter().enumerate() {
        let b = b as u64;
        assert_eq!(inode.lba_of(b), lba, "{ctx}: lba_of({b})");
    }
    // One past the end too: the last block is contiguous with nothing.
    let joined = |b: u64| b + 1 < n && blocks[b as usize + 1] == blocks[b as usize] + BLOCK_SECTORS;
    for b in 0..=n {
        assert_eq!(inode.contiguous(b), joined(b), "{ctx}: contiguous({b})");
    }
    let mut end = n;
    for b in (0..n).rev() {
        if !joined(b) {
            end = b + 1;
        }
        assert_eq!(inode.run_end(b), end, "{ctx}: run_end({b})");
    }
}

/// Random creates and extends over interleaved files at `aging`.
fn drive(seed: u64, aging: f64, steps: usize) {
    // An aged run costs up to 72 blocks instead of 8, so the partition
    // grows with `aging` to run out of space partway through at every
    // level; the odd sector count leaves a partial block at the end.
    let capacity = 3_000 + (aging * 24_000.0) as u64;
    let partition = Partition {
        start: 1_000_000,
        sectors: capacity * BLOCK_SECTORS + 5,
    };
    let mut real = Allocator::new(partition, aging);
    let mut reference = Reference {
        partition,
        aging,
        cursor: 0,
    };
    let mut real_rng = SimRng::new(seed);
    let mut ref_rng = SimRng::new(seed);
    let mut ops = SimRng::new(seed ^ 0x5EED);
    let mut files: Vec<(Inode, Vec<Lba>, u64)> = Vec::new();
    // Bytes to ask for: mostly a few runs' worth; now and then up to the
    // whole partition, so refusals interleave with allocations that fit.
    let ask = |ops: &mut SimRng, small: u64| {
        let most = if ops.chance(0.1) { capacity } else { small };
        ops.gen_range(0..most * BLOCK_BYTES)
    };
    let (mut no_space, mut fit_after_no_space) = (0, 0);
    for step in 0..steps {
        let ctx = format!("seed {seed} aging {aging} step {step}");
        let refused = no_space;
        if files.is_empty() || ops.chance(0.3) {
            let size = ask(&mut ops, 40);
            let mut blocks = Vec::new();
            let fits = reference.append(&mut blocks, size.div_ceil(BLOCK_BYTES), &mut ref_rng);
            match real.create_file(size, &mut real_rng) {
                Ok(inode) => {
                    assert!(fits, "{ctx}: created a file the reference could not place");
                    assert_eq!(inode.size, size, "{ctx}");
                    assert_same_map(&inode, &blocks, &ctx);
                    files.push((inode, blocks, size));
                }
                Err(NoSpace) => {
                    assert!(!fits, "{ctx}: NoSpace for a file the reference placed");
                    no_space += 1;
                }
            }
        } else {
            let i = ops.gen_range(0..files.len() as u64) as usize;
            let (inode, blocks, size) = &mut files[i];
            // Mostly growth; now and then a size the file already covers.
            let new_size = (*size + ask(&mut ops, 30)).saturating_sub(BLOCK_BYTES);
            let more = new_size
                .div_ceil(BLOCK_BYTES)
                .saturating_sub(blocks.len() as u64);
            let fits = reference.append(blocks, more, &mut ref_rng);
            let got = real.extend_file(inode, new_size, &mut real_rng);
            assert_eq!(got.is_ok(), fits, "{ctx}: extend result");
            if fits {
                *size = (*size).max(new_size);
            } else {
                no_space += 1;
            }
            assert_eq!(inode.size, *size, "{ctx}: size");
            assert_same_map(inode, blocks, &ctx);
        }
        if refused > 0 && no_space == refused {
            fit_after_no_space += 1;
        }
        assert_eq!(
            real.free_bytes(),
            reference.free_bytes(),
            "{ctx}: free bytes"
        );
    }
    assert!(
        no_space > 0 && fit_after_no_space > 0,
        "seed {seed} aging {aging}: {no_space} refusals, {fit_after_no_space} fits after one"
    );
    for (inode, blocks, _) in &files {
        assert_same_map(inode, blocks, &format!("seed {seed} aging {aging} end"));
    }
}

#[test]
fn run_map_matches_per_block_reference_fresh() {
    for seed in 1..=20 {
        drive(seed, 0.0, 400);
    }
}

#[test]
fn run_map_matches_per_block_reference_aged_quarter() {
    for seed in 1..=20 {
        drive(seed, 0.25, 400);
    }
}

#[test]
fn run_map_matches_per_block_reference_fully_aged() {
    for seed in 1..=20 {
        drive(seed, 1.0, 400);
    }
}

#[test]
fn a_single_run_file_owns_no_heap() {
    let partition = Partition {
        start: 0,
        sectors: 1 << 24,
    };
    let mut a = Allocator::new(partition, 0.0);
    let mut rng = SimRng::new(1);
    let before = allocs();
    let mut f = a.create_file(4 * 1024 * 1024, &mut rng).unwrap();
    // The last file grows in place: its extension merges into the run.
    a.extend_file(&mut f, 8 * 1024 * 1024, &mut rng).unwrap();
    assert_eq!(allocs(), before, "a one-run file allocated");
    assert_eq!((f.num_blocks(), f.heap_bytes()), (1_024, 0));
    assert_eq!(f.run_end(0), 1_024);
}

#[test]
#[should_panic(expected = "beyond the file")]
fn a_block_past_a_single_run_file_panics() {
    let mut a = Allocator::new(
        Partition {
            start: 0,
            sectors: 1 << 20,
        },
        0.0,
    );
    let f = a.create_file(3 * BLOCK_BYTES, &mut SimRng::new(1)).unwrap();
    f.lba_of(3);
}

#[test]
#[should_panic(expected = "beyond the file")]
fn a_block_past_a_fragmented_file_panics() {
    let mut a = Allocator::new(
        Partition {
            start: 0,
            sectors: 1 << 20,
        },
        1.0,
    );
    let f = a
        .create_file(40 * BLOCK_BYTES, &mut SimRng::new(1))
        .unwrap();
    assert!(!f.contiguous(7), "aging 1.0 displaces every run");
    f.lba_of(40);
}
