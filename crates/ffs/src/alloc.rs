//! Block allocation and file layout.
//!
//! A deliberately FFS-flavoured allocator: the partition is divided into
//! cylinder groups, files are laid out as long contiguous runs within a
//! group, and an optional *aging* knob fragments the layout the way months
//! of create/delete traffic would (cf. Smith & Seltzer's file-system aging
//! work, which the paper cites when explaining why it benchmarks fresh file
//! systems). A fresh file system is the worst case for the paper's
//! read-ahead improvements, so aging only ever strengthens its results.

use diskmodel::{Lba, Partition};
use simcore::SimRng;

/// File-system block size in sectors (8 KB blocks of 512-byte sectors).
pub const BLOCK_SECTORS: u64 = 16;

/// File-system block size in bytes.
pub const BLOCK_BYTES: u64 = BLOCK_SECTORS * diskmodel::SECTOR_BYTES;

/// An inode: a file's identity, size, and block map.
#[derive(Debug, Clone)]
pub struct Inode {
    /// Inode number (also used as the NFS file-handle payload).
    pub ino: u64,
    /// File length in bytes.
    pub size: u64,
    /// Absolute disk LBA of each 8 KB file block, in file order.
    pub blocks: Vec<Lba>,
}

impl Inode {
    /// Number of blocks in the file.
    pub fn num_blocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// The disk address of file block `fblk`.
    ///
    /// # Panics
    ///
    /// Panics if `fblk` is beyond the end of the file.
    pub fn lba_of(&self, fblk: u64) -> Lba {
        self.blocks[usize::try_from(fblk).expect("block index fits usize")]
    }

    /// Whether file blocks `a` and `a + 1` are physically adjacent.
    pub fn contiguous(&self, a: u64) -> bool {
        let a = a as usize;
        a + 1 < self.blocks.len() && self.blocks[a + 1] == self.blocks[a] + BLOCK_SECTORS
    }
}

/// Blocks per cluster: the unit of a cluster read and of an allocation
/// run (FreeBSD: 64 KB / 8 KB = 8).
pub(crate) const CLUSTER_BLOCKS: u64 = 8;

/// Cylinder-group size in bytes (FFS defaults are tens of MB).
const CG_BYTES: u64 = 32 * 1024 * 1024;

/// Gap (in blocks) inserted when aging displaces a run.
const AGING_GAP_BLOCKS: u64 = 64;

/// The first file's inode number: inode 0 is invalid and 1 is the root.
/// Numbers are dense from here, in creation order.
pub const FIRST_INO: u64 = 2;

/// A bump allocator with cylinder-group awareness and optional aging.
#[derive(Debug)]
pub struct Allocator {
    partition: Partition,
    /// Fraction of cluster-sized runs that get displaced, 0.0 = fresh.
    aging: f64,
    /// Next free sector, relative to the partition.
    cursor: u64,
    next_ino: u64,
}

impl Allocator {
    /// Creates an allocator over a partition that displaces the given
    /// fraction of runs (0.0 for a fresh file system).
    pub fn new(partition: Partition, aging: f64) -> Self {
        Allocator {
            partition,
            aging,
            cursor: 0,
            next_ino: FIRST_INO,
        }
    }

    /// Bytes still allocatable.
    pub fn free_bytes(&self) -> u64 {
        (self.partition.sectors - self.cursor) * diskmodel::SECTOR_BYTES
    }

    /// The absolute LBA span holding everything allocated so far:
    /// `(first_sector, sectors)`. Fault plans target this span so injected
    /// defects land under live data rather than in free space.
    pub fn allocated_span(&self) -> (Lba, u64) {
        (self.partition.start, self.cursor)
    }

    /// Allocates a file of `size` bytes, returning its inode.
    ///
    /// `rng` drives aging decisions only; a fresh file system (aging 0)
    /// never consults it.
    ///
    /// # Panics
    ///
    /// Panics if the partition has insufficient space.
    pub fn create_file(&mut self, size: u64, rng: &mut SimRng) -> Inode {
        let nblocks = size.div_ceil(BLOCK_BYTES);
        let mut blocks = Vec::with_capacity(usize::try_from(nblocks).expect("fits"));
        // Allocate in cluster-sized runs so aging displaces realistic units.
        let mut remaining = nblocks;
        while remaining > 0 {
            let take = remaining.min(CLUSTER_BLOCKS);
            if self.aging > 0.0 && rng.chance(self.aging) {
                // Displace this run: leave a gap as if intervening files
                // occupied the space.
                self.cursor += AGING_GAP_BLOCKS * BLOCK_SECTORS;
            }
            self.allocate_run(take, &mut blocks);
            remaining -= take;
        }
        let ino = self.next_ino;
        self.next_ino += 1;
        Inode { ino, size, blocks }
    }

    /// Extends an inode to cover at least `new_size` bytes, allocating the
    /// additional blocks at the current frontier (an extending write).
    ///
    /// The new run continues the file contiguously only when nothing else
    /// was allocated since its tail — growing a file after later
    /// allocations leaves a discontinuity, exactly as on a real FFS. A
    /// `new_size` the file already covers allocates nothing (a shrink is
    /// not modelled). `rng` drives aging decisions only; a fresh file
    /// system never consults it.
    ///
    /// # Panics
    ///
    /// Panics if the partition has insufficient space.
    pub fn extend_file(&mut self, inode: &mut Inode, new_size: u64, rng: &mut SimRng) {
        let nblocks = new_size.div_ceil(BLOCK_BYTES);
        let mut remaining = nblocks.saturating_sub(inode.num_blocks());
        while remaining > 0 {
            let take = remaining.min(CLUSTER_BLOCKS);
            if self.aging > 0.0 && rng.chance(self.aging) {
                self.cursor += AGING_GAP_BLOCKS * BLOCK_SECTORS;
            }
            self.allocate_run(take, &mut inode.blocks);
            remaining -= take;
        }
        inode.size = inode.size.max(new_size);
    }

    /// Appends the `take` blocks at the cursor to `blocks` and moves the
    /// cursor past them, checking the run against the partition once.
    fn allocate_run(&mut self, take: u64, blocks: &mut Vec<Lba>) {
        let first = self.partition.abs(self.cursor, take * BLOCK_SECTORS);
        blocks.extend((0..take).map(|i| first + i * BLOCK_SECTORS));
        self.cursor += take * BLOCK_SECTORS;
    }

    /// Cylinder-group index of a partition-relative byte offset
    /// (diagnostics; layout policy keeps whole files inside few groups).
    pub fn cg_of(&self, rel_bytes: u64) -> u64 {
        rel_bytes / CG_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part() -> Partition {
        Partition {
            start: 1_000_000,
            sectors: 4_000_000, // ~2 GB
        }
    }

    #[test]
    fn fresh_files_are_contiguous() {
        let mut a = Allocator::new(part(), 0.0);
        let mut rng = SimRng::new(1);
        let f = a.create_file(1024 * 1024, &mut rng); // 128 blocks
        assert_eq!(f.num_blocks(), 128);
        for i in 0..127 {
            assert!(f.contiguous(i), "block {i} not contiguous");
        }
        assert_eq!(f.lba_of(0), 1_000_000);
    }

    #[test]
    fn files_do_not_overlap() {
        let mut a = Allocator::new(part(), 0.0);
        let mut rng = SimRng::new(1);
        let f1 = a.create_file(64 * 1024, &mut rng);
        let f2 = a.create_file(64 * 1024, &mut rng);
        let f1_end = f1.lba_of(f1.num_blocks() - 1) + BLOCK_SECTORS;
        assert!(f2.lba_of(0) >= f1_end);
        assert_ne!(f1.ino, f2.ino);
    }

    #[test]
    fn size_rounds_up_to_blocks() {
        let mut a = Allocator::new(part(), 0.0);
        let mut rng = SimRng::new(1);
        let f = a.create_file(BLOCK_BYTES + 1, &mut rng);
        assert_eq!(f.num_blocks(), 2);
        assert_eq!(f.size, BLOCK_BYTES + 1);
    }

    #[test]
    fn aging_fragments_layout() {
        let mut a = Allocator::new(part(), 0.5);
        let mut rng = SimRng::new(42);
        let f = a.create_file(4 * 1024 * 1024, &mut rng); // 512 blocks
        let discontinuities = (0..f.num_blocks() - 1)
            .filter(|&i| !f.contiguous(i))
            .count();
        assert!(
            discontinuities >= 10,
            "aging 0.5 should fragment: {discontinuities} breaks"
        );
    }

    /// Pins an aged layout: aging is the only path that reads the gap,
    /// and no other test pins an aged file system.
    #[test]
    fn aged_layout_is_pinned() {
        let mut a = Allocator::new(part(), 0.5);
        let mut rng = SimRng::new(42);
        let mut f = a.create_file(4 * 1024 * 1024, &mut rng);
        let g = a.create_file(64 * 1024, &mut rng);
        a.extend_file(&mut f, 5 * 1024 * 1024, &mut rng);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for lba in f.blocks.iter().chain(&g.blocks) {
            for b in lba.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(h, 0xd1ed_5568_d331_715d);
    }

    #[test]
    fn extend_of_last_file_is_contiguous() {
        let mut a = Allocator::new(part(), 0.0);
        let mut rng = SimRng::new(1);
        let mut f = a.create_file(64 * 1024, &mut rng); // 8 blocks
        a.extend_file(&mut f, 128 * 1024, &mut rng); // +8 blocks
        assert_eq!(f.num_blocks(), 16);
        assert_eq!(f.size, 128 * 1024);
        for i in 0..15 {
            assert!(f.contiguous(i), "block {i} not contiguous after extend");
        }
    }

    #[test]
    fn extend_after_other_allocation_fragments() {
        let mut a = Allocator::new(part(), 0.0);
        let mut rng = SimRng::new(1);
        let mut f1 = a.create_file(64 * 1024, &mut rng);
        let f2 = a.create_file(64 * 1024, &mut rng);
        a.extend_file(&mut f1, 128 * 1024, &mut rng);
        // The extension skipped over f2's blocks: a discontinuity at the
        // old tail, and no overlap with f2.
        assert!(!f1.contiguous(7), "old tail should not touch the extension");
        let f2_lbas: Vec<Lba> = (0..f2.num_blocks()).map(|b| f2.lba_of(b)).collect();
        for b in 0..f1.num_blocks() {
            assert!(!f2_lbas.contains(&f1.lba_of(b)), "extension overlaps f2");
        }
    }

    #[test]
    fn extend_within_current_blocks_allocates_nothing() {
        let mut a = Allocator::new(part(), 0.0);
        let mut rng = SimRng::new(1);
        let mut f = a.create_file(BLOCK_BYTES + 1, &mut rng); // 2 blocks
        let free_before = a.free_bytes();
        a.extend_file(&mut f, 2 * BLOCK_BYTES, &mut rng);
        assert_eq!(f.num_blocks(), 2);
        assert_eq!(f.size, 2 * BLOCK_BYTES, "size still grows");
        assert_eq!(a.free_bytes(), free_before, "no new blocks");
        // A shrink is a no-op.
        a.extend_file(&mut f, 1, &mut rng);
        assert_eq!(f.size, 2 * BLOCK_BYTES);
    }

    #[test]
    fn fresh_extend_ignores_rng() {
        let mut a1 = Allocator::new(part(), 0.0);
        let mut a2 = Allocator::new(part(), 0.0);
        let mut f1 = a1.create_file(64 * 1024, &mut SimRng::new(1));
        let mut f2 = a2.create_file(64 * 1024, &mut SimRng::new(999));
        a1.extend_file(&mut f1, 256 * 1024, &mut SimRng::new(2));
        a2.extend_file(&mut f2, 256 * 1024, &mut SimRng::new(777));
        assert_eq!(f1.blocks, f2.blocks);
    }

    #[test]
    fn fresh_allocation_ignores_rng() {
        let mut a1 = Allocator::new(part(), 0.0);
        let mut a2 = Allocator::new(part(), 0.0);
        let f1 = a1.create_file(1024 * 1024, &mut SimRng::new(1));
        let f2 = a2.create_file(1024 * 1024, &mut SimRng::new(999));
        assert_eq!(f1.blocks, f2.blocks);
    }

    #[test]
    fn free_bytes_decreases() {
        let mut a = Allocator::new(part(), 0.0);
        let before = a.free_bytes();
        a.create_file(1024 * 1024, &mut SimRng::new(1));
        assert_eq!(before - a.free_bytes(), 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "beyond partition")]
    fn overflow_panics() {
        let small = Partition {
            start: 0,
            sectors: 32,
        };
        let mut a = Allocator::new(small, 0.0);
        a.create_file(1024 * 1024, &mut SimRng::new(1));
    }

    #[test]
    fn cg_index() {
        let a = Allocator::new(part(), 0.0);
        assert_eq!(a.cg_of(0), 0);
        assert_eq!(a.cg_of(32 * 1024 * 1024), 1);
    }
}
