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
///
/// The block map is a list of runs, each a stretch of file blocks at
/// consecutive disk addresses. The first run lives inline, so a file laid
/// out as one run (every file of a fresh file system) owns no heap; each
/// later run is a `(first file block, first LBA)` pair. Runs that touch on
/// disk are merged as they are appended, so every run boundary is a
/// physical discontinuity.
#[derive(Debug, Clone)]
pub struct Inode {
    /// Inode number (also used as the NFS file-handle payload).
    pub ino: u64,
    /// File length in bytes.
    pub size: u64,
    /// Blocks allocated to the file.
    nblocks: u64,
    /// Absolute disk LBA of file block 0 (meaningless while `nblocks` is 0).
    first_lba: Lba,
    /// Every run after the first, in file order.
    runs: Vec<(u64, Lba)>,
}

impl Inode {
    /// An inode with no blocks.
    fn empty(ino: u64, size: u64) -> Self {
        Inode {
            ino,
            size,
            nblocks: 0,
            first_lba: 0,
            runs: Vec::new(),
        }
    }

    /// Number of blocks in the file.
    #[inline]
    pub fn num_blocks(&self) -> u64 {
        self.nblocks
    }

    /// Index into `runs` of the first run starting after block `fblk`.
    #[inline]
    fn runs_through(&self, fblk: u64) -> usize {
        self.runs.partition_point(|&(start, _)| start <= fblk)
    }

    /// The disk address of file block `fblk`.
    ///
    /// # Panics
    ///
    /// Panics if `fblk` is beyond the end of the file.
    pub fn lba_of(&self, fblk: u64) -> Lba {
        assert!(
            fblk < self.nblocks,
            "block {fblk} beyond the file's {} blocks",
            self.nblocks
        );
        let (start, lba) = match self.runs_through(fblk) {
            0 => (0, self.first_lba),
            i => self.runs[i - 1],
        };
        lba + (fblk - start) * BLOCK_SECTORS
    }

    /// The block just past the physically contiguous run holding file
    /// block `fblk` (the file's block count for its last run).
    #[inline]
    pub fn run_end(&self, fblk: u64) -> u64 {
        self.runs
            .get(self.runs_through(fblk))
            .map_or(self.nblocks, |&(start, _)| start)
    }

    /// Whether file blocks `a` and `a + 1` are physically adjacent.
    pub fn contiguous(&self, a: u64) -> bool {
        a < self.nblocks.saturating_sub(1) && self.run_end(a) > a + 1
    }

    /// Heap bytes the block map holds beyond the inode itself.
    pub fn heap_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<(u64, Lba)>()
    }

    /// Appends `n` blocks at `lba`, merging them into the last run when
    /// they continue it on disk.
    fn push_run(&mut self, lba: Lba, n: u64) {
        let (start, run_lba) = self.runs.last().copied().unwrap_or((0, self.first_lba));
        if self.nblocks == 0 {
            self.first_lba = lba;
        } else if lba != run_lba + (self.nblocks - start) * BLOCK_SECTORS {
            self.runs.push((self.nblocks, lba));
        }
        self.nblocks += n;
    }

    /// Drops every block from `nblocks` on.
    fn truncate(&mut self, nblocks: u64) {
        self.runs
            .truncate(self.runs.partition_point(|&(start, _)| start < nblocks));
        self.nblocks = nblocks;
    }
}

/// The partition cannot hold an allocation. The allocator and the inode
/// it was growing are left as they were before the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoSpace;

/// Blocks per cluster: the unit of a cluster read and of an allocation
/// run (FreeBSD: 64 KB / 8 KB = 8).
pub(crate) const CLUSTER_BLOCKS: u64 = 8;

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
    /// # Errors
    ///
    /// [`NoSpace`] if the partition cannot hold the file; no inode number
    /// or block is used up.
    pub fn create_file(&mut self, size: u64, rng: &mut SimRng) -> Result<Inode, NoSpace> {
        let mut inode = Inode::empty(self.next_ino, size);
        self.append_blocks(&mut inode, size.div_ceil(BLOCK_BYTES), rng)?;
        self.next_ino += 1;
        Ok(inode)
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
    /// # Errors
    ///
    /// [`NoSpace`] if the partition cannot hold the new blocks; the inode
    /// and the allocator are unchanged.
    pub fn extend_file(
        &mut self,
        inode: &mut Inode,
        new_size: u64,
        rng: &mut SimRng,
    ) -> Result<(), NoSpace> {
        let more = new_size.div_ceil(BLOCK_BYTES).saturating_sub(inode.nblocks);
        self.append_blocks(inode, more, rng)?;
        inode.size = inode.size.max(new_size);
        Ok(())
    }

    /// Appends `nblocks` blocks at the cursor to `inode`, in cluster-sized
    /// runs so aging displaces realistic units. Each run, its aging gap
    /// included, is checked against the partition before the cursor
    /// moves; on [`NoSpace`] the cursor and the inode roll back.
    fn append_blocks(
        &mut self,
        inode: &mut Inode,
        nblocks: u64,
        rng: &mut SimRng,
    ) -> Result<(), NoSpace> {
        // Gaps only add to a request, so one larger than all the space
        // left (a peer's WRITE at a huge offset) fails before any draw.
        if nblocks * BLOCK_SECTORS > self.partition.sectors - self.cursor {
            return Err(NoSpace);
        }
        let (cursor, held) = (self.cursor, inode.nblocks);
        let mut remaining = nblocks;
        while remaining > 0 {
            let take = remaining.min(CLUSTER_BLOCKS);
            let mut at = self.cursor;
            if self.aging > 0.0 && rng.chance(self.aging) {
                // Displace this run: leave a gap as if intervening files
                // occupied the space.
                at += AGING_GAP_BLOCKS * BLOCK_SECTORS;
            }
            let span = take * BLOCK_SECTORS;
            if at + span > self.partition.sectors {
                self.cursor = cursor;
                inode.truncate(held);
                return Err(NoSpace);
            }
            inode.push_run(self.partition.abs(at, span), take);
            self.cursor = at + span;
            remaining -= take;
        }
        Ok(())
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

    /// The file's block map, one address per block.
    fn layout(f: &Inode) -> Vec<Lba> {
        (0..f.num_blocks()).map(|b| f.lba_of(b)).collect()
    }

    #[test]
    fn fresh_files_are_contiguous() {
        let mut a = Allocator::new(part(), 0.0);
        let mut rng = SimRng::new(1);
        let f = a.create_file(1024 * 1024, &mut rng).unwrap(); // 128 blocks
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
        let f1 = a.create_file(64 * 1024, &mut rng).unwrap();
        let f2 = a.create_file(64 * 1024, &mut rng).unwrap();
        let f1_end = f1.lba_of(f1.num_blocks() - 1) + BLOCK_SECTORS;
        assert!(f2.lba_of(0) >= f1_end);
        assert_ne!(f1.ino, f2.ino);
    }

    #[test]
    fn size_rounds_up_to_blocks() {
        let mut a = Allocator::new(part(), 0.0);
        let mut rng = SimRng::new(1);
        let f = a.create_file(BLOCK_BYTES + 1, &mut rng).unwrap();
        assert_eq!(f.num_blocks(), 2);
        assert_eq!(f.size, BLOCK_BYTES + 1);
    }

    #[test]
    fn aging_fragments_layout() {
        let mut a = Allocator::new(part(), 0.5);
        let mut rng = SimRng::new(42);
        let f = a.create_file(4 * 1024 * 1024, &mut rng).unwrap(); // 512 blocks
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
        let mut f = a.create_file(4 * 1024 * 1024, &mut rng).unwrap();
        let g = a.create_file(64 * 1024, &mut rng).unwrap();
        a.extend_file(&mut f, 5 * 1024 * 1024, &mut rng).unwrap();
        let h = layout(&f)
            .into_iter()
            .chain(layout(&g))
            .fold(simcore::FNV_BASIS, |h, lba| {
                simcore::fnv1a(h, &lba.to_le_bytes())
            });
        pins::check("ffs_aged_layout", [("layout", pins::hex(h))]);
    }

    #[test]
    fn extend_of_last_file_is_contiguous() {
        let mut a = Allocator::new(part(), 0.0);
        let mut rng = SimRng::new(1);
        let mut f = a.create_file(64 * 1024, &mut rng).unwrap(); // 8 blocks
        a.extend_file(&mut f, 128 * 1024, &mut rng).unwrap(); // +8 blocks
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
        let mut f1 = a.create_file(64 * 1024, &mut rng).unwrap();
        let f2 = a.create_file(64 * 1024, &mut rng).unwrap();
        a.extend_file(&mut f1, 128 * 1024, &mut rng).unwrap();
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
        let mut f = a.create_file(BLOCK_BYTES + 1, &mut rng).unwrap(); // 2 blocks
        let free_before = a.free_bytes();
        a.extend_file(&mut f, 2 * BLOCK_BYTES, &mut rng).unwrap();
        assert_eq!(f.num_blocks(), 2);
        assert_eq!(f.size, 2 * BLOCK_BYTES, "size still grows");
        assert_eq!(a.free_bytes(), free_before, "no new blocks");
        // A shrink is a no-op.
        a.extend_file(&mut f, 1, &mut rng).unwrap();
        assert_eq!(f.size, 2 * BLOCK_BYTES);
    }

    #[test]
    fn fresh_extend_ignores_rng() {
        let mut a1 = Allocator::new(part(), 0.0);
        let mut a2 = Allocator::new(part(), 0.0);
        let mut f1 = a1.create_file(64 * 1024, &mut SimRng::new(1)).unwrap();
        let mut f2 = a2.create_file(64 * 1024, &mut SimRng::new(999)).unwrap();
        a1.extend_file(&mut f1, 256 * 1024, &mut SimRng::new(2))
            .unwrap();
        a2.extend_file(&mut f2, 256 * 1024, &mut SimRng::new(777))
            .unwrap();
        assert_eq!(layout(&f1), layout(&f2));
    }

    #[test]
    fn fresh_allocation_ignores_rng() {
        let mut a1 = Allocator::new(part(), 0.0);
        let mut a2 = Allocator::new(part(), 0.0);
        let f1 = a1.create_file(1024 * 1024, &mut SimRng::new(1)).unwrap();
        let f2 = a2.create_file(1024 * 1024, &mut SimRng::new(999)).unwrap();
        assert_eq!(layout(&f1), layout(&f2));
    }

    #[test]
    fn free_bytes_decreases() {
        let mut a = Allocator::new(part(), 0.0);
        let before = a.free_bytes();
        a.create_file(1024 * 1024, &mut SimRng::new(1)).unwrap();
        assert_eq!(before - a.free_bytes(), 1024 * 1024);
    }

    #[test]
    fn overflow_is_no_space() {
        let small = Partition {
            start: 0,
            sectors: 32,
        };
        let mut a = Allocator::new(small, 0.0);
        let err = a.create_file(1024 * 1024, &mut SimRng::new(1));
        assert_eq!(err.map(|f| f.ino), Err(NoSpace));
        assert_eq!(a.free_bytes(), 32 * diskmodel::SECTOR_BYTES);
        let f = a.create_file(2 * BLOCK_BYTES, &mut SimRng::new(1)).unwrap();
        assert_eq!(f.ino, FIRST_INO, "a failed create uses no inode number");
        assert_eq!(a.free_bytes(), 0);
        // A request above all the space left fails before any aging draw
        // (a peer's WRITE at a huge offset costs no per-run walk).
        let mut aged = Allocator::new(small, 1.0);
        let mut rng = SimRng::new(3);
        let mut twin = rng.clone();
        let err = aged.create_file(u64::MAX / 2, &mut rng);
        assert_eq!(err.map(|f| f.ino), Err(NoSpace));
        assert_eq!(rng.next_u64(), twin.next_u64(), "no draw");
    }

    /// An aged allocation can fail although `free_bytes` covers it: the
    /// aging gap lands first. The allocator checks each run, gap
    /// included, and leaves the cursor and the inode as they were.
    #[test]
    fn aged_extend_past_the_end_is_no_space_and_rolls_back() {
        let part = Partition {
            start: 0,
            sectors: 1_152 + 28 * BLOCK_SECTORS,
        };
        let mut a = Allocator::new(part, 1.0);
        let mut rng = SimRng::new(1);
        // 8 blocks after a 64-block gap: the cursor ends at sector 1,152.
        let mut f = a.create_file(8 * BLOCK_BYTES, &mut rng).unwrap();
        assert_eq!(a.free_bytes(), 28 * BLOCK_BYTES);
        let before = layout(&f);
        let err = a.extend_file(&mut f, 16 * BLOCK_BYTES, &mut rng);
        assert_eq!(err, Err(NoSpace));
        assert_eq!(a.free_bytes(), 28 * BLOCK_BYTES, "the cursor rolled back");
        assert_eq!(layout(&f), before, "the inode rolled back");
        assert_eq!(f.size, 8 * BLOCK_BYTES);
        // A two-run extension whose second gap overflows drops its first
        // run too, inline slot included.
        let mut b = Allocator::new(part, 1.0);
        let mut g = b.create_file(0, &mut rng).unwrap();
        assert_eq!(
            b.extend_file(&mut g, 16 * BLOCK_BYTES, &mut rng),
            Err(NoSpace)
        );
        assert_eq!(
            (g.num_blocks(), g.size, b.free_bytes()),
            (0, 0, part.sectors * diskmodel::SECTOR_BYTES)
        );
    }
}
