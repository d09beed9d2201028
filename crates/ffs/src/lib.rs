//! An FFS-like file system substrate.
//!
//! Provides what the paper's NFS server sits on: cylinder-group file
//! layout ([`Allocator`]), an LRU buffer cache with shared in-flight reads
//! ([`BufferCache`]), a kernel block-I/O layer that marries an
//! [`iosched`] scheduler to a [`diskmodel`] drive ([`BioLayer`]), and the
//! cluster read / read-ahead read path ([`FileSystem`]) whose aggressiveness
//! is driven by a caller-supplied sequentiality count — the integration
//! point for the `nfsheur` heuristics in `readahead-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod bcache;
mod bio;
mod fs;

pub use alloc::{Allocator, Inode, BLOCK_BYTES, BLOCK_SECTORS, FIRST_INO};
pub use bcache::{BlockKey, BufferCache};
pub use bio::{BioLayer, BioStats, MAX_IO_RETRIES};
pub use fs::{FileSystem, FsConfig, FsStats, IoStatus, OpDone, ReadId, SEQCOUNT_MAX};

/// The classic per-descriptor sequentiality heuristic used for *local*
/// reads (the NFS server replaces this with `nfsheur`, which is the paper's
/// subject). Mirrors `sequential_heuristic()` in FreeBSD's `vfs_vnops.c`:
/// consecutive offsets grow the count, anything else collapses it.
#[derive(Debug, Clone, Copy)]
pub struct LocalFd {
    next_offset: u64,
    seqcount: u32,
}

impl Default for LocalFd {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalFd {
    /// A freshly opened descriptor (initial sequentiality of 1).
    pub fn new() -> Self {
        LocalFd {
            next_offset: 0,
            seqcount: 1,
        }
    }

    /// Records a read at `offset` of `len` bytes and returns the
    /// sequentiality count to pass to [`FileSystem::read`].
    pub fn observe(&mut self, offset: u64, len: u64) -> u32 {
        if offset == self.next_offset {
            self.seqcount = (self.seqcount + 1).min(SEQCOUNT_MAX);
        } else {
            // A single out-of-order request drops the score to its floor —
            // the fragility SlowDown fixes on the NFS side.
            self.seqcount = 1;
        }
        self.next_offset = offset + len;
        self.seqcount
    }

    /// The current count without observing a new access.
    pub fn seqcount(&self) -> u32 {
        self.seqcount
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_fd_grows_on_sequential() {
        let mut fd = LocalFd::new();
        assert_eq!(fd.observe(0, 8192), 2);
        assert_eq!(fd.observe(8192, 8192), 3);
        assert_eq!(fd.observe(16_384, 8192), 4);
    }

    #[test]
    fn local_fd_resets_on_jump() {
        let mut fd = LocalFd::new();
        fd.observe(0, 8192);
        fd.observe(8192, 8192);
        assert_eq!(fd.observe(100 * 8192, 8192), 1, "jump resets to floor");
        assert_eq!(fd.observe(101 * 8192, 8192), 2, "then regrows");
    }

    #[test]
    fn local_fd_caps_at_127() {
        let mut fd = LocalFd::new();
        for i in 0..200u64 {
            fd.observe(i * 8192, 8192);
        }
        assert_eq!(fd.seqcount(), SEQCOUNT_MAX);
    }
}
