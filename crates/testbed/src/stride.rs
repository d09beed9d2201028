//! The §7 stride-read benchmark (Figure 8 / Table 1).
//!
//! A single process reads one 256 MB file in an `s`-stride pattern: the
//! interleaving of `s` sequential subcomponents. For `s = 2` the block
//! order is `0, N/2, 1, N/2+1, 2, N/2+2, ...`; the generalization visits
//! block `k*N/s + i` for `i = 0..N/s`, `k = 0..s`. To the default
//! heuristic this looks random; the cursor heuristic recognizes all `s`
//! subcomponents.

use nfsproto::FileHandle;
use nfssim::{NfsWorld, WorldConfig};

use crate::harness::{drive, Plan, PROC_CPU};
use crate::rig::Rig;

/// Generates the block visit order for an `s`-stride over `nblocks`.
///
/// # Panics
///
/// Panics unless `s` divides `nblocks` evenly and `s > 0`.
pub fn stride_order(nblocks: u64, s: u64) -> Vec<u64> {
    assert!(
        s > 0 && nblocks.is_multiple_of(s),
        "s={s} must divide nblocks={nblocks}"
    );
    let per = nblocks / s;
    let mut order = Vec::with_capacity(nblocks as usize);
    for i in 0..per {
        for k in 0..s {
            order.push(k * per + i);
        }
    }
    order
}

/// One stride benchmark world: a single file on one rig.
#[derive(Debug)]
pub struct StrideBench {
    world: NfsWorld,
    fh: FileHandle,
    size: u64,
}

impl StrideBench {
    /// Builds the world and creates the file (`file_mb` = 256 in the paper).
    pub fn new(rig: Rig, config: WorldConfig, file_mb: u64, seed: u64) -> Self {
        let fs = rig.build_fs(seed);
        let mut world = NfsWorld::new(config, fs, seed);
        let size = file_mb * 1024 * 1024;
        let fh = world.create_file(size);
        StrideBench { world, fh, size }
    }

    /// The world, for statistics.
    pub fn world(&self) -> &NfsWorld {
        &self.world
    }

    /// Reads the whole file in an `s`-stride pattern; returns MB/s.
    /// "The cache is flushed before each run" (Table 1).
    pub fn run(&mut self, s: u64) -> f64 {
        self.world.flush_all_caches();
        self.world.reset_client_heuristics();
        let start = self.world.now();
        let mut plans = [Plan::stride(self.fh, self.size, s)];
        let runs = drive(&mut self.world, start, &mut plans);
        // Unlike every other harness, the elapsed time includes one CPU
        // charge after the last read, so Table 1 and Figure 8 keep their
        // values.
        let end = runs[0].finished[0].expect("stride reader finished") + PROC_CPU;
        self.size as f64 / 1e6 / end.saturating_since(start).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readahead_core::{NfsHeurConfig, ReadaheadPolicy};

    #[test]
    fn stride_order_is_a_permutation() {
        for s in [1, 2, 4, 8] {
            let mut o = stride_order(64, s);
            o.sort_unstable();
            assert_eq!(o, (0..64).collect::<Vec<_>>(), "s={s}");
        }
    }

    #[test]
    fn stride_order_interleaves() {
        let o = stride_order(8, 2);
        assert_eq!(o, vec![0, 4, 1, 5, 2, 6, 3, 7]);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn stride_order_rejects_ragged() {
        let _ = stride_order(10, 4);
    }

    fn run(policy: ReadaheadPolicy, s: u64) -> f64 {
        let cfg = WorldConfig {
            policy,
            heur: NfsHeurConfig::improved(),
            ..WorldConfig::default()
        };
        let mut b = StrideBench::new(Rig::scsi(1), cfg, 32, 11);
        b.run(s)
    }

    #[test]
    fn cursor_beats_default_on_stride() {
        let default = run(ReadaheadPolicy::Default, 4);
        let cursor = run(ReadaheadPolicy::cursor(), 4);
        assert!(
            cursor > default * 1.4,
            "Table 1's headline: cursor {cursor:.2} vs default {default:.2} MB/s"
        );
    }

    #[test]
    fn stride_throughput_is_latency_bound_not_seek_bound() {
        // Even the default heuristic rides the drive's prefetch segments:
        // §7's numbers are MB/s, not KB/s.
        let default = run(ReadaheadPolicy::Default, 2);
        assert!(
            default > 3.0,
            "drive cache must save the default case: {default:.2} MB/s"
        );
    }
}
