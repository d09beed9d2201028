//! Ablation: cursors per file handle vs stride width.
//!
//! §8: "no file handle may have more than a small and constant number of
//! cursors ... access patterns such as those generated by Grid or MPI-like
//! cluster workloads can benefit from an arbitrary number of cursors."
//! Sweeping the limit against stride widths shows the cliff: a stride of
//! `s` needs at least `s` cursors.

use nfs_bench::BASE_SEED;
use nfssim::WorldConfig;
use readahead_core::{CursorConfig, NfsHeurConfig, ReadaheadPolicy};
use testbed::{Rig, StrideBench};

fn main() {
    let file_mb = nfs_bench::by_scale(32, 256);
    println!("cursor-limit ablation: scsi1, NFS/UDP, {file_mb} MB stride reads");
    println!(
        "{:>12} | {:>8} {:>8} {:>8}",
        "max_cursors", "s=2", "s=4", "s=8"
    );
    let limits = [1usize, 2, 4, 8, 16];
    let strides = [2u64, 4, 8];
    let mut cells = Vec::new();
    for &max_cursors in &limits {
        for &s in &strides {
            cells.push((max_cursors, s));
        }
    }
    let mbs = simfleet::map_indexed(&cells, |&(max_cursors, s)| {
        let cfg = WorldConfig {
            policy: ReadaheadPolicy::Cursor(CursorConfig {
                max_cursors,
                ..CursorConfig::default()
            }),
            heur: NfsHeurConfig::improved(),
            ..WorldConfig::default()
        };
        let mut b = StrideBench::new(Rig::scsi(1), cfg, file_mb, BASE_SEED);
        b.run(s)
    });
    for (li, &max_cursors) in limits.iter().enumerate() {
        print!("{max_cursors:>12} |");
        for si in 0..strides.len() {
            print!(" {:>8.2}", mbs[li * strides.len() + si]);
        }
        println!();
    }
}
