//! Ablation: nfsheur table geometry (slots x probes).
//!
//! DESIGN.md calls out the table geometry as the paper's highest-leverage
//! change; this sweep shows throughput at 16 concurrent readers as the
//! table grows, with the Default heuristic held fixed.

use nfs_bench::BASE_SEED;
use nfssim::WorldConfig;
use readahead_core::NfsHeurConfig;
use testbed::{ClusterBench, ClusterConfig, Rig};

fn main() {
    let readers = 16;
    let total_mb = nfs_bench::by_scale(32, 256);
    println!("nfsheur geometry ablation: ide1, NFS/UDP, {readers} readers, Default heuristic");
    println!(
        "{:>7} {:>7} | {:>12} | {:>10}",
        "slots", "probes", "MB/s", "ejections"
    );
    let mut cells = Vec::new();
    for slots in [8usize, 16, 64, 256, 1024] {
        for probes in [1usize, 2, 4, 8] {
            if probes > slots {
                continue;
            }
            cells.push((slots, probes));
        }
    }
    let rows = simfleet::map_indexed(&cells, |&(slots, probes)| {
        let cfg = WorldConfig {
            heur: NfsHeurConfig { slots, probes },
            ..WorldConfig::default()
        };
        let cluster = ClusterConfig::uniform(cfg, 1);
        let mut b = ClusterBench::new(Rig::ide(1), &cluster, &[readers], total_mb, BASE_SEED);
        let r = b.run(readers);
        (r.throughput_mbs, b.world().heur().stats().ejections)
    });
    for (&(slots, probes), &(mbs, ej)) in cells.iter().zip(&rows) {
        println!("{slots:>7} {probes:>7} | {mbs:>12.2} | {ej:>10}");
    }
}
