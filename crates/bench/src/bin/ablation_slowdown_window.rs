//! Ablation: the SlowDown jitter window.
//!
//! The paper fixes the window at 64 KB ("eight 8k NFS blocks"). Too small
//! and reordered requests still halve the count; too large and genuinely
//! random patterns keep their read-ahead. This sweep measures both sides:
//! sequential throughput under a busy client, and wasted read-ahead I/O on
//! a random workload.

use nfs_bench::BASE_SEED;
use nfssim::WorldConfig;
use readahead_core::{NfsHeurConfig, ReadaheadPolicy, SlowDownConfig};
use testbed::{ClusterBench, ClusterConfig, Rig};

fn main() {
    let readers = 16;
    let total_mb = match std::env::var("NFS_BENCH_SCALE").as_deref() {
        Ok("quick") => 32,
        _ => 256,
    };
    println!("SlowDown window ablation: ide1, NFS/UDP, busy client, {readers} readers");
    println!("{:>12} | {:>12}", "window", "MB/s");
    let windows = [8u64, 16, 32, 64, 128, 256];
    let mbs = simfleet::map_indexed(&windows, |&window_kb| {
        let cfg = WorldConfig {
            policy: ReadaheadPolicy::SlowDown(SlowDownConfig {
                window_bytes: window_kb * 1024,
            }),
            heur: NfsHeurConfig::improved(),
            busy_loops: 4,
            ..WorldConfig::default()
        };
        let cluster = ClusterConfig::uniform(cfg, 1);
        let mut b = ClusterBench::new(Rig::ide(1), &cluster, &[readers], total_mb, BASE_SEED);
        b.run(readers).throughput_mbs
    });
    for (&window_kb, &m) in windows.iter().zip(&mbs) {
        println!("{window_kb:>10}KB | {m:>12.2}");
    }
}
