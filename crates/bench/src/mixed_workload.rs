//! Extension: the §8 mixed read/write/metadata workload.

use crate::{Level, BASE_SEED};
use nfssim::WorldConfig;
use readahead_core::{NfsHeurConfig, ReadaheadPolicy};
use testbed::{run_mixed, MixRatios, Rig};

pub fn run(level: Level) {
    let (ops, file_mb) = level.pick((300, 8), (2_000, 64));
    println!("mixed workload (70% read / 10% write / 20% getattr), 8 readers, ide1/UDP");
    println!("{:<12} | {:>10} | {:>12}", "policy", "ops/s", "read MB/s");
    for policy in [
        ReadaheadPolicy::Default,
        ReadaheadPolicy::Always,
        ReadaheadPolicy::slowdown(),
        ReadaheadPolicy::cursor(),
    ] {
        let cfg = WorldConfig {
            policy,
            heur: NfsHeurConfig::improved(),
            ..WorldConfig::default()
        };
        let r = run_mixed(
            Rig::ide(1),
            cfg,
            8,
            file_mb,
            ops,
            MixRatios::default(),
            BASE_SEED,
        );
        println!(
            "{:<12} | {:>10.0} | {:>12.2}",
            policy.label(),
            r.ops_per_sec,
            r.read_mbs
        );
    }
}
