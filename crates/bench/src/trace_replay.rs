//! Extension: open-loop trace replay latency, per policy.
//!
//! Replays synthesized traces through the *entire* simulated installation
//! and reports request-latency percentiles — the evaluation one would run
//! against a production trace. Complements `trace_analysis`, which scores
//! the heuristics in isolation.

use crate::{Level, BASE_SEED};
use nfssim::WorldConfig;
use nfstrace::{synth, Trace};
use readahead_core::{NfsHeurConfig, ReadaheadPolicy};
use simcore::SimRng;
use testbed::{replay, Rig};

fn traces(scale_blocks: u64) -> Vec<(&'static str, Trace)> {
    let mut rng = SimRng::new(BASE_SEED);
    let sequential = synth::sequential(
        synth::SequentialSpec {
            files: 8,
            blocks_per_file: scale_blocks,
            ..synth::SequentialSpec::default()
        },
        &mut rng,
    );
    let (reordered, _) = synth::reorder(sequential.clone(), 0.06, &mut rng);
    let stride = synth::stride(4, scale_blocks * 4, 8_192, 300.0, &mut rng);
    let mixed = synth::with_metadata_noise(sequential.clone(), 0.3, &mut rng);
    vec![
        ("sequential x8", sequential),
        ("6% reordered", reordered),
        ("4-stride", stride),
        ("30% metadata", mixed),
    ]
}

pub fn run(level: Level) {
    let blocks = level.pick(128, 512);
    println!("open-loop trace replay: ide1, NFS/UDP, improved nfsheur");
    println!(
        "{:<16} {:<10} | {:>8} | {:>9} {:>9} {:>9}",
        "trace", "policy", "ops", "mean ms", "p50 ms", "p99 ms"
    );
    for (name, trace) in traces(blocks) {
        for policy in [
            ReadaheadPolicy::Default,
            ReadaheadPolicy::slowdown(),
            ReadaheadPolicy::cursor(),
        ] {
            let cfg = WorldConfig {
                policy,
                heur: NfsHeurConfig::improved(),
                ..WorldConfig::default()
            };
            let r = replay(Rig::ide(1), cfg, &trace, BASE_SEED);
            println!(
                "{:<16} {:<10} | {:>8} | {:>9.2} {:>9.2} {:>9.2}",
                name,
                policy.label(),
                r.ops,
                r.mean_ms,
                r.p50_ms,
                r.p99_ms
            );
        }
        println!();
    }
}
