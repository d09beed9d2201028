//! The §8 future-work workload: reads mixed with writes and metadata.
//!
//! "We plan to investigate the effect of SlowDown and the cursor-based
//! read-ahead heuristics on a more complex and realistic workload (for
//! example, adding a large number of metadata and write requests to the
//! workload)." This module is that experiment: each client process mostly
//! reads sequentially but intersperses WRITEs and GETATTRs, and we measure
//! whether the heuristics still pay off when the request stream is noisy.

use nfssim::{NfsWorld, WorldConfig};

use crate::harness::{drive, ClientWorkload, Plan};
use crate::rig::Rig;

/// Operation mix (percentages must sum to <= 100; remainder is reads).
#[derive(Debug, Clone, Copy)]
pub struct MixRatios {
    /// Percent of operations that are 8 KB writes at random offsets.
    pub write_pct: u32,
    /// Percent of operations that are GETATTRs.
    pub getattr_pct: u32,
}

impl Default for MixRatios {
    fn default() -> Self {
        MixRatios {
            write_pct: 10,
            getattr_pct: 20,
        }
    }
}

/// Result of one mixed run.
#[derive(Debug, Clone, Copy)]
pub struct MixedResult {
    /// Total operations per second.
    pub ops_per_sec: f64,
    /// Read throughput in MB/s over elapsed time.
    pub read_mbs: f64,
}

/// Runs `readers` processes over one file each, `ops_per_proc` operations
/// per process, with the given mix, returning aggregate rates.
pub fn run_mixed(
    rig: Rig,
    config: WorldConfig,
    readers: usize,
    file_mb: u64,
    ops_per_proc: u64,
    mix: MixRatios,
    seed: u64,
) -> MixedResult {
    let fs = rig.build_fs(seed);
    let mut world = NfsWorld::new(config, fs, seed);
    let workload = ClientWorkload::Mixed {
        readers,
        file_mb,
        ops_per_proc,
        mix,
    };
    let mut plans = [Plan::build(&mut world, 0, &workload, seed)];
    let start = world.now();
    let runs = drive(&mut world, start, &mut plans);
    let elapsed = runs[0]
        .finished
        .iter()
        .map(|f| f.expect("finished"))
        .max()
        .expect("non-empty")
        .saturating_since(start)
        .as_secs_f64();
    let Plan::Mixed(host) = &plans[0] else {
        unreachable!("a mixed workload builds a mixed plan")
    };
    MixedResult {
        ops_per_sec: (readers as u64 * ops_per_proc) as f64 / elapsed,
        read_mbs: host.read_bytes as f64 / 1e6 / elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readahead_core::{NfsHeurConfig, ReadaheadPolicy};

    fn cfg(policy: ReadaheadPolicy) -> WorldConfig {
        WorldConfig {
            policy,
            heur: NfsHeurConfig::improved(),
            ..WorldConfig::default()
        }
    }

    #[test]
    fn mixed_workload_completes_and_reports_rates() {
        let r = run_mixed(
            Rig::ide(1),
            cfg(ReadaheadPolicy::slowdown()),
            4,
            8,
            200,
            MixRatios::default(),
            3,
        );
        assert!(r.ops_per_sec > 100.0, "{r:?}");
        assert!(r.read_mbs > 1.0, "{r:?}");
    }

    #[test]
    fn slowdown_survives_metadata_noise() {
        // The §8 question: do writes/GETATTRs interleaved into the stream
        // destroy the sequential read-ahead? SlowDown should stay close to
        // Always even with 30% non-read traffic.
        let always = run_mixed(
            Rig::ide(1),
            cfg(ReadaheadPolicy::Always),
            4,
            8,
            300,
            MixRatios::default(),
            4,
        );
        let slowdown = run_mixed(
            Rig::ide(1),
            cfg(ReadaheadPolicy::slowdown()),
            4,
            8,
            300,
            MixRatios::default(),
            4,
        );
        assert!(
            slowdown.ops_per_sec > always.ops_per_sec * 0.7,
            "slowdown {:?} vs always {:?}",
            slowdown,
            always
        );
    }

    #[test]
    fn pure_reads_degenerate_to_plain_benchmark() {
        let r = run_mixed(
            Rig::ide(1),
            cfg(ReadaheadPolicy::slowdown()),
            1,
            8,
            256,
            MixRatios {
                write_pct: 0,
                getattr_pct: 0,
            },
            5,
        );
        // 256 sequential 8 KB reads at NFS speeds: >= 10 MB/s.
        assert!(r.read_mbs > 10.0, "{r:?}");
    }

    #[test]
    #[should_panic]
    fn overfull_mix_rejected() {
        let _ = run_mixed(
            Rig::ide(1),
            cfg(ReadaheadPolicy::Default),
            1,
            8,
            10,
            MixRatios {
                write_pct: 60,
                getattr_pct: 60,
            },
            6,
        );
    }
}
