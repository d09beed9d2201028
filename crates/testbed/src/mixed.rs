//! The §8 future-work workload: reads mixed with writes and metadata.
//!
//! "We plan to investigate the effect of SlowDown and the cursor-based
//! read-ahead heuristics on a more complex and realistic workload (for
//! example, adding a large number of metadata and write requests to the
//! workload)." This module is that experiment: each client process mostly
//! reads sequentially but intersperses WRITEs and GETATTRs, and we measure
//! whether the heuristics still pay off when the request stream is noisy.

use nfsproto::FileHandle;
use nfssim::{NfsWorld, WorldConfig};
use simcore::{SimDuration, SimRng, SimTime};

use crate::rig::Rig;

const READ_BYTES: u64 = 8_192;
const PROC_CPU: SimDuration = SimDuration::from_micros(15);

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
    assert!(mix.write_pct + mix.getattr_pct <= 100);
    let fs = rig.build_fs(seed);
    let mut world = NfsWorld::new(config, fs, seed);
    let size = file_mb * 1024 * 1024;
    let fhs: Vec<FileHandle> = (0..readers).map(|_| world.create_file(size)).collect();
    let mut rng = SimRng::from_seed_and_stream(seed, 0x3B1D);

    struct Proc {
        fh: FileHandle,
        read_offset: u64,
        remaining: u64,
        finished: Option<SimTime>,
    }
    let mut procs: Vec<Proc> = fhs
        .iter()
        .map(|&fh| Proc {
            fh,
            read_offset: 0,
            remaining: ops_per_proc,
            finished: None,
        })
        .collect();
    let nblocks = size / READ_BYTES;

    let mut bytes_read = 0u64;
    let issue = |world: &mut NfsWorld,
                 p: &mut Proc,
                 rng: &mut SimRng,
                 now: SimTime,
                 i: usize,
                 bytes_read: &mut u64| {
        let roll = rng.gen_range(0u32..100);
        if roll < mix.write_pct {
            let blk = rng.gen_range(0..nblocks);
            world.write_from(0, now, p.fh, blk * READ_BYTES, READ_BYTES, i as u64);
        } else if roll < mix.write_pct + mix.getattr_pct {
            world.getattr_from(0, now, p.fh, i as u64);
        } else {
            if p.read_offset >= size {
                p.read_offset = 0;
            }
            world.read_from(0, now, p.fh, p.read_offset, READ_BYTES, i as u64);
            p.read_offset += READ_BYTES;
            *bytes_read += READ_BYTES;
        }
        p.remaining -= 1;
    };

    let start = world.now();
    for (i, p) in procs.iter_mut().enumerate() {
        issue(&mut world, p, &mut rng, start, i, &mut bytes_read);
    }
    let mut pending = readers;
    let mut guard = 0u64;
    while pending > 0 {
        guard += 1;
        assert!(guard < 200_000_000, "mixed workload stuck");
        let t = world.next_event().expect("ops pending");
        for done in world.advance(t) {
            let i = done.tag as usize;
            let p = &mut procs[i];
            if p.remaining == 0 {
                if p.finished.is_none() {
                    p.finished = Some(done.done_at);
                    pending -= 1;
                }
                continue;
            }
            issue(
                &mut world,
                p,
                &mut rng,
                done.done_at + PROC_CPU,
                i,
                &mut bytes_read,
            );
        }
    }
    let elapsed = procs
        .iter()
        .map(|p| p.finished.expect("finished"))
        .max()
        .expect("non-empty")
        .saturating_since(start)
        .as_secs_f64();
    MixedResult {
        ops_per_sec: (readers as u64 * ops_per_proc) as f64 / elapsed,
        read_mbs: bytes_read as f64 / 1e6 / elapsed,
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
