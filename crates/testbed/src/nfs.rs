//! The §4.2 benchmark over NFS (Figures 4–7).
//!
//! Identical to the local benchmark, but the reader processes run on the
//! client machine and every read crosses the simulated network into the
//! `nfsd` pool. The interesting knobs are the transport (UDP vs TCP), the
//! server's read-ahead policy and `nfsheur` geometry, tagged queueing, and
//! the busy-client switch.

use std::collections::HashMap;

use nfsproto::FileHandle;
use nfssim::{NfsWorld, WorldConfig};
use simcore::{SimDuration, SimTime};

use crate::local::RunResult;
use crate::rig::Rig;

/// Per-read CPU cost charged to a client reader process.
const PROC_READ_CPU: SimDuration = SimDuration::from_micros(15);

/// NFS read size used by the reader processes (= rsize).
const READ_BYTES: u64 = 8_192;

/// A populated NFS benchmark: client + network + server + files.
#[derive(Debug)]
pub struct NfsBench {
    world: NfsWorld,
    file_sets: HashMap<usize, Vec<FileHandle>>,
    total_bytes: u64,
}

impl NfsBench {
    /// Builds a world on `rig` with `config` and populates the file sets.
    pub fn new(
        rig: Rig,
        config: WorldConfig,
        reader_counts: &[usize],
        total_mb: u64,
        seed: u64,
    ) -> Self {
        let fs = rig.build_fs(seed);
        let mut world = NfsWorld::new(config, fs, seed);
        let mut file_sets = HashMap::new();
        for &n in reader_counts {
            assert!(n > 0 && total_mb.is_multiple_of(n as u64));
            let per = total_mb / n as u64 * 1024 * 1024;
            let fhs: Vec<FileHandle> = (0..n).map(|_| world.create_file(per)).collect();
            file_sets.insert(n, fhs);
        }
        NfsBench {
            world,
            file_sets,
            total_bytes: total_mb * 1024 * 1024,
        }
    }

    /// The world, for inspecting statistics after runs.
    pub fn world(&self) -> &NfsWorld {
        &self.world
    }

    /// Runs one iteration with `readers` concurrent client processes.
    pub fn run(&mut self, readers: usize) -> RunResult {
        let fhs = self
            .file_sets
            .get(&readers)
            .unwrap_or_else(|| panic!("no file set for {readers} readers"))
            .clone();
        self.world.flush_all_caches();
        self.world.reset_client_heuristics();
        let start = self.world.now();

        struct Proc {
            fh: FileHandle,
            size: u64,
            offset: u64,
            finished: Option<SimTime>,
        }
        let per = self.total_bytes / readers as u64;
        let mut procs: Vec<Proc> = fhs
            .iter()
            .map(|&fh| Proc {
                fh,
                size: per,
                offset: 0,
                finished: None,
            })
            .collect();

        for (i, p) in procs.iter_mut().enumerate() {
            self.world
                .read_from(0, start, p.fh, 0, READ_BYTES, i as u64);
            p.offset = READ_BYTES;
        }
        let mut pending = readers;
        let mut guard: u64 = 0;
        while pending > 0 {
            guard += 1;
            assert!(guard < 200_000_000, "NFS benchmark event loop stuck");
            let t = self
                .world
                .next_event()
                .expect("readers pending but no events");
            for done in self.world.advance(t) {
                let i = done.tag as usize;
                let p = &mut procs[i];
                if p.offset >= p.size {
                    p.finished = Some(done.done_at);
                    pending -= 1;
                    continue;
                }
                let issue_at = done.done_at + PROC_READ_CPU;
                self.world
                    .read_from(0, issue_at, p.fh, p.offset, READ_BYTES, i as u64);
                p.offset += READ_BYTES;
            }
        }
        let mut completion_secs: Vec<f64> = procs
            .iter()
            .map(|p| {
                p.finished
                    .expect("all finished")
                    .saturating_since(start)
                    .as_secs_f64()
            })
            .collect();
        completion_secs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let elapsed = *completion_secs.last().expect("non-empty");
        RunResult {
            throughput_mbs: self.total_bytes as f64 / 1e6 / elapsed,
            completion_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::TransportKind;
    use readahead_core::{NfsHeurConfig, ReadaheadPolicy};

    fn quick(cfg: WorldConfig, rig: Rig, readers: usize) -> f64 {
        let mut b = NfsBench::new(rig, cfg, &[readers], 16, 7);
        b.run(readers).throughput_mbs
    }

    #[test]
    fn nfs_is_slower_than_local() {
        let nfs = quick(WorldConfig::default(), Rig::ide(1), 1);
        let mut local = crate::local::LocalBench::new(Rig::ide(1), &[1], 16, 7);
        let loc = local.run(1).throughput_mbs;
        assert!(
            loc > nfs * 1.3,
            "RPC overhead halves throughput: local {loc:.1} vs NFS {nfs:.1}"
        );
    }

    #[test]
    fn udp_beats_tcp_for_one_reader() {
        let udp = quick(WorldConfig::default(), Rig::ide(1), 1);
        let tcp = quick(
            WorldConfig {
                transport: TransportKind::Tcp,
                ..WorldConfig::default()
            },
            Rig::ide(1),
            1,
        );
        assert!(udp > tcp * 1.3, "udp {udp:.1} vs tcp {tcp:.1}");
    }

    #[test]
    fn always_readahead_with_big_table_beats_default_at_many_readers() {
        let default = quick(WorldConfig::default(), Rig::ide(1), 16);
        let always = quick(
            WorldConfig {
                policy: ReadaheadPolicy::Always,
                heur: NfsHeurConfig::improved(),
                ..WorldConfig::default()
            },
            Rig::ide(1),
            16,
        );
        assert!(
            always > default * 1.1,
            "always {always:.1} vs default {default:.1} at 16 readers"
        );
    }

    #[test]
    fn busy_client_lowers_throughput() {
        let idle = quick(WorldConfig::default(), Rig::ide(1), 4);
        let busy = quick(
            WorldConfig {
                busy_loops: 4,
                ..WorldConfig::default()
            },
            Rig::ide(1),
            4,
        );
        assert!(busy < idle, "busy {busy:.1} vs idle {idle:.1}");
    }
}
