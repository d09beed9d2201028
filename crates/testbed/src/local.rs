//! The §4.2 benchmark against the *local* file system (Figures 1–3).
//!
//! "For each n in (1, 2, 4, 8, 16, 32): for each file of size 256/n MB,
//! create a reader process to read that file ... The number of MB read
//! divided by the time required for the last reader to finish gives the
//! effective throughput."
//!
//! The file population is created once, up front, exactly as §4.3
//! describes (one 256 MB file, two 128 MB files, ... thirty-two 8 MB
//! files), and every run flushes all caches first (§4.3.1).

use std::collections::HashMap;

use ffs::{FileSystem, LocalFd, BLOCK_BYTES};
use simcore::{SimRng, SimTime};

use crate::harness::PROC_CPU;
use crate::rig::Rig;

/// The reader counts the paper sweeps.
pub const READER_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Result of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total MB read divided by the time the *last* reader needed.
    pub throughput_mbs: f64,
    /// Per-process completion times in seconds, sorted ascending
    /// (Figure 3's distribution).
    pub completion_secs: Vec<f64>,
}

/// A populated local-benchmark instance on one rig.
#[derive(Debug)]
pub struct LocalBench {
    fs: FileSystem,
    /// For each reader count, the inodes of its file set.
    file_sets: HashMap<usize, Vec<u64>>,
    total_bytes: u64,
}

impl LocalBench {
    /// Builds the rig, formats the file system, and populates every file
    /// set. `total_mb` is the per-iteration volume (256 in the paper;
    /// smaller for quick runs).
    pub fn new(rig: Rig, reader_counts: &[usize], total_mb: u64, seed: u64) -> Self {
        let mut fs = rig.build_fs(seed);
        let mut rng = SimRng::from_seed_and_stream(seed, 0xF11E);
        let mut file_sets = HashMap::new();
        for &n in reader_counts {
            assert!(
                n > 0 && total_mb.is_multiple_of(n as u64),
                "reader count {n} must divide {total_mb}"
            );
            let per = total_mb / n as u64 * 1024 * 1024;
            let inos: Vec<u64> = (0..n)
                .map(|_| {
                    fs.create_file(per, &mut rng)
                        .expect("the partition holds every file")
                })
                .collect();
            file_sets.insert(n, inos);
        }
        LocalBench {
            fs,
            file_sets,
            total_bytes: total_mb * 1024 * 1024,
        }
    }

    /// Access to the underlying file system (scheduler/TCQ toggles and
    /// statistics between runs).
    pub fn fs_mut(&mut self) -> &mut FileSystem {
        &mut self.fs
    }

    /// Runs one iteration with `readers` concurrent processes, flushing
    /// caches first. Returns per-run metrics.
    ///
    /// # Panics
    ///
    /// Panics if `readers` was not in the populated reader counts.
    pub fn run(&mut self, readers: usize) -> RunResult {
        let inos = self
            .file_sets
            .get(&readers)
            .unwrap_or_else(|| panic!("no file set for {readers} readers"))
            .clone();
        self.fs.flush_caches();

        struct Proc {
            ino: u64,
            size: u64,
            offset: u64,
            fd: LocalFd,
            finished: Option<SimTime>,
        }
        let per = self.total_bytes / readers as u64;
        let mut procs: Vec<Proc> = inos
            .iter()
            .map(|&ino| Proc {
                ino,
                size: per,
                offset: 0,
                fd: LocalFd::new(),
                finished: None,
            })
            .collect();

        // All processes start at the same instant.
        for (i, p) in procs.iter_mut().enumerate() {
            let seq = p.fd.observe(0, BLOCK_BYTES);
            self.fs
                .read(SimTime::ZERO, p.ino, 0, BLOCK_BYTES, seq, i as u64);
            p.offset = BLOCK_BYTES;
        }
        let mut pending = readers;
        let mut guard: u64 = 0;
        while pending > 0 {
            guard += 1;
            assert!(guard < 200_000_000, "benchmark event loop stuck");
            let t = self.fs.next_event().expect("readers pending but no events");
            for done in self.fs.advance(t) {
                let i = done.tag as usize;
                let p = &mut procs[i];
                if p.offset >= p.size {
                    p.finished = Some(done.done_at);
                    pending -= 1;
                    continue;
                }
                let issue_at = done.done_at + PROC_CPU;
                let seq = p.fd.observe(p.offset, BLOCK_BYTES);
                self.fs
                    .read(issue_at, p.ino, p.offset, BLOCK_BYTES, seq, i as u64);
                p.offset += BLOCK_BYTES;
            }
        }
        let mut completion_secs: Vec<f64> = procs
            .iter()
            .map(|p| p.finished.expect("all finished").as_secs_f64())
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
    use iosched::SchedulerKind;

    #[test]
    fn single_local_reader_near_media_rate() {
        let mut b = LocalBench::new(Rig::ide(1), &[1], 16, 42);
        let r = b.run(1);
        assert!(
            (25.0..45.0).contains(&r.throughput_mbs),
            "local sequential read {} MB/s",
            r.throughput_mbs
        );
    }

    #[test]
    fn zcav_outer_beats_inner_locally() {
        let mut outer = LocalBench::new(Rig::ide(1), &[1], 16, 42);
        let mut inner = LocalBench::new(Rig::ide(4), &[1], 16, 42);
        let o = outer.run(1).throughput_mbs;
        let i = inner.run(1).throughput_mbs;
        assert!(o > i * 1.2, "ZCAV: ide1 {o:.1} vs ide4 {i:.1}");
    }

    #[test]
    fn elevator_is_unfair_for_concurrent_readers() {
        let mut b = LocalBench::new(Rig::ide(1), &[8], 32, 42);
        let r = b.run(8);
        let first = r.completion_secs[0];
        let last = r.completion_secs[7];
        assert!(
            last / first > 3.0,
            "elevator should finish readers one after another: {:?}",
            r.completion_secs
        );
    }

    #[test]
    fn ncscan_is_fair_but_slower() {
        let mut elev = LocalBench::new(Rig::ide(1), &[8], 32, 42);
        let fair = Rig::ide(1).with_scheduler(SchedulerKind::NCscan);
        let mut ncs = LocalBench::new(fair, &[8], 32, 42);
        let re = elev.run(8);
        let rn = ncs.run(8);
        let spread_n = rn.completion_secs[7] / rn.completion_secs[0];
        assert!(
            spread_n < 1.5,
            "N-CSCAN spread should be small: {:?}",
            rn.completion_secs
        );
        assert!(
            re.throughput_mbs > rn.throughput_mbs * 1.5,
            "fairness costs throughput: elevator {:.1} vs n-cscan {:.1}",
            re.throughput_mbs,
            rn.throughput_mbs
        );
    }

    #[test]
    fn tagged_queues_hurt_concurrent_scsi_readers() {
        let mut tags = LocalBench::new(Rig::scsi(1), &[8], 32, 42);
        let mut notags = LocalBench::new(Rig::scsi(1).no_tags(), &[8], 32, 42);
        let t = tags.run(8).throughput_mbs;
        let n = notags.run(8).throughput_mbs;
        assert!(
            n > t * 1.3,
            "disabling tags should help: tags {t:.1} vs no-tags {n:.1} MB/s"
        );
    }

    #[test]
    fn reruns_on_same_bench_are_consistent() {
        let mut b = LocalBench::new(Rig::scsi(1).no_tags(), &[2], 16, 42);
        let a = b.run(2).throughput_mbs;
        let c = b.run(2).throughput_mbs;
        let ratio = (a - c).abs() / a;
        assert!(
            ratio < 0.05,
            "cache flush makes reruns comparable: {a} vs {c}"
        );
    }

    #[test]
    #[should_panic(expected = "no file set")]
    fn unpopulated_reader_count_panics() {
        let mut b = LocalBench::new(Rig::ide(1), &[1], 16, 42);
        b.run(2);
    }
}
