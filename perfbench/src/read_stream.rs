//! `read_stream`: the paper's §4.2 benchmark in the Figure 7 thrash
//! regime. One UDP client on `ide1` with the stock `nfsheur` table runs 16
//! concurrent sequential 8 KB readers (closed loop, 15 µs of simulated CPU
//! between reads) over 256 MB, which is more than the server's 160 MB
//! buffer cache. Each rep builds a fresh world, so every pass starts with
//! cold caches.

use std::time::Instant;

use nfsproto::FileHandle;
use nfssim::{NfsWorld, WorldConfig};
use simcore::SimDuration;
use testbed::Rig;

use crate::metrics::{fold, world_layers, RepOut, Sim, FP_START};
use crate::tracer::{Boundary, Tracer};
use crate::Workload;

const READERS: usize = 16;
const PASS_BYTES: u64 = 256 * 1024 * 1024;
const READ_BYTES: u64 = 8_192;
/// Simulated CPU a reader process spends between reads.
const PROC_READ_CPU: SimDuration = SimDuration::from_micros(15);

/// The `read_stream` workload.
pub struct ReadStream {
    seed: u64,
}

impl ReadStream {
    /// The workload for `seed` (disk layout and client jitter).
    pub fn new(seed: u64) -> Self {
        ReadStream { seed }
    }
}

/// The world with one file per reader.
fn setup(seed: u64, tr: &mut Tracer) -> (NfsWorld, Vec<FileHandle>) {
    let fs = tr.span(Boundary::Build, || Rig::ide(1).build_fs(seed));
    let mut world = tr.span(Boundary::Build, || {
        NfsWorld::new(WorldConfig::default(), fs, seed)
    });
    let fhs = (0..READERS)
        .map(|_| {
            tr.span(Boundary::Build, || {
                world.create_file(PASS_BYTES / READERS as u64)
            })
        })
        .collect();
    (world, fhs)
}

impl Workload for ReadStream {
    fn setup_only(&mut self) -> f64 {
        let t0 = Instant::now();
        let built = setup(self.seed, &mut Tracer::new(false));
        let setup_s = t0.elapsed().as_secs_f64();
        drop(built);
        setup_s
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOut {
        let t0 = Instant::now();
        let (mut world, fhs) = setup(self.seed, tr);
        let setup_s = t0.elapsed().as_secs_f64();
        let per = PASS_BYTES / READERS as u64;

        let t1 = Instant::now();
        let start = world.now();
        let total_reads = PASS_BYTES / READ_BYTES;
        let mut next_offset = [READ_BYTES; READERS];
        for (i, &fh) in fhs.iter().enumerate() {
            tr.span(Boundary::Submit, || {
                world.read_from(0, start, fh, 0, READ_BYTES, i as u64)
            });
        }
        let mut lat_ns = Vec::with_capacity(total_reads as usize);
        let mut fp = FP_START;
        let mut failed = 0;
        let mut running = READERS;
        let mut end = start;
        while running > 0 {
            let t = tr
                .span(Boundary::NextEvent, || world.next_event())
                .expect("readers running but no event scheduled");
            for d in tr.span(Boundary::Advance, || world.advance(t)) {
                lat_ns.push(d.done_at.since(d.issued_at).as_nanos());
                fp = fold(fold(fp, d.tag), d.done_at.as_nanos());
                if !d.outcome.is_ok() {
                    failed += 1;
                }
                end = end.max(d.done_at);
                let i = d.tag as usize;
                let offset = next_offset[i];
                if offset >= per {
                    running -= 1;
                    continue;
                }
                let at = d.done_at + PROC_READ_CPU;
                tr.span(Boundary::Submit, || {
                    world.read_from(0, at, fhs[i], offset, READ_BYTES, d.tag)
                });
                next_offset[i] += READ_BYTES;
            }
        }
        let timed_s = t1.elapsed().as_secs_f64();

        let sim_secs = end.since(start).as_secs_f64();
        let mut violations = Vec::new();
        if failed > 0 {
            violations.push(format!("read_stream: {failed} reads did not complete Ok"));
        }
        if lat_ns.len() as u64 != total_reads {
            violations.push(format!(
                "read_stream: {} of {total_reads} reads completed",
                lat_ns.len()
            ));
        }
        let attempted = lat_ns.len() as u64;
        let mut layers = Vec::new();
        world_layers(&world, sim_secs, &mut layers);
        RepOut {
            setup_s,
            timed_s,
            attempted,
            failed,
            fingerprint: fp,
            sim: Sim::from_latencies(lat_ns, PASS_BYTES, sim_secs),
            layers,
            violations,
        }
    }
}
