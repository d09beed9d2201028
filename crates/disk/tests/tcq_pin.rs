//! Drive-level pin of the tagged-queue scheduler: the SCSI drive at its
//! default depth-64 SPTF with aging, fed an open-loop mix of sequential
//! streams (cache hits), random reads and random writes faster than it can
//! serve them, so `choose` picks among a deep queue on most dispatches.
//!
//! The `disk_tcq_depth64` values in `pins.txt` were captured while
//! `choose` still scored both candidates of every `min_by` comparison.
//! Scoring each candidate once must keep every completion's id and time.

use std::collections::VecDeque;

use diskmodel::{Disk, DiskRequest, DriveModel};
use pins::fold;
use simcore::{SimDuration, SimRng, SimTime, FNV_BASIS};

const REQUESTS: u64 = 4_000;
const STREAMS: u64 = 8;
/// Mean gap between arrivals; the drive needs several times longer per
/// random command, so the host keeps the tag queue full.
const MEAN_GAP_S: f64 = 0.002;

fn request(rng: &mut SimRng, next_lba: &mut [u64], span: u64, tag: u64) -> DiskRequest {
    let roll = rng.uniform01();
    if roll < 0.6 {
        let s = rng.gen_range(0..STREAMS) as usize;
        let lba = next_lba[s];
        next_lba[s] += 128;
        DiskRequest::read(lba, 128, tag)
    } else if roll < 0.9 {
        DiskRequest::read(rng.gen_range(0..span), 16, tag)
    } else {
        DiskRequest::write(rng.gen_range(0..span), 16, tag)
    }
}

/// Runs the mix and returns its completion fingerprint.
fn depth_64(seed: u64) -> u64 {
    let mut disk: Disk = DriveModel::IbmDdysScsi.build(SimRng::new(seed));
    assert_eq!(disk.tcq().depth, 64);
    let span = disk.geometry().total_sectors() - 256;
    let mut rng = SimRng::new(seed ^ 0x7C9);
    let mut next_lba: Vec<u64> = (0..STREAMS).map(|s| s * (span / STREAMS)).collect();

    let mut host: VecDeque<DiskRequest> = VecDeque::new();
    let mut issued = 0u64;
    let mut next_arrival = SimTime::ZERO;
    let mut fp = FNV_BASIS;
    let mut completed = 0u64;
    while completed < REQUESTS {
        let arrival = (issued < REQUESTS).then_some(next_arrival);
        let now = match (arrival, disk.next_completion()) {
            (Some(a), Some(c)) if c < a => c,
            (Some(a), _) => {
                host.push_back(request(&mut rng, &mut next_lba, span, issued));
                issued += 1;
                next_arrival = a + SimDuration::from_secs_f64(rng.exponential(MEAN_GAP_S));
                a
            }
            (None, Some(c)) => c,
            (None, None) => panic!("requests outstanding but the drive is idle"),
        };
        for c in disk.advance(now) {
            completed += 1;
            fp = fold(fold(fp, c.id.0), c.completed_at.as_nanos());
        }
        while disk.can_accept() {
            let Some(req) = host.pop_front() else { break };
            disk.submit(now, req);
        }
    }
    assert_eq!(disk.stats().reads + disk.stats().writes, REQUESTS);
    fp
}

/// Pins each seed's fingerprint over every completion's id and time.
#[test]
fn scsi_tag_queue_service_order_is_pinned() {
    let fps = [1, 2].map(|seed| (format!("seed{seed}"), pins::hex(depth_64(seed))));
    pins::check("disk_tcq_depth64", fps);
}
