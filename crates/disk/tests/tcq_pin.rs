//! Drive-level pin of the tagged-queue scheduler: the SCSI drive at its
//! default depth-64 SPTF with aging, fed an open-loop mix of sequential
//! streams (cache hits), random reads and random writes faster than it can
//! serve them, so `choose` picks among a deep queue on most dispatches.
//!
//! The `DEPTH_64` constants were captured while `choose` still scored both
//! candidates of every `min_by` comparison. Scoring each candidate once
//! must keep every completion's id and time.

use std::collections::VecDeque;

use diskmodel::{Disk, DiskRequest, DriveModel};
use simcore::{SimDuration, SimRng, SimTime};

const REQUESTS: u64 = 4_000;
const STREAMS: u64 = 8;
/// Mean gap between arrivals; the drive needs several times longer per
/// random command, so the host keeps the tag queue full.
const MEAN_GAP_S: f64 = 0.002;

/// `(seed, fingerprint over every completion's id and time)`.
const DEPTH_64: [(u64, u64); 2] = [(1, 0xe12b_03a9_41d9_2bc7), (2, 0x8aeb_fc1d_2b54_3ea9)];

fn fold(h: u64, x: u64) -> u64 {
    (h.rotate_left(23) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

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
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
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

#[test]
fn scsi_tag_queue_service_order_is_pinned() {
    for (seed, pinned) in DEPTH_64 {
        let fp = depth_64(seed);
        assert_eq!(fp, pinned, "seed {seed}: fingerprint {fp:#018x} moved");
    }
}
