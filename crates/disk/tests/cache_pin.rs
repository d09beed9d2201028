//! Drive-level pin of the segmented read cache: both HDD presets (the SCSI
//! drive with tags, 16 segments and LRU; the IDE drive without tags, 7
//! segments and random replacement) fed an open-loop mix of more
//! sequential streams than either drive has segments, random reads, and
//! writes that land on recently streamed ranges and invalidate their
//! segments.
//!
//! Each fingerprint folds every completion's id, time and `cache_hit`, then
//! the cache's hit/miss counters, seeks, media reads and busy time, so it
//! moves if a hit turns into a miss, if an LRU stamp lands on a different
//! segment (a later eviction differs), or if any service time changes. The
//! `disk_cache_*` values in `pins.txt` were captured before the drive
//! cached request geometry and segment reach.

use std::collections::VecDeque;

use diskmodel::{Disk, DiskRequest, DriveModel};
use pins::fold;
use simcore::{SimDuration, SimRng, SimTime, FNV_BASIS};

const REQUESTS: u64 = 4_000;
/// More streams than the SCSI drive's 16 segments (and the IDE drive's 7),
/// so segments are replaced while streams are still live.
const STREAMS: u64 = 20;

/// The host's streams: each one's next LBA, and the stream it is
/// currently reading (streams run in bursts, so a segment gets hits before
/// the other streams push it out).
struct Streams {
    next_lba: Vec<u64>,
    current: usize,
}

fn request(rng: &mut SimRng, st: &mut Streams, span: u64, tag: u64) -> DiskRequest {
    let roll = rng.uniform01();
    if rng.chance(0.2) {
        st.current = rng.gen_range(0..STREAMS) as usize;
    }
    let s = st.current;
    let next_lba = &mut st.next_lba;
    if roll < 0.62 {
        // Mostly back-to-back 8 KB reads. Now and then a skip ahead, which
        // may land inside the segment's fill or past its reach, or a jump
        // back past its window, which opens a second segment whose fill
        // runs into the first one's range (two segments then tie).
        let lba = next_lba[s];
        let sectors = if rng.chance(0.2) { 128 } else { 16 };
        next_lba[s] = match rng.gen_range(0u32..20) {
            0 | 1 => lba + sectors + rng.gen_range(0u64..2_048),
            2 => lba.saturating_sub(rng.gen_range(520u64..1_200)),
            _ => lba + sectors,
        }
        .min(span);
        DiskRequest::read(lba, sectors, tag)
    } else if roll < 0.70 {
        // Re-read another stream's last block: a hit that only stamps the
        // segment's LRU age, so later evictions depend on which segment
        // the stamp landed on.
        let other = rng.gen_range(0..STREAMS) as usize;
        DiskRequest::read(next_lba[other].saturating_sub(16), 16, tag)
    } else if roll < 0.88 {
        DiskRequest::read(rng.gen_range(0..span), 16, tag)
    } else if roll < 0.94 {
        // Overwrite what a stream just read: invalidates its segment.
        DiskRequest::write(next_lba[s].saturating_sub(32), 16, tag)
    } else {
        DiskRequest::write(rng.gen_range(0..span), 16, tag)
    }
}

/// Runs the mix on `model` and returns its fingerprint.
fn fingerprint(model: DriveModel, seed: u64, mean_gap_s: f64) -> u64 {
    let mut disk: Disk = model.build(SimRng::new(seed));
    let span = disk.geometry().total_sectors() - 4_096;
    let mut rng = SimRng::new(seed ^ 0xCAC4E);
    let mut streams = Streams {
        next_lba: (0..STREAMS).map(|s| s * (span / STREAMS)).collect(),
        current: 0,
    };

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
                host.push_back(request(&mut rng, &mut streams, span, issued));
                issued += 1;
                next_arrival = a + SimDuration::from_secs_f64(rng.exponential(mean_gap_s));
                a
            }
            (None, Some(c)) => c,
            (None, None) => panic!("requests outstanding but the drive is idle"),
        };
        for c in disk.advance(now) {
            completed += 1;
            fp = fold(fold(fp, c.id.0), c.completed_at.as_nanos());
            fp = fold(fp, u64::from(c.cache_hit));
        }
        while disk.can_accept() {
            let Some(req) = host.pop_front() else { break };
            disk.submit(now, req);
        }
    }
    let (hits, misses) = disk.cache_hit_miss();
    let stats = disk.stats();
    assert_eq!(stats.reads + stats.writes, REQUESTS);
    assert!(hits > REQUESTS / 10, "{model:?} seed {seed}: {hits} hits");
    assert!(
        misses > REQUESTS / 10,
        "{model:?} seed {seed}: {misses} misses"
    );
    for x in [hits, misses, stats.seeks, stats.media_reads] {
        fp = fold(fp, x);
    }
    fold(fp, stats.busy.as_nanos())
}

/// Pins seeds 1 and 2 of `model` as `seed<n>` in `suite`.
fn check(suite: &str, model: DriveModel, mean_gap_s: f64) {
    let fps = [1, 2].map(|seed| {
        let fp = fingerprint(model, seed, mean_gap_s);
        (format!("seed{seed}"), pins::hex(fp))
    });
    pins::check(suite, fps);
}

/// The SCSI drive at its default tag depth.
#[test]
fn scsi_segment_cache_is_pinned() {
    check("disk_cache_scsi", DriveModel::IbmDdysScsi, 0.003);
}

/// The IDE drive (one command at a time).
#[test]
fn ide_segment_cache_is_pinned() {
    check("disk_cache_ide", DriveModel::WdWd200bbIde, 0.006);
}
