//! Zoned (ZCAV) disk geometry.
//!
//! Modern drives store more sectors on the longer outer tracks than on the
//! inner ones (zoned constant angular velocity, §5.1 of the paper). Because
//! the platter spins at a constant rate, the media transfer rate is
//! proportional to the sectors-per-track of the zone under the head —
//! typically a 2:3 inner:outer ratio, sometimes as much as 1:2.
//!
//! [`DiskGeometry`] models the drive as a sequence of zones, each spanning a
//! contiguous range of cylinders with a constant sectors-per-track count.
//! Logical block addresses are laid out cylinder-major, outermost cylinder
//! first, which is how real drives number their LBAs (and why "partition 1"
//! is the fast partition).

use crate::types::{Lba, SECTOR_BYTES};

/// A contiguous run of cylinders sharing a sectors-per-track count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zone {
    /// First cylinder of the zone (inclusive).
    pub first_cyl: u64,
    /// One past the last cylinder of the zone.
    pub end_cyl: u64,
    /// Sectors on each track of this zone.
    pub sectors_per_track: u64,
}

impl Zone {
    /// Number of cylinders in the zone.
    pub fn cylinders(&self) -> u64 {
        self.end_cyl - self.first_cyl
    }
}

/// Physical position of a sector: cylinder, head (track within cylinder),
/// and sector index within the track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chs {
    /// Cylinder number, 0 = outermost.
    pub cylinder: u64,
    /// Head (surface) number.
    pub head: u64,
    /// Sector index within the track.
    pub sector: u64,
}

/// Zoned drive geometry.
#[derive(Debug, Clone)]
pub struct DiskGeometry {
    heads: u64,
    rpm: f64,
    zones: Vec<Zone>,
    /// `zone_start_lba[i]` is the LBA of the first sector of zone `i`;
    /// a final entry holds the total sector count.
    zone_start_lba: Vec<Lba>,
}

impl DiskGeometry {
    /// Builds a geometry from explicit zones.
    ///
    /// # Panics
    ///
    /// Panics if `zones` is empty, non-contiguous, does not start at
    /// cylinder 0, or if `heads == 0` or `rpm <= 0`.
    pub fn new(heads: u64, rpm: f64, zones: Vec<Zone>) -> Self {
        assert!(!zones.is_empty(), "geometry needs at least one zone");
        assert!(heads > 0, "geometry needs at least one head");
        assert!(rpm > 0.0, "rpm must be positive");
        assert_eq!(zones[0].first_cyl, 0, "zones must start at cylinder 0");
        for w in zones.windows(2) {
            assert_eq!(
                w[0].end_cyl, w[1].first_cyl,
                "zones must be contiguous and ordered"
            );
        }
        let mut zone_start_lba = Vec::with_capacity(zones.len() + 1);
        let mut acc: u64 = 0;
        for z in &zones {
            zone_start_lba.push(acc);
            acc += z.cylinders() * heads * z.sectors_per_track;
        }
        zone_start_lba.push(acc);
        DiskGeometry {
            heads,
            rpm,
            zones,
            zone_start_lba,
        }
    }

    /// Builds a geometry with `num_zones` equal-cylinder zones whose
    /// sectors-per-track interpolate linearly from `outer_spt` (cylinder 0)
    /// to `inner_spt` (last cylinder), the usual ZCAV shape.
    pub fn zoned(
        cylinders: u64,
        heads: u64,
        rpm: f64,
        outer_spt: u64,
        inner_spt: u64,
        num_zones: usize,
    ) -> Self {
        assert!(num_zones > 0 && cylinders >= num_zones as u64);
        let mut zones = Vec::with_capacity(num_zones);
        let per = cylinders / num_zones as u64;
        for i in 0..num_zones as u64 {
            let first_cyl = i * per;
            let end_cyl = if i == num_zones as u64 - 1 {
                cylinders
            } else {
                (i + 1) * per
            };
            // Interpolate at the middle of the zone.
            let frac = if num_zones == 1 {
                0.0
            } else {
                i as f64 / (num_zones - 1) as f64
            };
            let spt = outer_spt as f64 + (inner_spt as f64 - outer_spt as f64) * frac;
            zones.push(Zone {
                first_cyl,
                end_cyl,
                sectors_per_track: spt.round() as u64,
            });
        }
        DiskGeometry::new(heads, rpm, zones)
    }

    /// Number of heads (tracks per cylinder).
    pub fn heads(&self) -> u64 {
        self.heads
    }

    /// Spindle speed in revolutions per minute.
    pub fn rpm(&self) -> f64 {
        self.rpm
    }

    /// Duration of one revolution in seconds.
    pub fn revolution_secs(&self) -> f64 {
        60.0 / self.rpm
    }

    /// The zones, outermost first.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// Total number of cylinders.
    pub fn cylinders(&self) -> u64 {
        self.zones.last().expect("non-empty").end_cyl
    }

    /// Total number of sectors on the drive.
    pub fn total_sectors(&self) -> u64 {
        *self.zone_start_lba.last().expect("non-empty")
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_sectors() * SECTOR_BYTES
    }

    /// Index of the zone containing `cyl`.
    fn zone_of_cyl(&self, cyl: u64) -> usize {
        debug_assert!(cyl < self.cylinders());
        self.zones
            .partition_point(|z| z.end_cyl <= cyl)
            .min(self.zones.len() - 1)
    }

    /// Sectors per track at cylinder `cyl`.
    pub fn sectors_per_track(&self, cyl: u64) -> u64 {
        self.zones[self.zone_of_cyl(cyl)].sectors_per_track
    }

    /// Media transfer rate in bytes per second at cylinder `cyl`: one
    /// track's worth of data per revolution. This is the ZCAV effect.
    pub fn media_rate(&self, cyl: u64) -> f64 {
        (self.sectors_per_track(cyl) * SECTOR_BYTES) as f64 / self.revolution_secs()
    }

    /// Maps an LBA to its physical position.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is beyond the end of the drive.
    pub fn lba_to_chs(&self, lba: Lba) -> Chs {
        assert!(
            lba < self.total_sectors(),
            "lba {lba} beyond end of drive ({})",
            self.total_sectors()
        );
        let zi = self
            .zone_start_lba
            .partition_point(|&s| s <= lba)
            .saturating_sub(1)
            .min(self.zones.len() - 1);
        let z = &self.zones[zi];
        let rel = lba - self.zone_start_lba[zi];
        let per_cyl = z.sectors_per_track * self.heads;
        let cylinder = z.first_cyl + rel / per_cyl;
        let in_cyl = rel % per_cyl;
        Chs {
            cylinder,
            head: in_cyl / z.sectors_per_track,
            sector: in_cyl % z.sectors_per_track,
        }
    }

    /// Cylinder containing `lba` (cheaper than full [`lba_to_chs`]).
    ///
    /// [`lba_to_chs`]: DiskGeometry::lba_to_chs
    pub fn cylinder_of(&self, lba: Lba) -> u64 {
        self.lba_to_chs(lba).cylinder
    }

    /// Angular position of the sector at `chs` within its track, in
    /// `[0, 1)`.
    pub fn angle_of(&self, chs: Chs) -> f64 {
        chs.sector as f64 / self.sectors_per_track(chs.cylinder) as f64
    }

    /// Time to transfer one sector under the head at cylinder `cyl`.
    pub fn sector_time_secs(&self, cyl: u64) -> f64 {
        self.revolution_secs() / self.sectors_per_track(cyl) as f64
    }

    /// Number of track boundaries crossed by a transfer of `sectors`
    /// starting at `lba` (each costs a head/cylinder switch).
    pub fn track_crossings(&self, lba: Lba, sectors: u64) -> u64 {
        if sectors == 0 {
            return 0;
        }
        let first = self.lba_to_chs(lba);
        let last = self.lba_to_chs(lba + sectors - 1);
        let track_index = |c: Chs| {
            // Tracks are numbered consecutively across zones; approximate by
            // cylinder * heads + head, which is exact for crossing counts.
            c.cylinder * self.heads + c.head
        };
        track_index(last) - track_index(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DiskGeometry {
        // Two zones: cylinders 0-9 with 100 spt, 10-19 with 60 spt; 2 heads.
        DiskGeometry::new(
            2,
            6000.0,
            vec![
                Zone {
                    first_cyl: 0,
                    end_cyl: 10,
                    sectors_per_track: 100,
                },
                Zone {
                    first_cyl: 10,
                    end_cyl: 20,
                    sectors_per_track: 60,
                },
            ],
        )
    }

    #[test]
    fn totals_add_up() {
        let g = tiny();
        assert_eq!(g.total_sectors(), 10 * 2 * 100 + 10 * 2 * 60);
        assert_eq!(g.cylinders(), 20);
        assert_eq!(g.capacity_bytes(), g.total_sectors() * 512);
    }

    #[test]
    fn spt_by_cylinder() {
        let g = tiny();
        assert_eq!(g.sectors_per_track(0), 100);
        assert_eq!(g.sectors_per_track(9), 100);
        assert_eq!(g.sectors_per_track(10), 60);
        assert_eq!(g.sectors_per_track(19), 60);
    }

    #[test]
    fn media_rate_reflects_zcav() {
        let g = tiny();
        // 6000 rpm = 0.01 s/rev. Outer: 100*512/0.01 bytes/s.
        assert!((g.media_rate(0) - 100.0 * 512.0 / 0.01).abs() < 1e-6);
        let ratio = g.media_rate(19) / g.media_rate(0);
        assert!((ratio - 0.6).abs() < 1e-9);
    }

    #[test]
    fn lba_zero_is_outer_edge() {
        let g = tiny();
        assert_eq!(
            g.lba_to_chs(0),
            Chs {
                cylinder: 0,
                head: 0,
                sector: 0
            }
        );
    }

    #[test]
    fn lba_walks_sectors_then_heads_then_cylinders() {
        let g = tiny();
        assert_eq!(
            g.lba_to_chs(99),
            Chs {
                cylinder: 0,
                head: 0,
                sector: 99
            }
        );
        assert_eq!(
            g.lba_to_chs(100),
            Chs {
                cylinder: 0,
                head: 1,
                sector: 0
            }
        );
        assert_eq!(
            g.lba_to_chs(200),
            Chs {
                cylinder: 1,
                head: 0,
                sector: 0
            }
        );
    }

    #[test]
    fn lba_in_second_zone() {
        let g = tiny();
        // First zone holds 2000 sectors.
        assert_eq!(
            g.lba_to_chs(2000),
            Chs {
                cylinder: 10,
                head: 0,
                sector: 0
            }
        );
        assert_eq!(
            g.lba_to_chs(2000 + 60),
            Chs {
                cylinder: 10,
                head: 1,
                sector: 0
            }
        );
    }

    #[test]
    #[should_panic(expected = "beyond end")]
    fn lba_out_of_range_panics() {
        let g = tiny();
        let _ = g.lba_to_chs(g.total_sectors());
    }

    #[test]
    fn angle_of_positions() {
        let g = tiny();
        assert_eq!(g.angle_of(g.lba_to_chs(0)), 0.0);
        assert!((g.angle_of(g.lba_to_chs(50)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn track_crossings_counts_boundaries() {
        let g = tiny();
        assert_eq!(g.track_crossings(0, 50), 0);
        assert_eq!(g.track_crossings(0, 101), 1);
        assert_eq!(g.track_crossings(0, 201), 2);
        assert_eq!(g.track_crossings(95, 10), 1);
        assert_eq!(g.track_crossings(0, 0), 0);
    }

    #[test]
    fn zoned_constructor_interpolates() {
        let g = DiskGeometry::zoned(1000, 4, 7200.0, 600, 400, 8);
        assert_eq!(g.zones().len(), 8);
        assert_eq!(g.sectors_per_track(0), 600);
        assert_eq!(g.sectors_per_track(999), 400);
        // Monotonically non-increasing from outer to inner.
        let spts: Vec<u64> = g.zones().iter().map(|z| z.sectors_per_track).collect();
        let mut sorted = spts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(spts, sorted);
        assert_eq!(g.cylinders(), 1000);
    }

    #[test]
    fn zoned_single_zone() {
        let g = DiskGeometry::zoned(100, 2, 7200.0, 500, 300, 1);
        assert_eq!(g.zones().len(), 1);
        assert_eq!(g.sectors_per_track(0), 500);
    }

    #[test]
    fn sector_time_matches_rate() {
        let g = tiny();
        let t = g.sector_time_secs(0);
        assert!((t * 100.0 - 0.01).abs() < 1e-12, "100 sectors per rev");
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn non_contiguous_zones_rejected() {
        let _ = DiskGeometry::new(
            1,
            7200.0,
            vec![
                Zone {
                    first_cyl: 0,
                    end_cyl: 10,
                    sectors_per_track: 10,
                },
                Zone {
                    first_cyl: 11,
                    end_cyl: 20,
                    sectors_per_track: 10,
                },
            ],
        );
    }
}
