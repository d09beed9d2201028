//! Seek-time model.
//!
//! The classic piecewise model (Ruemmler & Wilkes): short seeks are
//! dominated by acceleration and grow with the square root of the distance;
//! long seeks reach coast velocity and grow linearly. The model is
//! calibrated from three datasheet numbers — track-to-track, average
//! (one-third stroke), and full stroke — which is how drive vendors publish
//! seek behaviour.

/// Piecewise sqrt/linear seek-time model.
#[derive(Debug, Clone, Copy)]
pub struct SeekModel {
    cylinders: u64,
    /// Boundary (in cylinders) between the sqrt and linear regimes.
    cutoff: f64,
    /// sqrt regime: `a1 + b1 * sqrt(d)` seconds.
    a1: f64,
    b1: f64,
    /// linear regime: `a2 + b2 * d` seconds.
    a2: f64,
    b2: f64,
}

impl SeekModel {
    /// Calibrates a model from datasheet numbers (all in seconds).
    ///
    /// `avg` is interpreted as the one-third-stroke seek time, the industry
    /// convention for "average seek".
    ///
    /// # Panics
    ///
    /// Panics unless `0 < track_to_track <= avg <= full_stroke` and the
    /// drive has at least four cylinders.
    pub fn from_datasheet(cylinders: u64, track_to_track: f64, avg: f64, full_stroke: f64) -> Self {
        assert!(cylinders >= 4, "need at least 4 cylinders");
        assert!(
            track_to_track > 0.0 && track_to_track <= avg && avg <= full_stroke,
            "datasheet numbers must satisfy 0 < t2t <= avg <= full"
        );
        let cutoff = cylinders as f64 / 3.0;
        // Fit a1 + b1*sqrt(d) through (1, t2t) and (cutoff, avg).
        let b1 = (avg - track_to_track) / (cutoff.sqrt() - 1.0);
        let a1 = track_to_track - b1;
        // Fit a2 + b2*d through (cutoff, avg) and (cylinders, full).
        let b2 = (full_stroke - avg) / (cylinders as f64 - cutoff);
        let a2 = avg - b2 * cutoff;
        SeekModel {
            cylinders,
            cutoff,
            a1,
            b1,
            a2,
            b2,
        }
    }

    /// Seek time in seconds to move `distance` cylinders. Zero distance is
    /// free (the head is already there).
    pub fn seek_secs(&self, distance: u64) -> f64 {
        if distance == 0 {
            return 0.0;
        }
        let d = (distance.min(self.cylinders)) as f64;
        if d <= self.cutoff {
            self.a1 + self.b1 * d.sqrt()
        } else {
            self.a2 + self.b2 * d
        }
    }

    /// Number of cylinders this model was calibrated for.
    pub fn cylinders(&self) -> u64 {
        self.cylinders
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SeekModel {
        // 15000 cylinders, 0.6 ms t2t, 4.9 ms avg, 10.5 ms full.
        SeekModel::from_datasheet(15_000, 0.0006, 0.0049, 0.0105)
    }

    #[test]
    fn calibration_points_are_exact() {
        let m = model();
        assert!((m.seek_secs(1) - 0.0006).abs() < 1e-12);
        assert!((m.seek_secs(5_000) - 0.0049).abs() < 1e-4);
        assert!((m.seek_secs(15_000) - 0.0105).abs() < 1e-12);
    }

    #[test]
    fn zero_distance_is_free() {
        assert_eq!(model().seek_secs(0), 0.0);
    }

    #[test]
    fn monotone_nondecreasing() {
        let m = model();
        let mut prev = 0.0;
        for d in [1, 2, 5, 10, 100, 1_000, 4_999, 5_000, 5_001, 10_000, 15_000] {
            let t = m.seek_secs(d);
            assert!(
                t >= prev - 1e-12,
                "seek time decreased at d={d}: {t} < {prev}"
            );
            prev = t;
        }
    }

    #[test]
    fn sqrt_regime_is_concave() {
        let m = model();
        // Doubling a short distance should less-than-double the time delta.
        let t100 = m.seek_secs(100);
        let t400 = m.seek_secs(400);
        assert!(
            t400 < 2.0 * t100,
            "sqrt growth: t(400)={t400}, t(100)={t100}"
        );
    }

    #[test]
    fn distances_beyond_full_stroke_clamp() {
        let m = model();
        assert_eq!(m.seek_secs(20_000), m.seek_secs(15_000));
    }

    #[test]
    #[should_panic(expected = "datasheet")]
    fn bad_datasheet_rejected() {
        let _ = SeekModel::from_datasheet(1_000, 0.005, 0.004, 0.010);
    }

    #[test]
    fn continuous_at_cutoff() {
        let m = model();
        let eps_below = m.seek_secs(4_999);
        let eps_above = m.seek_secs(5_001);
        assert!((eps_above - eps_below).abs() < 2e-4);
    }
}
