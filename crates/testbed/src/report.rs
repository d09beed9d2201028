//! Result containers and plain-text rendering for the regenerated
//! figures and tables.

use diskmodel::DeviceReport;
use netsim::TcpStats;
use nfssim::ServerStats;
use simcore::{LogHist, Summary};

/// One curve of a figure: throughput (or time) against reader count.
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label as in the paper's legend (`ide1`, `scsi1 / no tags`...).
    pub label: String,
    /// `(x, summary-over-runs)` points.
    pub points: Vec<(u64, Summary)>,
}

/// A regenerated figure: several series over a common x-axis.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure title.
    pub title: String,
    /// Axis label for x.
    pub x_label: String,
    /// Axis label for y.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Renders the figure as an aligned text table, one row per x value.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format!(
            "y: {} (mean over runs, stddev in parens)\n",
            self.y_label
        ));
        let mut xs: Vec<u64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        xs.sort_unstable();
        xs.dedup();
        out.push_str(&format!("{:>12}", self.x_label));
        for s in &self.series {
            out.push_str(&format!(" | {:>22}", s.label));
        }
        out.push('\n');
        for x in xs {
            out.push_str(&format!("{x:>12}"));
            for s in &self.series {
                match s.points.iter().find(|(px, _)| *px == x) {
                    Some((_, sum)) => {
                        out.push_str(&format!(" | {:>14.2} ({:>5.2})", sum.mean, sum.stddev))
                    }
                    None => out.push_str(&format!(" | {:>22}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// The mean of a given series at a given x (for tests and
    /// EXPERIMENTS.md assertions).
    pub fn mean_at(&self, label: &str, x: u64) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.label == label)?
            .points
            .iter()
            .find(|(px, _)| *px == x)
            .map(|(_, s)| s.mean)
    }
}

/// Renders the server's `nfsheur` table counters as a one-line summary
/// for experiment reports: lookup hit rate, ejections per READ (the §6.3
/// thrash signal), and live occupancy.
pub fn render_heur_line(stats: &ServerStats) -> String {
    let lookups = stats.heur_hits + stats.heur_misses;
    let hit_pct = if lookups == 0 {
        0.0
    } else {
        stats.heur_hits as f64 / lookups as f64 * 100.0
    };
    let ej_per_read = if stats.reads == 0 {
        0.0
    } else {
        stats.heur_ejections as f64 / stats.reads as f64
    };
    format!(
        "nfsheur: {lookups} lookups, {hit_pct:.1}% hits, {} ejections ({ej_per_read:.4}/READ), {} live entries",
        stats.heur_ejections, stats.heur_occupancy
    )
}

/// Renders any storage device's per-op service-time breakdown as a
/// one-line summary: where the busy time went, as percentages of busy,
/// with the device's own vocabulary — seek/rotation for a spinning
/// drive, GC-stall/die-wait for flash — plus media errors and remapped
/// sectors when the device was degraded, and any nonzero device gauges
/// (seeks, GC runs, die conflicts...). Buckets need not sum to 100% —
/// command overhead and write settle are not bucketed.
pub fn render_device_line(report: &DeviceReport) -> String {
    let busy = report.busy.as_secs_f64();
    let pct = |d: simcore::SimDuration| {
        if busy == 0.0 {
            0.0
        } else {
            d.as_secs_f64() / busy * 100.0
        }
    };
    let buckets: Vec<String> = report
        .buckets
        .iter()
        .map(|(name, d)| format!("{name} {:.1}%", pct(*d)))
        .collect();
    let mut line = format!(
        "{}: {} cmds, busy {busy:.3}s ({})",
        report.kind,
        report.commands(),
        buckets.join(", "),
    );
    if report.media_errors > 0 || report.remapped_sectors > 0 {
        line.push_str(&format!(
            ", {} media errors, {} sectors remapped",
            report.media_errors, report.remapped_sectors
        ));
    }
    for (name, v) in &report.gauges {
        if *v > 0 {
            line.push_str(&format!(", {name} {v}"));
        }
    }
    line
}

/// Renders one operation class of a real-socket endpoint replay as a
/// one-line summary: call volume and the wall-clock latency quantiles
/// the client measured ([`LogHist`] in microseconds, the same histogram
/// the simulator's latency books use). Quiet classes (no calls) render
/// as an explicit "idle" so reports show what was *not* exercised.
pub fn render_endpoint_line(op: &str, h: &LogHist) -> String {
    if h.total() == 0 {
        return format!("endpoint {op}: idle");
    }
    format!(
        "endpoint {op}: {} calls, p50 {}us, p99 {}us, max {}us",
        h.total(),
        h.quantile(0.50).unwrap_or(0),
        h.quantile(0.99).unwrap_or(0),
        h.max().unwrap_or(0),
    )
}

/// Renders one direction of a client's TCP segment-engine counters as a
/// one-line summary: segment volume, retransmission rate, timeout/backoff
/// activity, and the estimator's view of the path (SRTT, worst RTO).
/// Degraded-run extras (fast retransmits, abandoned segments, reordering)
/// appear only when nonzero.
pub fn render_tcp_line(dir: &str, stats: &TcpStats) -> String {
    let retx_pct = if stats.segments_sent == 0 {
        0.0
    } else {
        stats.retransmits as f64 / stats.segments_sent as f64 * 100.0
    };
    let mut line = format!(
        "tcp {dir}: {} segments, {} retransmits ({retx_pct:.1}%), {} timeouts, {} backoffs, srtt {}, max rto {}",
        stats.segments_sent, stats.retransmits, stats.timeouts, stats.rto_backoffs, stats.srtt, stats.max_rto
    );
    if stats.fast_retransmits > 0 {
        line.push_str(&format!(", {} fast retx", stats.fast_retransmits));
    }
    if stats.lost_tracked > 0 {
        line.push_str(&format!(", {} abandoned", stats.lost_tracked));
    }
    if stats.order_violations > 0 {
        line.push_str(&format!(", {} ORDER VIOLATIONS", stats.order_violations));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskmodel::DiskStats;

    fn fig() -> Figure {
        Figure {
            title: "Test".into(),
            x_label: "readers".into(),
            y_label: "MB/s".into(),
            series: vec![Series {
                label: "ide1".into(),
                points: vec![(1, Summary::of(&[10.0, 12.0])), (2, Summary::of(&[8.0]))],
            }],
        }
    }

    #[test]
    fn render_contains_labels_and_values() {
        let s = fig().render();
        assert!(s.contains("ide1"));
        assert!(s.contains("11.00"));
        assert!(s.contains("readers"));
    }

    #[test]
    fn mean_at_finds_points() {
        let f = fig();
        assert_eq!(f.mean_at("ide1", 1), Some(11.0));
        assert_eq!(f.mean_at("ide1", 2), Some(8.0));
        assert_eq!(f.mean_at("ide1", 99), None);
        assert_eq!(f.mean_at("nope", 1), None);
    }

    #[test]
    fn heur_line_reports_rates_and_occupancy() {
        let s = ServerStats {
            reads: 200,
            heur_hits: 150,
            heur_misses: 50,
            heur_ejections: 10,
            heur_occupancy: 7,
            ..ServerStats::default()
        };
        let line = render_heur_line(&s);
        assert!(line.contains("200 lookups"), "{line}");
        assert!(line.contains("75.0% hits"), "{line}");
        assert!(line.contains("10 ejections (0.0500/READ)"), "{line}");
        assert!(line.contains("7 live entries"), "{line}");
        assert!(
            render_heur_line(&ServerStats::default()).contains("0.0% hits"),
            "zero-lookup stats must not divide by zero"
        );
    }

    #[test]
    fn disk_line_reports_breakdown_and_faults() {
        use simcore::SimDuration;
        let mut s = DiskStats {
            reads: 90,
            writes: 10,
            busy: SimDuration::from_millis(1000),
            ..DiskStats::default()
        };
        s.breakdown.seek = SimDuration::from_millis(250);
        s.breakdown.rotation = SimDuration::from_millis(100);
        s.breakdown.transfer = SimDuration::from_millis(500);
        s.breakdown.fault_stall = SimDuration::from_millis(50);
        let line = render_device_line(&s.report());
        assert!(line.contains("100 cmds"), "{line}");
        assert!(line.contains("seek 25.0%"), "{line}");
        assert!(line.contains("transfer 50.0%"), "{line}");
        assert!(line.contains("fault stall 5.0%"), "{line}");
        assert!(!line.contains("media errors"), "healthy drive: {line}");
        s.media_errors = 3;
        s.remapped_sectors = 16;
        let line = render_device_line(&s.report());
        assert!(
            line.contains("3 media errors, 16 sectors remapped"),
            "{line}"
        );
        assert!(
            !render_device_line(&DiskStats::default().report()).contains("NaN"),
            "idle drive must not divide by zero"
        );
    }

    #[test]
    fn device_line_speaks_the_device_vocabulary() {
        use simcore::SimDuration;
        let flash = DeviceReport {
            kind: "ssd",
            reads: 900,
            writes: 100,
            cache_hits: 0,
            busy: SimDuration::from_millis(1_000),
            media_errors: 0,
            remapped_sectors: 0,
            buckets: vec![
                ("flash read", SimDuration::from_millis(400)),
                ("gc stall", SimDuration::from_millis(250)),
                ("die wait", SimDuration::from_millis(100)),
            ],
            gauges: vec![("gc runs", 7), ("die conflicts", 0)],
        };
        let line = render_device_line(&flash);
        assert!(line.starts_with("ssd: 1000 cmds"), "{line}");
        assert!(line.contains("gc stall 25.0%"), "{line}");
        assert!(line.contains("die wait 10.0%"), "{line}");
        assert!(line.contains("gc runs 7"), "{line}");
        assert!(
            !line.contains("die conflicts"),
            "zero gauges stay quiet: {line}"
        );
        assert!(!line.contains("seek"), "no HDD vocabulary on flash: {line}");
    }

    #[test]
    fn tcp_line_reports_retransmission_and_estimator_state() {
        use simcore::SimDuration;
        let mut s = TcpStats {
            segments_sent: 200,
            delivered: 198,
            acked: 198,
            retransmits: 10,
            timeouts: 12,
            rto_backoffs: 4,
            srtt: SimDuration::from_micros(350),
            max_rto: SimDuration::from_millis(800),
            ..TcpStats::default()
        };
        let line = render_tcp_line("c2s", &s);
        assert!(line.contains("tcp c2s: 200 segments"), "{line}");
        assert!(line.contains("10 retransmits (5.0%)"), "{line}");
        assert!(line.contains("12 timeouts"), "{line}");
        assert!(line.contains("4 backoffs"), "{line}");
        assert!(!line.contains("fast retx"), "clean run: {line}");
        assert!(!line.contains("abandoned"), "clean run: {line}");
        s.fast_retransmits = 2;
        s.lost_tracked = 1;
        s.order_violations = 3;
        let line = render_tcp_line("s2c", &s);
        assert!(line.contains("2 fast retx"), "{line}");
        assert!(line.contains("1 abandoned"), "{line}");
        assert!(line.contains("3 ORDER VIOLATIONS"), "{line}");
        assert!(
            render_tcp_line("c2s", &TcpStats::default()).contains("(0.0%)"),
            "idle stream must not divide by zero"
        );
    }

    #[test]
    fn endpoint_line_reports_quantiles_and_idle_classes() {
        let mut h = LogHist::default();
        assert_eq!(render_endpoint_line("write", &h), "endpoint write: idle");
        for us in [100u64, 200, 400, 12_000] {
            h.add(us);
        }
        let line = render_endpoint_line("read", &h);
        assert!(line.contains("endpoint read: 4 calls"), "{line}");
        assert!(line.contains("p50"), "{line}");
        assert!(line.contains("p99"), "{line}");
        assert!(!line.contains("NaN"), "{line}");
    }

    #[test]
    fn render_marks_missing_points() {
        let mut f = fig();
        f.series.push(Series {
            label: "scsi1".into(),
            points: vec![(1, Summary::of(&[5.0]))],
        });
        let s = f.render();
        assert!(s.contains('-'), "missing x=2 for scsi1 rendered as dash");
    }
}
