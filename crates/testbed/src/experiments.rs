//! One function per figure/table of the paper's evaluation.
//!
//! Every experiment averages over `scale.runs` runs (the paper uses at
//! least ten; Figure 3 uses 34) with run index folded into the seed, and
//! returns a [`Figure`] whose series carry means and standard deviations.
//! [`Scale::paper`] reproduces the published workload sizes;
//! [`Scale::quick`] is an 8x-reduced variant for smoke tests and CI.

use netsim::TransportKind;
use nfssim::WorldConfig;
use readahead_core::{NfsHeurConfig, ReadaheadPolicy};
use simcore::{OnlineStats, Summary};

use crate::cluster::ClusterBench;
use crate::local::LocalBench;
use crate::report::{Figure, Series};
use crate::rig::{ClusterConfig, Rig};
use crate::stride::StrideBench;
use iosched::SchedulerKind;

/// Workload sizing for an experiment batch.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Total MB read per iteration of the §4 benchmark (paper: 256).
    pub total_mb: u64,
    /// Per-process MB in the Figure 3 fairness experiment (paper: 32).
    pub fig3_proc_mb: u64,
    /// Stride file size in MB (paper: 256).
    pub stride_mb: u64,
    /// Runs per point (paper: >= 10; 34 for Figure 3).
    pub runs: u64,
    /// Reader counts to sweep.
    pub readers: &'static [usize],
}

impl Scale {
    /// The paper's published workload.
    pub fn paper() -> Self {
        Scale {
            total_mb: 256,
            fig3_proc_mb: 32,
            stride_mb: 256,
            runs: 10,
            readers: &[1, 2, 4, 8, 16, 32],
        }
    }

    /// An 8x-reduced workload for smoke tests.
    pub fn quick() -> Self {
        Scale {
            total_mb: 32,
            fig3_proc_mb: 4,
            stride_mb: 32,
            runs: 3,
            readers: &[1, 4, 16],
        }
    }

    /// A half-size workload with the full reader sweep: the shapes of the
    /// paper-scale figures at roughly a twentieth of the wall-clock cost.
    pub fn report() -> Self {
        Scale {
            total_mb: 128,
            fig3_proc_mb: 16,
            stride_mb: 128,
            runs: 5,
            readers: &[1, 2, 4, 8, 16, 32],
        }
    }
}

/// Runs every (config, reader-count, run) cell of a throughput figure
/// through the `simfleet` pool and folds the results into one [`Series`]
/// per config.
///
/// Cells are keyed by a flat index (config-major, then reader, then run)
/// and folded in exactly the order the old serial loops used — per
/// config, per reader count, runs ascending — so the float accumulation
/// in [`OnlineStats`] sees the same values in the same order and every
/// figure byte is identical at any `NFS_BENCH_JOBS` width.
fn throughput_matrix<C: Sync>(
    scale: Scale,
    configs: &[(C, String)],
    run: impl Fn(&C, usize, u64) -> f64 + Sync,
) -> Vec<Series> {
    let readers = scale.readers;
    let runs = scale.runs as usize;
    let per_cfg = readers.len() * runs;
    let cells = simfleet::run_indexed(configs.len() * per_cfg, |idx| {
        let ci = idx / per_cfg;
        let rem = idx % per_cfg;
        run(&configs[ci].0, readers[rem / runs], (rem % runs) as u64)
    });
    configs
        .iter()
        .enumerate()
        .map(|(ci, (_, label))| {
            let points = readers
                .iter()
                .enumerate()
                .map(|(ri, &n)| {
                    let mut stats = OnlineStats::new();
                    for r in 0..runs {
                        stats.add(cells[ci * per_cfg + ri * runs + r]);
                    }
                    (n as u64, stats.summary())
                })
                .collect();
            Series {
                label: label.clone(),
                points,
            }
        })
        .collect()
}

/// Figure 1: the ZCAV effect on local drives.
pub fn fig1_zcav(scale: Scale, seed: u64) -> Figure {
    let rigs = [Rig::ide(1), Rig::ide(4), Rig::scsi(1), Rig::scsi(4)];
    let configs: Vec<(Rig, String)> = rigs.iter().map(|r| (*r, r.label())).collect();
    let series = throughput_matrix(scale, &configs, |rig, n, r| {
        let mut b = LocalBench::new(*rig, scale.readers, scale.total_mb, seed + r);
        b.run(n).throughput_mbs
    });
    Figure {
        title: "Figure 1: The ZCAV Effect on Local Drives".into(),
        x_label: "readers".into(),
        y_label: "Throughput (MB/s)".into(),
        series,
    }
}

/// Figure 2: tagged command queues and ZCAV on the SCSI drive.
pub fn fig2_tagged_queues(scale: Scale, seed: u64) -> Figure {
    let configs: Vec<(Rig, String)> = [
        (Rig::scsi(1).no_tags(), "scsi1 / no tags"),
        (Rig::scsi(4).no_tags(), "scsi4 / no tags"),
        (Rig::scsi(1), "scsi1 / tags"),
        (Rig::scsi(4), "scsi4 / tags"),
    ]
    .map(|(r, l)| (r, l.to_string()))
    .into();
    let series = throughput_matrix(scale, &configs, |rig, n, r| {
        let mut b = LocalBench::new(*rig, scale.readers, scale.total_mb, seed + r);
        b.run(n).throughput_mbs
    });
    Figure {
        title: "Figure 2: Tagged Queues and ZCAV - Local SCSI Drive".into(),
        x_label: "readers".into(),
        y_label: "Throughput (MB/s)".into(),
        series,
    }
}

/// Figure 3: per-process completion-time distribution, 8 concurrent
/// readers, Elevator vs N-CSCAN (x = k-th process to finish).
pub fn fig3_fairness(scale: Scale, seed: u64) -> Figure {
    let readers = 8usize;
    let configs = [
        (Rig::scsi(1).no_tags(), "scsi1 / Elevator / no tags"),
        (Rig::ide(1), "ide1 / Elevator"),
        (Rig::scsi(1), "scsi1 / Elevator / tags"),
        (
            Rig::scsi(1).with_scheduler(SchedulerKind::NCscan),
            "scsi1 / N-CSCAN / tags",
        ),
        (
            Rig::scsi(1).no_tags().with_scheduler(SchedulerKind::NCscan),
            "scsi1 / N-CSCAN / no tags",
        ),
        (
            Rig::ide(1).with_scheduler(SchedulerKind::NCscan),
            "ide1 / N-CSCAN",
        ),
    ];
    let total_mb = scale.fig3_proc_mb * readers as u64;
    // Cells are (config, run) pairs, each yielding the full per-rank
    // completion vector; folded config-major in run order, as before.
    let runs = scale.runs as usize;
    let cells = simfleet::run_indexed(configs.len() * runs, |idx| {
        let (rig, _) = &configs[idx / runs];
        let r = (idx % runs) as u64;
        let mut b = LocalBench::new(*rig, &[readers], total_mb, seed + r);
        b.run(readers).completion_secs
    });
    let series = configs
        .iter()
        .enumerate()
        .map(|(ci, (_, label))| {
            let mut per_rank: Vec<OnlineStats> = (0..readers).map(|_| OnlineStats::new()).collect();
            for r in 0..runs {
                for (k, &t) in cells[ci * runs + r].iter().enumerate() {
                    per_rank[k].add(t);
                }
            }
            Series {
                label: label.to_string(),
                points: per_rank
                    .iter()
                    .enumerate()
                    .map(|(k, s)| (k as u64 + 1, s.summary()))
                    .collect(),
            }
        })
        .collect();
    Figure {
        title: "Figure 3: Time to Completion by Processes Completed (8 readers)".into(),
        x_label: "kth done".into(),
        y_label: "Time to Completion (s)".into(),
        series,
    }
}

fn nfs_figure(scale: Scale, seed: u64, title: &str, transport: TransportKind) -> Figure {
    let base = WorldConfig {
        transport,
        ..WorldConfig::default()
    };
    let cluster = ClusterConfig::uniform(base, 1);
    let configs: Vec<(Rig, String)> = [
        (Rig::ide(1), "ide1"),
        (Rig::ide(4), "ide4"),
        (Rig::scsi(1), "scsi1"),
        (Rig::scsi(4), "scsi4"),
        (Rig::scsi(1).no_tags(), "scsi1 / no tags"),
    ]
    .map(|(rig, l)| (rig, l.to_string()))
    .into();
    let series = throughput_matrix(scale, &configs, |rig, n, r| {
        let mut b = ClusterBench::new(*rig, &cluster, scale.readers, scale.total_mb, seed + r);
        b.run(n).throughput_mbs
    });
    Figure {
        title: title.into(),
        x_label: "readers".into(),
        y_label: "Throughput (MB/s)".into(),
        series,
    }
}

/// Figure 4: NFS over UDP (default settings and no tagged queues).
pub fn fig4_nfs_udp(scale: Scale, seed: u64) -> Figure {
    nfs_figure(scale, seed, "Figure 4: NFS over UDP", TransportKind::Udp)
}

/// Figure 5: NFS over TCP (default settings and no tagged queues).
pub fn fig5_nfs_tcp(scale: Scale, seed: u64) -> Figure {
    nfs_figure(scale, seed, "Figure 5: NFS over TCP", TransportKind::Tcp)
}

/// Figure 6: Always vs Default read-ahead, idle and busy client
/// (`ide1` via NFS over UDP).
pub fn fig6_readahead_potential(scale: Scale, seed: u64) -> Figure {
    let mk = |policy, busy| WorldConfig {
        policy,
        busy_loops: busy,
        ..WorldConfig::default()
    };
    let configs: Vec<(WorldConfig, String)> = [
        (mk(ReadaheadPolicy::Always, 0), "Always RA / idle"),
        (mk(ReadaheadPolicy::Default, 0), "Default RA / idle"),
        (mk(ReadaheadPolicy::Always, 4), "Always RA / busy"),
        (mk(ReadaheadPolicy::Default, 4), "Default RA / busy"),
    ]
    .map(|(c, l)| (c, l.to_string()))
    .into();
    let series = throughput_matrix(scale, &configs, |cfg, n, r| {
        let cluster = ClusterConfig::uniform(*cfg, 1);
        let mut b = ClusterBench::new(
            Rig::ide(1),
            &cluster,
            scale.readers,
            scale.total_mb,
            seed + r,
        );
        b.run(n).throughput_mbs
    });
    Figure {
        title: "Figure 6: Always vs Default Read-Ahead (ide1, NFS/UDP)".into(),
        x_label: "readers".into(),
        y_label: "Throughput (MB/s)".into(),
        series,
    }
}

/// Figure 7: SlowDown and the new nfsheur table (`ide1`, UDP, busy client).
pub fn fig7_slowdown_nfsheur(scale: Scale, seed: u64) -> Figure {
    let mk = |policy, heur| WorldConfig {
        policy,
        heur,
        busy_loops: 4,
        ..WorldConfig::default()
    };
    let configs: Vec<(WorldConfig, String)> = [
        (
            mk(ReadaheadPolicy::Always, NfsHeurConfig::improved()),
            "Always Read-ahead",
        ),
        (
            mk(ReadaheadPolicy::slowdown(), NfsHeurConfig::improved()),
            "SlowDown / New nfsheur",
        ),
        (
            mk(ReadaheadPolicy::Default, NfsHeurConfig::improved()),
            "Default / New nfsheur",
        ),
        (
            mk(ReadaheadPolicy::Default, NfsHeurConfig::freebsd_default()),
            "Default / Default nfsheur",
        ),
    ]
    .map(|(c, l)| (c, l.to_string()))
    .into();
    let series = throughput_matrix(scale, &configs, |cfg, n, r| {
        let cluster = ClusterConfig::uniform(*cfg, 1);
        let mut b = ClusterBench::new(
            Rig::ide(1),
            &cluster,
            scale.readers,
            scale.total_mb,
            seed + r,
        );
        b.run(n).throughput_mbs
    });
    Figure {
        title: "Figure 7: SlowDown and the New nfsheur Table (ide1, UDP, busy client)".into(),
        x_label: "readers".into(),
        y_label: "Throughput (MB/s)".into(),
        series,
    }
}

/// Figure 8 / Table 1: stride-read throughput, default vs cursor
/// read-ahead, on `scsi1` and `ide1` over UDP.
pub fn fig8_table1_stride(scale: Scale, seed: u64) -> Figure {
    let strides = [2u64, 4, 8];
    let mk = |policy| WorldConfig {
        policy,
        heur: NfsHeurConfig::improved(),
        ..WorldConfig::default()
    };
    let configs = [
        (
            Rig::scsi(1),
            mk(ReadaheadPolicy::cursor()),
            "scsi1 / Cursor",
        ),
        (Rig::ide(1), mk(ReadaheadPolicy::cursor()), "ide1 / Cursor"),
        (
            Rig::scsi(1),
            mk(ReadaheadPolicy::Default),
            "scsi1 / default",
        ),
        (Rig::ide(1), mk(ReadaheadPolicy::Default), "ide1 / default"),
    ];
    // Cells are (config, stride, run) triples, flattened config-major.
    let runs = scale.runs as usize;
    let per_cfg = strides.len() * runs;
    let cells = simfleet::run_indexed(configs.len() * per_cfg, |idx| {
        let (rig, cfg, _) = &configs[idx / per_cfg];
        let rem = idx % per_cfg;
        let s = strides[rem / runs];
        let r = (rem % runs) as u64;
        let mut b = StrideBench::new(*rig, *cfg, scale.stride_mb, seed + r);
        b.run(s)
    });
    let series = configs
        .iter()
        .enumerate()
        .map(|(ci, (_, _, label))| {
            let points = strides
                .iter()
                .enumerate()
                .map(|(si, &s)| {
                    let mut stats = OnlineStats::new();
                    for r in 0..runs {
                        stats.add(cells[ci * per_cfg + si * runs + r]);
                    }
                    (s, stats.summary())
                })
                .collect();
            Series {
                label: label.to_string(),
                points,
            }
        })
        .collect();
    Figure {
        title: "Figure 8 / Table 1: Throughput for Stride Readers using UDP".into(),
        x_label: "strides".into(),
        y_label: "Throughput (MB/s)".into(),
        series,
    }
}

/// Renders Table 1 in the paper's layout from the Figure 8 data.
pub fn render_table1(fig8: &Figure) -> String {
    let mut out = String::new();
    out.push_str("Table 1: Mean throughput (MB/s) of stride reads of a 256 MB file\n");
    out.push_str(&format!(
        "{:<10} {:<14} {:>14} {:>14} {:>14}\n",
        "File Sys", "Heuristic", "s = 2", "s = 4", "s = 8"
    ));
    for (rig, heuristics) in [
        ("ide1", ["ide1 / default", "ide1 / Cursor"]),
        ("scsi1", ["scsi1 / default", "scsi1 / Cursor"]),
    ] {
        for label in heuristics {
            let kind = if label.contains("Cursor") {
                "UDP/Cursor"
            } else {
                "UDP/Default"
            };
            out.push_str(&format!("{rig:<10} {kind:<14}"));
            for s in [2u64, 4, 8] {
                let cell: Option<Summary> = fig8
                    .series
                    .iter()
                    .find(|se| se.label == label)
                    .and_then(|se| se.points.iter().find(|(x, _)| *x == s))
                    .map(|(_, su)| *su);
                match cell {
                    Some(su) => out.push_str(&format!(" {:>7.2} ({:.2})", su.mean, su.stddev)),
                    None => out.push_str(&format!(" {:>14}", "-")),
                }
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            total_mb: 16,
            fig3_proc_mb: 2,
            stride_mb: 16,
            runs: 1,
            readers: &[1, 4],
        }
    }

    #[test]
    fn fig1_has_four_series_with_zcav_ordering() {
        let f = fig1_zcav(tiny(), 5);
        assert_eq!(f.series.len(), 4);
        let ide1 = f.mean_at("ide1", 1).unwrap();
        let ide4 = f.mean_at("ide4", 1).unwrap();
        assert!(ide1 > ide4, "ZCAV: ide1 {ide1:.1} > ide4 {ide4:.1}");
    }

    #[test]
    fn fig2_no_tags_beats_tags_at_concurrency() {
        let f = fig2_tagged_queues(tiny(), 5);
        let no_tags = f.mean_at("scsi1 / no tags", 4).unwrap();
        let tags = f.mean_at("scsi1 / tags", 4).unwrap();
        assert!(no_tags > tags, "no-tags {no_tags:.1} vs tags {tags:.1}");
    }

    #[test]
    fn fig8_cursor_wins() {
        let f = fig8_table1_stride(tiny(), 5);
        let cur = f.mean_at("scsi1 / Cursor", 4).unwrap();
        let def = f.mean_at("scsi1 / default", 4).unwrap();
        assert!(cur > def * 1.4, "cursor {cur:.2} vs default {def:.2}");
        let t = render_table1(&f);
        assert!(t.contains("UDP/Cursor"));
        assert!(t.contains("ide1"));
    }

    #[test]
    fn scale_from_env_defaults_to_paper() {
        let s = Scale::paper();
        assert_eq!(s.total_mb, 256);
        assert_eq!(s.readers.len(), 6);
    }
}
