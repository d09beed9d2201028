//! The paper's experiments: one registry, run by the `nfs-bench` binary.
//!
//! [`EXPERIMENTS`] names the paper's Figures 1-8 (`fig8` also prints
//! Table 1), the ablations and the extensions. Run one, several or `all`
//! with `cargo run --release -p nfs-bench -- <name>...`; `NFS_BENCH_SCALE`
//! picks the [`Level`]. Every experiment starts from [`BASE_SEED`], so its
//! stdout depends on the level alone, except the lines its entry marks
//! as wall-clock; `tests/quick_transcript.rs` pins each quick transcript.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;

mod ablations;
mod cluster_grid;
mod degraded_disk;
mod device_grid;
mod endpoint_replay;
mod figures;
mod metadata_grid;
mod mixed_workload;
mod trace_analysis;
mod trace_replay;
mod transport_loss;
mod wireless_slowdown;
mod write_sync_async;

use figures::*;
use iosched::SchedulerKind;
use testbed::experiments as ex;

/// Base seed for all experiments; per-run seeds are derived from it.
pub const BASE_SEED: u64 = 20030609; // The conference's opening day.

/// Every kernel disk scheduler, in the order the scheduler tables print.
const SCHEDULERS: [SchedulerKind; 5] = [
    SchedulerKind::Fcfs,
    SchedulerKind::Elevator,
    SchedulerKind::Scan,
    SchedulerKind::NCscan,
    SchedulerKind::Sstf,
];

/// How much work an experiment does, from `NFS_BENCH_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// `quick`: an 8x-reduced smoke pass (seconds).
    Quick,
    /// `report`: half-size figures over the full reader sweep; every
    /// other experiment at full size.
    Report,
    /// `paper` or unset: the paper's sizes (256 MB per iteration, >= 10
    /// runs per point; minutes).
    Paper,
}

impl Level {
    /// The values `NFS_BENCH_SCALE` accepts.
    pub const ACCEPTED: &'static str = "unset, quick, report or paper";

    /// Reads `NFS_BENCH_SCALE`. Any value not in [`Level::ACCEPTED`] is an
    /// error, so a typo cannot silently run paper scale.
    pub fn from_env() -> Result<Level, String> {
        match std::env::var("NFS_BENCH_SCALE").as_deref() {
            Err(std::env::VarError::NotPresent) | Ok("paper") => Ok(Level::Paper),
            Ok("quick") => Ok(Level::Quick),
            Ok("report") => Ok(Level::Report),
            Ok(v) => Err(format!("NFS_BENCH_SCALE={v:?} is not {}", Level::ACCEPTED)),
            Err(e) => Err(format!("NFS_BENCH_SCALE: {e}")),
        }
    }

    /// An experiment's size: `quick` at [`Level::Quick`], else `full`.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        if self == Level::Quick {
            quick
        } else {
            full
        }
    }
}

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name `nfs-bench` takes on its command line.
    pub name: &'static str,
    /// Runs the experiment, printing its transcript to stdout.
    pub run: fn(Level),
    /// Prefixes of the stdout lines that report wall-clock measurements
    /// and so vary between runs; every other line is deterministic.
    pub wall_clock: &'static [&'static str],
}

/// An experiment whose transcript is wholly simulated.
const fn sim(name: &'static str, run: fn(Level)) -> Experiment {
    let wall_clock = &[];
    Experiment {
        name,
        run,
        wall_clock,
    }
}

/// Every experiment, in the order `nfs-bench all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    sim("fig1", |l| show(l, ex::fig1_zcav, FIG1_REF)),
    sim("fig2", |l| show(l, ex::fig2_tagged_queues, FIG2_REF)),
    sim("fig3", |l| show(l, ex::fig3_fairness, FIG3_REF)),
    sim("fig4", |l| show(l, ex::fig4_nfs_udp, FIG4_REF)),
    sim("fig5", |l| show(l, ex::fig5_nfs_tcp, FIG5_REF)),
    sim("fig6", |l| show(l, ex::fig6_readahead_potential, FIG6_REF)),
    sim("fig7", |l| show(l, ex::fig7_slowdown_nfsheur, FIG7_REF)),
    sim("fig8", fig8),
    sim("ablation_aging", ablations::aging),
    sim("ablation_cursors", ablations::cursors),
    sim("ablation_nfsheur", ablations::nfsheur),
    sim("ablation_schedulers", ablations::schedulers),
    sim("ablation_shared_pool", ablations::shared_pool),
    sim("ablation_slowdown_window", ablations::slowdown_window),
    sim("cluster_grid", cluster_grid::run),
    sim("degraded_disk", degraded_disk::run),
    sim("device_grid", device_grid::run),
    // Loopback latencies and the time-driven gather-flush count.
    Experiment {
        name: "endpoint_replay",
        run: endpoint_replay::run,
        wall_clock: &["endpoint ", "gather flushes:"],
    },
    sim("metadata_grid", metadata_grid::run),
    sim("mixed_workload", mixed_workload::run),
    sim("trace_analysis", trace_analysis::run),
    sim("trace_replay", trace_replay::run),
    sim("transport_loss", transport_loss::run),
    sim("wireless_slowdown", wireless_slowdown::run),
    sim("write_sync_async", write_sync_async::run),
];
