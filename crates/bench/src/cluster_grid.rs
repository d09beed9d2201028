//! The client-count x table-size contention grid (EXPERIMENTS.md).
//!
//! Regenerates the `nfscluster` grid: every host runs the same modest
//! two-reader workload, only the host count grows, and the stock vs
//! enlarged `nfsheur` tables are compared on aggregate throughput,
//! ejection rate, cross-client interference, and heuristic hit rate.
//!
//! `NFS_BENCH_SCALE=quick` runs the CI-sized grid; the default is the
//! full grid printed in EXPERIMENTS.md. Output is a markdown table and is
//! byte-identical at any `NFS_BENCH_JOBS` width.

use crate::Level;
use nfscluster::experiments::{contention_grid, GridScale};

pub fn run(level: Level) {
    let scale = level.pick(GridScale::quick(), GridScale::full());
    println!(
        "cluster contention grid: ide1, NFS/UDP, {} readers x {} MB per client, {} runs per cell",
        scale.readers, scale.per_client_mb, scale.runs
    );
    println!();
    let grid = contention_grid(scale);
    print!("{}", grid.render_markdown());
}
