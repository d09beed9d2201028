//! The client-count × table-size contention grid.
//!
//! §6.3 of the paper shows one client with enough active files defeating
//! the stock 64-bucket `nfsheur` table. This grid scales the *host* count
//! instead: every host runs the same modest workload (two readers, two
//! files — harmless on its own), and only the number of hosts grows. On
//! the stock table the per-READ ejection rate climbs with the host count
//! and the heuristic's hit rate collapses; on the paper's enlarged table
//! both stay flat. Cells fan out over the `simfleet` pool with a
//! fold-order-preserving reduction, so the grid is byte-identical at any
//! `NFS_BENCH_JOBS` width.

use nfssim::WorldConfig;
use readahead_core::NfsHeurConfig;
use simcore::{OnlineStats, Summary};

use testbed::{ClusterBench, ClusterConfig, Rig};

/// Sizing for the contention grid.
#[derive(Debug, Clone, Copy)]
pub struct GridScale {
    /// Client counts to sweep.
    pub clients: &'static [usize],
    /// Megabytes each client reads per run.
    pub per_client_mb: u64,
    /// Reader processes per client (files per client = readers).
    pub readers: usize,
    /// Runs averaged per cell (run index folds into the seed).
    pub runs: u64,
}

impl GridScale {
    /// CI-sized grid.
    pub fn quick() -> Self {
        GridScale {
            clients: &[1, 2, 4, 8],
            per_client_mb: 8,
            readers: 2,
            runs: 2,
        }
    }

    /// Report-sized grid (the `EXPERIMENTS.md` table).
    pub fn full() -> Self {
        GridScale {
            clients: &[1, 2, 4, 8, 16],
            per_client_mb: 16,
            readers: 2,
            runs: 5,
        }
    }
}

/// One (table, client-count) cell, averaged over `runs` runs.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Table label (`stock` or `enlarged`).
    pub table: String,
    /// Number of client hosts.
    pub clients: usize,
    /// Aggregate cluster throughput in MB/s.
    pub throughput_mbs: Summary,
    /// `nfsheur` ejections per READ call (mean over runs).
    pub ejections_per_read: f64,
    /// Of all ejections, the fraction that evicted *another* client's
    /// file (mean over runs; 0 when there were no ejections).
    pub cross_client_share: f64,
    /// `nfsheur` hit rate: hits / (hits + misses) (mean over runs). This
    /// is the server's ability to remember that a file is sequential;
    /// read-ahead follows it.
    pub heur_hit_rate: f64,
}

/// The grid: rows = client counts, one column group per table config.
#[derive(Debug, Clone)]
pub struct Grid {
    /// All cells, table-major then client-count ascending.
    pub cells: Vec<GridCell>,
}

struct CellRun {
    throughput: f64,
    ejections_per_read: f64,
    cross_share: f64,
    hit_rate: f64,
}

fn run_cell(heur: NfsHeurConfig, clients: usize, scale: GridScale, run: u64) -> CellRun {
    let config = WorldConfig {
        heur,
        ..WorldConfig::default()
    };
    let cluster = ClusterConfig::uniform(config, clients);
    let mut b = ClusterBench::new(
        Rig::ide(1),
        &cluster,
        &[scale.readers],
        scale.per_client_mb,
        0xC1_0500 + run,
    );
    let r = b.run(scale.readers);
    let ej = r.server.heur_ejections;
    let lookups = r.server.heur_hits + r.server.heur_misses;
    CellRun {
        throughput: r.throughput_mbs,
        ejections_per_read: r.ejections_per_read(),
        cross_share: if ej == 0 {
            0.0
        } else {
            r.cross_client_ejections() as f64 / ej as f64
        },
        hit_rate: if lookups == 0 {
            0.0
        } else {
            r.server.heur_hits as f64 / lookups as f64
        },
    }
}

/// Runs the full grid: stock table vs the paper's enlarged table, across
/// `scale.clients` hosts, `scale.runs` runs per cell, fanned over the
/// `simfleet` pool.
pub fn contention_grid(scale: GridScale) -> Grid {
    let tables = [
        ("stock", NfsHeurConfig::freebsd_default()),
        ("enlarged", NfsHeurConfig::improved()),
    ];
    let runs = scale.runs as usize;
    let per_table = scale.clients.len() * runs;
    let cells = simfleet::run_indexed(tables.len() * per_table, |idx| {
        let ti = idx / per_table;
        let rem = idx % per_table;
        run_cell(
            tables[ti].1,
            scale.clients[rem / runs],
            scale,
            (rem % runs) as u64,
        )
    });
    let grid_cells = tables
        .iter()
        .enumerate()
        .flat_map(|(ti, (label, _))| {
            let cells = &cells;
            scale.clients.iter().enumerate().map(move |(ci, &n)| {
                let mut tp = OnlineStats::new();
                let mut ej = OnlineStats::new();
                let mut cross = OnlineStats::new();
                let mut hit = OnlineStats::new();
                for r in 0..runs {
                    let c = &cells[ti * per_table + ci * runs + r];
                    tp.add(c.throughput);
                    ej.add(c.ejections_per_read);
                    cross.add(c.cross_share);
                    hit.add(c.hit_rate);
                }
                GridCell {
                    table: (*label).to_string(),
                    clients: n,
                    throughput_mbs: tp.summary(),
                    ejections_per_read: ej.summary().mean,
                    cross_client_share: cross.summary().mean,
                    heur_hit_rate: hit.summary().mean,
                }
            })
        })
        .collect();
    Grid { cells: grid_cells }
}

impl Grid {
    /// Cells for one table label, client-count ascending.
    pub fn table(&self, label: &str) -> Vec<&GridCell> {
        self.cells.iter().filter(|c| c.table == label).collect()
    }

    /// Renders the grid as a GitHub-flavoured markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "| table | clients | MB/s (aggregate) | ejections/READ | cross-client share | nfsheur hit rate |\n",
        );
        out.push_str("|---|---:|---:|---:|---:|---:|\n");
        for c in &self.cells {
            out.push_str(&format!(
                "| {} | {} | {:.1} ± {:.1} | {:.4} | {:.0}% | {:.0}% |\n",
                c.table,
                c.clients,
                c.throughput_mbs.mean,
                c.throughput_mbs.stddev,
                c.ejections_per_read,
                c.cross_client_share * 100.0,
                c.heur_hit_rate * 100.0,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_table_degrades_with_clients_enlarged_does_not() {
        let scale = GridScale {
            clients: &[1, 8],
            per_client_mb: 4,
            readers: 2,
            runs: 2,
        };
        let grid = contention_grid(scale);
        assert_eq!(grid.cells.len(), 4);
        let stock = grid.table("stock");
        let big = grid.table("enlarged");

        // The paper's effect, scaled out: on the stock table, eight hosts
        // thrash the heuristics table that one host barely touches.
        assert!(
            stock[1].ejections_per_read > stock[0].ejections_per_read,
            "stock 8 clients {:.4} vs 1 client {:.4}",
            stock[1].ejections_per_read,
            stock[0].ejections_per_read
        );
        assert!(stock[1].cross_client_share > 0.0);
        assert!(
            stock[1].heur_hit_rate < stock[0].heur_hit_rate,
            "ejections must cost the heuristic its memory"
        );

        // The enlarged table absorbs the same eight hosts.
        assert!(
            big[1].ejections_per_read < stock[1].ejections_per_read,
            "enlarged {:.4} vs stock {:.4}",
            big[1].ejections_per_read,
            stock[1].ejections_per_read
        );

        let md = grid.render_markdown();
        assert!(md.contains("| stock | 8 |"));
        assert!(md.contains("| enlarged | 1 |"));
    }

    #[test]
    fn grid_is_bit_identical_across_job_widths() {
        let scale = GridScale {
            clients: &[1, 2],
            per_client_mb: 4,
            readers: 2,
            runs: 2,
        };
        simfleet::set_jobs_override(Some(1));
        let serial = contention_grid(scale);
        simfleet::set_jobs_override(Some(4));
        let fanned = contention_grid(scale);
        simfleet::set_jobs_override(None);
        assert_eq!(format!("{serial:?}"), format!("{fanned:?}"));
    }
}
