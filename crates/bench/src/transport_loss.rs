//! The §5.4 transport trap, measured: UDP vs TCP throughput as frame loss
//! rises.
//!
//! At zero loss the two transports move identical wire traffic and UDP's
//! lower per-RPC CPU cost wins. Under loss the picture inverts: every
//! lost frame costs UDP a whole RPC (a ~1 s soft-mount retransmit after
//! fragmentation amplifies the frame loss into datagram loss), while TCP
//! retransmits single segments on its RTO/fast-retransmit ladder and the
//! RPC layer never notices. A benchmark that compares the transports only
//! on a clean LAN — the paper's warning — measures the CPU tax and none
//! of the recovery behaviour.

use crate::{Level, BASE_SEED};
use netsim::TransportKind;
use nfssim::WorldConfig;
use testbed::{render_tcp_line, ClusterBench, ClusterConfig, Rig};

const READERS: usize = 2;

/// Frame-loss rates for the matrix. 0.005 is the wireless-ish profile's
/// rate; 0.05 is a badly degraded path (amplified ~6x by 8 KB datagram
/// fragmentation on UDP).
const LOSS_RATES: [f64; 4] = [0.0, 0.002, 0.01, 0.05];

struct Cell {
    mbs: f64,
    rpc_retransmits: u64,
    rpc_timeouts: u64,
    tcp_lines: Option<(String, String)>,
}

fn run_cell(transport: TransportKind, frame_loss: f64, total_mb: u64) -> Cell {
    let mut cfg = WorldConfig {
        transport,
        ..WorldConfig::default()
    };
    cfg.link.frame_loss = frame_loss;
    let cluster = ClusterConfig::uniform(cfg, 1);
    let mut b = ClusterBench::new(Rig::ide(1), &cluster, &[READERS], total_mb, BASE_SEED);
    let mbs = b.run(READERS).throughput_mbs;
    let s = b.world().client_stats_for(0);
    Cell {
        mbs,
        rpc_retransmits: s.retransmits,
        rpc_timeouts: s.rpc_timeouts,
        tcp_lines: b
            .world()
            .tcp_stats_for(0)
            .map(|(c2s, s2c)| (render_tcp_line("c2s", &c2s), render_tcp_line("s2c", &s2c))),
    }
}

pub fn run(level: Level) {
    let total_mb = level.pick(4, 16);
    println!(
        "transport-loss matrix: ide1, {READERS} readers x {} MB each, seed {BASE_SEED}",
        total_mb / READERS as u64
    );
    println!(
        "{:<10} {:<12} | {:>8} | {:>13} | {:>12}",
        "transport", "frame loss", "MB/s", "rpc retrans", "rpc timeouts"
    );
    let mut cells = Vec::new();
    for transport in [TransportKind::Udp, TransportKind::Tcp] {
        for loss in LOSS_RATES {
            cells.push((transport, loss));
        }
    }
    let rows = simfleet::map_indexed(&cells, |&(transport, loss)| {
        run_cell(transport, loss, total_mb)
    });
    for ((transport, loss), cell) in cells.iter().zip(&rows) {
        println!(
            "{:<10} {:<12} | {:>8.2} | {:>13} | {:>12}",
            format!("{transport:?}"),
            format!("{loss:.3}"),
            cell.mbs,
            cell.rpc_retransmits,
            cell.rpc_timeouts,
        );
        if let Some((c2s, s2c)) = &cell.tcp_lines {
            if *loss == LOSS_RATES[LOSS_RATES.len() - 1] {
                println!("  {c2s}");
                println!("  {s2c}");
            }
        }
    }
}
