//! `fleet`: 50,000 closed-loop clients on the sharded `FleetWorld` (32
//! groups of 1,562 clients and 32 hosts, every 4th group on a fail-slow
//! disk), run on the default shard resolution.

use std::time::Instant;

use nfscluster::{FleetConfig, FleetWorld};

use crate::metrics::{RepOut, Sim};
use crate::tracer::{Boundary, Tracer};
use crate::Workload;

const CLIENTS: usize = 50_000;
/// Fleet clients read in 8 KB ops.
const READ_BYTES: u64 = 8_192;

/// The `fleet` workload.
pub struct Fleet {
    seed: u64,
    cfg: FleetConfig,
}

impl Fleet {
    /// The workload for `seed` (arrival schedule, layouts, fault plans).
    pub fn new(seed: u64) -> Self {
        Fleet {
            seed,
            cfg: config(),
        }
    }
}

/// `FleetConfig::scale(50_000)` with twice its 16 groups and a 1.5x
/// longer arrival window. At the stock profile one seed in five tips a
/// fail-slow group into cascading load-shed migration (25,892 migrations
/// and a 2.4 s p99 on one seed, about 800 on its neighbours), which moves
/// host cost per op by 2x between seeds. 32 groups carry 8 fail-slow
/// disks instead of 4, so the seed's fault plans average out, and each
/// group still sees two thirds of the stock arrival rate.
fn config() -> FleetConfig {
    let mut cfg = FleetConfig::scale(CLIENTS);
    cfg.groups = 32;
    cfg.arrival_window = cfg.arrival_window.mul_f64(0.5 * 1.5);
    cfg
}

impl Workload for Fleet {
    fn setup_only(&mut self) -> f64 {
        let t0 = Instant::now();
        let world = FleetWorld::new(&self.cfg, self.seed);
        let setup_s = t0.elapsed().as_secs_f64();
        drop(world);
        setup_s
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOut {
        let t0 = Instant::now();
        let world = tr.span(Boundary::FleetNew, || FleetWorld::new(&self.cfg, self.seed));
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let r = tr.span(Boundary::FleetRun, || world.run());
        let timed_s = t1.elapsed().as_secs_f64();

        let mut violations = Vec::new();
        if !r.shard_stats.completed {
            violations.push(format!(
                "fleet: sharded run hit its epoch cap: {:?}",
                r.shard_stats
            ));
        }
        if r.clients_done + r.clients_timed_out != CLIENTS as u64 {
            violations.push(format!(
                "fleet: {} done + {} timed out != {CLIENTS} clients",
                r.clients_done, r.clients_timed_out
            ));
        }
        if r.ops_ok + r.ops_eio != r.hist.total() {
            violations.push(format!(
                "fleet: {} ok + {} eio != {} latency samples",
                r.ops_ok,
                r.ops_eio,
                r.hist.total()
            ));
        }
        let ms = |q| r.latency_ms(q).unwrap_or(0.0);
        let sim = Sim {
            mb_per_s: (r.ops_ok * READ_BYTES) as f64 / 1e6 / r.sim_secs,
            p50_ms: ms(0.50),
            p99_ms: ms(0.99),
            p999_ms: ms(0.999),
            samples: r.hist.total(),
        };
        let layers = vec![
            ("simfleet.epochs", r.shard_stats.epochs as f64),
            ("simfleet.messages", r.shard_stats.messages as f64),
            ("simfleet.shards", simfleet::shards() as f64),
            ("nfscluster.migrations", r.migrations as f64),
            ("nfscluster.shed_events", r.shed_events as f64),
            ("nfscluster.clients_timed_out", r.clients_timed_out as f64),
            ("nfscluster.ops_eio", r.ops_eio as f64),
            ("nfscluster.fleet_bytes", r.mem.fleet_bytes as f64),
            ("nfscluster.bytes_per_client", r.mem.per_client_bytes as f64),
        ];
        RepOut {
            setup_s,
            timed_s,
            attempted: r.ops_issued,
            failed: r.ops_issued - r.ops_ok,
            fingerprint: r.fingerprint,
            sim,
            layers,
            violations,
        }
    }
}
