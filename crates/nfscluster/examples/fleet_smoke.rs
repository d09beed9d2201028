//! Fleet scale smoke:
//! `cargo run --release -p nfscluster --example fleet_smoke -- <clients>`.
//!
//! With `--verify-shards` the fleet runs twice — serially and at the
//! default shard width — and the process fails unless the two runs are
//! bit-identical (the CI gate for the sharded-world contract).

use nfscluster::{FleetConfig, FleetWorld};

fn main() {
    let mut clients: usize = 10_000;
    let mut verify_shards = false;
    for a in std::env::args().skip(1) {
        if a == "--verify-shards" {
            verify_shards = true;
        } else if let Ok(n) = a.parse() {
            clients = n;
        }
    }
    let cfg = FleetConfig::scale(clients);
    eprintln!(
        "clients={} groups={} window={:.1}s",
        cfg.clients,
        cfg.groups,
        cfg.arrival_window.as_secs_f64()
    );
    let t0 = std::time::Instant::now();
    let r = FleetWorld::new(&cfg, 42).run();
    let wall = t0.elapsed();
    eprintln!(
        "wall={:.2}s sim={:.1}s epochs={} msgs={} done={} timeout={} ok={} eio={} migr={} shed={}",
        wall.as_secs_f64(),
        r.sim_secs,
        r.shard_stats.epochs,
        r.shard_stats.messages,
        r.clients_done,
        r.clients_timed_out,
        r.ops_ok,
        r.ops_eio,
        r.migrations,
        r.shed_events
    );
    eprintln!(
        "p50={:.2}ms p99={:.2}ms p99.9={:.2}ms mem/client={}B full-host={}B server={}B reduction={:.1}x fp={:#x} completed={}",
        r.latency_ms(0.50).unwrap_or(0.0),
        r.latency_ms(0.99).unwrap_or(0.0),
        r.latency_ms(0.999).unwrap_or(0.0),
        r.mem.per_client_bytes,
        r.mem.full_host_bytes,
        r.mem.server_bytes,
        r.mem.reduction,
        r.fingerprint,
        r.shard_stats.completed
    );
    assert!(r.shard_stats.completed, "fleet did not quiesce");
    if verify_shards {
        simfleet::set_shards_override(Some(1));
        let serial = FleetWorld::new(&cfg, 42).run();
        simfleet::set_shards_override(None);
        assert_eq!(
            serial.fingerprint, r.fingerprint,
            "shards=1 diverged from default shard width"
        );
        assert_eq!(serial.hist.fingerprint(), r.hist.fingerprint());
        eprintln!(
            "verify-shards: shards=1 fingerprint matches ({:#x})",
            serial.fingerprint
        );
    }
}
