//! Differential transport suite: with `frame_loss = 0` the timed TCP
//! segment engine must be invisible — no timers fire, no RNG draws move,
//! and every delivery lands exactly where the pre-PR inline engine (and
//! plain UDP over the same link) put it.
//!
//! The `transport_diff_pre_engine_*` values in `pins.txt` were captured
//! from the repo *before* the timed engine replaced inline retransmission,
//! so these tests pin the refactor to the old engine bit-for-bit at zero
//! loss.

use diskmodel::{DriveModel, PartitionTable};
use ffs::FsConfig;
use iosched::SchedulerKind;
use netsim::{LinkProfile, OneWayLink, TcpStream, Transport, TransportKind, TxOutcome};
use nfsproto::FileHandle;
use nfssim::{NfsWorld, WorldConfig};
use simcore::{fnv1a, SimDuration, SimRng, SimTime, FNV_BASIS};

fn make_world(config: WorldConfig, seed: u64) -> NfsWorld {
    let disk = DriveModel::WdWd200bbIde.build(SimRng::new(seed));
    let part = PartitionTable::quarters(disk.geometry()).get(1);
    let fs = ffs::FileSystem::format(disk, part, SchedulerKind::Elevator, FsConfig::default());
    NfsWorld::new(config, fs, seed)
}

fn sequential_read(world: &mut NfsWorld, fh: FileHandle, size: u64) -> f64 {
    let mut now = SimTime::ZERO;
    let mut offset = 0;
    while offset < size {
        world.read_from(0, now, fh, offset, 8_192, 0);
        let mut done = Vec::new();
        while done.is_empty() {
            let t = world.next_event().expect("pending read must progress");
            done = world.advance(t);
            now = now.max(t);
        }
        now = done[0].done_at;
        offset += 8_192;
    }
    size as f64 / 1e6 / now.as_secs_f64()
}

/// Runs the 4 MB sequential read and folds the client books (and final
/// sim time) into one hash — the same books the baseline was captured
/// with.
fn world_run(transport: TransportKind, seed: u64) -> (u64, u64) {
    let cfg = WorldConfig {
        transport,
        ..WorldConfig::default()
    };
    let mut w = make_world(cfg, seed);
    let size = 4 * 1024 * 1024u64;
    let fh = w.create_file(size);
    let mbs = sequential_read(&mut w, fh, size);
    let s = w.client_stats_for(0);
    let mut h = FNV_BASIS;
    for v in [
        s.ops,
        s.cache_hits,
        s.rpcs,
        s.readahead_rpcs,
        s.retransmits,
        s.iod_starved,
        s.rpc_timeouts,
        s.transmissions,
        s.replies_received,
        s.duplicate_replies,
        s.eio_replies,
        w.now().as_nanos(),
    ] {
        h = fnv1a(h, &v.to_le_bytes());
    }
    (mbs.to_bits(), h)
}

/// At zero loss the timed engine reproduces the pre-PR inline engine's
/// world runs bit for bit: same throughput bits, same client books, same
/// final simulated time. The baseline is a zero-loss TCP 4 MB sequential
/// read on the default config, per seed.
#[test]
fn zero_loss_tcp_world_matches_the_pre_engine_baseline() {
    let mut pinned = Vec::new();
    for seed in [1u64, 2, 3] {
        let (mbs_bits, books) = world_run(TransportKind::Tcp, seed);
        pinned.push((format!("seed{seed}.throughput"), pins::hex(mbs_bits)));
        pinned.push((format!("seed{seed}.books"), pins::hex(books)));
    }
    pins::check("transport_diff_pre_engine_world", pinned);
}

/// The stream-level delivery schedule is also pinned: 200 sends on the
/// standard LAN profile resolve inline ([`TxOutcome::Delivered`], never
/// queued), no timer is ever armed, and the delivery times hash to the
/// pre-PR value (on the standard LAN profile, jitter on, loss zero, fixed
/// send schedule).
#[test]
fn zero_loss_tcp_stream_delivery_times_match_the_pre_engine_baseline() {
    let mut t = TcpStream::new(
        LinkProfile::gigabit_lan(),
        SimDuration::from_micros(200),
        SimRng::new(42),
    );
    let mut h = FNV_BASIS;
    for i in 0..200u64 {
        // Mix of small calls and rsize-like replies, some back to back.
        let bytes = if i % 3 == 0 { 8_300 } else { 180 };
        let now = SimTime::from_nanos(i * 250_000);
        match t.send(now, bytes) {
            TxOutcome::Delivered(at) => h = fnv1a(h, &at.as_nanos().to_le_bytes()),
            other => panic!("send {i}: zero-loss TCP must resolve inline, got {other:?}"),
        }
        assert_eq!(t.next_timer(), None, "send {i}: clean stream armed a timer");
    }
    pins::check(
        "transport_diff_pre_engine_stream",
        [("delivery", pins::hex(h))],
    );
    let s = t.tcp_stats();
    assert_eq!(s.retransmits, 0);
    assert_eq!(s.segments_sent, 200);
    assert_eq!(s.delivered, 200);
    assert_eq!(s.lost_tracked, 0);
    assert_eq!(s.order_violations, 0);
}

/// Over the same lossless link (same profile, same RNG seed, same send
/// schedule), TCP and UDP deliver every message at the identical time:
/// reliability costs nothing when nothing is lost — the §5 transport trap
/// only appears under loss.
#[test]
fn zero_loss_tcp_and_udp_deliver_identically() {
    let profile = LinkProfile::gigabit_lan();
    let rtt = SimDuration::from_micros(200);
    let mut tcp = TcpStream::new(profile, rtt, SimRng::new(7));
    let mut udp = OneWayLink::new(profile, SimRng::new(7));
    for i in 0..500u64 {
        let bytes = if i % 3 == 0 { 8_300 } else { 180 };
        let now = SimTime::from_nanos(i * 250_000);
        let t_at = match tcp.send(now, bytes) {
            TxOutcome::Delivered(at) => at,
            other => panic!("send {i}: zero-loss TCP must resolve inline, got {other:?}"),
        };
        let u_at = match udp.send(now, bytes) {
            netsim::Delivery::At(at) => at,
            netsim::Delivery::Lost => panic!("send {i}: zero-loss UDP lost a datagram"),
        };
        assert_eq!(t_at, u_at, "send {i}: transports diverged at zero loss");
    }
}

/// The same equivalence at the world level: with a lossless link, neither
/// transport retransmits, times out, or loses a message, and the two runs
/// move exactly the same RPC traffic. (Whole-run *times* still differ —
/// the world deliberately charges TCP more per-RPC CPU via
/// `CpuModel::for_transport`, the paper's §5.4 protocol-overhead point —
/// so the differential claim is about the wire schedule, which the
/// stream-level tests above pin exactly, not the CPU model.)
#[test]
fn zero_loss_world_runs_move_identical_rpc_traffic() {
    for seed in [1u64, 2, 3] {
        let (tcp_s, udp_s) = {
            let run = |transport| {
                let cfg = WorldConfig {
                    transport,
                    ..WorldConfig::default()
                };
                let mut w = make_world(cfg, seed);
                let size = 4 * 1024 * 1024u64;
                let fh = w.create_file(size);
                sequential_read(&mut w, fh, size);
                w.client_stats_for(0)
            };
            (run(TransportKind::Tcp), run(TransportKind::Udp))
        };
        for (name, s) in [("tcp", &tcp_s), ("udp", &udp_s)] {
            assert_eq!(s.retransmits, 0, "seed {seed} {name}");
            assert_eq!(s.rpc_timeouts, 0, "seed {seed} {name}");
            assert_eq!(
                s.replies_received, s.transmissions,
                "seed {seed} {name}: every lossless call is answered exactly once"
            );
        }
        assert_eq!(tcp_s.ops, udp_s.ops, "seed {seed}");
        assert_eq!(
            tcp_s.rpcs + tcp_s.readahead_rpcs,
            udp_s.rpcs + udp_s.readahead_rpcs,
            "seed {seed}: same blocks fetched over the wire"
        );
        assert_eq!(
            tcp_s.transmissions, udp_s.transmissions,
            "seed {seed}: same call count on the wire"
        );
    }
}

/// [`Transport`] dispatch preserves the equivalence end to end (guards
/// the enum layer the world actually calls through).
#[test]
fn transport_enum_zero_loss_paths_agree() {
    let profile = LinkProfile::gigabit_lan();
    let rtt = SimDuration::from_micros(200);
    let mut tcp = Transport::new(TransportKind::Tcp, profile, rtt, SimRng::new(11));
    let mut udp = Transport::new(TransportKind::Udp, profile, rtt, SimRng::new(11));
    for i in 0..100u64 {
        let now = SimTime::from_nanos(i * 300_000);
        let a = tcp.send(now, 1_000);
        let b = udp.send(now, 1_000);
        assert_eq!(a, b, "send {i}");
        assert_eq!(tcp.next_timer(), None);
    }
}
