//! Bounded CI sweep: a handful of seeds through the full fault schedule,
//! the determinism oracle, and a mutation check proving the oracles can
//! actually catch a broken invariant. Long sweeps run via the binary:
//! `cargo run -p simtest --release -- --seeds 1000`.

use std::collections::HashSet;

use netsim::TransportKind;
use simtest::{FaultKind, Spec};

const CI_SEEDS: u64 = 10;

/// Every seed in the bounded sweep must pass all oracles twice (the
/// second run feeds the determinism fingerprint comparison), and the
/// sweep as a whole must exercise every fault kind and both the
/// retransmission and RPC-timeout recovery paths.
#[test]
fn bounded_sweep_holds_all_oracles() {
    let mut kinds: HashSet<FaultKind> = HashSet::new();
    let mut transports: HashSet<&str> = HashSet::new();
    let mut retransmits = 0u64;
    let mut timed_out = 0u64;
    for seed in 0..CI_SEEDS {
        let r = Spec::new(seed)
            .run_checked()
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.ok_ops + r.timed_out_ops, r.client.ops, "seed {seed}");
        kinds.extend(r.faults.iter().copied());
        transports.insert(match r.transport {
            TransportKind::Udp => "udp",
            TransportKind::Tcp => "tcp",
        });
        retransmits += r.client.retransmits;
        timed_out += r.timed_out_ops;
    }
    for required in [
        FaultKind::LossBurst,
        FaultKind::LinkDegrade,
        FaultKind::ServerStall,
        FaultKind::NfsdResize,
        FaultKind::NfsdOutage,
        FaultKind::NfsiodResize,
        FaultKind::CacheFlush,
    ] {
        assert!(
            kinds.contains(&required),
            "sweep never injected {required:?}"
        );
    }
    assert!(transports.contains("udp"), "sweep must cover UDP");
    assert!(
        retransmits > 0,
        "loss bursts must force RPC retransmissions"
    );
    assert!(
        timed_out > 0,
        "a UDP blackout must force at least one typed RPC timeout"
    );
}

/// Same seed, same bits: the full report (fingerprint included) must be
/// identical across independent runs.
#[test]
fn same_seed_is_bit_exact() {
    let a = Spec::new(3).run_checked().unwrap_or_else(|e| panic!("{e}"));
    let b = Spec::new(3).run_checked().unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(a, b);
    let c = Spec::new(4).run_checked().unwrap_or_else(|e| panic!("{e}"));
    assert_ne!(
        a.fingerprint, c.fingerprint,
        "different seeds should explore different runs"
    );
}

/// Mutation check: deliberately break reply conservation (a reply is
/// counted but never transmitted) and require the oracle set to catch it
/// with a printed reproduction seed.
#[test]
fn broken_invariant_is_caught_with_repro_seed() {
    // Use a UDP seed so the run still terminates (the client retransmits
    // around the swallowed reply) and the accounting oracle must do the
    // catching, not a hang.
    let seed = (0..100)
        .find(|&s| Spec::new(s).plan().transport == TransportKind::Udp)
        .expect("a UDP seed among the first 100");
    let err = Spec {
        sabotage_replies: 1,
        ..Spec::new(seed)
    }
    .run()
    .expect_err("a swallowed reply must trip an oracle");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("SIMTEST_SEED={seed}")),
        "failure must print a reproduction command: {msg}"
    );
    assert!(
        msg.contains("conservation") || msg.contains("no-stuck-ops"),
        "unexpected oracle: {msg}"
    );
}

/// The seed-derived plan is itself deterministic and always schedules
/// every fault kind with the default batch count.
#[test]
fn plans_are_deterministic_and_complete() {
    for seed in 0..20u64 {
        let a = Spec::new(seed).plan();
        let b = Spec::new(seed).plan();
        assert_eq!(a.faults, b.faults, "seed {seed}");
        assert_eq!(a.transport, b.transport, "seed {seed}");
        let kinds: HashSet<FaultKind> = a.faults.iter().map(|&(_, k)| k).collect();
        assert_eq!(kinds.len(), 7, "all fault kinds scheduled: {:?}", a.faults);
    }
}

/// Overlap scheduling packs fault *pairs* into shared batches: all seven
/// kinds still run, but at least one batch hosts two concurrently active
/// faults, and the transport/kind-shuffle stream matches the classic plan.
#[test]
fn overlap_plans_pair_up_faults() {
    for seed in 0..20u64 {
        let classic = Spec::new(seed).plan();
        let paired = Spec {
            overlap: true,
            ..Spec::new(seed)
        }
        .plan();
        assert_eq!(paired.transport, classic.transport, "seed {seed}");
        let kinds: HashSet<FaultKind> = paired.faults.iter().map(|&(_, k)| k).collect();
        assert_eq!(kinds.len(), 7, "seed {seed}: {:?}", paired.faults);
        let mut per_batch: HashSet<usize> = HashSet::new();
        let mut doubled = 0;
        for &(b, _) in &paired.faults {
            if !per_batch.insert(b) {
                doubled += 1;
            }
        }
        assert!(doubled >= 3, "seed {seed}: 7 kinds over 4 slots must share");
    }
}

/// The full oracle set holds under overlapping fault pairs (a loss burst
/// during a server stall, an outage during a flush, ...) for both the
/// classic and the 2-client worlds, and the restore path composes: one
/// revert returns every knob to baseline no matter how many faults were
/// active (checked by the in-run restore-composition oracle).
#[test]
fn overlapping_faults_hold_all_oracles() {
    for seed in 0..6u64 {
        for clients in [1usize, 2] {
            let r = Spec {
                clients,
                overlap: true,
                ..Spec::new(seed)
            }
            .run_checked()
            .unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(r.ok_ops + r.timed_out_ops, r.client.ops, "seed {seed}");
            assert_eq!(r.faults.len(), 7, "all kinds injected: {:?}", r.faults);
        }
    }
}

/// A 2-client cluster holds every oracle across the bounded sweep: the
/// summed per-host books still reconcile exactly with the shared server's
/// counters under every fault kind.
#[test]
fn two_client_cluster_sweep_holds_all_oracles() {
    let mut multi_host_issue = false;
    for seed in 0..CI_SEEDS {
        let r = Spec {
            clients: 2,
            ..Spec::new(seed)
        }
        .run_checked()
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.ok_ops + r.timed_out_ops, r.client.ops, "seed {seed}");
        // The same seed must explore a genuinely different run than the
        // single-client world (the per-op client draw changes the stream).
        let single = Spec::new(seed)
            .run_checked()
            .unwrap_or_else(|e| panic!("{e}"));
        if r.fingerprint != single.fingerprint {
            multi_host_issue = true;
        }
    }
    assert!(
        multi_host_issue,
        "2-client runs must actually diverge from single-client runs"
    );
}

/// The full fault matrix holds under forced TCP (`--transport tcp`):
/// every classic kind *plus* the TCP-only total-blackout window runs
/// against the timed segment engine, every oracle (including the TCP
/// segment books and in-order delivery) stays green, and the blackout's
/// abort ladder surfaces typed `RpcTimedOut` completions — the recovery
/// path the old inline engine could never reach.
#[test]
fn forced_tcp_sweep_holds_all_oracles_through_blackouts() {
    let mut kinds: HashSet<FaultKind> = HashSet::new();
    let mut timed_out = 0u64;
    for seed in 0..6u64 {
        let r = Spec {
            transport: Some(TransportKind::Tcp),
            ..Spec::new(seed)
        }
        .run_checked()
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.transport, TransportKind::Tcp, "seed {seed}");
        assert_eq!(r.ok_ops + r.timed_out_ops, r.client.ops, "seed {seed}");
        assert_eq!(
            r.client.retransmits, 0,
            "seed {seed}: TCP must never retransmit at the RPC layer"
        );
        assert!(
            r.faults.contains(&FaultKind::TcpBlackout),
            "seed {seed}: forced-TCP plans must schedule the blackout: {:?}",
            r.faults
        );
        kinds.extend(r.faults.iter().copied());
        timed_out += r.timed_out_ops;
    }
    for required in FaultKind::ALL {
        assert!(
            kinds.contains(&required),
            "forced-TCP sweep never injected {required:?}"
        );
    }
    assert!(
        timed_out > 0,
        "blackout abort ladders must surface typed RPC timeouts on TCP"
    );
}

/// Forcing the transport overrides the seed's draw without disturbing the
/// rest of the plan stream, and only forced-TCP plans gain the blackout.
#[test]
fn forced_transport_overrides_the_draw_only() {
    for seed in 0..20u64 {
        let forced = |t| {
            Spec {
                transport: Some(t),
                ..Spec::new(seed)
            }
            .plan()
        };
        let drawn = Spec::new(seed).plan();
        let tcp = forced(TransportKind::Tcp);
        let udp = forced(TransportKind::Udp);
        assert_eq!(tcp.transport, TransportKind::Tcp, "seed {seed}");
        assert_eq!(udp.transport, TransportKind::Udp, "seed {seed}");
        let tcp_kinds: HashSet<FaultKind> = tcp.faults.iter().map(|&(_, k)| k).collect();
        let udp_kinds: HashSet<FaultKind> = udp.faults.iter().map(|&(_, k)| k).collect();
        assert_eq!(tcp_kinds.len(), 8, "seed {seed}: 7 classic + blackout");
        assert!(tcp_kinds.contains(&FaultKind::TcpBlackout), "seed {seed}");
        assert_eq!(
            udp_kinds.len(),
            7,
            "seed {seed}: forced UDP schedules only the classic kinds"
        );
        assert!(!udp_kinds.contains(&FaultKind::TcpBlackout), "seed {seed}");
        // A forced-UDP plan is the drawn plan with only the transport
        // (possibly) swapped: same shuffle, same slots.
        assert_eq!(udp.faults, drawn.faults, "seed {seed}");
    }
}

/// Failure reports from forced-transport runs print the `--transport`
/// repro flag. A swallowed reply on TCP hangs the waiting operation (TCP
/// never retransmits RPCs), so the no-stuck-ops oracle must catch it.
#[test]
fn forced_tcp_failures_print_the_transport_flag() {
    let err = Spec {
        transport: Some(TransportKind::Tcp),
        sabotage_replies: 1,
        ..Spec::new(0)
    }
    .run()
    .expect_err("a swallowed reply must trip an oracle");
    let msg = err.to_string();
    assert!(
        msg.contains("--transport tcp"),
        "missing transport flag: {msg}"
    );
    assert!(msg.contains("no-stuck-ops"), "unexpected oracle: {msg}");
}

/// Failure reports from cluster / overlap runs carry the extra repro
/// flags, so the printed command actually reproduces the failing mode.
#[test]
fn cluster_failures_print_full_repro_flags() {
    let seed = (0..100)
        .find(|&s| Spec::new(s).plan().transport == TransportKind::Udp)
        .expect("a UDP seed among the first 100");
    let err = Spec {
        clients: 2,
        overlap: true,
        sabotage_replies: 1,
        ..Spec::new(seed)
    }
    .run()
    .expect_err("a swallowed reply must trip an oracle");
    let msg = err.to_string();
    assert!(msg.contains("--clients 2"), "missing cluster flag: {msg}");
    assert!(msg.contains("--overlap"), "missing overlap flag: {msg}");
}
