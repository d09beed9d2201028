//! Bounded CI sweep for the crash-consistency harness: write-loss runs
//! mount UNSTABLE, drive a write-heavy workload with interleaved closes,
//! and turn every `nfsd`-outage batch into a mid-gather server crash. The
//! sweep must prove the crash machinery is *live* — data really is lost
//! and really is rewritten — while the no-committed-loss, dirty-books,
//! and crash-detection oracles hold on every seed. Long sweeps run via
//! the binary: `cargo run -p simtest --release -- --seeds 1000 --write-loss`.

use std::sync::Mutex;

use netsim::TransportKind;
use simtest::{FaultKind, Spec, Workload};

const CI_SEEDS: u64 = 10;

fn write_loss(seed: u64) -> Spec {
    Spec {
        workload: Workload::WriteLoss,
        ..Spec::new(seed)
    }
}

/// The jobs override is process-global; serialize tests that flip it.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// Every write-loss seed passes all oracles twice (determinism included),
/// every run injects at least one server crash, and across the sweep the
/// crash machinery demonstrably fires: UNSTABLE data is lost from the
/// dirty pool, clients detect it through verifier mismatches, and the
/// lost blocks are rewritten — the RFC 1813 recovery loop, end to end.
#[test]
fn write_loss_sweep_holds_all_oracles_and_loses_data() {
    let mut lost = 0u64;
    let mut mismatches = 0u64;
    let mut rewritten = 0u64;
    let mut unstable = 0u64;
    let mut gathered = 0u64;
    for seed in 0..CI_SEEDS {
        let r = write_loss(seed)
            .run_checked()
            .unwrap_or_else(|e| panic!("{e}"));
        let s = &r.server;
        assert_eq!(
            r.ok_ops + r.timed_out_ops + r.eio_ops,
            r.client.ops,
            "seed {seed}: every op completes with a typed outcome"
        );
        assert!(
            s.restarts >= 1,
            "seed {seed}: the nfsd-outage batch must crash the server"
        );
        assert!(
            r.faults.contains(&FaultKind::NfsdOutage),
            "seed {seed}: {:?}",
            r.faults
        );
        lost += s.dirty_blocks_lost;
        mismatches += r.client.verifier_mismatches;
        rewritten += r.client.blocks_rewritten;
        unstable += s.unstable_writes;
        gathered += s.gather_flushes;
    }
    assert!(unstable > 0, "the workload must send UNSTABLE WRITEs");
    assert!(
        gathered > 0 && gathered < unstable,
        "write gathering must coalesce: {gathered} flushes for {unstable} writes"
    );
    assert!(
        lost > 0,
        "some crash must catch UNSTABLE data still in the dirty pool"
    );
    assert!(
        mismatches > 0,
        "some client must detect a crash through the write verifier"
    );
    assert!(
        rewritten > 0,
        "detected losses must be repaired by rewriting the blocks"
    );
}

/// A clean (FILE_SYNC) run never wakes the async write path: the report's
/// async counters are all zero, and the in-run `async-dormancy` oracle
/// backs the same claim inside `Spec::run`.
#[test]
fn clean_runs_keep_the_async_machinery_dormant() {
    for seed in 0..4u64 {
        let r = Spec::new(seed)
            .run_checked()
            .unwrap_or_else(|e| panic!("{e}"));
        let (c, s) = (&r.client, &r.server);
        assert_eq!(s.unstable_writes, 0, "seed {seed}");
        assert_eq!(s.commits, 0, "seed {seed}");
        assert_eq!(s.gather_flushes, 0, "seed {seed}");
        assert_eq!(s.dirty_blocks_lost, 0, "seed {seed}");
        assert_eq!(c.verifier_mismatches, 0, "seed {seed}");
        assert_eq!(c.blocks_rewritten, 0, "seed {seed}");
        assert_eq!(s.restarts, 0, "seed {seed}");
    }
}

/// The crash-consistency oracles compose with the rest of the matrix:
/// a 2-client cluster and overlapping fault pairs both hold, and the
/// 2-client run diverges from the single-client run (the per-op client
/// draw changes the stream).
#[test]
fn write_loss_composes_with_cluster_and_overlap() {
    let mut diverged = false;
    for seed in 0..4u64 {
        let single = write_loss(seed)
            .run_checked()
            .unwrap_or_else(|e| panic!("{e}"));
        let cluster = Spec {
            clients: 2,
            ..write_loss(seed)
        }
        .run_checked()
        .unwrap_or_else(|e| panic!("{e}"));
        if cluster.fingerprint != single.fingerprint {
            diverged = true;
        }
        let paired = Spec {
            overlap: true,
            ..write_loss(seed)
        }
        .run_checked()
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(paired.server.restarts >= 1, "seed {seed}");
    }
    assert!(
        diverged,
        "2-client write-loss runs must explore different runs"
    );
}

/// Forced TCP: the async write path rides the timed segment engine — the
/// crash, the parked-call replay after the outage, and the COMMIT-driven
/// rewrites all hold with zero RPC-layer retransmissions.
#[test]
fn write_loss_holds_under_forced_tcp() {
    for seed in 0..3u64 {
        let r = Spec {
            transport: Some(TransportKind::Tcp),
            ..write_loss(seed)
        }
        .run()
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.transport, TransportKind::Tcp, "seed {seed}");
        assert_eq!(
            r.client.retransmits, 0,
            "seed {seed}: TCP never retransmits RPCs"
        );
        assert!(r.server.restarts >= 1, "seed {seed}");
        assert!(r.server.unstable_writes > 0, "seed {seed}");
    }
}

/// Mutation check: a sabotaged (swallowed) reply under write-loss must
/// still be caught, and the reproduction command must carry the
/// `--write-loss` flag so the printed line reproduces the failing mode.
#[test]
fn write_loss_failures_print_the_mode_flag() {
    let seed = (0..100)
        .find(|&s| Spec::new(s).plan().transport == TransportKind::Udp)
        .expect("a UDP seed among the first 100");
    let err = Spec {
        sabotage_replies: 1,
        ..write_loss(seed)
    }
    .run()
    .expect_err("a swallowed reply must trip an oracle");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("SIMTEST_SEED={seed}")),
        "failure must print a reproduction command: {msg}"
    );
    assert!(msg.contains("--write-loss"), "missing mode flag: {msg}");
}

/// The write-loss sweep is bit-identical whether the seeds run serially
/// or fan out across `simfleet` worker threads: crash injection and the
/// rewrite machinery add no hidden cross-run state.
#[test]
fn write_loss_sweep_is_bit_identical_across_job_counts() {
    let seeds: Vec<u64> = (0..6).collect();
    let sweep = |jobs| {
        let _guard = JOBS_LOCK.lock().unwrap();
        simfleet::set_jobs_override(Some(jobs));
        let out = simfleet::map_indexed(&seeds, |&seed| {
            let r = write_loss(seed)
                .run_checked()
                .unwrap_or_else(|e| panic!("{e}"));
            (
                r.fingerprint,
                r.client.ops,
                r.server.dirty_blocks_lost,
                r.client.verifier_mismatches,
                r.client.blocks_rewritten,
                r.sim_nanos,
            )
        });
        simfleet::set_jobs_override(None);
        out
    };
    let serial = sweep(1);
    let parallel = sweep(4);
    assert_eq!(
        serial, parallel,
        "write-loss sweep diverged between jobs=1 and jobs=4"
    );
}
