//! Bounded CI sweep for the metadata-storm mode: storm runs arm the
//! client attribute cache at the classic `acregmin=3s`/`acregmax=60s`
//! timeouts and drive a GETATTR/LOOKUP/READDIR-heavy mix with
//! open()-style forced revalidations. The sweep must prove the cache is
//! *live* — getattr-class ops really are answered locally — while the
//! attrcache-books oracle balances every hit, miss, and revalidation on
//! every seed, and non-storm runs keep the machinery provably dormant.
//! Long sweeps run via the binary:
//! `cargo run -p simtest --release -- --seeds 1000 --meta-storm`.

use std::sync::Mutex;

use netsim::TransportKind;
use simtest::{FaultKind, Spec, Workload};

const CI_SEEDS: u64 = 10;

fn meta_storm(seed: u64) -> Spec {
    Spec {
        workload: Workload::MetaStorm,
        ..Spec::new(seed)
    }
}

/// The jobs override is process-global; serialize tests that flip it.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// Every storm seed passes all oracles twice (determinism included), and
/// across the sweep the attribute cache demonstrably fires: getattr-class
/// ops are answered locally, wire GETATTRs still flow (misses and
/// revalidations), and at least one revalidation catches the server's
/// attributes having moved under a storm write.
#[test]
fn meta_storm_sweep_holds_all_oracles_and_the_cache_fires() {
    let mut hits = 0u64;
    let mut wire = 0u64;
    let mut revalidations = 0u64;
    let mut stale = 0u64;
    for seed in 0..CI_SEEDS {
        let r = meta_storm(seed)
            .run_checked()
            .unwrap_or_else(|e| panic!("{e}"));
        let c = &r.client;
        assert_eq!(
            r.ok_ops + r.timed_out_ops + r.eio_ops,
            c.ops,
            "seed {seed}: every op completes with a typed outcome"
        );
        assert!(
            c.getattr_rpcs > 0,
            "seed {seed}: a storm run must put GETATTRs on the wire"
        );
        hits += c.attr_cache_hits;
        wire += c.getattr_rpcs;
        revalidations += c.attr_revalidations;
        stale += c.attr_stale_detected;
    }
    assert!(hits > 0, "the attribute cache must answer some ops locally");
    assert!(
        revalidations > 0,
        "expired and open-forced entries must revalidate over the wire"
    );
    assert!(
        stale > 0,
        "some revalidation must catch the server's attributes moving \
         (storm writes bump them): {wire} wire GETATTRs, {revalidations} revalidations"
    );
}

/// A non-storm run never wakes the attribute cache: the report's cache
/// counters are all zero, and the in-run `attrcache-dormancy` oracle
/// backs the same claim inside `Spec::run` (including the entry table).
#[test]
fn clean_runs_keep_the_attr_cache_dormant() {
    for seed in 0..4u64 {
        let c = Spec::new(seed)
            .run_checked()
            .unwrap_or_else(|e| panic!("{e}"))
            .client;
        assert_eq!(c.attr_cache_hits, 0, "seed {seed}");
        assert_eq!(c.attr_revalidations, 0, "seed {seed}");
        assert_eq!(c.attr_stale_detected, 0, "seed {seed}");
    }
}

/// The attrcache books compose with the rest of the matrix: a 2-client
/// cluster and overlapping fault pairs both hold, and the 2-client run
/// diverges from the single-client run (the per-op client draw changes
/// the stream).
#[test]
fn meta_storm_composes_with_cluster_and_overlap() {
    let mut diverged = false;
    for seed in 0..4u64 {
        let single = meta_storm(seed)
            .run_checked()
            .unwrap_or_else(|e| panic!("{e}"));
        let cluster = Spec {
            clients: 2,
            ..meta_storm(seed)
        }
        .run_checked()
        .unwrap_or_else(|e| panic!("{e}"));
        if cluster.fingerprint != single.fingerprint {
            diverged = true;
        }
        let paired = Spec {
            overlap: true,
            ..meta_storm(seed)
        }
        .run_checked()
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(paired.client.attr_cache_hits > 0, "seed {seed}");
    }
    assert!(diverged, "2-client storm runs must explore different runs");
}

/// Storm mode composes with the disk-fault schedule: the full
/// 24-batch disk-fault matrix runs with the cache armed, and both the
/// attrcache books and the disk books hold on every seed.
#[test]
fn meta_storm_composes_with_disk_faults() {
    for seed in 0..3u64 {
        let r = Spec {
            disk_faults: true,
            ..meta_storm(seed)
        }
        .run_checked()
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(
            r.faults.iter().any(|k| FaultKind::DISK.contains(k)),
            "seed {seed}: {:?}",
            r.faults
        );
        assert!(r.client.attr_cache_hits > 0, "seed {seed}");
    }
}

/// Forced TCP: the metadata mix rides the timed segment engine — hits
/// stay local, wire GETATTRs flow in order, and the books hold with zero
/// RPC-layer retransmissions.
#[test]
fn meta_storm_holds_under_forced_tcp() {
    for seed in 0..3u64 {
        let r = Spec {
            transport: Some(TransportKind::Tcp),
            ..meta_storm(seed)
        }
        .run()
        .unwrap_or_else(|e| panic!("{e}"));
        let c = &r.client;
        assert_eq!(r.transport, TransportKind::Tcp, "seed {seed}");
        assert_eq!(c.retransmits, 0, "seed {seed}: TCP never retransmits RPCs");
        assert!(c.attr_cache_hits > 0, "seed {seed}");
        assert!(c.getattr_rpcs > 0, "seed {seed}");
    }
}

/// Mutation check: a sabotaged (swallowed) reply under meta-storm must
/// still be caught, and the reproduction command must carry the
/// `--meta-storm` flag so the printed line reproduces the failing mode.
#[test]
fn meta_storm_failures_print_the_mode_flag() {
    let seed = (0..100)
        .find(|&s| Spec::new(s).plan().transport == TransportKind::Udp)
        .expect("a UDP seed among the first 100");
    let err = Spec {
        sabotage_replies: 1,
        ..meta_storm(seed)
    }
    .run()
    .expect_err("a swallowed reply must trip an oracle");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("SIMTEST_SEED={seed}")),
        "failure must print a reproduction command: {msg}"
    );
    assert!(msg.contains("--meta-storm"), "missing mode flag: {msg}");
}

/// The storm sweep is bit-identical whether the seeds run serially or
/// fan out across `simfleet` worker threads: the attribute cache adds no
/// hidden cross-run state.
#[test]
fn meta_storm_sweep_is_bit_identical_across_job_counts() {
    let seeds: Vec<u64> = (0..6).collect();
    let sweep = |jobs| {
        let _guard = JOBS_LOCK.lock().unwrap();
        simfleet::set_jobs_override(Some(jobs));
        let out = simfleet::map_indexed(&seeds, |&seed| {
            let r = meta_storm(seed)
                .run_checked()
                .unwrap_or_else(|e| panic!("{e}"));
            (
                r.fingerprint,
                r.client.ops,
                r.client.getattr_rpcs,
                r.client.attr_cache_hits,
                r.client.attr_stale_detected,
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
        "meta-storm sweep diverged between jobs=1 and jobs=4"
    );
}
