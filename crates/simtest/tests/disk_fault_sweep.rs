//! Bounded CI sweep with disk faults in the schedule: all eleven fault
//! kinds (seven classic + four disk) run under the full oracle set, the
//! bio retry path is actually exercised, and runs stay bit-deterministic
//! whether the sweep executes serially or across `simfleet` workers.

use std::collections::HashSet;
use std::sync::Mutex;

use simtest::{FaultKind, Spec};

const CI_SEEDS: u64 = 16;

fn disk_faults(seed: u64) -> Spec {
    Spec {
        disk_faults: true,
        ..Spec::new(seed)
    }
}

/// Every seed of the disk-fault sweep holds all oracles (twice each, via
/// the determinism check), the sweep as a whole schedules every one of
/// the eleven fault kinds, and at least one seed drives reads into a
/// defective cluster so the bio retry/EIO machinery is really exercised.
#[test]
fn disk_fault_sweep_holds_all_oracles() {
    let mut kinds: HashSet<FaultKind> = HashSet::new();
    let mut retries = 0u64;
    let mut eios = 0u64;
    let mut eio_replies = 0u64;
    for seed in 0..CI_SEEDS {
        let r = disk_faults(seed)
            .run_checked()
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            r.ok_ops + r.timed_out_ops + r.eio_ops,
            r.client.ops,
            "seed {seed}: every op ends Ok, timed out, or EIO"
        );
        kinds.extend(r.faults.iter().copied());
        retries += r.bio.retries;
        eios += r.server.disk_eios;
        eio_replies += r.client.eio_replies;
    }
    for required in FaultKind::ALL.iter().chain(FaultKind::DISK.iter()) {
        assert!(
            kinds.contains(required),
            "sweep never injected {required:?}"
        );
    }
    assert!(
        retries > 0,
        "sector-error batches must force bio retries somewhere in the sweep"
    );
    assert!(
        eios > 0,
        "hard sector errors must surface at least one EIO in the sweep"
    );
    assert!(
        eio_replies > 0,
        "the summed client books must count the EIO replies that reached clients"
    );
}

/// The oracle set also holds when disk faults overlap with link/pool
/// faults in a 2-client cluster (a sector-error burst during a server
/// stall, a fail-slow region under a loss burst, ...).
#[test]
fn disk_faults_overlap_and_cluster_hold_oracles() {
    for seed in 0..6u64 {
        for clients in [1usize, 2] {
            let r = Spec {
                clients,
                overlap: true,
                ..disk_faults(seed)
            }
            .run_checked()
            .unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(
                r.ok_ops + r.timed_out_ops + r.eio_ops,
                r.client.ops,
                "seed {seed}"
            );
        }
    }
}

/// The seed-derived disk plan is deterministic, schedules all eleven
/// kinds, and the disk-free plan draws the identical RNG stream it did
/// before disk faults existed (same transport, same classic-kind order),
/// so pinned fingerprints cannot move.
#[test]
fn disk_plans_are_deterministic_and_complete() {
    for seed in 0..20u64 {
        let a = disk_faults(seed).plan();
        let b = disk_faults(seed).plan();
        assert_eq!(a.faults, b.faults, "seed {seed}");
        assert_eq!(a.transport, b.transport, "seed {seed}");
        let kinds: HashSet<FaultKind> = a.faults.iter().map(|&(_, k)| k).collect();
        assert_eq!(kinds.len(), 11, "all kinds scheduled: {:?}", a.faults);

        let classic = Spec::new(seed).plan();
        assert_eq!(
            classic.transport, a.transport,
            "seed {seed}: transport draw must not depend on disk_faults"
        );
        let classic_kinds: HashSet<FaultKind> = classic.faults.iter().map(|&(_, k)| k).collect();
        assert_eq!(classic_kinds.len(), 7, "seed {seed}");
        assert!(
            classic
                .faults
                .iter()
                .all(|(_, k)| !FaultKind::DISK.contains(k)),
            "seed {seed}: disk kinds must stay out of the default plan"
        );
    }
}

/// The jobs override is process-global; serialize tests that flip it.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// A disk-fault sweep is bit-identical whether it runs serially or fans
/// out across worker threads: the `FaultPlan` derivation and every
/// per-op outcome live in the seed, not in scheduling order (the
/// `NFS_BENCH_JOBS` contract extended to degraded-disk runs).
#[test]
fn disk_fault_sweep_is_bit_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let seeds: Vec<u64> = (0..8).collect();
    let sweep = |jobs| {
        simfleet::set_jobs_override(Some(jobs));
        let out = simfleet::map_indexed(&seeds, |&seed| {
            let r = disk_faults(seed)
                .run_checked()
                .unwrap_or_else(|e| panic!("{e}"));
            (
                r.fingerprint,
                r.client.ops,
                r.ok_ops,
                r.eio_ops,
                r.bio.retries,
                r.server.disk_eios,
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
        "disk-fault sweep diverged between jobs=1 and jobs=4"
    );
}
