//! Integration tests asserting the paper's headline claims end-to-end,
//! at reduced (CI-friendly) workload sizes. Each test names the claim.

use nfs_tricks::prelude::*;

const SEED: u64 = 2003;

fn nfs_throughput(config: WorldConfig, rig: Rig, readers: usize, total_mb: u64) -> f64 {
    let cluster = ClusterConfig::uniform(config, 1);
    let mut b = ClusterBench::new(rig, &cluster, &[readers], total_mb, SEED);
    b.run(readers).throughput_mbs
}

/// §5.1 / Figure 1: outer partitions out-transfer inner ones ~3:2.
#[test]
fn claim_zcav_effect_dominates() {
    let mut o = LocalBench::new(Rig::ide(1), &[1], 16, SEED);
    let mut i = LocalBench::new(Rig::ide(4), &[1], 16, SEED);
    let outer = o.run(1).throughput_mbs;
    let inner = i.run(1).throughput_mbs;
    let ratio = outer / inner;
    assert!(
        (1.15..1.8).contains(&ratio),
        "ZCAV ratio outer/inner = {ratio:.2} (outer {outer:.1}, inner {inner:.1})"
    );
}

/// §5.2 / Figure 2: disabling tagged queues substantially improves
/// concurrent sequential reads on the SCSI drive.
#[test]
fn claim_tagged_queues_trap() {
    let mut tags = LocalBench::new(Rig::scsi(1), &[4], 32, SEED);
    let mut none = LocalBench::new(Rig::scsi(1).no_tags(), &[4], 32, SEED);
    let with_tags = tags.run(4).throughput_mbs;
    let without = none.run(4).throughput_mbs;
    assert!(
        without > with_tags * 1.4,
        "no-tags {without:.1} should beat tags {with_tags:.1} by a wide margin"
    );
    // Single reader: tags do not hurt (the paper's spike).
    let mut tags1 = LocalBench::new(Rig::scsi(1), &[1], 32, SEED);
    let mut none1 = LocalBench::new(Rig::scsi(1).no_tags(), &[1], 32, SEED);
    let t1 = tags1.run(1).throughput_mbs;
    let n1 = none1.run(1).throughput_mbs;
    assert!(
        (t1 / n1 - 1.0).abs() < 0.1,
        "single reader: {t1:.1} vs {n1:.1}"
    );
}

/// §5.3 / Figure 3: the elevator finishes readers nearly one at a time
/// (factor ~6 first-to-last); N-CSCAN is flat but less than half the
/// throughput.
#[test]
fn claim_elevator_unfair_ncscan_fair_but_slow() {
    let mut elev = LocalBench::new(Rig::ide(1), &[8], 64, SEED);
    let re = elev.run(8);
    let spread_e = re.completion_secs[7] / re.completion_secs[0];
    assert!(
        (4.0..8.0).contains(&spread_e),
        "elevator spread {spread_e:.1}"
    );

    let rig = Rig::ide(1).with_scheduler(SchedulerKind::NCscan);
    let mut ncs = LocalBench::new(rig, &[8], 64, SEED);
    let rn = ncs.run(8);
    let spread_n = rn.completion_secs[7] / rn.completion_secs[0];
    assert!(spread_n < 1.3, "N-CSCAN spread {spread_n:.2}");
    assert!(
        rn.throughput_mbs < re.throughput_mbs / 1.5,
        "fairness costs throughput: {:.1} vs {:.1}",
        rn.throughput_mbs,
        re.throughput_mbs
    );
    // "The slowest elevator reader beats the fastest N-CSCAN reader."
    assert!(re.completion_secs[7] < rn.completion_secs[0]);
}

/// §5.4 / Figures 4-5: UDP beats TCP for few readers; NFS is well below
/// the local file system either way.
#[test]
fn claim_udp_vs_tcp_and_nfs_overhead() {
    let udp = nfs_throughput(WorldConfig::default(), Rig::ide(1), 1, 16);
    let tcp = nfs_throughput(
        WorldConfig {
            transport: TransportKind::Tcp,
            ..WorldConfig::default()
        },
        Rig::ide(1),
        1,
        16,
    );
    assert!(udp > tcp * 1.3, "udp {udp:.1} vs tcp {tcp:.1}");
    let mut local = LocalBench::new(Rig::ide(1), &[1], 16, SEED);
    let loc = local.run(1).throughput_mbs;
    assert!(
        udp < loc * 0.75,
        "NFS {udp:.1} should sit well below local {loc:.1}"
    );
}

/// §6 / Figure 6: at high concurrency the default heuristic falls away
/// from hard-wired Always-Read-ahead.
#[test]
fn claim_default_heuristic_diverges_from_always() {
    let default = nfs_throughput(WorldConfig::default(), Rig::ide(1), 16, 32);
    let always = nfs_throughput(
        WorldConfig {
            policy: ReadaheadPolicy::Always,
            heur: NfsHeurConfig::improved(),
            ..WorldConfig::default()
        },
        Rig::ide(1),
        16,
        32,
    );
    assert!(
        always > default * 1.3,
        "always {always:.1} vs default {default:.1} at 16 readers"
    );
}

/// §6.3 / Figure 7: enlarging nfsheur alone recovers most of the loss;
/// SlowDown with the new table tracks Always.
#[test]
fn claim_new_nfsheur_table_is_the_big_win() {
    let busy = |policy, heur| {
        nfs_throughput(
            WorldConfig {
                policy,
                heur,
                busy_loops: 4,
                ..WorldConfig::default()
            },
            Rig::ide(1),
            16,
            32,
        )
    };
    let old_table = busy(ReadaheadPolicy::Default, NfsHeurConfig::freebsd_default());
    let new_table = busy(ReadaheadPolicy::Default, NfsHeurConfig::improved());
    let slowdown = busy(ReadaheadPolicy::slowdown(), NfsHeurConfig::improved());
    let always = busy(ReadaheadPolicy::Always, NfsHeurConfig::improved());
    assert!(
        new_table > old_table * 1.4,
        "bigger table: {new_table:.1} vs {old_table:.1}"
    );
    assert!(
        slowdown > always * 0.85,
        "slowdown {slowdown:.1} tracks always {always:.1}"
    );
}

/// §7 / Figure 8 & Table 1: cursors pay off on every stride width, with
/// gains of the paper's order (50-140%).
#[test]
fn claim_cursor_readahead_wins_strides() {
    for s in [2u64, 4, 8] {
        let run = |policy| {
            let cfg = WorldConfig {
                policy,
                heur: NfsHeurConfig::improved(),
                ..WorldConfig::default()
            };
            let mut b = StrideBench::new(Rig::scsi(1), cfg, 16, SEED);
            b.run(s)
        };
        let default = run(ReadaheadPolicy::Default);
        let cursor = run(ReadaheadPolicy::cursor());
        let gain = cursor / default - 1.0;
        assert!(
            gain > 0.4,
            "s={s}: cursor {cursor:.2} vs default {default:.2} ({:.0}% gain)",
            gain * 100.0
        );
    }
}

/// §6.2: SlowDown never hurts plain sequential workloads.
#[test]
fn claim_slowdown_harmless_when_sequential() {
    let default = nfs_throughput(WorldConfig::default(), Rig::ide(1), 1, 16);
    let slowdown = nfs_throughput(
        WorldConfig {
            policy: ReadaheadPolicy::slowdown(),
            ..WorldConfig::default()
        },
        Rig::ide(1),
        1,
        16,
    );
    assert!(
        (slowdown / default - 1.0).abs() < 0.1,
        "single sequential reader: slowdown {slowdown:.1} vs default {default:.1}"
    );
}
