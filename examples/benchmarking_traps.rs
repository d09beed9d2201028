//! A guided tour of the paper's benchmarking traps (§5 and §9.1).
//!
//! Each section runs the same simple benchmark twice with one hidden knob
//! changed, showing how easily the knob's effect dwarfs whatever you were
//! actually trying to measure.
//!
//! Run with: `cargo run --release --example benchmarking_traps`

use nfs_tricks::prelude::*;
use nfs_tricks::testbed::render_heur_line;

const READERS: usize = 4;
const TOTAL_MB: u64 = 32;

fn local(rig: Rig) -> f64 {
    let mut b = LocalBench::new(rig, &[READERS], TOTAL_MB, 99);
    b.run(READERS).throughput_mbs
}

fn nfs(transport: TransportKind) -> f64 {
    let config = WorldConfig {
        transport,
        ..WorldConfig::default()
    };
    let cluster = ClusterConfig::uniform(config, 1);
    let mut b = ClusterBench::new(Rig::ide(1), &cluster, &[READERS], TOTAL_MB, 99);
    b.run(READERS).throughput_mbs
}

fn main() {
    println!("Trap 1 - ZCAV: where your files land on the platter matters.");
    let outer = local(Rig::ide(1));
    let inner = local(Rig::ide(4));
    println!("  ide1 (outer cylinders): {outer:>6.1} MB/s");
    println!(
        "  ide4 (inner cylinders): {inner:>6.1} MB/s   ({:+.0}%)",
        (inner / outer - 1.0) * 100.0
    );
    println!("  -> confine benchmarks to a small slice of a big disk (§9.1).");
    println!();

    println!("Trap 2 - Tagged command queues: the drive reschedules behind you.");
    let tags = local(Rig::scsi(1));
    let no_tags = local(Rig::scsi(1).no_tags());
    println!("  scsi1, tags on (default): {tags:>6.1} MB/s");
    println!(
        "  scsi1, tags off:          {no_tags:>6.1} MB/s   ({:+.0}%)",
        (no_tags / tags - 1.0) * 100.0
    );
    println!("  -> for concurrent sequential readers the kernel elevator");
    println!("     beats the drive's own (fairer) scheduler (§5.2).");
    println!();

    println!("Trap 3 - Disk scheduling: throughput and fairness trade off.");
    let mut elev = LocalBench::new(Rig::ide(1), &[8], TOTAL_MB, 99);
    let re = elev.run(8);
    let mut ncs = LocalBench::new(
        Rig::ide(1).with_scheduler(SchedulerKind::NCscan),
        &[8],
        TOTAL_MB,
        99,
    );
    let rn = ncs.run(8);
    println!(
        "  Elevator: {:>6.1} MB/s, completions {:.2}s .. {:.2}s (factor {:.1})",
        re.throughput_mbs,
        re.completion_secs[0],
        re.completion_secs[7],
        re.completion_secs[7] / re.completion_secs[0]
    );
    println!(
        "  N-CSCAN:  {:>6.1} MB/s, completions {:.2}s .. {:.2}s (factor {:.1})",
        rn.throughput_mbs,
        rn.completion_secs[0],
        rn.completion_secs[7],
        rn.completion_secs[7] / rn.completion_secs[0]
    );
    println!("  -> the fair scheduler is uniformly slower (§5.3, Figure 3).");
    println!();

    println!("Trap 4 - Know your protocols: UDP vs TCP mounts differ a lot.");
    let udp = nfs(TransportKind::Udp);
    let tcp = nfs(TransportKind::Tcp);
    println!("  NFS over UDP (mount_nfs default): {udp:>6.1} MB/s");
    println!("  NFS over TCP (amd default):       {tcp:>6.1} MB/s");
    println!("  -> the same benchmark, two mount tools, two answers (§5.4).");
    println!();

    println!("Trap 5 - One client lies about many: nfsheur thrash needs a rack.");
    for (label, heur) in [
        ("stock 64-entry table", NfsHeurConfig::freebsd_default()),
        ("enlarged table (§6.3)", NfsHeurConfig::improved()),
    ] {
        let config = WorldConfig {
            heur,
            ..WorldConfig::default()
        };
        let cluster = ClusterConfig::uniform(config, 8);
        let mut b = ClusterBench::new(Rig::ide(1), &cluster, &[2], 4, 99);
        let r = b.run(2);
        println!(
            "  8 clients x 2 readers, {label}: {:>6.1} MB/s aggregate",
            r.throughput_mbs
        );
        println!(
            "    {} ({} cross-client ejections)",
            render_heur_line(&r.server),
            r.cross_client_ejections()
        );
    }
    println!("  -> a table that looks fine under one benchmark client");
    println!("     thrashes once eight hosts share the server.");
}
