//! Ablation: kernel disk scheduler matrix (local benchmark).
//!
//! §5.3 laments that operating systems do not let administrators pick a
//! scheduler per workload. Here the full matrix: throughput and fairness
//! (last/first completion ratio) for 8 concurrent readers on each rig.

use iosched::SchedulerKind;
use nfs_bench::BASE_SEED;
use testbed::{LocalBench, Rig};

fn main() {
    let per_mb = nfs_bench::by_scale(4, 32);
    let readers = 8;
    println!("scheduler matrix: local, {readers} readers x {per_mb} MB");
    println!(
        "{:<22} {:<10} | {:>10} | {:>14}",
        "rig", "scheduler", "MB/s", "last/first"
    );
    // Every (rig, scheduler) cell is an independent run: fan them through
    // the simfleet pool and print in the original serial order.
    let mut cells = Vec::new();
    for rig_base in [Rig::ide(1), Rig::scsi(1).no_tags(), Rig::scsi(1)] {
        for kind in [
            SchedulerKind::Fcfs,
            SchedulerKind::Elevator,
            SchedulerKind::Scan,
            SchedulerKind::NCscan,
            SchedulerKind::Sstf,
        ] {
            cells.push((rig_base, kind));
        }
    }
    let rows = simfleet::map_indexed(&cells, |(rig_base, kind)| {
        let rig = rig_base.with_scheduler(*kind);
        let mut b = LocalBench::new(rig, &[readers], per_mb * readers as u64, BASE_SEED);
        let r = b.run(readers);
        let spread = r.completion_secs[readers - 1] / r.completion_secs[0];
        let label = if rig_base.tagged_queues {
            format!("{} (tags)", rig.label())
        } else {
            rig.label()
        };
        (label, r.throughput_mbs, spread)
    });
    for ((_, kind), (label, mbs, spread)) in cells.iter().zip(&rows) {
        println!(
            "{:<22} {:<10} | {:>10.2} | {:>14.2}",
            label,
            format!("{kind:?}"),
            mbs,
            spread
        );
    }
}
