//! Extension: SlowDown on a lossy, jittery network (§2's wireless NFS).
//!
//! "Dube et al. discuss the problems with NFS over wireless networks,
//! which typically suffer from packet loss and reordering at much higher
//! rates than our switched Ethernet testbed. We believe that our SlowDown
//! heuristic would be effective in this environment." This bench tests
//! that belief: reorder rates are cranked up via link jitter and loss, and
//! SlowDown's margin over Default is measured.

use crate::{Level, BASE_SEED};
use netsim::LinkProfile;
use nfssim::WorldConfig;
use readahead_core::{NfsHeurConfig, ReadaheadPolicy};
use testbed::{ClusterBench, ClusterConfig, Rig};

pub fn run(level: Level) {
    let readers = 8;
    let total_mb = level.pick(16, 64);
    println!("lossy-network extension: ide1, NFS/UDP, {readers} readers");
    println!(
        "{:>10} {:>8} | {:>12} {:>12} {:>10} | {:>9}",
        "jitter", "loss", "default MB/s", "slowdn MB/s", "gain %", "reorder %"
    );
    for (jitter_us, loss) in [(2.0, 0.0), (100.0, 0.0), (300.0, 0.001), (800.0, 0.003)] {
        let link = LinkProfile {
            jitter: jitter_us * 1e-6,
            frame_loss: loss,
            ..LinkProfile::gigabit_lan()
        };
        let run = |policy| {
            let cfg = WorldConfig {
                policy,
                heur: NfsHeurConfig::improved(),
                link,
                retransmit_timeout: simcore::SimDuration::from_millis(100),
                ..WorldConfig::default()
            };
            let cluster = ClusterConfig::uniform(cfg, 1);
            let mut b = ClusterBench::new(Rig::ide(1), &cluster, &[readers], total_mb, BASE_SEED);
            let mbs = b.run(readers).throughput_mbs;
            (mbs, b.world().server_stats().reorder_fraction())
        };
        let (d, _) = run(ReadaheadPolicy::Default);
        let (s, reorder) = run(ReadaheadPolicy::slowdown());
        println!(
            "{:>8}us {:>8.3} | {:>12.2} {:>12.2} {:>10.1} | {:>9.2}",
            jitter_us,
            loss,
            d,
            s,
            (s / d - 1.0) * 100.0,
            reorder * 100.0
        );
    }
}
