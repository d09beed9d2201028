//! Extension: the attribute-cache payoff grid over a build-tree storm.
//!
//! The paper's benchmarks stream a few large files; production NFS
//! traffic (checkouts, compile farms) is GETATTR/LOOKUP/READDIR storms
//! over deep trees of small files. This grid replays the synthesized
//! build workloads (`nfstrace::tree`) through the full simulated
//! installation, in two tables:
//!
//! * the **tree-walk storm** (pure metadata, `find | xargs stat` shape):
//!   an attribute-timeout sweep showing the cache's first-order payoff —
//!   at the classic `acregmin=3,acregmax=60` mount defaults the wire
//!   GETATTR count collapses by well over 5x, an effect no read-ahead
//!   tuning can touch;
//! * the **full build workload** (walk + compile-like read burst): the
//!   attribute sweep crossed with the server's `nfsheur` geometry (stock
//!   vs the paper's enlarged table), since the burst's small-file reads
//!   are where the read-ahead heuristic still matters.

use nfs_bench::BASE_SEED;
use nfssim::WorldConfig;
use nfstrace::tree::{build_tree, build_workload, tree_walk, BuildSpec};
use nfstrace::Trace;
use readahead_core::NfsHeurConfig;
use simcore::{SimDuration, SimRng};
use testbed::{replay, Rig};

/// Attribute-timeout axis: off, the classic mount defaults, a long mount.
const TIMEOS: [(&str, u64, u64); 3] = [("off", 0, 0), ("3s/60s", 3, 60), ("30s/300s", 30, 300)];

fn config(heur: NfsHeurConfig, min_s: u64, max_s: u64) -> WorldConfig {
    WorldConfig {
        heur,
        attr_timeo_min: SimDuration::from_secs(min_s),
        attr_timeo_max: SimDuration::from_secs(max_s),
        ..WorldConfig::default()
    }
}

fn row(r: &testbed::ReplayResult) -> String {
    let classed = r.getattr_rpcs + r.attr_cache_hits;
    let hit_pct = if classed > 0 {
        100.0 * r.attr_cache_hits as f64 / classed as f64
    } else {
        0.0
    };
    format!(
        "{:>8} {:>8} {:>5.1}% | {:>9.2} {:>9.2}",
        r.getattr_rpcs, r.attr_cache_hits, hit_pct, r.mean_ms, r.elapsed_secs
    )
}

fn main() {
    let spec = nfs_bench::by_scale(
        BuildSpec {
            depth: 2,
            dirs_per_dir: 3,
            files_per_dir: 4,
            clients: 8,
            // Slow enough that the rig keeps up: the payoff being measured
            // is wire traffic, not queueing collapse.
            inter_arrival_us: 4_000.0,
            ..BuildSpec::default()
        },
        BuildSpec {
            clients: 8,
            inter_arrival_us: 4_000.0,
            ..BuildSpec::default()
        },
    );
    let mut rng = SimRng::new(BASE_SEED);
    let tree = build_tree(&spec, &mut rng);
    let walk: Trace = tree_walk(&tree, &spec, &mut rng);
    let full: Trace = build_workload(&spec, &mut SimRng::new(BASE_SEED));
    println!(
        "build tree: depth {}, {} dirs, {} files; {} concurrent walkers",
        spec.depth,
        tree.dir_count(),
        tree.file_count(),
        spec.clients
    );
    println!();

    println!(
        "tree-walk storm (pure metadata, {} ops), stock nfsheur:",
        walk.len()
    );
    println!(
        "{:<14} | {:>8} {:>8} {:>6} | {:>9} {:>9}",
        "attr cache", "gattr", "hits", "hit%", "mean ms", "elapsed s"
    );
    let mut off_gattr = 0u64;
    let mut default_gattr = 0u64;
    for (tname, min_s, max_s) in TIMEOS {
        let r = replay(
            Rig::ide(1),
            config(NfsHeurConfig::freebsd_default(), min_s, max_s),
            &walk,
            BASE_SEED,
        );
        if tname == "off" {
            off_gattr = r.getattr_rpcs;
        }
        if tname == "3s/60s" {
            default_gattr = r.getattr_rpcs;
        }
        println!("{:<14} | {}", tname, row(&r));
    }
    if default_gattr > 0 {
        println!(
            "attr-cache payoff at default timeouts: {off_gattr} -> {default_gattr} \
             wire GETATTRs ({:.1}x reduction)",
            off_gattr as f64 / default_gattr as f64
        );
    }
    println!();

    println!(
        "full build workload (walk + compile burst, {} ops):",
        full.len()
    );
    println!(
        "{:<10} {:<14} | {:>8} {:>8} {:>6} | {:>9} {:>9}",
        "nfsheur", "attr cache", "gattr", "hits", "hit%", "mean ms", "elapsed s"
    );
    for (hname, heur) in [
        ("stock", NfsHeurConfig::freebsd_default()),
        ("enlarged", NfsHeurConfig::improved()),
    ] {
        for (tname, min_s, max_s) in TIMEOS {
            let r = replay(Rig::ide(1), config(heur, min_s, max_s), &full, BASE_SEED);
            println!("{:<10} {:<14} | {}", hname, tname, row(&r));
        }
        println!();
    }
}
