//! Quickstart: mount a simulated NFS file system and read a file.
//!
//! Builds the paper's testbed (IDE drive, partition 1, gigabit LAN,
//! NFS over UDP), reads a 16 MB file sequentially one 8 KB block at a
//! time, and reports throughput and what the server's heuristics saw.
//!
//! Run with: `cargo run --release --example quickstart`

use nfs_tricks::prelude::*;

fn main() {
    // 1. A server storage rig: the WD200BB IDE drive, outermost partition.
    let rig = Rig::ide(1);

    // 2. An NFS world: client + gigabit network + server, SlowDown
    //    heuristic with the paper's enlarged nfsheur table.
    let config = WorldConfig {
        policy: ReadaheadPolicy::slowdown(),
        heur: NfsHeurConfig::improved(),
        ..WorldConfig::default()
    };
    let fs = rig.build_fs(42);
    let mut world = NfsWorld::new(config, fs, 42);

    // 3. Create a 16 MB file on the server.
    let size: u64 = 16 * 1024 * 1024;
    let fh = world.create_file(size);

    // 4. A client process reads it sequentially, 8 KB at a time.
    let mut now = SimTime::ZERO;
    let mut offset = 0;
    while offset < size {
        world.read_from(0, now, fh, offset, 8_192, 0);
        loop {
            let t = world.next_event().expect("read in flight");
            if let Some(done) = world.advance(t).first() {
                now = done.done_at;
                break;
            }
        }
        offset += 8_192;
    }

    let secs = now.as_secs_f64();
    println!(
        "read {} MB over simulated NFS/UDP in {:.3}s of simulated time",
        size / (1 << 20),
        secs
    );
    println!("throughput: {:.1} MB/s", size as f64 / 1e6 / secs);
    println!();
    println!("client: {:?}", world.client_stats_for(0));
    println!("server: {:?}", world.server_stats());
    println!(
        "server reorder fraction: {:.2}% of READs arrived out of order",
        world.server_stats().reorder_fraction() * 100.0
    );
    println!("nfsheur: {:?}", world.heur().stats());
    let fs_stats = world.fs().stats();
    println!(
        "server file system: {} demand reads, {} read-ahead reads, {} cached blocks served",
        fs_stats.sync_reads, fs_stats.readahead_reads, fs_stats.cache_hit_blocks
    );
}
