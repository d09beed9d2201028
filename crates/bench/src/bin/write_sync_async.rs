//! The sync-vs-async write trap, measured: the same sequential write
//! workload under FILE_SYNC and UNSTABLE mounts, reported two ways.
//!
//! An NFSv2-era mount writes through: every WRITE waits for the platter,
//! so "when did my last write() return" and "when is my data safe" are
//! the same instant. An NFSv3 async mount (UNSTABLE + COMMIT) splits
//! them: write() returns after a memcpy into the client's write-behind
//! cache, the server gathers dirty blocks and flushes them lazily, and
//! only close()'s COMMIT pins the data to stable storage. A benchmark
//! that times the write loop and skips the close measures RAM, not disk
//! — the classic "my NFS writes got 10x faster" trap: the *apparent*
//! column below is what such a benchmark reports, the *durable* column is
//! what the storage actually did, and only the latter is comparable
//! across mounts.
//!
//! The second table sweeps the server's gather window on the UNSTABLE
//! mount: longer windows coalesce more UNSTABLE WRITEs per disk flush
//! (fewer, larger writes), the §4.1 server-side half of the async path.

use nfs_bench::BASE_SEED;
use nfsproto::StableHow;
use nfssim::{NfsWorld, OpId, WorldConfig};
use simcore::{SimDuration, SimTime};
use testbed::Rig;

const BS: u64 = 8_192;

struct Cell {
    apparent_mbs: f64,
    durable_mbs: f64,
    write_rpcs: u64,
    unstable_writes: u64,
    gather_flushes: u64,
    commit_rpcs: u64,
}

fn drive_next(world: &mut NfsWorld, now: &mut SimTime) -> SimTime {
    loop {
        let t = world.next_event().expect("pending op must progress");
        let done = world.advance(t);
        *now = (*now).max(t);
        if let Some(d) = done.first() {
            return d.done_at;
        }
    }
}

fn drive_op(world: &mut NfsWorld, id: OpId) -> SimTime {
    loop {
        let t = world.next_event().expect("pending op must progress");
        if let Some(d) = world.advance(t).into_iter().find(|d| d.id == id) {
            assert!(d.outcome.is_ok(), "{:?}", d.outcome);
            return d.done_at;
        }
    }
}

/// Writes `blocks` sequential 8 KB blocks, then closes. Returns the
/// apparent rate (to the last write() return) and the durable rate (to
/// close() return, COMMIT included — on FILE_SYNC the close is a local
/// no-op and the two differ only by bookkeeping noise).
fn run_cell(stable_how: StableHow, gather_window: SimDuration, blocks: u64) -> Cell {
    let cfg = WorldConfig {
        stable_how,
        gather_window,
        ..WorldConfig::default()
    };
    let fs = Rig::ide(1).build_fs(BASE_SEED);
    let mut w = NfsWorld::new(cfg, fs, BASE_SEED);
    let fh = w.create_file(blocks * BS);
    let mut now = SimTime::ZERO;
    let mut last_write = SimTime::ZERO;
    for i in 0..blocks {
        w.write_from(0, now, fh, i * BS, BS, i);
        last_write = drive_next(&mut w, &mut now);
        now = now.max(last_write);
    }
    let id = w.close_from(0, now, fh, blocks);
    let durable_at = drive_op(&mut w, id);
    let mb = (blocks * BS) as f64 / (1024.0 * 1024.0);
    let c = w.client_stats_for(0);
    let s = w.server_stats();
    Cell {
        apparent_mbs: mb / last_write.as_secs_f64(),
        durable_mbs: mb / durable_at.as_secs_f64(),
        write_rpcs: c.write_rpcs,
        unstable_writes: s.unstable_writes,
        gather_flushes: s.gather_flushes,
        commit_rpcs: c.commit_rpcs,
    }
}

fn print_row(label: &str, c: &Cell) {
    println!(
        "{:<22} | {:>10.2} | {:>10.2} | {:>6.2}x | {:>7} | {:>7} | {:>7}",
        label,
        c.apparent_mbs,
        c.durable_mbs,
        c.apparent_mbs / c.durable_mbs,
        c.write_rpcs.max(c.unstable_writes),
        c.gather_flushes,
        c.commit_rpcs
    );
}

fn main() {
    let blocks: u64 = nfs_bench::by_scale(256, 1024); // 2 MB or 8 MB
    let mb = (blocks * BS) as f64 / (1024.0 * 1024.0);
    println!("sync-vs-async write trap: ide1, {mb:.0} MB sequential 8 KB writes, seed {BASE_SEED}");
    println!(
        "{:<22} | {:>10} | {:>10} | {:>7} | {:>7} | {:>7} | {:>7}",
        "mount", "appar MB/s", "durab MB/s", "trap", "writes", "flushes", "commits"
    );

    let default_gather = WorldConfig::default().gather_window;
    let mounts = [
        ("file_sync (v2-style)", StableHow::FileSync, default_gather),
        ("unstable+commit (v3)", StableHow::Unstable, default_gather),
    ];
    let rows = simfleet::map_indexed(&mounts, |&(_, how, gw)| run_cell(how, gw, blocks));
    for ((label, _, _), cell) in mounts.iter().zip(&rows) {
        print_row(label, cell);
    }

    println!();
    println!("gather-window sweep (UNSTABLE mount): coalescing vs flush latency");
    println!(
        "{:<22} | {:>10} | {:>10} | {:>7} | {:>7} | {:>7} | {:>7}",
        "gather window", "appar MB/s", "durab MB/s", "trap", "writes", "flushes", "commits"
    );
    let windows = [0u64, 5, 30, 120];
    let cells = simfleet::map_indexed(&windows, |&ms| {
        run_cell(StableHow::Unstable, SimDuration::from_millis(ms), blocks)
    });
    for (ms, cell) in windows.iter().zip(&cells) {
        print_row(&format!("{ms} ms"), cell);
    }
}
