//! The sim-vs-real differential harness, self-contained: starts an
//! in-process `nfsd` on loopback, replays a seed-derived trace against
//! it over real TCP, replays the identical trace through a fresh world
//! on the pure virtual clock, and diffs the two servers' heuristic and
//! write-path books. Exit 0 when every order-driven counter matches,
//! 1 on mismatch, 3 on watchdog timeout.
//!
//! ```text
//! nfsd_diff [--seed 42] [--files 8] [--file-blocks 64] [--unstable]
//!           [--noise 0.0] [--timeout-secs 90]
//! ```
//!
//! `--noise F` sprinkles GETATTR/WRITE records into the read trace
//! (fraction F), which with `--unstable` drives the write-gathering
//! dirty pool on both sides.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nfsd::{
    bind, build_world, serve, sim_replay, DiffReport, Endpoint, ExportSpec, HeurBooks, NfsClient,
    WallClock,
};
use nfsproto::StableHow;
use nfssim::WorldConfig;
use nfstrace::synth::{self, SequentialSpec};
use simcore::SimRng;

fn main() {
    let mut seed = 42u64;
    let mut files = 8u32;
    let mut file_blocks = 64u64;
    let mut unstable = false;
    let mut noise = 0.0f64;
    let mut timeout_secs = 90u64;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--files" => files = args.next().and_then(|v| v.parse().ok()).expect("--files N"),
            "--file-blocks" => {
                file_blocks = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--file-blocks N")
            }
            "--unstable" => unstable = true,
            "--noise" => noise = args.next().and_then(|v| v.parse().ok()).expect("--noise F"),
            "--timeout-secs" => {
                timeout_secs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--timeout-secs N")
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }

    // Watchdog: a wedged socket loop must not hang CI.
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(timeout_secs));
        eprintln!("nfsd_diff: watchdog timeout after {timeout_secs}s");
        std::process::exit(3);
    });

    let mut config = WorldConfig::default();
    let stable = if unstable {
        config.stable_how = StableHow::Unstable;
        StableHow::Unstable
    } else {
        StableHow::FileSync
    };
    let spec = SequentialSpec {
        files,
        blocks_per_file: file_blocks,
        ..SequentialSpec::default()
    };
    let file_size = file_blocks * u64::from(spec.block_len);
    let mut rng = SimRng::new(seed);
    let mut trace = synth::sequential(spec, &mut rng);
    if noise > 0.0 {
        trace = synth::with_metadata_noise(trace, noise, &mut rng);
    }
    let trace = trace.records;
    println!(
        "trace: {} records over {files} files (seed {seed}, {:?} writes: {unstable})",
        trace.len(),
        stable
    );

    // --- Real side: endpoint on loopback, closed-loop socket replay. ---
    let export = ExportSpec {
        files: files as usize,
        file_size,
    };
    let endpoint = Endpoint::new(build_world(config, seed), export);
    let (listener, local) = bind("127.0.0.1:0").expect("bind loopback");
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let server = std::thread::spawn(move || serve(listener, endpoint, WallClock::start(), stop2));

    let mut client = NfsClient::connect(local).expect("connect");
    let replay = client.replay(&trace, stable, false).expect("socket replay");
    drop(client);
    // Let gather windows expire on the wall clock before reading books.
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::Relaxed);
    let endpoint = server.join().expect("server thread");
    let real = HeurBooks::from_stats(&endpoint.world().server_stats());
    println!("real: {} calls over TCP", replay.calls);
    println!("{}", testbed::render_endpoint_line("read", &replay.read));
    println!("{}", testbed::render_endpoint_line("write", &replay.write));

    // --- Sim side: identical trace, pure virtual clock. ---
    let sim = sim_replay(
        Endpoint::new(build_world(config, seed), export),
        &trace,
        stable,
    );

    let report = DiffReport::diff(&sim, &real);
    print!("{}", report.render());
    if report.passed() {
        println!("PASS: real endpoint books match the virtual-clock replay");
    } else {
        println!("FAIL: order-driven counters diverged");
        std::process::exit(1);
    }
}
