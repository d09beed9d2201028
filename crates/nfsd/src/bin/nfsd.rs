//! Serves the simulated NFSv3 world on a real TCP socket.
//!
//! ```text
//! nfsd [--addr 127.0.0.1:0] [--seed 42] [--files 8] [--file-blocks 256]
//!      [--unstable]
//! ```
//!
//! Prints the bound address on stdout (`listening on <addr>`) so a
//! driver can parse it, then serves until killed.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use nfsd::{bind, build_world, serve, Endpoint, ExportSpec, WallClock};
use nfsproto::StableHow;
use nfssim::WorldConfig;

fn main() {
    let mut addr = "127.0.0.1:0".to_string();
    let mut seed = 42u64;
    let mut files = 8usize;
    let mut file_blocks = 256u64;
    let mut unstable = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = args.next().expect("--addr ADDR"),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--files" => files = args.next().and_then(|v| v.parse().ok()).expect("--files N"),
            "--file-blocks" => {
                file_blocks = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--file-blocks N")
            }
            "--unstable" => unstable = true,
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }

    let mut config = WorldConfig::default();
    if unstable {
        config.stable_how = StableHow::Unstable;
    }
    let world = build_world(config, seed);
    let endpoint = Endpoint::new(
        world,
        ExportSpec {
            files,
            file_size: file_blocks * u64::from(nfssim::RSIZE),
        },
    );

    let (listener, local) = bind(&addr).expect("bind");
    println!("listening on {local}");

    let stop = Arc::new(AtomicBool::new(false));
    let endpoint = serve(listener, endpoint, WallClock::start(), stop);

    let s = endpoint.world().server_stats();
    eprintln!(
        "served: {} reads, {} other calls, {} replies",
        s.reads, s.other_calls, s.replies
    );
}
