//! Extension: real-socket endpoint replay — wall-clock NFS latency over
//! loopback TCP, with the sim-vs-real differential check inline.
//!
//! Where `trace_replay` measures the *simulated* installation end to
//! end, this experiment runs the same server stack behind a real ONC RPC /
//! TCP endpoint (`nfsd`), replays seed-derived traces through a real
//! socket client, and reports two things per workload: the wall-clock
//! latency the client measured, and whether the server's heuristic and
//! write-path books match a pure virtual-clock replay of the identical
//! trace (order-driven counters must be exact; gather flushes are
//! time-driven and only reported).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::{Level, BASE_SEED};
use nfsd::{
    bind, build_world, serve, sim_replay, DiffReport, Endpoint, ExportSpec, HeurBooks, NfsClient,
    WallClock,
};
use nfsproto::StableHow;
use nfssim::WorldConfig;
use nfstrace::{synth, TraceRecord};
use simcore::SimRng;
use testbed::render_endpoint_line;

fn workloads(blocks: u64) -> Vec<(&'static str, StableHow, Vec<TraceRecord>)> {
    let mut rng = SimRng::new(BASE_SEED);
    let spec = synth::SequentialSpec {
        files: 8,
        blocks_per_file: blocks,
        ..synth::SequentialSpec::default()
    };
    let sequential = synth::sequential(spec, &mut rng);
    let mixed = synth::with_metadata_noise(sequential.clone(), 0.25, &mut rng);
    vec![
        (
            "sequential x8 (sync)",
            StableHow::FileSync,
            sequential.records,
        ),
        ("25% metadata (async)", StableHow::Unstable, mixed.records),
    ]
}

pub fn run(level: Level) {
    let blocks = level.pick(32, 128);
    println!("# Real-socket endpoint replay (loopback TCP, {blocks} blocks/file)\n");

    for (i, (name, stable, trace)) in workloads(blocks).into_iter().enumerate() {
        let seed = BASE_SEED + i as u64;
        let config = WorldConfig {
            stable_how: stable,
            ..WorldConfig::default()
        };
        let export = ExportSpec {
            files: 8,
            file_size: blocks * 8_192,
        };

        let endpoint = Endpoint::new(build_world(config, seed), export);
        let (listener, local) = bind("127.0.0.1:0").expect("bind loopback");
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let server =
            std::thread::spawn(move || serve(listener, endpoint, WallClock::start(), stop2));

        let mut client = NfsClient::connect(local).expect("connect");
        let stats = client.replay(&trace, stable, false).expect("replay");
        drop(client);
        std::thread::sleep(Duration::from_millis(120)); // drain gather windows
        stop.store(true, Ordering::Relaxed);
        let endpoint = server.join().expect("server thread");
        let real = HeurBooks::from_stats(&endpoint.world().server_stats());

        let sim = sim_replay(
            Endpoint::new(build_world(config, seed), export),
            &trace,
            stable,
        );
        let report = DiffReport::diff(&sim, &real);

        println!("## {name} — {} calls", stats.calls);
        println!("{}", render_endpoint_line("read", &stats.read));
        println!("{}", render_endpoint_line("write", &stats.write));
        println!("{}", render_endpoint_line("meta", &stats.meta));
        println!(
            "diff vs virtual clock: {}",
            if report.passed() {
                "order-driven counters exact".to_string()
            } else {
                format!("MISMATCH\n{}", report.render())
            }
        );
        println!(
            "gather flushes: sim {} / real {} (time-driven, tolerated)\n",
            sim.gather_flushes, real.gather_flushes
        );
        assert!(report.passed(), "differential check failed for {name}");
    }
}
