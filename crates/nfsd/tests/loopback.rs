//! End-to-end over a real socket: serve on loopback, mount, replay, and
//! diff the books against a pure virtual-clock replay of the same trace.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nfsd::{
    bind, build_world, serve, sim_replay, DiffReport, Endpoint, ExportSpec, HeurBooks, NfsClient,
    WallClock,
};
use nfsproto::StableHow;
use nfssim::WorldConfig;
use nfstrace::synth::{self, SequentialSpec};
use simcore::SimRng;

const SEED: u64 = 42;
const FILES: u32 = 4;
const BLOCKS: u64 = 16;

fn trace() -> Vec<nfstrace::TraceRecord> {
    let spec = SequentialSpec {
        files: FILES,
        blocks_per_file: BLOCKS,
        ..SequentialSpec::default()
    };
    let mut rng = SimRng::new(SEED);
    synth::sequential(spec, &mut rng).records
}

#[test]
fn socket_replay_matches_virtual_replay() {
    let config = WorldConfig::default();
    let spec = ExportSpec {
        files: FILES as usize,
        file_size: BLOCKS * 8_192,
    };

    // Real side.
    let endpoint = Endpoint::new(build_world(config, SEED), spec);
    let (listener, local) = bind("127.0.0.1:0").expect("bind");
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let server = std::thread::spawn(move || serve(listener, endpoint, WallClock::start(), stop2));

    let mut client = NfsClient::connect(local).expect("connect");
    let stats = client
        .replay(&trace(), StableHow::FileSync, false)
        .expect("replay");
    assert_eq!(stats.calls, u64::from(FILES) * BLOCKS);
    assert_eq!(stats.nfs_errors, 0);
    assert!(stats.read.total() > 0);
    drop(client);
    stop.store(true, Ordering::Relaxed);
    let endpoint = server.join().expect("server thread");
    let real = HeurBooks::from_stats(&endpoint.world().server_stats());

    // Sim side.
    let sim = sim_replay(
        Endpoint::new(build_world(config, SEED), spec),
        &trace(),
        StableHow::FileSync,
    );

    let report = DiffReport::diff(&sim, &real);
    assert!(report.passed(), "diff failed:\n{}", report.render());
    assert!(real.heur_hits > 0, "sequential replay must train nfsheur");
}

#[test]
fn two_connections_share_one_heuristic_table() {
    // Two clients mounting the same endpoint contend for the same
    // `nfsheur` table — the ejection pressure §6.3 describes.
    let config = WorldConfig::default();
    let endpoint = Endpoint::new(
        build_world(config, 7),
        ExportSpec {
            files: 2,
            file_size: 16 * 8_192,
        },
    );
    let (listener, local) = bind("127.0.0.1:0").expect("bind");
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let server = std::thread::spawn(move || serve(listener, endpoint, WallClock::start(), stop2));

    let spec = SequentialSpec {
        files: 2,
        blocks_per_file: 8,
        ..SequentialSpec::default()
    };
    let mut rng = SimRng::new(9);
    let t = synth::sequential(spec, &mut rng).records;
    let mut a = NfsClient::connect(local).expect("connect a");
    let mut b = NfsClient::connect(local).expect("connect b");
    let sa = a.replay(&t, StableHow::FileSync, false).expect("replay a");
    let sb = b.replay(&t, StableHow::FileSync, false).expect("replay b");
    drop((a, b));
    stop.store(true, Ordering::Relaxed);
    let endpoint = server.join().expect("server thread");

    let s = endpoint.world().server_stats();
    assert_eq!(s.reads, sa.calls + sb.calls);
    assert_eq!(s.replies, s.reads + s.other_calls);
}
