//! Tier-1 smoke oracle for the real-socket endpoint: a short trace over
//! a loopback TCP mount must produce books identical (order-driven) to
//! the pure virtual-clock replay, every run, on every machine.
//!
//! This is deliberately small — the full-size differential run lives in
//! the `nfsd_diff` binary and its own CI step — but it rides `cargo
//! test` so a patch that breaks the RPC layer, the external-ingress
//! path, or the clock adapter fails tier-1 immediately.

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

#[test]
fn real_endpoint_books_match_sim_replay() {
    const SEED: u64 = 1803; // Ellard & Seltzer '03
    const FILES: u32 = 3;
    const BLOCKS: u64 = 12;
    let spec = SequentialSpec {
        files: FILES,
        blocks_per_file: BLOCKS,
        ..SequentialSpec::default()
    };
    let mut rng = SimRng::new(SEED);
    let trace = synth::with_metadata_noise(synth::sequential(spec, &mut rng), 0.2, &mut rng);

    let config = WorldConfig {
        stable_how: StableHow::Unstable,
        ..WorldConfig::default()
    };
    let export = ExportSpec {
        files: FILES as usize,
        file_size: BLOCKS * 8_192,
    };

    // Real: loopback socket replay.
    let endpoint = Endpoint::new(build_world(config, SEED), export);
    let (listener, local) = bind("127.0.0.1:0").expect("bind loopback");
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let server = std::thread::spawn(move || serve(listener, endpoint, WallClock::start(), stop2));
    let mut client = NfsClient::connect(local).expect("connect");
    let stats = client
        .replay(&trace.records, StableHow::Unstable, false)
        .expect("socket replay");
    drop(client);
    // Give wall-clock gather windows (30 ms) time to expire.
    std::thread::sleep(std::time::Duration::from_millis(120));
    stop.store(true, Ordering::Relaxed);
    let endpoint = server.join().expect("server thread");
    let real = HeurBooks::from_stats(&endpoint.world().server_stats());

    // Sim: identical trace, virtual clock.
    let sim = sim_replay(
        Endpoint::new(build_world(config, SEED), export),
        &trace.records,
        StableHow::Unstable,
    );

    let report = DiffReport::diff(&sim, &real);
    assert!(
        report.passed(),
        "sim-vs-real diff failed:\n{}",
        report.render()
    );
    assert_eq!(stats.nfs_errors, 0);
    assert!(real.heur_hits > 0, "replay must train the heuristics");
    // Every stashed dirty block must eventually flush on both clocks.
    assert_eq!(sim.dirty_blocks_stashed, real.dirty_blocks_stashed);
}
