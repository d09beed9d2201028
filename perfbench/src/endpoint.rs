//! `endpoint`: the real-socket NFSv3 server. `nfsd::serve` runs on
//! loopback with a `WallClock` on one server thread and is driven by one
//! `NfsClient` connection in a closed loop: MOUNT and LOOKUP of 8
//! exports, two sequential READ passes over them (the first from the
//! simulated disk, the second from the server cache) with GETATTRs and
//! endpoint-answered LOOKUPs sprinkled in, then UNSTABLE WRITEs and a
//! COMMIT per file.
//!
//! Once per run an in-process twin replays the same call records through
//! `Endpoint::handle_record` and `pump` under a `ManualClock` stepped by
//! `next_deadline`. The twin is the reference for the socket run's server
//! books (`DiffReport`), supplies the simulated results (its modelled
//! latency per call), and splits the socket latency per op class into
//! modelled time, in-process host time and the residual (socket I/O and
//! the serve loop's idle tick).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use nfsd::{
    bind, build_world, serve, settle, wire, Clock, DiffReport, Endpoint, ExportSpec, HeurBooks,
    ManualClock, NfsClient, WallClock, EXPORT_PATH,
};
use nfsproto::{FileHandle, NfsCall, StableHow};
use nfssim::WorldConfig;
use nfstrace::synth::{self, SequentialSpec};
use simcore::SimRng;

use crate::metrics::{fold, percentile, ratio, world_layers, Layers, RepOut, Sim, FP_START};
use crate::reference::Kernel;
use crate::tracer::{Boundary, Tracer};
use crate::Workload;

const FILES: usize = 8;
const BLOCK: u32 = 8_192;
const FILE_BLOCKS: u64 = 256;
const READ_PASSES: usize = 2;
const WRITE_BLOCKS: u64 = 64;
/// Chance of a GETATTR, and separately of a LOOKUP, before each READ.
const META_CHANCE: f64 = 0.125;

/// Placeholder until MOUNT and LOOKUP hand out the real handles.
const UNSET: FileHandle = FileHandle {
    fsid: 0,
    ino: 0,
    generation: 0,
};

/// One call of the script; `usize` fields index the export files.
#[derive(Debug, Clone, Copy)]
enum Call {
    Mount,
    Lookup(usize),
    Getattr(usize),
    Read(usize, u64),
    Write(usize, u64),
    Commit(usize),
}

/// Per-class metric names (classes: lookup, getattr, read, write):
/// modelled server time, in-process host time, and the residual.
const CLASS_METRICS: [[&str; 4]; 3] = [
    [
        "endpoint.modelled_us.lookup",
        "endpoint.modelled_us.getattr",
        "endpoint.modelled_us.read",
        "endpoint.modelled_us.write",
    ],
    [
        "endpoint.inproc_us.lookup",
        "endpoint.inproc_us.getattr",
        "endpoint.inproc_us.read",
        "endpoint.inproc_us.write",
    ],
    [
        "endpoint.residual_us.lookup",
        "endpoint.residual_us.getattr",
        "endpoint.residual_us.read",
        "endpoint.residual_us.write",
    ],
];

impl Call {
    fn class(self) -> usize {
        match self {
            Call::Mount | Call::Lookup(_) => 0,
            Call::Getattr(_) => 1,
            Call::Read(..) => 2,
            Call::Write(..) | Call::Commit(_) => 3,
        }
    }

    /// Bytes of file data the call moves.
    fn bytes(self) -> u64 {
        match self {
            Call::Read(..) | Call::Write(..) => u64::from(BLOCK),
            _ => 0,
        }
    }
}

fn config() -> WorldConfig {
    WorldConfig {
        stable_how: StableHow::Unstable,
        ..WorldConfig::default()
    }
}

fn export() -> ExportSpec {
    ExportSpec {
        files: FILES,
        file_size: FILE_BLOCKS * u64::from(BLOCK),
    }
}

/// The call script for `seed`.
fn script(seed: u64, tr: &mut Tracer) -> Vec<Call> {
    let mut rng = SimRng::new(seed);
    let spec = SequentialSpec {
        files: FILES as u32,
        blocks_per_file: FILE_BLOCKS,
        block_len: BLOCK,
        ..SequentialSpec::default()
    };
    let reads = tr.span(Boundary::Generate, || synth::sequential(spec, &mut rng));
    let mut calls = vec![Call::Mount];
    calls.extend((0..FILES).map(Call::Lookup));
    for _ in 0..READ_PASSES {
        for r in &reads.records {
            let f = (r.fh - 0x1000) as usize;
            if rng.chance(META_CHANCE) {
                calls.push(Call::Getattr(f));
            }
            if rng.chance(META_CHANCE) {
                calls.push(Call::Lookup(f));
            }
            calls.push(Call::Read(f, r.offset));
        }
    }
    for f in 0..FILES {
        calls.extend((0..WRITE_BLOCKS).map(|b| Call::Write(f, b * u64::from(BLOCK))));
        calls.push(Call::Commit(f));
    }
    calls
}

/// What the in-process twin measured.
struct Twin {
    books: HeurBooks,
    sim: Sim,
    /// Mean modelled and in-process host µs per op class.
    modelled_us: [f64; 4],
    inproc_us: [f64; 4],
    layers: Layers,
    violations: Vec<String>,
}

/// Per-class running means.
#[derive(Default)]
struct ClassMeans {
    sum: [f64; 4],
    n: [u64; 4],
}

impl ClassMeans {
    fn add(&mut self, class: usize, x: f64) {
        self.sum[class] += x;
        self.n[class] += 1;
    }

    fn means(&self) -> [f64; 4] {
        std::array::from_fn(|c| ratio(self.sum[c], self.n[c] as f64))
    }
}

/// The record the socket client sends for `call`.
fn encode(call: Call, xid: u32, root: FileHandle, files: &[FileHandle]) -> Vec<u8> {
    match call {
        Call::Mount => wire::encode_mnt_call(xid, EXPORT_PATH),
        Call::Lookup(f) => NfsCall::Lookup {
            dir: root,
            name: format!("f{f}"),
        }
        .encode(xid),
        Call::Getattr(f) => NfsCall::Getattr { fh: files[f] }.encode(xid),
        Call::Read(f, offset) => NfsCall::Read {
            fh: files[f],
            offset,
            count: BLOCK,
        }
        .encode(xid),
        Call::Write(f, offset) => {
            wire::encode_write_call(xid, &files[f], offset, BLOCK, StableHow::Unstable)
        }
        Call::Commit(f) => NfsCall::Commit {
            fh: files[f],
            offset: 0,
            count: 0,
        }
        .encode(xid),
    }
}

/// Decodes the reply to `call`, returning its xid, its NFS status and,
/// for MOUNT and LOOKUP, the handle it carries.
fn decode(call: Call, reply: &[u8]) -> Result<(u32, u32, Option<FileHandle>), String> {
    let err = |e| format!("{call:?}: {e}");
    Ok(match call {
        Call::Mount => {
            let (xid, fh) = wire::decode_mnt_reply(reply).map_err(err)?;
            (xid, 0, Some(fh))
        }
        Call::Lookup(_) => {
            let (xid, fh, _) = wire::decode_lookup_reply(reply).map_err(err)?;
            (xid, 0, Some(fh))
        }
        Call::Getattr(_) => (wire::decode_getattr_reply(reply).map_err(err)?.0, 0, None),
        Call::Read(..) => {
            let r = wire::decode_read_reply(reply).map_err(err)?;
            (r.xid, r.status, None)
        }
        Call::Write(..) => {
            let r = wire::decode_write_reply(reply).map_err(err)?;
            (r.xid, r.status, None)
        }
        Call::Commit(_) => {
            let (xid, status, _) = wire::decode_commit_reply(reply).map_err(err)?;
            (xid, status, None)
        }
    })
}

/// Replays `calls` through an in-process `Endpoint` on a `ManualClock`,
/// one at a time, as the socket client issues them.
fn twin(seed: u64, calls: &[Call], tr: &mut Tracer) -> Twin {
    let mut ep = Endpoint::new(build_world(config(), seed), export());
    let conn = ep.connect();
    let clock = ManualClock::new();
    let mut violations = Vec::new();
    // The socket client's connect ping is xid 1.
    let ping = wire::encode_null_call(1, nfsproto::NFS_PROGRAM, nfsproto::NFS_VERSION);
    if ep.handle_record(clock.now(), conn, &ping).len() != 1 {
        violations.push("endpoint twin: NULL ping got no reply".to_string());
    }
    let (mut root, mut files) = (UNSET, [UNSET; FILES]);
    let mut modelled = ClassMeans::default();
    let mut inproc = ClassMeans::default();
    let mut lat_ns = Vec::with_capacity(calls.len());
    let mut bytes = 0;
    for (i, &call) in calls.iter().enumerate() {
        let xid = i as u32 + 2;
        let record = tr.span(Boundary::CallEncode, || encode(call, xid, root, &files));
        let sent = clock.now();
        let host = Instant::now();
        let mut replies = tr.span(Boundary::HandleRecord, || {
            ep.handle_record(sent, conn, &record)
        });
        // Routed calls surface from `pump`, which the serve loop calls on
        // every lap; between laps it sleeps to the next deadline.
        while replies.is_empty() {
            let now = clock.now();
            replies = tr
                .span(Boundary::Pump, || ep.pump(now))
                .into_iter()
                .map(|(_, r)| r)
                .collect();
            if !replies.is_empty() {
                break;
            }
            let Some(t) = ep.next_deadline() else {
                violations.push(format!("endpoint twin: no reply to xid {xid}"));
                break;
            };
            clock.advance_to(t);
        }
        inproc.add(call.class(), host.elapsed().as_nanos() as f64 / 1e3);
        let model_ns = clock.now().since(sent).as_nanos();
        modelled.add(call.class(), model_ns as f64 / 1e3);
        lat_ns.push(model_ns);
        bytes += call.bytes();
        let Some(reply) = replies.first() else {
            continue;
        };
        match tr.span(Boundary::ReplyDecode, || decode(call, reply)) {
            Ok((got, status, fh)) => {
                if got != xid || status != 0 {
                    violations.push(format!(
                        "endpoint twin: {call:?} xid {xid} answered xid {got} status {status}"
                    ));
                }
                match (call, fh) {
                    (Call::Mount, Some(fh)) => root = fh,
                    (Call::Lookup(f), Some(fh)) => files[f] = fh,
                    _ => {}
                }
            }
            Err(e) => violations.push(format!("endpoint twin: {e}")),
        }
    }
    let sim_secs = clock.now().as_secs_f64();
    settle(ep.world_mut(), clock.now());
    let books = HeurBooks::from_stats(&ep.world().server_stats());
    let layers = vec![
        ("nfsd.handle_record_ns", tr.mean_ns(Boundary::HandleRecord)),
        ("nfsd.pump_ns", tr.mean_ns(Boundary::Pump)),
        ("nfsproto.call_encode_ns", tr.mean_ns(Boundary::CallEncode)),
        (
            "nfsproto.reply_decode_ns",
            tr.mean_ns(Boundary::ReplyDecode),
        ),
    ];
    Twin {
        books,
        sim: Sim::from_latencies(lat_ns, bytes, sim_secs),
        modelled_us: modelled.means(),
        inproc_us: inproc.means(),
        layers,
        violations,
    }
}

/// A live server thread with one connected client.
struct Live {
    client: NfsClient,
    stop: Arc<AtomicBool>,
    server: JoinHandle<Endpoint>,
}

impl Live {
    fn start(seed: u64, tr: &mut Tracer) -> Live {
        let endpoint = tr.span(Boundary::Build, || {
            Endpoint::new(build_world(config(), seed), export())
        });
        let (listener, addr): (_, SocketAddr) = tr.span(Boundary::Build, || {
            bind("127.0.0.1:0").expect("bind loopback")
        });
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let server =
            std::thread::spawn(move || serve(listener, endpoint, WallClock::start(), flag));
        let client = tr.span(Boundary::Build, || {
            NfsClient::connect(addr).expect("connect to the loopback endpoint")
        });
        Live {
            client,
            stop,
            server,
        }
    }

    /// Hangs up, stops the server thread and waits for it.
    fn finish(self) -> Endpoint {
        drop(self.client);
        self.stop.store(true, Ordering::Relaxed);
        self.server.join().expect("endpoint server thread panicked")
    }
}

/// Issues `call` over the socket, returning its NFS status.
fn issue(
    client: &mut NfsClient,
    call: Call,
    root: &mut FileHandle,
    files: &mut [FileHandle],
) -> Result<u32, nfsd::ClientError> {
    Ok(match call {
        Call::Mount => {
            *root = client.mount()?;
            0
        }
        Call::Lookup(f) => {
            files[f] = client.lookup(*root, &format!("f{f}"))?;
            0
        }
        Call::Getattr(f) => {
            client.getattr(files[f])?;
            0
        }
        Call::Read(f, offset) => client.read(files[f], offset, BLOCK)?.status,
        Call::Write(f, offset) => {
            client
                .write(files[f], offset, BLOCK, StableHow::Unstable)?
                .status
        }
        Call::Commit(f) => client.commit(files[f])?.0,
    })
}

/// The `endpoint` workload.
pub struct EndpointBench {
    seed: u64,
    twin: Twin,
}

impl EndpointBench {
    /// Runs the twin for `seed` (traced when `trace` is set).
    pub fn new(seed: u64, trace: bool) -> Self {
        let mut tr = Tracer::new(trace);
        let calls = script(seed, &mut tr);
        let twin = twin(seed, &calls, &mut tr);
        EndpointBench { seed, twin }
    }
}

impl Workload for EndpointBench {
    fn setup_only(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut tr = Tracer::new(false);
        let _calls = script(self.seed, &mut tr);
        let live = Live::start(self.seed, &mut tr);
        let setup_s = t0.elapsed().as_secs_f64();
        live.finish();
        setup_s
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOut {
        let t0 = Instant::now();
        let calls = script(self.seed, tr);
        let mut live = Live::start(self.seed, tr);
        let setup_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let (mut root, mut files) = (UNSET, [UNSET; FILES]);
        let mut lat_ns = Vec::with_capacity(calls.len());
        let mut socket = ClassMeans::default();
        let mut violations = Vec::new();
        let mut failed = 0;
        for &call in &calls {
            let start = Instant::now();
            let status = tr.span(Boundary::ClientCall, || {
                issue(&mut live.client, call, &mut root, &mut files)
            });
            let ns = start.elapsed().as_nanos() as u64;
            match status {
                Ok(0) => {}
                Ok(s) => {
                    failed += 1;
                    violations.push(format!("endpoint: {call:?} returned NFS status {s}"));
                }
                Err(e) => {
                    failed += 1;
                    violations.push(format!("endpoint: {call:?} failed: {e}"));
                    break;
                }
            }
            lat_ns.push(ns);
            socket.add(call.class(), ns as f64 / 1e3);
        }
        let timed_s = t1.elapsed().as_secs_f64();
        let endpoint = live.finish();

        let world = endpoint.world();
        let stats = world.server_stats();
        let books = HeurBooks::from_stats(&stats);
        let diff = DiffReport::diff(&self.twin.books, &books);
        if !diff.passed() {
            violations.push(format!(
                "endpoint: server books differ from the twin\n{}",
                diff.render()
            ));
        }
        if stats.replies != stats.reads + stats.other_calls {
            violations.push(format!(
                "endpoint: {} replies for {} reads + {} other calls",
                stats.replies, stats.reads, stats.other_calls
            ));
        }
        violations.extend(self.twin.violations.iter().cloned());
        let fingerprint = diff
            .lines
            .iter()
            .filter(|l| !l.tolerated)
            .fold(FP_START, |h, l| fold(h, l.real));

        let mut layers = Vec::new();
        world_layers(world, world.now().as_secs_f64(), &mut layers);
        let ep = endpoint.stats();
        layers.extend([
            ("nfsd.calls", ep.calls as f64),
            ("nfsd.immediate_replies", ep.immediate_replies as f64),
            ("nfsd.routed_calls", ep.routed_calls as f64),
            ("nfsd.rpc_errors", ep.rpc_errors as f64),
        ]);
        let socket_us = socket.means();
        let (modelled, inproc) = (self.twin.modelled_us, self.twin.inproc_us);
        for c in 0..4 {
            let [m, i, r] = CLASS_METRICS.map(|names| names[c]);
            let residual = socket_us[c] - modelled[c] - inproc[c];
            layers.extend([(m, modelled[c]), (i, inproc[c]), (r, residual)]);
        }
        lat_ns.sort_unstable();
        layers.extend([
            (
                "endpoint.lat_p50_us",
                percentile(&lat_ns, 0.50) as f64 / 1e3,
            ),
            (
                "endpoint.lat_p99_us",
                percentile(&lat_ns, 0.99) as f64 / 1e3,
            ),
        ]);
        RepOut {
            setup_s,
            timed_s,
            attempted: calls.len() as u64,
            failed,
            fingerprint,
            sim: self.twin.sim,
            layers,
            violations,
        }
    }

    fn run_layers(&self) -> Layers {
        self.twin.layers.clone()
    }

    /// The socket run is paced by the serve loop's sleeps and wake-ups
    /// (modelled server time passes as wall time), not by compute: the
    /// Scan kernel spread its scaled rate to 0.19 over ten seeds.
    fn kernel(&self) -> Option<Kernel> {
        Some(Kernel::Sleep)
    }
}
