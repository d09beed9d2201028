//! Deterministic fault-injection simulation tests for the NFS world.
//!
//! FoundationDB-style simulation testing: a single `u64` seed generates a
//! randomized multi-process workload (readers, writers, getattr pollers)
//! over [`NfsWorld`], injects faults mid-run — frame-loss bursts, link
//! degradation, server stalls, `nfsd`/`nfsiod` pool resizing, total
//! zero-`nfsd` outages, forced cache flushes, and (with `--disk-faults`)
//! server disk faults: latent sector errors, a stuck TCQ tag, firmware
//! stall windows, fail-slow regions — and checks invariant *oracles*
//! after every event batch:
//!
//! - **monotone time**: simulated time never runs backwards, and no
//!   operation completes before it was issued;
//! - **op accounting**: every issued [`OpId`] completes exactly once, with
//!   its own tag, as `Ok` or a typed `RpcTimedOut` / `Eio`;
//! - **no stuck operations**: quiescence (no pending events) with
//!   operations still outstanding is a failure, reported with the hung
//!   xids;
//! - **block conservation**: every client-cache block miss is fetched by
//!   exactly one non-retransmit READ RPC (`rpcs == predicted demand
//!   misses + read-ahead RPCs`);
//! - **RPC conservation**: link-level message counts reconcile exactly
//!   with client transmissions, server call/duplicate/orphan counts, and
//!   replies;
//! - **restore composition**: after a fault batch is reverted — including
//!   an *overlapping* batch where two fault kinds were active at once —
//!   every host's link profile, both daemon pools, and the drive's fault
//!   model are back at their baseline values;
//! - **restore baseline**: across any batch without an installed disk
//!   fault model the drive produces zero new error completions;
//! - **disk books**: bio error completions reconcile exactly with retries
//!   plus propagated `EIO`s, every `EIO` is a hard error or an exhausted
//!   transient, no request exceeds the retry cap, and every server `EIO`
//!   is attributed to a specific client;
//! - **TCP books** (TCP runs): per client and direction, every segment
//!   ever sent is acked, in flight, or tracked as lost; every segment
//!   that survived the link was delivered exactly once; in-order
//!   delivery was never violated;
//! - **determinism**: the same seed reproduces the bit-exact same run
//!   fingerprint (TCP runs fold the segment-engine books in too).
//!
//! One [`Spec`] describes a run completely: the seed plus every mode.
//! [`Spec::run`], [`Spec::run_checked`], the failure message, and the
//! command line ([`Spec::args`], [`Spec::from_args`]) all derive from it.
//!
//! The workload generalises to a cluster: with [`Spec::clients`]
//! greater than one, the same seed drives N client hosts (each with its
//! own files, cursors, and RNG-derived streams inside the world) against
//! the one shared server, and the conservation oracles reconcile the
//! *summed* per-host books against the server's.
//!
//! With [`Workload::WriteLoss`] the mount switches to the NFSv3 async
//! write path (UNSTABLE WRITEs, server-side write gathering, COMMIT on
//! close) and the workload becomes write-heavy with interleaved closes.
//! Every `nfsd`-outage batch turns into a *crash*: the run drains only a
//! few milliseconds — less than the gather window, so UNSTABLE data is
//! still sitting in the server's dirty pool — then the server loses its
//! pool and changes its write verifier. Three crash-consistency oracles
//! join the set:
//!
//! - **no committed loss**: every block a completed `close()` reported
//!   stable is actually on the server's stable storage;
//! - **dirty books**: blocks stashed in the server's dirty pool equal
//!   blocks flushed + blocks lost to crashes + the live gauge, at every
//!   batch boundary;
//! - **crash detection**: a verifier mismatch implies a restart happened,
//!   a rewritten block implies a mismatch was detected, and (in clean
//!   runs) the async machinery never wakes on a FILE_SYNC mount.
//!
//! With [`Workload::MetaStorm`] the workload flips to a
//! metadata-heavy mix (GETATTR pollers, open()-style revalidations,
//! LOOKUPs, READDIR chunks, occasional writes) and the client attribute
//! cache arms at the classic `acregmin=3,acregmax=60` timeouts. Two
//! oracle families join the set:
//!
//! - **attrcache-books**: every getattr-class op is a cache hit or a wire
//!   GETATTR; every wire GETATTR is a miss or a revalidation; staleness
//!   detections never exceed revalidations;
//! - **attrcache-dormancy** (always on in *non*-storm runs): with the
//!   cache disarmed every attribute-cache counter is zero and the cache
//!   holds no entries — the machinery is provably inert by default.
//!
//! Every failure message carries a one-line reproduction command rendered
//! from the spec that ran: `SIMTEST_SEED=<n> cargo run -p simtest --
//! --seed <n> --clients <N>` plus one flag per active mode.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

use diskfault::{FaultPlan, FaultState};
use ffs::BioStats;
use netsim::{LinkProfile, LinkStats, TransportKind};
use nfsproto::{FileHandle, StableHow};
use nfssim::{BlockState, ClientStats, NfsWorld, OpId, OpOutcome, ServerStats, WorldConfig, NFSDS};
use simcore::{fnv1a, LogHist, SimDuration, SimRng, SimTime, Tally, FNV_BASIS};
use testbed::{ClusterConfig, Rig};

/// Batches per run without disk faults: seven fault batches (one per
/// [`FaultKind`], shuffled by seed) interleaved with clean batches, plus a
/// clean tail to observe recovery.
const DEFAULT_BATCHES: usize = 16;

/// Batches per run when disk faults join the schedule: eleven fault
/// batches (seven classic kinds + four disk kinds) interleaved with clean
/// batches, plus a clean tail.
const DISK_BATCHES: usize = 24;

/// Event budget per run; exhausting it fails the bounded-progress oracle.
const STEP_BUDGET: u64 = 5_000_000;

const FILES: usize = 3;
const FILE_BLOCKS: u64 = 64;
const BS: u64 = 8_192;

/// One kind of mid-run fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Frame loss jumps (to a total blackout on UDP half the time:
    /// exercises retransmission and the typed RPC-timeout path).
    LossBurst,
    /// Bandwidth collapses and latency/jitter balloon (congested path).
    LinkDegrade,
    /// The server CPU freezes for a while (GC pause / competing job —
    /// the §9.2 "quiet workload" trap).
    ServerStall,
    /// The `nfsd` pool shrinks to one or two daemons.
    NfsdResize,
    /// The `nfsd` pool drops to zero: a total server outage. Calls queue
    /// and nothing is served until the pool is restored (UDP clients
    /// retransmit into the void and time out; TCP clients wait it out).
    NfsdOutage,
    /// The client `nfsiod` pool shrinks (possibly to zero: read-ahead
    /// disabled).
    NfsiodResize,
    /// Every data cache is dropped mid-run (§4.3.1 flush discipline).
    CacheFlush,
    /// Latent sector errors appear under live server data: transient
    /// clusters cost bounded bio retries, hard clusters surface one `EIO`
    /// and are remapped to spares.
    SectorErrors,
    /// One TCQ tag on the server's drive goes bad: every Nth command
    /// stalls for tens of milliseconds.
    StuckTag,
    /// Drive firmware stalls (GC / thermal recal): commands starting
    /// inside a window are held until it closes.
    FirmwareStall,
    /// A fail-slow region: transfers touching it pay a per-sector penalty
    /// but still succeed — the degraded-but-not-dead drive.
    FailSlow,
    /// A `frame_loss = 1.0` blackout window on one (seed-chosen) client's
    /// links. Scheduled only by forced-TCP plans: the point is the TCP
    /// segment engine's RTO ladder — segments back off through the
    /// window, abort after the retry budget (typed `RpcTimedOut`), and
    /// anything still queued recovers at restore. The UDP equivalent is
    /// [`FaultKind::LossBurst`]'s blackout half.
    TcpBlackout,
}

impl FaultKind {
    /// The classic (non-disk) fault kinds, in declaration order. The
    /// pinned fingerprints shuffle exactly this array, so disk kinds live
    /// in [`FaultKind::DISK`] and only join the schedule on request.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::LossBurst,
        FaultKind::LinkDegrade,
        FaultKind::ServerStall,
        FaultKind::NfsdResize,
        FaultKind::NfsdOutage,
        FaultKind::NfsiodResize,
        FaultKind::CacheFlush,
    ];

    /// The disk fault kinds (scheduled only with `--disk-faults`).
    pub const DISK: [FaultKind; 4] = [
        FaultKind::SectorErrors,
        FaultKind::StuckTag,
        FaultKind::FirmwareStall,
        FaultKind::FailSlow,
    ];

    /// Short kebab-case name for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::LossBurst => "loss-burst",
            FaultKind::LinkDegrade => "link-degrade",
            FaultKind::ServerStall => "server-stall",
            FaultKind::NfsdResize => "nfsd-resize",
            FaultKind::NfsdOutage => "nfsd-outage",
            FaultKind::NfsiodResize => "nfsiod-resize",
            FaultKind::CacheFlush => "cache-flush",
            FaultKind::SectorErrors => "sector-errors",
            FaultKind::StuckTag => "stuck-tag",
            FaultKind::FirmwareStall => "firmware-stall",
            FaultKind::FailSlow => "fail-slow",
            FaultKind::TcpBlackout => "tcp-blackout",
        }
    }
}

/// The workload a run drives: its op mix, the mount's `stable_how`, the
/// attribute-cache timeouts, and which oracle families join the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential-cursor reads with random jumps plus occasional writes
    /// and GETATTR polls, on a FILE_SYNC mount with the attribute cache
    /// off (the attrcache-dormancy oracle proves it inert).
    Classic,
    /// Mount UNSTABLE (the NFSv3 async write path), run a write-heavy mix
    /// with interleaved closes, and turn every `nfsd`-outage batch into a
    /// mid-gather server crash (dirty pool lost, write verifier changed).
    /// Adds the crash-consistency oracle set.
    WriteLoss,
    /// A GETATTR/LOOKUP/READDIR-heavy mix with open()-style forced
    /// revalidations, with the client attribute cache armed at
    /// `acregmin=3s`/`acregmax=60s`. Adds the attrcache-books oracle.
    MetaStorm,
}

/// One run, completely: the seed plus every mode. Runs, reports, failure
/// messages and command lines are all derived from it, so the printed
/// reproduction command is the configuration that ran.
///
/// ```
/// use simtest::Spec;
/// let spec = Spec { clients: 2, overlap: true, ..Spec::new(7) };
/// assert_eq!(spec.args().join(" "), "--seed 7 --clients 2 --overlap");
/// assert_eq!(Spec::from_args(&spec.args()), Ok((spec, vec![7])));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// The seed the plan and every workload draw derive from.
    pub seed: u64,
    /// Client hosts in the cluster under test (1 = the classic world).
    pub clients: usize,
    /// Pack fault *pairs* into shared batches (see [`Spec::plan`]).
    pub overlap: bool,
    /// Shuffle the [`FaultKind::DISK`] kinds into the schedule, which
    /// lengthens the run from 16 to 24 batches so all eleven kinds land.
    pub disk_faults: bool,
    /// Force the transport instead of drawing it from the seed. Forced
    /// TCP also schedules [`FaultKind::TcpBlackout`].
    pub transport: Option<TransportKind>,
    /// The op mix and mount modes.
    pub workload: Workload,
    /// Record every operation's latency into a [`LogHist`] alongside an
    /// exact list, and run the latency-histogram oracle at end of run:
    /// counts reconcile, quantiles are monotone, the streaming p50/p99/
    /// p99.9 agree with the exact order statistics within the histogram's
    /// documented relative-error bound, and the tail is inside the run.
    pub hist_oracle: bool,
    /// Mutation check: this many server replies are counted in the books
    /// but never transmitted, which a healthy oracle set must catch. Not
    /// a command-line mode, so [`Spec::args`] does not render it.
    pub sabotage_replies: u32,
}

impl Spec {
    /// The classic run of `seed`: one client, one fault per batch, no
    /// disk faults, seed-drawn transport, [`Workload::Classic`].
    pub fn new(seed: u64) -> Self {
        Spec {
            seed,
            clients: 1,
            overlap: false,
            disk_faults: false,
            transport: None,
            workload: Workload::Classic,
            hist_oracle: false,
            sabotage_replies: 0,
        }
    }

    /// Derives the transport and fault schedule from the seed.
    ///
    /// Without overlap one fault lands on each odd batch, each followed by
    /// a clean recovery batch. With overlap *two* distinct kinds land on
    /// each odd batch and stay active together until the batch's revert
    /// (a loss burst during a server stall, an outage during a cache
    /// flush, ...). The transport draw is always made and a forced
    /// transport only overrides it, so every mode explores the same
    /// per-seed kind shuffle, and the disk-free plan draws the identical
    /// stream it did before disk faults existed. Forced TCP appends
    /// [`FaultKind::TcpBlackout`] to the shuffle: 8 kinds fit 16 batches,
    /// 12 fit 24.
    pub fn plan(&self) -> SimPlan {
        let batches = if self.disk_faults {
            DISK_BATCHES
        } else {
            DEFAULT_BATCHES
        };
        let mut rng = SimRng::from_seed_and_stream(self.seed, 0x53_49_4D_54_45_53_54); // "SIMTEST"
        let drawn = if rng.gen_range(0u32..4) == 3 {
            TransportKind::Tcp
        } else {
            TransportKind::Udp
        };
        let mut kinds = FaultKind::ALL.to_vec();
        if self.disk_faults {
            kinds.extend(FaultKind::DISK);
        }
        if self.transport == Some(TransportKind::Tcp) {
            kinds.push(FaultKind::TcpBlackout);
        }
        rng.shuffle(&mut kinds);
        let faults = kinds
            .into_iter()
            .enumerate()
            .map(|(i, k)| {
                let slot = if self.overlap { i / 2 } else { i };
                (1 + 2 * slot, k)
            })
            .filter(|&(b, _)| b < batches)
            .collect();
        SimPlan {
            batches,
            transport: self.transport.unwrap_or(drawn),
            faults,
        }
    }

    /// Runs the spec once and checks every oracle. Returns the report of a
    /// clean run, or the first invariant violation.
    pub fn run(&self) -> Result<RunReport, OracleFailure> {
        execute(self)
    }

    /// Runs the spec twice and adds the determinism oracle: both runs must
    /// produce the bit-exact same report.
    pub fn run_checked(&self) -> Result<RunReport, OracleFailure> {
        let first = self.run()?;
        let second = self.run()?;
        if first != second {
            return Err(self.failure(
                "determinism",
                format!(
                    "same seed diverged: fingerprints {:#x} vs {:#x}",
                    first.fingerprint, second.fingerprint
                ),
            ));
        }
        Ok(first)
    }

    fn failure(&self, oracle: &'static str, detail: String) -> OracleFailure {
        OracleFailure {
            spec: *self,
            oracle,
            detail,
        }
    }

    /// The spec's modes as `(flag, value)` pairs in one fixed order: the
    /// vocabulary [`Spec::from_args`] parses. [`Spec::args`] renders them
    /// as `--flag value`, the sweep header as `flag=value`. `clients` is
    /// always listed, so a reproduction command never picks the cluster
    /// width up from the environment.
    pub fn flags(&self) -> Vec<(&'static str, Option<String>)> {
        let switches = [
            ("overlap", self.overlap),
            ("disk-faults", self.disk_faults),
            ("write-loss", self.workload == Workload::WriteLoss),
            ("meta-storm", self.workload == Workload::MetaStorm),
            ("hist-oracle", self.hist_oracle),
        ];
        let mut flags = vec![("clients", Some(self.clients.to_string()))];
        flags.extend(switches.iter().filter(|s| s.1).map(|&(f, _)| (f, None)));
        flags.extend(self.transport.map(|t| {
            let name = match t {
                TransportKind::Udp => "udp",
                TransportKind::Tcp => "tcp",
            };
            ("transport", Some(name.to_string()))
        }));
        flags
    }

    /// The command line that reproduces this spec: `--seed N`, then every
    /// [`Spec::flags`] entry as `--flag [value]`.
    pub fn args(&self) -> Vec<String> {
        let mut args = vec!["--seed".to_string(), self.seed.to_string()];
        for (flag, value) in self.flags() {
            args.push(format!("--{flag}"));
            args.extend(value);
        }
        args
    }

    /// Parses a simtest command line into the spec every seed runs under
    /// (its `seed` set to the first one) and the seeds to run: `--seed N`
    /// runs one seed, otherwise `--seeds N` (default 16) starting at
    /// `--start S` (default 0). An unknown flag, a missing or unparsable
    /// value, a transport other than `tcp`/`udp`, `--clients 0`, or both
    /// `--write-loss` and `--meta-storm` is an error.
    pub fn from_args(args: &[String]) -> Result<(Spec, Vec<u64>), String> {
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag} {v:?}: not a number"))
        }
        let mut spec = Spec::new(0);
        let (mut single, mut start, mut count) = (None, 0u64, 16u64);
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--seed" => single = Some(num(flag, value()?)?),
                "--seeds" => count = num(flag, value()?)?,
                "--start" => start = num(flag, value()?)?,
                "--clients" => spec.clients = num(flag, value()?)?,
                "--transport" => {
                    spec.transport = Some(match value()?.as_str() {
                        "tcp" => TransportKind::Tcp,
                        "udp" => TransportKind::Udp,
                        other => return Err(format!("--transport {other:?}: expected tcp or udp")),
                    });
                }
                "--overlap" => spec.overlap = true,
                "--disk-faults" => spec.disk_faults = true,
                "--hist-oracle" => spec.hist_oracle = true,
                "--write-loss" | "--meta-storm" => {
                    let w = if flag == "--write-loss" {
                        Workload::WriteLoss
                    } else {
                        Workload::MetaStorm
                    };
                    if ![Workload::Classic, w].contains(&spec.workload) {
                        return Err("--write-loss and --meta-storm are exclusive".into());
                    }
                    spec.workload = w;
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if spec.clients == 0 {
            return Err("--clients must be at least 1".into());
        }
        let seeds: Vec<u64> = match single {
            Some(s) => vec![s],
            None => {
                let end = start
                    .checked_add(count)
                    .ok_or("--start + --seeds overflows")?;
                (start..end).collect()
            }
        };
        spec.seed = seeds.first().copied().unwrap_or(start);
        Ok((spec, seeds))
    }
}

/// What a [`Spec`] derives from its seed rather than states: the batch
/// count, the transport, and the fault schedule.
#[derive(Debug, Clone)]
pub struct SimPlan {
    /// Number of event batches.
    pub batches: usize,
    /// Transport under test (3 in 4 seeds draw UDP, the paper's default).
    pub transport: TransportKind,
    /// `(batch, kind)` fault schedule; each fault lasts until its batch's
    /// revert. With overlap scheduling two kinds share one batch.
    pub faults: Vec<(usize, FaultKind)>,
}

/// Summary of one completed (oracle-clean) run. The modes are the
/// [`Spec`]'s; the report holds only what the run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// The seed that generated the run.
    pub seed: u64,
    /// Transport used.
    pub transport: TransportKind,
    /// Operations that completed `Ok`.
    pub ok_ops: u64,
    /// Operations that failed with `RpcTimedOut`.
    pub timed_out_ops: u64,
    /// Operations that failed with `Eio` (server disk gave up).
    pub eio_ops: u64,
    /// Faults injected, in schedule order.
    pub faults: Vec<FaultKind>,
    /// Client books summed over every host (`client.ops` is the number of
    /// operations issued). The per-direction TCP books are not additive and
    /// stay at default.
    pub client: ClientStats,
    /// The shared server's books.
    pub server: ServerStats,
    /// The server's block-I/O error books.
    pub bio: BioStats,
    /// Streaming p99 operation latency, nanoseconds (0 unless the run
    /// collected the latency histogram — [`Spec::hist_oracle`]).
    pub lat_p99_ns: u64,
    /// Streaming p99.9 operation latency, nanoseconds (0 unless the run
    /// collected the latency histogram).
    pub lat_p999_ns: u64,
    /// Order-sensitive hash of every completion and the final counters;
    /// equal across runs of the same seed iff the world is deterministic.
    pub fingerprint: u64,
    /// Final simulated time, nanoseconds.
    pub sim_nanos: u64,
}

/// An invariant violation, carrying everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// The failing run's spec; the reproduction command renders it.
    pub spec: Spec,
    /// Which oracle tripped.
    pub oracle: &'static str,
    /// What it saw.
    pub detail: String,
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simtest oracle `{}` failed: {}\n  reproduce with: SIMTEST_SEED={} cargo run -p simtest -- {}",
            self.oracle,
            self.detail,
            self.spec.seed,
            self.spec.args().join(" ")
        )
    }
}

impl std::error::Error for OracleFailure {}

struct IssueRec {
    tag: u64,
    at: SimTime,
}

/// The run's mutable accounting state, threaded through every drain so the
/// crash-injection path can drain in several pieces (a partial drain up to
/// a horizon, then the post-crash drain) without duplicating the oracle
/// bookkeeping. The recording order inside [`drain_until`] is exactly the
/// old inline loop's, so clean-mode fingerprints are unmoved.
struct Books {
    issued: BTreeMap<OpId, IssueRec>,
    completed: HashSet<OpId>,
    /// Latency collection for the hist oracle; `None` when the oracle is
    /// off, so default runs do no extra work and no extra allocation.
    lat: Option<(LogHist, Vec<u64>)>,
    predicted_demand: u64,
    /// Getattr-class ops (GETATTR polls + open()-style revalidations) the
    /// meta-storm workload issued; the attrcache-books oracle checks every
    /// one was either a cache hit or a wire GETATTR.
    predicted_getattr_class: u64,
    ok_ops: u64,
    timed_out_ops: u64,
    eio_ops: u64,
    next_tag: u64,
    fp: u64,
    last_now: SimTime,
    steps: u64,
}

/// Drains events, checking the per-event oracles (bounded progress,
/// monotone time, op accounting) and folding each completion into the
/// fingerprint. With a `horizon` the drain stops *before* the first event
/// past it — the crash path uses this to freeze the world mid-gather.
/// Returns each completion as `(op, completed_ok)` so the caller can run
/// mode-specific bookkeeping (the crash-consistency close oracles) on top.
fn drain_until<F>(
    w: &mut NfsWorld,
    bk: &mut Books,
    horizon: Option<SimTime>,
    batch: usize,
    fail: &F,
) -> Result<Vec<(OpId, bool)>, OracleFailure>
where
    F: Fn(&'static str, String) -> OracleFailure,
{
    let mut done = Vec::new();
    while let Some(t) = w.next_event() {
        if horizon.is_some_and(|h| t > h) {
            break;
        }
        bk.steps += 1;
        if bk.steps > STEP_BUDGET {
            return Err(fail(
                "bounded-progress",
                format!(
                    "event budget exhausted in batch {batch}; outstanding xids {:?}",
                    w.outstanding_xids()
                ),
            ));
        }
        if t < bk.last_now {
            return Err(fail(
                "monotone-time",
                format!("event time regressed: {t} after {}", bk.last_now),
            ));
        }
        bk.last_now = t;
        for d in w.advance(t) {
            if !bk.completed.insert(d.id) {
                return Err(fail(
                    "op-accounting",
                    format!("operation {:?} completed twice", d.id),
                ));
            }
            let Some(rec) = bk.issued.get(&d.id) else {
                return Err(fail(
                    "op-accounting",
                    format!("completion for never-issued operation {:?}", d.id),
                ));
            };
            if d.tag != rec.tag {
                return Err(fail(
                    "op-accounting",
                    format!(
                        "operation {:?} returned tag {} != issued {}",
                        d.id, d.tag, rec.tag
                    ),
                ));
            }
            if d.done_at < rec.at {
                return Err(fail(
                    "monotone-time",
                    format!(
                        "operation {:?} finished at {} before issue at {}",
                        d.id, d.done_at, rec.at
                    ),
                ));
            }
            if let Some((hist, exact)) = bk.lat.as_mut() {
                let lat = d.done_at.since(rec.at).as_nanos();
                hist.add(lat);
                exact.push(lat);
            }
            let outcome_code = match d.outcome {
                OpOutcome::Ok => {
                    bk.ok_ops += 1;
                    0
                }
                OpOutcome::RpcTimedOut { xid } => {
                    bk.timed_out_ops += 1;
                    u64::from(xid) << 1 | 1
                }
                OpOutcome::Eio { xid } => {
                    bk.eio_ops += 1;
                    u64::from(xid) << 2 | 2
                }
            };
            for v in [d.id.0, d.tag, d.done_at.as_nanos(), outcome_code] {
                bk.fp = fnv1a(bk.fp, &v.to_le_bytes());
            }
            done.push((d.id, outcome_code == 0));
        }
    }
    Ok(done)
}

/// Crash-consistency bookkeeping for one drain's completions: a `close()`
/// that completed `Ok` promised every block written *before it was issued*
/// (its shadow snapshot) is on stable storage. Blocks written after the
/// close started stay in the ongoing shadow for the file's next close to
/// account for. A close that failed (`Eio`/`RpcTimedOut`) made no promise
/// — the soft mount dropped the file's entire write-behind tracking,
/// later-issued writes included — so both its snapshot and the ongoing
/// shadow are discarded without the check.
fn settle_closes<F>(
    w: &NfsWorld,
    done: &[(OpId, bool)],
    close_ops: &mut HashMap<OpId, (usize, usize, BTreeSet<u64>)>,
    close_pending: &mut HashSet<(usize, usize)>,
    shadow: &mut HashMap<(usize, usize), BTreeSet<u64>>,
    fhs: &[Vec<FileHandle>],
    fail: &F,
) -> Result<(), OracleFailure>
where
    F: Fn(&'static str, String) -> OracleFailure,
{
    for &(id, ok) in done {
        let Some((cl, f, snap)) = close_ops.remove(&id) else {
            continue;
        };
        close_pending.remove(&(cl, f));
        if !ok {
            shadow.remove(&(cl, f));
            continue;
        }
        for blk in snap {
            if !w.is_durable(fhs[cl][f], blk) {
                return Err(fail(
                    "no-committed-loss",
                    format!(
                        "close {id:?} on client {cl} file {f} completed Ok \
                         but block {blk} is not on stable storage"
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Applies one classic (non-disk) fault to the world. Disk kinds go
/// through [`disk_fault_plan`] instead: they build [`FaultPlan`] fragments
/// the caller merges, because several disk kinds in one overlap batch
/// share a single installed model.
fn apply_fault(w: &mut NfsWorld, kind: FaultKind, rng: &mut SimRng, base: &WorldConfig) {
    let now = w.now();
    match kind {
        FaultKind::LossBurst => {
            // Half the time a total blackout, half the time 30% loss —
            // on either transport. UDP blackouts force RPC timeouts; TCP
            // blackouts exercise the segment engine's RTO backoff ladder
            // (the old inline engine capped loss here because a blackout
            // would spin its retransmission loop forever).
            let loss = if rng.chance(0.5) { 1.0 } else { 0.3 };
            w.set_link_profile(LinkProfile {
                frame_loss: loss,
                ..base.link
            });
        }
        FaultKind::LinkDegrade => {
            w.set_link_profile(LinkProfile {
                bandwidth: base.link.bandwidth / 50.0,
                latency: SimDuration::from_micros(900),
                jitter: 1e-3,
                ..base.link
            });
        }
        FaultKind::ServerStall => {
            let ms = rng.gen_range(50u64..400);
            w.stall_server(now, SimDuration::from_millis(ms));
        }
        FaultKind::NfsdResize => {
            w.set_nfsds(now, rng.gen_range(1usize..3));
        }
        FaultKind::NfsdOutage => {
            // Zero daemons: every arriving call queues and nothing is
            // served. `execute` restores the pool once the batch starves
            // to quiescence, so parked calls reconcile before the
            // end-of-batch oracles run.
            w.set_nfsds(now, 0);
        }
        FaultKind::NfsiodResize => {
            let n = if rng.chance(0.5) { 0 } else { 1 };
            w.set_nfsiods(n);
        }
        FaultKind::CacheFlush => {
            w.flush_all_caches();
        }
        FaultKind::TcpBlackout => {
            // A total blackout on one seed-chosen client's links. The
            // batch revert restores every client to the baseline profile,
            // so no per-kind revert bookkeeping is needed.
            let victim = rng.gen_range(0..w.n_clients());
            w.set_link_profile_for(
                victim,
                LinkProfile {
                    frame_loss: 1.0,
                    ..base.link
                },
            );
        }
        FaultKind::SectorErrors
        | FaultKind::StuckTag
        | FaultKind::FirmwareStall
        | FaultKind::FailSlow => {
            unreachable!("disk kinds build their plans via disk_fault_plan")
        }
    }
}

/// Builds the seeded [`FaultPlan`] fragment for one disk fault kind. All
/// randomness is drawn here, so the installed [`FaultState`] is draw-free
/// and a faulted run is schedule-independent. Sector errors are aimed at
/// the blocks a seed-chosen file is currently reading (a defect nobody
/// reads proves nothing), and drop the data caches so the batch's
/// in-flight reads reach the platter instead of the buffer cache.
fn disk_fault_plan(
    w: &mut NfsWorld,
    kind: FaultKind,
    rng: &mut SimRng,
    fhs: &[Vec<FileHandle>],
    cursors: &[[u64; FILES]],
) -> FaultPlan {
    match kind {
        FaultKind::SectorErrors => {
            w.flush_all_caches();
            let cl = rng.gen_range(0..fhs.len());
            let f = rng.gen_range(0..FILES);
            // Anchor the defect neighbourhood at the chosen file's cursor:
            // the faults are installed before the batch issues, and 70% of
            // its reads continue from exactly there.
            let blk = cursors[cl][f].min(FILE_BLOCKS - 1);
            let (start, sectors) = match w.fs().inode(fhs[cl][f].ino) {
                Some(ino) => (ino.lba_of(blk), 16 * ffs::BLOCK_SECTORS),
                None => w.allocated_span(),
            };
            FaultPlan::seeded_sector_errors(rng, start, sectors)
        }
        FaultKind::StuckTag => FaultPlan::seeded_stuck_tag(rng),
        FaultKind::FirmwareStall => FaultPlan::seeded_firmware_stall(rng, w.now()),
        FaultKind::FailSlow => {
            let (start, sectors) = w.allocated_span();
            FaultPlan::seeded_fail_slow(rng, start, sectors)
        }
        other => unreachable!("{other:?} is not a disk fault kind"),
    }
}

/// Reverts every active fault: the baseline link and pool sizes, and no
/// disk fault model. A stall simply expires; a flush is one-shot.
fn revert_faults(w: &mut NfsWorld, base: &WorldConfig) {
    let now = w.now();
    w.set_link_profile(base.link);
    w.set_nfsds(now, NFSDS);
    w.set_nfsiods(base.nfsiods);
    w.set_disk_fault_model(None);
}

/// Sums one stats struct per client host into cluster-wide books.
fn summed<T: Tally + Default>(per_host: impl Iterator<Item = T>) -> T {
    per_host.fold(T::default(), |mut total, s| {
        total.tally(&s);
        total
    })
}

/// Executes a spec's plan and checks every oracle ([`Spec::run`]).
#[allow(clippy::too_many_lines)]
fn execute(spec: &Spec) -> Result<RunReport, OracleFailure> {
    let plan = spec.plan();
    let seed = spec.seed;
    let clients = spec.clients.max(1);
    let fail = |oracle: &'static str, detail: String| spec.failure(oracle, detail);

    // Storm runs arm the attribute cache at the classic NFS client
    // defaults (acregmin=3s, acregmax=60s); everywhere else both stay
    // ZERO and the cache machinery must be provably inert.
    let (stable_how, attr_timeo_min, attr_timeo_max) = match spec.workload {
        Workload::Classic => (StableHow::FileSync, SimDuration::ZERO, SimDuration::ZERO),
        Workload::WriteLoss => (StableHow::Unstable, SimDuration::ZERO, SimDuration::ZERO),
        Workload::MetaStorm => (
            StableHow::FileSync,
            SimDuration::from_secs(3),
            SimDuration::from_secs(60),
        ),
    };
    let base = WorldConfig {
        transport: plan.transport,
        stable_how,
        attr_timeo_min,
        attr_timeo_max,
        ..WorldConfig::default()
    };
    let mut rng = SimRng::from_seed_and_stream(seed, 0x574F_524B_4C44); // "WORKLD"
    let mut w = ClusterConfig::uniform(base, clients).build_world(Rig::scsi(1), seed);
    let fhs: Vec<Vec<FileHandle>> = (0..clients)
        .map(|c| {
            (0..FILES)
                .map(|_| w.create_file_for(c, FILE_BLOCKS * BS))
                .collect()
        })
        .collect();
    let mut cursors = vec![[0u64; FILES]; clients];
    // Write-loss bookkeeping: independent sequential write cursors, the
    // shadow set of every block written per (client, file) since its last
    // settled close, the in-flight close per file (the world forbids two
    // concurrent closes of one file), and which op is a close of what.
    let mut wcursors = vec![[0u64; FILES]; clients];
    let mut shadow: HashMap<(usize, usize), BTreeSet<u64>> = HashMap::new();
    let mut close_pending: HashSet<(usize, usize)> = HashSet::new();
    let mut close_ops: HashMap<OpId, (usize, usize, BTreeSet<u64>)> = HashMap::new();

    let mut bk = Books {
        issued: BTreeMap::new(),
        completed: HashSet::new(),
        lat: spec.hist_oracle.then(|| (LogHist::new(), Vec::new())),
        predicted_demand: 0,
        predicted_getattr_class: 0,
        ok_ops: 0,
        timed_out_ops: 0,
        eio_ops: 0,
        next_tag: 0,
        fp: FNV_BASIS,
        last_now: SimTime::ZERO,
        steps: 0,
    };
    let mut fault_active = false;
    let mut fault_log = Vec::new();
    // Disk error completions seen at the last batch boundary where no
    // fault model was installed — the restore-baseline oracle's watermark.
    let mut clean_watch: Option<u64> = None;

    for batch in 0..plan.batches {
        // Revert the previous batch's fault(s). One revert must compose
        // over however many faults were active.
        if fault_active {
            revert_faults(&mut w, &base);
            fault_active = false;

            // Restore-composition oracle: every host back at baseline.
            for c in 0..clients {
                if w.link_profile_for(c) != base.link {
                    return Err(fail(
                        "restore-composition",
                        format!(
                            "batch {batch}: client {c} link {:?} != baseline {:?}",
                            w.link_profile_for(c),
                            base.link
                        ),
                    ));
                }
                if w.nfsiods_for(c) != base.nfsiods {
                    return Err(fail(
                        "restore-composition",
                        format!(
                            "batch {batch}: client {c} nfsiods {} != baseline {}",
                            w.nfsiods_for(c),
                            base.nfsiods
                        ),
                    ));
                }
            }
            if w.nfsds() != NFSDS {
                return Err(fail(
                    "restore-composition",
                    format!("batch {batch}: nfsds {} != baseline {}", w.nfsds(), NFSDS),
                ));
            }
            if w.disk_fault_active() {
                return Err(fail(
                    "restore-composition",
                    format!("batch {batch}: disk fault model still installed after revert"),
                ));
            }
        }

        // Install this batch's disk fault (if any) *before* issuing: a
        // media defect is only observable under reads that reach the
        // platter, so the cache flush and fault plan land first and the
        // batch's demand misses read straight through them. An overlap
        // batch may carry two disk kinds, merged into the one model the
        // drive runs.
        let mut disk_plan: Option<FaultPlan> = None;
        for &(b, kind) in &plan.faults {
            if b == batch && FaultKind::DISK.contains(&kind) {
                let frag = disk_fault_plan(&mut w, kind, &mut rng, &fhs, &cursors);
                disk_plan = Some(match disk_plan.take() {
                    Some(mut acc) => {
                        acc.merge(frag);
                        acc
                    }
                    None => frag,
                });
                fault_active = true;
                fault_log.push(kind);
            }
        }
        if let Some(p) = disk_plan {
            w.set_disk_fault_model(Some(Box::new(FaultState::new(p))));
        }

        // Issue this batch's operations, predicting which blocks must be
        // fetched by a demand RPC (the block-conservation oracle's books).
        // The issuing client is drawn per operation only when the cluster
        // is wider than one host, so single-client runs consume exactly
        // the classic RNG stream and keep their pinned fingerprints.
        let now = w.now();
        let n_ops = rng.gen_range(4usize..10);
        for _ in 0..n_ops {
            let cl = if clients > 1 {
                rng.gen_range(0usize..clients)
            } else {
                0
            };
            let f = rng.gen_range(0usize..FILES);
            let fh = fhs[cl][f];
            let tag = bk.next_tag;
            bk.next_tag += 1;
            // One draw picks the op from the workload's mix; every draw a
            // mix leaves over is a READ. The write-loss mix is write-heavy:
            // sequential dirty runs feed the server's write gathering and
            // closes force COMMITs (and verifier comparisons) mid-run. The
            // storm mix is a build-tree walker's wire profile: GETATTR
            // polls dominate, open()-style forced revalidations and
            // LOOKUP/READDIR traffic ride along, and occasional writes move
            // the server's attributes so revalidations can detect
            // staleness. Only those mixes make their extra draws, so the
            // classic RNG stream — and its pinned fingerprints — never
            // sees them.
            let id = match (spec.workload, rng.gen_range(0u32..10)) {
                (Workload::WriteLoss, 0..=3) => {
                    let len = rng.gen_range(1u64..5);
                    let start = wcursors[cl][f].min(FILE_BLOCKS - len);
                    wcursors[cl][f] = (start + len) % FILE_BLOCKS;
                    shadow
                        .entry((cl, f))
                        .or_default()
                        .extend(start..start + len);
                    w.write_from(cl, now, fh, start * BS, len * BS, tag)
                }
                (Workload::WriteLoss, 4) if !close_pending.contains(&(cl, f)) => {
                    close_pending.insert((cl, f));
                    let snap = shadow.remove(&(cl, f)).unwrap_or_default();
                    let id = w.close_from(cl, now, fh, tag);
                    close_ops.insert(id, (cl, f, snap));
                    id
                }
                (Workload::WriteLoss, 5) | (Workload::Classic, 1) => {
                    w.getattr_from(cl, now, fh, tag)
                }
                (Workload::Classic | Workload::MetaStorm, 0) => {
                    let blk = rng.gen_range(0u64..FILE_BLOCKS);
                    w.write_from(cl, now, fh, blk * BS, BS, tag)
                }
                (Workload::MetaStorm, 1) => {
                    let name_len = rng.gen_range(3u32..16);
                    w.lookup_from(cl, now, fh, name_len, tag)
                }
                (Workload::MetaStorm, 2) => {
                    let entries = rng.gen_range(4u32..32);
                    w.readdir_from(cl, now, fh, 0, entries, true, tag)
                }
                (Workload::MetaStorm, 3 | 4) => {
                    bk.predicted_getattr_class += 1;
                    w.open_from(cl, now, fh, tag)
                }
                (Workload::MetaStorm, 5..=8) => {
                    bk.predicted_getattr_class += 1;
                    w.getattr_from(cl, now, fh, tag)
                }
                _ => {
                    let len_blocks = rng.gen_range(1u64..4);
                    let start = if rng.chance(0.7) {
                        cursors[cl][f]
                    } else {
                        rng.gen_range(0u64..FILE_BLOCKS)
                    }
                    .min(FILE_BLOCKS - len_blocks);
                    cursors[cl][f] = (start + len_blocks) % FILE_BLOCKS;
                    for blk in start..start + len_blocks {
                        if w.block_state_for(cl, fh, blk) == BlockState::Absent {
                            bk.predicted_demand += 1;
                        }
                    }
                    w.read_from(cl, now, fh, start * BS, len_blocks * BS, tag)
                }
            };
            bk.issued.insert(id, IssueRec { tag, at: now });
        }

        // Crash batches: in write-loss mode every `nfsd` outage becomes a
        // server crash. Drain only a few milliseconds first — less than
        // the 30 ms gather window, so the batch's UNSTABLE WRITEs have
        // reached the server's dirty pool but the pool has not flushed —
        // then (below, once the outage is in force) lose the pool and
        // change the verifier. Data acked UNSTABLE before the crash is
        // exactly the data RFC 1813 lets a server lose.
        let crash_batch = spec.workload == Workload::WriteLoss
            && plan
                .faults
                .iter()
                .any(|&(b, k)| b == batch && k == FaultKind::NfsdOutage);
        if crash_batch {
            let horizon = w.now() + SimDuration::from_millis(rng.gen_range(2u64..20));
            let done = drain_until(&mut w, &mut bk, Some(horizon), batch, &fail)?;
            settle_closes(
                &w,
                &done,
                &mut close_ops,
                &mut close_pending,
                &mut shadow,
                &fhs,
                &fail,
            )?;
        }

        // Inject this batch's classic fault(s) while those operations are
        // in flight.
        let mut outage_pending = false;
        for &(b, kind) in &plan.faults {
            if b == batch && !FaultKind::DISK.contains(&kind) {
                apply_fault(&mut w, kind, &mut rng, &base);
                fault_active = true;
                // `|=`: under overlap scheduling a second fault in the same
                // batch must not forget that an outage is in force.
                outage_pending |= kind == FaultKind::NfsdOutage;
                fault_log.push(kind);
            }
        }
        if crash_batch {
            // The outage is now in force (zero nfsds: nothing serves) and
            // the gather window has not expired: crash. The dirty pool is
            // lost, the verifier changes, in-flight disk I/O completes,
            // and parked calls survive to be served after the restore.
            w.restart_server(w.now());
        }
        if batch == 1 && spec.sabotage_replies > 0 {
            w.sabotage_drop_next_replies(spec.sabotage_replies);
        }

        // Drain to quiescence, checking per-event oracles. A zero-`nfsd`
        // outage starves the world to quiescence with calls still parked
        // at the server (and, on TCP, operations still waiting on them:
        // TCP never retransmits RPCs, so nothing times out). Once the
        // world goes quiet, restore the pool and keep draining so every
        // parked call is answered or retired stale before the
        // end-of-batch oracles run.
        loop {
            let done = drain_until(&mut w, &mut bk, None, batch, &fail)?;
            if spec.workload == Workload::WriteLoss {
                settle_closes(
                    &w,
                    &done,
                    &mut close_ops,
                    &mut close_pending,
                    &mut shadow,
                    &fhs,
                    &fail,
                )?;
            }
            if outage_pending {
                outage_pending = false;
                w.set_nfsds(w.now(), NFSDS);
                continue;
            }
            break;
        }

        // Quiescent with operations still open: something is stuck.
        if !w.outstanding_ops().is_empty() {
            return Err(fail(
                "no-stuck-ops",
                format!(
                    "batch {batch} quiesced with operations {:?} hung on xids {:?}",
                    w.outstanding_ops(),
                    w.outstanding_xids()
                ),
            ));
        }

        // Dirty-page books, at every batch boundary: every block that ever
        // entered the server's dirty pool was flushed to disk, lost to a
        // crash, or is still sitting in the pool. Cheap and always on —
        // in clean mode all four terms are zero.
        let ss = w.server_stats();
        if ss.dirty_blocks_stashed
            != ss.dirty_blocks_flushed + ss.dirty_blocks_lost + w.server_dirty_blocks()
        {
            return Err(fail(
                "dirty-books",
                format!(
                    "batch {batch}: stashed {} != flushed {} + lost {} + pooled {}",
                    ss.dirty_blocks_stashed,
                    ss.dirty_blocks_flushed,
                    ss.dirty_blocks_lost,
                    w.server_dirty_blocks()
                ),
            ));
        }

        // Restore-baseline oracle: a drive whose fault model was removed
        // (or never installed) must produce no new disk error completions
        // across a whole batch — reverting a disk fault really returns
        // the disk to its healthy baseline.
        let errs = w.bio_stats().error_completions;
        if w.disk_fault_active() {
            clean_watch = None;
        } else {
            if let Some(mark) = clean_watch {
                if errs != mark {
                    return Err(fail(
                        "restore-baseline",
                        format!(
                            "batch {batch}: {} disk error completions on a healthy drive",
                            errs - mark
                        ),
                    ));
                }
            }
            clean_watch = Some(errs);
        }
    }

    // Write-loss epilogue: close every file on every client, so each
    // client's write-behind cache must drain — every block still dirty or
    // acked-only-UNSTABLE gets pushed, COMMITted, and verifier-checked
    // (rewriting after any crash the run injected) before the end-of-run
    // books are read. Any fault still active from the final batch is
    // reverted first; the closes run against a healthy world.
    if spec.workload == Workload::WriteLoss {
        if fault_active {
            revert_faults(&mut w, &base);
        }
        let now = w.now();
        for (cl, row) in fhs.iter().enumerate().take(clients) {
            for (f, &fh) in row.iter().enumerate().take(FILES) {
                if close_pending.contains(&(cl, f)) {
                    continue;
                }
                let tag = bk.next_tag;
                bk.next_tag += 1;
                close_pending.insert((cl, f));
                let snap = shadow.remove(&(cl, f)).unwrap_or_default();
                let id = w.close_from(cl, now, fh, tag);
                close_ops.insert(id, (cl, f, snap));
                bk.issued.insert(id, IssueRec { tag, at: now });
            }
        }
        let done = drain_until(&mut w, &mut bk, None, plan.batches, &fail)?;
        settle_closes(
            &w,
            &done,
            &mut close_ops,
            &mut close_pending,
            &mut shadow,
            &fhs,
            &fail,
        )?;
        for cl in 0..clients {
            if w.client_uncommitted_blocks(cl) != 0 {
                return Err(fail(
                    "write-behind-drained",
                    format!(
                        "client {cl} still tracks {} uncommitted blocks after every file closed",
                        w.client_uncommitted_blocks(cl)
                    ),
                ));
            }
        }
    }

    // ------------------------------------------------------------------
    // End-of-run oracles, over the cluster-wide summed books.
    // ------------------------------------------------------------------
    let c: ClientStats = summed((0..w.n_clients()).map(|i| w.client_stats_for(i)));
    let s = w.server_stats();
    let c2s: LinkStats = summed((0..clients).map(|i| w.c2s_stats_for(i)));
    let s2c: LinkStats = summed((0..clients).map(|i| w.s2c_stats_for(i)));

    if bk.issued.len() != bk.completed.len() {
        let hung: Vec<&OpId> = bk
            .issued
            .keys()
            .filter(|id| !bk.completed.contains(id))
            .collect();
        return Err(fail(
            "no-stuck-ops",
            format!(
                "{} operations never completed: {:?}; outstanding xids {:?}",
                hung.len(),
                hung,
                w.outstanding_xids()
            ),
        ));
    }
    if !w.outstanding_xids().is_empty() {
        return Err(fail(
            "no-stuck-ops",
            format!("xids {:?} never retired", w.outstanding_xids()),
        ));
    }

    // Block conservation: every predicted demand miss produced exactly one
    // READ RPC, and every other READ RPC was a read-ahead.
    if c.rpcs != bk.predicted_demand + c.readahead_rpcs {
        return Err(fail(
            "block-conservation",
            format!(
                "READ RPCs {} != predicted demand misses {} + read-aheads {}",
                c.rpcs, bk.predicted_demand, c.readahead_rpcs
            ),
        ));
    }

    // RPC conservation: link counters reconcile with both endpoints'
    // books. On TCP the link's `messages` includes internal segment
    // retransmissions, so only delivery counts are exact there.
    if plan.transport == TransportKind::Udp {
        if c.transmissions != c2s.messages {
            return Err(fail(
                "rpc-conservation",
                format!(
                    "client transmissions {} != c2s link messages {}",
                    c.transmissions, c2s.messages
                ),
            ));
        }
        if s.replies != s2c.messages {
            return Err(fail(
                "reply-conservation",
                format!(
                    "server replies {} != s2c link messages {}",
                    s.replies, s2c.messages
                ),
            ));
        }
    }
    let delivered_calls = c2s.messages - c2s.lost;
    let accepted = s.reads + s.other_calls + s.duplicates_dropped + s.orphan_calls;
    if delivered_calls != accepted {
        return Err(fail(
            "rpc-conservation",
            format!(
                "calls delivered {delivered_calls} != server arrivals {accepted} \
                 (reads {} + other {} + duplicates {} + orphans {})",
                s.reads, s.other_calls, s.duplicates_dropped, s.orphan_calls
            ),
        ));
    }
    let delivered_replies = s2c.messages - s2c.lost;
    if c.replies_received + c.duplicate_replies != delivered_replies {
        return Err(fail(
            "reply-conservation",
            format!(
                "replies delivered {delivered_replies} != client arrivals {} + duplicates {}",
                c.replies_received, c.duplicate_replies
            ),
        ));
    }
    // Server-side conservation: every accepted call is replied to or
    // dropped as stale after acceptance.
    if s.replies + s.stale_drops != s.reads + s.other_calls {
        return Err(fail(
            "server-conservation",
            format!(
                "replies {} + stale drops {} != reads {} + other calls {}",
                s.replies, s.stale_drops, s.reads, s.other_calls
            ),
        ));
    }
    // Contention attribution: the server's aggregate ejection and
    // duplicate-cache counters must be fully accounted to specific
    // clients — no anonymous interference.
    let ejections_attributed: u64 = (0..clients)
        .map(|i| w.contention_stats(i).heur_ejections_caused)
        .sum();
    if ejections_attributed != s.heur_ejections {
        return Err(fail(
            "contention-attribution",
            format!(
                "per-client ejections {} != server ejections {}",
                ejections_attributed, s.heur_ejections
            ),
        ));
    }
    let dups_attributed: u64 = (0..clients)
        .map(|i| w.contention_stats(i).duplicate_cache_hits)
        .sum();
    if dups_attributed != s.duplicates_dropped {
        return Err(fail(
            "contention-attribution",
            format!(
                "per-client duplicate-cache hits {} != server duplicates dropped {}",
                dups_attributed, s.duplicates_dropped
            ),
        ));
    }

    // Disk error books: every error completion was either retried below
    // NFS or surfaced as exactly one EIO; every EIO was a hard error or a
    // transient that exhausted its retries; retries stayed within the bio
    // layer's cap; no retry is still parked after quiescence.
    let bio = w.bio_stats();
    if bio.error_completions != bio.retries + bio.eio {
        return Err(fail(
            "disk-books",
            format!(
                "error completions {} != retries {} + EIOs {}",
                bio.error_completions, bio.retries, bio.eio
            ),
        ));
    }
    if bio.eio != bio.hard_errors + bio.transient_exhausted {
        return Err(fail(
            "disk-books",
            format!(
                "EIOs {} != hard errors {} + exhausted transients {}",
                bio.eio, bio.hard_errors, bio.transient_exhausted
            ),
        ));
    }
    if bio.max_attempts > ffs::MAX_IO_RETRIES {
        return Err(fail(
            "bounded-retries",
            format!(
                "a request was attempted {} times, cap is {}",
                bio.max_attempts,
                ffs::MAX_IO_RETRIES
            ),
        ));
    }
    if !spec.disk_faults && (bio.error_completions != 0 || s.disk_eios != 0) {
        return Err(fail(
            "disk-books",
            format!(
                "healthy run produced disk errors: {} completions, {} EIOs",
                bio.error_completions, s.disk_eios
            ),
        ));
    }
    // Every EIO the server returned is attributed to a specific client.
    let eios_attributed: u64 = (0..clients)
        .map(|i| w.contention_stats(i).disk_eios_suffered)
        .sum();
    if eios_attributed != s.disk_eios {
        return Err(fail(
            "contention-attribution",
            format!(
                "per-client disk EIOs {} != server disk EIOs {}",
                eios_attributed, s.disk_eios
            ),
        ));
    }

    // TCP segment books, per client per direction: every segment ever
    // sent is acked, still in flight, or tracked as lost awaiting
    // retransmission (at quiescence the latter two are zero unless a
    // segment was abandoned mid-blackout); in-order delivery was never
    // violated; and every segment that survived the link was delivered
    // to the peer exactly once.
    if plan.transport == TransportKind::Tcp {
        for cl in 0..clients {
            let Some((tc2s, ts2c)) = w.tcp_stats_for(cl) else {
                return Err(fail(
                    "tcp-books",
                    format!("client {cl}: TCP run has no TCP stream stats"),
                ));
            };
            for (dir, t, link) in [
                ("c2s", tc2s, w.c2s_stats_for(cl)),
                ("s2c", ts2c, w.s2c_stats_for(cl)),
            ] {
                if t.segments_sent != t.acked + t.in_flight + t.lost_tracked {
                    return Err(fail(
                        "tcp-books",
                        format!(
                            "client {cl} {dir}: segments_sent {} != acked {} \
                             + in_flight {} + lost_tracked {}",
                            t.segments_sent, t.acked, t.in_flight, t.lost_tracked
                        ),
                    ));
                }
                if t.order_violations != 0 {
                    return Err(fail(
                        "tcp-order",
                        format!(
                            "client {cl} {dir}: {} in-order delivery violations",
                            t.order_violations
                        ),
                    ));
                }
                if t.delivered != link.messages - link.lost {
                    return Err(fail(
                        "tcp-books",
                        format!(
                            "client {cl} {dir}: delivered {} != link messages {} - lost {}",
                            t.delivered, link.messages, link.lost
                        ),
                    ));
                }
            }
        }
    }

    // Async-write books. The dirty-page identity was checked per batch;
    // here the crash-detection implications close the loop: the only way
    // a client sees a verifier mismatch is an injected restart, the only
    // way a block is rewritten is a detected mismatch, and a FILE_SYNC
    // run must never wake the async machinery at all.
    if s.dirty_blocks_stashed
        != s.dirty_blocks_flushed + s.dirty_blocks_lost + w.server_dirty_blocks()
    {
        return Err(fail(
            "dirty-books",
            format!(
                "stashed {} != flushed {} + lost {} + pooled {}",
                s.dirty_blocks_stashed,
                s.dirty_blocks_flushed,
                s.dirty_blocks_lost,
                w.server_dirty_blocks()
            ),
        ));
    }
    if c.verifier_mismatches > 0 && s.restarts == 0 {
        return Err(fail(
            "crash-detection",
            format!(
                "{} verifier mismatches with zero server restarts",
                c.verifier_mismatches
            ),
        ));
    }
    if c.blocks_rewritten > 0 && c.verifier_mismatches == 0 {
        return Err(fail(
            "crash-detection",
            format!(
                "{} blocks rewritten with no verifier mismatch detected",
                c.blocks_rewritten
            ),
        ));
    }
    if spec.workload != Workload::WriteLoss
        && (s.unstable_writes != 0
            || s.commits != 0
            || s.dirty_blocks_stashed != 0
            || c.write_rpcs != 0
            || c.commit_rpcs != 0
            || c.verifier_mismatches != 0
            || c.blocks_rewritten != 0)
    {
        return Err(fail(
            "async-dormancy",
            format!(
                "FILE_SYNC run touched the async write path: server \
                 unstable {} commits {} stashed {}, client write RPCs {} \
                 commit RPCs {} mismatches {} rewritten {}",
                s.unstable_writes,
                s.commits,
                s.dirty_blocks_stashed,
                c.write_rpcs,
                c.commit_rpcs,
                c.verifier_mismatches,
                c.blocks_rewritten
            ),
        ));
    }

    // Attribute-cache books. In storm mode every getattr-class op the
    // workload issued (GETATTR polls plus open()-style revalidations) is
    // either a local cache hit or exactly one wire GETATTR, every wire
    // GETATTR is a cold miss or a revalidation of a known entry, and a
    // staleness detection can only come out of a revalidation. Outside
    // storm mode the cache is disarmed and all of its counters — and its
    // entry table — must be zero: the machinery is provably inert.
    if spec.workload == Workload::MetaStorm {
        if c.attr_cache_hits + c.getattr_rpcs != bk.predicted_getattr_class {
            return Err(fail(
                "attrcache-books",
                format!(
                    "hits {} + wire GETATTRs {} != getattr-class ops issued {}",
                    c.attr_cache_hits, c.getattr_rpcs, bk.predicted_getattr_class
                ),
            ));
        }
        if c.getattr_rpcs != c.attr_cache_misses + c.attr_revalidations {
            return Err(fail(
                "attrcache-books",
                format!(
                    "wire GETATTRs {} != misses {} + revalidations {}",
                    c.getattr_rpcs, c.attr_cache_misses, c.attr_revalidations
                ),
            ));
        }
        if c.attr_stale_detected > c.attr_revalidations {
            return Err(fail(
                "attrcache-books",
                format!(
                    "{} staleness detections exceed {} revalidations",
                    c.attr_stale_detected, c.attr_revalidations
                ),
            ));
        }
    } else {
        let entries: usize = (0..clients).map(|i| w.attr_cache_entries(i)).sum();
        if c.attr_cache_hits != 0
            || c.attr_cache_misses != 0
            || c.attr_revalidations != 0
            || c.attr_stale_detected != 0
            || c.attr_invalidations != 0
            || entries != 0
        {
            return Err(fail(
                "attrcache-dormancy",
                format!(
                    "disarmed cache moved: hits {} misses {} revalidations {} \
                     stale {} invalidations {} entries {}",
                    c.attr_cache_hits,
                    c.attr_cache_misses,
                    c.attr_revalidations,
                    c.attr_stale_detected,
                    c.attr_invalidations,
                    entries
                ),
            ));
        }
    }

    for v in [
        c.ops,
        c.rpcs,
        c.readahead_rpcs,
        c.retransmits,
        c.rpc_timeouts,
        c.transmissions,
        s.reads,
        s.replies,
        s.reordered,
        bk.last_now.as_nanos(),
    ] {
        bk.fp = fnv1a(bk.fp, &v.to_le_bytes());
    }
    if spec.disk_faults {
        // Disk-fault runs fold the error books into the fingerprint too.
        // Conditional so disk-free fingerprints stay pinned.
        for v in [bio.error_completions, bio.retries, bio.eio, s.disk_eios] {
            bk.fp = fnv1a(bk.fp, &v.to_le_bytes());
        }
    }
    if spec.workload == Workload::WriteLoss {
        // Write-loss runs fold the async write path's books in, so the
        // determinism oracle covers gathering, crashes, and rewrites too.
        // Conditional so clean-mode fingerprints stay pinned.
        for v in [
            s.unstable_writes,
            s.commits,
            s.gather_flushes,
            s.dirty_blocks_stashed,
            s.dirty_blocks_flushed,
            s.dirty_blocks_lost,
            s.restarts,
            c.write_rpcs,
            c.commit_rpcs,
            c.verifier_mismatches,
            c.blocks_rewritten,
        ] {
            bk.fp = fnv1a(bk.fp, &v.to_le_bytes());
        }
    }
    if spec.workload == Workload::MetaStorm {
        // Storm runs fold the metadata and attribute-cache books in, so
        // the determinism oracle covers hit/miss/revalidation scheduling.
        // Conditional so classic fingerprints stay pinned.
        for v in [
            c.getattr_rpcs,
            c.lookup_rpcs,
            c.readdir_rpcs,
            c.attr_cache_hits,
            c.attr_cache_misses,
            c.attr_revalidations,
            c.attr_stale_detected,
            c.attr_invalidations,
            s.getattrs,
            s.lookups,
            s.readdirs,
        ] {
            bk.fp = fnv1a(bk.fp, &v.to_le_bytes());
        }
    }
    if plan.transport == TransportKind::Tcp {
        // TCP runs fold the summed segment books in as well (both
        // directions of every host), so the determinism oracle covers the
        // retransmission engine's internal schedule, not just RPC-visible
        // outcomes. Conditional so UDP fingerprints stay pinned.
        let mut tsum = c.tcp_c2s;
        tsum.tally(&c.tcp_s2c);
        for v in [
            tsum.segments_sent,
            tsum.retransmits,
            tsum.fast_retransmits,
            tsum.timeouts,
            tsum.rto_backoffs,
            tsum.lost_tracked,
        ] {
            bk.fp = fnv1a(bk.fp, &v.to_le_bytes());
        }
    }

    // ------------------------------------------------------------------
    // Latency-histogram oracle: the streaming LogHist the tail-latency
    // instrumentation is built on must agree with ground truth.
    // ------------------------------------------------------------------
    let mut lat_p99_ns = 0;
    let mut lat_p999_ns = 0;
    if let Some((hist, mut exact)) = bk.lat.take() {
        if hist.total() != exact.len() as u64 {
            return Err(fail(
                "latency-histogram",
                format!(
                    "histogram count {} != completions recorded {}",
                    hist.total(),
                    exact.len()
                ),
            ));
        }
        if !exact.is_empty() {
            exact.sort_unstable();
            if hist.max() != exact.last().copied() || hist.min() != exact.first().copied() {
                return Err(fail(
                    "latency-histogram",
                    format!(
                        "extremes drifted: hist {:?}..{:?} vs exact {}..{}",
                        hist.min(),
                        hist.max(),
                        exact.first().expect("non-empty"),
                        exact.last().expect("non-empty")
                    ),
                ));
            }
            // Monotone quantiles, each within the documented relative
            // error (1/64 bucket width; allow 1/32 plus a nanosecond of
            // slack for midpoint reporting) of the exact order statistic.
            let mut prev = 0u64;
            for q in [0.50, 0.90, 0.99, 0.999] {
                let h = hist.quantile(q).expect("non-empty");
                if h < prev {
                    return Err(fail(
                        "latency-histogram",
                        format!("quantiles not monotone at p{}", q * 100.0),
                    ));
                }
                prev = h;
                let rank = (q * (exact.len() - 1) as f64).floor() as usize;
                let e = exact[rank];
                let tol = e / 32 + 1;
                if h.abs_diff(e) > tol {
                    return Err(fail(
                        "latency-histogram",
                        format!(
                            "p{} drifted: streaming {h} vs exact {e} (tol {tol})",
                            q * 100.0
                        ),
                    ));
                }
            }
            let p999 = hist.quantile(0.999).expect("non-empty");
            if p999 > bk.last_now.as_nanos() {
                return Err(fail(
                    "latency-histogram",
                    format!(
                        "p99.9 {} ns exceeds the whole run ({} ns)",
                        p999,
                        bk.last_now.as_nanos()
                    ),
                ));
            }
            lat_p99_ns = hist.quantile(0.99).expect("non-empty");
            lat_p999_ns = p999;
        }
    }

    Ok(RunReport {
        seed,
        transport: plan.transport,
        ok_ops: bk.ok_ops,
        timed_out_ops: bk.timed_out_ops,
        eio_ops: bk.eio_ops,
        faults: fault_log,
        client: c,
        server: s,
        bio,
        lat_p99_ns,
        lat_p999_ns,
        fingerprint: bk.fp,
        sim_nanos: bk.last_now.as_nanos(),
    })
}
