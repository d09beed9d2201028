//! Fleet scale: one sharded world of up to 100 000 NFS clients.
//!
//! [`testbed::ClusterBench`] models every reader as a full
//! [`nfssim::NfsWorld`] client host — kilobytes of cache, transport, and
//! bookkeeping state per reader. That is the right fidelity for the
//! paper's 8-host testbed and hopeless for a fleet: 100 000 hosts of
//! per-host state is gigabytes before the first RPC moves.
//!
//! This module flips the representation. A **fleet client** is ~24 bytes
//! of struct-of-arrays hot state (cursor, remaining ops, host binding,
//! issue stamp) in a per-group arena; the expensive machinery — caches,
//! transports, `nfsiod` pools — exists only per *host*, and a bounded set
//! of hosts per group multiplexes the fleet the way a load balancer
//! multiplexes tenants onto backends. Latency samples stream into a
//! mergeable [`LogHist`] (≈30 KB per group, any client count), so
//! p50/p99/p99.9 survive at 100k clients in bounded memory.
//!
//! The fleet is sharded with [`simfleet::run_sharded`]: groups own
//! disjoint client ranges, run independently between fixed time barriers,
//! and exchange **migration** messages at barriers — a group whose epoch
//! mean latency exceeds the shed threshold pushes not-yet-arrived clients
//! to its neighbour (the state travels in the message; no cross-thread
//! mutation). Per `run_sharded`'s contract the result is bit-identical at
//! any shard count, which [`FleetReport::fingerprint`] pins.

use diskfault::{FaultPlan, FaultState};
use nfsproto::FileHandle;
use nfssim::{NfsWorld, OpDone, OpOutcome, WorldConfig};
use simcore::{LogHist, SimDuration, SimRng, SimTime, Tally};
use simfleet::{run_sharded, ShardRunStats, ShardWorld};
use testbed::{ClusterConfig, Rig};

/// Per-op client CPU cost between a completion and the next issue
/// (same figure [`testbed::ClusterBench`] charges its reader processes).
const PROC_READ_CPU: SimDuration = SimDuration::from_micros(15);

/// Fleet clients read in 8 KB ops, the v2-era wire size.
const READ_BYTES: u64 = 8_192;

/// RNG stream offset for fleet-level draws (arrival jitter, fault plans);
/// far from the per-client gamma streams the worlds use internally.
const FLEET_STREAM: u64 = 0xF1EE7;

/// splitmix64 finalizer: the hash behind per-client arrival jitter.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a fold, the same mixing simtest fingerprints use.
fn fnv(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Everything tunable about a fleet run. Plain data; a fleet run is a
/// pure function of `(FleetConfig, seed)`.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Server/protocol parameters shared by every group's world.
    pub world: WorldConfig,
    /// Total fleet clients (split round-robin across groups).
    pub clients: usize,
    /// Independent groups (each a full server + host set). More groups =
    /// more shard parallelism and more aggregate disk throughput.
    pub groups: usize,
    /// Full client hosts per group that the fleet multiplexes onto.
    pub hosts_per_group: usize,
    /// Pre-created files per host that clients read from.
    pub files_per_host: usize,
    /// Size of each file in 8 KB blocks.
    pub file_blocks: u64,
    /// Sequential 8 KB reads each client performs (closed loop).
    pub ops_per_client: u32,
    /// Window over which client arrivals are staggered.
    pub arrival_window: SimDuration,
    /// Epoch length: the barrier cadence of the sharded run.
    pub barrier: SimDuration,
    /// Epoch mean latency above which a group sheds future arrivals to
    /// its neighbour.
    pub shed_threshold: SimDuration,
    /// Most clients shed per group per epoch.
    pub shed_max: usize,
    /// Every `degraded_every`-th group (counting from group index
    /// `degraded_every - 1`) gets a seeded fail-slow disk; `0` disables.
    pub degraded_every: usize,
    /// Percent of each client's ops that are metadata probes (GETATTR,
    /// LOOKUP, READDIR round-robin by a per-op hash) instead of reads.
    /// `0` (the default) issues pure reads and is bit-identical to the
    /// fleet before metadata mixes existed.
    pub meta_ratio_pct: u8,
}

impl FleetConfig {
    /// A scale profile for `clients` total clients: enough groups that
    /// per-group disk throughput can absorb the arrival rate, small
    /// per-host caches so the working set actually touches the disk, and
    /// an arrival window sized so healthy groups run near (but under)
    /// saturation while fail-slow groups tip over and shed.
    pub fn scale(clients: usize) -> Self {
        let groups = clients.div_ceil(3_125).clamp(1, 64);
        let per_group = clients.div_ceil(groups.max(1)).max(1);
        // ~40 arrivals/s/group against a disk good for ~65 closed-loop
        // clients/s (measured): healthy groups run busy but stable;
        // fail-slow groups tip over and shed.
        let window_secs = (per_group as f64 / 40.0).max(2.0);
        // Fleet hosts are thin: a small cache (forces real disk traffic)
        // and a modest iod pool, not the paper's 1 GB workstation.
        let world = WorldConfig {
            client_cache_blocks: 256,
            client_readahead_blocks: 4,
            nfsiods: 4,
            ..WorldConfig::default()
        };
        FleetConfig {
            world,
            clients,
            groups,
            hosts_per_group: 32,
            files_per_host: 2,
            file_blocks: 512,
            ops_per_client: 4,
            arrival_window: SimDuration::from_secs_f64(window_secs),
            barrier: SimDuration::from_millis(200),
            shed_threshold: SimDuration::from_millis(30),
            shed_max: 64,
            degraded_every: 4,
            meta_ratio_pct: 0,
        }
    }
}

/// A client whose state is in flight between groups: everything the
/// destination needs to adopt it.
#[derive(Debug, Clone, Copy)]
pub struct Migrant {
    /// Fleet-wide client id.
    pub id: u32,
    /// Reads it still owes.
    pub remaining: u32,
    /// Original arrival time. The destination honours it: shedding moves
    /// load sideways, it must not *accelerate* the schedule (issuing
    /// migrants on delivery re-creates the thundering herd one group
    /// over, and the whole fleet cascades).
    pub arrive_at: SimTime,
}

/// Struct-of-arrays arena of resident fleet clients. Parallel vectors
/// indexed by slot; freed slots are recycled in completion order (which
/// is deterministic, so slot assignment is too). ~24 bytes per client.
#[derive(Debug, Default)]
struct ClientArena {
    id: Vec<u32>,
    host: Vec<u16>,
    file: Vec<u16>,
    next_blk: Vec<u32>,
    remaining: Vec<u32>,
    issued_at: Vec<SimTime>,
    free: Vec<u32>,
}

impl ClientArena {
    fn alloc(&mut self) -> usize {
        if let Some(slot) = self.free.pop() {
            slot as usize
        } else {
            self.id.push(0);
            self.host.push(0);
            self.file.push(0);
            self.next_blk.push(0);
            self.remaining.push(0);
            self.issued_at.push(SimTime::ZERO);
            self.id.len() - 1
        }
    }

    fn release(&mut self, slot: usize) {
        self.free.push(slot as u32);
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.id.capacity() * size_of::<u32>()
            + self.host.capacity() * size_of::<u16>()
            + self.file.capacity() * size_of::<u16>()
            + self.next_blk.capacity() * size_of::<u32>()
            + self.remaining.capacity() * size_of::<u32>()
            + self.issued_at.capacity() * size_of::<SimTime>()
            + self.free.capacity() * size_of::<u32>()
    }
}

simcore::counters! {
    /// Per-group outcome counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct GroupBooks {
        issued: u64,
        meta: u64,
        ok: u64,
        eio: u64,
        timed_out: u64,
        migrated_in: u64,
        migrated_out: u64,
        shed_events: u64,
    }
}

/// One group of the fleet: a full [`NfsWorld`] (hosts + server + disk)
/// plus the SoA arena of fleet clients multiplexed onto it.
struct FleetGroup {
    gid: usize,
    groups: usize,
    world: NfsWorld,
    files: Vec<Vec<FileHandle>>,
    arena: ClientArena,
    /// Not-yet-arrived clients, ascending by arrival time; `sched_next`
    /// is the cursor, entries past it can still be shed.
    schedule: Vec<(SimTime, u32, u32)>,
    sched_next: usize,
    inflight: usize,
    next_serial: u32,
    file_blocks: u64,
    files_per_host: usize,
    hosts: usize,
    meta_ratio_pct: u8,
    barrier: SimDuration,
    shed_threshold: SimDuration,
    shed_max: usize,
    hist: LogHist,
    books: GroupBooks,
    /// FNV-1a over every completion `(id, done_at, outcome)` in
    /// completion order — the bit-identity witness.
    fp: u64,
    epoch_lat_sum: u128,
    epoch_lat_n: u64,
    /// Completion buffer the epoch loop reuses across `advance_into` calls.
    done: Vec<OpDone>,
}

impl FleetGroup {
    /// Binds a client to a host and file by resident serial number and
    /// seats it in the arena.
    fn admit(&mut self, id: u32, remaining: u32) -> usize {
        let serial = self.next_serial;
        self.next_serial += 1;
        let host = (serial as usize) % self.hosts;
        let file = (serial as usize / self.hosts) % self.files_per_host;
        let start_blk = (mix64(u64::from(id) ^ 0x5EED) % self.file_blocks) as u32;
        let slot = self.arena.alloc();
        self.arena.id[slot] = id;
        self.arena.host[slot] = host as u16;
        self.arena.file[slot] = file as u16;
        self.arena.next_blk[slot] = start_blk;
        self.arena.remaining[slot] = remaining;
        slot
    }

    /// Issues the next op for the client in `slot` at `now`: an 8 KB
    /// read, or — when the metadata mix is on — a hash-selected GETATTR,
    /// LOOKUP, or READDIR probe. The choice is a pure function of the
    /// client id and op cursor (no RNG draw), so a zero ratio issues the
    /// exact pre-mix read stream.
    fn issue(&mut self, slot: usize, now: SimTime) {
        let host = self.arena.host[slot] as usize;
        let fh = self.files[host][self.arena.file[slot] as usize];
        let blk = u64::from(self.arena.next_blk[slot]) % self.file_blocks;
        self.arena.issued_at[slot] = now;
        self.books.issued += 1;
        let tag = slot as u64;
        if self.meta_ratio_pct > 0 {
            let h = mix64(
                (u64::from(self.arena.id[slot]) << 32)
                    ^ u64::from(self.arena.next_blk[slot])
                    ^ 0x4D45_7441,
            );
            if h % 100 < u64::from(self.meta_ratio_pct) {
                self.books.meta += 1;
                match (h / 100) % 3 {
                    0 => {
                        self.world.getattr_from(host, now, fh, tag);
                    }
                    1 => {
                        self.world.lookup_from(host, now, fh, 8, tag);
                    }
                    _ => {
                        self.world.readdir_from(host, now, fh, 0, 16, true, tag);
                    }
                }
                return;
            }
        }
        self.world
            .read_from(host, now, fh, blk * READ_BYTES, READ_BYTES, tag);
    }

    /// Handles one completed read: sample latency, advance or retire the
    /// client.
    fn complete(&mut self, slot: usize, done_at: SimTime) {
        // `saturating_since`: a reissue 15 µs after a completion can be
        // overtaken by a read-ahead fill already scheduled inside that
        // window; the op then finishes "instantly" and rounding can land
        // a hair before the issue stamp.
        let lat = done_at
            .saturating_since(self.arena.issued_at[slot])
            .as_nanos();
        self.hist.add(lat);
        self.epoch_lat_sum += u128::from(lat);
        self.epoch_lat_n += 1;
        self.arena.next_blk[slot] = self.arena.next_blk[slot].wrapping_add(1);
        self.arena.remaining[slot] -= 1;
        if self.arena.remaining[slot] == 0 {
            self.arena.release(slot);
            self.inflight -= 1;
        } else {
            self.issue(slot, done_at + PROC_READ_CPU);
        }
    }
}

impl ShardWorld for FleetGroup {
    type Msg = Migrant;

    fn step(&mut self, epoch: u64, inbox: Vec<Migrant>) -> Vec<(usize, Migrant)> {
        let t_start = SimTime::ZERO + self.barrier.saturating_mul(epoch);
        let t_end = SimTime::ZERO + self.barrier.saturating_mul(epoch + 1);
        self.epoch_lat_sum = 0;
        self.epoch_lat_n = 0;

        // 1. Collect this epoch's arrivals: migrants at deterministic
        //    offsets inside the epoch (inbox order is the routed total
        //    order) merged with scheduled arrivals, in time order.
        let n_in = inbox.len() as u64;
        let mut arrivals: Vec<(SimTime, u32, u32)> = Vec::new();
        for (k, m) in inbox.into_iter().enumerate() {
            self.books.migrated_in += 1;
            if m.arrive_at >= t_end {
                // Still in the future: adopt into our own schedule at its
                // original time (it may be shed onward from here).
                let pos = self.sched_next
                    + self.schedule[self.sched_next..]
                        .partition_point(|&(t, id, _)| (t, id) < (m.arrive_at, m.id));
                self.schedule.insert(pos, (m.arrive_at, m.id, m.remaining));
            } else {
                // Already due (barrier latency ate its arrival time):
                // issue at a deterministic offset inside this epoch.
                let jitter =
                    SimDuration::from_nanos(self.barrier.as_nanos() * (k as u64 + 1) / (n_in + 1));
                arrivals.push((m.arrive_at.max(t_start + jitter), m.id, m.remaining));
            }
        }
        while self.sched_next < self.schedule.len() {
            let (t, id, remaining) = self.schedule[self.sched_next];
            if t >= t_end {
                break;
            }
            self.sched_next += 1;
            arrivals.push((t, id, remaining));
        }
        arrivals.sort_unstable_by_key(|&(t, id, _)| (t, id));

        // 2. Run the epoch: interleave arrivals with the event loop in
        //    time order, so a client issued at `t` never observes (or
        //    joins) in-flight state from events still queued before `t` —
        //    issuing a whole epoch's arrivals up front would let a read
        //    complete *before* its own issue time.
        let mut next_arrival = 0;
        loop {
            let next_ev = self.world.next_event().filter(|&t| t <= t_end);
            let due = arrivals
                .get(next_arrival)
                .filter(|&&(t, _, _)| next_ev.is_none_or(|te| t <= te));
            if let Some(&(t, id, remaining)) = due {
                next_arrival += 1;
                let slot = self.admit(id, remaining);
                self.inflight += 1;
                self.issue(slot, t);
                continue;
            }
            let Some(t) = next_ev else { break };
            let mut completed = std::mem::take(&mut self.done);
            self.world.advance_into(t, &mut completed);
            for done in completed.drain(..) {
                let slot = done.tag as usize;
                self.fp = fnv(self.fp, u64::from(self.arena.id[slot]));
                self.fp = fnv(self.fp, done.done_at.as_nanos());
                match done.outcome {
                    OpOutcome::Ok => {
                        self.fp = fnv(self.fp, 1);
                        self.books.ok += 1;
                        self.complete(slot, done.done_at);
                    }
                    OpOutcome::Eio { .. } => {
                        // Failed read: charge the latency, skip the block,
                        // keep going — a fleet client retries past bad
                        // sectors rather than wedging its slot.
                        self.fp = fnv(self.fp, 2);
                        self.books.eio += 1;
                        self.complete(slot, done.done_at);
                    }
                    _ => {
                        // RPC timeout: the mount is dead for this client;
                        // retire it so the fleet drains.
                        self.fp = fnv(self.fp, 3);
                        self.books.timed_out += 1;
                        self.arena.release(slot);
                        self.inflight -= 1;
                    }
                }
            }
            self.done = completed;
        }

        // 4. Load shed: if this epoch ran hot, push future arrivals to
        //    the neighbour. Only unissued schedule entries move, so the
        //    state transfer is a pure message — no world surgery.
        let mut out = Vec::new();
        if self.epoch_lat_n > 0 && self.groups > 1 {
            let mean = self.epoch_lat_sum / u128::from(self.epoch_lat_n);
            if mean > u128::from(self.shed_threshold.as_nanos()) {
                let dst = (self.gid + 1) % self.groups;
                let n = self.shed_max.min(self.schedule.len() - self.sched_next);
                for _ in 0..n {
                    let (arrive_at, id, remaining) = self.schedule.pop().expect("n bounded by len");
                    self.books.migrated_out += 1;
                    out.push((
                        dst,
                        Migrant {
                            id,
                            remaining,
                            arrive_at,
                        },
                    ));
                }
                if n > 0 {
                    self.books.shed_events += 1;
                }
            }
        }
        out
    }

    fn idle(&self) -> bool {
        self.inflight == 0 && self.sched_next >= self.schedule.len()
    }
}

/// Memory accounting for the scale claim: what the fleet representation
/// costs per client versus what one-full-host-per-client would cost.
#[derive(Debug, Clone, Copy)]
pub struct FleetMem {
    /// Resident bytes of the whole fleet's client-facing state: every
    /// group's world client state, SoA arenas, and histograms.
    pub fleet_bytes: usize,
    /// `fleet_bytes / clients`.
    pub per_client_bytes: usize,
    /// Measured bytes of one full client host in this fleet's worlds —
    /// what the pre-SoA representation would charge *each* client.
    pub full_host_bytes: usize,
    /// `full_host_bytes / per_client_bytes`: the headline reduction.
    pub reduction: f64,
}

/// Drive work summed over every group's disk: the counts behind the
/// fleet's per-command scheduling cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveWork {
    /// Commands the drives completed (reads and writes).
    pub commands: u64,
    /// Queued commands the tagged-queue scheduler scored.
    pub sptf_scores: u64,
    /// Cache segments examined to decide cache hits.
    pub cache_probes: u64,
}

/// What a fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Clients that completed all their reads.
    pub clients_done: u64,
    /// Ops issued fleet-wide (reads plus metadata probes).
    pub ops_issued: u64,
    /// Metadata probes among them (zero unless the mix is on).
    pub ops_meta: u64,
    /// Ops that completed `Ok`.
    pub ops_ok: u64,
    /// Reads that failed with `EIO` (fail-slow disks remap, so usually 0).
    pub ops_eio: u64,
    /// Clients retired by RPC timeout.
    pub clients_timed_out: u64,
    /// Clients that crossed a group boundary via load shedding.
    pub migrations: u64,
    /// Shed decisions (group-epochs that pushed load away).
    pub shed_events: u64,
    /// Streamed latency distribution over every completed read, ns.
    pub hist: LogHist,
    /// Fleet fingerprint: per-group completion-order FNV folds plus
    /// histogram fingerprints, folded in group order. Bit-identical at
    /// any shard count.
    pub fingerprint: u64,
    /// Simulated seconds the slowest group ran.
    pub sim_secs: f64,
    /// Barrier epochs and cross-group messages from the sharded run.
    pub shard_stats: ShardRunStats,
    /// The memory claim, measured not asserted.
    pub mem: FleetMem,
    /// Drive scheduling work over the whole run.
    pub drive: DriveWork,
}

impl FleetReport {
    /// Latency quantile in milliseconds (`None` until any read completes).
    pub fn latency_ms(&self, q: f64) -> Option<f64> {
        self.hist.quantile(q).map(|ns| ns as f64 / 1e6)
    }
}

/// The sharded fleet: builds `groups` worlds, scatters `clients` across
/// them, and runs to quiescence under [`run_sharded`].
pub struct FleetWorld {
    groups: Vec<FleetGroup>,
    clients: usize,
    ops_per_client: u32,
    max_epochs: u64,
}

impl FleetWorld {
    /// Builds the fleet. Each group gets its own seeded filesystem and
    /// world (derived from `seed` and the group index), its files
    /// pre-created, and its slice of the arrival schedule. Group
    /// construction is independent of shard count by construction.
    pub fn new(cfg: &FleetConfig, seed: u64) -> Self {
        assert!(cfg.clients > 0, "a fleet needs at least one client");
        assert!(cfg.groups > 0 && cfg.hosts_per_group > 0);
        assert!(cfg.file_blocks > 0 && cfg.files_per_host > 0);
        assert!(cfg.ops_per_client > 0);
        let window_ns = cfg.arrival_window.as_nanos().max(1);

        // Scatter arrivals: client i joins group i % groups at a hashed
        // offset inside the window. Sorted per group for the cursor.
        let mut schedules: Vec<Vec<(SimTime, u32, u32)>> = vec![Vec::new(); cfg.groups];
        for i in 0..cfg.clients {
            let t = SimTime::from_nanos(mix64(seed ^ (i as u64) << 1) % window_ns);
            schedules[i % cfg.groups].push((t, i as u32, cfg.ops_per_client));
        }
        for s in &mut schedules {
            s.sort_unstable_by_key(|&(t, id, _)| (t, id));
        }

        let groups = schedules
            .into_iter()
            .enumerate()
            .map(|(gid, schedule)| {
                let gseed = seed.wrapping_add((gid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let cluster = ClusterConfig::uniform(cfg.world, cfg.hosts_per_group);
                let fs = Rig::scsi(1).build_fs(gseed);
                let mut world = NfsWorld::new_cluster(cluster.world, &cluster.hosts, fs, gseed);
                let files: Vec<Vec<FileHandle>> = (0..cfg.hosts_per_group)
                    .map(|h| {
                        (0..cfg.files_per_host)
                            .map(|_| world.create_file_for(h, cfg.file_blocks * READ_BYTES))
                            .collect()
                    })
                    .collect();
                if cfg.degraded_every != 0 && gid % cfg.degraded_every == cfg.degraded_every - 1 {
                    let (span_start, span_sectors) = world.allocated_span();
                    let mut frng = SimRng::from_seed_and_stream(gseed, FLEET_STREAM);
                    let plan = FaultPlan::seeded_fail_slow(&mut frng, span_start, span_sectors);
                    world.set_disk_fault_model(Some(Box::new(FaultState::new(plan))));
                }
                FleetGroup {
                    gid,
                    groups: cfg.groups,
                    world,
                    files,
                    arena: ClientArena::default(),
                    schedule,
                    sched_next: 0,
                    inflight: 0,
                    next_serial: 0,
                    file_blocks: cfg.file_blocks,
                    files_per_host: cfg.files_per_host,
                    hosts: cfg.hosts_per_group,
                    meta_ratio_pct: cfg.meta_ratio_pct,
                    barrier: cfg.barrier,
                    shed_threshold: cfg.shed_threshold,
                    shed_max: cfg.shed_max,
                    hist: LogHist::new(),
                    books: GroupBooks::default(),
                    fp: 0xcbf2_9ce4_8422_2325,
                    epoch_lat_sum: 0,
                    epoch_lat_n: 0,
                    done: Vec::new(),
                }
            })
            .collect();

        // Epoch budget: the arrival window plus a drain allowance two
        // orders past any plausible backlog; callers assert `completed`.
        let max_epochs = window_ns / cfg.barrier.as_nanos().max(1) + 100_000;

        FleetWorld {
            groups,
            clients: cfg.clients,
            ops_per_client: cfg.ops_per_client,
            max_epochs,
        }
    }

    /// Runs the fleet to quiescence and folds the per-group books into a
    /// [`FleetReport`]. Consumes the fleet: a run is not resumable.
    pub fn run(mut self) -> FleetReport {
        let shard_stats = run_sharded(&mut self.groups, self.max_epochs);

        let mut hist = LogHist::new();
        let mut books = GroupBooks::default();
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
        let mut sim_secs = 0.0f64;
        let mut fleet_bytes = 0usize;
        let mut drive = DriveWork::default();
        for g in &self.groups {
            hist.merge(&g.hist);
            books.tally(&g.books);
            fingerprint = fnv(fingerprint, g.gid as u64);
            fingerprint = fnv(fingerprint, g.fp);
            fingerprint = fnv(fingerprint, g.hist.fingerprint());
            sim_secs = sim_secs.max(g.world.now().as_secs_f64());
            fleet_bytes += g.world.client_state_bytes() + g.arena.heap_bytes() + g.hist.bytes();
            let d = g.world.disk_stats();
            drive.commands += d.reads + d.writes;
            drive.sptf_scores += d.sptf_scores;
            drive.cache_probes += d.cache_probes;
        }
        debug_assert_eq!(books.migrated_in, books.migrated_out);

        // One full host's client state, measured on group 0's world: the
        // per-client cost of the representation this module replaces.
        let g0 = &self.groups[0].world;
        let full_host_bytes = g0.client_state_bytes() / g0.n_clients().max(1);
        let per_client_bytes = (fleet_bytes / self.clients.max(1)).max(1);

        let clients_done = (books.ok + books.eio) / u64::from(self.ops_per_client.max(1));
        FleetReport {
            clients_done,
            ops_issued: books.issued,
            ops_meta: books.meta,
            ops_ok: books.ok,
            ops_eio: books.eio,
            clients_timed_out: books.timed_out,
            migrations: books.migrated_out,
            shed_events: books.shed_events,
            hist,
            fingerprint,
            sim_secs,
            shard_stats,
            mem: FleetMem {
                fleet_bytes,
                per_client_bytes,
                full_host_bytes,
                reduction: full_host_bytes as f64 / per_client_bytes as f64,
            },
            drive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfleet::set_shards_override;

    /// Serialize tests that touch the process-global shard override.
    static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn tiny(clients: usize) -> FleetConfig {
        let mut cfg = FleetConfig::scale(clients);
        cfg.groups = cfg.groups.max(2);
        cfg.arrival_window = SimDuration::from_secs(2);
        cfg
    }

    #[test]
    fn small_fleet_completes_and_balances_books() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_shards_override(Some(2));
        let cfg = tiny(200);
        let r = FleetWorld::new(&cfg, 7).run();
        set_shards_override(None);
        assert!(r.shard_stats.completed, "{:?}", r.shard_stats);
        assert_eq!(
            r.clients_done + r.clients_timed_out,
            cfg.clients as u64,
            "{r:?}"
        );
        assert_eq!(r.ops_ok + r.ops_eio, r.hist.total());
        assert!(r.latency_ms(0.5).is_some());
        assert!(r.latency_ms(0.99) >= r.latency_ms(0.5));
    }

    #[test]
    fn shard_counts_are_bit_identical() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        let cfg = tiny(300);
        let run = |s: usize| {
            set_shards_override(Some(s));
            let r = FleetWorld::new(&cfg, 11).run();
            set_shards_override(None);
            (
                r.fingerprint,
                r.hist.fingerprint(),
                r.ops_ok,
                r.migrations,
                r.shard_stats,
            )
        };
        let base = run(1);
        for s in [2, 4] {
            assert_eq!(run(s), base, "shards={s}");
        }
    }

    #[test]
    fn metadata_mix_completes_and_stays_shard_identical() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        let mut cfg = tiny(200);
        cfg.meta_ratio_pct = 40;
        let run = |s: usize| {
            set_shards_override(Some(s));
            let r = FleetWorld::new(&cfg, 13).run();
            set_shards_override(None);
            r
        };
        let base = run(1);
        assert!(base.shard_stats.completed, "{:?}", base.shard_stats);
        assert!(
            base.ops_meta > 0 && base.ops_meta < base.ops_issued,
            "{base:?}"
        );
        assert_eq!(
            base.clients_done + base.clients_timed_out,
            cfg.clients as u64
        );
        let sharded = run(2);
        assert_eq!(sharded.fingerprint, base.fingerprint);
        assert_eq!(sharded.ops_meta, base.ops_meta);
    }

    #[test]
    fn zero_meta_ratio_is_bit_identical_to_the_pre_mix_fleet() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_shards_override(Some(1));
        let cfg = tiny(150);
        let r = FleetWorld::new(&cfg, 21).run();
        set_shards_override(None);
        // The mix machinery leaves no trace when off: no probes, every
        // issued op is a read.
        assert_eq!(r.ops_meta, 0, "{r:?}");
        assert_eq!(r.ops_ok + r.ops_eio, r.hist.total());
    }

    #[test]
    fn seeds_produce_different_fleets() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_shards_override(Some(1));
        let cfg = tiny(120);
        let a = FleetWorld::new(&cfg, 1).run();
        let b = FleetWorld::new(&cfg, 2).run();
        set_shards_override(None);
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn memory_is_bounded_per_client() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_shards_override(Some(1));
        let cfg = tiny(400);
        let r = FleetWorld::new(&cfg, 3).run();
        set_shards_override(None);
        assert!(
            r.mem.per_client_bytes < r.mem.full_host_bytes,
            "fleet client ({} B) should be cheaper than a full host ({} B)",
            r.mem.per_client_bytes,
            r.mem.full_host_bytes,
        );
    }
}
