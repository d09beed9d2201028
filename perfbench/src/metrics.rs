//! Metric names and units, the per-rep result, and the helpers that turn
//! raw samples into the reported numbers.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: every run prints every end-to-end metric (untraced
//! runs) or every per-layer metric (traced runs), on every workload. A
//! per-layer metric a workload does not exercise reads 0.

use nfssim::NfsWorld;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_ref_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("sim_mb_per_s", "MB/s"),
];

/// Per-layer metrics: `(name, unit)`. Counts are per rep (one set-up plus
/// one fixed unit of work); host times are medians over traced reps.
pub const PER_LAYER: &[(&str, &str)] = &[
    // nfssim, host side (traced boundaries).
    ("nfssim.submit_ns", "ns"),
    ("nfssim.submit_calls", "count"),
    ("nfssim.advance_ns", "ns"),
    ("nfssim.advance_calls", "count"),
    ("nfssim.next_event_ns", "ns"),
    ("nfssim.ops_per_advance", "ops"),
    ("nfssim.advance_share", "ratio"),
    ("nfssim.build_s", "s"),
    // nfstrace.
    ("nfstrace.generate_s", "s"),
    // readahead-core: the server's nfsheur table.
    ("readahead.heur_hits", "count"),
    ("readahead.heur_misses", "count"),
    ("readahead.heur_ejections", "count"),
    ("readahead.heur_hit_ratio", "ratio"),
    // ffs: buffer cache and block I/O.
    ("ffs.cache_hit_ratio", "ratio"),
    ("ffs.miss_blocks", "count"),
    ("ffs.sync_reads", "count"),
    ("ffs.readahead_reads", "count"),
    ("ffs.writes", "count"),
    ("ffs.bio_retries", "count"),
    ("ffs.bio_eio", "count"),
    // diskmodel (simulated seconds).
    ("disk.reads", "count"),
    ("disk.writes", "count"),
    ("disk.cache_hits", "count"),
    ("disk.busy_s", "s"),
    ("disk.utilization", "ratio"),
    ("disk.seek_s", "s"),
    ("disk.rotation_s", "s"),
    ("disk.transfer_s", "s"),
    ("disk.fault_stall_s", "s"),
    // netsim, summed over client hosts.
    ("netsim.c2s_messages", "count"),
    ("netsim.s2c_messages", "count"),
    ("netsim.bytes_delivered", "B"),
    ("netsim.lost", "count"),
    // nfssim server half.
    ("server.reorder_fraction", "ratio"),
    ("server.duplicates_dropped", "count"),
    ("server.unstable_writes", "count"),
    ("server.commits", "count"),
    ("server.gather_flushes", "count"),
    ("server.blocks_per_flush", "blocks"),
    ("server.getattrs", "count"),
    ("server.lookups", "count"),
    ("server.readdirs", "count"),
    // nfssim client half, summed over client hosts.
    ("client.rpcs", "count"),
    ("client.readahead_rpcs", "count"),
    ("client.iod_starved", "count"),
    ("client.retransmits", "count"),
    ("client.rpc_timeouts", "count"),
    ("client.attr_hit_ratio", "ratio"),
    ("client.write_rpcs", "count"),
    ("client.commit_rpcs", "count"),
    // simfleet and nfscluster.
    ("simfleet.epochs", "count"),
    ("simfleet.messages", "count"),
    ("simfleet.shards", "count"),
    ("nfscluster.fleet_new_s", "s"),
    ("nfscluster.fleet_run_s", "s"),
    ("nfscluster.migrations", "count"),
    ("nfscluster.shed_events", "count"),
    ("nfscluster.clients_timed_out", "count"),
    ("nfscluster.ops_eio", "count"),
    ("nfscluster.fleet_bytes", "B"),
    ("nfscluster.bytes_per_client", "B"),
    // nfsd and nfsproto, host side (in-process twin of the socket run).
    ("nfsd.handle_record_ns", "ns"),
    ("nfsd.pump_ns", "ns"),
    ("nfsproto.call_encode_ns", "ns"),
    ("nfsproto.reply_decode_ns", "ns"),
    ("nfsd.calls", "count"),
    ("nfsd.immediate_replies", "count"),
    ("nfsd.routed_calls", "count"),
    ("nfsd.rpc_errors", "count"),
    // The socket run split per op class: modelled server time, in-process
    // host time, and the residual (socket I/O plus the serve loop's idle
    // tick). Means, so the three add up to the socket latency.
    ("endpoint.modelled_us.lookup", "us"),
    ("endpoint.modelled_us.getattr", "us"),
    ("endpoint.modelled_us.read", "us"),
    ("endpoint.modelled_us.write", "us"),
    ("endpoint.inproc_us.lookup", "us"),
    ("endpoint.inproc_us.getattr", "us"),
    ("endpoint.inproc_us.read", "us"),
    ("endpoint.inproc_us.write", "us"),
    ("endpoint.residual_us.lookup", "us"),
    ("endpoint.residual_us.getattr", "us"),
    ("endpoint.residual_us.read", "us"),
    ("endpoint.residual_us.write", "us"),
    ("endpoint.lat_p50_us", "us"),
    ("endpoint.lat_p99_us", "us"),
    // Simulated per-op latency: deterministic for a seed, but spread too
    // widely across seeds to carry a bound (see WORKLOADS.md).
    ("sim.p50_ms", "ms"),
    ("sim.p99_ms", "ms"),
    ("sim.p999_ms", "ms"),
    ("sim.samples", "count"),
    // The benchmark itself.
    ("bench.error_rate", "ratio"),
    ("bench.ops_per_s", "1/s"),
    ("bench.traced_ops_per_s", "1/s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.boundary_share", "ratio"),
];

/// Named values a rep reports for the per-layer table.
pub type Layers = Vec<(&'static str, f64)>;

/// Deterministic simulated results of one rep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sim {
    /// Simulated MB (10^6 bytes) read plus written per simulated second.
    pub mb_per_s: f64,
    /// Simulated per-op latency percentiles, ms.
    pub p50_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// 99.9th percentile.
    pub p999_ms: f64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
}

impl Sim {
    /// Percentiles of simulated latencies given in nanoseconds.
    pub fn from_latencies(mut ns: Vec<u64>, bytes: u64, sim_secs: f64) -> Self {
        ns.sort_unstable();
        let ms = |q| percentile(&ns, q) as f64 / 1e6;
        Sim {
            mb_per_s: bytes as f64 / 1e6 / sim_secs,
            p50_ms: ms(0.50),
            p99_ms: ms(0.99),
            p999_ms: ms(0.999),
            samples: ns.len() as u64,
        }
    }
}

/// What one rep (one set-up plus one fixed unit of work) measured.
#[derive(Debug, Clone, Default)]
pub struct RepOut {
    /// Host seconds spent setting up.
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Fingerprint of the simulated outputs; equal on every rep of a run.
    pub fingerprint: u64,
    /// Simulated results.
    pub sim: Sim,
    /// Per-layer values (host times only meaningful on traced reps).
    pub layers: Layers,
    /// Correctness violations.
    pub violations: Vec<String>,
}

/// Nearest-rank percentile of sorted samples (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Folds one value into a fingerprint (one multiply per value, so the
/// fold costs little next to the traced calls).
pub fn fold(h: u64, x: u64) -> u64 {
    (h.rotate_left(23) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Starting value of a fingerprint.
pub const FP_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Reads every counter the simulated layers keep: the `nfsheur` table,
/// `ffs`, the disk, the links, and both halves of the NFS world.
/// `sim_secs` is the simulated span the disk's utilization is taken over.
pub fn world_layers(world: &NfsWorld, sim_secs: f64, out: &mut Layers) {
    let s = world.server_stats();
    let heur_probes = (s.heur_hits + s.heur_misses) as f64;
    let fs = world.fs().stats();
    let bio = world.bio_stats();
    let d = world.disk_stats();
    let (mut c2s, mut s2c, mut bytes, mut lost) = (0, 0, 0, 0);
    let mut c = nfssim::ClientStats::default();
    for i in 0..world.n_clients() {
        let (up, down) = (world.c2s_stats_for(i), world.s2c_stats_for(i));
        c2s += up.messages;
        s2c += down.messages;
        bytes += up.bytes_delivered + down.bytes_delivered;
        lost += up.lost + down.lost;
        let ci = world.client_stats_for(i);
        c.rpcs += ci.rpcs;
        c.readahead_rpcs += ci.readahead_rpcs;
        c.iod_starved += ci.iod_starved;
        c.retransmits += ci.retransmits;
        c.rpc_timeouts += ci.rpc_timeouts;
        c.write_rpcs += ci.write_rpcs;
        c.commit_rpcs += ci.commit_rpcs;
        c.attr_cache_hits += ci.attr_cache_hits;
        c.attr_cache_misses += ci.attr_cache_misses;
        c.attr_revalidations += ci.attr_revalidations;
    }
    let attr_lookups = (c.attr_cache_hits + c.attr_cache_misses + c.attr_revalidations) as f64;
    let secs = |x: simcore::SimDuration| x.as_secs_f64();
    out.extend([
        ("readahead.heur_hits", s.heur_hits as f64),
        ("readahead.heur_misses", s.heur_misses as f64),
        ("readahead.heur_ejections", s.heur_ejections as f64),
        (
            "readahead.heur_hit_ratio",
            ratio(s.heur_hits as f64, heur_probes),
        ),
        (
            "ffs.cache_hit_ratio",
            ratio(
                fs.cache_hit_blocks as f64,
                (fs.cache_hit_blocks + fs.miss_blocks) as f64,
            ),
        ),
        ("ffs.miss_blocks", fs.miss_blocks as f64),
        ("ffs.sync_reads", fs.sync_reads as f64),
        ("ffs.readahead_reads", fs.readahead_reads as f64),
        ("ffs.writes", fs.writes as f64),
        ("ffs.bio_retries", bio.retries as f64),
        ("ffs.bio_eio", bio.eio as f64),
        ("disk.reads", d.reads as f64),
        ("disk.writes", d.writes as f64),
        ("disk.cache_hits", d.cache_hits as f64),
        ("disk.busy_s", secs(d.busy)),
        ("disk.utilization", ratio(secs(d.busy), sim_secs)),
        ("disk.seek_s", secs(d.breakdown.seek)),
        ("disk.rotation_s", secs(d.breakdown.rotation)),
        ("disk.transfer_s", secs(d.breakdown.transfer)),
        ("disk.fault_stall_s", secs(d.breakdown.fault_stall)),
        ("netsim.c2s_messages", c2s as f64),
        ("netsim.s2c_messages", s2c as f64),
        ("netsim.bytes_delivered", bytes as f64),
        ("netsim.lost", lost as f64),
        ("server.reorder_fraction", s.reorder_fraction()),
        ("server.duplicates_dropped", s.duplicates_dropped as f64),
        ("server.unstable_writes", s.unstable_writes as f64),
        ("server.commits", s.commits as f64),
        ("server.gather_flushes", s.gather_flushes as f64),
        (
            "server.blocks_per_flush",
            ratio(s.dirty_blocks_flushed as f64, s.gather_flushes as f64),
        ),
        ("server.getattrs", s.getattrs as f64),
        ("server.lookups", s.lookups as f64),
        ("server.readdirs", s.readdirs as f64),
        ("client.rpcs", c.rpcs as f64),
        ("client.readahead_rpcs", c.readahead_rpcs as f64),
        ("client.iod_starved", c.iod_starved as f64),
        ("client.retransmits", c.retransmits as f64),
        ("client.rpc_timeouts", c.rpc_timeouts as f64),
        (
            "client.attr_hit_ratio",
            ratio(c.attr_cache_hits as f64, attr_lookups),
        ),
        ("client.write_rpcs", c.write_rpcs as f64),
        ("client.commit_rpcs", c.commit_rpcs as f64),
    ]);
}

/// Renders the result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
