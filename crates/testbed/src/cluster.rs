//! The §4.2 concurrent-reader benchmark (Figures 4–7), from one or many
//! client hosts.
//!
//! [`ClusterBench`] runs `readers` closed-loop sequential reader processes
//! on every client host, each over its own file, all multiplexed onto the
//! one shared server; every read crosses the simulated network into the
//! `nfsd` pool. With one host (`ClusterConfig::uniform(config, 1)`) it is
//! the paper's benchmark over NFS. The interesting knobs are the
//! transport (UDP vs TCP), the server's read-ahead policy and `nfsheur`
//! geometry, tagged queueing, and the busy-client switch.

use std::collections::HashMap;

use nfsproto::FileHandle;
use nfssim::{ClientStats, ContentionStats, NfsWorld, ServerStats};

use crate::harness::{drive, Plan};
use crate::rig::{ClusterConfig, Rig};

/// One client host's share of a cluster run.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// This host's aggregate throughput (its bytes / its last finisher).
    pub throughput_mbs: f64,
    /// Per-process completion times in seconds, sorted ascending.
    pub completion_secs: Vec<f64>,
    /// Client counters accumulated during this run only.
    pub stats: ClientStats,
    /// Server-side contention attributed to this host during this run.
    pub contention: ContentionStats,
}

impl ClientReport {
    /// Fraction of this host's READ RPCs that were client read-aheads —
    /// the client-side symptom that the server still believes the file is
    /// sequential.
    pub fn readahead_fraction(&self) -> f64 {
        if self.stats.rpcs == 0 {
            0.0
        } else {
            self.stats.readahead_rpcs as f64 / self.stats.rpcs as f64
        }
    }
}

/// The outcome of one cluster iteration.
#[derive(Debug, Clone)]
pub struct ClusterRunResult {
    /// Whole-cluster throughput: all bytes over the last finisher.
    pub throughput_mbs: f64,
    /// Wall-clock (simulated) duration of the run in seconds.
    pub elapsed_secs: f64,
    /// Per-host reports, indexed by client id.
    pub clients: Vec<ClientReport>,
    /// Server counters accumulated during this run only (the `nfsheur`
    /// gauges `heur_occupancy` are end-of-run values, not deltas).
    pub server: ServerStats,
}

impl ClusterRunResult {
    /// Cluster-wide read-ahead fraction (sum over hosts).
    pub fn readahead_fraction(&self) -> f64 {
        let rpcs: u64 = self.clients.iter().map(|c| c.stats.rpcs).sum();
        let ra: u64 = self.clients.iter().map(|c| c.stats.readahead_rpcs).sum();
        if rpcs == 0 {
            0.0
        } else {
            ra as f64 / rpcs as f64
        }
    }

    /// `nfsheur` ejections per READ call served in this run.
    pub fn ejections_per_read(&self) -> f64 {
        if self.server.reads == 0 {
            0.0
        } else {
            self.server.heur_ejections as f64 / self.server.reads as f64
        }
    }

    /// Cross-client share of the ejections this run caused.
    pub fn cross_client_ejections(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.contention.cross_client_ejections)
            .sum()
    }
}

fn diff_tcp(after: netsim::TcpStats, before: netsim::TcpStats) -> netsim::TcpStats {
    netsim::TcpStats {
        segments_sent: after.segments_sent - before.segments_sent,
        delivered: after.delivered - before.delivered,
        acked: after.acked - before.acked,
        lost_tracked: after.lost_tracked - before.lost_tracked,
        retransmits: after.retransmits - before.retransmits,
        fast_retransmits: after.fast_retransmits - before.fast_retransmits,
        timeouts: after.timeouts - before.timeouts,
        rto_backoffs: after.rto_backoffs - before.rto_backoffs,
        order_violations: after.order_violations - before.order_violations,
        // Gauges, not counters: report the end-of-run values.
        in_flight: after.in_flight,
        max_rto: after.max_rto,
        srtt: after.srtt,
    }
}

fn diff_client(after: ClientStats, before: ClientStats) -> ClientStats {
    ClientStats {
        ops: after.ops - before.ops,
        cache_hits: after.cache_hits - before.cache_hits,
        rpcs: after.rpcs - before.rpcs,
        readahead_rpcs: after.readahead_rpcs - before.readahead_rpcs,
        retransmits: after.retransmits - before.retransmits,
        iod_starved: after.iod_starved - before.iod_starved,
        rpc_timeouts: after.rpc_timeouts - before.rpc_timeouts,
        transmissions: after.transmissions - before.transmissions,
        replies_received: after.replies_received - before.replies_received,
        duplicate_replies: after.duplicate_replies - before.duplicate_replies,
        eio_replies: after.eio_replies - before.eio_replies,
        write_rpcs: after.write_rpcs - before.write_rpcs,
        commit_rpcs: after.commit_rpcs - before.commit_rpcs,
        closes: after.closes - before.closes,
        verifier_mismatches: after.verifier_mismatches - before.verifier_mismatches,
        blocks_rewritten: after.blocks_rewritten - before.blocks_rewritten,
        tcp_c2s: diff_tcp(after.tcp_c2s, before.tcp_c2s),
        tcp_s2c: diff_tcp(after.tcp_s2c, before.tcp_s2c),
        getattr_rpcs: after.getattr_rpcs - before.getattr_rpcs,
        lookup_rpcs: after.lookup_rpcs - before.lookup_rpcs,
        readdir_rpcs: after.readdir_rpcs - before.readdir_rpcs,
        attr_cache_hits: after.attr_cache_hits - before.attr_cache_hits,
        attr_cache_misses: after.attr_cache_misses - before.attr_cache_misses,
        attr_revalidations: after.attr_revalidations - before.attr_revalidations,
        attr_stale_detected: after.attr_stale_detected - before.attr_stale_detected,
        attr_invalidations: after.attr_invalidations - before.attr_invalidations,
    }
}

fn diff_contention(after: ContentionStats, before: ContentionStats) -> ContentionStats {
    ContentionStats {
        heur_ejections_caused: after.heur_ejections_caused - before.heur_ejections_caused,
        heur_ejections_suffered: after.heur_ejections_suffered - before.heur_ejections_suffered,
        cross_client_ejections: after.cross_client_ejections - before.cross_client_ejections,
        cross_client_probe_collisions: after.cross_client_probe_collisions
            - before.cross_client_probe_collisions,
        duplicate_cache_hits: after.duplicate_cache_hits - before.duplicate_cache_hits,
        disk_eios_suffered: after.disk_eios_suffered - before.disk_eios_suffered,
    }
}

fn diff_server(after: ServerStats, before: ServerStats) -> ServerStats {
    ServerStats {
        reads: after.reads - before.reads,
        other_calls: after.other_calls - before.other_calls,
        reordered: after.reordered - before.reordered,
        replies: after.replies - before.replies,
        duplicates_dropped: after.duplicates_dropped - before.duplicates_dropped,
        stale_drops: after.stale_drops - before.stale_drops,
        orphan_calls: after.orphan_calls - before.orphan_calls,
        heur_hits: after.heur_hits - before.heur_hits,
        heur_misses: after.heur_misses - before.heur_misses,
        heur_ejections: after.heur_ejections - before.heur_ejections,
        disk_eios: after.disk_eios - before.disk_eios,
        unstable_writes: after.unstable_writes - before.unstable_writes,
        commits: after.commits - before.commits,
        gather_flushes: after.gather_flushes - before.gather_flushes,
        dirty_blocks_stashed: after.dirty_blocks_stashed - before.dirty_blocks_stashed,
        dirty_blocks_flushed: after.dirty_blocks_flushed - before.dirty_blocks_flushed,
        dirty_blocks_lost: after.dirty_blocks_lost - before.dirty_blocks_lost,
        restarts: after.restarts - before.restarts,
        getattrs: after.getattrs - before.getattrs,
        lookups: after.lookups - before.lookups,
        readdirs: after.readdirs - before.readdirs,
        // A gauge, not a counter: report the end-of-run value.
        heur_occupancy: after.heur_occupancy,
    }
}

/// A populated cluster benchmark: N clients + network + server + files.
#[derive(Debug)]
pub struct ClusterBench {
    world: NfsWorld,
    clients: usize,
    /// `readers -> per-client file handles` (each inner Vec has `readers`
    /// entries for one client).
    file_sets: HashMap<usize, Vec<Vec<FileHandle>>>,
    /// Bytes each *client* reads per run (its readers share this).
    per_client_bytes: u64,
}

impl ClusterBench {
    /// Builds a cluster world on `rig` and populates per-client file sets
    /// for every reader count. Each client reads `total_mb_per_client` in
    /// every run, split across its readers — so server load scales with
    /// the client count, as it does when real hosts are added to a rack.
    pub fn new(
        rig: Rig,
        cluster: &ClusterConfig,
        reader_counts: &[usize],
        total_mb_per_client: u64,
        seed: u64,
    ) -> Self {
        let mut world = cluster.build_world(rig, seed);
        let clients = cluster.clients();
        let mut file_sets = HashMap::new();
        for &n in reader_counts {
            assert!(n > 0 && total_mb_per_client.is_multiple_of(n as u64));
            let per = total_mb_per_client / n as u64 * 1024 * 1024;
            let sets: Vec<Vec<FileHandle>> = (0..clients)
                .map(|c| (0..n).map(|_| world.create_file_for(c, per)).collect())
                .collect();
            file_sets.insert(n, sets);
        }
        ClusterBench {
            world,
            clients,
            file_sets,
            per_client_bytes: total_mb_per_client * 1024 * 1024,
        }
    }

    /// The world, for inspecting statistics after runs.
    pub fn world(&self) -> &NfsWorld {
        &self.world
    }

    /// Number of client hosts.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Runs one iteration: every host drives `readers` concurrent reader
    /// processes over its own files until all of them finish.
    pub fn run(&mut self, readers: usize) -> ClusterRunResult {
        let per = self.per_client_bytes / readers as u64;
        let mut plans: Vec<Plan> = self
            .file_sets
            .get(&readers)
            .unwrap_or_else(|| panic!("no file set for {readers} readers"))
            .iter()
            .map(|fhs| Plan::sequential(fhs, per))
            .collect();
        self.world.flush_all_caches();
        self.world.reset_client_heuristics();
        let before_client: Vec<ClientStats> = (0..self.clients)
            .map(|c| self.world.client_stats_for(c))
            .collect();
        let before_cont: Vec<ContentionStats> = (0..self.clients)
            .map(|c| self.world.contention_stats(c))
            .collect();
        let before_server = self.world.server_stats();
        let start = self.world.now();
        let runs = drive(&mut self.world, start, &mut plans);

        let mut clients_out = Vec::with_capacity(self.clients);
        let mut last = 0.0f64;
        for (c, run) in runs.iter().enumerate() {
            let mut completion_secs: Vec<f64> = run
                .finished
                .iter()
                .map(|f| {
                    f.expect("all finished")
                        .saturating_since(start)
                        .as_secs_f64()
                })
                .collect();
            completion_secs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let elapsed = *completion_secs.last().expect("non-empty");
            last = last.max(elapsed);
            clients_out.push(ClientReport {
                throughput_mbs: self.per_client_bytes as f64 / 1e6 / elapsed,
                completion_secs,
                stats: diff_client(self.world.client_stats_for(c), before_client[c]),
                contention: diff_contention(self.world.contention_stats(c), before_cont[c]),
            });
        }
        let total_bytes = self.per_client_bytes * self.clients as u64;
        ClusterRunResult {
            throughput_mbs: total_bytes as f64 / 1e6 / last,
            elapsed_secs: last,
            clients: clients_out,
            server: diff_server(self.world.server_stats(), before_server),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::TransportKind;
    use nfssim::WorldConfig;
    use readahead_core::{NfsHeurConfig, ReadaheadPolicy};

    #[test]
    fn every_client_reads_its_bytes() {
        let cluster = ClusterConfig::uniform(WorldConfig::default(), 3);
        let mut b = ClusterBench::new(Rig::ide(1), &cluster, &[2], 8, 17);
        let r = b.run(2);
        assert_eq!(r.clients.len(), 3);
        for (c, cr) in r.clients.iter().enumerate() {
            // 8 MB split over 2 readers = 512 ops of 8 KB each per reader.
            assert_eq!(cr.stats.ops, 1024, "client {c}: {:?}", cr.stats);
            assert!(cr.throughput_mbs > 0.0);
            assert_eq!(cr.completion_secs.len(), 2);
        }
        assert!(r.elapsed_secs > 0.0);
        assert!(r.throughput_mbs > 0.0);
    }

    #[test]
    fn run_deltas_do_not_accumulate_across_runs() {
        let cluster = ClusterConfig::uniform(WorldConfig::default(), 2);
        let mut b = ClusterBench::new(Rig::ide(1), &cluster, &[1], 4, 18);
        let r1 = b.run(1);
        let r2 = b.run(1);
        // Same per-run op counts: the reports are deltas, not lifetimes.
        assert_eq!(r1.clients[0].stats.ops, r2.clients[0].stats.ops);
        assert_eq!(r1.server.reads > 0, r2.server.reads > 0);
    }

    #[test]
    fn more_clients_eject_more_on_the_stock_table() {
        let run_with = |clients: usize| {
            let cfg = WorldConfig {
                heur: NfsHeurConfig::freebsd_default(),
                ..WorldConfig::default()
            };
            let cluster = ClusterConfig::uniform(cfg, clients);
            let mut b = ClusterBench::new(Rig::ide(1), &cluster, &[2], 4, 19);
            b.run(2)
        };
        let small = run_with(1);
        let big = run_with(8);
        assert!(
            big.ejections_per_read() > small.ejections_per_read(),
            "8 clients {:.4} vs 1 client {:.4}",
            big.ejections_per_read(),
            small.ejections_per_read()
        );
        assert!(big.cross_client_ejections() > 0);
        assert_eq!(small.cross_client_ejections(), 0, "one host cannot cross");
    }

    fn quick(cfg: WorldConfig, rig: Rig, readers: usize) -> f64 {
        let cluster = ClusterConfig::uniform(cfg, 1);
        let mut b = ClusterBench::new(rig, &cluster, &[readers], 16, 7);
        b.run(readers).throughput_mbs
    }

    #[test]
    fn nfs_is_slower_than_local() {
        let nfs = quick(WorldConfig::default(), Rig::ide(1), 1);
        let mut local = crate::local::LocalBench::new(Rig::ide(1), &[1], 16, 7);
        let loc = local.run(1).throughput_mbs;
        assert!(
            loc > nfs * 1.3,
            "RPC overhead halves throughput: local {loc:.1} vs NFS {nfs:.1}"
        );
    }

    #[test]
    fn udp_beats_tcp_for_one_reader() {
        let udp = quick(WorldConfig::default(), Rig::ide(1), 1);
        let tcp = quick(
            WorldConfig {
                transport: TransportKind::Tcp,
                ..WorldConfig::default()
            },
            Rig::ide(1),
            1,
        );
        assert!(udp > tcp * 1.3, "udp {udp:.1} vs tcp {tcp:.1}");
    }

    #[test]
    fn always_readahead_with_big_table_beats_default_at_many_readers() {
        let default = quick(WorldConfig::default(), Rig::ide(1), 16);
        let always = quick(
            WorldConfig {
                policy: ReadaheadPolicy::Always,
                heur: NfsHeurConfig::improved(),
                ..WorldConfig::default()
            },
            Rig::ide(1),
            16,
        );
        assert!(
            always > default * 1.1,
            "always {always:.1} vs default {default:.1} at 16 readers"
        );
    }

    #[test]
    fn busy_client_lowers_throughput() {
        let idle = quick(WorldConfig::default(), Rig::ide(1), 4);
        let busy = quick(
            WorldConfig {
                busy_loops: 4,
                ..WorldConfig::default()
            },
            Rig::ide(1),
            4,
        );
        assert!(busy < idle, "busy {busy:.1} vs idle {idle:.1}");
    }
}
