//! Configuration of the simulated NFS client/server pair.

use netsim::{LinkProfile, TransportKind};
use nfsproto::StableHow;
use readahead_core::{NfsHeurConfig, ReadaheadPolicy};
use simcore::SimDuration;

/// NFS read and write size in bytes (rsize/wsize; 8 KB for v2-era
/// setups). Equal to the file-system block, so one READ is one block.
pub const RSIZE: u32 = 8_192;
const _: () = assert!(RSIZE as u64 == ffs::BLOCK_BYTES);

/// Concurrent `nfsd` server daemons a world starts with ("the server runs
/// eight nfsds instead of the default four", §4.1).
/// [`crate::NfsWorld::set_nfsds`] resizes the pool at runtime.
pub const NFSDS: usize = 8;

/// Everything tunable about one client/server world.
#[derive(Debug, Clone, Copy)]
pub struct WorldConfig {
    /// RPC transport (the §5.4 trap: `mount_nfs` defaults to UDP, `amd`
    /// to TCP, and people rarely notice which they got).
    pub transport: TransportKind,
    /// The network between client and server.
    pub link: LinkProfile,
    /// Server-side read-ahead heuristic (the paper's subject).
    pub policy: ReadaheadPolicy,
    /// Geometry of the server's `nfsheur` table.
    pub heur: NfsHeurConfig,
    /// Client `nfsiod` daemons available for asynchronous read-ahead
    /// ("the clients run eight nfsiods instead of the default four").
    pub nfsiods: usize,
    /// Client read-ahead depth in blocks when a file looks sequential.
    pub client_readahead_blocks: u64,
    /// Client block-cache capacity in blocks (the clients have 1 GB RAM).
    pub client_cache_blocks: usize,
    /// Number of infinite-loop processes competing for the client CPU
    /// (0 = the paper's "idle client", 4 = its "busy client").
    pub busy_loops: u32,
    /// Initial RPC retransmission timeout (UDP only; doubled per retry).
    pub retransmit_timeout: SimDuration,
    /// Stability level clients request on WRITE. [`StableHow::FileSync`]
    /// is the historical synchronous write-through path;
    /// [`StableHow::Unstable`] enables the NFSv3 async write path: the
    /// server gathers dirty blocks and the client write-behinds, flushing
    /// with COMMIT on close (RFC 1813 §4.7).
    pub stable_how: StableHow,
    /// How long the server holds UNSTABLE data hoping to coalesce it with
    /// adjacent writes before flushing to disk (the write-gathering
    /// window; FreeBSD's syncer ticks at 30 ms granularity).
    pub gather_window: SimDuration,
    /// Attribute-cache floor (`acregmin`): a freshly fetched attribute is
    /// trusted at least this long. [`SimDuration::ZERO`] (the default)
    /// disables the attribute cache entirely — every GETATTR goes to the
    /// wire, exactly the pre-cache behaviour.
    pub attr_timeo_min: SimDuration,
    /// Attribute-cache ceiling (`acregmax`): the trust window doubles on
    /// each revalidation that finds the file unchanged, saturating here.
    pub attr_timeo_max: SimDuration,
}

impl WorldConfig {
    /// Whether the client attribute cache is armed. Both timeouts must be
    /// non-zero; the all-zero default keeps the cache off and the world
    /// bit-identical to the pre-cache path.
    pub fn attr_cache_enabled(&self) -> bool {
        self.attr_timeo_min > SimDuration::ZERO && self.attr_timeo_max > SimDuration::ZERO
    }
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            transport: TransportKind::Udp,
            link: LinkProfile::gigabit_lan(),
            policy: ReadaheadPolicy::Default,
            heur: NfsHeurConfig::freebsd_default(),
            nfsiods: 8,
            client_readahead_blocks: 4,
            client_cache_blocks: 120_000, // ~0.9 GB of the client's 1 GB
            busy_loops: 0,
            retransmit_timeout: SimDuration::from_millis(800),
            stable_how: StableHow::FileSync,
            gather_window: SimDuration::from_millis(30),
            attr_timeo_min: SimDuration::ZERO,
            attr_timeo_max: SimDuration::ZERO,
        }
    }
}

/// The client-host parameters a [`WorldConfig`] implies.
///
/// [`crate::NfsWorld::new_cluster`] takes one per host, and every entry
/// must be [`ClientHostConfig::from_world`] of the world's config: all
/// hosts of a world share its one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientHostConfig {
    /// This host's link to the server (both directions are symmetric).
    pub link: LinkProfile,
    /// This host's `nfsiod` pool size.
    pub nfsiods: usize,
    /// Infinite-loop processes competing for this host's CPU.
    pub busy_loops: u32,
    /// This host's block-cache capacity in blocks.
    pub client_cache_blocks: usize,
    /// This host's read-ahead depth in blocks.
    pub client_readahead_blocks: u64,
}

impl ClientHostConfig {
    /// The host configuration implied by a [`WorldConfig`]: the one entry
    /// [`crate::NfsWorld::new_cluster`] accepts for each host.
    pub fn from_world(config: &WorldConfig) -> Self {
        ClientHostConfig {
            link: config.link,
            nfsiods: config.nfsiods,
            busy_loops: config.busy_loops,
            client_cache_blocks: config.client_cache_blocks,
            client_readahead_blocks: config.client_readahead_blocks,
        }
    }
}

/// CPU cost model for RPC processing on both machines (1 GHz PIII-era).
///
/// TCP costs more per operation than UDP: connection bookkeeping, ack
/// processing, and an extra data copy on this era's stacks — the reason
/// Figure 5's TCP curves sit below Figure 4's UDP curves for small numbers
/// of readers.
#[derive(Debug, Clone, Copy)]
pub struct CpuModel {
    /// Client-side marshal cost per call, seconds (a jitter is added to
    /// it before the sum rounds to nanoseconds).
    pub client_marshal: f64,
    /// Mean of the exponential jitter added to marshalling, seconds.
    pub client_jitter_mean: f64,
    /// Client-side completion (copyout + wakeup) cost.
    pub client_complete: SimDuration,
    /// Server-side per-call processing.
    pub server_call: SimDuration,
    /// Server-side per-reply processing.
    pub server_reply: SimDuration,
}

impl CpuModel {
    /// Cost model for the given transport.
    pub fn for_transport(kind: TransportKind) -> Self {
        match kind {
            TransportKind::Udp => CpuModel {
                client_marshal: 25e-6,
                client_jitter_mean: 18e-6,
                client_complete: SimDuration::from_micros(20),
                server_call: SimDuration::from_micros(130),
                server_reply: SimDuration::from_micros(220),
            },
            TransportKind::Tcp => CpuModel {
                client_marshal: 60e-6,
                client_jitter_mean: 10e-6,
                client_complete: SimDuration::from_micros(45),
                server_call: SimDuration::from_micros(250),
                server_reply: SimDuration::from_micros(350),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_testbed() {
        let c = WorldConfig::default();
        assert_eq!(NFSDS, 8);
        assert_eq!(c.nfsiods, 8);
        assert_eq!(RSIZE, 8_192);
        assert_eq!(c.transport, TransportKind::Udp);
        assert_eq!(c.busy_loops, 0);
        // The default write path is the historical synchronous one; the
        // async machinery only arms when a config opts into UNSTABLE.
        assert_eq!(c.stable_how, StableHow::FileSync);
        assert_eq!(c.gather_window, SimDuration::from_millis(30));
        // The attribute cache ships disarmed: both timeouts zero, so the
        // default world stays bit-identical to the pre-cache path.
        assert_eq!(c.attr_timeo_min, SimDuration::ZERO);
        assert_eq!(c.attr_timeo_max, SimDuration::ZERO);
        assert!(!c.attr_cache_enabled());
    }

    #[test]
    fn attr_cache_arms_only_with_both_timeouts() {
        let mut c = WorldConfig {
            attr_timeo_min: SimDuration::from_secs(3),
            ..Default::default()
        };
        assert!(!c.attr_cache_enabled());
        c.attr_timeo_max = SimDuration::from_secs(60);
        assert!(c.attr_cache_enabled());
    }

    #[test]
    fn tcp_costs_more_cpu_than_udp() {
        let u = CpuModel::for_transport(TransportKind::Udp);
        let t = CpuModel::for_transport(TransportKind::Tcp);
        assert!(t.server_call > u.server_call);
        assert!(t.server_reply > u.server_reply);
        assert!(t.client_marshal > u.client_marshal);
    }
}
