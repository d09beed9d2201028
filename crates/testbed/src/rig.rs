//! Assembling the paper's testbed (§4.1) out of the substrate crates.
//!
//! A [`Rig`] names one server storage configuration: which drive, which of
//! its four partitions, whether tagged queueing is on, and which kernel
//! disk scheduler is loaded. `scsi1`, `ide4`, etc. in the figures are
//! exactly these rigs. A [`ClusterConfig`] names the client side: the
//! shared server's [`WorldConfig`] and one host config per client.

use diskmodel::{DriveModel, PartitionTable, TcqConfig};
use ffs::{FileSystem, FsConfig};
use iosched::SchedulerKind;
use nfssim::{ClientHostConfig, NfsWorld, WorldConfig};
use simcore::{SimDuration, SimRng};

/// One server storage configuration.
#[derive(Debug, Clone, Copy)]
pub struct Rig {
    /// Which drive model.
    pub drive: DriveModel,
    /// Partition 1 (outermost) through 4 (innermost).
    pub partition: usize,
    /// Tagged command queues enabled (ignored for drives without TCQ).
    pub tagged_queues: bool,
    /// Kernel disk scheduler.
    pub scheduler: SchedulerKind,
}

impl Rig {
    /// `scsi<partition>` with default (tags on) configuration.
    pub fn scsi(partition: usize) -> Self {
        Rig {
            drive: DriveModel::IbmDdysScsi,
            partition,
            tagged_queues: true,
            scheduler: SchedulerKind::Elevator,
        }
    }

    /// `ide<partition>` (the WD drive has no TCQ).
    pub fn ide(partition: usize) -> Self {
        Rig {
            drive: DriveModel::WdWd200bbIde,
            partition,
            tagged_queues: false,
            scheduler: SchedulerKind::Elevator,
        }
    }

    /// `tlc<partition>`: the consumer TLC flash drive. (Queueing lives in
    /// the SSD controller, not SCSI TCQ; `tagged_queues` is ignored.)
    pub fn ssd(partition: usize) -> Self {
        Rig {
            drive: DriveModel::ConsumerTlcSsd,
            partition,
            tagged_queues: false,
            scheduler: SchedulerKind::Elevator,
        }
    }

    /// `dcssd<partition>`: the datacenter flash drive.
    pub fn dcssd(partition: usize) -> Self {
        Rig {
            drive: DriveModel::DatacenterSsd,
            partition,
            tagged_queues: false,
            scheduler: SchedulerKind::Elevator,
        }
    }

    /// Returns the rig with tagged queueing disabled.
    pub fn no_tags(mut self) -> Self {
        self.tagged_queues = false;
        self
    }

    /// Returns the rig with a different kernel scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Label as used in the paper's figures (`scsi1`, `ide4`, ...).
    pub fn label(&self) -> String {
        format!("{}{}", self.drive.label(), self.partition)
    }

    /// Builds a freshly formatted file system on this rig.
    ///
    /// The server machine has 256 MB of RAM, most of it buffer cache —
    /// which the benchmark's 1.5 GB working set defeats by design.
    pub fn build_fs(&self, seed: u64) -> FileSystem {
        let rng = SimRng::from_seed_and_stream(seed, 0xD15C);
        if let Some(params) = self.drive.ssd_params() {
            let device = ssd::Ssd::new(params, rng);
            let part = PartitionTable::quarters_of(params.total_sectors).get(self.partition);
            return FileSystem::format_on(
                Box::new(device),
                part,
                self.scheduler,
                FsConfig::default(),
            );
        }
        let tcq = if self.tagged_queues && self.drive.supports_tcq() {
            self.drive.default_tcq()
        } else {
            TcqConfig::disabled()
        };
        let disk = diskmodel::Disk::new(
            self.drive.geometry(),
            self.drive.seek(),
            self.drive.mech(),
            tcq,
            self.drive.cache(),
            rng,
        );
        let part = PartitionTable::quarters(disk.geometry()).get(self.partition);
        FileSystem::format(disk, part, self.scheduler, FsConfig::default())
    }
}

/// A cluster: one [`WorldConfig`] describing the shared server side
/// (nfsd pool, `nfsheur` geometry, policy, transport, rsize) and one
/// [`ClientHostConfig`] per client host.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shared server and protocol parameters.
    pub world: WorldConfig,
    /// Per-host client parameters, one entry per client.
    pub hosts: Vec<ClientHostConfig>,
}

impl ClusterConfig {
    /// `clients` identical hosts, each configured exactly as the classic
    /// single-client world would be. `uniform(w, 1)` therefore describes
    /// a cluster bit-identical to `NfsWorld::new(w, ..)`.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is zero.
    pub fn uniform(world: WorldConfig, clients: usize) -> Self {
        assert!(clients > 0, "a cluster needs at least one client");
        ClusterConfig {
            world,
            hosts: vec![ClientHostConfig::from_world(&world); clients],
        }
    }

    /// Number of client hosts.
    pub fn clients(&self) -> usize {
        self.hosts.len()
    }

    /// Staggers per-host RTT: host `i` gets the base RTT plus `i * step`
    /// (a rack of clients at different switch depths). Host 0 keeps the
    /// classic RTT, preserving single-client identity.
    pub fn with_rtt_spread(mut self, step: SimDuration) -> Self {
        for (i, h) in self.hosts.iter_mut().enumerate() {
            h.rtt += step.saturating_mul(i as u64);
        }
        self
    }

    /// Builds this cluster's world on a freshly formatted `rig`.
    pub(crate) fn build_world(&self, rig: Rig, seed: u64) -> NfsWorld {
        NfsWorld::new_cluster(self.world, &self.hosts, rig.build_fs(seed), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(Rig::scsi(1).label(), "scsi1");
        assert_eq!(Rig::ide(4).label(), "ide4");
    }

    #[test]
    fn no_tags_disables_tcq() {
        let rig = Rig::scsi(1).no_tags();
        let fs = rig.build_fs(1);
        assert!(!fs.bio().disk().tcq().enabled);
        let rig_default = Rig::scsi(1);
        let fs2 = rig_default.build_fs(1);
        assert!(fs2.bio().disk().tcq().enabled);
    }

    #[test]
    fn ide_never_has_tcq() {
        let rig = Rig {
            tagged_queues: true,
            ..Rig::ide(1)
        };
        let fs = rig.build_fs(1);
        assert!(!fs.bio().disk().tcq().enabled, "WD200BB has no TCQ");
    }

    #[test]
    fn ssd_rigs_build_flash_backed_filesystems() {
        for rig in [Rig::ssd(1), Rig::dcssd(2)] {
            let fs = rig.build_fs(1);
            let report = fs.bio().device().report();
            assert_eq!(report.kind, "ssd", "{}", rig.label());
            assert!(report.buckets.iter().any(|(n, _)| *n == "gc stall"));
        }
        assert_eq!(Rig::ssd(1).label(), "tlc1");
        assert_eq!(Rig::dcssd(2).label(), "dcssd2");
    }

    #[test]
    fn partition_one_is_outer() {
        // Build on partitions 1 and 4 and compare first-file media rates.
        let f1 = Rig::ide(1).build_fs(1);
        let f4 = Rig::ide(4).build_fs(1);
        let g1 = f1.bio().disk().geometry().clone();
        let mut fs1 = f1;
        let mut fs4 = f4;
        let mut rng = SimRng::new(1);
        let i1 = fs1.create_file(8_192, &mut rng);
        let i4 = fs4.create_file(8_192, &mut rng);
        let lba1 = fs1.inode(i1).unwrap().lba_of(0);
        let lba4 = fs4.inode(i4).unwrap().lba_of(0);
        let r1 = g1.media_rate(g1.cylinder_of(lba1));
        let r4 = g1.media_rate(g1.cylinder_of(lba4));
        assert!(r1 > r4, "partition 1 must be on faster cylinders");
    }

    #[test]
    fn uniform_hosts_match_the_classic_world_client() {
        let w = WorldConfig::default();
        let c = ClusterConfig::uniform(w, 3);
        assert_eq!(c.clients(), 3);
        for h in &c.hosts {
            assert_eq!(h.nfsiods, w.nfsiods);
            assert_eq!(h.client_cache_blocks, w.client_cache_blocks);
            assert_eq!(h.client_readahead_blocks, w.client_readahead_blocks);
            assert_eq!(h.busy_loops, w.busy_loops);
        }
    }

    #[test]
    fn rtt_spread_leaves_host_zero_alone() {
        let c = ClusterConfig::uniform(WorldConfig::default(), 3)
            .with_rtt_spread(SimDuration::from_micros(50));
        assert_eq!(c.hosts[0].rtt, SimDuration::from_micros(200));
        assert_eq!(c.hosts[1].rtt, SimDuration::from_micros(250));
        assert_eq!(c.hosts[2].rtt, SimDuration::from_micros(300));
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        let _ = ClusterConfig::uniform(WorldConfig::default(), 0);
    }
}
