//! Assembling the paper's testbed (§4.1) out of the substrate crates.
//!
//! A [`Rig`] names one server storage configuration: which drive, which of
//! its four partitions, whether tagged queueing is on, and which kernel
//! disk scheduler is loaded. `scsi1`, `ide4`, etc. in the figures are
//! exactly these rigs. A [`ClusterConfig`] names the client side: the
//! world's [`WorldConfig`] and how many client hosts share the server.

use diskmodel::{DriveModel, PartitionTable, TcqConfig};
use ffs::{FileSystem, FsConfig};
use iosched::SchedulerKind;
use nfssim::{ClientHostConfig, NfsWorld, WorldConfig};
use simcore::SimRng;

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
/// (nfsd pool, `nfsheur` geometry, policy, transport) and every client
/// host, and how many client hosts there are.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Shared server, protocol and client-host parameters.
    pub world: WorldConfig,
    clients: usize,
}

impl ClusterConfig {
    /// `clients` hosts, each configured exactly as the classic
    /// single-client world would be. `uniform(w, 1)` therefore describes
    /// a cluster bit-identical to `NfsWorld::new(w, ..)`.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is zero.
    pub fn uniform(world: WorldConfig, clients: usize) -> Self {
        assert!(clients > 0, "a cluster needs at least one client");
        ClusterConfig { world, clients }
    }

    /// Number of client hosts.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Builds this cluster's world on a freshly formatted `rig`.
    pub fn build_world(&self, rig: Rig, seed: u64) -> NfsWorld {
        let hosts = vec![ClientHostConfig::from_world(&self.world); self.clients];
        NfsWorld::new_cluster(self.world, &hosts, rig.build_fs(seed), seed)
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
        let i1 = fs1.create_file(8_192, &mut rng).unwrap();
        let i4 = fs4.create_file(8_192, &mut rng).unwrap();
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
        let world = c.build_world(Rig::ide(1), 1);
        assert_eq!(world.n_clients(), 3);
        for h in 0..3 {
            assert_eq!(world.nfsiods_for(h), w.nfsiods);
        }
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        let _ = ClusterConfig::uniform(WorldConfig::default(), 0);
    }
}
