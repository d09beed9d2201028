//! # NFS Tricks and Benchmarking Traps — a full-system reproduction
//!
//! This workspace reproduces *NFS Tricks and Benchmarking Traps* (Daniel
//! Ellard and Margo Seltzer, Proceedings of the FREENIX track, USENIX
//! Annual Technical Conference 2003) as a deterministic discrete-event
//! simulation in Rust. The paper's contributions — the **SlowDown**
//! sequentiality heuristic, **cursor-based** read-ahead for stride access
//! patterns, and the enlarged **nfsheur** table — live in
//! [`readahead_core`]; everything they need to be measured against lives
//! in the substrate crates re-exported below.
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`simcore`] | simulated time, event queue, seeded RNG, statistics |
//! | [`diskmodel`] | ZCAV drives, seek/rotation mechanics, prefetch cache, TCQ |
//! | [`iosched`] | kernel disk schedulers: FCFS, Elevator, N-CSCAN, SSTF |
//! | [`ffs`] | FFS-like file system: layout, buffer cache, cluster read-ahead |
//! | [`netsim`] | gigabit link model, UDP and TCP transports |
//! | [`nfsproto`] | XDR + NFS v3 message subset |
//! | [`readahead_core`] | **the paper's contribution** |
//! | [`nfssim`] | NFS client (nfsiods) + server (nfsds) event loop |
//! | [`testbed`] | the paper's benchmarks, one- and N-client, on one event loop; per-figure experiments |
//! | [`nfscluster`] | the cluster contention grid and the sharded 100k-client fleet |
//!
//! ## Quickstart
//!
//! ```
//! use nfs_tricks::prelude::*;
//!
//! // Mount ide1 over simulated NFS/UDP with the paper's cursor heuristic.
//! let config = WorldConfig {
//!     policy: ReadaheadPolicy::cursor(),
//!     heur: NfsHeurConfig::improved(),
//!     ..WorldConfig::default()
//! };
//! let mut bench = StrideBench::new(Rig::ide(1), config, 8, 42);
//! let mbs = bench.run(4); // 4-stride read of an 8 MB file
//! assert!(mbs > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use diskmodel;
pub use ffs;
pub use iosched;
pub use netsim;
pub use nfscluster;
pub use nfsproto;
pub use nfssim;
pub use readahead_core;
pub use simcore;
pub use testbed;

/// The names most programs need, in one import.
pub mod prelude {
    pub use diskmodel::{DriveModel, TcqConfig};
    pub use iosched::SchedulerKind;
    pub use netsim::{LinkProfile, TransportKind};
    pub use nfsproto::StableHow;
    pub use nfssim::{NfsWorld, WorldConfig};
    pub use readahead_core::{NfsHeur, NfsHeurConfig, ReadaheadPolicy, SharedCursorPool};
    pub use simcore::{SimDuration, SimRng, SimTime};
    pub use testbed::{ClusterBench, ClusterConfig, LocalBench, Rig, StrideBench};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let _ = WorldConfig::default();
        let _ = Rig::scsi(1);
        let _ = ReadaheadPolicy::cursor();
    }
}
