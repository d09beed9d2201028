//! Simulated NFS installation: client, server, and the wire between.
//!
//! [`NfsWorld`] is the paper's testbed in miniature: a client machine with
//! `nfsiod` daemons whose jittered marshalling naturally reorders requests,
//! a server with an `nfsd` pool, the `nfsheur` heuristics from
//! [`readahead_core`], an [`ffs`] file system on a [`diskmodel`] drive, and
//! a [`netsim`] gigabit network speaking real [`nfsproto`] messages over
//! UDP or TCP.
//!
//! The world generalises to a *cluster*: [`NfsWorld::new_cluster`] builds N
//! client hosts (each with its own links, caches, daemons, and RNG stream)
//! sharing one server, one `nfsheur` table, one duplicate-request cache,
//! and one disk, with per-client [`ContentionStats`] attributing the
//! interference. A 1-host cluster is bit-identical to the classic world.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod books;
mod client_books;
mod config;
mod world;

pub use config::{ClientHostConfig, CpuModel, WorldConfig, NFSDS, RSIZE};
pub use world::{
    BlockState, ClientStats, ContentionStats, ExtReply, NfsWorld, OpDone, OpId, OpOutcome,
    ServerEvent, ServerStats,
};
