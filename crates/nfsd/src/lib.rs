//! Real-socket NFSv3 endpoint over the simulated server stack.
//!
//! The simulator answers one question well — *what does the server do,
//! and when* — but everything in it runs on a virtual clock behind fake
//! transports. This crate puts a real TCP listener in front of the same
//! server half: ONC RPC (RFC 5531) with XDR record marking, a minimal
//! MOUNT v3 program handing out root handles, and the NFSv3 procedures
//! the simulator models, dispatched into the identical `nfsheur` table,
//! write-gathering pool, and disk model via the world's external-ingress
//! hooks. A wall-clock adapter ([`Clock`]) maps real elapsed time onto
//! the virtual axis so gather windows and SlowDown stalls fire on real
//! schedule.
//!
//! The payoff is the differential harness ([`sim_replay`],
//! [`DiffReport`]): replay one
//! seed-derived trace both purely virtually and over a real socket, then
//! diff the servers' heuristic books. Order-driven counters must match
//! exactly; only time-driven gather flushing gets tolerance. That closes
//! the loop on the paper's benchmarking-trap theme — the tricks survive
//! contact with a real wire, and the harness proves it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod clock;
mod diff;
mod endpoint;
mod server;
pub mod wire;

pub use client::{ClientError, NfsClient, ReplayStats};
pub use clock::{Clock, ManualClock, WallClock};
pub use diff::{settle, sim_replay, DiffLine, DiffReport, HeurBooks};
pub use endpoint::{build_world, Endpoint, EndpointStats, ExportSpec, EXPORT_PATH, ROOT_INO};
pub use server::{bind, serve};
