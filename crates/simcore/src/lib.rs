//! Deterministic discrete-event simulation core.
//!
//! `simcore` is the substrate under every other crate in this workspace. It
//! provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time;
//! * [`EventQueue`] — a time-ordered event queue with FIFO tie-breaking;
//! * [`SimRng`] — seedable, stream-splittable randomness so that every
//!   experiment is bit-reproducible from a single `u64` seed;
//! * [`OnlineStats`] / [`Summary`] — the statistics used to
//!   report benchmark results the way the paper does (mean over >= 10 runs
//!   with standard deviation);
//! * [`LogHist`] — a streaming log-bucketed latency histogram with bounded
//!   memory and exact shard merging, for tail quantiles at fleet scale;
//! * [`fnv1a`] — the one fold behind every fingerprint;
//! * [`IdWindow`] / [`Slab`] / [`Waitlist`] — an indexed map for ids
//!   issued in increasing order, slot-numbered entries whose freed slots
//!   are reused (with their buffers), and a wait list whose first entry
//!   lives inline. The simulator's own state is indexed by numbers it
//!   hands out, so nothing on the simulated path hashes;
//! * [`counters!`] / [`Tally`] — stats structs declared once, with the
//!   per-host difference and the cluster sum derived from their fields.
//!
//! # Instrumentation discipline
//!
//! The paper stresses that "the diagnostic instrumentation we added to
//! monitor our algorithms confirmed that they were working as intended" —
//! and that this instrumentation must be *disabled during timed runs*.
//! Diagnostics in this workspace follow that rule: they are turned on to
//! diagnose (e.g. `NfsWorld::enable_server_event_log`), and when off they
//! cost nothing and leave every fingerprint unchanged.
//!
//! Nothing here knows about disks, networks, or NFS; those live in the
//! `diskmodel`, `netsim`, and `nfssim` crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod hash;
mod rng;
mod stats;
mod tally;
mod time;
mod window;

pub use event::EventQueue;
pub use hash::{fnv1a, FNV_BASIS};
pub use rng::{SampleRange, SimRng, UniformSample};
pub use stats::{quantile, LogHist, OnlineStats, Summary};
pub use tally::Tally;
pub use time::{SimDuration, SimTime};
pub use window::{IdWindow, Slab, Waitlist};
