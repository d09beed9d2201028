//! Multi-client NFS cluster simulation (§6.3 scaled out).
//!
//! The paper's benchmarking traps get worse, not better, when more than
//! one client hammers a server: every client's working set competes for
//! the same fixed-size `nfsheur` table, so a table that was merely tight
//! for one host thrashes for eight. This crate builds *clusters* — N
//! deterministic client hosts (own `nfsiod` pool, cache, links, seeded
//! RNG stream) sharing one server, one heuristics table, one
//! duplicate-request cache, and one disk — and measures who evicted whom.
//!
//! The cluster harnesses themselves live in `testbed`, on its one event
//! loop: `testbed::ClusterConfig` (one [`nfssim::WorldConfig`] for the
//! server and every host, plus the host count), `testbed::ClusterBench`
//! (the §4.2 concurrent-reader benchmark run from every host at once) and
//! `testbed::MixBench` (heterogeneous per-host workloads). This crate
//! adds:
//!
//! - [`experiments`]: the client-count × table-size grid behind the
//!   `EXPERIMENTS.md` contention table.
//! - [`fleet`]: [`FleetWorld`] — the 100k-client scale tier: fleet
//!   clients as 24-byte slab entries multiplexed onto
//!   a bounded host set per group, groups sharded under
//!   [`simfleet::run_sharded`] with barrier-synchronized load-shed
//!   migration and streaming [`simcore::LogHist`] tail latencies.
//!
//! Determinism contract: a cluster run is a pure function of
//! `(testbed::ClusterConfig, seed)`. Each host derives its RNG stream from the
//! world seed with a splitmix-style per-client gamma, so adding host N+1
//! never perturbs hosts 0..N's private randomness, and host 0's stream is
//! exactly the classic single-client world's stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fleet;

pub use fleet::{DriveWork, FleetConfig, FleetMem, FleetReport, FleetWorld, Migrant};
