//! The paper's testbed, reassembled.
//!
//! This crate drives the substrate crates through the exact experiments of
//! the paper's evaluation: the §4.2 concurrent-reader benchmark against
//! the local file system ([`LocalBench`]) and over NFS from one or many
//! client hosts ([`ClusterBench`]), the §7 stride benchmark
//! ([`StrideBench`]), open-loop trace [`replay`], the §8 mixed workload
//! ([`run_mixed`]), heterogeneous per-host workloads ([`MixBench`]), and
//! one function per published figure/table in [`experiments`].
//!
//! Every harness that drives an `NfsWorld` runs on one event loop: it
//! builds one plan per client host and hands the plans to that loop,
//! which models the client processes (a fixed CPU charge between one
//! completion and the next issue, open-loop arrivals after the events due
//! at their instant).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
pub mod experiments;
mod harness;
mod local;
mod mixed;
mod replay;
mod report;
mod rig;
mod stride;

pub use cluster::{ClientReport, ClusterBench, ClusterRunResult};
pub use harness::{ClientWorkload, MixBench, MixClientResult, MixResult, PROC_CPU};
pub use local::{LocalBench, RunResult, READER_COUNTS};
pub use mixed::{run_mixed, MixRatios, MixedResult};
pub use replay::{replay, ReplayResult};
pub use report::{
    render_device_line, render_endpoint_line, render_heur_line, render_tcp_line, Figure, Series,
};
pub use rig::{ClusterConfig, Rig};
pub use stride::{stride_order, StrideBench};
