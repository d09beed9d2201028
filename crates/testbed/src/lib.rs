//! The paper's testbed, reassembled.
//!
//! This crate drives the substrate crates through the exact experiments of
//! the paper's evaluation: the §4.2 concurrent-reader benchmark against
//! the local file system ([`LocalBench`]) and over NFS ([`NfsBench`]), the
//! §7 stride benchmark ([`StrideBench`]), and one function per published
//! figure/table in [`experiments`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod local;
mod mixed;
mod nfs;
mod replay;
mod report;
mod rig;
mod stride;
mod trace;

pub use local::{LocalBench, RunResult, READER_COUNTS};
pub use mixed::{run_mixed, MixRatios, MixedResult};
pub use nfs::NfsBench;
pub use replay::{replay, ReplayResult};
pub use report::{
    render_device_line, render_disk_line, render_endpoint_line, render_heur_line, render_tcp_line,
    Figure, Series,
};
pub use rig::Rig;
pub use stride::{stride_order, StrideBench};
pub use trace::{create_trace_files, issue_record};
