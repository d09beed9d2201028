//! NFS trace tooling: records, a text format, synthetic workload
//! generation with reorder injection, and heuristic-quality scoring.
//!
//! The paper's heuristics were motivated by the authors' passive tracing
//! of production NFS servers (Ellard et al., FAST '03): reorderings of a
//! few percent were enough to defeat the stock sequentiality metric. The
//! production traces themselves are not distributable, so [`synth`]
//! regenerates their salient request-stream shapes, and [`analyze`]
//! replays any trace through the `readahead-core` heuristics to measure
//! — the paper's own methodology — how much read-ahead each one would
//! have enabled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod synth;
pub mod tree;

mod record;
mod text;

pub use analyze::{score, HeuristicQuality};
pub use record::{Trace, TraceOp, TraceRecord};
pub use text::{from_text, to_text, ParseError};
pub use tree::{build_tree, build_workload, compile_burst, tree_walk, BuildSpec, Tree};
