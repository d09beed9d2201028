//! Trace-driven workload helpers shared by every consumer that replays an
//! `nfstrace` trace through a world: file creation sized from the trace,
//! and the one mapping from a trace record to an `NfsWorld` op.

use std::collections::{BTreeMap, HashMap};

use nfsproto::FileHandle;
use nfssim::{NfsWorld, OpId};
use nfstrace::{Trace, TraceOp, TraceRecord};
use simcore::SimTime;

/// Creates one file on `client` per trace handle, each big enough for its
/// largest access rounded up to a whole 64 KB cluster, and returns the
/// trace-handle → world-handle map. Files are created in trace-handle
/// order, so the disk layout (and every result) is a function of the
/// trace and the seed alone.
pub fn create_trace_files(
    world: &mut NfsWorld,
    client: usize,
    trace: &Trace,
) -> HashMap<u64, FileHandle> {
    let mut max_end: BTreeMap<u64, u64> = BTreeMap::new();
    for r in &trace.records {
        let end = r.offset + u64::from(r.len).max(1);
        let e = max_end.entry(r.fh).or_insert(0);
        *e = (*e).max(end);
    }
    max_end
        .into_iter()
        .map(|(fh, end)| {
            (
                fh,
                world.create_file_for(client, end.div_ceil(65_536) * 65_536),
            )
        })
        .collect()
}

/// Issues trace record `r` on `client` at `at` against `fh` (its world
/// handle), returning the op. A zero `len` counts as one byte (or one
/// entry). A READDIR record stands alone: its `len` is the entries
/// requested and the chunk is its directory's last.
pub fn issue_record(
    world: &mut NfsWorld,
    client: usize,
    at: SimTime,
    fh: FileHandle,
    r: &TraceRecord,
    tag: u64,
) -> OpId {
    let len = r.len.max(1);
    match r.op {
        TraceOp::Read => world.read_from(client, at, fh, r.offset, u64::from(len), tag),
        TraceOp::Write => world.write_from(client, at, fh, r.offset, u64::from(len), tag),
        TraceOp::Getattr => world.getattr_from(client, at, fh, tag),
        TraceOp::Lookup => world.lookup_from(client, at, fh, len, tag),
        TraceOp::Readdir => world.readdir_from(client, at, fh, r.offset, len, true, tag),
    }
}
