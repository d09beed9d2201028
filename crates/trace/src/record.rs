//! Trace records.
//!
//! The paper's heuristics grew out of the authors' passive NFS tracing
//! work (Ellard et al., FAST '03): long-term packet traces of production
//! servers, from which they observed that "many NFS requests arrive at the
//! server in a different order than originally intended by the client."
//! [`TraceRecord`] is a minimal schema of such a trace — enough to carry
//! the request streams the heuristics are judged on.

use std::fmt;

use nfsproto::{FileHandle, NfsCall, StableHow};

/// Operation kind in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceOp {
    /// READ of `len` bytes at `offset`.
    Read,
    /// WRITE of `len` bytes at `offset`.
    Write,
    /// GETATTR (offset/len are zero).
    Getattr,
    /// LOOKUP of a child in directory `fh`; `offset` is the child's index
    /// within the directory, `len` the component-name length in bytes.
    Lookup,
    /// READDIR(PLUS) chunk on directory `fh`; `offset` is the resume
    /// cookie (entry index), `len` the number of entries requested.
    Readdir,
}

impl TraceOp {
    /// The token used in the text format.
    pub fn token(self) -> &'static str {
        match self {
            TraceOp::Read => "read",
            TraceOp::Write => "write",
            TraceOp::Getattr => "getattr",
            TraceOp::Lookup => "lookup",
            TraceOp::Readdir => "readdir",
        }
    }

    /// Inverse of [`TraceOp::token`].
    pub fn from_token(s: &str) -> Option<Self> {
        match s {
            "read" => Some(TraceOp::Read),
            "write" => Some(TraceOp::Write),
            "getattr" => Some(TraceOp::Getattr),
            "lookup" => Some(TraceOp::Lookup),
            "readdir" => Some(TraceOp::Readdir),
            _ => None,
        }
    }
}

/// One request as seen at the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival time in microseconds from trace start.
    pub time_us: u64,
    /// Client identifier (host).
    pub client: u32,
    /// Operation.
    pub op: TraceOp,
    /// File handle (opaque 64-bit key, as the heuristics see it).
    pub fh: u64,
    /// Byte offset.
    pub offset: u64,
    /// Byte count.
    pub len: u32,
}

impl TraceRecord {
    /// A READ record.
    pub fn read(time_us: u64, client: u32, fh: u64, offset: u64, len: u32) -> Self {
        TraceRecord {
            time_us,
            client,
            op: TraceOp::Read,
            fh,
            offset,
            len,
        }
    }

    /// The NFSv3 call this record stands for, addressed to `fh`. A WRITE
    /// carries `stable`; a LOOKUP asks for a `len`-byte name and a
    /// READDIR for `len` entries, each at least one.
    pub fn to_call(self, fh: FileHandle, stable: StableHow) -> NfsCall {
        match self.op {
            TraceOp::Read => NfsCall::Read {
                fh,
                offset: self.offset,
                count: self.len,
            },
            TraceOp::Write => NfsCall::Write {
                fh,
                offset: self.offset,
                count: self.len,
                stable,
            },
            TraceOp::Getattr => NfsCall::Getattr { fh },
            TraceOp::Lookup => NfsCall::Lookup {
                dir: fh,
                name: "x".repeat(self.len.max(1) as usize),
            },
            TraceOp::Readdir => NfsCall::Readdir {
                dir: fh,
                cookie: self.offset,
                cookieverf: 0,
                count: self.len.max(1),
            },
        }
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {:x} {} {}",
            self.time_us,
            self.client,
            self.op.token(),
            self.fh,
            self.offset,
            self.len
        )
    }
}

/// A whole trace: records in arrival order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// The records, ordered by arrival.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Only the READ records.
    pub fn reads(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter().filter(|r| r.op == TraceOp::Read)
    }

    /// Distinct file handles touched.
    pub fn file_handles(&self) -> Vec<u64> {
        let mut fhs: Vec<u64> = self.records.iter().map(|r| r.fh).collect();
        fhs.sort_unstable();
        fhs.dedup();
        fhs
    }

    /// Fraction of READs whose offset is exactly the end of the previous
    /// READ on the same file handle — the naive sequentiality of the
    /// arrival stream (what the *server* sees, reorderings included).
    pub fn arrival_sequentiality(&self) -> f64 {
        use std::collections::HashMap;
        let mut next: HashMap<u64, u64> = HashMap::new();
        let mut seq = 0u64;
        let mut total = 0u64;
        for r in self.reads() {
            total += 1;
            if next.get(&r.fh) == Some(&r.offset) {
                seq += 1;
            }
            next.insert(r.fh, r.offset + u64::from(r.len));
        }
        if total == 0 {
            0.0
        } else {
            seq as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_roundtrip() {
        for op in [
            TraceOp::Read,
            TraceOp::Write,
            TraceOp::Getattr,
            TraceOp::Lookup,
            TraceOp::Readdir,
        ] {
            assert_eq!(TraceOp::from_token(op.token()), Some(op));
        }
        assert_eq!(TraceOp::from_token("fsync"), None);
    }

    #[test]
    fn display_format() {
        let r = TraceRecord::read(1_000, 2, 0xabc, 8_192, 8_192);
        assert_eq!(format!("{r}"), "1000 2 read abc 8192 8192");
    }

    #[test]
    fn sequentiality_of_pure_sequential_trace() {
        let mut t = Trace::new();
        for b in 0..10u64 {
            t.records
                .push(TraceRecord::read(b * 100, 1, 7, b * 8_192, 8_192));
        }
        // First read has no predecessor; the other nine are sequential.
        assert!((t.arrival_sequentiality() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn sequentiality_of_random_trace_is_low() {
        let mut t = Trace::new();
        for b in 0..10u64 {
            t.records.push(TraceRecord::read(
                b * 100,
                1,
                7,
                (b * 7_919) % 100 * 8_192,
                8_192,
            ));
        }
        assert!(t.arrival_sequentiality() < 0.3);
    }

    #[test]
    fn file_handles_deduped() {
        let mut t = Trace::new();
        t.records.push(TraceRecord::read(0, 1, 5, 0, 1));
        t.records.push(TraceRecord::read(1, 1, 3, 0, 1));
        t.records.push(TraceRecord::read(2, 1, 5, 0, 1));
        assert_eq!(t.file_handles(), vec![3, 5]);
    }

    #[test]
    fn reads_filters_ops() {
        let mut t = Trace::new();
        t.records.push(TraceRecord::read(0, 1, 5, 0, 1));
        t.records.push(TraceRecord {
            time_us: 1,
            client: 1,
            op: TraceOp::Getattr,
            fh: 5,
            offset: 0,
            len: 0,
        });
        assert_eq!(t.reads().count(), 1);
        assert_eq!(t.len(), 2);
    }
}
