//! Seed-driven decoder fuzzing: a corpus of valid messages is mutated —
//! truncations, bit flips, length-field inflation, random splices — and
//! every decoder entry point must return a typed `XdrError` or a decoded
//! value, never panic and never silently misparse a short opaque.
//!
//! Pure-random garbage is also thrown at the record reader and both RPC
//! header decoders. The loops are seeded `SimRng`, so any failure is
//! reproducible from the case index printed in the panic message.

use nfsproto::{
    CallHeader, Fattr3, FileHandle, NfsCall, NfsProc, NfsReply, NfsStatus, RecordReader,
    ReplyHeader, StableHow, XdrDecoder, XdrError,
};
use simcore::SimRng;

fn corpus(rng: &mut SimRng) -> Vec<Vec<u8>> {
    let fh = FileHandle {
        fsid: rng.next_u64() as u32,
        ino: rng.next_u64(),
        generation: rng.next_u64() as u32,
    };
    let xid = rng.next_u64() as u32;
    let attrs = Fattr3 {
        is_dir: rng.chance(0.5),
        size: rng.next_u64(),
        fileid: rng.next_u64(),
        fsid: rng.next_u64(),
    };
    let write = NfsReply::Write {
        status: NfsStatus::Ok,
        attrs: Some(attrs),
        count: 8192,
        committed: StableHow::FileSync,
        verf: rng.next_u64(),
    };
    // The same WRITE reply from a server that records pre-op attributes:
    // the `wcc_data` flag after the status is on, and 24 bytes follow.
    let mut pre_op = write.encode(xid);
    pre_op[28..32].copy_from_slice(&1u32.to_be_bytes());
    pre_op.splice(32..32, [0x5a; 24]);
    vec![
        NfsCall::Getattr { fh }.encode(xid),
        NfsCall::Lookup {
            dir: fh,
            name: "fuzzed-name".into(),
        }
        .encode(xid),
        NfsCall::Read {
            fh,
            offset: rng.next_u64(),
            count: rng.gen_range(1u32..65_536),
        }
        .encode(xid),
        NfsCall::Write {
            fh,
            offset: rng.next_u64(),
            count: rng.gen_range(1u32..65_536),
            stable: StableHow::Unstable,
        }
        .encode(xid),
        NfsCall::Commit {
            fh,
            offset: 0,
            count: 0,
        }
        .encode(xid),
        NfsCall::Readdir {
            dir: fh,
            cookie: rng.next_u64(),
            cookieverf: rng.next_u64(),
            count: rng.gen_range(1u32..65_536),
        }
        .encode(xid),
        NfsCall::Readdirplus {
            dir: fh,
            cookie: rng.next_u64(),
            cookieverf: rng.next_u64(),
            dircount: rng.gen_range(1u32..8_192),
            maxcount: rng.gen_range(1u32..65_536),
        }
        .encode(xid),
        NfsReply::Getattr {
            status: NfsStatus::Ok,
            attrs: Some(attrs),
        }
        .encode(xid),
        NfsReply::Lookup {
            status: NfsStatus::Ok,
            fh: Some(fh),
            obj_attrs: Some(attrs),
            dir_attrs: Some(attrs),
        }
        .encode(xid),
        NfsReply::Lookup {
            status: NfsStatus::NoEnt,
            fh: None,
            obj_attrs: None,
            dir_attrs: Some(attrs),
        }
        .encode(xid),
        NfsReply::Read {
            status: NfsStatus::Ok,
            attrs: Some(attrs),
            count: 8192,
            eof: false,
        }
        .encode(xid),
        write.encode(xid),
        pre_op,
        NfsReply::Commit {
            status: NfsStatus::Ok,
            attrs: Some(attrs),
            verf: rng.next_u64(),
        }
        .encode(xid),
        NfsReply::Readdir {
            status: NfsStatus::Ok,
            dir_attrs: Some(attrs),
            plus: false,
            cookieverf: rng.next_u64(),
            entries: rng.gen_range(0u32..200),
            bytes: rng.gen_range(0u32..65_536),
            eof: rng.chance(0.5),
        }
        .encode(xid),
        NfsReply::Readdir {
            status: NfsStatus::Ok,
            dir_attrs: None,
            plus: true,
            cookieverf: rng.next_u64(),
            entries: rng.gen_range(0u32..200),
            bytes: rng.gen_range(0u32..65_536),
            eof: rng.chance(0.5),
        }
        .encode(xid),
    ]
}

/// A captured-style text trace (the `nfstrace` import format) whose
/// records are lowered to wire messages and folded into the fuzz corpus —
/// the decoders must hold up against exactly the op mix an imported
/// production trace replays.
const IMPORTED_TRACE: &str = "\
# time_us client op fh offset len
0 1 readdir d10000 0 64
40 1 lookup d10000 0 11
55 1 getattr f10000 0 0
90 1 read f10000 0 8192
130 2 lookup d10001 3 7
150 2 readdir d10001 64 64
170 2 write f10003 8192 4096
";

/// Lowers one imported trace record to an encoded call message.
fn trace_record_to_call(r: &nfstrace::TraceRecord, xid: u32) -> Vec<u8> {
    let fh = FileHandle {
        fsid: 1,
        ino: r.fh,
        generation: 1,
    };
    r.to_call(fh, StableHow::Unstable).encode(xid)
}

fn imported_corpus() -> Vec<Vec<u8>> {
    let trace = nfstrace::from_text(IMPORTED_TRACE).expect("embedded trace parses");
    trace
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| trace_record_to_call(r, i as u32))
        .collect()
}

/// Applies one random mutation to `buf`.
fn mutate(buf: &mut Vec<u8>, rng: &mut SimRng) {
    if buf.is_empty() {
        return;
    }
    match rng.gen_range(0u32..5) {
        // Truncate to an arbitrary prefix.
        0 => {
            let cut = rng.gen_range(0usize..buf.len());
            buf.truncate(cut);
        }
        // Flip a random bit.
        1 => {
            let i = rng.gen_range(0usize..buf.len());
            buf[i] ^= 1 << rng.gen_range(0u32..8);
        }
        // Overwrite an aligned word with an extreme length-like value.
        2 => {
            let words = buf.len() / 4;
            if words > 0 {
                let w = rng.gen_range(0usize..words) * 4;
                let v = *rng
                    .choose(&[u32::MAX, u32::MAX - 1, 1 << 31, 1 << 20, 0x7fff_ffff])
                    .expect("non-empty");
                buf[w..w + 4].copy_from_slice(&v.to_be_bytes());
            }
        }
        // Splice random garbage into the middle.
        3 => {
            let at = rng.gen_range(0usize..=buf.len());
            let n = rng.gen_range(1usize..16);
            let junk: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
            buf.splice(at..at, junk);
        }
        // Duplicate a tail fragment (stutter).
        _ => {
            let from = rng.gen_range(0usize..buf.len());
            let tail = buf[from..].to_vec();
            buf.extend_from_slice(&tail);
        }
    }
}

const ALL_PROCS: [NfsProc; 7] = [
    NfsProc::Getattr,
    NfsProc::Lookup,
    NfsProc::Read,
    NfsProc::Write,
    NfsProc::Commit,
    NfsProc::Readdir,
    NfsProc::Readdirplus,
];

#[test]
fn mutated_corpus_never_panics_any_decoder() {
    let mut rng = SimRng::new(0xF022);
    for case in 0..500u64 {
        let mut seeds = corpus(&mut rng);
        seeds.extend(imported_corpus());
        for mut buf in seeds {
            for _ in 0..rng.gen_range(1u32..4) {
                mutate(&mut buf, &mut rng);
            }
            // Every entry point; results only need to be non-panicking.
            let _ = NfsCall::decode(&buf);
            for p in ALL_PROCS {
                let _ = NfsReply::decode(p, &buf);
            }
            let _ = CallHeader::decode(&mut XdrDecoder::new(&buf));
            let _ = ReplyHeader::decode(&mut XdrDecoder::new(&buf));
            let _ = FileHandle::decode(&mut XdrDecoder::new(&buf));
            let _ = case;
        }
    }
}

#[test]
fn pure_garbage_never_panics() {
    let mut rng = SimRng::new(0x6A21);
    for _ in 0..3_000 {
        let len = rng.gen_range(0usize..512);
        let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = NfsCall::decode(&buf);
        for p in ALL_PROCS {
            let _ = NfsReply::decode(p, &buf);
        }
        let _ = CallHeader::decode(&mut XdrDecoder::new(&buf));
        let _ = ReplyHeader::decode(&mut XdrDecoder::new(&buf));
        let mut reader = RecordReader::new();
        let _ = reader.push(&buf);
        while reader.next_record().is_some() {}
    }
}

/// Short opaque reads must surface as typed `Truncated` errors, not
/// silently parse. This pins the fix: a declared length larger than the
/// remaining buffer is an error everywhere a counted item is read.
#[test]
fn short_opaques_are_typed_errors_not_silent_truncation() {
    let mut rng = SimRng::new(0x5047);
    for case in 0..200u64 {
        // A LOOKUP whose name length field claims more than is present.
        let call = NfsCall::Lookup {
            dir: FileHandle {
                fsid: 1,
                ino: rng.next_u64(),
                generation: 2,
            },
            name: "a-name-of-some-length".into(),
        };
        let mut buf = call.encode(9);
        let name_len_at = buf.len() - 4 - 24; // length word of the 21-byte name
        let claimed = rng.gen_range(22u32..4096);
        buf[name_len_at..name_len_at + 4].copy_from_slice(&claimed.to_be_bytes());
        match NfsCall::decode(&buf) {
            Err(XdrError::Truncated { .. }) | Err(XdrError::BadUtf8) => {}
            other => panic!("case {case}: short opaque produced {other:?}"),
        }

        // A file handle whose opaque claims 16 bytes but the buffer ends.
        let mut e = nfsproto::XdrEncoder::new();
        e.put_u32(16);
        e.put_u32(0xdead_beef); // only 4 of the 16 bytes present
        let buf = e.finish();
        assert!(
            matches!(
                FileHandle::decode(&mut XdrDecoder::new(&buf)),
                Err(XdrError::Truncated { .. })
            ),
            "case {case}: truncated handle accepted"
        );
    }
}

/// Imported-trace records lower to calls that decode back to the same
/// procedure with the trace's own offsets and counts intact.
#[test]
fn imported_trace_records_decode_to_matching_calls() {
    let trace = nfstrace::from_text(IMPORTED_TRACE).expect("embedded trace parses");
    let bufs = imported_corpus();
    assert_eq!(bufs.len(), trace.len());
    for (i, (r, buf)) in trace.records.iter().zip(&bufs).enumerate() {
        let (xid, call) = NfsCall::decode(buf).unwrap_or_else(|e| panic!("record {i}: {e}"));
        assert_eq!(xid, i as u32);
        match (r.op, &call) {
            (nfstrace::TraceOp::Read, NfsCall::Read { offset, count, .. }) => {
                assert_eq!((*offset, *count), (r.offset, r.len));
            }
            (nfstrace::TraceOp::Write, NfsCall::Write { offset, count, .. }) => {
                assert_eq!((*offset, *count), (r.offset, r.len));
            }
            (nfstrace::TraceOp::Getattr, NfsCall::Getattr { fh }) => {
                assert_eq!(fh.ino, r.fh);
            }
            (nfstrace::TraceOp::Lookup, NfsCall::Lookup { dir, name }) => {
                assert_eq!(dir.ino, r.fh);
                assert_eq!(name.len(), r.len.max(1) as usize);
            }
            (nfstrace::TraceOp::Readdir, NfsCall::Readdir { cookie, count, .. }) => {
                assert_eq!((*cookie, *count), (r.offset, r.len));
            }
            other => panic!("record {i}: op/call mismatch {other:?}"),
        }
    }
}

/// Mutations that leave a message well-formed must decode to *something*
/// (possibly different field values) — and decoding the re-encoded
/// result must be stable. Guards against decoders that read past their
/// arguments into trailing bytes.
#[test]
fn decode_is_prefix_stable_with_trailing_junk() {
    let mut rng = SimRng::new(0x7A11);
    for case in 0..200u64 {
        for buf in corpus(&mut rng) {
            let mut extended = buf.clone();
            let junk: Vec<u8> = (0..rng.gen_range(1usize..64))
                .map(|_| rng.next_u64() as u8)
                .collect();
            extended.extend_from_slice(&junk);
            // Calls carry their own framing; trailing bytes (e.g. from a
            // coalesced TCP read handed over un-framed) must not change
            // the decoded value when the prefix decodes.
            if let Ok((xid, call)) = NfsCall::decode(&buf) {
                let (xid2, call2) =
                    NfsCall::decode(&extended).unwrap_or_else(|e| panic!("case {case}: {e}"));
                assert_eq!((xid, &call), (xid2, &call2), "case {case}");
            }
        }
    }
}
