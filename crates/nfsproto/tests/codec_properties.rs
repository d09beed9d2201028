//! Property tests: encode/decode are exact inverses for every message
//! variant, and malformed buffers (truncated or corrupted) are rejected
//! without panicking.
//!
//! Driven by seeded `SimRng` loops rather than a property-testing crate so
//! the workspace builds offline; every failure message carries the case
//! index, which together with the fixed seed reproduces the input.

use nfsproto::{write_verf, Fattr3, FileHandle, NfsCall, NfsProc, NfsReply, NfsStatus, StableHow};
use simcore::SimRng;

const CASES: u64 = 300;

fn arb_fh(rng: &mut SimRng) -> FileHandle {
    FileHandle {
        fsid: rng.next_u64() as u32,
        ino: rng.next_u64(),
        generation: rng.next_u64() as u32,
    }
}

fn arb_name(rng: &mut SimRng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
    let len = rng.gen_range(1usize..=64);
    (0..len)
        .map(|_| *rng.choose(ALPHABET).expect("non-empty") as char)
        .collect()
}

fn arb_stable(rng: &mut SimRng) -> StableHow {
    *rng.choose(&[
        StableHow::Unstable,
        StableHow::DataSync,
        StableHow::FileSync,
    ])
    .expect("non-empty")
}

/// One call of each variant, fields randomized.
fn arb_calls(rng: &mut SimRng) -> Vec<NfsCall> {
    vec![
        NfsCall::Getattr { fh: arb_fh(rng) },
        NfsCall::Lookup {
            dir: arb_fh(rng),
            name: arb_name(rng),
        },
        NfsCall::Read {
            fh: arb_fh(rng),
            offset: rng.next_u64(),
            count: rng.gen_range(1u32..65_536),
        },
        NfsCall::Write {
            fh: arb_fh(rng),
            offset: rng.next_u64(),
            count: rng.gen_range(1u32..65_536),
            stable: arb_stable(rng),
        },
        NfsCall::Readdir {
            dir: arb_fh(rng),
            cookie: rng.next_u64(),
            cookieverf: rng.next_u64(),
            count: rng.gen_range(512u32..65_536),
        },
        NfsCall::Readdirplus {
            dir: arb_fh(rng),
            cookie: rng.next_u64(),
            cookieverf: rng.next_u64(),
            dircount: rng.gen_range(512u32..16_384),
            maxcount: rng.gen_range(512u32..65_536),
        },
        NfsCall::Commit {
            fh: arb_fh(rng),
            offset: rng.next_u64(),
            count: rng.gen_range(0u32..65_536),
        },
    ]
}

/// Bytes `wire_bytes()` counts that `encode()` elides: a WRITE call's
/// data travels as a length, so the wire size exceeds the encoding by
/// exactly the payload.
fn call_elided_payload(call: &NfsCall) -> u64 {
    match call {
        NfsCall::Write { count, .. } => u64::from(*count),
        _ => 0,
    }
}

/// Reply-side elided payload: READDIR(PLUS) entry lists. READ data is
/// encoded (as zeros), so it is not elided.
fn reply_elided_payload(reply: &NfsReply) -> u64 {
    match reply {
        NfsReply::Readdir { bytes, .. } => u64::from(*bytes),
        _ => 0,
    }
}

fn arb_fattr(rng: &mut SimRng) -> Fattr3 {
    Fattr3 {
        is_dir: rng.chance(0.5),
        size: rng.next_u64(),
        fileid: rng.next_u64(),
        fsid: rng.next_u64(),
    }
}

/// A `post_op_attr`: present or absent.
fn arb_post_op(rng: &mut SimRng) -> Option<Fattr3> {
    rng.chance(0.75).then(|| arb_fattr(rng))
}

/// One reply of each variant (success and error forms), fields
/// randomized. A failed reply holds the zero values its shape has no room
/// for.
fn arb_replies(rng: &mut SimRng) -> Vec<(NfsProc, NfsReply)> {
    vec![
        (
            NfsProc::Getattr,
            NfsReply::Getattr {
                status: NfsStatus::Ok,
                attrs: Some(arb_fattr(rng)),
            },
        ),
        (
            NfsProc::Getattr,
            NfsReply::Getattr {
                status: NfsStatus::Stale,
                attrs: None,
            },
        ),
        (
            NfsProc::Lookup,
            NfsReply::Lookup {
                status: NfsStatus::Ok,
                fh: Some(arb_fh(rng)),
                obj_attrs: arb_post_op(rng),
                dir_attrs: arb_post_op(rng),
            },
        ),
        (
            NfsProc::Lookup,
            NfsReply::Lookup {
                status: *rng
                    .choose(&[NfsStatus::NoEnt, NfsStatus::NotDir])
                    .expect("non-empty"),
                fh: None,
                obj_attrs: None,
                dir_attrs: arb_post_op(rng),
            },
        ),
        (
            NfsProc::Read,
            NfsReply::Read {
                status: NfsStatus::Ok,
                attrs: arb_post_op(rng),
                count: rng.gen_range(0u32..1_048_576),
                eof: rng.chance(0.5),
            },
        ),
        (
            NfsProc::Read,
            NfsReply::Read {
                status: NfsStatus::Stale,
                attrs: arb_post_op(rng),
                count: 0,
                eof: false,
            },
        ),
        (
            NfsProc::Write,
            NfsReply::Write {
                status: NfsStatus::Ok,
                attrs: arb_post_op(rng),
                count: rng.gen_range(0u32..1_048_576),
                committed: arb_stable(rng),
                verf: rng.next_u64(),
            },
        ),
        (
            NfsProc::Write,
            NfsReply::Write {
                status: *rng
                    .choose(&[NfsStatus::Io, NfsStatus::Inval, NfsStatus::NoSpc])
                    .expect("non-empty"),
                attrs: arb_post_op(rng),
                count: 0,
                committed: StableHow::FileSync,
                verf: 0,
            },
        ),
        (
            NfsProc::Readdir,
            NfsReply::Readdir {
                status: NfsStatus::Ok,
                dir_attrs: arb_post_op(rng),
                plus: false,
                cookieverf: rng.next_u64(),
                entries: rng.gen_range(0u32..512),
                bytes: rng.gen_range(0u32..65_536),
                eof: rng.chance(0.5),
            },
        ),
        (
            NfsProc::Readdirplus,
            NfsReply::Readdir {
                status: NfsStatus::Ok,
                dir_attrs: arb_post_op(rng),
                plus: true,
                cookieverf: rng.next_u64(),
                entries: rng.gen_range(0u32..512),
                bytes: rng.gen_range(0u32..131_072),
                eof: rng.chance(0.5),
            },
        ),
        (
            NfsProc::Readdir,
            NfsReply::Readdir {
                status: NfsStatus::Stale,
                dir_attrs: None,
                plus: false,
                cookieverf: 0,
                entries: 0,
                bytes: 0,
                eof: false,
            },
        ),
        (
            NfsProc::Commit,
            NfsReply::Commit {
                status: NfsStatus::Ok,
                attrs: arb_post_op(rng),
                verf: rng.next_u64(),
            },
        ),
        (
            NfsProc::Commit,
            NfsReply::Commit {
                status: NfsStatus::Io,
                attrs: arb_post_op(rng),
                verf: 0,
            },
        ),
    ]
}

/// Re-encodes a WRITE or COMMIT reply's `wcc_data` with pre-op
/// attributes present, as a server that records them sends it: the flag
/// after the status turns on and 24 bytes (size, mtime, ctime) follow.
fn with_pre_op_attrs(buf: &[u8]) -> Vec<u8> {
    let mut out = buf.to_vec();
    out[28..32].copy_from_slice(&1u32.to_be_bytes());
    out.splice(32..32, [0xa5; 24]);
    out
}

/// The wire-size honesty contract: for every call and reply variant,
/// `wire_bytes()` equals the actual encoded length plus the elided data
/// payload (zero for everything except WRITE calls and READDIR(PLUS)
/// replies). This is the estimate the transport timing
/// model runs on, so a drifting variant silently distorts every figure.
#[test]
fn wire_bytes_equal_encoded_length_plus_elided_payload() {
    let mut rng = SimRng::new(0x3172E);
    for case in 0..CASES {
        let xid = rng.next_u64() as u32;
        for call in arb_calls(&mut rng) {
            assert_eq!(
                call.wire_bytes(),
                call.encode(xid).len() as u64 + call_elided_payload(&call),
                "case {case}: {call:?}"
            );
        }
        for (_, reply) in arb_replies(&mut rng) {
            assert_eq!(
                reply.wire_bytes(),
                reply.encode(xid).len() as u64 + reply_elided_payload(&reply),
                "case {case}: {reply:?}"
            );
        }
    }
}

#[test]
fn every_call_variant_roundtrips() {
    let mut rng = SimRng::new(0xC0DEC);
    for case in 0..CASES {
        let xid = rng.next_u64() as u32;
        for call in arb_calls(&mut rng) {
            let buf = call.encode(xid);
            let (got_xid, got) = NfsCall::decode(&buf)
                .unwrap_or_else(|e| panic!("case {case}: decode {call:?}: {e}"));
            assert_eq!(got_xid, xid, "case {case}");
            assert_eq!(got, call, "case {case}");
        }
    }
}

#[test]
fn every_reply_variant_roundtrips() {
    let mut rng = SimRng::new(0xC0DED);
    for case in 0..CASES {
        let xid = rng.next_u64() as u32;
        for (proc_, reply) in arb_replies(&mut rng) {
            let buf = reply.encode(xid);
            let (got_xid, got) = NfsReply::decode(proc_, &buf)
                .unwrap_or_else(|e| panic!("case {case}: decode {reply:?}: {e}"));
            assert_eq!(got_xid, xid, "case {case}");
            assert_eq!(got, reply, "case {case}");
        }
    }
}

#[test]
fn truncated_calls_error_and_never_panic() {
    let mut rng = SimRng::new(0x7A0C);
    for case in 0..CASES {
        for call in arb_calls(&mut rng) {
            let buf = call.encode(1);
            // Every strict prefix must fail to decode (the full header alone
            // is not a complete call for any variant we encode).
            let cut = rng.gen_range(0usize..buf.len());
            assert!(
                NfsCall::decode(&buf[..cut]).is_err(),
                "case {case}: prefix of {} bytes of {call:?} decoded",
                cut
            );
        }
    }
}

#[test]
fn truncated_replies_error_and_never_panic() {
    let mut rng = SimRng::new(0x7A0D);
    for _case in 0..CASES {
        for (proc_, reply) in arb_replies(&mut rng) {
            let buf = reply.encode(1);
            let min_ok = buf.len();
            let cut = rng.gen_range(0usize..min_ok);
            // Prefixes may decode only if the dropped tail carried no
            // required data; decoding must never panic either way.
            let _ = NfsReply::decode(proc_, &buf[..cut]);
        }
    }
}

#[test]
fn corrupted_headers_are_rejected() {
    let mut rng = SimRng::new(0xBADC0DE);
    for case in 0..CASES {
        for call in arb_calls(&mut rng) {
            let mut buf = call.encode(7);
            // Flip the message-type word (offset 4): no longer a CALL.
            buf[4..8].copy_from_slice(&rng.gen_range(1u32..u32::MAX).to_be_bytes());
            assert!(
                NfsCall::decode(&buf).is_err(),
                "case {case}: corrupted mtype accepted for {call:?}"
            );
            // Corrupt the procedure number to an unknown value.
            let mut buf2 = call.encode(7);
            buf2[20..24].copy_from_slice(&999u32.to_be_bytes());
            assert!(
                NfsCall::decode(&buf2).is_err(),
                "case {case}: unknown procedure accepted"
            );
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = SimRng::new(0x6A26A2E);
    for _ in 0..2_000 {
        let len = rng.gen_range(0usize..256);
        let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = NfsCall::decode(&buf);
        let _ = NfsReply::decode(NfsProc::Read, &buf);
        let _ = NfsReply::decode(NfsProc::Getattr, &buf);
    }
}

/// Verifier semantics: the RFC 1813 cookie is a pure function of the
/// server instance and its boot epoch, changes on every restart, and
/// survives a WRITE-reply → COMMIT-reply wire round trip bit-exactly (a
/// client can only detect a crash window if the cookie it compares is
/// the one the server sent).
#[test]
fn commit_verifier_changes_iff_server_restart() {
    let mut rng = SimRng::new(0x5E12F);
    for case in 0..CASES {
        let instance = rng.next_u64();
        let epoch = rng.gen_range(0u64..1_000);
        let v = write_verf(instance, epoch);
        assert_eq!(
            v,
            write_verf(instance, epoch),
            "case {case}: same boot must reuse the same verifier"
        );
        let restarts = rng.gen_range(1u64..16);
        assert_ne!(
            v,
            write_verf(instance, epoch + restarts),
            "case {case}: {restarts} restart(s) must change the verifier"
        );
        // The cookie travels opaquely through both reply forms.
        let wr = NfsReply::Write {
            status: NfsStatus::Ok,
            attrs: arb_post_op(&mut rng),
            count: rng.gen_range(0u32..1_048_576),
            committed: arb_stable(&mut rng),
            verf: v,
        };
        let (_, dec) = NfsReply::decode(NfsProc::Write, &wr.encode(1)).expect("well-formed");
        assert_eq!(dec, wr, "case {case}");
        let cr = NfsReply::Commit {
            status: NfsStatus::Ok,
            attrs: arb_post_op(&mut rng),
            verf: v,
        };
        let (_, dec) = NfsReply::decode(NfsProc::Commit, &cr.encode(2)).expect("well-formed");
        assert_eq!(dec, cr, "case {case}");
    }
}

#[test]
fn encoded_length_is_word_aligned() {
    let mut rng = SimRng::new(0xA116);
    for case in 0..CASES {
        for call in arb_calls(&mut rng) {
            assert_eq!(call.encode(1).len() % 4, 0, "case {case}: {call:?}");
        }
        for (_, reply) in arb_replies(&mut rng) {
            assert_eq!(reply.encode(1).len() % 4, 0, "case {case}: {reply:?}");
        }
    }
}

#[test]
fn wcc_data_with_pre_op_attributes_decodes() {
    let mut rng = SimRng::new(0x3CC);
    for case in 0..CASES {
        for (proc_, reply) in arb_replies(&mut rng) {
            if !matches!(proc_, NfsProc::Write | NfsProc::Commit) {
                continue;
            }
            let buf = with_pre_op_attrs(&reply.encode(3));
            let got = NfsReply::decode(proc_, &buf)
                .unwrap_or_else(|e| panic!("case {case}: decode {reply:?}: {e}"));
            assert_eq!(got, (3, reply), "case {case}");
        }
    }
}

/// The RFC 1813 reply sizes with every attribute present, 24-byte RPC
/// header included.
#[test]
fn reply_sizes_are_rfc_1813s() {
    let mut rng = SimRng::new(0x5125);
    let a = Some(arb_fattr(&mut rng));
    let ok = NfsStatus::Ok;
    let sizes = [
        (
            NfsReply::Getattr {
                status: ok,
                attrs: a,
            },
            112,
        ),
        (
            NfsReply::Lookup {
                status: ok,
                fh: Some(arb_fh(&mut rng)),
                obj_attrs: a,
                dir_attrs: a,
            },
            224,
        ),
        (
            NfsReply::Read {
                status: ok,
                attrs: a,
                count: 8_192,
                eof: false,
            },
            128 + 8_192,
        ),
        (
            NfsReply::Write {
                status: ok,
                attrs: a,
                count: 8_192,
                committed: StableHow::Unstable,
                verf: 1,
            },
            136,
        ),
        (
            NfsReply::Commit {
                status: ok,
                attrs: a,
                verf: 1,
            },
            128,
        ),
        (
            NfsReply::Readdir {
                status: ok,
                dir_attrs: a,
                plus: false,
                cookieverf: 1,
                entries: 10,
                bytes: 400,
                eof: true,
            },
            136 + 400,
        ),
    ];
    for (reply, bytes) in sizes {
        assert_eq!(reply.wire_bytes(), bytes, "{reply:?}");
    }
}
