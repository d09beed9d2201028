//! Property tests for the shared ONC RPC header module: call and reply
//! headers round-trip for arbitrary field values, the refactored
//! encoders are byte-identical to the historical hand-rolled layouts,
//! and accept-state/verifier handling is exact.

use nfsproto::{
    AcceptStat, CallHeader, NfsCall, NfsReply, NfsStatus, ReplyHeader, XdrDecoder, XdrEncoder,
    XdrError, AUTH_NONE, AUTH_UNIX, MSG_CALL, MSG_REPLY, NFS_PROGRAM, NFS_VERSION, RPC_VERSION,
};
use simcore::SimRng;

const CASES: u64 = 400;

fn arb_accept(rng: &mut SimRng) -> AcceptStat {
    match rng.gen_range(0u32..6) {
        0 => AcceptStat::Success,
        1 => AcceptStat::ProgUnavail,
        2 => AcceptStat::ProgMismatch {
            low: rng.next_u64() as u32,
            high: rng.next_u64() as u32,
        },
        3 => AcceptStat::ProcUnavail,
        4 => AcceptStat::GarbageArgs,
        _ => AcceptStat::SystemErr,
    }
}

#[test]
fn call_headers_roundtrip_for_arbitrary_fields() {
    let mut rng = SimRng::new(0x29C0);
    for case in 0..CASES {
        let h = CallHeader {
            xid: rng.next_u64() as u32,
            prog: rng.next_u64() as u32,
            vers: rng.next_u64() as u32,
            proc_num: rng.next_u64() as u32,
        };
        let mut e = XdrEncoder::new();
        h.encode(&mut e);
        let buf = e.finish();
        let mut d = XdrDecoder::new(&buf);
        let got = CallHeader::decode(&mut d).unwrap_or_else(|err| panic!("case {case}: {err}"));
        assert_eq!(got, h, "case {case}");
        assert_eq!(d.remaining(), 0, "case {case}: trailing bytes");
    }
}

#[test]
fn reply_headers_roundtrip_every_accept_state() {
    let mut rng = SimRng::new(0x29C1);
    for case in 0..CASES {
        let h = ReplyHeader {
            xid: rng.next_u64() as u32,
            stat: arb_accept(&mut rng),
        };
        let mut e = XdrEncoder::new();
        h.encode(&mut e);
        let buf = e.finish();
        let mut d = XdrDecoder::new(&buf);
        let got = ReplyHeader::decode(&mut d).unwrap_or_else(|err| panic!("case {case}: {err}"));
        assert_eq!(got, h, "case {case}");
        assert_eq!(d.remaining(), 0, "case {case}");
    }
}

/// The shared module must reproduce, byte for byte, the header layout
/// `NfsCall::encode`/`NfsReply::encode` have emitted since the first
/// commit — the simulator's wire-size accounting and every fingerprint
/// pin in the workspace depend on it.
#[test]
fn shared_headers_are_byte_identical_to_historical_layout() {
    let mut rng = SimRng::new(0x29C2);
    for _ in 0..CASES {
        let xid = rng.next_u64() as u32;
        let proc_num = *rng.choose(&[1u32, 3, 6, 7, 21]).expect("non-empty");

        let mut e = XdrEncoder::new();
        CallHeader {
            xid,
            prog: NFS_PROGRAM,
            vers: NFS_VERSION,
            proc_num,
        }
        .encode(&mut e);
        let shared = e.finish();

        // The historical inline encoding, verbatim.
        let mut e = XdrEncoder::new();
        e.put_u32(xid)
            .put_u32(0)
            .put_u32(2)
            .put_u32(NFS_PROGRAM)
            .put_u32(NFS_VERSION)
            .put_u32(proc_num)
            .put_u32(1)
            .put_u32(8)
            .put_u32(0)
            .put_u32(0)
            .put_u32(0)
            .put_u32(0);
        assert_eq!(shared, e.finish(), "call header layout drifted");

        let mut e = XdrEncoder::new();
        ReplyHeader::success(xid).encode(&mut e);
        let shared = e.finish();
        let mut e = XdrEncoder::new();
        e.put_u32(xid)
            .put_u32(1)
            .put_u32(0)
            .put_u32(0)
            .put_u32(0)
            .put_u32(0);
        assert_eq!(shared, e.finish(), "reply header layout drifted");
    }
}

/// Whole-message check: NfsCall/NfsReply (which now delegate to the
/// shared module) decode through the shared header path and round-trip.
#[test]
fn messages_still_roundtrip_through_shared_headers() {
    let mut rng = SimRng::new(0x29C3);
    for case in 0..CASES {
        let xid = rng.next_u64() as u32;
        let call = NfsCall::Read {
            fh: nfsproto::FileHandle {
                fsid: rng.next_u64() as u32,
                ino: rng.next_u64(),
                generation: rng.next_u64() as u32,
            },
            offset: rng.next_u64(),
            count: rng.gen_range(1u32..65_536),
        };
        let buf = call.encode(xid);
        let mut d = XdrDecoder::new(&buf);
        let hdr = CallHeader::decode(&mut d).unwrap();
        assert_eq!(
            (hdr.xid, hdr.prog, hdr.vers, hdr.proc_num),
            (xid, NFS_PROGRAM, NFS_VERSION, 6),
            "case {case}"
        );
        let reply = NfsReply::Commit {
            status: NfsStatus::Ok,
            attrs: None,
            verf: rng.next_u64(),
        };
        let buf = reply.encode(xid);
        let mut d = XdrDecoder::new(&buf);
        let hdr = ReplyHeader::decode(&mut d).unwrap();
        assert_eq!(hdr, ReplyHeader::success(xid), "case {case}");
    }
}

#[test]
fn verifier_bodies_of_any_length_are_consumed() {
    let mut rng = SimRng::new(0x29C4);
    for case in 0..CASES {
        // Hand-build a reply whose verifier carries a body (e.g. a real
        // server echoing AUTH_UNIX short-hand); decode must skip it and
        // land exactly on the accept_stat word.
        let body_len = rng.gen_range(0usize..32);
        let body: Vec<u8> = (0..body_len).map(|_| rng.next_u64() as u8).collect();
        let mut e = XdrEncoder::new();
        e.put_u32(11).put_u32(MSG_REPLY).put_u32(0);
        e.put_u32(AUTH_UNIX).put_opaque(&body);
        e.put_u32(0); // accept_stat SUCCESS
        e.put_u32(0xAAAA_BBBB); // first results word
        let buf = e.finish();
        let mut d = XdrDecoder::new(&buf);
        let hdr = ReplyHeader::decode(&mut d).unwrap_or_else(|err| panic!("case {case}: {err}"));
        assert_eq!(hdr.stat, AcceptStat::Success, "case {case}");
        assert_eq!(d.get_u32().unwrap(), 0xAAAA_BBBB, "case {case}");
    }
}

#[test]
fn denied_and_malformed_replies_are_typed_errors() {
    // MSG_DENIED with both rejection reasons.
    for reason in [0u32, 1] {
        let mut e = XdrEncoder::new();
        e.put_u32(3).put_u32(MSG_REPLY).put_u32(1).put_u32(reason);
        let buf = e.finish();
        assert_eq!(
            ReplyHeader::decode(&mut XdrDecoder::new(&buf)),
            Err(XdrError::RpcDenied { reason })
        );
    }
    // A call where a reply is expected.
    let mut e = XdrEncoder::new();
    e.put_u32(3).put_u32(MSG_CALL);
    let buf = e.finish();
    assert!(matches!(
        ReplyHeader::decode(&mut XdrDecoder::new(&buf)),
        Err(XdrError::BadEnum {
            value: MSG_CALL,
            ..
        })
    ));
    // Wrong RPC version on a call.
    let mut e = XdrEncoder::new();
    e.put_u32(3).put_u32(MSG_CALL).put_u32(RPC_VERSION + 1);
    let buf = e.finish();
    assert!(matches!(
        CallHeader::decode(&mut XdrDecoder::new(&buf)),
        Err(XdrError::BadEnum { .. })
    ));
    // Unknown accept_stat.
    let mut e = XdrEncoder::new();
    e.put_u32(3)
        .put_u32(MSG_REPLY)
        .put_u32(0)
        .put_u32(AUTH_NONE)
        .put_u32(0)
        .put_u32(17);
    let buf = e.finish();
    assert!(matches!(
        ReplyHeader::decode(&mut XdrDecoder::new(&buf)),
        Err(XdrError::BadEnum { value: 17, .. })
    ));
}
