//! Shared ONC RPC (RFC 5531 / RFC 1831) call and reply headers.
//!
//! Both halves of the repo speak these: the simulated transport encodes
//! calls and replies through [`crate::NfsCall`]/[`crate::NfsReply`], and
//! the real-socket `nfsd` endpoint decodes whatever arrives off a TCP
//! stream.  Factoring the header handling here means there is exactly one
//! definition of what a call header and an accepted reply look like on
//! the wire — accept-state and verifier handling included — and the two
//! paths cannot drift apart.
//!
//! The encodings are byte-compatible with what `messages.rs` has always
//! produced: an AUTH_UNIX credential stub (8-byte body carrying uid and
//! gid) with an AUTH_NONE verifier on calls, and an AUTH_NONE verifier on
//! accepted replies.  Real AUTH_UNIX credentials from an OS client carry
//! a longer counted body; the decoder skips it by length, so both forms
//! parse.

use crate::xdr::{XdrDecoder, XdrEncoder, XdrError};

/// The RPC protocol version both RFC 1831 and RFC 5531 define.
pub const RPC_VERSION: u32 = 2;

/// `msg_type` CALL.
pub const MSG_CALL: u32 = 0;
/// `msg_type` REPLY.
pub const MSG_REPLY: u32 = 1;

/// `auth_flavor` AUTH_NONE.
pub const AUTH_NONE: u32 = 0;
/// `auth_flavor` AUTH_UNIX (AUTH_SYS in RFC 5531).
pub const AUTH_UNIX: u32 = 1;

/// How an accepted RPC call was disposed of (RFC 5531 `accept_stat`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptStat {
    /// The call succeeded; results follow the header.
    Success,
    /// The server does not export the requested program.
    ProgUnavail,
    /// The program exists but not at the requested version; the reply
    /// carries the supported `(low, high)` version range.
    ProgMismatch {
        /// Lowest supported program version.
        low: u32,
        /// Highest supported program version.
        high: u32,
    },
    /// The program does not implement the requested procedure.
    ProcUnavail,
    /// The arguments could not be decoded.
    GarbageArgs,
    /// The server failed internally.
    SystemErr,
}

impl AcceptStat {
    /// RFC 5531 discriminant.
    pub fn code(self) -> u32 {
        match self {
            AcceptStat::Success => 0,
            AcceptStat::ProgUnavail => 1,
            AcceptStat::ProgMismatch { .. } => 2,
            AcceptStat::ProcUnavail => 3,
            AcceptStat::GarbageArgs => 4,
            AcceptStat::SystemErr => 5,
        }
    }
}

/// An RPC call header: transaction id plus the program routing triple.
///
/// The credential is modelled, not carried: encoding always writes the
/// historical AUTH_UNIX stub (uid 0, gid 0) with an AUTH_NONE verifier;
/// decoding accepts any counted credential/verifier body and skips it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallHeader {
    /// Transaction id.
    pub xid: u32,
    /// Remote program number.
    pub prog: u32,
    /// Remote program version.
    pub vers: u32,
    /// Procedure within the program.
    pub proc_num: u32,
}

impl CallHeader {
    /// Encodes the header (12 XDR words, 48 bytes — the layout
    /// [`crate::RPC_CALL_HEADER_BYTES`]` + 8` has always described).
    pub fn encode(&self, e: &mut XdrEncoder) {
        e.put_u32(self.xid)
            .put_u32(MSG_CALL)
            .put_u32(RPC_VERSION)
            .put_u32(self.prog)
            .put_u32(self.vers)
            .put_u32(self.proc_num)
            .put_u32(AUTH_UNIX)
            .put_u32(8)
            .put_u32(0) // uid
            .put_u32(0) // gid
            .put_u32(AUTH_NONE) // verf flavor
            .put_u32(0); // verf length
    }

    /// Decodes a call header, leaving the decoder positioned at the
    /// procedure arguments.
    ///
    /// Returns a typed error for anything that is not a version-2 RPC
    /// call; never panics, whatever the bytes.
    pub fn decode(d: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let xid = d.get_u32()?;
        let mtype = d.get_u32()?;
        if mtype != MSG_CALL {
            return Err(XdrError::BadEnum {
                what: "msg_type (expected CALL)",
                value: mtype,
            });
        }
        let rpcvers = d.get_u32()?;
        if rpcvers != RPC_VERSION {
            return Err(XdrError::BadEnum {
                what: "rpc version",
                value: rpcvers,
            });
        }
        let prog = d.get_u32()?;
        let vers = d.get_u32()?;
        let proc_num = d.get_u32()?;
        // Credential and verifier: flavor + counted body, twice. Length
        // validation (and therefore truncation detection) lives in
        // `get_opaque`; a short body is a typed error, not a quiet parse.
        let _cred_flavor = d.get_u32()?;
        let _cred_body = d.get_opaque()?;
        let _verf_flavor = d.get_u32()?;
        let _verf_body = d.get_opaque()?;
        Ok(CallHeader {
            xid,
            prog,
            vers,
            proc_num,
        })
    }
}

/// An accepted RPC reply header: transaction id plus accept state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyHeader {
    /// Transaction id echoed from the call.
    pub xid: u32,
    /// How the call was disposed of.
    pub stat: AcceptStat,
}

impl ReplyHeader {
    /// A successful reply to `xid`.
    pub fn success(xid: u32) -> Self {
        ReplyHeader {
            xid,
            stat: AcceptStat::Success,
        }
    }

    /// Encodes the header (6 XDR words for SUCCESS — the 24-byte layout
    /// [`crate::RPC_REPLY_HEADER_BYTES`] describes; PROG_MISMATCH adds
    /// its version range).
    pub fn encode(&self, e: &mut XdrEncoder) {
        e.put_u32(self.xid)
            .put_u32(MSG_REPLY)
            .put_u32(0) // reply_stat MSG_ACCEPTED
            .put_u32(AUTH_NONE) // verf flavor
            .put_u32(0) // verf length
            .put_u32(self.stat.code());
        if let AcceptStat::ProgMismatch { low, high } = self.stat {
            e.put_u32(low).put_u32(high);
        }
    }

    /// Decodes a reply header, leaving the decoder positioned at the
    /// results (present only when `stat` is [`AcceptStat::Success`]).
    ///
    /// A MSG_DENIED reply surfaces as [`XdrError::RpcDenied`]; all other
    /// malformations are typed errors too. Never panics.
    pub fn decode(d: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let xid = d.get_u32()?;
        let mtype = d.get_u32()?;
        if mtype != MSG_REPLY {
            return Err(XdrError::BadEnum {
                what: "msg_type (expected REPLY)",
                value: mtype,
            });
        }
        let reply_stat = d.get_u32()?;
        if reply_stat == 1 {
            let reason = d.get_u32().unwrap_or(u32::MAX);
            return Err(XdrError::RpcDenied { reason });
        }
        if reply_stat != 0 {
            return Err(XdrError::BadEnum {
                what: "reply_stat",
                value: reply_stat,
            });
        }
        let _verf_flavor = d.get_u32()?;
        let _verf_body = d.get_opaque()?;
        let code = d.get_u32()?;
        let stat = match code {
            0 => AcceptStat::Success,
            1 => AcceptStat::ProgUnavail,
            2 => AcceptStat::ProgMismatch {
                low: d.get_u32()?,
                high: d.get_u32()?,
            },
            3 => AcceptStat::ProcUnavail,
            4 => AcceptStat::GarbageArgs,
            5 => AcceptStat::SystemErr,
            v => {
                return Err(XdrError::BadEnum {
                    what: "accept_stat",
                    value: v,
                })
            }
        };
        Ok(ReplyHeader { xid, stat })
    }

    /// Decodes a reply header that must be SUCCESS, returning its xid.
    pub fn decode_success(d: &mut XdrDecoder<'_>) -> Result<u32, XdrError> {
        let hdr = ReplyHeader::decode(d)?;
        if hdr.stat != AcceptStat::Success {
            return Err(XdrError::BadEnum {
                what: "accept_stat (expected SUCCESS)",
                value: hdr.stat.code(),
            });
        }
        Ok(hdr.xid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_header_roundtrip() {
        let h = CallHeader {
            xid: 0xdead_beef,
            prog: 100_003,
            vers: 3,
            proc_num: 6,
        };
        let mut e = XdrEncoder::new();
        h.encode(&mut e);
        let buf = e.finish();
        assert_eq!(buf.len(), 48, "AUTH_UNIX-stub call header is 12 words");
        let mut d = XdrDecoder::new(&buf);
        assert_eq!(CallHeader::decode(&mut d).unwrap(), h);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn reply_header_roundtrip_all_states() {
        for stat in [
            AcceptStat::Success,
            AcceptStat::ProgUnavail,
            AcceptStat::ProgMismatch { low: 3, high: 3 },
            AcceptStat::ProcUnavail,
            AcceptStat::GarbageArgs,
            AcceptStat::SystemErr,
        ] {
            let h = ReplyHeader { xid: 7, stat };
            let mut e = XdrEncoder::new();
            h.encode(&mut e);
            let buf = e.finish();
            let mut d = XdrDecoder::new(&buf);
            assert_eq!(ReplyHeader::decode(&mut d).unwrap(), h);
            assert_eq!(d.remaining(), 0);
        }
    }

    #[test]
    fn call_decode_accepts_real_auth_unix_credential() {
        // A realistic AUTH_UNIX body: stamp, machinename "cl", uid, gid,
        // one supplementary gid — longer than our 8-byte stub.
        let mut e = XdrEncoder::new();
        e.put_u32(42).put_u32(MSG_CALL).put_u32(RPC_VERSION);
        e.put_u32(100_005).put_u32(3).put_u32(1);
        let mut body = XdrEncoder::new();
        body.put_u32(0x1111_2222)
            .put_string("cl")
            .put_u32(1000)
            .put_u32(1000)
            .put_u32(1)
            .put_u32(20);
        let body = body.finish();
        e.put_u32(AUTH_UNIX).put_opaque(&body);
        e.put_u32(AUTH_NONE).put_u32(0);
        let buf = e.finish();
        let mut d = XdrDecoder::new(&buf);
        let h = CallHeader::decode(&mut d).unwrap();
        assert_eq!((h.xid, h.prog, h.vers, h.proc_num), (42, 100_005, 3, 1));
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn reply_decode_reports_denied() {
        let mut e = XdrEncoder::new();
        e.put_u32(9).put_u32(MSG_REPLY).put_u32(1).put_u32(0);
        let buf = e.finish();
        assert_eq!(
            ReplyHeader::decode(&mut XdrDecoder::new(&buf)),
            Err(XdrError::RpcDenied { reason: 0 })
        );
    }

    #[test]
    fn truncated_credential_is_a_typed_error() {
        let mut e = XdrEncoder::new();
        e.put_u32(1).put_u32(MSG_CALL).put_u32(RPC_VERSION);
        e.put_u32(100_003).put_u32(3).put_u32(0);
        e.put_u32(AUTH_UNIX).put_u32(64); // declares 64 bytes, provides none
        let buf = e.finish();
        assert_eq!(
            CallHeader::decode(&mut XdrDecoder::new(&buf)),
            Err(XdrError::Truncated { needed: 64 })
        );
    }
}
