//! XDR (RFC 1832) primitive encoding.
//!
//! SUN RPC and NFS encode everything as big-endian 32-bit aligned items.
//! This is a faithful subset: integers, booleans, fixed and
//! variable-length opaques, and strings, with 4-byte padding.

use std::fmt;

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XdrError {
    /// The buffer ended before the item was complete.
    Truncated {
        /// Bytes needed beyond what was available.
        needed: usize,
    },
    /// A boolean was neither 0 nor 1.
    BadBool(u32),
    /// A variable-length item declared an unreasonable size.
    BadLength(u32),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A discriminant (message type, procedure number, enum code…) had a
    /// value outside its legal set. `what` names the field.
    BadEnum {
        /// The field whose discriminant was illegal.
        what: &'static str,
        /// The offending wire value.
        value: u32,
    },
    /// The peer sent an RPC reply with `reply_stat` MSG_DENIED (auth
    /// failure or RPC version mismatch); the payload carries no result.
    RpcDenied {
        /// The `rejected_reply` discriminant (0 = RPC_MISMATCH, 1 =
        /// AUTH_ERROR).
        reason: u32,
    },
}

impl fmt::Display for XdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XdrError::Truncated { needed } => {
                write!(f, "XDR buffer truncated ({needed} more bytes needed)")
            }
            XdrError::BadBool(v) => write!(f, "XDR boolean with value {v}"),
            XdrError::BadLength(v) => write!(f, "XDR length {v} exceeds limit"),
            XdrError::BadUtf8 => write!(f, "XDR string is not UTF-8"),
            XdrError::BadEnum { what, value } => {
                write!(f, "XDR {what} discriminant {value} is illegal")
            }
            XdrError::RpcDenied { reason } => {
                write!(f, "RPC reply was MSG_DENIED (rejected_reply {reason})")
            }
        }
    }
}

impl std::error::Error for XdrError {}

/// Largest variable-length item we accept (matches typical NFS rsize caps).
pub const MAX_OPAQUE: u32 = 1 << 20;

/// Append-only XDR encoder.
#[derive(Debug, Default)]
pub struct XdrEncoder {
    buf: Vec<u8>,
}

impl XdrEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        XdrEncoder::default()
    }

    /// Creates an encoder that appends into `buf`, reusing its capacity.
    ///
    /// The buffer is cleared first; its allocation is kept, so encoding a
    /// message into a recycled buffer does no heap allocation once the
    /// buffer has grown to the message size.
    pub fn into_buf(mut buf: Vec<u8>) -> Self {
        buf.clear();
        XdrEncoder { buf }
    }

    /// Finishes encoding, returning the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Encodes an unsigned 32-bit integer.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Encodes an unsigned 64-bit integer (two XDR words).
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Encodes a boolean.
    pub fn put_bool(&mut self, v: bool) -> &mut Self {
        self.put_u32(u32::from(v))
    }

    /// Encodes a fixed-length opaque (padded to 4 bytes).
    pub fn put_opaque_fixed(&mut self, data: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(data);
        self.pad();
        self
    }

    /// Encodes a variable-length opaque (length + data + padding).
    pub fn put_opaque(&mut self, data: &[u8]) -> &mut Self {
        self.put_u32(u32::try_from(data.len()).expect("opaque too large"));
        self.put_opaque_fixed(data)
    }

    /// Encodes a variable-length opaque of `len` zero bytes: a payload
    /// whose size is real and whose content the model does not carry.
    pub fn put_zero_opaque(&mut self, len: u32) -> &mut Self {
        self.put_u32(len);
        self.buf.resize(self.buf.len() + len as usize, 0);
        self.pad();
        self
    }

    /// Encodes a string.
    pub fn put_string(&mut self, s: &str) -> &mut Self {
        self.put_opaque(s.as_bytes())
    }

    fn pad(&mut self) {
        while !self.buf.len().is_multiple_of(4) {
            self.buf.push(0);
        }
    }
}

/// Cursor-based XDR decoder.
#[derive(Debug)]
pub struct XdrDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> XdrDecoder<'a> {
    /// Creates a decoder over a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        XdrDecoder { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], XdrError> {
        if self.remaining() < n {
            return Err(XdrError::Truncated {
                needed: n - self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Decodes an unsigned 32-bit integer.
    pub fn get_u32(&mut self) -> Result<u32, XdrError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Decodes an unsigned 64-bit integer.
    pub fn get_u64(&mut self) -> Result<u64, XdrError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// Decodes a boolean (strictly 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool, XdrError> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(XdrError::BadBool(v)),
        }
    }

    /// Decodes a fixed-length opaque of `n` bytes (consuming padding).
    pub fn get_opaque_fixed(&mut self, n: usize) -> Result<&'a [u8], XdrError> {
        let data = self.take(n)?;
        let pad = (4 - n % 4) % 4;
        self.take(pad)?;
        Ok(data)
    }

    /// Decodes a variable-length opaque.
    pub fn get_opaque(&mut self) -> Result<&'a [u8], XdrError> {
        let len = self.get_u32()?;
        if len > MAX_OPAQUE {
            return Err(XdrError::BadLength(len));
        }
        self.get_opaque_fixed(len as usize)
    }

    /// Decodes a string.
    pub fn get_string(&mut self) -> Result<&'a str, XdrError> {
        std::str::from_utf8(self.get_opaque()?).map_err(|_| XdrError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip_is_big_endian() {
        let mut e = XdrEncoder::new();
        e.put_u32(0x0102_0304);
        let buf = e.finish();
        assert_eq!(buf, vec![1, 2, 3, 4]);
        assert_eq!(XdrDecoder::new(&buf).get_u32().unwrap(), 0x0102_0304);
    }

    #[test]
    fn u64_roundtrip() {
        let mut e = XdrEncoder::new();
        e.put_u64(u64::MAX - 5);
        let buf = e.finish();
        assert_eq!(buf.len(), 8);
        assert_eq!(XdrDecoder::new(&buf).get_u64().unwrap(), u64::MAX - 5);
    }

    #[test]
    fn bool_roundtrip_and_validation() {
        let mut e = XdrEncoder::new();
        e.put_bool(true).put_bool(false);
        let buf = e.finish();
        let mut d = XdrDecoder::new(&buf);
        assert!(d.get_bool().unwrap());
        assert!(!d.get_bool().unwrap());
        let bad = 7u32.to_be_bytes();
        assert_eq!(XdrDecoder::new(&bad).get_bool(), Err(XdrError::BadBool(7)));
    }

    #[test]
    fn opaque_pads_to_four() {
        let mut e = XdrEncoder::new();
        e.put_opaque(b"abcde");
        let buf = e.finish();
        assert_eq!(buf.len(), 4 + 8, "length word + 5 bytes padded to 8");
        let mut d = XdrDecoder::new(&buf);
        assert_eq!(d.get_opaque().unwrap(), b"abcde");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn string_roundtrip() {
        let mut e = XdrEncoder::new();
        e.put_string("nfsheur");
        let buf = e.finish();
        assert_eq!(XdrDecoder::new(&buf).get_string().unwrap(), "nfsheur");
    }

    #[test]
    fn truncation_reports_needed_bytes() {
        let buf = [0u8; 2];
        assert_eq!(
            XdrDecoder::new(&buf).get_u32(),
            Err(XdrError::Truncated { needed: 2 })
        );
    }

    #[test]
    fn oversized_opaque_rejected() {
        let mut e = XdrEncoder::new();
        e.put_u32(MAX_OPAQUE + 1);
        let buf = e.finish();
        assert_eq!(
            XdrDecoder::new(&buf).get_opaque(),
            Err(XdrError::BadLength(MAX_OPAQUE + 1))
        );
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut e = XdrEncoder::new();
        e.put_opaque(&[0xff, 0xfe]);
        let buf = e.finish();
        assert_eq!(XdrDecoder::new(&buf).get_string(), Err(XdrError::BadUtf8));
    }

    #[test]
    fn mixed_sequence_roundtrip() {
        let mut e = XdrEncoder::new();
        e.put_u32(1)
            .put_string("file")
            .put_u64(1 << 40)
            .put_bool(true)
            .put_opaque(&[9; 13]);
        let buf = e.finish();
        assert_eq!(buf.len() % 4, 0, "always word aligned");
        let mut d = XdrDecoder::new(&buf);
        assert_eq!(d.get_u32().unwrap(), 1);
        assert_eq!(d.get_string().unwrap(), "file");
        assert_eq!(d.get_u64().unwrap(), 1 << 40);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_opaque().unwrap(), &[9; 13]);
        assert_eq!(d.remaining(), 0);
    }
}
