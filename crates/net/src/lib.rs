//! Network substrate: links, UDP, and TCP.
//!
//! Models the testbed's gigabit Ethernet (§4.1) and the transport semantics
//! behind the UDP-vs-TCP benchmarking trap (§5.4): MTU fragmentation with
//! loss amplification for UDP datagrams, and in-order reliable delivery
//! with retransmission stalls for TCP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod link;
mod transport;

pub use link::{Delivery, LinkProfile, LinkStats, OneWayLink, FRAME_HEADER_BYTES};
pub use transport::{
    RtoEstimator, TcpEvent, TcpStats, TcpStream, Transport, TransportKind, TxOutcome,
    TCP_DUP_ACK_THRESHOLD, TCP_MAX_SEGMENT_RETRIES, TCP_RTO_MAX, TCP_RTO_MIN,
};
