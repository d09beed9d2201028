//! RPC transports: UDP datagrams and a timed TCP stream.
//!
//! §5.4 of the paper: SUN RPC originally ran over UDP — light-weight,
//! connectionless, but a lost fragment loses the whole datagram and nothing
//! enforces ordering. TCP adds reliability, in-order delivery, and flow
//! control at the cost of per-segment processing and head-of-line blocking.
//! The transports here expose exactly those semantics; retransmission *of
//! RPCs* over UDP is the RPC layer's job (see `nfssim`), while TCP
//! retransmits internally and never loses a message it can still deliver.
//!
//! TCP retransmission is *timed*, not inline: a segment the link loses is
//! queued with a retransmission deadline computed from an SRTT/RTTVAR
//! estimator (RFC 6298 weights, Karn's rule, exponential backoff capped at
//! [`TCP_RTO_MAX`]). The owner of the stream polls [`TcpStream::next_timer`]
//! and calls [`TcpStream::on_timer`] from its event loop, so a stream
//! survives arbitrarily long `frame_loss = 1.0` blackout windows: segments
//! back off while the window lasts and recover at restore. On a clean link
//! the engine is event-free — `send` resolves to a delivery time
//! immediately, with the same link draws and the same monotone in-order
//! clamp as the pre-timer engine.

use std::collections::VecDeque;

use simcore::{SimDuration, SimRng, SimTime};

use crate::link::{Delivery, LinkProfile, LinkStats, OneWayLink};

/// Lower clamp on the retransmission timeout (RFC 6298 suggests 1 s; BSD
/// stacks of the paper's era used 200 ms ticks, which is also what keeps
/// blackout runs short enough to simulate densely).
pub const TCP_RTO_MIN: SimDuration = SimDuration::from_millis(200);

/// Upper clamp on the (backed-off) retransmission timeout.
pub const TCP_RTO_MAX: SimDuration = SimDuration::from_secs(60);

/// Retransmission attempts per segment before the stream gives up and
/// reports the segment [`TcpEvent::Aborted`] (the connection-drop proxy;
/// the RPC layer above turns it into an RPC timeout). With the backoff
/// ladder starting at [`TCP_RTO_MIN`] this bounds a blackout segment's
/// lifetime to roughly `200ms * (2^10 - 1)` ≈ 3.4 simulated minutes.
pub const TCP_MAX_SEGMENT_RETRIES: u32 = 10;

/// Out-of-order arrivals behind a lost head that trigger a fast
/// retransmit of the head (the dup-ack threshold of NewReno-era stacks).
pub const TCP_DUP_ACK_THRESHOLD: u32 = 3;

/// Which RPC transport a mount uses (`mount_nfs` defaults to UDP; `amd`
/// defaults to TCP on FreeBSD — the trap in §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Connectionless datagrams.
    Udp,
    /// One reliable, ordered byte stream (shared by all RPCs of a mount).
    Tcp,
}

/// SRTT/RTTVAR retransmission-timeout estimator (RFC 6298).
///
/// `srtt = 7/8·srtt + 1/8·sample`, `rttvar = 3/4·rttvar + 1/4·|srtt −
/// sample|`, `RTO = srtt + 4·rttvar` clamped to `[TCP_RTO_MIN,
/// TCP_RTO_MAX]`, doubled per consecutive timeout (Karn's backoff) and
/// reset by the next acknowledgement. Karn's *sampling* rule: an ack for a
/// segment that was ever retransmitted is ambiguous (which copy is it
/// acking?) and must not update the estimator — callers pass `fresh =
/// false` for those.
#[derive(Debug, Clone)]
pub struct RtoEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    backoff: u32,
}

impl Default for RtoEstimator {
    fn default() -> Self {
        RtoEstimator::new()
    }
}

impl RtoEstimator {
    /// A fresh estimator: no samples yet, RTO at the floor, no backoff.
    pub fn new() -> Self {
        RtoEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            backoff: 0,
        }
    }

    /// Feeds one round-trip sample. Any ack clears the timeout backoff;
    /// only a `fresh` sample (first transmission, Karn's rule) updates
    /// SRTT/RTTVAR.
    pub fn on_sample(&mut self, sample: SimDuration, fresh: bool) {
        self.backoff = 0;
        if !fresh {
            return;
        }
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = SimDuration::from_nanos(sample.as_nanos() / 2);
            }
            Some(srtt) => {
                let s = srtt.as_nanos() as i128;
                let m = sample.as_nanos() as i128;
                let var = self.rttvar.as_nanos() as i128;
                self.rttvar = SimDuration::from_nanos(((3 * var + (s - m).abs()) / 4) as u64);
                self.srtt = Some(SimDuration::from_nanos(((7 * s + m) / 8) as u64));
            }
        }
    }

    /// Records a retransmission timeout: the next RTO doubles (capped so
    /// [`RtoEstimator::rto`] never exceeds [`TCP_RTO_MAX`]).
    pub fn on_timeout(&mut self) {
        self.backoff = self.backoff.saturating_add(1).min(32);
    }

    /// The current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        let base = match self.srtt {
            Some(srtt) => (srtt + self.rttvar.saturating_mul(4)).max(TCP_RTO_MIN),
            None => TCP_RTO_MIN,
        };
        base.saturating_mul(1u64 << self.backoff.min(20))
            .min(TCP_RTO_MAX)
    }

    /// The smoothed round-trip estimate, if any sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// The round-trip variance estimate.
    pub fn rttvar(&self) -> SimDuration {
        self.rttvar
    }

    /// Consecutive timeouts since the last acknowledgement.
    pub fn backoff(&self) -> u32 {
        self.backoff
    }
}

simcore::counters! {
    /// Counters a [`TcpStream`] keeps about its own retransmission machinery.
    ///
    /// Books invariant (checked by simtest's TCP oracles): `segments_sent ==
    /// acked + in_flight + lost_tracked` at all times — every segment is
    /// either acknowledged, still outstanding (delivered-but-unacked or queued
    /// for retransmission), or abandoned.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TcpStats {
        /// Messages accepted by [`TcpStream::send`].
        pub segments_sent: u64,
        /// Segments handed to the receiver (in order, exactly once each).
        pub delivered: u64,
        /// Segments whose acknowledgement has come back.
        pub acked: u64,
        /// Segments sent but not yet acked or abandoned.
        #[level]
        pub in_flight: u64,
        /// Segments abandoned after [`TCP_MAX_SEGMENT_RETRIES`].
        pub lost_tracked: u64,
        /// Retransmission attempts (timer-driven resends).
        pub retransmits: u64,
        /// Retransmissions pulled forward by the dup-ack proxy.
        pub fast_retransmits: u64,
        /// Expired retransmission timers (including the abandoning one).
        pub timeouts: u64,
        /// Times the RTO doubled because a retransmission was lost too.
        pub rto_backoffs: u64,
        /// Largest backed-off RTO ever armed.
        #[level]
        pub max_rto: SimDuration,
        /// Current smoothed round-trip estimate (zero until the first sample).
        #[level]
        pub srtt: SimDuration,
        /// Deliveries that violated seq or time order (always zero unless the
        /// engine is broken — an oracle hook, not an expected counter).
        pub order_violations: u64,
    }
}

/// What [`Transport::send`] (and [`TcpStream::send`]) did with a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Delivered; the last byte arrives at this time.
    Delivered(SimTime),
    /// Dropped (UDP only; the RPC layer's retransmit timer deals with it).
    Lost,
    /// Accepted by TCP but not yet deliverable (the link lost it, or an
    /// earlier segment head-of-line blocks it). The stream owns it now:
    /// its fate arrives later as a [`TcpEvent`] carrying this sequence
    /// number, after [`TcpStream::on_timer`] runs.
    Queued(u64),
}

/// Deferred outcome of a [`TxOutcome::Queued`] segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpEvent {
    /// The segment (eventually) made it across, in order.
    Delivered {
        /// Sequence number from [`TxOutcome::Queued`].
        seq: u64,
        /// When the last byte arrives.
        at: SimTime,
    },
    /// The stream gave up after [`TCP_MAX_SEGMENT_RETRIES`] attempts.
    Aborted {
        /// Sequence number from [`TxOutcome::Queued`].
        seq: u64,
    },
}

#[derive(Debug)]
enum SegState {
    /// Every attempt so far was lost; a retransmission timer is armed.
    Lost {
        next_retry: SimTime,
        retries: u32,
        dup_acks: u32,
        fast_armed: bool,
    },
    /// An attempt survived the link at `link_at`, but an earlier lost
    /// segment head-of-line blocks delivery.
    Arrived { link_at: SimTime },
}

#[derive(Debug)]
struct Segment {
    seq: u64,
    bytes: u64,
    sent_at: SimTime,
    retransmitted: bool,
    state: SegState,
}

#[derive(Debug)]
struct PendingAck {
    ack_at: SimTime,
    sample: SimDuration,
    fresh: bool,
}

/// A one-way TCP stream with timed retransmission.
///
/// Reliability is modelled at message granularity: each `send` is one
/// "segment". A segment the link delivers while nothing earlier is
/// outstanding resolves immediately ([`TxOutcome::Delivered`], monotone
/// in-order clamp included) — on a clean link the stream never arms a
/// timer and behaves exactly like the paper-era inline engine. A lost
/// segment is queued with an RTO deadline; the caller drives
/// [`TcpStream::next_timer`]/[`TcpStream::on_timer`] and receives
/// [`TcpEvent`]s. Acknowledgements are modelled as a half-RTT echo of each
/// delivery and are processed lazily (they only feed the estimator, so
/// they need no event of their own).
#[derive(Debug)]
pub struct TcpStream {
    link: OneWayLink,
    rtt: SimDuration,
    last_delivery: SimTime,
    delivery_point: u64,
    next_seq: u64,
    rto: RtoEstimator,
    blocked: VecDeque<Segment>,
    pending_acks: VecDeque<PendingAck>,
    stats: TcpStats,
}

impl TcpStream {
    /// Creates a stream over the given link profile. `rtt` should be the
    /// full round-trip estimate used for ack latency (and therefore for
    /// RTT samples).
    pub fn new(profile: LinkProfile, rtt: SimDuration, rng: SimRng) -> Self {
        TcpStream {
            link: OneWayLink::new(profile, rng),
            rtt,
            last_delivery: SimTime::ZERO,
            delivery_point: 0,
            next_seq: 0,
            rto: RtoEstimator::new(),
            blocked: VecDeque::new(),
            pending_acks: VecDeque::new(),
            stats: TcpStats::default(),
        }
    }

    fn half_rtt(&self) -> SimDuration {
        SimDuration::from_nanos(self.rtt.as_nanos() / 2)
    }

    /// Applies acknowledgements whose echo has arrived by `now`. Lazy: acks
    /// only feed the RTO estimator, so nothing outside the stream ever
    /// waits on one.
    fn drain_acks(&mut self, now: SimTime) {
        while let Some(a) = self.pending_acks.front() {
            if a.ack_at > now {
                break;
            }
            let a = self.pending_acks.pop_front().expect("checked front");
            self.stats.acked += 1;
            self.stats.in_flight -= 1;
            self.rto.on_sample(a.sample, a.fresh);
            if let Some(srtt) = self.rto.srtt() {
                self.stats.srtt = srtt;
            }
        }
    }

    /// Books one in-order delivery at `at` and queues its ack. The RTT
    /// sample measures to `wire_at` — the segment's actual link arrival —
    /// not to `at`: a segment parked behind a head-of-line hole is
    /// "delivered" only when the hole closes, and feeding that wait into
    /// the estimator would inflate SRTT with queueing delay the path
    /// never had (timestamp-option semantics, RFC 7323).
    fn deliver(&mut self, seq: u64, at: SimTime, wire_at: SimTime, sent_at: SimTime, fresh: bool) {
        if seq < self.delivery_point || at < self.last_delivery {
            self.stats.order_violations += 1;
        }
        self.delivery_point = self.delivery_point.max(seq + 1);
        self.last_delivery = at;
        self.stats.delivered += 1;
        self.pending_acks.push_back(PendingAck {
            ack_at: at + self.half_rtt(),
            sample: wire_at.since(sent_at) + self.half_rtt(),
            fresh,
        });
    }

    /// Counts an out-of-order arrival against the head-of-line hole: each
    /// one is a dup-ack proxy, and the third pulls the head's retry
    /// forward to one ack time from now (fast retransmit).
    fn note_dup_ack(&mut self, link_at: SimTime) {
        let ack_back = link_at + self.half_rtt();
        if let Some(Segment {
            state:
                SegState::Lost {
                    next_retry,
                    dup_acks,
                    fast_armed,
                    ..
                },
            ..
        }) = self.blocked.front_mut()
        {
            *dup_acks += 1;
            if *dup_acks >= TCP_DUP_ACK_THRESHOLD && !*fast_armed {
                *fast_armed = true;
                self.stats.fast_retransmits += 1;
                if ack_back < *next_retry {
                    *next_retry = ack_back;
                }
            }
        }
    }

    /// Delivers the run of [`SegState::Arrived`] segments now at the front
    /// of the queue (the hole before them just closed). `floor` keeps the
    /// emitted times from regressing behind the caller's clock.
    fn flush_front(&mut self, floor: SimTime, out: &mut Vec<TcpEvent>) {
        while let Some(Segment {
            state: SegState::Arrived { link_at },
            ..
        }) = self.blocked.front()
        {
            let wire_at = *link_at;
            let at = wire_at.max(self.last_delivery).max(floor);
            let seg = self.blocked.pop_front().expect("checked front");
            self.deliver(seg.seq, at, wire_at, seg.sent_at, !seg.retransmitted);
            out.push(TcpEvent::Delivered { seq: seg.seq, at });
        }
    }

    /// Sends `bytes` on the stream.
    ///
    /// Returns [`TxOutcome::Delivered`] when the segment can be handed to
    /// the receiver right away (clean link, nothing blocked), otherwise
    /// [`TxOutcome::Queued`] — watch [`TcpStream::next_timer`] and collect
    /// the segment's fate from [`TcpStream::on_timer`]. Never returns
    /// [`TxOutcome::Lost`].
    pub fn send(&mut self, now: SimTime, bytes: u64) -> TxOutcome {
        self.drain_acks(now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.segments_sent += 1;
        self.stats.in_flight += 1;
        match self.link.send(now, bytes) {
            Delivery::At(t) if self.blocked.is_empty() => {
                let at = t.max(self.last_delivery);
                self.deliver(seq, at, t, now, true);
                TxOutcome::Delivered(at)
            }
            Delivery::At(t) => {
                // Survived the link but an earlier segment blocks it; its
                // arrival doubles as a dup-ack for the hole.
                self.note_dup_ack(t);
                self.blocked.push_back(Segment {
                    seq,
                    bytes,
                    sent_at: now,
                    retransmitted: false,
                    state: SegState::Arrived { link_at: t },
                });
                TxOutcome::Queued(seq)
            }
            Delivery::Lost => {
                let rto = self.rto.rto();
                if rto > self.stats.max_rto {
                    self.stats.max_rto = rto;
                }
                self.blocked.push_back(Segment {
                    seq,
                    bytes,
                    sent_at: now,
                    retransmitted: false,
                    state: SegState::Lost {
                        next_retry: now + rto,
                        retries: 0,
                        dup_acks: 0,
                        fast_armed: false,
                    },
                });
                TxOutcome::Queued(seq)
            }
        }
    }

    /// The earliest armed retransmission deadline, if any. `None` means
    /// the stream is quiescent (clean-link streams always are).
    pub fn next_timer(&self) -> Option<SimTime> {
        self.blocked
            .iter()
            .filter_map(|s| match s.state {
                SegState::Lost { next_retry, .. } => Some(next_retry),
                SegState::Arrived { .. } => None,
            })
            .min()
    }

    /// Fires every retransmission timer due by `now` and returns the
    /// resulting deliveries and aborts. All emitted times are ≥ `now`.
    /// Safe to call when nothing is due (returns empty).
    pub fn on_timer(&mut self, now: SimTime) -> Vec<TcpEvent> {
        self.drain_acks(now);
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.blocked.len() {
            let seg = &mut self.blocked[i];
            let SegState::Lost {
                next_retry,
                retries,
                ..
            } = &mut seg.state
            else {
                i += 1;
                continue;
            };
            if *next_retry > now {
                i += 1;
                continue;
            }
            self.stats.timeouts += 1;
            if *retries >= TCP_MAX_SEGMENT_RETRIES {
                // Out of budget: the connection-drop proxy. Remove the
                // hole so later arrivals are not blocked forever. The
                // delivery point is *not* bumped here — a mid-queue
                // segment can exhaust its budget while an earlier one is
                // still pending, and `deliver` already skips aborted
                // holes via `max(seq + 1)`.
                let seq = seg.seq;
                self.stats.lost_tracked += 1;
                self.stats.in_flight -= 1;
                self.blocked.remove(i);
                out.push(TcpEvent::Aborted { seq });
                if i == 0 {
                    self.flush_front(now, &mut out);
                }
                continue;
            }
            *retries += 1;
            seg.retransmitted = true;
            self.stats.retransmits += 1;
            match self.link.send(now, seg.bytes) {
                Delivery::At(t) => {
                    if i == 0 {
                        // The head's hole closes: deliver it and every
                        // arrived follower behind it.
                        let seg = self.blocked.pop_front().expect("index 0 exists");
                        let at = t.max(self.last_delivery);
                        self.deliver(seg.seq, at, t, seg.sent_at, false);
                        out.push(TcpEvent::Delivered { seq: seg.seq, at });
                        self.flush_front(at, &mut out);
                    } else {
                        seg.state = SegState::Arrived { link_at: t };
                        i += 1;
                    }
                }
                Delivery::Lost => {
                    self.rto.on_timeout();
                    self.stats.rto_backoffs += 1;
                    let rto = self.rto.rto();
                    if rto > self.stats.max_rto {
                        self.stats.max_rto = rto;
                    }
                    *next_retry = now + rto;
                    i += 1;
                }
            }
        }
        out
    }

    /// The stream's own retransmission counters.
    pub fn tcp_stats(&self) -> TcpStats {
        self.stats
    }

    /// Link counters.
    pub fn stats(&self) -> LinkStats {
        self.link.stats()
    }

    /// The current link profile.
    pub fn profile(&self) -> LinkProfile {
        self.link.profile()
    }

    /// Replaces the link profile at runtime (fault injection). Stream
    /// state — delivery point, queued segments, armed timers, estimator —
    /// carries over; queued segments recover at their next retry once the
    /// profile clears, which is exactly how a blackout window ends.
    pub fn set_profile(&mut self, profile: LinkProfile) {
        self.link.set_profile(profile);
    }
}

/// Either transport behind one interface.
///
/// The variants differ in size (a `TcpStream` carries segment queues and
/// an estimator), but a world holds only two of these per client — the
/// indirection a `Box` would add to every send/timer call is not worth
/// ~200 bytes per direction.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Transport {
    /// A one-way UDP path: each datagram arrives whole or not at all.
    Udp(OneWayLink),
    /// See [`TcpStream`].
    Tcp(TcpStream),
}

impl Transport {
    /// Builds a transport of the requested kind over a link profile. Any
    /// frame-loss rate is fair game for either kind — TCP's timed
    /// retransmission handles full blackouts.
    pub fn new(kind: TransportKind, profile: LinkProfile, rtt: SimDuration, rng: SimRng) -> Self {
        match kind {
            TransportKind::Udp => Transport::Udp(OneWayLink::new(profile, rng)),
            TransportKind::Tcp => Transport::Tcp(TcpStream::new(profile, rtt, rng)),
        }
    }

    /// Which kind this is.
    pub fn kind(&self) -> TransportKind {
        match self {
            Transport::Udp(_) => TransportKind::Udp,
            Transport::Tcp(_) => TransportKind::Tcp,
        }
    }

    /// Sends a message. UDP resolves immediately (delivered or lost); TCP
    /// may defer ([`TxOutcome::Queued`]) and never reports
    /// [`TxOutcome::Lost`].
    pub fn send(&mut self, now: SimTime, bytes: u64) -> TxOutcome {
        match self {
            Transport::Udp(u) => match u.send(now, bytes) {
                Delivery::At(t) => TxOutcome::Delivered(t),
                Delivery::Lost => TxOutcome::Lost,
            },
            Transport::Tcp(t) => t.send(now, bytes),
        }
    }

    /// The earliest TCP retransmission deadline, if any (always `None`
    /// for UDP).
    pub fn next_timer(&self) -> Option<SimTime> {
        match self {
            Transport::Udp(_) => None,
            Transport::Tcp(t) => t.next_timer(),
        }
    }

    /// Fires due TCP retransmission timers (no-op for UDP).
    pub fn on_timer(&mut self, now: SimTime) -> Vec<TcpEvent> {
        match self {
            Transport::Udp(_) => Vec::new(),
            Transport::Tcp(t) => t.on_timer(now),
        }
    }

    /// TCP retransmission counters (`None` for UDP).
    pub fn tcp_stats(&self) -> Option<TcpStats> {
        match self {
            Transport::Udp(_) => None,
            Transport::Tcp(t) => Some(t.tcp_stats()),
        }
    }

    /// Link counters.
    pub fn stats(&self) -> LinkStats {
        match self {
            Transport::Udp(u) => u.stats(),
            Transport::Tcp(t) => t.stats(),
        }
    }

    /// The current link profile.
    pub fn profile(&self) -> LinkProfile {
        match self {
            Transport::Udp(u) => u.profile(),
            Transport::Tcp(t) => t.profile(),
        }
    }

    /// Replaces the link profile at runtime. TCP keeps its stream state
    /// (delivery point, queued segments, RTO estimator); only the
    /// physical parameters change under it.
    pub fn set_profile(&mut self, profile: LinkProfile) {
        match self {
            Transport::Udp(u) => u.set_profile(profile),
            Transport::Tcp(t) => t.set_profile(profile),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy() -> LinkProfile {
        LinkProfile {
            frame_loss: 0.02,
            ..LinkProfile::gigabit_lan()
        }
    }

    fn blackout() -> LinkProfile {
        LinkProfile {
            frame_loss: 1.0,
            ..LinkProfile::gigabit_lan()
        }
    }

    /// Drives a stream's timers to quiescence, collecting events.
    fn drain(t: &mut TcpStream) -> Vec<TcpEvent> {
        let mut out = Vec::new();
        while let Some(at) = t.next_timer() {
            out.extend(t.on_timer(at));
        }
        out
    }

    #[test]
    fn udp_on_clean_lan_never_loses() {
        let mut u = OneWayLink::new(LinkProfile::gigabit_lan(), SimRng::new(1));
        for i in 0..1_000u64 {
            let d = u.send(SimTime::from_nanos(i * 1_000_000), 8_300);
            assert!(matches!(d, Delivery::At(_)));
        }
    }

    #[test]
    fn udp_on_lossy_path_loses_datagrams() {
        let mut u = OneWayLink::new(lossy(), SimRng::new(2));
        let lost = (0..2_000u64)
            .filter(|i| u.send(SimTime::from_nanos(i * 1_000_000), 8_300) == Delivery::Lost)
            .count();
        // 6 frames at 2% each: ~11% datagram loss expected.
        assert!((100..350).contains(&lost), "lost {lost} of 2000");
    }

    #[test]
    fn tcp_always_delivers() {
        let mut t = TcpStream::new(lossy(), SimDuration::from_micros(200), SimRng::new(3));
        let mut immediate = 0u64;
        for i in 0..2_000u64 {
            match t.send(SimTime::from_nanos(i * 1_000_000), 8_300) {
                TxOutcome::Delivered(_) => immediate += 1,
                TxOutcome::Queued(_) => {}
                TxOutcome::Lost => panic!("TCP never loses"),
            }
        }
        let events = drain(&mut t);
        let timed: u64 = events
            .iter()
            .filter(|e| matches!(e, TcpEvent::Delivered { .. }))
            .count() as u64;
        let s = t.tcp_stats();
        assert_eq!(immediate + timed + s.lost_tracked, 2_000, "{s:?}");
        assert!(s.retransmits > 0, "lossy path should retransmit");
        assert_eq!(s.order_violations, 0, "{s:?}");
        assert_eq!(s.lost_tracked, 0, "2% loss never exhausts the budget");
    }

    #[test]
    fn tcp_retransmission_delays_delivery() {
        // A blackout loses the first copy deterministically; the resend
        // only goes out after a full RTO.
        let rtt = SimDuration::from_micros(200);
        let mut t = TcpStream::new(blackout(), rtt, SimRng::new(4));
        assert_eq!(t.send(SimTime::ZERO, 1_000), TxOutcome::Queued(0));
        t.set_profile(LinkProfile::gigabit_lan());
        let events = drain(&mut t);
        let [TcpEvent::Delivered { seq: 0, at }] = events[..] else {
            panic!("expected one delivery, got {events:?}");
        };
        assert!(
            at.since(SimTime::ZERO) >= TCP_RTO_MIN,
            "a retransmitted segment costs at least one RTO, got {at:?}"
        );
    }

    #[test]
    fn tcp_survives_total_blackout() {
        // frame_loss = 1.0 — impossible under the old inline engine (its
        // resend loop would never terminate; the enum wrapper debug-
        // asserted a 0.15 cap). Now segments back off and recover when
        // the window lifts.
        let rtt = SimDuration::from_micros(200);
        let mut t = TcpStream::new(blackout(), rtt, SimRng::new(7));
        for i in 0..8u64 {
            assert_eq!(
                t.send(SimTime::from_nanos(i * 1_000), 4_000),
                TxOutcome::Queued(i)
            );
        }
        // Let a few timers fire inside the window: everything stays queued
        // and the RTO backs off.
        let window_end = SimTime::ZERO + SimDuration::from_secs(2);
        while let Some(at) = t.next_timer() {
            if at > window_end {
                break;
            }
            assert!(t.on_timer(at).is_empty(), "nothing delivers in blackout");
        }
        let s = t.tcp_stats();
        assert!(s.rto_backoffs > 0, "{s:?}");
        assert!(s.max_rto > TCP_RTO_MIN, "{s:?}");
        // Restore the link: every segment recovers, in order.
        t.set_profile(LinkProfile::gigabit_lan());
        let events = drain(&mut t);
        let seqs: Vec<u64> = events
            .iter()
            .map(|e| match e {
                TcpEvent::Delivered { seq, .. } => *seq,
                TcpEvent::Aborted { seq } => panic!("seq {seq} aborted before budget"),
            })
            .collect();
        assert_eq!(seqs, (0..8).collect::<Vec<_>>(), "in-order recovery");
        let s = t.tcp_stats();
        assert_eq!(s.delivered, 8, "{s:?}");
        assert_eq!(s.order_violations, 0, "{s:?}");
    }

    #[test]
    fn tcp_high_loss_converges() {
        // 60% frame loss — four times the old cap. Every segment still
        // resolves (delivered or, rarely, aborted) in bounded time.
        let high = LinkProfile {
            frame_loss: 0.6,
            ..LinkProfile::gigabit_lan()
        };
        let mut t = TcpStream::new(high, SimDuration::from_micros(200), SimRng::new(8));
        let mut resolved = 0u64;
        for i in 0..200u64 {
            if let TxOutcome::Delivered(_) = t.send(SimTime::from_nanos(i * 500_000), 2_000) {
                resolved += 1;
            }
        }
        for e in drain(&mut t) {
            match e {
                TcpEvent::Delivered { .. } | TcpEvent::Aborted { .. } => resolved += 1,
            }
        }
        let s = t.tcp_stats();
        assert_eq!(resolved, 200, "every segment resolves: {s:?}");
        assert!(s.retransmits > 0, "{s:?}");
        assert_eq!(
            s.segments_sent,
            s.acked + s.in_flight + s.lost_tracked,
            "{s:?}"
        );
        assert_eq!(s.order_violations, 0, "{s:?}");
    }

    #[test]
    fn tcp_abandons_a_segment_after_the_retry_budget() {
        let mut t = TcpStream::new(blackout(), SimDuration::from_micros(200), SimRng::new(9));
        assert_eq!(t.send(SimTime::ZERO, 1_000), TxOutcome::Queued(0));
        let events = drain(&mut t);
        assert_eq!(events, vec![TcpEvent::Aborted { seq: 0 }]);
        let s = t.tcp_stats();
        assert_eq!(s.lost_tracked, 1, "{s:?}");
        assert_eq!(s.retransmits, TCP_MAX_SEGMENT_RETRIES as u64, "{s:?}");
        assert_eq!(
            s.segments_sent,
            s.acked + s.in_flight + s.lost_tracked,
            "{s:?}"
        );
        assert!(s.max_rto <= TCP_RTO_MAX, "{s:?}");
        assert!(t.next_timer().is_none(), "queue drains after the abort");
    }

    #[test]
    fn tcp_fast_retransmit_pulls_the_retry_forward() {
        // Lose the head, then land three followers: the dup-ack proxy
        // must rearm the head's retry at ~one ack time, far under the RTO.
        let rtt = SimDuration::from_micros(200);
        let mut t = TcpStream::new(blackout(), rtt, SimRng::new(10));
        assert_eq!(t.send(SimTime::ZERO, 1_000), TxOutcome::Queued(0));
        let rto_retry = t.next_timer().expect("timer armed");
        assert!(rto_retry.since(SimTime::ZERO) >= TCP_RTO_MIN);
        t.set_profile(LinkProfile::gigabit_lan());
        for i in 1..=3u64 {
            assert!(matches!(
                t.send(SimTime::from_nanos(i * 1_000), 1_000),
                TxOutcome::Queued(_)
            ));
        }
        let fast_retry = t.next_timer().expect("timer armed");
        assert!(
            fast_retry < rto_retry,
            "3 dup-acks pull {rto_retry:?} forward, got {fast_retry:?}"
        );
        let events = drain(&mut t);
        let seqs: Vec<u64> = events
            .iter()
            .map(|e| match e {
                TcpEvent::Delivered { seq, .. } => *seq,
                TcpEvent::Aborted { seq } => panic!("seq {seq} aborted"),
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3], "head then the parked run");
        assert_eq!(t.tcp_stats().fast_retransmits, 1);
    }

    #[test]
    fn transport_enum_dispatches() {
        let rtt = SimDuration::from_micros(200);
        let mut u = Transport::new(
            TransportKind::Udp,
            LinkProfile::gigabit_lan(),
            rtt,
            SimRng::new(5),
        );
        let mut t = Transport::new(
            TransportKind::Tcp,
            LinkProfile::gigabit_lan(),
            rtt,
            SimRng::new(5),
        );
        assert_eq!(u.kind(), TransportKind::Udp);
        assert_eq!(t.kind(), TransportKind::Tcp);
        assert!(matches!(
            u.send(SimTime::ZERO, 100),
            TxOutcome::Delivered(_)
        ));
        assert!(matches!(
            t.send(SimTime::ZERO, 100),
            TxOutcome::Delivered(_)
        ));
        assert_eq!(u.next_timer(), None);
        assert_eq!(t.next_timer(), None, "clean TCP is event-free");
        assert_eq!(u.tcp_stats(), None);
        assert_eq!(t.tcp_stats().expect("tcp").delivered, 1);
    }

    #[test]
    fn transport_tcp_accepts_blackout_loss() {
        // The 0.15 TCP_MAX_FRAME_LOSS cap (and its debug-asserts) are
        // gone: the enum wrapper takes any loss rate and the stream
        // resolves the message through timers.
        let mut t = Transport::new(
            TransportKind::Tcp,
            blackout(),
            SimDuration::from_micros(200),
            SimRng::new(7),
        );
        assert_eq!(t.send(SimTime::ZERO, 100), TxOutcome::Queued(0));
        t.set_profile(LinkProfile::gigabit_lan());
        let at = t.next_timer().expect("retry armed");
        let events = t.on_timer(at);
        assert!(
            matches!(events[..], [TcpEvent::Delivered { seq: 0, .. }]),
            "{events:?}"
        );
    }

    #[test]
    fn tcp_head_of_line_blocking_orders_bursts() {
        // Two messages sent at the same instant arrive in send order even
        // with jitter configured.
        let jittery = LinkProfile {
            jitter: 1e-3,
            ..LinkProfile::gigabit_lan()
        };
        let mut t = TcpStream::new(jittery, SimDuration::from_micros(200), SimRng::new(6));
        let TxOutcome::Delivered(a) = t.send(SimTime::ZERO, 8_000) else {
            panic!("clean link delivers immediately");
        };
        let TxOutcome::Delivered(b) = t.send(SimTime::ZERO, 8_000) else {
            panic!("clean link delivers immediately");
        };
        assert!(b >= a);
    }
}
