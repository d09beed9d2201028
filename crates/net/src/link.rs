//! The physical link: bandwidth, latency, MTU framing, and frame loss.
//!
//! A [`OneWayLink`] serializes transmissions: a send that begins while the
//! wire is busy queues behind it (the switch port is the bottleneck). Every
//! payload is carved into MTU-sized Ethernet frames; per-frame loss is what
//! makes large UDP datagrams fragile — losing *any* fragment loses the
//! whole datagram (§5.4).
//!
//! The gigabit preset is calibrated to the paper's testbed: the raw TCP
//! bandwidth they measured was 49 MB/s, far below the 1 Gb/s line rate,
//! because the server's PCI bus DMA ceiling was ~54 MB/s ("know your
//! hardware", §9.1).

use simcore::{SimDuration, SimRng, SimTime};

/// Ethernet + IP + UDP header bytes charged per frame.
pub const FRAME_HEADER_BYTES: u64 = 18 + 20 + 8;

/// Link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Effective bandwidth in bytes per second (after host-side ceilings).
    pub bandwidth: f64,
    /// One-way propagation + switch latency.
    pub latency: SimDuration,
    /// Maximum transmission unit (payload bytes per frame).
    pub mtu: u64,
    /// Independent per-frame loss probability.
    pub frame_loss: f64,
    /// Maximum uniform extra per-message delay, seconds (0 on a quiet
    /// switched LAN; larger on congested or wireless paths).
    pub jitter: f64,
}

impl LinkProfile {
    /// The testbed's gigabit network: 49 MB/s effective (PCI-limited),
    /// standard 1500-byte MTU, no loss, negligible jitter.
    pub fn gigabit_lan() -> Self {
        LinkProfile {
            bandwidth: 49e6,
            latency: SimDuration::from_micros(30),
            mtu: 1_500,
            frame_loss: 0.0,
            jitter: 2e-6,
        }
    }

    /// Number of frames needed for a payload.
    pub fn frames_for(&self, bytes: u64) -> u64 {
        bytes.max(1).div_ceil(self.mtu)
    }

    /// Total wire bytes for a payload, headers included.
    pub fn wire_bytes(&self, bytes: u64) -> u64 {
        bytes.max(1) + self.frames_for(bytes) * FRAME_HEADER_BYTES
    }
}

/// Outcome of a transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message arrives (last byte) at the given instant.
    At(SimTime),
    /// At least one frame was lost; the message never arrives.
    Lost,
}

simcore::counters! {
    /// Counters for a link direction.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct LinkStats {
        /// Messages handed to the link.
        pub messages: u64,
        /// Messages dropped due to frame loss.
        pub lost: u64,
        /// Payload bytes successfully delivered.
        pub bytes_delivered: u64,
    }
}

/// One direction of a full-duplex link.
#[derive(Debug)]
pub struct OneWayLink {
    profile: LinkProfile,
    busy_until: SimTime,
    rng: SimRng,
    stats: LinkStats,
}

impl OneWayLink {
    /// Creates a link direction.
    pub fn new(profile: LinkProfile, rng: SimRng) -> Self {
        OneWayLink {
            profile,
            busy_until: SimTime::ZERO,
            rng,
            stats: LinkStats::default(),
        }
    }

    /// The link profile.
    pub fn profile(&self) -> LinkProfile {
        self.profile
    }

    /// Replaces the link profile at runtime (fault injection: degradation,
    /// loss bursts). In-flight transmissions keep the wire occupancy they
    /// were charged (`busy_until` is preserved); only future sends see the
    /// new parameters — the same cutover a real switch port reconfiguration
    /// or interference burst produces.
    pub fn set_profile(&mut self, profile: LinkProfile) {
        self.profile = profile;
    }

    /// Counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Transmits `bytes` starting no earlier than `now`; returns when the
    /// last byte arrives, or [`Delivery::Lost`].
    ///
    /// Wire time is still consumed for lost messages (the frames were sent;
    /// only delivery failed).
    pub fn send(&mut self, now: SimTime, bytes: u64) -> Delivery {
        self.stats.messages += 1;
        let start = now.max(self.busy_until);
        let wire = self.profile.wire_bytes(bytes);
        let tx = SimDuration::from_secs_f64(wire as f64 / self.profile.bandwidth);
        self.busy_until = start + tx;
        let frames = self.profile.frames_for(bytes);
        if self.profile.frame_loss > 0.0 {
            let survive = (1.0 - self.profile.frame_loss).powi(frames as i32);
            if !self.rng.chance(survive) {
                self.stats.lost += 1;
                return Delivery::Lost;
            }
        }
        let jitter = if self.profile.jitter > 0.0 {
            SimDuration::from_secs_f64(self.rng.uniform01() * self.profile.jitter)
        } else {
            SimDuration::ZERO
        };
        self.stats.bytes_delivered += bytes;
        Delivery::At(self.busy_until + self.profile.latency + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lan() -> OneWayLink {
        OneWayLink::new(LinkProfile::gigabit_lan(), SimRng::new(1))
    }

    #[test]
    fn small_message_arrives_after_latency() {
        let mut l = lan();
        match l.send(SimTime::ZERO, 100) {
            Delivery::At(t) => {
                let secs = t.as_secs_f64();
                assert!(secs >= 30e-6, "must include 30us latency: {secs}");
                assert!(secs < 100e-6, "small message should be quick: {secs}");
            }
            Delivery::Lost => panic!("no loss on LAN"),
        }
    }

    #[test]
    fn throughput_approaches_calibrated_bandwidth() {
        let mut l = lan();
        let mb = 32 * 1024 * 1024u64;
        let Delivery::At(t) = l.send(SimTime::ZERO, mb) else {
            panic!()
        };
        let rate = mb as f64 / t.as_secs_f64() / 1e6;
        assert!((44.0..49.5).contains(&rate), "rate {rate} MB/s");
    }

    #[test]
    fn back_to_back_sends_serialize() {
        let mut l = lan();
        let Delivery::At(t1) = l.send(SimTime::ZERO, 8_192) else {
            panic!()
        };
        let Delivery::At(t2) = l.send(SimTime::ZERO, 8_192) else {
            panic!()
        };
        // The second message queued behind the first on the wire.
        let gap = t2.since(t1).as_secs_f64();
        let tx_time = LinkProfile::gigabit_lan().wire_bytes(8_192) as f64 / 49e6;
        assert!(gap >= tx_time * 0.9, "gap {gap} < tx {tx_time}");
    }

    #[test]
    fn idle_link_does_not_queue() {
        let mut l = lan();
        let _ = l.send(SimTime::ZERO, 1_000);
        let late = SimTime::ZERO + SimDuration::from_secs(1);
        let Delivery::At(t) = l.send(late, 1_000) else {
            panic!()
        };
        assert!(t.since(late) < SimDuration::from_millis(1));
    }

    #[test]
    fn fragmentation_counts() {
        let p = LinkProfile::gigabit_lan();
        assert_eq!(p.frames_for(1), 1);
        assert_eq!(p.frames_for(1_500), 1);
        assert_eq!(p.frames_for(1_501), 2);
        assert_eq!(p.frames_for(8_192), 6);
        assert_eq!(p.wire_bytes(1_500), 1_500 + 46);
    }

    #[test]
    fn lossy_link_drops_large_messages_more() {
        let profile = LinkProfile {
            frame_loss: 0.05,
            ..LinkProfile::gigabit_lan()
        };
        let mut l = OneWayLink::new(profile, SimRng::new(7));
        let mut small_lost = 0;
        let mut large_lost = 0;
        let n = 2_000;
        for i in 0..n {
            let t = SimTime::from_nanos(i * 1_000_000);
            if l.send(t, 1_000) == Delivery::Lost {
                small_lost += 1;
            }
            if l.send(t, 30_000) == Delivery::Lost {
                large_lost += 1;
            }
        }
        assert!(
            large_lost > small_lost * 3,
            "fragmented datagrams amplify loss: small {small_lost}, large {large_lost}"
        );
    }

    #[test]
    fn loss_consumes_wire_time() {
        let profile = LinkProfile {
            frame_loss: 1.0,
            ..LinkProfile::gigabit_lan()
        };
        let mut l = OneWayLink::new(profile, SimRng::new(1));
        assert_eq!(l.send(SimTime::ZERO, 8_192), Delivery::Lost);
        // A follow-up send still queues behind the lost transmission.
        let ok = LinkProfile {
            frame_loss: 0.0,
            ..profile
        };
        let _ = ok;
        let Delivery::Lost = l.send(SimTime::ZERO, 8_192) else {
            panic!()
        };
        assert!(l.stats().lost == 2);
        assert!(l.stats().messages == 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let profile = LinkProfile {
                frame_loss: 0.01,
                jitter: 1e-4,
                ..LinkProfile::gigabit_lan()
            };
            let mut l = OneWayLink::new(profile, SimRng::new(seed));
            (0..100u64)
                .map(
                    |i| match l.send(SimTime::from_nanos(i * 1_000_000), 5_000) {
                        Delivery::At(t) => t.as_nanos(),
                        Delivery::Lost => 0,
                    },
                )
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
