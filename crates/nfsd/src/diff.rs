//! The sim-vs-real differential harness.
//!
//! The claim the endpoint makes is that putting a real TCP socket in
//! front of the simulated server changes *when* things happen but not
//! *what* happens: the `nfsheur` heuristic table, the duplicate request
//! cache, and the write-gathering pool see the same operation stream and
//! keep the same books. This module checks that claim: it replays the
//! same seed-derived trace (a) through a fresh world on the pure virtual
//! clock and (b) against a live endpoint over real sockets, then diffs
//! the two servers' books.
//!
//! Which counters must match exactly and which get tolerance is the
//! interesting part:
//!
//! * **Order-driven** counters — calls received, replies, heuristic
//!   hits/misses/ejections, UNSTABLE writes stashed, COMMITs, dirty
//!   blocks — depend only on the operation *sequence*, which a
//!   single-connection closed-loop replay reproduces exactly. These must
//!   be equal.
//! * **Time-driven** counters — gather flushes — depend on how many
//!   gather windows expire before the next write to the same file
//!   arrives. Wall-clock jitter can merge or split adjacent gathers, so
//!   flushes get a documented tolerance (they can differ, but the total
//!   *blocks* flushed cannot, since every stashed block is flushed
//!   exactly once by quiescence).

use nfsproto::StableHow;
use nfssim::{NfsWorld, ServerStats};
use nfstrace::TraceRecord;
use simcore::{SimDuration, SimTime};

use crate::endpoint::Endpoint;

/// The heuristic-and-write-path books the harness compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeurBooks {
    /// READ calls accepted.
    pub reads: u64,
    /// Non-READ calls accepted.
    pub other_calls: u64,
    /// RPC replies sent.
    pub replies: u64,
    /// `nfsheur` probe hits.
    pub heur_hits: u64,
    /// `nfsheur` probe misses.
    pub heur_misses: u64,
    /// `nfsheur` entries ejected.
    pub heur_ejections: u64,
    /// UNSTABLE writes stashed in the dirty pool.
    pub unstable_writes: u64,
    /// COMMIT calls.
    pub commits: u64,
    /// Blocks that entered the dirty pool.
    pub dirty_blocks_stashed: u64,
    /// Dirty-pool flushes submitted (time-driven; tolerance applies).
    pub gather_flushes: u64,
}

impl HeurBooks {
    /// Extracts the compared books from full server stats.
    pub fn from_stats(s: &ServerStats) -> Self {
        HeurBooks {
            reads: s.reads,
            other_calls: s.other_calls,
            replies: s.replies,
            heur_hits: s.heur_hits,
            heur_misses: s.heur_misses,
            heur_ejections: s.heur_ejections,
            unstable_writes: s.unstable_writes,
            commits: s.commits,
            dirty_blocks_stashed: s.dirty_blocks_stashed,
            gather_flushes: s.gather_flushes,
        }
    }
}

/// One compared counter in a [`DiffReport`].
#[derive(Debug, Clone, Copy)]
pub struct DiffLine {
    /// Counter name.
    pub name: &'static str,
    /// Value from the pure-virtual replay.
    pub sim: u64,
    /// Value from the real endpoint.
    pub real: u64,
    /// Whether this counter is allowed to drift (time-driven).
    pub tolerated: bool,
}

impl DiffLine {
    /// Whether this line passes: exact for order-driven counters,
    /// any value for tolerated ones.
    pub fn ok(&self) -> bool {
        self.tolerated || self.sim == self.real
    }
}

/// Result of diffing the two books.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Per-counter lines, order-driven first.
    pub lines: Vec<DiffLine>,
}

impl DiffReport {
    /// Diffs two books.
    pub fn diff(sim: &HeurBooks, real: &HeurBooks) -> Self {
        let line = |name, s, r, tolerated| DiffLine {
            name,
            sim: s,
            real: r,
            tolerated,
        };
        DiffReport {
            lines: vec![
                line("reads", sim.reads, real.reads, false),
                line("other_calls", sim.other_calls, real.other_calls, false),
                line("replies", sim.replies, real.replies, false),
                line("heur_hits", sim.heur_hits, real.heur_hits, false),
                line("heur_misses", sim.heur_misses, real.heur_misses, false),
                line(
                    "heur_ejections",
                    sim.heur_ejections,
                    real.heur_ejections,
                    false,
                ),
                line(
                    "unstable_writes",
                    sim.unstable_writes,
                    real.unstable_writes,
                    false,
                ),
                line("commits", sim.commits, real.commits, false),
                line(
                    "dirty_blocks_stashed",
                    sim.dirty_blocks_stashed,
                    real.dirty_blocks_stashed,
                    false,
                ),
                line(
                    "gather_flushes",
                    sim.gather_flushes,
                    real.gather_flushes,
                    true,
                ),
            ],
        }
    }

    /// True when every order-driven counter matches exactly.
    pub fn passed(&self) -> bool {
        self.lines.iter().all(DiffLine::ok)
    }

    /// Renders an aligned terminal table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "counter                 sim          real    verdict\n\
             -------------------- -------- -------- ----------\n",
        );
        for l in &self.lines {
            let verdict = if l.sim == l.real {
                "match"
            } else if l.tolerated {
                "tolerated"
            } else {
                "MISMATCH"
            };
            out.push_str(&format!(
                "{:<20} {:>8} {:>8}    {}\n",
                l.name, l.sim, l.real, verdict
            ));
        }
        out
    }
}

/// Replays `trace` on the pure virtual clock through the same
/// external-ingress path the endpoint uses, mirroring the client's
/// closed-loop order: each call is injected when the previous reply has
/// been produced, so the server sees the identical sequence the socket
/// replay produces. Returns the settled books.
///
/// `sim` must be fresh, built with the same
/// `Endpoint::new(build_world(config, seed), spec)` as the real side so
/// both export the same files; the replay connects to it once. Trace
/// handles (`0x1000 + i` from the synthesizers) map to export file `f{i}`.
pub fn sim_replay(mut sim: Endpoint, trace: &[TraceRecord], stable: StableHow) -> HeurBooks {
    let conn = sim.connect();
    let mut now = SimTime::ZERO;
    let mut xid = 0u32;
    for rec in trace {
        xid = xid.wrapping_add(1).max(1);
        let fh = sim.exports()[rec.fh.saturating_sub(0x1000) as usize];
        let world = sim.world_mut();
        world.external_call(now, conn, xid, rec.to_call(fh, stable));
        // Closed loop: run the world until the reply for this call lands.
        loop {
            let replies = world.take_external_replies();
            if !replies.is_empty() {
                debug_assert_eq!(replies.len(), 1);
                now = replies[0].at;
                break;
            }
            match world.next_event() {
                Some(t) => {
                    world.advance(t);
                }
                None => panic!("world quiesced without replying to xid {xid}"),
            }
        }
    }
    // Quiesce: let gather windows expire and flushes finish.
    let world = sim.world_mut();
    settle(world, now);
    HeurBooks::from_stats(&world.server_stats())
}

/// Runs the world until no event remains within `horizon` of the last.
pub fn settle(world: &mut NfsWorld, from: SimTime) {
    let horizon = SimDuration::from_secs_f64(120.0);
    let mut t = from;
    while let Some(next) = world.next_event() {
        if next > t + horizon {
            break;
        }
        world.advance(next);
        t = next;
    }
    world.take_external_replies();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{build_world, ExportSpec};
    use nfssim::WorldConfig;
    use nfstrace::synth::{self, SequentialSpec};
    use simcore::SimRng;

    fn trace(seed: u64) -> Vec<TraceRecord> {
        let spec = SequentialSpec {
            files: 4,
            blocks_per_file: 24,
            ..SequentialSpec::default()
        };
        let mut rng = SimRng::new(seed);
        synth::sequential(spec, &mut rng).records
    }

    fn replay_books(seed: u64) -> HeurBooks {
        let spec = ExportSpec {
            files: 4,
            file_size: 24 * 8_192,
        };
        let sim = Endpoint::new(build_world(WorldConfig::default(), seed), spec);
        sim_replay(sim, &trace(seed), StableHow::FileSync)
    }

    #[test]
    fn sim_replay_is_deterministic() {
        let a = replay_books(11);
        let b = replay_books(11);
        assert_eq!(a, b);
        assert_eq!(a.reads + a.other_calls, a.replies);
        assert!(a.heur_hits > 0, "sequential trace must train the heuristic");
    }

    #[test]
    fn diff_report_flags_order_driven_mismatches_only() {
        let a = replay_books(11);
        let mut b = a;
        b.gather_flushes += 3; // time-driven: tolerated
        assert!(DiffReport::diff(&a, &b).passed());
        b.heur_hits += 1; // order-driven: must fail
        let report = DiffReport::diff(&a, &b);
        assert!(!report.passed());
        assert!(report.render().contains("MISMATCH"));
    }
}
