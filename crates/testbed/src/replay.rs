//! Open-loop trace replay against the full NFS world.
//!
//! Where `nfstrace::analyze` scores heuristics on a request stream in
//! isolation, this module replays a trace through the whole simulated
//! installation — client, wire, nfsds, heuristics, disk — issuing each
//! operation at its trace timestamp (open loop) and measuring per-request
//! latency. This is how one would evaluate the paper's heuristics against
//! a production trace rather than a synthetic benchmark.

use nfssim::{NfsWorld, WorldConfig};
use nfstrace::Trace;
use simcore::{quantile, SimDuration, SimTime};

use crate::rig::Rig;
use crate::trace::{create_trace_files, issue_record};

/// Latency statistics from a replay.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Operations replayed.
    pub ops: u64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Median latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: f64,
    /// Wall-clock (simulated) duration of the replay in seconds.
    pub elapsed_secs: f64,
    /// GETATTR RPCs that went to the wire (with the attribute cache
    /// armed: cold misses + revalidations; disarmed: every getattr op).
    pub getattr_rpcs: u64,
    /// Getattr-class ops the client attribute cache answered locally.
    pub attr_cache_hits: u64,
    /// LOOKUP RPCs sent.
    pub lookup_rpcs: u64,
    /// READDIR RPCs sent.
    pub readdir_rpcs: u64,
}

/// Replays `trace` on a fresh world built from `rig` + `config`.
///
/// Files are sized to cover the trace's largest offset per handle (see
/// [`crate::create_trace_files`]).
/// Operations are issued open-loop at `time_us` from the trace; the world
/// may fall behind under overload, in which case later operations queue
/// (their latency includes the backlog, as it would in reality).
pub fn replay(rig: Rig, config: WorldConfig, trace: &Trace, seed: u64) -> ReplayResult {
    let fs = rig.build_fs(seed);
    let mut world = NfsWorld::new(config, fs, seed);
    let handles = create_trace_files(&mut world, 0, trace);

    let mut latencies: Vec<f64> = Vec::with_capacity(trace.len());
    let mut outstanding = 0u64;
    let mut end_time = SimTime::ZERO;
    for (i, r) in trace.records.iter().enumerate() {
        let at = SimTime::ZERO + SimDuration::from_micros(r.time_us);
        // Drain everything scheduled before this arrival.
        while let Some(t) = world.next_event() {
            if t > at {
                break;
            }
            for d in world.advance(t) {
                latencies.push(d.done_at.since(d.issued_at).as_millis_f64());
                end_time = end_time.max(d.done_at);
                outstanding -= 1;
            }
        }
        issue_record(&mut world, 0, at, handles[&r.fh], r, i as u64);
        outstanding += 1;
    }
    while outstanding > 0 {
        let t = world.next_event().expect("ops outstanding");
        for d in world.advance(t) {
            latencies.push(d.done_at.since(d.issued_at).as_millis_f64());
            end_time = end_time.max(d.done_at);
            outstanding -= 1;
        }
    }
    let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let cs = world.client_stats_for(0);
    ReplayResult {
        ops: latencies.len() as u64,
        mean_ms: mean,
        p50_ms: quantile(&latencies, 0.5).unwrap_or(0.0),
        p99_ms: quantile(&latencies, 0.99).unwrap_or(0.0),
        elapsed_secs: end_time.as_secs_f64(),
        getattr_rpcs: cs.getattr_rpcs,
        attr_cache_hits: cs.attr_cache_hits,
        lookup_rpcs: cs.lookup_rpcs,
        readdir_rpcs: cs.readdir_rpcs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace::synth;
    use readahead_core::{NfsHeurConfig, ReadaheadPolicy};
    use simcore::SimRng;

    fn cfg(policy: ReadaheadPolicy) -> WorldConfig {
        WorldConfig {
            policy,
            heur: NfsHeurConfig::improved(),
            ..WorldConfig::default()
        }
    }

    #[test]
    fn replay_completes_every_operation() {
        let mut rng = SimRng::new(1);
        let trace = synth::with_metadata_noise(
            synth::sequential(
                synth::SequentialSpec {
                    files: 4,
                    blocks_per_file: 64,
                    ..synth::SequentialSpec::default()
                },
                &mut rng,
            ),
            0.2,
            &mut rng,
        );
        let total = trace.len() as u64;
        let r = replay(Rig::ide(1), cfg(ReadaheadPolicy::slowdown()), &trace, 1);
        assert_eq!(r.ops, total);
        assert!(r.mean_ms > 0.0);
        assert!(r.p99_ms >= r.p50_ms);
    }

    #[test]
    fn replays_of_one_multi_file_trace_are_bit_identical() {
        // Files are created in trace-handle order, not hash order, so the
        // disk layout — and with it every latency — repeats exactly.
        let mut rng = SimRng::new(4);
        let trace = synth::with_metadata_noise(
            synth::sequential(
                synth::SequentialSpec {
                    files: 12,
                    blocks_per_file: 16,
                    ..synth::SequentialSpec::default()
                },
                &mut rng,
            ),
            0.2,
            &mut rng,
        );
        let run = || {
            format!(
                "{:?}",
                replay(Rig::ide(1), cfg(ReadaheadPolicy::Default), &trace, 4)
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cursor_replay_beats_default_on_stride_traces() {
        let mut rng = SimRng::new(2);
        let trace = synth::stride(4, 1_024, 8_192, 400.0, &mut rng);
        let d = replay(Rig::scsi(1), cfg(ReadaheadPolicy::Default), &trace, 2);
        let c = replay(Rig::scsi(1), cfg(ReadaheadPolicy::cursor()), &trace, 2);
        assert!(
            c.mean_ms < d.mean_ms * 0.8,
            "cursor mean {:.2}ms vs default {:.2}ms",
            c.mean_ms,
            d.mean_ms
        );
    }

    #[test]
    fn overload_shows_up_as_latency_not_loss() {
        // A trace issued far faster than the server can serve: everything
        // still completes, with queueing latency.
        let mut rng = SimRng::new(3);
        let mut trace = synth::random(512, 400, 8_192, &mut rng);
        for r in &mut trace.records {
            r.time_us /= 50; // Compress arrival times brutally.
        }
        let total = trace.len() as u64;
        let r = replay(Rig::ide(1), cfg(ReadaheadPolicy::Default), &trace, 3);
        assert_eq!(r.ops, total);
        assert!(r.p99_ms > r.p50_ms, "{r:?}");
    }
}
