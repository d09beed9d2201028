//! Heuristic-quality analysis over traces.
//!
//! Replays a trace's READ stream through a [`ReadaheadPolicy`] + [`NfsHeur`]
//! pair — exactly what the server's read path does — and reports how much
//! read-ahead the heuristic would have enabled. This is the paper's §6.2
//! methodology ("an analysis of the values of seqCount show that SlowDown
//! accomplishes this goal") as a reusable tool.

use readahead_core::{NfsHeur, NfsHeurConfig, ReadaheadPolicy};

use crate::record::{Trace, TraceOp};

/// How a heuristic scored over a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeuristicQuality {
    /// READ records scored.
    pub reads: u64,
    /// Mean effective seqcount across all READs.
    pub mean_seqcount: f64,
    /// Fraction of READs with read-ahead enabled (seqcount >= threshold).
    pub readahead_fraction: f64,
    /// nfsheur ejections incurred.
    pub ejections: u64,
}

/// Replays `trace` through `policy` on a table of `table` geometry.
///
/// `threshold` is the seqcount at which the file system starts read-ahead
/// (2 in our FFS model).
pub fn score(
    trace: &Trace,
    policy: &ReadaheadPolicy,
    table: NfsHeurConfig,
    threshold: u32,
) -> HeuristicQuality {
    let mut heur = NfsHeur::new(table);
    let mut reads = 0u64;
    let mut sum = 0u64;
    let mut enabled = 0u64;
    for r in &trace.records {
        if r.op != TraceOp::Read {
            continue;
        }
        let c = heur.observe(r.fh, r.offset, u64::from(r.len), policy);
        reads += 1;
        sum += u64::from(c);
        if c >= threshold {
            enabled += 1;
        }
    }
    HeuristicQuality {
        reads,
        mean_seqcount: if reads == 0 {
            0.0
        } else {
            sum as f64 / reads as f64
        },
        readahead_fraction: if reads == 0 {
            0.0
        } else {
            enabled as f64 / reads as f64
        },
        ejections: heur.stats().ejections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{self, SequentialSpec};
    use simcore::SimRng;

    fn seq_trace(seed: u64) -> Trace {
        synth::sequential(SequentialSpec::default(), &mut SimRng::new(seed))
    }

    #[test]
    fn always_scores_perfectly_everywhere() {
        let t = seq_trace(1);
        let q = score(&t, &ReadaheadPolicy::Always, NfsHeurConfig::improved(), 2);
        // Only each file's very first access (a table miss) scores below
        // the threshold.
        assert!(q.readahead_fraction > 0.99, "{q:?}");
        assert_eq!(q.reads, t.reads().count() as u64);
    }

    #[test]
    fn default_is_fine_on_clean_sequential_traces() {
        let t = seq_trace(2);
        let q = score(&t, &ReadaheadPolicy::Default, NfsHeurConfig::improved(), 2);
        assert!(q.readahead_fraction > 0.95, "{q:?}");
        assert!(q.mean_seqcount > 50.0, "{q:?}");
    }

    #[test]
    fn reordering_hurts_default_but_not_slowdown() {
        // The paper's central claim, measured the paper's way. A single
        // stream makes every transport-level swap hit the file's request
        // order (interleaved streams absorb most swaps harmlessly).
        let mut rng = SimRng::new(3);
        let one_stream = synth::sequential(
            SequentialSpec {
                files: 1,
                blocks_per_file: 2_048,
                ..SequentialSpec::default()
            },
            &mut SimRng::new(3),
        );
        let (t, _) = synth::reorder(one_stream, 0.06, &mut rng);
        let d = score(&t, &ReadaheadPolicy::Default, NfsHeurConfig::improved(), 2);
        let s = score(
            &t,
            &ReadaheadPolicy::slowdown(),
            NfsHeurConfig::improved(),
            2,
        );
        assert!(
            s.readahead_fraction > d.readahead_fraction + 0.05,
            "slowdown {s:?} vs default {d:?}"
        );
        assert!(
            s.mean_seqcount > d.mean_seqcount * 1.5,
            "read-ahead depth: slowdown {s:?} vs default {d:?}"
        );
    }

    #[test]
    fn tiny_table_ejections_dominate_everything() {
        // 32 streams against the stock table: even Always's numbers are
        // capped because state is lost between accesses... but Always
        // recomputes 127 unconditionally, so only stateful policies suffer.
        let t = synth::sequential(
            SequentialSpec {
                files: 32,
                blocks_per_file: 64,
                ..SequentialSpec::default()
            },
            &mut SimRng::new(4),
        );
        let small = score(
            &t,
            &ReadaheadPolicy::Default,
            NfsHeurConfig::freebsd_default(),
            2,
        );
        let big = score(&t, &ReadaheadPolicy::Default, NfsHeurConfig::improved(), 2);
        assert!(small.ejections > 500, "{small:?}");
        assert_eq!(big.ejections, 0, "{big:?}");
        assert!(
            big.readahead_fraction > small.readahead_fraction + 0.3,
            "big {big:?} vs small {small:?}"
        );
    }

    #[test]
    fn cursor_wins_on_stride_traces() {
        let t = synth::stride(8, 512, 8_192, 200.0, &mut SimRng::new(5));
        let d = score(&t, &ReadaheadPolicy::Default, NfsHeurConfig::improved(), 2);
        let c = score(&t, &ReadaheadPolicy::cursor(), NfsHeurConfig::improved(), 2);
        assert!(d.readahead_fraction < 0.05, "{d:?}");
        assert!(c.readahead_fraction > 0.8, "{c:?}");
    }

    #[test]
    fn nobody_enables_readahead_on_random_traces() {
        let t = synth::random(10_000, 2_000, 8_192, &mut SimRng::new(6));
        for p in [
            ReadaheadPolicy::Default,
            ReadaheadPolicy::slowdown(),
            ReadaheadPolicy::cursor(),
        ] {
            let q = score(&t, &p, NfsHeurConfig::improved(), 2);
            assert!(
                q.readahead_fraction < 0.1,
                "{} wasted read-ahead on randomness: {q:?}",
                p.label()
            );
        }
    }

    #[test]
    fn empty_trace_scores_zero() {
        let q = score(
            &Trace::new(),
            &ReadaheadPolicy::slowdown(),
            NfsHeurConfig::improved(),
            2,
        );
        assert_eq!(q.reads, 0);
        assert_eq!(q.mean_seqcount, 0.0);
    }

    #[test]
    fn metadata_noise_does_not_confuse_read_scoring() {
        let mut rng = SimRng::new(7);
        let clean = seq_trace(7);
        let noisy = synth::with_metadata_noise(clean.clone(), 0.3, &mut rng);
        let qc = score(
            &clean,
            &ReadaheadPolicy::slowdown(),
            NfsHeurConfig::improved(),
            2,
        );
        let qn = score(
            &noisy,
            &ReadaheadPolicy::slowdown(),
            NfsHeurConfig::improved(),
            2,
        );
        assert_eq!(qc.reads, qn.reads, "noise ops are not READs");
        assert!((qc.readahead_fraction - qn.readahead_fraction).abs() < 0.02);
    }
}
