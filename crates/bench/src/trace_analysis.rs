//! Extension: §6.2's trace methodology over synthesized request streams.
//!
//! "There are many ways that the underlying sequentiality of an access
//! pattern may be measured, such as the metrics developed in our earlier
//! studies of NFS traces... An analysis of the values of seqCount show
//! that SlowDown accomplishes this goal." The production traces are not
//! distributable, so the streams are synthesized (see the `nfstrace`
//! crate) and each heuristic is scored on the mean seqcount it sustains
//! and the fraction of reads it grants read-ahead.

use nfstrace::{analyze, synth, HeuristicQuality, Trace};
use readahead_core::{NfsHeurConfig, ReadaheadPolicy};
use simcore::SimRng;

/// The Default, SlowDown and Cursor heuristics' quality on `trace`, with
/// the improved table and read-ahead from seqcount 2.
fn score3(trace: &Trace) -> [HeuristicQuality; 3] {
    [
        ReadaheadPolicy::Default,
        ReadaheadPolicy::slowdown(),
        ReadaheadPolicy::cursor(),
    ]
    .map(|p| analyze::score(trace, &p, NfsHeurConfig::improved(), 2))
}

pub fn run(_: crate::Level) {
    println!("heuristic quality over synthesized traces (improved nfsheur, threshold 2)");
    println!();

    // One 2048-block sequential stream, perturbed at increasing rates.
    println!("sequential stream, adjacent-swap reordering:");
    println!(
        "{:>8} | {:>24} | {:>24} | {:>24}",
        "swap %", "default", "slowdown", "cursor"
    );
    println!(
        "{:>8} | {:>11} {:>12} | {:>11} {:>12} | {:>11} {:>12}",
        "", "mean seq", "RA enabled", "mean seq", "RA enabled", "mean seq", "RA enabled"
    );
    for pct in [0u32, 2, 6, 10, 20] {
        let mut rng = SimRng::new(u64::from(pct) + 100);
        let base = synth::sequential(
            synth::SequentialSpec {
                files: 1,
                blocks_per_file: 2_048,
                ..synth::SequentialSpec::default()
            },
            &mut rng,
        );
        let (trace, _) = synth::reorder(base, f64::from(pct) / 100.0, &mut rng);
        let [d, s, c] = score3(&trace);
        println!(
            "{:>7}% | {:>11.1} {:>11.1}% | {:>11.1} {:>11.1}% | {:>11.1} {:>11.1}%",
            pct,
            d.mean_seqcount,
            d.readahead_fraction * 100.0,
            s.mean_seqcount,
            s.readahead_fraction * 100.0,
            c.mean_seqcount,
            c.readahead_fraction * 100.0,
        );
    }

    println!();
    println!("stride streams (one reader, s sequential subcomponents):");
    println!(
        "{:>8} | {:>12} {:>12} {:>12}",
        "stride", "default RA%", "slowdown RA%", "cursor RA%"
    );
    for s in [2u64, 4, 8] {
        let mut rng = SimRng::new(s + 200);
        let trace = synth::stride(s, 2_048, 8_192, 300.0, &mut rng);
        let [d, sd, c] = score3(&trace).map(|q| q.readahead_fraction * 100.0);
        println!("{s:>8} | {d:>11.1}% {sd:>11.1}% {c:>11.1}%");
    }

    println!();
    println!("concurrent sequential readers vs the stock nfsheur (Default policy):");
    println!(
        "{:>8} | {:>14} {:>12} | {:>14} {:>12}",
        "files", "stock RA%", "ejections", "improved RA%", "ejections"
    );
    for files in [2u32, 4, 8, 16, 32] {
        let mut rng = SimRng::new(u64::from(files) + 300);
        let trace = synth::sequential(
            synth::SequentialSpec {
                files,
                blocks_per_file: 256,
                ..synth::SequentialSpec::default()
            },
            &mut rng,
        );
        let stock = analyze::score(
            &trace,
            &ReadaheadPolicy::Default,
            NfsHeurConfig::freebsd_default(),
            2,
        );
        let improved = analyze::score(
            &trace,
            &ReadaheadPolicy::Default,
            NfsHeurConfig::improved(),
            2,
        );
        println!(
            "{:>8} | {:>13.1}% {:>12} | {:>13.1}% {:>12}",
            files,
            stock.readahead_fraction * 100.0,
            stock.ejections,
            improved.readahead_fraction * 100.0,
            improved.ejections
        );
    }
}
