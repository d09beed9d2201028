//! Shared plumbing for the figure-regeneration binaries.
//!
//! Each `fig*` binary regenerates one figure or table from the paper's
//! evaluation, prints the measured series, and then prints the paper's
//! published numbers (exact for Table 1, qualitative landmarks for the
//! plot-only figures) so the shapes can be compared side by side.
//!
//! Scale control: set `NFS_BENCH_SCALE=quick` for an 8x-reduced smoke run;
//! the default reproduces the paper's workload sizes (256 MB per
//! iteration, >= 10 runs per point).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;

use testbed::experiments::Scale;
use testbed::Figure;

/// Base seed for all experiments; per-run seeds are derived from it.
pub const BASE_SEED: u64 = 20030609; // The conference's opening day.

/// Picks a bin's workload size: `quick` when `NFS_BENCH_SCALE=quick`,
/// `default` otherwise.
pub fn by_scale<T>(quick: T, default: T) -> T {
    if std::env::var("NFS_BENCH_SCALE").as_deref() == Ok("quick") {
        quick
    } else {
        default
    }
}

/// Prints a regenerated figure followed by the paper's reference block.
pub fn emit(fig: &Figure, paper_reference: &str) {
    println!("{}", fig.render());
    println!("--- paper reference ---");
    println!("{paper_reference}");
}

/// The scale selected by the environment.
pub fn scale() -> Scale {
    let s = Scale::from_env();
    eprintln!(
        "# scale: {} MB/iteration, {} runs/point (set NFS_BENCH_SCALE=quick for a fast pass)",
        s.total_mb, s.runs
    );
    s
}

/// Paper landmarks for Figure 1.
pub const FIG1_REF: &str = "\
Figure 1 (plot): ide1 is the fastest curve and ide4 clearly below it
(outer vs inner cylinders, ~2:3 ZCAV ratio). scsi1/scsi4 sit much lower
than the IDE curves for >1 reader because tagged queueing is on by
default, and the ZCAV gap between them is partly obscured. For both
drives the ZCAV effect exceeds any small filesystem tweak.";

/// Paper landmarks for Figure 2.
pub const FIG2_REF: &str = "\
Figure 2 (plot): with tagged queues the single-reader case spikes and
then falls to ~15 MB/s (scsi1); with tags disabled throughput 'barely
dips below 27 MB/s' and decreases only slowly with reader count. For
this workload the kernel elevator beats the on-disk scheduler.";

/// Paper landmarks for Figure 3.
pub const FIG3_REF: &str = "\
Figure 3 (plot, 8 readers x 32 MB, 34 runs): Elevator finishes readers
one after another - ide1 means 1.04s, 1.98s, 2.94s, ... 5.97s (almost a
factor 6 first-to-last; scsi1/no-tags 1.18s..8.54s). N-CSCAN is nearly
flat (spread < 20%) but all jobs are much slower: the slowest elevator
reader still beats the fastest N-CSCAN reader by ~50%. Tagged queues
are fairer than N-CSCAN but worse in total throughput.";

/// Paper landmarks for Figure 4.
pub const FIG4_REF: &str = "\
Figure 4 (plot): NFS/UDP starts around 20+ MB/s for one reader (about
half the local rate) and drops steadily as readers increase; the ZCAV
effect is still visible (ide1 above ide4). Disabling tagged queues
improves scsi1 relative to ide1 as concurrency grows.";

/// Paper landmarks for Figure 5.
pub const FIG5_REF: &str = "\
Figure 5 (plot): NFS/TCP is substantially slower than UDP for small
numbers of readers (roughly 12-15 MB/s) but relatively constant as
readers increase, roughly paralleling the local filesystem's shape.
(The paper's unexplained ide 2-reader spike and 1-reader TCP anomaly -
suspected TCP flow control - are not modelled.)";

/// Paper landmarks for Figure 6.
pub const FIG6_REF: &str = "\
Figure 6 (plot, ide1/UDP): Always-Read-ahead and Default coincide up to
4 readers and diverge beyond - the default heuristic loses read-ahead
under reordering and nfsheur ejection. On a busy client (4 infinite
loops) overall throughput is lower; the paper found the Always/Default
gap counterintuitively *smaller* when busy.";

/// Paper landmarks for Figure 7.
pub const FIG7_REF: &str = "\
Figure 7 (plot, ide1/UDP/busy): with the NEW nfsheur table, SlowDown
matches Always-Read-ahead - and so does the Default heuristic; having
an entry per active file matters more than the entry being accurate.
Default with the DEFAULT (tiny) table falls far below for >4 readers.";

/// Paper values for Figure 8 / Table 1 (mean MB/s, stddev in parens).
pub const TABLE1_REF: &str = "\
Table 1 (exact, 256 MB file, 10 runs, cache flushed per run):
  ide1   UDP/Default   7.66 (0.02)   7.83 (0.02)   5.26 (0.02)
  ide1   UDP/Cursor   11.49 (0.29)  14.15 (0.14)  12.66 (0.43)
  scsi1  UDP/Default   9.49 (0.03)   8.52 (0.04)   8.21 (0.03)
  scsi1  UDP/Cursor   15.39 (0.20)  15.38 (0.15)  14.12 (0.46)
Shape: cursors win everywhere - scsi1 60-70% faster; ide1 50% (s=2) up
to 140% (s=8) faster; ide1/default dips hardest at s=8.";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_mention_their_landmarks() {
        assert!(TABLE1_REF.contains("7.66"));
        assert!(FIG3_REF.contains("5.97"));
        assert!(FIG2_REF.contains("27 MB/s"));
    }

    #[test]
    fn quick_scale_is_smaller() {
        let q = testbed::experiments::Scale::quick();
        let p = testbed::experiments::Scale::paper();
        assert!(q.total_mb < p.total_mb);
        assert!(q.runs < p.runs);
    }
}
