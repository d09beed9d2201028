//! Regression test for the `simfleet` determinism contract: a figure cell
//! and a simtest seed sweep must produce bit-identical results whether the
//! run engine executes serially (`jobs=1`) or fans out across worker
//! threads (`jobs=4`). Results are keyed by job index and folded in the
//! original serial order, so even float accumulation must not drift.

use std::sync::Mutex;

use netsim::TransportKind;
use simtest::Spec;
use testbed::experiments::{fig1_zcav, Scale};

/// The jobs override is process-global; serialize tests that flip it.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

fn with_jobs<T>(jobs: usize, f: impl FnOnce() -> T) -> T {
    let _guard = JOBS_LOCK.lock().unwrap();
    simfleet::set_jobs_override(Some(jobs));
    let out = f();
    simfleet::set_jobs_override(None);
    out
}

#[test]
fn simtest_sweep_is_bit_identical_across_job_counts() {
    let seeds: Vec<u64> = (0..12).collect();
    let sweep = |jobs| {
        with_jobs(jobs, || {
            simfleet::map_indexed(&seeds, |&seed| {
                let r = Spec::new(seed)
                    .run_checked()
                    .unwrap_or_else(|e| panic!("{e}"));
                (
                    r.fingerprint,
                    r.client.ops,
                    r.ok_ops,
                    r.timed_out_ops,
                    r.sim_nanos,
                )
            })
        })
    };
    let serial = sweep(1);
    let parallel = sweep(4);
    assert_eq!(serial, parallel, "sweep diverged between jobs=1 and jobs=4");
}

/// The same contract under forced TCP: the timed segment engine's timer
/// events (retransmission schedules, blackout abort ladders) must be as
/// deterministic as the rest of the world, at any job count. The TCP
/// fingerprint folds the segment books in, so divergence anywhere in the
/// retransmission schedule would show here.
#[test]
fn forced_tcp_sweep_is_bit_identical_across_job_counts() {
    let seeds: Vec<u64> = (0..6).collect();
    let sweep = |jobs| {
        with_jobs(jobs, || {
            simfleet::map_indexed(&seeds, |&seed| {
                let r = Spec {
                    transport: Some(TransportKind::Tcp),
                    ..Spec::new(seed)
                }
                .run_checked()
                .unwrap_or_else(|e| panic!("{e}"));
                (
                    r.fingerprint,
                    r.client.ops,
                    r.ok_ops,
                    r.timed_out_ops,
                    r.sim_nanos,
                )
            })
        })
    };
    let serial = sweep(1);
    let parallel = sweep(4);
    assert_eq!(
        serial, parallel,
        "TCP sweep diverged between jobs=1 and jobs=4"
    );
}

#[test]
fn figure_cell_is_bit_identical_across_job_counts() {
    // Debug-format f64s round-trip exactly, so equal strings mean equal
    // bits in every mean and standard deviation of the figure.
    let render = |jobs| with_jobs(jobs, || format!("{:?}", fig1_zcav(Scale::quick(), 7)));
    let serial = render(1);
    let parallel = render(4);
    assert_eq!(
        serial, parallel,
        "figure diverged between jobs=1 and jobs=4"
    );
}
