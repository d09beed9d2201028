//! Pinned fingerprints: the cluster refactor of `NfsWorld` (client/server
//! host split, per-client RNG streams, key-encoded events) must not move
//! a single bit of the classic single-client world. The `simtest_*`
//! values in `pins.txt` were captured from the pre-refactor engine; if one
//! changes, the 1-client fast path stopped being the old world.

use netsim::TransportKind;
use simcore::{fnv1a, FNV_BASIS};
use simtest::{Spec, Workload};
use testbed::experiments::{fig6_readahead_potential, Scale};

/// Runs `spec(seed)` for each of `seeds` and returns `seed<s>` cases.
fn fingerprints(
    seeds: impl IntoIterator<Item = u64>,
    spec: impl Fn(u64) -> Spec,
) -> Vec<(String, String)> {
    seeds
        .into_iter()
        .map(|s| {
            let fp = spec(s)
                .run_checked()
                .unwrap_or_else(|e| panic!("{e}"))
                .fingerprint;
            (format!("seed{s}"), pins::hex(fp))
        })
        .collect()
}

/// Runs `run` at jobs=1 and jobs=4, asserts the two agree and returns the
/// result.
fn at_both_job_widths<T: PartialEq + std::fmt::Debug>(run: impl Fn() -> T) -> T {
    let [serial, parallel] = [1usize, 4].map(|jobs| {
        simfleet::set_jobs_override(Some(jobs));
        let out = run();
        simfleet::set_jobs_override(None);
        out
    });
    assert_eq!(serial, parallel, "jobs=1 and jobs=4 differ");
    serial
}

// The modes whose timers the event queue's lanes carry: `WriteLoss` arms
// gather windows and retransmits past attempt 0, and forced TCP runs its
// segment timers beside the queue. Captured from the all-heap queue; the
// lanes must deliver every event at the same instant in the same order.
#[test]
fn write_loss_fingerprints_are_pinned() {
    let fps = fingerprints(0..4, |s| Spec {
        workload: Workload::WriteLoss,
        ..Spec::new(s)
    });
    pins::check("simtest_write_loss", fps);
}

// The disk-fault kinds drive the bio layer's retry ladder and hold file
// system I/Os in flight (stuck tags, firmware stalls). Seeds 0..4 are the
// sweep's first four. Seed 178 is the only seed below 400 whose
// fingerprint moves when `ffs::MAX_IO_RETRIES` goes from 3 to 4: the one
// that sees the ladder's length.
#[test]
fn disk_fault_fingerprints_are_pinned() {
    let fps = fingerprints((0..4).chain([178]), |s| Spec {
        disk_faults: true,
        ..Spec::new(s)
    });
    pins::check("simtest_disk_faults", fps);
}

#[test]
fn forced_tcp_fingerprints_are_pinned() {
    let fps = fingerprints(0..4, |s| Spec {
        transport: Some(TransportKind::Tcp),
        ..Spec::new(s)
    });
    pins::check("simtest_forced_tcp", fps);
}

#[test]
fn figure6_bits_are_pinned_at_both_job_widths() {
    let fig = at_both_job_widths(|| format!("{:?}", fig6_readahead_potential(Scale::quick(), 7)));
    // FNV-1a of the figure's Debug rendering (f64 Debug round-trips
    // exactly, so equal hashes mean equal bits in every mean and stddev).
    let hash = fnv1a(FNV_BASIS, fig.as_bytes());
    pins::check("simtest_fig6_quick", [("seed7", pins::hex(hash))]);
}

// All eight re-pinned when `NfsReply::Write`'s wire size stopped eliding
// the verifier (8 -> 20 bytes, the codec-honesty fix): every workload
// writes, so every reply's s2c transmit time shifted. The jobs=1 / jobs=4
// and shards=1 / shards=N identities held across the change.
#[test]
fn simtest_fingerprints_are_pinned_at_both_job_widths() {
    let fps = at_both_job_widths(|| fingerprints(0..8, Spec::new));
    pins::check("simtest_sweep", fps);
}
