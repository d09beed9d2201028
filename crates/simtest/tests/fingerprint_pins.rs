//! Pinned fingerprints: the cluster refactor of `NfsWorld` (client/server
//! host split, per-client RNG streams, key-encoded events) must not move
//! a single bit of the classic single-client world. These constants were
//! captured from the pre-refactor engine; if one changes, the 1-client
//! fast path stopped being the old world.

use netsim::TransportKind;
use simcore::{fnv1a, FNV_BASIS};
use simtest::{Spec, Workload};
use testbed::experiments::{fig6_readahead_potential, Scale};

const FIG6_QUICK_SEED7: u64 = 0x7f63_4807_1959_5f6f;

// All eight re-pinned when `NfsReply::Write`'s wire size stopped eliding
// the verifier (8 -> 20 bytes, the codec-honesty fix): every workload
// writes, so every reply's s2c transmit time shifted. The jobs=1 / jobs=4
// and shards=1 / shards=N identities held across the change.
const SWEEP_FPS: [u64; 8] = [
    0x9389_3efa_26a3_993a,
    0xb8c7_9852_25b0_0f55,
    0x06d7_2d90_8252_7b20,
    0xd36b_ac6b_638c_d604,
    0x27e1_120d_afdb_c27a,
    0x0064_87db_f131_6a92,
    0x02c2_be0f_7bce_7f46,
    0xe48b_576c_c121_3207,
];

// The modes whose timers the event queue's lanes carry: `WriteLoss` arms
// gather windows and retransmits past attempt 0, and forced TCP runs its
// segment timers beside the queue. Captured from the all-heap queue; the
// lanes must deliver every event at the same instant in the same order.
const WRITE_LOSS_FPS: [u64; 4] = [
    0xe861_aff4_8e2f_b762,
    0x0a78_1099_35f9_5b8d,
    0xa315_7431_d31d_490d,
    0x2567_1b52_62b3_deb3,
];
const FORCED_TCP_FPS: [u64; 4] = [
    0xe257_87ee_9fbc_3140,
    0x171a_9c6c_3ccd_ae6d,
    0x53cf_dd64_f0e8_90af,
    0xa972_dc25_fb67_4d11,
];

fn fingerprints(spec: impl Fn(u64) -> Spec) -> Vec<u64> {
    (0..4u64)
        .map(|s| {
            spec(s)
                .run_checked()
                .unwrap_or_else(|e| panic!("{e}"))
                .fingerprint
        })
        .collect()
}

#[test]
fn write_loss_fingerprints_are_pinned() {
    let fps = fingerprints(|s| Spec {
        workload: Workload::WriteLoss,
        ..Spec::new(s)
    });
    assert_eq!(fps, WRITE_LOSS_FPS, "write-loss fingerprints moved");
}

#[test]
fn forced_tcp_fingerprints_are_pinned() {
    let fps = fingerprints(|s| Spec {
        transport: Some(TransportKind::Tcp),
        ..Spec::new(s)
    });
    assert_eq!(fps, FORCED_TCP_FPS, "forced-TCP fingerprints moved");
}

#[test]
fn figure6_bits_are_pinned_at_both_job_widths() {
    for jobs in [1usize, 4] {
        simfleet::set_jobs_override(Some(jobs));
        let fig = format!("{:?}", fig6_readahead_potential(Scale::quick(), 7));
        simfleet::set_jobs_override(None);
        assert_eq!(
            // FNV-1a of the figure's Debug rendering (f64 Debug round-trips
            // exactly, so equal hashes mean equal bits in every mean and
            // stddev).
            fnv1a(FNV_BASIS, fig.as_bytes()),
            FIG6_QUICK_SEED7,
            "figure 6 (quick, seed 7) bits moved at jobs={jobs}"
        );
    }
}

#[test]
fn simtest_fingerprints_are_pinned_at_both_job_widths() {
    for jobs in [1usize, 4] {
        simfleet::set_jobs_override(Some(jobs));
        let fps: Vec<u64> = (0..8u64)
            .map(|s| {
                Spec::new(s)
                    .run_checked()
                    .unwrap_or_else(|e| panic!("{e}"))
                    .fingerprint
            })
            .collect();
        simfleet::set_jobs_override(None);
        assert_eq!(fps, SWEEP_FPS, "sweep fingerprints moved at jobs={jobs}");
    }
}
