//! The latency-histogram oracle (`--hist-oracle`) holds across a small
//! fault sweep: the streaming `LogHist` the tail-latency instrumentation
//! is built on reconciles with exact order statistics on every seed, the
//! reported tail quantiles are sane, and turning the oracle on does not
//! move the world's fingerprint (observation is passive).

use netsim::TransportKind;
use simtest::Spec;

const CI_SEEDS: u64 = 8;

#[test]
fn hist_oracle_holds_under_disk_faults() {
    for seed in 0..CI_SEEDS {
        let r = Spec {
            disk_faults: true,
            hist_oracle: true,
            ..Spec::new(seed)
        }
        .run_checked()
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(
            r.lat_p99_ns > 0,
            "seed {seed}: a faulted run must have nonzero p99"
        );
        assert!(
            r.lat_p99_ns <= r.lat_p999_ns,
            "seed {seed}: quantiles must be monotone in the report"
        );
        assert!(
            r.lat_p999_ns <= r.sim_nanos,
            "seed {seed}: no op outlasts the run"
        );
    }
}

#[test]
fn hist_collection_is_passive() {
    for seed in [0u64, 5] {
        let off = Spec::new(seed)
            .run_checked()
            .unwrap_or_else(|e| panic!("{e}"));
        let on = Spec {
            hist_oracle: true,
            ..Spec::new(seed)
        }
        .run_checked()
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            off.fingerprint, on.fingerprint,
            "seed {seed}: observing latencies must not perturb the world"
        );
    }
}

/// A failure under `--hist-oracle` prints a reproduction command that
/// carries `--hist-oracle`, so the printed line runs the same oracle set.
#[test]
fn hist_oracle_failures_print_the_mode_flag() {
    let seed = (0..100)
        .find(|&s| Spec::new(s).plan().transport == TransportKind::Udp)
        .expect("a UDP seed among the first 100");
    let err = Spec {
        hist_oracle: true,
        sabotage_replies: 1,
        ..Spec::new(seed)
    }
    .run()
    .expect_err("a swallowed reply must trip an oracle");
    let msg = err.to_string();
    assert!(msg.contains("--hist-oracle"), "missing mode flag: {msg}");
}
