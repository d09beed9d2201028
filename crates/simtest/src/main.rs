//! Seed-sweep driver for the simulation-test harness.
//!
//! ```text
//! cargo run -p simtest --release -- --seeds 200      # sweep seeds 0..200
//! cargo run -p simtest --release -- --seed 17        # one seed, verbose
//! SIMTEST_SEED=17 cargo run -p simtest --release     # same, via env
//! cargo run -p simtest -- --seeds 50 --start 1000    # shifted sweep
//! cargo run -p simtest -- --seeds 50 --clients 2     # 2-host cluster
//! cargo run -p simtest -- --seeds 50 --overlap       # fault pairs
//! cargo run -p simtest -- --seeds 50 --disk-faults   # + disk faults
//! cargo run -p simtest -- --seeds 50 --transport tcp # force TCP (+blackout)
//! cargo run -p simtest -- --seeds 50 --write-loss    # async writes + crashes
//! cargo run -p simtest -- --seeds 50 --meta-storm    # metadata mix + attr cache
//! cargo run -p simtest -- --seeds 50 --hist-oracle   # + latency-hist oracle
//! ```
//!
//! Every seed is run twice (the determinism oracle compares fingerprints).
//! The first oracle failure prints a one-line reproduction command and
//! exits 1. A command line `simtest::Spec::from_args` rejects prints the
//! usage and exits 2.
//!
//! Seeds fan out across `NFS_BENCH_JOBS` worker threads through the
//! `simfleet` run engine; reports are collected by seed index and printed
//! in seed order, so stdout is byte-identical at any job count.

use std::process::ExitCode;

use simtest::{FaultKind, Spec, Workload};

const USAGE: &str = "usage: simtest [--seed N | --seeds N [--start N]] [--clients N] [--overlap]
               [--disk-faults] [--transport tcp|udp] [--write-loss | --meta-storm]
               [--hist-oracle]
  SIMTEST_SEED=N stands in for a missing --seed";

fn main() -> ExitCode {
    // SIMTEST_SEED becomes a flag, so it is checked like one; an explicit
    // --seed wins.
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(v) = std::env::var("SIMTEST_SEED")
        .ok()
        .filter(|_| !args.iter().any(|a| a == "--seed"))
    {
        args.extend(["--seed".to_string(), v]);
    }
    let (spec, seeds) = match Spec::from_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("simtest: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let results = simfleet::map_indexed(&seeds, |&seed| Spec { seed, ..spec }.run_checked());

    let mut failures = 0u64;
    let mut total_ops = 0u64;
    let mut total_timeouts = 0u64;
    let mut total_lost = 0u64;
    let mut total_rewritten = 0u64;
    let mut kinds_seen: Vec<FaultKind> = Vec::new();
    for res in results {
        match res {
            Ok(r) => {
                let (c, s) = (&r.client, &r.server);
                total_ops += c.ops;
                total_timeouts += r.timed_out_ops;
                total_lost += s.dirty_blocks_lost;
                total_rewritten += c.blocks_rewritten;
                for k in &r.faults {
                    if !kinds_seen.contains(k) {
                        kinds_seen.push(*k);
                    }
                }
                let faults: Vec<&str> = r.faults.iter().map(|k| k.label()).collect();
                let mode = match spec.workload {
                    Workload::Classic => String::new(),
                    Workload::WriteLoss => format!(
                        " lost={:<3} mism={:<2} rewr={:<3}",
                        s.dirty_blocks_lost, c.verifier_mismatches, c.blocks_rewritten
                    ),
                    Workload::MetaStorm => format!(
                        " gattr={:<4} hits={:<4} stale={:<3}",
                        c.getattr_rpcs, c.attr_cache_hits, c.attr_stale_detected
                    ),
                };
                let tail = if spec.hist_oracle {
                    format!(
                        " p99={:>7.2}ms p999={:>7.2}ms",
                        r.lat_p99_ns as f64 / 1e6,
                        r.lat_p999_ns as f64 / 1e6
                    )
                } else {
                    String::new()
                };
                println!(
                    "seed {:>6} [{:?}] ops={:<4} ok={:<4} timeout={:<3} eio={:<3} retx={:<4} rpc_to={:<3}{}{} sim={:>8.1}s fp={:#018x} faults={}",
                    r.seed,
                    r.transport,
                    c.ops,
                    r.ok_ops,
                    r.timed_out_ops,
                    r.eio_ops,
                    c.retransmits,
                    c.rpc_timeouts,
                    mode,
                    tail,
                    r.sim_nanos as f64 / 1e9,
                    r.fingerprint,
                    faults.join(",")
                );
            }
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }
    let modes: Vec<String> = spec
        .flags()
        .into_iter()
        .map(|(flag, value)| match value {
            Some(v) => format!("{flag}={v}"),
            None => flag.to_string(),
        })
        .collect();
    let labels: Vec<&str> = kinds_seen.iter().map(|k| k.label()).collect();
    println!(
        "swept {} seed(s) [{}]: {} failed, {} ops, {} timed out{}, fault kinds exercised: {}",
        seeds.len(),
        modes.join(", "),
        failures,
        total_ops,
        total_timeouts,
        if spec.workload == Workload::WriteLoss {
            format!(", {total_lost} blocks crash-lost, {total_rewritten} rewritten")
        } else {
            String::new()
        },
        labels.join(",")
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
