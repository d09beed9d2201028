//! The simtest command line: `Spec::from_args` accepts exactly the flags
//! `Spec::flags` renders and rejects everything else, so a typo or a bad
//! value can never run a different sweep than the one asked for. The
//! binary prints the usage and exits 2 on every rejected line.

use netsim::TransportKind;
use simtest::{OracleFailure, Spec, Workload};

fn parse(line: &str) -> Result<(Spec, Vec<u64>), String> {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    Spec::from_args(&args)
}

/// The flag sets of the ten CI sweeps.
const CI_SWEEPS: [&str; 10] = [
    "--seeds 100",
    "--seeds 50 --clients 2 --overlap",
    "--seeds 50 --disk-faults",
    "--seeds 30 --clients 2 --overlap --disk-faults",
    "--seeds 30 --transport tcp",
    "--seeds 50 --write-loss",
    "--seeds 30 --clients 2 --overlap --write-loss",
    "--seeds 30 --disk-faults --hist-oracle",
    "--seeds 50 --meta-storm",
    "--seeds 30 --clients 2 --meta-storm --disk-faults",
];

#[test]
fn defaults_sweep_sixteen_classic_seeds() {
    let (spec, seeds) = parse("").unwrap();
    assert_eq!(spec, Spec::new(0));
    assert_eq!(seeds, (0..16).collect::<Vec<_>>());
    let (spec, seeds) = parse("--seeds 3 --start 10").unwrap();
    assert_eq!(spec, Spec::new(10));
    assert_eq!(seeds, [10, 11, 12]);
}

#[test]
fn every_mode_flag_parses_into_the_spec() {
    let (spec, seeds) = parse(
        "--seed 9 --clients 3 --overlap --disk-faults --transport udp --meta-storm --hist-oracle",
    )
    .unwrap();
    assert_eq!(seeds, [9]);
    assert_eq!(
        spec,
        Spec {
            clients: 3,
            overlap: true,
            disk_faults: true,
            transport: Some(TransportKind::Udp),
            workload: Workload::MetaStorm,
            hist_oracle: true,
            ..Spec::new(9)
        }
    );
}

/// For every CI sweep, the reproduction command an oracle failure prints
/// parses back into exactly the spec that failed.
#[test]
fn repro_lines_round_trip_for_every_ci_sweep() {
    for flags in CI_SWEEPS {
        let (sweep, _) = parse(flags).unwrap_or_else(|e| panic!("{flags}: {e}"));
        for seed in [0, 17, u64::MAX] {
            let spec = Spec { seed, ..sweep };
            let failure = OracleFailure {
                spec,
                oracle: "example",
                detail: String::new(),
            }
            .to_string();
            let (_, repro) = failure
                .split_once("cargo run -p simtest -- ")
                .unwrap_or_else(|| panic!("no repro command: {failure}"));
            assert_eq!(
                parse(repro),
                Ok((spec, vec![seed])),
                "{flags}: repro `{repro}` does not reproduce"
            );
        }
    }
}

#[test]
fn rejects_unknown_flags() {
    for line in ["--disk-fault", "--bogus", "17", "--seeds 5 --overlaps"] {
        let err = parse(line).expect_err(line);
        assert!(err.contains("unknown flag"), "{line}: {err}");
    }
}

/// `SIMTEST_SEED` reaches the parser as `--seed`, so it is covered here.
#[test]
fn rejects_missing_or_unparsable_numbers() {
    for flag in ["--seed", "--seeds", "--start", "--clients"] {
        let err = parse(flag).expect_err(flag);
        assert!(err.contains("needs a value"), "{flag}: {err}");
        for bad in ["abc", "-1", "1.5", "0x10"] {
            let line = format!("{flag} {bad}");
            let err = parse(&line).expect_err(&line);
            assert!(err.contains("not a number"), "{line}: {err}");
        }
    }
    assert!(parse("--clients 0").is_err(), "a cluster needs a client");
    assert!(parse(&format!("--start {} --seeds 2", u64::MAX)).is_err());
}

#[test]
fn rejects_unknown_transports() {
    assert!(parse("--transport").is_err());
    for bad in ["bogus", "TCP", "rdma"] {
        let line = format!("--transport {bad}");
        let err = parse(&line).expect_err(&line);
        assert!(err.contains("tcp or udp"), "{line}: {err}");
    }
}

#[test]
fn rejects_two_workloads() {
    for line in [
        "--write-loss --meta-storm",
        "--meta-storm --seeds 4 --write-loss",
    ] {
        let err = parse(line).expect_err(line);
        assert!(err.contains("exclusive"), "{line}: {err}");
    }
    let (spec, _) = parse("--write-loss --write-loss").unwrap();
    assert_eq!(spec.workload, Workload::WriteLoss);
}

/// The binary turns every rejected line, and an unparsable `SIMTEST_SEED`,
/// into the usage on stderr and exit status 2, before running any seed.
#[test]
fn binary_exits_2_without_running_a_seed() {
    let run = |line: &str, seed_env: Option<&str>| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_simtest"));
        cmd.args(line.split_whitespace()).env_remove("SIMTEST_SEED");
        if let Some(v) = seed_env {
            cmd.env("SIMTEST_SEED", v);
        }
        cmd.output().expect("the simtest binary starts")
    };
    for (line, seed_env) in [
        ("--disk-fault", None),
        ("--seed abc", None),
        ("--seeds", None),
        ("--start x", None),
        ("--clients 0", None),
        ("--transport bogus", None),
        ("--write-loss --meta-storm", None),
        ("", Some("abc")),
    ] {
        let out = run(line, seed_env);
        let what = format!("`{line}` with SIMTEST_SEED={seed_env:?}");
        assert_eq!(out.status.code(), Some(2), "{what}");
        assert!(out.stdout.is_empty(), "{what}: ran a sweep");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: simtest"), "{what}: {err}");
    }
}
