//! The quick transcript: every registered experiment's quick-scale
//! stdout, hashed and pinned, and the command line's error paths.
//!
//! Each experiment runs as `nfs-bench <name>` with `NFS_BENCH_SCALE=quick`
//! and whatever `NFS_BENCH_JOBS` the test itself runs under (the output
//! must not depend on it). Its stdout, less the lines its registry entry
//! marks as wall-clock, folds into one FNV-1a hash, pinned in `pins.txt`
//! as `quick_transcript.<name>`. A change that moves a printed digit fails
//! here; once the move is meant, `cargo run -p pins` re-pins it.

use std::path::Path;
use std::process::{Command, Output};

use nfs_bench::{Level, EXPERIMENTS};
use simcore::{fnv1a, FNV_BASIS};

fn nfs_bench(args: &[&str], scale: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nfs-bench"));
    cmd.args(args);
    match scale {
        Some(s) => cmd.env("NFS_BENCH_SCALE", s),
        None => cmd.env_remove("NFS_BENCH_SCALE"),
    };
    cmd.output().expect("spawn nfs-bench")
}

#[test]
fn every_experiment_prints_its_pinned_quick_transcript() {
    let mut pinned = Vec::new();
    for e in EXPERIMENTS {
        let out = nfs_bench(&[e.name], Some("quick"));
        assert!(
            out.status.success(),
            "{} failed:\n{}",
            e.name,
            String::from_utf8_lossy(&out.stderr)
        );
        let hash = out
            .stdout
            .split_inclusive(|&b| b == b'\n')
            .filter(|line| !e.wall_clock.iter().any(|p| line.starts_with(p.as_bytes())))
            .fold(FNV_BASIS, fnv1a);
        pinned.push((e.name, pins::hex(hash)));
    }
    pins::check("quick_transcript", pinned);
}

#[test]
fn a_mistyped_scale_exits_2_with_the_accepted_list() {
    let out = nfs_bench(&["fig1"], Some("qiuck"));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(out.stdout.is_empty(), "a rejected scale must run nothing");
    assert!(
        err.contains("\"qiuck\"") && err.contains(Level::ACCEPTED),
        "{err}"
    );
}

#[test]
fn an_unknown_experiment_exits_2_listing_the_registry() {
    // `paper` and an unset scale are accepted: the run gets as far as the
    // name, and the name check comes before any experiment runs.
    for scale in [Some("paper"), None] {
        let out = nfs_bench(&["fig1", "fig9"], scale);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{err}");
        assert!(out.stdout.is_empty(), "fig1 ran before fig9 was rejected");
        assert!(err.contains("unknown experiment \"fig9\""), "{err}");
        for e in EXPERIMENTS {
            assert!(err.contains(e.name), "usage omits {}: {err}", e.name);
        }
    }
}

/// Every `nfs-bench -- <name>...` command in the docs and CI names a
/// registered experiment (or `all`), and none asks for a `--bin`.
#[test]
fn docs_run_only_registered_experiments() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let docs = [
        ("README.md", true),
        ("DESIGN.md", true),
        ("EXPERIMENTS.md", true),
        (".claude/skills/verify/SKILL.md", true),
        (".github/workflows/ci.yml", false),
    ];
    let mut bad = Vec::new();
    for (doc, must_name_one) in docs {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let mut named = 0;
        for (i, pair) in tokens.windows(2).enumerate() {
            match pair {
                ["nfs-bench", "--bin"] => {
                    bad.push(format!("{doc}: nfs-bench --bin {}", tokens[i + 2]))
                }
                ["nfs-bench", "--"] => {
                    for tok in &tokens[i + 2..] {
                        let name = tok.trim_end_matches(['`', ')', ',', '.', ';', ':']);
                        let is_name = !name.is_empty()
                            && name
                                .bytes()
                                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_');
                        if !is_name {
                            break;
                        }
                        named += 1;
                        if name != "all" && !EXPERIMENTS.iter().any(|e| e.name == name) {
                            bad.push(format!("{doc}: nfs-bench -- {name}"));
                        }
                        if name.len() != tok.len() {
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
        if must_name_one && named == 0 {
            bad.push(format!("{doc}: no `nfs-bench -- <name>` command found"));
        }
    }
    assert!(
        bad.is_empty(),
        "unregistered experiments in the docs:\n{}",
        bad.join("\n")
    );
}
