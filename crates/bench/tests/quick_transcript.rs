//! The quick transcript: every registered experiment's quick-scale
//! stdout, hashed and pinned, and the command line's error paths.
//!
//! Each experiment runs as `nfs-bench <name>` with `NFS_BENCH_SCALE=quick`
//! and whatever `NFS_BENCH_JOBS` the test itself runs under (the output
//! must not depend on it). Its stdout, less the lines its registry entry
//! marks as wall-clock, folds into one FNV-1a hash. A change that moves a
//! printed digit fails here; once the move is meant, the failure's
//! replacement table is pasted over [`PINS`].

use std::path::Path;
use std::process::{Command, Output};

use nfs_bench::{Level, EXPERIMENTS};
use simcore::{fnv1a, FNV_BASIS};

/// Quick transcript hash per experiment.
const PINS: &[(&str, u64)] = &[
    ("fig1", 0x7bb0_9771_4ceb_415c),
    ("fig2", 0x467a_2ce4_d78b_7d6c),
    ("fig3", 0xbac6_951a_7585_5a97),
    ("fig4", 0x8c39_36ad_d750_a587),
    ("fig5", 0x7c8b_08db_ccaa_9e98),
    ("fig6", 0x6915_3fef_539e_fc8f),
    ("fig7", 0xfe05_5fab_6479_e07a),
    ("fig8", 0x93cf_150a_8db1_4ea9),
    ("ablation_aging", 0xcc96_e31c_bb35_b616),
    ("ablation_cursors", 0x1ba0_dcf0_51af_76dd),
    ("ablation_nfsheur", 0xd413_00c2_3e1d_1e67),
    ("ablation_schedulers", 0x341e_6f0b_a69f_2ca3),
    ("ablation_shared_pool", 0x9a45_168b_ce87_0cc2),
    ("ablation_slowdown_window", 0x84c4_7aa8_b959_c459),
    ("cluster_grid", 0xf715_1c11_b256_7d56),
    ("degraded_disk", 0x561f_e30c_0fc9_e495),
    ("device_grid", 0x4415_f047_41d1_400a),
    ("endpoint_replay", 0x9074_50a6_1b6b_25ea),
    ("metadata_grid", 0xe594_7bc2_c9e4_387a),
    ("mixed_workload", 0xa93a_b908_d0ab_3b4a),
    ("trace_analysis", 0x4b50_0c8c_335f_e90b),
    ("trace_replay", 0xa825_85ff_1fe0_f0f8),
    ("transport_loss", 0xbc8c_facc_9747_92b4),
    ("wireless_slowdown", 0x6618_0560_3d12_790e),
    ("write_sync_async", 0x6acb_9cd9_025a_73ad),
];

fn nfs_bench(args: &[&str], scale: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nfs-bench"));
    cmd.args(args);
    match scale {
        Some(s) => cmd.env("NFS_BENCH_SCALE", s),
        None => cmd.env_remove("NFS_BENCH_SCALE"),
    };
    cmd.output().expect("spawn nfs-bench")
}

fn hex(h: u64) -> String {
    let s = format!("{h:016x}");
    format!("0x{}_{}_{}_{}", &s[..4], &s[4..8], &s[8..12], &s[12..])
}

#[test]
fn every_experiment_prints_its_pinned_quick_transcript() {
    let (mut report, mut table, mut moved) = (String::new(), String::new(), false);
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
        let pin = PINS.iter().find(|(name, _)| *name == e.name).map(|p| p.1);
        let old = pin.map_or("unpinned".to_string(), hex);
        let mark = if pin == Some(hash) { "" } else { "  MOVED" };
        moved |= pin != Some(hash);
        report += &format!("  {:<26} {old} -> {}{mark}\n", e.name, hex(hash));
        table += &format!("    (\"{}\", {}),\n", e.name, hex(hash));
    }
    let stale: Vec<&str> = PINS
        .iter()
        .map(|p| p.0)
        .filter(|name| !EXPERIMENTS.iter().any(|e| e.name == *name))
        .collect();
    assert!(
        !moved && stale.is_empty(),
        "quick transcripts (old -> new):\n{report}pins of unregistered experiments: \
         {stale:?}\nreplacement PINS:\n{table}"
    );
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
