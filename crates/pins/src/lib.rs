//! Pinned bits: one file, one check, one bless command.
//!
//! Every value a test pins lives in `pins.txt` at the workspace root, one
//! `suite.case = value` line per value. Lines are sorted by key, keys are
//! unique, and the file holds nothing else. A value is `0x` and 16
//! lower-case hex digits, a decimal integer, or a struct's `Debug`
//! rendering kept verbatim. A vector is one key per element
//! (`….completion.0`, `….completion.1`).
//!
//! A suite is one `#[test]` function, so no two concurrent tests write the
//! same fragment. It computes everything it pins and hands the list to
//! [`check`], which writes it to `<target dir>/pins/<suite>.txt` and then
//! compares it with the file's `suite.*` lines. A moved value fails the
//! test, and so does an unpinned key (produced, not in the file) or a
//! stale one (in the file, no longer produced).
//!
//! To re-pin once a move is meant: run `cargo test --workspace
//! --no-fail-fast`, run `cargo run -p pins` (it merges the fragments into
//! `pins.txt` and prints `key: old → new` for every key it changed, added
//! or removed), run the tests again, and paste the table into CHANGES.
//! Bounds are not pins and stay in their tests.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Pinned values by full key (`suite.case`).
type Pins = BTreeMap<String, String>;

/// The pin file, at the workspace root.
pub fn pin_file() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../pins.txt")
}

/// `<target dir>/pins`, where each suite writes its fragment. Test
/// binaries live in `<target dir>/<profile>/deps` and the bless command
/// in `<target dir>/<profile>`, so debug and release runs share it.
pub fn fragment_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut dir = exe.parent().expect("a binary lives in a directory");
    if dir.ends_with("deps") {
        dir = dir.parent().expect("deps lives in a profile directory");
    }
    dir.parent()
        .expect("a profile directory lives in the target directory")
        .join("pins")
}

/// Renders a pinned 64-bit word: `0x` and 16 lower-case hex digits.
pub fn hex(x: u64) -> String {
    format!("{x:#018x}")
}

/// The rotate-multiply fold the drive and eviction pins hash their
/// completions with, starting from `simcore::FNV_BASIS`.
pub fn fold(h: u64, x: u64) -> u64 {
    (h.rotate_left(23) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Pins `actual`, the `(case, value)` list of one suite: writes it to the
/// suite's fragment, then panics with one `key: old → new` line per
/// difference unless `pins.txt` holds exactly these `suite.*` values.
#[track_caller]
pub fn check<K: Into<String>>(suite: &str, actual: impl IntoIterator<Item = (K, String)>) {
    let actual: Vec<(String, String)> = actual.into_iter().map(|(k, v)| (k.into(), v)).collect();
    if let Err(e) = check_in(&pin_file(), &fragment_dir(), suite, &actual) {
        panic!("{e}");
    }
}

fn check_in(
    pin_file: &Path,
    fragments: &Path,
    suite: &str,
    actual: &[(String, String)],
) -> Result<(), String> {
    let new = fragment(suite, actual)?;
    fs::create_dir_all(fragments).map_err(|e| format!("{}: {e}", fragments.display()))?;
    let path = fragments.join(format!("{suite}.txt"));
    fs::write(&path, render(&new)).map_err(|e| format!("{}: {e}", path.display()))?;

    let text = fs::read_to_string(pin_file).map_err(|e| format!("{}: {e}", pin_file.display()))?;
    let mut old = parse(&text).map_err(|e| format!("{}: {e}", pin_file.display()))?;
    old.retain(|key, _| suite_of(key) == suite);
    let moves = diff(&old, &new);
    if moves.is_empty() {
        return Ok(());
    }
    let only = |a: &Pins, b: &Pins| -> String {
        let keys: Vec<String> = a.keys().filter(|k| !b.contains_key(*k)).cloned().collect();
        keys.join(", ")
    };
    let mut msg = format!("pins of `{suite}` differ from pins.txt (old → new):\n");
    for m in &moves {
        msg += &format!("  {m}\n");
    }
    for (label, keys) in [
        ("unpinned (not in pins.txt)", only(&new, &old)),
        ("stale (no longer produced)", only(&old, &new)),
    ] {
        if !keys.is_empty() {
            msg += &format!("{label}: {keys}\n");
        }
    }
    msg += "If the move is meant: run `cargo test --workspace --no-fail-fast`, then \
            `cargo run -p pins`, then the tests again, and paste the table bless prints \
            into CHANGES.";
    Err(msg)
}

/// Checks one suite's list and turns it into full keys.
fn fragment(suite: &str, actual: &[(String, String)]) -> Result<Pins, String> {
    if !is_word(suite) {
        return Err(format!("suite `{suite}`: not a name of [a-z0-9_]"));
    }
    let mut pins = Pins::new();
    for (case, value) in actual {
        let key = format!("{suite}.{case}");
        check_line(&key, value)?;
        if pins.insert(key.clone(), value.clone()).is_some() {
            return Err(format!("{key}: produced twice"));
        }
    }
    Ok(pins)
}

/// Parses pin-file text (or a fragment). Keys must be sorted and unique
/// and every value must have a pinned form.
fn parse(text: &str) -> Result<Pins, String> {
    let mut pins = Pins::new();
    for (n, line) in text.lines().enumerate() {
        let at = |e: String| format!("line {}: {e}", n + 1);
        let (key, value) = line
            .split_once(" = ")
            .ok_or_else(|| at(format!("`{line}` is not `suite.case = value`")))?;
        check_line(key, value).map_err(at)?;
        if pins
            .last_key_value()
            .is_some_and(|(last, _)| last.as_str() >= key)
        {
            return Err(at(format!("{key}: out of order or repeated")));
        }
        pins.insert(key.to_string(), value.to_string());
    }
    Ok(pins)
}

fn check_line(key: &str, value: &str) -> Result<(), String> {
    if key.split('.').count() < 2 || !key.split('.').all(is_word) {
        return Err(format!("key `{key}`: not `suite.case` of [a-z0-9_.]"));
    }
    let hex = value.strip_prefix("0x").is_some_and(|d| {
        d.len() == 16 && d.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
    });
    let decimal = !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit());
    let debug = value.starts_with(|c: char| c.is_ascii_uppercase())
        && value.ends_with('}')
        && !value.contains('\n');
    if hex || decimal || debug {
        Ok(())
    } else {
        Err(format!(
            "{key} = {value}: not 0x and 16 hex digits, a decimal integer or a Debug struct"
        ))
    }
}

fn is_word(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

fn suite_of(key: &str) -> &str {
    key.split_once('.').map_or(key, |(suite, _)| suite)
}

fn render(pins: &Pins) -> String {
    pins.iter().map(|(k, v)| format!("{k} = {v}\n")).collect()
}

/// One `key: old → new` line per key whose value differs; `(none)` marks
/// a side that lacks the key.
fn diff(old: &Pins, new: &Pins) -> Vec<String> {
    let keys: std::collections::BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    keys.into_iter()
        .filter(|k| old.get(*k) != new.get(*k))
        .map(|k| {
            let side = |p: &Pins| p.get(k).map_or("(none)".to_string(), Clone::clone);
            format!("{k}: {} → {}", side(old), side(new))
        })
        .collect()
}

/// The bless step: replaces every suite that has a fragment, given as
/// `(suite, fragment text)`, with the fragment's lines. Returns the new
/// file text and the `key: old → new` table of what moved.
pub fn merge(
    pinned: &str,
    fragments: &[(String, String)],
) -> Result<(String, Vec<String>), String> {
    let old = parse(pinned).map_err(|e| format!("pins.txt: {e}"))?;
    let mut new = old.clone();
    for (suite, text) in fragments {
        let lines = parse(text).map_err(|e| format!("fragment {suite}: {e}"))?;
        if let Some(key) = lines.keys().find(|k| suite_of(k) != suite) {
            return Err(format!("fragment {suite}: holds {key}"));
        }
        new.retain(|key, _| suite_of(key) != suite);
        new.extend(lines);
    }
    let moves = diff(&old, &new);
    Ok((render(&new), moves))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(k: &str, v: &str) -> (String, String) {
        (k.to_string(), v.to_string())
    }

    /// Runs [`check_in`] against a scratch pin file holding `file`.
    fn check_against(name: &str, file: &str, actual: &[(String, String)]) -> Result<(), String> {
        let dir = std::env::temp_dir().join(format!("pins-{}-{name}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        fs::write(dir.join("pins.txt"), file).expect("scratch pin file");
        let result = check_in(
            &dir.join("pins.txt"),
            &dir.join("fragments"),
            "demo",
            actual,
        );
        let written = fs::read_to_string(dir.join("fragments/demo.txt")).expect("fragment");
        fs::remove_dir_all(&dir).expect("remove scratch dir");
        assert_eq!(
            parse(&written),
            fragment("demo", actual),
            "fragment = the run's list"
        );
        result
    }

    const FILE: &str = "\
demo.a = 0x00000000000000ff
demo.b.0 = 87
demo.b.1 = Stats { reads: 3, writes: 0 }
other.a = 0x0000000000000001
";

    #[test]
    fn the_pin_file_parses_sorted_unique_and_well_formed() {
        let text = fs::read_to_string(pin_file()).expect("pins.txt at the workspace root");
        let pins = parse(&text).unwrap_or_else(|e| panic!("{e}"));
        assert!(pins.len() > 100, "{} pins", pins.len());
        assert!(text.ends_with('\n'));
        assert_eq!(render(&pins), text, "pins.txt is exactly its lines");

        for (bad, why) in [
            ("b.x = 1\na.x = 2\n", "out of order"),
            ("a.x = 1\na.x = 2\n", "out of order or repeated"),
            ("# a comment\n", "is not"),
            ("a.x = 0x1234\n", "not 0x and 16"),
            ("a.x = 0xABCDEF0123456789\n", "not 0x and 16"),
            ("a.x = -3\n", "not 0x and 16"),
            ("a = 3\n", "not `suite.case`"),
            ("a.X = 3\n", "not `suite.case`"),
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.contains(why), "{bad:?}: {err}");
        }
    }

    /// A deleted pin test leaves no stale key behind for `check` to see,
    /// so every suite in the file must still be named in the workspace's
    /// Rust sources (as a string literal) or in the perfbench smoke script.
    #[test]
    fn every_pinned_suite_is_still_checked() {
        fn rust_sources(dir: &Path, text: &mut String) {
            for entry in fs::read_dir(dir).expect("readable source directory") {
                let path = entry.expect("directory entry").path();
                if path.is_dir() {
                    rust_sources(&path, text);
                } else if path.extension().is_some_and(|x| x == "rs") {
                    *text += &fs::read_to_string(&path).expect("readable source");
                }
            }
        }
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut sources = String::new();
        rust_sources(&root.join("crates"), &mut sources);
        let script = fs::read_to_string(root.join("ci/perfbench_smoke.sh")).expect("smoke script");
        let pins = parse(&fs::read_to_string(pin_file()).expect("pins.txt")).expect("parses");
        let orphans: std::collections::BTreeSet<&str> = pins
            .keys()
            .map(|k| suite_of(k))
            .filter(|suite| {
                !sources.contains(&format!("\"{suite}\"")) && !script.contains(&format!("{suite}."))
            })
            .collect();
        assert!(orphans.is_empty(), "suites no test checks: {orphans:?}");
    }

    #[test]
    fn a_check_of_the_pinned_values_passes() {
        let actual = [
            case("a", &hex(0xff)),
            case("b.1", "Stats { reads: 3, writes: 0 }"),
            case("b.0", "87"),
        ];
        assert_eq!(check_against("pass", FILE, &actual), Ok(()));
    }

    #[test]
    fn a_changed_value_fails_and_names_the_key() {
        let actual = [
            case("a", &hex(0xff)),
            case("b.0", "88"),
            case("b.1", "Stats { reads: 3, writes: 0 }"),
        ];
        let err = check_against("changed", FILE, &actual).expect_err("88 is not pinned");
        assert!(err.contains("demo.b.0: 87 → 88"), "{err}");
        assert!(!err.contains("demo.a:"), "{err}");
        assert!(!err.contains("other.a"), "{err}");
        assert!(!err.contains("unpinned") && !err.contains("stale"), "{err}");
    }

    #[test]
    fn a_missing_or_extra_key_fails_and_lists_it() {
        let actual = [
            case("a", &hex(0xff)),
            case("b.1", "Stats { reads: 3, writes: 0 }"),
            case("c", "5"),
        ];
        let err = check_against("keys", FILE, &actual).expect_err("keys differ");
        assert!(err.contains("demo.b.0: 87 → (none)"), "{err}");
        assert!(err.contains("demo.c: (none) → 5"), "{err}");
        assert!(
            err.contains("unpinned (not in pins.txt): demo.c\n"),
            "{err}"
        );
        assert!(
            err.contains("stale (no longer produced): demo.b.0\n"),
            "{err}"
        );
    }

    #[test]
    fn a_malformed_list_fails_before_it_is_compared() {
        for (suite, actual, why) in [
            (
                "demo",
                vec![case("a", "1"), case("a", "1")],
                "produced twice",
            ),
            ("demo", vec![case("a", "0x12")], "not 0x and 16"),
            ("demo", vec![case("A", "1")], "not `suite.case`"),
            ("de.mo", vec![case("a", "1")], "not a name"),
        ] {
            let err = fragment(suite, &actual).expect_err(why);
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn bless_replaces_each_fragments_suite_and_reports_the_moves() {
        let fragments = [(
            "demo".to_string(),
            "demo.a = 0x00000000000000fe\ndemo.c = 5\n".to_string(),
        )];
        let (text, moves) = merge(FILE, &fragments).expect("merge");
        assert_eq!(
            text,
            "demo.a = 0x00000000000000fe\ndemo.c = 5\nother.a = 0x0000000000000001\n"
        );
        assert_eq!(
            moves,
            [
                "demo.a: 0x00000000000000ff → 0x00000000000000fe",
                "demo.b.0: 87 → (none)",
                "demo.b.1: Stats { reads: 3, writes: 0 } → (none)",
                "demo.c: (none) → 5",
            ]
        );
        let actual = [case("a", &hex(0xfe)), case("c", "5")];
        assert_eq!(check_against("blessed", &text, &actual), Ok(()));

        let (same, none) = merge(&text, &fragments).expect("merge again");
        assert_eq!((same, none.len()), (text, 0));
        let foreign = [("demo".to_string(), "other.a = 1\n".to_string())];
        assert!(merge(FILE, &foreign).is_err());
    }
}
