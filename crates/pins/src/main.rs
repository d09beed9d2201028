//! The bless command, `cargo run -p pins`: merges the fragments that pin
//! tests wrote under `<target dir>/pins` into `pins.txt`, prints
//! `key: old → new` for every key it changed, added or removed, and
//! deletes the fragments it used. It takes no arguments.

use std::fs;
use std::process::ExitCode;

fn main() -> ExitCode {
    let dir = pins::fragment_dir();
    let mut used: Vec<_> = fs::read_dir(&dir)
        .map(|entries| {
            entries
                .map(|e| e.expect("fragment directory entry").path())
                .filter(|p| p.extension().is_some_and(|x| x == "txt"))
                .collect()
        })
        .unwrap_or_default();
    used.sort();
    if used.is_empty() {
        eprintln!("no fragments in {}: run the pin tests first", dir.display());
        return ExitCode::FAILURE;
    }
    let fragments: Vec<(String, String)> = used
        .iter()
        .map(|p| {
            let suite = p.file_stem().expect("a .txt file has a stem");
            let text = fs::read_to_string(p).expect("readable fragment");
            (suite.to_string_lossy().into_owned(), text)
        })
        .collect();

    let file = pins::pin_file();
    let pinned = fs::read_to_string(&file).expect("pins.txt at the workspace root");
    let (text, moves) = match pins::merge(&pinned, &fragments) {
        Ok(merged) => merged,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    fs::write(&file, text).expect("rewrite pins.txt");
    for p in &used {
        fs::remove_file(p).expect("remove a merged fragment");
    }
    println!(
        "pins.txt: {} keys moved, {} suites merged (old → new)",
        moves.len(),
        fragments.len()
    );
    for line in moves {
        println!("  {line}");
    }
    ExitCode::SUCCESS
}
