//! `nfs-bench <experiment>... | all` runs registered experiments in the
//! order named. A bad `NFS_BENCH_SCALE` or an unknown name exits 2.

use nfs_bench::{Experiment, Level, EXPERIMENTS};

fn usage_error(problem: &str) -> ! {
    let names: String = EXPERIMENTS.iter().map(|e| format!(" {}", e.name)).collect();
    eprintln!("nfs-bench: {problem}\nusage: nfs-bench <experiment>... | all");
    eprintln!("experiments:{names}\nNFS_BENCH_SCALE: {}", Level::ACCEPTED);
    std::process::exit(2)
}

fn main() {
    let level = Level::from_env().unwrap_or_else(|e| usage_error(&e));
    let mut chosen: Vec<&Experiment> = Vec::new();
    for arg in std::env::args().skip(1) {
        match EXPERIMENTS.iter().find(|e| e.name == arg) {
            Some(e) => chosen.push(e),
            None if arg == "all" => chosen.extend(EXPERIMENTS),
            None => usage_error(&format!("unknown experiment {arg:?}")),
        }
    }
    if chosen.is_empty() {
        usage_error("no experiment named");
    }
    for e in chosen {
        (e.run)(level);
    }
}
