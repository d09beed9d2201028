//! Extension: the device × policy grid — does the paper still give good
//! advice on flash?
//!
//! Cells: {HDD ide1, SSD tlc1} × {stock, paper-tricks (static), autotune}
//! across three workloads: sequential streams, random reads, and
//! sequential streams under metadata noise. With 16 streams the stock
//! 8-slot `nfsheur` table thrashes on its own (the paper's Figure 7
//! collapse); the noise files make the evictions adversarial.
//! "Paper tricks" is the paper's static software tuning: SlowDown
//! read-ahead plus the enlarged `nfsheur` table — measured, patched,
//! rebooted, and forever fixed whatever the device underneath does.
//! "Autotune" starts from stock and lets the online hill-climber
//! (crates/autotune) find its own knobs while the benchmark runs.

use autotune::{Controller, Knobs, TuneConfig, WindowedTuner};
use nfs_bench::BASE_SEED;
use nfssim::{NfsWorld, WorldConfig};
use readahead_core::{NfsHeurConfig, ReadaheadPolicy};
use simcore::{LogHist, SimDuration, SimRng, SimTime};
use testbed::Rig;

const BLOCK: u64 = 8_192;
const STREAMS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Stock,
    Static,
    Autotune,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Stock => "stock",
            Mode::Static => "paper-tricks",
            Mode::Autotune => "autotune",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sequential,
    Random,
    MetaNoise,
}

impl Workload {
    fn label(self) -> &'static str {
        match self {
            Workload::Sequential => "sequential",
            Workload::Random => "random",
            Workload::MetaNoise => "meta-noise",
        }
    }
}

struct Cell {
    mbs: f64,
    p99_ms: f64,
    note: String,
}

fn build_world(rig: Rig, mode: Mode, seed: u64) -> NfsWorld {
    let cfg = match mode {
        Mode::Static => WorldConfig {
            policy: ReadaheadPolicy::slowdown(),
            heur: NfsHeurConfig::improved(),
            ..WorldConfig::default()
        },
        _ => WorldConfig::default(),
    };
    let fs = rig.build_fs(seed);
    NfsWorld::new(cfg, fs, seed)
}

fn run_cell(rig: Rig, mode: Mode, workload: Workload, file_mb: u64, seed: u64) -> Cell {
    let mut w = build_world(rig, mode, seed);
    let size = file_mb * (1 << 20);
    let fhs: Vec<_> = (0..STREAMS).map(|_| w.create_file(size)).collect();
    // Metadata noise: a population of small files whose GETATTR+READ
    // traffic evicts the streams' nfsheur slots.
    let noise: Vec<_> = if workload == Workload::MetaNoise {
        (0..32).map(|_| w.create_file(4 * BLOCK)).collect()
    } else {
        Vec::new()
    };
    let mut tuner = (mode == Mode::Autotune).then(|| {
        WindowedTuner::new(Controller::new(
            TuneConfig {
                window: SimDuration::from_millis(40),
                min_ops: 16,
                ..TuneConfig::default()
            },
            Knobs::stock(),
            SimRng::from_seed_and_stream(seed, 0x7u64),
        ))
    });
    let mut wrng = SimRng::from_seed_and_stream(seed, 0x6752_4944); // "GRID"
    let mut hist = LogHist::new();
    let mut data_bytes = 0u64;
    let mut now = SimTime::ZERO;
    let mut tag = 0u64;
    let blocks = size / BLOCK;

    // Drain until the round's `expect` issued ops complete; `now` tracks
    // the latest completion, not the event clock, so pending retransmit
    // timers and background read-ahead do not fast-forward the benchmark.
    let drain = |w: &mut NfsWorld,
                 now: &mut SimTime,
                 hist: &mut LogHist,
                 tuner: &mut Option<WindowedTuner>,
                 expect: usize| {
        let mut seen = 0usize;
        while seen < expect {
            let t = w.next_event().expect("issued ops must complete");
            let batch = w.advance(t);
            for d in &batch {
                *now = (*now).max(d.done_at);
                hist.add(d.done_at.since(d.issued_at).as_nanos());
                if let Some(tn) = tuner.as_mut() {
                    tn.record(d);
                }
            }
            seen += batch.len();
            if let Some(tn) = tuner.as_mut() {
                tn.poll(*now, w);
            }
        }
    };

    match workload {
        Workload::Sequential | Workload::MetaNoise => {
            for blk in 0..blocks {
                for fh in &fhs {
                    w.read_from(0, now, *fh, blk * BLOCK, BLOCK, tag);
                    tag += 1;
                    data_bytes += BLOCK;
                }
                let mut issued = STREAMS;
                if workload == Workload::MetaNoise {
                    for _ in 0..2 {
                        let nf = noise[wrng.gen_range(0usize..noise.len())];
                        w.getattr_from(0, now, nf, tag);
                        tag += 1;
                        let nblk = wrng.gen_range(0u64..4);
                        w.read_from(0, now, nf, nblk * BLOCK, BLOCK, tag);
                        tag += 1;
                        data_bytes += BLOCK;
                        issued += 2;
                    }
                }
                drain(&mut w, &mut now, &mut hist, &mut tuner, issued);
            }
        }
        Workload::Random => {
            // Same volume as sequential, scattered uniformly.
            for _ in 0..blocks {
                for fh in &fhs {
                    let blk = wrng.gen_range(0u64..blocks);
                    w.read_from(0, now, *fh, blk * BLOCK, BLOCK, tag);
                    tag += 1;
                    data_bytes += BLOCK;
                }
                drain(&mut w, &mut now, &mut hist, &mut tuner, STREAMS);
            }
        }
    }

    let mbs = data_bytes as f64 / (1 << 20) as f64 / now.as_secs_f64();
    let p99_ms = hist.quantile(0.99).unwrap_or(0) as f64 / 1e6;
    let report = w.device_report();
    let mut note = String::new();
    for (name, v) in &report.gauges {
        if *name == "gc runs" && *v > 0 {
            note.push_str(&format!("gc runs {v}; "));
        }
    }
    if let Some(tn) = tuner {
        let c = tn.controller();
        let (a, r) = c.accept_revert_counts();
        let k = c.knobs();
        note.push_str(&format!(
            "{a} accepted / {r} reverted -> ra={} sched={:?} slots={}",
            k.readahead_blocks, k.scheduler, k.heur_slots
        ));
    }
    Cell { mbs, p99_ms, note }
}

fn main() {
    let file_mb = nfs_bench::by_scale(1, 2);
    println!("device grid: {STREAMS} streams x {file_mb} MB per workload, UDP, seed {BASE_SEED}");
    println!(
        "{:<6} {:<13} {:<11} | {:>8} | {:>9} | note",
        "device", "mode", "workload", "MB/s", "p99 ms"
    );
    let mut cells = Vec::new();
    for rig in [Rig::ide(1), Rig::ssd(1)] {
        for mode in [Mode::Stock, Mode::Static, Mode::Autotune] {
            for wl in [Workload::Sequential, Workload::Random, Workload::MetaNoise] {
                cells.push((rig, mode, wl));
            }
        }
    }
    let rows = simfleet::map_indexed(&cells, |(rig, mode, wl)| {
        run_cell(*rig, *mode, *wl, file_mb, BASE_SEED)
    });
    for ((rig, mode, wl), cell) in cells.iter().zip(&rows) {
        println!(
            "{:<6} {:<13} {:<11} | {:>8.2} | {:>9.2} | {}",
            rig.label(),
            mode.label(),
            wl.label(),
            cell.mbs,
            cell.p99_ms,
            cell.note
        );
    }

    // The SlowDown-on-SSD verdict: compare the static paper tricks
    // against stock on each device for the sequential workload.
    let get = |rig_label: &str, mode: Mode, wl: Workload| {
        cells
            .iter()
            .zip(&rows)
            .find(|((r, m, w), _)| r.label() == rig_label && *m == mode && *w == wl)
            .map(|(_, c)| c.mbs)
            .expect("cell present")
    };
    let hdd_gain = get("ide1", Mode::Static, Workload::Sequential)
        / get("ide1", Mode::Stock, Workload::Sequential);
    let ssd_gain = get("tlc1", Mode::Static, Workload::Sequential)
        / get("tlc1", Mode::Stock, Workload::Sequential);
    println!();
    println!(
        "paper-tricks sequential gain: HDD {hdd_gain:.2}x, SSD {ssd_gain:.2}x — \
         the static tricks were tuned for seek economics{}",
        if ssd_gain < hdd_gain {
            "; on flash most of their margin evaporates"
        } else {
            ""
        }
    );
}
