//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <read_stream|build_tree|fleet|endpoint> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats *reps* of one workload until `--seconds` have passed
//! (at least [`MIN_REPS`]). A rep builds everything from the seed (the
//! set-up, timed as `setup_s`) and then runs one fixed unit of work (the
//! timed phase). Every rep of a run does the same simulated work, so its
//! fingerprint must repeat exactly; that is the determinism check. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` the reps alternate untraced and traced, and the line
//! carries the per-layer metrics, including the tracing overhead. Any
//! failed correctness check makes the exit code 1. See `WORKLOADS.md`.

mod build_tree;
mod endpoint;
mod fleet;
mod metrics;
mod read_stream;
mod reference;
mod tracer;

use std::process::ExitCode;
use std::time::Instant;

use metrics::{median, ratio, Layers, RepOut, END_TO_END, PER_LAYER};
use reference::Kernel;
use tracer::{Boundary, Tracer};

/// Fewest reps a run makes, however long they take.
const MIN_REPS: usize = 3;

/// Set-ups timed after each untraced rep on top of the rep's own, so that
/// `setup_s` is a median over several set-ups even when reps are few.
const EXTRA_SETUPS: usize = 2;

const USAGE: &str = "usage: perfbench --workload <read_stream|build_tree|fleet|endpoint> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// One workload: a fixed unit of simulated or socket work, rebuilt from
/// the seed on every rep.
pub trait Workload {
    /// Sets up from the seed and runs the unit of work once.
    fn rep(&mut self, tr: &mut Tracer) -> RepOut;

    /// Sets up as [`Workload::rep`] does, tears down, and returns the
    /// set-up's host seconds.
    fn setup_only(&mut self) -> f64;

    /// Per-layer values measured once per run rather than per rep.
    fn run_layers(&self) -> Layers {
        Vec::new()
    }

    /// The reference kernel whose work resembles this workload's, or
    /// `None` when host speed does not set the workload's pace.
    fn kernel(&self) -> Option<Kernel> {
        Some(Kernel::Scan)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Host-side per-layer values every traced rep derives from its tracer.
fn traced_layers(tr: &Tracer, out: &RepOut, wall_s: f64) -> Layers {
    use Boundary::*;
    let secs = |b| tr.secs(b);
    vec![
        ("nfssim.submit_ns", tr.mean_ns(Submit)),
        ("nfssim.submit_calls", tr.calls(Submit) as f64),
        ("nfssim.advance_ns", tr.mean_ns(Advance)),
        ("nfssim.advance_calls", tr.calls(Advance) as f64),
        ("nfssim.next_event_ns", tr.mean_ns(NextEvent)),
        (
            "nfssim.ops_per_advance",
            ratio(out.attempted as f64, tr.calls(Advance) as f64),
        ),
        ("nfssim.advance_share", ratio(secs(Advance), out.timed_s)),
        ("nfssim.build_s", secs(Build)),
        ("nfstrace.generate_s", secs(Generate)),
        ("nfscluster.fleet_new_s", secs(FleetNew)),
        ("nfscluster.fleet_run_s", secs(FleetRun)),
        ("bench.boundary_share", ratio(tr.total_secs(), wall_s)),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "read_stream" => Box::new(read_stream::ReadStream::new(args.seed)),
        "build_tree" => Box::new(build_tree::BuildTree::new(args.seed)),
        "fleet" => Box::new(fleet::Fleet::new(args.seed)),
        "endpoint" => Box::new(endpoint::EndpointBench::new(args.seed, args.trace)),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let start = Instant::now();
    let mut reps: Vec<(bool, RepOut)> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    // Reference-kernel seconds after each untraced rep, in rep order.
    let mut kernel: Vec<f64> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        // A traced run alternates untraced and traced reps, so both see
        // the same machine conditions and their ratio is the overhead.
        let traced = args.trace && reps.len() % 2 == 1;
        let mut tr = Tracer::new(traced);
        let t = Instant::now();
        let mut out = workload.rep(&mut tr);
        if traced {
            let wall_s = t.elapsed().as_secs_f64();
            out.layers.extend(traced_layers(&tr, &out, wall_s));
        } else {
            setups.push(out.setup_s);
            setups.extend((0..EXTRA_SETUPS).map(|_| workload.setup_only()));
            kernel.extend(workload.kernel().map(Kernel::secs));
        }
        reps.push((traced, out));
    }

    let first = &reps[0].1;
    let mut violations: Vec<String> = Vec::new();
    for (i, (_, r)) in reps.iter().enumerate() {
        violations.extend(r.violations.iter().cloned());
        if r.fingerprint != first.fingerprint || r.sim != first.sim {
            violations.push(format!(
                "rep {i} fingerprint {:#018x} differs from rep 0 {:#018x}",
                r.fingerprint, first.fingerprint
            ));
        }
    }
    violations.sort();
    violations.dedup();
    let attempted: u64 = reps.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = reps.iter().map(|(_, r)| r.failed).sum();
    let rates = |traced: bool| -> Vec<f64> {
        reps.iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, r)| r.attempted as f64 / r.timed_s)
            .collect()
    };
    let rate = |traced: bool| median(&rates(traced));
    // Run-level scaling: the medians shrug off a single slow rep or
    // kernel, and the drift being cancelled is slow next to a run.
    let scale = workload
        .kernel()
        .map_or(1.0, |k| k.nominal_secs() / median(&kernel));
    let untraced = reps.iter().filter(|(t, _)| !*t).count();
    let sim = first.sim;

    println!(
        "perfbench workload={} seed={} reps={} traced_reps={} seconds={:.1}",
        args.workload,
        args.seed,
        reps.len(),
        reps.len() - untraced,
        start.elapsed().as_secs_f64()
    );
    println!("fingerprint {} {:#018x}", args.workload, first.fingerprint);
    println!(
        "simulated latency: p50 {} ms, p99 {} ms, p99.9 {} ms over {} ops",
        sim.p50_ms, sim.p99_ms, sim.p999_ms, sim.samples
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut layers = workload.run_layers();
        let traced: Vec<&RepOut> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
        for &(name, _) in traced[0].layers.iter() {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layers.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            layers.push((name, median(&values)));
        }
        let traced_rate = rate(true);
        layers.extend([
            ("sim.p50_ms", sim.p50_ms),
            ("sim.p99_ms", sim.p99_ms),
            ("sim.p999_ms", sim.p999_ms),
            ("sim.samples", sim.samples as f64),
        ]);
        layers.push(("bench.error_rate", ratio(failed as f64, attempted as f64)));
        layers.push(("bench.ops_per_s", rate(false)));
        layers.push(("bench.traced_ops_per_s", traced_rate));
        layers.push(("bench.trace_overhead", ratio(rate(false), traced_rate)));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                println!("{name} = {value} {unit}");
                (name, value, unit)
            })
            .collect()
    } else {
        let scaling = match workload.kernel() {
            Some(k) => format!(
                "scaled by the median of {:.1?} ms of the {k:?} kernel",
                kernel.iter().map(|k| k * 1e3).collect::<Vec<_>>()
            ),
            None => "unscaled".to_string(),
        };
        let values = [
            (
                median(&setups) * scale,
                format!(
                    "median of {} set-ups, {} s unscaled",
                    setups.len(),
                    median(&setups)
                ),
            ),
            (
                rate(false) / scale,
                format!("median of {:.0?} ops/s, {scaling}", rates(false)),
            ),
            (metrics::peak_rss_mb(), "VmHWM".to_string()),
            (sim.mb_per_s, "simulated".to_string()),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, how))| {
                println!("{name} = {value} {unit} ({how})");
                (name, value, unit)
            })
            .collect()
    };

    for v in &violations {
        eprintln!("perfbench: correctness violation: {v}");
    }
    let correct = violations.is_empty();
    println!(
        "{}",
        metrics::json_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
