//! Fixed reference kernels, timed after every untraced rep.
//!
//! The host this benchmark runs on is shared: its speed drifts by 10–40%
//! over minutes, and the drift slows some kinds of work more than others.
//! A kernel is the benchmark's own code (no repository crate runs in it),
//! so a change to the program cannot move it, while a slow period slows
//! it as it slows the reps around it. A run's rate and set-up time are
//! scaled by its kernel's median time over the kernel's nominal time, and
//! the drift largely cancels. Each workload names the kernel whose work
//! resembles its own; see `WORKLOADS.md` for the measurements.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Which reference kernel a workload is scaled by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// A 20,000-entry hash map built and scanned for its minimum 60
    /// times, then 3 million xorshift steps: the buffer cache's eviction
    /// scan and plain compute.
    Scan,
    /// 400 small hash maps of 500 short vectors each, built and dropped:
    /// the allocation churn of metadata bookkeeping and world set-up.
    Churn,
    /// 200 sleeps of 200 µs: the wake-up latency the serve loop and the
    /// socket client wait on, which a loaded host stretches.
    Sleep,
}

impl Kernel {
    /// The kernel's time on the host the benchmark was sized on; timings
    /// are reported as if every rep ran on a host this fast.
    pub fn nominal_secs(self) -> f64 {
        match self {
            Kernel::Scan => 0.02,
            Kernel::Churn => 0.018,
            Kernel::Sleep => 0.05,
        }
    }

    /// Runs the kernel once and returns its wall seconds.
    pub fn secs(self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut sum = 0u64;
        match self {
            Kernel::Scan => {
                let map: HashMap<(u64, u64), u64> =
                    (0..20_000).map(|i| ((i, step()), step())).collect();
                for k in 0..60 {
                    let min = map.iter().min_by_key(|(_, v)| *v ^ k);
                    sum = sum.wrapping_add(min.map_or(0, |(key, _)| key.0));
                }
                for _ in 0..3_000_000 {
                    sum = sum.wrapping_add(step());
                }
            }
            Kernel::Churn => {
                for i in 0..400 {
                    let maps: HashMap<u64, Vec<u64>> =
                        (0..500).map(|j| (j ^ i, vec![j; 4])).collect();
                    sum = sum.wrapping_add(maps.len() as u64);
                }
            }
            Kernel::Sleep => {
                for _ in 0..200 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
        }
        black_box(sum);
        t.elapsed().as_secs_f64()
    }
}
