//! Layer-boundary tracing from the benchmark's side.
//!
//! Every call the benchmark makes into a layer's public function goes
//! through [`Tracer::span`]. With tracing off the closure runs bare (no
//! clock read); with tracing on the call is counted and its wall time is
//! added to the boundary's total. The calls are all made from the
//! benchmark loop itself, so no span has a parent and a boundary's total
//! is its self time. Spans inside the program are not recorded here.
//!
//! Hot boundaries (called once or more per simulated operation) cost a
//! few hundred nanoseconds per call, about as much as two clock reads, so
//! they are timed on a pseudo-random one-in-[`SAMPLE`] subset of calls and
//! their totals are scaled up by calls over timed calls. Call counts are
//! always exact, and every other boundary is timed on every call.

use std::time::Instant;

/// A layer entry point the benchmark calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// `nfstrace` generators (`build_tree`, `tree_walk`, `compile_burst`,
    /// `synth::sequential`).
    Generate,
    /// World construction: `Rig::build_fs`, `NfsWorld::new`/`new_cluster`,
    /// `create_file*`, `nfsd::build_world` with `Endpoint::new`, binding
    /// the listener and `NfsClient::connect`.
    Build,
    /// `NfsWorld` op entry points (`read_from`, `write_from`,
    /// `close_from`, `getattr_from`, `lookup_from`, `readdir_from`).
    Submit,
    /// `NfsWorld::advance`.
    Advance,
    /// `NfsWorld::next_event`.
    NextEvent,
    /// `FleetWorld::new`.
    FleetNew,
    /// `FleetWorld::run`.
    FleetRun,
    /// One `NfsClient` call over the socket (send, wait, decode).
    ClientCall,
    /// `Endpoint::handle_record`.
    HandleRecord,
    /// `Endpoint::pump`.
    Pump,
    /// `NfsCall::encode` and the `nfsd::wire` call encoders.
    CallEncode,
    /// The `nfsd::wire` reply decoders.
    ReplyDecode,
}

impl Boundary {
    fn hot(self) -> bool {
        use Boundary::*;
        matches!(
            self,
            Submit | Advance | NextEvent | HandleRecord | Pump | CallEncode | ReplyDecode
        )
    }
}

const BOUNDARIES: usize = 12;

/// One in this many calls of a hot boundary is timed.
pub const SAMPLE: u64 = 8;

/// Per-boundary wall time and call counts.
#[derive(Debug, Clone)]
pub struct Tracer {
    on: bool,
    /// xorshift64 state choosing which hot calls are timed.
    pick: u64,
    ns: [u64; BOUNDARIES],
    timed: [u64; BOUNDARIES],
    calls: [u64; BOUNDARIES],
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            pick: 0x9E37_79B9_7F4A_7C15,
            ns: [0; BOUNDARIES],
            timed: [0; BOUNDARIES],
            calls: [0; BOUNDARIES],
        }
    }

    /// Runs `f`, counting the call and charging its wall time to `b` when
    /// tracing is on.
    #[inline]
    pub fn span<T>(&mut self, b: Boundary, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let i = b as usize;
        self.calls[i] += 1;
        if b.hot() {
            self.pick ^= self.pick << 13;
            self.pick ^= self.pick >> 7;
            self.pick ^= self.pick << 17;
            if !self.pick.is_multiple_of(SAMPLE) {
                return f();
            }
        }
        let start = Instant::now();
        let out = f();
        self.ns[i] += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.timed[i] += 1;
        out
    }

    /// Calls made into `b`.
    pub fn calls(&self, b: Boundary) -> u64 {
        self.calls[b as usize]
    }

    /// Mean nanoseconds per call into `b` (0 without timed calls).
    pub fn mean_ns(&self, b: Boundary) -> f64 {
        let i = b as usize;
        if self.timed[i] == 0 {
            0.0
        } else {
            self.ns[i] as f64 / self.timed[i] as f64
        }
    }

    /// Estimated seconds spent in `b` over all its calls.
    pub fn secs(&self, b: Boundary) -> f64 {
        self.mean_ns(b) * self.calls(b) as f64 / 1e9
    }

    /// Estimated seconds spent in all boundaries together.
    pub fn total_secs(&self) -> f64 {
        use Boundary::*;
        [
            Generate,
            Build,
            Submit,
            Advance,
            NextEvent,
            FleetNew,
            FleetRun,
            ClientCall,
            HandleRecord,
            Pump,
            CallEncode,
            ReplyDecode,
        ]
        .into_iter()
        .map(|b| self.secs(b))
        .sum()
    }
}
