//! Barrier-synchronized sharded execution of one logical world.
//!
//! [`run_indexed`](crate::run_indexed) parallelizes *independent* runs;
//! this module parallelizes a *single* run that is too large for one
//! event loop. The world is split into `n` sub-worlds ("groups"), each a
//! self-contained deterministic simulator. Time advances in fixed
//! **epochs**: within an epoch every group runs independently up to the
//! epoch's barrier time; anything one group wants to tell another is
//! emitted as a typed message and delivered *at the next barrier*.
//!
//! The determinism contract — the whole point of the design — is that the
//! output is bit-identical at any shard count:
//!
//! 1. A group's `step` depends only on its own state and its inbox.
//! 2. Outboxes are collected **per group index**, not per thread.
//! 3. After the barrier, messages are routed serially in (source group,
//!    emission order) — a total order independent of which thread ran
//!    which group, or in which order the groups were claimed.
//!
//! So each group observes an identical message sequence whether the epoch
//! ran on 1 thread or 16, and induction over epochs gives bit-identical
//! final states. This is the same contract the `jobs=1 ≡ jobs=4` tests
//! pin for independent runs, extended to communicating worlds.
//!
//! The shard count comes from [`set_shards_override`], else the
//! `NFS_FLEET_SHARDS` environment variable, else the jobs resolution of
//! [`jobs`](crate::jobs) (shards cost nothing when idle, so defaulting to
//! the machine width is safe).

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

/// Environment variable naming the number of shard worker threads.
pub const SHARDS_ENV: &str = "NFS_FLEET_SHARDS";

/// `0` = no override; otherwise the override value (set by tests).
static SHARDS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the shard count for the current process, taking precedence
/// over `NFS_FLEET_SHARDS` and the default. `None` removes the override.
/// Intended for tests that compare `shards=1` against `shards=N`.
pub fn set_shards_override(shards: Option<usize>) {
    SHARDS_OVERRIDE.store(shards.unwrap_or(0), Ordering::SeqCst);
}

/// Resolves the shard count (always ≥ 1): the test override, else
/// `NFS_FLEET_SHARDS`, else the [`jobs`](crate::jobs) resolution.
pub fn shards() -> usize {
    let o = SHARDS_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var(SHARDS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    crate::jobs()
}

/// One shard-steppable group of a sharded world.
pub trait ShardWorld: Send {
    /// Cross-group event type (delivered at the *next* barrier).
    type Msg: Send;

    /// Advances this group through epoch `epoch` up to the barrier,
    /// consuming the messages delivered at this barrier (already in the
    /// deterministic (source group, emission order) total order) and
    /// returning `(destination group, message)` pairs to deliver at the
    /// next barrier.
    fn step(&mut self, epoch: u64, inbox: Vec<Self::Msg>) -> Vec<(usize, Self::Msg)>;

    /// Whether this group has no pending work. The run ends at the first
    /// barrier where every group is idle and no messages are in flight.
    fn idle(&self) -> bool;
}

/// What a sharded run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRunStats {
    /// Epochs executed before quiescence (or the cap).
    pub epochs: u64,
    /// Cross-group messages routed across all barriers.
    pub messages: u64,
    /// Whether the run reached quiescence within `max_epochs`.
    pub completed: bool,
}

/// Runs `groups` to quiescence (or `max_epochs`) with barrier-synchronized
/// message exchange, on [`shards`]-many threads (resolved once per run).
///
/// At width 1 every epoch steps the groups in index order on the calling
/// thread. Wider, one `thread::scope` lives for the whole run: `width - 1`
/// pooled workers plus the calling thread. Each epoch they cross a start
/// barrier, claim group indices from a shared cursor until none are left
/// (so a slow group does not hold back a fixed share of the others), and
/// cross an end barrier; the calling thread then routes alone. Each
/// group's inbox and outbox live in its own slot, so which thread stepped
/// a group never shows in the result; see the module docs for why it is
/// bit-identical at any shard count.
///
/// # Panics
///
/// Panics if a message names a destination group out of range, or if any
/// group's `step` (or `idle`) panics. A pooled run catches the first
/// payload, lets every thread reach the end barrier, releases the
/// workers, and resumes the panic after the scope joins, so a panicking
/// group never leaves the run waiting at a barrier.
pub fn run_sharded<W: ShardWorld>(groups: &mut [W], max_epochs: u64) -> ShardRunStats {
    let width = shards().min(groups.len().max(1));
    let slots: Vec<Mutex<Slot<'_, W>>> = groups
        .iter_mut()
        .map(|group| {
            Mutex::new(Slot {
                group,
                inbox: Vec::new(),
                outbox: Vec::new(),
            })
        })
        .collect();
    if width <= 1 {
        return drive(&slots, max_epochs, |epoch| {
            for slot in &slots {
                lock(slot).step(epoch);
            }
            true
        });
    }
    let pool = Pool {
        slots: &slots,
        cursor: AtomicUsize::new(0),
        start: Barrier::new(width),
        end: Barrier::new(width),
        stop: AtomicBool::new(false),
        panic: Mutex::new(None),
    };
    // A panic outside `step` (routing, `idle`) ends `drive` on this
    // thread while the workers wait at the start barrier.
    let run = std::thread::scope(|scope| {
        for _ in 1..width {
            scope.spawn(|| pool.work());
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            drive(&slots, max_epochs, |epoch| pool.epoch(epoch))
        }));
        // Release the workers waiting at the start barrier.
        pool.stop.store(true, Ordering::SeqCst);
        pool.start.wait();
        run
    });
    let step_panic = pool.panic.into_inner().expect("no panic while held");
    match (run, step_panic) {
        (Ok(stats), None) => stats,
        (Err(payload), _) | (Ok(_), Some(payload)) => resume_unwind(payload),
    }
}

/// One group with the messages it consumes and emits this epoch.
struct Slot<'a, W: ShardWorld> {
    group: &'a mut W,
    inbox: Vec<W::Msg>,
    outbox: Vec<(usize, W::Msg)>,
}

impl<W: ShardWorld> Slot<'_, W> {
    fn step(&mut self, epoch: u64) {
        self.outbox = self.group.step(epoch, std::mem::take(&mut self.inbox));
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A slot is poisoned only by a panicking `step`, after which the run
    // stops before touching that slot again.
    m.lock().expect("slot of a group that panicked")
}

/// The epoch loop shared by every width: quiescence check, `run_epoch`
/// (which steps every group once and returns whether the run may go on),
/// then serial routing in (source group, emission order).
fn drive<W: ShardWorld>(
    slots: &[Mutex<Slot<'_, W>>],
    max_epochs: u64,
    mut run_epoch: impl FnMut(u64) -> bool,
) -> ShardRunStats {
    let n = slots.len();
    let quiescent = || {
        slots.iter().all(|s| lock(s).inbox.is_empty()) && slots.iter().all(|s| lock(s).group.idle())
    };
    let mut stats = ShardRunStats {
        epochs: 0,
        messages: 0,
        completed: false,
    };
    for epoch in 0..max_epochs {
        if quiescent() {
            stats.completed = true;
            return stats;
        }
        stats.epochs = epoch + 1;
        if !run_epoch(epoch) {
            return stats;
        }
        // Serial routing in (source group, emission order): the total
        // order every group's next inbox is built from, independent of
        // which thread stepped which group.
        for src in slots {
            let outbox = std::mem::take(&mut lock(src).outbox);
            for (dst, msg) in outbox {
                assert!(dst < n, "message routed to group {dst} of {n}");
                lock(&slots[dst]).inbox.push(msg);
                stats.messages += 1;
            }
        }
    }
    stats.completed = quiescent();
    stats
}

/// The persistent worker pool of one wide run.
struct Pool<'s, 'a, W: ShardWorld> {
    slots: &'s [Mutex<Slot<'a, W>>],
    /// Next unclaimed group index this epoch. It publishes nothing (each
    /// slot's mutex guards its data, the barriers order epochs), so it is
    /// `Relaxed`.
    cursor: AtomicUsize,
    start: Barrier,
    end: Barrier,
    /// Set by the calling thread before its last start crossing.
    stop: AtomicBool,
    /// The first payload of a panicking `step`, on any thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<W: ShardWorld> Pool<'_, '_, W> {
    /// A pooled worker: one claim pass per epoch until released.
    fn work(&self) {
        let mut epoch = 0;
        loop {
            self.start.wait();
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            self.claim(epoch);
            self.end.wait();
            epoch += 1;
        }
    }

    /// The calling thread's side of one epoch; `false` once a group
    /// panicked.
    fn epoch(&self, epoch: u64) -> bool {
        self.cursor.store(0, Ordering::Relaxed);
        self.start.wait();
        self.claim(epoch);
        self.end.wait();
        self.panic.lock().expect("no panic while held").is_none()
    }

    /// Steps claimed groups until none are left. A panic is caught and
    /// kept (unless an earlier one was) so this thread still reaches the
    /// end barrier.
    fn claim(&self, epoch: u64) {
        let pass = catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.slots.get(i) else { break };
            lock(slot).step(epoch);
        }));
        if let Err(payload) = pass {
            self.panic
                .lock()
                .expect("no panic while held")
                .get_or_insert(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that touch the process-global override.
    static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_shards<R>(s: usize, f: impl FnOnce() -> R) -> R {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_shards_override(Some(s));
        let r = f();
        set_shards_override(None);
        r
    }

    /// A toy deterministic group: hashes its inbox into its state each
    /// epoch and gossips to a pseudo-random peer while it has work left.
    struct Gossip {
        id: usize,
        n: usize,
        state: u64,
        remaining: u32,
    }

    impl ShardWorld for Gossip {
        type Msg = u64;
        fn step(&mut self, epoch: u64, inbox: Vec<u64>) -> Vec<(usize, u64)> {
            for m in inbox {
                self.state = self
                    .state
                    .rotate_left(7)
                    .wrapping_mul(0x100_0000_01b3)
                    .wrapping_add(m);
            }
            if self.remaining == 0 {
                return Vec::new();
            }
            self.remaining -= 1;
            self.state = self.state.wrapping_add(epoch ^ 0x9E37_79B9_7F4A_7C15);
            let dst = (self.state >> 17) as usize % self.n;
            vec![(dst, self.state ^ self.id as u64)]
        }
        fn idle(&self) -> bool {
            self.remaining == 0
        }
    }

    fn fleet(n: usize) -> Vec<Gossip> {
        (0..n)
            .map(|id| Gossip {
                id,
                n,
                state: id as u64 * 0x9E37_79B9,
                remaining: 8 + (id as u32 % 5),
            })
            .collect()
    }

    #[test]
    fn shard_counts_agree_bitwise() {
        // Group counts that none of the pooled widths divide, plus the
        // degenerate fleets; widths beyond the group count clamp.
        for n in [0, 1, 7, 11, 13] {
            let run = |s: usize| {
                with_shards(s, || {
                    let mut gs = fleet(n);
                    let stats = run_sharded(&mut gs, 1_000);
                    assert!(stats.completed);
                    (stats, gs.iter().map(|g| g.state).collect::<Vec<_>>())
                })
            };
            let base = run(1);
            for s in [2, 3, 4, 5, 7, n.max(1), n + 3] {
                assert_eq!(run(s), base, "groups={n} shards={s}");
            }
        }
    }

    /// The payload [`Faulty`] panics with.
    #[derive(Debug, PartialEq)]
    struct Boom {
        epoch: u64,
        group: usize,
    }

    /// A group that passes a token to its neighbour every epoch and panics
    /// with [`Boom`] at `panic_at`, or routes out of range at `misroute_at`.
    struct Faulty {
        id: usize,
        n: usize,
        epochs_left: u64,
        panic_at: Option<u64>,
        misroute_at: Option<u64>,
    }

    impl ShardWorld for Faulty {
        type Msg = u64;
        fn step(&mut self, epoch: u64, _inbox: Vec<u64>) -> Vec<(usize, u64)> {
            if self.panic_at == Some(epoch) {
                std::panic::panic_any(Boom {
                    epoch,
                    group: self.id,
                });
            }
            self.epochs_left = self.epochs_left.saturating_sub(1);
            let dst = if self.misroute_at == Some(epoch) {
                self.n
            } else {
                (self.id + 1) % self.n
            };
            vec![(dst, epoch)]
        }
        fn idle(&self) -> bool {
            self.epochs_left == 0
        }
    }

    /// Runs `groups` at width `s` on another thread and returns the panic
    /// payload, failing if the run returns normally or does not finish
    /// within a bound (a thread stuck at a barrier never would).
    fn panic_of(s: usize, mut groups: Vec<Faulty>) -> Box<dyn Any + Send> {
        with_shards(s, || {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| run_sharded(&mut groups, 100)));
                tx.send(r).expect("test waits for the run");
            });
            let r = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("shards={s}: run hung instead of panicking"));
            r.expect_err("run must panic")
        })
    }

    #[test]
    fn a_panicking_group_propagates_at_every_width() {
        let n = 7;
        let groups = |panic_at: Option<(u64, usize)>, misroute_at: Option<(u64, usize)>| {
            (0..n)
                .map(|id| Faulty {
                    id,
                    n,
                    epochs_left: 10,
                    panic_at: panic_at.filter(|&(_, g)| g == id).map(|(e, _)| e),
                    misroute_at: misroute_at.filter(|&(_, g)| g == id).map(|(e, _)| e),
                })
                .collect::<Vec<_>>()
        };
        for s in [1, 2, 3, 5] {
            for (epoch, group) in [(0, 0), (3, 4), (6, n - 1)] {
                let payload = panic_of(s, groups(Some((epoch, group)), None));
                assert_eq!(
                    payload.downcast_ref::<Boom>(),
                    Some(&Boom { epoch, group }),
                    "shards={s}"
                );
            }
            // Routing runs on the calling thread while the workers wait.
            let payload = panic_of(s, groups(None, Some((2, 3))));
            let msg = payload.downcast_ref::<String>().expect("assert message");
            assert!(msg.contains("routed to group 7 of 7"), "shards={s}: {msg}");
        }
    }

    #[test]
    fn quiescence_terminates_early() {
        let stats = with_shards(2, || {
            let mut gs = fleet(4);
            run_sharded(&mut gs, 1_000)
        });
        assert!(stats.completed);
        assert!(stats.epochs < 100, "{stats:?}");
        assert!(stats.messages > 0);
    }

    #[test]
    fn epoch_cap_reports_incomplete() {
        let mut gs = fleet(4);
        let stats = with_shards(1, || run_sharded(&mut gs, 2));
        assert!(!stats.completed);
        assert_eq!(stats.epochs, 2);
    }

    #[test]
    fn empty_fleet_is_immediately_quiescent() {
        let mut gs: Vec<Gossip> = Vec::new();
        let stats = run_sharded(&mut gs, 10);
        assert!(stats.completed);
        assert_eq!(stats.epochs, 0);
    }

    #[test]
    fn shards_override_takes_precedence_and_clears() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_shards_override(Some(5));
        assert_eq!(shards(), 5);
        set_shards_override(None);
        assert!(shards() >= 1);
    }
}
