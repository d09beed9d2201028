//! Satellite: the wall-clock adapter must not change server behaviour.
//!
//! The serve loop drives the world the way a wall clock forces it to —
//! many small `advance(now)` pumps at whatever instants the loop happens
//! to run — while the simulator drives it event-to-event. These tests
//! replay one trace through both driving styles (with a SlowDown stall
//! and UNSTABLE writes in the middle, so stall windows and gather-window
//! flush timers are both in play) and require the *server event order*
//! to be identical: heuristic probes, gather flushes, and replies must
//! fire in the same sequence regardless of how time is fed in.

use nfsd::{build_world, Clock, ManualClock};
use nfsproto::{FileHandle, NfsCall, StableHow};
use nfssim::{NfsWorld, ServerEvent, WorldConfig};
use simcore::{SimDuration, SimRng, SimTime};

/// One scripted arrival: `(time, xid, call)`.
type Arrival = (SimTime, u32, NfsCall);

/// A mixed workload: two interleaved sequential readers, a burst of
/// UNSTABLE writes with a COMMIT, and enough reads after the stall to
/// see the heuristics keep running.
fn script(exports: &[FileHandle]) -> Vec<Arrival> {
    let mut rng = SimRng::new(0xC10C);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut xid = 0u32;
    for i in 0..48u64 {
        t += rng.exponential(400.0);
        let at = SimTime::from_nanos((t * 1_000.0) as u64);
        xid += 1;
        let fh = exports[(i % 2) as usize];
        let offset = (i / 2) * 8_192;
        if i % 8 == 5 {
            out.push((
                at,
                xid,
                NfsCall::Write {
                    fh: exports[2],
                    offset,
                    count: 8_192,
                    stable: StableHow::Unstable,
                },
            ));
        } else if i % 16 == 9 {
            out.push((
                at,
                xid,
                NfsCall::Commit {
                    fh: exports[2],
                    offset: 0,
                    count: 0,
                },
            ));
        } else {
            out.push((
                at,
                xid,
                NfsCall::Read {
                    fh,
                    offset,
                    count: 8_192,
                },
            ));
        }
    }
    out
}

/// When the SlowDown stall lands (between arrivals, mid-trace).
const STALL_AT: SimTime = SimTime::from_nanos(8_000_000);
const STALL: SimDuration = SimDuration::from_millis(5);

fn world_with_exports() -> (NfsWorld, Vec<FileHandle>) {
    let config = WorldConfig {
        stable_how: StableHow::Unstable,
        ..WorldConfig::default()
    };
    let mut world = build_world(config, 77);
    world.register_external_client();
    let exports: Vec<_> = (0..3)
        .map(|_| world.create_server_file(64 * 8_192))
        .collect();
    world.enable_server_event_log();
    (world, exports)
}

/// Virtual-clock driving: leap exactly to each arrival, then run the
/// event queue dry the way the simulator does.
///
/// Both drivers build their own world from the same seed; export file
/// layout draws come from the server's own deterministic RNG stream, so
/// the script's handles are valid in every copy.
fn run_virtual(script: &[Arrival]) -> Vec<ServerEvent> {
    let (mut world, _exports) = world_with_exports();
    let mut stalled = false;
    for (at, xid, call) in script.iter().cloned() {
        maybe_stall(&mut world, at, &mut stalled);
        world.advance(at);
        world.external_call(at, 0, xid, call);
    }
    quiesce_virtual(&mut world);
    world.take_server_events()
}

/// Wall-clock driving: a ManualClock plays the role of the socket loop's
/// time source, pumping the world at coarse, jittery instants that never
/// coincide with event times — exactly what `serve` does to the world.
fn run_wall(script: &[Arrival], pump_ns: u64) -> Vec<ServerEvent> {
    let (mut world, _exports) = world_with_exports();
    let clock = ManualClock::new();
    let mut stalled = false;
    for (at, xid, call) in script.iter().cloned() {
        // Pump in fixed increments until the arrival instant passes.
        while clock.now() < at {
            let next = SimTime::from_nanos(clock.now().as_nanos() + pump_ns).min(at);
            clock.advance_to(next);
            maybe_stall(&mut world, clock.now(), &mut stalled);
            world.advance(clock.now());
        }
        world.external_call(clock.now(), 0, xid, call);
    }
    // Keep pumping until the world runs dry.
    while let Some(deadline) = world.next_event() {
        clock.advance_to(SimTime::from_nanos(deadline.as_nanos() + pump_ns));
        world.advance(clock.now());
        world.take_external_replies();
    }
    world.take_server_events()
}

fn maybe_stall(world: &mut NfsWorld, now: SimTime, stalled: &mut bool) {
    if !*stalled && now >= STALL_AT {
        world.stall_server(STALL_AT, STALL);
        *stalled = true;
    }
}

fn quiesce_virtual(world: &mut NfsWorld) {
    while let Some(t) = world.next_event() {
        world.advance(t);
        world.take_external_replies();
    }
}

#[test]
fn wall_clock_driver_preserves_server_event_order() {
    let (_, exports) = world_with_exports();
    let script = script(&exports);
    let virtual_events = run_virtual(&script);
    // 100µs pump: the serve loop's idle tick. 1ms pump: a badly lagging
    // loop. Both must reproduce the virtual order exactly.
    for pump_ns in [100_000u64, 1_000_000] {
        let wall_events = run_wall(&script, pump_ns);
        assert_eq!(
            virtual_events, wall_events,
            "server event order diverged at pump={pump_ns}ns"
        );
    }
    // Sanity: the workload actually exercised all three event kinds.
    let has = |f: fn(&ServerEvent) -> bool| virtual_events.iter().any(f);
    assert!(has(|e| matches!(e, ServerEvent::HeurRead { .. })));
    assert!(has(|e| matches!(e, ServerEvent::GatherFlush { .. })));
    assert!(has(|e| matches!(e, ServerEvent::Reply { .. })));
}

#[test]
fn jittered_pump_instants_keep_books_equal() {
    // Irregular pump cadence (prime-ish steps) — books, not just order,
    // must match the virtual replay.
    let (_, exports) = world_with_exports();
    let script = script(&exports);
    let virtual_events = run_virtual(&script);
    let wall_events = run_wall(&script, 173_000);
    assert_eq!(virtual_events.len(), wall_events.len());
    let flushes = |evs: &[ServerEvent]| {
        evs.iter()
            .filter(|e| matches!(e, ServerEvent::GatherFlush { .. }))
            .count()
    };
    assert_eq!(flushes(&virtual_events), flushes(&wall_events));
}
