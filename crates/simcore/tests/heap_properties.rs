//! Property tests pinning the 4-ary event-queue heap to the semantics of
//! the original `BinaryHeap` implementation: min-ordering on time with
//! FIFO tie-breaking, under arbitrary interleavings of schedule and pop.
//! Timer-lane pushes must be indistinguishable from heap pushes, and the
//! queue's remembered next key must match a sorted-map model after every
//! operation.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use simcore::{EventQueue, SimRng, SimTime};

/// Reference model: the exact structure the event queue used before the
/// 4-ary heap — `BinaryHeap` over `Reverse<(at, seq)>` — with the same
/// clamp-to-now rule for events scheduled into the past.
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    now: u64,
    next_seq: u64,
}

impl ReferenceQueue {
    fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            now: 0,
            next_seq: 0,
        }
    }

    fn schedule_at(&mut self, at: u64, payload: u32) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq, payload)));
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let Reverse((at, _, payload)) = self.heap.pop()?;
        self.now = at;
        Some((at, payload))
    }
}

#[test]
fn same_instant_events_pop_fifo() {
    let mut q = EventQueue::new();
    let t = SimTime::from_nanos(42);
    for i in 0..1_000u32 {
        q.schedule_at(t, i);
    }
    let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
    assert_eq!(order, (0..1_000).collect::<Vec<_>>());
}

#[test]
fn mixed_times_with_tie_clusters_pop_in_schedule_order_within_instant() {
    // Several bursts at the same instants, scheduled out of instant order:
    // within each instant the payloads must come back in schedule order.
    let mut q = EventQueue::new();
    let instants = [30u64, 10, 20, 10, 30, 20, 10];
    let mut expected: Vec<(u64, u32)> = Vec::new();
    for (i, &t) in instants.iter().enumerate() {
        q.schedule_at(SimTime::from_nanos(t), i as u32);
        expected.push((t, i as u32));
    }
    // Stable sort on time preserves schedule order inside each instant,
    // which is exactly the FIFO tie-break contract.
    expected.sort_by_key(|&(t, _)| t);
    let got: Vec<(u64, u32)> =
        std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_nanos(), e))).collect();
    assert_eq!(got, expected);
}

#[test]
fn interleaved_schedule_pop_matches_binary_heap_reference() {
    // Random interleavings of schedule/pop, with times drawn from a small
    // window (lots of ties) and occasionally from the past (exercises the
    // clamp-to-now rule). The 4-ary heap must produce the identical pop
    // stream as the BinaryHeap reference for every seed.
    for seed in 0..32u64 {
        let mut rng = SimRng::new(seed);
        let mut q = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut next_payload = 0u32;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..4_000 {
            let do_pop = rng.gen_range(0u32..100) < 40;
            if do_pop {
                popped.push(q.pop().map(|(t, e)| (t.as_nanos(), e)));
                expected.push(reference.pop());
            } else {
                // Base around "now" so past-clamping actually triggers.
                let base = q.now().as_nanos();
                let at = base.saturating_sub(8) + rng.gen_range(0u64..32);
                q.schedule_at(SimTime::from_nanos(at), next_payload);
                reference.schedule_at(at, next_payload);
                next_payload += 1;
            }
        }
        drain(&mut q, &mut reference, &mut popped, &mut expected);
        assert_eq!(popped, expected, "divergence from reference at seed {seed}");
    }
}

/// Pops both queues until both are empty, appending every result.
fn drain(
    q: &mut EventQueue<u32>,
    reference: &mut ReferenceQueue,
    popped: &mut Vec<Option<(u64, u32)>>,
    expected: &mut Vec<Option<(u64, u32)>>,
) {
    loop {
        let a = q.pop().map(|(t, e)| (t.as_nanos(), e));
        let b = reference.pop();
        let done = a.is_none() && b.is_none();
        popped.push(a);
        expected.push(b);
        if done {
            break;
        }
    }
}

#[test]
fn lane_pushes_match_binary_heap_reference() {
    // Random interleavings of heap pushes, lane pushes and pops. Most lane
    // pushes are monotone (a fixed-ish timeout after now, like a
    // retransmit timer); about one in eight lands before its lane's tail
    // and must fall back to the heap; some land in the past and must
    // clamp to now. The reference sees every push as a plain schedule.
    const LANES: usize = 3;
    for seed in 0..48u64 {
        let mut rng = SimRng::new(seed ^ 0x1a7e);
        let mut q = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut tails = [0u64; LANES];
        let mut next_payload = 0u32;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..4_000 {
            let now = q.now().as_nanos();
            let roll = rng.gen_range(0u32..100);
            if roll < 40 {
                popped.push(q.pop().map(|(t, e)| (t.as_nanos(), e)));
                expected.push(reference.pop());
                continue;
            }
            let payload = next_payload;
            next_payload += 1;
            if roll < 60 {
                let at = now.saturating_sub(8) + rng.gen_range(0u64..32);
                q.schedule_at(SimTime::from_nanos(at), payload);
                reference.schedule_at(at, payload);
                continue;
            }
            let lane = rng.gen_range(0..LANES);
            let at = match rng.gen_range(0u32..16) {
                0 | 1 => tails[lane].saturating_sub(1 + rng.gen_range(0u64..40)),
                2 => now.saturating_sub(1 + rng.gen_range(0u64..16)),
                _ => tails[lane].max(now) + rng.gen_range(0u64..24),
            };
            tails[lane] = tails[lane].max(at.max(now));
            q.schedule_in_lane(lane, SimTime::from_nanos(at), payload);
            reference.schedule_at(at, payload);
            assert_eq!(q.len(), reference.heap.len(), "len diverged at seed {seed}");
        }
        drain(&mut q, &mut reference, &mut popped, &mut expected);
        assert!(q.is_empty());
        assert_eq!(
            popped, expected,
            "lane divergence from reference at seed {seed}"
        );
    }
}

#[test]
fn pop_stream_is_sorted_and_heap_survives_large_random_load() {
    let mut rng = SimRng::new(0xfeed);
    let mut q = EventQueue::new();
    for i in 0..20_000u32 {
        q.schedule_at(SimTime::from_nanos(rng.gen_range(0u64..5_000)), i);
    }
    let mut last = (0u64, 0u64);
    let mut count = 0usize;
    let mut seen_seq_at_time: Option<(u64, u32)> = None;
    while let Some((t, e)) = q.pop() {
        let t = t.as_nanos();
        assert!(t >= last.0, "time went backwards");
        if let Some((pt, pe)) = seen_seq_at_time {
            if pt == t {
                assert!(e > pe, "FIFO violated at t={t}: {pe} then {e}");
            }
        }
        seen_seq_at_time = Some((t, e));
        last = (t, 0);
        count += 1;
    }
    assert_eq!(count, 20_000);
}

/// Ordered-map model of the whole queue: every pending event keyed by
/// `(at, seq)`, the clock, and the delivered count.
#[derive(Default)]
struct MapModel {
    pending: BTreeMap<(u64, u64), u32>,
    now: u64,
    next_seq: u64,
    delivered: u64,
}

impl MapModel {
    fn schedule(&mut self, at: u64, payload: u32) {
        let at = at.max(self.now);
        self.pending.insert((at, self.next_seq), payload);
        self.next_seq += 1;
    }

    fn peek_time(&self) -> Option<u64> {
        self.pending.keys().next().map(|&(at, _)| at)
    }

    fn pop_if(&mut self, due: impl FnOnce(u64) -> bool) -> Option<(u64, u32)> {
        let (&(at, seq), _) = self.pending.iter().next()?;
        if !due(at) {
            return None;
        }
        let payload = self.pending.remove(&(at, seq)).expect("just seen");
        self.now = at;
        self.delivered += 1;
        Some((at, payload))
    }

    fn clear(&mut self) {
        self.pending.clear();
        self.delivered = 0;
    }
}

#[test]
fn remembered_next_key_matches_an_ordered_map_step_by_step() {
    // Heap pushes, lane pushes (some before their lane's tail, some in the
    // past), pops, pops refused by their deadline, peeks and rare clears,
    // compared with the model after every step.
    const LANES: usize = 3;
    for seed in 0..64u64 {
        let mut rng = SimRng::new(seed ^ 0x4e_3c);
        let mut q = EventQueue::new();
        let mut model = MapModel::default();
        let mut tails = [0u64; LANES];
        let mut next_payload = 0u32;
        for step in 0..3_000 {
            let now = q.now().as_nanos();
            let payload = next_payload;
            match rng.gen_range(0u32..100) {
                0..=24 => {
                    let at = now.saturating_sub(8) + rng.gen_range(0u64..40);
                    q.schedule_at(SimTime::from_nanos(at), payload);
                    model.schedule(at, payload);
                    next_payload += 1;
                }
                25..=49 => {
                    let lane = rng.gen_range(0..LANES);
                    let at = match rng.gen_range(0u32..8) {
                        0 => tails[lane].saturating_sub(1 + rng.gen_range(0u64..40)),
                        1 => now.saturating_sub(1 + rng.gen_range(0u64..16)),
                        _ => tails[lane].max(now) + rng.gen_range(0u64..24),
                    };
                    tails[lane] = tails[lane].max(at.max(now));
                    q.schedule_in_lane(lane, SimTime::from_nanos(at), payload);
                    model.schedule(at, payload);
                    next_payload += 1;
                }
                50..=79 => {
                    // A deadline near now: about half of these refuse.
                    let limit = now + rng.gen_range(0u64..24);
                    let got = q
                        .pop_if(|t| t.as_nanos() <= limit)
                        .map(|(t, e)| (t.as_nanos(), e));
                    assert_eq!(got, model.pop_if(|t| t <= limit), "seed {seed} step {step}");
                }
                80..=89 => {
                    let got = q.pop().map(|(t, e)| (t.as_nanos(), e));
                    assert_eq!(got, model.pop_if(|_| true), "seed {seed} step {step}");
                }
                90..=98 => {}
                _ => {
                    q.clear();
                    model.clear();
                }
            }
            assert_eq!(
                q.peek_time().map(SimTime::as_nanos),
                model.peek_time(),
                "peek_time, seed {seed} step {step}"
            );
            assert_eq!(q.len(), model.pending.len(), "len, seed {seed} step {step}");
            assert_eq!(q.is_empty(), model.pending.is_empty());
            assert_eq!(
                q.now().as_nanos(),
                model.now,
                "now, seed {seed} step {step}"
            );
            assert_eq!(q.delivered(), model.delivered);
        }
        while let Some((t, e)) = q.pop() {
            assert_eq!(Some((t.as_nanos(), e)), model.pop_if(|_| true));
        }
        assert!(
            model.pending.is_empty(),
            "seed {seed}: the queue lost events"
        );
    }
}
