//! Differential model test for the buffer cache's batched exact-LRU
//! eviction. `BufferCache` keeps a list of eviction candidates instead of
//! scanning the whole map on every eviction; it must still answer every
//! query exactly as the plain scan does. The reference [`Model`] below is
//! that scan-based cache.
//!
//! Seeded random sequences of `lookup`/`mark_pending`/`fill`/`invalidate`/
//! `discard`/`flush` run on both caches, over capacities 1–64 plus a
//! larger one where one scan collects several candidates, with key spaces
//! 2–4× the capacity and phases that pin every key so the cache overflows.
//! After every op both must agree on `len`, `hit_miss`, and
//! `peek`/`is_pending` for every key. Two mutant models (evict the newest
//! valid entry; evict pending entries too) show that the sequences catch a
//! wrong victim.

use std::collections::HashMap;

use ffs::{BlockKey, BufferCache};
use simcore::SimRng;

/// Capacities driven by every test: 1–64 (one or two candidates per
/// scan), then 128 (four).
fn capacities() -> impl Iterator<Item = usize> {
    (1..=64).chain([128])
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutant {
    /// The correct scan: the oldest valid entry.
    None,
    /// Evicts the newest valid entry instead.
    EvictNewest,
    /// Evicts the oldest entry even when it is pending.
    EvictPending,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Lookup,
    Fill,
    MarkPending,
    Invalidate,
    Discard,
    Flush,
}

struct Entry {
    pending: bool,
    stamp: u64,
}

/// The scan-based LRU cache: every eviction scans the whole map for the
/// valid entry with the smallest stamp.
struct Model {
    capacity: usize,
    map: HashMap<BlockKey, Entry>,
    clock: u64,
    hits: u64,
    misses: u64,
    mutant: Mutant,
}

impl Model {
    fn new(capacity: usize, mutant: Mutant) -> Self {
        Model {
            capacity,
            map: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            mutant,
        }
    }

    fn lookup(&mut self, key: BlockKey) -> bool {
        self.clock += 1;
        match self.map.get_mut(&key) {
            Some(e) if !e.pending => {
                e.stamp = self.clock;
                self.hits += 1;
                true
            }
            _ => {
                self.misses += 1;
                false
            }
        }
    }

    fn peek(&self, key: BlockKey) -> bool {
        matches!(self.map.get(&key), Some(e) if !e.pending)
    }

    fn is_pending(&self, key: BlockKey) -> bool {
        matches!(self.map.get(&key), Some(e) if e.pending)
    }

    fn insert(&mut self, key: BlockKey, pending: bool) {
        let stamp = self.clock;
        self.map.insert(key, Entry { pending, stamp });
    }

    fn mark_pending(&mut self, key: BlockKey) {
        self.clock += 1;
        self.evict_if_needed();
        self.insert(key, true);
    }

    fn fill(&mut self, key: BlockKey) {
        self.clock += 1;
        if !self.map.contains_key(&key) {
            self.evict_if_needed();
        }
        self.insert(key, false);
    }

    fn invalidate(&mut self, key: BlockKey) {
        if self.peek(key) {
            self.map.remove(&key);
        }
    }

    fn discard(&mut self, key: BlockKey) {
        self.map.remove(&key);
    }

    fn flush(&mut self) {
        self.map.retain(|_, e| e.pending);
    }

    fn evict_if_needed(&mut self) {
        let mutant = self.mutant;
        while self.map.len() >= self.capacity {
            let candidates = self
                .map
                .iter()
                .filter(|(_, e)| mutant == Mutant::EvictPending || !e.pending);
            let victim = if mutant == Mutant::EvictNewest {
                candidates.max_by_key(|(_, e)| e.stamp)
            } else {
                candidates.min_by_key(|(_, e)| e.stamp)
            };
            match victim.map(|(k, _)| *k) {
                Some(k) => {
                    self.map.remove(&k);
                }
                None => break,
            }
        }
    }
}

/// The first query on which the two caches disagree, if any.
fn compare(real: &BufferCache, model: &Model, keys: &[BlockKey]) -> Result<(), String> {
    if real.len() != model.map.len() {
        return Err(format!("len {} vs model {}", real.len(), model.map.len()));
    }
    let model_hm = (model.hits, model.misses);
    if real.hit_miss() != model_hm {
        return Err(format!(
            "hit_miss {:?} vs model {model_hm:?}",
            real.hit_miss()
        ));
    }
    for &k in keys {
        let (rp, rq) = (real.peek(k), real.is_pending(k));
        let (mp, mq) = (model.peek(k), model.is_pending(k));
        if (rp, rq) != (mp, mq) {
            return Err(format!(
                "key {k:?}: peek/is_pending {rp}/{rq} vs model {mp}/{mq}"
            ));
        }
    }
    Ok(())
}

/// Runs one seeded op sequence on `BufferCache` and on the model and
/// returns the first disagreement, naming the step that caused it.
fn first_divergence(capacity: usize, seed: u64, mutant: Mutant) -> Option<String> {
    let mut rng = SimRng::new(seed);
    let n_keys = capacity as u64 * rng.gen_range(2..=4u64);
    // Two inodes, so equal block numbers of different files interleave.
    let keys: Vec<BlockKey> = (0..n_keys).map(|i| (1 + i % 2, i / 2)).collect();
    let mut real = BufferCache::new(capacity);
    let mut model = Model::new(capacity, mutant);
    let ops = 1_500.max(8 * keys.len());
    // Keys marked pending whose read has not completed yet.
    let mut in_flight: Vec<BlockKey> = Vec::new();
    // Scripted ops, popped from the back before any random one.
    let mut script: Vec<(Op, BlockKey)> = Vec::new();
    for step in 0..ops {
        // Now and then, pin every key, then complete every read: while
        // all of them are pending the cache overflows and nothing may be
        // evicted; once they are valid it must shrink to the newest.
        if script.is_empty() && step % 500 == 250 && rng.chance(0.5) {
            let mut release = keys.clone();
            rng.shuffle(&mut release);
            for k in release {
                let op = if rng.chance(0.8) {
                    Op::Fill
                } else {
                    Op::Discard
                };
                script.push((op, k));
            }
            let mut pin = keys.clone();
            rng.shuffle(&mut pin);
            script.extend(pin.into_iter().map(|k| (Op::MarkPending, k)));
            in_flight.clear();
        }
        let (op, k) = script.pop().unwrap_or_else(|| {
            // Reads complete about as often as they start, and removals
            // are rare, so the cache stays full and evicts valid blocks;
            // a flush (one op in 1,000) empties it of them.
            let k = keys[rng.gen_range(0..keys.len())];
            match rng.gen_range(0..1_000u32) {
                0..=349 => (Op::Lookup, k),
                350..=599 => (Op::Fill, k),
                600..=749 => {
                    in_flight.push(k);
                    (Op::MarkPending, k)
                }
                750..=899 if !in_flight.is_empty() => {
                    let k = in_flight.swap_remove(rng.gen_range(0..in_flight.len()));
                    let op = if rng.chance(0.9) {
                        Op::Fill
                    } else {
                        Op::Discard
                    };
                    (op, k)
                }
                750..=949 => (Op::Invalidate, k),
                950..=998 => (Op::Discard, k),
                _ => (Op::Flush, k),
            }
        });
        match op {
            Op::Lookup => {
                let (r, m) = (real.lookup(k), model.lookup(k));
                if r != m {
                    return Some(format!("step {step}: lookup {k:?} = {r} vs model {m}"));
                }
            }
            Op::Fill => {
                real.fill(k);
                model.fill(k);
            }
            Op::MarkPending => {
                real.mark_pending(k);
                model.mark_pending(k);
            }
            Op::Invalidate => {
                real.invalidate(k);
                model.invalidate(k);
            }
            Op::Discard => {
                real.discard(k);
                model.discard(k);
            }
            Op::Flush => {
                real.flush();
                model.flush();
            }
        }
        if let Err(e) = compare(&real, &model, &keys) {
            return Some(format!("step {step}: {e}"));
        }
    }
    None
}

fn seed_for(capacity: usize) -> u64 {
    0x00BC_AC4E ^ (capacity as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[test]
fn victim_list_matches_the_scan_on_every_sequence() {
    for cap in capacities() {
        let seed = seed_for(cap);
        if let Some(e) = first_divergence(cap, seed, Mutant::None) {
            panic!("capacity {cap}, seed {seed:#x}: {e}");
        }
    }
}

#[test]
fn the_sequences_catch_both_mutants() {
    for mutant in [Mutant::EvictNewest, Mutant::EvictPending] {
        // At capacity 1 the newest valid entry is the oldest one.
        let missed: Vec<usize> = capacities()
            .filter(|&cap| cap >= 2)
            .filter(|&cap| first_divergence(cap, seed_for(cap), mutant).is_none())
            .collect();
        assert!(
            missed.is_empty(),
            "{mutant:?} survived at capacities {missed:?}"
        );
    }
}
