//! Differential model test for the buffer cache's exact-LRU eviction.
//! `BufferCache` keeps its valid blocks on an intrusive list in use order
//! and finds blocks through per-file indexes instead of a map keyed by
//! `(ino, blk)`; it must still answer every query exactly as a plain
//! scan-based cache does. The reference [`Model`] below is that cache.
//!
//! Seeded random sequences of `lookup`/`mark_pending`/`fill`/`invalidate`/
//! `discard`/`flush` run on both caches, over capacities 1–64 plus a
//! larger one, with key spaces 2–4× the capacity and phases that pin every
//! key so the cache overflows. Three key shapes: two inodes with dense
//! block numbers; 40 inodes, most of up to 4 blocks (inline indexes) and
//! every fourth larger (heap indexes); and three inodes with sparse block
//! numbers below 2²⁰. Now and then an op names a key that is never
//! inserted (an unknown inode, a block past any file, a block past 32
//! bits); it must change nothing, and `approx_heap_bytes` must not move.
//! After every op both caches must agree on `len`, `hit_miss`, and
//! `peek`/`is_pending`/`holds` for every key. Two mutant models (evict
//! the newest valid entry; evict pending entries too) show that the
//! sequences catch a wrong victim. The cache's own structural invariants are walked after
//! every op by a unit test in `src/bcache.rs`.

use std::collections::HashMap;

use ffs::{BlockKey, BufferCache};
use simcore::SimRng;

/// Capacities driven for the dense shape: 1–64, then 128.
fn capacities() -> impl Iterator<Item = usize> {
    (1..=64).chain([128])
}

/// Capacities driven for the other shapes.
const SOME_CAPACITIES: [usize; 11] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 64, 128];

/// How a sequence's keys are laid out over inodes and blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Two inodes, so equal block numbers of different files interleave.
    Dense,
    /// 40 inodes: most of 1–4 blocks, every fourth larger.
    ManyFiles,
    /// Three inodes with random block numbers below 2²⁰.
    Sparse,
}

impl Shape {
    /// About `n` distinct keys of this shape.
    fn keys(self, n: u64, rng: &mut SimRng) -> Vec<BlockKey> {
        match self {
            Shape::Dense => (0..n).map(|i| (1 + i % 2, i / 2)).collect(),
            Shape::ManyFiles => {
                let sizes: Vec<u64> = (0..40u64)
                    .map(|j| {
                        if j % 4 == 0 {
                            // Ten large files share what the small ones leave.
                            (n.saturating_sub(75) / 10).max(5)
                        } else {
                            rng.gen_range(1..=4u64)
                        }
                    })
                    .collect();
                (0..40u64)
                    .flat_map(|j| (0..sizes[j as usize]).map(move |b| (1_000 + 37 * j, b)))
                    .collect()
            }
            Shape::Sparse => {
                let mut keys: Vec<BlockKey> = (0..n)
                    .map(|i| (7 + i % 3, rng.gen_range(0..1u64 << 20)))
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                keys
            }
        }
    }
}

/// Keys that no sequence ever inserts: an unknown inode, a block past
/// every file, a block past 32 bits.
fn ghosts(keys: &[BlockKey]) -> Vec<BlockKey> {
    let ino = keys[0].0;
    vec![(u64::MAX, 0), (ino, (1 << 21) + 5), (ino, 1 << 40), (0, 3)]
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
        if real.holds(k) != (mp || mq) {
            return Err(format!("key {k:?}: holds disagrees with the model"));
        }
    }
    Ok(())
}

/// Runs one seeded op sequence on `BufferCache` and on the model and
/// returns the first disagreement, naming the step that caused it.
fn first_divergence(shape: Shape, capacity: usize, seed: u64, mutant: Mutant) -> Option<String> {
    let mut rng = SimRng::new(seed);
    let n_keys = capacity as u64 * rng.gen_range(2..=4u64);
    let keys = shape.keys(n_keys, &mut rng);
    let ghosts = ghosts(&keys);
    assert!(ghosts.iter().all(|g| !keys.contains(g)));
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
        // One op in 20 names a never-inserted key; removals and lookups of
        // it must not grow any index.
        if script.is_empty() && rng.chance(0.05) {
            let g = ghosts[rng.gen_range(0..ghosts.len())];
            let before = real.approx_heap_bytes();
            let op = match rng.gen_range(0..5u32) {
                0 => {
                    let (r, m) = (real.lookup(g), model.lookup(g));
                    if r || m {
                        return Some(format!("step {step}: lookup of ghost {g:?} hit"));
                    }
                    "lookup"
                }
                1 => {
                    real.invalidate(g);
                    model.invalidate(g);
                    "invalidate"
                }
                2 => {
                    real.discard(g);
                    model.discard(g);
                    "discard"
                }
                _ => {
                    if real.peek(g) || real.is_pending(g) {
                        return Some(format!("step {step}: ghost {g:?} is resident"));
                    }
                    "peek"
                }
            };
            if real.approx_heap_bytes() != before {
                return Some(format!(
                    "step {step}: {op} of ghost {g:?} moved approx_heap_bytes {before} -> {}",
                    real.approx_heap_bytes()
                ));
            }
            if let Err(e) = compare(&real, &model, &keys) {
                return Some(format!("step {step}: {op} of ghost {g:?}: {e}"));
            }
            continue;
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

fn seed_for(shape: Shape, capacity: usize) -> u64 {
    let salt = match shape {
        Shape::Dense => 0,
        Shape::ManyFiles => 0x5A1E_0001,
        Shape::Sparse => 0x5A1E_0002,
    };
    0x00BC_AC4E ^ salt ^ (capacity as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn shape_capacities(shape: Shape) -> Vec<usize> {
    match shape {
        Shape::Dense => capacities().collect(),
        _ => SOME_CAPACITIES.to_vec(),
    }
}

fn matches_the_scan(shape: Shape) {
    for cap in shape_capacities(shape) {
        let seed = seed_for(shape, cap);
        if let Some(e) = first_divergence(shape, cap, seed, Mutant::None) {
            panic!("{shape:?}, capacity {cap}, seed {seed:#x}: {e}");
        }
    }
}

fn catches_both_mutants(shape: Shape) {
    for mutant in [Mutant::EvictNewest, Mutant::EvictPending] {
        // At capacity 1 the newest valid entry is the oldest one.
        let missed: Vec<usize> = shape_capacities(shape)
            .into_iter()
            .filter(|&cap| cap >= 2)
            .filter(|&cap| first_divergence(shape, cap, seed_for(shape, cap), mutant).is_none())
            .collect();
        assert!(
            missed.is_empty(),
            "{shape:?}: {mutant:?} survived at capacities {missed:?}"
        );
    }
}

#[test]
fn dense_keys_match_the_scan_on_every_sequence() {
    matches_the_scan(Shape::Dense);
}

#[test]
fn many_files_match_the_scan_on_every_sequence() {
    matches_the_scan(Shape::ManyFiles);
}

#[test]
fn sparse_blocks_match_the_scan_on_every_sequence() {
    matches_the_scan(Shape::Sparse);
}

#[test]
fn the_sequences_catch_both_mutants() {
    for shape in [Shape::Dense, Shape::ManyFiles, Shape::Sparse] {
        catches_both_mutants(shape);
    }
}
