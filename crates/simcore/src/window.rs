//! Containers for ids the simulator issues itself.
//!
//! [`IdWindow`] maps ids handed out in increasing order (op ids, read ids,
//! flush tags) to their state. Such ids retire in any order, but the live
//! ones usually sit in a narrow band above the oldest one still in
//! flight, so a deque indexed by `id - base` replaces a hash map: a
//! lookup is one subtraction and one bounds check. One id held for long
//! keeps the band open behind it; state that can be held that way (a disk
//! I/O stuck in the drive) belongs in a [`Slab`].
//!
//! [`Slab`] hands out small slot numbers for entries that come and go
//! in any order (calls in service, disk I/Os in flight, per-file books)
//! and reuses a freed slot before it makes a new one, so its slot
//! numbers stay below the most entries ever live at once.
//!
//! [`Waitlist`] is a list of waiters that holds its first entry inline.
//! An RPC almost always has exactly one waiter, so a wait list that
//! stays at one entry never touches the heap.

use std::collections::VecDeque;
use std::mem::size_of;
use std::ops::{Index, IndexMut};

/// A map from ids issued in increasing order to their state.
///
/// `insert` takes ids above every id inserted before (gaps are allowed);
/// `remove` takes them in any order. Slots below the oldest live id are
/// dropped as it retires, so the window spans from the oldest live id to
/// the newest one.
#[derive(Debug, Clone)]
pub struct IdWindow<T> {
    /// The id of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        IdWindow {
            base: 0,
            slots: VecDeque::new(),
        }
    }
}

impl<T> IdWindow<T> {
    #[inline]
    fn index(&self, id: u64) -> Option<usize> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    /// Records `value` under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not above every id inserted earlier.
    #[inline]
    pub fn insert(&mut self, id: u64, value: T) {
        if self.slots.is_empty() {
            self.base = self.base.max(id);
        }
        let end = self.base + self.slots.len() as u64;
        assert!(id >= end, "id {id} issued out of order (next is {end})");
        for _ in end..id {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(value));
    }

    /// The state of `id`, if it is live.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots[self.index(id)?].as_ref()
    }

    /// Mutable access to the state of `id`, if it is live.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let i = self.index(id)?;
        self.slots[i].as_mut()
    }

    /// Retires `id`, returning its state if it was live.
    #[inline]
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let i = self.index(id)?;
        let value = self.slots[i].take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    /// Slots the window holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// The live ids, in increasing order.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots
            .iter()
            .zip(self.base..)
            .filter_map(|(s, id)| s.as_ref().map(|_| id))
    }
}

/// Entries by slot number; released slots are reused before new ones.
///
/// A slot names its entry from `take` or `insert` until `release`. A
/// released entry stays where it is until its slot is handed out again,
/// so a `take` that reuses it can keep its buffers.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<T>,
    /// Released slots, reused last-released first.
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Takes a slot: a released one, handed to `reuse` to reset, or a new
    /// one holding `fresh()`.
    ///
    /// # Panics
    ///
    /// Panics if 2³² slots would be live at once.
    pub fn take(&mut self, reuse: impl FnOnce(&mut T), fresh: impl FnOnce() -> T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                reuse(&mut self.slots[slot as usize]);
                slot
            }
            None => self.push(fresh()),
        }
    }

    /// Stores `value` in a released slot or a new one.
    ///
    /// # Panics
    ///
    /// Panics if 2³² slots would be live at once.
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = value;
                slot
            }
            None => self.push(value),
        }
    }

    fn push(&mut self, value: T) -> u32 {
        let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 slots");
        self.slots.push(value);
        slot
    }

    /// Releases `slot` for reuse; its entry stays in place until then.
    pub fn release(&mut self, slot: u32) {
        debug_assert!(
            (slot as usize) < self.slots.len(),
            "slot {slot} was never taken"
        );
        self.free.push(slot);
    }

    /// Live entries.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots made so far, live or released: the most entries ever live
    /// at once.
    pub fn peak(&self) -> usize {
        self.slots.len()
    }

    /// Every entry, released ones included, in slot order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.slots.iter()
    }

    /// Heap bytes of the entries and the free list, from capacities (not
    /// counting what the entries themselves own).
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<T>() + self.free.capacity() * size_of::<u32>()
    }
}

impl<T> Index<u32> for Slab<T> {
    type Output = T;

    #[inline]
    fn index(&self, slot: u32) -> &T {
        &self.slots[slot as usize]
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, slot: u32) -> &mut T {
        &mut self.slots[slot as usize]
    }
}

/// A list of waiters whose first entry lives inline: a list of one does
/// not allocate. Iteration yields the entries in the order pushed.
#[derive(Debug, Clone)]
pub struct Waitlist<T> {
    first: T,
    rest: Vec<T>,
}

impl<T> Waitlist<T> {
    /// A list holding `first`.
    #[inline]
    pub fn new(first: T) -> Self {
        Waitlist {
            first,
            rest: Vec::new(),
        }
    }

    /// Appends a waiter.
    #[inline]
    pub fn push(&mut self, waiter: T) {
        self.rest.push(waiter);
    }
}

impl<T> IntoIterator for Waitlist<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::iter::Once<T>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        std::iter::once(self.first).chain(self.rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_retire_in_any_order() {
        let mut w = IdWindow::default();
        for id in 10..20u64 {
            w.insert(id, id * 2);
        }
        assert_eq!(w.remove(15), Some(30));
        assert_eq!(w.remove(15), None, "retired twice");
        assert_eq!(w.get_mut(15), None);
        assert_eq!(w.get(16), Some(&32));
        assert_eq!(w.remove(10), Some(20));
        assert_eq!(
            w.ids().collect::<Vec<_>>(),
            [11, 12, 13, 14, 16, 17, 18, 19]
        );
        *w.get_mut(19).unwrap() += 1;
        assert_eq!(w.remove(19), Some(39));
        for id in [11, 12, 13, 14, 16, 17, 18] {
            assert!(w.remove(id).is_some());
        }
        assert_eq!(w.ids().count(), 0);
        assert!(w.slots.is_empty());
    }

    #[test]
    fn unknown_and_hostile_ids_are_absent() {
        let mut w = IdWindow::default();
        assert_eq!(w.get_mut(0), None);
        w.insert(5, 'a');
        w.insert(8, 'b'); // a gap
        for id in [0, 4, 6, 7, 9, u64::MAX] {
            assert_eq!(w.get(id), None, "id {id}");
            assert_eq!(w.get_mut(id), None, "id {id}");
            assert_eq!(w.remove(id), None, "id {id}");
        }
        assert_eq!(w.ids().collect::<Vec<_>>(), [5, 8]);
    }

    #[test]
    fn window_spans_only_the_live_band() {
        let mut w = IdWindow::default();
        for id in 0..1_000u64 {
            w.insert(id, ());
            if id >= 3 {
                w.remove(id - 3);
            }
        }
        assert_eq!(w.slots.len(), 3, "retired front slots are dropped");
        for id in 997..1_000 {
            w.remove(id);
        }
        // Empty: the next id may come after a gap.
        w.insert(5_000, ());
        assert_eq!(w.slots.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn reissued_id_panics() {
        let mut w = IdWindow::default();
        w.insert(3, ());
        w.remove(3);
        w.insert(3, ());
    }

    #[test]
    fn waitlist_keeps_push_order() {
        let mut l = Waitlist::new(1);
        assert_eq!(l.rest.capacity(), 0, "one waiter does not allocate");
        l.push(2);
        l.push(3);
        assert_eq!(l.into_iter().collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn a_released_slot_is_reused_with_its_buffers() {
        let mut s: Slab<Vec<u32>> = Slab::default();
        let a = s.take(Vec::clear, || vec![1, 2, 3]);
        let b = s.insert(vec![4]);
        assert_eq!((a, b, s.live(), s.peak()), (0, 1, 2, 2));
        s.release(a);
        assert_eq!(s.live(), 1);
        let c = s.take(Vec::clear, Vec::new);
        assert_eq!(c, a, "the freed slot comes back first");
        assert!(s[c].is_empty() && s[c].capacity() >= 3, "its buffer stays");
        s[c].push(9);
        assert_eq!(s.iter().collect::<Vec<_>>(), [&vec![9], &vec![4]]);
        assert_eq!(s.peak(), 2, "no new slot while one was free");
    }
}
