//! Containers for ids the simulator issues itself.
//!
//! [`IdWindow`] maps ids handed out in increasing order (op ids, read ids,
//! I/O tags) to their state. Such ids retire in any order, but the live
//! ones always sit in a narrow band above the oldest one still in
//! flight, so a deque indexed by `id - base` replaces a hash map: a
//! lookup is one subtraction and one bounds check.
//!
//! [`Waitlist`] is a list of waiters that holds its first entry inline.
//! A block almost always has exactly one waiter, so a wait list that
//! stays at one entry never touches the heap.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};

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

    /// Appends `waiter` to the list under `key`, starting the list if
    /// there is none.
    #[inline]
    pub fn push_to<K: Hash + Eq, S: BuildHasher>(
        map: &mut HashMap<K, Waitlist<T>, S>,
        key: K,
        waiter: T,
    ) where
        T: Copy,
    {
        map.entry(key)
            .and_modify(|l| l.push(waiter))
            .or_insert_with(|| Waitlist::new(waiter));
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
        let mut map = HashMap::new();
        Waitlist::push_to(&mut map, 'k', 1);
        Waitlist::push_to(&mut map, 'k', 2);
        let l = map.remove(&'k').unwrap();
        assert_eq!(l.into_iter().collect::<Vec<_>>(), [1, 2]);
    }
}
