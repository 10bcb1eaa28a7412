//! A sequence-number window: the keys at or above a moving base, each with
//! an optional value, as loss recovery keeps them.
//!
//! Both ends of a lossy flow track sequence numbers just above a moving
//! cumulative point: the sender's SACK scoreboard and retransmission marks
//! sit above its cumulative ACK, the receiver's reassembly buffer above the
//! next in-order segment.  Those keys are dense, bounded by the window, and
//! the base only ever moves up, so a ring of slots indexed by `seq - base`
//! holds them with O(1) insert, lookup and removal.  The ring keeps its
//! capacity when it empties or its base advances, so a flow allocates only
//! while its deepest loss episode so far grows it; an ordered tree grew its
//! nodes from empty in every episode and rebuilt itself on every advance.

use std::collections::VecDeque;

/// A set of sequence numbers `>= base`, each carrying a `V` (`()` for a
/// plain set), stored as a ring of slots indexed by offset from the base.
#[derive(Debug, Clone)]
pub struct SeqWindow<V> {
    /// No key is below this.
    base: u64,
    /// `slots[i]` is the entry for `base + i`.  Empty, or ending in `Some`:
    /// removing the highest key trims the empty slots below it, so an empty
    /// window holds no slots and advancing it is O(1).
    slots: VecDeque<Option<V>>,
    /// Number of `Some` slots.
    len: usize,
}

impl<V: Copy> SeqWindow<V> {
    /// An empty window based at 0.  Allocates nothing until the first insert.
    pub const fn new() -> Self {
        SeqWindow {
            base: 0,
            slots: VecDeque::new(),
            len: 0,
        }
    }

    /// The lowest sequence number the window can hold.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no key is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot index of `seq`, if it lies inside the held slots.
    fn offset(&self, seq: u64) -> Option<usize> {
        let off = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        (off < self.slots.len()).then_some(off)
    }

    /// The value stored for `seq`.
    pub fn get(&self, seq: u64) -> Option<V> {
        self.slots[self.offset(seq)?]
    }

    /// Whether `seq` is held.
    pub fn contains(&self, seq: u64) -> bool {
        self.get(seq).is_some()
    }

    /// Insert `seq` with `value`.  Returns `false`, keeping the stored
    /// value, if `seq` was already held.
    ///
    /// Panics if `seq` is below the base: the window cannot represent it,
    /// and every caller keeps its keys at or above its cumulative point.
    pub fn insert(&mut self, seq: u64, value: V) -> bool {
        assert!(
            seq >= self.base,
            "sequence {seq} inserted below the window base {}",
            self.base
        );
        let off = usize::try_from(seq - self.base).expect("window offset exceeds usize");
        if off >= self.slots.len() {
            self.slots.resize(off, None);
            self.slots.push_back(Some(value));
        } else if self.slots[off].is_some() {
            return false;
        } else {
            self.slots[off] = Some(value);
        }
        self.len += 1;
        true
    }

    /// Remove `seq`, returning its value if it was held.
    pub fn remove(&mut self, seq: u64) -> Option<V> {
        let off = self.offset(seq)?;
        let value = self.slots[off].take()?;
        self.len -= 1;
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        Some(value)
    }

    /// Remove the key at the base, if held, and move the base past it.
    pub fn pop_base(&mut self) -> Option<V> {
        let value = (*self.slots.front()?)?;
        self.slots.pop_front();
        self.base += 1;
        self.len -= 1;
        Some(value)
    }

    /// Move the base up to `base`, dropping every key below it (a `BTreeSet`
    /// `split_off(&base)` that keeps the upper half).  A `base` at or below
    /// the current one changes nothing.
    pub fn advance_to(&mut self, base: u64) {
        if base <= self.base {
            return;
        }
        let step = base - self.base;
        self.base = base;
        if step < self.slots.len() as u64 {
            // `step` is below a `usize` length, so the cast is exact.
            self.len -= self
                .slots
                .drain(..step as usize)
                .filter(Option::is_some)
                .count();
        } else if !self.slots.is_empty() {
            self.slots.clear();
            self.len = 0;
        }
    }

    /// Drop every key; the base stays where it is.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// The held keys in `lo..=hi`, ascending.
    pub fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = u64> + '_ {
        let first = lo.saturating_sub(self.base);
        let end = hi
            .checked_sub(self.base)
            .map_or(0, |off| off.saturating_add(1))
            .min(self.slots.len() as u64);
        let (first, end) = (first.min(end) as usize, end as usize);
        let base = self.base + first as u64;
        self.slots
            .range(first..end)
            .zip(base..)
            .filter_map(|(slot, seq)| slot.map(|_| seq))
    }

    /// The `n`-th highest key held (`n = 0` is the highest).
    pub fn nth_highest(&self, n: usize) -> Option<u64> {
        let (back, _) = self
            .slots
            .iter()
            .rev()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
            .nth(n)?;
        Some(self.base + (self.slots.len() - 1 - back) as u64)
    }
}

impl<V: Copy> Default for SeqWindow<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_new_window_and_its_lazy_growth() {
        let mut w = SeqWindow::<()>::new();
        assert_eq!(w.slots.capacity(), 0, "new() must not allocate");
        assert!(w.is_empty());
        assert!(w.insert(5, ()));
        assert!(!w.insert(5, ()));
        assert_eq!((w.len(), w.slots.len()), (1, 6));
        assert_eq!(w.range(0, u64::MAX).collect::<Vec<_>>(), [5]);
    }

    #[test]
    fn removing_the_top_trims_and_advancing_keeps_capacity() {
        let mut w = SeqWindow::new();
        for seq in [3, 9, 4] {
            w.insert(seq, seq as u32);
        }
        assert_eq!(w.remove(9), Some(9));
        assert_eq!(w.slots.len(), 5, "empty slots above 4 are trimmed");
        let capacity = w.slots.capacity();
        w.advance_to(4);
        assert_eq!((w.base(), w.len(), w.get(4)), (4, 1, Some(4)));
        w.advance_to(100);
        assert!(w.is_empty() && w.slots.is_empty());
        assert_eq!(w.slots.capacity(), capacity);
        w.advance_to(50);
        assert_eq!(w.base(), 100, "the base never moves down");
    }

    #[test]
    fn nth_highest_and_range_skip_empty_slots() {
        let mut w = SeqWindow::<()>::new();
        w.advance_to(10);
        for seq in [10, 12, 13, 17] {
            w.insert(seq, ());
        }
        let highest: Vec<_> = (0..5).map(|n| w.nth_highest(n)).collect();
        assert_eq!(highest, [Some(17), Some(13), Some(12), Some(10), None]);
        assert_eq!(w.range(11, 13).collect::<Vec<_>>(), [12, 13]);
        assert_eq!(w.range(0, 9).count(), 0);
        assert_eq!(w.range(14, 12).count(), 0);
        assert_eq!(w.range(18, u64::MAX).count(), 0);
    }

    #[test]
    #[should_panic(expected = "below the window base")]
    fn an_insert_below_the_base_panics() {
        let mut w = SeqWindow::<()>::new();
        w.advance_to(8);
        w.insert(7, ());
    }
}
