//! Equivalence proof-by-property for the sequence-number window.
//!
//! The sender's SACK scoreboard and retransmission marks were `BTreeSet`s,
//! and the receiver's reassembly buffer a `BTreeMap`; [`SeqWindow`] replaced
//! all three.  The simulator's outputs stay byte-identical only if the ring
//! answers every query exactly as the ordered collection did.  These tests
//! drive a `SeqWindow<u32>` against a `BTreeMap<u64, u32>` and a
//! `SeqWindow<()>` against a `BTreeSet<u64>` through random operations —
//! insert, lookup, removal, popping the base, base advance (`split_off`),
//! clear, n-th highest and range walks — and compare every answer, every
//! step.
//!
//! Keys cluster just above the base, as loss recovery's do, with a few far
//! above it (so the ring grows by many slots at once) and lookups and
//! removals below it (which must find nothing).

use nimbus_netsim::SeqWindow;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The map and the set pair, driven in lock step.
#[derive(Default)]
struct Pair {
    map: SeqWindow<u32>,
    map_ref: BTreeMap<u64, u32>,
    set: SeqWindow<()>,
    set_ref: BTreeSet<u64>,
}

impl Pair {
    fn insert(&mut self, seq: u64, value: u32, at: &str) {
        let want = !self.map_ref.contains_key(&seq);
        if want {
            self.map_ref.insert(seq, value);
        }
        assert_eq!(self.map.insert(seq, value), want, "{at}: map insert {seq}");
        assert_eq!(
            self.set.insert(seq, ()),
            self.set_ref.insert(seq),
            "{at}: set insert {seq}"
        );
    }

    fn remove(&mut self, seq: u64, at: &str) {
        assert_eq!(
            self.map.remove(seq),
            self.map_ref.remove(&seq),
            "{at}: map remove {seq}"
        );
        assert_eq!(
            self.set.remove(seq).is_some(),
            self.set_ref.remove(&seq),
            "{at}: set remove {seq}"
        );
    }

    /// The receiver's drain: take the key at the base, if held, and move
    /// the base past it.
    fn pop_base(&mut self, at: &str) {
        let base = self.map.base();
        assert_eq!(
            self.map.pop_base(),
            self.map_ref.remove(&base),
            "{at}: map pop at {base}"
        );
        assert_eq!(
            self.set.pop_base().is_some(),
            self.set_ref.remove(&base),
            "{at}: set pop at {base}"
        );
    }

    /// `split_off` keeps the keys at or above `base`; the window's base
    /// never moves down, so neither does the reference's.
    fn advance(&mut self, base: u64) {
        let base = base.max(self.map.base());
        self.map_ref = self.map_ref.split_off(&base);
        self.set_ref = self.set_ref.split_off(&base);
        self.map.advance_to(base);
        self.set.advance_to(base);
    }

    fn clear(&mut self) {
        self.map.clear();
        self.set.clear();
        self.map_ref.clear();
        self.set_ref.clear();
    }

    /// Every query the callers make, at `seq` and over `lo..=hi`.
    fn check(&self, seq: u64, lo: u64, hi: u64, at: &str) {
        assert_eq!(self.map.len(), self.map_ref.len(), "{at}: map len");
        assert_eq!(self.set.len(), self.set_ref.len(), "{at}: set len");
        assert_eq!(self.set.is_empty(), self.set_ref.is_empty(), "{at}");
        assert_eq!(
            self.map.get(seq),
            self.map_ref.get(&seq).copied(),
            "{at}: get {seq}"
        );
        assert_eq!(self.set.contains(seq), self.set_ref.contains(&seq), "{at}");
        for n in 0..4 {
            assert_eq!(
                self.map.nth_highest(n),
                self.map_ref.keys().nth_back(n).copied(),
                "{at}: map {n}-th highest"
            );
            assert_eq!(
                self.set.nth_highest(n),
                self.set_ref.iter().nth_back(n).copied(),
                "{at}: set {n}-th highest"
            );
        }
        let (map_want, set_want): (Vec<u64>, Vec<u64>) = if lo <= hi {
            (
                self.map_ref.range(lo..=hi).map(|(&k, _)| k).collect(),
                self.set_ref.range(lo..=hi).copied().collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        assert_eq!(
            self.map.range(lo, hi).collect::<Vec<_>>(),
            map_want,
            "{at}: map range {lo}..={hi}"
        );
        assert_eq!(
            self.set.range(lo, hi).collect::<Vec<_>>(),
            set_want,
            "{at}: set range {lo}..={hi}"
        );
    }
}

/// A key around the base: mostly within a window's reach above it, now and
/// then far above it or below it.
fn key(rng: &mut TestRng, base: u64) -> u64 {
    match rng.range_u64(0, 16) {
        0 => base + rng.range_u64(0, 5000),
        1 => base.saturating_sub(rng.range_u64(1, 64)),
        _ => base + rng.range_u64(0, 64),
    }
}

proptest! {
    #[test]
    fn seq_window_answers_like_the_ordered_collections(seed in 0u64..1_000_000) {
        let mut rng = TestRng::new(seed);
        let mut pair = Pair::default();
        // Some cases start high, as a flow's window does after a long run.
        pair.advance(rng.range_u64(0, 2) * (u64::MAX / 2));
        for step in 0..400 {
            let at = format!("seed={seed} step={step}");
            let base = pair.map.base();
            match rng.range_u64(0, 20) {
                0..=8 => {
                    let seq = key(&mut rng, base).max(base);
                    pair.insert(seq, rng.next_u64() as u32, &at);
                }
                9..=12 => {
                    // Removal, mostly of held keys (the receiver drains from
                    // the base; the sender drops stale marks).
                    let seq = match rng.range_u64(0, 3) {
                        0 => key(&mut rng, base),
                        1 => base,
                        _ => pair.map_ref.keys().next().copied().unwrap_or(base),
                    };
                    pair.remove(seq, &at);
                }
                13..=16 => {
                    // A cumulative point moving up: by a few, past some held
                    // keys, or past everything.
                    let target = match rng.range_u64(0, 4) {
                        0 => pair.map_ref.keys().nth_back(1).copied().unwrap_or(base),
                        1 => base + rng.range_u64(0, 8000),
                        _ => base + rng.range_u64(0, 8),
                    };
                    pair.advance(target);
                }
                17 => pair.clear(),
                18 => {
                    // Drain a run from the base, as the receiver does.
                    for _ in 0..rng.range_u64(1, 8) {
                        pair.pop_base(&at);
                    }
                }
                _ => {}
            }
            let base = pair.map.base();
            let seq = key(&mut rng, base);
            let lo = key(&mut rng, base);
            let hi = if rng.range_u64(0, 8) == 0 { u64::MAX } else { key(&mut rng, base) };
            pair.check(seq, lo, hi, &at);
        }
        let all: Vec<u64> = pair.map_ref.keys().copied().collect();
        prop_assert_eq!(pair.map.range(0, u64::MAX).collect::<Vec<_>>(), all);
    }
}
