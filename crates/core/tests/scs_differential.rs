//! Differential test: [`SecondChanceSampler`] against a naive reference.
//!
//! The reference models the paper's sampler (Section 4.4.2) as directly
//! as possible: a FIFO list of parked `(target, train_idx, deadline)`
//! entries, the oldest first. An entry is displaced once as many later
//! inserts have arrived as the sampler has slots, whether or not earlier
//! entries were resolved in between. Each entry also remembers the
//! ordinal of the `insert` call that parked it, only because the
//! sampler's slot order (which of two matching entries `check` finds
//! first, and the snapshot layout) is that ordinal modulo the slot
//! count.
//!
//! Seeded `insert`/`check` sequences drive both; every outcome, every
//! displaced index, the occupancy and the snapshot bytes must agree.

use triangel_core::{ScsOutcome, SecondChanceSampler};
use triangel_types::rng::SplitMix64;
use triangel_types::snap::{SnapWriter, Snapshot};
use triangel_types::LineAddr;

#[derive(Debug, Clone, Copy)]
struct Parked {
    target: LineAddr,
    train_idx: u16,
    deadline: u64,
    /// Ordinal of the `insert` call that parked the entry.
    arrival: u64,
}

#[derive(Debug)]
struct RefScs {
    entries: u64,
    window: u64,
    /// Parked entries, oldest arrival first.
    fifo: Vec<Parked>,
    inserts: u64,
}

impl RefScs {
    fn new(entries: usize, window: u64) -> Self {
        RefScs {
            entries: entries as u64,
            window,
            fifo: Vec::new(),
            inserts: 0,
        }
    }

    fn slot(&self, e: &Parked) -> u64 {
        e.arrival % self.entries
    }

    fn insert(&mut self, target: LineAddr, train_idx: u16, now: u64) -> Option<u16> {
        let arrival = self.inserts;
        self.inserts += 1;
        let displaced = match self.fifo.first() {
            Some(oldest) if oldest.arrival + self.entries == arrival => {
                Some(self.fifo.remove(0).train_idx)
            }
            _ => None,
        };
        self.fifo.push(Parked {
            target,
            train_idx,
            deadline: now + self.window,
            arrival,
        });
        displaced
    }

    fn check(&mut self, addr: LineAddr, train_idx: u16, now: u64) -> Option<ScsOutcome> {
        let i = (0..self.fifo.len())
            .filter(|&i| self.fifo[i].target == addr && self.fifo[i].train_idx == train_idx)
            .min_by_key(|&i| self.slot(&self.fifo[i]))?;
        let e = self.fifo.remove(i);
        Some(if now <= e.deadline {
            ScsOutcome::WithinWindow
        } else {
            ScsOutcome::OutsideWindow
        })
    }

    /// The sampler's snapshot format: every slot in slot order, then
    /// the FIFO cursor.
    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.usize(self.entries as usize);
        for slot in 0..self.entries {
            match self.fifo.iter().find(|e| self.slot(e) == slot) {
                Some(e) => {
                    w.bool(true);
                    w.u64(e.target.index());
                    w.u16(e.train_idx);
                    w.u64(e.deadline);
                }
                None => w.bool(false),
            }
        }
        w.usize((self.inserts % self.entries) as usize);
        w.into_bytes()
    }
}

fn snapshot(s: &SecondChanceSampler) -> Vec<u8> {
    let mut w = SnapWriter::new();
    s.save(&mut w).unwrap();
    w.into_bytes()
}

/// Runs `steps` seeded operations over `targets` distinct target lines
/// and `pcs` training indices, advancing the fill clock by up to
/// `2 * window / 3` per step so both outcomes occur.
fn run(entries: usize, window: u64, targets: u64, pcs: u64, seed: u64, steps: usize) {
    let mut s = SecondChanceSampler::new(entries, window);
    let mut r = RefScs::new(entries, window);
    let mut rng = SplitMix64::new(seed);
    let mut now = 0u64;
    let (mut within, mut outside, mut displaced) = (0, 0, 0);
    for step in 0..steps {
        now += rng.next_below(2 * window / 3 + 1);
        let target = LineAddr::new(rng.next_below(targets) << 6);
        let train_idx = rng.next_below(pcs) as u16;
        if rng.chance(0.5) {
            let got = s.insert(target, train_idx, now);
            assert_eq!(
                got,
                r.insert(target, train_idx, now),
                "insert at step {step}"
            );
            displaced += got.is_some() as u32;
        } else {
            let got = s.check(target, train_idx, now);
            assert_eq!(got, r.check(target, train_idx, now), "check at step {step}");
            match got {
                Some(ScsOutcome::WithinWindow) => within += 1,
                Some(ScsOutcome::OutsideWindow) => outside += 1,
                None => {}
            }
        }
        assert_eq!(s.occupancy(), r.fifo.len(), "occupancy at step {step}");
        if step % 64 == 0 {
            assert_eq!(snapshot(&s), r.snapshot(), "snapshot at step {step}");
        }
    }
    assert_eq!(snapshot(&s), r.snapshot(), "final snapshot");
    assert!(
        within > 0 && outside > 0 && displaced > 0,
        "every outcome exercised: {within} within, {outside} outside, {displaced} displaced"
    );
}

#[test]
fn paper_scs_matches_reference() {
    // The paper's 64 entries and 512-fill window.
    for seed in [1, 2, 3] {
        run(64, 512, 96, 4, seed, 20_000);
    }
}

#[test]
fn small_scs_with_duplicate_parks_matches_reference() {
    // One slot is the ring's edge. With five slots, four targets and
    // one PC park the same pair more than once, so `check` must pick
    // the lowest slot among several matches.
    run(1, 8, 2, 1, 7, 5_000);
    run(5, 8, 4, 1, 8, 5_000);
}
