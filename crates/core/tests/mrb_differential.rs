//! Differential test: [`MetadataReuseBuffer`] against a naive reference.
//!
//! The reference models the paper's buffer (Section 4.6) as directly as
//! possible: each set is a list of its entries in arrival order, the
//! oldest first, so FIFO replacement is "drop the front" and no FIFO
//! stamps are compared. Each entry also remembers which of the two ways
//! it sits in and the ordinal of the `insert` call that brought it in,
//! only because the buffer's snapshot format records both. The set
//! index is the buffer's `xor_fold(line, 20)`.
//!
//! Seeded `lookup`/`peek`/`insert`/`invalidate` sequences drive both;
//! every result, the hit and miss counts, and the snapshot bytes must
//! agree.

use triangel_core::MetadataReuseBuffer;
use triangel_types::rng::SplitMix64;
use triangel_types::snap::{SnapWriter, Snapshot};
use triangel_types::{xor_fold, LineAddr};

const WAYS: usize = 2;

#[derive(Debug, Clone, Copy)]
struct RefEntry {
    lookup: LineAddr,
    target: LineAddr,
    confidence: bool,
    way: usize,
    /// Ordinal of the `insert` call the entry arrived with.
    arrival: u64,
}

#[derive(Debug)]
struct RefMrb {
    /// Per set, the resident entries, oldest arrival first.
    sets: Vec<Vec<RefEntry>>,
    inserts: u64,
    hits: u64,
    misses: u64,
}

impl RefMrb {
    fn new(entries: usize) -> Self {
        RefMrb {
            sets: vec![Vec::new(); (entries / WAYS).next_power_of_two()],
            inserts: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set(&mut self, lookup: LineAddr) -> &mut Vec<RefEntry> {
        let n = self.sets.len();
        &mut self.sets[xor_fold(lookup.index(), 20) as usize % n]
    }

    fn peek(&mut self, lookup: LineAddr) -> Option<(LineAddr, bool)> {
        let e = self.set(lookup).iter().find(|e| e.lookup == lookup)?;
        Some((e.target, e.confidence))
    }

    fn lookup(&mut self, lookup: LineAddr) -> Option<(LineAddr, bool)> {
        let found = self.peek(lookup);
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    fn insert(&mut self, lookup: LineAddr, target: LineAddr, confidence: bool) {
        self.inserts += 1;
        let arrival = self.inserts;
        let set = self.set(lookup);
        if let Some(e) = set.iter_mut().find(|e| e.lookup == lookup) {
            // A refresh is not a re-arrival.
            e.target = target;
            e.confidence = confidence;
            return;
        }
        let way = if set.len() == WAYS {
            set.remove(0).way
        } else {
            (0..WAYS).find(|w| set.iter().all(|e| e.way != *w)).unwrap()
        };
        set.push(RefEntry {
            lookup,
            target,
            confidence,
            way,
            arrival,
        });
    }

    fn invalidate(&mut self, lookup: LineAddr) {
        self.set(lookup).retain(|e| e.lookup != lookup);
    }

    /// The buffer's snapshot format: every slot set-major, then the
    /// insert count and the hit and miss counts.
    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.usize(self.sets.len() * WAYS);
        for set in &self.sets {
            for way in 0..WAYS {
                match set.iter().find(|e| e.way == way) {
                    Some(e) => {
                        w.bool(true);
                        w.u64(e.lookup.index());
                        w.u64(e.target.index());
                        w.bool(e.confidence);
                        w.u64(e.arrival);
                    }
                    None => w.bool(false),
                }
            }
        }
        w.u64(self.inserts);
        w.u64(self.hits);
        w.u64(self.misses);
        w.into_bytes()
    }
}

fn snapshot(m: &MetadataReuseBuffer) -> Vec<u8> {
    let mut w = SnapWriter::new();
    m.save(&mut w).unwrap();
    w.into_bytes()
}

/// Runs `steps` seeded operations over `keys` distinct lookup lines.
fn run(entries: usize, keys: u64, seed: u64, steps: usize) {
    let mut m = MetadataReuseBuffer::new(entries);
    let mut r = RefMrb::new(entries);
    let mut rng = SplitMix64::new(seed);
    for step in 0..steps {
        // Spread the keys over the address space so the fold mixes
        // high bits into the set index.
        let key = LineAddr::new(rng.next_below(keys).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 8);
        match rng.next_below(10) {
            0..=3 => assert_eq!(m.lookup(key), r.lookup(key), "lookup at step {step}"),
            4 => assert_eq!(m.peek(key), r.peek(key), "peek at step {step}"),
            5..=8 => {
                let target = LineAddr::new(rng.next_below(1 << 40));
                let confidence = rng.chance(0.5);
                m.insert(key, target, confidence);
                r.insert(key, target, confidence);
            }
            _ => {
                m.invalidate(key);
                r.invalidate(key);
            }
        }
        assert_eq!(
            (m.hits(), m.misses()),
            (r.hits, r.misses),
            "counts at step {step}"
        );
        if step % 256 == 0 {
            assert_eq!(snapshot(&m), r.snapshot(), "snapshot at step {step}");
        }
    }
    assert_eq!(snapshot(&m), r.snapshot(), "final snapshot");
    assert!(m.hits() > 0 && m.misses() > 0);
}

#[test]
fn paper_mrb_matches_reference() {
    // The paper's 256 entries, with twice as many keys as slots.
    for seed in [1, 2, 3] {
        run(256, 512, seed, 20_000);
    }
}

#[test]
fn small_and_odd_sized_mrbs_match_reference() {
    // 2 entries is one set; 6 rounds 3 sets up to 4.
    run(2, 6, 7, 5_000);
    run(6, 24, 8, 5_000);
}
