//! Differential test: [`HistorySampler`] against a naive reference.
//!
//! The reference models the paper's sampler (Section 4.4, Fig. 7) as a
//! plain list of samples. Each sample carries the set its address
//! hashes to, the way it sits in, its tag and training slot, its target,
//! timestamp and used bit, and the ordinal of the `insert` that parked
//! it. A sample is found by scanning the whole list for its set, tag and
//! slot. An insert overwrites a sample with the same key in place, else
//! takes the lowest free way of its set, else replaces the set's sample
//! with the oldest ordinal (FIFO). The ways are tracked only because
//! the snapshot lays the slots out by way.
//!
//! Seeded `lookup`/`update_target`/`insert`/`should_sample` sequences
//! drive both; every verdict, every displaced sample, every sampling
//! decision, the occupancy and the snapshot bytes must agree.

use triangel_core::{HistorySampler, SampleVerdict};
use triangel_types::rng::{Lcg, SplitMix64};
use triangel_types::snap::{SnapWriter, Snapshot};
use triangel_types::{xor_fold, LineAddr};

const WAYS: usize = 2;

#[derive(Debug, Clone, Copy)]
struct RefSample {
    set: usize,
    way: usize,
    tag: u32,
    train_idx: u16,
    target: LineAddr,
    timestamp: u32,
    used: bool,
    /// Ordinal of the `insert` call that wrote the sample.
    arrival: u64,
}

/// What an insert displaced: `(train_idx, timestamp, used)`.
type Displaced = (u16, u32, bool);

#[derive(Debug)]
struct RefSampler {
    sets: usize,
    samples: Vec<RefSample>,
    inserts: u64,
    rng: Lcg,
}

impl RefSampler {
    fn new(entries: usize, seed: u64) -> Self {
        RefSampler {
            sets: (entries / WAYS).next_power_of_two(),
            samples: Vec::new(),
            inserts: 0,
            rng: Lcg::new(seed),
        }
    }

    fn key(&self, addr: LineAddr) -> (usize, u32) {
        let set = xor_fold(addr.index(), 20) as usize % self.sets;
        let tag = xor_fold(addr.index().rotate_left(17), 16) as u32;
        (set, tag)
    }

    fn find(&self, addr: LineAddr, train_idx: u16) -> Option<usize> {
        let (set, tag) = self.key(addr);
        self.samples
            .iter()
            .position(|s| s.set == set && s.tag == tag && s.train_idx == train_idx)
    }

    fn should_sample(&mut self, sample_rate: u32, max_size: u64) -> bool {
        let capacity = (self.sets * WAYS) as f64;
        let p = capacity / max_size as f64 * (sample_rate as f64 - 8.0).exp2();
        self.rng.chance(p)
    }

    fn lookup(
        &mut self,
        addr: LineAddr,
        train_idx: u16,
        now_ts: u32,
        observed_target: LineAddr,
    ) -> Option<SampleVerdict> {
        let i = self.find(addr, train_idx)?;
        let s = &mut self.samples[i];
        let verdict = SampleVerdict {
            target: s.target,
            timestamp: s.timestamp,
            previously_used: s.used,
        };
        s.used = true;
        s.timestamp = now_ts;
        s.target = observed_target;
        Some(verdict)
    }

    fn update_target(&mut self, addr: LineAddr, train_idx: u16, target: LineAddr) {
        if let Some(i) = self.find(addr, train_idx) {
            self.samples[i].target = target;
        }
    }

    fn insert(
        &mut self,
        addr: LineAddr,
        train_idx: u16,
        target: LineAddr,
        timestamp: u32,
    ) -> Option<Displaced> {
        self.inserts += 1;
        let (set, tag) = self.key(addr);
        let mut new = RefSample {
            set,
            way: 0,
            tag,
            train_idx,
            target,
            timestamp,
            used: false,
            arrival: self.inserts,
        };
        let victim = self.find(addr, train_idx).or_else(|| {
            let in_set: Vec<usize> = (0..self.samples.len())
                .filter(|&i| self.samples[i].set == set)
                .collect();
            if in_set.len() == WAYS {
                in_set.into_iter().min_by_key(|&i| self.samples[i].arrival)
            } else {
                None
            }
        });
        match victim {
            Some(i) => {
                let old = self.samples[i];
                new.way = old.way;
                self.samples[i] = new;
                Some((old.train_idx, old.timestamp, old.used))
            }
            None => {
                new.way = (0..WAYS)
                    .find(|&w| !self.samples.iter().any(|s| s.set == set && s.way == w))
                    .expect("a free way");
                self.samples.push(new);
                None
            }
        }
    }

    /// The sampler's snapshot format: every slot, set-major, then the
    /// insert counter and the sampling generator.
    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.usize(self.sets * WAYS);
        for set in 0..self.sets {
            for way in 0..WAYS {
                match self.samples.iter().find(|s| s.set == set && s.way == way) {
                    Some(s) => {
                        w.bool(true);
                        w.u32(s.tag);
                        w.u16(s.train_idx);
                        w.u64(s.target.index());
                        w.u32(s.timestamp);
                        w.bool(s.used);
                        w.u64(s.arrival);
                    }
                    None => w.bool(false),
                }
            }
        }
        w.u64(self.inserts);
        self.rng.save(&mut w).unwrap();
        w.into_bytes()
    }
}

fn snapshot(s: &HistorySampler) -> Vec<u8> {
    let mut w = SnapWriter::new();
    s.save(&mut w).unwrap();
    w.into_bytes()
}

/// Runs `steps` seeded operations over `lines` distinct addresses and
/// `pcs` training slots, and checks that every kind of outcome occurred.
fn run(entries: usize, lines: u64, pcs: u64, seed: u64, steps: usize) {
    let mut s = HistorySampler::new(entries, seed);
    let mut r = RefSampler::new(entries, seed);
    let mut rng = SplitMix64::new(seed ^ 0x4853);
    let (mut hits, mut reused, mut displaced, mut sampled) = (0, 0, 0, 0);
    for step in 0..steps {
        let now_ts = step as u32;
        let addr = LineAddr::new(rng.next_below(lines));
        let train_idx = rng.next_below(pcs) as u16;
        let target = LineAddr::new(rng.next_below(lines));
        match rng.next_below(8) {
            0..=2 => {
                let got = s.lookup(addr, train_idx, now_ts, target);
                assert_eq!(
                    got,
                    r.lookup(addr, train_idx, now_ts, target),
                    "lookup at step {step}"
                );
                hits += got.is_some() as u32;
                reused += got.is_some_and(|v| v.previously_used) as u32;
            }
            3 => {
                s.update_target(addr, train_idx, target);
                r.update_target(addr, train_idx, target);
            }
            4..=6 => {
                let got = s
                    .insert(addr, train_idx, target, now_ts)
                    .map(|e| (e.train_idx, e.timestamp, e.used));
                assert_eq!(
                    got,
                    r.insert(addr, train_idx, target, now_ts),
                    "insert at step {step}"
                );
                displaced += got.is_some() as u32;
            }
            _ => {
                let rate = rng.next_below(16) as u32;
                let max_size = 1 + rng.next_below(4 * entries as u64);
                let got = s.should_sample(rate, max_size);
                assert_eq!(
                    got,
                    r.should_sample(rate, max_size),
                    "should_sample at step {step}"
                );
                sampled += got as u32;
            }
        }
        assert_eq!(s.occupancy(), r.samples.len(), "occupancy at step {step}");
        if step % 64 == 0 {
            assert_eq!(snapshot(&s), r.snapshot(), "snapshot at step {step}");
        }
    }
    assert_eq!(snapshot(&s), r.snapshot(), "final snapshot");
    assert!(
        hits > 0 && reused > 0 && displaced > 0 && sampled > 0,
        "every outcome exercised: {hits} hits ({reused} reused), \
         {displaced} displaced, {sampled} sampled"
    );
}

#[test]
fn paper_sampler_matches_reference() {
    // The paper's 512 entries, with about three addresses per slot so
    // sets fill and evict.
    for seed in [1, 2, 3] {
        run(512, 1536, 4, seed, 30_000);
    }
}

#[test]
fn small_samplers_match_reference() {
    // One set; then 6 entries, which round up to 4 sets (8 slots), so
    // the sampling probability uses the rounded capacity.
    run(2, 6, 2, 7, 5_000);
    run(6, 24, 3, 8, 5_000);
}
