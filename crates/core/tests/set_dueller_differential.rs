//! Differential test: [`SetDueller`] against a naive reference.
//!
//! The reference models the paper's dueller (Section 4.7, Fig. 9) from
//! its definition. Each sampled set keeps a plain list of every tag it
//! was accessed with, once for the data-cache model and once for the
//! Markov model. A tag's LRU stack distance is the number of distinct
//! tags accessed since its last access, so for every partitioning `p`
//! the `16 - p`-way data cache hits iff that distance is below
//! `16 - p`, and the `p`-way Markov table hits iff its own distance is
//! below `p`. The set picker ([`SampledSets`]) is reused, since it is
//! not what is under test.
//!
//! Seeded access streams drive both; after every access the counters
//! and the chosen partitioning must agree. At the end the dueller's
//! snapshot must equal the one the reference lays out, and a fresh
//! dueller restored from it must keep agreeing.

use triangel_cache::duel::SampledSets;
use triangel_core::SetDueller;
use triangel_types::rng::SplitMix64;
use triangel_types::snap::{SnapReader, SnapWriter, Snapshot};
use triangel_types::{xor_fold, LineAddr};

/// Ways of the modelled L3.
const L3_WAYS: usize = 16;
const L3_SETS: usize = 128;
const SEED: u64 = 11;

#[derive(Debug)]
struct RefDueller {
    sampled: SampledSets,
    max_ways: usize,
    entries_per_line: u32,
    bias: u32,
    window: u64,
    /// Per sampled set, every data-cache model access, oldest first.
    cache_log: Vec<Vec<u16>>,
    /// Per sampled set, every Markov model access, oldest first.
    markov_log: Vec<Vec<u16>>,
    counters: [u64; 9],
    /// Accesses since the current window began.
    seen: u64,
    choice: usize,
}

/// Number of distinct tags in `log` after the last `tag`, or `None`
/// if `tag` was never accessed.
fn stack_distance(log: &[u16], tag: u16) -> Option<usize> {
    let last = log.iter().rposition(|&t| t == tag)?;
    let mut since = log[last + 1..].to_vec();
    since.sort_unstable();
    since.dedup();
    Some(since.len())
}

/// The `capacity` most recently accessed distinct tags, most recent
/// first: what an LRU stack of that capacity holds.
fn lru_stack(log: &[u16], capacity: usize) -> Vec<u16> {
    let mut stack = Vec::new();
    for &t in log.iter().rev() {
        if stack.len() == capacity {
            break;
        }
        if !stack.contains(&t) {
            stack.push(t);
        }
    }
    stack
}

impl RefDueller {
    fn new(max_ways: usize, entries_per_line: u32, bias: u32, window: u64) -> Self {
        let sampled = SampledSets::new(L3_SETS, 64, SEED);
        let n = sampled.len();
        RefDueller {
            sampled,
            max_ways,
            entries_per_line,
            bias,
            window,
            cache_log: vec![Vec::new(); n],
            markov_log: vec![Vec::new(); n],
            counters: [0; 9],
            seen: 0,
            choice: 0,
        }
    }

    fn on_access(&mut self, line: LineAddr, markov_engaged: bool) {
        let set = line.index() as usize % L3_SETS;
        if let Some(si) = self.sampled.index_of(set) {
            let tag = xor_fold(line.index().rotate_left(11), 10) as u16;
            let cache_d = stack_distance(&self.cache_log[si], tag);
            self.cache_log[si].push(tag);
            // The Markov model sees a fixed, hash-selected 1 in
            // `entries_per_line` of the addresses Triangel engages on.
            let in_subset = (line.index().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40)
                .is_multiple_of(u64::from(self.entries_per_line));
            let markov_d = if markov_engaged && in_subset {
                let d = stack_distance(&self.markov_log[si], tag);
                self.markov_log[si].push(tag);
                d
            } else {
                None
            };
            let worth = u64::from((self.entries_per_line / self.bias).max(1));
            for p in 0..=self.max_ways {
                if cache_d.is_some_and(|d| d < L3_WAYS - p) {
                    self.counters[p] += 1;
                }
                if markov_d.is_some_and(|d| d < p) {
                    self.counters[p] += worth;
                }
            }
        }
        self.seen += 1;
        if self.seen == self.window {
            self.seen = 0;
            // The first of the partitionings with the most hits.
            let best = self.counters[..=self.max_ways].iter().max().unwrap();
            self.choice = self.counters.iter().position(|c| c == best).unwrap();
            self.counters = [0; 9];
        }
    }

    /// The dueller's snapshot format: the stack count, every data-cache
    /// stack, every Markov stack, the counters, the accesses left in
    /// the window and the choice.
    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.usize(self.cache_log.len());
        let stacks = self.cache_log.iter().map(|log| lru_stack(log, L3_WAYS));
        let markov = self
            .markov_log
            .iter()
            .map(|log| lru_stack(log, self.max_ways));
        for stack in stacks.chain(markov) {
            w.usize(stack.len());
            for t in stack {
                w.u16(t);
            }
        }
        for c in self.counters {
            w.u64(c);
        }
        w.u64(self.window - self.seen);
        w.usize(self.choice);
        w.into_bytes()
    }
}

fn snapshot(d: &SetDueller) -> Vec<u8> {
    let mut w = SnapWriter::new();
    d.save(&mut w).unwrap();
    w.into_bytes()
}

/// Draws an access: a set, then a line in it from a hot pool of 6
/// (short reuse distances) or a cold pool of 40 (distances past the 16
/// data ways), Markov-engaged half the time.
fn draw(rng: &mut SplitMix64) -> (LineAddr, bool) {
    let set = rng.next_below(L3_SETS as u64);
    let way = if rng.chance(0.6) {
        rng.next_below(6)
    } else {
        rng.next_below(40)
    };
    (LineAddr::new(way * L3_SETS as u64 + set), rng.chance(0.5))
}

/// Feeds `steps` draws to both, comparing the counters and the choice
/// after each; returns which partitionings were chosen.
fn drive(
    d: &mut SetDueller,
    r: &mut RefDueller,
    rng: &mut SplitMix64,
    steps: usize,
    what: &str,
) -> [bool; 9] {
    let mut chosen = [false; 9];
    for step in 0..steps {
        let (line, engaged) = draw(rng);
        d.on_access(line, engaged);
        r.on_access(line, engaged);
        assert_eq!(d.counters(), &r.counters, "{what}: counters at step {step}");
        assert_eq!(d.desired_ways(), r.choice, "{what}: choice at step {step}");
        chosen[r.choice] = true;
    }
    chosen
}

fn run(max_ways: usize, entries_per_line: u32, bias: u32, window: u64) {
    let cfg = format!("ways {max_ways}, epl {entries_per_line}, bias {bias}, window {window}");
    let new = || SetDueller::new(L3_SETS, max_ways, entries_per_line, bias, window, SEED);
    let mut d = new();
    let mut r = RefDueller::new(max_ways, entries_per_line, bias, window);
    let mut rng = SplitMix64::new(window ^ (max_ways as u64) << 20);
    let chosen = drive(&mut d, &mut r, &mut rng, 20_000, &cfg);
    if window == 100 {
        assert!(
            chosen.iter().filter(|&&c| c).count() > 1,
            "{cfg}: the stream moves the choice"
        );
    }

    let bytes = snapshot(&d);
    assert_eq!(bytes, r.snapshot(), "{cfg}: snapshot");
    let mut restored = new();
    let mut reader = SnapReader::new(&bytes);
    restored.restore(&mut reader).unwrap();
    reader.finish().unwrap();
    drive(
        &mut restored,
        &mut r,
        &mut rng,
        2_000,
        &format!("{cfg}, restored"),
    );
    assert_eq!(snapshot(&restored), r.snapshot(), "{cfg}: final snapshot");
}

#[test]
fn set_dueller_matches_reference() {
    for max_ways in [1, 4, 8] {
        for entries_per_line in [1, 12] {
            for bias in [1, 2] {
                for window in [1, 100, 50_000] {
                    run(max_ways, entries_per_line, bias, window);
                }
            }
        }
    }
}
