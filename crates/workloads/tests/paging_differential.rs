//! Differential test: the radix-table `PageMapper` against a retained
//! naive reference.
//!
//! Moving the page table from a page → frame hash map plus a used-frame
//! hash set onto 64-page chunks and a frame bitmap is only a storage
//! change: frame allocation order, every translation and the snapshot
//! bytes must stay exactly as they were. This test keeps the hash-map
//! mapper alive (trimmed to translation and snapshots) and drives both
//! through the same seeded addresses under each preset, comparing every
//! translation and, every 10k addresses, the snapshot bytes. Halfway
//! through, each mapper is restored from the other's snapshot.

use std::collections::{HashMap, HashSet};

use triangel_types::rng::SplitMix64;
use triangel_types::snap::{SnapReader, SnapWriter, Snapshot};
use triangel_types::{Addr, PAGE_BYTES};
use triangel_workloads::paging::PageMapper;

// ---------------------------------------------------------------------
// The naive reference: the hash-map implementation, verbatim in
// behaviour (allocation policy, RNG draw order, snapshot layout).
// ---------------------------------------------------------------------

struct NaiveMapper {
    fragmentation: f64,
    spread: u64,
    table: HashMap<u64, u64>,
    used_frames: HashSet<u64>,
    next_frame: u64,
    run_left: u64,
    rng: SplitMix64,
}

impl NaiveMapper {
    fn new(fragmentation: f64, spread: u64, seed: u64) -> Self {
        NaiveMapper {
            fragmentation,
            spread,
            table: HashMap::new(),
            used_frames: HashSet::new(),
            next_frame: 1,
            run_left: 0,
            rng: SplitMix64::new(seed),
        }
    }

    fn translate(&mut self, vaddr: Addr) -> Addr {
        let vpage = vaddr.page_number();
        let frame = match self.table.get(&vpage) {
            Some(f) => *f,
            None => {
                let f = self.allocate();
                self.table.insert(vpage, f);
                f
            }
        };
        Addr::new(frame * PAGE_BYTES + vaddr.page_offset())
    }

    fn allocate(&mut self) -> u64 {
        let broke_run = self.run_left == 0 && self.rng.chance(self.fragmentation);
        if broke_run || self.fragmentation >= 1.0 {
            let horizon = (self.table.len() as u64 + 1024) * self.spread;
            self.next_frame = 1 + self.rng.next_below(horizon);
            self.run_left = ((16.0 * (1.0 - self.fragmentation)) as u64).max(1);
        } else if self.run_left > 0 {
            self.run_left -= 1;
        }
        loop {
            let f = self.next_frame;
            self.next_frame += 1;
            if self.used_frames.insert(f) {
                return f;
            }
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        let mut pages: Vec<(&u64, &u64)> = self.table.iter().collect();
        pages.sort_unstable_by_key(|(page, _)| **page);
        w.usize(pages.len());
        for (page, frame) in pages {
            w.u64(*page);
            w.u64(*frame);
        }
        let mut frames: Vec<&u64> = self.used_frames.iter().collect();
        frames.sort_unstable();
        w.usize(frames.len());
        for f in frames {
            w.u64(*f);
        }
        w.u64(self.next_frame);
        w.u64(self.run_left);
        self.rng.save(&mut w).unwrap();
        w.into_bytes()
    }

    fn restore(&mut self, bytes: &[u8]) {
        let mut r = SnapReader::new(bytes);
        self.table.clear();
        for _ in 0..r.usize().unwrap() {
            let page = r.u64().unwrap();
            let frame = r.u64().unwrap();
            self.table.insert(page, frame);
        }
        self.used_frames.clear();
        for _ in 0..r.usize().unwrap() {
            self.used_frames.insert(r.u64().unwrap());
        }
        self.next_frame = r.u64().unwrap();
        self.run_left = r.u64().unwrap();
        self.rng.restore(&mut r).unwrap();
        r.finish().unwrap();
    }
}

fn snapshot(m: &PageMapper) -> Vec<u8> {
    let mut w = SnapWriter::new();
    m.save(&mut w).unwrap();
    w.into_bytes()
}

/// A page drawn from dense runs, a sparse wide region, or anywhere in a
/// 48-bit space, so chunks range from full to a single page.
fn page(rng: &mut SplitMix64) -> u64 {
    match rng.next_below(32) {
        0..=15 => rng.next_below(8192),
        16..=30 => (1 << 24) + rng.next_below(1 << 18),
        _ => rng.next_below(1 << 36),
    }
}

#[test]
fn radix_table_matches_the_hash_map_reference() {
    for (name, fragmentation, spread, seed) in [
        ("contiguous", 0.0, 1, 0),
        ("realistic", 0.25, 4, 0xD1FF),
        ("fragmented", 1.0, 8, 0xD1FF),
    ] {
        let mut fast = PageMapper::new(fragmentation, spread, seed);
        let mut naive = NaiveMapper::new(fragmentation, spread, seed);
        let mut rng = SplitMix64::new(0xADD2 ^ seed);
        for i in 0..100_000u64 {
            let vaddr = Addr::new(page(&mut rng) * PAGE_BYTES + rng.next_below(PAGE_BYTES));
            assert_eq!(
                fast.translate(vaddr),
                naive.translate(vaddr),
                "{name}: access {i} ({vaddr:?})"
            );
            if i % 10_000 == 9_999 {
                assert_eq!(snapshot(&fast), naive.save(), "{name}: snapshot at {i}");
            }
            if i == 50_000 {
                // Swap state through the other implementation's bytes.
                let (fast_bytes, naive_bytes) = (snapshot(&fast), naive.save());
                fast = PageMapper::new(fragmentation, spread, seed);
                let mut r = SnapReader::new(&naive_bytes);
                fast.restore(&mut r).unwrap();
                r.finish().unwrap();
                naive = NaiveMapper::new(fragmentation, spread, seed);
                naive.restore(&fast_bytes);
            }
        }
        assert_eq!(fast.mapped_pages(), naive.table.len(), "{name}");
        for bits in [4, 8, 12] {
            let mut groups: Vec<u64> = naive.table.values().map(|f| f >> bits).collect();
            groups.sort_unstable();
            groups.dedup();
            assert_eq!(fast.distinct_upper_groups(bits), groups.len(), "{name}");
        }
    }
}
