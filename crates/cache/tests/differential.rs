//! Differential test: [`Cache`] against a naive reference cache.
//!
//! `Cache` keeps two pieces of derived state so a miss scans its set
//! once: a one-line "known absent" memo and a count of invalid lines
//! inside the way mask. The reference here has neither. It keeps each
//! set as a `Vec<Option<RefLine>>` and does what the cache did before
//! them on every fill: look the line up, search the eligible ways for an
//! invalid one, and only then ask the replacement policy for a victim.
//! Both drive the same [`ReplacementImpl`], called in the same order, so
//! any divergence in an outcome, an eviction record, the statistics or
//! the occupancy is a bug in the cache's shortcuts.
//!
//! A seeded driver mixes demand and prefetch lookups, read-only peeks,
//! fills of every source, invalidations, way-mask shrinks and grows, and
//! snapshot/restore round trips, over the paper's L1, L2 and L3
//! geometries. The line universe is 1.5x each cache's capacity, so sets
//! fill up and the "no invalid way left" shortcut is exercised as well as
//! the invalid-way search.

use triangel_cache::replacement::{
    all_ways, AccessMeta, PolicyKind, ReplacementImpl, ReplacementPolicy, WayMask,
};
use triangel_cache::{AccessOutcome, Cache, CacheConfig, CacheStats, EvictedLine, FillOutcome};
use triangel_types::rng::SplitMix64;
use triangel_types::snap::{SnapReader, SnapWriter, Snapshot};
use triangel_types::{Cycle, FillSource, LineAddr, LineMeta, Pc};

#[derive(Debug, Clone, Copy)]
struct RefLine {
    tag: LineAddr,
    tagged: bool,
    used: bool,
    source: FillSource,
    ready_at: Cycle,
    fill_seq: u64,
    fill_pc: Option<Pc>,
}

impl RefLine {
    fn meta(&self) -> LineMeta {
        LineMeta {
            source: self.source,
            ready_at: self.ready_at,
            used: self.used,
            fill_seq: self.fill_seq,
        }
    }

    fn evicted(&self, evict_seq: u64) -> EvictedLine {
        EvictedLine {
            line: self.tag,
            was_unused_prefetch: self.tagged,
            was_used: self.used,
            source: self.source,
            ready_at: self.ready_at,
            fill_seq: self.fill_seq,
            evict_seq,
            fill_pc: self.fill_pc,
        }
    }
}

/// The naive cache: no memo, no counter, three passes per miss.
#[derive(Debug)]
struct RefCache {
    sets: Vec<Vec<Option<RefLine>>>,
    policy: ReplacementImpl,
    way_mask: WayMask,
    stats: CacheStats,
    fill_clock: u64,
}

/// Everything needed to put a [`RefCache`] back as it was; the policy
/// goes through its own snapshot format.
struct RefCheckpoint {
    sets: Vec<Vec<Option<RefLine>>>,
    policy: Vec<u8>,
    way_mask: WayMask,
    stats: CacheStats,
    fill_clock: u64,
}

impl RefCache {
    fn new(cfg: &CacheConfig) -> Self {
        let (sets, ways) = (cfg.sets(), cfg.ways());
        RefCache {
            sets: vec![vec![None; ways]; sets],
            policy: cfg.policy().build_impl(sets, ways),
            way_mask: all_ways(ways),
            stats: CacheStats::default(),
            fill_clock: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        line.index() as usize % self.sets.len()
    }

    fn find(&self, line: LineAddr) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        let way = self.sets[set]
            .iter()
            .position(|l| l.is_some_and(|l| l.tag == line))?;
        Some((set, way))
    }

    fn access(&mut self, line: LineAddr, pc: Option<Pc>, is_prefetch: bool) -> AccessOutcome {
        let miss = AccessOutcome {
            hit: false,
            prefetch_hit: false,
            meta: None,
        };
        if is_prefetch {
            self.stats.prefetch_lookups += 1;
            let hit = self.find(line).is_some();
            return AccessOutcome { hit, ..miss };
        }
        let Some((set, way)) = self.find(line) else {
            self.stats.demand_misses += 1;
            return miss;
        };
        self.stats.demand_hits += 1;
        let l = self.sets[set][way].as_mut().unwrap();
        let prefetch_hit = l.tagged;
        if prefetch_hit {
            self.stats.prefetch_hits += 1;
        }
        l.tagged = false;
        l.used = true;
        let meta = l.meta();
        self.policy.on_hit(set, way, &AccessMeta::demand(line, pc));
        AccessOutcome {
            hit: true,
            prefetch_hit,
            meta: Some(meta),
        }
    }

    fn line_meta(&self, line: LineAddr) -> Option<LineMeta> {
        let (set, way) = self.find(line)?;
        self.sets[set][way].map(|l| l.meta())
    }

    fn fill_at(
        &mut self,
        line: LineAddr,
        pc: Option<Pc>,
        source: FillSource,
        tagged: bool,
        ready_at: Cycle,
    ) -> FillOutcome {
        let meta = AccessMeta {
            line,
            pc,
            is_prefetch: source.is_prefetch(),
        };
        if let Some((set, way)) = self.find(line) {
            let l = self.sets[set][way].as_mut().unwrap();
            if !tagged {
                l.tagged = false;
            }
            l.source = source;
            l.ready_at = ready_at;
            self.policy.on_hit(set, way, &meta);
            return FillOutcome {
                evicted: None,
                set,
                way,
            };
        }
        self.stats.fills += 1;
        self.fill_clock += 1;
        let set = self.set_of(line);
        let mask = self.way_mask;
        let invalid = (0..self.sets[set].len())
            .find(|&w| mask & (1 << w) != 0 && self.sets[set][w].is_none());
        let way = invalid.unwrap_or_else(|| self.policy.victim(set, mask));
        let evicted = self.sets[set][way].map(|old| {
            self.stats.evictions += 1;
            self.policy.on_evict(set, way, old.tag);
            old.evicted(self.fill_clock)
        });
        self.sets[set][way] = Some(RefLine {
            tag: line,
            tagged,
            used: !tagged,
            source,
            ready_at,
            fill_seq: self.fill_clock,
            fill_pc: pc,
        });
        self.policy.on_fill(set, way, &meta);
        FillOutcome { evicted, set, way }
    }

    fn invalidate_slot(&mut self, set: usize, way: usize) -> EvictedLine {
        let old = self.sets[set][way].take().unwrap();
        self.policy.on_invalidate(set, way);
        old.evicted(self.fill_clock)
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<EvictedLine> {
        let (set, way) = self.find(line)?;
        Some(self.invalidate_slot(set, way))
    }

    fn set_way_mask(&mut self, mask: WayMask) -> Vec<EvictedLine> {
        self.way_mask = mask;
        let mut flushed = Vec::new();
        for set in 0..self.sets.len() {
            for way in 0..self.sets[set].len() {
                if mask & (1 << way) == 0 && self.sets[set][way].is_some() {
                    flushed.push(self.invalidate_slot(set, way));
                }
            }
        }
        flushed
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().flatten().filter(|l| l.is_some()).count()
    }

    /// Whether every way inside the mask holds a line, in every set.
    fn full_within_mask(&self) -> bool {
        self.sets.iter().all(|set| {
            set.iter()
                .enumerate()
                .all(|(w, l)| self.way_mask & (1 << w) == 0 || l.is_some())
        })
    }

    fn checkpoint(&self) -> RefCheckpoint {
        let mut w = SnapWriter::new();
        self.policy.save(&mut w).unwrap();
        RefCheckpoint {
            sets: self.sets.clone(),
            policy: w.into_bytes(),
            way_mask: self.way_mask,
            stats: self.stats,
            fill_clock: self.fill_clock,
        }
    }

    fn rewind(&mut self, cp: &RefCheckpoint) {
        self.sets = cp.sets.clone();
        self.policy
            .restore(&mut SnapReader::new(&cp.policy))
            .unwrap();
        self.way_mask = cp.way_mask;
        self.stats = cp.stats;
        self.fill_clock = cp.fill_clock;
    }
}

fn snapshot(c: &Cache) -> Vec<u8> {
    let mut w = SnapWriter::new();
    c.save(&mut w).unwrap();
    w.into_bytes()
}

/// A random non-empty way mask. Most keep the high ways, as the L3
/// does when it cedes its low ways to the Markov partition.
fn random_mask(rng: &mut SplitMix64, ways: usize) -> WayMask {
    let all = all_ways(ways);
    if rng.chance(0.5) {
        all & !all_ways(rng.next_below(ways as u64) as usize)
    } else {
        (rng.next_u64() & all).max(1)
    }
}

fn assert_same_state(c: &Cache, r: &RefCache, step: usize) {
    assert_eq!(c.stats(), r.stats, "stats diverged by step {step}");
    assert_eq!(
        c.occupancy(),
        r.occupancy(),
        "occupancy diverged by step {step}"
    );
    assert_eq!(c.way_mask(), r.way_mask, "way mask diverged by step {step}");
}

/// Drives `cfg` through 64 operations per line of capacity, checking
/// every result against the reference.
///
/// Operations that empty ways (invalidating a resident line, way-mask
/// changes, rewinds) are rare, about one per `capacity` steps or fewer,
/// so that between them every set refills and the count of invalid
/// eligible lines spends long stretches at 0.
fn run(cfg: CacheConfig, seed: u64) {
    let capacity = (cfg.sets() * cfg.ways()) as u64;
    let steps = 64 * capacity as usize;
    let ways = cfg.ways();
    let mut c = Cache::new(cfg.clone());
    let mut r = RefCache::new(&cfg);
    let mut rng = SplitMix64::new(seed);
    let mut saved: Option<(Vec<u8>, RefCheckpoint)> = None;
    let mut last = LineAddr::new(0);
    let mut full_checks = 0;
    for step in 0..steps {
        let line = if rng.chance(0.02) {
            // Far outside the working set: always absent.
            LineAddr::new(rng.next_u64() >> 6)
        } else if rng.chance(0.2) {
            last
        } else {
            LineAddr::new(rng.next_below(capacity * 3 / 2))
        };
        last = line;
        let pc = rng.chance(0.8).then(|| Pc::new(rng.next_below(64)));
        match rng.next_below(100) {
            0..=29 => {
                let is_prefetch = rng.chance(0.3);
                assert_eq!(
                    c.access(line, pc, is_prefetch),
                    r.access(line, pc, is_prefetch),
                    "access({line:?}, prefetch={is_prefetch}) at step {step}"
                );
            }
            30..=39 => {
                assert_eq!(
                    c.contains(line),
                    r.find(line).is_some(),
                    "contains({line:?}) at step {step}"
                );
            }
            40..=44 => {
                assert_eq!(
                    c.line_meta(line),
                    r.line_meta(line),
                    "line_meta({line:?}) at step {step}"
                );
            }
            45..=59 => {
                let is_prefetch = rng.chance(0.3);
                let source = if is_prefetch {
                    FillSource::Stride
                } else {
                    FillSource::Demand
                };
                assert_eq!(
                    c.fill(line, pc, is_prefetch),
                    r.fill_at(line, pc, source, is_prefetch, 0),
                    "fill({line:?}) at step {step}"
                );
            }
            60..=98 => {
                let source = [FillSource::Demand, FillSource::Stride, FillSource::Temporal]
                    [rng.next_below(3) as usize];
                let tagged = source.is_prefetch() && rng.chance(0.7);
                let ready_at = step as u64 * 7 + rng.next_below(300);
                assert_eq!(
                    c.fill_at(line, pc, source, tagged, ready_at),
                    r.fill_at(line, pc, source, tagged, ready_at),
                    "fill_at({line:?}) at step {step}"
                );
            }
            _ => {
                // Mostly far lines; see the rate note above.
                let line = if rng.next_below(capacity / 100 + 1) == 0 {
                    line
                } else {
                    LineAddr::new(rng.next_u64() >> 6)
                };
                assert_eq!(
                    c.invalidate(line),
                    r.invalidate(line),
                    "invalidate({line:?}) at step {step}"
                );
            }
        }
        if rng.next_below(6 * capacity) == 0 {
            let mask = random_mask(&mut rng, ways);
            assert_eq!(
                c.set_way_mask(mask),
                r.set_way_mask(mask),
                "set_way_mask({mask:#b}) at step {step}"
            );
        }
        if rng.next_below(4 * capacity) == 0 {
            saved = Some((snapshot(&c), r.checkpoint()));
        }
        if rng.next_below(4 * capacity) == 0 {
            if let Some((bytes, cp)) = &saved {
                // Rewind both to the saved point, then look up the line
                // the cache last scanned: it may be resident again.
                c.restore(&mut SnapReader::new(bytes)).unwrap();
                r.rewind(cp);
                assert_eq!(c.contains(last), r.find(last).is_some(), "after restore");
            }
        }
        if rng.next_below(8 * capacity) == 0 {
            // Carry on in a fresh cache restored from this one.
            let mut fresh = Cache::new(cfg.clone());
            fresh.restore(&mut SnapReader::new(&snapshot(&c))).unwrap();
            c = fresh;
        }
        if (step as u64).is_multiple_of(capacity) {
            assert_same_state(&c, &r, step);
            full_checks += r.full_within_mask() as usize;
        }
    }
    assert_same_state(&c, &r, steps);
    // The fill shortcut for "no invalid way left" must have run.
    assert!(full_checks >= 8, "full at only {full_checks} of 64 checks");
}

#[test]
fn paper_l1_lru_4way_matches_reference() {
    let cfg = CacheConfig::new("L1D", 64 * 1024, 4, PolicyKind::Lru);
    for seed in [1, 2, 3] {
        run(cfg.clone(), seed);
    }
}

#[test]
fn paper_l2_lru_8way_matches_reference() {
    let cfg = CacheConfig::new("L2", 512 * 1024, 8, PolicyKind::Lru);
    run(cfg, 0x12);
}

#[test]
fn paper_l3_srrip_16way_matches_reference() {
    let cfg = CacheConfig::new("L3", 2 * 1024 * 1024, 16, PolicyKind::Srrip);
    run(cfg, 0x13);
}
