//! True least-recently-used replacement.

use super::{check_victim_mask, AccessMeta, ReplacementPolicy, WayMask};

/// True LRU: a monotone timestamp per (set, way); the victim is the
/// eligible way with the smallest timestamp.
///
/// The paper notes (Section 3.2) that within a Markov cache line LRU can
/// be kept implicitly by ordering entries; for the simulator an explicit
/// timestamp is equivalent and simpler.
#[derive(Debug, Clone)]
pub struct Lru {
    ways: usize,
    stamp: Vec<u64>,
    clock: u64,
}

impl Lru {
    /// Creates LRU state for `sets x ways`.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0);
        Lru {
            ways,
            stamp: vec![0; sets * ways],
            clock: 0,
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamp[set * self.ways + way] = self.clock;
    }
}

impl ReplacementPolicy for Lru {
    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.touch(set, way);
    }

    fn victim(&mut self, set: usize, mask: WayMask) -> usize {
        check_victim_mask(mask, self.ways);
        (0..self.ways)
            .filter(|w| mask & (1 << w) != 0)
            .min_by_key(|w| self.stamp[set * self.ways + w])
            .expect("mask selects at least one way")
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.stamp[set * self.ways + way] = 0;
    }
}

impl triangel_types::snap::Snapshot for Lru {
    fn save(
        &self,
        w: &mut triangel_types::snap::SnapWriter,
    ) -> Result<(), triangel_types::snap::SnapError> {
        w.usize(self.stamp.len());
        for s in &self.stamp {
            w.u64(*s);
        }
        w.u64(self.clock);
        Ok(())
    }

    fn restore(
        &mut self,
        r: &mut triangel_types::snap::SnapReader,
    ) -> Result<(), triangel_types::snap::SnapError> {
        r.expect_len(self.stamp.len(), "LRU stamps")?;
        for s in &mut self.stamp {
            *s = r.u64()?;
        }
        self.clock = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triangel_types::LineAddr;

    fn meta(v: u64) -> AccessMeta {
        AccessMeta::demand(LineAddr::new(v), None)
    }

    #[test]
    fn evicts_least_recent() {
        let mut lru = Lru::new(1, 4);
        for w in 0..4 {
            lru.on_fill(0, w, &meta(w as u64));
        }
        lru.on_hit(0, 0, &meta(0)); // way 0 becomes MRU; way 1 is LRU
        assert_eq!(lru.victim(0, 0b1111), 1);
    }

    #[test]
    fn hit_changes_order() {
        let mut lru = Lru::new(1, 2);
        lru.on_fill(0, 0, &meta(0));
        lru.on_fill(0, 1, &meta(1));
        assert_eq!(lru.victim(0, 0b11), 0);
        lru.on_hit(0, 0, &meta(0));
        assert_eq!(lru.victim(0, 0b11), 1);
    }

    #[test]
    fn invalidate_resets_priority() {
        let mut lru = Lru::new(1, 2);
        lru.on_fill(0, 0, &meta(0));
        lru.on_fill(0, 1, &meta(1));
        lru.on_hit(0, 0, &meta(0));
        lru.on_invalidate(0, 0);
        assert_eq!(lru.victim(0, 0b11), 0);
    }

    #[test]
    fn sets_are_independent() {
        let mut lru = Lru::new(2, 2);
        lru.on_fill(0, 0, &meta(0));
        lru.on_fill(0, 1, &meta(1));
        lru.on_fill(1, 1, &meta(2));
        lru.on_fill(1, 0, &meta(3));
        assert_eq!(lru.victim(0, 0b11), 0);
        assert_eq!(lru.victim(1, 0b11), 1);
    }
}
