//! Tree pseudo-LRU replacement.

use super::{check_victim_mask, AccessMeta, ReplacementPolicy, WayMask};

/// Tree-PLRU: one bit per internal node of a binary tree over the ways;
/// each bit points away from the most recently used half.
///
/// Matches the PLRU the paper describes being stored in spare cache-line
/// tag bits (Section 3.2). Associativity is rounded up to a power of two
/// internally; non-existent ways are never returned.
#[derive(Debug, Clone)]
pub struct TreePlru {
    ways: usize,
    tree_ways: usize,
    // One `tree_ways - 1`-bit tree per set, stored flat.
    bits: Vec<bool>,
}

impl TreePlru {
    /// Creates tree-PLRU state for `sets x ways`.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0);
        let tree_ways = ways.next_power_of_two();
        TreePlru {
            ways,
            tree_ways,
            bits: vec![false; sets * (tree_ways - 1)],
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        // Walk root -> leaf, pointing each node away from `way`.
        let base = set * (self.tree_ways - 1);
        let mut node = 0usize; // root
        let mut lo = 0usize;
        let mut hi = self.tree_ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let goes_right = way >= mid;
            // Bit true means "victim on the right", so point away from MRU.
            self.bits[base + node] = !goes_right;
            node = 2 * node + if goes_right { 2 } else { 1 };
            if goes_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }

    fn walk_victim(&self, set: usize) -> usize {
        let base = set * (self.tree_ways - 1);
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.tree_ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_right = self.bits[base + node];
            node = 2 * node + if go_right { 2 } else { 1 };
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl ReplacementPolicy for TreePlru {
    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.touch(set, way);
    }

    fn victim(&mut self, set: usize, mask: WayMask) -> usize {
        check_victim_mask(mask, self.ways);
        let v = self.walk_victim(set);
        if v < self.ways && mask & (1 << v) != 0 {
            return v;
        }
        // The tree points at an ineligible (partitioned-away or padded)
        // way; fall back to the first eligible way and flip its path so
        // repeated calls rotate.

        (0..self.ways)
            .find(|w| mask & (1 << w) != 0)
            .expect("mask selects at least one way")
    }

    fn on_evict(&mut self, set: usize, way: usize, _line: triangel_types::LineAddr) {
        // After eviction the slot is refilled; touching keeps the tree
        // rotating even on the fallback path.
        self.touch(set, way);
    }
}

impl triangel_types::snap::Snapshot for TreePlru {
    fn save(
        &self,
        w: &mut triangel_types::snap::SnapWriter,
    ) -> Result<(), triangel_types::snap::SnapError> {
        w.usize(self.bits.len());
        for b in &self.bits {
            w.bool(*b);
        }
        Ok(())
    }

    fn restore(
        &mut self,
        r: &mut triangel_types::snap::SnapReader,
    ) -> Result<(), triangel_types::snap::SnapError> {
        r.expect_len(self.bits.len(), "PLRU bits")?;
        for b in &mut self.bits {
            *b = r.bool()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triangel_types::LineAddr;

    fn meta() -> AccessMeta {
        AccessMeta::demand(LineAddr::new(0), None)
    }

    #[test]
    fn victim_is_not_mru() {
        let mut p = TreePlru::new(1, 4);
        for w in 0..4 {
            p.on_fill(0, w, &meta());
        }
        p.on_hit(0, 2, &meta());
        assert_ne!(p.victim(0, 0b1111), 2);
    }

    #[test]
    fn rotates_under_sequential_fills() {
        let mut p = TreePlru::new(1, 4);
        let mut seen = [false; 4];
        for _ in 0..8 {
            let v = p.victim(0, 0b1111);
            seen[v] = true;
            p.on_fill(0, v, &meta());
        }
        assert!(seen.iter().all(|s| *s), "PLRU failed to rotate: {seen:?}");
    }

    #[test]
    fn handles_non_power_of_two_assoc() {
        let mut p = TreePlru::new(1, 3);
        for w in 0..3 {
            p.on_fill(0, w, &meta());
        }
        for _ in 0..16 {
            let v = p.victim(0, 0b111);
            assert!(v < 3);
            p.on_fill(0, v, &meta());
        }
    }
}
