//! Uniform-random replacement.

use super::{check_victim_mask, AccessMeta, ReplacementPolicy, WayMask};
use triangel_types::rng::Lcg;

/// Random replacement: a uniformly chosen eligible way.
///
/// Useful both as a baseline and for modelling caches whose true policy is
/// unknown (the paper notes commercial L3 policies are undocumented,
/// Section 4.7 footnote 10).
#[derive(Debug, Clone)]
pub struct Random {
    ways: usize,
    rng: Lcg,
}

impl Random {
    /// Creates random-replacement state for `sets x ways` with a seed.
    pub fn new(_sets: usize, ways: usize, seed: u64) -> Self {
        assert!(ways > 0);
        Random {
            ways,
            rng: Lcg::new(seed),
        }
    }
}

impl ReplacementPolicy for Random {
    fn on_hit(&mut self, _set: usize, _way: usize, _meta: &AccessMeta) {}

    fn on_fill(&mut self, _set: usize, _way: usize, _meta: &AccessMeta) {}

    fn victim(&mut self, _set: usize, mask: WayMask) -> usize {
        check_victim_mask(mask, self.ways);
        let eligible: Vec<usize> = (0..self.ways).filter(|w| mask & (1 << w) != 0).collect();
        eligible[self.rng.next_below(eligible.len() as u64) as usize]
    }
}

impl triangel_types::snap::Snapshot for Random {
    fn save(
        &self,
        w: &mut triangel_types::snap::SnapWriter,
    ) -> Result<(), triangel_types::snap::SnapError> {
        triangel_types::snap::Snapshot::save(&self.rng, w)
    }

    fn restore(
        &mut self,
        r: &mut triangel_types::snap::SnapReader,
    ) -> Result<(), triangel_types::snap::SnapError> {
        triangel_types::snap::Snapshot::restore(&mut self.rng, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_in_mask() {
        let mut r = Random::new(1, 8, 1);
        for _ in 0..100 {
            let v = r.victim(0, 0b0011_0000);
            assert!(v == 4 || v == 5);
        }
    }

    #[test]
    fn covers_all_ways_eventually() {
        let mut r = Random::new(1, 4, 2);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.victim(0, 0b1111)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }
}
