//! First-in first-out replacement.

use super::{check_victim_mask, AccessMeta, ReplacementPolicy, WayMask};

/// FIFO: the victim is the eligible way filled longest ago; hits do not
/// change priority.
///
/// Triangel's Metadata Reuse Buffer uses FIFO (Section 4.6): Markov
/// entries are read a handful of times by overlapping walks and should
/// then leave, so recency promotion would only keep stale metadata around.
#[derive(Debug, Clone)]
pub struct Fifo {
    ways: usize,
    stamp: Vec<u64>,
    clock: u64,
}

impl Fifo {
    /// Creates FIFO state for `sets x ways`.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0);
        Fifo {
            ways,
            stamp: vec![0; sets * ways],
            clock: 0,
        }
    }
}

impl ReplacementPolicy for Fifo {
    fn on_hit(&mut self, _set: usize, _way: usize, _meta: &AccessMeta) {
        // Hits do not refresh FIFO order.
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.clock += 1;
        self.stamp[set * self.ways + way] = self.clock;
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

impl triangel_types::snap::Snapshot for Fifo {
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
        r.expect_len(self.stamp.len(), "FIFO stamps")?;
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
    fn hits_do_not_promote() {
        let mut fifo = Fifo::new(1, 3);
        for w in 0..3 {
            fifo.on_fill(0, w, &meta(w as u64));
        }
        fifo.on_hit(0, 0, &meta(0));
        fifo.on_hit(0, 0, &meta(0));
        // Way 0 was filled first, so despite the hits it is still the victim.
        assert_eq!(fifo.victim(0, 0b111), 0);
    }

    #[test]
    fn refill_moves_to_back() {
        let mut fifo = Fifo::new(1, 2);
        fifo.on_fill(0, 0, &meta(0));
        fifo.on_fill(0, 1, &meta(1));
        fifo.on_fill(0, 0, &meta(2)); // way 0 refilled
        assert_eq!(fifo.victim(0, 0b11), 1);
    }
}
