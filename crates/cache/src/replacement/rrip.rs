//! Re-reference interval prediction (SRRIP / BRRIP).

use super::{check_victim_mask, AccessMeta, ReplacementPolicy, WayMask};
use triangel_types::rng::Lcg;

const RRPV_BITS: u32 = 2;
const RRPV_MAX: u8 = (1 << RRPV_BITS) - 1; // 3: "distant future"
const RRPV_LONG: u8 = RRPV_MAX - 1; // 2: "long re-reference interval"

/// Insertion behaviour for [`Rrip`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RripMode {
    /// SRRIP: always insert at the long interval (RRPV = max-1).
    Static,
    /// BRRIP: insert at the distant interval (RRPV = max), with a 1/32
    /// chance of the long interval — protects against thrashing.
    Bimodal,
}

/// SRRIP/BRRIP replacement (Jaleel et al., ISCA 2010), 2-bit RRPVs.
///
/// Triangel replaces HawkEye with "the simpler SRRIP" for its Markov
/// partition (Section 5), saving the 13 KiB HawkEye dueller.
#[derive(Debug, Clone)]
pub struct Rrip {
    ways: usize,
    mode: RripMode,
    rrpv: Vec<u8>,
    rng: Lcg,
}

impl Rrip {
    /// Creates RRIP state for `sets x ways`.
    pub fn new(sets: usize, ways: usize, mode: RripMode) -> Self {
        assert!(sets > 0 && ways > 0);
        Rrip {
            ways,
            mode,
            rrpv: vec![RRPV_MAX; sets * ways],
            rng: Lcg::new(0x5EED),
        }
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }
}

impl ReplacementPolicy for Rrip {
    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        // Hit promotion: near-immediate re-reference.
        let i = self.idx(set, way);
        self.rrpv[i] = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        let insert = match self.mode {
            RripMode::Static => RRPV_LONG,
            RripMode::Bimodal => {
                if self.rng.next_below(32) == 0 {
                    RRPV_LONG
                } else {
                    RRPV_MAX
                }
            }
        };
        let i = self.idx(set, way);
        self.rrpv[i] = insert;
    }

    fn victim(&mut self, set: usize, mask: WayMask) -> usize {
        check_victim_mask(mask, self.ways);
        loop {
            // Find an eligible way at the distant interval.
            if let Some(w) = (0..self.ways)
                .filter(|w| mask & (1 << w) != 0)
                .find(|w| self.rrpv[set * self.ways + w] == RRPV_MAX)
            {
                return w;
            }
            // Age every eligible way and retry; terminates because RRPVs
            // strictly increase toward the max.
            for w in 0..self.ways {
                if mask & (1 << w) != 0 {
                    let i = set * self.ways + w;
                    self.rrpv[i] = (self.rrpv[i] + 1).min(RRPV_MAX);
                }
            }
        }
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        self.rrpv[i] = RRPV_MAX;
    }
}

impl triangel_types::snap::Snapshot for Rrip {
    fn save(
        &self,
        w: &mut triangel_types::snap::SnapWriter,
    ) -> Result<(), triangel_types::snap::SnapError> {
        w.usize(self.rrpv.len());
        for v in &self.rrpv {
            w.u8(*v);
        }
        triangel_types::snap::Snapshot::save(&self.rng, w)
    }

    fn restore(
        &mut self,
        r: &mut triangel_types::snap::SnapReader,
    ) -> Result<(), triangel_types::snap::SnapError> {
        r.expect_len(self.rrpv.len(), "RRIP RRPVs")?;
        for v in &mut self.rrpv {
            *v = r.u8()?;
        }
        triangel_types::snap::Snapshot::restore(&mut self.rng, r)
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
    fn hit_promotes_to_near() {
        let mut r = Rrip::new(1, 2, RripMode::Static);
        r.on_fill(0, 0, &meta());
        r.on_fill(0, 1, &meta());
        r.on_hit(0, 0, &meta());
        // Way 1 ages to distant first.
        assert_eq!(r.victim(0, 0b11), 1);
    }

    #[test]
    fn srrip_inserts_at_long() {
        let mut r = Rrip::new(1, 1, RripMode::Static);
        r.on_fill(0, 0, &meta());
        assert_eq!(r.rrpv[0], RRPV_LONG);
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut r = Rrip::new(1, 1, RripMode::Bimodal);
        let mut distant = 0;
        for _ in 0..320 {
            r.on_fill(0, 0, &meta());
            if r.rrpv[0] == RRPV_MAX {
                distant += 1;
            }
        }
        assert!(distant > 280, "BRRIP inserted distant only {distant}/320");
    }

    #[test]
    fn aging_terminates_and_finds_victim() {
        let mut r = Rrip::new(1, 4, RripMode::Static);
        for w in 0..4 {
            r.on_fill(0, w, &meta());
            r.on_hit(0, w, &meta()); // all at RRPV 0
        }
        let v = r.victim(0, 0b1111);
        assert!(v < 4);
    }

    #[test]
    fn scan_resistance_vs_lru() {
        // A reuse line hit repeatedly survives a scan under SRRIP.
        let mut r = Rrip::new(1, 4, RripMode::Static);
        r.on_fill(0, 0, &meta());
        r.on_hit(0, 0, &meta());
        for w in 1..4 {
            r.on_fill(0, w, &meta());
        }
        // Scan: 8 fills into victims; way 0 must never be chosen first.
        let first_victim = r.victim(0, 0b1111);
        assert_ne!(first_victim, 0);
    }
}
