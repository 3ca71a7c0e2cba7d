//! HawkEye replacement (Jain & Lin, ISCA 2016).
//!
//! HawkEye reconstructs what Belady's optimal policy *would have done* on
//! a sample of sets (OPTgen), classifies the PCs that load lines as
//! cache-friendly or cache-averse, and inserts lines accordingly. Triage
//! uses it to prioritize frequently-reused Markov-table entries
//! (Section 3.3 of the Triangel paper); the paper also measures how little
//! it buys over LRU at full table sizes, which our `sec33_replacement`
//! experiment reproduces.

use std::collections::VecDeque;

use super::{AccessMeta, ReplacementPolicy, WayMask};
use triangel_types::{xor_fold, LineAddr, Pc, SaturatingCounter};

const RRPV_MAX: u8 = 7; // 3-bit RRPVs, as in the HawkEye paper.
const RRPV_AGE_CAP: u8 = 6; // Friendly lines age up to 6, never to 7.

/// Tuning parameters for [`HawkEye`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HawkEyeConfig {
    /// Number of sets sampled for OPTgen (64 in the papers).
    pub sampled_sets: usize,
    /// OPTgen history window, in accesses per sampled set, as a multiple
    /// of associativity (8x in the paper).
    pub history_factor: usize,
    /// log2 of the PC predictor table size (13 -> 8192 entries).
    pub predictor_index_bits: u32,
}

impl Default for HawkEyeConfig {
    fn default() -> Self {
        HawkEyeConfig {
            sampled_sets: 64,
            history_factor: 8,
            predictor_index_bits: 13,
        }
    }
}

/// One OPTgen-sampled set: a sliding access history plus the occupancy
/// vector Belady's policy would have produced.
#[derive(Debug, Clone, Default)]
struct OptGenSet {
    /// (line, pc-hash) per access, oldest first.
    history: VecDeque<(LineAddr, u32)>,
    /// Occupancy per access quantum, aligned with `history`.
    occupancy: VecDeque<u8>,
}

/// HawkEye: OPTgen-sampled, PC-classified, RRIP-backed replacement.
#[derive(Debug)]
pub struct HawkEye {
    ways: usize,
    cfg: HawkEyeConfig,
    sample_stride: usize,
    window: usize,
    rrpv: Vec<u8>,
    loader: Vec<u16>, // pc-hash that loaded each (set, way)
    predictor: Vec<SaturatingCounter>,
    samples: Vec<OptGenSet>,
}

impl HawkEye {
    /// Creates HawkEye state for `sets x ways`.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or the predictor index is
    /// wider than 16 bits: each (set, way)'s loader PC hash is stored as
    /// a `u16` (the shipped configurations use 13 and 8 bits).
    pub fn new(sets: usize, ways: usize, cfg: HawkEyeConfig) -> Self {
        assert!(sets > 0 && ways > 0);
        assert!(
            cfg.predictor_index_bits <= 16,
            "predictor index must fit a u16"
        );
        let sample_stride = (sets / cfg.sampled_sets.max(1)).max(1);
        let sampled = sets.div_ceil(sample_stride);
        let predictor_len = 1usize << cfg.predictor_index_bits;
        HawkEye {
            ways,
            cfg,
            sample_stride,
            window: cfg.history_factor * ways,
            rrpv: vec![RRPV_MAX; sets * ways],
            loader: vec![0; sets * ways],
            predictor: vec![SaturatingCounter::with_initial(7, 4); predictor_len],
            samples: vec![OptGenSet::default(); sampled],
        }
    }

    fn pc_hash(&self, meta: &AccessMeta) -> u32 {
        let pc = meta.pc.unwrap_or(Pc::new(0)).get();
        // Separate prefetch-triggered fills from demand fills, as HawkEye
        // does, so a PC can be friendly for demands yet averse when its
        // prefetches pollute.
        let tagged = pc ^ ((meta.is_prefetch as u64) << 62);
        xor_fold(tagged, self.cfg.predictor_index_bits) as u32
    }

    fn is_friendly(&self, pc_hash: u32) -> bool {
        self.predictor[pc_hash as usize].get() >= 4
    }

    fn sample_index(&self, set: usize) -> Option<usize> {
        if set.is_multiple_of(self.sample_stride) {
            Some(set / self.sample_stride)
        } else {
            None
        }
    }

    /// Feeds one access into OPTgen and trains the predictor with the
    /// verdict Belady's policy would give for the *previous* occurrence.
    fn optgen_access(&mut self, set: usize, meta: &AccessMeta) {
        let Some(si) = self.sample_index(set) else {
            return;
        };
        let pc_hash = self.pc_hash(meta);
        let ways = self.ways as u8;
        let window = self.window;
        let sample = &mut self.samples[si];

        // Look back for the previous access to this line.
        let prev = sample
            .history
            .iter()
            .rposition(|(line, _)| *line == meta.line);
        if let Some(pos) = prev {
            let interval = pos..sample.history.len();
            let fits = interval.clone().all(|i| sample.occupancy[i] < ways);
            let loader_hash = sample.history[pos].1;
            if fits {
                for i in interval {
                    sample.occupancy[i] += 1;
                }
                self.predictor[loader_hash as usize].inc();
            } else {
                self.predictor[loader_hash as usize].dec();
            }
        }

        sample.history.push_back((meta.line, pc_hash));
        sample.occupancy.push_back(0);
        while sample.history.len() > window {
            sample.history.pop_front();
            sample.occupancy.pop_front();
        }
    }
}

impl ReplacementPolicy for HawkEye {
    fn on_hit(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        self.optgen_access(set, meta);
        let pc_hash = self.pc_hash(meta);
        let i = set * self.ways + way;
        self.rrpv[i] = if self.is_friendly(pc_hash) {
            0
        } else {
            RRPV_MAX
        };
        self.loader[i] = pc_hash as u16;
    }

    fn on_fill(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        self.optgen_access(set, meta);
        let pc_hash = self.pc_hash(meta);
        let friendly = self.is_friendly(pc_hash);
        if friendly {
            // Age the other friendly lines so older friendlies become
            // evictable before newer ones, without ever reaching
            // cache-averse priority.
            for w in 0..self.ways {
                if w == way {
                    continue;
                }
                let j = set * self.ways + w;
                if self.rrpv[j] < RRPV_AGE_CAP {
                    self.rrpv[j] += 1;
                }
            }
        }
        let i = set * self.ways + way;
        self.rrpv[i] = if friendly { 0 } else { RRPV_MAX };
        self.loader[i] = pc_hash as u16;
    }

    fn victim(&mut self, set: usize, mask: WayMask) -> usize {
        assert!(mask != 0, "victim called with empty way mask");
        // Prefer a cache-averse line.
        if let Some(w) = (0..self.ways)
            .filter(|w| mask & (1 << w) != 0)
            .find(|w| self.rrpv[set * self.ways + w] == RRPV_MAX)
        {
            return w;
        }
        // Otherwise evict the oldest friendly line and detrain its loader:
        // OPT would have kept it, so the prediction was over-optimistic.
        let w = (0..self.ways)
            .filter(|w| mask & (1 << w) != 0)
            .max_by_key(|w| self.rrpv[set * self.ways + w])
            .expect("mask selects at least one way");
        let loader = self.loader[set * self.ways + w];
        self.predictor[loader as usize].dec();
        w
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        let i = set * self.ways + way;
        self.rrpv[i] = RRPV_MAX;
        self.loader[i] = 0;
    }
}

impl triangel_types::snap::Snapshot for HawkEye {
    fn save(
        &self,
        w: &mut triangel_types::snap::SnapWriter,
    ) -> Result<(), triangel_types::snap::SnapError> {
        w.usize(self.rrpv.len());
        for v in &self.rrpv {
            w.u8(*v);
        }
        w.usize(self.loader.len());
        for v in &self.loader {
            w.u64(*v as u64);
        }
        w.usize(self.predictor.len());
        for c in &self.predictor {
            c.save(w)?;
        }
        w.usize(self.samples.len());
        for s in &self.samples {
            w.usize(s.history.len());
            for (line, pc_hash) in &s.history {
                w.u64(line.index());
                w.u64(*pc_hash as u64);
            }
            w.usize(s.occupancy.len());
            for o in &s.occupancy {
                w.u8(*o);
            }
        }
        Ok(())
    }

    fn restore(
        &mut self,
        r: &mut triangel_types::snap::SnapReader,
    ) -> Result<(), triangel_types::snap::SnapError> {
        r.expect_len(self.rrpv.len(), "HawkEye RRPVs")?;
        for v in &mut self.rrpv {
            *v = r.u8()?;
        }
        let predictor_len = self.predictor.len();
        // A PC hash indexes the predictor; anything wider is corrupt
        // (and would not fit the packed `u16` loaders).
        let read_hash = |r: &mut triangel_types::snap::SnapReader| {
            let h = r.u64()?;
            triangel_types::snap::snap_check(
                h < predictor_len as u64,
                "HawkEye PC hash beyond the predictor",
            )?;
            Ok::<u32, triangel_types::snap::SnapError>(h as u32)
        };
        r.expect_len(self.loader.len(), "HawkEye loaders")?;
        for v in &mut self.loader {
            *v = read_hash(r)? as u16;
        }
        r.expect_len(self.predictor.len(), "HawkEye predictor")?;
        for c in &mut self.predictor {
            c.restore(r)?;
        }
        r.expect_len(self.samples.len(), "HawkEye samples")?;
        for s in &mut self.samples {
            let n = r.usize()?;
            triangel_types::snap::snap_check(n <= self.window, "OPTgen history above window")?;
            s.history.clear();
            for _ in 0..n {
                let line = LineAddr::new(r.u64()?);
                let pc_hash = read_hash(r)?;
                s.history.push_back((line, pc_hash));
            }
            let n = r.usize()?;
            triangel_types::snap::snap_check(
                n == s.history.len(),
                "OPTgen occupancy misaligned with history",
            )?;
            s.occupancy.clear();
            for _ in 0..n {
                s.occupancy.push_back(r.u8()?);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(line: u64, pc: u64) -> AccessMeta {
        AccessMeta::demand(LineAddr::new(line), Some(Pc::new(pc)))
    }

    fn small() -> HawkEye {
        HawkEye::new(
            1,
            4,
            HawkEyeConfig {
                sampled_sets: 1,
                history_factor: 8,
                predictor_index_bits: 8,
            },
        )
    }

    #[test]
    fn reused_pc_becomes_friendly() {
        let mut h = small();
        // PC 0x10 loads lines that are promptly reused within capacity.
        for round in 0..20 {
            for line in 0..3u64 {
                h.on_fill(0, (line % 4) as usize, &demand(line, 0x10));
            }
            let _ = round;
        }
        let hash = h.pc_hash(&demand(0, 0x10));
        assert!(h.is_friendly(hash), "reused PC should classify friendly");
    }

    #[test]
    fn streaming_pc_becomes_averse() {
        let mut h = small();
        // PC 0x20 thrashes: 16 lines cycled through 4 ways. The reuse
        // distance (16) is inside the OPTgen window (32) but far beyond
        // what Belady could keep in 4 ways, so most intervals do not fit.
        for line in 0..200u64 {
            h.on_fill(0, (line % 4) as usize, &demand(line % 16, 0x20));
        }
        let hash = h.pc_hash(&demand(0, 0x20));
        assert!(!h.is_friendly(hash), "streaming PC should classify averse");
    }

    #[test]
    fn averse_fills_are_evicted_first() {
        let mut h = small();
        // Manually force predictions: friendly loads in ways 0..3, then an
        // averse fill in way 3 must be the next victim.
        let friendly = h.pc_hash(&demand(0, 0x1)) as usize;
        let averse = h.pc_hash(&demand(0, 0x2)) as usize;
        for _ in 0..10 {
            h.predictor[friendly].inc();
            h.predictor[averse].dec();
        }
        for w in 0..3 {
            h.on_fill(0, w, &demand(w as u64, 0x1));
        }
        h.on_fill(0, 3, &demand(99, 0x2));
        assert_eq!(h.victim(0, 0b1111), 3);
    }

    #[test]
    fn friendly_eviction_detrains_loader() {
        let mut h = small();
        let hash = h.pc_hash(&demand(0, 0x5)) as usize;
        for _ in 0..10 {
            h.predictor[hash].inc();
        }
        let before = h.predictor[hash].get();
        for w in 0..4 {
            h.on_fill(0, w, &demand(w as u64, 0x5));
        }
        let _ = h.victim(0, 0b1111);
        assert!(
            h.predictor[hash].get() < before,
            "evicting a friendly line must detrain"
        );
    }

    #[test]
    fn prefetch_and_demand_pcs_are_distinct() {
        let h = small();
        let d = h.pc_hash(&AccessMeta::demand(LineAddr::new(0), Some(Pc::new(0x30))));
        let p = h.pc_hash(&AccessMeta::prefetch(LineAddr::new(0), Some(Pc::new(0x30))));
        assert_ne!(d, p);
    }

    #[test]
    fn unsampled_sets_do_no_optgen_work() {
        let mut h = HawkEye::new(
            128,
            4,
            HawkEyeConfig {
                sampled_sets: 2,
                history_factor: 8,
                predictor_index_bits: 8,
            },
        );
        // Set 1 is not sampled (stride 64); history must stay empty.
        h.on_fill(1, 0, &demand(7, 0x40));
        assert!(h.samples.iter().map(|s| s.history.len()).sum::<usize>() == 0);
        h.on_fill(64, 0, &demand(7, 0x40));
        assert_eq!(h.samples[1].history.len(), 1);
    }

    #[test]
    #[should_panic(expected = "predictor index must fit a u16")]
    fn rejects_predictor_indices_wider_than_the_loaders() {
        let _ = HawkEye::new(
            1,
            4,
            HawkEyeConfig {
                predictor_index_bits: 17,
                ..HawkEyeConfig::default()
            },
        );
    }

    #[test]
    fn restore_rejects_pc_hashes_beyond_the_predictor() {
        use triangel_types::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
        let mut h = small();
        for w in 0..4 {
            h.on_fill(0, w, &demand(w as u64, 0x5));
        }
        let mut w = SnapWriter::new();
        h.save(&mut w).unwrap();
        let good = w.into_bytes();
        small().restore(&mut SnapReader::new(&good)).unwrap();
        // Loader 0 follows the RRPV count, the four RRPVs and the
        // loader count; the 8-bit predictor has 256 entries.
        let at = 8 + 4 + 8;
        let mut bad = good.clone();
        bad[at..at + 8].copy_from_slice(&256u64.to_le_bytes());
        assert!(matches!(
            small().restore(&mut SnapReader::new(&bad)),
            Err(SnapError::Corrupt(_))
        ));
    }
}
