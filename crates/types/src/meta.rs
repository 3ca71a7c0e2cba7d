//! The per-cache-line simulation metadata word.
//!
//! PR 2 moved the facts the simulator used to keep in side tables
//! (`HashMap<LineAddr, Cycle>` fill times, a `HashSet<LineAddr>` of
//! temporal-prefetched residents) into the cache lines themselves: every
//! line carries a small metadata word — who filled it, when the fill
//! completes, and whether a demand has touched it — that rides along
//! through fill, hit and eviction. The word is the authoritative record:
//! it is born at fill, surfaced on every lookup, and delivered to
//! whoever is watching exactly when the line dies, so used/wasted
//! prefetch attribution needs no shadow bookkeeping.

use crate::Cycle;

/// Who installed a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillSource {
    /// A demand miss brought the line in.
    #[default]
    Demand,
    /// The L1D stride prefetcher (part of the paper's baseline).
    Stride,
    /// The temporal prefetcher under evaluation (Triage / Triangel).
    Temporal,
}

impl FillSource {
    /// Whether the line was installed by any prefetcher.
    pub fn is_prefetch(self) -> bool {
        !matches!(self, FillSource::Demand)
    }
}

/// The metadata word one cache line carries.
///
/// Small by design — hardware would spend a handful of bits per line on
/// this (2 source bits, a used bit, and a bounded fill timestamp held in
/// the MSHR until completion). The simulator keeps `ready_at` as a full
/// [`Cycle`] so late-prefetch timing is exact over arbitrarily long
/// runs, and stores the rest packed: the cache's line record holds the
/// 56-bit fill ordinal, the used bit and the 2 source bits in one word
/// alongside its valid and prefetch-tag flags (a 32 B record per line;
/// profiles show the simulator's cache model is bound by host cache
/// misses on these records). This struct is the unpacked view handed
/// to callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineMeta {
    /// Who filled the line.
    pub source: FillSource,
    /// Cycle at which the fill's data actually arrives. A demand hit
    /// before this cycle is a *late prefetch* and waits for it.
    pub ready_at: Cycle,
    /// Whether any demand access has touched the line since fill.
    pub used: bool,
    /// Ordinal of the fill that installed the line, stamped from the
    /// owning cache's monotonic fill clock (1 is the cache's first
    /// fill; 0 means "never stamped", i.e. a default word). Unlike
    /// `ready_at`, fill ordinals are totally ordered within one cache:
    /// a line's `fill_seq` is always strictly less than the ordinal of
    /// the fill that later evicts it, which is what eviction-time
    /// training and the eviction-notice invariants key on (`ready_at`
    /// is *not* monotonic across fills — a delayed prefetch can
    /// complete after a younger demand fill).
    pub fill_seq: u64,
}

impl FillSource {
    /// The snapshot byte for this source (see [`crate::snap`]).
    pub fn snap_tag(self) -> u8 {
        match self {
            FillSource::Demand => 0,
            FillSource::Stride => 1,
            FillSource::Temporal => 2,
        }
    }

    /// Decodes a snapshot byte written by [`FillSource::snap_tag`].
    ///
    /// # Errors
    ///
    /// [`crate::snap::SnapError::Corrupt`] on an unknown byte.
    pub fn from_snap_tag(b: u8) -> Result<Self, crate::snap::SnapError> {
        match b {
            0 => Ok(FillSource::Demand),
            1 => Ok(FillSource::Stride),
            2 => Ok(FillSource::Temporal),
            other => Err(crate::snap::SnapError::corrupt(format!(
                "fill-source byte {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_prefetch_classification() {
        assert!(!FillSource::Demand.is_prefetch());
        assert!(FillSource::Stride.is_prefetch());
        assert!(FillSource::Temporal.is_prefetch());
        assert_eq!(FillSource::default(), FillSource::Demand);
    }

    #[test]
    fn meta_defaults_are_inert() {
        let m = LineMeta::default();
        assert_eq!(m.ready_at, 0);
        assert!(!m.used);
        assert_eq!(m.source, FillSource::Demand);
        assert_eq!(m.fill_seq, 0, "an unstamped word has no fill ordinal");
    }
}
