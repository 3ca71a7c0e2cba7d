//! Replacement policies.
//!
//! Every policy implements [`ReplacementPolicy`], a per-(set, way) protocol
//! driven by the owning [`Cache`](crate::Cache):
//!
//! * [`Lru`] / [`Fifo`] / [`Random`] — classic baselines.
//! * [`TreePlru`] — tree pseudo-LRU, as shipped in Arm L1 caches
//!   (the paper cites PLRU bits stored in spare tag bits, Section 3.2).
//! * [`Rrip`] — SRRIP and BRRIP re-reference interval prediction
//!   (Jaleel et al., ISCA 2010); Triangel uses SRRIP for its Markov
//!   partition (Section 5).
//! * [`HawkEye`] — Belady-mimicking replacement (Jain & Lin, ISCA 2016)
//!   with OPTgen sampled sets and a PC-based predictor; Triage uses it for
//!   Markov metadata (Section 3.3).

mod fifo;
mod hawkeye;
mod lru;
mod plru;
mod random;
mod rrip;

pub use fifo::Fifo;
pub use hawkeye::{HawkEye, HawkEyeConfig};
pub use lru::Lru;
pub use plru::TreePlru;
pub use random::Random;
pub use rrip::{Rrip, RripMode};

use triangel_types::{LineAddr, Pc};

/// Metadata describing the access being recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessMeta {
    /// The line being accessed or filled.
    pub line: LineAddr,
    /// The program counter of the triggering instruction, when known.
    /// Prefetch fills inherit the PC of the training access.
    pub pc: Option<Pc>,
    /// Whether the access is a prefetch (fill or lookup) rather than a
    /// demand access.
    pub is_prefetch: bool,
}

impl AccessMeta {
    /// Convenience constructor for a demand access.
    pub fn demand(line: LineAddr, pc: Option<Pc>) -> Self {
        AccessMeta {
            line,
            pc,
            is_prefetch: false,
        }
    }

    /// Convenience constructor for a prefetch access.
    pub fn prefetch(line: LineAddr, pc: Option<Pc>) -> Self {
        AccessMeta {
            line,
            pc,
            is_prefetch: true,
        }
    }
}

/// A bitmask of ways eligible for victim selection.
///
/// Way `w` is eligible if bit `w` is set. Way-partitioned caches restrict
/// the mask to the ways owned by the requester.
pub type WayMask = u64;

/// Returns a mask with the `ways` low bits set (all ways eligible).
pub const fn all_ways(ways: usize) -> WayMask {
    if ways >= 64 {
        u64::MAX
    } else {
        (1u64 << ways) - 1
    }
}

/// Panics unless `mask` selects at least one of a set's `ways` ways.
/// Every policy's `victim` calls it first: a mask whose bits all lie at
/// or above `ways` leaves nothing to choose, and RRIP's aging loop would
/// spin on it forever.
fn check_victim_mask(mask: WayMask, ways: usize) {
    assert!(
        mask & all_ways(ways) != 0,
        "victim called with a way mask that selects no way"
    );
}

/// The per-set replacement protocol.
///
/// The cache guarantees that `victim` is called only when every eligible
/// way holds a valid line; invalid ways are filled first without consulting
/// the policy.
pub trait ReplacementPolicy: std::fmt::Debug {
    /// Records a hit at `(set, way)`.
    fn on_hit(&mut self, set: usize, way: usize, meta: &AccessMeta);

    /// Records a new line being installed at `(set, way)`.
    fn on_fill(&mut self, set: usize, way: usize, meta: &AccessMeta);

    /// Chooses a victim way within `set` among the ways allowed by `mask`.
    ///
    /// # Panics
    ///
    /// The shipped policies panic if `mask` selects no way of the set.
    fn victim(&mut self, set: usize, mask: WayMask) -> usize;

    /// Records that `(set, way)` was invalidated (e.g. by a partition
    /// resize). Default: no bookkeeping.
    fn on_invalidate(&mut self, _set: usize, _way: usize) {}

    /// Notifies the policy that the line chosen by [`victim`] was indeed
    /// evicted, passing the line that lived there. HawkEye uses this to
    /// detrain the PC that loaded an over-optimistically-kept line.
    /// Default: no bookkeeping.
    ///
    /// [`victim`]: ReplacementPolicy::victim
    fn on_evict(&mut self, _set: usize, _way: usize, _line: LineAddr) {}
}

/// Selects which replacement policy a cache is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// Least recently used.
    #[default]
    Lru,
    /// First in, first out.
    Fifo,
    /// Uniform random.
    Random,
    /// Tree pseudo-LRU.
    TreePlru,
    /// Static RRIP (insert at distant, promote to near on hit).
    Srrip,
    /// Bimodal RRIP (insert at max, occasionally distant).
    Brrip,
    /// HawkEye (Belady-mimicking, PC-classified).
    Hawkeye,
}

impl PolicyKind {
    /// Instantiates the policy as a [`ReplacementImpl`] (enum dispatch,
    /// no vtable on the hot path). This is the only builder: the old
    /// `build` shim that returned `Box<dyn ReplacementPolicy>` is gone,
    /// and callers that genuinely need a trait object can box the
    /// concrete types themselves.
    pub fn build_impl(self, sets: usize, ways: usize) -> ReplacementImpl {
        match self {
            PolicyKind::Lru => ReplacementImpl::Lru(Lru::new(sets, ways)),
            PolicyKind::Fifo => ReplacementImpl::Fifo(Fifo::new(sets, ways)),
            PolicyKind::Random => ReplacementImpl::Random(Random::new(sets, ways, 0xC0FFEE)),
            PolicyKind::TreePlru => ReplacementImpl::TreePlru(TreePlru::new(sets, ways)),
            PolicyKind::Srrip => ReplacementImpl::Rrip(Rrip::new(sets, ways, RripMode::Static)),
            PolicyKind::Brrip => ReplacementImpl::Rrip(Rrip::new(sets, ways, RripMode::Bimodal)),
            PolicyKind::Hawkeye => {
                ReplacementImpl::Hawkeye(HawkEye::new(sets, ways, HawkEyeConfig::default()))
            }
        }
    }
}

/// Every shipped replacement policy as one concrete value.
///
/// The caches and the Markov table are generic consumers of
/// [`ReplacementPolicy`]; storing the policy as this enum instead of a
/// `Box<dyn ReplacementPolicy>` replaces per-access virtual calls with
/// a branch-predictable match, so the policy's `on_hit`/`victim` logic
/// (HawkEye's OPTgen sampling, SRRIP's interval scan) inlines into the
/// set-scan loop. Behaviour is identical to the boxed form by
/// construction: both wrap the very same concrete types.
#[derive(Debug)]
pub enum ReplacementImpl {
    /// Least recently used.
    Lru(Lru),
    /// First in, first out.
    Fifo(Fifo),
    /// Uniform random.
    Random(Random),
    /// Tree pseudo-LRU.
    TreePlru(TreePlru),
    /// RRIP, static or bimodal (see [`RripMode`]).
    Rrip(Rrip),
    /// HawkEye (Belady-mimicking, PC-classified).
    Hawkeye(HawkEye),
}

impl ReplacementPolicy for ReplacementImpl {
    fn on_hit(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        match self {
            ReplacementImpl::Lru(p) => p.on_hit(set, way, meta),
            ReplacementImpl::Fifo(p) => p.on_hit(set, way, meta),
            ReplacementImpl::Random(p) => p.on_hit(set, way, meta),
            ReplacementImpl::TreePlru(p) => p.on_hit(set, way, meta),
            ReplacementImpl::Rrip(p) => p.on_hit(set, way, meta),
            ReplacementImpl::Hawkeye(p) => p.on_hit(set, way, meta),
        }
    }

    fn on_fill(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        match self {
            ReplacementImpl::Lru(p) => p.on_fill(set, way, meta),
            ReplacementImpl::Fifo(p) => p.on_fill(set, way, meta),
            ReplacementImpl::Random(p) => p.on_fill(set, way, meta),
            ReplacementImpl::TreePlru(p) => p.on_fill(set, way, meta),
            ReplacementImpl::Rrip(p) => p.on_fill(set, way, meta),
            ReplacementImpl::Hawkeye(p) => p.on_fill(set, way, meta),
        }
    }

    fn victim(&mut self, set: usize, mask: WayMask) -> usize {
        match self {
            ReplacementImpl::Lru(p) => p.victim(set, mask),
            ReplacementImpl::Fifo(p) => p.victim(set, mask),
            ReplacementImpl::Random(p) => p.victim(set, mask),
            ReplacementImpl::TreePlru(p) => p.victim(set, mask),
            ReplacementImpl::Rrip(p) => p.victim(set, mask),
            ReplacementImpl::Hawkeye(p) => p.victim(set, mask),
        }
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        match self {
            ReplacementImpl::Lru(p) => p.on_invalidate(set, way),
            ReplacementImpl::Fifo(p) => p.on_invalidate(set, way),
            ReplacementImpl::Random(p) => p.on_invalidate(set, way),
            ReplacementImpl::TreePlru(p) => p.on_invalidate(set, way),
            ReplacementImpl::Rrip(p) => p.on_invalidate(set, way),
            ReplacementImpl::Hawkeye(p) => p.on_invalidate(set, way),
        }
    }

    fn on_evict(&mut self, set: usize, way: usize, line: LineAddr) {
        match self {
            ReplacementImpl::Lru(p) => p.on_evict(set, way, line),
            ReplacementImpl::Fifo(p) => p.on_evict(set, way, line),
            ReplacementImpl::Random(p) => p.on_evict(set, way, line),
            ReplacementImpl::TreePlru(p) => p.on_evict(set, way, line),
            ReplacementImpl::Rrip(p) => p.on_evict(set, way, line),
            ReplacementImpl::Hawkeye(p) => p.on_evict(set, way, line),
        }
    }
}

impl ReplacementImpl {
    /// The snapshot discriminant for this policy variant.
    fn snap_tag(&self) -> u8 {
        match self {
            ReplacementImpl::Lru(_) => 0,
            ReplacementImpl::Fifo(_) => 1,
            ReplacementImpl::Random(_) => 2,
            ReplacementImpl::TreePlru(_) => 3,
            ReplacementImpl::Rrip(_) => 4,
            ReplacementImpl::Hawkeye(_) => 5,
        }
    }
}

impl triangel_types::snap::Snapshot for ReplacementImpl {
    fn save(
        &self,
        w: &mut triangel_types::snap::SnapWriter,
    ) -> Result<(), triangel_types::snap::SnapError> {
        w.u8(self.snap_tag());
        match self {
            ReplacementImpl::Lru(p) => p.save(w),
            ReplacementImpl::Fifo(p) => p.save(w),
            ReplacementImpl::Random(p) => p.save(w),
            ReplacementImpl::TreePlru(p) => p.save(w),
            ReplacementImpl::Rrip(p) => p.save(w),
            ReplacementImpl::Hawkeye(p) => p.save(w),
        }
    }

    fn restore(
        &mut self,
        r: &mut triangel_types::snap::SnapReader,
    ) -> Result<(), triangel_types::snap::SnapError> {
        let tag = r.u8()?;
        triangel_types::snap::snap_check(
            tag == self.snap_tag(),
            "replacement-policy variant mismatch",
        )?;
        match self {
            ReplacementImpl::Lru(p) => p.restore(r),
            ReplacementImpl::Fifo(p) => p.restore(r),
            ReplacementImpl::Random(p) => p.restore(r),
            ReplacementImpl::TreePlru(p) => p.restore(r),
            ReplacementImpl::Rrip(p) => p.restore(r),
            ReplacementImpl::Hawkeye(p) => p.restore(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A boxed reference build, local to the tests: the production
    /// `PolicyKind::build` shim was removed, but the dyn-vs-enum
    /// equivalence check below still wants an independently-dispatched
    /// twin of `build_impl` (same concrete types, same constants).
    fn build_boxed(kind: PolicyKind, sets: usize, ways: usize) -> Box<dyn ReplacementPolicy> {
        match kind {
            PolicyKind::Lru => Box::new(Lru::new(sets, ways)),
            PolicyKind::Fifo => Box::new(Fifo::new(sets, ways)),
            PolicyKind::Random => Box::new(Random::new(sets, ways, 0xC0FFEE)),
            PolicyKind::TreePlru => Box::new(TreePlru::new(sets, ways)),
            PolicyKind::Srrip => Box::new(Rrip::new(sets, ways, RripMode::Static)),
            PolicyKind::Brrip => Box::new(Rrip::new(sets, ways, RripMode::Bimodal)),
            PolicyKind::Hawkeye => Box::new(HawkEye::new(sets, ways, HawkEyeConfig::default())),
        }
    }

    #[test]
    fn all_ways_mask() {
        assert_eq!(all_ways(1), 0b1);
        assert_eq!(all_ways(16), 0xFFFF);
        assert_eq!(all_ways(64), u64::MAX);
    }

    #[test]
    fn build_all_kinds() {
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Random,
            PolicyKind::TreePlru,
            PolicyKind::Srrip,
            PolicyKind::Brrip,
            PolicyKind::Hawkeye,
        ] {
            let mut p = kind.build_impl(4, 4);
            let meta = AccessMeta::demand(LineAddr::new(1), Some(Pc::new(2)));
            for way in 0..4 {
                p.on_fill(0, way, &meta);
            }
            let v = p.victim(0, all_ways(4));
            assert!(v < 4, "{kind:?} returned out-of-range victim");
        }
    }

    #[test]
    fn enum_dispatch_matches_boxed_dispatch() {
        // Same policy behind the dyn shim and the enum must make the
        // same decisions on the same history: both wrap identical
        // concrete state (including the Random policy's fixed seed).
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Random,
            PolicyKind::TreePlru,
            PolicyKind::Srrip,
            PolicyKind::Brrip,
            PolicyKind::Hawkeye,
        ] {
            let mut boxed = build_boxed(kind, 4, 8);
            let mut inline = kind.build_impl(4, 8);
            for i in 0..256u64 {
                let set = (i % 4) as usize;
                let way = (i % 8) as usize;
                let meta = AccessMeta::demand(LineAddr::new(i * 3), Some(Pc::new(i % 5)));
                match i % 3 {
                    0 => {
                        boxed.on_fill(set, way, &meta);
                        inline.on_fill(set, way, &meta);
                    }
                    1 => {
                        boxed.on_hit(set, way, &meta);
                        inline.on_hit(set, way, &meta);
                    }
                    _ => {
                        let mask = all_ways(8);
                        let (a, b) = (boxed.victim(set, mask), inline.victim(set, mask));
                        assert_eq!(a, b, "{kind:?} diverged at step {i}");
                        boxed.on_evict(set, a, meta.line);
                        inline.on_evict(set, b, meta.line);
                    }
                }
            }
        }
    }

    /// Asks a full 4-way set of `kind` for a victim among ways that do
    /// not exist.
    fn victim_beyond_the_ways(kind: PolicyKind) {
        let mut p = kind.build_impl(1, 4);
        let meta = AccessMeta::demand(LineAddr::new(1), Some(Pc::new(2)));
        for way in 0..4 {
            p.on_fill(0, way, &meta);
        }
        p.victim(0, 0b1_0000);
    }

    #[test]
    #[should_panic(expected = "selects no way")]
    fn lru_victim_rejects_a_mask_beyond_the_ways() {
        victim_beyond_the_ways(PolicyKind::Lru);
    }

    #[test]
    #[should_panic(expected = "selects no way")]
    fn fifo_victim_rejects_a_mask_beyond_the_ways() {
        victim_beyond_the_ways(PolicyKind::Fifo);
    }

    #[test]
    #[should_panic(expected = "selects no way")]
    fn random_victim_rejects_a_mask_beyond_the_ways() {
        victim_beyond_the_ways(PolicyKind::Random);
    }

    #[test]
    #[should_panic(expected = "selects no way")]
    fn plru_victim_rejects_a_mask_beyond_the_ways() {
        victim_beyond_the_ways(PolicyKind::TreePlru);
    }

    #[test]
    #[should_panic(expected = "selects no way")]
    fn srrip_victim_rejects_a_mask_beyond_the_ways() {
        victim_beyond_the_ways(PolicyKind::Srrip);
    }

    #[test]
    #[should_panic(expected = "selects no way")]
    fn brrip_victim_rejects_a_mask_beyond_the_ways() {
        victim_beyond_the_ways(PolicyKind::Brrip);
    }

    #[test]
    #[should_panic(expected = "selects no way")]
    fn hawkeye_victim_rejects_a_mask_beyond_the_ways() {
        victim_beyond_the_ways(PolicyKind::Hawkeye);
    }

    #[test]
    fn victim_respects_mask() {
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Random,
            PolicyKind::TreePlru,
            PolicyKind::Srrip,
            PolicyKind::Brrip,
            PolicyKind::Hawkeye,
        ] {
            let mut p = kind.build_impl(2, 8);
            let meta = AccessMeta::demand(LineAddr::new(9), None);
            for way in 0..8 {
                p.on_fill(1, way, &meta);
            }
            // Only ways 4..8 eligible.
            let mask: WayMask = 0b1111_0000;
            for _ in 0..32 {
                let v = p.victim(1, mask);
                assert!((4..8).contains(&v), "{kind:?} ignored the way mask");
            }
        }
    }
}
