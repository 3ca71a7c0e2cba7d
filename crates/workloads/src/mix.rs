//! Weighted interleaving of streams into a single core's access trace.

use crate::irregular::{GcChurnStream, HashJoinStream, WebSessionStream, ZipfKvStream};
use crate::temporal::{RandomStream, StridedStream, TemporalStream};
use crate::trace::{AccessRing, MemoryAccess, TraceSource};
use triangel_types::rng::SplitMix64;

/// One constituent stream of a [`WorkloadMix`], enum-dispatched.
///
/// The mix sits on the simulator's per-access hot path; storing the
/// shipped building blocks as concrete variants (instead of
/// `Box<dyn TraceSource>`) lets the per-pick pull monomorphize.
#[derive(Debug)]
pub enum StreamImpl {
    /// A repeating temporal sequence.
    Temporal(TemporalStream),
    /// A strided scan.
    Strided(StridedStream),
    /// Unlearnable uniform noise.
    Random(RandomStream),
    /// Zipfian key-value store lookups.
    ZipfKv(ZipfKvStream),
    /// GC/allocator churn.
    GcChurn(GcChurnStream),
    /// Hash-join / index-probe kernel.
    HashJoin(HashJoinStream),
    /// Web-serving session mix.
    WebSession(WebSessionStream),
}

impl StreamImpl {
    #[inline]
    fn next_access(&mut self) -> MemoryAccess {
        match self {
            StreamImpl::Temporal(s) => s.next_access(),
            StreamImpl::Strided(s) => s.next_access(),
            StreamImpl::Random(s) => s.next_access(),
            StreamImpl::ZipfKv(s) => s.next_access(),
            StreamImpl::GcChurn(s) => s.next_access(),
            StreamImpl::HashJoin(s) => s.next_access(),
            StreamImpl::WebSession(s) => s.next_access(),
        }
    }
}

impl From<TemporalStream> for StreamImpl {
    fn from(s: TemporalStream) -> Self {
        StreamImpl::Temporal(s)
    }
}

impl From<StridedStream> for StreamImpl {
    fn from(s: StridedStream) -> Self {
        StreamImpl::Strided(s)
    }
}

impl From<RandomStream> for StreamImpl {
    fn from(s: RandomStream) -> Self {
        StreamImpl::Random(s)
    }
}

impl From<ZipfKvStream> for StreamImpl {
    fn from(s: ZipfKvStream) -> Self {
        StreamImpl::ZipfKv(s)
    }
}

impl From<GcChurnStream> for StreamImpl {
    fn from(s: GcChurnStream) -> Self {
        StreamImpl::GcChurn(s)
    }
}

impl From<HashJoinStream> for StreamImpl {
    fn from(s: HashJoinStream) -> Self {
        StreamImpl::HashJoin(s)
    }
}

impl From<WebSessionStream> for StreamImpl {
    fn from(s: WebSessionStream) -> Self {
        StreamImpl::WebSession(s)
    }
}

/// Interleaves several [`TraceSource`]s with fixed weights, modelling a
/// program whose loops touch several data structures.
///
/// Selection is deterministic pseudo-random: on average, stream `i`
/// contributes `weight_i / total_weight` of all accesses, finely
/// interleaved (as loads from different program structures are in a real
/// out-of-order window).
///
/// # Examples
///
/// ```
/// use triangel_workloads::mix::WorkloadMix;
/// use triangel_workloads::temporal::{TemporalStream, TemporalStreamConfig};
/// use triangel_workloads::trace::TraceSource;
/// use triangel_types::{Addr, Pc};
///
/// let a = TemporalStream::new(
///     TemporalStreamConfig::pointer_chase("a", Pc::new(1), Addr::new(0), 32), 1);
/// let b = TemporalStream::new(
///     TemporalStreamConfig::pointer_chase("b", Pc::new(2), Addr::new(1 << 30), 32), 2);
/// let mut mix = WorkloadMix::new("ab", 9);
/// mix.add_stream(a, 3);
/// mix.add_stream(b, 1);
/// let _ = mix.next_access();
/// ```
#[derive(Debug)]
pub struct WorkloadMix {
    name: String,
    streams: Vec<(StreamImpl, u32)>,
    total_weight: u64,
    rng: SplitMix64,
}

impl WorkloadMix {
    /// Creates an empty mix.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        WorkloadMix {
            name: name.into(),
            streams: Vec::new(),
            total_weight: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Adds one of the shipped building blocks with the given selection
    /// weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero.
    pub fn add_stream(&mut self, stream: impl Into<StreamImpl>, weight: u32) {
        assert!(weight > 0, "stream weight must be positive");
        self.total_weight += weight as u64;
        self.streams.push((stream.into(), weight));
    }

    /// Number of constituent streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether the mix has no streams.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }
}

impl TraceSource for WorkloadMix {
    fn next_access(&mut self) -> MemoryAccess {
        assert!(!self.streams.is_empty(), "mix has no streams");
        let mut pick = self.rng.next_below(self.total_weight);
        for (stream, w) in &mut self.streams {
            if pick < *w as u64 {
                return stream.next_access();
            }
            pick -= *w as u64;
        }
        unreachable!("weights sum correctly")
    }

    fn fill(&mut self, ring: &mut AccessRing) -> usize {
        assert!(!self.streams.is_empty(), "mix has no streams");
        // Batched selection: identical RNG-draw and stream-pull order
        // to `next_access` (one draw, one pull, per slot), with the
        // emptiness check, the weight-total load and the ring bounds
        // hoisted out of the per-access loop.
        let want = ring.remaining();
        let total = self.total_weight;
        for _ in 0..want {
            let mut pick = self.rng.next_below(total);
            let access = 'sel: {
                for (stream, w) in &mut self.streams {
                    if pick < *w as u64 {
                        break 'sel stream.next_access();
                    }
                    pick -= *w as u64;
                }
                unreachable!("weights sum correctly")
            };
            let pushed = ring.push(access);
            debug_assert!(pushed, "remaining() slots must accept pushes");
        }
        want
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.save_state_impl(w)
    }

    fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.restore_state_impl(r)
    }
}

use triangel_types::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

impl StreamImpl {
    fn save_snap(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        match self {
            StreamImpl::Temporal(s) => s.save_snap(w),
            StreamImpl::Strided(s) => {
                s.save_snap(w);
                Ok(())
            }
            StreamImpl::Random(s) => s.save_snap(w),
            StreamImpl::ZipfKv(s) => s.save_snap(w),
            StreamImpl::GcChurn(s) => s.save_snap(w),
            StreamImpl::HashJoin(s) => s.save_snap(w),
            StreamImpl::WebSession(s) => s.save_snap(w),
        }
    }

    fn restore_snap(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        match self {
            StreamImpl::Temporal(s) => s.restore_snap(r),
            StreamImpl::Strided(s) => s.restore_snap(r),
            StreamImpl::Random(s) => s.restore_snap(r),
            StreamImpl::ZipfKv(s) => s.restore_snap(r),
            StreamImpl::GcChurn(s) => s.restore_snap(r),
            StreamImpl::HashJoin(s) => s.restore_snap(r),
            StreamImpl::WebSession(s) => s.restore_snap(r),
        }
    }
}

impl WorkloadMix {
    /// Serializes the mix's dynamic state (selection RNG + every
    /// constituent stream); the trait-level
    /// [`TraceSource::save_state`] forwards here.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`].
    pub fn save_state_impl(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.rng.save(w)?;
        w.usize(self.streams.len());
        for (s, _) in &self.streams {
            s.save_snap(w)?;
        }
        Ok(())
    }

    /// Restores the state written by [`WorkloadMix::save_state_impl`].
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`].
    pub fn restore_state_impl(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.rng.restore(r)?;
        r.expect_len(self.streams.len(), "mix streams")?;
        for (s, _) in &mut self.streams {
            s.restore_snap(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::{TemporalStream, TemporalStreamConfig};
    use triangel_types::{Addr, Pc};

    fn chase(pc: u64, base: u64, len: usize) -> TemporalStream {
        TemporalStream::new(
            TemporalStreamConfig::pointer_chase(
                format!("s{pc}"),
                Pc::new(pc),
                Addr::new(base),
                len,
            ),
            pc,
        )
    }

    #[test]
    fn weights_are_respected() {
        let mut mix = WorkloadMix::new("m", 1);
        mix.add_stream(chase(1, 0, 16), 3);
        mix.add_stream(chase(2, 1 << 30, 16), 1);
        let mut low = 0;
        for _ in 0..4000 {
            if mix.next_access().vaddr.get() < (1 << 30) {
                low += 1;
            }
        }
        assert!((2700..3300).contains(&low), "3:1 weighting off: {low}/4000");
    }

    #[test]
    fn per_stream_order_is_preserved() {
        // Interleaving must not reorder accesses within one stream.
        let mut solo = chase(5, 0, 64);
        let expected: Vec<u64> = (0..64).map(|_| solo.next_access().vaddr.get()).collect();

        let mut mix = WorkloadMix::new("m", 2);
        mix.add_stream(chase(5, 0, 64), 1);
        mix.add_stream(chase(6, 1 << 30, 64), 1);
        let mut got = Vec::new();
        while got.len() < 64 {
            let a = mix.next_access();
            if a.vaddr.get() < (1 << 30) {
                got.push(a.vaddr.get());
            }
        }
        assert_eq!(got, expected);
    }

    #[test]
    #[should_panic(expected = "mix has no streams")]
    fn empty_mix_panics() {
        let mut mix = WorkloadMix::new("m", 0);
        let _ = mix.next_access();
    }

    #[test]
    #[should_panic(expected = "mix has no streams")]
    fn empty_mix_fill_panics() {
        let mut mix = WorkloadMix::new("m", 0);
        let _ = mix.fill(&mut AccessRing::new());
    }

    #[test]
    fn fill_matches_next_access_exactly() {
        let build = || {
            let mut mix = WorkloadMix::new("m", 9);
            mix.add_stream(chase(1, 0, 16), 3);
            mix.add_stream(chase(2, 1 << 30, 16), 1);
            mix.add_stream(chase(3, 2 << 30, 16), 5);
            mix
        };
        let mut by_next = build();
        let mut by_fill = build();
        let mut ring = AccessRing::with_capacity(13);
        for _ in 0..50 {
            by_fill.fill(&mut ring);
            while let Some(a) = ring.pop() {
                assert_eq!(a, by_next.next_access());
            }
        }
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let mut mix = WorkloadMix::new("m", 0);
        mix.add_stream(chase(1, 0, 8), 0);
    }
}
