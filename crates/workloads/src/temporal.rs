//! Composable access-pattern building blocks.
//!
//! Temporal prefetchers exploit *repeated miss sequences*; the knobs that
//! decide whether Triage/Triangel succeed are (a) the sequence length
//! (reuse distance vs. Markov capacity — drives `ReuseConf`), (b) how
//! exactly the sequence repeats (strict order vs. local reordering —
//! drives `PatternConf` and the Second-Chance Sampler), (c) how fast the
//! pattern drifts (temporal stability), and (d) whether accesses form
//! dependent chains (drives the lookahead-2 advantage). [`TemporalStream`]
//! exposes all four; [`StridedStream`] and [`RandomStream`] provide the
//! stride-prefetchable and untrainable extremes.

use crate::trace::{MemoryAccess, TraceSource};
use triangel_types::rng::SplitMix64;
use triangel_types::{Addr, Pc, CACHE_LINE_BYTES};

/// Configuration for a [`TemporalStream`].
#[derive(Debug, Clone)]
pub struct TemporalStreamConfig {
    /// Display name.
    pub name: String,
    /// The PC all of this stream's accesses appear to come from
    /// (temporal prefetchers are PC-localized, Section 2 of the paper).
    pub pc: Pc,
    /// First byte of the stream's virtual region.
    pub region_base: Addr,
    /// Number of distinct cache lines in the repeating sequence; this is
    /// the stream's reuse distance.
    pub seq_len: usize,
    /// Size of the region the lines are scattered over, in lines
    /// (>= `seq_len`; larger values spread the footprint over more pages).
    pub region_lines: usize,
    /// Probability that a step follows the recorded order exactly. The
    /// remainder are emitted out of order within `shuffle_window`.
    pub exactness: f64,
    /// Reorder window for inexact steps, in accesses. Every element is
    /// still emitted exactly once per pass, within this distance of its
    /// nominal position — the "accessed in close proximity" case the
    /// Second-Chance Sampler recovers (Section 4.4.2).
    pub shuffle_window: usize,
    /// Probability of an access being uniform random inside the region
    /// (unlearnable; corrupts this PC's training).
    pub noise: f64,
    /// Per-element probability, applied each pass, of replacing the
    /// element with a fresh random line: pattern drift.
    pub drift: f64,
    /// Whether each access's address depends on the previous access
    /// (pointer chasing).
    pub dependent: bool,
    /// Non-memory instructions per access.
    pub work: u8,
}

impl TemporalStreamConfig {
    /// A strict, stable, dependent pointer chase over `seq_len` lines —
    /// the friendliest possible temporal pattern.
    pub fn pointer_chase(
        name: impl Into<String>,
        pc: Pc,
        region_base: Addr,
        seq_len: usize,
    ) -> Self {
        TemporalStreamConfig {
            name: name.into(),
            pc,
            region_base,
            seq_len,
            region_lines: seq_len * 2,
            exactness: 1.0,
            shuffle_window: 1,
            noise: 0.0,
            drift: 0.0,
            dependent: true,
            work: 4,
        }
    }
}

/// A repeating temporal sequence with controllable looseness, noise,
/// drift, and dependence.
///
/// The sequence is stored as `u32` line offsets within the region, so
/// a region holds at most 2^32 lines (256 GiB).
///
/// # Examples
///
/// ```
/// use triangel_workloads::temporal::{TemporalStream, TemporalStreamConfig};
/// use triangel_workloads::trace::TraceSource;
/// use triangel_types::{Addr, Pc};
///
/// let cfg = TemporalStreamConfig::pointer_chase("chase", Pc::new(0x10), Addr::new(1 << 30), 64);
/// let mut s = TemporalStream::new(cfg, 1);
/// let first_pass: Vec<_> = (0..64).map(|_| s.next_access().vaddr).collect();
/// let second_pass: Vec<_> = (0..64).map(|_| s.next_access().vaddr).collect();
/// assert_eq!(first_pass, second_pass); // exact repetition
/// ```
#[derive(Debug)]
pub struct TemporalStream {
    cfg: TemporalStreamConfig,
    /// The sequence, as line offsets within the region.
    seq: Vec<u32>,
    /// Items from the current pass awaiting emission (reorder buffer).
    pending: Vec<u32>,
    /// Emissions since the current front of `pending` arrived there;
    /// bounds how far any element can be displaced.
    front_age: usize,
    pos: usize,
    rng: SplitMix64,
}

impl TemporalStream {
    /// Builds the stream, generating its sequence deterministically from
    /// `seed`. Drawing it takes a transient bitmap of `region_lines`
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `seq_len` is zero, `region_lines < seq_len`,
    /// `region_lines > 2^32` (offsets are stored as `u32`), or the
    /// probabilities are outside `[0, 1]`.
    pub fn new(cfg: TemporalStreamConfig, seed: u64) -> Self {
        assert!(cfg.seq_len > 0, "sequence must be non-empty");
        assert!(
            cfg.region_lines >= cfg.seq_len,
            "region must fit the sequence"
        );
        assert!(
            cfg.region_lines as u64 <= 1 << 32,
            "region must be at most 2^32 lines"
        );
        for p in [cfg.exactness, cfg.noise, cfg.drift] {
            assert!((0.0..=1.0).contains(&p), "probabilities must be in [0, 1]");
        }
        let mut rng = SplitMix64::new(seed ^ cfg.pc.get());
        let mut seq = Vec::with_capacity(cfg.seq_len);
        // One bit per region line dedupes the draws.
        let mut used = vec![0u64; cfg.region_lines.div_ceil(64)];
        while seq.len() < cfg.seq_len {
            let line = rng.next_below(cfg.region_lines as u64);
            let (word, bit) = ((line / 64) as usize, 1u64 << (line % 64));
            if used[word] & bit == 0 {
                used[word] |= bit;
                seq.push(line as u32);
            }
        }
        TemporalStream {
            cfg,
            seq,
            pending: Vec::new(),
            front_age: 0,
            pos: 0,
            rng,
        }
    }

    fn line_to_addr(&self, line_offset: u64) -> Addr {
        Addr::new(self.cfg.region_base.get() + line_offset * CACHE_LINE_BYTES)
    }

    fn start_new_pass_if_needed(&mut self) {
        if self.pos >= self.seq.len() && self.pending.is_empty() {
            self.pos = 0;
            // Apply drift at pass boundaries.
            if self.cfg.drift > 0.0 {
                for i in 0..self.seq.len() {
                    if self.rng.chance(self.cfg.drift) {
                        self.seq[i] = self.rng.next_below(self.cfg.region_lines as u64) as u32;
                    }
                }
            }
        }
    }

    fn next_seq_item(&mut self) -> u64 {
        self.start_new_pass_if_needed();
        // Keep the reorder buffer topped up to the shuffle window.
        let window = self.cfg.shuffle_window.max(1);
        while self.pending.len() < window && self.pos < self.seq.len() {
            self.pending.push(self.seq[self.pos]);
            self.pos += 1;
        }
        let exact = self.cfg.exactness >= 1.0 || self.rng.chance(self.cfg.exactness);
        // Hard displacement bound: once the front has waited a full
        // window, emit it regardless, so reordering stays local (the
        // Second-Chance Sampler's 512-fill proximity check relies on
        // bounded displacement).
        let idx = if exact || self.pending.len() == 1 || self.front_age >= window {
            0
        } else {
            self.rng.next_below(self.pending.len() as u64) as usize
        };
        if idx == 0 {
            self.front_age = 0;
        } else {
            self.front_age += 1;
        }
        self.pending.remove(idx) as u64
    }
}

impl TraceSource for TemporalStream {
    fn next_access(&mut self) -> MemoryAccess {
        let line = if self.cfg.noise > 0.0 && self.rng.chance(self.cfg.noise) {
            self.rng.next_below(self.cfg.region_lines as u64)
        } else {
            self.next_seq_item()
        };
        let mut a =
            MemoryAccess::new(self.cfg.pc, self.line_to_addr(line)).with_work(self.cfg.work);
        if self.cfg.dependent {
            a = a.dependent();
        }
        a
    }

    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn save_state(
        &self,
        w: &mut triangel_types::snap::SnapWriter,
    ) -> Result<(), triangel_types::snap::SnapError> {
        self.save_snap(w)
    }

    fn restore_state(
        &mut self,
        r: &mut triangel_types::snap::SnapReader,
    ) -> Result<(), triangel_types::snap::SnapError> {
        self.restore_snap(r)
    }
}

/// A sequential scan: `base + i*stride` lines over an array, repeated.
/// Fully covered by the baseline stride prefetcher, so it contributes
/// compute and bandwidth but few temporal-prefetch opportunities.
#[derive(Debug)]
pub struct StridedStream {
    name: String,
    pc: Pc,
    base: Addr,
    stride_lines: u64,
    array_lines: u64,
    pos: u64,
    work: u8,
}

impl StridedStream {
    /// Creates a strided scan over `array_lines` lines.
    ///
    /// # Panics
    ///
    /// Panics if `stride_lines` or `array_lines` is zero.
    pub fn new(
        name: impl Into<String>,
        pc: Pc,
        base: Addr,
        stride_lines: u64,
        array_lines: u64,
    ) -> Self {
        assert!(stride_lines > 0 && array_lines > 0);
        StridedStream {
            name: name.into(),
            pc,
            base,
            stride_lines,
            array_lines,
            pos: 0,
            work: 4,
        }
    }
}

impl TraceSource for StridedStream {
    fn next_access(&mut self) -> MemoryAccess {
        // `pos` is kept reduced below `array_lines`, so the wrap costs a
        // division only when it actually happens instead of every access.
        let line = self.pos;
        self.pos += self.stride_lines;
        if self.pos >= self.array_lines {
            self.pos %= self.array_lines;
        }
        MemoryAccess::new(
            self.pc,
            Addr::new(self.base.get() + line * CACHE_LINE_BYTES),
        )
        .with_work(self.work)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn save_state(
        &self,
        w: &mut triangel_types::snap::SnapWriter,
    ) -> Result<(), triangel_types::snap::SnapError> {
        self.save_snap(w);
        Ok(())
    }

    fn restore_state(
        &mut self,
        r: &mut triangel_types::snap::SnapReader,
    ) -> Result<(), triangel_types::snap::SnapError> {
        self.restore_snap(r)
    }
}

/// Uniform random accesses over a region: unlearnable by any prefetcher.
#[derive(Debug)]
pub struct RandomStream {
    name: String,
    pc: Pc,
    base: Addr,
    region_lines: u64,
    dependent: bool,
    rng: SplitMix64,
    work: u8,
}

impl RandomStream {
    /// Creates a random stream over `region_lines` lines.
    ///
    /// # Panics
    ///
    /// Panics if `region_lines` is zero.
    pub fn new(
        name: impl Into<String>,
        pc: Pc,
        base: Addr,
        region_lines: u64,
        dependent: bool,
        seed: u64,
    ) -> Self {
        assert!(region_lines > 0);
        RandomStream {
            name: name.into(),
            pc,
            base,
            region_lines,
            dependent,
            rng: SplitMix64::new(seed),
            work: 4,
        }
    }
}

impl TraceSource for RandomStream {
    fn next_access(&mut self) -> MemoryAccess {
        let line = self.rng.next_below(self.region_lines);
        let mut a = MemoryAccess::new(
            self.pc,
            Addr::new(self.base.get() + line * CACHE_LINE_BYTES),
        )
        .with_work(self.work);
        if self.dependent {
            a = a.dependent();
        }
        a
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn save_state(
        &self,
        w: &mut triangel_types::snap::SnapWriter,
    ) -> Result<(), triangel_types::snap::SnapError> {
        self.save_snap(w)
    }

    fn restore_state(
        &mut self,
        r: &mut triangel_types::snap::SnapReader,
    ) -> Result<(), triangel_types::snap::SnapError> {
        self.restore_snap(r)
    }
}

use triangel_types::snap::{snap_check, SnapError, SnapReader, SnapWriter, Snapshot};

impl TemporalStream {
    pub(crate) fn save_snap(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        // `seq` mutates under drift, so it is state, not configuration.
        w.usize(self.seq.len());
        for l in &self.seq {
            w.u64(*l as u64);
        }
        w.usize(self.pending.len());
        for l in &self.pending {
            w.u64(*l as u64);
        }
        w.usize(self.front_age);
        w.usize(self.pos);
        self.rng.save(w)
    }

    pub(crate) fn restore_snap(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let region = self.cfg.region_lines as u64;
        let read_line = |r: &mut SnapReader| {
            let l = r.u64()?;
            snap_check(l < region, "line offset beyond the region")?;
            Ok::<u32, SnapError>(l as u32)
        };
        r.expect_len(self.seq.len(), "temporal sequence")?;
        for l in &mut self.seq {
            *l = read_line(r)?;
        }
        let n = r.usize()?;
        snap_check(
            n <= self.cfg.shuffle_window.max(1),
            "reorder buffer above window",
        )?;
        self.pending.clear();
        for _ in 0..n {
            self.pending.push(read_line(r)?);
        }
        self.front_age = r.usize()?;
        let pos = r.usize()?;
        snap_check(pos <= self.seq.len(), "pass cursor out of range")?;
        self.pos = pos;
        self.rng.restore(r)
    }
}

impl StridedStream {
    pub(crate) fn save_snap(&self, w: &mut SnapWriter) {
        w.u64(self.pos);
    }

    pub(crate) fn restore_snap(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let pos = r.u64()?;
        snap_check(pos < self.array_lines, "stride cursor out of range")?;
        self.pos = pos;
        Ok(())
    }
}

impl RandomStream {
    pub(crate) fn save_snap(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.rng.save(w)
    }

    pub(crate) fn restore_snap(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.rng.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(s: &mut dyn TraceSource, n: usize) -> Vec<u64> {
        (0..n).map(|_| s.next_access().vaddr.get()).collect()
    }

    #[test]
    fn exact_stream_repeats_exactly() {
        let cfg = TemporalStreamConfig::pointer_chase("t", Pc::new(1), Addr::new(0), 100);
        let mut s = TemporalStream::new(cfg, 3);
        let a = collect(&mut s, 100);
        let b = collect(&mut s, 100);
        assert_eq!(a, b);
        // All distinct within a pass.
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
    }

    #[test]
    fn loose_stream_same_set_different_order() {
        let cfg = TemporalStreamConfig {
            exactness: 0.5,
            shuffle_window: 8,
            ..TemporalStreamConfig::pointer_chase("t", Pc::new(2), Addr::new(0), 200)
        };
        let mut s = TemporalStream::new(cfg, 4);
        let a = collect(&mut s, 200);
        let b = collect(&mut s, 200);
        let mut sa = a.clone();
        let mut sb = b.clone();
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb, "every pass emits the same element set");
        assert_ne!(a, b, "order must be jittered");
        // Reordering is bounded: each element appears within the window
        // of its position in the other pass.
        let pos_b: std::collections::HashMap<u64, usize> =
            b.iter().enumerate().map(|(i, v)| (*v, i)).collect();
        // Displacement is hard-bounded: an element waits at most one
        // window at the front plus one window to reach it, per pass.
        for (i, v) in a.iter().enumerate() {
            let j = pos_b[v];
            assert!(i.abs_diff(j) <= 4 * 8, "element moved {} -> {}", i, j);
        }
    }

    #[test]
    fn drift_changes_sequence_between_passes() {
        let cfg = TemporalStreamConfig {
            drift: 0.5,
            ..TemporalStreamConfig::pointer_chase("t", Pc::new(3), Addr::new(0), 100)
        };
        let mut s = TemporalStream::new(cfg, 5);
        let a = collect(&mut s, 100);
        let b = collect(&mut s, 100);
        let changed = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(changed > 20, "drift=0.5 changed only {changed}/100");
    }

    #[test]
    fn noise_injects_outside_sequence() {
        let cfg = TemporalStreamConfig {
            noise: 0.3,
            region_lines: 10_000,
            ..TemporalStreamConfig::pointer_chase("t", Pc::new(4), Addr::new(0), 50)
        };
        let mut s = TemporalStream::new(cfg, 6);
        let a = collect(&mut s, 1000);
        let distinct: std::collections::HashSet<_> = a.iter().collect();
        assert!(distinct.len() > 60, "noise should widen the footprint");
    }

    #[test]
    fn dependent_flag_propagates() {
        let cfg = TemporalStreamConfig::pointer_chase("t", Pc::new(5), Addr::new(0), 10);
        let mut s = TemporalStream::new(cfg, 7);
        assert!(s.next_access().dependent);
    }

    #[test]
    fn strided_stream_walks_and_wraps() {
        let mut s = StridedStream::new("a", Pc::new(6), Addr::new(0), 1, 4);
        let a = collect(&mut s, 8);
        assert_eq!(a, vec![0, 64, 128, 192, 0, 64, 128, 192]);
    }

    #[test]
    fn random_stream_stays_in_region() {
        let mut s = RandomStream::new("r", Pc::new(7), Addr::new(4096), 16, false, 8);
        for _ in 0..100 {
            let v = s.next_access().vaddr.get();
            assert!((4096..4096 + 16 * 64).contains(&v));
        }
    }

    #[test]
    fn restore_rejects_offsets_beyond_the_region() {
        let cfg = TemporalStreamConfig {
            exactness: 0.5,
            shuffle_window: 4,
            ..TemporalStreamConfig::pointer_chase("t", Pc::new(9), Addr::new(0), 16)
        };
        let mut s = TemporalStream::new(cfg.clone(), 1);
        let _ = s.next_access();
        let mut w = SnapWriter::new();
        s.save_snap(&mut w).unwrap();
        let good = w.into_bytes();
        TemporalStream::new(cfg.clone(), 1)
            .restore_snap(&mut SnapReader::new(&good))
            .unwrap();
        // Sequence entry 0 follows its count; the reorder buffer (three
        // entries after one emission) follows the 16 entries.
        let pending = 8 + 16 * 8 + 8;
        assert_eq!(good[pending - 8], 3);
        for (at, what) in [(8, "sequence"), (pending, "reorder buffer")] {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&(cfg.region_lines as u64).to_le_bytes());
            assert!(
                matches!(
                    TemporalStream::new(cfg.clone(), 1).restore_snap(&mut SnapReader::new(&bad)),
                    Err(SnapError::Corrupt(_))
                ),
                "accepted an out-of-region {what} offset"
            );
        }
    }

    #[test]
    #[should_panic(expected = "region must be at most")]
    fn region_must_fit_u32_offsets() {
        let cfg = TemporalStreamConfig {
            region_lines: (1 << 32) + 1,
            ..TemporalStreamConfig::pointer_chase("t", Pc::new(8), Addr::new(0), 20)
        };
        let _ = TemporalStream::new(cfg, 0);
    }

    #[test]
    #[should_panic(expected = "region must fit")]
    fn region_must_fit_sequence() {
        let cfg = TemporalStreamConfig {
            region_lines: 10,
            ..TemporalStreamConfig::pointer_chase("t", Pc::new(8), Addr::new(0), 20)
        };
        let _ = TemporalStream::new(cfg, 0);
    }
}
