//! Virtual-to-physical translation with controllable fragmentation.
//!
//! Triage's 32-bit Markov format reconstructs prefetch targets through a
//! 1024-entry lookup table of physical-address upper bits; its accuracy
//! therefore depends on *physical frame locality* (Sections 3.1 and 6.5
//! of the paper: "minor changes in accesses cause even worse behavior...
//! roughly equivalent to halving physical-page locality"). This module
//! provides the knob: a page mapper that allocates frames either
//! contiguously (a freshly booted machine) or scattered across a larger
//! physical space (a fragmented, long-running OS).

use triangel_types::hash::FxHashMap;
use triangel_types::rng::SplitMix64;
use triangel_types::{Addr, PAGE_BYTES};

/// log2 of the pages one page-table chunk covers.
const CHUNK_BITS: u32 = 6;
/// Pages (frame slots) per page-table chunk.
const CHUNK_PAGES: usize = 1 << CHUNK_BITS;
/// Largest accepted `spread`; the used-frame bitmap grows with it.
const MAX_SPREAD: u64 = 1024;

/// Allocates physical frames for virtual pages on first touch.
///
/// `fragmentation` in `[0, 1]` controls the allocation policy:
/// `0.0` allocates frames sequentially from a compact region (perfect
/// frame locality); `1.0` picks every frame uniformly at random from a
/// physical space `spread`× larger than the footprint. Intermediate
/// values allocate runs of contiguous frames with random run breaks.
///
/// The page table is a two-level radix table: a hash map from
/// `vpage >> 6` to one of a vector of 64-slot chunks of `u64` frames,
/// with frame 0 (never allocated) marking an unmapped slot. Its size
/// depends on page density, how full the aligned 64-page (256 KiB)
/// groups a workload touches are: every touched group costs a 512-byte
/// chunk plus a directory entry. The `perfbench` workloads fill their
/// groups 56–99.7% (WebServe lowest, MCF highest), so the table costs
/// 8–15 bytes per mapped page, against about 46 for a page → frame hash
/// map plus a used-frame hash set. The worst case is a page alone in
/// its group: about 530 bytes, 12× the hash maps (200k such pages peak
/// at 102 MiB of RSS, against 8.9 MiB). Allocated frames are a bitmap
/// that grows with the highest frame, which is at most
/// `(pages + 1024) · spread + pages`.
///
/// # Examples
///
/// ```
/// use triangel_workloads::paging::PageMapper;
/// use triangel_types::Addr;
///
/// let mut compact = PageMapper::contiguous();
/// let p0 = compact.translate(Addr::new(0x0000));
/// let p1 = compact.translate(Addr::new(0x1000));
/// assert_eq!(p1.get() - p0.get(), 0x1000); // adjacent frames
/// ```
#[derive(Debug, Clone)]
pub struct PageMapper {
    fragmentation: f64,
    spread: u64,
    /// `vpage >> CHUNK_BITS` → index into `chunks`, on the per-access
    /// translate path: a deterministic fast hash (lookups only; nothing
    /// folds over iteration order).
    directory: FxHashMap<u64, u32>,
    /// Frame per page slot; 0 = unmapped.
    chunks: Vec<[u64; CHUNK_PAGES]>,
    /// One bit per allocated frame.
    used_frames: Vec<u64>,
    mapped: usize,
    next_frame: u64,
    run_left: u64,
    rng: SplitMix64,
}

impl PageMapper {
    /// Creates a mapper.
    ///
    /// # Panics
    ///
    /// Panics if `fragmentation` is not in `[0, 1]` or `spread` is not
    /// in `1..=1024` (the used-frame bitmap takes about `spread / 8`
    /// bytes per mapped page).
    pub fn new(fragmentation: f64, spread: u64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fragmentation),
            "fragmentation must be within [0, 1]"
        );
        assert!(
            (1..=MAX_SPREAD).contains(&spread),
            "spread must be within 1..={MAX_SPREAD}"
        );
        PageMapper {
            fragmentation,
            spread,
            directory: FxHashMap::default(),
            chunks: Vec::new(),
            used_frames: Vec::new(),
            mapped: 0,
            next_frame: 1, // frame 0 reserved so translated addresses stay nonzero
            run_left: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Perfect frame locality: frames allocated sequentially.
    pub fn contiguous() -> Self {
        PageMapper::new(0.0, 1, 0)
    }

    /// A realistic long-running OS: mostly-contiguous runs with breaks,
    /// over a 4x larger physical space.
    pub fn realistic(seed: u64) -> Self {
        PageMapper::new(0.25, 4, seed)
    }

    /// Heavy fragmentation: every frame random over an 8x space.
    pub fn fragmented(seed: u64) -> Self {
        PageMapper::new(1.0, 8, seed)
    }

    /// Translates a virtual address, allocating a frame on first touch.
    pub fn translate(&mut self, vaddr: Addr) -> Addr {
        let vpage = vaddr.page_number();
        let (chunk, slot) = self.slot_of(vpage);
        let frame = match self.chunks[chunk][slot] {
            0 => {
                let f = self.allocate();
                self.chunks[chunk][slot] = f;
                self.mapped += 1;
                f
            }
            f => f,
        };
        Addr::new(frame * PAGE_BYTES + vaddr.page_offset())
    }

    /// `(chunk, slot)` holding `vpage`'s frame, adding an empty chunk
    /// on the first touch of its 64-page group.
    fn slot_of(&mut self, vpage: u64) -> (usize, usize) {
        let next = self.chunks.len();
        let chunk = *self
            .directory
            .entry(vpage >> CHUNK_BITS)
            .or_insert(next as u32) as usize;
        if chunk == next {
            self.chunks.push([0; CHUNK_PAGES]);
        }
        (chunk, (vpage as usize) & (CHUNK_PAGES - 1))
    }

    fn allocate(&mut self) -> u64 {
        let broke_run = self.run_left == 0 && self.rng.chance(self.fragmentation);
        if broke_run || self.fragmentation >= 1.0 {
            // Jump to a random region of the (spread x footprint) space.
            let horizon = (self.mapped as u64 + 1024) * self.spread;
            self.next_frame = 1 + self.rng.next_below(horizon);
            // Runs shorten as fragmentation grows.
            self.run_left = ((16.0 * (1.0 - self.fragmentation)) as u64).max(1);
        } else if self.run_left > 0 {
            self.run_left -= 1;
        }
        // Linear-probe past frames already handed out.
        loop {
            let f = self.next_frame;
            self.next_frame += 1;
            if claim(&mut self.used_frames, f) {
                return f;
            }
        }
    }

    /// Number of pages mapped so far.
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// Number of distinct "upper-bit" groups among allocated frames,
    /// where a group is `frame >> bits`. This is exactly the pressure
    /// metric for Triage's lookup table (one entry per distinct upper-bit
    /// pattern).
    pub fn distinct_upper_groups(&self, bits: u32) -> usize {
        let mut groups = 0;
        let mut last = None;
        for f in frames_in(&self.used_frames) {
            if last != Some(f >> bits) {
                groups += 1;
                last = Some(f >> bits);
            }
        }
        groups
    }

    /// `(page, frame)` for every mapped page, in page order.
    fn mappings(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut keys: Vec<(u64, u32)> = self.directory.iter().map(|(k, c)| (*k, *c)).collect();
        keys.sort_unstable();
        keys.into_iter().flat_map(move |(key, c)| {
            self.chunks[c as usize]
                .iter()
                .enumerate()
                .filter(|(_, f)| **f != 0)
                .map(move |(slot, f)| ((key << CHUNK_BITS) | slot as u64, *f))
        })
    }
}

/// Marks frame `f` allocated, growing the bitmap to cover it; returns
/// whether it was free.
fn claim(bitmap: &mut Vec<u64>, f: u64) -> bool {
    let (word, bit) = ((f / 64) as usize, 1u64 << (f % 64));
    if word >= bitmap.len() {
        bitmap.resize(word + 1, 0);
    }
    let free = bitmap[word] & bit == 0;
    bitmap[word] |= bit;
    free
}

/// The frames set in `bitmap`, ascending.
fn frames_in(bitmap: &[u64]) -> impl Iterator<Item = u64> + '_ {
    bitmap.iter().enumerate().flat_map(|(i, word)| {
        let mut w = *word;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as u64;
                w &= w - 1;
                i as u64 * 64 + b
            })
        })
    })
}

use triangel_types::snap::{snap_check, SnapError, SnapReader, SnapWriter, Snapshot};

impl Snapshot for PageMapper {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        // Page order, so snapshot bytes are deterministic; directory
        // iteration order never reaches simulated behaviour.
        w.usize(self.mapped);
        for (page, frame) in self.mappings() {
            w.u64(page);
            w.u64(frame);
        }
        w.usize(self.mapped);
        for f in frames_in(&self.used_frames) {
            w.u64(f);
        }
        w.u64(self.next_frame);
        w.u64(self.run_left);
        self.rng.save(w)
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let n = r.usize()?;
        // Each page costs 24 bytes (page, frame, used frame), so
        // bounding `n` by what is left bounds what restoring allocates:
        // at most `n` chunks (512 bytes each, under 22 times the
        // snapshot's own bytes) and a bitmap of `limit` bits (at most
        // about `spread / 8` bytes per page plus 128 KiB).
        snap_check(
            n <= r.remaining() / 24,
            "page count beyond the snapshot's size",
        )?;
        // The highest frame (and, one past it, `next_frame`) `n`
        // allocations can reach: random jumps land at most at
        // `(n + 1024) · spread` and probing skips at most `n` frames.
        let limit = (n as u64 + 1024) * self.spread + n as u64;
        let mut fresh = PageMapper::new(self.fragmentation, self.spread, 0);
        let mut last_page = None;
        for _ in 0..n {
            let page = r.u64()?;
            let frame = r.u64()?;
            snap_check(
                last_page.is_none_or(|p| p < page),
                "pages unsorted or duplicated",
            )?;
            last_page = Some(page);
            snap_check(frame != 0, "page mapped to reserved frame 0")?;
            snap_check(frame <= limit, "frame beyond the physical space")?;
            snap_check(claim(&mut fresh.used_frames, frame), "frame mapped twice")?;
            let (chunk, slot) = fresh.slot_of(page);
            fresh.chunks[chunk][slot] = frame;
        }
        fresh.mapped = n;
        // Every allocation maps exactly one page, so the used set is
        // exactly the mapped frames, ascending.
        r.expect_len(n, "used frames")?;
        for f in frames_in(&fresh.used_frames) {
            snap_check(r.u64()? == f, "used frames differ from the mapped frames")?;
        }
        fresh.next_frame = r.u64()?;
        snap_check(
            (1..=limit + 1).contains(&fresh.next_frame),
            "next frame out of range",
        )?;
        fresh.run_left = r.u64()?;
        fresh.rng.restore(r)?;
        *self = fresh;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triangel_types::snap::SnapError;

    #[test]
    fn translation_is_stable() {
        let mut m = PageMapper::realistic(1);
        let a = m.translate(Addr::new(0x5000));
        let b = m.translate(Addr::new(0x5008));
        assert_eq!(b.get() - a.get(), 8);
        assert_eq!(m.translate(Addr::new(0x5000)), a);
    }

    #[test]
    fn contiguous_preserves_adjacency() {
        let mut m = PageMapper::contiguous();
        let mut last = m.translate(Addr::new(0)).page_number();
        for p in 1..64u64 {
            let cur = m.translate(Addr::new(p * PAGE_BYTES)).page_number();
            assert_eq!(cur, last + 1);
            last = cur;
        }
    }

    #[test]
    fn fragmented_scatters_frames() {
        let mut m = PageMapper::fragmented(7);
        for p in 0..256u64 {
            let _ = m.translate(Addr::new(p * PAGE_BYTES));
        }
        // With 1.0 fragmentation over 8x spread, frames should span many
        // distinct upper groups; contiguous allocation of 256 pages
        // spans at most 2 groups of 256 pages.
        assert!(m.distinct_upper_groups(8) > 4);
        let mut c = PageMapper::contiguous();
        for p in 0..256u64 {
            let _ = c.translate(Addr::new(p * PAGE_BYTES));
        }
        assert!(c.distinct_upper_groups(8) <= 2);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut m = PageMapper::fragmented(3);
        let mut frames = std::collections::HashSet::new();
        for p in 0..512u64 {
            let f = m.translate(Addr::new(p * PAGE_BYTES)).page_number();
            assert!(frames.insert(f), "frame reused for page {p}");
        }
    }

    #[test]
    #[should_panic(expected = "fragmentation must be within")]
    fn rejects_bad_fragmentation() {
        let _ = PageMapper::new(1.5, 1, 0);
    }

    #[test]
    #[should_panic(expected = "spread must be within")]
    fn rejects_unbounded_spread() {
        let _ = PageMapper::new(0.5, MAX_SPREAD + 1, 0);
    }

    /// A snapshot of pages 0, 1 and 2, plus the byte offsets of its
    /// fields: page `i` at `8 + 16 * i`, its frame 8 bytes later, and
    /// used frame `i` at `64 + 8 * i`.
    fn three_pages() -> Vec<u8> {
        let mut m = PageMapper::fragmented(5);
        for p in 0..3u64 {
            let _ = m.translate(Addr::new(p * PAGE_BYTES));
        }
        let mut w = SnapWriter::new();
        m.save(&mut w).unwrap();
        w.into_bytes()
    }

    fn field(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    fn restore_with(at: usize, value: u64) -> Result<(), SnapError> {
        let mut bytes = three_pages();
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        PageMapper::fragmented(5).restore(&mut SnapReader::new(&bytes))
    }

    #[test]
    fn restore_round_trips_and_rejects_each_corrupt_field() {
        let good = three_pages();
        let mut m = PageMapper::fragmented(5);
        m.restore(&mut SnapReader::new(&good)).unwrap();
        assert_eq!(m.mapped_pages(), 3);
        let corrupt = |at, value, why: &str| match restore_with(at, value) {
            Err(SnapError::Corrupt(m)) => assert!(m.contains(why), "{why}: got {m}"),
            other => panic!("{why}: accepted ({other:?})"),
        };
        let (frame0, frame1) = (field(&good, 16), field(&good, 32));
        corrupt(16, 0, "reserved frame 0");
        corrupt(8 + 32, 0, "unsorted");
        corrupt(8 + 16, 0, "duplicated");
        corrupt(32, frame0, "frame mapped twice");
        let unused = (1..)
            .find(|f| ![frame0, frame1, field(&good, 48)].contains(f))
            .unwrap();
        // A mapped frame missing from the used set, then the reverse.
        corrupt(32, unused, "used frames differ");
        corrupt(64, unused, "used frames differ");
        corrupt(16, u64::MAX, "beyond the physical space");
        corrupt(0, u64::MAX / 2, "beyond the snapshot's size");
        corrupt(88, 0, "next frame out of range");
    }

    #[test]
    fn offsets_preserved() {
        let mut m = PageMapper::fragmented(9);
        let v = Addr::new(0xABC123);
        let p = m.translate(v);
        assert_eq!(p.page_offset(), v.page_offset());
    }
}
