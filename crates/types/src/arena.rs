//! Fixed-capacity, allocation-free arenas for hot metadata tables.
//!
//! The simulator's metadata structures (the Markov table, the stride
//! table, training tables, the issue table) model fixed-size SRAM: a
//! bounded number of tagged slots, scanned a set at a time. Modelling
//! them as `Vec<Option<Entry>>` or `HashMap` costs a pointer-chasing,
//! branch-heavy representation for what the hardware does with one
//! contiguous tag sweep. This module provides the shared storage layer:
//!
//! * [`SetArena`] — a set-associative arena in struct-of-arrays layout:
//!   a packed tag array, one validity bitmask per set, and a parallel
//!   payload array. A whole-set tag probe touches only `ways`
//!   contiguous `u16`s plus one `u64` mask.
//! * [`GenArena`] — a generational free-list arena for chained
//!   structures whose elements are created and destroyed out of order
//!   but must never move (stable handles).
//! * [`ArenaMap`] — a fixed-capacity `u64`-keyed map with a sorted key
//!   index over a [`GenArena`], for small capacity-bounded tables that
//!   evict by smallest key and iterate in key order deterministically.
//!
//! # Layout invariants
//!
//! [`SetArena`] with `S` sets and `W` ways (`1 ≤ W ≤ 64`) maintains:
//!
//! * `tags.len() == slots.len() == S * W`; slot `(set, way)` lives at
//!   flat index `set * W + way`, so one set's tags are contiguous.
//! * `valid.len() == S`; bit `way` of `valid[set]` is set iff the slot
//!   holds a live entry. Bits `W..64` are always zero.
//! * The payload of every *invalid* slot is `T::default()`, and its tag
//!   is `0`. Invalidation restores both, so the arena's byte image
//!   (and its [`Snapshot`] serialization) is a pure function of the
//!   live entries — two arenas holding the same entries are
//!   indistinguishable regardless of eviction history.
//! * Probes ([`SetArena::find`]), free-slot selection
//!   ([`SetArena::first_free`]) and iteration all proceed in ascending
//!   way order, matching a linear scan over an `Option<Entry>` array —
//!   replacing one representation with the other is behaviour-
//!   preserving by construction.
//!
//! [`GenArena`] with capacity `C` maintains:
//!
//! * `slots.len() == gens.len() == C`; no reallocation ever occurs.
//! * `gens[i]` is odd iff slot `i` is occupied (allocation and release
//!   each increment the generation), so a stale [`GenIdx`] — one whose
//!   slot was freed, or freed and re-used — never resolves.
//! * The free list is a LIFO stack, so allocation order is a
//!   deterministic function of the operation history.
//! * The payload of every free slot is `T::default()` (same
//!   canonical-bytes argument as above).

use crate::snap::{snap_check, SnapError, SnapReader, SnapWriter, Snapshot};

/// A set-associative arena: `sets x ways` tagged slots in
/// struct-of-arrays layout (packed tags, per-set valid bitmask,
/// parallel payloads).
///
/// See the [module docs](self) for the layout invariants.
#[derive(Debug, Clone)]
pub struct SetArena<T> {
    sets: usize,
    ways: usize,
    tags: Vec<u16>,
    valid: Vec<u64>,
    slots: Vec<T>,
}

impl<T: Default> SetArena<T> {
    /// An empty arena of `sets x ways` slots.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or `ways` is not in `1..=64` (the
    /// validity mask is one `u64` per set).
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0, "arena needs at least one set");
        assert!((1..=64).contains(&ways), "arena ways must be in 1..=64");
        SetArena {
            sets,
            ways,
            tags: vec![0; sets * ways],
            valid: vec![0; sets],
            slots: (0..sets * ways).map(|_| T::default()).collect(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Ways (slots) per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total slot count (`sets * ways`).
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    #[inline]
    fn base(&self, set: usize) -> usize {
        debug_assert!(set < self.sets);
        set * self.ways
    }

    /// Whether slot `(set, way)` holds a live entry.
    #[inline]
    pub fn is_valid(&self, set: usize, way: usize) -> bool {
        debug_assert!(way < self.ways);
        self.valid[set] & (1u64 << way) != 0
    }

    /// The tag stored at `(set, way)`; `0` for invalid slots.
    #[inline]
    pub fn tag(&self, set: usize, way: usize) -> u16 {
        self.tags[self.base(set) + way]
    }

    /// The payload at `(set, way)`, regardless of validity (invalid
    /// slots hold `T::default()`).
    #[inline]
    pub fn payload(&self, set: usize, way: usize) -> &T {
        &self.slots[self.base(set) + way]
    }

    /// Mutable payload access at `(set, way)`. The caller is
    /// responsible for only mutating live slots (mutating an invalid
    /// slot breaks the canonical-bytes invariant).
    #[inline]
    pub fn payload_mut(&mut self, set: usize, way: usize) -> &mut T {
        let i = self.base(set) + way;
        &mut self.slots[i]
    }

    /// The live entry at `(set, way)`, or `None` for an invalid slot.
    #[inline]
    pub fn get(&self, set: usize, way: usize) -> Option<(u16, &T)> {
        if self.is_valid(set, way) {
            Some((self.tag(set, way), self.payload(set, way)))
        } else {
            None
        }
    }

    /// The lowest-numbered valid way in `set` whose tag equals `tag`,
    /// or `None`.
    ///
    /// This is the whole-set probe: the tag comparisons run over the
    /// set's contiguous tag slice (auto-vectorizable), then the match
    /// bits are intersected with the validity mask.
    #[inline]
    pub fn find(&self, set: usize, tag: u16) -> Option<usize> {
        let base = self.base(set);
        let tags = &self.tags[base..base + self.ways];
        let mut hits = 0u64;
        for (w, &t) in tags.iter().enumerate() {
            hits |= ((t == tag) as u64) << w;
        }
        let m = hits & self.valid[set];
        if m != 0 {
            Some(m.trailing_zeros() as usize)
        } else {
            None
        }
    }

    /// The lowest-numbered invalid way in `set`, or `None` when the set
    /// is full. Equivalent to `position(|slot| slot.is_none())` on the
    /// `Option`-array representation.
    #[inline]
    pub fn first_free(&self, set: usize) -> Option<usize> {
        let free = !self.valid[set] & Self::mask(self.ways);
        if free != 0 {
            Some(free.trailing_zeros() as usize)
        } else {
            None
        }
    }

    const fn mask(ways: usize) -> u64 {
        if ways >= 64 {
            u64::MAX
        } else {
            (1u64 << ways) - 1
        }
    }

    /// Installs (or overwrites) the entry at `(set, way)`.
    #[inline]
    pub fn insert(&mut self, set: usize, way: usize, tag: u16, payload: T) {
        debug_assert!(way < self.ways);
        let i = self.base(set) + way;
        self.tags[i] = tag;
        self.slots[i] = payload;
        self.valid[set] |= 1u64 << way;
    }

    /// Invalidates `(set, way)` and returns its former entry, resetting
    /// the slot to the canonical empty state (`tag 0`,
    /// `T::default()`). Returns `None` if the slot was already invalid.
    pub fn take(&mut self, set: usize, way: usize) -> Option<(u16, T)> {
        if !self.is_valid(set, way) {
            return None;
        }
        let i = self.base(set) + way;
        self.valid[set] &= !(1u64 << way);
        let tag = std::mem::take(&mut self.tags[i]);
        let payload = std::mem::take(&mut self.slots[i]);
        Some((tag, payload))
    }

    /// Live entries in `set` (popcount of the validity mask).
    #[inline]
    pub fn set_occupancy(&self, set: usize) -> usize {
        self.valid[set].count_ones() as usize
    }

    /// Live entries across the whole arena.
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Iterates live entries as `(set, way, tag, &payload)` in
    /// ascending `(set, way)` order — the same order a flat linear scan
    /// over the `Option`-array representation visits them.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, u16, &T)> {
        (0..self.sets).flat_map(move |set| {
            let mut m = self.valid[set];
            std::iter::from_fn(move || {
                if m == 0 {
                    return None;
                }
                let way = m.trailing_zeros() as usize;
                m &= m - 1;
                Some((set, way, self.tag(set, way), self.payload(set, way)))
            })
        })
    }

    /// Removes every live entry of `set`, appending them to `out` as
    /// `(tag, payload)` in ascending way order (the re-index drain used
    /// by partition resizing, which works a few sets at a time so its
    /// buffer stays small).
    pub fn drain_set_into(&mut self, set: usize, out: &mut Vec<(u16, T)>) {
        let base = self.base(set);
        let mut m = std::mem::take(&mut self.valid[set]);
        while m != 0 {
            let i = base + m.trailing_zeros() as usize;
            m &= m - 1;
            out.push((
                std::mem::take(&mut self.tags[i]),
                std::mem::take(&mut self.slots[i]),
            ));
        }
    }
}

impl<T: Default + Snapshot> SetArena<T> {
    /// Writes one set's share of the [`Snapshot`] format: its validity
    /// mask, then each live way's tag and payload in ascending way
    /// order. A caller that splits one logical arena across several
    /// can write it set by set with this.
    pub fn save_set(&self, set: usize, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u64(self.valid[set]);
        let mut m = self.valid[set];
        while m != 0 {
            let way = m.trailing_zeros() as usize;
            m &= m - 1;
            w.u16(self.tag(set, way));
            self.payload(set, way).save(w)?;
        }
        Ok(())
    }

    /// Reads one set written by [`SetArena::save_set`], replacing
    /// whatever the set held.
    pub fn restore_set(&mut self, set: usize, r: &mut SnapReader) -> Result<(), SnapError> {
        let mask = r.u64()?;
        snap_check(
            mask & !Self::mask(self.ways) == 0,
            "arena validity mask has bits beyond the way count",
        )?;
        let base = self.base(set);
        self.tags[base..base + self.ways].fill(0);
        self.slots[base..base + self.ways]
            .iter_mut()
            .for_each(|s| *s = T::default());
        self.valid[set] = mask;
        let mut m = mask;
        while m != 0 {
            let i = base + m.trailing_zeros() as usize;
            m &= m - 1;
            self.tags[i] = r.u16()?;
            self.slots[i].restore(r)?;
        }
        Ok(())
    }
}

impl<T: Default + Snapshot> Snapshot for SetArena<T> {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.usize(self.sets);
        w.usize(self.ways);
        (0..self.sets).try_for_each(|set| self.save_set(set, w))
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        r.expect_len(self.sets, "arena sets")?;
        r.expect_len(self.ways, "arena ways")?;
        (0..self.sets).try_for_each(|set| self.restore_set(set, r))
    }
}

/// A stable handle into a [`GenArena`].
///
/// Holds the slot index and the generation observed at allocation;
/// resolving a handle after its slot was freed (or re-used) fails
/// rather than aliasing the new occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenIdx {
    idx: u32,
    gen: u32,
}

impl GenIdx {
    /// The raw slot index (for diagnostics; resolution goes through
    /// [`GenArena::get`]).
    pub fn index(self) -> usize {
        self.idx as usize
    }
}

/// A fixed-capacity generational free-list arena.
///
/// Elements are allocated and released out of order but never move, so
/// chained structures can hold [`GenIdx`] handles across arbitrary
/// churn. See the [module docs](self) for the layout invariants.
#[derive(Debug, Clone)]
pub struct GenArena<T> {
    slots: Vec<T>,
    gens: Vec<u32>,
    free: Vec<u32>,
    len: usize,
}

impl<T: Default> GenArena<T> {
    /// An empty arena with room for `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds `u32::MAX` slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "arena needs at least one slot");
        assert!(u32::try_from(capacity).is_ok(), "arena capacity over u32");
        GenArena {
            slots: (0..capacity).map(|_| T::default()).collect(),
            gens: vec![0; capacity],
            // LIFO stack popping from the back: slot 0 allocates first.
            free: (0..capacity as u32).rev().collect(),
            len: 0,
        }
    }

    /// Live element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no elements are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Allocates a slot for `value`, or returns `None` (with `value`
    /// dropped) when the arena is full.
    pub fn insert(&mut self, value: T) -> Option<GenIdx> {
        let idx = self.free.pop()?;
        let i = idx as usize;
        self.gens[i] = self.gens[i].wrapping_add(1); // now odd: occupied
        self.slots[i] = value;
        self.len += 1;
        Some(GenIdx {
            idx,
            gen: self.gens[i],
        })
    }

    #[inline]
    fn live(&self, id: GenIdx) -> bool {
        let i = id.idx as usize;
        i < self.gens.len() && self.gens[i] == id.gen && id.gen & 1 == 1
    }

    /// Resolves a handle to its element, or `None` if stale.
    #[inline]
    pub fn get(&self, id: GenIdx) -> Option<&T> {
        if self.live(id) {
            Some(&self.slots[id.idx as usize])
        } else {
            None
        }
    }

    /// Mutable handle resolution, or `None` if stale.
    #[inline]
    pub fn get_mut(&mut self, id: GenIdx) -> Option<&mut T> {
        if self.live(id) {
            Some(&mut self.slots[id.idx as usize])
        } else {
            None
        }
    }

    /// Releases the element behind `id`, restoring the slot to the
    /// canonical empty state. Returns `None` if the handle is stale.
    pub fn remove(&mut self, id: GenIdx) -> Option<T> {
        if !self.live(id) {
            return None;
        }
        let i = id.idx as usize;
        self.gens[i] = self.gens[i].wrapping_add(1); // now even: free
        self.free.push(id.idx);
        self.len -= 1;
        Some(std::mem::take(&mut self.slots[i]))
    }

    /// Iterates live elements as `(handle, &element)` in ascending slot
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (GenIdx, &T)> {
        self.gens
            .iter()
            .enumerate()
            .filter(|(_, g)| *g & 1 == 1)
            .map(|(i, g)| {
                (
                    GenIdx {
                        idx: i as u32,
                        gen: *g,
                    },
                    &self.slots[i],
                )
            })
    }
}

impl<T: Default + Snapshot> Snapshot for GenArena<T> {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.usize(self.capacity());
        for g in &self.gens {
            w.u32(*g);
        }
        w.usize(self.free.len());
        for f in &self.free {
            w.u32(*f);
        }
        for (i, g) in self.gens.iter().enumerate() {
            if g & 1 == 1 {
                self.slots[i].save(w)?;
            }
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        r.expect_len(self.capacity(), "gen-arena capacity")?;
        for g in &mut self.gens {
            *g = r.u32()?;
        }
        let free_len = r.usize()?;
        snap_check(free_len <= self.capacity(), "gen-arena free list too long")?;
        self.free.clear();
        for _ in 0..free_len {
            let f = r.u32()?;
            snap_check((f as usize) < self.capacity(), "gen-arena free index")?;
            self.free.push(f);
        }
        self.len = 0;
        for i in 0..self.slots.len() {
            if self.gens[i] & 1 == 1 {
                self.slots[i].restore(r)?;
                self.len += 1;
            } else {
                self.slots[i] = T::default();
            }
        }
        snap_check(
            self.len + self.free.len() == self.capacity(),
            "gen-arena free list disagrees with generations",
        )
    }
}

/// A fixed-capacity `u64 -> V` map with a sorted key index over a
/// [`GenArena`].
///
/// Keys live in one sorted array (binary-searched probes, ascending
/// deterministic iteration, O(1) smallest-key eviction); values live in
/// the arena and never move. This replaces hash maps for small
/// capacity-bounded tables — the stride table's "evict the smallest PC
/// when full" policy and its sorted snapshot order both fall out of the
/// representation.
#[derive(Debug, Clone)]
pub struct ArenaMap<V> {
    keys: Vec<u64>,
    handles: Vec<GenIdx>,
    arena: GenArena<V>,
}

impl<V: Default> ArenaMap<V> {
    /// An empty map with room for `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        ArenaMap {
            keys: Vec::with_capacity(capacity),
            handles: Vec::with_capacity(capacity),
            arena: GenArena::new(capacity),
        }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Maximum entry count.
    pub fn capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.keys.binary_search(&key).is_ok()
    }

    /// The value under `key`, if present.
    pub fn get(&self, key: u64) -> Option<&V> {
        let i = self.keys.binary_search(&key).ok()?;
        self.arena.get(self.handles[i])
    }

    /// Mutable access to the value under `key`, if present.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.keys.binary_search(&key).ok()?;
        self.arena.get_mut(self.handles[i])
    }

    /// The smallest key currently present.
    pub fn min_key(&self) -> Option<u64> {
        self.keys.first().copied()
    }

    /// Returns the value under `key`, inserting `f()` first if absent.
    ///
    /// # Panics
    ///
    /// Panics if `key` is absent and the map is full — the map is
    /// fixed-capacity, so callers evict before inserting (see
    /// [`ArenaMap::remove`] / [`ArenaMap::min_key`]).
    pub fn get_mut_or_insert_with(&mut self, key: u64, f: impl FnOnce() -> V) -> &mut V {
        match self.keys.binary_search(&key) {
            Ok(i) => self
                .arena
                .get_mut(self.handles[i])
                .expect("key index holds live handles"),
            Err(i) => {
                let handle = self
                    .arena
                    .insert(f())
                    .expect("ArenaMap insert above capacity");
                self.keys.insert(i, key);
                self.handles.insert(i, handle);
                self.arena
                    .get_mut(handle)
                    .expect("freshly allocated handle is live")
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.keys.binary_search(&key).ok()?;
        self.keys.remove(i);
        let handle = self.handles.remove(i);
        self.arena.remove(handle)
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        while let Some(k) = self.min_key() {
            self.remove(k);
        }
    }

    /// Iterates entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.keys.iter().zip(&self.handles).map(|(k, h)| {
            (
                *k,
                self.arena.get(*h).expect("key index holds live handles"),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Snapshot for u64 {
        fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
            w.u64(*self);
            Ok(())
        }

        fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
            *self = r.u64()?;
            Ok(())
        }
    }

    #[test]
    fn set_arena_find_matches_linear_scan_order() {
        let mut a: SetArena<u64> = SetArena::new(4, 8);
        a.insert(1, 5, 0x77, 500);
        a.insert(1, 2, 0x77, 200);
        // Two ways share a tag: the lower way must win, as a linear
        // scan over Option slots would find it first.
        assert_eq!(a.find(1, 0x77), Some(2));
        a.take(1, 2);
        assert_eq!(a.find(1, 0x77), Some(5));
        assert_eq!(a.find(1, 0x99), None);
        assert_eq!(a.find(0, 0x77), None);
    }

    #[test]
    fn set_arena_invalid_slots_never_match() {
        let mut a: SetArena<u64> = SetArena::new(2, 4);
        a.insert(0, 1, 0x42, 7);
        let taken = a.take(0, 1);
        assert_eq!(taken, Some((0x42, 7)));
        // The tag bytes are reset, but even a zero probe must miss.
        assert_eq!(a.find(0, 0), None);
        assert_eq!(a.get(0, 1), None);
        assert_eq!(a.take(0, 1), None, "double-take is a no-op");
    }

    #[test]
    fn set_arena_first_free_is_lowest_way() {
        let mut a: SetArena<u64> = SetArena::new(1, 4);
        assert_eq!(a.first_free(0), Some(0));
        a.insert(0, 0, 1, 0);
        a.insert(0, 1, 2, 0);
        a.insert(0, 3, 3, 0);
        assert_eq!(a.first_free(0), Some(2));
        a.insert(0, 2, 4, 0);
        assert_eq!(a.first_free(0), None);
        assert_eq!(a.set_occupancy(0), 4);
    }

    #[test]
    fn set_arena_iter_is_set_major_ascending() {
        let mut a: SetArena<u64> = SetArena::new(3, 4);
        a.insert(2, 0, 9, 90);
        a.insert(0, 3, 7, 70);
        a.insert(0, 1, 8, 80);
        let order: Vec<_> = a.iter().map(|(s, w, t, v)| (s, w, t, *v)).collect();
        assert_eq!(order, vec![(0, 1, 8, 80), (0, 3, 7, 70), (2, 0, 9, 90)]);
        let mut drained = Vec::new();
        a.drain_set_into(0, &mut drained);
        assert_eq!(drained, vec![(8, 80), (7, 70)]);
        assert_eq!(a.occupancy(), 1);
        a.drain_set_into(1, &mut drained);
        a.drain_set_into(2, &mut drained);
        assert_eq!(drained, vec![(8, 80), (7, 70), (9, 90)]);
        assert_eq!(a.occupancy(), 0);
        assert_eq!(
            (a.tag(0, 1), a.payload(0, 1)),
            (0, &0),
            "drained slots are canonical"
        );
    }

    #[test]
    fn set_arena_snapshot_roundtrip_at_capacity() {
        // Boundary: every slot of every set valid (full masks), plus
        // the 64-way mask edge where the way mask is all ones.
        for ways in [1usize, 4, 64] {
            let mut a: SetArena<u64> = SetArena::new(2, ways);
            for set in 0..2 {
                for way in 0..ways {
                    a.insert(set, way, (set * ways + way) as u16, way as u64 * 3);
                }
            }
            assert_eq!(a.occupancy(), 2 * ways);
            let mut w = SnapWriter::new();
            a.save(&mut w).unwrap();
            let bytes = w.into_bytes();
            let mut b: SetArena<u64> = SetArena::new(2, ways);
            let mut r = SnapReader::new(&bytes);
            b.restore(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(b.occupancy(), 2 * ways);
            let mut w2 = SnapWriter::new();
            b.save(&mut w2).unwrap();
            assert_eq!(bytes, w2.into_bytes(), "save-restore-save is stable");
        }
    }

    #[test]
    fn set_arena_snapshot_roundtrip_empty() {
        let a: SetArena<u64> = SetArena::new(4, 3);
        let mut w = SnapWriter::new();
        a.save(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut b: SetArena<u64> = SetArena::new(4, 3);
        let mut r = SnapReader::new(&bytes);
        b.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(b.occupancy(), 0);
    }

    #[test]
    fn set_arena_snapshot_rejects_wrong_geometry() {
        let a: SetArena<u64> = SetArena::new(4, 3);
        let mut w = SnapWriter::new();
        a.save(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut b: SetArena<u64> = SetArena::new(4, 2);
        let mut r = SnapReader::new(&bytes);
        assert!(b.restore(&mut r).is_err());
    }

    #[test]
    fn set_arena_snapshot_is_canonical_after_churn() {
        // Same live entries via different histories → same bytes.
        let mut a: SetArena<u64> = SetArena::new(1, 4);
        a.insert(0, 1, 7, 70);
        let mut b: SetArena<u64> = SetArena::new(1, 4);
        b.insert(0, 0, 99, 1);
        b.insert(0, 1, 7, 70);
        b.insert(0, 2, 98, 2);
        b.take(0, 0);
        b.take(0, 2);
        let (mut wa, mut wb) = (SnapWriter::new(), SnapWriter::new());
        a.save(&mut wa).unwrap();
        b.save(&mut wb).unwrap();
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn gen_arena_stale_handles_never_resolve() {
        let mut a: GenArena<u64> = GenArena::new(2);
        let h1 = a.insert(11).unwrap();
        assert_eq!(a.get(h1), Some(&11));
        assert_eq!(a.remove(h1), Some(11));
        assert_eq!(a.get(h1), None, "freed handle is stale");
        let h2 = a.insert(22).unwrap();
        assert_eq!(h2.index(), h1.index(), "LIFO free list re-uses the slot");
        assert_eq!(a.get(h1), None, "re-used slot does not alias");
        assert_eq!(a.get(h2), Some(&22));
        assert_eq!(a.remove(h1), None);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn gen_arena_full_insert_fails() {
        let mut a: GenArena<u64> = GenArena::new(2);
        let _h1 = a.insert(1).unwrap();
        let h2 = a.insert(2).unwrap();
        assert!(a.is_full());
        assert_eq!(a.insert(3), None);
        a.remove(h2).unwrap();
        assert!(a.insert(4).is_some());
    }

    #[test]
    fn gen_arena_snapshot_roundtrip_at_capacity() {
        let mut a: GenArena<u64> = GenArena::new(3);
        let h0 = a.insert(10).unwrap();
        let _h1 = a.insert(20).unwrap();
        let _h2 = a.insert(30).unwrap();
        a.remove(h0).unwrap(); // free list: [0]
        let mut w = SnapWriter::new();
        a.save(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut b: GenArena<u64> = GenArena::new(3);
        let mut r = SnapReader::new(&bytes);
        b.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(b.len(), 2);
        // The restored arena allocates the same slot next.
        let (ha, hb) = (a.insert(40).unwrap(), b.insert(40).unwrap());
        assert_eq!(ha, hb, "allocation order survives the round-trip");
        let va: Vec<_> = a.iter().map(|(h, v)| (h, *v)).collect();
        let vb: Vec<_> = b.iter().map(|(h, v)| (h, *v)).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn arena_map_sorted_semantics() {
        let mut m: ArenaMap<u64> = ArenaMap::new(3);
        *m.get_mut_or_insert_with(30, || 3) += 0;
        *m.get_mut_or_insert_with(10, || 1) += 0;
        *m.get_mut_or_insert_with(20, || 2) += 0;
        assert_eq!(m.len(), 3);
        assert_eq!(m.min_key(), Some(10));
        assert_eq!(m.get(20), Some(&2));
        assert!(m.contains_key(30));
        let items: Vec<_> = m.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(items, vec![(10, 1), (20, 2), (30, 3)]);
        // Existing key: no insert, value returned.
        *m.get_mut_or_insert_with(20, || 99) += 5;
        assert_eq!(m.get(20), Some(&7));
        // Capacity-bound eviction protocol: evict min, then insert.
        let min = m.min_key().unwrap();
        assert_eq!(m.remove(min), Some(1));
        *m.get_mut_or_insert_with(5, || 50) += 0;
        assert_eq!(m.min_key(), Some(5));
        assert_eq!(m.len(), 3);
    }

    #[test]
    #[should_panic(expected = "ArenaMap insert above capacity")]
    fn arena_map_insert_above_capacity_panics() {
        let mut m: ArenaMap<u64> = ArenaMap::new(1);
        m.get_mut_or_insert_with(1, || 1);
        m.get_mut_or_insert_with(2, || 2);
    }
}
