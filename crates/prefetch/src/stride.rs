//! The baseline L1D stride prefetcher (Chen & Baer, ASPLOS 1992).

use crate::{CacheView, PrefetchRequest, PrefetcherStats, TrainEvent, TrainKind};
use triangel_types::arena::ArenaMap;
use triangel_types::{LineAddr, Pc};

/// Per-PC stride tracking state.
#[derive(Debug, Clone, Copy)]
struct StrideEntry {
    last_line: LineAddr,
    stride: i64,
    confidence: u8,
}

impl Default for StrideEntry {
    fn default() -> Self {
        StrideEntry {
            last_line: LineAddr::new(0),
            stride: 0,
            confidence: 0,
        }
    }
}

/// A PC-localized stride prefetcher, degree 8 at the L1D in the paper's
/// baseline (Table 2).
///
/// On every L1 access it computes the delta to the PC's previous line;
/// two consecutive matching deltas lock the stride and issue
/// `degree` prefetches down the stream. Temporal prefetchers only see
/// value beyond what this captures, so it must be present in both
/// baseline and prefetcher configurations.
#[derive(Debug)]
pub struct StridePrefetcher {
    /// PC → stride state, touched on every L1 access. A fixed-capacity
    /// sorted-key arena map: probes binary-search one contiguous key
    /// array, the eviction policy (drop the smallest PC when full) is
    /// `O(1)` off the front, and iteration order is deterministic by
    /// construction.
    table: ArenaMap<StrideEntry>,
    degree: usize,
    issued: u64,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher with a `capacity`-entry table and the
    /// given degree.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `degree` is zero.
    pub fn new(capacity: usize, degree: usize) -> Self {
        assert!(capacity > 0 && degree > 0);
        StridePrefetcher {
            table: ArenaMap::new(capacity),
            degree,
            issued: 0,
        }
    }

    /// The paper's baseline configuration: degree-8 (Table 2).
    pub fn baseline() -> Self {
        StridePrefetcher::new(64, 8)
    }

    /// Processes one training event, appending any prefetches to `out`.
    ///
    /// Generic over the cache view, so the simulator's call on every L1
    /// access inlines the whole delta/confidence update into the access
    /// loop. Events other than [`TrainKind::L1Access`] are ignored.
    pub fn handle<V: CacheView + ?Sized>(
        &mut self,
        ev: &TrainEvent,
        _caches: &V,
        out: &mut Vec<PrefetchRequest>,
    ) {
        if ev.kind != TrainKind::L1Access {
            return;
        }
        self.evict_if_full(ev.pc);
        let entry = self
            .table
            .get_mut_or_insert_with(ev.pc.get(), || StrideEntry {
                last_line: ev.line,
                stride: 0,
                confidence: 0,
            });
        let delta = ev.line.index() as i64 - entry.last_line.index() as i64;
        if delta == entry.stride && delta != 0 {
            entry.confidence = entry.confidence.saturating_add(1);
        } else {
            entry.stride = delta;
            entry.confidence = 0;
        }
        entry.last_line = ev.line;
        if entry.confidence >= 2 {
            let stride = entry.stride;
            let line = ev.line.index();
            // A stream walking off either end of the line space stops
            // there instead of wrapping around: `n` targets fit.
            let room = if stride < 0 { line } else { u64::MAX - line };
            let step = stride.unsigned_abs();
            let degree = self.degree as u64;
            let n = match step.checked_mul(degree) {
                Some(span) if span <= room => degree,
                _ => room / step,
            };
            for d in 1..=n {
                out.push(PrefetchRequest {
                    // Exact: the target lies within the line space.
                    line: LineAddr::new(line.wrapping_add((stride as u64).wrapping_mul(d))),
                    pc: ev.pc,
                    issue_delay: 0,
                });
            }
            self.issued += n;
        }
    }

    /// Evaluation counters: only `prefetches_issued` is nonzero.
    pub fn stats(&self) -> PrefetcherStats {
        PrefetcherStats {
            prefetches_issued: self.issued,
            ..Default::default()
        }
    }

    fn evict_if_full(&mut self, pc: Pc) {
        if self.table.len() >= self.table.capacity() && !self.table.contains_key(pc.get()) {
            // Deterministic eviction: drop the smallest key. A real table
            // would be set-indexed by PC; the effect is equivalent for
            // our stream counts (well under capacity).
            if let Some(k) = self.table.min_key() {
                self.table.remove(k);
            }
        }
    }
}

use triangel_types::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

impl Snapshot for StridePrefetcher {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        // The arena map iterates in ascending PC order, so the bytes
        // are deterministic without an explicit sort.
        w.usize(self.table.len());
        for (pc, e) in self.table.iter() {
            w.u64(pc);
            w.u64(e.last_line.index());
            w.i64(e.stride);
            w.u8(e.confidence);
        }
        w.u64(self.issued);
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let n = r.usize()?;
        triangel_types::snap::snap_check(
            n <= self.table.capacity(),
            "stride table above capacity",
        )?;
        self.table.clear();
        for _ in 0..n {
            let pc = r.u64()?;
            let e = StrideEntry {
                last_line: LineAddr::new(r.u64()?),
                stride: r.i64()?,
                confidence: r.u8()?,
            };
            *self.table.get_mut_or_insert_with(pc, StrideEntry::default) = e;
        }
        self.issued = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NullCacheView;
    use triangel_types::Cycle;

    fn ev(pc: u64, line: u64, cycle: Cycle) -> TrainEvent {
        TrainEvent {
            pc: Pc::new(pc),
            line: LineAddr::new(line),
            kind: TrainKind::L1Access,
            cycle,
            l2_fills: 0,
        }
    }

    fn drive(pf: &mut StridePrefetcher, pc: u64, lines: &[u64]) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for (i, l) in lines.iter().enumerate() {
            out.clear();
            pf.handle(&ev(pc, *l, i as Cycle), &NullCacheView, &mut out);
        }
        out
    }

    #[test]
    fn locks_onto_unit_stride() {
        let mut pf = StridePrefetcher::new(16, 4);
        let out = drive(&mut pf, 1, &[10, 11, 12, 13]);
        let lines: Vec<u64> = out.iter().map(|r| r.line.index()).collect();
        assert_eq!(lines, vec![14, 15, 16, 17]);
    }

    #[test]
    fn locks_onto_negative_stride() {
        let mut pf = StridePrefetcher::new(16, 2);
        let out = drive(&mut pf, 1, &[100, 97, 94, 91]);
        let lines: Vec<u64> = out.iter().map(|r| r.line.index()).collect();
        assert_eq!(lines, vec![88, 85]);
    }

    #[test]
    fn descending_stream_stops_at_line_zero() {
        let mut pf = StridePrefetcher::new(16, 8);
        let out = drive(&mut pf, 1, &[9, 7, 5, 3]);
        let lines: Vec<u64> = out.iter().map(|r| r.line.index()).collect();
        assert_eq!(lines, vec![1]);
        assert_eq!(pf.stats().prefetches_issued, 1);
        // At line 0 nothing lies below: no request at all.
        let out = drive(&mut pf, 1, &[1]);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(pf.stats().prefetches_issued, 1);
    }

    #[test]
    fn ascending_stream_stops_at_the_last_line() {
        let mut pf = StridePrefetcher::new(16, 4);
        let top = u64::MAX - 15;
        let out = drive(&mut pf, 1, &[top - 30, top - 20, top - 10, top]);
        let lines: Vec<u64> = out.iter().map(|r| r.line.index()).collect();
        assert_eq!(lines, vec![u64::MAX - 5]);
    }

    #[test]
    fn random_pattern_stays_quiet() {
        let mut pf = StridePrefetcher::new(16, 8);
        let out = drive(&mut pf, 1, &[5, 90, 3, 77, 21, 60]);
        assert!(out.is_empty());
    }

    #[test]
    fn streams_are_pc_separated() {
        let mut pf = StridePrefetcher::new(16, 2);
        // Interleave two PCs with different strides; both must lock.
        let mut out = Vec::new();
        let mut last = Vec::new();
        for i in 0..6u64 {
            out.clear();
            pf.handle(&ev(1, 10 + i, 0), &NullCacheView, &mut out);
            if !out.is_empty() {
                last = out.clone();
            }
            out.clear();
            pf.handle(&ev(2, 1000 + 4 * i, 0), &NullCacheView, &mut out);
        }
        assert!(!last.is_empty());
        assert!(!out.is_empty());
        assert_eq!(out[0].line.index() % 4, (1000 + 4 * 5 + 4) % 4);
    }

    #[test]
    fn ignores_l2_events() {
        let mut pf = StridePrefetcher::new(16, 2);
        let mut out = Vec::new();
        for i in 0..5 {
            let mut e = ev(1, 10 + i, 0);
            e.kind = TrainKind::L2Miss;
            pf.handle(&e, &NullCacheView, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn zero_stride_never_prefetches() {
        let mut pf = StridePrefetcher::new(16, 2);
        let out = drive(&mut pf, 1, &[42, 42, 42, 42, 42]);
        assert!(out.is_empty());
    }

    #[test]
    fn capacity_evicts_smallest_pc() {
        let mut pf = StridePrefetcher::new(2, 2);
        drive(&mut pf, 10, &[100]);
        drive(&mut pf, 20, &[200]);
        drive(&mut pf, 30, &[300]); // evicts PC 10
        assert_eq!(pf.table.len(), 2);
        assert!(!pf.table.contains_key(10));
        assert!(pf.table.contains_key(20));
        assert!(pf.table.contains_key(30));
        // Touching a resident PC at capacity does not evict.
        drive(&mut pf, 20, &[201]);
        assert!(pf.table.contains_key(30));
    }

    #[test]
    fn snapshot_roundtrip_preserves_streams() {
        let mut pf = StridePrefetcher::new(16, 2);
        drive(&mut pf, 9, &[50, 51, 52]);
        drive(&mut pf, 3, &[10, 12, 14]);
        let mut w = SnapWriter::new();
        pf.save(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut q = StridePrefetcher::new(16, 2);
        let mut r = SnapReader::new(&bytes);
        q.restore(&mut r).unwrap();
        r.finish().unwrap();
        // Both continue identically.
        let a = drive(&mut pf, 9, &[53]);
        let b = drive(&mut q, 9, &[53]);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
