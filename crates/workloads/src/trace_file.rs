//! ChampSim-style binary trace files: recording and replay.
//!
//! A trace file is a versioned header followed by fixed-width pc/addr
//! records, one per memory access:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "TRGLTRC\0"
//! 8       4     format version (little-endian u32)
//! 12      8     record count   (little-endian u64)
//! 20      8     payload checksum   (little-endian u64, see below)
//! 28      18×N  records: pc u64 | vaddr u64 | flags u8 | work u8
//! ```
//!
//! `flags` bit 0 is [`MemoryAccess::dependent`]; the remaining bits
//! must be zero. All integers are little-endian. The count and
//! checksum are patched into the header when recording finishes, so a
//! crashed recorder leaves a file that fails validation loudly instead
//! of replaying a truncated run.
//!
//! The checksum (format version 2) hashes the payload one record field
//! at a time, in three lanes: one for `pc`, one for `vaddr` and one for
//! the word `flags | work << 8`. Each lane is an [`FxHasher`] chain
//! started from its own seed word, advanced by one multiply per record.
//! The checksum is a fourth chain over the record count and the three
//! lane states, in that order. Every mix step is injective in its input
//! word and a bijection of the state, so a change confined to one field
//! of one record always changes the checksum. That is one multiply per
//! field, in three chains whose multiplies overlap.
//!
//! Replay goes through [`FileTrace`], a [`TraceSource`] that streams
//! records through a buffered reader in ring-sized chunks. Unlike
//! [`RecordedTrace`](crate::trace::RecordedTrace) it has an explicit
//! end-of-trace policy ([`EndPolicy`]): a finite trace either loops
//! with a visible wrap counter or refuses (panics) to fabricate
//! accesses past the end. Its snapshot carries the record cursor, so
//! an interrupted campaign resumes mid-trace byte-identically.

use std::fs::File;
use std::hash::Hasher;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use triangel_types::hash::FxHasher;
use triangel_types::snap::{snap_check, SnapError, SnapReader, SnapWriter};
use triangel_types::{Addr, Pc};

use crate::trace::{AccessRing, MemoryAccess, TraceReplayStats, TraceSource};

/// First eight bytes of every trace file.
pub const TRACE_MAGIC: [u8; 8] = *b"TRGLTRC\0";

/// Current trace-file format version.
pub const TRACE_FORMAT_VERSION: u32 = 2;

/// Bytes of header before the first record.
pub const TRACE_HEADER_LEN: u64 = 28;

/// Bytes per record: pc + vaddr + flags + work.
pub const TRACE_RECORD_LEN: u64 = 18;

const FLAG_DEPENDENT: u8 = 1;

/// Records per read while [`FileTrace::open`] verifies the checksum
/// (about 64 KiB).
const CHECK_CHUNK_RECORDS: usize = 3641;

/// Seed words of the checksum's pc, vaddr and flags/work lanes.
const LANE_SEEDS: [u64; 3] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
];

/// The payload checksum of the module docs: three lanes, one per
/// record field, folded with the record count by [`Self::finish`].
#[derive(Debug)]
struct PayloadHash {
    lanes: [FxHasher; 3],
}

impl PayloadHash {
    fn new() -> Self {
        let mut lanes = [FxHasher::default(); 3];
        for (lane, seed) in lanes.iter_mut().zip(LANE_SEEDS) {
            lane.write_u64(seed);
        }
        PayloadHash { lanes }
    }

    /// Hashes one encoded record.
    #[inline]
    fn push(&mut self, rec: &[u8]) {
        let word = |at: usize| u64::from_le_bytes(rec[at..at + 8].try_into().unwrap());
        self.lanes[0].write_u64(word(0));
        self.lanes[1].write_u64(word(8));
        self.lanes[2].write_u64(u64::from(rec[16]) | u64::from(rec[17]) << 8);
    }

    fn finish(&self, records: u64) -> u64 {
        let mut fold = FxHasher::default();
        fold.write_u64(records);
        for lane in &self.lanes {
            fold.write_u64(lane.finish());
        }
        fold.finish()
    }
}

/// The validated header of a trace file: record count and payload
/// checksum. Cheap to read (no payload scan), so harness content keys
/// can bind a job to the exact bytes it will replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFileHeader {
    /// Number of records in the file.
    pub records: u64,
    /// The payload checksum (module docs).
    pub checksum: u64,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn parse_header(path: &Path, raw: &[u8; 28], file_len: u64) -> io::Result<TraceFileHeader> {
    if raw[..8] != TRACE_MAGIC {
        return Err(bad(format!(
            "{}: not a trace file (bad magic)",
            path.display()
        )));
    }
    let version = u32::from_le_bytes(raw[8..12].try_into().unwrap());
    if version != TRACE_FORMAT_VERSION {
        return Err(bad(format!(
            "{}: trace format version {version}, this build reads {TRACE_FORMAT_VERSION}",
            path.display()
        )));
    }
    let records = u64::from_le_bytes(raw[12..20].try_into().unwrap());
    let checksum = u64::from_le_bytes(raw[20..28].try_into().unwrap());
    if records == 0 {
        return Err(bad(format!(
            "{}: empty trace (recorder crashed before finish?)",
            path.display()
        )));
    }
    let expect = TRACE_HEADER_LEN + records * TRACE_RECORD_LEN;
    if file_len != expect {
        return Err(bad(format!(
            "{}: {file_len} bytes on disk, header promises {expect} ({records} records)",
            path.display()
        )));
    }
    Ok(TraceFileHeader { records, checksum })
}

/// Reads and validates a trace file's header without touching the
/// payload (record count vs. file length is checked; the checksum is
/// only verified by [`FileTrace::open`]).
///
/// # Errors
///
/// I/O errors, or [`io::ErrorKind::InvalidData`] on bad magic, an
/// unknown version, or a length mismatch.
pub fn read_trace_header(path: impl AsRef<Path>) -> io::Result<TraceFileHeader> {
    let path = path.as_ref();
    read_header_from(path, &mut File::open(path)?)
}

/// [`read_trace_header`] on an open `file`, leaving its cursor at the
/// first record.
fn read_header_from(path: &Path, file: &mut File) -> io::Result<TraceFileHeader> {
    let file_len = file.metadata()?.len();
    if file_len < TRACE_HEADER_LEN {
        return Err(bad(format!(
            "{}: shorter than a trace header",
            path.display()
        )));
    }
    let mut raw = [0u8; 28];
    file.read_exact(&mut raw)?;
    parse_header(path, &raw, file_len)
}

/// Streams memory accesses into a trace file.
///
/// Records are buffered and checksummed as they are pushed;
/// [`TraceFileWriter::finish`] patches the record count and checksum
/// into the header. Dropping the writer without calling `finish`
/// leaves the header zeroed, which every reader rejects.
#[derive(Debug)]
pub struct TraceFileWriter {
    out: BufWriter<File>,
    path: PathBuf,
    records: u64,
    hash: PayloadHash,
}

impl TraceFileWriter {
    /// Creates (truncating) `path` and writes a placeholder header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let file = File::create(&path)?;
        let mut out = BufWriter::with_capacity(64 * 1024, file);
        out.write_all(&TRACE_MAGIC)?;
        out.write_all(&TRACE_FORMAT_VERSION.to_le_bytes())?;
        out.write_all(&[0u8; 16])?; // count + checksum, patched by finish()
        Ok(TraceFileWriter {
            out,
            path,
            records: 0,
            hash: PayloadHash::new(),
        })
    }

    /// Appends one access.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn push(&mut self, access: &MemoryAccess) -> io::Result<()> {
        let mut rec = [0u8; TRACE_RECORD_LEN as usize];
        rec[..8].copy_from_slice(&access.pc.get().to_le_bytes());
        rec[8..16].copy_from_slice(&access.vaddr.get().to_le_bytes());
        rec[16] = if access.dependent { FLAG_DEPENDENT } else { 0 };
        rec[17] = access.work;
        self.out.write_all(&rec)?;
        self.hash.push(&rec);
        self.records += 1;
        Ok(())
    }

    /// Patches the final record count and checksum into the header and
    /// flushes, returning the header a reader will see.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`io::ErrorKind::InvalidData`] if no records
    /// were pushed (an empty trace cannot replay).
    pub fn finish(mut self) -> io::Result<TraceFileHeader> {
        if self.records == 0 {
            return Err(bad(format!(
                "{}: refusing to finish an empty trace",
                self.path.display()
            )));
        }
        self.out.flush()?;
        let file = self.out.get_mut();
        file.seek(SeekFrom::Start(12))?;
        file.write_all(&self.records.to_le_bytes())?;
        let checksum = self.hash.finish(self.records);
        file.write_all(&checksum.to_le_bytes())?;
        file.sync_all()?;
        Ok(TraceFileHeader {
            records: self.records,
            checksum,
        })
    }
}

/// Records `accesses` draws from `source` into a trace file at `path`.
///
/// This is the capture half of the `trace_record` devtool: any
/// generator (or any other [`TraceSource`]) becomes a replayable
/// on-disk trace.
///
/// # Errors
///
/// Propagates I/O errors from writing the file.
pub fn record_trace(
    source: &mut dyn TraceSource,
    accesses: u64,
    path: impl Into<PathBuf>,
) -> io::Result<TraceFileHeader> {
    let mut w = TraceFileWriter::create(path)?;
    for _ in 0..accesses {
        w.push(&source.next_access())?;
    }
    w.finish()
}

/// What a [`FileTrace`] does when the recording runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndPolicy {
    /// Seek back to the first record and keep replaying, counting
    /// wraps (visible through [`TraceSource::replay_stats`] and the
    /// probe registry). This is what simulation jobs use: the engine
    /// assumes infinite sources.
    Loop,
    /// Refuse to fabricate accesses past the end: panic, naming the
    /// trace and its length. For tools and tests that must consume a
    /// recording exactly once.
    Strict,
}

/// Replays a trace file as a [`TraceSource`].
///
/// Opening validates the header *and* the payload checksum (one
/// streaming pass), so a truncated or bit-flipped file fails loudly
/// up front rather than perturbing a simulation. Replay then reads
/// ring-sized chunks through a buffered reader. The snapshot carries
/// the record cursor and wrap count; restore seeks the file, so an
/// interrupted campaign resumes mid-trace byte-identically.
#[derive(Debug)]
pub struct FileTrace {
    name: String,
    reader: BufReader<File>,
    records: u64,
    pos: u64,
    wraps: u64,
    policy: EndPolicy,
    scratch: Vec<u8>,
}

impl FileTrace {
    /// Opens `path`, validating header and payload checksum.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`io::ErrorKind::InvalidData`] on any
    /// validation failure.
    pub fn open(path: impl AsRef<Path>, policy: EndPolicy) -> io::Result<Self> {
        let path = path.as_ref();
        let mut file = File::open(path)?;
        let header = read_header_from(path, &mut file)?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".to_string());
        // Reads this large bypass the reader's own buffer.
        let mut reader = BufReader::new(file);
        let mut hash = PayloadHash::new();
        let mut buf = vec![0u8; CHECK_CHUNK_RECORDS * TRACE_RECORD_LEN as usize];
        let mut left = header.records;
        while left > 0 {
            let n = left.min(CHECK_CHUNK_RECORDS as u64) as usize;
            let chunk = &mut buf[..n * TRACE_RECORD_LEN as usize];
            reader.read_exact(chunk)?;
            for rec in chunk.chunks_exact(TRACE_RECORD_LEN as usize) {
                hash.push(rec);
            }
            left -= n as u64;
        }
        let hash = hash.finish(header.records);
        if hash != header.checksum {
            return Err(bad(format!(
                "{}: payload checksum mismatch (file corrupt or recorder crashed)",
                path.display()
            )));
        }
        reader.seek(SeekFrom::Start(TRACE_HEADER_LEN))?;
        Ok(FileTrace {
            name,
            reader,
            records: header.records,
            pos: 0,
            wraps: 0,
            policy,
            scratch: Vec::new(),
        })
    }

    /// Records in one full pass of the trace.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// How many times replay has wrapped back to the first record.
    pub fn wraps(&self) -> u64 {
        self.wraps
    }

    /// Handles the cursor sitting at end-of-trace per the policy.
    fn handle_end(&mut self) {
        match self.policy {
            EndPolicy::Loop => {
                self.seek_to(0).expect("trace file seek");
                self.wraps += 1;
            }
            EndPolicy::Strict => panic!(
                "trace `{}` exhausted after {} records (strict end-of-trace policy)",
                self.name, self.records
            ),
        }
    }

    fn seek_to(&mut self, record: u64) -> io::Result<()> {
        self.reader.seek(SeekFrom::Start(
            TRACE_HEADER_LEN + record * TRACE_RECORD_LEN,
        ))?;
        self.pos = record;
        Ok(())
    }

    fn decode(rec: &[u8]) -> MemoryAccess {
        MemoryAccess {
            pc: Pc::new(u64::from_le_bytes(rec[..8].try_into().unwrap())),
            vaddr: Addr::new(u64::from_le_bytes(rec[8..16].try_into().unwrap())),
            dependent: rec[16] & FLAG_DEPENDENT != 0,
            work: rec[17],
        }
    }
}

impl TraceSource for FileTrace {
    fn next_access(&mut self) -> MemoryAccess {
        if self.pos == self.records {
            self.handle_end();
        }
        let mut rec = [0u8; TRACE_RECORD_LEN as usize];
        self.reader
            .read_exact(&mut rec)
            .unwrap_or_else(|e| panic!("trace `{}`: read at record {}: {e}", self.name, self.pos));
        self.pos += 1;
        FileTrace::decode(&rec)
    }

    fn fill(&mut self, ring: &mut AccessRing) -> usize {
        // Chunked replay: one buffered read per contiguous run instead
        // of one per access, wrapping (or refusing) at end-of-trace.
        let want = ring.remaining();
        let mut delivered = 0;
        while delivered < want {
            if self.pos == self.records {
                self.handle_end();
            }
            let run = ((want - delivered) as u64).min(self.records - self.pos) as usize;
            self.scratch.resize(run * TRACE_RECORD_LEN as usize, 0);
            self.reader
                .read_exact(&mut self.scratch)
                .unwrap_or_else(|e| {
                    panic!("trace `{}`: read at record {}: {e}", self.name, self.pos)
                });
            for i in 0..run {
                let rec =
                    &self.scratch[i * TRACE_RECORD_LEN as usize..][..TRACE_RECORD_LEN as usize];
                let pushed = ring.push(FileTrace::decode(rec));
                debug_assert!(pushed, "remaining() slots must accept pushes");
                if !pushed {
                    // Rewind to the first undelivered record so the
                    // cursor stays in sync with what the ring took.
                    self.seek_to(self.pos).expect("trace file seek");
                    return delivered;
                }
                self.pos += 1;
                delivered += 1;
            }
        }
        delivered
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u64(self.pos);
        w.u64(self.wraps);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let pos = r.u64()?;
        snap_check(pos <= self.records, "trace-file cursor out of range")?;
        self.wraps = r.u64()?;
        self.seek_to(pos)
            .map_err(|e| SnapError::corrupt(format!("trace-file seek on restore: {e}")))?;
        Ok(())
    }

    fn replay_stats(&self) -> Option<TraceReplayStats> {
        Some(TraceReplayStats {
            records: self.records,
            wraps: self.wraps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RecordedTrace;

    fn sample_accesses(n: u64) -> Vec<MemoryAccess> {
        (0..n)
            .map(|i| {
                let a = MemoryAccess::new(Pc::new(0x1000 + i), Addr::new((9 << 40) + i * 64))
                    .with_work((i % 7) as u8);
                if i % 3 == 0 {
                    a.dependent()
                } else {
                    a
                }
            })
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("triangel-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trips_every_field() {
        let path = tmp("round.trc");
        let accs = sample_accesses(10);
        let mut src = RecordedTrace::new("src", accs.clone());
        let header = record_trace(&mut src, 10, &path).unwrap();
        assert_eq!(header.records, 10);
        assert_eq!(read_trace_header(&path).unwrap(), header);

        let mut replay = FileTrace::open(&path, EndPolicy::Strict).unwrap();
        for want in &accs {
            assert_eq!(replay.next_access(), *want);
        }
    }

    #[test]
    fn fill_matches_next_across_wraps() {
        let path = tmp("fill.trc");
        let mut src = RecordedTrace::new("src", sample_accesses(5));
        record_trace(&mut src, 5, &path).unwrap();

        let mut by_next = FileTrace::open(&path, EndPolicy::Loop).unwrap();
        let mut by_fill = FileTrace::open(&path, EndPolicy::Loop).unwrap();
        let mut ring = AccessRing::with_capacity(7); // not a divisor of 5
        for _ in 0..6 {
            by_fill.fill(&mut ring);
            while let Some(a) = ring.pop() {
                assert_eq!(a, by_next.next_access());
            }
        }
        assert_eq!(by_fill.wraps(), by_next.wraps());
        assert!(by_fill.wraps() >= 8);
    }

    #[test]
    fn snapshot_resumes_mid_trace() {
        let path = tmp("snap.trc");
        let mut src = RecordedTrace::new("src", sample_accesses(6));
        record_trace(&mut src, 6, &path).unwrap();

        let mut a = FileTrace::open(&path, EndPolicy::Loop).unwrap();
        for _ in 0..8 {
            a.next_access(); // one wrap, cursor mid-trace
        }
        let mut w = SnapWriter::new();
        a.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();

        let mut b = FileTrace::open(&path, EndPolicy::Loop).unwrap();
        let mut r = SnapReader::new(&bytes);
        b.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(b.wraps(), a.wraps());
        for _ in 0..10 {
            assert_eq!(b.next_access(), a.next_access());
        }
    }

    #[test]
    #[should_panic(expected = "strict end-of-trace policy")]
    fn strict_policy_refuses_to_wrap() {
        let path = tmp("strict.trc");
        let mut src = RecordedTrace::new("src", sample_accesses(3));
        record_trace(&mut src, 3, &path).unwrap();
        let mut replay = FileTrace::open(&path, EndPolicy::Strict).unwrap();
        for _ in 0..4 {
            replay.next_access();
        }
    }

    #[test]
    fn truncated_file_rejected_by_header_read() {
        let path = tmp("trunc.trc");
        let mut src = RecordedTrace::new("src", sample_accesses(4));
        record_trace(&mut src, 4, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let err = read_trace_header(&path).unwrap_err();
        assert!(err.to_string().contains("header promises"), "{err}");
    }

    #[test]
    fn unfinished_recording_rejected() {
        let path = tmp("unfinished.trc");
        let mut w = TraceFileWriter::create(&path).unwrap();
        w.push(&MemoryAccess::new(Pc::new(1), Addr::new(64)))
            .unwrap();
        drop(w); // never finished: header still zeroed
        let err = read_trace_header(&path).unwrap_err();
        assert!(err.to_string().contains("empty trace"), "{err}");
    }

    #[test]
    fn header_digest_tracks_content() {
        let p1 = tmp("dig1.trc");
        let p2 = tmp("dig2.trc");
        let mut s1 = RecordedTrace::new("s", sample_accesses(8));
        let mut s2 = RecordedTrace::new("s", sample_accesses(8));
        let h1 = record_trace(&mut s1, 8, &p1).unwrap();
        let h2 = record_trace(&mut s2, 8, &p2).unwrap();
        assert_eq!(h1, h2);
        let mut s3 = RecordedTrace::new("s", sample_accesses(9));
        let p3 = tmp("dig3.trc");
        let h3 = record_trace(&mut s3, 9, &p3).unwrap();
        assert_ne!(h1, h3);
    }

    /// Records `sample_accesses(n)` to `name` and returns the file's bytes.
    fn recorded_bytes(name: &str, n: u64) -> (PathBuf, Vec<u8>) {
        let path = tmp(name);
        let mut src = RecordedTrace::new("src", sample_accesses(n));
        record_trace(&mut src, n, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    fn assert_checksum_mismatch(path: &Path, bytes: &[u8], what: &str) {
        std::fs::write(path, bytes).unwrap();
        match FileTrace::open(path, EndPolicy::Loop) {
            Ok(_) => panic!("{what}: accepted"),
            Err(err) => assert!(
                err.to_string().contains("checksum mismatch"),
                "{what}: {err}"
            ),
        }
    }

    #[test]
    fn every_payload_bit_flip_rejected_at_open() {
        let (path, clean) = recorded_bytes("flips.trc", 8);
        for record in [0u64, 4, 7] {
            for offset in 0..TRACE_RECORD_LEN {
                let at = (TRACE_HEADER_LEN + record * TRACE_RECORD_LEN + offset) as usize;
                for bit in 0..8 {
                    let mut bytes = clean.clone();
                    bytes[at] ^= 1 << bit;
                    let what = format!("record {record} byte {offset} bit {bit}");
                    assert_checksum_mismatch(&path, &bytes, &what);
                }
            }
        }
    }

    #[test]
    fn swapped_records_rejected_at_open() {
        let (path, mut bytes) = recorded_bytes("swap.trc", 8);
        let rec = |i: usize| TRACE_HEADER_LEN as usize + i * TRACE_RECORD_LEN as usize;
        let (head, tail) = bytes.split_at_mut(rec(5));
        head[rec(2)..rec(3)].swap_with_slice(&mut tail[..TRACE_RECORD_LEN as usize]);
        assert_checksum_mismatch(&path, &bytes, "records 2 and 5 swapped");
    }

    #[test]
    fn version_one_file_gets_the_version_error() {
        let (path, mut bytes) = recorded_bytes("v1.trc", 8);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let want = "trace format version 1, this build reads 2";
        let err = read_trace_header(&path).unwrap_err();
        assert!(err.to_string().contains(want), "{err}");
        let err = FileTrace::open(&path, EndPolicy::Loop).unwrap_err();
        assert!(err.to_string().contains(want), "{err}");
    }

    #[test]
    fn checksum_is_pinned() {
        // Changing the checksum's definition changes every recorded
        // file's header and every trace job's key: do it on purpose,
        // with a format version bump.
        let path = tmp("pin.trc");
        let mut src = RecordedTrace::new("src", sample_accesses(8));
        let header = record_trace(&mut src, 8, &path).unwrap();
        assert_eq!(header.checksum, 0xe758_5586_b11d_a90e);
    }
}
