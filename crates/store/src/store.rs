//! The content-addressed on-disk result store.

use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use triangel_obs::{Probe, ProbeSet};
use triangel_sim::{RunReport, SNAPSHOT_VERSION};
use triangel_types::snap::{snap_check, SnapError, SnapReader, SnapWriter};

use crate::flock;
use crate::framing::{report_from_bytes, report_to_bytes};

/// Magic opening every store entry file.
pub const ENTRY_MAGIC: [u8; 8] = *b"TRGLSTO\0";

/// Version of the store entry envelope itself (the framing around the
/// persisted report). Bumped when the envelope layout changes.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// FNV-1a 64-bit hash (also the entry payload checksum).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Atomically replaces `path` with `bytes` (write to a sibling temp
/// file, then rename), so a kill mid-write never corrupts an artifact.
/// The temp name is unique per call, so concurrent writers of one path
/// (threads or processes) never share a half-written temp file: the
/// last rename wins whole.
///
/// # Errors
///
/// The underlying filesystem error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Store traffic counters. All monotonic; shared across every thread
/// using one [`ResultStore`] handle.
#[derive(Debug, Default)]
pub struct StoreStats {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    discards: AtomicU64,
}

impl StoreStats {
    /// Lookups satisfied from a persisted entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found no usable entry.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries published (one per job executed against this handle).
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Corrupt or stale files discarded: report entries (each one was
    /// re-executed) and checkpoint blobs (each job restarted).
    pub fn discards(&self) -> u64 {
        self.discards.load(Ordering::Relaxed)
    }

    /// The standard one-line rendering, e.g. for stderr summaries:
    /// `hits=3 misses=14 inserts=14 discards=0`.
    pub fn render(&self) -> String {
        format!(
            "hits={} misses={} inserts={} discards={}",
            self.hits(),
            self.misses(),
            self.inserts(),
            self.discards()
        )
    }
}

impl Probe for StoreStats {
    fn probe(&self, out: &mut ProbeSet) {
        out.record("hits", self.hits());
        out.record("misses", self.misses());
        out.record("inserts", self.inserts());
        out.record("discards", self.discards());
    }
}

/// The outcome of [`ResultStore::claim_blocking`].
pub enum Claim<'a> {
    /// Another writer published the job while we waited; here is its
    /// report.
    Hit(Arc<RunReport>),
    /// We hold the job: execute it and [`JobLease::publish`] the
    /// report. Dropping the lease unpublished releases the job for the
    /// next claimant.
    Lease(JobLease<'a>),
}

/// Exclusive right to execute one job, backed by an `flock` on the
/// job's lock file. Held for the duration of the simulation; the lock
/// releases when the lease drops (including on panic or process
/// death), so a crashed writer never wedges the store.
///
/// The lease also guards the job's checkpoint blob: a resumable runner
/// [`saves`](JobLease::save_snapshot) its partial state under the
/// lease and drops it unpublished when interrupted, and the next
/// claimant — this process or another —
/// [`loads`](JobLease::load_snapshot) the blob and continues.
pub struct JobLease<'a> {
    store: &'a ResultStore,
    key: String,
    // Held only for its flock; dropping it releases the lock.
    _lock: File,
}

impl JobLease<'_> {
    /// The claimed job's content key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Reads the job's checkpoint blob and hands its payload to
    /// `restore`. `None` when there is no blob; a blob that fails the
    /// envelope checks, or that `restore` rejects, is discarded loudly
    /// (counted in [`StoreStats::discards`]) and also reads as `None`,
    /// so the caller starts the job over.
    pub fn load_snapshot<T>(
        &self,
        restore: impl FnOnce(&[u8]) -> Result<T, SnapError>,
    ) -> Option<T> {
        let (slot, payload) = self.store.find(Kind::Snapshot, &self.key).ok()?;
        match restore(&payload) {
            Ok(value) => Some(value),
            Err(e) => {
                self.store.discard(Kind::Snapshot, &self.key, slot, &e);
                None
            }
        }
    }

    /// Atomically replaces the job's checkpoint blob with `bytes`,
    /// wrapped in the entry envelope.
    ///
    /// # Errors
    ///
    /// The underlying filesystem error.
    pub fn save_snapshot(&self, bytes: &[u8]) -> io::Result<()> {
        self.store.write(Kind::Snapshot, &self.key, bytes)
    }

    /// Publishes the finished report under the leased key, deletes the
    /// job's checkpoint blob, then releases the lock.
    /// Publish-before-unlock is the exactly-once guarantee: a writer
    /// blocked on our lock re-checks the store the moment it acquires
    /// it, and finds this entry.
    pub fn publish(self, report: &RunReport) {
        self.store.put(&self.key, report);
        if let Ok((slot, _)) = self.store.find(Kind::Snapshot, &self.key) {
            self.store.remove_slot(Kind::Snapshot, &self.key, slot);
        }
    }
}

/// An on-disk, content-addressed result store shared across processes.
///
/// Maps a [`JobSpec` content key](crate) (the same string the
/// in-process `ResultCache` uses) to a framed [`RunReport`], interval
/// series included. Layout under the store directory:
///
/// * `entries/<stem>.rpt` — one entry per finished job, `<stem>` the
///   FNV-1a of the key ([`ResultStore::stem`]). Written atomically
///   (temp + rename) and self-checking: envelope magic + versions, the
///   full key (collision guard), and a payload checksum.
/// * `snaps/<stem>.snap` — the checkpoint blob of a partially executed
///   job, in the same envelope around a session snapshot. Written and
///   read only under the job's lease; deleted when the job publishes.
/// * `locks/<stem>.lock` — empty `flock(2)` rendezvous files for
///   cross-process claim coordination.
/// * `store.meta` — human-readable version banner.
///
/// Both kinds record [`STORE_FORMAT_VERSION`] and the simulator's
/// [`SNAPSHOT_VERSION`]: a file written by a build whose simulation
/// semantics differ is *stale*, discarded loudly, and re-executed.
///
/// Distinct keys can hash to the same stem. Colliding keys probe
/// suffixed slots (`entries/<stem>-1.rpt`, `-2`, … up to
/// [`MAX_STEM_PROBES`]): a read walks the slots until it finds its own
/// key or an absent file, and a write lands in the first slot that is
/// free or already holds its key. Both colliding keys therefore stay
/// stored instead of overwriting each other on every publish. Removing
/// a slot moves the stem's last slot into the hole, so the slots stay
/// contiguous and no key is stranded behind a gap.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    stats: StoreStats,
    stem_mask: u64,
}

/// Slots probed per stem before a publish falls back to overwriting
/// the last slot. Real fnv64 collisions are vanishingly rare; the
/// bound only caps pathological stores.
pub const MAX_STEM_PROBES: usize = 8;

impl ResultStore {
    /// Opens (creating if needed) the store under `dir`.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating the layout.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        ResultStore::open_with_stem_bits(dir, 64)
    }

    /// Like [`ResultStore::open`], but truncates stem hashes to the low
    /// `bits` bits. This is a fault-injection knob: with a tiny width
    /// (even 0), arbitrary keys collide on the same stem, making the
    /// suffix-probing collision path testable without hunting for real
    /// 64-bit fnv collisions. Production callers use [`ResultStore::open`]
    /// (full width). Stores opened at different widths must not share a
    /// directory.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating the layout.
    pub fn open_with_stem_bits(dir: impl Into<PathBuf>, bits: u32) -> io::Result<ResultStore> {
        let stem_mask = if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let dir = dir.into();
        for kind in [Kind::Entry, Kind::Snapshot] {
            std::fs::create_dir_all(dir.join(kind.dir()))?;
        }
        std::fs::create_dir_all(dir.join("locks"))?;
        let meta_path = dir.join("store.meta");
        let banner =
            format!("triangel-store v{STORE_FORMAT_VERSION} snapshot={SNAPSHOT_VERSION}\n");
        match std::fs::read_to_string(&meta_path) {
            Ok(existing) if existing == banner => {}
            Ok(existing) => {
                eprintln!(
                    "[store] version banner changed ({} -> {}); stale entries will be \
                     discarded as they are touched",
                    existing.trim(),
                    banner.trim()
                );
                write_atomic(&meta_path, banner.as_bytes())?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                write_atomic(&meta_path, banner.as_bytes())?;
            }
            Err(e) => return Err(e),
        }
        Ok(ResultStore {
            dir,
            stats: StoreStats::default(),
            stem_mask,
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// This handle's traffic counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// The file stem naming `key`'s store files: the FNV-1a of the key,
    /// truncated to the store's stem width.
    pub fn stem(&self, key: &str) -> String {
        format!("{:016x}", fnv1a(key.as_bytes()) & self.stem_mask)
    }

    /// The entry file for `key`'s first probe slot (colliding keys may
    /// live in suffixed siblings; see the type docs).
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.slot_path(Kind::Entry, &self.stem(key), 0)
    }

    fn slot_path(&self, kind: Kind, stem: &str, slot: usize) -> PathBuf {
        let name = if slot == 0 {
            format!("{stem}.{}", kind.ext())
        } else {
            format!("{stem}-{slot}.{}", kind.ext())
        };
        self.dir.join(kind.dir()).join(name)
    }

    fn lock_path(&self, key: &str) -> PathBuf {
        self.dir
            .join("locks")
            .join(format!("{}.lock", self.stem(key)))
    }

    /// Looks up `key`, counting a hit or a miss. Corrupt or stale
    /// entries are discarded loudly and read as a miss — the caller
    /// re-executes the job, and the fresh publish replaces the entry.
    pub fn get(&self, key: &str) -> Option<Arc<RunReport>> {
        let found = self.read_entry(key);
        if found.is_some() {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Publishes a finished report under `key` (atomic replace), into
    /// the first probe slot that is absent, corrupt, or already ours —
    /// never over another key's valid entry (unless every slot is
    /// taken by colliding keys, where the last slot is sacrificed).
    pub fn put(&self, key: &str, report: &RunReport) {
        match self.write(Kind::Entry, key, &report_to_bytes(report)) {
            Ok(()) => {
                self.stats.inserts.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => eprintln!("[store] publish failed for {key}: {e}"),
        }
    }

    /// Claims the right to execute `key`, blocking on the job's lock
    /// until it is free. Call this after a missed [`ResultStore::get`]:
    /// if another writer (thread or process) published the entry while
    /// we waited for the lock, the claim resolves to [`Claim::Hit`]
    /// without executing anything; otherwise the returned lease holds
    /// the lock until the report is published (or the lease dropped).
    ///
    /// Exactly-once follows from the publish-before-unlock ordering in
    /// [`JobLease::publish`] plus this re-check under the lock.
    ///
    /// # Errors
    ///
    /// Filesystem or `flock` errors; callers may fall back to plain
    /// (uncoordinated) execution.
    pub fn claim_blocking(&self, key: &str) -> io::Result<Claim<'_>> {
        let lock = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(self.lock_path(key))?;
        flock::lock_exclusive(&lock)?;
        // Under the lock: did whoever held it before us publish?
        if let Some(report) = self.read_entry(key) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Claim::Hit(report));
        }
        Ok(Claim::Lease(JobLease {
            store: self,
            key: key.to_string(),
            _lock: lock,
        }))
    }

    /// Reads and validates the entry for `key`, without counting hits
    /// or misses.
    fn read_entry(&self, key: &str) -> Option<Arc<RunReport>> {
        let (slot, payload) = self.find(Kind::Entry, key).ok()?;
        match report_from_bytes(&payload) {
            Ok(report) => Some(Arc::new(report)),
            Err(e) => {
                self.discard(Kind::Entry, key, slot, &e);
                None
            }
        }
    }

    /// Walks `key`'s probe slots of `kind` past colliding keys' valid
    /// files (which stay untouched), discarding corrupt or stale ones.
    /// `Ok` carries the slot holding `key` and its envelope payload;
    /// `Err` the slot a write for `key` should take.
    fn find(&self, kind: Kind, key: &str) -> Result<(usize, Vec<u8>), usize> {
        let stem = self.stem(key);
        let mut slot = 0;
        while slot < MAX_STEM_PROBES {
            let bytes = match std::fs::read(self.slot_path(kind, &stem, slot)) {
                Ok(b) => b,
                // Slots are contiguous (see `remove_slot`), so an
                // absent slot proves the key is not stored.
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(slot),
                Err(e) => {
                    eprintln!("[store] unreadable {} for {key}: {e}", kind.noun());
                    return Err(slot);
                }
            };
            match open_envelope(key, &bytes) {
                Ok(Some(payload)) => return Ok((slot, payload.to_vec())),
                Ok(None) => {
                    // A different key hashed to this stem: someone
                    // else's valid file. Leave it alone and probe the
                    // next suffixed slot; both keys stay stored.
                    eprintln!(
                        "[store] key-stem collision on {stem} (slot {slot}): probing next slot"
                    );
                    slot += 1;
                }
                // The chain's last file now fills this slot: re-probe it.
                Err(e) => self.discard(kind, key, slot, &e),
            }
        }
        Err(MAX_STEM_PROBES - 1)
    }

    /// Loudly drops a corrupt or stale file found while probing for
    /// `key`, counting the discard.
    fn discard(&self, kind: Kind, key: &str, slot: usize, why: &SnapError) {
        self.stats.discards.fetch_add(1, Ordering::Relaxed);
        let consequence = match kind {
            Kind::Entry => "will re-execute",
            Kind::Snapshot => "job restarts",
        };
        eprintln!(
            "[store] discarding {} for {key}: {why} ({consequence})",
            kind.noun()
        );
        self.remove_slot(kind, key, slot);
    }

    /// Atomically writes `payload`, enveloped, into `key`'s slot of
    /// `kind`: the slot already holding `key`, else the first free one.
    fn write(&self, kind: Kind, key: &str, payload: &[u8]) -> io::Result<()> {
        let slot = self
            .find(kind, key)
            .map_or_else(|free| free, |(slot, _)| slot);
        let path = self.slot_path(kind, &self.stem(key), slot);
        write_atomic(&path, &envelope(key, payload))
    }

    /// Deletes `slot` of `key`'s stem, moving the stem's last occupied
    /// slot into the hole so the probe chain stays contiguous.
    /// Callers hold the stem's lock, except when an unlocked
    /// [`ResultStore::get`] discards a corrupt entry; a writer racing
    /// that can lose work, never serve a wrong report, since every
    /// read re-checks the key and checksum.
    fn remove_slot(&self, kind: Kind, key: &str, slot: usize) {
        let stem = self.stem(key);
        let hole = self.slot_path(kind, &stem, slot);
        let last = (slot + 1..MAX_STEM_PROBES)
            .take_while(|&s| self.slot_path(kind, &stem, s).exists())
            .last();
        let result = match last {
            Some(last) => std::fs::rename(self.slot_path(kind, &stem, last), &hole),
            None => std::fs::remove_file(&hole),
        };
        if let Err(e) = result {
            eprintln!("[store] cannot remove {}: {e}", hole.display());
        }
    }
}

impl Probe for ResultStore {
    fn probe(&self, out: &mut ProbeSet) {
        self.stats.probe(out);
    }
}

/// The two kinds of file a store holds, each in its own directory
/// under the same envelope.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A finished job's report.
    Entry,
    /// A partially executed job's checkpoint blob.
    Snapshot,
}

impl Kind {
    fn dir(self) -> &'static str {
        match self {
            Kind::Entry => "entries",
            Kind::Snapshot => "snaps",
        }
    }

    fn ext(self) -> &'static str {
        match self {
            Kind::Entry => "rpt",
            Kind::Snapshot => "snap",
        }
    }

    fn noun(self) -> &'static str {
        match self {
            Kind::Entry => "entry",
            Kind::Snapshot => "snapshot",
        }
    }
}

/// Frames one store file: envelope (magic, versions, key) around the
/// payload, closed by a payload checksum.
fn envelope(key: &str, payload: &[u8]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.bytes(&ENTRY_MAGIC);
    w.u32(STORE_FORMAT_VERSION);
    w.u32(SNAPSHOT_VERSION);
    w.str(key);
    w.bytes(payload);
    w.u64(fnv1a(payload));
    w.into_bytes()
}

/// Checks a store file's envelope and returns its payload. `Ok(None)`
/// means the file is valid but stores a *different* key (a stem
/// collision); errors mean it is corrupt or stale and must be
/// discarded.
fn open_envelope<'a>(key: &str, bytes: &'a [u8]) -> Result<Option<&'a [u8]>, SnapError> {
    let mut r = SnapReader::new(bytes);
    snap_check(r.bytes()? == ENTRY_MAGIC, "bad entry magic")?;
    let fmt = r.u32()?;
    if fmt != STORE_FORMAT_VERSION {
        return Err(SnapError::Version {
            found: fmt,
            expected: STORE_FORMAT_VERSION,
        });
    }
    let snap = r.u32()?;
    if snap != SNAPSHOT_VERSION {
        return Err(SnapError::Version {
            found: snap,
            expected: SNAPSHOT_VERSION,
        });
    }
    let stored_key = r.str()?;
    let payload = r.bytes()?;
    let checksum = r.u64()?;
    r.finish()?;
    snap_check(checksum == fnv1a(payload), "entry checksum mismatch")?;
    Ok((stored_key == key).then_some(payload))
}
