//! `triangel-store`: the on-disk, content-addressed result store.
//!
//! The harness has always had two halves of a result service: the
//! in-process, content-keyed `ResultCache` (fast, private to one
//! process) and the campaign runner's snapshot/report directory
//! (persistent, private to one campaign). This crate unifies them into
//! a [`ResultStore`] that any number of processes share:
//!
//! * **Content-addressed.** The key is the job's content key — the
//!   same string the in-process cache uses — so a sweep and a
//!   campaign name the same simulation identically.
//! * **Atomic.** Entries are published with write-temp + rename; a
//!   kill mid-publish leaves either the old entry or the new one,
//!   never a torn file.
//! * **Exactly-once.** [`ResultStore::claim_blocking`] serializes
//!   writers per job with `flock(2)`: whoever wins the lock executes;
//!   everyone else blocks, then reads the published entry. Locks die
//!   with their process, so a crash never wedges the store.
//! * **Self-checking.** Every entry carries the envelope magic, the
//!   store format version, the simulator's
//!   [`SNAPSHOT_VERSION`](triangel_sim::SNAPSHOT_VERSION), the full
//!   job key (hash-collision guard), and a payload checksum. Corrupt
//!   or stale entries are discarded *loudly* and re-executed —
//!   mirroring the campaign runner's resume semantics.
//!
//! Determinism contract: a report served from the store is
//! byte-identical to executing the job in-process, because it *is* the
//! framed bytes of such an execution ([`report_to_bytes`] round-trips
//! exactly, interval series included).

#![warn(missing_docs)]

mod flock;
pub mod framing;
mod store;

pub use flock::lock_exclusive;
pub use framing::{report_from_bytes, report_to_bytes, REPORT_MAGIC, REPORT_VERSION};
pub use store::{
    key_stem, write_atomic, Claim, JobLease, ResultStore, StoreStats, ENTRY_MAGIC, MAX_STEM_PROBES,
    STORE_FORMAT_VERSION,
};
