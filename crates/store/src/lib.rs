//! `triangel-store`: the on-disk, content-addressed result store.
//!
//! A [`ResultStore`] is the one persistence envelope of the workspace:
//! sweeps publish finished reports into it, and the campaign runner
//! keeps both its finished reports and its partial-job checkpoints in
//! it. Any number of processes share one store:
//!
//! * **Content-addressed.** The key is the job's content key — the
//!   same string the in-process cache uses — so a sweep and a
//!   campaign name the same simulation identically.
//! * **Atomic.** Files are published with write-temp + rename; a kill
//!   mid-publish leaves either the old file or the new one, never a
//!   torn one.
//! * **Exactly-once.** [`ResultStore::claim_blocking`] serializes
//!   writers per job with `flock(2)`: whoever wins the lock executes
//!   (checkpointing under its [`JobLease`] as it goes); everyone else
//!   blocks, then reads the published entry. Locks die with their
//!   process, so a crash never wedges the store.
//! * **Self-checking.** Every report entry and checkpoint blob carries
//!   the envelope magic, the store format version, the simulator's
//!   [`SNAPSHOT_VERSION`](triangel_sim::SNAPSHOT_VERSION), the full
//!   job key (hash-collision guard), and a payload checksum. Corrupt
//!   or stale files are discarded *loudly* and their jobs re-executed.
//!
//! Determinism contract: a report served from the store is
//! byte-identical to executing the job in-process, because it *is* the
//! framed bytes of such an execution ([`report_to_bytes`] round-trips
//! exactly, interval series included).

#![warn(missing_docs)]

mod flock;
pub mod framing;
mod store;

pub use framing::{report_from_bytes, report_to_bytes, REPORT_MAGIC, REPORT_VERSION};
pub use store::{
    write_atomic, Claim, JobLease, ResultStore, StoreStats, ENTRY_MAGIC, MAX_STEM_PROBES,
    STORE_FORMAT_VERSION,
};
