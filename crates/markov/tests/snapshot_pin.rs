//! Pins the Markov table's snapshot bytes.
//!
//! A fixed, seeded sequence of trains, lookups, peeks, eviction-time
//! updates and partition resizes drives a Triage table (32-bit LUT
//! entries, HawkEye) and a Triangel table (42-bit direct entries,
//! SRRIP); the FNV-1a hash of each snapshot (and of every answer the
//! sequence observed) must equal the value recorded before entries were
//! packed into one word. A change to the entry layout that alters
//! behaviour or the persisted byte format fails here.

use triangel_cache::replacement::PolicyKind;
use triangel_markov::{MarkovTableConfig, MarkovTableImpl, TargetFormat};
use triangel_types::rng::SplitMix64;
use triangel_types::snap::{SnapReader, SnapWriter, Snapshot};
use triangel_types::{LineAddr, Pc};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn config(format: TargetFormat, replacement: PolicyKind) -> MarkovTableConfig {
    MarkovTableConfig {
        sets: 64,
        max_ways: 4,
        format,
        tag_bits: 10,
        replacement,
    }
}

/// Runs the fixed sequence and returns (table, answer log).
fn drive(cfg: MarkovTableConfig) -> (MarkovTableImpl, Vec<u8>) {
    let mut t = MarkovTableImpl::new(cfg);
    let mut rng = SplitMix64::new(0x5EED_3A4C);
    let mut log = Vec::new();
    t.set_ways(4);
    for step in 0..6000u64 {
        let prev = LineAddr::new(rng.next_below(3000));
        // Targets span LUT frames and Direct42's 31-bit truncation.
        let next = LineAddr::new(match rng.next_below(4) {
            0 => rng.next_below(1 << 14),
            1 => rng.next_below(1 << 20),
            2 => (rng.next_below(64) << 31) | rng.next_below(1 << 12),
            _ => prev.index() + 1,
        });
        match rng.next_below(10) {
            0..=4 => t.train(prev, next, Pc::new(rng.next_below(64) << 2)),
            5 | 6 => log.extend_from_slice(format!("{:?}", t.lookup(prev)).as_bytes()),
            7 => log.extend_from_slice(format!("{:?}", t.peek(prev)).as_bytes()),
            _ => {
                // Feed back about the stored target half of the time.
                let target = match (rng.chance(0.5), t.peek(prev)) {
                    (true, Some((stored, _))) => stored,
                    _ => next,
                };
                let used = rng.chance(0.5);
                log.push(t.train_on_evict(prev, target, used) as u8);
            }
        }
        if step % 1499 == 1498 {
            t.set_ways([2, 3, 0, 4][(step / 1499) as usize]);
        }
    }
    (t, log)
}

fn snapshot(t: &MarkovTableImpl) -> Vec<u8> {
    let mut w = SnapWriter::new();
    t.save(&mut w).unwrap();
    w.into_bytes()
}

#[test]
fn triage_and_triangel_snapshot_bytes_are_pinned() {
    for (name, cfg, want_snap, want_log) in [
        (
            "triage",
            config(TargetFormat::triage_default(), PolicyKind::Hawkeye),
            0x6418_2745_17b3_b079_u64,
            0x7328_e2b3_2055_1612_u64,
        ),
        (
            "triangel",
            config(TargetFormat::Direct42, PolicyKind::Srrip),
            0xc7e5_2231_bc9a_b8a8,
            0x295b_22b1_55f9_50dc,
        ),
    ] {
        let (t, log) = drive(cfg);
        assert!(t.occupancy() > 0, "{name}: sequence left the table empty");
        let bytes = snapshot(&t);
        assert_eq!(
            (fnv1a(&bytes), fnv1a(&log)),
            (want_snap, want_log),
            "{name} snapshot/answer-log hash moved"
        );
        let mut fresh = MarkovTableImpl::new(cfg);
        let mut r = SnapReader::new(&bytes);
        fresh.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(snapshot(&fresh), bytes, "{name} restore round trip");
    }
}
