//! Pins the cache's snapshot bytes.
//!
//! A fixed, seeded sequence of accesses, fills, invalidations and
//! way-mask changes drives an LRU and an SRRIP cache; the FNV-1a hash of
//! the resulting snapshot (and of every eviction record the sequence
//! produced) must equal the value recorded before the per-line state
//! was packed into words. A change to the in-memory layout that alters
//! behaviour or the persisted byte format fails here.

use triangel_cache::replacement::PolicyKind;
use triangel_cache::{Cache, CacheConfig, EvictedLine};
use triangel_types::rng::SplitMix64;
use triangel_types::snap::{SnapReader, SnapWriter, Snapshot};
use triangel_types::{FillSource, LineAddr, Pc};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The largest PC the engine produces: core tag 255 over a full 40-bit
/// generator PC.
const MAX_ENGINE_PC: u64 = (255 << 40) | ((1 << 40) - 1);

fn record(log: &mut Vec<u8>, ev: &EvictedLine) {
    log.extend_from_slice(format!("{ev:?}").as_bytes());
}

/// Runs the fixed sequence and returns (snapshot, eviction log).
fn drive(policy: PolicyKind) -> (Cache, Vec<u8>) {
    // 16 sets x 8 ways.
    let mut c = Cache::new(CacheConfig::new("pin", 16 * 8 * 64, 8, policy));
    let mut rng = SplitMix64::new(0x5EED_CAC4E);
    let mut log = Vec::new();
    for step in 0..4000u64 {
        let line = LineAddr::new(rng.next_below(320));
        let pc = match rng.next_below(4) {
            0 => None,
            1 => Some(Pc::new(MAX_ENGINE_PC)),
            _ => Some(Pc::new(rng.next_below(1 << 20))),
        };
        match rng.next_below(10) {
            0..=3 => {
                let out = c.access(line, pc, false);
                log.extend_from_slice(format!("{out:?}").as_bytes());
            }
            4 => {
                let out = c.access(line, pc, true);
                log.push(out.hit as u8);
            }
            5..=8 => {
                let source = [FillSource::Demand, FillSource::Stride, FillSource::Temporal]
                    [rng.next_below(3) as usize];
                let tagged = source.is_prefetch() && rng.chance(0.7);
                let ready_at = step * 11 + rng.next_below(400);
                let out = c.fill_at(line, pc, source, tagged, ready_at);
                log.extend_from_slice(format!("{:?}", (out.set, out.way)).as_bytes());
                if let Some(ev) = out.evicted {
                    record(&mut log, &ev);
                }
            }
            _ => {
                if let Some(ev) = c.invalidate(line) {
                    record(&mut log, &ev);
                }
            }
        }
        if step % 997 == 996 {
            let mask = [0b0011_1111, 0b1111_1111, 0b0000_1111, 0b1111_1111][(step / 997) as usize];
            for ev in c.set_way_mask(mask) {
                record(&mut log, &ev);
            }
        }
    }
    (c, log)
}

fn snapshot(c: &Cache) -> Vec<u8> {
    let mut w = SnapWriter::new();
    c.save(&mut w).unwrap();
    w.into_bytes()
}

#[test]
fn lru_and_srrip_snapshot_bytes_are_pinned() {
    for (policy, want_snap, want_log) in [
        (
            PolicyKind::Lru,
            0x5d2d_6429_0357_039c_u64,
            0xe1ce_15d5_0ea7_820c_u64,
        ),
        (
            PolicyKind::Srrip,
            0x6569_c73f_76db_8e47,
            0x430e_4478_43ef_c7df,
        ),
    ] {
        let (c, log) = drive(policy);
        let bytes = snapshot(&c);
        assert_eq!(
            (fnv1a(&bytes), fnv1a(&log)),
            (want_snap, want_log),
            "{policy:?} snapshot/eviction-log hash moved"
        );
        // Restoring the bytes into a fresh cache reproduces them.
        let mut fresh = Cache::new(c.config().clone());
        let mut r = SnapReader::new(&bytes);
        fresh.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(snapshot(&fresh), bytes, "{policy:?} restore round trip");
    }
}
