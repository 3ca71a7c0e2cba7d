//! Pins the workload side's snapshot bytes.
//!
//! A fixed, seeded address sequence drives a `PageMapper` under each of
//! its three presets, and the MCF generator runs for a fixed number of
//! accesses; the FNV-1a hash of each snapshot (and of every translated
//! or generated address) must equal the value recorded before the page
//! table became a two-level radix table and temporal sequences were
//! stored as `u32` offsets. A change to the in-memory layout that alters
//! behaviour or the persisted byte format fails here.

use triangel_types::rng::SplitMix64;
use triangel_types::snap::{SnapReader, SnapWriter, Snapshot};
use triangel_types::{Addr, PAGE_BYTES};
use triangel_workloads::paging::PageMapper;
use triangel_workloads::spec::SpecWorkload;
use triangel_workloads::trace::TraceSource;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn mapper_snapshot(m: &PageMapper) -> Vec<u8> {
    let mut w = SnapWriter::new();
    m.save(&mut w).unwrap();
    w.into_bytes()
}

#[test]
fn page_mapper_snapshot_bytes_are_pinned() {
    for (name, make, want_snap, want_log) in [
        (
            "contiguous",
            PageMapper::contiguous as fn() -> PageMapper,
            0xb240_6761_d301_620a_u64,
            0xecdc_7c70_cd23_2c90_u64,
        ),
        (
            "realistic",
            || PageMapper::realistic(0x9A6E),
            0xf6b7_31ee_864c_92d2,
            0x82f3_e219_a8b0_4894,
        ),
        (
            "fragmented",
            || PageMapper::fragmented(0x9A6E),
            0x5c93_29f7_6f9e_0544,
            0xb939_93d5_6a5f_bfbe,
        ),
    ] {
        let mut m = make();
        let mut rng = SplitMix64::new(0x5EED_9A6E);
        let mut log = Vec::new();
        for _ in 0..20_000 {
            // Dense runs, a sparse wide region, and far-apart pages, so
            // the table sees full, partial and single-page chunks.
            let page = match rng.next_below(16) {
                0..=9 => rng.next_below(4096),
                10..=14 => (1 << 20) + rng.next_below(1 << 16),
                _ => rng.next_below(1 << 36),
            };
            let vaddr = Addr::new(page * PAGE_BYTES + rng.next_below(PAGE_BYTES));
            log.extend_from_slice(&m.translate(vaddr).get().to_le_bytes());
        }
        let bytes = mapper_snapshot(&m);
        assert_eq!(
            (fnv1a(&bytes), fnv1a(&log)),
            (want_snap, want_log),
            "{name} snapshot/translation hash moved"
        );
        let mut fresh = make();
        let mut r = SnapReader::new(&bytes);
        fresh.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(mapper_snapshot(&fresh), bytes, "{name} restore round trip");
    }
}

/// 300k accesses carry MCF's node and basket chases past a pass
/// boundary, so their sequences have drifted and the reorder buffers
/// are mid-pass when the snapshot is taken.
#[test]
fn mcf_generator_snapshot_bytes_are_pinned() {
    let mut g = SpecWorkload::Mcf.generator(0x3CF);
    let mut log = Vec::new();
    for _ in 0..300_000 {
        log.extend_from_slice(&g.next_access().vaddr.get().to_le_bytes());
    }
    let mut w = SnapWriter::new();
    g.save_state(&mut w).unwrap();
    let bytes = w.into_bytes();
    assert_eq!(
        (fnv1a(&bytes), fnv1a(&log)),
        (0x95a6_6203_bcbb_f807, 0x746f_c978_1234_d20e),
        "MCF generator snapshot/address hash moved"
    );
    let mut fresh = SpecWorkload::Mcf.generator(0x3CF);
    let mut r = SnapReader::new(&bytes);
    fresh.restore_state(&mut r).unwrap();
    r.finish().unwrap();
    let mut w = SnapWriter::new();
    fresh.save_state(&mut w).unwrap();
    assert_eq!(w.into_bytes(), bytes, "MCF restore round trip");
    for _ in 0..1000 {
        assert_eq!(fresh.next_access(), g.next_access());
    }
}
