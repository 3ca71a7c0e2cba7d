//! End-to-end effects of Triage's metadata format choices: the
//! lookup-table corruption mechanism (Sections 3.1, 6.5) observed
//! through the prefetcher's own output, and Bloom-filter sizing
//! behaviour (Section 3.5).

use triangel_markov::TargetFormat;
use triangel_prefetch::{NullCacheView, PrefetchRequest, TrainEvent, TrainKind};
use triangel_triage::{Triage, TriageConfig};
use triangel_types::{LineAddr, Pc};

fn ev(pc: u64, line: u64, n: u64) -> TrainEvent {
    TrainEvent {
        pc: Pc::new(pc),
        line: LineAddr::new(line),
        kind: TrainKind::L2Miss,
        cycle: n,
        l2_fills: n,
    }
}

fn drive(pf: &mut Triage, pc: u64, lines: &[u64], n0: &mut u64) -> Vec<PrefetchRequest> {
    let mut all = Vec::new();
    let mut out = Vec::new();
    for l in lines {
        out.clear();
        pf.handle(&ev(pc, *l, *n0), &NullCacheView, &mut out);
        *n0 += 1;
        all.extend(out.iter().copied());
    }
    all
}

/// Two passes over a sequence spread across more upper-bit regions than
/// the 1024-entry LUT can hold: under the LUT format a large fraction of
/// second-pass prefetches reconstruct the wrong address, while the
/// 42-bit direct format is immune (the paper's Fig. 19 mechanism).
#[test]
fn lut_exhaustion_corrupts_targets_direct_format_does_not() {
    // 3000 lines spaced one per upper-bit region (2^11 lines apart under
    // offset_bits = 11): ~3000 distinct uppers against 1024 LUT slots.
    let seq: Vec<u64> = (0..3000u64).map(|k| k * 2048 + (k % 1000)).collect();
    let wrong_fraction = |format: TargetFormat| {
        let mut pf = Triage::new(TriageConfig::paper_default().with_format(format));
        let mut n = 0u64;
        drive(&mut pf, 0x40, &seq, &mut n); // training pass
        let reqs = drive(&mut pf, 0x40, &seq, &mut n); // replay pass
        assert!(
            !reqs.is_empty(),
            "replay pass must prefetch under {format:?}"
        );
        // A correct prefetch targets the trained successor of the
        // triggering line; count how many requests point anywhere else.
        let successors: std::collections::HashSet<u64> = seq.iter().copied().collect();
        let wrong = reqs
            .iter()
            .filter(|r| !successors.contains(&r.line.index()))
            .count();
        wrong as f64 / reqs.len() as f64
    };

    let lut_wrong = wrong_fraction(TargetFormat::triage_default());
    let direct_wrong = wrong_fraction(TargetFormat::Direct42);
    assert!(
        lut_wrong > 0.3,
        "exhausted LUT should fabricate many targets, got {lut_wrong:.3}"
    );
    assert!(
        direct_wrong < 0.01,
        "direct format must not fabricate targets, got {direct_wrong:.3}"
    );
}

/// Within LUT reach, the two formats replay the same predictions.
#[test]
fn formats_agree_when_lut_is_unstressed() {
    let seq: Vec<u64> = (0..500u64).map(|k| 100 + k * 3).collect();
    let replay = |format: TargetFormat| {
        let mut pf = Triage::new(TriageConfig::paper_default().with_format(format));
        let mut n = 0;
        drive(&mut pf, 0x40, &seq, &mut n);
        drive(&mut pf, 0x40, &seq, &mut n)
            .iter()
            .map(|r| r.line.index())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        replay(TargetFormat::triage_default()),
        replay(TargetFormat::Direct42)
    );
}

/// Bloom sizing is monotone within a window: more unique indices never
/// shrink the partition mid-window, and the partition never exceeds the
/// maximum (Section 3.5's "persistent bias" in miniature).
#[test]
fn bloom_sizing_grows_monotonically_and_saturates() {
    let mut pf = Triage::new(TriageConfig::paper_default());
    let mut last_ways = 0;
    for k in 0..240_000u64 {
        let mut out = Vec::new();
        pf.handle(&ev(0x40, k * 11, k), &NullCacheView, &mut out);
        let ways = pf.desired_markov_ways();
        assert!(
            ways >= last_ways,
            "partition shrank mid-window at access {k}"
        );
        assert!(ways <= 8);
        last_ways = ways;
    }
    assert_eq!(
        last_ways, 8,
        "240k unique indices must saturate the partition"
    );
}

/// Degree-4 walks stop at the first missing link rather than fabricating
/// requests.
#[test]
fn chained_walk_stops_at_chain_end() {
    let mut pf = Triage::new(TriageConfig::degree4());
    let mut n = 0u64;
    // Train only a 3-link chain: a -> b -> c -> d.
    drive(&mut pf, 0x40, &[10, 20, 30, 40], &mut n);
    // Restart the PC's history, then trigger on `a`.
    let reqs = drive(&mut pf, 0x40, &[10], &mut n);
    // Walk retrieves 20, 30, 40 and then misses (no successor of 40
    // except via the wrap pair trained when the trigger ran).
    assert!(reqs.len() <= 4);
    assert_eq!(reqs[0].line, LineAddr::new(20));
    assert!(reqs
        .iter()
        .all(|r| [20, 30, 40, 10].contains(&r.line.index())));
}
