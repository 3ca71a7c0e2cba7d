//! The N-core timing model's determinism bar.
//!
//! The contended configuration ([`SystemConfig::paper_n_core`]: banked
//! shared LLC, per-channel DRAM bandwidth, MSHR back-pressure,
//! cycle-ordered core stepping) must be exactly as deterministic as
//! the legacy model it generalizes:
//!
//! * the {1, 2, 4, 8}-core ladder under Baseline and Triangel is
//!   pinned by fingerprint — any drift means the contention machinery
//!   changed behaviour;
//! * interrupt → snapshot → restore → continue mid-measurement on a
//!   contended 4-core run reproduces the uninterrupted run exactly
//!   (the bank-arbiter and channel clocks ride in the snapshot);
//! * program counters differing only in bits the per-core tag owns
//!   (≥ 2^40) cannot alias another core's PC space;
//! * the interval sampler's Set Dueller column sums every core's
//!   counters, not just core 0's.

use triangel_sim::{PrefetcherChoice, SimSession, SystemConfig};
use triangel_workloads::spec::SpecWorkload;
use triangel_workloads::{MemoryAccess, TraceSource};

const WARMUP: u64 = 2_000;
const ACCESSES: u64 = 2_000;

/// The seed ladder the harness uses: core `i` runs `seed ^ (0x9999 * i)`.
fn core_seed(seed: u64, core: usize) -> u64 {
    seed ^ 0x9999u64.wrapping_mul(core as u64)
}

/// An `n`-core session on the contended timing model, every core
/// running the MCF generator on the harness seed ladder.
fn build_n_core(n: usize, choice: PrefetcherChoice) -> SimSession {
    let mut b = SimSession::builder()
        .system(SystemConfig::paper_n_core(n))
        .prefetcher(choice)
        .warmup(WARMUP)
        .accesses(ACCESSES)
        .sizing_window(1_000);
    for i in 0..n {
        b = b.workload(SpecWorkload::Mcf.generator(core_seed(11, i)));
    }
    b.build().expect("well-formed session")
}

/// FNV-1a over the report's exhaustive `Debug` rendering: every
/// counter of every core, the DRAM stats, and the Markov partition.
fn fingerprint(session: &SimSession) -> u64 {
    let text = format!("{:?}", session.report());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn n_core_ladder_reports_are_pinned() {
    // Regenerate deliberately (and say so in the commit) by running
    // with `TRIANGEL_PRINT_PINS=1` and pasting the printed table.
    let pins: [(usize, PrefetcherChoice, u64); 8] = [
        (1, PrefetcherChoice::Baseline, 0x05d149c022aa5a6c),
        (1, PrefetcherChoice::Triangel, 0xa7e5f71735c61128),
        (2, PrefetcherChoice::Baseline, 0xf3c44be91d29191c),
        (2, PrefetcherChoice::Triangel, 0xa5fbc53bfe8fc914),
        (4, PrefetcherChoice::Baseline, 0x7f35e9cb22b406f6),
        (4, PrefetcherChoice::Triangel, 0xaa83c8b4a035cf3a),
        (8, PrefetcherChoice::Baseline, 0xb208fd2f6e386002),
        (8, PrefetcherChoice::Triangel, 0x6c5eab7fc0013452),
    ];
    let print = std::env::var("TRIANGEL_PRINT_PINS").is_ok_and(|v| v == "1");
    for (n, choice, expected) in pins {
        let mut s = build_n_core(n, choice);
        s.run_segment(u64::MAX);
        assert!(s.is_complete());
        let got = fingerprint(&s);
        if print {
            println!("({n}, PrefetcherChoice::{choice:?}, {got:#018x}),");
            continue;
        }
        assert_eq!(
            got, expected,
            "{n}-core {choice:?} drifted from its pinned fingerprint \
             (got {got:#018x}); the contended timing model changed behaviour"
        );
    }
}

#[test]
fn contended_four_core_run_is_snapshot_equivalent() {
    let make = || build_n_core(4, PrefetcherChoice::Triangel);

    let mut straight = make();
    straight.run_segment(u64::MAX);
    assert!(straight.is_complete());

    // Interrupt once mid-warm-up and once mid-measurement, crossing a
    // snapshot into a freshly built session at each cut.
    let mut s = make();
    let mut done = 0u64;
    for cut in [1_300u64, 3_100] {
        s.run_segment(cut - done);
        done = cut;
        assert_eq!(s.executed_accesses(), done);
        let bytes = s.snapshot().expect("contended sessions snapshot");
        let mut fresh = make();
        fresh.restore(&bytes).expect("snapshot restores");
        assert_eq!(fresh.executed_accesses(), done);
        s = fresh;
    }
    s.run_segment(u64::MAX);
    assert!(s.is_complete());

    assert_eq!(
        fingerprint(&straight),
        fingerprint(&s),
        "4-core contended: interrupted run diverged from uninterrupted run"
    );
}

/// Delegates to an inner generator, setting one PC bit above the
/// 40-bit per-core tag boundary. If the engine tagged PCs without
/// masking, this bit would land in (and corrupt) the core-index tag.
#[derive(Debug)]
struct HighPcBits<T>(T);

impl<T: TraceSource> TraceSource for HighPcBits<T> {
    fn next_access(&mut self) -> MemoryAccess {
        let mut a = self.0.next_access();
        a.pc = triangel_types::Pc::new(a.pc.get() | (1 << 41));
        a
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

#[test]
fn pc_bits_above_the_tag_boundary_cannot_alias_across_cores() {
    let build = |high_bits: bool| {
        let mut b = SimSession::builder()
            .system(SystemConfig::paper_n_core(3))
            .prefetcher(PrefetcherChoice::Triangel)
            .warmup(WARMUP)
            .accesses(ACCESSES)
            .sizing_window(1_000);
        for i in 0..3 {
            let inner = SpecWorkload::Mcf.generator(core_seed(11, i));
            if high_bits && i == 1 {
                b = b.workload(HighPcBits(inner));
            } else {
                b = b.workload(inner);
            }
        }
        b.build().expect("well-formed session")
    };
    let mut plain = build(false);
    let mut tagged = build(true);
    plain.run_segment(u64::MAX);
    tagged.run_segment(u64::MAX);
    assert_eq!(
        fingerprint(&plain),
        fingerprint(&tagged),
        "a PC bit above the tag boundary leaked into another core's PC space"
    );
}

#[test]
fn interval_dueller_column_sums_every_core() {
    // Larger than the other tests, and on Xalan rather than MCF: the
    // Set Dueller only counts hits in its sampled sets, so it needs a
    // workload with real reuse and enough volume to move.
    let (warmup, accesses) = (12_000u64, 12_000u64);
    let n = 2;
    let mut b = SimSession::builder()
        .system(SystemConfig::paper_n_core(n))
        .prefetcher(PrefetcherChoice::Triangel)
        .warmup(warmup)
        .accesses(accesses)
        .sizing_window(4_000)
        .sample_every(accesses);
    for i in 0..n {
        b = b.workload(SpecWorkload::Xalan.generator(core_seed(11, i)));
    }
    let mut s = b.build().expect("well-formed session");
    s.run_segment(u64::MAX);
    let report = s.report();
    let last = report
        .intervals
        .as_ref()
        .and_then(|series| series.samples.last().cloned())
        .expect("sampled run records intervals");

    let mut expected = [0u64; 9];
    for core in 0..n {
        let counters = s
            .engine()
            .system()
            .dueller_counters(core)
            .expect("Triangel runs a Set Dueller per core");
        for (total, v) in expected.iter_mut().zip(counters) {
            *total += v;
        }
    }
    assert_eq!(
        last.dueller, expected,
        "the interval sample's dueller column must aggregate all cores"
    );
    // The sum must be a genuine aggregate: with per-core traffic on
    // both cores, core 0's counters alone cannot explain it.
    let core0 = s.engine().system().dueller_counters(0).unwrap();
    assert_ne!(
        last.dueller, core0,
        "dueller column equals core 0 alone — aggregation regressed \
         (or this scale produced no dueller traffic on core 1)"
    );
}
