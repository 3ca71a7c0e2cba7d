//! Criterion micro-benchmarks for one demand access through the memory
//! hierarchy (`MemorySystem::demand_access`) at the paper's single-core
//! geometry, stride prefetcher included, no temporal prefetcher.
//!
//! * `unit_stride`: one PC walking consecutive lines. The stride
//!   prefetcher is locked on, so nearly every one of its degree-8
//!   requests is for a line already in the L1 and L2.
//! * `random_lines`: one PC touching random lines of a 1 GiB range. The
//!   stride prefetcher never locks, so the access is a lookup in each
//!   level plus the misses' fills.
//!
//! Each access starts 50 cycles after the previous one's data is ready
//! (long enough for the stride prefetches to land in time), and each
//! stream is warmed up for 100k accesses before timing.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use std::hint::black_box;
use triangel_sim::{MemorySystem, PrefetcherChoice, SystemConfig};
use triangel_types::rng::SplitMix64;
use triangel_types::{Cycle, LineAddr, Pc};

/// Cycles between one access's data arriving and the next access.
const GAP: Cycle = 50;

fn system() -> MemorySystem {
    MemorySystem::with_prefetchers(
        SystemConfig::paper_single_core(),
        vec![PrefetcherChoice::Baseline.build_impl(0)],
    )
}

/// Times `demand_access` on the lines `next_line` yields.
fn bench_stream(g: &mut BenchmarkGroup<'_>, name: &str, mut next_line: impl FnMut() -> u64) {
    let mut sys = system();
    let pc = Pc::new(0x400);
    let mut t: Cycle = 0;
    for _ in 0..100_000 {
        t = sys.demand_access(0, pc, LineAddr::new(next_line()), t) + GAP;
    }
    g.bench_function(BenchmarkId::new("demand_access", name), |b| {
        b.iter(|| {
            let line = LineAddr::new(black_box(next_line()));
            t = sys.demand_access(0, pc, line, t) + GAP;
            black_box(t)
        });
    });
}

fn bench_hierarchy(c: &mut Criterion) {
    let mut g = c.benchmark_group("hierarchy");
    let mut next = 1u64 << 20;
    bench_stream(&mut g, "unit_stride", || {
        next += 1;
        next
    });
    let mut rng = SplitMix64::new(1);
    bench_stream(&mut g, "random_lines", || rng.next_below(1 << 24));
    g.finish();
}

criterion_group!(benches, bench_hierarchy);
criterion_main!(benches);
