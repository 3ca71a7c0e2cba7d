//! Criterion micro-benchmarks for the cache model at the paper's L1, L2
//! and L3 geometries (Section 5): a demand miss followed by its fill, a
//! demand hit, and a redundant pair of `contains` probes for one absent
//! line, the shape of a prefetch request the hierarchy drops as a no-op.
//!
//! Every cache starts full, as in a warmed-up simulation, so each fill
//! evicts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use triangel_cache::replacement::PolicyKind;
use triangel_cache::{Cache, CacheConfig};
use triangel_types::{FillSource, LineAddr, Pc};

fn paper_levels() -> [CacheConfig; 3] {
    [
        CacheConfig::new("L1D", 64 * 1024, 4, PolicyKind::Lru),
        CacheConfig::new("L2", 512 * 1024, 8, PolicyKind::Lru),
        CacheConfig::new("L3", 2 * 1024 * 1024, 16, PolicyKind::Srrip),
    ]
}

/// A cache holding lines `0..capacity`, one fill each.
fn full(cfg: &CacheConfig) -> (Cache, u64) {
    let mut c = Cache::new(cfg.clone());
    let capacity = (cfg.sets() * cfg.ways()) as u64;
    for i in 0..capacity {
        c.fill(LineAddr::new(i), Some(Pc::new(i % 64)), false);
    }
    (c, capacity)
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    for cfg in paper_levels() {
        g.bench_function(BenchmarkId::new("miss_fill", cfg.name()), |b| {
            let (mut cache, mut next) = full(&cfg);
            b.iter(|| {
                next += 1;
                let line = LineAddr::new(black_box(next));
                let pc = Some(Pc::new(next % 64));
                let out = cache.access(line, pc, false);
                black_box(out);
                black_box(cache.fill_at(line, pc, FillSource::Demand, false, next));
            });
        });
        g.bench_function(BenchmarkId::new("demand_hit", cfg.name()), |b| {
            let (mut cache, capacity) = full(&cfg);
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 7) % capacity;
                black_box(cache.access(LineAddr::new(black_box(i)), None, false));
            });
        });
        g.bench_function(BenchmarkId::new("contains_pair", cfg.name()), |b| {
            let (cache, mut next) = full(&cfg);
            b.iter(|| {
                next += 1;
                let line = LineAddr::new(black_box(next));
                black_box(cache.contains(line));
                black_box(cache.contains(line));
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
