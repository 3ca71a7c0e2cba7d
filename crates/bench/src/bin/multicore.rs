//! The `multicore` scaling figure: MCF replicated across the
//! core-count ladder on the contended N-core timing model (banked
//! shared LLC, per-channel DRAM bandwidth, MSHR back-pressure,
//! cycle-ordered stepping), under the stride-only baseline and full
//! Triangel. Emits `BENCH_multicore.json`
//! (`BENCH_multicore_smoke.json` when `TRIANGEL_MULTICORE_SMOKE=1`).

fn main() {
    triangel_bench::figures::run_main("multicore");
}
