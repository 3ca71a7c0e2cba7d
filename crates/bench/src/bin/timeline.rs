//! The `timeline` figure: per-interval time-series of
//! {Baseline, Triangel, Triangel+EvictTrain} over MCF/Astar/Omnetpp,
//! recorded through the deterministic interval sampler. Emits
//! `BENCH_timeline.json` (`BENCH_timeline_smoke.json` when
//! `TRIANGEL_TIMELINE_SMOKE=1`) and, with `--trace PATH`, a Chrome
//! `trace_event` file of the harness's wall-time spans for Perfetto.

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("timeline"));
}
