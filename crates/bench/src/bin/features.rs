//! The `features` ablation: the Fig. 20 feature ladder, each step run
//! with and without the experimental `train_on_eviction` gate, at a
//! fixed smoke scale. Emits `BENCH_features_smoke.json` (the
//! un-suffixed `BENCH_features.json` at the repo root is the campaign
//! runner's full-scale record).

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("features"));
}
