//! Times the fixed hot-path smoke sweep and writes `BENCH_perf.json`
//! (the repo's perf trajectory: current build vs the recorded
//! baseline). See EXPERIMENTS.md's "Performance tracking" section.
//!
//! Declarative definition: `triangel_bench::figures` registry entry
//! `"perf"`. The sweep always runs serially at a fixed scale so
//! measurements are comparable across PRs on the same machine; `--jobs`
//! affects only the scheduling of *other* experiments when run through
//! `all_figures`.

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("perf"));
}
