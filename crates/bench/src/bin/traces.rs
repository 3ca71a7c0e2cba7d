//! The `traces` figure: the four irregular workload families plus a
//! recorded-trace replay row, compared against their stride-only
//! baselines. Emits the machine-readable `BENCH_traces.json`.
//!
//! Declarative definition: `triangel_bench::figures` registry entry
//! `"traces"`, executed by the `triangel-harness` scheduler
//! (`--jobs N` controls worker threads; results are identical for any
//! value). Set `TRIANGEL_TRACE_FILE=<path>` to replay a specific
//! recording (see the `trace_record` devtool) instead of the
//! deterministic smoke trace.

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("traces"));
}
