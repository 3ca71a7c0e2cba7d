//! Regenerates the paper's figures and tables, all of them or the ones
//! `--filter` selects.
//!
//! All experiments execute in-process through the `triangel-harness`
//! scheduler over one shared result cache, so simulations common to
//! several figures (the per-workload stride-only baselines above all)
//! run exactly once; the final summary reports the cache-hit count.
//!
//! ```text
//! all_figures [--jobs N] [--filter <names>] [--out-dir <dir>] [--trace <path>]
//!             [--store <dir>]
//! ```
//!
//! * `--jobs N` — worker threads (default: one per core). Reports are
//!   bit-identical for every value, `--jobs 1` included.
//! * `--filter <names>` — run only the experiments whose registry name
//!   matches: `|`-separated literal names, each optionally anchored
//!   with `^`/`$`, e.g. `--filter '^fig10$'` for one figure or
//!   `--filter '^table'`. Any other regex syntax is a usage error.
//! * `--out-dir <dir>` — additionally emit every table as JSON and CSV.
//! * `--trace <path>` — record the harness's wall-time spans (job
//!   lifetimes, worker lanes, cache counters) as Chrome `trace_event`
//!   JSON for <https://ui.perfetto.dev>. Host-only: figure output is
//!   byte-identical with or without it.
//! * `--store <dir>` — resolve jobs against (and publish into) the
//!   shared on-disk result store. Byte-identical output, warm or cold.
//!
//! Full-scale run: `cargo run --release -p triangel-bench --bin all_figures`
//! Smoke run: `TRIANGEL_QUICK=1 cargo run --release -p triangel-bench --bin all_figures -- --filter 'fig10|table'`

fn main() {
    triangel_bench::figures::run_main();
}
