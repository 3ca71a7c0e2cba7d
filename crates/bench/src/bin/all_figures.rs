//! Regenerates every figure and table of the paper in one run.
//!
//! All experiments execute in-process through the `triangel-harness`
//! scheduler over one shared result cache, so simulations common to
//! several figures (the per-workload stride-only baselines above all)
//! run exactly once; the final summary reports the cache-hit count.
//!
//! ```text
//! all_figures [--jobs N] [--filter <regex>] [--out-dir <dir>] [--trace <path>]
//!             [--store <dir>]
//! ```
//!
//! * `--jobs N` — worker threads (default: one per core). Reports are
//!   bit-identical for every value, `--jobs 1` included.
//! * `--filter <regex>` — run only the experiments whose registry name
//!   matches, e.g. `--filter 'fig1[0-5]'` or `--filter '^table'`.
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

use triangel_bench::figures::{self, FigureContext};
use triangel_bench::SweepParams;

fn main() {
    let cli = match figures::parse_cli(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let params = SweepParams::from_env();
    eprintln!(
        "==> all_figures: warmup {}, accesses {}, {} worker(s)",
        params.warmup,
        params.accesses,
        if cli.jobs == 0 {
            "per-core".to_string()
        } else {
            cli.jobs.to_string()
        }
    );

    let mut ctx = FigureContext::new(params, cli.jobs);
    let trace = figures::attach_trace(&mut ctx, &cli);
    if let Err(e) = figures::attach_store(&mut ctx, &cli) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let mut ran = 0usize;
    for def in figures::registry() {
        if let Some(filter) = &cli.filter {
            if !filter.is_match(def.name) {
                continue;
            }
        }
        eprintln!("==> {} ({})", def.name, def.title);
        let outputs = def.run(&mut ctx);
        for out in &outputs {
            out.print();
        }
        // Tables/text are emitted only under --out-dir; JSON artefacts
        // (the perf trajectory) are always written, defaulting to the
        // working directory.
        let dir = cli
            .out_dir
            .clone()
            .unwrap_or_else(|| std::path::PathBuf::from("."));
        if let Err(e) = figures::emit_selected(&dir, def.name, &outputs, cli.out_dir.is_some()) {
            eprintln!("failed to emit {} to {}: {e}", def.name, dir.display());
            std::process::exit(1);
        }
        ran += 1;
    }
    if ran == 0 {
        eprintln!("--filter matched no experiments");
        std::process::exit(2);
    }
    figures::write_trace(&cli, trace.as_deref());
    figures::store_summary(&ctx.opts);
    let stats = ctx.stats();
    eprintln!(
        "==> {} experiment(s); {} job(s), {} executed, {} cache hit(s), {} error(s)",
        ran, stats.jobs, stats.executed, stats.cache_hits, stats.errors
    );
}
