//! The experiment registry: every figure and table of the paper as a
//! named, declarative definition, executed by `triangel-harness`.
//!
//! Binaries are thin: `fig10` is `run_main("fig10")`, and
//! `all_figures` iterates the whole registry (optionally filtered with
//! a regex) over one shared result cache, so simulations common to
//! several figures — above all the per-workload stride-only baselines —
//! execute exactly once per process.

mod defs;

pub use defs::{
    features_grid, features_outputs, FEATURES_FULL_PARAMS, FEATURES_PARAMS, TIMELINE_SAMPLE_EVERY,
};

use std::path::PathBuf;
use std::sync::Arc;

use triangel_harness::emit;
use triangel_harness::filter::Pattern;
use triangel_harness::{ResultCache, SweepOptions, SweepStats};
use triangel_obs::json::Value;
use triangel_sim::report::FigureTable;

use crate::{SpecSweep, SweepParams};

/// One rendered artefact of an experiment.
#[derive(Debug)]
pub enum FigureOutput {
    /// A workloads × configurations table.
    Table(FigureTable),
    /// Free-form text (Tables 1 and 2 of the paper).
    Text(String),
    /// A machine-readable JSON artefact written under exactly
    /// `<name>.json` (the perf trajectory's `BENCH_perf.json`). Always
    /// persisted — to `--out-dir` when given, the working directory
    /// otherwise — and never printed to stdout, so experiments whose
    /// artefacts carry wall-clock timings keep `all_figures`' stdout
    /// deterministic.
    Json {
        /// File stem (`BENCH_perf` → `BENCH_perf.json`).
        name: String,
        /// The JSON document.
        body: Value,
    },
}

impl FigureOutput {
    /// Prints to stdout, matching the historical binary output.
    pub fn print(&self) {
        match self {
            FigureOutput::Table(t) => t.print(),
            FigureOutput::Text(s) => println!("{s}"),
            FigureOutput::Json { name, .. } => {
                println!("(machine-readable artefact: {name}.json)");
            }
        }
    }

    /// A short slug for file names when emitting JSON/CSV.
    fn slug(&self, fallback: &str, ordinal: usize) -> String {
        let base = match self {
            FigureOutput::Table(t) => t.title().to_string(),
            FigureOutput::Text(_) => fallback.to_string(),
            // Exact, ordinal-free: tooling greps for this very path.
            FigureOutput::Json { name, .. } => return name.clone(),
        };
        let mut slug: String = base
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        while slug.contains("__") {
            slug = slug.replace("__", "_");
        }
        format!("{}_{}", slug.trim_matches('_'), ordinal)
    }
}

/// Shared state for one process's worth of experiments.
#[derive(Debug)]
pub struct FigureContext {
    /// Scale parameters (from the environment).
    pub params: SweepParams,
    /// Scheduler options; the cache inside is shared by every figure.
    pub opts: SweepOptions,
    stats: SweepStats,
    spec_sweep: Option<SpecSweep>,
}

impl FigureContext {
    /// A context with `jobs` workers (0 = one per core) and a fresh
    /// shared cache.
    pub fn new(params: SweepParams, jobs: usize) -> Self {
        FigureContext {
            params,
            opts: SweepOptions::parallel(jobs)
                .with_progress()
                .with_cache(Arc::new(ResultCache::new())),
            stats: SweepStats::default(),
            spec_sweep: None,
        }
    }

    /// The shared Figs. 10–15 sweep, run on first use with the full
    /// configuration set (individual figures select their columns).
    pub fn spec_sweep(&mut self) -> &SpecSweep {
        if self.spec_sweep.is_none() {
            let sweep = SpecSweep::run_opts(
                SpecSweep::paper_configs_with_nomrb(),
                &self.params,
                &self.opts,
            );
            self.absorb(sweep.stats());
            self.spec_sweep = Some(sweep);
        }
        self.spec_sweep.as_ref().unwrap()
    }

    /// Folds one sweep's counters into the per-process totals.
    pub fn absorb(&mut self, s: SweepStats) {
        self.stats.jobs += s.jobs;
        self.stats.executed += s.executed;
        self.stats.cache_hits += s.cache_hits;
        self.stats.errors += s.errors;
    }

    /// Totals across every sweep this context ran.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }
}

/// A named experiment.
#[derive(Clone)]
pub struct FigureDef {
    /// Registry name (`fig10`, `table1`, `sec33_replacement`, ...).
    pub name: &'static str,
    /// One-line description.
    pub title: &'static str,
    run: fn(&mut FigureContext) -> Vec<FigureOutput>,
}

impl std::fmt::Debug for FigureDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FigureDef({})", self.name)
    }
}

impl FigureDef {
    /// Runs the experiment's sweeps and returns its artefacts.
    pub fn run(&self, ctx: &mut FigureContext) -> Vec<FigureOutput> {
        (self.run)(ctx)
    }
}

/// Every experiment, in the order `all_figures` runs them.
pub fn registry() -> Vec<FigureDef> {
    vec![
        FigureDef {
            name: "fig10",
            title: "Speedup over stride baseline",
            run: defs::fig10,
        },
        FigureDef {
            name: "fig11",
            title: "Normalized DRAM traffic",
            run: defs::fig11,
        },
        FigureDef {
            name: "fig12",
            title: "Prefetch accuracy",
            run: defs::fig12,
        },
        FigureDef {
            name: "fig13",
            title: "Coverage",
            run: defs::fig13,
        },
        FigureDef {
            name: "fig14",
            title: "Normalized L3 accesses",
            run: defs::fig14,
        },
        FigureDef {
            name: "fig15",
            title: "Normalized DRAM+L3 energy",
            run: defs::fig15,
        },
        FigureDef {
            name: "fig16",
            title: "Multiprogrammed speedup",
            run: defs::fig16,
        },
        FigureDef {
            name: "fig17",
            title: "Graph500 adversarial study",
            run: defs::fig17,
        },
        FigureDef {
            name: "fig18",
            title: "Markov metadata formats",
            run: defs::fig18,
        },
        FigureDef {
            name: "fig19",
            title: "LUT offset-width accuracy",
            run: defs::fig19,
        },
        FigureDef {
            name: "fig20",
            title: "Feature-ladder ablation",
            run: defs::fig20,
        },
        FigureDef {
            name: "table1",
            title: "Triangel structure sizing",
            run: defs::table1,
        },
        FigureDef {
            name: "table2",
            title: "Experimental setup",
            run: defs::table2,
        },
        FigureDef {
            name: "sec33_replacement",
            title: "Markov replacement-policy study",
            run: defs::sec33_replacement,
        },
        FigureDef {
            name: "duel_bias",
            title: "Set Dueller bias sweep",
            run: defs::duel_bias,
        },
        FigureDef {
            name: "features",
            title: "Feature ladder +/- eviction training",
            run: defs::features,
        },
        FigureDef {
            name: "perf",
            title: "Hot-path throughput vs recorded baseline",
            run: defs::perf,
        },
        FigureDef {
            name: "timeline",
            title: "Per-interval time-series +/- eviction training",
            run: defs::timeline,
        },
        FigureDef {
            name: "traces",
            title: "Irregular families + recorded-trace replay",
            run: defs::traces,
        },
        FigureDef {
            name: "multicore",
            title: "N-core scaling on the contended timing model",
            run: defs::multicore,
        },
    ]
}

/// Looks up one experiment by name.
pub fn find(name: &str) -> Option<FigureDef> {
    registry().into_iter().find(|f| f.name == name)
}

/// Command-line options shared by the figure binaries.
#[derive(Debug, Default)]
pub struct CliOptions {
    /// `--jobs N` (0 = one worker per core).
    pub jobs: usize,
    /// `--filter <regex>` (only `all_figures`).
    pub filter: Option<Pattern>,
    /// `--out-dir <dir>` (only `all_figures`): emit JSON/CSV here.
    pub out_dir: Option<PathBuf>,
    /// `--trace <path>`: record the harness's wall-time spans and write
    /// them as Chrome `trace_event` JSON (load at
    /// <https://ui.perfetto.dev>). Host-only observability — figure
    /// output is byte-identical with or without it.
    pub trace: Option<PathBuf>,
    /// `--store <dir>`: resolve jobs against (and publish them into)
    /// the on-disk result store at `dir`, shared safely with other
    /// processes. Serving a sweep from the store is byte-identical to
    /// executing it.
    pub store: Option<PathBuf>,
}

/// Parses `--jobs N`, `--filter RE`, `--out-dir DIR`, `--trace PATH`,
/// `--store DIR`.
///
/// # Errors
///
/// A usage message on unknown flags, missing values, or a malformed
/// filter regex.
pub fn parse_cli(args: impl Iterator<Item = String>) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a value")?;
                opts.jobs = v.parse().map_err(|_| format!("bad --jobs value `{v}`"))?;
            }
            "--filter" => {
                let v = args.next().ok_or("--filter needs a regex")?;
                opts.filter = Some(Pattern::new(&v).map_err(|e| e.to_string())?);
            }
            "--out-dir" => {
                let v = args.next().ok_or("--out-dir needs a path")?;
                opts.out_dir = Some(PathBuf::from(v));
            }
            "--trace" => {
                let v = args.next().ok_or("--trace needs a path")?;
                opts.trace = Some(PathBuf::from(v));
            }
            "--store" => {
                let v = args.next().ok_or("--store needs a directory")?;
                opts.store = Some(PathBuf::from(v));
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` (expected --jobs N, --filter RE, --out-dir DIR, \
                     --trace PATH, --store DIR)"
                ))
            }
        }
    }
    Ok(opts)
}

/// Entry point for the single-figure binaries: parses `--jobs` and
/// `--out-dir`, runs the named experiment, prints (and optionally
/// emits) its artefacts. `--filter` is rejected — there is only one
/// experiment here; filtering belongs to `all_figures`.
///
/// # Panics
///
/// Panics if `name` is not in the registry (a bug, not user error).
pub fn run_main(name: &str) {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if cli.filter.is_some() {
        eprintln!("--filter only applies to all_figures; this binary runs exactly `{name}`");
        std::process::exit(2);
    }
    let def = find(name).unwrap_or_else(|| panic!("unknown figure `{name}`"));
    let mut ctx = FigureContext::new(SweepParams::from_env(), cli.jobs);
    let trace = attach_trace(&mut ctx, &cli);
    if let Err(e) = attach_store(&mut ctx, &cli) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let outputs = def.run(&mut ctx);
    for out in &outputs {
        out.print();
    }
    let dir = cli.out_dir.clone().unwrap_or_else(|| PathBuf::from("."));
    if let Err(e) = emit_selected(&dir, name, &outputs, cli.out_dir.is_some()) {
        eprintln!("failed to emit {name} to {}: {e}", dir.display());
        std::process::exit(1);
    }
    write_trace(&cli, trace.as_deref());
    store_summary(&ctx.opts);
}

/// Creates the trace buffer `--trace` asked for (if any) and shares it
/// with the context's scheduler options, so every sweep the figures
/// run records its wall-time spans.
pub fn attach_trace(
    ctx: &mut FigureContext,
    cli: &CliOptions,
) -> Option<Arc<triangel_obs::TraceBuffer>> {
    let trace = cli
        .trace
        .as_ref()
        .map(|_| Arc::new(triangel_obs::TraceBuffer::new()));
    if let Some(t) = &trace {
        ctx.opts.trace = Some(Arc::clone(t));
    }
    trace
}

/// Wires `--store` into the context's scheduler options: opens the
/// on-disk result store, so every sweep the figures run resolves
/// through it.
///
/// # Errors
///
/// A one-line message when the store cannot be opened.
pub fn attach_store(ctx: &mut FigureContext, cli: &CliOptions) -> Result<(), String> {
    if let Some(dir) = &cli.store {
        let store = triangel_harness::ResultStore::open(dir)
            .map_err(|e| format!("cannot open result store at {}: {e}", dir.display()))?;
        ctx.opts.store = Some(Arc::new(store));
    }
    Ok(())
}

/// Prints the store's traffic counters to stderr after a run, when a
/// store is attached. stdout is untouched, so figure output stays
/// byte-identical.
pub fn store_summary(opts: &SweepOptions) {
    if let Some(store) = &opts.store {
        eprintln!("[store] {}", store.stats().render());
    }
}

/// Writes the recorded trace to the `--trace` path as Chrome
/// `trace_event` JSON. Exits the process on I/O failure (binary-level
/// helper, like `emit_selected`'s callers).
pub fn write_trace(cli: &CliOptions, trace: Option<&triangel_obs::TraceBuffer>) {
    let (Some(path), Some(trace)) = (&cli.trace, trace) else {
        return;
    };
    if let Err(e) = std::fs::write(path, trace.to_json()) {
        eprintln!("failed to write trace to {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("[trace] {} event(s) -> {}", trace.len(), path.display());
}

/// Writes artefacts under `dir`. `FigureOutput::Json` artefacts are
/// always written (they are the whole point of the experiments that
/// produce them); tables and text only when `all` is set (i.e. the
/// user asked for `--out-dir`).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn emit_selected(
    dir: &std::path::Path,
    name: &str,
    outputs: &[FigureOutput],
    all: bool,
) -> std::io::Result<()> {
    if all
        || outputs
            .iter()
            .any(|o| matches!(o, FigureOutput::Json { .. }))
    {
        std::fs::create_dir_all(dir)?;
    }
    for (i, out) in outputs.iter().enumerate() {
        let slug = out.slug(name, i);
        match out {
            FigureOutput::Table(t) if all => {
                std::fs::write(dir.join(format!("{slug}.json")), emit::table_to_json(t))?;
                std::fs::write(dir.join(format!("{slug}.csv")), emit::table_to_csv(t))?;
            }
            FigureOutput::Text(s) if all => {
                std::fs::write(dir.join(format!("{slug}.txt")), s)?;
            }
            FigureOutput::Json { body, .. } => {
                std::fs::write(dir.join(format!("{slug}.json")), body.to_string())?;
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_cover_all_binaries() {
        let names: Vec<&str> = registry().iter().map(|f| f.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate registry names");
        for expected in [
            "fig10",
            "fig16",
            "fig17",
            "fig20",
            "table1",
            "table2",
            "sec33_replacement",
            "duel_bias",
            "features",
            "perf",
            "timeline",
            "traces",
            "multicore",
        ] {
            assert!(names.contains(&expected), "registry missing {expected}");
        }
    }

    #[test]
    fn cli_parses_all_flags() {
        let opts = parse_cli(
            [
                "--jobs",
                "8",
                "--filter",
                "fig1[0-5]",
                "--out-dir",
                "/tmp/x",
                "--store",
                "/tmp/store",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.jobs, 8);
        assert!(opts.filter.as_ref().unwrap().is_match("fig12"));
        assert!(!opts.filter.as_ref().unwrap().is_match("fig17"));
        assert_eq!(
            opts.out_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
        assert_eq!(
            opts.store.as_deref(),
            Some(std::path::Path::new("/tmp/store"))
        );
        assert!(parse_cli(["--bogus"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_cli(["--store"].iter().map(|s| s.to_string())).is_err());
    }
}
