//! The paper-scale campaign runner: checkpointable, resumable runs of
//! the `features` ablation and the headline (Figs. 10–15) sweep.
//!
//! Unlike `all_figures` (which runs a sweep to completion in one
//! process), this binary drives its jobs through
//! [`triangel_harness::Campaign`]: every simulation advances in
//! segments, checkpoints its full state into the result store at
//! `--out-dir` after each, and resumes from those checkpoints on the
//! next invocation. Killing the process at any point loses at most one
//! segment per in-flight job.
//!
//! ```text
//! campaign --figure features --scale full --out-dir campaign-out
//! ```
//!
//! Flags:
//!
//! * `--figure features|spec` — which experiment to run (default
//!   `features`: the Fig. 20 ladder ± EvictTrain; `spec` is the shared
//!   Figs. 10–15 sweep).
//! * `--scale full|smoke` — paper scale (1M warm-up + 2M measured
//!   accesses per core) or the figure's smoke scale.
//! * `--jobs N` — worker threads (0 = one per core; results are
//!   byte-identical whatever the value).
//! * `--out-dir DIR` — the campaign's result store (default
//!   `campaign-out`): finished reports, checkpoints, the `manifest.tsv`
//!   view and the emitted artefacts. Re-running with the same directory
//!   resumes; `all_figures --store DIR` on it is served the campaign's
//!   results.
//! * `--segment N` — checkpoint interval in accesses per core.
//! * `--max-segments K` — stop after K segments (forced interrupt; CI
//!   uses this to exercise resume).
//! * `--wall-budget-secs S` — stop issuing segments after S seconds.
//! * `--trace PATH` — record the campaign's wall-time spans (one per
//!   job and per executed segment, on named worker lanes) as Chrome
//!   `trace_event` JSON for <https://ui.perfetto.dev>. Host-only:
//!   results and artefacts are byte-identical with or without it.
//! * `--quiet` — suppress per-segment progress.
//!
//! Exit status: 0 when the campaign (and its figure artefacts) are
//! complete, 3 when a budget interrupted it (resume by re-running), 1
//! on job failures, 2 on usage errors.

use std::path::PathBuf;
use std::time::Duration;

use triangel_bench::figures;
use triangel_bench::SweepParams;
use triangel_harness::{Campaign, CampaignOptions, GridSpec, JobOutcome, RunParams, SweepOptions};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Figure {
    Features,
    Spec,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Full,
    Smoke,
}

#[derive(Debug)]
struct Cli {
    figure: Figure,
    scale: Scale,
    jobs: usize,
    out_dir: PathBuf,
    segment: u64,
    max_segments: Option<u64>,
    wall_budget_secs: Option<u64>,
    trace: Option<PathBuf>,
    quiet: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            figure: Figure::Features,
            scale: Scale::Smoke,
            jobs: 0,
            out_dir: PathBuf::from("campaign-out"),
            segment: 250_000,
            max_segments: None,
            wall_budget_secs: None,
            trace: None,
            quiet: false,
        }
    }
}

fn parse_cli(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--figure" => {
                cli.figure = match value("--figure")?.as_str() {
                    "features" => Figure::Features,
                    "spec" => Figure::Spec,
                    other => return Err(format!("unknown figure `{other}` (features|spec)")),
                }
            }
            "--scale" => {
                cli.scale = match value("--scale")?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("unknown scale `{other}` (full|smoke)")),
                }
            }
            "--jobs" => {
                let v = value("--jobs")?;
                cli.jobs = v.parse().map_err(|_| format!("bad --jobs value `{v}`"))?;
            }
            "--out-dir" => cli.out_dir = PathBuf::from(value("--out-dir")?),
            "--segment" => {
                let v = value("--segment")?;
                cli.segment = v
                    .parse()
                    .map_err(|_| format!("bad --segment value `{v}`"))?;
                if cli.segment == 0 {
                    return Err("--segment must be positive".into());
                }
            }
            "--max-segments" => {
                let v = value("--max-segments")?;
                cli.max_segments =
                    Some(v.parse().map_err(|_| format!("bad --max-segments `{v}`"))?);
            }
            "--wall-budget-secs" => {
                let v = value("--wall-budget-secs")?;
                cli.wall_budget_secs = Some(
                    v.parse()
                        .map_err(|_| format!("bad --wall-budget-secs `{v}`"))?,
                );
            }
            "--trace" => cli.trace = Some(PathBuf::from(value("--trace")?)),
            "--quiet" => cli.quiet = true,
            other => {
                return Err(format!(
                    "unknown argument `{other}` (expected --figure features|spec, \
                     --scale full|smoke, --jobs N, --out-dir DIR, --segment N, \
                     --max-segments K, --wall-budget-secs S, --trace PATH, \
                     --quiet)"
                ))
            }
        }
    }
    Ok(cli)
}

/// The scale each figure runs at. `full` is the paper methodology:
/// 1M-access warm-up plus 2M measured accesses per core.
fn params_for(figure: Figure, scale: Scale) -> RunParams {
    match (figure, scale) {
        (_, Scale::Full) => figures::FEATURES_FULL_PARAMS,
        (Figure::Features, Scale::Smoke) => figures::FEATURES_PARAMS,
        (Figure::Spec, Scale::Smoke) => SweepParams::quick().run_params(),
    }
}

fn grid_for(figure: Figure, params: RunParams) -> GridSpec {
    match figure {
        Figure::Features => figures::features_grid(params),
        Figure::Spec => {
            let mut grid = GridSpec::new(params).spec_rows();
            for choice in triangel_bench::SpecSweep::paper_configs_with_nomrb() {
                grid = grid.column(choice);
            }
            grid
        }
    }
}

fn main() {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let params = params_for(cli.figure, cli.scale);
    let grid = grid_for(cli.figure, params);

    let store = triangel_harness::ResultStore::open(&cli.out_dir).unwrap_or_else(|e| {
        eprintln!(
            "cannot open the campaign store at {}: {e}",
            cli.out_dir.display()
        );
        std::process::exit(2);
    });
    let mut opts = CampaignOptions::new(store)
        .workers(cli.jobs)
        .segment_accesses(cli.segment);
    if !cli.quiet {
        opts = opts.with_progress();
    }
    if let Some(k) = cli.max_segments {
        opts = opts.max_segments(k);
    }
    if let Some(s) = cli.wall_budget_secs {
        opts = opts.wall_budget(Duration::from_secs(s));
    }
    let trace = cli
        .trace
        .as_ref()
        .map(|_| std::sync::Arc::new(triangel_obs::TraceBuffer::new()));
    if let Some(t) = &trace {
        opts = opts.with_trace(t.clone());
    }

    let t0 = std::time::Instant::now();
    let report = Campaign::new()
        .jobs(grid.jobs())
        .run(&opts)
        .unwrap_or_else(|e| {
            eprintln!("campaign I/O failure under {}: {e}", cli.out_dir.display());
            std::process::exit(1);
        });
    let s = &report.stats;
    eprintln!(
        "[campaign] {} unique job(s): {} done ({} loaded from disk, {} resumed), \
         {} interrupted, {} failed — {} segment(s), {} accesses in {:.1}s",
        s.unique,
        s.completed,
        s.loaded,
        s.resumed,
        s.interrupted,
        s.errors,
        s.segments_run,
        s.accesses_run,
        t0.elapsed().as_secs_f64(),
    );
    eprintln!("[store] {}", opts.store.stats().render());

    // Written before any exit below: an interrupted campaign's trace is
    // exactly the one worth looking at.
    if let (Some(path), Some(t)) = (&cli.trace, &trace) {
        if let Err(e) = std::fs::write(path, t.to_json()) {
            eprintln!("failed to write trace to {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("[trace] {} event(s) -> {}", t.len(), path.display());
    }

    for (key, outcome) in report.keys.iter().zip(&report.outcomes) {
        if let JobOutcome::Failed(e) = outcome {
            eprintln!("[campaign] FAILED {key}: {}", e.message);
        }
    }
    if s.errors > 0 {
        std::process::exit(1);
    }
    if !report.is_complete() {
        eprintln!(
            "[campaign] interrupted by budget; re-run with the same --out-dir ({}) to resume",
            cli.out_dir.display()
        );
        std::process::exit(3);
    }

    // Complete: fold the figure outputs entirely from the campaign's
    // result cache (zero re-execution) and emit them under --out-dir.
    let fold_opts = SweepOptions::serial().with_cache(report.cache.clone());
    let outputs = match cli.figure {
        Figure::Features => {
            let result = grid.run(&fold_opts).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(
                result.stats.executed, 0,
                "folds must hit the campaign cache"
            );
            // The un-suffixed name is the full-scale record; smoke
            // runs share the smoke figure's artifact name, so CI can
            // diff them and nothing clobbers the committed full-scale
            // BENCH_features.json.
            let artifact = match cli.scale {
                Scale::Full => "BENCH_features",
                Scale::Smoke => "BENCH_features_smoke",
            };
            figures::features_outputs(&result, params, artifact)
        }
        Figure::Spec => {
            let sweep = triangel_bench::SpecSweep::run_opts(
                triangel_bench::SpecSweep::paper_configs_with_nomrb(),
                &SweepParams {
                    warmup: params.warmup,
                    accesses: params.accesses,
                    sizing_window: params.sizing_window,
                    seed: params.seed,
                },
                &fold_opts,
            );
            assert_eq!(
                sweep.stats().executed,
                0,
                "folds must hit the campaign cache"
            );
            vec![
                figures::FigureOutput::Table(sweep.fig10_speedup()),
                figures::FigureOutput::Table(sweep.fig11_traffic()),
                figures::FigureOutput::Table(sweep.fig12_accuracy()),
                figures::FigureOutput::Table(sweep.fig13_coverage()),
                figures::FigureOutput::Table(sweep.fig14_l3()),
                figures::FigureOutput::Table(sweep.fig15_energy()),
            ]
        }
    };
    for out in &outputs {
        out.print();
    }
    let name = match cli.figure {
        Figure::Features => "features",
        Figure::Spec => "spec",
    };
    let out_dir = opts.store.dir();
    if let Err(e) = figures::emit_selected(out_dir, name, &outputs, true) {
        eprintln!("failed to emit {name} to {}: {e}", out_dir.display());
        std::process::exit(1);
    }
}
