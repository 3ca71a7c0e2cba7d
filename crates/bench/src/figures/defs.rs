//! The per-figure experiment definitions: declarative grids handed to
//! the harness, plus the folds that turn their reports into tables.

use std::sync::Arc;

use triangel_core::{structure_sizes, TriangelConfig, TriangelFeatures};
use triangel_harness::goldens::gated_features;
use triangel_harness::{
    GridSpec, JobSpec, MapperSpec, RunParams, Sweep, SweepOptions, WorkloadSpec,
};
use triangel_markov::TargetFormat;
use triangel_obs::json::Value;
use triangel_obs::{IntervalSeries, IntervalWindow};
use triangel_sim::report::FigureTable;
use triangel_sim::{Comparison, PrefetcherChoice, RunReport, SystemConfig};
use triangel_triage::TriageConfig;
use triangel_workloads::graph500::Graph500Config;
use triangel_workloads::irregular::IrregularWorkload;
use triangel_workloads::spec::SpecWorkload;
use triangel_workloads::trace_file::record_trace;

use super::{FigureContext, FigureOutput};
use crate::quick_mode;

fn tables(tables: Vec<triangel_sim::report::FigureTable>) -> Vec<FigureOutput> {
    tables.into_iter().map(FigureOutput::Table).collect()
}

pub(super) fn fig10(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    tables(vec![ctx.spec_sweep().fig10_speedup()])
}

pub(super) fn fig11(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    tables(vec![ctx.spec_sweep().fig11_traffic()])
}

pub(super) fn fig12(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    tables(vec![ctx.spec_sweep().fig12_accuracy()])
}

pub(super) fn fig13(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    tables(vec![ctx.spec_sweep().fig13_coverage()])
}

pub(super) fn fig14(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    tables(vec![ctx.spec_sweep().fig14_l3()])
}

pub(super) fn fig15(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    tables(vec![
        ctx.spec_sweep().fig15_energy(),
        ctx.spec_sweep().fig15_dram_fraction(),
    ])
}

/// The paper's multiprogrammed pairings ("with Xalan doubled to make an
/// even set").
pub const FIG16_PAIRS: [(SpecWorkload, SpecWorkload); 4] = [
    (SpecWorkload::Xalan, SpecWorkload::Omnetpp),
    (SpecWorkload::Mcf, SpecWorkload::Gcc166),
    (SpecWorkload::Astar, SpecWorkload::Soplex),
    (SpecWorkload::Sphinx, SpecWorkload::Xalan),
];

/// Fig. 16: each pair shares the L3 (and so the Markov partition) and
/// the DRAM channel; a pair's speedup is the geomean of its two cores'
/// IPC ratios against the same pair under the stride-only baseline.
pub(super) fn fig16(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    let mut grid = GridSpec::new(ctx.params.run_params()).columns([
        PrefetcherChoice::Triage,
        PrefetcherChoice::TriageDeg4,
        PrefetcherChoice::Triangel,
        PrefetcherChoice::TriangelBloom,
    ]);
    for (a, b) in FIG16_PAIRS {
        grid = grid.row(WorkloadSpec::Pair(a, b));
    }
    let result = grid.run(&ctx.opts).unwrap_or_else(|e| panic!("{e}"));
    ctx.absorb(result.stats);
    tables(vec![result.table(
        "Fig. 16: Multiprogrammed-workload speedup",
        "per-pair geomean IPC ratio vs stride-only dual-core baseline",
        |c| c.speedup,
    )])
}

/// Fig. 17 (Sec. 6.4): Graph500 search, the adversarial workload.
/// `s16 e10` fits the Markov range but repeats too little; `s21 e10`'s
/// reuse distances exceed any on-chip capacity. Ideally the temporal
/// prefetchers do nothing: Triage slows the system, while Triangel's
/// classifiers largely switch off.
pub(super) fn fig17(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    let inputs: Vec<Graph500Config> = if quick_mode() {
        vec![Graph500Config::tiny()]
    } else {
        vec![Graph500Config::s16_e10(), Graph500Config::s21_e10()]
    };
    let mut grid = GridSpec::new(ctx.params.run_params()).columns([
        PrefetcherChoice::Triage,
        PrefetcherChoice::TriageDeg4,
        PrefetcherChoice::Triangel,
        PrefetcherChoice::TriangelBloom,
    ]);
    for input in inputs {
        eprintln!("[fig17] generating graph {}", input.label());
        // Build the graph once; every configuration's BFS shares it.
        let graph = input.build_trace().graph_handle();
        eprintln!(
            "[fig17] {}: {} vertices, {} edges, {:.1} MiB",
            input.label(),
            graph.n_vertices(),
            graph.n_entries() / 2,
            graph.footprint_bytes() as f64 / (1024.0 * 1024.0)
        );
        grid = grid.row(WorkloadSpec::Graph500 {
            label: input.label(),
            graph: Arc::clone(&graph),
        });
    }
    let result = grid.run(&ctx.opts).unwrap_or_else(|e| panic!("{e}"));
    ctx.absorb(result.stats);
    tables(vec![
        result
            .table(
                "Fig. 17 (left): Graph500 search slowdown",
                "baseline IPC / configuration IPC (higher = worse)",
                |c| c.slowdown(),
            )
            .without_geomean(),
        result
            .table(
                "Fig. 17 (right): Graph500 DRAM traffic",
                "DRAM line reads relative to baseline",
                |c| c.dram_traffic,
            )
            .without_geomean(),
    ])
}

/// Fig. 18 (Sec. 6.5): Triage under five Markov entry formats: the
/// default 32-bit entry with a 16-way 1024-entry lookup table, an ideal
/// (never-wrong) lookup table, a fully-associative one, Triangel's
/// 42-bit direct format, and the 10-bit-offset variant.
pub(super) fn fig18(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    let formats = [
        TargetFormat::triage_default(),
        TargetFormat::Ideal32,
        TargetFormat::triage_full_lut(),
        TargetFormat::Direct42,
        TargetFormat::triage_10b_offset(),
    ];
    let mut grid = GridSpec::new(ctx.params.run_params()).spec_rows();
    for f in formats {
        grid = grid.column(PrefetcherChoice::TriageFormat(f));
    }
    let result = grid.run(&ctx.opts).unwrap_or_else(|e| panic!("{e}"));
    ctx.absorb(result.stats);
    tables(vec![result.table(
        "Fig. 18: Triage speedup by Markov-table format",
        "IPC relative to stride-only baseline (first column is Triage's default)",
        |c| c.speedup,
    )])
}

/// Fig. 19 (Sec. 6.5): Triage's lookup-table accuracy with 11 and 10
/// offset bits under fragmented page mapping. With 10 bits the table
/// tracks twice as many upper-bit regions; once its 1024 entries run
/// out, stale indices rebuild wrong addresses and accuracy collapses.
pub(super) fn fig19(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    let variants = [
        ("11-bit", TargetFormat::triage_default()),
        ("10-bit", TargetFormat::triage_10b_offset()),
    ];
    let mut grid = GridSpec::new(ctx.params.run_params())
        .spec_rows()
        .mapper(MapperSpec::Realistic(ctx.params.seed));
    for (name, f) in variants {
        grid = grid.labeled_column(name, PrefetcherChoice::TriageFormat(f));
    }
    let result = grid.run(&ctx.opts).unwrap_or_else(|e| panic!("{e}"));
    ctx.absorb(result.stats);
    tables(vec![result.table(
        "Fig. 19: Triage LUT accuracy by offset width",
        "prefetched lines used before L2 eviction (fragmented page mapping)",
        |c| c.accuracy,
    )])
}

/// Fig. 20 (Sec. 6.6): the ablation ladder from Triage Degree-4, one
/// more Triangel mechanism per column in the paper's order; prints (a)
/// speedup and (b) normalized DRAM traffic.
pub(super) fn fig20(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    let mut grid = GridSpec::new(ctx.params.run_params()).spec_rows();
    for step in 0..=8 {
        grid = grid.labeled_column(
            TriangelFeatures::ladder_label(step),
            PrefetcherChoice::TriangelLadder(step),
        );
    }
    let result = grid.run(&ctx.opts).unwrap_or_else(|e| panic!("{e}"));
    ctx.absorb(result.stats);
    tables(vec![
        result.table(
            "Fig. 20a: Ablation speedup",
            "IPC relative to stride-only baseline, features added cumulatively",
            |c| c.speedup,
        ),
        result.table(
            "Fig. 20b: Ablation DRAM traffic",
            "DRAM line reads relative to baseline",
            |c| c.dram_traffic,
        ),
    ])
}

pub(super) fn table1(_ctx: &mut FigureContext) -> Vec<FigureOutput> {
    let sizes = structure_sizes(&TriangelConfig::paper_default());
    let mut out = String::new();
    out.push_str("## Table 1: Sizing of Triangel's structures\n\n");
    out.push_str(&format!("{:24} {:>10} {:>8}\n", "Table", "Entries", "Size"));
    out.push_str(&format!("{}\n", "-".repeat(46)));
    let mut total = 0usize;
    for s in &sizes {
        let entries = if s.name == "Set Dueller" {
            "64x(8+16)".to_string()
        } else {
            s.entries.to_string()
        };
        out.push_str(&format!("{:24} {:>10} {:>7}B\n", s.name, entries, s.bytes));
        total += s.bytes;
    }
    out.push_str(&format!("{}\n", "-".repeat(46)));
    out.push_str(&format!(
        "{:24} {:>10} {:>6.1}KiB\n",
        "Total",
        "",
        total as f64 / 1024.0
    ));
    out.push_str("\n(paper: 17.6 KiB total, versus 219.5 KiB for Triage once its\n");
    out.push_str(" lookup table, HawkEye dueller and Bloom filter are counted)");
    vec![FigureOutput::Text(out)]
}

pub(super) fn table2(_ctx: &mut FigureContext) -> Vec<FigureOutput> {
    let cfg = SystemConfig::paper_single_core();
    let mut out = String::new();
    out.push_str("## Table 2: Core and memory experimental setup\n\n");
    out.push_str("Core       5-wide out-of-order approximation, 2 GHz\n");
    out.push_str(&format!(
        "Pipeline   {}-entry ROB (issue window), width {}\n",
        cfg.rob_entries, cfg.width
    ));
    for (name, c) in [
        ("L1 DCache", &cfg.l1),
        ("L2 Cache", &cfg.l2),
        ("L3 Cache", &cfg.l3),
    ] {
        out.push_str(&format!(
            "{:10} {} KiB, {}-way, {}-cycle hit latency, {} sets\n",
            name,
            c.size_bytes() / 1024,
            c.ways(),
            c.hit_latency(),
            c.sets()
        ));
    }
    out.push_str(&format!("L2 MSHRs   {}\n", cfg.l2_mshrs));
    out.push_str(&format!(
        "Memory     LPDDR5-like: {} cycles access latency, {} cycles/line channel occupancy\n",
        cfg.dram.access_latency, cfg.dram.service_interval
    ));
    out.push_str(&format!(
        "Stride pf  degree-{} at the L1D (baseline includes it)\n",
        cfg.stride_degree
    ));
    out.push_str(&format!(
        "Markov     up to {} of {} L3 ways (half the cache)",
        cfg.max_markov_ways,
        cfg.l3.ways()
    ));
    vec![FigureOutput::Text(out)]
}

/// Sec. 3.3: LRU, SRRIP and HawkEye Markov-entry replacement barely
/// differ at the full 1 MiB table and differ more at a quarter-size
/// (2-way) partition.
pub(super) fn sec33_replacement(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    use triangel_cache::replacement::PolicyKind;
    let policies = [
        ("LRU", PolicyKind::Lru),
        ("SRRIP", PolicyKind::Srrip),
        ("HawkEye", PolicyKind::Hawkeye),
    ];
    let mut out = Vec::new();
    // Two capacity points; the shared cache makes the per-workload
    // baselines execute once across both grids.
    for (cap_name, max_ways) in [
        ("full 1 MiB table (8 ways)", 8),
        ("capacity-limited table (2 ways)", 2),
    ] {
        let mut grid = GridSpec::new(ctx.params.run_params()).spec_rows();
        for (name, pk) in policies {
            let mut cfg = TriageConfig::paper_default();
            cfg.table.replacement = pk;
            cfg.table.max_ways = max_ways;
            grid = grid.labeled_column(name, PrefetcherChoice::TriageCustom(cfg));
        }
        let result = grid.run(&ctx.opts).unwrap_or_else(|e| panic!("{e}"));
        ctx.absorb(result.stats);
        out.push(FigureOutput::Table(result.table(
            format!("Sec. 3.3: Markov replacement policy, {cap_name}"),
            "Triage speedup over stride-only baseline",
            |c| c.speedup,
        )));
    }
    out
}

/// The `features` ablation's fixed smoke scale. Deliberately not tied to `TRIANGEL_QUICK`/`TRIANGEL_WARMUP`: the
/// gate's effect is only comparable across PRs if every measurement
/// simulates the same work — and the scale must be large enough that
/// temporal fills die (eviction training is a no-op until lines
/// actually leave the L2).
pub const FEATURES_PARAMS: RunParams = RunParams {
    warmup: 25_000,
    accesses: 25_000,
    sizing_window: 10_000,
    seed: 42,
};

/// The `features` ablation at paper scale: the methodology's 1M-access
/// warm-up plus 2M measured accesses per core. This is the scale the
/// `train_on_eviction` promotion verdict is recorded at (sampled
/// policies and Markov confidence dynamics only converge here); runs
/// of this size go through the `campaign` binary, which checkpoints
/// and resumes them.
pub const FEATURES_FULL_PARAMS: RunParams = RunParams {
    warmup: 1_000_000,
    accesses: 2_000_000,
    sizing_window: 250_000,
    seed: 42,
};

/// The features-ablation grid at `params` scale: the Fig. 20 ladder,
/// each step paired with its `+EvictTrain` twin.
pub fn features_grid(params: RunParams) -> GridSpec {
    let mut grid = GridSpec::new(params).spec_rows();
    for step in 0..=8 {
        let label = TriangelFeatures::ladder_label(step);
        grid = grid.labeled_column(label, PrefetcherChoice::TriangelLadder(step));
        grid = grid.labeled_column_with_features(
            format!("{label}+EvictTrain"),
            PrefetcherChoice::TriangelLadder(step),
            TriangelFeatures {
                train_on_eviction: true,
                ..TriangelFeatures::ladder(step)
            },
        );
    }
    grid
}

/// The `features` ablation: the Fig. 20 feature ladder, each step run
/// with the experimental `train_on_eviction` gate off and on, over the
/// smoke sweep. Emits the per-step off/on metrics as
/// `BENCH_features_smoke.json` (no wall clocks, so the artefact is
/// byte-deterministic; the un-suffixed
/// `BENCH_features.json` name is reserved for the campaign runner's
/// full-scale record) plus speedup/accuracy/coverage tables.
pub(super) fn features(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    let result = features_grid(FEATURES_PARAMS)
        .run(&ctx.opts)
        .unwrap_or_else(|e| panic!("{e}"));
    ctx.absorb(result.stats);
    features_outputs(&result, FEATURES_PARAMS, "BENCH_features_smoke")
}

/// Folds a finished features grid into its tables and the
/// `<artifact>.json` machine-readable report (shared by the smoke
/// figure, which emits `BENCH_features_smoke`, and the campaign
/// runner, whose full-scale run records `BENCH_features`).
pub fn features_outputs(
    result: &triangel_harness::GridResult,
    params: RunParams,
    artifact: &str,
) -> Vec<FigureOutput> {
    let mut out = tables(vec![
        result.table(
            "Features ablation: speedup +/- EvictTrain",
            "IPC relative to stride-only baseline; each ladder step paired with its +EvictTrain twin",
            |c| c.speedup,
        ),
        result
            .table(
                "Features ablation: accuracy +/- EvictTrain",
                "prefetched lines demand-used before L2 eviction",
                |c| c.accuracy,
            )
            .without_geomean(),
        result
            .table(
                "Features ablation: coverage +/- EvictTrain",
                "fraction of baseline L2 demand misses eliminated",
                |c| c.coverage,
            )
            .without_geomean(),
    ]);
    out.push(FigureOutput::Json {
        name: artifact.to_string(),
        body: features_document(
            params,
            result.row_labels(),
            result.col_labels().len() / 2,
            |r, c| result.comparison(r, c),
        ),
    });
    out
}

/// The four comparison metrics every per-cell artifact records.
fn comparison_fields(c: Comparison) -> [(&'static str, Value); 4] {
    [
        ("speedup", c.speedup.into()),
        ("accuracy", c.accuracy.into()),
        ("coverage", c.coverage.into()),
        ("dram_traffic", c.dram_traffic.into()),
    ]
}

/// The features ablation artifact: per workload, the first `steps`
/// ladder steps with the experimental `train_on_eviction` gate off and
/// on. `comparison(row, col)` reads the grid, whose columns alternate
/// off/on per step. Carries no wall-clock numbers, so its bytes are
/// fully deterministic.
fn features_document(
    params: RunParams,
    workloads: &[String],
    steps: usize,
    comparison: impl Fn(usize, usize) -> Comparison,
) -> Value {
    let rows = workloads.iter().enumerate().map(|(r, workload)| {
        let steps = (0..steps).map(|step| {
            Value::obj([
                ("step", step.into()),
                ("label", TriangelFeatures::ladder_label(step).into()),
                (
                    "off",
                    Value::obj(comparison_fields(comparison(r, step * 2))),
                ),
                (
                    "on",
                    Value::obj(comparison_fields(comparison(r, step * 2 + 1))),
                ),
            ])
        });
        Value::obj([
            ("workload", workload.as_str().into()),
            ("steps", steps.collect()),
        ])
    });
    Value::obj([
        ("schema", 1u64.into()),
        ("figure", "features".into()),
        (
            "sweep",
            format!(
                "7 SPEC workloads x 9 ladder steps x {{-, +EvictTrain}}, warmup {} + {} accesses each",
                params.warmup, params.accesses
            )
            .into(),
        ),
        ("rows", rows.collect()),
    ])
}

/// Sampling period of the `timeline` figure at [`FEATURES_PARAMS`]
/// scale: ten intervals across the measured run, fine enough to see
/// *when* in a run EvictTrain's MCF coverage falls away, coarse
/// enough to keep the figure at smoke-test cost.
pub const TIMELINE_SAMPLE_EVERY: u64 = 2_500;

/// The workloads the timeline watches: MCF is where the eviction-
/// training gate's coverage collapses (the PR 5 campaign verdict);
/// Astar and Omnetpp are the contrast group whose coverage holds.
const TIMELINE_WORKLOADS: [SpecWorkload; 3] = [
    SpecWorkload::Mcf,
    SpecWorkload::Astar,
    SpecWorkload::Omnetpp,
];

/// The `timeline` figure: per-interval time-series of
/// {Baseline, Triangel-L0, Triangel-L0+EvictTrain} over the workloads
/// above, recorded through the interval sampler and emitted as
/// `BENCH_timeline.json` (`BENCH_timeline_smoke.json` when
/// `TRIANGEL_TIMELINE_SMOKE=1`, so CI never clobbers the recorded
/// artefact). The aggregate features tables say *that* EvictTrain
/// loses MCF coverage; this figure says *when*.
pub(super) fn timeline(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    let params = FEATURES_PARAMS;
    // Ladder step 0, like the gate-on golden sweep: its ungated
    // prefetching exercises the eviction-training path heavily at this
    // scale, whereas full Triangel's confidence gates barely open
    // within 25k measured accesses and every series would be flat.
    let configs: [(&str, PrefetcherChoice, bool); 3] = [
        ("Baseline", PrefetcherChoice::Baseline, false),
        ("Triangel-L0", PrefetcherChoice::TriangelLadder(0), false),
        (
            "Triangel-L0+EvictTrain",
            PrefetcherChoice::TriangelLadder(0),
            true,
        ),
    ];
    let mut sweep = Sweep::new();
    for wl in TIMELINE_WORKLOADS {
        for (_, pf, gated) in configs {
            let mut job = JobSpec::new(WorkloadSpec::Spec(wl), pf, params)
                .sample_every(TIMELINE_SAMPLE_EVERY);
            if gated {
                job = job.features(gated_features(pf));
            }
            sweep.push(job);
        }
    }
    // A *private* cache, deliberately: sampling never enters content
    // keys, so the shared figure cache may hold unsampled twins of
    // these jobs — correct for summaries, useless for a figure that
    // needs the recorded series.
    let mut opts = SweepOptions::parallel(ctx.opts.workers);
    if let Some(trace) = &ctx.opts.trace {
        opts = opts.with_trace(Arc::clone(trace));
    }
    let result = sweep.run(&opts);
    ctx.absorb(result.stats);

    let series_at = |i: usize| -> &IntervalSeries {
        result.results[i]
            .as_ref()
            .unwrap_or_else(|e| panic!("timeline job failed: {e:?}"))
            .intervals
            .as_ref()
            .expect("timeline jobs sample")
    };
    let rows: Vec<TimelineRow> = TIMELINE_WORKLOADS
        .iter()
        .enumerate()
        .map(|(wi, wl)| {
            let baseline = series_at(wi * configs.len());
            let series = configs
                .iter()
                .enumerate()
                .map(|(ci, (label, _, _))| {
                    let points = timeline_points(
                        series_at(wi * configs.len() + ci),
                        (ci != 0).then_some(baseline),
                    );
                    (*label, points)
                })
                .collect();
            (wl.label(), series)
        })
        .collect();

    // Localize the gate's effect: the first interval where the gated
    // twin visibly departs from the ungated run — cumulative coverage
    // trailing by > 0.05, or the per-interval issue count shifting by
    // more than 5% (with a small floor so near-idle intervals don't
    // trigger on noise-scale counts).
    let mut notes = vec![
        "Timeline: first interval where +EvictTrain diverges from the ungated run".to_string(),
    ];
    for (workload, series) in &rows {
        let plain = &series[1].1;
        let gated = &series[2].1;
        let diverged = |p: &TimelinePoint, g: &TimelinePoint| {
            let coverage_gap = p.coverage_so_far - g.coverage_so_far > 0.05;
            let issue_shift = p.window.issued.max(20) as f64 * 0.05;
            coverage_gap || (p.window.issued as f64 - g.window.issued as f64).abs() > issue_shift
        };
        let end_coverage =
            |points: &[TimelinePoint]| points.last().map_or(0.0, |p| p.coverage_so_far);
        match plain.iter().zip(gated).find(|(p, g)| diverged(p, g)) {
            Some((p, g)) => notes.push(format!(
                "  {workload}: diverges at access {} (issued {} vs {}, coverage {:.3} vs {:.3}); \
                 end of run coverage {:.3} vs {:.3}",
                p.window.end_access,
                p.window.issued,
                g.window.issued,
                p.coverage_so_far,
                g.coverage_so_far,
                end_coverage(plain),
                end_coverage(gated),
            )),
            None => notes.push(format!(
                "  {workload}: no divergence (end of run coverage {:.3} vs {:.3})",
                end_coverage(plain),
                end_coverage(gated),
            )),
        }
    }

    let smoke = std::env::var("TRIANGEL_TIMELINE_SMOKE").is_ok_and(|v| v == "1");
    vec![
        FigureOutput::Text(notes.join("\n")),
        FigureOutput::Json {
            name: if smoke {
                "BENCH_timeline_smoke".to_string()
            } else {
                "BENCH_timeline".to_string()
            },
            body: timeline_document(params, &rows),
        },
    ]
}

/// One interval of a timeline series: the differenced window plus the
/// cumulative fraction of the stride-only baseline's L2 demand misses
/// eliminated so far (0 for the baseline's own series).
struct TimelinePoint {
    window: IntervalWindow,
    coverage_so_far: f64,
}

/// One workload of the timeline figure: its label and, per
/// configuration, the configuration label and its points.
type TimelineRow = (&'static str, Vec<(&'static str, Vec<TimelinePoint>)>);

/// Differences `series` into timeline points, computing cumulative
/// coverage against `baseline` (the stride-only run's series over the
/// same workload at the same period). With no baseline, coverage is 0.
fn timeline_points(
    series: &IntervalSeries,
    baseline: Option<&IntervalSeries>,
) -> Vec<TimelinePoint> {
    series
        .windows()
        .into_iter()
        .enumerate()
        .map(|(i, window)| {
            let coverage_so_far = baseline.and_then(|b| b.samples.get(i)).map_or(0.0, |base| {
                let own = series.samples[i].l2_demand_misses;
                let base = base.l2_demand_misses;
                if base == 0 {
                    0.0
                } else {
                    (base as f64 - own as f64) / base as f64
                }
            });
            TimelinePoint {
                window,
                coverage_so_far,
            }
        })
        .collect()
}

impl From<&TimelinePoint> for Value {
    fn from(p: &TimelinePoint) -> Self {
        let w = &p.window;
        Value::obj([
            ("end_access", w.end_access.into()),
            ("ipc", w.ipc.into()),
            ("l2_miss_rate", w.l2_miss_rate.into()),
            ("issued", w.issued.into()),
            ("useful", w.useful.into()),
            ("wasted", w.wasted.into()),
            ("accuracy_so_far", w.accuracy_so_far.into()),
            ("coverage_so_far", p.coverage_so_far.into()),
            ("markov_occupancy", w.markov_occupancy.into()),
            ("markov_ways", w.markov_ways.into()),
            ("desired_ways", w.desired_ways.into()),
        ])
    }
}

/// The timeline artifact: per-interval time-series over the run,
/// diagnosing *when* a configuration's behaviour diverges (the
/// EvictTrain coverage collapse). Carries no wall-clock numbers, so its
/// bytes are fully deterministic.
fn timeline_document(params: RunParams, rows: &[TimelineRow]) -> Value {
    let rows = rows.iter().map(|(workload, series)| {
        let series = series.iter().map(|(config, points)| {
            Value::obj([
                ("config", (*config).into()),
                ("points", points.iter().map(Value::from).collect()),
            ])
        });
        Value::obj([
            ("workload", (*workload).into()),
            ("series", series.collect()),
        ])
    });
    Value::obj([
        ("schema", 1u64.into()),
        ("figure", "timeline".into()),
        (
            "sweep",
            format!(
                "{{MCF, Astar, Omnetpp}} x {{Baseline, Triangel-L0, Triangel-L0+EvictTrain}}, warmup {} + {} accesses, sampled every {}",
                params.warmup, params.accesses, TIMELINE_SAMPLE_EVERY
            )
            .into(),
        ),
        ("every", TIMELINE_SAMPLE_EVERY.into()),
        ("rows", rows.collect()),
    ])
}

/// Configurations of the `multicore` figure. Ladder step 0 is the
/// column that actually loads the shared Markov partition at
/// [`FEATURES_PARAMS`] scale (same reasoning as the `timeline`
/// figure: full Triangel's confidence gates barely open within 25k
/// measured accesses); full Triangel still rides along to pin the
/// gated configuration's N-core behaviour.
const MULTICORE_CONFIGS: [(&str, PrefetcherChoice); 3] = [
    ("Baseline", PrefetcherChoice::Baseline),
    ("Triangel-L0", PrefetcherChoice::TriangelLadder(0)),
    ("Triangel", PrefetcherChoice::Triangel),
];

/// The `multicore` scaling figure: MCF replicated across the core-count
/// ladder on the contended N-core timing model
/// ([`SystemConfig::paper_n_core`] — banked shared LLC, per-channel
/// DRAM bandwidth, MSHR back-pressure, cycle-ordered stepping), under
/// the stride-only baseline and full Triangel. Emits per-core IPC and
/// end-of-run Markov-partition occupancy per core count as
/// `BENCH_multicore.json` (`BENCH_multicore_smoke.json` with a shorter
/// ladder under `TRIANGEL_MULTICORE_SMOKE=1`, so CI never clobbers the
/// recorded artefact).
pub(super) fn multicore(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    let params = FEATURES_PARAMS;
    let smoke = std::env::var("TRIANGEL_MULTICORE_SMOKE").is_ok_and(|v| v == "1");
    let core_counts: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    let mut sweep = Sweep::new();
    for &n in core_counts {
        for (_, pf) in MULTICORE_CONFIGS {
            sweep.push(
                JobSpec::new(WorkloadSpec::Spec(SpecWorkload::Mcf), pf, params)
                    .with_cores(n)
                    // One sample, exactly at the end of the measured
                    // run: the final Markov-partition occupancy.
                    .sample_every(params.accesses),
            );
        }
    }
    // A *private* cache, like `timeline`: sampling never enters content
    // keys, so the shared figure cache may hold unsampled twins of
    // these jobs — useless for a figure that reads the recorded series.
    let mut opts = SweepOptions::parallel(ctx.opts.workers);
    if let Some(trace) = &ctx.opts.trace {
        opts = opts.with_trace(Arc::clone(trace));
    }
    let result = sweep.run(&opts);
    ctx.absorb(result.stats);

    let reports: Vec<&RunReport> = result
        .results
        .iter()
        .map(|r| {
            r.as_deref()
                .unwrap_or_else(|e| panic!("multicore job failed: {e:?}"))
        })
        .collect();
    let mut table = FigureTable::new(
        "Multi-core scaling: aggregate IPC",
        "total instructions over the slowest core's cycles (contended N-core model)",
        MULTICORE_CONFIGS
            .iter()
            .map(|(l, _)| l.to_string())
            .collect(),
    )
    .without_geomean();
    for (&n, runs) in core_counts
        .iter()
        .zip(reports.chunks(MULTICORE_CONFIGS.len()))
    {
        table.push_row(
            format!("{n} core{}", if n == 1 { "" } else { "s" }),
            runs.iter().map(|r| r.aggregate_ipc()).collect(),
        );
    }
    vec![
        FigureOutput::Table(table),
        FigureOutput::Json {
            name: if smoke {
                "BENCH_multicore_smoke".to_string()
            } else {
                "BENCH_multicore".to_string()
            },
            body: multicore_document(params, core_counts, &reports),
        },
    ]
}

/// The multi-core scaling artifact: one row per `(core count,
/// configuration)`, from `reports` in sweep order (core counts outer,
/// [`MULTICORE_CONFIGS`] inner). Per-core IPC comes from each core's
/// own retire clock, not the aggregate max-over-cores cycle count
/// (which would understate every core but the slowest); the Markov
/// occupancy is the run's final interval sample. Carries no wall-clock
/// numbers, so its bytes are fully deterministic.
fn multicore_document(params: RunParams, core_counts: &[usize], reports: &[&RunReport]) -> Value {
    let cells = core_counts.iter().flat_map(|&n| {
        MULTICORE_CONFIGS
            .iter()
            .map(move |(config, _)| (n, *config))
    });
    let rows = cells.zip(reports).map(|((n_cores, config), report)| {
        let last = report
            .intervals
            .as_ref()
            .and_then(|s| s.samples.last())
            .expect("multicore jobs sample");
        Value::obj([
            ("n_cores", n_cores.into()),
            ("config", config.into()),
            ("core_ipc", report.cores.iter().map(|c| c.ipc()).collect()),
            ("aggregate_ipc", report.aggregate_ipc().into()),
            ("dram_reads", report.dram_reads().into()),
            ("dram_queue_delay", report.dram.total_queue_delay.into()),
            ("markov_occupancy", last.markov_occupancy.into()),
            ("markov_ways", report.markov_ways.into()),
        ])
    });
    Value::obj([
        ("schema", 1u64.into()),
        ("figure", "multicore".into()),
        (
            "sweep",
            format!(
                "MCF x {core_counts:?} cores x {{Baseline, Triangel-L0, Triangel}}, warmup {} + {} accesses per core",
                params.warmup, params.accesses
            )
            .into(),
        ),
        ("workload", SpecWorkload::Mcf.label().into()),
        ("rows", rows.collect()),
    ])
}

/// Extension study of the Set Dueller's bias B (Sec. 4.7, fn. 11): each
/// modelled Markov hit is worth `12 / B` cache hits. The paper uses
/// B = 2; B ∈ {1, 2, 4} exposes the speedup-for-traffic tradeoff.
pub(super) fn duel_bias(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    let biases = [1u32, 2, 4];
    let mut grid = GridSpec::new(ctx.params.run_params()).spec_rows();
    for b in biases {
        let mut cfg = TriangelConfig::paper_default();
        cfg.dueller_bias = b;
        cfg.sizing_window = ctx.params.sizing_window;
        grid = grid.labeled_column(format!("B={b}"), PrefetcherChoice::TriangelCustom(cfg));
    }
    let result = grid.run(&ctx.opts).unwrap_or_else(|e| panic!("{e}"));
    ctx.absorb(result.stats);
    tables(vec![
        result.table(
            "Dueller bias sweep: speedup",
            "IPC vs stride-only baseline (B=2 is the paper's default)",
            |c| c.speedup,
        ),
        result.table(
            "Dueller bias sweep: DRAM traffic",
            "line reads vs baseline",
            |c| c.dram_traffic,
        ),
    ])
}

/// Columns of the `traces` figure: the degree-matched Triage reference
/// and full Triangel.
const TRACES_CONFIGS: [PrefetcherChoice; 2] =
    [PrefetcherChoice::Triage, PrefetcherChoice::Triangel];

/// Resolves the `traces` figure's recorded-trace row:
/// `TRIANGEL_TRACE_FILE` when set (replay any ChampSim-style `.trc`
/// recording, e.g. one captured from a real program), otherwise a
/// deterministic smoke trace recorded from the ZipfKV generator into
/// the temp directory. The smoke recording is deliberately shorter
/// than the run it feeds (half the warm-up + measured length), so the
/// looping end-of-trace policy and its wrap accounting are exercised
/// on every smoke run, never just at full scale.
fn traces_trace_spec(params: RunParams) -> WorkloadSpec {
    if let Ok(path) = std::env::var("TRIANGEL_TRACE_FILE") {
        return WorkloadSpec::trace_file(&path)
            .unwrap_or_else(|e| panic!("TRIANGEL_TRACE_FILE `{path}`: {e}"));
    }
    let records = ((params.warmup + params.accesses) / 2).clamp(256, 1 << 20);
    let dir = std::env::temp_dir().join("triangel-traces-figure");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    // Seed and length in the name: distinct scales record distinct
    // files, and an existing file's content is exactly what this run
    // would record (the generator is deterministic), so reuse is safe
    // — `trace_file` re-validates the header either way.
    let path = dir.join(format!("smoke-s{}-r{records}.trc", params.seed));
    if let Ok(spec) = WorkloadSpec::trace_file(&path) {
        return spec;
    }
    let mut src = IrregularWorkload::ZipfKv.generator(params.seed);
    record_trace(&mut src, records, &path)
        .unwrap_or_else(|e| panic!("recording {}: {e}", path.display()));
    WorkloadSpec::trace_file(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `traces` figure: the four irregular workload families (zipfian
/// KV store, GC churn, hash join, web serving) plus a recorded-trace
/// replay row, each compared against its stride-only baseline under
/// the [`TRACES_CONFIGS`] columns. Emits speedup/accuracy tables and
/// the machine-readable `BENCH_traces.json`, whose trace row carries
/// the trace header's record count and checksum and the wrap
/// arithmetic.
pub(super) fn traces(ctx: &mut FigureContext) -> Vec<FigureOutput> {
    let params = ctx.params.run_params();
    let trace_spec = traces_trace_spec(params);
    let WorkloadSpec::TraceFile {
        records, checksum, ..
    } = trace_spec
    else {
        unreachable!("traces_trace_spec resolves a trace file");
    };
    let mut grid = GridSpec::new(params).columns(TRACES_CONFIGS);
    for wl in IrregularWorkload::ALL {
        grid = grid.row(WorkloadSpec::Irregular(wl));
    }
    grid = grid.row(trace_spec);
    let result = grid.run(&ctx.opts).unwrap_or_else(|e| panic!("{e}"));
    ctx.absorb(result.stats);

    let mut out = tables(vec![
        result.table(
            "Traces: irregular-family and recorded-trace speedup",
            "IPC relative to stride-only baseline",
            |c| c.speedup,
        ),
        result
            .table(
                "Traces: prefetch accuracy",
                "prefetched lines demand-used before L2 eviction",
                |c| c.accuracy,
            )
            .without_geomean(),
    ]);
    out.push(FigureOutput::Json {
        name: "BENCH_traces".into(),
        body: traces_document(
            params,
            result.row_labels(),
            result.col_labels(),
            (records, checksum),
            |r, c| result.comparison(r, c),
        ),
    });
    out
}

/// The `traces` artifact (`BENCH_traces.json`): every row but the last
/// comes from a generator; the last replays the recorded trace
/// `(records, checksum)` under the looping end-of-trace policy, so its
/// row carries that record count and checksum and the per-core access
/// count it replayed — the wrap arithmetic is evident in the artifact.
/// `comparison(row, col)` reads the grid. Carries no wall-clock
/// numbers, so its bytes are fully deterministic.
fn traces_document(
    params: RunParams,
    workloads: &[String],
    configs: &[String],
    (records, checksum): (u64, u64),
    comparison: impl Fn(usize, usize) -> Comparison,
) -> Value {
    let replayed = params.warmup + params.accesses;
    let rows = workloads.iter().enumerate().map(|(r, workload)| {
        let (source, trace) = if r + 1 < workloads.len() {
            ("generator", Value::Null)
        } else {
            let trace = Value::obj([
                ("records", records.into()),
                ("checksum", format!("{checksum:016x}").into()),
                ("replayed", replayed.into()),
                ("wraps", (replayed / records.max(1)).into()),
            ]);
            ("recorded", trace)
        };
        let cells = configs.iter().enumerate().map(|(c, config)| {
            let config = ("config", config.as_str().into());
            Value::obj(std::iter::once(config).chain(comparison_fields(comparison(r, c))))
        });
        Value::obj([
            ("workload", workload.as_str().into()),
            ("source", source.into()),
            ("trace", trace),
            ("cells", cells.collect()),
        ])
    });
    Value::obj([
        ("schema", 1u64.into()),
        ("figure", "traces".into()),
        (
            "sweep",
            format!(
                "4 irregular families + 1 recorded trace x {{Triage, Triangel}}, \
                 warmup {} + {} accesses each",
                params.warmup, params.accesses
            )
            .into(),
        ),
        ("rows", rows.collect()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use triangel_obs::IntervalSample;
    use triangel_sim::CoreReport;

    // Every expected document below is the byte-exact output of the
    // per-figure writers this module replaced, for the same input.

    fn comparison(speedup: f64, accuracy: f64, coverage: f64, dram_traffic: f64) -> Comparison {
        Comparison {
            speedup,
            dram_traffic,
            accuracy,
            coverage,
            l3_accesses: 0.0,
            energy: 0.0,
            energy_dram_fraction: 0.0,
        }
    }

    #[test]
    fn features_document_bytes() {
        let doc = features_document(FEATURES_PARAMS, &["Xalan".into()], 1, |_, c| {
            comparison(if c == 0 { 1.0 } else { 1.25 }, 0.5, 0.25, 1.0)
        });
        assert_eq!(
            doc.to_string(),
            concat!(
                r#"{"schema":1,"figure":"features","sweep":"7 SPEC workloads x 9 ladder steps x {-, +EvictTrain}, "#,
                r#"warmup 25000 + 25000 accesses each","rows":[{"workload":"Xalan","steps":["#,
                r#"{"step":0,"label":"Triage-Deg-4","#,
                r#""off":{"speedup":1.0,"accuracy":0.5,"coverage":0.25,"dram_traffic":1.0},"#,
                r#""on":{"speedup":1.25,"accuracy":0.5,"coverage":0.25,"dram_traffic":1.0}}]}]}"#,
            )
        );
    }

    #[test]
    fn traces_document_bytes() {
        let params = RunParams {
            warmup: 1250,
            accesses: 1250,
            ..FEATURES_PARAMS
        };
        let doc = traces_document(
            params,
            &["ZipfKV".into(), "smoke.trc".into()],
            &["Triangel".into()],
            (1000, 0xabcd),
            |_, _| comparison(1.5, 0.75, 0.5, 1.125),
        );
        let cells = r#""cells":[{"config":"Triangel","speedup":1.5,"accuracy":0.75,"coverage":0.5,"dram_traffic":1.125}]"#;
        assert_eq!(
            doc.to_string(),
            [
                r#"{"schema":1,"figure":"traces","sweep":"4 irregular families + 1 recorded trace x {Triage, Triangel}, "#,
                r#"warmup 1250 + 1250 accesses each","rows":["#,
                r#"{"workload":"ZipfKV","source":"generator","trace":null,"#,
                cells,
                r#"},{"workload":"smoke.trc","source":"recorded","#,
                r#""trace":{"records":1000,"checksum":"000000000000abcd","replayed":2500,"wraps":2},"#,
                cells,
                "}]}",
            ]
            .concat()
        );
    }

    #[test]
    fn timeline_points_and_document_bytes() {
        let sample = |end: u64, instr: u64, cyc: u64, misses: u64, used: u64| IntervalSample {
            end_access: end,
            instructions: instr,
            cycles: cyc,
            l2_demand_hits: end,
            l2_demand_misses: misses,
            prefetches_issued: used * 2,
            temporal_used: used,
            temporal_wasted: used / 2,
            markov_occupancy: 100,
            markov_ways: 4,
            desired_ways: 6,
            ..Default::default()
        };
        let baseline = IntervalSeries {
            every: 100,
            samples: vec![sample(100, 400, 200, 80, 0), sample(200, 800, 400, 160, 0)],
        };
        let triangel = IntervalSeries {
            every: 100,
            samples: vec![
                sample(100, 500, 200, 40, 10),
                sample(200, 1000, 400, 80, 20),
            ],
        };
        let base_points = timeline_points(&baseline, None);
        let points = timeline_points(&triangel, Some(&baseline));
        assert_eq!(base_points[0].coverage_so_far, 0.0);
        // 40 of the baseline's 80 cumulative misses eliminated.
        assert!((points[0].coverage_so_far - 0.5).abs() < 1e-12);
        assert!((points[1].coverage_so_far - 0.5).abs() < 1e-12);
        assert!((points[1].window.ipc - 2.5).abs() < 1e-12);

        let doc = timeline_document(
            FEATURES_PARAMS,
            &[("MCF", vec![("Baseline", base_points), ("Triangel", points)])],
        );
        let base = |end: u64| {
            format!(
                r#"{{"end_access":{end},"ipc":2.0,"l2_miss_rate":0.4444444444444444,"issued":0,"useful":0,"wasted":0,"accuracy_so_far":0.0,"coverage_so_far":0.0,"markov_occupancy":100,"markov_ways":4,"desired_ways":6}}"#
            )
        };
        let tri = |end: u64| {
            format!(
                r#"{{"end_access":{end},"ipc":2.5,"l2_miss_rate":0.2857142857142857,"issued":20,"useful":10,"wasted":5,"accuracy_so_far":0.6666666666666666,"coverage_so_far":0.5,"markov_occupancy":100,"markov_ways":4,"desired_ways":6}}"#
            )
        };
        assert_eq!(
            doc.to_string(),
            format!(
                concat!(
                    r#"{{"schema":1,"figure":"timeline","sweep":"{{MCF, Astar, Omnetpp}} x "#,
                    r#"{{Baseline, Triangel-L0, Triangel-L0+EvictTrain}}, warmup 25000 + 25000 accesses, "#,
                    r#"sampled every 2500","every":2500,"rows":[{{"workload":"MCF","series":["#,
                    r#"{{"config":"Baseline","points":[{},{}]}},"#,
                    r#"{{"config":"Triangel","points":[{},{}]}}]}}]}}"#,
                ),
                base(100),
                base(200),
                tri(100),
                tri(200),
            )
        );
    }

    #[test]
    fn multicore_document_bytes() {
        let report = |dram_reads: u64, queue_delay: u64, occupancy: u64, ways: usize| {
            let mut report = RunReport {
                workload: "MCF".into(),
                cores: [125, 100, 75, 50]
                    .into_iter()
                    .map(|instructions| CoreReport {
                        workload: "MCF".into(),
                        pf_name: String::new(),
                        instructions,
                        cycles: 100,
                        l2: Default::default(),
                        core: Default::default(),
                        pf: Default::default(),
                    })
                    .collect(),
                l3: Default::default(),
                dram: Default::default(),
                markov_ways: ways,
                intervals: Some(IntervalSeries {
                    every: FEATURES_PARAMS.accesses,
                    samples: vec![IntervalSample {
                        markov_occupancy: occupancy,
                        ..Default::default()
                    }],
                }),
            };
            report.dram.demand_reads = dram_reads;
            report.dram.total_queue_delay = queue_delay;
            report
        };
        let reports = [
            report(1000, 40, 0, 0),
            report(5000, 900, 4096, 4),
            report(3000, 500, 2048, 2),
        ];
        let doc = multicore_document(FEATURES_PARAMS, &[4], &reports.iter().collect::<Vec<_>>());
        let row = |config: &str, dram: u64, delay: u64, occupancy: u64, ways: u64| {
            format!(
                r#"{{"n_cores":4,"config":"{config}","core_ipc":[1.25,1.0,0.75,0.5],"aggregate_ipc":3.5,"dram_reads":{dram},"dram_queue_delay":{delay},"markov_occupancy":{occupancy},"markov_ways":{ways}}}"#
            )
        };
        assert_eq!(
            doc.to_string(),
            format!(
                concat!(
                    r#"{{"schema":1,"figure":"multicore","sweep":"MCF x [4] cores x "#,
                    r#"{{Baseline, Triangel-L0, Triangel}}, warmup 25000 + 25000 accesses per core","#,
                    r#""workload":"MCF","rows":[{},{},{}]}}"#,
                ),
                row("Baseline", 1000, 40, 0, 0),
                row("Triangel-L0", 5000, 900, 4096, 4),
                row("Triangel", 3000, 500, 2048, 2),
            )
        );
    }
}
