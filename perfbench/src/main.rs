//! `perfbench`: the repository's benchmark of the Triangel simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <spec_sweep|irregular_stride|mix4_contended> \
//!     --seed <n> --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! One process, serial. A run sets up the workload a few times, runs
//! one pass at each pinned seed to check its fingerprints, then runs
//! whole passes over its cells at `--seed` until `--seconds` have
//! elapsed, setting up once more after each. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced passes
//! and reports the per-layer metrics, writing the spans as a Chrome
//! trace. Every metric is printed as `metric <name> <value> <unit>`; the
//! last line is one JSON object with `correct`, `attempted`, `failed`
//! and the mode's `metrics`. The exit code is 1 when any cell failed,
//! 2 on a usage error. See `README.md` for the metrics' definitions.
//!
//! `--bless` re-pins the workload's fingerprints at both pinned seeds
//! into `fingerprints.tsv` instead of measuring.

mod cell;
mod layers;
mod pins;
mod probe;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use triangel_obs::json::{escape, fmt_f64};
use triangel_obs::{TraceArg, TraceBuffer};

use cell::{build_session, run_cell, CellRun};
use pins::Pins;
use probe::HostProbe;
use workloads::{CellSpec, Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// Set-up repetitions before the first pass (more follow each pass).
const SETUP_REPS: usize = 3;
/// Passes a run measures at least, so every run can check that its
/// passes agree.
const MIN_PASSES: usize = 2;

const USAGE: &str = "usage: perfbench --workload <spec_sweep|irregular_stride|mix4_contended> \
                     [--seed N] [--seconds S] [--trace 0|1] [--bless]";

/// What the simulated numbers are and are not.
const MODEL_NOTE: &str = "simulated metrics come from an unvalidated model: the workload \
     generators are synthetic stand-ins, and the paper's +26.4% speedup at +10% DRAM traffic \
     is context, not a reference";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut bless = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(bad)?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !seconds.is_finite() || seconds < 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("`--workload` is required")?,
        seed,
        seconds,
        trace,
        bless,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let result = if args.bless {
        bless(&args, dir)
    } else {
        run(&args, dir)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One pass over a workload's cells.
#[derive(Debug)]
struct Pass {
    seed: u64,
    traced: bool,
    cells: Vec<Result<CellRun, String>>,
    wall_s: f64,
    /// Of `wall_s`, seconds in the host-speed probe.
    probe_s: f64,
}

impl Pass {
    fn ok(&self) -> impl Iterator<Item = &CellRun> {
        self.cells.iter().filter_map(|c| c.as_ref().ok())
    }

    /// Host seconds in `run_segment`, summed over the pass's cells.
    fn run_s(&self) -> f64 {
        self.ok().map(CellRun::run_s).sum()
    }

    /// [`Pass::run_s`] read at the reference host speed: scaled by the
    /// median of the probe samples taken between the pass's chunks.
    fn reference_run_s(&self) -> f64 {
        let samples: Vec<f64> = self.ok().flat_map(|c| c.probe_s.iter().copied()).collect();
        probe::at_reference(self.run_s(), &samples)
    }
}

/// Runs every cell once, catching errors and panics per cell; each
/// cell samples the host-speed probe between its chunks.
fn run_pass(
    seed: u64,
    specs: &[CellSpec],
    trace: Option<&TraceBuffer>,
    probe: &mut HostProbe,
) -> Pass {
    let start = trace.map(TraceBuffer::now_us);
    let t0 = Instant::now();
    let probe_before = probe.spent_s();
    let cells = specs
        .iter()
        .map(|spec| {
            catch_unwind(AssertUnwindSafe(|| run_cell(spec, trace, probe)))
                .unwrap_or_else(|p| {
                    let msg = p
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default();
                    Err(format!("panicked: {msg}"))
                })
                .map_err(|e| format!("{}: {e}", spec.label()))
        })
        .collect();
    if let (Some(tb), Some(start)) = (trace, start) {
        tb.complete(
            "pass",
            "bench",
            start,
            vec![("seed".to_string(), TraceArg::U64(seed))],
        );
    }
    Pass {
        seed,
        traced: trace.is_some(),
        cells,
        wall_s: t0.elapsed().as_secs_f64(),
        probe_s: probe.spent_s() - probe_before,
    }
}

/// One set-up of the workload: preparation plus the construction of
/// every cell's session (dropped again).
#[derive(Debug)]
struct SetUp {
    specs: Vec<CellSpec>,
    recorded: Option<PathBuf>,
    setup_s: f64,
    /// `setup_s` read at the reference host speed, by probe samples
    /// taken right after the set-up.
    reference_s: f64,
    record_s: Option<f64>,
}

/// Probe samples taken after each set-up.
const SETUP_PROBES: usize = 3;

fn set_up(
    wl: Workload,
    seed: u64,
    out: &Path,
    tb: Option<&TraceBuffer>,
    probe: &mut HostProbe,
) -> Result<SetUp, String> {
    let start = tb.map(TraceBuffer::now_us);
    let t0 = Instant::now();
    let recorded = wl.prepare(seed, out)?;
    let record_s = recorded.as_ref().map(|_| t0.elapsed().as_secs_f64());
    let specs = wl.cells(seed, recorded.as_deref());
    for spec in &specs {
        // A cell that cannot be built fails (and is counted) in every
        // pass; set-up only times the construction.
        let _ = catch_unwind(AssertUnwindSafe(|| build_session(spec, None)));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    if let (Some(tb), Some(start)) = (tb, start) {
        tb.complete("workload_setup", "bench", start, Vec::new());
    }
    let samples: Vec<f64> = (0..SETUP_PROBES).map(|_| probe.sample()).collect();
    Ok(SetUp {
        specs,
        recorded,
        setup_s,
        reference_s: probe::at_reference(setup_s, &samples),
        record_s,
    })
}

/// Prepares the workload at `seed` and lists its cells.
fn prepare(
    wl: Workload,
    seed: u64,
    out: &Path,
) -> Result<(Vec<CellSpec>, Option<PathBuf>), String> {
    let recorded = wl.prepare(seed, out)?;
    Ok((wl.cells(seed, recorded.as_deref()), recorded))
}

fn bless(args: &Args, dir: &Path) -> Result<ExitCode, String> {
    let out = out_dir(dir)?;
    let path = dir.join("fingerprints.tsv");
    let mut pins = Pins::load(&path)?;
    let name = args.workload.name();
    let mut probe = HostProbe::new();
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let (specs, recorded) = prepare(args.workload, seed, &out)?;
        let a = run_pass(seed, &specs, None, &mut probe);
        let b = run_pass(seed, &specs, None, &mut probe);
        remove(recorded);
        let mut runs = Vec::new();
        for (x, y) in a.cells.into_iter().zip(b.cells) {
            let (x, y) = (x?, y?);
            if cell::fingerprint(&x, None) != cell::fingerprint(&y, None) {
                return Err(format!("{}: two passes disagree; refusing to pin", x.label));
            }
            runs.push(x);
        }
        pins.bless(name, seed, &runs);
        println!("pinned {} cell(s) of {name} at seed {seed}", runs.len());
    }
    pins.save(&path)?;
    Ok(ExitCode::SUCCESS)
}

fn out_dir(dir: &Path) -> Result<PathBuf, String> {
    let out = dir.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("creating `{}`: {e}", out.display()))?;
    Ok(out)
}

fn remove(recorded: Option<PathBuf>) {
    if let Some(p) = recorded {
        let _ = std::fs::remove_file(p);
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per cell position, the median of `f` over the passes' successful
/// runs of that cell.
fn cell_medians(passes: &[&Pass], f: impl Fn(&CellRun) -> f64) -> Vec<f64> {
    let n = passes.first().map_or(0, |p| p.cells.len());
    (0..n)
        .map(|i| {
            median(
                &passes
                    .iter()
                    .filter_map(|p| p.cells[i].as_ref().ok())
                    .map(&f)
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's standard output, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn run(args: &Args, dir: &Path) -> Result<ExitCode, String> {
    let wl = args.workload;
    let name = wl.name();
    let out = out_dir(dir)?;
    let pins = Pins::load(&dir.join("fingerprints.tsv"))?;
    let trace = args.trace.then(TraceBuffer::new);
    let tb = trace.as_ref();
    let mut probe = HostProbe::new();

    // Set-up, repeated: `setup_s` is the median. A few repetitions run
    // up front and one more after every measured pass, so the samples
    // spread over the run like the passes do.
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        setups.push(set_up(wl, args.seed, &out, tb, &mut probe)?);
    }
    let specs = setups[0].specs.clone();
    // The pinned seeds' passes, the correctness gate, run first: they
    // also take the first-touch cost of the sessions' memory, which
    // would otherwise land on the first measured pass.
    let mut passes = Vec::new();
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        if seed != args.seed {
            let (gate_specs, rec) = prepare(wl, seed, &out)?;
            passes.push(run_pass(seed, &gate_specs, None, &mut probe));
            remove(rec);
        }
    }
    let gate_passes = passes.len();

    // Measurement: whole passes until the time is up; a traced run
    // alternates untraced and traced passes.
    let t0 = Instant::now();
    while passes.len() - gate_passes < MIN_PASSES || t0.elapsed().as_secs_f64() < args.seconds {
        passes.push(run_pass(args.seed, &specs, None, &mut probe));
        if tb.is_some() {
            passes.push(run_pass(args.seed, &specs, tb, &mut probe));
        }
        setups.push(set_up(wl, args.seed, &out, tb, &mut probe)?);
    }
    let setup_samples: Vec<f64> = setups.iter().map(|s| s.setup_s).collect();
    let reference_setup_samples: Vec<f64> = setups.iter().map(|s| s.reference_s).collect();
    let record_samples: Vec<f64> = setups.iter().filter_map(|s| s.record_s).collect();
    let recorded = setups.pop().and_then(|s| s.recorded);

    // Correctness: errors, disagreement between passes of one seed, and
    // mismatches against the pins.
    let mut problems = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut reference: std::collections::HashMap<(u64, String), u64> = Default::default();
    for pass in &passes {
        for cell in &pass.cells {
            attempted += 1;
            let run = match cell {
                Ok(r) => r,
                Err(e) => {
                    failed += 1;
                    problems.push(format!("seed {} {e}", pass.seed));
                    continue;
                }
            };
            let fp = pins.fingerprint(name, run);
            let first = *reference
                .entry((pass.seed, run.label.clone()))
                .or_insert(fp);
            let pinned = [DEFAULT_SEED, HELD_OUT_SEED].contains(&pass.seed);
            let problem = if fp != first {
                Some(format!(
                    "differs from an earlier pass ({fp:016x} vs {first:016x})"
                ))
            } else if !pinned {
                None
            } else {
                match pins.get(name, pass.seed, &run.label) {
                    Some(p) if p == fp => None,
                    Some(p) => Some(format!("fingerprint {fp:016x}, pinned {p:016x}")),
                    None => Some("no pinned fingerprint".to_string()),
                }
            };
            if let Some(p) = problem {
                failed += 1;
                problems.push(format!("seed {} {}: {p}", pass.seed, run.label));
            }
        }
    }

    let untraced: Vec<&Pass> = passes[gate_passes..].iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes[gate_passes..].iter().filter(|p| p.traced).collect();
    let first: Vec<&CellRun> = untraced[0].ok().collect();

    // The layer each workload exists to exercise must still run.
    for gate in layer_gates(wl, &first) {
        failed += 1;
        problems.push(gate);
    }

    let accesses: Vec<f64> = specs.iter().map(|s| s.total_accesses() as f64).collect();
    let total_accesses: f64 = accesses.iter().sum();
    // Host times are read at the reference host speed (see `probe.rs`),
    // pass by pass, and the median pass is taken; the raw figures are
    // reported beside them.
    let rate = |ps: &[&Pass], f: fn(&Pass) -> f64| {
        total_accesses / median(&ps.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let raw_rate = rate(&untraced, Pass::run_s);
    let reference_rate = rate(&untraced, Pass::reference_run_s);
    let host = [
        ("probe_samples", probe.samples() as f64),
        ("slowdown", raw_rate.recip() * reference_rate),
        ("raw_accesses_per_s", raw_rate),
        ("raw_setup_s", median(&setup_samples)),
    ];

    let metrics = if args.trace {
        per_layer(
            &specs,
            &first,
            &untraced,
            &traced,
            &record_samples,
            reference_rate,
            rate(&traced, Pass::reference_run_s),
        )
    } else {
        Ok(end_to_end(
            &first,
            reference_rate,
            median(&reference_setup_samples),
        ))
    };
    remove(recorded);
    let metrics = metrics?;

    // Provenance, printed and recorded with every output.
    let provenance = [
        ("workload", name.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("commit", command_line("git", &["rev-parse", "HEAD"])),
        ("rustc", command_line("rustc", &["-V"])),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cells_per_pass", specs.len().to_string()),
        (
            "accesses_per_cell",
            specs
                .first()
                .map_or(0, CellSpec::total_accesses)
                .to_string(),
        ),
        ("measured_passes", untraced.len().to_string()),
        ("traced_passes", traced.len().to_string()),
        ("setup_reps", setup_samples.len().to_string()),
    ];
    for (k, v) in &provenance {
        println!("provenance {k} {v}");
    }
    for (k, v) in &host {
        println!("host {k} {}", fmt_f64(*v));
    }
    println!("note {MODEL_NOTE}");
    for p in &problems {
        println!("problem {p}");
        eprintln!("perfbench: {p}");
    }
    for metric in &metrics {
        println!(
            "metric {} {} {}",
            metric.name,
            fmt_f64(metric.value),
            metric.unit
        );
    }
    println!("metric cells {attempted} count");
    println!("metric cells_failed {failed} count");

    let provenance_json = format!(
        "{{{}}}",
        provenance
            .iter()
            .map(|(k, v)| format!("{}:{}", escape(k), escape(v)))
            .collect::<Vec<_>>()
            .join(",")
    );
    let host_json = format!(
        "{{{}}}",
        host.iter()
            .map(|(k, v)| format!("{}:{}", escape(k), fmt_f64(*v)))
            .collect::<Vec<_>>()
            .join(",")
    );
    let metrics_json = format!(
        "{{{}}}",
        metrics
            .iter()
            .map(|m| format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                escape(m.name),
                fmt_f64(m.value),
                escape(m.unit)
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    let cells_json = first
        .iter()
        .map(|c| {
            format!(
                "{{\"cell\":{},\"fingerprint\":\"{:016x}\",\"markov_occupancy\":{},\"build_s\":{},\"run_s\":{}}}",
                escape(&c.label),
                pins.fingerprint(name, c),
                c.occupancy,
                fmt_f64(c.build_s),
                fmt_f64(c.run_s())
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let stem = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
    let report = format!(
        "{{\"provenance\":{provenance_json},\"host\":{host_json},\"note\":{},\"problems\":[{}],\"metrics\":{metrics_json},\"cells\":[{cells_json}]}}\n",
        escape(MODEL_NOTE),
        problems.iter().map(|p| escape(p)).collect::<Vec<_>>().join(","),
    );
    write(&out.join(format!("{stem}.json")), &report)?;
    if let Some(tb) = tb {
        tb.instant(
            "provenance",
            "bench",
            provenance
                .iter()
                .map(|(k, v)| (k.to_string(), TraceArg::Str(v.clone())))
                .collect(),
        );
        write(&out.join(format!("{stem}.trace.json")), &tb.to_json())?;
    }

    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics_json}}}",
        failed == 0
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write(path: &Path, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("writing `{}`: {e}", path.display()))
}

/// The checks that a workload still exercises the layer it was chosen
/// for; each returned string is one failed check.
fn layer_gates(wl: Workload, cells: &[&CellRun]) -> Vec<String> {
    let mut failed = Vec::new();
    let triangel = || cells.iter().filter(|c| c.config == "Triangel");
    match wl {
        Workload::SpecSweep => {
            let filled = triangel().filter(|c| c.occupancy > 0).count();
            if filled < 5 {
                failed.push(format!(
                    "gate: Triangel's Markov table filled on {filled}/7 SPEC rows (need 5)"
                ));
            }
        }
        Workload::IrregularStride => {}
        Workload::Mix4Contended => {
            for c in cells {
                if c.contention.l3_banks == 0 || !c.contention.cycle_ordered {
                    failed.push(format!(
                        "gate: {} ran without L3 bank arbitration or cycle-ordered stepping",
                        c.label
                    ));
                }
            }
            if triangel().all(|c| c.report.markov_ways == 0) {
                failed
                    .push("gate: Triangel's shared Markov partition stayed at 0 ways".to_string());
            }
        }
    }
    let wraps = trace_wraps(cells);
    if wraps > 0 {
        failed.push(format!("gate: recorded traces wrapped {wraps} time(s)"));
    }
    failed
}

fn trace_wraps(cells: &[&CellRun]) -> u64 {
    cells
        .iter()
        .flat_map(|c| c.probes.entries())
        .filter(|(n, _)| n.ends_with(".trace.wraps"))
        .map(|(_, v)| v)
        .sum()
}

/// Sum that reads 0 (not -0) when empty.
fn total(v: impl Iterator<Item = f64>) -> f64 {
    v.fold(0.0, |a, b| a + b)
}

/// Ratio with a zero denominator reading as 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Triangel-over-Baseline comparisons, pairing cells by row: the
/// geomean of per-row, per-core IPC ratios, the ratio of summed DRAM
/// reads, and coverage (the share of Baseline L2 demand misses removed).
fn versus_baseline(cells: &[&CellRun]) -> (f64, f64, f64) {
    let (mut log_sum, mut n) = (0.0, 0usize);
    let (mut dram, mut base_dram, mut misses, mut base_misses) = (0.0, 0.0, 0.0, 0.0);
    for t in cells.iter().filter(|c| c.config == "Triangel") {
        let Some(b) = cells
            .iter()
            .find(|c| c.config == "Baseline" && c.row == t.row)
        else {
            continue;
        };
        for (tc, bc) in t.report.cores.iter().zip(&b.report.cores) {
            log_sum += (tc.ipc() / bc.ipc()).ln();
            n += 1;
        }
        dram += t.report.dram_reads() as f64;
        base_dram += b.report.dram_reads() as f64;
        misses += t.report.l2_demand_misses() as f64;
        base_misses += b.report.l2_demand_misses() as f64;
    }
    let speedup = if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    };
    (
        speedup,
        ratio(dram, base_dram),
        1.0 - ratio(misses, base_misses),
    )
}

fn end_to_end(first: &[&CellRun], accesses_per_s: f64, setup_s: f64) -> Vec<Metric> {
    let (speedup, traffic, _) = versus_baseline(first);
    vec![
        m("accesses_per_s", accesses_per_s, "1/s"),
        m("setup_s", setup_s, "s"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
        m("ipc_speedup", speedup, "ratio"),
        m("dram_traffic", traffic, "ratio"),
    ]
}

fn per_layer(
    specs: &[CellSpec],
    first: &[&CellRun],
    untraced: &[&Pass],
    traced: &[&Pass],
    record_samples: &[f64],
    untraced_rate: f64,
    traced_rate: f64,
) -> Result<Vec<Metric>, String> {
    let accesses: f64 = specs.iter().map(|s| s.total_accesses() as f64).sum();
    let all: Vec<&Pass> = untraced.iter().chain(traced).copied().collect();

    // Host time, from the traced passes (per-cell medians).
    let self_s: f64 = cell_medians(traced, CellRun::sim_self_s).iter().sum();
    let fill_s: f64 = cell_medians(traced, |c| c.warmup_fill_s + c.measured_fill_s)
        .iter()
        .sum();
    let run_s: f64 = cell_medians(traced, CellRun::run_s).iter().sum();
    let measured_self_s = cell_medians(traced, |c| c.measured_s - c.measured_fill_s);
    let setup_ms = median(
        &all.iter()
            .map(|p| p.ok().map(|c| c.build_s).sum::<f64>() * 1e3)
            .collect::<Vec<_>>(),
    );
    let overhead_s = median(
        &untraced
            .iter()
            .map(|p| p.wall_s - p.probe_s - p.ok().map(|c| c.build_s + c.run_s()).sum::<f64>())
            .collect::<Vec<_>>(),
    );
    let wall = cell_medians(untraced, |c| c.build_s + c.run_s());
    let config_wall = |config: &str| -> f64 {
        total(
            specs
                .iter()
                .zip(&wall)
                .filter(|(s, _)| s.choice.label() == config)
                .map(|(_, w)| *w),
        )
    };
    let base_wall = config_wall("Baseline");

    // Per-op costs on the replayed streams (one cell per row), and the
    // cost model over every cell's measured phase.
    let mut rows: Vec<&CellSpec> = Vec::new();
    for s in specs {
        if !rows.iter().any(|r| r.row == s.row) {
            rows.push(s);
        }
    }
    let costs = layers::measure(&rows)?;
    let mut model = layers::ModelSeconds::default();
    for (c, spec) in untraced[0].cells.iter().zip(specs) {
        if let Ok(c) = c {
            model.add(&layers::model(&costs, c, spec.accesses));
        }
    }
    let measured_self: f64 = measured_self_s.iter().sum();

    // Exact counts, summed over Triangel cells.
    let tri: Vec<&CellRun> = first
        .iter()
        .copied()
        .filter(|c| c.config == "Triangel")
        .collect();
    let sum = |f: &dyn Fn(&CellRun) -> u64| tri.iter().map(|c| f(c)).sum::<u64>() as f64;
    let cores =
        |f: &dyn Fn(&triangel_sim::CoreReport) -> u64| sum(&|c| c.report.cores.iter().map(f).sum());
    let l2_acc = cores(&|c| c.l2.demand_accesses());
    let l2_hits = cores(&|c| c.l2.demand_hits);
    let dropped = cores(&|c| c.core.prefetches_dropped);
    let l3_pf = sum(&|c| c.report.l3.prefetch_lookups);
    let reads = cores(&|c| c.pf.markov_reads);
    let mrb = cores(&|c| c.pf.mrb_hits);
    let used = cores(&|c| c.core.temporal_used);
    let wasted = cores(&|c| c.core.temporal_wasted);
    let (_, _, coverage) = versus_baseline(first);

    Ok(vec![
        m("harness.overhead_s", overhead_s, "s"),
        m("sim.ns_per_access", (self_s / accesses) * 1e9, "ns"),
        m("sim.setup_ms", setup_ms, "ms"),
        m("sim.measured_self_s", measured_self, "s"),
        m(
            "workloads.fill_ns_per_access",
            (fill_s / accesses) * 1e9,
            "ns",
        ),
        m("workloads.fill_share", ratio(fill_s, run_s), "ratio"),
        m("workloads.record_s", median(record_samples), "s"),
        m("workloads.trace_wraps", trace_wraps(first) as f64, "count"),
        m("l2.demand_accesses", l2_acc, "count"),
        m("l2.demand_misses", cores(&|c| c.l2.demand_misses), "count"),
        m("l2.hit_ratio", ratio(l2_hits, l2_acc), "ratio"),
        m("l2.fills", cores(&|c| c.l2.fills), "count"),
        m("l2.evictions", cores(&|c| c.l2.evictions), "count"),
        m(
            "l3.demand_accesses",
            sum(&|c| c.report.l3.demand_accesses()),
            "count",
        ),
        m(
            "l3.demand_misses",
            sum(&|c| c.report.l3.demand_misses),
            "count",
        ),
        m("l3.prefetch_lookups", l3_pf, "count"),
        m("cache.l1_access_ns", costs.l1_access_ns, "ns"),
        m("cache.l2_access_ns", costs.l2_access_ns, "ns"),
        m("cache.l3_access_ns", costs.l3_access_ns, "ns"),
        m("cache.fill_ns", costs.fill_ns, "ns"),
        m("paging.translate_ns", costs.translate_ns, "ns"),
        m("mshr.prefetches_dropped", dropped, "count"),
        m("mshr.drop_ratio", ratio(dropped, dropped + l3_pf), "ratio"),
        m("mshr.op_ns", costs.mshr_op_ns, "ns"),
        m("dram.reads", sum(&|c| c.report.dram_reads()), "count"),
        m(
            "dram.demand_reads",
            sum(&|c| c.report.dram.demand_reads),
            "count",
        ),
        m(
            "dram.prefetch_reads",
            sum(&|c| c.report.dram.prefetch_reads),
            "count",
        ),
        m(
            "dram.queue_delay_cycles",
            sum(&|c| c.report.dram.total_queue_delay),
            "cycles",
        ),
        m(
            "dram.congested_requests",
            sum(&|c| c.report.dram.congested_requests),
            "count",
        ),
        m("dram.request_ns", costs.dram_request_ns, "ns"),
        m("stride.handle_ns", costs.stride_handle_ns, "ns"),
        m("markov.reads", reads, "count"),
        m("markov.writes", cores(&|c| c.pf.markov_writes), "count"),
        m("markov.mrb_hits", mrb, "count"),
        m("markov.mrb_hit_ratio", ratio(mrb, mrb + reads), "ratio"),
        m("markov.occupancy", sum(&|c| c.occupancy), "entries"),
        m("markov.ways", sum(&|c| c.report.markov_ways as u64), "ways"),
        m("markov.lookup_ns", costs.markov_lookup_ns, "ns"),
        m("markov.insert_ns", costs.markov_insert_ns, "ns"),
        m(
            "temporal.issued",
            cores(&|c| c.pf.prefetches_issued),
            "count",
        ),
        m("temporal.fills", cores(&|c| c.core.temporal_fills), "count"),
        m("temporal.used", used, "count"),
        m("temporal.wasted", wasted, "count"),
        m("temporal.accuracy", ratio(used, used + wasted), "ratio"),
        m("temporal.coverage", coverage, "ratio"),
        m("core.sampler_ns", costs.sampler_ns, "ns"),
        m(
            "temporal.cell_cost_ratio",
            ratio(config_wall("Triangel"), base_wall),
            "ratio",
        ),
        m(
            "triage.cell_cost_ratio",
            ratio(config_wall("Triage-Deg4"), base_wall),
            "ratio",
        ),
        m("trace.overhead", ratio(traced_rate, untraced_rate), "ratio"),
        m("model.paging_s", model.paging, "s"),
        m("model.cache_s", model.cache, "s"),
        m("model.mshr_s", model.mshr, "s"),
        m("model.dram_s", model.dram, "s"),
        m("model.stride_s", model.stride, "s"),
        m("model.markov_s", model.markov, "s"),
        m("model.sampler_s", model.sampler, "s"),
        m(
            "model.explained_share",
            ratio(model.total(), measured_self),
            "ratio",
        ),
        m("model.residual_s", measured_self - model.total(), "s"),
    ])
}
