//! Running one cell: session construction, chunked `run_segment`
//! calls timed from outside, the fill-timing source wrapper and trace
//! spans of a traced run, and the cell's fingerprint.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use triangel_obs::{ProbeSet, TraceArg, TraceBuffer};
use triangel_sim::{ContentionConfig, RunReport, SimSession};
use triangel_types::snap::{SnapError, SnapReader, SnapWriter};
use triangel_workloads::trace::TraceReplayStats;
use triangel_workloads::{AccessRing, MemoryAccess, TraceSource};

use crate::probe::HostProbe;
use crate::workloads::{CellSpec, SIZING_WINDOW};

/// Accesses per core per `run_segment` call. Chunking is
/// behaviour-invisible (the session's own contract); it bounds how
/// coarse a traced run's spans are.
const CHUNK: u64 = 50_000;

/// Forwards every call to the wrapped source and adds the host time of
/// each `fill` into a shared counter — how a traced run separates trace
/// generation (or decoding) from the simulator that consumes it.
#[derive(Debug)]
struct TimedSource {
    inner: Box<dyn TraceSource + Send>,
    fill_ns: Arc<AtomicU64>,
}

impl TraceSource for TimedSource {
    fn next_access(&mut self) -> MemoryAccess {
        self.inner.next_access()
    }

    fn fill(&mut self, ring: &mut AccessRing) -> usize {
        let t0 = Instant::now();
        let n = self.inner.fill(ring);
        // A statistic read after the session has run: no ordering needed.
        self.fill_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        n
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.inner.save_state(w)
    }

    fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.inner.restore_state(r)
    }

    fn replay_stats(&self) -> Option<TraceReplayStats> {
        self.inner.replay_stats()
    }
}

/// Builds the cell's session; with `fill_ns` set, every source is
/// wrapped in a [`TimedSource`] adding into it.
pub fn build_session(
    spec: &CellSpec,
    fill_ns: Option<&Arc<AtomicU64>>,
) -> Result<SimSession, String> {
    let mut b = SimSession::builder()
        .system(spec.system.clone())
        .prefetcher(spec.choice)
        .warmup(spec.warmup)
        .accesses(spec.accesses)
        .sizing_window(SIZING_WINDOW)
        .label(spec.row.clone());
    for (source, seed) in &spec.sources {
        let inner = source.build(*seed)?;
        b = b.boxed_workload(match fill_ns {
            Some(counter) => Box::new(TimedSource {
                inner,
                fill_ns: Arc::clone(counter),
            }),
            None => inner,
        });
    }
    b.build().map_err(|e| e.to_string())
}

/// One finished cell.
#[derive(Debug)]
pub struct CellRun {
    /// `row/config`.
    pub label: String,
    /// Temporal-prefetcher label (`Baseline`, `Triage-Deg4`, `Triangel`).
    pub config: String,
    /// Workload row.
    pub row: String,
    /// The measurement report.
    pub report: RunReport,
    /// The memory hierarchy's named counters at the end of the run.
    pub probes: ProbeSet,
    /// Markov-table occupancy in entries, summed over cores.
    pub occupancy: u64,
    /// The contention model the memory system ran with.
    pub contention: ContentionConfig,
    /// Host seconds constructing the session (sources included).
    pub build_s: f64,
    /// The host-speed probe's seconds before the first `run_segment`
    /// call and after each.
    pub probe_s: Vec<f64>,
    /// Host seconds in warm-up `run_segment` calls.
    pub warmup_s: f64,
    /// Host seconds in measured `run_segment` calls.
    pub measured_s: f64,
    /// Of `warmup_s`, host seconds inside the sources' `fill` (traced
    /// runs only; 0 otherwise).
    pub warmup_fill_s: f64,
    /// Of `measured_s`, host seconds inside the sources' `fill`.
    pub measured_fill_s: f64,
}

impl CellRun {
    /// Host seconds simulating, warm-up and measured.
    pub fn run_s(&self) -> f64 {
        self.warmup_s + self.measured_s
    }

    /// Host seconds simulating outside trace generation.
    pub fn sim_self_s(&self) -> f64 {
        self.run_s() - self.warmup_fill_s - self.measured_fill_s
    }
}

/// Runs one cell to completion, sampling `probe` before the first
/// `run_segment` chunk and after each. With a trace buffer, sources are
/// wrapped in [`TimedSource`] and every phase is recorded as a span:
/// `setup`, then one `warmup` or `measured` span per chunk, each with a
/// `fill` child carrying the chunk's summed `fill` time.
pub fn run_cell(
    spec: &CellSpec,
    trace: Option<&TraceBuffer>,
    probe: &mut HostProbe,
) -> Result<CellRun, String> {
    let label = spec.label();
    let arg = |name: &str, v: TraceArg| (name.to_string(), v);
    let cell_start = trace.map(TraceBuffer::now_us);
    let fill_ns = trace.map(|_| Arc::new(AtomicU64::new(0)));

    let t0 = Instant::now();
    let mut session = build_session(spec, fill_ns.as_ref())?;
    let build_s = t0.elapsed().as_secs_f64();
    if let (Some(tb), Some(start)) = (trace, cell_start) {
        tb.complete(
            "setup",
            "sim",
            start,
            vec![arg("cell", TraceArg::Str(label.clone()))],
        );
    }

    let mut probe_s = vec![probe.sample()];
    let mut phase_s = [0.0f64; 2];
    let mut phase_fill_s = [0.0f64; 2];
    while !session.is_complete() {
        let done = session.executed_accesses();
        let warm = done < spec.warmup;
        let n = if warm {
            CHUNK.min(spec.warmup - done)
        } else {
            CHUNK.min(session.remaining_accesses())
        };
        let chunk_start = trace.map(TraceBuffer::now_us);
        let fill_before = fill_ns.as_ref().map_or(0, |c| c.load(Ordering::Relaxed));
        let t = Instant::now();
        session.run_segment(n);
        let dt = t.elapsed().as_secs_f64();
        let fill_s = fill_ns
            .as_ref()
            .map_or(0, |c| c.load(Ordering::Relaxed) - fill_before) as f64
            * 1e-9;
        phase_s[usize::from(!warm)] += dt;
        phase_fill_s[usize::from(!warm)] += fill_s;
        if let (Some(tb), Some(start)) = (trace, chunk_start) {
            // The child is recorded first, ending where the chunk ends,
            // so it nests inside the chunk's span in trace viewers.
            let fill_us = (fill_s * 1e6) as u64;
            tb.complete(
                "fill",
                "workloads",
                tb.now_us().saturating_sub(fill_us),
                Vec::new(),
            );
            tb.complete(
                if warm { "warmup" } else { "measured" },
                "sim",
                start,
                vec![
                    arg("cell", TraceArg::Str(label.clone())),
                    arg("accesses_per_core", TraceArg::U64(n)),
                ],
            );
        }
        probe_s.push(probe.sample());
    }

    let report = session.report();
    let probes = session.probes();
    let system = session.engine().system();
    let occupancy = (0..system.core_count())
        .map(|c| system.markov_occupancy(c).0)
        .sum();
    if let (Some(tb), Some(start)) = (trace, cell_start) {
        tb.complete(
            "cell",
            "bench",
            start,
            vec![arg("cell", TraceArg::Str(label.clone()))],
        );
    }
    Ok(CellRun {
        config: spec.choice.label(),
        row: spec.row.clone(),
        label,
        occupancy,
        contention: system.config().contention,
        report,
        probes,
        build_s,
        probe_s,
        warmup_s: phase_s[0],
        measured_s: phase_s[1],
        warmup_fill_s: phase_fill_s[0],
        measured_fill_s: phase_fill_s[1],
    })
}

/// Every counter of a [`RunReport`], by name (the interval series,
/// which is off here, excepted).
fn report_counters(r: &RunReport) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (i, c) in r.cores.iter().enumerate() {
        let mut put = |name: &str, v: u64| out.push((format!("report.core{i}.{name}"), v));
        put("instructions", c.instructions);
        put("cycles", c.cycles);
        put("l2.demand_hits", c.l2.demand_hits);
        put("l2.demand_misses", c.l2.demand_misses);
        put("l2.prefetch_hits", c.l2.prefetch_hits);
        put("l2.prefetch_lookups", c.l2.prefetch_lookups);
        put("l2.fills", c.l2.fills);
        put("l2.evictions", c.l2.evictions);
        put("temporal_fills", c.core.temporal_fills);
        put("temporal_used", c.core.temporal_used);
        put("temporal_wasted", c.core.temporal_wasted);
        put("prefetches_dropped", c.core.prefetches_dropped);
        put("l2_fills", c.core.l2_fills);
        put("pf.prefetches_issued", c.pf.prefetches_issued);
        put("pf.markov_reads", c.pf.markov_reads);
        put("pf.markov_writes", c.pf.markov_writes);
        put("pf.mrb_hits", c.pf.mrb_hits);
        put("pf.updates_suppressed", c.pf.updates_suppressed);
    }
    let mut put = |name: &str, v: u64| out.push((format!("report.{name}"), v));
    put("l3.demand_hits", r.l3.demand_hits);
    put("l3.demand_misses", r.l3.demand_misses);
    put("l3.prefetch_hits", r.l3.prefetch_hits);
    put("l3.prefetch_lookups", r.l3.prefetch_lookups);
    put("l3.fills", r.l3.fills);
    put("l3.evictions", r.l3.evictions);
    put("dram.demand_reads", r.dram.demand_reads);
    put("dram.prefetch_reads", r.dram.prefetch_reads);
    put("dram.total_queue_delay", r.dram.total_queue_delay);
    put("dram.congested_requests", r.dram.congested_requests);
    put("markov_ways", r.markov_ways as u64);
    out
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The cell's fingerprint: every report counter plus the named probe
/// values (`None` = every probe the run exported). A pinned probe the
/// run no longer exports hashes as absent, so it mismatches; probes
/// added after pinning are ignored.
pub fn fingerprint(run: &CellRun, probe_names: Option<&[String]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (name, v) in report_counters(&run.report) {
        h = fnv1a(h, format!("{name}={v};").as_bytes());
    }
    match probe_names {
        None => {
            for (name, v) in run.probes.entries() {
                h = fnv1a(h, format!("{name}={v};").as_bytes());
            }
        }
        Some(names) => {
            for name in names {
                let v = run
                    .probes
                    .get(name)
                    .map_or("absent".to_string(), |v| v.to_string());
                h = fnv1a(h, format!("{name}={v};").as_bytes());
            }
        }
    }
    h
}
