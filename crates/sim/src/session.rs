//! [`SimSession`]: the single entry point for constructing and running
//! simulations.
//!
//! A session is built in four steps — configuration, workloads,
//! prefetcher, run — and the pipeline it assembles is the monomorphized
//! one end to end: trace sources are pulled in batches through
//! [`AccessRing`](triangel_workloads::AccessRing), the temporal
//! prefetcher is enum-dispatched
//! ([`PrefetcherImpl`](crate::PrefetcherImpl)), and cache replacement is
//! enum-dispatched inside the caches themselves, so no `dyn` call
//! remains on the per-access hot path.

use crate::choice::PrefetcherChoice;
use crate::config::SystemConfig;
use crate::dispatch::PrefetcherImpl;
use crate::engine::Engine;
use crate::error::SimError;
use crate::hierarchy::MemorySystem;
use crate::metrics::RunReport;
use triangel_core::TriangelFeatures;
use triangel_types::snap::{snap_check, SnapError, SnapReader, SnapWriter, Snapshot};
use triangel_workloads::paging::PageMapper;
use triangel_workloads::TraceSource;

/// Magic bytes opening every session snapshot.
const SNAP_MAGIC: [u8; 8] = *b"TRGLSNP\0";
/// Snapshot format version this build writes and reads.
///
/// Version history: 1 = initial envelope; 2 = adds the interval
/// time-series recorder (sampling period + recorded samples), so
/// interrupt→resume reproduces a sampled series byte for byte; 3 =
/// metadata tables (Markov, training, issue) move onto packed
/// set-associative arenas, which serialize per-set valid masks plus
/// live slots only (plus a policy tag byte ahead of the Markov table);
/// 4 = finite replay sources (`RecordedTrace`, file traces) carry
/// their wrap counters, so a resumed run keeps reporting how often a
/// looped trace repeated; 5 = the N-core timing model: interval samples
/// carry per-core cycle/instruction columns, the DRAM serializes one
/// busy-until clock per channel, and the memory system serializes the
/// L3 bank-arbiter clocks.
pub const SNAPSHOT_VERSION: u32 = 5;

/// A fully-assembled simulation, ready to run.
///
/// Construct with [`SimSession::builder`]; see
/// [`SimSessionBuilder::run`] for the one-shot form that most callers
/// use. Holding the session (rather than running the builder directly)
/// lets tests drive warm-up and measurement separately.
#[derive(Debug)]
pub struct SimSession {
    engine: Engine,
    warmup: u64,
    accesses: u64,
    workload: String,
    /// Accesses per core executed so far (warm-up + measured).
    executed: u64,
    /// Whether the warm-up→measurement transition has been applied.
    measuring: bool,
    /// Interval-sampling period in measured accesses (0 = off).
    sample_every: u64,
    /// Samples recorded so far (empty when sampling is off).
    samples: Vec<triangel_obs::IntervalSample>,
}

impl SimSession {
    /// Starts building a session: configuration → workloads →
    /// prefetcher → run.
    ///
    /// # Examples
    ///
    /// ```
    /// use triangel_sim::{PrefetcherChoice, SimSession};
    /// use triangel_workloads::spec::SpecWorkload;
    ///
    /// let report = SimSession::builder()
    ///     .workload(SpecWorkload::Xalan.generator(1))
    ///     .prefetcher(PrefetcherChoice::Triangel)
    ///     .warmup(5_000)
    ///     .accesses(10_000)
    ///     .run()
    ///     .unwrap();
    /// assert!(report.ipc() > 0.0);
    /// ```
    pub fn builder() -> SimSessionBuilder {
        SimSessionBuilder::default()
    }

    /// Runs warm-up, measurement, and reporting to completion.
    ///
    /// Equivalent — access for access — to driving the session through
    /// [`SimSession::run_segment`] until [`SimSession::is_complete`];
    /// the segmented form exists so long runs can be interrupted,
    /// snapshotted and resumed.
    ///
    /// # Errors
    ///
    /// Infallible today (construction already validated the spec);
    /// typed for forward compatibility with runtime limits.
    pub fn run(mut self) -> Result<RunReport, SimError> {
        self.run_segment(u64::MAX);
        Ok(self.report())
    }

    /// Advances the run by up to `max_accesses` accesses per core,
    /// preserving all state across calls, and returns how many were
    /// executed. The warm-up→measurement transition happens at exactly
    /// the same access boundary as in an uninterrupted run, whatever
    /// the segmentation.
    pub fn run_segment(&mut self, max_accesses: u64) -> u64 {
        let mut budget = max_accesses.min(self.remaining_accesses());
        let ran = budget;
        if self.executed < self.warmup {
            let n = budget.min(self.warmup - self.executed);
            self.engine.run_accesses(n);
            self.executed += n;
            budget -= n;
        }
        if self.executed >= self.warmup && !self.measuring {
            self.engine.start_measurement();
            self.measuring = true;
        }
        // Measured phase, chunked to interval boundaries when sampling.
        // Chunking `run_accesses` is behaviour-invisible: the engine's
        // loop carries no per-call state, and the cycle-ordered round
        // order is a pure function of persisted timeline state at round
        // boundaries. So with sampling off this degenerates to the
        // original single call — the determinism bar golden tests pin.
        while budget > 0 {
            let n = if self.sample_every == 0 {
                budget
            } else {
                let into_interval = (self.executed - self.warmup) % self.sample_every;
                budget.min(self.sample_every - into_interval)
            };
            self.engine.run_accesses(n);
            self.executed += n;
            budget -= n;
            let measured = self.executed - self.warmup;
            if self.sample_every != 0 && measured.is_multiple_of(self.sample_every) {
                self.samples.push(self.engine.interval_sample(measured));
            }
        }
        ran
    }

    /// Accesses per core executed so far (warm-up + measured).
    pub fn executed_accesses(&self) -> u64 {
        self.executed
    }

    /// Total accesses per core the session will run.
    pub fn total_accesses(&self) -> u64 {
        self.warmup + self.accesses
    }

    /// Accesses per core still to run.
    pub fn remaining_accesses(&self) -> u64 {
        self.total_accesses() - self.executed
    }

    /// Whether every warm-up and measured access has run.
    pub fn is_complete(&self) -> bool {
        self.executed >= self.total_accesses()
    }

    /// The measurement report as of the accesses executed so far,
    /// carrying the interval series when sampling was enabled.
    pub fn report(&self) -> RunReport {
        let mut report = self.engine.report(self.workload.clone());
        if self.sample_every != 0 {
            report.intervals = Some(triangel_obs::IntervalSeries {
                every: self.sample_every,
                samples: self.samples.clone(),
            });
        }
        report
    }

    /// The interval series recorded so far, when sampling is enabled.
    pub fn interval_series(&self) -> Option<triangel_obs::IntervalSeries> {
        (self.sample_every != 0).then(|| triangel_obs::IntervalSeries {
            every: self.sample_every,
            samples: self.samples.clone(),
        })
    }

    /// The memory hierarchy's named counters (see
    /// [`triangel_obs::Probe`]): the structured replacement for the
    /// removed `prefetcher_debug` string.
    pub fn probes(&self) -> triangel_obs::ProbeSet {
        let mut out = triangel_obs::ProbeSet::new();
        self.engine.system().probe(&mut out);
        // Finite looped recordings surface their wrap counts, so a
        // short trace replayed many times can't masquerade as a
        // full-length measurement.
        for (core, stats) in self.engine.replay_stats().into_iter().enumerate() {
            if let Some(s) = stats {
                out.scoped(&format!("core{core}.trace"), |o| {
                    o.record("records", s.records);
                    o.record("wraps", s.wraps);
                });
            }
        }
        out
    }

    /// Serializes the complete dynamic simulation state — engine rings
    /// and timelines, caches including line metadata and fill clocks,
    /// Markov table, prefetcher and issue-table state, generator RNGs —
    /// into a versioned binary snapshot.
    ///
    /// The invariant the format is built around: interrupting a run,
    /// snapshotting, restoring into a freshly built session of the same
    /// spec and continuing is byte-identical to never interrupting
    /// (pinned by `crates/sim/tests/snapshot_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// [`SnapError::Unsupported`] when a trace source cannot be
    /// snapshotted (a custom boxed source).
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapError> {
        let mut w = SnapWriter::new();
        w.bytes(&SNAP_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.u64(self.warmup);
        w.u64(self.accesses);
        w.u64(self.executed);
        w.bool(self.measuring);
        w.u64(self.sample_every);
        w.usize(self.samples.len());
        for s in &self.samples {
            s.save(&mut w)?;
        }
        self.engine.save(&mut w)?;
        Ok(w.into_bytes())
    }

    /// Restores a snapshot written by [`SimSession::snapshot`] into
    /// this session, which must have been built from the same spec
    /// (same workloads, seeds, configuration and scale).
    ///
    /// # Errors
    ///
    /// [`SnapError::Version`] for snapshots from another format
    /// version, [`SnapError::Corrupt`] when the snapshot does not match
    /// this session's structure, [`SnapError::Eof`] on truncation.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        snap_check(r.bytes()? == SNAP_MAGIC, "bad snapshot magic")?;
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapError::Version {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        snap_check(r.u64()? == self.warmup, "warm-up length mismatch")?;
        snap_check(r.u64()? == self.accesses, "measured length mismatch")?;
        let executed = r.u64()?;
        snap_check(executed <= self.total_accesses(), "progress out of range")?;
        let measuring = r.bool()?;
        snap_check(
            r.u64()? == self.sample_every,
            "interval-sampling period mismatch",
        )?;
        let n_samples = r.usize()?;
        let mut samples = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            let mut s = triangel_obs::IntervalSample::default();
            s.restore(&mut r)?;
            samples.push(s);
        }
        self.engine.restore(&mut r)?;
        r.finish()?;
        self.executed = executed;
        self.measuring = measuring;
        self.samples = samples;
        Ok(())
    }

    /// The assembled engine (diagnostics in tests).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

/// Builder for a [`SimSession`].
///
/// Defaults follow the paper's methodology scaled to trace length
/// (Section 5): 1M warm-up + 2M measured accesses per core, the
/// realistic fragmented page mapping, and the stride-only baseline
/// prefetcher. The system configuration defaults to the paper's
/// single-core setup for one workload and the dual-core multiprogrammed
/// setup (Section 6.3) otherwise.
#[derive(Debug)]
pub struct SimSessionBuilder {
    sources: Vec<Box<dyn TraceSource + Send>>,
    system: Option<SystemConfig>,
    choice: PrefetcherChoice,
    warmup: u64,
    accesses: u64,
    mapper: Option<PageMapper>,
    sizing_window: u64,
    label: Option<String>,
    features: Option<TriangelFeatures>,
    sample_every: u64,
}

impl Default for SimSessionBuilder {
    fn default() -> Self {
        SimSessionBuilder {
            sources: Vec::new(),
            system: None,
            choice: PrefetcherChoice::Baseline,
            warmup: 1_000_000,
            accesses: 2_000_000,
            mapper: None,
            sizing_window: 250_000,
            label: None,
            features: None,
            sample_every: 0,
        }
    }
}

impl SimSessionBuilder {
    /// Adds one core's trace source (call once per core).
    #[must_use]
    pub fn workload(mut self, source: impl TraceSource + Send + 'static) -> Self {
        self.sources.push(Box::new(source));
        self
    }

    /// Adds one core's trace source, already boxed (the form batch
    /// drivers that store sources as data need).
    #[must_use]
    pub fn boxed_workload(mut self, source: Box<dyn TraceSource + Send>) -> Self {
        self.sources.push(source);
        self
    }

    /// Overrides the system configuration (otherwise derived from the
    /// workload count).
    #[must_use]
    pub fn system(mut self, cfg: SystemConfig) -> Self {
        self.system = Some(cfg);
        self
    }

    /// Sets the temporal prefetcher (default: stride-only baseline).
    #[must_use]
    pub fn prefetcher(mut self, choice: PrefetcherChoice) -> Self {
        self.choice = choice;
        self
    }

    /// Sets warm-up length in accesses per core.
    #[must_use]
    pub fn warmup(mut self, accesses: u64) -> Self {
        self.warmup = accesses;
        self
    }

    /// Sets measured length in accesses per core.
    #[must_use]
    pub fn accesses(mut self, accesses: u64) -> Self {
        self.accesses = accesses;
        self
    }

    /// Overrides the virtual-to-physical mapper (Fig. 18/19 study).
    #[must_use]
    pub fn page_mapper(mut self, mapper: PageMapper) -> Self {
        self.mapper = Some(mapper);
        self
    }

    /// Overrides the sizing window (Set Dueller / Bloom reset period).
    #[must_use]
    pub fn sizing_window(mut self, window: u64) -> Self {
        self.sizing_window = window;
        self
    }

    /// Overrides the report's workload label.
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Overrides the Triangel feature toggles for whichever
    /// Triangel-family configuration the prefetcher choice builds.
    ///
    /// This is the session-level gate for experimental mechanisms —
    /// above all [`TriangelFeatures::train_on_eviction`], which is off
    /// in every shipped configuration. Ignored (with no effect) for
    /// the baseline and the Triage family, which carry no Triangel
    /// features. Unset by default: each choice keeps its own paper
    /// configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use triangel_core::TriangelFeatures;
    /// use triangel_sim::{PrefetcherChoice, SimSession};
    /// use triangel_workloads::spec::SpecWorkload;
    ///
    /// // Opt a Triangel run into the experimental eviction-training
    /// // gate (a behaviour change: dying L2 lines feed the training
    /// // and Markov paths — golden fixtures pin both gate states).
    /// let report = SimSession::builder()
    ///     .workload(SpecWorkload::Mcf.generator(3))
    ///     .prefetcher(PrefetcherChoice::Triangel)
    ///     .triangel_features(TriangelFeatures {
    ///         train_on_eviction: true,
    ///         ..TriangelFeatures::all()
    ///     })
    ///     .warmup(2_000)
    ///     .accesses(2_000)
    ///     .run()
    ///     .unwrap();
    /// assert_eq!(report.cores[0].pf_name, "Triangel+EvictTrain");
    /// ```
    #[must_use]
    pub fn triangel_features(mut self, features: TriangelFeatures) -> Self {
        self.features = Some(features);
        self
    }

    /// Enables interval time-series sampling: one
    /// [`IntervalSample`](triangel_obs::IntervalSample) every `every`
    /// *measured* accesses, carried on
    /// [`RunReport::intervals`](crate::RunReport::intervals) (0, the
    /// default, disables sampling).
    ///
    /// Sampling is purely observational — the interval clock is
    /// simulation time, sampling reads but never writes engine state —
    /// so every other reported number is byte-identical with sampling
    /// on or off, and the series itself is deterministic across
    /// parallelism and snapshot interrupt→resume.
    #[must_use]
    pub fn sample_every(mut self, every: u64) -> Self {
        self.sample_every = every;
        self
    }

    /// Assembles the session, validating the specification.
    ///
    /// The core count always equals the workload count (one prefetcher
    /// and one timeline per source); an explicit
    /// [`system`](SimSessionBuilder::system) configuration sets the
    /// geometry, never the core count.
    ///
    /// # Errors
    ///
    /// [`SimError::NoSources`] without any workload;
    /// [`SimError::ZeroSizingWindow`] for a zero
    /// [`sizing_window`](SimSessionBuilder::sizing_window) on a choice
    /// that reads it; other [`SimError`]s as [`Engine::try_new`]
    /// reports them.
    pub fn build(self) -> Result<SimSession, SimError> {
        let n_cores = self.sources.len();
        if n_cores == 0 {
            return Err(SimError::NoSources);
        }
        if self.sizing_window == 0 && self.choice.uses_sizing_window() {
            return Err(SimError::ZeroSizingWindow);
        }
        let system_cfg = self.system.unwrap_or_else(|| {
            // One and two cores keep the legacy paper configurations
            // (their goldens pin the uncontended timing model); beyond
            // two cores the contended N-core model is the default.
            match n_cores {
                1 => SystemConfig::paper_single_core(),
                2 => SystemConfig::paper_dual_core(),
                n => SystemConfig::paper_n_core(n),
            }
        });
        let temporal: Vec<PrefetcherImpl> = (0..n_cores)
            .map(|_| {
                self.choice
                    .build_impl_with(self.sizing_window, self.features)
            })
            .collect();
        let system = MemorySystem::with_prefetchers(system_cfg, temporal);
        let mapper = self.mapper.unwrap_or_else(|| PageMapper::realistic(0xA11C));
        let workload = self.label.unwrap_or_else(|| {
            self.sources
                .iter()
                .map(|s| s.name().to_string())
                .collect::<Vec<_>>()
                .join(" & ")
        });
        let engine = Engine::try_new(system, self.sources, mapper)?;
        Ok(SimSession {
            engine,
            warmup: self.warmup,
            accesses: self.accesses,
            workload,
            executed: 0,
            measuring: false,
            sample_every: self.sample_every,
            samples: Vec::new(),
        })
    }

    /// Builds and runs the session to completion.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`SimSessionBuilder::build`].
    pub fn run(self) -> Result<RunReport, SimError> {
        self.build()?.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triangel_types::{Addr, Pc};
    use triangel_workloads::temporal::{TemporalStream, TemporalStreamConfig};

    fn chase(len: usize) -> TemporalStream {
        TemporalStream::new(
            TemporalStreamConfig::pointer_chase("chase", Pc::new(0x40), Addr::new(1 << 30), len),
            7,
        )
    }

    #[test]
    fn builder_runs_and_reports() {
        // 50k lines: beyond L2/L3 capacity, so measurement still sees
        // DRAM traffic after warm-up.
        let r = SimSession::builder()
            .workload(chase(50_000))
            .warmup(20_000)
            .accesses(50_000)
            .run()
            .unwrap();
        assert!(r.ipc() > 0.0);
        assert!(r.dram_reads() > 0);
        assert_eq!(r.cores.len(), 1);
    }

    #[test]
    fn triangel_speeds_up_pointer_chase() {
        // A strict pointer chase over 50k lines: far beyond L2/L3, well
        // within Markov capacity, fully dependent. This is the
        // textbook case where a temporal prefetcher must win.
        let run = |choice| {
            SimSession::builder()
                .workload(chase(50_000))
                .warmup(300_000)
                .accesses(200_000)
                .sizing_window(60_000)
                .prefetcher(choice)
                .run()
                .unwrap()
        };
        let base = run(PrefetcherChoice::Baseline);
        let tri = run(PrefetcherChoice::Triangel);
        let c = crate::Comparison::new(&base, &tri);
        assert!(
            c.speedup > 1.05,
            "Triangel should accelerate a strict chase, got {:.3}",
            c.speedup
        );
        assert!(c.accuracy > 0.5, "accuracy {:.3}", c.accuracy);
    }

    #[test]
    fn core_count_mismatch_is_a_typed_error() {
        // Two cores' worth of prefetchers, one trace source.
        let system = MemorySystem::with_prefetchers(
            SystemConfig::paper_dual_core(),
            vec![PrefetcherImpl::Null, PrefetcherImpl::Null],
        );
        let err = Engine::try_new(
            system,
            vec![Box::new(chase(1_000))],
            PageMapper::realistic(1),
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(
            err,
            SimError::CoreCountMismatch {
                cores: 2,
                sources: 1
            }
        );

        let system = MemorySystem::with_prefetchers(
            SystemConfig::paper_single_core(),
            vec![PrefetcherImpl::Null],
        );
        let err = Engine::try_new(system, vec![], PageMapper::realistic(1))
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, SimError::NoSources);
    }

    #[test]
    fn no_workloads_is_a_typed_error() {
        assert_eq!(
            SimSession::builder().run().unwrap_err(),
            SimError::NoSources
        );
    }

    #[test]
    fn zero_sizing_window_is_a_typed_error() {
        for choice in [PrefetcherChoice::Triangel, PrefetcherChoice::TriangelBloom] {
            let err = SimSession::builder()
                .workload(chase(100))
                .prefetcher(choice)
                .sizing_window(0)
                .build()
                .map(|_| ())
                .unwrap_err();
            assert_eq!(err, SimError::ZeroSizingWindow, "{}", choice.label());
        }
        // Choices that never read the window still build.
        for choice in [PrefetcherChoice::Baseline, PrefetcherChoice::Triage] {
            let session = SimSession::builder()
                .workload(chase(100))
                .prefetcher(choice)
                .sizing_window(0)
                .build();
            assert!(session.is_ok(), "{}", choice.label());
        }
    }

    #[test]
    fn explicit_system_is_honoured() {
        // The core count always follows the workload list (one
        // prefetcher per source), so an explicit configuration changes
        // geometry, never the core count.
        let session = SimSession::builder()
            .workload(chase(100))
            .system(SystemConfig::tiny())
            .build()
            .unwrap();
        assert_eq!(session.engine().system().core_count(), 1);
        assert_eq!(
            session.engine().system().config().l2.size_bytes(),
            16 * 1024
        );
    }

    #[test]
    fn two_workloads_default_to_the_dual_core_setup() {
        let r = SimSession::builder()
            .workload(chase(100))
            .workload(chase(100))
            .warmup(500)
            .accesses(500)
            .run()
            .unwrap();
        assert_eq!(r.cores.len(), 2);
    }

    #[test]
    fn features_override_reaches_triangel() {
        let session = SimSession::builder()
            .workload(chase(100))
            .prefetcher(PrefetcherChoice::Triangel)
            .triangel_features(TriangelFeatures {
                train_on_eviction: true,
                ..TriangelFeatures::all()
            })
            .build()
            .unwrap();
        assert_eq!(
            session.engine().system().prefetcher_name(0),
            "Triangel+EvictTrain"
        );
        // ...and is ignored for choices without Triangel features.
        let session = SimSession::builder()
            .workload(chase(100))
            .prefetcher(PrefetcherChoice::Triage)
            .triangel_features(TriangelFeatures::none())
            .build()
            .unwrap();
        assert_eq!(session.engine().system().prefetcher_name(0), "Triage");
    }
}
