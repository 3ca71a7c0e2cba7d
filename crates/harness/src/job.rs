//! Experiments as data: [`JobSpec`] and its parts.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use triangel_sim::{
    PrefetcherChoice, RunReport, SimError, SimSession, SimSessionBuilder, TriangelFeatures,
};
use triangel_workloads::graph500::BfsTrace;
use triangel_workloads::graph500::Csr;
use triangel_workloads::irregular::IrregularWorkload;
use triangel_workloads::paging::PageMapper;
use triangel_workloads::spec::SpecWorkload;
use triangel_workloads::trace_file::{read_trace_header, EndPolicy, FileTrace};
use triangel_workloads::TraceSource;

/// Scale and seeding parameters shared by the jobs of one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunParams {
    /// Warm-up accesses per core (not measured).
    pub warmup: u64,
    /// Measured accesses per core.
    pub accesses: u64,
    /// Set Dueller / Bloom sizing window.
    pub sizing_window: u64,
    /// Workload RNG seed.
    pub seed: u64,
}

/// Which virtual-to-physical mapping a job simulates under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MapperSpec {
    /// The experiment runner's default mapping.
    #[default]
    Default,
    /// `PageMapper::realistic(seed)` — the fragmented mapping of the
    /// Fig. 18/19 studies.
    Realistic(u64),
}

/// The workload half of a job: what generates the access trace.
#[derive(Clone)]
pub enum WorkloadSpec {
    /// One of the seven SPEC-like generators.
    Spec(SpecWorkload),
    /// A multiprogrammed pair sharing L3 and DRAM (Fig. 16). The
    /// second core's generator is seeded with `seed ^ 0x9999`.
    Pair(SpecWorkload, SpecWorkload),
    /// BFS over a pre-built Graph500 graph (Fig. 17). The graph is
    /// built once and shared by every configuration's job; `label`
    /// must uniquely identify it (it is the cache-key component).
    Graph500 {
        /// Cache-key label, e.g. `"s16 e10"`.
        label: String,
        /// The shared CSR graph.
        graph: Arc<Csr>,
    },
    /// One of the four irregular-workload generators (zipfian KV
    /// store, GC churn, hash join, web serving).
    Irregular(IrregularWorkload),
    /// Replay of a recorded binary trace file
    /// ([`triangel_workloads::trace_file`]) under the looping
    /// end-of-trace policy. The key carries the path *and* the header
    /// digest fields, so editing a trace in place changes every
    /// dependent job's key instead of silently serving stale cached
    /// results. Build with [`WorkloadSpec::trace_file`], which reads
    /// the header once and fails loudly on malformed files.
    TraceFile {
        /// Path of the `.trc` file.
        path: PathBuf,
        /// Record count from the trace header.
        records: u64,
        /// Payload checksum from the trace header.
        checksum: u64,
    },
    /// Any other trace source. `name` must uniquely identify the
    /// generator's content — it is the only part of the builder that
    /// enters the job key.
    Custom {
        /// Cache-key name for the generator.
        name: String,
        /// Builds a fresh generator from a seed.
        build: Arc<dyn Fn(u64) -> Box<dyn TraceSource + Send> + Send + Sync>,
    },
    /// Heterogeneous multiprogrammed run: one workload per core, each a
    /// *single-core* spec (`Spec`, `Graph500`, `Irregular`, `TraceFile`
    /// or `Custom` — nesting `Pair`/`Multi` is a session-time error).
    /// Core `i`'s generator is seeded with `seed ^ (0x9999 * i)`, the
    /// same ladder [`WorkloadSpec::Pair`] established for core 1.
    Multi(Vec<WorkloadSpec>),
}

impl WorkloadSpec {
    /// A trace-file workload over the file at `path`.
    ///
    /// Reads and validates the trace header immediately, so a missing
    /// or malformed file fails at spec-construction time — before any
    /// sweep is planned around it — and the header's record count and
    /// checksum are pinned into the job key.
    ///
    /// # Errors
    ///
    /// Any error from
    /// [`read_trace_header`](triangel_workloads::trace_file::read_trace_header).
    pub fn trace_file(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let header = read_trace_header(&path)?;
        Ok(WorkloadSpec::TraceFile {
            path,
            records: header.records,
            checksum: header.checksum,
        })
    }

    /// Human-readable label (row name in figure tables).
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Spec(wl) => wl.label().to_string(),
            WorkloadSpec::Pair(a, b) => format!("{} & {}", a.label(), b.label()),
            WorkloadSpec::Graph500 { label, .. } => label.clone(),
            WorkloadSpec::Irregular(wl) => wl.label().to_string(),
            WorkloadSpec::TraceFile { path, .. } => path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string()),
            WorkloadSpec::Custom { name, .. } => name.clone(),
            WorkloadSpec::Multi(list) => list
                .iter()
                .map(WorkloadSpec::label)
                .collect::<Vec<_>>()
                .join(" & "),
        }
    }

    /// The cache-key component for this workload.
    fn key(&self) -> String {
        match self {
            WorkloadSpec::Spec(wl) => format!("spec:{}", wl.label()),
            WorkloadSpec::Pair(a, b) => format!("pair:{}+{}", a.label(), b.label()),
            WorkloadSpec::Graph500 { label, .. } => format!("g500:{label}"),
            WorkloadSpec::Irregular(wl) => format!("irr:{}", wl.label()),
            WorkloadSpec::TraceFile {
                path,
                records,
                checksum,
            } => format!("trace:{}#{records:x}:{checksum:016x}", path.display()),
            WorkloadSpec::Custom { name, .. } => format!("custom:{name}"),
            WorkloadSpec::Multi(list) => format!(
                "multi:[{}]",
                list.iter()
                    .map(WorkloadSpec::key)
                    .collect::<Vec<_>>()
                    .join(";")
            ),
        }
    }

    /// Builds one core's trace source from this (single-core) spec.
    ///
    /// # Errors
    ///
    /// [`SimError::Workload`] for multi-core specs (`Pair`, `Multi`),
    /// which cannot describe a single core, and for trace files that
    /// are missing or changed on disk since the spec was keyed.
    fn core_source(&self, seed: u64) -> Result<Box<dyn TraceSource + Send>, SimError> {
        match self {
            WorkloadSpec::Spec(wl) => Ok(Box::new(wl.generator(seed))),
            WorkloadSpec::Graph500 { label, graph } => Ok(Box::new(BfsTrace::new(
                label.clone(),
                Arc::clone(graph),
                seed,
            ))),
            WorkloadSpec::Irregular(wl) => Ok(Box::new(wl.generator(seed))),
            WorkloadSpec::TraceFile {
                path,
                records,
                checksum,
            } => {
                // Re-verify the header at session time: the file may
                // have changed on disk since the spec was keyed, and a
                // replay under a stale key would poison every cache
                // layer downstream.
                let header = read_trace_header(path).map_err(|e| SimError::Workload {
                    message: format!("trace `{}`: {e}", path.display()),
                })?;
                if header.records != *records || header.checksum != *checksum {
                    return Err(SimError::Workload {
                        message: format!(
                            "trace `{}` changed on disk: spec keyed {} record(s) \
                             (checksum {:016x}) but the file now has {} (checksum {:016x})",
                            path.display(),
                            records,
                            checksum,
                            header.records,
                            header.checksum
                        ),
                    });
                }
                let trace =
                    FileTrace::open(path, EndPolicy::Loop).map_err(|e| SimError::Workload {
                        message: format!("trace `{}`: {e}", path.display()),
                    })?;
                Ok(Box::new(trace))
            }
            WorkloadSpec::Custom { build, .. } => Ok(build(seed)),
            WorkloadSpec::Pair(_, _) | WorkloadSpec::Multi(_) => Err(SimError::Workload {
                message: format!(
                    "workload `{}` is itself multi-core and cannot describe a single core",
                    self.key()
                ),
            }),
        }
    }
}

impl fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WorkloadSpec({})", self.key())
    }
}

/// One simulation, fully described as data.
///
/// Two jobs with equal [`keys`](JobSpec::key) describe byte-identical
/// simulations; the scheduler runs only one of them.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// What generates the accesses.
    pub workload: WorkloadSpec,
    /// Which temporal prefetcher is attached.
    pub prefetcher: PrefetcherChoice,
    /// Scale and seed.
    pub params: RunParams,
    /// Virtual-to-physical mapping.
    pub mapper: MapperSpec,
    /// Optional Triangel feature override (the session-level gate for
    /// experimental mechanisms such as
    /// [`TriangelFeatures::train_on_eviction`]). `None` — the default —
    /// keeps each configuration's own paper features and leaves the
    /// job key unchanged.
    pub features: Option<TriangelFeatures>,
    /// Interval time-series sampling period in measured accesses
    /// (0 = off; see [`SimSessionBuilder::sample_every`]).
    ///
    /// Deliberately **excluded from the content key**: sampling is
    /// observational — the simulation it describes is byte-identical
    /// with or without it — so a sampled job may legitimately resolve
    /// from an unsampled twin's cached report. Sweeps that *need* the
    /// series (the `timeline` figure) use a private cache instead of
    /// the shared one.
    pub sample_every: u64,
    /// Core count for the simulated system. `None` — the default —
    /// derives the count from the workload itself (1 for single
    /// workloads, 2 for [`WorkloadSpec::Pair`], the list length for
    /// [`WorkloadSpec::Multi`]), keeping every historical job key
    /// unchanged. `Some(n)` replicates a single workload across `n`
    /// cores (core `i` seeded `seed ^ (0x9999 * i)`) and enters the key
    /// as `|nc=n`; for the inherently multi-core specs it must agree
    /// with the workload's own count.
    pub n_cores: Option<usize>,
}

impl JobSpec {
    /// A job over `workload` × `prefetcher` at `params` scale with the
    /// default page mapping.
    pub fn new(workload: WorkloadSpec, prefetcher: PrefetcherChoice, params: RunParams) -> Self {
        JobSpec {
            workload,
            prefetcher,
            params,
            mapper: MapperSpec::Default,
            features: None,
            sample_every: 0,
            n_cores: None,
        }
    }

    /// Sets an explicit core count (see [`JobSpec::n_cores`]).
    #[must_use]
    pub fn with_cores(mut self, n: usize) -> Self {
        self.n_cores = Some(n);
        self
    }

    /// Replaces the page-mapper choice.
    #[must_use]
    pub fn mapper(mut self, mapper: MapperSpec) -> Self {
        self.mapper = mapper;
        self
    }

    /// Overrides the Triangel feature toggles (see
    /// [`SimSessionBuilder::triangel_features`]).
    #[must_use]
    pub fn features(mut self, features: TriangelFeatures) -> Self {
        self.features = Some(features);
        self
    }

    /// Enables interval time-series sampling every `every` measured
    /// accesses (see [`JobSpec::sample_every`] for why this never
    /// enters the content key).
    #[must_use]
    pub fn sample_every(mut self, every: u64) -> Self {
        self.sample_every = every;
        self
    }

    /// The content key: equal keys ⇔ identical simulations.
    ///
    /// The prefetcher configuration enters through its `Debug`
    /// rendering, which spells out every field of custom configs, so
    /// two `TriangelCustom` jobs differing in any knob get distinct
    /// keys. The sizing window enters only for configurations that
    /// actually read it ([`PrefetcherChoice::uses_sizing_window`]):
    /// the stride-only baseline has no temporal prefetcher, Triage
    /// ignores the window, and the custom configs carry their own —
    /// so sweeps with different windows share those runs through the
    /// [`crate::ResultCache`] instead of re-simulating them.
    pub fn key(&self) -> String {
        let sizing = if self.prefetcher.uses_sizing_window() {
            self.params.sizing_window.to_string()
        } else {
            "-".to_string()
        };
        // The feature override enters only when set *and* the
        // configuration actually reads it (the Triangel family), so
        // ungated jobs keep their historical keys — including every
        // golden-pinned sweep — and a gated Triage/baseline column
        // still cache-shares with its ungated twin (the same honesty
        // rule as the sizing window above).
        let features = match &self.features {
            Some(f) if self.prefetcher.accepts_feature_override() => format!("|f={f:?}"),
            _ => String::new(),
        };
        // Like the feature override, the core count enters only when
        // explicitly set, so every historical key — including the
        // golden-pinned sweeps — is unchanged.
        let cores = match self.n_cores {
            Some(n) => format!("|nc={n}"),
            None => String::new(),
        };
        format!(
            "{}|pf={:?}|w={}|a={}|sw={}|s={}|m={:?}{}{}",
            self.workload.key(),
            self.prefetcher,
            self.params.warmup,
            self.params.accesses,
            sizing,
            self.params.seed,
            self.mapper,
            features,
            cores,
        )
    }

    /// Runs the simulation this job describes through
    /// [`SimSession::builder`] (the monomorphized pipeline).
    ///
    /// Deterministic: the generator is built from the job's own seed in
    /// the calling thread, so the result does not depend on what other
    /// jobs run concurrently.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the session builder.
    pub fn run(&self) -> Result<RunReport, SimError> {
        self.session()?.run()
    }

    /// Assembles — without running — the session this job describes.
    ///
    /// This is the campaign runner's entry point: holding the session
    /// lets it drive the run in resumable segments
    /// ([`SimSession::run_segment`]) and snapshot/restore state between
    /// invocations. Construction is deterministic, so a session built
    /// from the same spec in a later process restores an earlier
    /// process's snapshot exactly.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the session builder.
    pub fn session(&self) -> Result<SimSession, SimError> {
        let p = self.params;
        // Expand the workload into one single-core spec per core. The
        // inherently multi-core specs fix their own count (and must
        // agree with an explicit `n_cores`); everything else replicates
        // across `n_cores` cores (default 1).
        let per_core: Vec<WorkloadSpec> = match &self.workload {
            WorkloadSpec::Pair(a, b) => {
                if let Some(n) = self.n_cores {
                    if n != 2 {
                        return Err(SimError::Workload {
                            message: format!("a Pair workload runs on 2 cores, not {n}"),
                        });
                    }
                }
                vec![WorkloadSpec::Spec(*a), WorkloadSpec::Spec(*b)]
            }
            WorkloadSpec::Multi(list) => {
                if list.is_empty() {
                    return Err(SimError::NoSources);
                }
                if let Some(n) = self.n_cores {
                    if n != list.len() {
                        return Err(SimError::Workload {
                            message: format!(
                                "a Multi workload of {} core(s) conflicts with n_cores = {n}",
                                list.len()
                            ),
                        });
                    }
                }
                list.clone()
            }
            single => vec![single.clone(); self.n_cores.unwrap_or(1)],
        };
        let mut b: SimSessionBuilder = SimSession::builder();
        for (i, w) in per_core.iter().enumerate() {
            // The seed ladder Pair established: core 0 runs the job's
            // own seed, core i runs `seed ^ (0x9999 * i)`.
            let seed = p.seed ^ 0x9999u64.wrapping_mul(i as u64);
            b = b.boxed_workload(w.core_source(seed)?);
        }
        // An explicit `n_cores` opts into the contended N-core timing
        // model at *every* count (including 1 and 2, so a core-count
        // scaling sweep is apples-to-apples). `None` keeps the
        // historical defaults: paper_single_core / paper_dual_core on
        // the legacy uncontended model.
        if let Some(n) = self.n_cores {
            b = b.system(triangel_sim::SystemConfig::paper_n_core(n));
        }
        b = b
            .label(self.workload.label())
            .warmup(p.warmup)
            .accesses(p.accesses)
            .sizing_window(p.sizing_window)
            .sample_every(self.sample_every)
            .prefetcher(self.prefetcher);
        if let MapperSpec::Realistic(seed) = self.mapper {
            b = b.page_mapper(PageMapper::realistic(seed));
        }
        if let Some(features) = self.features {
            b = b.triangel_features(features);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> RunParams {
        RunParams {
            warmup: 10,
            accesses: 10,
            sizing_window: 5,
            seed: 1,
        }
    }

    #[test]
    fn keys_distinguish_configurations() {
        let a = JobSpec::new(
            WorkloadSpec::Spec(SpecWorkload::Xalan),
            PrefetcherChoice::Triangel,
            params(),
        );
        let b = JobSpec::new(
            WorkloadSpec::Spec(SpecWorkload::Xalan),
            PrefetcherChoice::TriangelBloom,
            params(),
        );
        let c = JobSpec::new(
            WorkloadSpec::Spec(SpecWorkload::Mcf),
            PrefetcherChoice::Triangel,
            params(),
        );
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        assert_eq!(a.key(), a.clone().key());
    }

    #[test]
    fn sizing_window_enters_key_only_where_it_matters() {
        let mut p1 = params();
        let mut p2 = params();
        p1.sizing_window = 100;
        p2.sizing_window = 999;
        let key = |pf: PrefetcherChoice, p: RunParams| {
            JobSpec::new(WorkloadSpec::Spec(SpecWorkload::Mcf), pf, p).key()
        };
        // Configurations that never read the window — the baseline and
        // the whole Triage family — share one run across sweeps that
        // differ only in it (the fig18/fig19 cache-hit case).
        for pf in [
            PrefetcherChoice::Baseline,
            PrefetcherChoice::Triage,
            PrefetcherChoice::TriageDeg4,
            PrefetcherChoice::TriageDeg4Look2,
        ] {
            assert_eq!(key(pf, p1), key(pf, p2), "{pf:?} must ignore the window");
        }
        // Triangel's Set Dueller genuinely depends on it.
        assert_ne!(
            key(PrefetcherChoice::Triangel, p1),
            key(PrefetcherChoice::Triangel, p2)
        );
    }

    #[test]
    fn features_enter_the_key_only_when_set() {
        let job = JobSpec::new(
            WorkloadSpec::Spec(SpecWorkload::Xalan),
            PrefetcherChoice::Triangel,
            params(),
        );
        let base_key = job.key();
        assert!(
            !base_key.contains("|f="),
            "default jobs must keep their historical keys: {base_key}"
        );
        let gate = TriangelFeatures {
            train_on_eviction: true,
            ..TriangelFeatures::all()
        };
        let gated = job.clone().features(gate);
        assert_ne!(base_key, gated.key());
        assert!(gated.key().contains("train_on_eviction: true"));
        // A configuration that ignores the override must keep its key:
        // a gated Triage column cache-shares with the ungated one.
        let triage = JobSpec::new(
            WorkloadSpec::Spec(SpecWorkload::Xalan),
            PrefetcherChoice::Triage,
            params(),
        );
        assert_eq!(triage.key(), triage.clone().features(gate).key());
    }

    #[test]
    fn sample_every_never_enters_the_key() {
        let job = JobSpec::new(
            WorkloadSpec::Spec(SpecWorkload::Mcf),
            PrefetcherChoice::Triangel,
            params(),
        );
        let sampled = job.clone().sample_every(1_000);
        assert_eq!(
            job.key(),
            sampled.key(),
            "sampling is observational; it must not fragment the cache key space"
        );
    }

    #[test]
    fn irregular_workloads_get_distinct_keys() {
        let keys: Vec<String> = IrregularWorkload::ALL
            .into_iter()
            .map(|wl| {
                JobSpec::new(
                    WorkloadSpec::Irregular(wl),
                    PrefetcherChoice::Triangel,
                    params(),
                )
                .key()
            })
            .collect();
        for (i, a) in keys.iter().enumerate() {
            assert!(a.starts_with("irr:"), "{a}");
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn trace_file_spec_pins_the_header() {
        let dir = std::env::temp_dir().join(format!("triangel-job-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pin.trc");
        let mut src = IrregularWorkload::ZipfKv.generator(3);
        triangel_workloads::trace_file::record_trace(&mut src, 64, &path).unwrap();

        let spec = WorkloadSpec::trace_file(&path).unwrap();
        let WorkloadSpec::TraceFile { records, .. } = &spec else {
            panic!("wrong variant");
        };
        assert_eq!(*records, 64);
        let job = JobSpec::new(spec.clone(), PrefetcherChoice::Triangel, params());
        assert!(job.key().starts_with("trace:"), "{}", job.key());
        assert_eq!(job.workload.label(), "pin.trc");
        job.run().unwrap();

        // Re-record different content at the same path: the stale spec
        // must be refused at session time, not replayed under its old
        // key.
        let mut src2 = IrregularWorkload::ZipfKv.generator(4);
        triangel_workloads::trace_file::record_trace(&mut src2, 64, &path).unwrap();
        match job.session() {
            Err(SimError::Workload { message }) => {
                assert!(message.contains("changed on disk"), "{message}");
            }
            Err(e) => panic!("wrong error for stale trace: {e}"),
            Ok(_) => panic!("stale trace spec accepted"),
        }
        // A fresh spec over the new content gets a different key.
        let fresh = WorkloadSpec::trace_file(&path).unwrap();
        assert_ne!(
            JobSpec::new(fresh, PrefetcherChoice::Triangel, params()).key(),
            job.key()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn n_cores_enters_the_key_only_when_set() {
        let job = JobSpec::new(
            WorkloadSpec::Spec(SpecWorkload::Mcf),
            PrefetcherChoice::Triangel,
            params(),
        );
        assert!(
            !job.key().contains("|nc="),
            "default jobs must keep their historical keys: {}",
            job.key()
        );
        let quad = job.clone().with_cores(4);
        assert_ne!(job.key(), quad.key());
        assert!(quad.key().ends_with("|nc=4"), "{}", quad.key());
        assert_ne!(quad.key(), job.clone().with_cores(8).key());
    }

    #[test]
    fn with_cores_replicates_a_single_workload() {
        let job = JobSpec::new(
            WorkloadSpec::Spec(SpecWorkload::Mcf),
            PrefetcherChoice::Baseline,
            params(),
        )
        .with_cores(4);
        let session = job.session().unwrap();
        assert_eq!(session.engine().system().core_count(), 4);
        // Beyond two cores the builder defaults to the contended
        // N-core configuration.
        assert!(session.engine().system().config().contention.cycle_ordered);
    }

    #[test]
    fn multi_workload_builds_heterogeneous_cores() {
        let job = JobSpec::new(
            WorkloadSpec::Multi(vec![
                WorkloadSpec::Spec(SpecWorkload::Mcf),
                WorkloadSpec::Irregular(IrregularWorkload::ZipfKv),
            ]),
            PrefetcherChoice::Triangel,
            params(),
        );
        assert!(job.key().starts_with("multi:[spec:"), "{}", job.key());
        let report = job.run().unwrap();
        assert_eq!(report.cores.len(), 2);
        assert_ne!(report.cores[0].workload, report.cores[1].workload);
    }

    #[test]
    fn conflicting_core_counts_are_typed_errors() {
        let pair = JobSpec::new(
            WorkloadSpec::Pair(SpecWorkload::Mcf, SpecWorkload::Xalan),
            PrefetcherChoice::Baseline,
            params(),
        )
        .with_cores(4);
        assert!(matches!(pair.session(), Err(SimError::Workload { .. })));
        let nested = JobSpec::new(
            WorkloadSpec::Multi(vec![WorkloadSpec::Pair(
                SpecWorkload::Mcf,
                SpecWorkload::Xalan,
            )]),
            PrefetcherChoice::Baseline,
            params(),
        );
        assert!(matches!(nested.session(), Err(SimError::Workload { .. })));
    }

    #[test]
    fn pair_matches_the_equivalent_multi_session() {
        // Pair(a, b) and Multi([a, b]) build identical simulations (the
        // seed ladder is shared), though their keys differ.
        let p = params();
        let pair = JobSpec::new(
            WorkloadSpec::Pair(SpecWorkload::Mcf, SpecWorkload::Xalan),
            PrefetcherChoice::Triangel,
            p,
        );
        let multi = JobSpec::new(
            WorkloadSpec::Multi(vec![
                WorkloadSpec::Spec(SpecWorkload::Mcf),
                WorkloadSpec::Spec(SpecWorkload::Xalan),
            ]),
            PrefetcherChoice::Triangel,
            p,
        );
        let a = pair.run().unwrap();
        let b = multi.run().unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn mapper_enters_the_key() {
        let spec = WorkloadSpec::Spec(SpecWorkload::Gcc166);
        let a = JobSpec::new(spec.clone(), PrefetcherChoice::Triage, params());
        let b =
            JobSpec::new(spec, PrefetcherChoice::Triage, params()).mapper(MapperSpec::Realistic(3));
        assert_ne!(a.key(), b.key());
    }
}
