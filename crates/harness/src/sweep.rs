//! The sweep scheduler: dedup, cache, parallel execution, reporting.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use triangel_obs::TraceArg;
use triangel_sim::RunReport;
use triangel_store::{Claim, ResultStore};

use crate::job::JobSpec;
use crate::pool;

/// A failed job, carrying enough context to point at the bad spec.
#[derive(Debug, Clone)]
pub struct JobError {
    /// The job's content key.
    pub key: String,
    /// The underlying simulator error, rendered.
    pub message: String,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job `{}` failed: {}", self.key, self.message)
    }
}

impl std::error::Error for JobError {}

/// Content-keyed cache of finished runs.
///
/// A sweep always consults a cache (its own, or one shared across
/// sweeps via [`SweepOptions::cache`]): before a job is scheduled its
/// key is looked up, and every job that resolves without executing —
/// whether from an earlier sweep or deduplicated within the current
/// one — counts as a hit.
#[derive(Debug, Default)]
pub struct ResultCache {
    entries: Mutex<HashMap<String, Arc<RunReport>>>,
    hits: AtomicUsize,
    lookups: AtomicUsize,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// The report cached under `key`, if any (counts as a hit).
    pub fn get(&self, key: &str) -> Option<Arc<RunReport>> {
        let hit = self.entries.lock().unwrap().get(key).cloned();
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Stores a finished run.
    pub fn insert(&self, key: String, report: Arc<RunReport>) {
        self.entries.lock().unwrap().insert(key, report);
    }

    /// Total hits since construction.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookups since construction.
    pub fn lookups(&self) -> usize {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Total misses since construction (`lookups − hits`).
    pub fn misses(&self) -> usize {
        self.lookups() - self.hits()
    }

    /// Number of cached runs.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().unwrap().is_empty()
    }
}

/// Where per-job progress lines go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Progress {
    /// No progress output.
    #[default]
    Silent,
    /// One line per finished job on stderr.
    Stderr,
}

/// How a sweep executes.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Progress reporting.
    pub progress: Progress,
    /// Cache shared with other sweeps (e.g. across the figures of one
    /// `all_figures` run). `None` gives the sweep a private cache.
    pub cache: Option<Arc<ResultCache>>,
    /// Host-side trace buffer. When set, the sweep records one
    /// wall-time span per executed job (worker lanes fall out of the
    /// per-thread `tid`s), a [`ResultCache`] hit/miss counter sample
    /// (plus a [`ResultStore`] one when a store is attached), and a
    /// whole-sweep span. Host-only: simulation output is
    /// byte-identical with or without it.
    pub trace: Option<Arc<triangel_obs::TraceBuffer>>,
    /// On-disk result store shared across processes. When set, jobs
    /// resolve from persisted entries before executing, executions are
    /// coordinated through [`ResultStore::claim_blocking`] (exactly
    /// once store-wide, even with concurrent processes), and finished
    /// reports are published back. Results are byte-identical with or
    /// without a store.
    pub store: Option<Arc<ResultStore>>,
}

impl SweepOptions {
    /// One worker, silent — the reference configuration.
    pub fn serial() -> Self {
        SweepOptions {
            workers: 1,
            ..SweepOptions::default()
        }
    }

    /// `workers` threads (`0` = one per core), silent.
    pub fn parallel(workers: usize) -> Self {
        SweepOptions {
            workers,
            ..SweepOptions::default()
        }
    }

    /// Resolved worker count.
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            pool::default_workers()
        } else {
            self.workers
        }
    }

    /// Enables per-job progress lines on stderr.
    #[must_use]
    pub fn with_progress(mut self) -> Self {
        self.progress = Progress::Stderr;
        self
    }

    /// Shares `cache` with this sweep.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Records host-side wall-time spans into `trace`.
    #[must_use]
    pub fn with_trace(mut self, trace: Arc<triangel_obs::TraceBuffer>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Shares the on-disk `store` with this sweep (see
    /// [`SweepOptions::store`]).
    #[must_use]
    pub fn with_store(mut self, store: Arc<ResultStore>) -> Self {
        self.store = Some(store);
        self
    }
}

/// Execution counters for one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Jobs requested.
    pub jobs: usize,
    /// Simulations actually executed for this sweep. Jobs served from
    /// a cache, the on-disk store, or another process's concurrent
    /// execution do not count.
    pub executed: usize,
    /// Jobs satisfied without executing (dedup within the sweep plus
    /// hits on a shared cache or the on-disk store).
    pub cache_hits: usize,
    /// Jobs that failed with a [`JobError`].
    pub errors: usize,
}

/// Results of one sweep, in job order.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-job outcome, indexed like the submitted job list.
    pub results: Vec<Result<Arc<RunReport>, JobError>>,
    /// The job keys, indexed like `results`.
    pub keys: Vec<String>,
    /// Execution counters.
    pub stats: SweepStats,
}

impl SweepReport {
    /// The report of job `idx`.
    ///
    /// # Panics
    ///
    /// Panics (with the job's own error) if the job failed.
    pub fn report(&self, idx: usize) -> &RunReport {
        match &self.results[idx] {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }
}

/// A flat list of jobs to run as one unit.
///
/// Jobs with equal keys are executed once. Use [`crate::GridSpec`] for
/// the common rows × columns shape.
#[derive(Debug, Default)]
pub struct Sweep {
    jobs: Vec<JobSpec>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Self {
        Sweep::default()
    }

    /// Adds a job, returning its index in the report.
    pub fn push(&mut self, job: JobSpec) -> usize {
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    /// Adds a job, builder-style.
    #[must_use]
    pub fn job(mut self, job: JobSpec) -> Self {
        self.jobs.push(job);
        self
    }

    /// The jobs submitted so far.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Runs every job and returns results in submission order.
    ///
    /// Deterministic: for a fixed job list (and cache contents), the
    /// report is identical whatever `opts.workers` is.
    pub fn run(&self, opts: &SweepOptions) -> SweepReport {
        let cache = opts.cache.clone().unwrap_or_default();
        let store = opts.store.as_deref();
        let keys: Vec<String> = self.jobs.iter().map(JobSpec::key).collect();

        // Resolve each job to either a cached report or a slot in the
        // unique to-run list (first occurrence of each key wins). The
        // on-disk store resolves like a shared cache: some earlier
        // process already ran the job.
        enum Resolution {
            Cached(Arc<RunReport>),
            Pending(usize),
        }
        let mut to_run: Vec<&JobSpec> = Vec::new();
        let mut pending_of_key: HashMap<&str, usize> = HashMap::new();
        let resolutions: Vec<Resolution> = self
            .jobs
            .iter()
            .zip(&keys)
            .map(|(job, key)| {
                if let Some(cached) = cache.get(key) {
                    return Resolution::Cached(cached);
                }
                if let Some(&slot) = pending_of_key.get(key.as_str()) {
                    return Resolution::Pending(slot);
                }
                if let Some(report) = store.and_then(|s| s.get(key)) {
                    cache.insert(key.clone(), Arc::clone(&report));
                    return Resolution::Cached(report);
                }
                let slot = to_run.len();
                to_run.push(job);
                pending_of_key.insert(key, slot);
                Resolution::Pending(slot)
            })
            .collect();

        let done = AtomicUsize::new(0);
        let total = to_run.len();
        let progress = opts.progress;
        let trace = opts.trace.as_deref();
        let sweep_start = trace.map(|t| t.now_us());
        let executed_n = AtomicUsize::new(0);

        // Execute the unique jobs in parallel.
        let executed: Vec<Result<Arc<RunReport>, JobError>> =
            pool::run_indexed(total, opts.effective_workers(), |i| {
                let job = to_run[i];
                let run_local = || {
                    executed_n.fetch_add(1, Ordering::Relaxed);
                    let job_start = trace.map(|t| t.now_us());
                    let outcome = job.run().map(Arc::new).map_err(|e| JobError {
                        key: job.key(),
                        message: e.to_string(),
                    });
                    if let (Some(t), Some(start)) = (trace, job_start) {
                        t.complete(
                            &format!("job {}", job.workload.label()),
                            "job",
                            start,
                            vec![
                                ("key".to_string(), TraceArg::Str(job.key())),
                                ("ok".to_string(), TraceArg::U64(outcome.is_ok() as u64)),
                            ],
                        );
                    }
                    outcome
                };
                let outcome = match store {
                    None => run_local(),
                    // Coordinate with concurrent processes: whoever wins
                    // the job's lock executes and publishes; everyone
                    // else blocks, then reads the entry.
                    Some(s) => match s.claim_blocking(&job.key()) {
                        Ok(Claim::Hit(report)) => Ok(report),
                        Ok(Claim::Lease(lease)) => {
                            let outcome = run_local();
                            if let Ok(report) = &outcome {
                                lease.publish(report);
                            }
                            outcome
                        }
                        Err(e) => {
                            eprintln!(
                                "[store] claim failed for {} ({e}); executing uncoordinated",
                                job.key()
                            );
                            run_local()
                        }
                    },
                };
                if progress == Progress::Stderr {
                    let n = done.fetch_add(1, Ordering::SeqCst) + 1;
                    let state = if outcome.is_ok() { "done" } else { "FAILED" };
                    eprintln!("[harness] {n}/{total} {state}  {}", job.key());
                }
                outcome
            });

        // Publish successes to the cache, then assemble in job order.
        for (job, outcome) in to_run.iter().zip(&executed) {
            if let Ok(report) = outcome {
                cache.insert(job.key(), Arc::clone(report));
            }
        }
        let results: Vec<Result<Arc<RunReport>, JobError>> = resolutions
            .into_iter()
            .map(|r| match r {
                Resolution::Cached(report) => Ok(report),
                Resolution::Pending(slot) => executed[slot].clone(),
            })
            .collect();

        let executed_jobs = executed_n.load(Ordering::Relaxed);
        let errors = results.iter().filter(|r| r.is_err()).count();
        if let (Some(t), Some(start)) = (trace, sweep_start) {
            t.counter(
                "ResultCache",
                vec![
                    ("hits".to_string(), TraceArg::U64(cache.hits() as u64)),
                    ("misses".to_string(), TraceArg::U64(cache.misses() as u64)),
                ],
            );
            if let Some(s) = store {
                t.counter(
                    "ResultStore",
                    vec![
                        ("hits".to_string(), TraceArg::U64(s.stats().hits())),
                        ("misses".to_string(), TraceArg::U64(s.stats().misses())),
                        ("inserts".to_string(), TraceArg::U64(s.stats().inserts())),
                        ("discards".to_string(), TraceArg::U64(s.stats().discards())),
                    ],
                );
            }
            t.complete(
                "sweep",
                "sweep",
                start,
                vec![
                    ("jobs".to_string(), TraceArg::U64(self.jobs.len() as u64)),
                    ("executed".to_string(), TraceArg::U64(executed_jobs as u64)),
                    (
                        "cache_hits".to_string(),
                        TraceArg::U64((self.jobs.len() - executed_jobs) as u64),
                    ),
                ],
            );
        }
        SweepReport {
            stats: SweepStats {
                jobs: self.jobs.len(),
                executed: executed_jobs,
                cache_hits: self.jobs.len() - executed_jobs,
                errors,
            },
            results,
            keys,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{RunParams, WorkloadSpec};
    use triangel_sim::PrefetcherChoice;
    use triangel_workloads::spec::SpecWorkload;

    fn tiny() -> RunParams {
        RunParams {
            warmup: 500,
            accesses: 500,
            sizing_window: 300,
            seed: 3,
        }
    }

    fn job(choice: PrefetcherChoice) -> JobSpec {
        JobSpec::new(WorkloadSpec::Spec(SpecWorkload::Xalan), choice, tiny())
    }

    #[test]
    fn duplicate_jobs_execute_once() {
        let sweep = Sweep::new()
            .job(job(PrefetcherChoice::Baseline))
            .job(job(PrefetcherChoice::Triangel))
            .job(job(PrefetcherChoice::Baseline))
            .job(job(PrefetcherChoice::Baseline));
        let report = sweep.run(&SweepOptions::serial());
        assert_eq!(report.stats.jobs, 4);
        assert_eq!(report.stats.executed, 2);
        assert_eq!(report.stats.cache_hits, 2);
        assert_eq!(report.stats.errors, 0);
        // Duplicates share the same underlying report.
        assert!(Arc::ptr_eq(
            report.results[0].as_ref().unwrap(),
            report.results[2].as_ref().unwrap()
        ));
    }

    #[test]
    fn shared_cache_carries_across_sweeps() {
        let cache = Arc::new(ResultCache::new());
        let opts = SweepOptions::serial().with_cache(Arc::clone(&cache));
        let first = Sweep::new().job(job(PrefetcherChoice::Baseline)).run(&opts);
        assert_eq!(first.stats.executed, 1);
        let second = Sweep::new().job(job(PrefetcherChoice::Baseline)).run(&opts);
        assert_eq!(second.stats.executed, 0);
        assert_eq!(second.stats.cache_hits, 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.lookups(), 2);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn tracing_records_job_spans_without_changing_results() {
        let trace = Arc::new(triangel_obs::TraceBuffer::new());
        let traced_opts = SweepOptions::serial().with_trace(Arc::clone(&trace));
        let sweep = Sweep::new()
            .job(job(PrefetcherChoice::Baseline))
            .job(job(PrefetcherChoice::Triangel));
        let traced = sweep.run(&traced_opts);
        let plain = sweep.run(&SweepOptions::serial());
        // Host tracing is observational: identical reports.
        for (a, b) in traced.results.iter().zip(&plain.results) {
            assert_eq!(
                format!("{:?}", a.as_ref().unwrap()),
                format!("{:?}", b.as_ref().unwrap()),
            );
        }
        // 2 job spans + 1 cache counter + 1 sweep span.
        assert_eq!(trace.len(), 4);
        triangel_obs::json::validate(&trace.to_json()).unwrap();
    }
}
