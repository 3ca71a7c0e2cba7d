//! Paper-scale campaigns: checkpointable, resumable sweeps.
//!
//! A [`Campaign`] runs [`JobSpec`]s like a [`crate::Sweep`] does, but
//! in *segments*: each job's simulation advances
//! [`CampaignOptions::segment_accesses`] accesses at a time through
//! [`SimSession::run_segment`](triangel_sim::SimSession::run_segment), and after every segment the full
//! simulation state is snapshotted to disk. Killing the process (or
//! exhausting a segment/wall-clock budget) therefore loses at most one
//! segment of work: re-running the same campaign with the same
//! `out_dir` resumes every partial job from its snapshot and skips
//! every finished job entirely, loading its persisted report instead.
//!
//! On-disk layout under `out_dir`:
//!
//! * `manifest.tsv` — one row per unique job: file stem (a hash of the
//!   job key), status (`done`/`partial`), segments executed, accesses
//!   executed, total accesses, and the full job key. Rewritten
//!   atomically (write + rename) after every state change.
//! * `<stem>.snap` — the latest session snapshot of a partial job
//!   (the versioned binary format of [`SimSession::snapshot`](triangel_sim::SimSession::snapshot)).
//!   Removed when the job completes.
//! * `<stem>.report.bin` — the finished job's [`RunReport`], in the
//!   same binary framing, so a resumed campaign reproduces its results
//!   byte-identically without re-simulating.
//!
//! Determinism: segmented execution is byte-identical to uninterrupted
//! execution (the `snapshot_equivalence` suite pins this), and the
//! campaign writes results into per-job slots, so a resumed campaign's
//! output equals a clean run's whatever was interrupted and whatever
//! `--jobs` is.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use triangel_obs::TraceArg;
use triangel_sim::RunReport;
use triangel_store::{key_stem, write_atomic, ResultStore};
use triangel_types::snap::SnapError;

// The report framing grew up and moved out (to `triangel-store`, which
// shares it between campaign artifacts and store entries); re-exported
// here so existing callers keep working.
pub use triangel_store::{report_from_bytes, report_to_bytes, REPORT_MAGIC, REPORT_VERSION};

use crate::job::JobSpec;
use crate::pool;
use crate::sweep::{JobError, Progress, ResultCache};

/// Header line opening `manifest.tsv`. v2 inserts a `wall_ms` column
/// (cumulative host wall-time spent executing the job, across every
/// invocation that touched it) before the key; v1 rows are still
/// accepted on load with `wall_ms = 0`. Wall-time is observational —
/// it never enters content keys or resume decisions.
const MANIFEST_HEADER: &str = "# triangel campaign manifest v2";

/// How a campaign executes.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Accesses per core to run per segment (the checkpoint interval).
    pub segment_accesses: u64,
    /// Directory for snapshots, reports and the manifest.
    pub out_dir: PathBuf,
    /// Per-segment progress reporting.
    pub progress: Progress,
    /// Maximum segments to execute across the whole invocation
    /// (`None` = unlimited). When the budget runs out, in-flight jobs
    /// checkpoint and report [`JobOutcome::Interrupted`]; a later run
    /// with the same `out_dir` picks them up where they stopped. This
    /// is also how tests and CI force a mid-flight "kill".
    pub max_segments: Option<u64>,
    /// Wall-clock budget for this invocation (`None` = unlimited).
    /// Checked between segments; the campaign checkpoints and stops
    /// issuing work once the deadline passes.
    pub wall_budget: Option<Duration>,
    /// Host-side trace buffer recording per-job and per-segment
    /// wall-time spans (see [`triangel_obs::TraceBuffer`]). Purely
    /// observational: tracing never changes what is simulated or
    /// persisted.
    pub trace: Option<Arc<triangel_obs::TraceBuffer>>,
    /// Shared cross-process [`ResultStore`]. When set, the campaign
    /// serves finished jobs from the store (counted as `loaded`, like
    /// its private `--out-dir` reports) and publishes every report it
    /// finishes — or has finished — back into it, so a later sweep or
    /// campaign over the same grid is all hits.
    pub store: Option<Arc<ResultStore>>,
}

impl CampaignOptions {
    /// A campaign writing under `out_dir`, with one worker per core,
    /// 250k-access segments, and no budgets.
    pub fn new(out_dir: impl Into<PathBuf>) -> Self {
        CampaignOptions {
            workers: 0,
            segment_accesses: 250_000,
            out_dir: out_dir.into(),
            progress: Progress::Silent,
            max_segments: None,
            wall_budget: None,
            trace: None,
            store: None,
        }
    }

    /// Sets the worker-thread count (`0` = one per core).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the checkpoint interval in accesses per core.
    ///
    /// # Panics
    ///
    /// Panics if `accesses` is zero.
    #[must_use]
    pub fn segment_accesses(mut self, accesses: u64) -> Self {
        assert!(accesses > 0, "segments must make progress");
        self.segment_accesses = accesses;
        self
    }

    /// Enables per-segment progress lines on stderr.
    #[must_use]
    pub fn with_progress(mut self) -> Self {
        self.progress = Progress::Stderr;
        self
    }

    /// Caps the number of segments this invocation executes.
    #[must_use]
    pub fn max_segments(mut self, segments: u64) -> Self {
        self.max_segments = Some(segments);
        self
    }

    /// Caps this invocation's wall-clock time.
    #[must_use]
    pub fn wall_budget(mut self, budget: Duration) -> Self {
        self.wall_budget = Some(budget);
        self
    }

    /// Records host-side spans (job lifetimes, segment wall-times)
    /// into `trace`.
    #[must_use]
    pub fn with_trace(mut self, trace: Arc<triangel_obs::TraceBuffer>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Bridges this campaign to a shared cross-process [`ResultStore`]
    /// (see [`CampaignOptions::store`]).
    #[must_use]
    pub fn with_store(mut self, store: Arc<ResultStore>) -> Self {
        self.store = Some(store);
        self
    }
}

/// What happened to one job of a campaign invocation.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The job finished (now or in an earlier invocation); the report
    /// is available.
    Done(Arc<RunReport>),
    /// The job was checkpointed mid-run when a budget ran out; a later
    /// invocation with the same `out_dir` resumes it.
    Interrupted {
        /// Accesses per core executed so far.
        executed: u64,
        /// Accesses per core the job needs in total.
        total: u64,
    },
    /// The job failed.
    Failed(JobError),
}

impl JobOutcome {
    /// The report, if the job finished.
    pub fn report(&self) -> Option<&Arc<RunReport>> {
        match self {
            JobOutcome::Done(r) => Some(r),
            _ => None,
        }
    }
}

/// Execution counters for one campaign invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Jobs requested (including duplicates).
    pub jobs: usize,
    /// Unique simulations after key dedup.
    pub unique: usize,
    /// Unique jobs finished by the end of this invocation.
    pub completed: usize,
    /// Unique jobs satisfied from persisted reports without executing
    /// a single access (the campaign-level cache-hit counter).
    pub loaded: usize,
    /// Unique jobs resumed from a mid-run snapshot.
    pub resumed: usize,
    /// Unique jobs left checkpointed when a budget ran out.
    pub interrupted: usize,
    /// Segments executed in this invocation.
    pub segments_run: u64,
    /// Accesses per core simulated in this invocation.
    pub accesses_run: u64,
    /// Jobs that failed.
    pub errors: usize,
}

/// Results of one campaign invocation, in job-submission order.
#[derive(Debug)]
pub struct CampaignReport {
    /// Per-job outcome, indexed like the submitted job list.
    pub outcomes: Vec<JobOutcome>,
    /// The job keys, indexed like `outcomes`.
    pub keys: Vec<String>,
    /// Execution counters.
    pub stats: CampaignStats,
    /// Every finished report, keyed by job key — hand this to
    /// [`crate::SweepOptions::with_cache`] and the ordinary sweep/grid
    /// folds resolve entirely from campaign results.
    pub cache: Arc<ResultCache>,
}

impl CampaignReport {
    /// Whether every job finished.
    pub fn is_complete(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| matches!(o, JobOutcome::Done(_)))
    }
}

/// One manifest row.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestEntry {
    stem: String,
    done: bool,
    segments: u64,
    executed: u64,
    total: u64,
    /// Cumulative host wall-time spent simulating this job, summed
    /// across every invocation that advanced it. Observational only.
    wall_ms: u64,
    key: String,
}

/// The persisted campaign state: key → entry, mirrored to
/// `manifest.tsv` after every change.
#[derive(Debug, Default)]
struct Manifest {
    entries: HashMap<String, ManifestEntry>,
}

impl Manifest {
    fn load(path: &Path) -> std::io::Result<Manifest> {
        let mut m = Manifest::default();
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(m),
            Err(e) => return Err(e),
        };
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let fields: Vec<&str> = line.splitn(7, '\t').collect();
            // v1 rows carry six columns; v2 inserts `wall_ms` before
            // the key. Distinguish by field count so a v2 binary
            // resumes a v1 campaign directory in place.
            let (stem, status, segments, executed, total, wall_ms, key) = match fields.as_slice() {
                [stem, status, segments, executed, total, key] => {
                    (*stem, *status, *segments, *executed, *total, "0", *key)
                }
                [stem, status, segments, executed, total, wall_ms, key] => {
                    (*stem, *status, *segments, *executed, *total, *wall_ms, *key)
                }
                _ => continue, // tolerate a torn final line from a hard kill
            };
            let (Ok(segments), Ok(executed), Ok(total), Ok(wall_ms)) = (
                segments.parse(),
                executed.parse(),
                total.parse(),
                wall_ms.parse(),
            ) else {
                continue;
            };
            m.entries.insert(
                key.to_string(),
                ManifestEntry {
                    stem: stem.to_string(),
                    done: status == "done",
                    segments,
                    executed,
                    total,
                    wall_ms,
                    key: key.to_string(),
                },
            );
        }
        Ok(m)
    }

    fn render(&self) -> String {
        let mut rows: Vec<&ManifestEntry> = self.entries.values().collect();
        rows.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        let mut out = String::from(MANIFEST_HEADER);
        out.push('\n');
        for e in rows {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                e.stem,
                if e.done { "done" } else { "partial" },
                e.segments,
                e.executed,
                e.total,
                e.wall_ms,
                e.key,
            ));
        }
        out
    }
}

/// Shared mutable campaign state: the manifest plus its path, guarded
/// so workers can checkpoint concurrently.
struct ManifestStore {
    path: PathBuf,
    manifest: Mutex<Manifest>,
}

impl ManifestStore {
    fn update(&self, entry: ManifestEntry) {
        let mut m = self.manifest.lock().unwrap();
        m.entries.insert(entry.key.clone(), entry);
        let rendered = m.render();
        // Persist while holding the lock so renders never interleave.
        if let Err(e) = write_atomic(&self.path, rendered.as_bytes()) {
            eprintln!("[campaign] manifest write failed: {e}");
        }
    }
}

/// A resumable, checkpointed sweep of [`JobSpec`]s.
#[derive(Debug, Default)]
pub struct Campaign {
    jobs: Vec<JobSpec>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new() -> Self {
        Campaign::default()
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

    /// Adds every job of an iterator.
    #[must_use]
    pub fn jobs(mut self, jobs: impl IntoIterator<Item = JobSpec>) -> Self {
        self.jobs.extend(jobs);
        self
    }

    /// The submitted job list.
    pub fn job_list(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Runs (or resumes) the campaign.
    ///
    /// Jobs already finished under `opts.out_dir` load their persisted
    /// reports without executing; partially finished jobs restore their
    /// snapshots and continue from the interrupted segment. The
    /// assembled results are byte-identical to a clean, uninterrupted
    /// run of the same job list.
    ///
    /// # Errors
    ///
    /// I/O errors preparing the output directory or reading the
    /// manifest. Per-job failures are reported in the outcomes, not
    /// here.
    pub fn run(&self, opts: &CampaignOptions) -> std::io::Result<CampaignReport> {
        std::fs::create_dir_all(&opts.out_dir)?;
        let manifest_path = opts.out_dir.join("manifest.tsv");
        let store = ManifestStore {
            manifest: Mutex::new(Manifest::load(&manifest_path)?),
            path: manifest_path,
        };

        let keys: Vec<String> = self.jobs.iter().map(JobSpec::key).collect();

        // Dedup to unique keys, preserving first-occurrence order.
        let mut unique: Vec<(&JobSpec, &str)> = Vec::new();
        let mut slot_of_key: HashMap<&str, usize> = HashMap::new();
        for (job, key) in self.jobs.iter().zip(&keys) {
            if !slot_of_key.contains_key(key.as_str()) {
                slot_of_key.insert(key, unique.len());
                unique.push((job, key));
            }
        }

        let segment_budget = AtomicI64::new(match opts.max_segments {
            Some(n) => i64::try_from(n).unwrap_or(i64::MAX),
            None => i64::MAX,
        });
        let deadline = opts.wall_budget.map(|b| Instant::now() + b);
        let segments_run = AtomicU64::new(0);
        let accesses_run = AtomicU64::new(0);
        let loaded = AtomicU64::new(0);
        let resumed = AtomicU64::new(0);

        let outcomes: Vec<JobOutcome> =
            pool::run_indexed(unique.len(), opts.workers_effective(), |i| {
                let (job, key) = unique[i];
                self.run_one(
                    job,
                    key,
                    opts,
                    &store,
                    &segment_budget,
                    deadline,
                    &segments_run,
                    &accesses_run,
                    &loaded,
                    &resumed,
                )
            });

        // Publish finished reports to a cache keyed like sweeps are.
        let cache = Arc::new(ResultCache::new());
        for ((_, key), outcome) in unique.iter().zip(&outcomes) {
            if let JobOutcome::Done(report) = outcome {
                cache.insert(key.to_string(), Arc::clone(report));
            }
        }

        let results: Vec<JobOutcome> = keys
            .iter()
            .map(|key| outcomes[slot_of_key[key.as_str()]].clone())
            .collect();
        let stats = CampaignStats {
            jobs: self.jobs.len(),
            unique: unique.len(),
            completed: outcomes
                .iter()
                .filter(|o| matches!(o, JobOutcome::Done(_)))
                .count(),
            loaded: loaded.load(Ordering::Relaxed) as usize,
            resumed: resumed.load(Ordering::Relaxed) as usize,
            interrupted: outcomes
                .iter()
                .filter(|o| matches!(o, JobOutcome::Interrupted { .. }))
                .count(),
            segments_run: segments_run.load(Ordering::Relaxed),
            accesses_run: accesses_run.load(Ordering::Relaxed),
            errors: outcomes
                .iter()
                .filter(|o| matches!(o, JobOutcome::Failed(_)))
                .count(),
        };
        Ok(CampaignReport {
            outcomes: results,
            keys,
            stats,
            cache,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn run_one(
        &self,
        job: &JobSpec,
        key: &str,
        opts: &CampaignOptions,
        store: &ManifestStore,
        segment_budget: &AtomicI64,
        deadline: Option<Instant>,
        segments_run: &AtomicU64,
        accesses_run: &AtomicU64,
        loaded: &AtomicU64,
        resumed: &AtomicU64,
    ) -> JobOutcome {
        let stem = key_stem(key);
        let snap_path = opts.out_dir.join(format!("{stem}.snap"));
        let report_path = opts.out_dir.join(format!("{stem}.report.bin"));
        let progress = opts.progress == Progress::Stderr;
        let trace = opts.trace.as_deref();
        let job_start = trace.map(|t| t.now_us());
        // Closes this job's wall-time span in the host trace; tagged
        // with how the job left this invocation.
        let job_span = |outcome: &str| {
            if let (Some(t), Some(start)) = (trace, job_start) {
                t.complete(
                    &format!("job {}", job.workload.label()),
                    "campaign",
                    start,
                    vec![
                        ("key".to_string(), TraceArg::Str(key.to_string())),
                        ("outcome".to_string(), TraceArg::Str(outcome.to_string())),
                    ],
                );
            }
        };

        // Finished in an earlier invocation: load the persisted report.
        let prior = {
            let m = store.manifest.lock().unwrap();
            m.entries.get(key).cloned()
        };
        // Wall-time already spent on this job by earlier invocations;
        // this invocation's segments accumulate on top.
        let mut wall_ms = prior.as_ref().map_or(0, |e| e.wall_ms);
        if let Some(entry) = &prior {
            if entry.done {
                match std::fs::read(&report_path)
                    .map_err(|e| SnapError::corrupt(e.to_string()))
                    .and_then(|b| report_from_bytes(&b))
                {
                    Ok(report) => {
                        loaded.fetch_add(1, Ordering::Relaxed);
                        let report = Arc::new(report);
                        // Bridge to the shared store: a report this
                        // campaign already owns becomes a hit for every
                        // other process sweeping the same grid.
                        if let Some(shared) = &opts.store {
                            if shared.get(key).is_none() {
                                shared.put(key, &report);
                            }
                        }
                        if progress {
                            eprintln!("[campaign] loaded  {key}");
                        }
                        job_span("loaded");
                        return JobOutcome::Done(report);
                    }
                    Err(e) => {
                        // Stale or corrupt artifact: re-run from scratch.
                        eprintln!("[campaign] discarding report for {key}: {e}");
                    }
                }
            }
        }

        let mut session = match job.session() {
            Ok(s) => s,
            Err(e) => {
                job_span("failed");
                return JobOutcome::Failed(JobError {
                    key: key.to_string(),
                    message: e.to_string(),
                });
            }
        };
        let total = session.total_accesses();
        let mut segments_done = 0u64;

        // Finished by some *other* process sharing the store: persist
        // its report as our own artifact and serve it without
        // simulating — the cross-process analogue of the
        // report-loaded path above.
        if let Some(report) = opts.store.as_ref().and_then(|s| s.get(key)) {
            if let Err(e) = write_atomic(&report_path, &report_to_bytes(&report)) {
                eprintln!("[campaign] report write failed for {key}: {e}");
            }
            store.update(ManifestEntry {
                stem: stem.clone(),
                done: true,
                segments: 0,
                executed: total,
                total,
                wall_ms,
                key: key.to_string(),
            });
            let _ = std::fs::remove_file(&snap_path);
            loaded.fetch_add(1, Ordering::Relaxed);
            if progress {
                eprintln!("[campaign] loaded  {key} (from store)");
            }
            job_span("loaded");
            return JobOutcome::Done(report);
        }

        // Partially finished earlier: restore the checkpoint.
        if let Some(entry) = prior.filter(|e| !e.done) {
            match std::fs::read(&snap_path)
                .map_err(|e| SnapError::corrupt(e.to_string()))
                .and_then(|b| session.restore(&b))
            {
                Ok(()) => {
                    segments_done = entry.segments;
                    resumed.fetch_add(1, Ordering::Relaxed);
                    if progress {
                        eprintln!(
                            "[campaign] resumed {key} at {}/{total}",
                            session.executed_accesses()
                        );
                    }
                }
                Err(e) => {
                    eprintln!("[campaign] discarding snapshot for {key}: {e}");
                    session = match job.session() {
                        Ok(s) => s,
                        Err(e) => {
                            job_span("failed");
                            return JobOutcome::Failed(JobError {
                                key: key.to_string(),
                                message: e.to_string(),
                            });
                        }
                    };
                }
            }
        }

        // Whether this session's state can be checkpointed at all
        // (custom boxed sources cannot); decided on first attempt.
        let mut checkpointable = true;
        // Segments executed by *this* invocation: a budget that bites
        // before the first one means nothing changed on disk, so no
        // snapshot or manifest write is owed.
        let mut ran_this_invocation = false;
        let checkpoint = |done: bool, segments: u64, executed: u64, wall_ms: u64| {
            store.update(ManifestEntry {
                stem: stem.clone(),
                done,
                segments,
                executed,
                total,
                wall_ms,
                key: key.to_string(),
            });
        };

        while !session.is_complete() {
            let out_of_budget = segment_budget.fetch_sub(1, Ordering::SeqCst) <= 0
                || deadline.is_some_and(|d| Instant::now() >= d);
            if out_of_budget {
                if ran_this_invocation {
                    if checkpointable {
                        match session.snapshot() {
                            Ok(bytes) => {
                                if let Err(e) = write_atomic(&snap_path, &bytes) {
                                    eprintln!("[campaign] checkpoint write failed for {key}: {e}");
                                }
                            }
                            Err(e) => eprintln!("[campaign] checkpoint failed for {key}: {e}"),
                        }
                    }
                    checkpoint(false, segments_done, session.executed_accesses(), wall_ms);
                }
                if progress {
                    eprintln!(
                        "[campaign] paused  {key} at {}/{total} (budget exhausted)",
                        session.executed_accesses()
                    );
                }
                job_span("interrupted");
                return JobOutcome::Interrupted {
                    executed: session.executed_accesses(),
                    total,
                };
            }

            let seg_wall = Instant::now();
            let seg_span = trace.map(|t| t.now_us());
            let ran = session.run_segment(opts.segment_accesses);
            wall_ms += u64::try_from(seg_wall.elapsed().as_millis()).unwrap_or(u64::MAX);
            if let (Some(t), Some(start)) = (trace, seg_span) {
                t.complete(
                    "segment",
                    "campaign",
                    start,
                    vec![
                        ("key".to_string(), TraceArg::Str(key.to_string())),
                        (
                            "end_access".to_string(),
                            TraceArg::U64(session.executed_accesses()),
                        ),
                        ("ran".to_string(), TraceArg::U64(ran)),
                    ],
                );
            }
            segments_done += 1;
            ran_this_invocation = true;
            segments_run.fetch_add(1, Ordering::Relaxed);
            accesses_run.fetch_add(ran, Ordering::Relaxed);
            if progress {
                eprintln!(
                    "[campaign] segment {key} {}/{total} ({:.0}%)",
                    session.executed_accesses(),
                    100.0 * session.executed_accesses() as f64 / total.max(1) as f64,
                );
            }

            if !session.is_complete() && checkpointable {
                match session.snapshot() {
                    Ok(bytes) => {
                        if let Err(e) = write_atomic(&snap_path, &bytes) {
                            eprintln!("[campaign] checkpoint write failed for {key}: {e}");
                        } else {
                            checkpoint(false, segments_done, session.executed_accesses(), wall_ms);
                        }
                    }
                    Err(SnapError::Unsupported(why)) => {
                        // Run on without checkpoints rather than fail.
                        eprintln!("[campaign] {key}: not checkpointable ({why})");
                        checkpointable = false;
                    }
                    Err(e) => eprintln!("[campaign] checkpoint failed for {key}: {e}"),
                }
            }
        }

        let report = Arc::new(session.report());
        if let Err(e) = write_atomic(&report_path, &report_to_bytes(&report)) {
            eprintln!("[campaign] report write failed for {key}: {e}");
        }
        if let Some(shared) = &opts.store {
            shared.put(key, &report);
        }
        checkpoint(true, segments_done, total, wall_ms);
        let _ = std::fs::remove_file(&snap_path);
        if progress {
            eprintln!("[campaign] done    {key}");
        }
        job_span("done");
        JobOutcome::Done(report)
    }
}

impl CampaignOptions {
    fn workers_effective(&self) -> usize {
        if self.workers == 0 {
            pool::default_workers()
        } else {
            self.workers
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_stems_are_stable_and_distinct() {
        let a = key_stem("spec:Xalan|pf=Triangel");
        assert_eq!(a, key_stem("spec:Xalan|pf=Triangel"));
        assert_ne!(a, key_stem("spec:Xalan|pf=Triage"));
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn manifest_round_trips() {
        let mut m = Manifest::default();
        m.entries.insert(
            "k1".into(),
            ManifestEntry {
                stem: "abc".into(),
                done: false,
                segments: 3,
                executed: 750,
                total: 1000,
                wall_ms: 412,
                key: "k1".into(),
            },
        );
        m.entries.insert(
            "k2".into(),
            ManifestEntry {
                stem: "def".into(),
                done: true,
                segments: 4,
                executed: 1000,
                total: 1000,
                wall_ms: 0,
                key: "k2".into(),
            },
        );
        let rendered = m.render();
        assert!(rendered.starts_with(MANIFEST_HEADER));
        let dir = std::env::temp_dir().join(format!("triangel-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.tsv");
        write_atomic(&path, rendered.as_bytes()).unwrap();
        let loaded = Manifest::load(&path).unwrap();
        assert_eq!(loaded.entries.get("k1"), m.entries.get("k1"));
        assert_eq!(loaded.entries.get("k2"), m.entries.get("k2"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_manifest_rows_load_with_zero_wall_time() {
        // A manifest written by a pre-wall-time binary resumes in
        // place: six-column rows parse with `wall_ms = 0`.
        let dir = std::env::temp_dir().join(format!("triangel-manifest-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.tsv");
        let v1 = "# triangel campaign manifest v1\n\
                  abc\tpartial\t3\t750\t1000\tk1\n\
                  def\tdone\t4\t1000\t1000\tk2\n";
        write_atomic(&path, v1.as_bytes()).unwrap();
        let loaded = Manifest::load(&path).unwrap();
        assert_eq!(loaded.entries.len(), 2);
        let k1 = loaded.entries.get("k1").unwrap();
        assert_eq!((k1.segments, k1.executed, k1.wall_ms), (3, 750, 0));
        assert!(loaded.entries.get("k2").unwrap().done);
        // Rendering upgrades the directory to the v2 schema.
        assert!(loaded.render().starts_with(MANIFEST_HEADER));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_empty() {
        let m = Manifest::load(Path::new("/nonexistent/manifest.tsv")).unwrap();
        assert!(m.entries.is_empty());
    }

    #[test]
    fn sampled_report_framing_round_trips() {
        use crate::{JobSpec, RunParams, WorkloadSpec};
        use triangel_sim::PrefetcherChoice;
        use triangel_workloads::spec::SpecWorkload;

        let job = JobSpec::new(
            WorkloadSpec::Spec(SpecWorkload::Mcf),
            PrefetcherChoice::Triangel,
            RunParams {
                warmup: 400,
                accesses: 600,
                sizing_window: 300,
                seed: 7,
            },
        )
        .sample_every(200);
        let report = job.run().unwrap();
        let series = report.intervals.as_ref().expect("sampling was on");
        assert_eq!(series.len(), 3);

        let bytes = report_to_bytes(&report);
        let back = report_from_bytes(&bytes).unwrap();
        assert_eq!(format!("{report:?}"), format!("{back:?}"));
        assert_eq!(back.intervals, report.intervals);

        // And an unsampled report still frames as intervals-absent.
        let plain = job.clone().sample_every(0).run().unwrap();
        assert!(plain.intervals.is_none());
        let back = report_from_bytes(&report_to_bytes(&plain)).unwrap();
        assert!(back.intervals.is_none());
    }
}
