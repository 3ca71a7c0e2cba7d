//! Paper-scale campaigns: checkpointable, resumable sweeps.
//!
//! A [`Campaign`] runs [`JobSpec`]s like a [`crate::Sweep`] does, but
//! in *segments*: each job's simulation advances
//! [`CampaignOptions::segment_accesses`] accesses at a time through
//! [`SimSession::run_segment`](triangel_sim::SimSession::run_segment),
//! and after every segment the full simulation state is checkpointed.
//! Killing the process (or exhausting a segment/wall-clock budget)
//! therefore loses at most one segment of work: re-running the same
//! campaign over the same store resumes every partial job from its
//! checkpoint and skips every finished job entirely, loading its
//! persisted report instead.
//!
//! The campaign directory *is* a [`ResultStore`], and every byte the
//! campaign reads back passes the store envelope's checks (magic,
//! format and snapshot versions, full-key echo, payload checksum):
//!
//! * `entries/<stem>.rpt` — finished jobs, published through
//!   [`ResultStore::claim_blocking`] and
//!   [`JobLease::publish`](triangel_store::JobLease::publish) exactly
//!   as [`crate::Sweep`] publishes, so a sweep over the same directory
//!   hits them and vice versa.
//! * `snaps/<stem>.snap` — the latest checkpoint of a partial job,
//!   written under the job's lease after every segment. An interrupted
//!   job drops its lease unpublished, so the next claimant — this
//!   process or another — resumes from the blob instead of duplicating
//!   the work. The blob is deleted when the job publishes.
//! * `manifest.tsv` — a human-readable view of that state, rewritten
//!   atomically after every change: one row per job of this campaign
//!   seen finished or checkpointed, with its file stem, status
//!   (`done`/`partial`), segments executed, accesses executed, total
//!   accesses, cumulative host wall-time in ms, and the full job key.
//!   The view decides nothing; it is read back only to carry the
//!   observational `segments` and `wall_ms` columns forward.
//!
//! A corrupt or stale entry or blob is discarded loudly (counted in
//! [`StoreStats::discards`](triangel_store::StoreStats::discards)) and
//! its job runs again from the start.
//!
//! Determinism: segmented execution is byte-identical to uninterrupted
//! execution (the `snapshot_equivalence` suite pins this), and the
//! campaign writes results into per-job slots, so a resumed campaign's
//! output equals a clean run's whatever was interrupted and whatever
//! `--jobs` is.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use triangel_obs::TraceArg;
use triangel_sim::RunReport;
use triangel_store::{write_atomic, Claim, ResultStore};
use triangel_types::snap::SnapError;

use crate::job::JobSpec;
use crate::pool;
use crate::sweep::{JobError, Progress, ResultCache};

/// Header line opening `manifest.tsv`. v2 inserts a `wall_ms` column
/// (cumulative host wall-time spent executing the job, across every
/// invocation that touched it) before the key. Wall-time is
/// observational — it never enters content keys or resume decisions.
const MANIFEST_HEADER: &str = "# triangel campaign manifest v2";

/// How a campaign executes.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Accesses per core to run per segment (the checkpoint interval).
    pub segment_accesses: u64,
    /// The store holding every report and checkpoint the campaign
    /// persists. The manifest view goes under its
    /// [`dir`](ResultStore::dir), and any sweep opened on the same
    /// directory shares the campaign's results.
    pub store: Arc<ResultStore>,
    /// Per-segment progress reporting.
    pub progress: Progress,
    /// Maximum segments to execute across the whole invocation
    /// (`None` = unlimited). When the budget runs out, in-flight jobs
    /// checkpoint and report [`JobOutcome::Interrupted`]; a later run
    /// over the same store picks them up where they stopped. This is
    /// also how tests and CI force a mid-flight "kill".
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
}

impl CampaignOptions {
    /// A campaign persisting into `store`, with one worker per core,
    /// 250k-access segments, and no budgets.
    pub fn new(store: impl Into<Arc<ResultStore>>) -> Self {
        CampaignOptions {
            workers: 0,
            segment_accesses: 250_000,
            store: store.into(),
            progress: Progress::Silent,
            max_segments: None,
            wall_budget: None,
            trace: None,
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
}

/// What happened to one job of a campaign invocation.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The job finished (now or in an earlier invocation); the report
    /// is available.
    Done(Arc<RunReport>),
    /// The job was checkpointed mid-run when a budget ran out; a later
    /// invocation over the same store resumes it.
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

/// One manifest row (the key is the map key).
#[derive(Debug)]
struct ManifestRow {
    stem: String,
    done: bool,
    segments: u64,
    executed: u64,
    total: u64,
    /// Cumulative host wall-time spent simulating this job, summed
    /// across every invocation that advanced it. Observational only.
    wall_ms: u64,
}

/// `manifest.tsv`: a view of the campaign's store state, rewritten
/// after every change. Only the observational columns of the previous
/// view are read back.
#[derive(Debug)]
struct ManifestView {
    path: PathBuf,
    /// `(segments, wall_ms)` per key, carried from the previous view.
    carried: HashMap<String, (u64, u64)>,
    rows: Mutex<BTreeMap<String, ManifestRow>>,
}

impl ManifestView {
    fn open(dir: &Path) -> std::io::Result<ManifestView> {
        let path = dir.join("manifest.tsv");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let carried = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|line| {
                // Anything but a well-formed v2 row (a torn final line
                // from a hard kill, an older layout) carries nothing.
                let fields: Vec<&str> = line.splitn(7, '\t').collect();
                let [_, _, segments, _, _, wall_ms, key] = fields.as_slice() else {
                    return None;
                };
                Some((
                    key.to_string(),
                    (segments.parse().ok()?, wall_ms.parse().ok()?),
                ))
            })
            .collect();
        Ok(ManifestView {
            path,
            carried,
            rows: Mutex::default(),
        })
    }

    /// The `(segments, wall_ms)` an earlier invocation recorded.
    fn carried(&self, key: &str) -> (u64, u64) {
        self.carried.get(key).copied().unwrap_or_default()
    }

    fn record(&self, key: &str, row: ManifestRow) {
        let mut rows = self.rows.lock().unwrap();
        rows.insert(key.to_string(), row);
        let mut out = format!("{MANIFEST_HEADER}\n");
        for (key, r) in rows.iter() {
            let status = if r.done { "done" } else { "partial" };
            let _ = writeln!(
                out,
                "{}\t{status}\t{}\t{}\t{}\t{}\t{key}",
                r.stem, r.segments, r.executed, r.total, r.wall_ms
            );
        }
        // Persist while holding the lock so renders never interleave.
        if let Err(e) = write_atomic(&self.path, out.as_bytes()) {
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

    /// Runs (or resumes) the campaign.
    ///
    /// Jobs already finished in `opts.store` load their reports without
    /// executing; partially finished jobs restore their checkpoints and
    /// continue from the interrupted segment. Every job is claimed
    /// through the store before it runs, so concurrent campaigns (or
    /// sweeps) over one directory execute each segment once. The
    /// assembled results are byte-identical to a clean, uninterrupted
    /// run of the same job list.
    ///
    /// # Errors
    ///
    /// I/O errors reading the previous manifest view. Per-job failures
    /// are reported in the outcomes, not here.
    pub fn run(&self, opts: &CampaignOptions) -> std::io::Result<CampaignReport> {
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

        let inv = Invocation {
            opts,
            view: ManifestView::open(opts.store.dir())?,
            segment_budget: AtomicI64::new(match opts.max_segments {
                Some(n) => i64::try_from(n).unwrap_or(i64::MAX),
                None => i64::MAX,
            }),
            deadline: opts.wall_budget.map(|b| Instant::now() + b),
            segments_run: AtomicU64::new(0),
            accesses_run: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
        };
        let outcomes: Vec<JobOutcome> =
            pool::run_indexed(unique.len(), opts.workers_effective(), |i| {
                let (job, key) = unique[i];
                inv.run_job(job, key)
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
        let count = |pred: fn(&JobOutcome) -> bool| outcomes.iter().filter(|o| pred(o)).count();
        let stats = CampaignStats {
            jobs: self.jobs.len(),
            unique: unique.len(),
            completed: count(|o| matches!(o, JobOutcome::Done(_))),
            loaded: inv.loaded.load(Ordering::Relaxed) as usize,
            resumed: inv.resumed.load(Ordering::Relaxed) as usize,
            interrupted: count(|o| matches!(o, JobOutcome::Interrupted { .. })),
            segments_run: inv.segments_run.load(Ordering::Relaxed),
            accesses_run: inv.accesses_run.load(Ordering::Relaxed),
            errors: count(|o| matches!(o, JobOutcome::Failed(_))),
        };
        Ok(CampaignReport {
            outcomes: results,
            keys,
            stats,
            cache,
        })
    }
}

/// One [`Campaign::run`]: its options, budgets, counters and manifest
/// view, shared by every worker.
struct Invocation<'a> {
    opts: &'a CampaignOptions,
    view: ManifestView,
    segment_budget: AtomicI64,
    deadline: Option<Instant>,
    segments_run: AtomicU64,
    accesses_run: AtomicU64,
    loaded: AtomicU64,
    resumed: AtomicU64,
}

impl Invocation<'_> {
    fn run_job(&self, job: &JobSpec, key: &str) -> JobOutcome {
        let opts = self.opts;
        let store = &*opts.store;
        let stem = store.stem(key);
        let total = job.params.warmup + job.params.accesses;
        // Observational columns earlier invocations recorded; this
        // invocation's segments accumulate on top.
        let (carried_segments, mut wall_ms) = self.view.carried(key);
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
        let failed = |message: String| {
            job_span("failed");
            JobOutcome::Failed(JobError {
                key: key.to_string(),
                message,
            })
        };
        let record = |done: bool, segments: u64, executed: u64, wall_ms: u64| {
            let row = ManifestRow {
                stem: stem.clone(),
                done,
                segments,
                executed,
                total,
                wall_ms,
            };
            self.view.record(key, row);
        };

        // Finished earlier (by a campaign or a sweep), or by another
        // process while we waited for the job's lease.
        let claim = match store.get(key) {
            Some(report) => Ok(Claim::Hit(report)),
            None => store.claim_blocking(key),
        };
        let lease = match claim {
            Ok(Claim::Lease(lease)) => lease,
            Ok(Claim::Hit(report)) => {
                self.loaded.fetch_add(1, Ordering::Relaxed);
                record(true, carried_segments, total, wall_ms);
                if progress {
                    eprintln!("[campaign] loaded  {key}");
                }
                job_span("loaded");
                return JobOutcome::Done(report);
            }
            Err(e) => return failed(format!("cannot claim the job in the store: {e}")),
        };

        let mut session = match job.session() {
            Ok(s) => s,
            Err(e) => return failed(e.to_string()),
        };
        let mut segments_done = 0u64;

        // Partially finished earlier: restore the checkpoint. A blob
        // the session rejects may have half-restored it, so a rejected
        // restore rebuilds the session from the spec.
        let mut attempted = false;
        let restored = lease.load_snapshot(|bytes| {
            attempted = true;
            session.restore(bytes)
        });
        if restored.is_some() {
            segments_done = carried_segments;
            self.resumed.fetch_add(1, Ordering::Relaxed);
            record(false, segments_done, session.executed_accesses(), wall_ms);
            if progress {
                eprintln!(
                    "[campaign] resumed {key} at {}/{total}",
                    session.executed_accesses()
                );
            }
        } else if attempted {
            session = match job.session() {
                Ok(s) => s,
                Err(e) => return failed(e.to_string()),
            };
        }

        // Whether this session's state can be checkpointed at all
        // (custom boxed sources cannot); decided on first attempt.
        let mut checkpointable = true;
        while !session.is_complete() {
            let out_of_budget = self.segment_budget.fetch_sub(1, Ordering::SeqCst) <= 0
                || self.deadline.is_some_and(|d| Instant::now() >= d);
            if out_of_budget {
                // The last segment's checkpoint already holds this
                // state; dropping the lease unpublished hands the job
                // to the next claimant.
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
            self.segments_run.fetch_add(1, Ordering::Relaxed);
            self.accesses_run.fetch_add(ran, Ordering::Relaxed);
            if progress {
                eprintln!(
                    "[campaign] segment {key} {}/{total} ({:.0}%)",
                    session.executed_accesses(),
                    100.0 * session.executed_accesses() as f64 / total.max(1) as f64,
                );
            }

            if !session.is_complete() && checkpointable {
                match session.snapshot() {
                    Ok(bytes) => match lease.save_snapshot(&bytes) {
                        Ok(()) => {
                            record(false, segments_done, session.executed_accesses(), wall_ms)
                        }
                        Err(e) => eprintln!("[campaign] checkpoint write failed for {key}: {e}"),
                    },
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
        lease.publish(&report);
        record(true, segments_done, total, wall_ms);
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

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("triangel-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn row(done: bool, segments: u64, executed: u64, wall_ms: u64) -> ManifestRow {
        ManifestRow {
            stem: "abc".into(),
            done,
            segments,
            executed,
            total: 1000,
            wall_ms,
        }
    }

    #[test]
    fn manifest_view_renders_v2_and_carries_observational_columns() {
        let dir = scratch("manifest");
        let view = ManifestView::open(&dir).unwrap();
        view.record("k1", row(false, 3, 750, 412));
        view.record("k2", row(true, 4, 1000, 0));
        let text = std::fs::read_to_string(dir.join("manifest.tsv")).unwrap();
        assert_eq!(
            text,
            format!(
                "{MANIFEST_HEADER}\n\
                 abc\tpartial\t3\t750\t1000\t412\tk1\n\
                 abc\tdone\t4\t1000\t1000\t0\tk2\n"
            )
        );
        // Re-opened, the view carries only `segments` and `wall_ms`.
        let reopened = ManifestView::open(&dir).unwrap();
        assert_eq!(reopened.carried("k1"), (3, 412));
        assert_eq!(reopened.carried("k2"), (4, 0));
        assert_eq!(reopened.carried("absent"), (0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_or_missing_manifest_carries_nothing() {
        let dir = scratch("manifest-v1");
        assert!(ManifestView::open(&dir).unwrap().carried.is_empty());
        // Six-column (pre-wall-time) rows and torn lines are ignored.
        std::fs::write(
            dir.join("manifest.tsv"),
            "# triangel campaign manifest v1\nabc\tpartial\t3\t750\t1000\tk1\ndef\tdo",
        )
        .unwrap();
        assert!(ManifestView::open(&dir).unwrap().carried.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sampled_report_framing_round_trips() {
        use crate::{JobSpec, RunParams, WorkloadSpec};
        use triangel_sim::PrefetcherChoice;
        use triangel_store::{report_from_bytes, report_to_bytes};
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
