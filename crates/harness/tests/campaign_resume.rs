//! Campaign crash-resume semantics: killing a sweep mid-flight and
//! re-running over the same store must produce byte-identical results
//! to a clean run, without re-executing completed work — and every
//! persisted byte the campaign reads back must pass the store
//! envelope's checks, so tampered state is discarded, never served.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use triangel_harness::{
    Campaign, CampaignOptions, JobOutcome, JobSpec, ResultStore, RunParams, Sweep, SweepOptions,
    WorkloadSpec,
};
use triangel_sim::PrefetcherChoice;
use triangel_workloads::spec::SpecWorkload;

const WARMUP: u64 = 2_000;
const ACCESSES: u64 = 2_000;
/// 3 segments per job at this interval.
const SEGMENT: u64 = 1_500;

fn params() -> RunParams {
    RunParams {
        warmup: WARMUP,
        accesses: ACCESSES,
        sizing_window: 1_000,
        seed: 11,
    }
}

fn jobs() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for wl in [SpecWorkload::Xalan, SpecWorkload::Mcf, SpecWorkload::Sphinx] {
        for pf in [PrefetcherChoice::Baseline, PrefetcherChoice::Triangel] {
            jobs.push(JobSpec::new(WorkloadSpec::Spec(wl), pf, params()));
        }
    }
    jobs
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("triangel-campaign-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Campaign options over a fresh handle on the store at `dir`.
fn opts(dir: &Path) -> CampaignOptions {
    CampaignOptions::new(ResultStore::open(dir).unwrap())
}

/// The same jobs through the ordinary (non-segmented) sweep scheduler,
/// rendered like [`render`]: every campaign must agree with it exactly.
fn sweep_reference(job_list: &[JobSpec]) -> BTreeMap<String, String> {
    let sweep = job_list
        .iter()
        .fold(Sweep::new(), |s, j| s.job(j.clone()))
        .run(&SweepOptions::serial());
    sweep
        .keys
        .iter()
        .zip(&sweep.results)
        .map(|(k, r)| (k.clone(), format!("{:?}", r.as_ref().unwrap())))
        .collect()
}

/// Every finished report, rendered exhaustively, keyed by job key.
fn render(report: &triangel_harness::CampaignReport) -> BTreeMap<String, String> {
    report
        .keys
        .iter()
        .zip(&report.outcomes)
        .map(|(k, o)| {
            let body = match o {
                JobOutcome::Done(r) => format!("{r:?}"),
                other => panic!("job `{k}` did not finish: {other:?}"),
            };
            (k.clone(), body)
        })
        .collect()
}

#[test]
fn interrupted_campaign_resumes_byte_identically() {
    let job_list = jobs();
    let total_segments = job_list.len() as u64 * (WARMUP + ACCESSES).div_ceil(SEGMENT);

    let reference = sweep_reference(&job_list);

    // Clean, uninterrupted campaign.
    let clean_dir = scratch_dir("clean");
    let clean = Campaign::new()
        .jobs(job_list.clone())
        .run(&opts(&clean_dir).workers(1).segment_accesses(SEGMENT))
        .unwrap();
    assert!(clean.is_complete());
    assert_eq!(clean.stats.segments_run, total_segments);
    assert_eq!(render(&clean), reference, "campaign != sweep");

    // "Kill" a sweep mid-flight: drop the pool after 7 segments.
    let dir = scratch_dir("resume");
    let interrupted = Campaign::new()
        .jobs(job_list.clone())
        .run(
            &opts(&dir)
                .workers(2)
                .segment_accesses(SEGMENT)
                .max_segments(7),
        )
        .unwrap();
    assert!(!interrupted.is_complete(), "budget must bite");
    assert!(interrupted.stats.interrupted > 0);
    assert_eq!(interrupted.stats.segments_run, 7);
    assert!(dir.join("manifest.tsv").exists());
    // Jobs the budget stopped *before their first segment* write no
    // checkpoint (there is nothing to save); everything that did make
    // progress must appear as a partial manifest row. Counted now —
    // the resumed run below rewrites the manifest.
    let partial_rows = std::fs::read_to_string(dir.join("manifest.tsv"))
        .unwrap()
        .lines()
        .filter(|l| l.split('\t').nth(1) == Some("partial"))
        .count();
    assert!(partial_rows > 0, "some job must have checkpointed mid-run");

    // Re-run with the same out-dir: completed jobs load from disk,
    // partial jobs resume from their snapshots.
    let resumed = Campaign::new()
        .jobs(job_list.clone())
        .run(&opts(&dir).workers(2).segment_accesses(SEGMENT))
        .unwrap();
    assert!(resumed.is_complete());
    assert_eq!(
        resumed.stats.loaded, interrupted.stats.completed,
        "every job finished before the kill must load, not re-run"
    );
    assert_eq!(
        resumed.stats.resumed, partial_rows,
        "every checkpointed job must resume from its snapshot"
    );
    assert_eq!(
        interrupted.stats.segments_run + resumed.stats.segments_run,
        total_segments,
        "no completed segment may be re-executed"
    );
    assert_eq!(
        render(&resumed),
        reference,
        "resumed sweep diverged from clean run"
    );

    // A third invocation is all cache hits: nothing executes.
    let warm = Campaign::new()
        .jobs(job_list)
        .run(&opts(&dir).workers(1).segment_accesses(SEGMENT))
        .unwrap();
    assert_eq!(warm.stats.segments_run, 0);
    assert_eq!(warm.stats.loaded, warm.stats.unique);
    assert_eq!(render(&warm), reference);

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_parallelism_does_not_change_results() {
    let job_list = jobs();
    let d1 = scratch_dir("j1");
    let d8 = scratch_dir("j8");
    let serial = Campaign::new()
        .jobs(job_list.clone())
        .run(&opts(&d1).workers(1).segment_accesses(SEGMENT))
        .unwrap();
    let parallel = Campaign::new()
        .jobs(job_list)
        .run(&opts(&d8).workers(8).segment_accesses(SEGMENT))
        .unwrap();
    assert_eq!(render(&serial), render(&parallel));
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d8);
}

#[test]
fn campaign_cache_slots_into_sweep_folds() {
    // The campaign's result cache satisfies an ordinary sweep without
    // executing anything — the bridge the figure folds use.
    let job_list = jobs();
    let dir = scratch_dir("cache");
    let campaign = Campaign::new()
        .jobs(job_list.clone())
        .run(&opts(&dir).workers(1).segment_accesses(SEGMENT))
        .unwrap();
    let sweep = job_list
        .iter()
        .fold(Sweep::new(), |s, j| s.job(j.clone()))
        .run(&SweepOptions::serial().with_cache(campaign.cache.clone()));
    assert_eq!(sweep.stats.executed, 0, "all jobs must cache-hit");
    assert_eq!(sweep.stats.cache_hits, job_list.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_bytes_round_trip() {
    let report = jobs()[0].run().unwrap();
    let bytes = triangel_store::report_to_bytes(&report);
    let parsed = triangel_store::report_from_bytes(&bytes).unwrap();
    assert_eq!(format!("{report:?}"), format!("{parsed:?}"));
    assert!(triangel_store::report_from_bytes(&bytes[..bytes.len() - 2]).is_err());
}

/// The acceptance bar: snapshot/restore/continue on the *golden
/// sweeps* (the byte-pinned fixture job lists), at `--jobs 1` and
/// `--jobs 8`, interrupted mid-flight — reports must equal the plain
/// serial sweep's exactly. Together with the golden fixture tests
/// (which pin that sweep to committed bytes), this transitively pins
/// campaign output to the fixtures.
#[test]
fn golden_sweeps_survive_interrupt_and_resume_at_jobs_1_and_8() {
    for (tag, sweep, segment, workers) in [
        (
            "golden-j1",
            triangel_harness::goldens::golden_sweep(),
            2_500u64,
            1usize,
        ),
        (
            "golden-j8",
            triangel_harness::goldens::golden_sweep(),
            2_500,
            8,
        ),
        (
            "evict-j8",
            triangel_harness::goldens::evict_train_sweep(),
            20_000,
            8,
        ),
    ] {
        let job_list: Vec<JobSpec> = sweep.jobs().to_vec();
        let reference = sweep_reference(&job_list);
        let dir = scratch_dir(tag);
        let options = |budget: Option<u64>| {
            let mut o = opts(&dir).workers(workers).segment_accesses(segment);
            if let Some(b) = budget {
                o = o.max_segments(b);
            }
            o
        };
        let first = Campaign::new()
            .jobs(job_list.clone())
            .run(&options(Some(5)))
            .unwrap();
        assert!(!first.is_complete(), "{tag}: interrupt must bite");
        let resumed = Campaign::new().jobs(job_list).run(&options(None)).unwrap();
        assert!(resumed.is_complete(), "{tag}");
        assert_eq!(render(&resumed), reference, "{tag} diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Mid-trace interrupt → resume: a campaign over a recorded trace
/// file that is *shorter* than the run (so replay wraps) must resume
/// from a snapshot whose cursor sits mid-file, byte-identically to an
/// uninterrupted run. This pins the `FileTrace` save/restore pair
/// (logical record cursor + wrap counter) through the whole campaign
/// stack, alongside the irregular-family snapshots.
#[test]
fn mid_trace_interrupt_resumes_byte_identically() {
    use triangel_workloads::irregular::IrregularWorkload;
    use triangel_workloads::trace_file::record_trace;

    let trace_dir = scratch_dir("trace-file");
    std::fs::create_dir_all(&trace_dir).unwrap();
    let trace_path = trace_dir.join("short.trc");
    let mut src = IrregularWorkload::ZipfKv.generator(11);
    let header = record_trace(&mut src, 1_000, &trace_path).unwrap();
    assert_eq!(header.records, 1_000);

    // A 1000-record trace under a 2000+2000-access run wraps 4 times,
    // and the 1500-access segment boundaries land at replay cursor 500
    // — every checkpoint of a trace job saves a mid-file position and
    // a non-zero wrap count. Trace jobs first: with one worker they
    // run in order, so the 4-segment budget below completes the first
    // (3 segments) and checkpoints the second mid-trace.
    let mut job_list = Vec::new();
    for pf in [PrefetcherChoice::Baseline, PrefetcherChoice::Triangel] {
        job_list.push(JobSpec::new(
            WorkloadSpec::trace_file(&trace_path).unwrap(),
            pf,
            params(),
        ));
    }
    for pf in [PrefetcherChoice::Baseline, PrefetcherChoice::Triangel] {
        job_list.push(JobSpec::new(
            WorkloadSpec::Irregular(IrregularWorkload::HashJoin),
            pf,
            params(),
        ));
    }

    let reference = sweep_reference(&job_list);

    let dir = scratch_dir("trace-resume");
    let interrupted = Campaign::new()
        .jobs(job_list.clone())
        .run(
            &opts(&dir)
                .workers(1)
                .segment_accesses(SEGMENT)
                .max_segments(4),
        )
        .unwrap();
    assert!(!interrupted.is_complete(), "budget must bite");
    let partial_trace_rows = std::fs::read_to_string(dir.join("manifest.tsv"))
        .unwrap()
        .lines()
        .filter(|l| l.split('\t').nth(1) == Some("partial"))
        .filter(|l| {
            l.split('\t')
                .nth(6)
                .is_some_and(|key| key.starts_with("trace:"))
        })
        .count();
    assert!(
        partial_trace_rows > 0,
        "a trace-file job must have checkpointed mid-trace"
    );

    let resumed = Campaign::new()
        .jobs(job_list)
        .run(&opts(&dir).workers(1).segment_accesses(SEGMENT))
        .unwrap();
    assert!(resumed.is_complete());
    assert_eq!(
        render(&resumed),
        reference,
        "mid-trace resume diverged from the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&trace_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One directory, two front ends: a campaign's store is the store a
/// sweep reads, and a sweep's publishes serve a campaign — a campaign,
/// then a sweep, then a second campaign over one directory execute
/// nothing after the first.
#[test]
fn campaign_and_sweep_share_one_store() {
    let dir = scratch_dir("shared-store");
    let job_list = jobs();

    let first = Campaign::new()
        .jobs(job_list.clone())
        .run(&opts(&dir).workers(2).segment_accesses(SEGMENT))
        .expect("campaign io");
    assert_eq!(first.stats.completed, first.stats.unique);

    let sweep = job_list
        .iter()
        .fold(Sweep::new(), |s, j| s.job(j.clone()))
        .run(&SweepOptions::serial().with_store(Arc::new(ResultStore::open(&dir).unwrap())));
    assert_eq!(
        sweep.stats.executed, 0,
        "sweep must hit the campaign's entries"
    );

    let second = Campaign::new()
        .jobs(job_list)
        .run(&opts(&dir).workers(1).segment_accesses(SEGMENT))
        .expect("campaign io");
    assert_eq!(second.stats.loaded, second.stats.unique);
    assert_eq!(second.stats.segments_run, 0);
    assert_eq!(render(&first), render(&second));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn heterogeneous_multicore_job_resumes_byte_identically() {
    // A three-core job with a *different* workload per core — the MCF
    // generator, the zipfian KV store, and a recorded-trace replay —
    // interrupted and resumed through the campaign runner. Exercises
    // the contended N-core timing model's snapshot path end to end
    // with per-core sources of three different kinds.
    use triangel_workloads::irregular::IrregularWorkload;
    use triangel_workloads::trace_file::record_trace;

    let trace_dir = scratch_dir("hetero-trace");
    std::fs::create_dir_all(&trace_dir).unwrap();
    let trace_path = trace_dir.join("hetero.trc");
    // Deliberately shorter than the run, so the looping end-of-trace
    // policy wraps mid-campaign.
    let mut src = IrregularWorkload::WebServe.generator(9);
    record_trace(&mut src, (WARMUP + ACCESSES) / 2, &trace_path).unwrap();

    let workload = WorkloadSpec::Multi(vec![
        WorkloadSpec::Spec(SpecWorkload::Mcf),
        WorkloadSpec::Irregular(IrregularWorkload::ZipfKv),
        WorkloadSpec::trace_file(&trace_path).unwrap(),
    ]);
    let job_list = vec![JobSpec::new(workload, PrefetcherChoice::Triangel, params()).with_cores(3)];

    let reference = sweep_reference(&job_list);

    // Interrupt after 1 segment, then resume with the same out-dir.
    let dir = scratch_dir("hetero");
    let interrupted = Campaign::new()
        .jobs(job_list.clone())
        .run(
            &opts(&dir)
                .workers(1)
                .segment_accesses(SEGMENT)
                .max_segments(1),
        )
        .unwrap();
    assert!(!interrupted.is_complete(), "budget must bite");
    let resumed = Campaign::new()
        .jobs(job_list)
        .run(&opts(&dir).workers(1).segment_accesses(SEGMENT))
        .unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.stats.resumed, 1, "the job must resume, not restart");
    assert_eq!(
        render(&resumed),
        reference,
        "resumed heterogeneous 3-core job diverged from the straight run"
    );

    let _ = std::fs::remove_dir_all(&trace_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Segments each job of [`jobs`] takes at [`SEGMENT`].
const SEGMENTS_PER_JOB: u64 = (WARMUP + ACCESSES).div_ceil(SEGMENT);

/// The store files of one kind (`entries` or `snaps`), sorted.
fn store_files(dir: &Path, kind: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join(kind))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

/// Flips one byte mid-file, inside the payload's counters — a value
/// that still parses, so only the envelope checksum can catch it.
fn flip_payload_byte(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let idx = bytes.len() / 2;
    bytes[idx] ^= 0x40;
    std::fs::write(path, bytes).unwrap();
}

fn truncate(path: &Path) {
    let bytes = std::fs::read(path).unwrap();
    std::fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
}

/// Corruption matrix, finished state: tampered report entries are
/// discarded (one discard per file) and their jobs re-run, and the
/// results equal a clean run's.
#[test]
fn tampered_entries_are_discarded_and_rerun() {
    let job_list = jobs();
    let reference = sweep_reference(&job_list);
    let dir = scratch_dir("matrix-entries");
    let clean = Campaign::new()
        .jobs(job_list.clone())
        .run(&opts(&dir).workers(1).segment_accesses(SEGMENT))
        .unwrap();
    assert_eq!(render(&clean), reference);

    let entries = store_files(&dir, "entries");
    assert_eq!(entries.len(), job_list.len());
    let tampered: Vec<&PathBuf> = entries.iter().step_by(2).collect();
    for path in &tampered {
        flip_payload_byte(path);
    }

    let rerun_opts = opts(&dir).workers(1).segment_accesses(SEGMENT);
    let rerun = Campaign::new().jobs(job_list).run(&rerun_opts).unwrap();
    assert_eq!(
        rerun_opts.store.stats().discards(),
        tampered.len() as u64,
        "every tampered entry must be discarded"
    );
    assert_eq!(rerun.stats.loaded, entries.len() - tampered.len());
    assert_eq!(
        rerun.stats.segments_run,
        tampered.len() as u64 * SEGMENTS_PER_JOB
    );
    assert_eq!(render(&rerun), reference, "tampered entries were served");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption matrix, partial state: a bit-flipped or truncated
/// checkpoint blob is discarded, its job restarts, and the resumed
/// campaign equals a clean run.
#[test]
fn tampered_snapshots_are_discarded_and_restarted() {
    let job_list = jobs();
    let reference = sweep_reference(&job_list);
    let total_segments = job_list.len() as u64 * SEGMENTS_PER_JOB;
    for (tag, tamper) in [
        ("matrix-snap-bitflip", flip_payload_byte as fn(&Path)),
        ("matrix-snap-truncate", truncate),
    ] {
        let dir = scratch_dir(tag);
        // One worker runs jobs in order: the first finishes in three
        // segments and the fourth checkpoints the second.
        let interrupted = Campaign::new()
            .jobs(job_list.clone())
            .run(
                &opts(&dir)
                    .workers(1)
                    .segment_accesses(SEGMENT)
                    .max_segments(SEGMENTS_PER_JOB + 1),
            )
            .unwrap();
        assert_eq!(interrupted.stats.completed, 1, "{tag}");
        let snaps = store_files(&dir, "snaps");
        assert_eq!(snaps.len(), 1, "{tag}: one job must have checkpointed");
        tamper(&snaps[0]);

        let resume_opts = opts(&dir).workers(1).segment_accesses(SEGMENT);
        let resumed = Campaign::new()
            .jobs(job_list.clone())
            .run(&resume_opts)
            .unwrap();
        assert_eq!(resume_opts.store.stats().discards(), 1, "{tag}");
        assert_eq!(resumed.stats.resumed, 0, "{tag}: the blob must not restore");
        assert_eq!(
            interrupted.stats.segments_run + resumed.stats.segments_run,
            total_segments + 1,
            "{tag}: exactly the discarded checkpoint's segment re-runs"
        );
        assert!(store_files(&dir, "snaps").is_empty(), "{tag}");
        assert_eq!(render(&resumed), reference, "{tag} diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Corruption matrix, forced stem collision: with every key hashed to
/// one stem, the entries and checkpoints of distinct jobs share probe
/// chains. Removing a slot (a job publishing, a discard) must not
/// strand the keys behind it: every checkpoint still restores, and a
/// tampered entry costs exactly its own job.
#[test]
fn forced_stem_collisions_keep_every_key_reachable() {
    let job_list = jobs();
    let reference = sweep_reference(&job_list);
    let total_segments = job_list.len() as u64 * SEGMENTS_PER_JOB;
    let dir = scratch_dir("matrix-collide");
    let colliding = || {
        CampaignOptions::new(ResultStore::open_with_stem_bits(&dir, 0).unwrap())
            .workers(1)
            .segment_accesses(SEGMENT)
    };

    // Checkpoint three jobs one segment in: three blobs in one chain.
    for job in &job_list[..3] {
        let partial = Campaign::new()
            .job(job.clone())
            .run(&colliding().max_segments(1))
            .unwrap();
        assert!(!partial.is_complete());
    }
    assert_eq!(store_files(&dir, "snaps").len(), 3);

    // The first job to finish vacates slot 0; the others must still
    // find their blobs.
    let resume_opts = colliding();
    let resumed = Campaign::new()
        .jobs(job_list.clone())
        .run(&resume_opts)
        .unwrap();
    assert_eq!(resume_opts.store.stats().discards(), 0);
    assert_eq!(resumed.stats.resumed, 3, "a checkpoint was stranded");
    assert_eq!(resumed.stats.segments_run, total_segments - 3);
    assert!(store_files(&dir, "snaps").is_empty());
    assert_eq!(render(&resumed), reference);

    // Every entry sits in the one stem's chain; tampering with the
    // head slot costs exactly that job.
    let entries = store_files(&dir, "entries");
    assert_eq!(entries.len(), job_list.len());
    let head = dir.join("entries").join(format!("{:016x}.rpt", 0u64));
    flip_payload_byte(&head);
    let rerun_opts = colliding();
    let rerun = Campaign::new().jobs(job_list).run(&rerun_opts).unwrap();
    assert_eq!(rerun_opts.store.stats().discards(), 1);
    assert_eq!(rerun.stats.loaded, entries.len() - 1);
    assert_eq!(rerun.stats.segments_run, SEGMENTS_PER_JOB);
    assert_eq!(store_files(&dir, "entries"), entries);
    assert_eq!(render(&rerun), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two campaigns racing over one directory on separate store handles
/// (`flock` contends per handle, as between processes) run every
/// segment exactly once between them: each job executes under one
/// campaign's lease and loads in the other. A campaign interrupted
/// mid-job hands its checkpoint to the other, which resumes it.
#[test]
fn concurrent_campaigns_run_each_segment_once() {
    let job_list = jobs();
    let reference = sweep_reference(&job_list);
    let total_segments = job_list.len() as u64 * SEGMENTS_PER_JOB;
    let race = |dir: &Path, budget_a: Option<u64>| {
        let run = |budget: Option<u64>| {
            let mut o = opts(dir).workers(2).segment_accesses(SEGMENT);
            if let Some(b) = budget {
                o = o.max_segments(b);
            }
            Campaign::new().jobs(job_list.clone()).run(&o).unwrap()
        };
        std::thread::scope(|s| {
            let a = s.spawn(|| run(budget_a));
            let b = s.spawn(|| run(None));
            (a.join().unwrap(), b.join().unwrap())
        })
    };

    let dir = scratch_dir("claim-race");
    let (a, b) = race(&dir, None);
    assert_eq!(
        a.stats.segments_run + b.stats.segments_run,
        total_segments,
        "a segment ran twice"
    );
    assert_eq!(a.stats.loaded + b.stats.loaded, job_list.len());
    assert_eq!(render(&a), reference);
    assert_eq!(render(&b), reference);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch_dir("claim-handoff");
    let (a, b) = race(&dir, Some(4));
    assert_eq!(
        a.stats.segments_run + b.stats.segments_run,
        total_segments,
        "an interrupted job's segments re-ran"
    );
    assert_eq!(render(&b), reference);
    let _ = std::fs::remove_dir_all(&dir);
}
