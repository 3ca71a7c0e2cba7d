//! The observability layer's hard bar: **observing a run never
//! changes it.**
//!
//! * The golden fixtures must stay byte-identical with interval
//!   sampling enabled — at `--jobs 1` and `--jobs 8`. (The summary
//!   emitters exclude the series, so any diff means sampling perturbed
//!   the simulation itself.)
//! * The recorded interval series must itself be deterministic:
//!   identical across worker counts, and identical across a campaign
//!   interrupt → resume against an uninterrupted sweep.

use std::sync::Arc;

use triangel_harness::{
    emit, Campaign, CampaignOptions, JobOutcome, ResultStore, Sweep, SweepOptions,
};
use triangel_obs::IntervalSeries;

/// Sampling period for the golden-scale runs: coarse enough to keep
/// the suites fast, fine enough that every job records several samples.
const EVERY: u64 = 1_000;

/// The sweep with interval sampling switched on for every job. The
/// content keys are unchanged (sampling is observational), so the
/// sweep still resolves shared runs exactly like the unsampled one.
fn sampled(sweep: &Sweep, every: u64) -> Sweep {
    let mut out = Sweep::new();
    for job in sweep.jobs() {
        out.push(job.clone().sample_every(every));
    }
    out
}

/// Every successful result's interval series, in job order.
fn series_of(report: &triangel_harness::SweepReport) -> Vec<Option<IntervalSeries>> {
    report
        .results
        .iter()
        .map(|r| r.as_ref().ok().and_then(|run| run.intervals.clone()))
        .collect()
}

#[test]
fn golden_fixture_is_byte_identical_with_sampling_on() {
    let fixture = std::fs::read_to_string(triangel_harness::goldens::golden_fixture_path())
        .expect("committed fixture");
    let sweep = sampled(&triangel_harness::goldens::golden_sweep(), EVERY);
    let serial = sweep.run(&SweepOptions::serial());
    assert_eq!(
        emit::sweep_to_json(&serial),
        fixture,
        "interval sampling changed the golden sweep's summary bytes"
    );
    let parallel = sweep.run(&SweepOptions::parallel(8));
    assert_eq!(
        emit::sweep_to_json(&parallel),
        fixture,
        "sampled --jobs 8 diverged from the committed fixture"
    );

    // The observation itself is deterministic: --jobs 8 records the
    // exact series --jobs 1 does, and every job carries one.
    let serial_series = series_of(&serial);
    assert!(serial_series.iter().all(|s| s
        .as_ref()
        .is_some_and(|s| s.every == EVERY && !s.is_empty())));
    assert_eq!(serial_series, series_of(&parallel));
}

#[test]
fn evict_train_fixture_is_byte_identical_with_sampling_on() {
    let fixture = std::fs::read_to_string(triangel_harness::goldens::evict_train_fixture_path())
        .expect("committed fixture");
    let sweep = sampled(&triangel_harness::goldens::evict_train_sweep(), 5_000);
    assert_eq!(
        emit::sweep_to_json(&sweep.run(&SweepOptions::serial())),
        fixture,
        "interval sampling changed the gate-on sweep's summary bytes"
    );
}

#[test]
fn campaign_resume_reproduces_the_sampled_series() {
    // One sampled job, run three ways: as an uninterrupted sweep, as
    // an uninterrupted campaign, and as a campaign killed after two
    // segments and resumed. All three series must be equal — and the
    // manifest's wall-time column must survive the resume.
    let job = {
        let golden = triangel_harness::goldens::golden_sweep();
        golden.jobs()[3].clone().sample_every(EVERY) // Xalan x Triangel
    };
    let straight = job.run().expect("sampled job runs");
    let want = straight.intervals.clone().expect("sampling was on");

    let dir = std::env::temp_dir().join(format!("triangel-obs-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let interrupted = Campaign::new().job(job.clone()).run(
        &CampaignOptions::new(ResultStore::open(&dir).unwrap())
            .workers(1)
            .segment_accesses(1_500)
            .max_segments(2),
    );
    let interrupted = interrupted.expect("campaign io");
    assert!(matches!(
        interrupted.outcomes[0],
        JobOutcome::Interrupted { .. }
    ));

    let resumed = Campaign::new()
        .job(job.clone())
        .run(
            &CampaignOptions::new(ResultStore::open(&dir).unwrap())
                .workers(1)
                .segment_accesses(1_500),
        )
        .expect("campaign io");
    let report = resumed.outcomes[0].report().expect("job finished");
    assert_eq!(
        report.intervals.as_ref(),
        Some(&want),
        "campaign interrupt → resume changed the recorded series"
    );
    assert_eq!(format!("{straight:?}"), format!("{:?}", **report));

    // A second invocation loads the persisted (v2-framed) report with
    // the series intact, executing nothing.
    let loaded = Campaign::new()
        .job(job)
        .run(&CampaignOptions::new(ResultStore::open(&dir).unwrap()).workers(1))
        .expect("campaign io");
    assert_eq!(loaded.stats.loaded, 1);
    assert_eq!(loaded.stats.segments_run, 0);
    assert_eq!(
        loaded.outcomes[0].report().unwrap().intervals.as_ref(),
        Some(&want)
    );

    // The manifest carries the accumulated wall-time column.
    let manifest = std::fs::read_to_string(dir.join("manifest.tsv")).unwrap();
    assert!(manifest.starts_with("# triangel campaign manifest v2"));
    let row = manifest.lines().nth(1).expect("one job row");
    let fields: Vec<&str> = row.split('\t').collect();
    assert_eq!(fields.len(), 7, "v2 rows carry wall_ms before the key");
    assert_eq!(fields[1], "done");
    fields[5].parse::<u64>().expect("wall_ms is a number");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_counters_surface_through_probe_and_trace() {
    use triangel_obs::Probe as _;

    let dir = std::env::temp_dir().join(format!("triangel-obs-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(triangel_harness::ResultStore::open(&dir).unwrap());

    let sweep = {
        let golden = triangel_harness::goldens::golden_sweep();
        Sweep::new()
            .job(golden.jobs()[0].clone())
            .job(golden.jobs()[3].clone())
    };

    // Cold traced pass: everything misses, executes, publishes — and
    // the trace carries a `ph:"C"` ResultStore counter sample next to
    // the ResultCache one.
    let trace = Arc::new(triangel_obs::TraceBuffer::new());
    let cold = sweep.run(
        &SweepOptions::serial()
            .with_store(Arc::clone(&store))
            .with_trace(Arc::clone(&trace)),
    );
    assert_eq!(cold.stats.executed, 2);
    let doc = trace.to_json();
    triangel_obs::json::validate(&doc).unwrap();
    assert!(doc.contains("\"name\":\"ResultStore\",\"cat\":\"counter\",\"ph\":\"C\""));
    assert!(doc.contains("\"name\":\"ResultCache\",\"cat\":\"counter\",\"ph\":\"C\""));
    assert!(doc.contains("\"inserts\":2"));

    // Warm pass on the same handle: the counters accumulate, and the
    // probe registry view renders them.
    let warm = sweep.run(&SweepOptions::serial().with_store(Arc::clone(&store)));
    assert_eq!(warm.stats.executed, 0);
    let mut probes = triangel_obs::ProbeSet::new();
    probes.scoped("store", |set| store.probe(set));
    assert_eq!(probes.get("store.hits"), Some(2));
    assert_eq!(probes.get("store.misses"), Some(2));
    assert_eq!(probes.get("store.inserts"), Some(2));
    assert_eq!(probes.get("store.discards"), Some(0));
    assert_eq!(
        store.stats().render(),
        "hits=2 misses=2 inserts=2 discards=0"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn traced_campaign_emits_valid_spans_without_changing_results() {
    let job = {
        let golden = triangel_harness::goldens::golden_sweep();
        golden.jobs()[0].clone() // Xalan x Baseline
    };
    let plain_dir = std::env::temp_dir().join(format!("triangel-obs-plain-{}", std::process::id()));
    let traced_dir =
        std::env::temp_dir().join(format!("triangel-obs-traced-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&traced_dir);

    let plain = Campaign::new()
        .job(job.clone())
        .run(
            &CampaignOptions::new(ResultStore::open(&plain_dir).unwrap())
                .workers(1)
                .segment_accesses(2_000),
        )
        .expect("campaign io");

    let trace = Arc::new(triangel_obs::TraceBuffer::new());
    let traced = Campaign::new()
        .job(job)
        .run(
            &CampaignOptions::new(ResultStore::open(&traced_dir).unwrap())
                .workers(1)
                .segment_accesses(2_000)
                .with_trace(Arc::clone(&trace)),
        )
        .expect("campaign io");

    assert_eq!(
        format!("{:?}", plain.outcomes[0].report().unwrap()),
        format!("{:?}", traced.outcomes[0].report().unwrap()),
        "tracing changed the simulated results"
    );
    // 6 000 accesses at 2 000 per segment → 3 segment spans + 1 job span.
    assert_eq!(trace.len(), 4);
    let doc = trace.to_json();
    triangel_obs::json::validate(&doc).unwrap();
    assert!(doc.contains("\"name\":\"segment\""));
    assert!(doc.contains("\"outcome\":\"done\""));

    std::fs::remove_dir_all(&plain_dir).unwrap();
    std::fs::remove_dir_all(&traced_dir).unwrap();
}
