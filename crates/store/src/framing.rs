//! Binary framing for persisted [`RunReport`]s: the payload of every
//! [`crate::ResultStore`] entry, whether a sweep or a campaign
//! published it. Version 2 appends the optional interval time-series,
//! so sampled jobs persist (and are served) with their recorded series
//! intact.

use triangel_sim::RunReport;
use triangel_types::snap::{snap_check, SnapError, SnapReader, SnapWriter, Snapshot};

/// Magic framing for persisted [`RunReport`]s.
pub const REPORT_MAGIC: [u8; 8] = *b"TRGLRPT\0";

/// Version of the persisted-report framing. v2 appends the optional
/// interval time-series, so sampled campaign jobs resume with their
/// recorded series intact.
pub const REPORT_VERSION: u32 = 2;

/// Serializes a [`RunReport`] in the snapshot framing.
pub fn report_to_bytes(report: &RunReport) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.bytes(&REPORT_MAGIC);
    w.u32(REPORT_VERSION);
    w.str(&report.workload);
    w.usize(report.cores.len());
    for c in &report.cores {
        w.str(&c.workload);
        w.str(&c.pf_name);
        w.u64(c.instructions);
        w.u64(c.cycles);
        let _ = c.l2.save(&mut w);
        let _ = c.core.save(&mut w);
        let _ = c.pf.save(&mut w);
    }
    let _ = report.l3.save(&mut w);
    let _ = report.dram.save(&mut w);
    w.usize(report.markov_ways);
    match &report.intervals {
        Some(series) => {
            w.bool(true);
            let _ = series.save(&mut w);
        }
        None => w.bool(false),
    }
    w.into_bytes()
}

/// Parses a report written by [`report_to_bytes`].
///
/// # Errors
///
/// [`SnapError`] on truncated, corrupt, or differently-versioned data.
pub fn report_from_bytes(bytes: &[u8]) -> Result<RunReport, SnapError> {
    let mut r = SnapReader::new(bytes);
    snap_check(r.bytes()? == REPORT_MAGIC, "bad report magic")?;
    let version = r.u32()?;
    if version != REPORT_VERSION {
        return Err(SnapError::Version {
            found: version,
            expected: REPORT_VERSION,
        });
    }
    let workload = r.str()?;
    let n = r.usize()?;
    snap_check(n > 0 && n <= 1024, "implausible core count")?;
    let mut cores = Vec::with_capacity(n);
    for _ in 0..n {
        let mut core = triangel_sim::CoreReport {
            workload: r.str()?,
            pf_name: r.str()?,
            instructions: r.u64()?,
            cycles: r.u64()?,
            l2: Default::default(),
            core: Default::default(),
            pf: Default::default(),
        };
        core.l2.restore(&mut r)?;
        core.core.restore(&mut r)?;
        core.pf.restore(&mut r)?;
        cores.push(core);
    }
    let mut report = RunReport {
        workload,
        cores,
        l3: Default::default(),
        dram: Default::default(),
        markov_ways: 0,
        intervals: None,
    };
    report.l3.restore(&mut r)?;
    report.dram.restore(&mut r)?;
    report.markov_ways = r.usize()?;
    if r.bool()? {
        // Mirror `IntervalSeries::save` by hand: its `restore` checks
        // the period against an already-configured session, but a
        // persisted report must accept whatever period it recorded.
        let every = r.u64()?;
        snap_check(every > 0, "sampled report with zero period")?;
        let n = r.usize()?;
        snap_check(n <= 1 << 24, "implausible sample count")?;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let mut s = triangel_obs::IntervalSample::default();
            s.restore(&mut r)?;
            samples.push(s);
        }
        report.intervals = Some(triangel_obs::IntervalSeries { every, samples });
    }
    r.finish()?;
    Ok(report)
}
