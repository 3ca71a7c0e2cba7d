//! Pinned per-cell fingerprints (`fingerprints.tsv`): the correctness
//! gate every run checks its pinned-seed cells against.
//!
//! Format, one record per line, tab-separated (`#` starts a comment):
//!
//! * `names <workload> <config> <probe,probe,...>` — the probes a
//!   configuration exported when it was pinned; fingerprints hash these
//!   (plus every report counter), so probes added later do not disturb
//!   the gate while a removed or changed one trips it.
//! * `cell <workload> <seed> <row/config> <fingerprint>` — one cell.

use std::collections::BTreeMap;
use std::path::Path;

use crate::cell::{fingerprint, CellRun};

/// The pinned fingerprints of every workload.
#[derive(Debug, Default)]
pub struct Pins {
    names: BTreeMap<(String, String), Vec<String>>,
    cells: BTreeMap<(String, u64, String), u64>,
}

impl Pins {
    /// Reads `path`; a missing file is an empty set of pins.
    pub fn load(path: &Path) -> Result<Pins, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Pins::default()),
            Err(e) => return Err(format!("reading `{}`: {e}", path.display())),
        };
        let mut pins = Pins::default();
        for (i, line) in text.lines().enumerate() {
            let bad = || format!("`{}` line {}: malformed record", path.display(), i + 1);
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                [] | [""] => {}
                [c, ..] if c.starts_with('#') => {}
                ["names", wl, config, list] => {
                    let names = list.split(',').map(str::to_string).collect();
                    pins.names
                        .insert((wl.to_string(), config.to_string()), names);
                }
                ["cell", wl, seed, label, fp] => {
                    let seed = seed.parse().map_err(|_| bad())?;
                    let fp = u64::from_str_radix(fp, 16).map_err(|_| bad())?;
                    pins.cells
                        .insert((wl.to_string(), seed, label.to_string()), fp);
                }
                _ => return Err(bad()),
            }
        }
        Ok(pins)
    }

    /// The probe names pinned for `config` in `workload`.
    pub fn names(&self, workload: &str, config: &str) -> Option<&[String]> {
        self.names
            .get(&(workload.to_string(), config.to_string()))
            .map(Vec::as_slice)
    }

    /// The cell's fingerprint as it compares against the pins: over the
    /// pinned probe names when its configuration has them.
    pub fn fingerprint(&self, workload: &str, run: &CellRun) -> u64 {
        fingerprint(run, self.names(workload, &run.config))
    }

    /// The pinned fingerprint of one cell, if `seed` is pinned.
    pub fn get(&self, workload: &str, seed: u64, label: &str) -> Option<u64> {
        self.cells
            .get(&(workload.to_string(), seed, label.to_string()))
            .copied()
    }

    /// Replaces `workload`'s pins at `seed` with these runs, pinning
    /// each configuration's current probe names.
    pub fn bless(&mut self, workload: &str, seed: u64, runs: &[CellRun]) {
        self.cells
            .retain(|(wl, s, _), _| !(wl == workload && *s == seed));
        for run in runs {
            let names: Vec<String> = run
                .probes
                .entries()
                .iter()
                .map(|(n, _)| n.clone())
                .collect();
            self.names
                .insert((workload.to_string(), run.config.clone()), names);
            self.cells.insert(
                (workload.to_string(), seed, run.label.clone()),
                fingerprint(run, None),
            );
        }
    }

    /// Writes every pin to `path`.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from(
            "# Pinned per-cell fingerprints; regenerate with `--bless` (see README.md).\n",
        );
        for ((wl, config), names) in &self.names {
            out.push_str(&format!("names\t{wl}\t{config}\t{}\n", names.join(",")));
        }
        for ((wl, seed, label), fp) in &self.cells {
            out.push_str(&format!("cell\t{wl}\t{seed}\t{label}\t{fp:016x}\n"));
        }
        std::fs::write(path, out).map_err(|e| format!("writing `{}`: {e}", path.display()))
    }
}
