//! The structured probe registry.
//!
//! The old `Prefetcher::debug_string` (removed) was an unparseable grab-bag: each
//! prefetcher formatted its own counters into one line, and consumers
//! string-matched against it. A [`Probe`] instead *names* each counter
//! and records it into a [`ProbeSet`] — an ordered, scoped registry
//! that renders to JSONL for machines and to a stable `k=v` line for
//! fingerprints. Probing is read-only and deterministic: the same
//! simulation state always yields the same set, so probe output can be
//! compared across `--jobs` counts and interrupt→resume boundaries.

use std::fmt::Write as _;

use crate::json::{self, Value};

/// A component that exports named counters.
///
/// Implementations must be read-only (probing never mutates simulation
/// state) and deterministic (counter names and order depend only on
/// the component's configuration, values only on its state).
pub trait Probe {
    /// Records this component's counters into `out`.
    ///
    /// Use [`ProbeSet::scoped`] to namespace sub-components.
    fn probe(&self, out: &mut ProbeSet);
}

/// An ordered registry of named `u64` counters.
///
/// Names are dot-scoped (`core0.pf.issued`); recording order is
/// preserved, so two sets from identical state compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeSet {
    prefix: String,
    entries: Vec<(String, u64)>,
}

impl ProbeSet {
    /// An empty set.
    pub fn new() -> Self {
        ProbeSet::default()
    }

    /// Records one counter under the current scope.
    pub fn record(&mut self, name: &str, value: u64) {
        let full = if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", self.prefix, name)
        };
        self.entries.push((full, value));
    }

    /// Runs `f` with `scope` appended to the name prefix.
    pub fn scoped(&mut self, scope: &str, f: impl FnOnce(&mut ProbeSet)) {
        let saved = self.prefix.len();
        if !self.prefix.is_empty() {
            self.prefix.push('.');
        }
        self.prefix.push_str(scope);
        f(self);
        self.prefix.truncate(saved);
    }

    /// The recorded `(name, value)` pairs, in recording order.
    pub fn entries(&self) -> &[(String, u64)] {
        &self.entries
    }

    /// Looks up a counter by its full dotted name (first match).
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Number of recorded counters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Emits one JSONL line per counter:
    /// `{"name":"core0.pf.issued","value":42}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            let line = Value::obj([("name", name.as_str().into()), ("value", (*value).into())]);
            writeln!(out, "{line}").expect("writing to a String cannot fail");
        }
        out
    }

    /// Parses a document produced by [`ProbeSet::to_jsonl`].
    ///
    /// # Errors
    ///
    /// A description of the first malformed line.
    pub fn from_jsonl(src: &str) -> Result<Self, String> {
        let mut set = ProbeSet::new();
        for (i, line) in src.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let name = v
                .get("name")
                .and_then(|n| n.as_str())
                .ok_or_else(|| format!("line {}: missing \"name\"", i + 1))?;
            let value = v
                .get("value")
                .and_then(|n| n.as_u64())
                .ok_or_else(|| format!("line {}: missing u64 \"value\"", i + 1))?;
            set.record(name, value);
        }
        Ok(set)
    }

    /// Renders `name=value` pairs on one space-separated line — the
    /// human/fingerprint form (stable across runs, unlike JSON float
    /// formatting debates: everything here is `u64`).
    pub fn render(&self) -> String {
        self.entries
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_nests_and_restores() {
        let mut set = ProbeSet::new();
        set.record("top", 1);
        set.scoped("core0", |s| {
            s.record("hits", 2);
            s.scoped("pf", |s| s.record("issued", 3));
            s.record("misses", 4);
        });
        set.record("tail", 5);
        let names: Vec<&str> = set.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "top",
                "core0.hits",
                "core0.pf.issued",
                "core0.misses",
                "tail"
            ]
        );
        assert_eq!(set.get("core0.pf.issued"), Some(3));
        assert_eq!(set.get("absent"), None);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut set = ProbeSet::new();
        set.record("plain", 0);
        set.record("max", u64::MAX);
        set.scoped("odd \"scope\"", |s| s.record("tab\tname", 7));
        let text = set.to_jsonl();
        for line in text.lines() {
            crate::json::validate(line).unwrap();
        }
        let back = ProbeSet::from_jsonl(&text).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn from_jsonl_rejects_malformed() {
        assert!(ProbeSet::from_jsonl("{\"name\":\"x\"}\n").is_err());
        assert!(ProbeSet::from_jsonl("{\"name\":\"x\",\"value\":-1}\n").is_err());
        assert!(ProbeSet::from_jsonl("not json\n").is_err());
    }

    #[test]
    fn render_is_stable() {
        let mut set = ProbeSet::new();
        set.record("a", 1);
        set.record("b", 2);
        assert_eq!(set.render(), "a=1 b=2");
    }
}
