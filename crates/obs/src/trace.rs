//! Host-side tracing for the harness, in Chrome `trace_event` format.
//!
//! **Wall-clock lives here and only here.** The simulator is
//! deterministic; the harness around it (job scheduling, segment
//! checkpointing, result caching) is where wall-time goes, and that is
//! what a [`TraceBuffer`] records: complete spans (`ph:"X"`), counter
//! samples (`ph:"C"`), and instant markers (`ph:"i"`), each stamped
//! with microseconds since the buffer's creation and the recording OS
//! thread. [`TraceBuffer::to_json`] emits a `{"traceEvents":[...]}`
//! document loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`; worker-thread lanes fall out of the per-thread
//! `tid` assignment, so pool utilization is visible directly. The
//! thread that created the buffer is always lane 0 (`harness-main`),
//! whichever thread records first.

use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use crate::json::Value;

/// A typed event argument.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceArg {
    /// An integer counter or id.
    U64(u64),
    /// A rate or ratio.
    F64(f64),
    /// A label.
    Str(String),
}

impl From<&TraceArg> for Value {
    fn from(arg: &TraceArg) -> Self {
        match arg {
            TraceArg::U64(v) => (*v).into(),
            TraceArg::F64(v) => (*v).into(),
            TraceArg::Str(s) => s.as_str().into(),
        }
    }
}

#[derive(Debug)]
struct Event {
    name: String,
    cat: String,
    ph: &'static str,
    ts_us: u64,
    dur_us: Option<u64>,
    tid: u32,
    args: Vec<(String, TraceArg)>,
}

#[derive(Debug)]
struct Inner {
    events: Vec<Event>,
    /// OS thread → dense tid: the creating thread is 0, the others
    /// follow in first-seen order.
    tids: HashMap<ThreadId, u32>,
}

/// An append-only buffer of host-side trace events.
///
/// Thread-safe: harness workers record concurrently. Typically shared
/// as an `Arc<TraceBuffer>` through `SweepOptions`/`CampaignOptions`.
#[derive(Debug)]
pub struct TraceBuffer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::new()
    }
}

impl TraceBuffer {
    /// An empty buffer whose timebase starts now; the calling thread
    /// owns lane 0.
    pub fn new() -> Self {
        TraceBuffer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                events: Vec::new(),
                tids: HashMap::from([(std::thread::current().id(), 0)]),
            }),
        }
    }

    /// Microseconds elapsed since the buffer was created — use as the
    /// `start_us` of a later [`TraceBuffer::complete`] span.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn push(&self, ev: impl FnOnce(u64, u32) -> Event) {
        let ts = self.now_us();
        let mut inner = self.inner.lock().unwrap();
        let next = inner.tids.len() as u32;
        let tid = *inner
            .tids
            .entry(std::thread::current().id())
            .or_insert(next);
        let ev = ev(ts, tid);
        inner.events.push(ev);
    }

    /// Records a complete span (`ph:"X"`) from `start_us` (a prior
    /// [`TraceBuffer::now_us`]) to now, on the calling thread's lane.
    pub fn complete(&self, name: &str, cat: &str, start_us: u64, args: Vec<(String, TraceArg)>) {
        self.push(|now, tid| Event {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: "X",
            ts_us: start_us,
            dur_us: Some(now.saturating_sub(start_us)),
            tid,
            args,
        });
    }

    /// Records a counter sample (`ph:"C"`); each arg becomes one
    /// series on the counter track.
    pub fn counter(&self, name: &str, series: Vec<(String, TraceArg)>) {
        self.push(|now, tid| Event {
            name: name.to_string(),
            cat: "counter".to_string(),
            ph: "C",
            ts_us: now,
            dur_us: None,
            tid,
            args: series,
        });
    }

    /// Records an instant marker (`ph:"i"`).
    pub fn instant(&self, name: &str, cat: &str, args: Vec<(String, TraceArg)>) {
        self.push(|now, tid| Event {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: "i",
            ts_us: now,
            dur_us: None,
            tid,
            args,
        });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the buffer as a Chrome `trace_event` JSON document:
    /// `{"traceEvents":[...]}` with `thread_name` metadata for each
    /// lane.
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut tids: Vec<u32> = inner.tids.values().copied().collect();
        tids.sort_unstable();
        let lanes = tids.into_iter().map(|tid| {
            let label = if tid == 0 {
                "harness-main".to_string()
            } else {
                format!("worker-{tid}")
            };
            Value::obj([
                ("name", "thread_name".into()),
                ("ph", "M".into()),
                ("pid", 1u64.into()),
                ("tid", u64::from(tid).into()),
                ("args", Value::obj([("name", label.into())])),
            ])
        });
        let events = inner.events.iter().map(|ev| {
            let mut fields = vec![
                ("name", ev.name.as_str().into()),
                ("cat", ev.cat.as_str().into()),
                ("ph", ev.ph.into()),
                ("ts", ev.ts_us.into()),
                ("pid", 1u64.into()),
                ("tid", u64::from(ev.tid).into()),
            ];
            if let Some(dur) = ev.dur_us {
                fields.push(("dur", dur.into()));
            }
            if ev.ph == "i" {
                fields.push(("s", "t".into()));
            }
            if !ev.args.is_empty() {
                let args = ev.args.iter().map(|(k, v)| (k.as_str(), v.into()));
                fields.push(("args", Value::obj(args)));
            }
            Value::obj(fields)
        });
        Value::obj([("traceEvents", lanes.chain(events).collect())]).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn emits_valid_trace_event_json() {
        let buf = TraceBuffer::new();
        let t0 = buf.now_us();
        buf.complete(
            "job xalan",
            "job",
            t0,
            vec![
                ("key".to_string(), TraceArg::Str("xalan|pf=Triangel".into())),
                ("accesses".to_string(), TraceArg::U64(25_000)),
            ],
        );
        buf.counter(
            "ResultCache",
            vec![
                ("hits".to_string(), TraceArg::U64(3)),
                ("misses".to_string(), TraceArg::U64(9)),
            ],
        );
        buf.instant("checkpoint", "segment", vec![]);
        assert_eq!(buf.len(), 3);

        let doc = buf.to_json();
        let v = parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 thread_name metadata + 3 recorded events.
        assert_eq!(events.len(), 4);
        for ev in events {
            assert!(ev.get("name").is_some());
            assert!(ev.get("ph").is_some());
            assert!(ev.get("pid").and_then(Value::as_u64).is_some());
            assert!(ev.get("tid").and_then(Value::as_u64).is_some());
        }
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .unwrap();
        assert!(span.get("dur").and_then(Value::as_u64).is_some());
        assert_eq!(
            span.get("args")
                .and_then(|a| a.get("key"))
                .and_then(Value::as_str),
            Some("xalan|pf=Triangel")
        );
        let meta = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .unwrap();
        assert_eq!(
            meta.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str),
            Some("harness-main")
        );
    }

    #[test]
    fn threads_get_distinct_lanes() {
        let buf = std::sync::Arc::new(TraceBuffer::new());
        let t0 = buf.now_us();
        buf.complete("main-span", "job", t0, vec![]);
        let b2 = buf.clone();
        std::thread::spawn(move || {
            let t = b2.now_us();
            b2.complete("worker-span", "job", t, vec![]);
        })
        .join()
        .unwrap();
        let v = parse(&buf.to_json()).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let tids: std::collections::HashSet<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .map(|e| e.get("tid").and_then(Value::as_u64).unwrap())
            .collect();
        assert_eq!(tids.len(), 2);
    }

    #[test]
    fn creator_owns_lane_zero_even_when_recording_last() {
        let buf = std::sync::Arc::new(TraceBuffer::new());
        let b2 = buf.clone();
        std::thread::spawn(move || {
            let t = b2.now_us();
            b2.complete("job", "job", t, vec![]);
        })
        .join()
        .unwrap();
        let t0 = buf.now_us();
        buf.complete("sweep", "sweep", t0, vec![]);
        let v = parse(&buf.to_json()).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let field = |e: &Value, k: &str| e.get(k).and_then(Value::as_str).map(str::to_string);
        let tid_of = |name: &str| {
            events
                .iter()
                .find(|e| {
                    field(e, "ph").as_deref() != Some("M")
                        && field(e, "name").as_deref() == Some(name)
                })
                .and_then(|e| e.get("tid").and_then(Value::as_u64))
                .unwrap()
        };
        let lane_name = |tid: u64| {
            events
                .iter()
                .find(|e| {
                    field(e, "ph").as_deref() == Some("M")
                        && e.get("tid").and_then(Value::as_u64) == Some(tid)
                })
                .and_then(|e| e.get("args").and_then(|a| field(a, "name")))
                .unwrap()
        };
        assert_eq!(lane_name(tid_of("sweep")), "harness-main");
        assert_eq!(lane_name(tid_of("job")), "worker-1");
    }

    #[test]
    fn empty_buffer_is_still_valid_json() {
        let buf = TraceBuffer::new();
        assert!(buf.is_empty());
        crate::json::validate(&buf.to_json()).unwrap();
    }
}
