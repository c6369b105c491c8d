//! The benchmark-owned span recorder. Spans are taken from outside the
//! program, at the calls this benchmark makes into each layer and at the
//! object-store boundary; they stay in memory and are written out once,
//! when the traced run ends.

use crate::bind::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. `parent` is the index of the span that caused it
/// (the unit's root span); root spans have none.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub unit: u64,
    /// What ran: `unit`, a store op (`put`, `get`, `delete`, `list`) or a
    /// direct layer call (`compress.encode`, ...).
    pub name: &'static str,
    /// Key class of a store op (`in`, `out`, `_tmp`, `dataflow`,
    /// `manifest`, `other`); empty otherwise.
    pub class: &'static str,
    pub bytes: u64,
    pub t0: f64,
    pub t1: f64,
    pub thread: u64,
}

/// Payload ops that crossed the store boundary, counted whether or not
/// spans are kept: the counts are exact and cost four relaxed adds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    pub puts: u64,
    pub gets: u64,
    pub put_bytes: u64,
    pub get_bytes: u64,
}

impl StoreCounts {
    pub fn ops(&self) -> u64 {
        self.puts + self.gets
    }

    pub fn bytes(&self) -> u64 {
        self.put_bytes + self.get_bytes
    }

    pub fn since(&self, earlier: &StoreCounts) -> StoreCounts {
        StoreCounts {
            puts: self.puts - earlier.puts,
            gets: self.gets - earlier.gets,
            put_bytes: self.put_bytes - earlier.put_bytes,
            get_bytes: self.get_bytes - earlier.get_bytes,
        }
    }
}

/// Counters always; spans only when built with [`Recorder::tracing`].
pub struct Recorder {
    epoch: Instant,
    puts: AtomicU64,
    gets: AtomicU64,
    put_bytes: AtomicU64,
    get_bytes: AtomicU64,
    /// `(unit, root span index)` of the unit in flight.
    current: Mutex<(u64, Option<usize>)>,
    spans: Option<Mutex<Vec<Span>>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static THREAD_NO: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Recorder {
    fn new(tracing: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            put_bytes: AtomicU64::new(0),
            get_bytes: AtomicU64::new(0),
            current: Mutex::new((0, None)),
            spans: tracing.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Counts store traffic, keeps no spans (the timed run).
    pub fn counting() -> Recorder {
        Recorder::new(false)
    }

    /// Counts store traffic and keeps every span (the traced run).
    pub fn tracing() -> Recorder {
        Recorder::new(true)
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn counts(&self) -> StoreCounts {
        StoreCounts {
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            put_bytes: self.put_bytes.load(Ordering::Relaxed),
            get_bytes: self.get_bytes.load(Ordering::Relaxed),
        }
    }

    /// Open the root span of `unit`; store ops recorded until
    /// [`end_unit`](Self::end_unit) are its children.
    pub fn begin_unit(&self, unit: u64) {
        let root = self.spans.as_ref().map(|spans| {
            let mut spans = spans.lock().expect("span list poisoned");
            let t = self.now();
            spans.push(Span {
                parent: None,
                unit,
                name: "unit",
                class: "",
                bytes: 0,
                t0: t,
                t1: t,
                thread: THREAD_NO.with(|t| *t),
            });
            spans.len() - 1
        });
        *self.current.lock().expect("current unit poisoned") = (unit, root);
    }

    pub fn end_unit(&self) {
        let (_, root) = *self.current.lock().expect("current unit poisoned");
        if let (Some(spans), Some(root)) = (&self.spans, root) {
            spans.lock().expect("span list poisoned")[root].t1 = self.now();
        }
    }

    /// Count one payload op (put or get) and, when tracing, keep its span.
    pub fn store_op(&self, name: &'static str, key: &str, bytes: u64, t0: f64) {
        match name {
            "put" => {
                self.puts.fetch_add(1, Ordering::Relaxed);
                self.put_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            "get" => {
                self.gets.fetch_add(1, Ordering::Relaxed);
                self.get_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            _ => {}
        }
        self.span(name, key_class(key), bytes, t0);
    }

    /// Keep a span that started at `t0` (from [`now`](Self::now)) and
    /// ends now, as a child of the unit in flight.
    pub fn span(&self, name: &'static str, class: &'static str, bytes: u64, t0: f64) {
        let Some(spans) = &self.spans else { return };
        let t1 = self.now();
        let (unit, parent) = *self.current.lock().expect("current unit poisoned");
        spans.lock().expect("span list poisoned").push(Span {
            parent,
            unit,
            name,
            class,
            bytes,
            t0,
            t1,
            thread: THREAD_NO.with(|t| *t),
        });
    }

    /// Every span kept so far (empty when not tracing).
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("span list poisoned").clone())
            .unwrap_or_default()
    }
}

/// Which part of an offload a storage key belongs to.
pub fn key_class(key: &str) -> &'static str {
    if key.contains("/_tmp/") {
        "_tmp"
    } else if key.contains("/dataflow/") {
        "dataflow"
    } else if key.contains("/in/") {
        "in"
    } else if key.contains("/out/") {
        "out"
    } else if key.ends_with("/manifest") {
        "manifest"
    } else {
        "other"
    }
}

/// Chrome-trace (`chrome://tracing`, Perfetto) rendering of `spans`:
/// complete events, microsecond timestamps, one row per thread.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans.iter().enumerate().map(|(id, s)| {
        Json::obj([
            ("name", Json::Str(s.name.to_string())),
            ("cat", Json::Str(layer_of(s.name).to_string())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Num(s.t0 * 1e6)),
            ("dur", Json::Num((s.t1 - s.t0) * 1e6)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(s.thread as f64)),
            (
                "args",
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("unit", Json::Num(s.unit as f64)),
                    ("class", Json::Str(s.class.to_string())),
                    ("bytes", Json::Num(s.bytes as f64)),
                ]),
            ),
        ])
    });
    Json::obj([("traceEvents", Json::Arr(events.collect()))])
}

/// The layer (crate) a span name is charged to.
fn layer_of(name: &str) -> &str {
    match name {
        "unit" => "omp",
        "put" | "get" | "delete" | "list" => "storage",
        other => other.split('.').next().unwrap_or(other),
    }
}

/// Store spans (puts and gets) of each unit, as `(t0, t1)` intervals
/// grouped by unit, for the busy/in-flight folds.
pub fn store_intervals_by_unit(spans: &[Span]) -> std::collections::BTreeMap<u64, Vec<(f64, f64)>> {
    let mut by_unit = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| matches!(s.name, "put" | "get")) {
        by_unit
            .entry(s.unit)
            .or_insert_with(Vec::new)
            .push((s.t0, s.t1));
    }
    by_unit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_classify_by_path_segment() {
        assert_eq!(key_class("jobs/job-3/in/A"), "in");
        assert_eq!(key_class("jobs/job-3/out/C"), "out");
        assert_eq!(key_class("jobs/region-ab/_tmp/C"), "_tmp");
        assert_eq!(key_class("jobs/dataflow/dag-1/v2/y"), "dataflow");
        assert_eq!(key_class("jobs/region-ab/manifest"), "manifest");
        assert_eq!(key_class("journal/x"), "other");
    }

    #[test]
    fn counting_recorder_counts_but_keeps_no_spans() {
        let r = Recorder::counting();
        r.begin_unit(1);
        r.store_op("put", "p/in/x", 10, r.now());
        r.store_op("get", "p/in/x", 10, r.now());
        r.store_op("delete", "p/in/x", 0, r.now());
        r.end_unit();
        let c = r.counts();
        assert_eq!((c.puts, c.gets, c.put_bytes, c.get_bytes), (1, 1, 10, 10));
        assert_eq!((c.ops(), c.bytes()), (2, 20));
        assert!(r.spans().is_empty());
    }

    #[test]
    fn tracing_recorder_parents_ops_to_their_unit() {
        let r = Recorder::tracing();
        r.begin_unit(7);
        r.store_op("put", "p/in/x", 4, r.now());
        r.end_unit();
        r.begin_unit(8);
        r.store_op("get", "p/out/y", 4, r.now());
        r.end_unit();
        let spans = r.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].name, spans[0].parent), ("unit", None));
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].unit),
            ("put", Some(0), 7)
        );
        assert_eq!(
            (spans[3].name, spans[3].parent, spans[3].unit),
            ("get", Some(2), 8)
        );
        assert!(spans[0].t1 >= spans[1].t1);
        let by_unit = store_intervals_by_unit(&spans);
        assert_eq!(by_unit[&7].len(), 1);
        assert_eq!(by_unit[&8].len(), 1);
    }
}
