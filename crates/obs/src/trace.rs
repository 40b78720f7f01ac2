//! Observers that keep the stream: raw recording, and Chrome/Perfetto
//! trace-event export.
//!
//! [`RecordingObserver`] appends every lane batch to one mutex-guarded list
//! (contention is per *flush*, not per event — lanes batch).
//! [`ChromeTraceObserver`] wraps it and renders the collected stream in the
//! `chrome://tracing` / Perfetto trace-event JSON format via `obase-ser`:
//! one timeline lane per parallel worker plus the control-plane and WAL
//! lanes, a complete (`"ph": "X"`) span per transaction attempt, per blocked
//! wait, per certification and per fsync, and instant events for submits,
//! retries, installs and dooms. Load the file at <https://ui.perfetto.dev>
//! or `chrome://tracing`.

use crate::event::{LaneId, ObsEvent, ObsStamped, Observer};
use crate::report::LatencyReport;
use obase_ser::Json;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

use obase_core::ids::ExecId;

/// Collects every lane batch, in flush order.
#[derive(Debug, Default)]
pub struct RecordingObserver {
    batches: Mutex<Vec<(LaneId, Vec<ObsStamped>)>>,
}

impl Observer for RecordingObserver {
    fn observe(&self, lane: LaneId, events: Vec<ObsStamped>) {
        self.batches().push((lane, events));
    }
}

impl RecordingObserver {
    fn batches(&self) -> MutexGuard<'_, Vec<(LaneId, Vec<ObsStamped>)>> {
        self.batches.lock().expect("recording observer poisoned")
    }

    /// A copy of everything recorded so far, as (lane, batch) pairs.
    pub fn snapshot(&self) -> Vec<(LaneId, Vec<ObsStamped>)> {
        self.batches().clone()
    }

    /// Drops everything recorded so far (e.g. between `compare` legs).
    pub fn clear(&self) {
        self.batches().clear();
    }

    /// Derives the latency report from the recorded stream, reading the
    /// batches in place under the lock rather than copying them out.
    pub fn latency(&self) -> LatencyReport {
        LatencyReport::from_events(&self.batches())
    }
}

/// Records the stream and exports it as Chrome/Perfetto trace-event JSON.
#[derive(Debug, Default)]
pub struct ChromeTraceObserver {
    rec: RecordingObserver,
}

impl Observer for ChromeTraceObserver {
    fn observe(&self, lane: LaneId, events: Vec<ObsStamped>) {
        self.rec.observe(lane, events);
    }
}

/// One complete span being assembled for the trace.
struct Span {
    name: String,
    cat: &'static str,
    lane: String,
    begin: u64,
    end: u64,
    args: Vec<(&'static str, Json)>,
}

impl ChromeTraceObserver {
    /// A fresh observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the raw recorded stream.
    pub fn snapshot(&self) -> Vec<(LaneId, Vec<ObsStamped>)> {
        self.rec.snapshot()
    }

    /// The latency report for the recorded stream.
    pub fn latency(&self) -> LatencyReport {
        self.rec.latency()
    }

    /// Renders the recorded stream as a trace-event JSON document:
    /// `{"traceEvents": [...], "displayTimeUnit": "ms"}` with microsecond
    /// `ts`/`dur`, thread-name metadata per lane, complete spans for
    /// transaction attempts / blocked waits / certifications / fsyncs, and
    /// instants for submits, retries, installs, first grants and dooms.
    pub fn trace_json(&self) -> Json {
        let batches: Vec<(String, Vec<ObsStamped>)> = self
            .rec
            .snapshot()
            .into_iter()
            .map(|(lane, events)| (lane.to_string(), events))
            .collect();
        // Lanes become tids in order of first appearance.
        let mut tids: BTreeMap<String, i64> = BTreeMap::new();
        for (lane, _) in &batches {
            let next = tids.len() as i64 + 1;
            tids.entry(lane.clone()).or_insert(next);
        }

        // First pass: per-top lifecycle state, open spans, instants.
        struct Top {
            lane: String,
            admit: u64,
            spec: usize,
            attempt: u32,
            certify: Option<u64>,
            settle: Option<(u64, &'static str)>,
        }
        let mut tops: BTreeMap<ExecId, Top> = BTreeMap::new();
        let mut spans: Vec<Span> = Vec::new();
        let mut instants: Vec<(String, u64, String, &'static str)> = Vec::new();
        let mut open_blocks: BTreeMap<(ExecId, u32, usize), VecDeque<(String, u64)>> =
            BTreeMap::new();
        let mut open_fsync: BTreeMap<String, VecDeque<u64>> = BTreeMap::new();
        let mut last_ts = 0u64;

        for (lane, events) in &batches {
            for s in events {
                last_ts = last_ts.max(s.at_micros);
                match s.event {
                    ObsEvent::Admit { top, spec, attempt } => {
                        tops.entry(top).or_insert(Top {
                            lane: lane.clone(),
                            admit: s.at_micros,
                            spec,
                            attempt,
                            certify: None,
                            settle: None,
                        });
                    }
                    ObsEvent::CertifyBegin { top } => {
                        if let Some(t) = tops.get_mut(&top) {
                            t.certify.get_or_insert(s.at_micros);
                        }
                    }
                    ObsEvent::Commit { top } => {
                        if let Some(t) = tops.get_mut(&top) {
                            t.settle.get_or_insert((s.at_micros, "commit"));
                        }
                    }
                    ObsEvent::Abort { top } => {
                        if let Some(t) = tops.get_mut(&top) {
                            t.settle.get_or_insert((s.at_micros, "abort"));
                        }
                    }
                    ObsEvent::BlockBegin { top, object, shard } => {
                        open_blocks
                            .entry((top, object.0, shard))
                            .or_default()
                            .push_back((lane.clone(), s.at_micros));
                    }
                    ObsEvent::BlockEnd { top, object, shard } => {
                        if let Some(opens) = open_blocks.get_mut(&(top, object.0, shard)) {
                            if let Some((begin_lane, begin)) = opens.pop_front() {
                                spans.push(Span {
                                    name: format!("blocked o{}", object.0),
                                    cat: "blocked",
                                    lane: begin_lane,
                                    begin,
                                    end: s.at_micros,
                                    args: vec![
                                        ("top", Json::Int(top.0 as i64)),
                                        ("object", Json::Int(object.0 as i64)),
                                        ("shard", Json::Int(shard as i64)),
                                    ],
                                });
                            }
                        }
                    }
                    ObsEvent::FsyncBegin => {
                        open_fsync
                            .entry(lane.clone())
                            .or_default()
                            .push_back(s.at_micros);
                    }
                    ObsEvent::FsyncEnd => {
                        if let Some(opens) = open_fsync.get_mut(lane.as_str()) {
                            if let Some(begin) = opens.pop_front() {
                                spans.push(Span {
                                    name: "fsync".to_owned(),
                                    cat: "wal",
                                    lane: lane.clone(),
                                    begin,
                                    end: s.at_micros,
                                    args: Vec::new(),
                                });
                            }
                        }
                    }
                    ObsEvent::Submit { spec, attempt } => {
                        instants.push((
                            lane.clone(),
                            s.at_micros,
                            format!("submit t{spec}.{attempt}"),
                            "submit",
                        ));
                    }
                    ObsEvent::Retry { spec, attempt } => {
                        instants.push((
                            lane.clone(),
                            s.at_micros,
                            format!("retry t{spec}.{attempt}"),
                            "retry",
                        ));
                    }
                    ObsEvent::Install { top, object } => {
                        instants.push((
                            lane.clone(),
                            s.at_micros,
                            format!("install o{} e{}", object.0, top.0),
                            "install",
                        ));
                    }
                    ObsEvent::FirstGrant { top } => {
                        instants.push((
                            lane.clone(),
                            s.at_micros,
                            format!("first grant e{}", top.0),
                            "grant",
                        ));
                    }
                    ObsEvent::Doom { top } => {
                        instants.push((
                            lane.clone(),
                            s.at_micros,
                            format!("doom e{}", top.0),
                            "doom",
                        ));
                    }
                }
            }
        }

        // One span per transaction attempt: admission → settle (or the last
        // timestamp, for attempts still in flight when recording stopped).
        for (top, t) in &tops {
            let (end, outcome) = t.settle.unwrap_or((last_ts, "unsettled"));
            let mut args = vec![
                ("top", Json::Int(top.0 as i64)),
                ("spec", Json::Int(t.spec as i64)),
                ("attempt", Json::Int(t.attempt as i64)),
                ("outcome", Json::str(outcome)),
            ];
            if let Some(c) = t.certify {
                args.push(("certify_us", Json::Int(c as i64)));
            }
            spans.push(Span {
                name: format!("txn t{}.{} e{}", t.spec, t.attempt, top.0),
                cat: "txn",
                lane: t.lane.clone(),
                begin: t.admit,
                end: end.max(t.admit),
                args,
            });
            if let Some(c) = t.certify {
                if let Some((settle, _)) = t.settle {
                    spans.push(Span {
                        name: format!("certify e{}", top.0),
                        cat: "certify",
                        lane: t.lane.clone(),
                        begin: c,
                        end: settle.max(c),
                        args: vec![("top", Json::Int(top.0 as i64))],
                    });
                }
            }
        }

        let tid_of = |lane: &str| *tids.get(lane).unwrap_or(&0);
        let mut events: Vec<Json> = Vec::new();
        for (lane, tid) in &tids {
            events.push(Json::object([
                ("ph", Json::str("M")),
                ("name", Json::str("thread_name")),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(*tid)),
                ("args", Json::object([("name", Json::str(lane.clone()))])),
            ]));
        }
        spans.sort_by_key(|s| s.begin);
        for s in spans {
            events.push(Json::object([
                ("ph", Json::str("X")),
                ("name", Json::Str(s.name)),
                ("cat", Json::str(s.cat)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(tid_of(&s.lane))),
                ("ts", Json::Int(s.begin as i64)),
                ("dur", Json::Int((s.end - s.begin) as i64)),
                (
                    "args",
                    Json::Object(s.args.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()),
                ),
            ]));
        }
        instants.sort_by_key(|(_, ts, _, _)| *ts);
        for (lane, ts, name, cat) in instants {
            events.push(Json::object([
                ("ph", Json::str("i")),
                ("name", Json::Str(name)),
                ("cat", Json::str(cat)),
                ("s", Json::str("t")),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(tid_of(&lane))),
                ("ts", Json::Int(ts as i64)),
            ]));
        }
        Json::object([
            ("traceEvents", Json::Array(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }

    /// Writes [`ChromeTraceObserver::trace_json`] to `path`.
    pub fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.trace_json().to_string() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NullObserver, ObsHandle};
    use obase_core::ids::ObjectId;
    use std::sync::Arc;

    fn feed(obs: &ChromeTraceObserver) {
        let top = ExecId(4);
        obs.observe(
            "control".into(),
            vec![ObsStamped {
                at_micros: 0,
                event: ObsEvent::Submit {
                    spec: 0,
                    attempt: 0,
                },
            }],
        );
        obs.observe(
            LaneId::worker(1),
            vec![
                ObsStamped {
                    at_micros: 3,
                    event: ObsEvent::Admit {
                        top,
                        spec: 0,
                        attempt: 0,
                    },
                },
                ObsStamped {
                    at_micros: 4,
                    event: ObsEvent::BlockBegin {
                        top,
                        object: ObjectId(2),
                        shard: 1,
                    },
                },
                ObsStamped {
                    at_micros: 9,
                    event: ObsEvent::BlockEnd {
                        top,
                        object: ObjectId(2),
                        shard: 1,
                    },
                },
                ObsStamped {
                    at_micros: 12,
                    event: ObsEvent::CertifyBegin { top },
                },
                ObsStamped {
                    at_micros: 15,
                    event: ObsEvent::Commit { top },
                },
            ],
        );
    }

    #[test]
    fn trace_round_trips_through_obase_ser() {
        let obs = ChromeTraceObserver::new();
        feed(&obs);
        let text = obs.trace_json().to_string();
        let parsed = Json::parse(&text).expect("trace parses back");
        let Json::Object(doc) = parsed else {
            panic!("trace is not an object")
        };
        let Some(Json::Array(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents array")
        };
        // Lane metadata for both lanes.
        let lanes: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                Json::Object(o) if o.get("ph").and_then(Json::as_str) == Some("M") => {
                    o.get("args").and_then(|a| match a {
                        Json::Object(a) => a.get("name").and_then(Json::as_str),
                        _ => None,
                    })
                }
                _ => None,
            })
            .collect();
        assert!(lanes.contains(&"control"));
        assert!(lanes.contains(&"worker-1"));
        // One committed txn span, one blocked span, one certify span.
        let span_cats: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                Json::Object(o) if o.get("ph").and_then(Json::as_str) == Some("X") => {
                    o.get("cat").and_then(Json::as_str)
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            span_cats.iter().filter(|c| **c == "txn").count(),
            1,
            "one txn span"
        );
        assert!(span_cats.contains(&"blocked"));
        assert!(span_cats.contains(&"certify"));
    }

    #[test]
    fn latency_and_clear_work_through_the_handle() {
        let obs = Arc::new(ChromeTraceObserver::new());
        let h = ObsHandle::new(obs.clone());
        assert!(h.is_on());
        feed(&obs);
        assert_eq!(obs.latency().e2e().count(), 1);
        obs.rec.clear();
        assert_eq!(obs.latency().e2e().count(), 0);
        // The null observer never reaches any of this.
        assert!(!ObsHandle::new(Arc::new(NullObserver)).is_on());
    }
}
