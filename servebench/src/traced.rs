//! The traced run: the workload's transactions replayed in-process, with a
//! span around every call into a layer's public function.
//!
//! The replay cuts the saturated lane's stream into batches of the size the
//! saturated phase achieved, and the solo lane's stream into batches of
//! one, and walks each batch through the calls the server's executor makes
//! per batch: `Runtime::builder().build()`, `Runtime::run` (with
//! `Verify::None` and `Observe::Off`, and again with `Observe::Latency`),
//! `legality::is_legal`, `sg::serialisation_graph(..).is_acyclic()` and
//! `replay::final_states`. The committed final states then seed the next
//! batch, as the server does. Saturated-lane transactions additionally go
//! through `wire::encode_frame` / `wire::decode_frame` as a `Submit` and a
//! `Result` frame.
//!
//! Spans stay in memory and are written out once, as Chrome trace-event
//! JSON (viewable in Perfetto), when the run ends.

use crate::server;
use crate::workload::{dict_key, Workload, DICT_KEYS};
use obase_core::value::Value;
use obase_core::{legality, replay, sg};
use obase_exec::{ObjectBaseDef, Program, TxnSpec, WorkloadSpec};
use obase_runtime::{ExecutionBackend, Observe, RunReport, Runtime, Verify};
use obase_ser::Json;
use obase_serve::wire::{self, Frame};
use obase_serve::ServeConfig;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span name of a saturated-size batch.
pub const SATURATED: &str = "batch.saturated";
/// Span name of a one-transaction batch.
pub const SOLO: &str = "batch.solo";
/// Batches each class replays at least, whatever the time budget.
const MIN_BATCHES: usize = 8;
/// Saturated-lane transactions that also go through the codec.
const CODEC_TXNS: usize = 4096;

/// One recorded span. Times are nanoseconds since the tracer's origin.
pub struct Span {
    /// The layer call (or grouping) the span covers.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Durations (µs) of every span called `name` whose parent is called
    /// `parent` (`None`: top-level spans).
    pub fn durations_us(&self, name: &str, parent: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.map(|p| self.spans[p].name) == parent)
            .map(Span::us)
            .collect()
    }

    /// The spans as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::object([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Float(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Float(s.us())),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    (
                        "args",
                        Json::object([
                            ("span", Json::Int(i as i64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::object([("traceEvents", Json::Array(events))])
    }
}

/// Replays `workload` in-process for about `budget`: three fifths on
/// batches of `batch` transactions, the rest on batches of one.
pub fn replay(
    workload: Workload,
    seed: u64,
    batch: usize,
    budget: Duration,
) -> Result<Tracer, String> {
    let cfg = server::config();
    let mut tracer = Tracer::new();
    let mut def = workload.world();
    let mut batch_no = 0u64;
    let plan = [
        (SATURATED, 1, batch, budget.mul_f64(0.6), 400),
        (SOLO, 0, 1, budget.mul_f64(0.4), 2000),
    ];
    for (class, lane, size, share, cap) in plan {
        let mut stream = workload.stream(seed, lane);
        let deadline = Instant::now() + share;
        let mut coded = 0;
        for n in 0..cap {
            if n >= MIN_BATCHES && Instant::now() >= deadline {
                break;
            }
            let bodies: Vec<Program> = (0..size).map(|_| stream.next_body()).collect();
            if class == SATURATED {
                for body in bodies.iter().take(CODEC_TXNS.saturating_sub(coded)) {
                    coded += 1;
                    codec(&mut tracer, coded as u64, body)?;
                }
            }
            let transactions = bodies
                .into_iter()
                .enumerate()
                .map(|(i, body)| TxnSpec {
                    name: format!("t{batch_no}x{i}"),
                    body,
                })
                .collect();
            let spec = WorkloadSpec { def, transactions };
            def = traced_batch(&mut tracer, class, &cfg, &spec, batch_no)?;
            if workload == Workload::LargeDict {
                check_dictionary_sizes(&def)?;
            }
            batch_no += 1;
        }
    }
    Ok(tracer)
}

/// One `Submit` and one `Result` frame through the codec, each way.
fn codec(tracer: &mut Tracer, id: u64, body: &Program) -> Result<(), String> {
    let submit = Frame::Submit {
        id,
        name: "t".into(),
        body: body.clone(),
    };
    let result = Frame::Result {
        id,
        committed: true,
        latency_us: 1_000,
    };
    let parent = tracer.open("wire.codec", None);
    let submit_bytes = tracer.time("wire.encode_frame", parent, || wire::encode_frame(&submit));
    let submit_back = tracer.time("wire.decode_frame", parent, || {
        wire::decode_frame(&submit_bytes)
    });
    let result_bytes = tracer.time("wire.encode_frame", parent, || wire::encode_frame(&result));
    let result_back = tracer.time("wire.decode_frame", parent, || {
        wire::decode_frame(&result_bytes)
    });
    tracer.close(parent);
    for (back, sent) in [(submit_back, &submit), (result_back, &result)] {
        match back {
            Ok((frame, _)) if frame == *sent => {}
            _ => return Err(format!("a {} frame did not round-trip", sent.tag())),
        }
    }
    Ok(())
}

/// The runtime the server's executor builds per batch, with the given
/// observation plan and no post-hoc checks (those are timed separately).
fn runtime(cfg: &ServeConfig, seed: u64, observe: Observe) -> Result<Runtime, String> {
    let mut builder = Runtime::builder()
        .scheduler(cfg.scheduler.clone())
        .backend(ExecutionBackend::Parallel {
            workers: cfg.workers,
        })
        .retries(cfg.retries)
        .mvcc(cfg.mvcc)
        .seed(seed)
        .verify(Verify::None)
        .observe(observe);
    if cfg.store_shards > 0 {
        builder = builder.store_shards(cfg.store_shards);
    }
    builder
        .build()
        .map_err(|e| format!("runtime build failed: {e}"))
}

/// Runs one batch under spans and returns the next batch's world.
fn traced_batch(
    tracer: &mut Tracer,
    class: &'static str,
    cfg: &ServeConfig,
    spec: &WorkloadSpec,
    seed: u64,
) -> Result<ObjectBaseDef, String> {
    let b = tracer.open(class, None);
    let plain = tracer.time("runtime.build", b, || runtime(cfg, seed, Observe::Off))?;
    let observed = tracer.time("runtime.build_observed", b, || {
        runtime(cfg, seed, Observe::Latency)
    })?;
    // Alternate which run goes first, so neither always meets warm caches.
    let mut run = |name, rt: &Runtime| tracer.time(name, b, || rt.run(spec));
    let (report, observed_report): (_, _) = if seed.is_multiple_of(2) {
        let r = run("runtime.run", &plain);
        (r, run("runtime.run_observed", &observed))
    } else {
        let o = run("runtime.run_observed", &observed);
        (run("runtime.run", &plain), o)
    };
    let report: RunReport = report.map_err(|e| format!("batch {seed} failed: {e}"))?;
    observed_report.map_err(|e| format!("observed batch {seed} failed: {e}"))?;
    let history = &report.history;
    let legal = tracer.time("core.legality", b, || legality::is_legal(history));
    let acyclic = tracer.time("core.sg", b, || {
        sg::serialisation_graph(history).is_acyclic()
    });
    let finals = tracer.time("core.final_states", b, || replay::final_states(history));
    tracer.close(b);
    if !legal || !acyclic {
        return Err(format!(
            "batch {seed} failed the oracle (legal: {legal}, SG acyclic: {acyclic})"
        ));
    }
    let finals = finals.map_err(|e| format!("batch {seed}: final states: {e:?}"))?;
    Ok(advance(&spec.def, &finals))
}

/// The next batch's world: `finals` as the new initial states, methods
/// re-attached (the server's carry-forward between batches).
fn advance(
    def: &ObjectBaseDef,
    finals: &BTreeMap<obase_core::ids::ObjectId, Value>,
) -> ObjectBaseDef {
    let mut base = obase_core::object::ObjectBase::new();
    for spec in def.base().iter() {
        let state = finals
            .get(&spec.id)
            .cloned()
            .unwrap_or_else(|| spec.initial_state.clone());
        base.add_object_with_state(spec.name.clone(), spec.ty.clone(), state);
    }
    let mut next = ObjectBaseDef::new(Arc::new(base));
    for (object, method) in def.methods() {
        next.define_method(object, method.clone());
    }
    next
}

/// `large-dict` must stay stationary: every dictionary keeps exactly its
/// preloaded keys.
pub fn check_dictionary_sizes(def: &ObjectBaseDef) -> Result<(), String> {
    for spec in def.base().iter() {
        let stationary = matches!(&spec.initial_state, Value::Map(m)
            if m.len() == DICT_KEYS && (0..DICT_KEYS).all(|k| m.contains_key(&dict_key(k))));
        if !stationary {
            return Err(format!(
                "{} no longer holds exactly its {DICT_KEYS} preloaded keys",
                spec.name
            ));
        }
    }
    Ok(())
}
