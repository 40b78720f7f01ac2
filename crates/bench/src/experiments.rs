//! Experiment implementations (see DESIGN.md §5 for the index).

use obase_exec::{RunMetrics, WorkloadSpec};
use obase_runtime::{
    ChromeTraceObserver, ExecutionBackend, LatencyReport, NullObserver, Observe, RunReport,
    Runtime, SchedulerSpec, Verify,
};
use obase_ser::Json;
use obase_workload as wl;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One row of an experiment table: a label plus named numeric columns, and
/// optionally named histograms (nested key → count maps, e.g. abort counts
/// by [`AbortReason`](obase_core::sched::AbortReason) variant).
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (e.g. the scheduler or the swept parameter value).
    pub label: String,
    /// Named measurements, in insertion order of the experiment.
    pub values: BTreeMap<String, f64>,
    /// Named histograms, rendered as nested JSON objects (not as table
    /// columns).
    pub histograms: BTreeMap<String, BTreeMap<String, f64>>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>) -> Self {
        Row {
            label: label.into(),
            values: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Adds a column.
    pub fn with(mut self, key: &str, value: f64) -> Self {
        self.values.insert(key.to_owned(), value);
        self
    }

    /// Adds a histogram (e.g. abort counts keyed by reason variant).
    pub fn with_histogram(
        mut self,
        key: &str,
        counts: impl IntoIterator<Item = (String, f64)>,
    ) -> Self {
        self.histograms
            .insert(key.to_owned(), counts.into_iter().collect());
        self
    }

    /// Renders the row as a JSON object: `label`, one number per column,
    /// and one nested object per histogram.
    pub fn to_json(&self) -> Json {
        let mut obj: BTreeMap<String, Json> = BTreeMap::new();
        obj.insert("label".to_owned(), Json::str(&self.label));
        for (k, v) in &self.values {
            obj.insert(k.clone(), Json::Float(*v));
        }
        for (k, hist) in &self.histograms {
            obj.insert(
                k.clone(),
                Json::Object(
                    hist.iter()
                        .map(|(reason, n)| (reason.clone(), Json::Float(*n)))
                        .collect(),
                ),
            );
        }
        Json::Object(obj)
    }
}

/// Sums equally named histograms across rows (the per-experiment aggregate
/// recorded next to the rows in `BENCH_results.json`).
fn aggregate_histograms(rows: &[Row]) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut agg: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for row in rows {
        for (key, hist) in &row.histograms {
            let bucket = agg.entry(key.clone()).or_default();
            for (reason, n) in hist {
                *bucket.entry(reason.clone()).or_default() += n;
            }
        }
    }
    agg
}

/// Renders a set of finished experiments as the `BENCH_results.json`
/// document: one entry per experiment keyed by its id, carrying the title,
/// every row with its measurements (throughput, makespan, abort counts,
/// wall-clock time where measured) and — wherever rows record histograms —
/// a per-experiment aggregate (e.g. `aborts_by_reason`, summed over rows),
/// so the bench trajectory captures *why* schedulers abort, not just how
/// often.
pub fn results_json(results: &[(&str, &str, Vec<Row>)]) -> Json {
    let mut doc: BTreeMap<String, Json> = BTreeMap::new();
    for (key, title, rows) in results {
        let mut entry: BTreeMap<String, Json> = BTreeMap::new();
        entry.insert("title".to_owned(), Json::str(*title));
        entry.insert(
            "rows".to_owned(),
            Json::Array(rows.iter().map(Row::to_json).collect()),
        );
        for (hkey, hist) in aggregate_histograms(rows) {
            entry.insert(
                hkey,
                Json::Object(
                    hist.into_iter()
                        .map(|(reason, n)| (reason, Json::Float(n)))
                        .collect(),
                ),
            );
        }
        doc.insert((*key).to_owned(), Json::Object(entry));
    }
    Json::Object(doc)
}

/// Merges `entries`, a JSON object, into the results document at `path`:
/// the document's other keys survive. An existing file that is not a JSON
/// object is refused, never overwritten.
pub fn merge_results(path: &str, entries: Json) -> Result<(), String> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(existing) => match Json::parse(&existing) {
            Ok(Json::Object(map)) => map,
            Ok(_) | Err(_) => {
                return Err(format!(
                    "{path} exists but is not a JSON object; refusing to overwrite it \
                     (fix or remove the file, or pick another --out path)"
                ))
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeMap::new(),
        Err(e) => {
            return Err(format!(
                "cannot read existing {path}: {e}; refusing to overwrite it"
            ))
        }
    };
    if let Json::Object(map) = entries {
        doc.extend(map);
    }
    std::fs::write(path, Json::Object(doc).to_string() + "\n")
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// Renders rows as a Markdown table.
pub fn render_table(title: &str, rows: &[Row]) -> String {
    let mut columns: Vec<String> = Vec::new();
    for r in rows {
        for k in r.values.keys() {
            if !columns.contains(k) {
                columns.push(k.clone());
            }
        }
    }
    let mut out = format!("### {title}\n\n| {} |", "case");
    for c in &columns {
        out.push_str(&format!(" {c} |"));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in &columns {
        out.push_str("---|");
    }
    out.push('\n');
    for r in rows {
        out.push_str(&format!("| {} |", r.label));
        for c in &columns {
            match r.values.get(c) {
                Some(v) => out.push_str(&format!(" {v:.3} |")),
                None => out.push_str(" - |"),
            }
        }
        out.push('\n');
    }
    out
}

fn run_and_check(
    workload: &WorkloadSpec,
    spec: SchedulerSpec,
    seed: u64,
    clients: usize,
) -> RunMetrics {
    let report = Runtime::builder()
        .scheduler(spec)
        .seed(seed)
        .clients(clients)
        .verify(Verify::Quick)
        .build()
        .expect("valid experiment configuration")
        .run(workload)
        .expect("well-formed generated workload");
    assert!(
        report.checks.all_passed(),
        "{} produced a non-serialisable history",
        report.scheduler
    );
    report.metrics
}

/// The histogram entry every metrics-carrying row records: abort counts
/// keyed by `AbortReason` variant.
fn abort_reasons(m: &RunMetrics) -> impl IntoIterator<Item = (String, f64)> + '_ {
    m.aborts_by_reason
        .iter()
        .map(|(reason, n)| (reason.clone(), *n as f64))
}

/// Appends the end-to-end latency percentile columns (`latency_us_p50`,
/// `latency_us_p99`, `latency_us_p999`) to a row, when the run carried a
/// latency report (i.e. was observed). Rows of unobserved runs pass through
/// unchanged.
pub fn with_latency_columns(row: Row, report: &RunReport) -> Row {
    match report.latency() {
        Some(latency) => {
            let e2e = latency.e2e();
            row.with("latency_us_p50", e2e.percentile(0.50) as f64)
                .with("latency_us_p99", e2e.percentile(0.99) as f64)
                .with("latency_us_p999", e2e.percentile(0.999) as f64)
        }
        None => row,
    }
}

fn metrics_row(label: &str, m: &RunMetrics) -> Row {
    Row::new(label)
        .with("committed", m.committed as f64)
        .with("aborts", m.aborts as f64)
        .with("abort_rate", m.abort_ratio())
        .with("blocked", m.blocked_events as f64)
        .with("rounds", m.rounds as f64)
        .with("throughput", m.throughput())
        .with("wall_ms", m.wall_micros as f64 / 1000.0)
        .with_histogram("aborts_by_reason", abort_reasons(m))
}

/// E1 — flat (object-as-data-item) baseline vs nested schedulers across
/// object-base sizes (Section 1's Gemstone discussion).
pub fn e1_flat_vs_nested(scale: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &accounts in &[4usize, 16, 64] {
        let workload = wl::banking(&wl::BankingParams {
            accounts,
            transactions: 24 * scale,
            skew: 0.6,
            ..Default::default()
        });
        for spec in SchedulerSpec::all_basic() {
            let m = run_and_check(&workload, spec, 1001, 8);
            rows.push(metrics_row(
                &format!("{} / {accounts} accounts", m.scheduler),
                &m,
            ));
        }
    }
    rows
}

/// E2 — operation-level vs step-level locks on the producer/consumer queue
/// (the Enqueue/Dequeue example of Section 5.1), sweeping the initial queue
/// length.
pub fn e2_queue_locks(scale: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &preload in &[0usize, 4, 16, 64] {
        let workload = wl::queues(&wl::QueueParams {
            queues: 1,
            producers: 10 * scale,
            consumers: 10 * scale,
            preload,
            seed: 1002,
        });
        for spec in [SchedulerSpec::n2pl_operation(), SchedulerSpec::n2pl_step()] {
            let m = run_and_check(&workload, spec, 1002, 6);
            rows.push(metrics_row(
                &format!("{} / preload {preload}", m.scheduler),
                &m,
            ));
        }
    }
    rows
}

/// E3 — semantic (commutativity-based) conflicts vs read/write conflicts on a
/// counter hotspot (Definition 3's payoff).
pub fn e3_semantic_conflict(scale: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &counters in &[1usize, 2, 8] {
        let workload = wl::counters(&wl::CounterParams {
            counters,
            transactions: 24 * scale,
            touches_per_txn: 3,
            read_fraction: 0.1,
            skew: 1.0,
            seed: 1003,
        });
        for (label, spec) in [
            ("flat-rw (read/write)", SchedulerSpec::flat_read_write()),
            ("n2pl-op (semantic)", SchedulerSpec::n2pl_operation()),
        ] {
            let m = run_and_check(&workload, spec, 1003, 8);
            rows.push(metrics_row(
                &format!("{label} / {counters} hot counters"),
                &m,
            ));
        }
    }
    rows
}

/// E4 — N2PL blocks, NTO aborts: behaviour under rising contention
/// (Section 5.1 vs 5.2), sweeping the Zipf skew of a dictionary mix.
pub fn e4_n2pl_vs_nto(scale: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &skew in &[0.0f64, 0.8, 1.4] {
        let workload = wl::dictionary(&wl::DictionaryParams {
            dictionaries: 2,
            keys: 16,
            transactions: 24 * scale,
            ops_per_txn: 3,
            lookup_fraction: 0.4,
            key_skew: skew,
            seed: 1004,
        });
        for spec in [
            SchedulerSpec::n2pl_operation(),
            SchedulerSpec::nto_conservative(),
            SchedulerSpec::nto_provisional(),
        ] {
            let m = run_and_check(&workload, spec, 1004, 8);
            rows.push(metrics_row(
                &format!("{} / skew {skew:.1}", m.scheduler),
                &m,
            ));
        }
    }
    rows
}

/// E5 — soundness and tightness of the graph tests: fraction of random legal
/// interleavings accepted by the SG test (Theorem 2) and by the per-object
/// condition (Theorem 5), against the brute-force serialisability oracle.
pub fn e5_sg_checkers(samples: usize) -> Vec<Row> {
    use obase_core::prelude::*;
    use obase_rng::{Rng, SeedableRng};
    use std::sync::Arc;

    let mut rng = obase_rng::ChaCha8Rng::seed_from_u64(1005);
    let mut sg_accepts = 0usize;
    let mut t5_accepts = 0usize;
    let mut oracle_accepts = 0usize;
    let mut sg_sound = true;
    let mut t5_sound = true;
    for _ in 0..samples {
        // Two or three transactions over two registers, random interleaving.
        let mut base = ObjectBase::new();
        let x = base.add_object("x", Arc::new(obase_adt::Register::default()));
        let y = base.add_object("y", Arc::new(obase_adt::Register::default()));
        let mut b = HistoryBuilder::new(Arc::new(base));
        let txns: Vec<ExecId> = (0..rng.gen_range(2..=3))
            .map(|i| b.begin_top_level(format!("T{i}")))
            .collect();
        let mut remaining: Vec<usize> = txns.iter().map(|_| 2).collect();
        while remaining.iter().any(|&r| r > 0) {
            let i = rng.gen_range(0..txns.len());
            if remaining[i] == 0 {
                continue;
            }
            remaining[i] -= 1;
            let o = if rng.gen_bool(0.5) { x } else { y };
            let (m, e) = b.invoke(txns[i], o, "m", []);
            let op = if rng.gen_bool(0.5) {
                Operation::nullary("Read")
            } else {
                Operation::unary("Write", rng.gen_range(0..3))
            };
            b.local_applied(e, op).unwrap();
            b.complete_invoke(m, Value::Unit);
        }
        let h = b.build();
        let sg_ok = obase_core::sg::certifies_serialisable(&h);
        let t5_ok = obase_core::local_graphs::theorem5_condition_holds(&h);
        let oracle_ok = obase_core::equivalence::is_serialisable_bruteforce(&h, 1024);
        sg_accepts += sg_ok as usize;
        t5_accepts += t5_ok as usize;
        oracle_accepts += oracle_ok as usize;
        if sg_ok && !oracle_ok {
            sg_sound = false;
        }
        if t5_ok && !oracle_ok {
            t5_sound = false;
        }
    }
    let n = samples as f64;
    vec![
        Row::new("SG test (Theorem 2)")
            .with("accepted_fraction", sg_accepts as f64 / n)
            .with("sound", f64::from(sg_sound as u8)),
        Row::new("per-object test (Theorem 5)")
            .with("accepted_fraction", t5_accepts as f64 / n)
            .with("sound", f64::from(t5_sound as u8)),
        Row::new("brute-force oracle")
            .with("accepted_fraction", oracle_accepts as f64 / n)
            .with("sound", 1.0),
    ]
}

/// E6 — mixed per-object intra-object policies plus the inter-object
/// certifier, against uniform policies, on a dictionary-heavy mix
/// (Section 2 / 5.3).
pub fn e6_mixed_cc(scale: usize) -> Vec<Row> {
    let workload = wl::dictionary(&wl::DictionaryParams {
        dictionaries: 3,
        keys: 32,
        transactions: 30 * scale,
        ops_per_txn: 4,
        lookup_fraction: 0.5,
        key_skew: 0.8,
        seed: 1006,
    });
    let mut rows = Vec::new();
    // Note: the pre-0.2 "mixed, certifier only" configuration is exactly the
    // SGT certifier (an empty mixed spec is now a validation error), so it
    // appears here once under its honest label.
    let configs: Vec<(&str, SchedulerSpec)> = vec![
        ("uniform flat-excl", SchedulerSpec::flat_exclusive()),
        ("uniform n2pl-op", SchedulerSpec::n2pl_operation()),
        (
            "certifier only (max intra freedom)",
            SchedulerSpec::SgtCertifier,
        ),
        (
            "mixed: per-object step locks + certifier",
            SchedulerSpec::mixed_with_default(SchedulerSpec::n2pl_step()),
        ),
    ];
    for (label, spec) in configs {
        let m = run_and_check(&workload, spec, 1006, 8);
        rows.push(metrics_row(label, &m));
    }
    rows
}

/// E7 — internal parallelism of methods (Par fan-out), Section 3(c).
pub fn e7_internal_parallelism(scale: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &(parallel, items) in &[(false, 4usize), (true, 4), (false, 8), (true, 8)] {
        let workload = wl::orders(&wl::OrdersParams {
            desks: 2,
            inventories: 8,
            accounts: 8,
            transactions: 16 * scale,
            items_per_order: items,
            parallel_items: parallel,
            seed: 1007,
        });
        let m = run_and_check(&workload, SchedulerSpec::n2pl_operation(), 1007, 4);
        let label = format!(
            "{} line items, {}",
            items,
            if parallel {
                "parallel (Par)"
            } else {
                "sequential (Seq)"
            }
        );
        rows.push(metrics_row(&label, &m));
    }
    rows
}

/// E8 — cost of the core-model analyses (legality, replay, SG construction)
/// as the history grows.
pub fn e8_core_scaling(scale: usize) -> Vec<Row> {
    use std::time::Instant;
    let mut rows = Vec::new();
    for &txns in &[8usize, 32, 64] {
        let workload = wl::banking(&wl::BankingParams {
            accounts: 8,
            transactions: txns * scale,
            ..Default::default()
        });
        let report = Runtime::builder()
            .scheduler(SchedulerSpec::n2pl_operation())
            .seed(1008)
            .clients(8)
            .build()
            .expect("valid experiment configuration")
            .run(&workload)
            .expect("well-formed generated workload");
        let h = &report.history;
        let t0 = Instant::now();
        assert!(obase_core::legality::is_legal(h));
        let legality_us = t0.elapsed().as_micros() as f64;
        let t1 = Instant::now();
        let _ = obase_core::replay::final_states(h).unwrap();
        let replay_us = t1.elapsed().as_micros() as f64;
        let t2 = Instant::now();
        let sg = obase_core::sg::serialisation_graph(h);
        assert!(sg.is_acyclic());
        let sg_us = t2.elapsed().as_micros() as f64;
        rows.push(
            Row::new(format!(
                "{} transactions ({} steps)",
                txns * scale,
                h.step_count()
            ))
            .with("steps", h.step_count() as f64)
            .with("legality_us", legality_us)
            .with("replay_us", replay_us)
            .with("sg_us", sg_us),
        );
    }
    rows
}

/// E9 — backend face-off (the tentpole measurement): the deterministic
/// simulator vs the multi-threaded `obase-par` engine on identical
/// workloads, in wall-clock time. The simulator's strength is reproducible
/// adversarial interleavings; the parallel engine's is using the hardware —
/// this experiment records both sides so the perf trajectory of the real
/// backend is tracked run over run.
pub fn e9_backend_faceoff(scale: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    let workload = wl::banking(&wl::BankingParams {
        accounts: 16,
        transactions: 32 * scale,
        skew: 0.6,
        seed: 1009,
        ..Default::default()
    });
    let backends = [
        ExecutionBackend::Simulated,
        ExecutionBackend::Parallel { workers: 2 },
        ExecutionBackend::Parallel { workers: 4 },
        ExecutionBackend::Parallel { workers: 8 },
    ];
    for spec in [
        SchedulerSpec::n2pl_operation(),
        SchedulerSpec::nto_provisional(),
        SchedulerSpec::SgtCertifier,
    ] {
        for backend in &backends {
            let report = Runtime::builder()
                .scheduler(spec.clone())
                .backend(backend.clone())
                .clients(8)
                .seed(1009)
                .retries(64)
                .verify(Verify::Quick)
                .observe(Observe::Latency)
                .build()
                .expect("valid experiment configuration")
                .run(&workload)
                .expect("well-formed generated workload");
            assert!(
                report.checks.all_passed(),
                "{} on {} produced a non-serialisable history",
                report.scheduler,
                backend.label()
            );
            let m = &report.metrics;
            let row = Row::new(format!("{} / {}", m.scheduler, backend.label()))
                .with("committed", m.committed as f64)
                .with("aborts", m.aborts as f64)
                .with("abort_rate", m.abort_ratio())
                .with("wall_ms", m.wall_micros as f64 / 1000.0)
                .with("txn_per_sec", m.wall_throughput())
                .with_histogram("aborts_by_reason", abort_reasons(m));
            rows.push(with_latency_columns(row, &report));
        }
    }
    rows
}

/// E10 — worker-scaling curves of the parallel backend (the decomposed
/// control plane's headline measurement): a worker sweep over a
/// low-contention uniform workload (transactions rarely conflict, so
/// throughput is limited purely by control-plane contention) and a
/// high-contention hot-key workload (every transaction fights over one
/// object). Each point records `wall_throughput` so `BENCH_results.json`
/// carries a scaling trajectory for this and every future perf PR.
///
/// Each point is the best of three runs (wall-clock measurements on loaded
/// machines are noisy; the max is the honest capability estimate).
pub fn e10_worker_scaling(scale: usize) -> Vec<Row> {
    let workers = [1usize, 2, 4, 8, 16];
    let cases: Vec<(&str, WorkloadSpec)> = vec![
        (
            "low-contention uniform",
            wl::scaling(&wl::ScalingParams {
                objects: 64,
                transactions: 192 * scale,
                invokes_per_txn: 4,
                ops_per_invoke: 8,
                read_fraction: 0.2,
                skew: 0.0,
                seed: 1010,
            }),
        ),
        (
            "high-contention hot-key",
            wl::scaling(&wl::ScalingParams {
                objects: 4,
                transactions: 96 * scale,
                invokes_per_txn: 3,
                ops_per_invoke: 6,
                read_fraction: 0.35,
                skew: 2.5,
                seed: 1010,
            }),
        ),
    ];
    let mut rows = Vec::new();
    for (label, workload) in &cases {
        let mut base_throughput = 0.0f64;
        for &w in &workers {
            let mut best: Option<RunMetrics> = None;
            for _ in 0..3 {
                let report = Runtime::builder()
                    .scheduler(SchedulerSpec::n2pl_operation())
                    .backend(ExecutionBackend::Parallel { workers: w })
                    .retries(256)
                    .verify(Verify::Quick)
                    .build()
                    .expect("valid experiment configuration")
                    .run(workload)
                    .expect("well-formed generated workload");
                assert!(
                    report.checks.all_passed(),
                    "{} at {w} workers produced a non-serialisable history",
                    report.scheduler
                );
                let better = best
                    .as_ref()
                    .is_none_or(|b| report.metrics.wall_throughput() > b.wall_throughput());
                if better {
                    best = Some(report.metrics);
                }
            }
            let m = best.expect("two runs happened");
            if w == 1 {
                base_throughput = m.wall_throughput();
            }
            let speedup = if base_throughput > 0.0 {
                m.wall_throughput() / base_throughput
            } else {
                0.0
            };
            rows.push(
                Row::new(format!("{label} / {w} workers"))
                    .with("workers", w as f64)
                    .with("committed", m.committed as f64)
                    .with("aborts", m.aborts as f64)
                    .with("blocked", m.blocked_events as f64)
                    .with("wall_ms", m.wall_micros as f64 / 1000.0)
                    .with("wall_throughput", m.wall_throughput())
                    .with("speedup_vs_1w", speedup)
                    .with_histogram("aborts_by_reason", abort_reasons(&m)),
            );
        }
    }
    rows
}

/// E11 — durability cost of the write-ahead-logged backend: wall-clock
/// throughput against the group-commit window, on a queue mix whose
/// transactions are small enough that the fsync is the dominant cost.
/// Window 0 never fsyncs (the upper bound: logging without durability),
/// window 1 fsyncs every commit record (classic force-at-commit), larger
/// windows batch that many commits per fsync. Every run's log is recovered
/// afterwards and the recovered history held to the full oracle, so the
/// numbers are for logs that demonstrably replay.
///
/// Each point is the best of three runs (fsync latency on shared machines
/// is noisy; the max is the honest capability estimate).
pub fn e11_durability(scale: usize) -> Vec<Row> {
    let workload = wl::queues(&wl::QueueParams {
        queues: 4,
        producers: 60 * scale,
        consumers: 60 * scale,
        preload: 16,
        seed: 1011,
    });
    let windows = [0usize, 1, 8, 64, 256];
    let mut points: Vec<(usize, RunReport)> = Vec::new();
    for &gc in &windows {
        let mut best: Option<RunReport> = None;
        for attempt in 0..3 {
            let dir = obase_wal::scratch_dir(&format!("e11-gc{gc}-{attempt}"));
            let report = Runtime::builder()
                .scheduler(SchedulerSpec::n2pl_operation())
                .backend(ExecutionBackend::Durable {
                    dir: dir.clone(),
                    group_commit: gc,
                })
                .clients(8)
                .seed(1011)
                .retries(64)
                .verify(Verify::Quick)
                .observe(Observe::Latency)
                .build()
                .expect("valid experiment configuration")
                .run(&workload)
                .expect("well-formed generated workload");
            assert!(
                report.checks.all_passed(),
                "durable backend at group_commit={gc} produced a non-serialisable history"
            );
            // The log each run left behind must recover to the same set of
            // committed transactions and pass the oracle.
            let recovered = obase_wal::WalBackend::new(workload.def.base().clone())
                .recover(&dir)
                .expect("freshly written log recovers");
            recovered.assert_serialisable();
            assert_eq!(recovered.committed.len(), report.metrics.committed);
            std::fs::remove_dir_all(&dir).ok();
            let better = best
                .as_ref()
                .is_none_or(|b| report.metrics.wall_throughput() > b.metrics.wall_throughput());
            if better {
                best = Some(report);
            }
        }
        points.push((gc, best.expect("three runs happened")));
    }
    let per_record = points
        .iter()
        .find(|(gc, _)| *gc == 1)
        .map(|(_, r)| r.metrics.wall_throughput())
        .unwrap_or(0.0);
    points
        .into_iter()
        .map(|(gc, report)| {
            let m = &report.metrics;
            let label = if gc == 0 {
                "no-fsync baseline (gc=0)".to_owned()
            } else {
                format!("group commit {gc}")
            };
            let row = Row::new(label)
                .with("group_commit", gc as f64)
                .with("committed", m.committed as f64)
                .with("aborts", m.aborts as f64)
                .with("wall_ms", m.wall_micros as f64 / 1000.0)
                .with("txn_per_sec", m.wall_throughput())
                .with(
                    "speedup_vs_gc1",
                    if per_record > 0.0 {
                        m.wall_throughput() / per_record
                    } else {
                        0.0
                    },
                )
                .with_histogram("aborts_by_reason", abort_reasons(m));
            with_latency_columns(row, &report)
        })
        .collect()
}

/// The durability guard over [`e11_durability`] rows: a group-commit window
/// of 8 must recover at least 3× the throughput of fsync-per-record
/// (window 1) — otherwise batching is broken and every commit is paying a
/// full force-to-disk again.
pub fn check_durability_guard(rows: &[Row]) -> Result<(), String> {
    const FACTOR: f64 = 3.0;
    let point = |gc: f64| {
        rows.iter()
            .find(|r| r.values.get("group_commit") == Some(&gc))
            .and_then(|r| r.values.get("txn_per_sec").copied())
            .ok_or_else(|| format!("e11 rows missing the group_commit={gc} point"))
    };
    let per_record = point(1.0)?;
    let batched = point(8.0)?;
    if batched < per_record * FACTOR {
        return Err(format!(
            "group-commit window 8 recovered only {batched:.0} txn/s against \
             {per_record:.0} txn/s at fsync-per-record — expected ≥{FACTOR}×; \
             group commit is no longer batching fsyncs"
        ));
    }
    Ok(())
}

/// The CI anti-thundering-herd guard over [`e10_worker_scaling`] rows: on
/// the low-contention workload, 8-worker wall-throughput must not regress
/// below the 1-worker point (generous tolerance — adding workers must never
/// *cost* throughput the way the broadcast-wakeup control plane did).
pub fn check_scaling_guard(rows: &[Row]) -> Result<(), String> {
    const TOLERANCE: f64 = 0.6;
    let point = |w: f64| {
        rows.iter()
            .find(|r| r.label.starts_with("low-contention") && r.values.get("workers") == Some(&w))
            .and_then(|r| r.values.get("wall_throughput").copied())
            .ok_or_else(|| format!("e10 rows missing the low-contention {w}-worker point"))
    };
    let one = point(1.0)?;
    let eight = point(8.0)?;
    if eight < one * TOLERANCE {
        return Err(format!(
            "8-worker wall-throughput regressed below the 1-worker point: \
             {eight:.0} < {TOLERANCE} × {one:.0} txn/s — thundering-herd or \
             control-plane contention reintroduced"
        ));
    }
    Ok(())
}

/// E12 — observability overhead: one workload on the simulated backend under
/// each observation plan. The `NullObserver` plan collapses the handle at
/// startup, so it runs the same code as the no-observer baseline — the guard
/// below holds it to within 3%. The recording plans (`Latency`, `Trace`) pay
/// for real event buffering and are reported honestly, not gated.
///
/// Each point is the best of five runs (the guard compares wall-clock
/// measurements, so noise must be squeezed out before a 3% band means
/// anything).
pub fn e12_observer_overhead(scale: usize) -> Vec<Row> {
    let workload = wl::scaling(&wl::ScalingParams {
        objects: 32,
        transactions: 96 * scale,
        invokes_per_txn: 4,
        ops_per_invoke: 6,
        read_fraction: 0.3,
        skew: 0.4,
        seed: 1012,
    });
    let plans: Vec<(&str, Observe)> = vec![
        ("no-observer baseline", Observe::Off),
        (
            "null observer (collapsed handle)",
            Observe::Custom(Arc::new(NullObserver)),
        ),
        ("latency recording", Observe::Latency),
        (
            "chrome trace recording",
            Observe::Trace(Arc::new(ChromeTraceObserver::new())),
        ),
    ];
    let mut rows = Vec::new();
    let mut baseline = 0.0f64;
    for (label, plan) in plans {
        let mut best: Option<RunReport> = None;
        for _ in 0..5 {
            let report = Runtime::builder()
                .scheduler(SchedulerSpec::n2pl_operation())
                .clients(8)
                .seed(1012)
                .retries(64)
                .verify(Verify::None)
                .observe(plan.clone())
                .build()
                .expect("valid experiment configuration")
                .run(&workload)
                .expect("well-formed generated workload");
            let better = best
                .as_ref()
                .is_none_or(|b| report.metrics.wall_throughput() > b.metrics.wall_throughput());
            if better {
                best = Some(report);
            }
        }
        let report = best.expect("five runs happened");
        let m = &report.metrics;
        let tps = m.wall_throughput();
        if baseline == 0.0 {
            baseline = tps; // first plan is the Off baseline
        }
        let overhead_pct = if baseline > 0.0 {
            (1.0 - tps / baseline) * 100.0
        } else {
            0.0
        };
        let row = Row::new(label)
            .with("committed", m.committed as f64)
            .with("wall_ms", m.wall_micros as f64 / 1000.0)
            .with("txn_per_sec", tps)
            .with("overhead_pct", overhead_pct);
        rows.push(with_latency_columns(row, &report));
    }
    rows
}

/// The observability zero-cost guard over [`e12_observer_overhead`] rows:
/// the `NullObserver` plan must recover at least 97% of the no-observer
/// baseline's throughput. The two run identical code after one startup
/// branch (the handle collapses), so a real gap means the collapse broke and
/// every engine is paying for observation nobody asked for.
pub fn check_observer_guard(rows: &[Row]) -> Result<(), String> {
    const FLOOR: f64 = 0.97;
    let tps = |label: &str| {
        rows.iter()
            .find(|r| r.label.starts_with(label))
            .and_then(|r| r.values.get("txn_per_sec").copied())
            .ok_or_else(|| format!("e12 rows missing the {label:?} point"))
    };
    let baseline = tps("no-observer baseline")?;
    let null = tps("null observer")?;
    if null < baseline * FLOOR {
        return Err(format!(
            "NullObserver throughput {null:.0} txn/s fell below {FLOOR} × the \
             no-observer baseline {baseline:.0} txn/s — the disabled-observer \
             handle no longer collapses to the free path"
        ));
    }
    Ok(())
}

/// E14 — op cost vs object size: the median cost of one `Insert` that
/// overwrites a key of a *shared* [`Dictionary`](obase_adt::Dictionary)
/// state, as the engine applies it (`SemanticType::apply` on a state the
/// store still holds, then the result dropped), at 2^6 … 2^16 keys, with a
/// `Lookup` of the same keys beside it.
///
/// Every point applies 256 operations cycling over `touched` keys spread
/// evenly across the key range: 16 keys, whose paths stay in cache, so the
/// row shows the work a write does; and 256 keys, whose copied nodes at the
/// larger sizes no longer fit in cache, so the row adds what the memory
/// hierarchy charges for them. The points take turns: each of the `15 × scale`
/// repetitions runs every point once, a warm-up pass and then a timed pass,
/// so host noise lands on all of them alike. A row carries the quartiles of
/// the per-repetition mean and the tree's depth. [`check_flat_guard`] holds
/// the 16-key-sample cost at 65,536 keys to at most 4× the one at 64 keys:
/// a write pays for the path to its key, not for the object.
pub fn e14_op_cost_vs_object_size(scale: usize) -> Vec<Row> {
    use obase_core::object::SemanticType;
    use obase_core::op::Operation;
    use obase_core::value::Value;
    use std::time::Instant;

    const OPS: usize = 256;
    let reps = 15 * scale.max(1);
    let dict = obase_adt::Dictionary;
    let key = |k: usize| format!("k{k:06}");
    struct Point {
        keys: usize,
        touched: usize,
        state: Value,
        inserts: Vec<Operation>,
        lookups: Vec<Operation>,
        insert_ns: Vec<f64>,
        lookup_ns: Vec<f64>,
    }
    let mut points = Vec::new();
    for exp in 6..=16u32 {
        let keys = 1usize << exp;
        let state = Value::map((0..keys).map(|k| (key(k), Value::Int(k as i64))));
        for touched in [16, 256] {
            let arg = |i: usize| Value::from(key((i % touched) * keys / touched));
            points.push(Point {
                keys,
                touched,
                state: state.clone(),
                inserts: (0..OPS)
                    .map(|i| Operation::new("Insert", [arg(i), Value::Int(-(i as i64))]))
                    .collect(),
                lookups: (0..OPS)
                    .map(|i| Operation::new("Lookup", [arg(i)]))
                    .collect(),
                insert_ns: Vec::new(),
                lookup_ns: Vec::new(),
            });
        }
    }
    let per_op_ns = |state: &Value, ops: &[Operation]| {
        let apply_all = || {
            for op in ops {
                let (next, _) = dict.apply(state, op).expect("a well-formed operation");
                std::hint::black_box(next);
            }
        };
        apply_all();
        let t0 = Instant::now();
        apply_all();
        t0.elapsed().as_nanos() as f64 / ops.len() as f64
    };
    for _ in 0..reps {
        for p in &mut points {
            p.insert_ns.push(per_op_ns(&p.state, &p.inserts));
            p.lookup_ns.push(per_op_ns(&p.state, &p.lookups));
        }
    }
    points
        .into_iter()
        .map(|mut p| {
            let quartiles = |ns: &mut Vec<f64>| {
                ns.sort_by(f64::total_cmp);
                let at = |q: f64| ns[((ns.len() - 1) as f64 * q).round() as usize];
                [at(0.25), at(0.5), at(0.75)]
            };
            let [p25, p50, p75] = quartiles(&mut p.insert_ns);
            let [_, lookup_p50, _] = quartiles(&mut p.lookup_ns);
            let depth = p.state.as_map().map_or(0, |m| m.depth());
            Row::new(format!("{} keys / {} touched", p.keys, p.touched))
                .with("keys", p.keys as f64)
                .with("touched", p.touched as f64)
                .with("depth", depth as f64)
                .with("insert_ns_p25", p25)
                .with("insert_ns_p50", p50)
                .with("insert_ns_p75", p75)
                .with("lookup_ns_p50", lookup_p50)
        })
        .collect()
}

/// The flat-cost guard over [`e14_op_cost_vs_object_size`] rows: on the
/// 16-key sample, the median `Insert` on a 65,536-key dictionary may cost
/// at most 4× the one on a 64-key dictionary. A write that copies its whole
/// object fails this by two to three orders of magnitude.
pub fn check_flat_guard(rows: &[Row]) -> Result<(), String> {
    const FACTOR: f64 = 4.0;
    let point = |keys: f64| {
        rows.iter()
            .find(|r| r.values.get("keys") == Some(&keys) && r.values.get("touched") == Some(&16.0))
            .and_then(|r| r.values.get("insert_ns_p50").copied())
            .ok_or_else(|| format!("e14 rows missing the {keys} key, 16 touched point"))
    };
    let small = point(64.0)?;
    let large = point(65_536.0)?;
    if large > small * FACTOR {
        return Err(format!(
            "an Insert on 65536 keys costs {large:.0} ns, more than {FACTOR} × the \
             {small:.0} ns it costs on 64 keys — writes are paying for the object's size"
        ));
    }
    Ok(())
}

/// E15 — batch-of-one cost: one transaction through `Runtime::run`, built
/// as the server builds a batch (`ServeConfig::default().runtime()`: the
/// serve default scheduler and retries, `Parallel { workers: 4 }`,
/// `Verify::Quick`, `Observe::Latency`), on object bases shaped like the
/// three servebench workloads:
///
/// * `flat-accounts` — 256 accounts; a deposit and a balance read;
/// * `flat-accounts-2048` — the same with 2,048 accounts, so the two points
///   show whether a run pays for the size of the object base;
/// * `large-dict` — 8 dictionaries of 1,024 preloaded keys; a lookup and an
///   overwrite;
/// * `hot-nested` — 8 counters; a depth-3 invocation chain of increments.
///
/// The workloads take turns: each of the `15 × scale` repetitions runs every
/// workload once untimed and then 16 times timed, so host noise lands on
/// all of them alike. A repetition's figure is the median of its 16 runs;
/// a row carries the quartiles of those figures. Every run must commit its
/// transaction with its checks passed. The rows are the in-process
/// counterpart of servebench's solo phase; [`check_run_flat_guard`] holds
/// the two `flat-accounts` points together.
///
/// `latency_fold_us_p50` times what the server does next with each run's
/// latency report: fold it into its lifetime aggregate. Here each workload
/// keeps one aggregate that has seen 2,048 distinct blocked objects before
/// its first fold, so a fold that paid for the aggregate's size would show.
///
/// `codec_us_p50` times the wire codec around the run: the row's
/// transaction as a `Submit` frame and its answer as a `Result` frame, each
/// through `wire::encode_frame` and `wire::decode_frame`, so the table
/// shows the codec beside `run_us_p50`.
pub fn e15_batch_of_one(scale: usize) -> Vec<Row> {
    use obase_core::ids::ObjectId;
    use obase_core::object::{ObjectBase, TypeHandle};
    use obase_core::value::Value;
    use obase_exec::{Expr, MethodDef, ObjRef, ObjectBaseDef, Program, TxnSpec, WorkloadSpec};
    use obase_serve::wire::{decode_frame, encode_frame};
    use obase_serve::Frame;
    use std::sync::Arc;
    use std::time::Instant;

    const RUNS: usize = 16;
    let reps = 15 * scale.max(1);
    let leaf = |name: &str, params: usize, op: &str| MethodDef {
        name: name.into(),
        params,
        body: Program::Local {
            op: op.into(),
            args: (0..params).map(Expr::Param).collect(),
        },
    };
    // A base of `count` objects of one type and state, each with `methods`.
    let world =
        |count: usize, ty: TypeHandle, state: Value, methods: &dyn Fn(usize) -> Vec<MethodDef>| {
            let mut base = ObjectBase::new();
            for i in 0..count {
                base.add_object_with_state(format!("o{i}"), ty.clone(), state.clone());
            }
            let mut def = ObjectBaseDef::new(Arc::new(base));
            for i in 0..count {
                for m in methods(i) {
                    def.define_method(ObjectId(i as u32), m);
                }
            }
            def
        };
    let one = |def: ObjectBaseDef, body: Program| WorkloadSpec {
        def,
        transactions: vec![TxnSpec {
            name: "solo".into(),
            body,
        }],
    };
    let accounts = |count: usize| {
        world(
            count,
            Arc::new(obase_adt::Account::with_initial(1_000)),
            Value::Int(1_000),
            &|_| vec![leaf("deposit", 1, "Deposit"), leaf("balance", 0, "Balance")],
        )
    };
    let deposit_and_read = || {
        Program::Seq(vec![
            Program::invoke(ObjectId(17), "deposit", [Value::Int(5)]),
            Program::invoke(ObjectId(200), "balance", []),
        ])
    };
    let dicts = world(
        8,
        Arc::new(obase_adt::Dictionary),
        Value::map((0..1024).map(|k| (format!("k{k}"), Value::Int(k as i64)))),
        &|_| vec![leaf("lookup", 1, "Lookup"), leaf("put", 2, "Insert")],
    );
    let counters = world(
        8,
        Arc::new(obase_adt::Counter::default()),
        Value::Int(0),
        &|i| {
            let next = ObjectId(((i + 1) % 8) as u32);
            let mut chain = vec![leaf("h1", 1, "Add")];
            for depth in 2..=3 {
                chain.push(MethodDef {
                    name: format!("h{depth}"),
                    params: 1,
                    body: Program::Seq(vec![
                        Program::Local {
                            op: "Add".into(),
                            args: vec![Expr::Param(0)],
                        },
                        Program::Invoke {
                            object: ObjRef::Const(next),
                            method: format!("h{}", depth - 1),
                            args: vec![Expr::Param(0)],
                        },
                    ]),
                });
            }
            chain
        },
    );
    let workloads = [
        ("flat-accounts", one(accounts(256), deposit_and_read())),
        (
            "flat-accounts-2048",
            one(accounts(2_048), deposit_and_read()),
        ),
        (
            "large-dict",
            one(
                dicts,
                Program::Seq(vec![
                    Program::invoke(ObjectId(3), "lookup", [Value::from("k500")]),
                    Program::invoke(ObjectId(5), "put", [Value::from("k77"), Value::Int(-1)]),
                ]),
            ),
        ),
        (
            "hot-nested",
            one(
                counters,
                Program::invoke(ObjectId(0), "h3", [Value::Int(2)]),
            ),
        ),
    ];
    // Per workload: its lifetime aggregate, then the run, fold and codec
    // figures.
    let mut points: Vec<_> = workloads
        .into_iter()
        .map(|(name, workload)| {
            (
                name,
                workload,
                blocked_on_many(2_048),
                Vec::new(),
                Vec::new(),
                Vec::new(),
            )
        })
        .collect();
    let runtime = obase_serve::ServeConfig::default()
        .runtime()
        .expect("the serve defaults are a valid runtime");
    // One run, then the fold of its latency report into `aggregate`: the
    // microseconds each took.
    let run_and_fold_us = |workload: &WorkloadSpec, aggregate: &mut LatencyReport| {
        let t0 = Instant::now();
        let report = runtime.run(workload).expect("a well-formed workload");
        let run_us = t0.elapsed().as_nanos() as f64 / 1_000.0;
        assert_eq!(report.metrics.committed, 1, "{:?}", report.metrics);
        assert!(report.checks.all_passed());
        let latency = report
            .latency()
            .expect("the serve runtime observes latency");
        let t1 = Instant::now();
        aggregate.merge(latency);
        (run_us, t1.elapsed().as_nanos() as f64 / 1_000.0)
    };
    // The transaction's `Submit` and its `Result`, each encoded and
    // decoded: the microseconds that took.
    let codec_us = |submit: &Frame| {
        let result = Frame::Result {
            id: 1,
            committed: true,
            latency_us: 1_000,
        };
        let t0 = Instant::now();
        for frame in [submit, &result] {
            let bytes = encode_frame(frame);
            let (back, _) = decode_frame(&bytes).expect("an encoded frame decodes");
            std::hint::black_box(back);
        }
        t0.elapsed().as_nanos() as f64 / 1_000.0
    };
    let median = |mut figures: Vec<f64>| {
        figures.sort_by(f64::total_cmp);
        figures[figures.len() / 2]
    };
    for _ in 0..reps {
        for (_, workload, aggregate, run_figures, fold_figures, codec_figures) in &mut points {
            run_and_fold_us(workload, aggregate);
            let (runs, folds): (Vec<f64>, Vec<f64>) = (0..RUNS)
                .map(|_| run_and_fold_us(workload, aggregate))
                .unzip();
            run_figures.push(median(runs));
            fold_figures.push(median(folds));
            let submit = Frame::Submit {
                id: 1,
                name: "solo".into(),
                body: workload.transactions[0].body.clone(),
            };
            codec_us(&submit);
            codec_figures.push(median((0..RUNS).map(|_| codec_us(&submit)).collect()));
        }
    }
    points
        .into_iter()
        .map(|(name, _, _, mut figures, folds, codecs)| {
            figures.sort_by(f64::total_cmp);
            let at = |q: f64| figures[((figures.len() - 1) as f64 * q).round() as usize];
            Row::new(name)
                .with("run_us_p25", at(0.25))
                .with("run_us_p50", at(0.5))
                .with("run_us_p75", at(0.75))
                .with("latency_fold_us_p50", median(folds))
                .with("codec_us_p50", median(codecs))
                .with("repetitions", figures.len() as f64)
        })
        .collect()
}

/// A latency report that has seen `objects` distinct blocked objects: one
/// transaction blocked once on each, for 1 to 40 µs, across four shards.
fn blocked_on_many(objects: u32) -> LatencyReport {
    use obase_core::ids::{ExecId, ObjectId};
    use obase_runtime::{ObsEvent, ObsStamped};

    let top = ExecId(0);
    let at = |at_micros: u64, event: ObsEvent| ObsStamped { at_micros, event };
    let mut events = vec![at(
        0,
        ObsEvent::Admit {
            top,
            spec: 0,
            attempt: 0,
        },
    )];
    let mut t = 1;
    for o in 0..objects {
        let (object, shard) = (ObjectId(o), o as usize % 4);
        events.push(at(t, ObsEvent::BlockBegin { top, object, shard }));
        t += 1 + u64::from(o * 7 % 40);
        events.push(at(t, ObsEvent::BlockEnd { top, object, shard }));
    }
    events.push(at(t, ObsEvent::Commit { top }));
    LatencyReport::from_events(&[("worker-0", events)])
}

/// The flat-cost guard over [`e15_batch_of_one`] rows: the median run over
/// 2,048 accounts may cost at most 2× the one over 256. A run that copies
/// the object base's states, or checks every method body, grows with the
/// base and fails this.
pub fn check_run_flat_guard(rows: &[Row]) -> Result<(), String> {
    const FACTOR: f64 = 2.0;
    let point = |label: &str| {
        rows.iter()
            .find(|r| r.label == label)
            .and_then(|r| r.values.get("run_us_p50").copied())
            .ok_or_else(|| format!("e15 rows missing the {label} point"))
    };
    let small = point("flat-accounts")?;
    let large = point("flat-accounts-2048")?;
    if large > small * FACTOR {
        return Err(format!(
            "a run over 2048 accounts takes {large:.1} µs, more than {FACTOR} × the \
             {small:.1} µs over 256 — runs are paying for the object base's size"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        let rows = vec![
            Row::new("a").with("x", 1.0).with("y", 2.0),
            Row::new("b").with("x", 3.0),
        ];
        let table = render_table("demo", &rows);
        assert!(table.contains("### demo"));
        assert!(table.contains("| a | 1.000 | 2.000 |"));
        assert!(table.contains("| b | 3.000 | - |"));
    }

    #[test]
    fn e5_small_sample_is_sound() {
        let rows = e5_sg_checkers(6);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.values["sound"], 1.0, "{} unsound", r.label);
        }
    }

    #[test]
    fn e2_small_scale_runs() {
        let rows = e2_queue_locks(1);
        assert_eq!(rows.len(), 8);
    }

    #[test]
    fn e7_small_scale_runs() {
        let rows = e7_internal_parallelism(1);
        assert_eq!(rows.len(), 4);
        // Parallel line items never take more rounds than sequential ones.
        let seq = rows[0].values["rounds"];
        let par = rows[1].values["rounds"];
        assert!(par <= seq);
    }

    #[test]
    fn e9_small_scale_runs_both_backends() {
        let rows = e9_backend_faceoff(1);
        assert_eq!(rows.len(), 12); // 3 schedulers × 4 backends
        for r in &rows {
            assert!(
                r.values["wall_ms"] > 0.0,
                "{} recorded no wall time",
                r.label
            );
        }
    }

    #[test]
    fn scaling_guard_reads_e10_rows() {
        let rows = vec![
            Row::new("low-contention uniform / 1 workers")
                .with("workers", 1.0)
                .with("wall_throughput", 1000.0),
            Row::new("low-contention uniform / 8 workers")
                .with("workers", 8.0)
                .with("wall_throughput", 900.0),
            Row::new("high-contention hot-key / 8 workers")
                .with("workers", 8.0)
                .with("wall_throughput", 1.0),
        ];
        assert!(check_scaling_guard(&rows).is_ok());
        let rows = vec![
            Row::new("low-contention uniform / 1 workers")
                .with("workers", 1.0)
                .with("wall_throughput", 1000.0),
            Row::new("low-contention uniform / 8 workers")
                .with("workers", 8.0)
                .with("wall_throughput", 100.0),
        ];
        assert!(check_scaling_guard(&rows).is_err());
        assert!(check_scaling_guard(&[]).is_err());
    }

    #[test]
    fn observer_guard_reads_e12_rows() {
        let rows = vec![
            Row::new("no-observer baseline")
                .with("txn_per_sec", 1000.0)
                .with("overhead_pct", 0.0),
            Row::new("null observer (collapsed handle)")
                .with("txn_per_sec", 990.0)
                .with("overhead_pct", 1.0),
        ];
        assert!(check_observer_guard(&rows).is_ok());
        let rows = vec![
            Row::new("no-observer baseline").with("txn_per_sec", 1000.0),
            Row::new("null observer (collapsed handle)").with("txn_per_sec", 900.0),
        ];
        assert!(check_observer_guard(&rows).is_err());
        assert!(check_observer_guard(&[]).is_err());
    }

    #[test]
    fn durability_guard_reads_e11_rows() {
        let rows = vec![
            Row::new("group commit 1")
                .with("group_commit", 1.0)
                .with("txn_per_sec", 1000.0),
            Row::new("group commit 8")
                .with("group_commit", 8.0)
                .with("txn_per_sec", 3500.0),
        ];
        assert!(check_durability_guard(&rows).is_ok());
        let rows = vec![
            Row::new("group commit 1")
                .with("group_commit", 1.0)
                .with("txn_per_sec", 1000.0),
            Row::new("group commit 8")
                .with("group_commit", 8.0)
                .with("txn_per_sec", 1200.0),
        ];
        assert!(check_durability_guard(&rows).is_err());
        assert!(check_durability_guard(&[]).is_err());
    }

    #[test]
    fn flat_guard_reads_the_16_key_sample_of_e14_rows() {
        let point = |keys: f64, touched: f64, ns: f64| {
            Row::new(format!("{keys} keys / {touched} touched"))
                .with("keys", keys)
                .with("touched", touched)
                .with("insert_ns_p50", ns)
        };
        let rows = vec![
            point(64.0, 16.0, 500.0),
            point(64.0, 256.0, 500.0),
            point(65_536.0, 16.0, 1_900.0),
            point(65_536.0, 256.0, 4_000.0),
        ];
        assert!(check_flat_guard(&rows).is_ok());
        let rows = vec![point(64.0, 16.0, 500.0), point(65_536.0, 16.0, 2_100.0)];
        assert!(check_flat_guard(&rows).is_err());
        assert!(check_flat_guard(&[point(64.0, 256.0, 500.0)]).is_err());
    }

    #[test]
    fn run_flat_guard_compares_the_two_account_points() {
        let rows = |small: f64, large: f64| {
            vec![
                Row::new("flat-accounts").with("run_us_p50", small),
                Row::new("flat-accounts-2048").with("run_us_p50", large),
                Row::new("large-dict").with("run_us_p50", 1_000.0),
            ]
        };
        assert!(check_run_flat_guard(&rows(40.0, 60.0)).is_ok());
        assert!(check_run_flat_guard(&rows(40.0, 81.0)).is_err());
        assert!(check_run_flat_guard(&rows(40.0, 60.0)[..1]).is_err());
    }

    #[test]
    fn results_json_shape() {
        let rows = vec![Row::new("a").with("x", 1.5)];
        let doc = results_json(&[("e0", "demo", rows)]);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        let entry = back.get("e0").unwrap();
        assert_eq!(entry.get("title").and_then(Json::as_str), Some("demo"));
        let row = entry.get("rows").unwrap().as_array().unwrap()[0].clone();
        assert_eq!(row.get("label").and_then(Json::as_str), Some("a"));
    }

    #[test]
    fn abort_histograms_reach_rows_and_experiment_aggregates() {
        let rows = vec![
            Row::new("a").with("aborts", 3.0).with_histogram(
                "aborts_by_reason",
                [("deadlock".to_owned(), 2.0), ("other".to_owned(), 1.0)],
            ),
            Row::new("b")
                .with("aborts", 1.0)
                .with_histogram("aborts_by_reason", [("deadlock".to_owned(), 1.0)]),
        ];
        let doc = results_json(&[("e0", "demo", rows)]);
        let back = Json::parse(&doc.to_string()).unwrap();
        let entry = back.get("e0").unwrap();
        // Per-row histogram survives the round trip...
        let row = entry.get("rows").unwrap().as_array().unwrap()[0].clone();
        let hist = row.get("aborts_by_reason").unwrap();
        assert_eq!(hist.get("deadlock").and_then(Json::as_float), Some(2.0));
        // ...and the experiment-level aggregate sums across rows.
        let agg = entry.get("aborts_by_reason").unwrap();
        assert_eq!(agg.get("deadlock").and_then(Json::as_float), Some(3.0));
        assert_eq!(agg.get("other").and_then(Json::as_float), Some(1.0));
    }

    #[test]
    fn deadlock_heavy_runs_bucket_aborts_by_variant_key() {
        // A dictionary hotspot under N2PL deadlocks; every abort must land
        // in a stable variant bucket and the histogram must sum to the
        // abort count.
        let workload = wl::dictionary(&wl::DictionaryParams {
            dictionaries: 1,
            keys: 2,
            transactions: 12,
            ops_per_txn: 3,
            lookup_fraction: 0.0,
            key_skew: 1.5,
            seed: 9,
        });
        let m = run_and_check(&workload, SchedulerSpec::n2pl_operation(), 9, 8);
        let total: usize = m.aborts_by_reason.values().sum();
        assert_eq!(total, m.aborts);
        let known = [
            "deadlock",
            "timestamp_order",
            "certification",
            "application",
            "cascading_dirty_read",
            "injected",
            "never_began",
            "other",
        ];
        for key in m.aborts_by_reason.keys() {
            assert!(known.contains(&key.as_str()), "unexpected bucket {key}");
        }
    }
}
