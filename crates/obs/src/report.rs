//! Phase-latency percentiles and blocked-time attribution, derived from a
//! recorded event stream.
//!
//! [`LatencyReport::from_events`] replays the lane batches a
//! [`RecordingObserver`](crate::trace::RecordingObserver) collected and
//! produces one [`Histogram`] per lifecycle phase plus the blocked-time
//! profile (hottest objects and scheduler shards by total blocked wall
//! time). The phases are:
//!
//! * `queue_wait` — submit → admission, per attempt;
//! * `blocked` — each blocked span (waiting for a scheduler grant);
//! * `execute` — admission → certify-start, minus blocked time, per
//!   certified top-level transaction;
//! * `certify` — certify-start → commit settle;
//! * `fsync` — each WAL fsync span (durable backend only);
//! * `e2e` — submit of the committing attempt → commit settle.
//!
//! A report is built to be folded into a long-lived aggregate (the serving
//! front end keeps one for its whole life): the phases sit in a fixed
//! array, and blocked time is kept per object and per shard in key order
//! and ranked only when read. [`LatencyReport::merge`] therefore costs the
//! *other* report's size, never the aggregate's.

use crate::event::{ObsEvent, ObsStamped};
use crate::histogram::Histogram;
use obase_core::ids::{ExecId, ObjectId};
use obase_ser::Json;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

#[cfg(test)]
mod reference;

/// Total blocked time and span count attributed to one key (an object or a
/// scheduler shard).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockedTotal {
    /// Total blocked wall time in microseconds.
    pub blocked_micros: u64,
    /// Number of blocked spans.
    pub spans: u64,
}

impl BlockedTotal {
    fn add(&mut self, other: BlockedTotal) {
        self.blocked_micros += other.blocked_micros;
        self.spans += other.spans;
    }
}

/// Per-phase latency histograms plus the blocked-time attribution profile.
#[derive(Clone, Debug, Default)]
pub struct LatencyReport {
    /// One histogram per entry of [`PHASES`], in that order.
    phases: [Histogram; PHASES.len()],
    hot_objects: BTreeMap<ObjectId, BlockedTotal>,
    hot_shards: BTreeMap<usize, BlockedTotal>,
}

/// The phase names [`LatencyReport::phase`] answers to, in report order.
pub const PHASES: [&str; 6] = [
    "queue_wait",
    "blocked",
    "execute",
    "certify",
    "fsync",
    "e2e",
];

/// Indices into [`PHASES`].
const QUEUE_WAIT: usize = 0;
const BLOCKED: usize = 1;
const EXECUTE: usize = 2;
const CERTIFY: usize = 3;
const FSYNC: usize = 4;
const E2E: usize = 5;

/// Adds every total of `from` into `into`, key by key.
fn fold<K: Copy + Ord>(into: &mut BTreeMap<K, BlockedTotal>, from: &BTreeMap<K, BlockedTotal>) {
    for (key, total) in from {
        into.entry(*key).or_default().add(*total);
    }
}

/// The totals ranked by blocked time, descending; ties in key order.
fn ranked<K: Copy + Ord>(totals: &BTreeMap<K, BlockedTotal>) -> Vec<(K, BlockedTotal)> {
    let mut ranked: Vec<(K, BlockedTotal)> = totals.iter().map(|(k, t)| (*k, *t)).collect();
    ranked.sort_by(|a, b| {
        b.1.blocked_micros
            .cmp(&a.1.blocked_micros)
            .then(a.0.cmp(&b.0))
    });
    ranked
}

impl LatencyReport {
    /// Derives the report from recorded lane batches (the shape
    /// [`RecordingObserver::snapshot`](crate::trace::RecordingObserver::snapshot)
    /// returns; the lane names play no part). Unclosed blocked spans are
    /// closed at the owning transaction's settle time, or at the last
    /// recorded timestamp.
    pub fn from_events<L>(batches: &[(L, Vec<ObsStamped>)]) -> LatencyReport {
        let mut all: Vec<ObsStamped> = batches
            .iter()
            .flat_map(|(_, events)| events.iter().copied())
            .collect();
        all.sort_by_key(|s| s.at_micros);
        let run_end = all.last().map_or(0, |s| s.at_micros);

        let mut submit: BTreeMap<(usize, u32), u64> = BTreeMap::new();
        let mut admit: BTreeMap<ExecId, (usize, u32, u64)> = BTreeMap::new();
        let mut certify: BTreeMap<ExecId, u64> = BTreeMap::new();
        let mut commit: BTreeMap<ExecId, u64> = BTreeMap::new();
        let mut abort: BTreeMap<ExecId, u64> = BTreeMap::new();
        // FIFO pairing of blocked spans per (top, object, shard); fsync
        // spans pair in arrival order.
        let mut open_blocks: BTreeMap<(ExecId, ObjectId, usize), VecDeque<u64>> = BTreeMap::new();
        let mut spans: Vec<(ExecId, ObjectId, usize, u64, u64)> = Vec::new();
        let mut open_fsync: VecDeque<u64> = VecDeque::new();
        let mut report = LatencyReport::default();

        for s in &all {
            match s.event {
                ObsEvent::Submit { spec, attempt } | ObsEvent::Retry { spec, attempt } => {
                    submit.entry((spec, attempt)).or_insert(s.at_micros);
                }
                ObsEvent::Admit { top, spec, attempt } => {
                    admit.entry(top).or_insert((spec, attempt, s.at_micros));
                }
                ObsEvent::CertifyBegin { top } => {
                    certify.entry(top).or_insert(s.at_micros);
                }
                ObsEvent::Commit { top } => {
                    commit.entry(top).or_insert(s.at_micros);
                }
                ObsEvent::Abort { top } => {
                    abort.entry(top).or_insert(s.at_micros);
                }
                ObsEvent::BlockBegin { top, object, shard } => {
                    open_blocks
                        .entry((top, object, shard))
                        .or_default()
                        .push_back(s.at_micros);
                }
                ObsEvent::BlockEnd { top, object, shard } => {
                    if let Some(begin) = open_blocks
                        .get_mut(&(top, object, shard))
                        .and_then(VecDeque::pop_front)
                    {
                        spans.push((top, object, shard, begin, s.at_micros));
                    }
                }
                ObsEvent::FsyncBegin => open_fsync.push_back(s.at_micros),
                ObsEvent::FsyncEnd => {
                    if let Some(begin) = open_fsync.pop_front() {
                        report.phases[FSYNC].record(s.at_micros.saturating_sub(begin));
                    }
                }
                ObsEvent::FirstGrant { .. } | ObsEvent::Install { .. } | ObsEvent::Doom { .. } => {}
            }
        }
        // Close dangling blocked spans at the owner's settle (an interrupted
        // waiter may be torn down without a BlockEnd) or at the run's end.
        for ((top, object, shard), opens) in open_blocks {
            let close = commit
                .get(&top)
                .or_else(|| abort.get(&top))
                .copied()
                .unwrap_or(run_end);
            for begin in opens {
                spans.push((top, object, shard, begin, close.max(begin)));
            }
        }

        let mut blocked_by_top: BTreeMap<ExecId, u64> = BTreeMap::new();
        for &(top, object, shard, begin, end) in &spans {
            let dur = end - begin;
            report.phases[BLOCKED].record(dur);
            *blocked_by_top.entry(top).or_default() += dur;
            let span = BlockedTotal {
                blocked_micros: dur,
                spans: 1,
            };
            report.hot_objects.entry(object).or_default().add(span);
            report.hot_shards.entry(shard).or_default().add(span);
        }
        let phases = &mut report.phases;
        for (&top, &(spec, attempt, admit_at)) in &admit {
            if let Some(&submit_at) = submit.get(&(spec, attempt)) {
                phases[QUEUE_WAIT].record(admit_at.saturating_sub(submit_at));
            } else {
                phases[QUEUE_WAIT].record(0);
            }
            if let Some(&certify_at) = certify.get(&top) {
                let waited = blocked_by_top.get(&top).copied().unwrap_or(0);
                phases[EXECUTE].record(certify_at.saturating_sub(admit_at).saturating_sub(waited));
            }
            if let Some(&commit_at) = commit.get(&top) {
                if let Some(&certify_at) = certify.get(&top) {
                    phases[CERTIFY].record(commit_at.saturating_sub(certify_at));
                }
                let born = submit.get(&(spec, attempt)).copied().unwrap_or(admit_at);
                phases[E2E].record(commit_at.saturating_sub(born));
            }
        }
        report
    }

    /// The histogram of one phase (see [`PHASES`] for the names).
    pub fn phase(&self, name: &str) -> Option<&Histogram> {
        PHASES
            .iter()
            .position(|p| *p == name)
            .map(|i| &self.phases[i])
    }

    /// The end-to-end (submit → commit) histogram.
    pub fn e2e(&self) -> &Histogram {
        &self.phases[E2E]
    }

    /// Hottest objects by total blocked wall time, descending (ties in
    /// object order). Ranked on each call.
    pub fn hot_objects(&self) -> Vec<(ObjectId, BlockedTotal)> {
        ranked(&self.hot_objects)
    }

    /// Hottest scheduler shards by total blocked wall time, descending
    /// (ties in shard order). Ranked on each call.
    pub fn hot_shards(&self) -> Vec<(usize, BlockedTotal)> {
        ranked(&self.hot_shards)
    }

    /// Folds another report into this one: phase histograms merge
    /// bucket-wise and blocked-time attributions add up per object and per
    /// shard. It touches only `other`'s phases and keys, so a long-lived
    /// aggregator (the serving front end's status document) pays each run's
    /// size, not its own.
    pub fn merge(&mut self, other: &LatencyReport) {
        for (mine, theirs) in self.phases.iter_mut().zip(&other.phases) {
            mine.merge(theirs);
        }
        fold(&mut self.hot_objects, &other.hot_objects);
        fold(&mut self.hot_shards, &other.hot_shards);
    }

    /// The text profile: one percentile row per phase, then the top-K
    /// blocked-time attribution tables.
    pub fn render_table(&self) -> String {
        const TOP_K: usize = 8;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "phase (us)", "count", "p50", "p90", "p99", "p999", "max"
        );
        for (name, h) in PHASES.iter().zip(&self.phases) {
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
                name,
                h.count(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.percentile(0.999),
                h.max()
            );
        }
        if !self.hot_objects.is_empty() {
            let _ = writeln!(out, "hottest objects by blocked time:");
            for (object, t) in self.hot_objects().iter().take(TOP_K) {
                let _ = writeln!(
                    out,
                    "  object {:<6} {:>9} us over {} spans",
                    object.0, t.blocked_micros, t.spans
                );
            }
        }
        if !self.hot_shards.is_empty() {
            let _ = writeln!(out, "hottest scheduler shards by blocked time:");
            for (shard, t) in self.hot_shards().iter().take(TOP_K) {
                let _ = writeln!(
                    out,
                    "  shard {:<7} {:>9} us over {} spans",
                    shard, t.blocked_micros, t.spans
                );
            }
        }
        out
    }

    /// The report as JSON: per-phase percentile summaries plus the
    /// attribution lists, ranked.
    pub fn to_json(&self) -> Json {
        let phases = Json::Object(
            PHASES
                .iter()
                .zip(&self.phases)
                .map(|(name, h)| ((*name).to_owned(), h.to_json()))
                .collect(),
        );
        let objects = Json::Array(
            self.hot_objects()
                .into_iter()
                .map(|(object, t)| {
                    Json::object([
                        ("object", Json::Int(object.0 as i64)),
                        ("blocked_us", Json::Int(t.blocked_micros as i64)),
                        ("spans", Json::Int(t.spans as i64)),
                    ])
                })
                .collect(),
        );
        let shards = Json::Array(
            self.hot_shards()
                .into_iter()
                .map(|(shard, t)| {
                    Json::object([
                        ("shard", Json::Int(shard as i64)),
                        ("blocked_us", Json::Int(t.blocked_micros as i64)),
                        ("spans", Json::Int(t.spans as i64)),
                    ])
                })
                .collect(),
        );
        Json::object([
            ("phases", phases),
            ("hot_objects", objects),
            ("hot_shards", shards),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_rng::{ChaCha8Rng, Rng, SeedableRng};

    fn at(at_micros: u64, event: ObsEvent) -> ObsStamped {
        ObsStamped { at_micros, event }
    }

    #[test]
    fn phases_derive_from_a_hand_built_stream() {
        let top = ExecId(1);
        let obj = ObjectId(7);
        let batches = vec![
            (
                "control".to_owned(),
                vec![at(
                    0,
                    ObsEvent::Submit {
                        spec: 0,
                        attempt: 0,
                    },
                )],
            ),
            (
                "worker-0".to_owned(),
                vec![
                    at(
                        10,
                        ObsEvent::Admit {
                            top,
                            spec: 0,
                            attempt: 0,
                        },
                    ),
                    at(
                        20,
                        ObsEvent::BlockBegin {
                            top,
                            object: obj,
                            shard: 2,
                        },
                    ),
                    at(
                        50,
                        ObsEvent::BlockEnd {
                            top,
                            object: obj,
                            shard: 2,
                        },
                    ),
                    at(100, ObsEvent::CertifyBegin { top }),
                    at(110, ObsEvent::Commit { top }),
                ],
            ),
            (
                "wal".to_owned(),
                vec![at(104, ObsEvent::FsyncBegin), at(109, ObsEvent::FsyncEnd)],
            ),
        ];
        let r = LatencyReport::from_events(&batches);
        assert_eq!(r.phase("queue_wait").unwrap().percentile(1.0), 10);
        assert_eq!(r.phase("blocked").unwrap().percentile(1.0), 30);
        // execute = certify(100) − admit(10) − blocked(30) = 60.
        assert_eq!(r.phase("execute").unwrap().percentile(1.0), 60);
        assert_eq!(r.phase("certify").unwrap().percentile(1.0), 10);
        assert_eq!(r.phase("fsync").unwrap().percentile(1.0), 5);
        // e2e = commit(110) − submit(0).
        assert_eq!(r.e2e().percentile(1.0), 110);
        assert_eq!(
            r.hot_objects(),
            vec![(
                obj,
                BlockedTotal {
                    blocked_micros: 30,
                    spans: 1
                }
            )]
        );
        assert_eq!(
            r.hot_shards(),
            vec![(
                2,
                BlockedTotal {
                    blocked_micros: 30,
                    spans: 1
                }
            )]
        );
        let table = r.render_table();
        assert!(table.contains("e2e"));
        assert!(table.contains("object 7"));
    }

    #[test]
    fn dangling_block_span_closes_at_settle() {
        let top = ExecId(3);
        let obj = ObjectId(1);
        let batches = vec![(
            "worker-0".to_owned(),
            vec![
                at(
                    0,
                    ObsEvent::Admit {
                        top,
                        spec: 0,
                        attempt: 0,
                    },
                ),
                at(
                    5,
                    ObsEvent::BlockBegin {
                        top,
                        object: obj,
                        shard: 0,
                    },
                ),
                // Interrupted waiter: no BlockEnd, transaction aborts.
                at(25, ObsEvent::Abort { top }),
            ],
        )];
        let r = LatencyReport::from_events(&batches);
        assert_eq!(r.phase("blocked").unwrap().count(), 1);
        assert_eq!(r.phase("blocked").unwrap().percentile(1.0), 20);
        // Aborted attempts contribute no e2e sample.
        assert_eq!(r.e2e().count(), 0);
    }

    #[test]
    fn empty_stream_yields_empty_report() {
        let r = LatencyReport::from_events::<String>(&[]);
        for name in PHASES {
            assert_eq!(r.phase(name).unwrap().count(), 0, "{name}");
        }
        assert!(r.hot_objects().is_empty());
        let json = r.to_json().to_string();
        assert!(json.contains("queue_wait"));
    }

    /// One run's lane batches, drawn from `rng`: workload transactions whose
    /// attempts are admitted, blocked (some spans twice over the same key,
    /// some left dangling, to be closed at settle or at run end), certified
    /// and committed, or aborted and retried, or left unsettled; fsync
    /// pairs, some unmatched; and noise events the report
    /// ignores. Durations come from a small set and objects from a small
    /// range, so the hot lists have ties.
    fn random_run(rng: &mut ChaCha8Rng) -> Vec<(String, Vec<ObsStamped>)> {
        const WORKERS: usize = 3;
        let mut control = Vec::new();
        let mut wal = Vec::new();
        let mut workers: Vec<Vec<ObsStamped>> = vec![Vec::new(); WORKERS];
        let mut next_top = 0u32;
        let short = |rng: &mut ChaCha8Rng| [0, 1, 5, 10, 20][rng.gen_range(0..5usize)];
        for spec in 0..rng.gen_range(1..6usize) {
            let mut t: u64 = rng.gen_range(0..40u64);
            for attempt in 0..rng.gen_range(1..4u32) {
                let lane = &mut workers[rng.gen_range(0..WORKERS)];
                let submit = if attempt == 0 {
                    ObsEvent::Submit { spec, attempt }
                } else {
                    ObsEvent::Retry { spec, attempt }
                };
                control.push(at(t, submit));
                t += short(rng);
                let top = ExecId(next_top);
                next_top += 1;
                lane.push(at(t, ObsEvent::Admit { top, spec, attempt }));
                if rng.gen_bool(0.5) {
                    lane.push(at(t, ObsEvent::FirstGrant { top }));
                }
                for _ in 0..rng.gen_range(0..4usize) {
                    let object = ObjectId(rng.gen_range(0..10u32));
                    let shard = rng.gen_range(0..3usize);
                    let twice = rng.gen_bool(0.2);
                    for _ in 0..=usize::from(twice) {
                        t += short(rng);
                        lane.push(at(t, ObsEvent::BlockBegin { top, object, shard }));
                    }
                    for _ in 0..=usize::from(twice) {
                        if rng.gen_bool(0.8) {
                            t += short(rng);
                            lane.push(at(t, ObsEvent::BlockEnd { top, object, shard }));
                        }
                    }
                    lane.push(at(t, ObsEvent::Install { top, object }));
                }
                t += short(rng);
                match rng.gen_range(0..10u32) {
                    0..=5 => {
                        if rng.gen_bool(0.8) {
                            lane.push(at(t, ObsEvent::CertifyBegin { top }));
                            t += short(rng);
                        }
                        lane.push(at(t, ObsEvent::Commit { top }));
                        break;
                    }
                    6..=8 => {
                        if rng.gen_bool(0.3) {
                            control.push(at(t, ObsEvent::Doom { top }));
                        }
                        lane.push(at(t, ObsEvent::Abort { top }));
                        t += short(rng);
                    }
                    _ => break,
                }
            }
        }
        let mut t = rng.gen_range(0..20u64);
        for _ in 0..rng.gen_range(0..4usize) {
            if rng.gen_bool(0.9) {
                wal.push(at(t, ObsEvent::FsyncBegin));
                t += short(rng);
            }
            if rng.gen_bool(0.9) {
                wal.push(at(t, ObsEvent::FsyncEnd));
                t += short(rng);
            }
        }
        // Each lane flushes its events in time order, in one or two batches.
        let mut batches = Vec::new();
        let lanes = [("control".to_owned(), control), ("wal".to_owned(), wal)]
            .into_iter()
            .chain(
                workers
                    .into_iter()
                    .enumerate()
                    .map(|(w, events)| (format!("worker-{w}"), events)),
            );
        for (lane, mut events) in lanes {
            events.sort_by_key(|s| s.at_micros);
            let cut = rng.gen_range(0..=events.len());
            let tail = events.split_off(cut);
            batches.push((lane.clone(), events));
            batches.push((lane, tail));
        }
        batches
    }

    #[test]
    fn the_in_place_aggregate_renders_exactly_as_the_reference() {
        use super::reference::Reference;
        for seed in 0..40u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut aggregate: Option<LatencyReport> = None;
            let mut expected: Option<Reference> = None;
            for run in 0..rng.gen_range(1..25usize) {
                let batches = random_run(&mut rng);
                let report = LatencyReport::from_events(&batches);
                let reference = Reference::from_events(&batches);
                assert_eq!(
                    report.to_json().to_string(),
                    reference.to_json().to_string(),
                    "seed {seed}, run {run} on its own"
                );
                match (&mut aggregate, &mut expected) {
                    (Some(a), Some(e)) => {
                        a.merge(&report);
                        e.merge(&reference);
                    }
                    _ => {
                        aggregate = Some(report);
                        expected = Some(reference);
                    }
                }
                let (a, e) = (aggregate.as_ref().unwrap(), expected.as_ref().unwrap());
                assert_eq!(
                    a.to_json().to_string(),
                    e.to_json().to_string(),
                    "seed {seed}, after run {run}"
                );
                assert_eq!(a.render_table(), e.render_table(), "seed {seed}, run {run}");
            }
        }
    }

    #[test]
    fn random_runs_reach_every_case_the_reference_test_relies_on() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut total = LatencyReport::default();
        let mut tied_runs = 0;
        for _ in 0..200 {
            let run = LatencyReport::from_events(&random_run(&mut rng));
            let hot = run.hot_objects();
            tied_runs += usize::from(
                hot.windows(2)
                    .any(|w| w[0].1.blocked_micros == w[1].1.blocked_micros),
            );
            total.merge(&run);
        }
        for name in PHASES {
            assert!(total.phase(name).unwrap().count() > 0, "no {name} samples");
        }
        assert!(
            tied_runs > 0,
            "no run ranks two objects with equal blocked time"
        );
        assert!(
            total.hot_objects().len() > 8,
            "the table's top-K cut is never exercised"
        );
    }
}
