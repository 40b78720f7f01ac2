//! The latency report as it was first written, kept as the reference the
//! property test in `report.rs` holds the in-place aggregate to: the same
//! event streams, split into the same runs, must render the same JSON and
//! text table byte for byte.

use super::{BlockedTotal, PHASES};
use crate::event::{ObsEvent, ObsStamped};
use crate::histogram::Histogram;
use obase_core::ids::{ExecId, ObjectId};
use obase_ser::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The report as first written: a name-keyed phase map and hot lists kept
/// ranked by re-sorting on every merge.
#[derive(Clone, Debug)]
pub struct Reference {
    phases: BTreeMap<String, Histogram>,
    hot_objects: Vec<(ObjectId, BlockedTotal)>,
    hot_shards: Vec<(usize, BlockedTotal)>,
}

impl Reference {
    /// Derives the report from recorded lane batches (the shape
    /// [`RecordingObserver::snapshot`](crate::trace::RecordingObserver::snapshot)
    /// returns). Unclosed blocked spans are closed at the owning
    /// transaction's settle time, or at the last recorded timestamp.
    pub fn from_events(batches: &[(String, Vec<ObsStamped>)]) -> Reference {
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
        let mut open_blocks: BTreeMap<(ExecId, ObjectId, usize), Vec<u64>> = BTreeMap::new();
        let mut spans: Vec<(ExecId, ObjectId, usize, u64, u64)> = Vec::new();
        let mut open_fsync: Vec<u64> = Vec::new();
        let mut fsync = Histogram::new();

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
                        .push(s.at_micros);
                }
                ObsEvent::BlockEnd { top, object, shard } => {
                    if let Some(opens) = open_blocks.get_mut(&(top, object, shard)) {
                        if !opens.is_empty() {
                            let begin = opens.remove(0);
                            spans.push((top, object, shard, begin, s.at_micros));
                        }
                    }
                }
                ObsEvent::FsyncBegin => open_fsync.push(s.at_micros),
                ObsEvent::FsyncEnd => {
                    if !open_fsync.is_empty() {
                        let begin = open_fsync.remove(0);
                        fsync.record(s.at_micros.saturating_sub(begin));
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

        let mut queue_wait = Histogram::new();
        let mut blocked = Histogram::new();
        let mut execute = Histogram::new();
        let mut certify_h = Histogram::new();
        let mut e2e = Histogram::new();
        let mut blocked_by_top: BTreeMap<ExecId, u64> = BTreeMap::new();
        let mut by_object: BTreeMap<ObjectId, BlockedTotal> = BTreeMap::new();
        let mut by_shard: BTreeMap<usize, BlockedTotal> = BTreeMap::new();

        for &(top, object, shard, begin, end) in &spans {
            let dur = end - begin;
            blocked.record(dur);
            *blocked_by_top.entry(top).or_default() += dur;
            let o = by_object.entry(object).or_default();
            o.blocked_micros += dur;
            o.spans += 1;
            let sh = by_shard.entry(shard).or_default();
            sh.blocked_micros += dur;
            sh.spans += 1;
        }
        for (&top, &(spec, attempt, admit_at)) in &admit {
            if let Some(&submit_at) = submit.get(&(spec, attempt)) {
                queue_wait.record(admit_at.saturating_sub(submit_at));
            } else {
                queue_wait.record(0);
            }
            if let Some(&certify_at) = certify.get(&top) {
                let waited = blocked_by_top.get(&top).copied().unwrap_or(0);
                execute.record(certify_at.saturating_sub(admit_at).saturating_sub(waited));
            }
            if let Some(&commit_at) = commit.get(&top) {
                if let Some(&certify_at) = certify.get(&top) {
                    certify_h.record(commit_at.saturating_sub(certify_at));
                }
                let born = submit.get(&(spec, attempt)).copied().unwrap_or(admit_at);
                e2e.record(commit_at.saturating_sub(born));
            }
        }

        let mut hot_objects: Vec<(ObjectId, BlockedTotal)> = by_object.into_iter().collect();
        hot_objects.sort_by(|a, b| {
            b.1.blocked_micros
                .cmp(&a.1.blocked_micros)
                .then(a.0.cmp(&b.0))
        });
        let mut hot_shards: Vec<(usize, BlockedTotal)> = by_shard.into_iter().collect();
        hot_shards.sort_by(|a, b| {
            b.1.blocked_micros
                .cmp(&a.1.blocked_micros)
                .then(a.0.cmp(&b.0))
        });

        let mut phases = BTreeMap::new();
        for (name, h) in [
            ("queue_wait", queue_wait),
            ("blocked", blocked),
            ("execute", execute),
            ("certify", certify_h),
            ("fsync", fsync),
            ("e2e", e2e),
        ] {
            phases.insert(name.to_owned(), h);
        }
        Reference {
            phases,
            hot_objects,
            hot_shards,
        }
    }

    /// Folds another report into this one: same-named phase histograms
    /// merge bucket-wise, blocked-time attributions add up per object and
    /// per shard, and the hot lists are re-ranked. Used by long-lived
    /// aggregators (the serving front end's status document) that outlive
    /// any single run.
    pub fn merge(&mut self, other: &Reference) {
        for (name, hist) in &other.phases {
            self.phases.entry(name.clone()).or_default().merge(hist);
        }
        let mut by_object: BTreeMap<ObjectId, BlockedTotal> = self.hot_objects.drain(..).collect();
        for (o, t) in &other.hot_objects {
            let slot = by_object.entry(*o).or_default();
            slot.blocked_micros += t.blocked_micros;
            slot.spans += t.spans;
        }
        self.hot_objects = by_object.into_iter().collect();
        self.hot_objects.sort_by(|a, b| {
            b.1.blocked_micros
                .cmp(&a.1.blocked_micros)
                .then(a.0.cmp(&b.0))
        });
        let mut by_shard: BTreeMap<usize, BlockedTotal> = self.hot_shards.drain(..).collect();
        for (s, t) in &other.hot_shards {
            let slot = by_shard.entry(*s).or_default();
            slot.blocked_micros += t.blocked_micros;
            slot.spans += t.spans;
        }
        self.hot_shards = by_shard.into_iter().collect();
        self.hot_shards.sort_by(|a, b| {
            b.1.blocked_micros
                .cmp(&a.1.blocked_micros)
                .then(a.0.cmp(&b.0))
        });
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
        for name in PHASES {
            let h = &self.phases[name];
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
            for (object, t) in self.hot_objects.iter().take(TOP_K) {
                let _ = writeln!(
                    out,
                    "  object {:<6} {:>9} us over {} spans",
                    object.0, t.blocked_micros, t.spans
                );
            }
        }
        if !self.hot_shards.is_empty() {
            let _ = writeln!(out, "hottest scheduler shards by blocked time:");
            for (shard, t) in self.hot_shards.iter().take(TOP_K) {
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
    /// attribution lists.
    pub fn to_json(&self) -> Json {
        let phases = Json::Object(
            self.phases
                .iter()
                .map(|(name, h)| (name.clone(), h.to_json()))
                .collect(),
        );
        let objects = Json::Array(
            self.hot_objects
                .iter()
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
            self.hot_shards
                .iter()
                .map(|(shard, t)| {
                    Json::object([
                        ("shard", Json::Int(*shard as i64)),
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
