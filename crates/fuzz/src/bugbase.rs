//! The bugbase: a corpus of minimal reproducers, replayed forever.
//!
//! Every failure the campaign shrinks is fingerprinted (a 64-bit FNV-1a
//! hash over the case's *structure* — ADT kinds, distributions, class
//! shapes, scheduler labels — and the failure's kind, backend and spec,
//! but **not** the seed or detail text, so re-discoveries of the same bug
//! under different seeds deduplicate) and written as pretty-greppable JSON
//! to `bugbase/bug-<fingerprint>.json`.
//!
//! The corpus is a one-way ratchet: once a bug is fixed its entry stays,
//! and [`replay_all`] re-runs every entry through the full differential
//! battery — CI goes red the day any of them regresses.

use crate::diff::{run_differential, DiffConfig, DiffStats, Failure, FailureKind};
use crate::FuzzCase;
use obase_ser::Json;
use std::io;
use std::path::Path;

/// One corpus entry: the minimal reproducer plus the failure it witnessed
/// when it was found.
#[derive(Clone, Debug)]
pub struct BugEntry {
    /// Structural fingerprint (16 hex digits), also the file name.
    pub fingerprint: String,
    /// The failure class the case reproduced.
    pub kind: FailureKind,
    /// Backend leg that failed.
    pub backend: String,
    /// Scheduler spec label it failed under.
    pub spec: String,
    /// The rendered violation at discovery time.
    pub detail: String,
    /// Provenance: campaign seed or a hand-written note.
    pub found_by: String,
    /// The minimal reproducing case.
    pub case: FuzzCase,
}

/// 64-bit FNV-1a over the case's structural signature and the failure
/// coordinates. Deliberately seed-free: two campaigns tripping the same
/// structural bug produce the same fingerprint.
pub fn fingerprint(case: &FuzzCase, kind: FailureKind, backend: &str, spec: &str) -> String {
    let s = &case.scenario;
    let mut sig = String::new();
    let mut adts: Vec<String> = s.groups.iter().map(|g| format!("{:?}", g.adt)).collect();
    adts.sort();
    let mut shapes: Vec<String> = s
        .mix
        .iter()
        .map(|c| {
            format!(
                "{:?}:{}x{}:{}:{}",
                c.dist, c.nesting.depth, c.nesting.width, c.nesting.parallel, c.ops
            )
        })
        .collect();
    shapes.sort();
    let mut specs: Vec<String> = s.specs.iter().map(|sp| sp.label()).collect();
    specs.sort();
    sig.push_str(&adts.join(","));
    sig.push('|');
    sig.push_str(&shapes.join(","));
    sig.push('|');
    sig.push_str(&specs.join(","));
    sig.push('|');
    // `mvcc=false` is a constant: it keeps the fingerprints of entries
    // stored while cases still carried a snapshot-read switch.
    sig.push_str(&format!(
        "mvcc=false|txns={}|clients={}|doom={}|storm={}|stall={}|crash={}|{}|{}|{}",
        s.transactions,
        s.clients,
        s.faults.doom_rate > 0.0,
        s.faults.storm.is_some(),
        s.faults.stall_rate > 0.0,
        s.faults.crash.is_some(),
        kind.key(),
        backend,
        spec,
    ));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in sig.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

impl BugEntry {
    /// Builds an entry from a failure and its minimal case, computing the
    /// fingerprint.
    pub fn new(case: FuzzCase, failure: &Failure, found_by: impl Into<String>) -> BugEntry {
        let fingerprint = fingerprint(&case, failure.kind, &failure.backend, &failure.spec);
        BugEntry {
            fingerprint,
            kind: failure.kind,
            backend: failure.backend.clone(),
            spec: failure.spec.clone(),
            detail: failure.detail.clone(),
            found_by: found_by.into(),
            case,
        }
    }

    /// Renders the entry as the on-disk JSON document.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("fingerprint", Json::Str(self.fingerprint.clone())),
            ("kind", Json::Str(self.kind.key().to_owned())),
            ("backend", Json::Str(self.backend.clone())),
            ("spec", Json::Str(self.spec.clone())),
            ("detail", Json::Str(self.detail.clone())),
            ("found_by", Json::Str(self.found_by.clone())),
            ("case", self.case.to_json()),
        ])
    }

    /// Parses an entry from its on-disk JSON document, validating the
    /// embedded case and that the stored fingerprint recomputes.
    pub fn from_json(json: &Json) -> Result<BugEntry, String> {
        let str_field = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("bug entry needs a string {key:?}"))
        };
        let kind_key = str_field("kind")?;
        let kind = FailureKind::from_key(&kind_key)
            .ok_or_else(|| format!("unknown failure kind {kind_key:?}"))?;
        let case_json = json.get("case").ok_or("bug entry needs a \"case\"")?;
        let case = FuzzCase::from_json(case_json).map_err(|e| e.to_string())?;
        let entry = BugEntry {
            fingerprint: str_field("fingerprint")?,
            kind,
            backend: str_field("backend")?,
            spec: str_field("spec")?,
            detail: str_field("detail")?,
            found_by: str_field("found_by")?,
            case,
        };
        let expect = fingerprint(&entry.case, entry.kind, &entry.backend, &entry.spec);
        if entry.fingerprint != expect {
            return Err(format!(
                "stale fingerprint: stored {} but the case hashes to {expect}",
                entry.fingerprint
            ));
        }
        Ok(entry)
    }

    /// The entry's file name inside the corpus directory.
    pub fn file_name(&self) -> String {
        format!("bug-{}.json", self.fingerprint)
    }
}

/// Writes `entry` into `dir` (created if missing). Returns `false` without
/// writing if an entry with the same fingerprint is already on disk — the
/// corpus-level deduplication.
pub fn record(dir: &Path, entry: &BugEntry) -> io::Result<bool> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(entry.file_name());
    if path.exists() {
        return Ok(false);
    }
    std::fs::write(&path, format!("{}\n", entry.to_json()))?;
    Ok(true)
}

/// Loads every `bug-*.json` entry in `dir`, sorted by fingerprint. A
/// missing directory is an empty corpus; a malformed entry is an error (a
/// corpus that silently skips entries is not a regression suite).
pub fn load_all(dir: &Path) -> Result<Vec<BugEntry>, String> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut entries = Vec::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|r| r.ok().map(|d| d.path()))
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("bug-"))
        })
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("malformed {}: {e}", path.display()))?;
        let entry =
            BugEntry::from_json(&json).map_err(|e| format!("bad entry {}: {e}", path.display()))?;
        entries.push(entry);
    }
    entries.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
    Ok(entries)
}

/// One replayed corpus entry with the outcome of re-running its case.
pub type ReplayResult = (BugEntry, Result<DiffStats, Failure>);

/// Replays every corpus entry through the full differential battery. An
/// entry passes when its case now runs clean — the forever-green contract.
/// Returns per-entry results in fingerprint order.
pub fn replay_all(dir: &Path, cfg: &DiffConfig) -> Result<Vec<ReplayResult>, String> {
    let entries = load_all(dir)?;
    Ok(entries
        .into_iter()
        .map(|entry| {
            let result = run_differential(&entry.case, cfg);
            (entry, result)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use obase_rng::{ChaCha8Rng, SeedableRng};

    fn sample_entry(seed: u64) -> BugEntry {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let case = generate(&mut rng, &GenConfig::default());
        let failure = Failure {
            kind: FailureKind::Oracle,
            backend: "simulated".into(),
            spec: case.scenario.specs[0].label(),
            detail: "history is not serialisable".into(),
        };
        BugEntry::new(case, &failure, format!("test-seed-{seed}"))
    }

    #[test]
    fn entries_round_trip_and_fingerprints_recompute() {
        let entry = sample_entry(4);
        let back = BugEntry::from_json(&entry.to_json()).expect("round trip");
        assert_eq!(back.fingerprint, entry.fingerprint);
        assert_eq!(back.kind, entry.kind);
        assert_eq!(back.case, entry.case);
        // Seed-independence: same structure re-found elsewhere, same print.
        let again = fingerprint(&entry.case, entry.kind, &entry.backend, &entry.spec);
        assert_eq!(again, entry.fingerprint);
    }

    #[test]
    fn recording_deduplicates_by_fingerprint() {
        let dir = obase_wal::scratch_dir("bugbase-test");
        let entry = sample_entry(5);
        assert!(record(&dir, &entry).expect("first write"));
        assert!(!record(&dir, &entry).expect("duplicate is a no-op"));
        let other = sample_entry(6);
        assert!(record(&dir, &other).expect("distinct entry writes"));
        let loaded = load_all(&dir).expect("corpus loads");
        assert_eq!(loaded.len(), 2);
        assert!(loaded
            .windows(2)
            .all(|w| w[0].fingerprint < w[1].fingerprint));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_entries_are_rejected() {
        let entry = sample_entry(7);
        let mut json = entry.to_json();
        if let Json::Object(map) = &mut json {
            map.insert("fingerprint".into(), Json::Str("0".repeat(16)));
        }
        let err = BugEntry::from_json(&json).expect_err("stale fingerprint");
        assert!(err.contains("stale fingerprint"));
    }

    #[test]
    fn a_missing_corpus_is_empty_not_an_error() {
        let dir = obase_wal::scratch_dir("bugbase-missing");
        std::fs::remove_dir_all(&dir).ok();
        assert!(load_all(&dir).expect("missing dir is empty").is_empty());
    }
}
