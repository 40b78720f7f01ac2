//! Bench rows for the declarative scenario engine (`obase-scenario`).
//!
//! One row per scenario × scheduler spec × backend, with the usual
//! measurement columns plus the abort-reason histogram — so
//! `BENCH_results.json` records, run over run, how every scenario behaves
//! on every backend and whether its fault plan fired (the `"injected"`
//! bucket). The `durable` column marks rows produced by the write-ahead-log
//! backend (1.0) so durability overhead can be read straight out of the
//! results file.

use crate::experiments::Row;
use obase_runtime::ExecutionBackend;
use obase_scenario::Scenario;
use std::path::PathBuf;

/// Group-commit window the scenario sweeps use for the durable backend: big
/// enough that fsync cost does not drown the scenario's own signal, small
/// enough to exercise the batching path.
pub const DEFAULT_GROUP_COMMIT: usize = 8;

/// Which backends a scenario sweep runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendChoice {
    /// The deterministic simulator only.
    Simulated,
    /// The multi-threaded backend only (at the given worker count).
    Parallel {
        /// Worker threads.
        workers: usize,
    },
    /// Simulator and parallel backend (the default of the `scenarios`
    /// binary).
    Both {
        /// Worker threads for the parallel leg.
        workers: usize,
    },
    /// The durable (write-ahead-logged) backend only.
    Durable {
        /// Directory for the write-ahead logs (one subdirectory per run).
        wal_dir: PathBuf,
    },
    /// Every backend: simulator, parallel and durable.
    All {
        /// Worker threads for the parallel leg.
        workers: usize,
        /// Directory for the write-ahead logs.
        wal_dir: PathBuf,
    },
}

impl BackendChoice {
    fn backends(&self) -> Vec<ExecutionBackend> {
        match self {
            BackendChoice::Simulated => vec![ExecutionBackend::Simulated],
            BackendChoice::Parallel { workers } => {
                vec![ExecutionBackend::Parallel { workers: *workers }]
            }
            BackendChoice::Both { workers } => vec![
                ExecutionBackend::Simulated,
                ExecutionBackend::Parallel { workers: *workers },
            ],
            BackendChoice::Durable { wal_dir } => vec![ExecutionBackend::Durable {
                dir: wal_dir.clone(),
                group_commit: DEFAULT_GROUP_COMMIT,
            }],
            BackendChoice::All { workers, wal_dir } => vec![
                ExecutionBackend::Simulated,
                ExecutionBackend::Parallel { workers: *workers },
                ExecutionBackend::Durable {
                    dir: wal_dir.clone(),
                    group_commit: DEFAULT_GROUP_COMMIT,
                },
            ],
        }
    }
}

/// Runs one scenario under every spec it names, on the chosen backends, and
/// returns the measurement rows. Every run is held to the full theory
/// oracle.
///
/// Runs on the durable backend write their logs under the choice's
/// `wal_dir`, one subdirectory per run so rows never clobber each other's
/// logs.
///
/// # Panics
/// Panics if a run times out or fails the serialisability checks — a bench
/// sweep over a broken engine must not write plausible-looking numbers.
pub fn scenario_rows(scenario: &Scenario, choice: &BackendChoice) -> Vec<Row> {
    let mut rows = Vec::new();
    for spec in &scenario.specs {
        for backend in choice.backends() {
            // Give each durable run its own log directory.
            let backend = match backend {
                ExecutionBackend::Durable { dir, group_commit } => ExecutionBackend::Durable {
                    dir: dir.join(format!(
                        "{}-{}",
                        scenario.name,
                        spec.label().replace(['/', ' '], "_")
                    )),
                    group_commit,
                },
                other => other,
            };
            let runtime = scenario
                .builder(spec.clone(), backend.clone())
                .and_then(|b| b.build())
                .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
            let report = runtime
                .run(&scenario.compile())
                .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
            assert!(
                !report.metrics.timed_out,
                "{} [{}] timed out: {}",
                scenario.name,
                backend.label(),
                report.summary()
            );
            report.assert_serialisable();
            let m = &report.metrics;
            let row = Row::new(format!(
                "{} / {} / {}",
                scenario.name,
                spec.label(),
                backend.label()
            ))
            .with("committed", m.committed as f64)
            .with("aborts", m.aborts as f64)
            .with("abort_rate", m.abort_ratio())
            .with("gave_up", m.gave_up as f64)
            .with("blocked", m.blocked_events as f64)
            .with("retries", m.retries as f64)
            .with("wall_ms", m.wall_micros as f64 / 1000.0)
            .with("throughput", m.throughput())
            .with("wall_throughput", m.wall_throughput())
            .with("durable", if backend.is_durable() { 1.0 } else { 0.0 })
            .with_histogram(
                "aborts_by_reason",
                m.aborts_by_reason
                    .iter()
                    .map(|(reason, n)| (reason.clone(), *n as f64)),
            );
            rows.push(crate::experiments::with_latency_columns(row, &report));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_every_spec_and_backend() {
        let s = obase_scenario::by_name("hot-queue").unwrap();
        let rows = scenario_rows(&s, &BackendChoice::Both { workers: 2 });
        // Two specs × two backends.
        assert_eq!(rows.len(), s.specs.len() * 2);
        assert!(rows.iter().all(|r| r.values["committed"] > 0.0));
        assert!(rows.iter().all(|r| r.values["durable"] == 0.0));
        assert!(rows.iter().any(|r| r.label.contains("simulated")));
        assert!(rows.iter().any(|r| r.label.contains("parallel(2)")));
    }

    #[test]
    fn chaos_rows_record_injected_aborts() {
        let s = obase_scenario::by_name("injected-dooms").unwrap();
        let rows = scenario_rows(&s, &BackendChoice::Simulated);
        let injected: f64 = rows
            .iter()
            .filter_map(|r| r.histograms.get("aborts_by_reason"))
            .filter_map(|h| h.get("injected"))
            .sum();
        assert!(injected > 0.0, "fault plan left no histogram trail");
    }

    #[test]
    fn durable_rows_are_marked_and_logged() {
        let wal_dir = obase_wal::scratch_dir("bench-scenarios");
        let s = obase_scenario::by_name("hot-queue").unwrap();
        let rows = scenario_rows(
            &s,
            &BackendChoice::Durable {
                wal_dir: wal_dir.clone(),
            },
        );
        assert_eq!(rows.len(), s.specs.len());
        assert!(rows.iter().all(|r| r.values["durable"] == 1.0));
        assert!(rows
            .iter()
            .all(|r| r.label.contains("durable(gc=8)") && r.values["committed"] > 0.0));
        // Each run left a recoverable log behind.
        let logs = std::fs::read_dir(&wal_dir).unwrap().count();
        assert_eq!(logs, s.specs.len());
        std::fs::remove_dir_all(&wal_dir).ok();
    }
}
