//! Self-tests of the benchmark: deterministic inputs, stationary state,
//! codec round trips, the correctness gate. The percentile routine is
//! checked in `stats.rs`.

use crate::traced;
use crate::workload::Workload;
use obase_ser::Json;
use obase_serve::wire::{self, Frame};
use std::time::Duration;

fn frames(workload: Workload, seed: u64, lane: u64, n: u64) -> Vec<Frame> {
    let mut stream = workload.stream(seed, lane);
    (1..=n)
        .map(|id| Frame::Submit {
            id,
            name: "t".into(),
            body: stream.next_body(),
        })
        .collect()
}

fn bytes(frames: &[Frame]) -> Vec<u8> {
    frames.iter().flat_map(wire::encode_frame).collect()
}

#[test]
fn same_seed_gives_byte_identical_submit_frames() {
    for w in Workload::ALL {
        for lane in 0..3 {
            let a = bytes(&frames(w, 17, lane, 300));
            let b = bytes(&frames(w, 17, lane, 300));
            assert_eq!(a, b, "{} lane {lane} is not deterministic", w.name());
        }
        assert_ne!(
            bytes(&frames(w, 17, 1, 300)),
            bytes(&frames(w, 18, 1, 300)),
            "{}: the seed does not reach the stream",
            w.name()
        );
        assert_ne!(
            bytes(&frames(w, 17, 1, 300)),
            bytes(&frames(w, 17, 2, 300)),
            "{}: two connections would submit the same stream",
            w.name()
        );
    }
}

#[test]
fn every_generated_frame_round_trips_through_the_decoder() {
    for w in Workload::ALL {
        for frame in frames(w, 5, 1, 1000) {
            let encoded = wire::encode_frame(&frame);
            let (decoded, used) = wire::decode_frame(&encoded).expect("generated frames decode");
            assert_eq!(used, encoded.len());
            assert_eq!(decoded, frame, "{} frame changed in transit", w.name());
        }
    }
}

#[test]
fn large_dict_keeps_every_dictionary_at_its_preloaded_size() {
    traced::check_dictionary_sizes(&Workload::LargeDict.world())
        .expect("the world starts with the preloaded keys");
    // The replay re-checks every dictionary after every batch.
    traced::replay(Workload::LargeDict, 3, 32, Duration::ZERO)
        .expect("large-dict stays stationary under replay");
}

#[test]
fn every_workload_replays_under_the_oracle() {
    for w in [Workload::FlatAccounts, Workload::HotNested] {
        let tracer = traced::replay(w, 11, 16, Duration::ZERO)
            .unwrap_or_else(|e| panic!("{} replay failed: {e}", w.name()));
        for class in [traced::SATURATED, traced::SOLO] {
            for call in ["runtime.build", "runtime.run", "core.legality", "core.sg"] {
                assert!(
                    !tracer.durations_us(call, Some(class)).is_empty(),
                    "{}: no {call} span under {class}",
                    w.name()
                );
            }
        }
        assert!(!tracer.durations_us("wire.codec", None).is_empty());
    }
}

#[test]
fn the_served_config_is_the_serve_default_without_history() {
    let served = crate::server::config();
    let default = obase_serve::ServeConfig::default();
    assert_eq!(default.diff(&served), vec!["keep_history"]);
    assert!(!served.keep_history);
}

fn status(admitted: i64, committed: i64, gave_up: i64, oracle_failures: i64) -> Json {
    Json::object([
        ("admitted", Json::Int(admitted)),
        ("committed", Json::Int(committed)),
        ("gave_up", Json::Int(gave_up)),
        ("oracle_failures", Json::Int(oracle_failures)),
        ("batch_errors", Json::Int(0)),
        ("send_failures", Json::Int(0)),
    ])
}

#[test]
fn the_gate_passes_only_exact_agreement() {
    let tally = crate::conn::Tally {
        submitted: 12,
        committed: 9,
        gave_up: 1,
        rejected: 2,
    };
    assert_eq!(crate::gate(&status(10, 9, 1, 0), &tally, 0), Ok(()));
    // An answer never arrived.
    assert!(crate::gate(&status(10, 9, 1, 0), &tally, 1).is_err());
    // The server committed one the client was never told about.
    assert!(crate::gate(&status(11, 10, 1, 0), &tally, 0).is_err());
    // A batch failed its own oracle check.
    assert!(crate::gate(&status(10, 9, 1, 1), &tally, 0).is_err());
}
