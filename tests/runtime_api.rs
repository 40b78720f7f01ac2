//! Integration tests of the `Runtime` facade: spec round-trips and
//! scheduler builds for every variant, builder validation, and determinism of
//! `RunReport` across repeated runs with the same seed.

use obase::prelude::*;
use obase::scenario::shapes;

fn every_spec() -> Vec<SchedulerSpec> {
    let mut specs = SchedulerSpec::all_basic();
    specs.push(SchedulerSpec::None);
    specs.push(SchedulerSpec::mixed_with_default(SchedulerSpec::n2pl_step()));
    specs.push(SchedulerSpec::Mixed {
        default_intra: Some(Box::new(SchedulerSpec::flat_read_write())),
        per_object: vec![
            (ObjectId(0), SchedulerSpec::n2pl_step()),
            (ObjectId(1), SchedulerSpec::nto_provisional()),
        ],
    });
    specs
}

#[test]
fn every_spec_round_trips_through_json_and_instantiates() {
    for spec in every_spec() {
        let text = spec.to_json_string();
        let parsed = SchedulerSpec::parse(&text).expect("round-trip parses");
        assert_eq!(parsed, spec, "round-trip changed {text}");
        let scheduler = parsed.build().expect("every built-in spec builds");
        assert_eq!(scheduler.name(), spec.label());
    }
}

#[test]
fn every_spec_runs_a_workload_through_the_runtime() {
    let workload = shapes::counters(2, 6, 2, 0.0, 0.5).compile();
    for spec in every_spec() {
        let report = Runtime::builder()
            .scheduler(spec.clone())
            .clients(3)
            .seed(11)
            .verify(Verify::Quick)
            .build()
            .unwrap()
            .run(&workload)
            .unwrap();
        assert_eq!(
            report.metrics.committed + report.metrics.gave_up,
            6,
            "{}: transactions lost",
            report.scheduler
        );
        assert_eq!(report.spec, spec);
        // Quick verification records legality + Theorem 2 but not Theorem 5.
        assert!(report.checks.legal.is_some());
        assert!(report.checks.sg_acyclic.is_some());
        assert_eq!(report.checks.theorem5, None);
    }
}

#[test]
fn builder_rejects_bad_configurations_with_typed_errors() {
    assert_eq!(
        Runtime::builder().build().unwrap_err(),
        ConfigError::MissingScheduler
    );
    assert_eq!(
        Runtime::builder()
            .scheduler(SchedulerSpec::n2pl_operation())
            .clients(0)
            .build()
            .unwrap_err(),
        ConfigError::ZeroClients
    );
    assert_eq!(
        Runtime::builder()
            .scheduler(SchedulerSpec::n2pl_operation())
            .max_rounds(0)
            .build()
            .unwrap_err(),
        ConfigError::ZeroMaxRounds
    );
    assert_eq!(
        Runtime::builder()
            .scheduler(SchedulerSpec::Mixed {
                default_intra: None,
                per_object: vec![],
            })
            .build()
            .unwrap_err(),
        ConfigError::EmptyMixedSpec
    );
    // Errors render usefully.
    assert!(ConfigError::ZeroClients.to_string().contains("clients"));
    let err: Box<dyn std::error::Error> = Box::new(ConfigError::EmptyMixedSpec);
    assert!(err.to_string().contains("SgtCertifier"));
}

#[test]
fn reports_are_deterministic_for_a_seed() {
    let workload = shapes::banking(4, 12, 0.8).compile();
    let run = |seed: u64| {
        Runtime::builder()
            .scheduler(SchedulerSpec::n2pl_step())
            .clients(4)
            .seed(seed)
            .verify(Verify::Full)
            .build()
            .unwrap()
            .run(&workload)
            .unwrap()
    };
    let mut a = run(99);
    let mut b = run(99);
    assert_eq!(a.metrics.rounds, b.metrics.rounds);
    assert_eq!(a.metrics.committed, b.metrics.committed);
    assert_eq!(a.metrics.blocked_events, b.metrics.blocked_events);
    assert_eq!(a.metrics.aborts, b.metrics.aborts);
    assert_eq!(a.history.step_count(), b.history.step_count());
    assert_eq!(a.checks, b.checks);
    // The serialised report (spec + metrics + checks + history sizes) is
    // bit-identical too, once the one physical (non-logical) measurement —
    // wall-clock time — is normalised away.
    a.metrics.wall_micros = 0;
    b.metrics.wall_micros = 0;
    assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    // A different seed interleaves differently (counters may coincide, but
    // the full serialised report rarely does; this seed pair differs).
    let mut c = run(100);
    c.metrics.wall_micros = 0;
    assert_ne!(a.to_json().to_string(), c.to_json().to_string());
}

#[test]
fn null_scheduler_is_the_negative_control() {
    // Two transactions writing two registers in opposite orders under no
    // concurrency control at all: with enough seeds one interleaving is
    // non-serialisable, and the report's checks say so while the metrics
    // still count the commits.
    use obase::adt::Register;
    use std::sync::Arc;

    let mut found_violation = false;
    for seed in 0..40u64 {
        let mut base = ObjectBase::new();
        let x = base.add_object("x", Arc::new(Register::default()));
        let y = base.add_object("y", Arc::new(Register::default()));
        let mut def = ObjectBaseDef::new(Arc::new(base));
        for o in [x, y] {
            def.define_method(
                o,
                MethodDef {
                    name: "set".into(),
                    params: 1,
                    body: Program::Local {
                        op: "Write".into(),
                        args: vec![Expr::Param(0)],
                    },
                },
            );
        }
        let workload = WorkloadSpec {
            def,
            transactions: vec![
                TxnSpec {
                    name: "T0".into(),
                    body: Program::Seq(vec![
                        Program::invoke(x, "set", [Value::Int(1)]),
                        Program::invoke(y, "set", [Value::Int(1)]),
                    ]),
                },
                TxnSpec {
                    name: "T1".into(),
                    body: Program::Seq(vec![
                        Program::invoke(y, "set", [Value::Int(2)]),
                        Program::invoke(x, "set", [Value::Int(2)]),
                    ]),
                },
            ],
        };
        let report = Runtime::builder()
            .scheduler(SchedulerSpec::None)
            .clients(2)
            .seed(seed)
            .verify(Verify::Full)
            .build()
            .unwrap()
            .run(&workload)
            .unwrap();
        if report.checks.sg_acyclic == Some(false) {
            found_violation = true;
            assert!(matches!(
                report.check_serialisable(),
                Err(TheoryViolation::CyclicSerialisationGraph { .. })
            ));
            assert!(!report.checks.all_passed());
            break;
        }
    }
    assert!(
        found_violation,
        "the null scheduler should admit a non-serialisable interleaving"
    );
}

#[test]
fn dictionary_states_are_shared_through_the_engine_not_copied() {
    // A 1,024-key dictionary served on the parallel backend. A read-only
    // transaction must leave the history's initial state and its replayed
    // final state on the base's own payload (no deep copy anywhere on the
    // path), and a writing transaction must copy on write rather than
    // mutate the base through the shared payload.
    use obase::adt::Dictionary;
    use obase::core::replay;
    use std::sync::Arc;

    // Built afresh on each call, so comparing against it is not comparing
    // a payload with itself.
    let preload = || Value::map((0..1024).map(|k| (format!("k{k:04}"), Value::Int(k))));
    let mut base = ObjectBase::new();
    let dict = base.add_object_with_state("dict", Arc::new(Dictionary), preload());
    let mut def = ObjectBaseDef::new(Arc::new(base));
    for (name, params, op) in [("lookup", 1, "Lookup"), ("put", 2, "Insert")] {
        def.define_method(
            dict,
            MethodDef {
                name: name.into(),
                params,
                body: Program::Local {
                    op: op.into(),
                    args: (0..params).map(Expr::Param).collect(),
                },
            },
        );
    }
    let payload = |v: &Value| match v {
        Value::Map(m) => m.clone(),
        other => panic!("expected a Map state, got {other:?}"),
    };
    let base_payload = payload(&def.base().spec(dict).initial_state);
    let run = |body: Program| {
        let workload = WorkloadSpec {
            def: def.clone(),
            transactions: vec![TxnSpec {
                name: "T0".into(),
                body,
            }],
        };
        let report = Runtime::builder()
            .scheduler(SchedulerSpec::n2pl_step())
            .backend(ExecutionBackend::Parallel { workers: 2 })
            .seed(5)
            .verify(Verify::Quick)
            .build()
            .unwrap()
            .run(&workload)
            .unwrap();
        assert_eq!(report.metrics.committed, 1);
        report
    };

    let lookups = run(Program::Seq(vec![
        Program::invoke(dict, "lookup", [Value::from("k0007")]),
        Program::invoke(dict, "lookup", [Value::from("absent")]),
    ]));
    assert!(payload(&lookups.history.initial_state(dict)).ptr_eq(&base_payload));
    let after_lookups = replay::final_state(&lookups.history, dict).expect("replay");
    assert!(payload(&after_lookups).ptr_eq(&base_payload));

    let writes = run(Program::Seq(vec![
        Program::invoke(dict, "put", [Value::from("k0007"), Value::Int(-7)]),
        Program::invoke(dict, "put", [Value::from("new"), Value::Int(1)]),
    ]));
    let after_writes = replay::final_state(&writes.history, dict).expect("replay");
    assert_eq!(after_writes.get_int("k0007"), Some(-7));
    assert_eq!(after_writes.as_map().map(|m| m.len()), Some(1025));
    assert_eq!(def.base().spec(dict).initial_state, preload());
    assert_eq!(writes.history.initial_state(dict), preload());
}
