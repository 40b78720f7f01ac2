//! Declarative scheduler specifications.
//!
//! The paper's central claim is that concurrency control for object bases is
//! *pluggable*: N2PL (Section 5.1), NTO (Section 5.2) and optimistic
//! certification (Section 6) are interchangeable behind one scheduler
//! contract, and Section 2 envisions each object choosing its own policy. A
//! [`SchedulerSpec`] captures a choice of algorithm as plain *data* — it can
//! be rendered to JSON, stored in a config file, diffed and parsed back — and
//! [`SchedulerSpec::build`] turns it into a live scheduler for one run.

use crate::error::ConfigError;
use obase_core::ids::ObjectId;
use obase_core::sched::{NullScheduler, Scheduler};
use obase_sched::{
    FlatMode, FlatObjectScheduler, LockGranularity, MixedScheduler, N2plScheduler, NtoScheduler,
    NtoStyle, SgtCertifier,
};
use obase_ser::Json;
use std::collections::BTreeSet;

/// A declarative description of a concurrency-control configuration.
///
/// Construct variants directly or use the shorthand constructors
/// ([`SchedulerSpec::n2pl_operation`] and friends); serialise with
/// [`to_json_string`](SchedulerSpec::to_json_string) and parse back with
/// [`parse`](SchedulerSpec::parse).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// No concurrency control at all — the experiments' negative control.
    /// Admits non-serialisable executions.
    None,
    /// The flat Gemstone-style baseline: every object is a single data item
    /// under strict two-phase locking (Section 1).
    Flat {
        /// Object-lock granularity.
        mode: FlatMode,
    },
    /// Nested two-phase locking, Moss' algorithm as generalised by the
    /// paper's rules 1–5 (Section 5.1).
    N2pl {
        /// Operation-level (conservative) or step-level (return-value aware)
        /// locks.
        granularity: LockGranularity,
    },
    /// Nested timestamp ordering (Section 5.2).
    Nto {
        /// Conservative or provisional implementation style.
        style: NtoStyle,
    },
    /// The optimistic serialisation-graph certifier (Section 6).
    SgtCertifier,
    /// Section 2's vision: per-object intra-object policies composed with the
    /// inter-object certifier (Theorem 5's separation).
    Mixed {
        /// The intra-object policy for objects without a dedicated one
        /// (`None` leaves those objects wide open to the certifier alone).
        default_intra: Option<Box<SchedulerSpec>>,
        /// Dedicated intra-object policies, keyed by object.
        per_object: Vec<(ObjectId, SchedulerSpec)>,
    },
}

impl SchedulerSpec {
    /// Flat baseline with one exclusive lock per object.
    pub fn flat_exclusive() -> Self {
        SchedulerSpec::Flat {
            mode: FlatMode::Exclusive,
        }
    }

    /// Flat baseline with shared/exclusive object locks.
    pub fn flat_read_write() -> Self {
        SchedulerSpec::Flat {
            mode: FlatMode::ReadWrite,
        }
    }

    /// N2PL with conservative operation-level locks.
    pub fn n2pl_operation() -> Self {
        SchedulerSpec::N2pl {
            granularity: LockGranularity::Operation,
        }
    }

    /// N2PL with return-value-aware step-level locks.
    pub fn n2pl_step() -> Self {
        SchedulerSpec::N2pl {
            granularity: LockGranularity::Step,
        }
    }

    /// NTO in the conservative style.
    pub fn nto_conservative() -> Self {
        SchedulerSpec::Nto {
            style: NtoStyle::Conservative,
        }
    }

    /// NTO in the provisional style.
    pub fn nto_provisional() -> Self {
        SchedulerSpec::Nto {
            style: NtoStyle::Provisional,
        }
    }

    /// A mixed spec with one intra-object policy for every object.
    pub fn mixed_with_default(default_intra: SchedulerSpec) -> Self {
        SchedulerSpec::Mixed {
            default_intra: Some(Box::new(default_intra)),
            per_object: Vec::new(),
        }
    }

    /// Every non-mixed, non-null spec in the library — the standard line-up
    /// used by face-offs and integration tests.
    pub fn all_basic() -> Vec<SchedulerSpec> {
        vec![
            SchedulerSpec::flat_exclusive(),
            SchedulerSpec::flat_read_write(),
            SchedulerSpec::n2pl_operation(),
            SchedulerSpec::n2pl_step(),
            SchedulerSpec::nto_conservative(),
            SchedulerSpec::nto_provisional(),
            SchedulerSpec::SgtCertifier,
        ]
    }

    /// The `"kind"` tag of this spec's variant in its JSON form.
    pub fn kind(&self) -> &'static str {
        match self {
            SchedulerSpec::None => "none",
            SchedulerSpec::Flat { .. } => "flat",
            SchedulerSpec::N2pl { .. } => "n2pl",
            SchedulerSpec::Nto { .. } => "nto",
            SchedulerSpec::SgtCertifier => "sgt-certifier",
            SchedulerSpec::Mixed { .. } => "mixed",
        }
    }

    /// A short human-readable label matching the scheduler names used in
    /// experiment output ("n2pl-op", "nto-conservative", ...).
    pub fn label(&self) -> String {
        match self {
            SchedulerSpec::None => "none".to_owned(),
            SchedulerSpec::Flat {
                mode: FlatMode::Exclusive,
            } => "flat-excl".to_owned(),
            SchedulerSpec::Flat {
                mode: FlatMode::ReadWrite,
            } => "flat-rw".to_owned(),
            SchedulerSpec::N2pl {
                granularity: LockGranularity::Operation,
            } => "n2pl-op".to_owned(),
            SchedulerSpec::N2pl {
                granularity: LockGranularity::Step,
            } => "n2pl-step".to_owned(),
            SchedulerSpec::Nto {
                style: NtoStyle::Conservative,
            } => "nto-conservative".to_owned(),
            SchedulerSpec::Nto {
                style: NtoStyle::Provisional,
            } => "nto-provisional".to_owned(),
            SchedulerSpec::SgtCertifier => "occ-sgt".to_owned(),
            SchedulerSpec::Mixed {
                default_intra,
                per_object,
            } => {
                if default_intra.is_none() && per_object.is_empty() {
                    "mixed(occ-only)".to_owned()
                } else if let Some(d) = default_intra {
                    format!("mixed({})", d.label())
                } else {
                    "mixed".to_owned()
                }
            }
        }
    }

    /// Checks the spec's internal consistency: mixed specs must name at least
    /// one intra-object policy, must not nest further mixed specs, and must
    /// not assign two policies to one object.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let SchedulerSpec::Mixed {
            default_intra,
            per_object,
        } = self
        {
            if default_intra.is_none() && per_object.is_empty() {
                return Err(ConfigError::EmptyMixedSpec);
            }
            let mut seen = BTreeSet::new();
            for (object, spec) in per_object {
                if !seen.insert(*object) {
                    return Err(ConfigError::DuplicateMixedObject(*object));
                }
                if matches!(spec, SchedulerSpec::Mixed { .. }) {
                    return Err(ConfigError::NestedMixedSpec);
                }
                spec.validate()?;
            }
            if let Some(d) = default_intra {
                if matches!(**d, SchedulerSpec::Mixed { .. }) {
                    return Err(ConfigError::NestedMixedSpec);
                }
                d.validate()?;
            }
        }
        Ok(())
    }

    /// Validates the spec and builds a fresh scheduler for it, named by
    /// the spec's [`label`](SchedulerSpec::label).
    ///
    /// Each call produces a new instance: scheduler state (lock tables,
    /// timestamps, conflict graphs) belongs to a single run.
    pub fn build(&self) -> Result<Box<dyn Scheduler>, ConfigError> {
        self.validate()?;
        Ok(match self {
            SchedulerSpec::None => Box::new(NullScheduler),
            SchedulerSpec::Flat {
                mode: FlatMode::Exclusive,
            } => Box::new(FlatObjectScheduler::exclusive()),
            SchedulerSpec::Flat {
                mode: FlatMode::ReadWrite,
            } => Box::new(FlatObjectScheduler::read_write()),
            SchedulerSpec::N2pl { granularity } => {
                Box::new(N2plScheduler::with_granularity(*granularity))
            }
            SchedulerSpec::Nto { style } => Box::new(NtoScheduler::with_style(*style)),
            SchedulerSpec::SgtCertifier => Box::new(SgtCertifier::new()),
            SchedulerSpec::Mixed {
                default_intra,
                per_object,
            } => {
                let mut mixed = MixedScheduler::new();
                if let Some(d) = default_intra {
                    mixed = mixed.with_default_intra(d.build()?);
                }
                for (object, sub) in per_object {
                    mixed = mixed.with_intra(*object, sub.build()?);
                }
                Box::new(mixed)
            }
        })
    }

    /// Renders the spec as a JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            SchedulerSpec::None | SchedulerSpec::SgtCertifier => {
                Json::object([("kind", Json::str(self.kind()))])
            }
            SchedulerSpec::Flat { mode } => Json::object([
                ("kind", Json::str("flat")),
                (
                    "mode",
                    Json::str(match mode {
                        FlatMode::Exclusive => "exclusive",
                        FlatMode::ReadWrite => "read-write",
                    }),
                ),
            ]),
            SchedulerSpec::N2pl { granularity } => Json::object([
                ("kind", Json::str("n2pl")),
                (
                    "granularity",
                    Json::str(match granularity {
                        LockGranularity::Operation => "operation",
                        LockGranularity::Step => "step",
                    }),
                ),
            ]),
            SchedulerSpec::Nto { style } => Json::object([
                ("kind", Json::str("nto")),
                (
                    "style",
                    Json::str(match style {
                        NtoStyle::Conservative => "conservative",
                        NtoStyle::Provisional => "provisional",
                    }),
                ),
            ]),
            SchedulerSpec::Mixed {
                default_intra,
                per_object,
            } => Json::object([
                ("kind", Json::str("mixed")),
                (
                    "default_intra",
                    match default_intra {
                        Some(d) => d.to_json(),
                        None => Json::Null,
                    },
                ),
                (
                    "per_object",
                    Json::Array(
                        per_object
                            .iter()
                            .map(|(o, s)| {
                                Json::object([
                                    ("object", Json::Int(i64::from(o.0))),
                                    ("spec", s.to_json()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        }
    }

    /// Renders the spec as a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses a spec from a JSON string.
    pub fn parse(input: &str) -> Result<Self, ConfigError> {
        let json = Json::parse(input).map_err(|e| ConfigError::BadSpec(e.to_string()))?;
        Self::from_json(&json)
    }

    /// Builds a spec from a parsed JSON value.
    pub fn from_json(json: &Json) -> Result<Self, ConfigError> {
        let bad = |msg: &str| ConfigError::BadSpec(msg.to_owned());
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing \"kind\" field"))?;
        let field = |name: &str| {
            json.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| bad(&format!("kind {kind:?} needs a string {name:?} field")))
        };
        match kind {
            "none" => Ok(SchedulerSpec::None),
            "sgt-certifier" => Ok(SchedulerSpec::SgtCertifier),
            "flat" => match field("mode")? {
                "exclusive" => Ok(SchedulerSpec::flat_exclusive()),
                "read-write" => Ok(SchedulerSpec::flat_read_write()),
                other => Err(bad(&format!("unknown flat mode {other:?}"))),
            },
            "n2pl" => match field("granularity")? {
                "operation" => Ok(SchedulerSpec::n2pl_operation()),
                "step" => Ok(SchedulerSpec::n2pl_step()),
                other => Err(bad(&format!("unknown n2pl granularity {other:?}"))),
            },
            "nto" => match field("style")? {
                "conservative" => Ok(SchedulerSpec::nto_conservative()),
                "provisional" => Ok(SchedulerSpec::nto_provisional()),
                other => Err(bad(&format!("unknown nto style {other:?}"))),
            },
            "mixed" => {
                let default_intra = match json.get("default_intra") {
                    None | Some(Json::Null) => None,
                    Some(d) => Some(Box::new(Self::from_json(d)?)),
                };
                let mut per_object = Vec::new();
                if let Some(entries) = json.get("per_object") {
                    let entries = entries
                        .as_array()
                        .ok_or_else(|| bad("\"per_object\" must be an array"))?;
                    for entry in entries {
                        let object = entry
                            .get("object")
                            .and_then(Json::as_int)
                            .and_then(|i| u32::try_from(i).ok())
                            .ok_or_else(|| bad("per_object entry needs an \"object\" id"))?;
                        let spec = entry
                            .get("spec")
                            .ok_or_else(|| bad("per_object entry needs a \"spec\""))?;
                        per_object.push((ObjectId(object), Self::from_json(spec)?));
                    }
                }
                Ok(SchedulerSpec::Mixed {
                    default_intra,
                    per_object,
                })
            }
            other => Err(ConfigError::UnknownKind(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_variant() -> Vec<SchedulerSpec> {
        let mut specs = SchedulerSpec::all_basic();
        specs.push(SchedulerSpec::None);
        specs.push(SchedulerSpec::mixed_with_default(SchedulerSpec::n2pl_step()));
        specs.push(SchedulerSpec::Mixed {
            default_intra: None,
            per_object: vec![
                (ObjectId(0), SchedulerSpec::flat_exclusive()),
                (ObjectId(3), SchedulerSpec::nto_provisional()),
            ],
        });
        specs.push(SchedulerSpec::Mixed {
            default_intra: Some(Box::new(SchedulerSpec::flat_exclusive())),
            per_object: vec![(ObjectId(2), SchedulerSpec::nto_conservative())],
        });
        specs
    }

    #[test]
    fn json_round_trips_every_variant() {
        for spec in every_variant() {
            let text = spec.to_json_string();
            let back = SchedulerSpec::parse(&text).unwrap();
            assert_eq!(spec, back, "round-trip failed for {text}");
        }
    }

    #[test]
    fn every_variant_builds_with_its_label() {
        for spec in every_variant() {
            assert_eq!(spec.build().unwrap().name(), spec.label(), "for {spec:?}");
        }
    }

    #[test]
    fn labels_are_distinct_for_the_basic_lineup() {
        let labels: BTreeSet<String> = SchedulerSpec::all_basic()
            .iter()
            .map(SchedulerSpec::label)
            .collect();
        assert_eq!(labels.len(), SchedulerSpec::all_basic().len());
    }

    #[test]
    fn empty_mixed_is_rejected() {
        let spec = SchedulerSpec::Mixed {
            default_intra: None,
            per_object: vec![],
        };
        assert_eq!(spec.validate(), Err(ConfigError::EmptyMixedSpec));
        assert_eq!(spec.build().err(), Some(ConfigError::EmptyMixedSpec));
    }

    #[test]
    fn nested_mixed_is_rejected() {
        let inner = SchedulerSpec::mixed_with_default(SchedulerSpec::n2pl_step());
        let spec = SchedulerSpec::mixed_with_default(inner.clone());
        assert_eq!(spec.validate(), Err(ConfigError::NestedMixedSpec));
        assert_eq!(spec.build().err(), Some(ConfigError::NestedMixedSpec));
        let spec = SchedulerSpec::Mixed {
            default_intra: None,
            per_object: vec![(ObjectId(1), inner)],
        };
        assert_eq!(spec.validate(), Err(ConfigError::NestedMixedSpec));
        assert_eq!(spec.build().err(), Some(ConfigError::NestedMixedSpec));
    }

    #[test]
    fn duplicate_mixed_object_is_rejected() {
        let spec = SchedulerSpec::Mixed {
            default_intra: None,
            per_object: vec![
                (ObjectId(2), SchedulerSpec::n2pl_operation()),
                (ObjectId(2), SchedulerSpec::n2pl_step()),
            ],
        };
        assert_eq!(
            spec.validate(),
            Err(ConfigError::DuplicateMixedObject(ObjectId(2)))
        );
        assert_eq!(
            spec.build().err(),
            Some(ConfigError::DuplicateMixedObject(ObjectId(2)))
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(matches!(
            SchedulerSpec::parse("{\"kind\":\"zoo\"}"),
            Err(ConfigError::UnknownKind(k)) if k == "zoo"
        ));
        assert!(matches!(
            SchedulerSpec::parse("{\"mode\":\"exclusive\"}"),
            Err(ConfigError::BadSpec(_))
        ));
        assert!(matches!(
            SchedulerSpec::parse("{\"kind\":\"flat\",\"mode\":\"upside-down\"}"),
            Err(ConfigError::BadSpec(_))
        ));
        assert!(matches!(
            SchedulerSpec::parse("not json"),
            Err(ConfigError::BadSpec(_))
        ));
    }
}
