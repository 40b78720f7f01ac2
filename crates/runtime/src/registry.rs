//! The scheduler registry: turns [`SchedulerSpec`]s into live schedulers.
//!
//! The registry maps spec *kinds* ("n2pl", "nto", ...) to factory functions.
//! All of the library's algorithms are pre-registered; embedders can add
//! their own kinds with [`SchedulerRegistry::register`] so that experimental
//! schedulers participate in the same declarative machinery (config files,
//! face-offs, reports) without the facade knowing about them.

use crate::error::ConfigError;
use crate::spec::SchedulerSpec;
use obase_core::sched::{NullScheduler, Scheduler};
use obase_exec::MixedScheduler;
use obase_lock::{FlatMode, FlatObjectScheduler, N2plScheduler};
use obase_occ::SgtCertifier;
use obase_tso::NtoScheduler;
use std::collections::BTreeMap;

/// A factory producing a fresh scheduler from a spec. The registry is passed
/// back in so composite factories (like `mixed`) can instantiate sub-specs.
/// Factories are `Send + Sync` so that a built [`Runtime`](crate::Runtime)
/// can be shared across threads (a server builds one per config).
pub type SchedulerFactory = Box<
    dyn Fn(&SchedulerRegistry, &SchedulerSpec) -> Result<Box<dyn Scheduler>, ConfigError>
        + Send
        + Sync,
>;

/// Maps spec kinds to scheduler factories.
pub struct SchedulerRegistry {
    factories: BTreeMap<String, SchedulerFactory>,
}

impl std::fmt::Debug for SchedulerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerRegistry")
            .field("kinds", &self.kinds())
            .finish()
    }
}

impl Default for SchedulerRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl SchedulerRegistry {
    /// An empty registry with no factories at all.
    pub fn empty() -> Self {
        SchedulerRegistry {
            factories: BTreeMap::new(),
        }
    }

    /// A registry with every algorithm in the library pre-registered.
    pub fn with_builtins() -> Self {
        let mut reg = Self::empty();
        reg.register("none", |_, _| {
            Ok(Box::new(NullScheduler) as Box<dyn Scheduler>)
        });
        reg.register("flat", |_, spec| match spec {
            SchedulerSpec::Flat { mode } => Ok(Box::new(match mode {
                FlatMode::Exclusive => FlatObjectScheduler::exclusive(),
                FlatMode::ReadWrite => FlatObjectScheduler::read_write(),
            }) as Box<dyn Scheduler>),
            _ => Err(ConfigError::BadSpec("expected a flat spec".into())),
        });
        reg.register("n2pl", |_, spec| match spec {
            SchedulerSpec::N2pl { granularity } => {
                Ok(Box::new(N2plScheduler::with_granularity(*granularity)) as Box<dyn Scheduler>)
            }
            _ => Err(ConfigError::BadSpec("expected an n2pl spec".into())),
        });
        reg.register("nto", |_, spec| match spec {
            SchedulerSpec::Nto { style } => {
                Ok(Box::new(NtoScheduler::with_style(*style)) as Box<dyn Scheduler>)
            }
            _ => Err(ConfigError::BadSpec("expected an nto spec".into())),
        });
        reg.register("sgt-certifier", |_, _| {
            Ok(Box::new(SgtCertifier::new()) as Box<dyn Scheduler>)
        });
        reg.register("mixed", |reg, spec| match spec {
            SchedulerSpec::Mixed {
                default_intra,
                per_object,
            } => {
                let mut mixed = MixedScheduler::new();
                if let Some(d) = default_intra {
                    mixed = mixed.with_default_intra(reg.instantiate(d)?);
                }
                for (object, sub) in per_object {
                    mixed = mixed.with_intra(*object, reg.instantiate(sub)?);
                }
                Ok(Box::new(mixed) as Box<dyn Scheduler>)
            }
            _ => Err(ConfigError::BadSpec("expected a mixed spec".into())),
        });
        reg
    }

    /// Registers (or replaces) the factory for a spec kind.
    pub fn register<F>(&mut self, kind: impl Into<String>, factory: F)
    where
        F: Fn(&SchedulerRegistry, &SchedulerSpec) -> Result<Box<dyn Scheduler>, ConfigError>
            + Send
            + Sync
            + 'static,
    {
        self.factories.insert(kind.into(), Box::new(factory));
    }

    /// The registered kinds, sorted.
    pub fn kinds(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    /// Validates `spec` and instantiates a fresh scheduler for it.
    ///
    /// Each call produces a new scheduler instance: scheduler state (lock
    /// tables, timestamps, conflict graphs) belongs to a single engine run.
    pub fn instantiate(&self, spec: &SchedulerSpec) -> Result<Box<dyn Scheduler>, ConfigError> {
        spec.validate()?;
        let factory = self
            .factories
            .get(spec.kind())
            .ok_or_else(|| ConfigError::UnknownKind(spec.kind().to_owned()))?;
        factory(self, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_spec_instantiates_with_its_label() {
        let reg = SchedulerRegistry::with_builtins();
        let mut specs = SchedulerSpec::all_basic();
        specs.push(SchedulerSpec::None);
        specs.push(SchedulerSpec::mixed_with_default(SchedulerSpec::n2pl_step()));
        for spec in specs {
            let sched = reg.instantiate(&spec).unwrap();
            match &spec {
                // MixedScheduler's name does not include its default policy.
                SchedulerSpec::Mixed { .. } => assert_eq!(sched.name(), "mixed"),
                _ => assert_eq!(sched.name(), spec.label(), "for {spec:?}"),
            }
        }
    }

    #[test]
    fn specs_parsed_from_json_instantiate() {
        let reg = SchedulerRegistry::with_builtins();
        for text in [
            "{\"kind\":\"n2pl\",\"granularity\":\"step\"}",
            "{\"kind\":\"mixed\",\"default_intra\":{\"kind\":\"flat\",\"mode\":\"exclusive\"},\
             \"per_object\":[{\"object\":2,\"spec\":{\"kind\":\"nto\",\"style\":\"conservative\"}}]}",
        ] {
            let spec = SchedulerSpec::parse(text).unwrap();
            assert!(reg.instantiate(&spec).is_ok(), "could not instantiate {text}");
        }
    }

    #[test]
    fn unknown_kind_and_invalid_specs_are_rejected() {
        let reg = SchedulerRegistry::empty();
        assert!(matches!(
            reg.instantiate(&SchedulerSpec::None),
            Err(ConfigError::UnknownKind(k)) if k == "none"
        ));
        let reg = SchedulerRegistry::with_builtins();
        let empty_mixed = SchedulerSpec::Mixed {
            default_intra: None,
            per_object: vec![],
        };
        assert!(matches!(
            reg.instantiate(&empty_mixed),
            Err(ConfigError::EmptyMixedSpec)
        ));
    }

    #[test]
    fn custom_kinds_can_be_registered() {
        struct Custom;
        impl Scheduler for Custom {
            fn name(&self) -> String {
                "custom".to_owned()
            }
        }
        let mut reg = SchedulerRegistry::with_builtins();
        reg.register("none", |_, _| Ok(Box::new(Custom) as Box<dyn Scheduler>));
        assert_eq!(
            reg.instantiate(&SchedulerSpec::None).unwrap().name(),
            "custom"
        );
    }
}
