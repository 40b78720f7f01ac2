//! # obase-workload — the Zipf sampler
//!
//! Workloads are `obase-scenario` values; this crate keeps only the seeded
//! [`Zipf`] sampler their compiler draws skewed picks from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod skew;

pub use skew::Zipf;
