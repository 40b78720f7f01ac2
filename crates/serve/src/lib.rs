//! # obase-serve — the TCP front end
//!
//! Millions of users arrive over sockets, not function calls. This crate
//! puts the object-base runtime behind a `std::net` TCP server speaking a
//! small length-prefixed JSON protocol (`obase-ser` dialect, no external
//! crates): clients submit whole nested-transaction trees in the
//! scenario-DSL shape, the server multiplexes every session onto the
//! parallel backend through a bounded admission queue with
//! group-commit-style ingress batching, and the Hadzilacos & Hadzilacos
//! serialisability oracle still holds over *everything that was admitted*
//! — the per-batch committed histories merge into one admitted history
//! ([`merge_histories`]) that [`obase_core::oracle::check`] verifies
//! wholesale.
//!
//! * [`wire`] — frames, the length-prefixed codec, and typed
//!   [`WireError`]s (decoding is total: torn, oversized, non-UTF-8 or
//!   unknown-tag frames all land in typed errors, never panics);
//! * [`config`] — the declarative [`ServeConfig`] (scheduler line-up,
//!   worker/shard counts, queue depth, batching knobs) and its reconcile
//!   diff;
//! * [`server`] — the [`Server`]: listener, per-session threads, the
//!   admission queue (full = typed [`RejectReason::QueueFull`]
//!   backpressure), the batch executor with committed-state carry-forward
//!   between batches, idempotent [`Server::reconcile`] hot-swapping, and
//!   the health/status document;
//! * [`client`] — a blocking, pipelining [`ServeClient`];
//! * [`oracle`] — [`merge_histories`], turning the per-batch histories
//!   into the one admitted history the oracle judges.
//!
//! ```
//! use obase_serve::{ServeClient, ServeConfig, Server};
//!
//! let scenario = obase_scenario::by_name("hot-queue").expect("library scenario");
//! let server = Server::for_scenario(&scenario, ServeConfig::default(), "127.0.0.1:0")
//!     .expect("bind");
//! let mut client = ServeClient::connect(server.addr(), "doc").expect("connect");
//! // Submit one of the scenario's own compiled transactions over the wire.
//! let txn = scenario.compile().transactions.remove(0);
//! let outcome = client.submit_wait(&txn.name, txn.body).expect("settle");
//! assert!(outcome.is_settled());
//! let summary = server.shutdown();
//! assert_eq!(summary.admitted, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod oracle;
pub mod server;
pub mod wire;

pub use client::{ServeClient, SubmitOutcome};
pub use config::ServeConfig;
pub use oracle::merge_histories;
pub use server::{ServeError, ServeSummary, Server};
pub use wire::{Frame, RejectReason, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};
