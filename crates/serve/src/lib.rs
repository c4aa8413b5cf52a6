//! `pinocchio-serve` — an epoch-snapshot query service over a PRIME-LS
//! instance.
//!
//! The crate turns the incremental engine
//! ([`DynamicPrimeLs`](pinocchio_core::DynamicPrimeLs)) into a
//! multi-threaded network service, std-only (no external runtime):
//!
//! * [`store`] — the epoch-snapshot state store. A single writer thread
//!   applies streamed updates and swaps immutable [`Arc`] snapshots into
//!   one current slot; each worker batch clones the current `Arc`, so
//!   every query is answered against one consistent epoch and only the
//!   epochs in-flight requests hold stay alive.
//! * [`scheduler`] — the bounded admission queue. Submission never
//!   blocks: at capacity, requests are shed with a typed `overloaded`
//!   rejection (explicit backpressure). Workers drain jobs in batches
//!   and answer each batch on a single snapshot, sharing from-scratch
//!   solve results between batch mates.
//! * [`wire`] — versioned newline-delimited JSON over TCP: the
//!   request/response grammar, typed error codes, and the shared
//!   `Display`-based conversions from the core solver errors.
//! * [`ingest`] — [`World`], the id-keyed state wrapper whose
//!   [`World::apply`] is the one update codepath shared by the server's
//!   writer thread and the CLI `replay` subcommand.
//! * [`shard`] — [`ShardedWorld`], the object-partitioned topology:
//!   N in-process shard worlds (routed by a stable hash of the wire
//!   object id), merged influence partials for queries, and the core
//!   sharded solver for `solve` requests — shard-transparent on the
//!   wire.
//! * [`server`] — the thread topology: accept loop, per-connection
//!   reader/writer pairs, the writer thread, the worker pool, and
//!   graceful drain-on-shutdown with `resume_unwind` panic containment.
//! * [`stats`] — [`ServeStats`], the observability counter block with a
//!   strict accounting identity, queryable in-band via `stats`.
//!
//! DESIGN.md §12 documents the happens-before argument for the snapshot
//! store, the backpressure policy, and the full wire-protocol reference.
//!
//! [`Arc`]: std::sync::Arc

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ingest;
pub mod scheduler;
pub mod server;
pub mod shard;
pub mod stats;
pub mod store;
pub mod wire;

pub use ingest::{SolveOutcome, World};
pub use pinocchio_core::MaintenanceMode;
pub use scheduler::{AdmissionQueue, Job, SubmitError};
pub use server::{serve, ServerConfig, ServerHandle};
pub use shard::{ShardSummary, ShardedWorld};
pub use stats::{ServeStats, LATENCY_BUCKETS, LATENCY_BUCKET_BOUNDS_US};
pub use store::{Publisher, Reader, Snapshot};
pub use wire::{
    parse_algorithm, parse_request, response_err, response_ok, ErrorCode, QueryOp, Request,
    UpdateOp, WireError, PROTOCOL_VERSION,
};
