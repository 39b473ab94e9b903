//! The serving layer: a route-query daemon over the live simulation.
//!
//! The paper's agents exist to answer one question continuously — *what
//! is the best route to a gateway right now?* — but the batch
//! experiments only answer it after the fact. This crate turns any
//! protocol-zoo arm into a long-running map service:
//!
//! * a **step thread** advances the wireless substrate and, after every
//!   step, captures a self-contained [`snapshot::MapSnapshot`] (best
//!   route per node, live link rows, per-node reachability from
//!   [`agentnet_core::routing::RouteIndex`]);
//! * snapshots are published through [`snapshot::SnapshotCell`], one
//!   mutex around the current snapshot `Arc` — readers clone the `Arc`
//!   and answer entirely from one immutable snapshot, so a query holds
//!   the lock only for a refcount increment and never mixes state
//!   across a swap;
//! * **UDP worker threads** answer the wire protocol of [`wire`]
//!   (best-gateway-from-node, current link set, reachability-of-node),
//!   and an optional minimal **HTTP listener** serves `/metrics` in
//!   Prometheus text format for scraping;
//! * per-query latency and snapshot staleness land in
//!   [`agentnet_engine::obs`] histograms, with p50/p95/p99 read back via
//!   [`agentnet_engine::obs::Histogram::quantile`].
//!
//! Determinism boundary: wall time is read only in [`clock`] and flows
//! *out* of the daemon (latency/staleness metrics). Replies are pure
//! functions of the published snapshot, and the snapshot sequence for a
//! given `(preset, protocol, seed, steps)` is byte-identical to a batch
//! run of the same arm.

pub mod clock;
pub mod server;
pub mod snapshot;
pub mod wire;

pub use server::{ServeConfig, ServeError, Server, QUERY_MICROS_BUCKETS, STALENESS_MICROS_BUCKETS};
pub use snapshot::{MapSnapshot, RouteAnswer, SnapshotCell, SnapshotHeader};
