//! Wireless network substrate for the `agentnet` simulator.
//!
//! Models the paper's "realistic" wireless environments:
//!
//! * **Heterogeneous radios** — every node has its own radio range, so the
//!   link relation is *directed*: `A -> B` exists iff `B` sits inside `A`'s
//!   current range.
//! * **Battery decay** — battery-powered nodes lose transmit power over
//!   time, shrinking their range ([`battery`]).
//! * **Mobility** — in the routing study "half of nodes \[are\] mobile"
//!   with random velocities; [`mobility`] provides random-velocity
//!   (wall-bouncing) and random-waypoint motion.
//! * **Gateways** — a small set of stationary, high-capability nodes
//!   connected to the outside world; the routing metric asks which nodes
//!   hold a valid multi-hop route to at least one of them.
//!
//! [`WirelessNetwork`] owns the node set and re-derives the link digraph
//! every simulated step; [`NetworkBuilder`] constructs seeded networks with
//! a calibrated initial edge count (e.g. the paper's 250-node MANET).
//!
//! # Example
//!
//! ```
//! use agentnet_radio::NetworkBuilder;
//!
//! let mut net = NetworkBuilder::new(50)
//!     .gateways(3)
//!     .mobile_fraction(0.5)
//!     .target_edges(400)
//!     .build(7)
//!     .unwrap();
//! assert_eq!(net.node_count(), 50);
//! assert_eq!(net.gateways().len(), 3);
//! let before = net.links().clone();
//! for _ in 0..20 { net.advance(); }
//! // Mobile nodes moved, so the topology drifted.
//! assert_ne!(&before, net.links());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-safety: simulation kernels must not abort mid-experiment.
// `agentlint` (`repro lint`) enforces the same invariant textually;
// the clippy lints catch what its module-scope approximation misses.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod battery;
pub mod builder;
pub mod invariants;
pub mod mobility;
pub mod network;
pub mod node;
pub mod spatial;

pub use battery::{BatteryModel, BatteryState};
pub use builder::{BuildError, NetworkBuilder};
pub use mobility::{MobilityKind, Motion};
pub use network::{NetStats, WirelessNetwork, GRID_INCREMENTAL_MAX_MOVED, LINK_DELTA_MAX_DIRTY};
pub use node::{NodeKind, WirelessNode};
pub use spatial::{GridError, SpatialGrid};
