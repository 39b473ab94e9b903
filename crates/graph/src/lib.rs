//! Directed-graph substrate for the `agentnet` wireless mobile-agent simulator.
//!
//! The paper's networks are *directed* graphs: every wireless node has its own
//! radio range, so node `A` may hear `B` while `B` cannot hear `A`. This crate
//! provides the graph data structure and algorithms that both the wireless
//! substrate (`agentnet-radio`) and the agent simulations
//! (`agentnet-core`) are built on:
//!
//! * [`DiGraph`] — a compact adjacency-list directed graph over dense
//!   [`NodeId`]s, with both out- and in-neighbour access.
//! * [`traversal`] — breadth-first and depth-first iterators.
//! * [`connectivity`] — Tarjan SCC, strong-connectivity checks and
//!   reachability queries (including "which nodes reach any gateway", the
//!   primitive behind the paper's connectivity metric).
//! * [`paths`] — shortest hop paths and hop-by-hop route validation.
//! * [`generators`] — seeded graph generators, most importantly the random
//!   geometric digraph that reproduces the paper's 300-node / ≈2164-edge
//!   mapping network.
//!
//! # Example
//!
//! ```
//! use agentnet_graph::{DiGraph, NodeId, connectivity};
//!
//! let mut g = DiGraph::new(3);
//! g.add_edge(NodeId::new(0), NodeId::new(1));
//! g.add_edge(NodeId::new(1), NodeId::new(2));
//! g.add_edge(NodeId::new(2), NodeId::new(0));
//! assert!(connectivity::is_strongly_connected(&g));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cast;
pub mod connectivity;
pub mod digraph;
pub mod error;
pub mod generators;
pub mod geometry;
pub mod ids;
pub mod paths;
pub mod traversal;

pub use digraph::DiGraph;
pub use error::GraphError;
pub use geometry::Point2;
pub use ids::NodeId;
