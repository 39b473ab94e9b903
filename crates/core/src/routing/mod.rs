//! The dynamic-routing simulation (paper §III).
//!
//! Mobile agents maintain per-node routing tables in a wireless ad-hoc
//! network whose links break and reform as nodes move and batteries decay.
//! Nodes run no programs; all route maintenance is carried by the agents.
//!
//! * [`table`] — explicit hop-list routes and per-node routing tables;
//!   the connectivity metric counts nodes whose table holds a route whose
//!   every hop is a currently-live directed link.
//! * [`sim`] — the simulation itself, with random / oldest-node agents,
//!   optional direct communication ("visiting") and optional stigmergy
//!   (the paper's future-work extension).
//! * [`index`] — the [`RouteBook`] every arm keeps its tables in, with
//!   the persistent forwarding-graph index that revalidates chains from
//!   link/table deltas instead of rebuilding per step.
//! * [`traffic`] — packet-level evaluation: inject packets and forward
//!   them along the agent-maintained tables, measuring delivery ratio,
//!   latency and hop stretch.
//! * [`protocol`] — the protocol-zoo abstraction: the [`RoutingProtocol`]
//!   trait every routing arm (legacy agents, stigmergic, AntNet,
//!   epidemic/spray-and-wait flooding) runs under.
//! * [`stigroute`] — the stigmergic arm: route along freshest-footprint
//!   gradients laid by wandering agents.
//! * [`antnet`] — the AntNet-style arm: per-node probabilistic pheromone
//!   tables updated by forward/backward ants.

pub mod antnet;
pub mod index;
pub mod protocol;
pub mod sim;
pub mod stigroute;
pub mod table;
pub mod traffic;

pub use antnet::{AntNetConfig, AntNetSim};
pub use index::RouteBook;
pub use protocol::{ProtocolKind, RoutingProtocol};
pub use sim::{RoutingConfig, RoutingOutcome, RoutingSim};
pub use stigroute::{StigRouteConfig, StigRouteSim};
pub use table::{RouteEntry, RoutingTable};
pub use traffic::{TrafficConfig, TrafficSim, TrafficStats};
