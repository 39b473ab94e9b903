//! The protocol-zoo abstraction: one trait every routing arm runs under.
//!
//! A [`RoutingProtocol`] abstracts the three things a routing arm does
//! on the shared wireless substrate:
//!
//! 1. **Route-table construction** — how [`RoutingTable`] entries come
//!    to exist ([`RoutingProtocol::tables`]): carried agent claims
//!    (legacy arm), footprint trails (stigmergic), backward-ant
//!    retracing (AntNet), or flooded gateway announcements (epidemic /
//!    spray-and-wait).
//! 2. **State exchanged at a meeting** — what crosses a link when two
//!    parties are co-located or within radio range
//!    ([`ProtocolKind::meeting_state`] documents each arm).
//! 3. **Per-step decay** — how stale state leaves the system: route
//!    eviction by [`RouteEntry::age`], pheromone evaporation, footprint
//!    windows, or announcement sequence supersession.
//!
//! Every arm steps the *same* [`agentnet_radio::WirelessNetwork`] under
//! the same seed, so mobility and link churn are byte-identical across
//! arms — the only thing that varies is the protocol. The trait is
//! object-safe: the experiment harness and the validation battery drive
//! `Box<dyn RoutingProtocol>` built by a protocol factory, and the
//! provided [`run`](RoutingProtocol::run),
//! [`validate_tables`](RoutingProtocol::validate_tables) and
//! [`mean_route_age`](RoutingProtocol::mean_route_age) work uniformly on
//! any arm.

use crate::error::CoreError;
use crate::overhead::Overhead;
use crate::routing::index::RouteBook;
use crate::routing::sim::RoutingOutcome;
use crate::routing::table::RoutingTable;
use agentnet_engine::sim::{run_until, Step, TimeStepSim};
use agentnet_engine::TimeSeries;
use agentnet_graph::connectivity::reaches_any;
use agentnet_graph::{DiGraph, NodeId};
use agentnet_radio::WirelessNetwork;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The routing arms of the protocol zoo.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// The paper's mobile-agent routing ([`super::RoutingSim`]): agents
    /// carry hop-counted gateway claims and install them as they walk.
    Agents,
    /// Footprint-gradient routing ([`super::StigRouteSim`]): wandering
    /// agents disperse via [`crate::stigmergy::FootprintBoard`]s and lay
    /// freshness-decaying route trails away from gateways.
    Stigmergic,
    /// AntNet-style probabilistic routing ([`super::AntNetSim`]):
    /// forward ants sample paths by pheromone, backward ants retrace,
    /// deposit, and install routes.
    AntNet,
    /// Epidemic flooding baseline
    /// ([`FloodSim`](https://en.wikipedia.org/wiki/Epidemic_routing)-style,
    /// implemented in `agentnet-baselines`): every node re-broadcasts
    /// each fresh gateway announcement exactly once.
    Epidemic,
    /// Binary spray-and-wait baseline (also in `agentnet-baselines`):
    /// announcements carry a copy budget halved at each handoff, then
    /// wait.
    SprayAndWait,
}

impl ProtocolKind {
    /// Every arm, in canonical (registry/report) order.
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::Agents,
        ProtocolKind::Stigmergic,
        ProtocolKind::AntNet,
        ProtocolKind::Epidemic,
        ProtocolKind::SprayAndWait,
    ];

    /// The stable CLI/report name of the arm.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Agents => "agents",
            ProtocolKind::Stigmergic => "stigmergic",
            ProtocolKind::AntNet => "antnet",
            ProtocolKind::Epidemic => "epidemic",
            ProtocolKind::SprayAndWait => "spray-and-wait",
        }
    }

    /// What state crosses a link "at a meeting" under this arm — the
    /// trait boundary DESIGN.md documents per arm.
    pub fn meeting_state(self) -> &'static str {
        match self {
            ProtocolKind::Agents => {
                "migrating agent state: carried gateway claim + visit memory (and best-route \
                 exchange when two agents are co-located)"
            }
            ProtocolKind::Stigmergic => {
                "migrating agent state: carried gateway claim; footprints are left on the node \
                 itself (indirect exchange, no co-location needed)"
            }
            ProtocolKind::AntNet => {
                "forward ant state: the partial path; backward ants retrace it depositing \
                 per-(gateway, neighbour) pheromone"
            }
            ProtocolKind::Epidemic => {
                "a sequence-numbered gateway announcement, re-broadcast once per node per \
                 sequence number"
            }
            ProtocolKind::SprayAndWait => {
                "a sequence-numbered gateway announcement plus a copy budget, halved at each \
                 handoff"
            }
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ProtocolKind {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ProtocolKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| CoreError::invalid("unknown protocol (see ProtocolKind::ALL)"))
    }
}

/// One routing arm of the protocol zoo, steppable on the shared
/// wireless substrate. See the [module docs](self) for what the trait
/// abstracts; [`TimeStepSim`] supplies the per-step driver. Arms are
/// `Send` so a serving daemon can own one on a dedicated step thread —
/// every arm is plain data plus seeded RNG streams.
pub trait RoutingProtocol: TimeStepSim + Send {
    /// Which arm this is.
    fn kind(&self) -> ProtocolKind;

    /// The wireless substrate the arm routes over.
    fn network(&self) -> &WirelessNetwork;

    /// The arm's route book: every node's table, the live gateways,
    /// the reachability of the last step and the connectivity series.
    fn routes(&self) -> &RouteBook;

    /// Migration / message / footprint / table-write accounting — the
    /// shared overhead currency all arms are compared in.
    fn overhead(&self) -> Overhead;

    /// Every node's routing table, indexed by node id.
    fn tables(&self) -> &[RoutingTable] {
        self.routes().tables()
    }

    /// The gateways packets may exit through (arms without failure
    /// injection report all gateways).
    fn live_gateways(&self) -> &[NodeId] {
        self.routes().live_gateways()
    }

    /// Per-step connectivity recorded by the arm's step loop.
    fn connectivity_series(&self) -> &TimeSeries {
        self.routes().connectivity_series()
    }

    /// Per-node chain reachability as of the last step (gateways count
    /// as reachable), kept incrementally by the route book.
    fn reached(&self) -> &[bool] {
        self.routes().reached()
    }

    /// The *from-scratch reference* for [`reached`](Self::reached):
    /// rebuilds the forwarding graph from [`tables`](Self::tables)
    /// (gateway rows skipped, only currently-live links kept) and flags
    /// every node reaching a live gateway. It shares no code with the
    /// route book's index, so it stays correct under arbitrary external
    /// mutation and the two are differentially checked.
    fn reached_from_scratch(&self) -> Vec<bool> {
        let net = self.network();
        let links = net.links();
        let mut forwarding = DiGraph::new(net.node_count());
        for (v, table) in self.tables().iter().enumerate() {
            let from = NodeId::new(v);
            if self.routes().is_gateway(from) {
                continue;
            }
            for next in table.next_hops() {
                if links.has_edge(from, next) {
                    forwarding.add_edge(from, next);
                }
            }
        }
        reaches_any(&forwarding, self.live_gateways())
    }

    /// Fraction of nodes whose next-hop chains reach a live gateway
    /// over currently-live links: the mean of
    /// [`reached_from_scratch`](Self::reached_from_scratch), against
    /// which the incremental per-step series is differentially checked.
    fn connectivity(&self) -> f64 {
        let reached = self.reached_from_scratch();
        if reached.is_empty() {
            return 0.0;
        }
        reached.iter().filter(|&&ok| ok).count() as f64 / reached.len() as f64
    }

    /// Runs for exactly `steps` steps, recording connectivity per step.
    fn run(&mut self, steps: u64) -> RoutingOutcome {
        let _ = run_until(self, Step::new(steps));
        RoutingOutcome { connectivity: self.connectivity_series().clone() }
    }

    /// Total installed route entries across all tables.
    fn route_entries(&self) -> usize {
        self.tables().iter().map(RoutingTable::len).sum()
    }

    /// Mean age (steps since installation, saturating) over all route
    /// entries at `now`; `0.0` with no entries.
    fn mean_route_age(&self, now: Step) -> f64 {
        let mut total = 0u64;
        let mut count = 0u64;
        for table in self.tables() {
            for e in table.entries() {
                total += e.age(now);
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// The arm-uniform table invariant, checkable on any `dyn` arm
    /// after stepping to `now`: every entry references in-range nodes,
    /// routes to an actual gateway, never forwards to itself, claims at
    /// least one hop, and was not installed in the future.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violating entry.
    fn validate_tables(&self, now: Step) -> Result<(), String> {
        let net = self.network();
        let n = net.node_count();
        for (v, table) in self.tables().iter().enumerate() {
            let from = NodeId::new(v);
            for e in table.entries() {
                if e.next_hop.index() >= n || e.gateway.index() >= n {
                    return Err(format!(
                        "{}: entry at {from} references out-of-range node (next {}, gw {})",
                        self.kind(),
                        e.next_hop,
                        e.gateway
                    ));
                }
                if !net.gateways().contains(&e.gateway) {
                    return Err(format!(
                        "{}: entry at {from} routes to non-gateway {}",
                        self.kind(),
                        e.gateway
                    ));
                }
                if e.next_hop == from {
                    return Err(format!("{}: entry at {from} forwards to itself", self.kind()));
                }
                if e.hops == 0 {
                    return Err(format!("{}: entry at {from} claims zero hops", self.kind()));
                }
                if now.checked_since(e.installed_at).is_none() {
                    return Err(format!(
                        "{}: entry at {from} installed in the future ({} > {now})",
                        self.kind(),
                        e.installed_at
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RoutingPolicy;
    use crate::routing::sim::{RoutingConfig, RoutingSim};
    use agentnet_radio::NetworkBuilder;

    fn net(seed: u64) -> WirelessNetwork {
        NetworkBuilder::new(40).gateways(3).target_edges(320).build(seed).unwrap()
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in ProtocolKind::ALL {
            assert_eq!(kind.name().parse::<ProtocolKind>().unwrap(), kind);
            assert!(!kind.meeting_state().is_empty());
        }
        assert!("dijkstra".parse::<ProtocolKind>().is_err());
    }

    #[test]
    fn kind_names_are_distinct_and_stable() {
        let names: Vec<&str> = ProtocolKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["agents", "stigmergic", "antnet", "epidemic", "spray-and-wait"]);
    }

    #[test]
    fn legacy_sim_runs_as_a_trait_object() {
        let config = RoutingConfig::new(RoutingPolicy::OldestNode, 20);
        let direct = {
            let mut sim = RoutingSim::new(net(3), config.clone(), 7).unwrap();
            sim.run(40)
        };
        let mut boxed: Box<dyn RoutingProtocol> =
            Box::new(RoutingSim::new(net(3), config, 7).unwrap());
        let via_trait = boxed.run(40);
        assert_eq!(via_trait, direct, "trait-driven run must be byte-identical");
        assert_eq!(boxed.kind(), ProtocolKind::Agents);
        assert_eq!(boxed.tables().len(), 40);
        assert!(boxed.validate_tables(Step::new(40)).is_ok());
        assert!(boxed.route_entries() > 0);
        assert!(boxed.mean_route_age(Step::new(40)) >= 0.0);
    }

    #[test]
    fn validate_tables_rejects_a_poisoned_entry() {
        use crate::routing::table::RouteEntry;
        let config = RoutingConfig::new(RoutingPolicy::OldestNode, 10);
        let mut sim = RoutingSim::new(net(11), config, 3).unwrap();
        let _ = sim.run(20);
        // Forge a self-forwarding entry through the documented-panic
        // table accessor's mutable counterpart path: poke via tables()
        // is read-only, so rebuild a fake table check instead.
        struct Poisoned {
            inner: RoutingSim,
            tables: Vec<RoutingTable>,
        }
        impl TimeStepSim for Poisoned {
            fn step(&mut self, now: Step) {
                self.inner.step(now);
            }
        }
        impl RoutingProtocol for Poisoned {
            fn kind(&self) -> ProtocolKind {
                ProtocolKind::Agents
            }
            fn network(&self) -> &WirelessNetwork {
                self.inner.network()
            }
            fn routes(&self) -> &RouteBook {
                self.inner.routes()
            }
            fn tables(&self) -> &[RoutingTable] {
                &self.tables
            }
            fn overhead(&self) -> Overhead {
                self.inner.overhead()
            }
        }
        let gw = sim.network().gateways()[0];
        let mut tables = vec![RoutingTable::new(); 40];
        tables[5].install(RouteEntry {
            gateway: gw,
            next_hop: NodeId::new(5),
            hops: 2,
            installed_at: Step::new(1),
        });
        let poisoned = Poisoned { inner: sim, tables };
        let err = poisoned.validate_tables(Step::new(20)).unwrap_err();
        assert!(err.contains("forwards to itself"), "{err}");
    }
}
