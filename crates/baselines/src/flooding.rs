//! Epidemic and binary spray-and-wait flooding baselines (DTN-style).
//!
//! Both arms flood sequence-numbered *gateway announcements* instead of
//! moving agents: every `advert_period` steps each gateway emits a new
//! announcement, and nodes that hear one install a route entry pointing
//! back at the sender. The two strategies differ only in how an
//! announcement propagates:
//!
//! * **Epidemic** — every holder re-broadcasts each announcement to its
//!   whole radio neighbourhood exactly once. The delivery ceiling of
//!   flooding, at the message cost of flooding.
//! * **Binary spray-and-wait** (Spyropoulos et al.) — an announcement
//!   carries a copy budget `L`; a holder with more than one copy hands
//!   half to one uninfected neighbour per step, and a holder with a
//!   single copy enters *direct delivery*: it hands its last copy to
//!   one uninfected neighbour (preferring one adjacent to the
//!   announcement's gateway) and then goes quiet. Copies are conserved
//!   — a rejected or raced handoff leaves the giver's budget intact —
//!   so the total never exceeds `L` per announcement, yet the single
//!   remaining copy keeps walking the network instead of parking on
//!   whichever node the halving cascade happened to end at. Bounded
//!   overhead, slower spread.
//!
//! Protocol-zoo boundaries
//! ([`RoutingProtocol`](agentnet_core::routing::RoutingProtocol)):
//! * **Construction** — hearing a strictly fresher (or equal-sequence,
//!   fewer-hop) announcement installs `RouteEntry { gateway, next_hop:
//!   sender, hops }`.
//! * **Meeting state** — the announcement itself: `(gateway, sequence
//!   number, hop count)` plus the copy budget under spray-and-wait.
//! * **Decay** — supersession by newer sequence numbers plus eviction
//!   of entries older than `max_age` steps.
//!
//! Rounds are synchronous: adoption reads a pre-round snapshot and
//! writes a double-buffered next state (the same order-independence
//! device as [`crate::distance_vector`]), and a route is only usable if
//! the reverse link is also live (the receiver must actually be able to
//! reach the sender).

use agentnet_core::overhead::Overhead;
use agentnet_core::routing::{ProtocolKind, RouteBook, RouteEntry, RoutingProtocol};
use agentnet_engine::sim::{Step, TimeStepSim};
use agentnet_graph::NodeId;
use agentnet_radio::WirelessNetwork;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// How a gateway announcement propagates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FloodStrategy {
    /// Every holder re-broadcasts each announcement once.
    Epidemic,
    /// Binary spray-and-wait with an initial budget of `copies`.
    SprayAndWait {
        /// Initial copy budget `L` of each announcement.
        copies: u32,
    },
}

/// Configuration for [`FloodSim`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FloodConfig {
    /// Propagation strategy.
    pub strategy: FloodStrategy,
    /// Steps between gateway announcement waves.
    pub advert_period: u64,
    /// Route entries older than this many steps are evicted. This is
    /// the arms' cache-size knob.
    pub max_age: u64,
}

impl FloodConfig {
    /// Epidemic flooding with the default wave period and route age.
    pub fn epidemic() -> Self {
        FloodConfig { strategy: FloodStrategy::Epidemic, advert_period: 8, max_age: 24 }
    }

    /// Binary spray-and-wait with an initial budget of `copies`.
    pub fn spray_and_wait(copies: u32) -> Self {
        FloodConfig {
            strategy: FloodStrategy::SprayAndWait { copies },
            advert_period: 8,
            max_age: 24,
        }
    }

    /// Sets the announcement wave period in steps.
    pub fn advert_period(mut self, period: u64) -> Self {
        self.advert_period = period;
        self
    }

    /// Sets the route-entry eviction age (the cache-size knob).
    pub fn max_age(mut self, age: u64) -> Self {
        self.max_age = age;
        self
    }

    fn validate(&self) -> Result<(), FloodError> {
        if self.advert_period == 0 {
            return Err(FloodError::new("advert period must be positive"));
        }
        if self.max_age == 0 {
            return Err(FloodError::new("max age must be positive"));
        }
        if let FloodStrategy::SprayAndWait { copies } = self.strategy {
            if copies == 0 {
                return Err(FloodError::new("spray-and-wait needs at least one copy"));
            }
        }
        Ok(())
    }
}

/// Error constructing a [`FloodSim`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FloodError {
    reason: String,
}

impl FloodError {
    fn new(reason: impl Into<String>) -> Self {
        FloodError { reason: reason.into() }
    }
}

impl fmt::Display for FloodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid flooding configuration: {}", self.reason)
    }
}

impl Error for FloodError {}

/// A node's knowledge of one gateway's latest announcement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Seen {
    seq: u64,
    hops: u32,
    copies: u32,
}

/// `true` if `cand` should displace `cur`: strictly newer sequence, or
/// the same wave over fewer hops.
fn better(cand: Seen, cur: Option<Seen>) -> bool {
    match cur {
        None => true,
        Some(c) => cand.seq > c.seq || (cand.seq == c.seq && cand.hops < c.hops),
    }
}

/// The flooding baselines (epidemic or spray-and-wait, by
/// [`FloodConfig::strategy`]). See the [module docs](self).
#[derive(Clone, Debug)]
pub struct FloodSim {
    net: WirelessNetwork,
    config: FloodConfig,
    routes: RouteBook,
    /// `seen[node][gw_index]`: the latest announcement of gateway
    /// `gw_index` this node holds.
    seen: Vec<Vec<Option<Seen>>>,
    /// Double buffer for the synchronous broadcast round.
    next: Vec<Vec<Option<Seen>>>,
    /// `advertised[node][gw_index]`: highest sequence number this node
    /// has already re-broadcast (epidemic's flood-once bound).
    advertised: Vec<Vec<u64>>,
    rng: SmallRng,
    overhead: Overhead,
    /// Spray-target scratch, reused across steps.
    pool: Vec<NodeId>,
}

impl FloodSim {
    /// Creates a flooding baseline over a wireless network. The seed
    /// only feeds spray-target selection; epidemic runs are RNG-free.
    ///
    /// # Errors
    ///
    /// Returns [`FloodError`] for a zero advert period / max age / copy
    /// budget, an empty network, or a network without gateways.
    pub fn new(net: WirelessNetwork, config: FloodConfig, seed: u64) -> Result<Self, FloodError> {
        config.validate()?;
        let n = net.node_count();
        if n == 0 {
            return Err(FloodError::new("flooding needs a nonempty network"));
        }
        if net.gateways().is_empty() {
            return Err(FloodError::new("flooding needs at least one gateway"));
        }
        let g = net.gateways().len();
        Ok(FloodSim {
            routes: RouteBook::new(&net),
            net,
            config,
            seen: vec![vec![None; g]; n],
            next: vec![vec![None; g]; n],
            advertised: vec![vec![0; g]; n],
            rng: SmallRng::seed_from_u64(seed),
            overhead: Overhead::default(),
            pool: Vec::new(),
        })
    }

    /// The run configuration.
    pub fn config(&self) -> &FloodConfig {
        &self.config
    }

    /// Every `advert_period` steps each gateway emits a fresh
    /// announcement into its own row.
    #[agentnet::hot_path]
    fn seed_announcements(&mut self, now: Step) {
        if !now.as_u64().is_multiple_of(self.config.advert_period) {
            return;
        }
        let seq = now.as_u64() + 1;
        let initial = match self.config.strategy {
            FloodStrategy::Epidemic => 1,
            FloodStrategy::SprayAndWait { copies } => copies,
        };
        let gateways = self.net.gateways();
        for (gi, &gw) in gateways.iter().enumerate() {
            if let Some(slot) = self.seen.get_mut(gw.index()).and_then(|row| row.get_mut(gi)) {
                *slot = Some(Seen { seq, hops: 0, copies: initial });
            }
        }
    }

    /// One synchronous broadcast round: everyone transmits against the
    /// pre-round snapshot, adoptions land in the double buffer.
    #[agentnet::hot_path]
    fn broadcast_round(&mut self, now: Step) {
        let FloodSim { net, config, routes, seen, next, advertised, rng, overhead, pool, .. } =
            self;
        let links = net.links();
        let gateways = net.gateways();
        for (next_row, row) in next.iter_mut().zip(seen.iter()) {
            next_row.clear();
            next_row.extend_from_slice(row);
        }
        for v in 0..seen.len() {
            let from = NodeId::new(v);
            let Some(row) = seen.get(v) else {
                continue;
            };
            for gi in 0..row.len() {
                let Some(s) = row.get(gi).copied().flatten() else {
                    continue;
                };
                let Some(&gw) = gateways.get(gi) else {
                    continue;
                };
                match config.strategy {
                    FloodStrategy::Epidemic => {
                        let already =
                            advertised.get(v).and_then(|a| a.get(gi)).copied().unwrap_or(0);
                        if s.seq <= already {
                            continue;
                        }
                        let mut sent = false;
                        for &w in links.out_neighbors(from) {
                            overhead.meeting_messages += 1;
                            sent = true;
                            // A route `w -> from` is only usable if `w`
                            // can actually reach `from` back.
                            if !links.has_edge(w, from) {
                                continue;
                            }
                            if routes.is_gateway(w) {
                                continue;
                            }
                            let cand =
                                Seen { seq: s.seq, hops: s.hops.saturating_add(1), copies: 1 };
                            let Some(slot) = next.get_mut(w.index()).and_then(|r| r.get_mut(gi))
                            else {
                                continue;
                            };
                            if better(cand, *slot) {
                                *slot = Some(cand);
                                routes.install(w, RouteEntry::new(gw, from, cand.hops, now));
                                overhead.table_writes += 1;
                            }
                        }
                        if sent {
                            if let Some(a) = advertised.get_mut(v).and_then(|a| a.get_mut(gi)) {
                                *a = s.seq;
                            }
                        }
                    }
                    FloodStrategy::SprayAndWait { .. } => {
                        if s.copies == 0 {
                            // This node already direct-delivered its
                            // last copy; the seq stays as a dedup mark.
                            continue;
                        }
                        pool.clear();
                        for &w in links.out_neighbors(from) {
                            if !links.has_edge(w, from) {
                                continue;
                            }
                            if routes.is_gateway(w) {
                                continue;
                            }
                            let fresh = seen
                                .get(w.index())
                                .and_then(|r| r.get(gi))
                                .copied()
                                .flatten()
                                .is_none_or(|c| c.seq < s.seq);
                            if fresh {
                                pool.push(w);
                            }
                        }
                        if pool.is_empty() {
                            continue;
                        }
                        let pick = if s.copies == 1 {
                            // Direct-delivery phase: hand the last copy
                            // onward, preferring a neighbour adjacent
                            // to this announcement's gateway so the
                            // copy anchors connectivity instead of
                            // parking forever on an arbitrary node.
                            let adjacent = pool.iter().filter(|&&w| links.has_edge(w, gw)).count();
                            if adjacent > 0 {
                                let nth = rng.random_range(0..adjacent);
                                pool.iter()
                                    .enumerate()
                                    .filter(|(_, &w)| links.has_edge(w, gw))
                                    .nth(nth)
                                    .map(|(i, _)| i)
                                    .unwrap_or(0)
                            } else {
                                rng.random_range(0..pool.len())
                            }
                        } else {
                            rng.random_range(0..pool.len())
                        };
                        let Some(&w) = pool.get(pick) else {
                            continue;
                        };
                        overhead.meeting_messages += 1;
                        // Binary halving for spray, full handover for
                        // direct delivery: give floor(L/2).max(1), keep
                        // the rest (so 1 -> give 1, keep 0).
                        let give = (s.copies / 2).max(1);
                        let keep = s.copies - give;
                        let cand =
                            Seen { seq: s.seq, hops: s.hops.saturating_add(1), copies: give };
                        let mut adopted = false;
                        if let Some(slot) = next.get_mut(w.index()).and_then(|r| r.get_mut(gi)) {
                            if better(cand, *slot) {
                                // Same-wave copies already at the
                                // receiver (a raced adoption this
                                // round) are merged, not overwritten.
                                let merged = match *slot {
                                    Some(cur) if cur.seq == cand.seq => {
                                        cand.copies.saturating_add(cur.copies)
                                    }
                                    _ => cand.copies,
                                };
                                *slot = Some(Seen { copies: merged, ..cand });
                                adopted = true;
                                routes.install(w, RouteEntry::new(gw, from, cand.hops, now));
                                overhead.table_writes += 1;
                            }
                        }
                        // Copy conservation: the giver's budget drops
                        // only if the receiver actually adopted; a
                        // raced handoff (another giver reached `w`
                        // first this round) costs nothing.
                        if adopted {
                            if let Some(slot) = next.get_mut(v).and_then(|r| r.get_mut(gi)) {
                                if let Some(cur) = slot.as_mut() {
                                    if cur.seq == s.seq {
                                        cur.copies = keep;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        std::mem::swap(seen, next);
    }
}

impl TimeStepSim for FloodSim {
    fn step(&mut self, now: Step) {
        // The world changes first: nodes move, batteries decay.
        self.net.advance();
        self.routes.evict_older_than(now, self.config.max_age);
        self.seed_announcements(now);
        self.broadcast_round(now);
        self.routes.revalidate(&self.net);
    }
}

impl RoutingProtocol for FloodSim {
    fn kind(&self) -> ProtocolKind {
        match self.config.strategy {
            FloodStrategy::Epidemic => ProtocolKind::Epidemic,
            FloodStrategy::SprayAndWait { .. } => ProtocolKind::SprayAndWait,
        }
    }

    fn network(&self) -> &WirelessNetwork {
        &self.net
    }

    fn routes(&self) -> &RouteBook {
        &self.routes
    }

    fn overhead(&self) -> Overhead {
        self.overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentnet_radio::NetworkBuilder;

    fn net(seed: u64) -> WirelessNetwork {
        NetworkBuilder::new(40).gateways(3).target_edges(320).build(seed).unwrap()
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for bad in [
            FloodConfig::epidemic().advert_period(0),
            FloodConfig::epidemic().max_age(0),
            FloodConfig::spray_and_wait(0),
        ] {
            assert!(FloodSim::new(net(1), bad, 1).is_err());
        }
        let empty = NetworkBuilder::new(10).gateways(0).build(1).unwrap();
        assert!(FloodSim::new(empty, FloodConfig::epidemic(), 1).is_err());
    }

    #[test]
    fn epidemic_floods_routes_to_most_nodes() {
        let mut s = FloodSim::new(net(3), FloodConfig::epidemic(), 7).unwrap();
        let outcome = RoutingProtocol::run(&mut s, 60);
        let late = outcome.mean_connectivity(30..60).unwrap();
        assert!(late > 0.3, "epidemic should blanket a dense static-ish net (got {late})");
        assert!(s.validate_tables(Step::new(60)).is_ok());
        assert!(RoutingProtocol::overhead(&s).meeting_messages > 0);
        // Flooding moves no agents.
        assert_eq!(RoutingProtocol::overhead(&s).migrations, 0);
    }

    #[test]
    fn spray_and_wait_spreads_but_respects_its_budget() {
        let mut s = FloodSim::new(net(3), FloodConfig::spray_and_wait(8), 7).unwrap();
        let outcome = RoutingProtocol::run(&mut s, 60);
        assert!(outcome.mean_connectivity(30..60).unwrap() > 0.0);
        assert!(s.validate_tables(Step::new(60)).is_ok());
        // Copy budgets halve: every held budget stays within the
        // initial L.
        for row in &s.seen {
            for seen in row.iter().flatten() {
                assert!(seen.copies <= 8);
            }
        }
    }

    #[test]
    fn spray_and_wait_default_budget_no_longer_starves() {
        // Regression for the wait-phase starvation bug: single-copy
        // holders used to park forever, so at most L nodes per wave
        // ever installed a route and delivery sat near 0.36. With the
        // direct-delivery phase the default budget must clear 0.8 on
        // the frozen net.
        let mut s = FloodSim::new(net(3), FloodConfig::spray_and_wait(8), 7).unwrap();
        let out = RoutingProtocol::run(&mut s, 200);
        let late = out.mean_connectivity(100..200).unwrap();
        assert!(late >= 0.8, "direct delivery should lift spray delivery (got {late})");
    }

    #[test]
    fn spray_copy_budget_is_conserved_per_wave() {
        // For every announcement wave, the copies held across the whole
        // network never exceed the initial budget L: handoffs move
        // copies, they don't mint them (and a rejected handoff must not
        // burn them either — the giver keeps its budget).
        const L: u32 = 8;
        let mut s = FloodSim::new(net(3), FloodConfig::spray_and_wait(L), 7).unwrap();
        for step in 0..120 {
            TimeStepSim::step(&mut s, Step::new(step));
            let g = s.net.gateways().len();
            for gi in 0..g {
                let mut per_seq: std::collections::BTreeMap<u64, u32> =
                    std::collections::BTreeMap::new();
                for row in &s.seen {
                    if let Some(seen) = row.get(gi).copied().flatten() {
                        *per_seq.entry(seen.seq).or_insert(0) += seen.copies;
                    }
                }
                for (seq, total) in per_seq {
                    assert!(
                        total <= L,
                        "gateway {gi} wave {seq} holds {total} copies (> {L}) at step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn epidemic_outmessages_spray_and_wait() {
        let mut e = FloodSim::new(net(5), FloodConfig::epidemic(), 9).unwrap();
        let mut w = FloodSim::new(net(5), FloodConfig::spray_and_wait(8), 9).unwrap();
        let _ = RoutingProtocol::run(&mut e, 60);
        let _ = RoutingProtocol::run(&mut w, 60);
        assert!(
            RoutingProtocol::overhead(&e).meeting_messages
                > RoutingProtocol::overhead(&w).meeting_messages
        );
    }

    #[test]
    fn epidemic_runs_are_rng_free_and_deterministic() {
        let run = |seed: u64| {
            let mut s = FloodSim::new(net(2), FloodConfig::epidemic(), seed).unwrap();
            let out = RoutingProtocol::run(&mut s, 40);
            (out, s.routes.tables().to_vec(), s.overhead)
        };
        // Epidemic ignores the seed entirely: same mobility, same run.
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn spray_runs_are_deterministic_in_seed() {
        let run = |seed: u64| {
            let mut s = FloodSim::new(net(2), FloodConfig::spray_and_wait(8), seed).unwrap();
            let out = RoutingProtocol::run(&mut s, 40);
            (out, s.routes.tables().to_vec(), s.overhead)
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn recorded_connectivity_matches_from_scratch_reference() {
        let mut s = FloodSim::new(net(11), FloodConfig::epidemic(), 3).unwrap();
        let _ = RoutingProtocol::run(&mut s, 50);
        let last = s.routes.connectivity_series().values().last().copied().unwrap();
        assert_eq!(last, RoutingProtocol::connectivity(&s));
    }
}
