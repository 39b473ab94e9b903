//! Validation battery for the `agentnet` simulator: per-step invariant
//! sweeps plus metamorphic and differential checks.
//!
//! A stochastic simulation can drift into wrongness without failing a
//! single unit test — a biased tie-break, a silently re-seeded RNG, a
//! routing chain validated against stale links. This crate attacks that
//! from three directions:
//!
//! * **Invariant sweeps** — the standard invariant sets from
//!   `agentnet_core::validate` and `agentnet_radio::invariants` are
//!   threaded through representative mapping and routing scenarios
//!   (static, topology drift, dynamic network, gateway failure), checked
//!   after every simulated step.
//! * **Metamorphic relations** — transformations with known effect:
//!   relabeling nodes permutes results without changing them
//!   (graph metrics and distance-vector tables are *equivariant*), and
//!   growing the agent population never slows mapping down.
//! * **Differential checks** — independent implementations must agree:
//!   the executor returns byte-identical results across job counts and
//!   cache states, distance-vector routing on a frozen topology matches
//!   breadth-first-search distances, and agent route claims never beat
//!   the true shortest path.
//!
//! [`run_battery`] runs everything and returns a [`ValidationReport`]
//! renderable as a pass/fail table; the `repro validate` subcommand is a
//! thin CLI wrapper around it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use agentnet_baselines::distance_vector::{DvConfig, DvSim};
use agentnet_baselines::flooding::{FloodConfig, FloodSim};
use agentnet_baselines::zoo::{build_protocol, ZooParams};
use agentnet_core::mapping::{MappingConfig, MappingSim};
use agentnet_core::policy::{MappingPolicy, RoutingPolicy};
use agentnet_core::routing::{
    AntNetConfig, AntNetSim, ProtocolKind, RoutingConfig, RoutingProtocol, RoutingSim,
    StigRouteConfig, StigRouteSim,
};
use agentnet_core::validate::{mapping_invariants, routing_invariants};
use agentnet_engine::invariant::{invariant_fn, InvariantSet, InvariantViolation};
use agentnet_engine::table::Table;
use agentnet_engine::{Executor, ResultCache, SeedSequence, Step, TimeStepSim};
use agentnet_graph::generators::{erdos_renyi, grid, GeometricConfig};
use agentnet_graph::geometry::{Point2, Rect};
use agentnet_graph::paths::{bfs_distances, diameter, hop_distance};
use agentnet_graph::{DiGraph, NodeId};
use agentnet_radio::{
    BatteryModel, BatteryState, Motion, NetworkBuilder, NodeKind, WirelessNetwork, WirelessNode,
};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// What kind of evidence a check contributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckKind {
    /// A per-step simulation invariant swept across scenarios.
    Invariant,
    /// A metamorphic relation (transformed input, predictable output).
    Metamorphic,
    /// A differential comparison against an independent implementation.
    Differential,
}

impl std::fmt::Display for CheckKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CheckKind::Invariant => "invariant",
            CheckKind::Metamorphic => "metamorphic",
            CheckKind::Differential => "differential",
        };
        f.write_str(s)
    }
}

/// Outcome of one validation check.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckResult {
    /// Stable check name.
    pub name: String,
    /// Evidence category.
    pub kind: CheckKind,
    /// `true` if the check held.
    pub passed: bool,
    /// What was verified, or how it failed.
    pub details: String,
}

impl CheckResult {
    fn pass(name: &str, kind: CheckKind, details: String) -> Self {
        CheckResult { name: name.to_string(), kind, passed: true, details }
    }

    fn fail(name: &str, kind: CheckKind, details: String) -> Self {
        CheckResult { name: name.to_string(), kind, passed: false, details }
    }
}

/// Aggregated outcome of a validation battery.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    checks: Vec<CheckResult>,
}

impl ValidationReport {
    /// All check results, in execution order.
    pub fn checks(&self) -> &[CheckResult] {
        &self.checks
    }

    /// `true` when every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The failed checks, in execution order.
    pub fn failures(&self) -> Vec<&CheckResult> {
        self.checks.iter().filter(|c| !c.passed).collect()
    }

    /// Number of checks run.
    pub fn len(&self) -> usize {
        self.checks.len()
    }

    /// `true` when no checks were run.
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty()
    }

    /// Renders the report as a pass/fail table.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(["check", "kind", "status", "details"]);
        for c in &self.checks {
            table.push_row([
                c.name.clone(),
                c.kind.to_string(),
                if c.passed { "PASS".to_string() } else { "FAIL".to_string() },
                c.details.clone(),
            ]);
        }
        table
    }

    fn push(&mut self, check: CheckResult) {
        self.checks.push(check);
    }
}

/// Configuration of a battery run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValidateConfig {
    /// Master seed all scenarios derive from.
    pub seed: u64,
    /// Registers a deliberately failing invariant, proving the battery
    /// actually fails (and exits non-zero) when a violation occurs.
    pub inject_failure: bool,
    /// Restricts the battery to one protocol-zoo arm's checks (the CI
    /// protocol-matrix job runs one arm per matrix cell); `None` runs
    /// everything — the classic battery plus every arm.
    pub protocol: Option<ProtocolKind>,
}

impl Default for ValidateConfig {
    fn default() -> Self {
        ValidateConfig { seed: 2010, inject_failure: false, protocol: None }
    }
}

/// Runs the battery: invariant sweeps, metamorphic relations and
/// differential comparisons — restricted to one zoo arm's checks when
/// [`ValidateConfig::protocol`] is set.
pub fn run_battery(cfg: ValidateConfig) -> ValidationReport {
    let mut report = ValidationReport::default();
    if let Some(kind) = cfg.protocol {
        report.push(check_zoo_tables(kind, cfg.seed));
        report.push(check_zoo_claims(kind, cfg.seed));
        if cfg.inject_failure {
            report.push(check_injected_failure(cfg.seed));
        }
        return report;
    }
    run_invariant_sweeps(cfg, &mut report);
    report.push(check_relabel_graph(cfg.seed));
    report.push(check_relabel_distance_vector(cfg.seed));
    report.push(check_population_monotone(cfg.seed));
    report.push(check_executor_determinism(cfg.seed));
    report.push(check_grid_shard_invariance(cfg.seed));
    report.push(check_grid_incremental_differential(cfg.seed));
    report.push(check_dv_matches_bfs(cfg.seed));
    report.push(check_agent_claims_vs_bfs(cfg.seed));
    for kind in ProtocolKind::ALL {
        report.push(check_zoo_tables(kind, cfg.seed));
        report.push(check_zoo_claims(kind, cfg.seed));
    }
    report.push(check_zoo_static_reachability(cfg.seed));
    report.push(check_spray_default_budget_delivery(cfg.seed));
    if cfg.inject_failure {
        report.push(check_injected_failure(cfg.seed));
    }
    report
}

// ---------------------------------------------------------------------------
// Invariant sweeps
// ---------------------------------------------------------------------------

/// Runs the mapping scenarios (static-to-completion, topology drift) and
/// the routing scenarios (dynamic network, gateway failure) under their
/// standard invariant sets, then reports one row per invariant.
fn run_invariant_sweeps(cfg: ValidateConfig, report: &mut ValidationReport) {
    let mut failures: Vec<InvariantViolation> = Vec::new();
    let mut checked_steps = 0u64;

    // Mapping scenario 1: stigmergic team maps a static geometric
    // network to completion.
    {
        let g = GeometricConfig::new(30, 180).generate(cfg.seed).expect("buildable").graph;
        let mcfg = MappingConfig::new(MappingPolicy::Conscientious, 4).stigmergic(true);
        let mut sim = MappingSim::new(g, mcfg, cfg.seed).expect("valid config");
        let mut checks = mapping_invariants();
        match sim.run_checked(200_000, &mut checks) {
            Ok(out) => checked_steps += out.finishing_time.as_u64(),
            Err(v) => failures.push(v),
        }
    }

    // Mapping scenario 2: the topology drifts mid-run (a link pair dies,
    // a new one appears); the same stateful checks ride across the swap.
    {
        let g1 = grid(5, 5);
        let mcfg = MappingConfig::new(MappingPolicy::SuperConscientious, 3);
        let mut sim = MappingSim::new(g1.clone(), mcfg, cfg.seed ^ 0x51).expect("valid config");
        let mut checks = mapping_invariants();
        let mut g2 = g1;
        g2.remove_edge(NodeId::new(0), NodeId::new(1));
        g2.remove_edge(NodeId::new(1), NodeId::new(0));
        g2.add_edge(NodeId::new(0), NodeId::new(6));
        g2.add_edge(NodeId::new(6), NodeId::new(0));
        'drift: for phase in 0..2 {
            if phase == 1 {
                sim.set_graph(g2.clone());
            }
            for s in (phase * 80)..((phase + 1) * 80) {
                sim.step(Step::new(s));
                checked_steps += 1;
                if let Err(v) = checks.check_all(&sim, Step::new(s)) {
                    failures.push(v);
                    break 'drift;
                }
            }
        }
    }

    // Routing scenario 1: fully dynamic network (mobility, battery
    // decay) with communicating, stigmergic agents.
    {
        let net = NetworkBuilder::new(40)
            .gateways(3)
            .target_edges(320)
            .build(cfg.seed ^ 0x52)
            .expect("buildable");
        let rcfg =
            RoutingConfig::new(RoutingPolicy::OldestNode, 12).communication(true).stigmergic(true);
        let mut sim = RoutingSim::new(net, rcfg, cfg.seed).expect("valid config");
        let mut checks = routing_invariants();
        match sim.run_checked(80, &mut checks) {
            Ok(_) => checked_steps += 80,
            Err(v) => failures.push(v),
        }
    }

    // Routing scenario 2: static network, one gateway's uplink fails
    // mid-run; stepped manually so time stays monotone across the fault.
    {
        let net = NetworkBuilder::new(40)
            .gateways(3)
            .target_edges(320)
            .mobile_fraction(0.0)
            .build(cfg.seed ^ 0x53)
            .expect("buildable");
        let rcfg = RoutingConfig::new(RoutingPolicy::OldestNode, 15);
        let mut sim = RoutingSim::new(net, rcfg, cfg.seed).expect("valid config");
        let mut checks = routing_invariants();
        'fault: for s in 0..80u64 {
            if s == 40 {
                let victim = sim.network().gateways()[0];
                sim.fail_gateway(victim);
            }
            sim.step(Step::new(s));
            checked_steps += 1;
            if let Err(v) = checks.check_all(&sim, Step::new(s)) {
                failures.push(v);
                break 'fault;
            }
        }
    }

    let mut names = mapping_invariants().names();
    names.extend(routing_invariants().names());
    for name in names {
        match failures.iter().find(|v| v.invariant == name) {
            Some(v) => report.push(CheckResult::fail(name, CheckKind::Invariant, v.to_string())),
            None => report.push(CheckResult::pass(
                name,
                CheckKind::Invariant,
                format!("held across 4 scenarios ({checked_steps} checked steps total)"),
            )),
        }
    }
}

/// Registers an always-failing invariant and confirms the checked driver
/// reports it. The row itself is marked failed so the battery (and the
/// `repro validate` exit code) goes red — this is the canary proving a
/// violation cannot pass silently.
fn check_injected_failure(seed: u64) -> CheckResult {
    const NAME: &str = "injected-failure";
    let g = grid(4, 4);
    let mcfg = MappingConfig::new(MappingPolicy::Random, 2);
    let mut sim = MappingSim::new(g, mcfg, seed).expect("valid config");
    let mut checks = InvariantSet::new();
    checks.register(invariant_fn(NAME, |_sim: &MappingSim, _now| {
        Err("deliberate canary violation (--inject-failure)".to_string())
    }));
    match sim.run_checked(10, &mut checks) {
        Err(v) => CheckResult::fail(NAME, CheckKind::Invariant, format!("fired as expected: {v}")),
        Ok(_) => CheckResult::fail(
            NAME,
            CheckKind::Invariant,
            "canary did not fire: checked run ignored a failing invariant".to_string(),
        ),
    }
}

// ---------------------------------------------------------------------------
// Metamorphic relations
// ---------------------------------------------------------------------------

/// A seeded Fisher-Yates permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..i + 1);
        p.swap(i, j);
    }
    p
}

/// Relabeling the nodes of a digraph permutes its structure without
/// changing it: edge count, diameter and symmetry are invariant, and
/// pairwise hop distances are equivariant under the permutation.
fn check_relabel_graph(seed: u64) -> CheckResult {
    const NAME: &str = "relabel-graph-metrics";
    let n = 24;
    let g = erdos_renyi(n, 0.12, seed).expect("valid probability");
    let perm = permutation(n, seed ^ 0x9e37);
    let mut h = DiGraph::new(n);
    for v in g.nodes() {
        for &w in g.out_neighbors(v) {
            h.add_edge(NodeId::new(perm[v.index()]), NodeId::new(perm[w.index()]));
        }
    }
    if h.edge_count() != g.edge_count() {
        return CheckResult::fail(
            NAME,
            CheckKind::Metamorphic,
            format!("edge count changed: {} -> {}", g.edge_count(), h.edge_count()),
        );
    }
    if diameter(&g) != diameter(&h) {
        return CheckResult::fail(
            NAME,
            CheckKind::Metamorphic,
            format!("diameter changed: {:?} -> {:?}", diameter(&g), diameter(&h)),
        );
    }
    if g.is_symmetric() != h.is_symmetric() {
        return CheckResult::fail(NAME, CheckKind::Metamorphic, "symmetry changed".to_string());
    }
    for v in g.nodes() {
        for w in g.nodes() {
            let direct = hop_distance(&g, v, w);
            let relabeled =
                hop_distance(&h, NodeId::new(perm[v.index()]), NodeId::new(perm[w.index()]));
            if direct != relabeled {
                return CheckResult::fail(
                    NAME,
                    CheckKind::Metamorphic,
                    format!("hop distance {v}->{w} changed: {direct:?} -> {relabeled:?}"),
                );
            }
        }
    }
    CheckResult::pass(
        NAME,
        CheckKind::Metamorphic,
        format!("{n}-node relabeling preserved {} pairwise distances", n * n),
    )
}

/// Builds a frozen plane network of `n` mains-powered stationary nodes
/// with one shared radio range; the first two (pre-permutation) nodes
/// are gateways. With `perm`, node `perm[i]` takes old node `i`'s
/// position and role.
fn plane_network(n: usize, perm: Option<&[usize]>, seed: u64) -> WirelessNetwork {
    let arena = Rect::square(1000.0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let positions: Vec<Point2> = (0..n)
        .map(|_| Point2::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)))
        .collect();
    let mut nodes: Vec<Option<WirelessNode>> = vec![None; n];
    for (i, &position) in positions.iter().enumerate() {
        let label = perm.map_or(i, |p| p[i]);
        nodes[label] = Some(WirelessNode {
            id: NodeId::new(label),
            position,
            nominal_range: 260.0,
            kind: if i < 2 { NodeKind::Gateway } else { NodeKind::Stationary },
            battery: BatteryState::mains(),
            motion: Motion::Stationary,
        });
    }
    let nodes = nodes.into_iter().map(|n| n.expect("permutation is a bijection")).collect();
    WirelessNetwork::from_nodes(arena, nodes, seed)
}

/// Distance-vector routing is equivariant under node relabeling: running
/// the protocol on a permuted copy of the network yields the permuted
/// tables and the identical connectivity series.
fn check_relabel_distance_vector(seed: u64) -> CheckResult {
    const NAME: &str = "relabel-dv-equivariance";
    let n = 24;
    let steps = 30;
    let perm = permutation(n, seed ^ 0x517c);
    let mut original =
        DvSim::new(plane_network(n, None, seed), DvConfig::default()).expect("valid network");
    let mut relabeled = DvSim::new(plane_network(n, Some(&perm), seed), DvConfig::default())
        .expect("valid network");
    let series_a = original.run(steps);
    let series_b = relabeled.run(steps);
    if series_a != series_b {
        return CheckResult::fail(
            NAME,
            CheckKind::Metamorphic,
            "connectivity series changed under relabeling".to_string(),
        );
    }
    for v in 0..n {
        for g in 0..2 {
            let direct = original.entry(NodeId::new(v), NodeId::new(g)).map(|e| e.dist);
            let mapped =
                relabeled.entry(NodeId::new(perm[v]), NodeId::new(perm[g])).map(|e| e.dist);
            if direct != mapped {
                return CheckResult::fail(
                    NAME,
                    CheckKind::Metamorphic,
                    format!("entry ({v} -> gw {g}) changed: {direct:?} -> {mapped:?}"),
                );
            }
        }
    }
    CheckResult::pass(
        NAME,
        CheckKind::Metamorphic,
        format!("tables of {n} nodes permuted exactly after {steps} steps"),
    )
}

/// Mean mapping finishing time never increases with population: agents
/// cooperate, so a larger team is at least as fast on average.
///
/// The relation holds in expectation; with finitely many replicates
/// adjacent means can tie within noise, so a step is only a violation
/// when it rises by more than 10 % + one step.
fn check_population_monotone(seed: u64) -> CheckResult {
    const NAME: &str = "population-monotone-mapping";
    let populations = [1usize, 4, 16];
    let replicates = 8u64;
    let mut means = Vec::with_capacity(populations.len());
    for &population in &populations {
        let mut total = 0u64;
        for r in 0..replicates {
            let g = GeometricConfig::new(40, 240).generate(seed ^ 0x77).expect("buildable").graph;
            let mcfg = MappingConfig::new(MappingPolicy::Conscientious, population);
            let mut sim = MappingSim::new(g, mcfg, seed.wrapping_add(r)).expect("valid config");
            let out = sim.run(200_000);
            if !out.finished {
                return CheckResult::fail(
                    NAME,
                    CheckKind::Metamorphic,
                    format!("population {population}, replicate {r} never finished"),
                );
            }
            total += out.finishing_time.as_u64();
        }
        means.push(total as f64 / replicates as f64);
    }
    for w in means.windows(2) {
        if w[1] > w[0] * 1.1 + 1.0 {
            return CheckResult::fail(
                NAME,
                CheckKind::Metamorphic,
                format!("mean finishing time rose with population: {means:?}"),
            );
        }
    }
    CheckResult::pass(
        NAME,
        CheckKind::Metamorphic,
        format!("mean finishing time never rose with population: {means:?}"),
    )
}

// ---------------------------------------------------------------------------
// Differential checks
// ---------------------------------------------------------------------------

/// Distinguishes cache directories when several batteries run in one
/// process (e.g. parallel tests).
static CACHE_EPOCH: AtomicUsize = AtomicUsize::new(0);

/// The executor is a pure scheduler: serial, parallel, cold-cache and
/// warm-resume configurations all serialize to the same bytes.
fn check_executor_determinism(seed: u64) -> CheckResult {
    const NAME: &str = "seed-determinism-executor";
    let graph = GeometricConfig::new(24, 140).generate(seed ^ 0x11).expect("buildable").graph;
    let job = |_i: usize, seeds: SeedSequence| -> Vec<f64> {
        let mcfg = MappingConfig::new(MappingPolicy::SuperConscientious, 3);
        let mut sim = MappingSim::new(graph.clone(), mcfg, seeds.seed()).expect("valid config");
        let out = sim.run(100_000);
        let mut row = vec![out.finishing_time.as_f64()];
        row.extend_from_slice(out.knowledge.values());
        row
    };
    let seeds = SeedSequence::new(seed).child(7);
    let runs = 8;
    // Unique-id generator for per-test temp dirs: the value is only
    // compared for distinctness, never used to order memory.
    // agentlint::allow(no-relaxed-atomics)
    let epoch = CACHE_EPOCH.fetch_add(1, Ordering::Relaxed);
    let cache_dir = std::env::temp_dir()
        .join(format!("agentnet-validate-cache-{}-{epoch}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let serial = Executor::serial().run_cells(NAME, 1, runs, seeds, job);
    let parallel = Executor::new(4).run_cells(NAME, 1, runs, seeds, job);
    let cold = Executor::new(2)
        .with_cache(ResultCache::new(&cache_dir), true)
        .run_cells(NAME, 1, runs, seeds, job);
    let warm = Executor::new(2)
        .with_cache(ResultCache::new(&cache_dir), true)
        .run_cells(NAME, 1, runs, seeds, job);
    let _ = std::fs::remove_dir_all(&cache_dir);

    let baseline = serde_json::to_string(&serial).expect("serializable");
    for (label, other) in [("jobs=4", &parallel), ("cold cache", &cold), ("warm resume", &warm)] {
        let bytes = serde_json::to_string(other).expect("serializable");
        if bytes != baseline {
            return CheckResult::fail(
                NAME,
                CheckKind::Differential,
                format!("{label} diverged from the serial run"),
            );
        }
    }
    CheckResult::pass(
        NAME,
        CheckKind::Differential,
        format!("{runs} replicates byte-identical across serial/parallel/cold/warm"),
    )
}

/// The spatial grid's sharded rebuild is a pure optimization: grid
/// contents, links, `topology_version` and every stat stay
/// byte-identical at shard counts {1, 2, 7, n} across a stepped mobile
/// network.
fn check_grid_shard_invariance(seed: u64) -> CheckResult {
    const NAME: &str = "grid-shard-invariance";
    let nodes = 120usize;
    let build = |shards: usize| {
        NetworkBuilder::new(nodes)
            .gateways(5)
            .mobile_fraction(0.4)
            .min_initial_reachability(0.0)
            .advance_shards(shards)
            .build(seed ^ 0x31)
            .expect("buildable")
    };
    let mut baseline = build(1);
    let shard_counts = [2usize, 7, nodes];
    let mut others: Vec<WirelessNetwork> = shard_counts.iter().map(|&s| build(s)).collect();
    for step in 0..40 {
        baseline.advance();
        for (net, &s) in others.iter_mut().zip(&shard_counts) {
            net.advance();
            let same = net.grid_cells() == baseline.grid_cells()
                && net.links() == baseline.links()
                && net.topology_version() == baseline.topology_version()
                && net.stats() == baseline.stats();
            if !same {
                return CheckResult::fail(
                    NAME,
                    CheckKind::Differential,
                    format!("shards={s} diverged from the sequential path at step {step}"),
                );
            }
        }
    }
    CheckResult::pass(
        NAME,
        CheckKind::Differential,
        format!("grid, links, topology and stats byte-identical at shard counts {{1, 2, 7, {nodes}}} over 40 steps"),
    )
}

/// Incremental grid maintenance is a pure optimization: with the
/// incremental path engaged (low mobility, mains power), grid contents,
/// links and `topology_version` stay byte-identical to a network that
/// always re-indexes from scratch.
fn check_grid_incremental_differential(seed: u64) -> CheckResult {
    const NAME: &str = "grid-incremental-differential";
    let build = |incremental: bool| {
        NetworkBuilder::new(150)
            .gateways(6)
            .mobile_fraction(0.02)
            .mobile_battery(BatteryModel::Mains)
            .min_initial_reachability(0.0)
            .grid_incremental(incremental)
            .build(seed ^ 0x37)
            .expect("buildable")
    };
    let mut with_inc = build(true);
    let mut without = build(false);
    for step in 0..60 {
        with_inc.advance();
        without.advance();
        let same = with_inc.grid_cells() == without.grid_cells()
            && with_inc.links() == without.links()
            && with_inc.topology_version() == without.topology_version();
        if !same {
            return CheckResult::fail(
                NAME,
                CheckKind::Differential,
                format!("incremental grid diverged from full rebuilds at step {step}"),
            );
        }
    }
    let engaged = with_inc.stats().grid_incremental_updates;
    if engaged == 0 {
        return CheckResult::fail(
            NAME,
            CheckKind::Differential,
            "incremental path never engaged — the comparison was vacuous".to_string(),
        );
    }
    CheckResult::pass(
        NAME,
        CheckKind::Differential,
        format!("{engaged} incremental refreshes byte-identical to full rebuilds over 60 steps"),
    )
}

/// On a frozen topology, converged distance-vector tables equal BFS
/// distances over the *usable* relay graph: links live in both
/// directions, with other gateways excluded (gateways advertise only
/// themselves, so they never relay foreign routes).
fn check_dv_matches_bfs(seed: u64) -> CheckResult {
    const NAME: &str = "dv-matches-bfs-on-frozen-topology";
    let net = NetworkBuilder::new(40)
        .gateways(3)
        .target_edges(320)
        .mobile_fraction(0.0)
        .build(seed ^ 0x21)
        .expect("buildable");
    let links = net.links().clone();
    let n = net.node_count();
    let gateways = net.gateways().to_vec();
    let mut is_gateway = vec![false; n];
    for &g in &gateways {
        is_gateway[g.index()] = true;
    }
    let config = DvConfig { max_age: 3, max_dist: 64 };
    let mut dv = DvSim::new(net, config).expect("valid network");
    let _ = dv.run(60);

    let mut compared = 0usize;
    for &gw in &gateways {
        let usable = |u: NodeId| u == gw || !is_gateway[u.index()];
        let mut relay = DiGraph::new(n);
        for v in links.nodes().filter(|&v| usable(v)) {
            for &w in links.out_neighbors(v) {
                if usable(w) && links.has_edge(w, v) {
                    relay.add_edge(v, w);
                }
            }
        }
        let dist = bfs_distances(&relay, gw);
        for v in (0..n).map(NodeId::new) {
            if is_gateway[v.index()] {
                continue;
            }
            let expected = if dist[v.index()] == usize::MAX || dist[v.index()] > 64 {
                None
            } else {
                Some(dist[v.index()] as u32)
            };
            let got = dv.entry(v, gw).map(|e| e.dist);
            if got != expected {
                return CheckResult::fail(
                    NAME,
                    CheckKind::Differential,
                    format!("{v} -> gw {gw}: dv says {got:?}, bfs says {expected:?}"),
                );
            }
            compared += 1;
        }
    }
    CheckResult::pass(
        NAME,
        CheckKind::Differential,
        format!("{compared} (node, gateway) distances agree with BFS"),
    )
}

/// On a frozen topology, every installed agent route claim is honest:
/// the fresh link it references is live, and its hop count never beats
/// the true shortest path from the gateway.
fn check_agent_claims_vs_bfs(seed: u64) -> CheckResult {
    const NAME: &str = "agent-claims-bounded-by-bfs";
    let net = NetworkBuilder::new(40)
        .gateways(3)
        .target_edges(320)
        .mobile_fraction(0.0)
        .build(seed ^ 0x31)
        .expect("buildable");
    let rcfg = RoutingConfig::new(RoutingPolicy::OldestNode, 15).communication(true);
    let mut sim = RoutingSim::new(net, rcfg, seed).expect("valid config");
    let _ = sim.run(60);
    let links = sim.network().links().clone();
    let mut entries = 0usize;
    for v in (0..sim.network().node_count()).map(NodeId::new) {
        for e in sim.table(v).entries() {
            entries += 1;
            if !links.has_edge(e.next_hop, v) {
                return CheckResult::fail(
                    NAME,
                    CheckKind::Differential,
                    format!("entry at {v} references dead link {} -> {v}", e.next_hop),
                );
            }
            match hop_distance(&links, e.gateway, v) {
                Some(d) if (e.hops as usize) >= d => {}
                shortest => {
                    return CheckResult::fail(
                        NAME,
                        CheckKind::Differential,
                        format!(
                            "entry at {v} claims {} hops from {}, shortest path is {shortest:?}",
                            e.hops, e.gateway
                        ),
                    );
                }
            }
        }
    }
    if entries == 0 {
        return CheckResult::fail(
            NAME,
            CheckKind::Differential,
            "no routing entries were installed in 60 steps".to_string(),
        );
    }
    CheckResult::pass(
        NAME,
        CheckKind::Differential,
        format!("{entries} route claims bounded below by BFS distance"),
    )
}

// ---------------------------------------------------------------------------
// Protocol-zoo checks
// ---------------------------------------------------------------------------

/// Per-step table invariants for one zoo arm on a fully dynamic network
/// (mobility, battery decay): every installed entry has in-range ids, a
/// real gateway, no self-forwarding, positive hops, and a non-future
/// install stamp — [`RoutingProtocol::validate_tables`] after every
/// step.
fn check_zoo_tables(kind: ProtocolKind, seed: u64) -> CheckResult {
    let name = format!("zoo-tables-{kind}");
    let net = NetworkBuilder::new(40)
        .gateways(3)
        .target_edges(320)
        .build(seed ^ 0x54)
        .expect("buildable");
    let mut arm = match build_protocol(kind, net, &ZooParams::with_population(12), seed) {
        Ok(arm) => arm,
        Err(e) => {
            return CheckResult::fail(
                &name,
                CheckKind::Invariant,
                format!("arm failed to build: {e}"),
            )
        }
    };
    let steps = 80u64;
    for s in 0..steps {
        let now = Step::new(s);
        arm.step(now);
        if let Err(e) = arm.validate_tables(now) {
            return CheckResult::fail(&name, CheckKind::Invariant, format!("at {now}: {e}"));
        }
    }
    CheckResult::pass(
        &name,
        CheckKind::Invariant,
        format!("tables valid after every one of {steps} dynamic steps"),
    )
}

/// Replays one arm's route claims against the ground-truth link history:
/// on a frozen topology (install-time links = final links) every entry's
/// forwarding link must be live in the direction the arm installed it,
/// and its hop count must never beat the BFS shortest path — the
/// `agent-claims-bounded-by-bfs` differential, extended to every arm.
///
/// Install direction per arm: the agent arms (`agents`, `stigmergic`)
/// record the node the carrier *arrived from* (a `next_hop -> v` link,
/// hops counted from the gateway); AntNet backward ants record the next
/// node *toward* the gateway (`v -> next_hop`, hops to the gateway);
/// the flooding arms record the announcement's sender, whose reverse
/// link `v -> next_hop` was required at adoption (hops from the
/// gateway).
fn check_zoo_claims(kind: ProtocolKind, seed: u64) -> CheckResult {
    let name = format!("zoo-claims-{kind}");
    let net = NetworkBuilder::new(40)
        .gateways(3)
        .target_edges(320)
        .mobile_fraction(0.0)
        .build(seed ^ 0x31)
        .expect("buildable");
    let mut arm = match build_protocol(kind, net, &ZooParams::with_population(15), seed) {
        Ok(arm) => arm,
        Err(e) => {
            return CheckResult::fail(
                &name,
                CheckKind::Differential,
                format!("arm failed to build: {e}"),
            )
        }
    };
    let _ = arm.run(60);
    let links = arm.network().links().clone();
    let mut entries = 0usize;
    for (v, table) in arm.tables().iter().enumerate() {
        let v = NodeId::new(v);
        for e in table.entries() {
            entries += 1;
            let (from, to) = match kind {
                ProtocolKind::Agents | ProtocolKind::Stigmergic => (e.next_hop, v),
                ProtocolKind::AntNet | ProtocolKind::Epidemic | ProtocolKind::SprayAndWait => {
                    (v, e.next_hop)
                }
            };
            if !links.has_edge(from, to) {
                return CheckResult::fail(
                    &name,
                    CheckKind::Differential,
                    format!("entry at {v} references dead link {from} -> {to}"),
                );
            }
            let shortest = match kind {
                ProtocolKind::AntNet => hop_distance(&links, v, e.gateway),
                _ => hop_distance(&links, e.gateway, v),
            };
            match shortest {
                Some(d) if (e.hops as usize) >= d => {}
                other => {
                    return CheckResult::fail(
                        &name,
                        CheckKind::Differential,
                        format!(
                            "entry at {v} claims {} hops for {}, shortest path is {other:?}",
                            e.hops, e.gateway
                        ),
                    );
                }
            }
        }
    }
    if entries == 0 {
        return CheckResult::fail(
            &name,
            CheckKind::Differential,
            "no routing entries were installed in 60 steps".to_string(),
        );
    }
    CheckResult::pass(
        &name,
        CheckKind::Differential,
        format!("{entries} route claims live and bounded below by BFS distance"),
    )
}

/// Cross-arm metamorphic relation: on a small dense *static* topology
/// with generous budgets (no route loss to mobility, TTLs outlasting the
/// run, an unthrottled copy budget), every arm must converge to the
/// identical reachability set — the set the topology itself dictates,
/// regardless of protocol.
fn check_zoo_static_reachability(seed: u64) -> CheckResult {
    const NAME: &str = "zoo-static-reachability-agreement";
    // A 4x4 grid of stationary mains-powered nodes, 150 units apart,
    // one shared 260-unit radio range: every link is symmetric (the
    // agent arms install the link direction they *arrived* by, so an
    // asymmetric link would let arms disagree legitimately) and the
    // network is connected, so the topology dictates one reachability
    // set: everyone.
    let net = || {
        let nodes = (0..16)
            .map(|i| WirelessNode {
                id: NodeId::new(i),
                position: Point2::new(150.0 * (i % 4) as f64, 150.0 * (i / 4) as f64),
                nominal_range: 260.0,
                kind: if i < 3 { NodeKind::Gateway } else { NodeKind::Stationary },
                battery: BatteryState::mains(),
                motion: Motion::Stationary,
            })
            .collect();
        WirelessNetwork::from_nodes(Rect::square(600.0), nodes, seed ^ 0x41)
    };
    let steps = 200u64;
    let mut arms: Vec<(ProtocolKind, Box<dyn RoutingProtocol>)> = vec![
        (
            ProtocolKind::Agents,
            Box::new(
                RoutingSim::new(
                    net(),
                    RoutingConfig::new(RoutingPolicy::OldestNode, 32).communication(true),
                    seed,
                )
                .expect("valid config"),
            ),
        ),
        (
            ProtocolKind::Stigmergic,
            Box::new(
                StigRouteSim::new(
                    net(),
                    StigRouteConfig::new(32).trail_length(64).route_ttl(1_000_000),
                    seed,
                )
                .expect("valid config"),
            ),
        ),
        (
            ProtocolKind::AntNet,
            Box::new(
                AntNetSim::new(net(), AntNetConfig::new(32).ttl(64).route_ttl(1_000_000), seed)
                    .expect("valid config"),
            ),
        ),
        (
            ProtocolKind::Epidemic,
            Box::new(FloodSim::new(net(), FloodConfig::epidemic(), seed).expect("valid config")),
        ),
        (
            ProtocolKind::SprayAndWait,
            Box::new(
                FloodSim::new(net(), FloodConfig::spray_and_wait(64), seed).expect("valid config"),
            ),
        ),
    ];
    let mut sets: Vec<(ProtocolKind, Vec<bool>)> = Vec::with_capacity(arms.len());
    for (kind, arm) in &mut arms {
        let _ = arm.run(steps);
        sets.push((*kind, arm.reached_from_scratch()));
    }
    let (ref_kind, reference) = &sets[0];
    for (kind, set) in &sets[1..] {
        if set != reference {
            let diff: Vec<usize> = reference
                .iter()
                .zip(set)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(i, _)| i)
                .collect();
            return CheckResult::fail(
                NAME,
                CheckKind::Metamorphic,
                format!("{kind} disagrees with {ref_kind} on nodes {diff:?}"),
            );
        }
    }
    let reached = reference.iter().filter(|&&ok| ok).count();
    CheckResult::pass(
        NAME,
        CheckKind::Metamorphic,
        format!(
            "all {} arms agree on the same {reached}/{}-node reachability set after {steps} \
             static steps",
            sets.len(),
            reference.len()
        ),
    )
}

/// Regression guard for the spray-and-wait starvation fix: at the
/// arm's *default* copy budget, delivery on the frozen validate
/// scenario must stay within reach of epidemic's. Before single-copy
/// holders got a direct-delivery phase, at most `L` nodes per wave
/// ever installed a route and steady-state delivery sat near 0.36.
fn check_spray_default_budget_delivery(seed: u64) -> CheckResult {
    const NAME: &str = "zoo-spray-default-budget";
    const FLOOR: f64 = 0.8;
    let net = || {
        NetworkBuilder::new(40).gateways(3).target_edges(320).build(seed ^ 0x54).expect("buildable")
    };
    let steps = 200u64;
    let window = 100..200;
    // `cache: 0` keeps the arm's default copy budget — exactly the
    // configuration the zoo figures (E19/E21) run at.
    let mut spray =
        match build_protocol(ProtocolKind::SprayAndWait, net(), &ZooParams::default(), seed) {
            Ok(arm) => arm,
            Err(e) => {
                return CheckResult::fail(
                    NAME,
                    CheckKind::Differential,
                    format!("arm failed to build: {e}"),
                )
            }
        };
    let mut epidemic =
        match build_protocol(ProtocolKind::Epidemic, net(), &ZooParams::default(), seed) {
            Ok(arm) => arm,
            Err(e) => {
                return CheckResult::fail(
                    NAME,
                    CheckKind::Differential,
                    format!("arm failed to build: {e}"),
                )
            }
        };
    let spray_delivery =
        spray.run(steps).mean_connectivity(window.clone()).expect("window inside run");
    let epidemic_delivery =
        epidemic.run(steps).mean_connectivity(window).expect("window inside run");
    let details = format!(
        "spray-and-wait {spray_delivery:.3} vs epidemic {epidemic_delivery:.3} \
         (floor {FLOOR}) at the default budget over steps 100-200"
    );
    // Epidemic is reported alongside as the ceiling for context; the
    // ordering claim itself is pinned by ext-zoo on the paper regime.
    if spray_delivery < FLOOR {
        return CheckResult::fail(NAME, CheckKind::Differential, details);
    }
    CheckResult::pass(NAME, CheckKind::Differential, details)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_battery_passes() {
        let report = run_battery(ValidateConfig::default());
        assert!(report.passed(), "failures: {:#?}", report.failures());
        let invariants = report.checks().iter().filter(|c| c.kind == CheckKind::Invariant).count();
        let relations = report.checks().iter().filter(|c| c.kind != CheckKind::Invariant).count();
        assert!(invariants >= 8, "only {invariants} invariants swept");
        assert!(relations >= 4, "only {relations} metamorphic/differential checks");
    }

    #[test]
    fn injected_failure_turns_the_battery_red() {
        let report =
            run_battery(ValidateConfig { seed: 2010, inject_failure: true, protocol: None });
        assert!(!report.passed());
        let failures = report.failures();
        assert_eq!(failures.len(), 1, "only the canary should fail: {failures:#?}");
        assert_eq!(failures[0].name, "injected-failure");
        assert!(failures[0].details.contains("fired as expected"), "{}", failures[0].details);
    }

    #[test]
    fn protocol_restricted_battery_runs_one_arms_checks() {
        for kind in ProtocolKind::ALL {
            let cfg = ValidateConfig { protocol: Some(kind), ..ValidateConfig::default() };
            let report = run_battery(cfg);
            assert!(report.passed(), "{kind} failures: {:#?}", report.failures());
            assert_eq!(report.len(), 2, "{kind} should run exactly its two checks");
            let names: Vec<&str> = report.checks().iter().map(|c| c.name.as_str()).collect();
            assert_eq!(
                names,
                [format!("zoo-tables-{kind}"), format!("zoo-claims-{kind}")],
                "unexpected check set for {kind}"
            );
        }
    }

    #[test]
    fn full_battery_covers_every_zoo_arm() {
        let report = run_battery(ValidateConfig::default());
        let names: Vec<&str> = report.checks().iter().map(|c| c.name.as_str()).collect();
        for kind in ProtocolKind::ALL {
            assert!(names.contains(&format!("zoo-tables-{kind}").as_str()), "missing {kind}");
            assert!(names.contains(&format!("zoo-claims-{kind}").as_str()), "missing {kind}");
        }
        assert!(names.contains(&"zoo-static-reachability-agreement"));
    }

    #[test]
    fn battery_is_deterministic_in_seed() {
        let a = run_battery(ValidateConfig::default());
        let b = run_battery(ValidateConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn report_renders_as_table() {
        let mut report = ValidationReport::default();
        report.push(CheckResult::pass("a", CheckKind::Invariant, "ok".into()));
        report.push(CheckResult::fail("b", CheckKind::Differential, "broke".into()));
        assert!(!report.is_empty());
        assert_eq!(report.len(), 2);
        let table = report.to_table();
        assert_eq!(table.headers(), ["check", "kind", "status", "details"]);
        let md = table.to_markdown();
        assert!(md.contains("PASS") && md.contains("FAIL"), "{md}");
        assert!(!report.passed());
    }
}
