//! Experiment harness: one experiment per figure of the paper, plus
//! extensions and ablations.
//!
//! Every experiment regenerates the rows/series its figure reports and
//! checks the figure's *shape claims* — who wins, by roughly what factor,
//! where crossovers fall — against the measured data. Absolute step
//! counts are not expected to match the paper (different simulator,
//! different RNG, stronger baselines); directions and orderings are.
//!
//! * [`mapping_figs`] — Figs. 1–6 (network mapping, §II).
//! * [`routing_figs`] — Figs. 7–11 (dynamic routing, §III).
//! * [`extensions`] — E12 stigmergic routing (the paper's future work),
//!   E13 tie-breaking ablation, E14 link-degradation ablation.
//! * [`comparisons`] — E15 overhead accounting, E16 packet traffic,
//!   E17 ant-colony and E18 distance-vector baselines.
//! * [`protocols`] — E19–E21, the protocol zoo: every
//!   [`agentnet_core::routing::RoutingProtocol`] arm (legacy agents,
//!   stigmergic trails, AntNet ants, epidemic and spray-and-wait
//!   flooding) under identical mobility, swept over population and
//!   cache size.
//! * [`obs`] — run-level observability: the versioned run manifest
//!   (`--metrics-out`), Prometheus exposition (`--metrics-prom`), and
//!   the cross-experiment trace sink (`--trace-out`).
//! * [`registry`] — every experiment by id, for the `repro` binary.
//! * [`report`] — rendering of experiment reports as markdown/JSON.
//!
//! # Example
//!
//! ```no_run
//! use agentnet_experiments::{registry, Mode};
//!
//! for exp in registry::all() {
//!     let report = exp.run_serial(Mode::Quick);
//!     println!("{}", report.to_markdown());
//! }
//! ```
//!
//! Experiments take a [`Ctx`], which carries the shared cell
//! [`Executor`] — attach a cache and a jobs count to it (as the `repro`
//! binary does) and every replicate cell is scheduled across the worker
//! pool and persisted for later resumption:
//!
//! ```no_run
//! use agentnet_engine::{Executor, ResultCache};
//! use agentnet_experiments::{registry, Ctx, Mode};
//!
//! let exec = Executor::new(4).with_cache(ResultCache::new("results_cache"), true);
//! let exp = registry::by_id("fig5").unwrap();
//! let report = (exp.run)(&Ctx::new(&exec, exp.id, Mode::Full));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comparisons;
pub mod extensions;
pub mod mapping_figs;
pub mod obs;
pub mod protocols;
pub mod registry;
pub mod report;
pub mod routing_figs;

pub use obs::{RunManifest, TraceSink, MANIFEST_SCHEMA};
pub use registry::Experiment;
pub use report::{Claim, ExperimentReport};

use agentnet_core::mapping::{MappingConfig, MappingOutcome, MappingSim};
use agentnet_core::routing::{RoutingConfig, RoutingOutcome, RoutingProtocol, RoutingSim};
use agentnet_core::validate::{mapping_invariants, routing_invariants};
use agentnet_engine::cache::hash_config;
use agentnet_engine::obs::{Metrics, SpanTimer};
use agentnet_engine::rng::SeedSequence;
use agentnet_engine::{Executor, Summary, TimeSeries};
use agentnet_graph::generators::GeometricConfig;
use agentnet_graph::DiGraph;
use agentnet_radio::{NetworkBuilder, WirelessNetwork};
use serde::{Deserialize, Serialize};

/// How much compute an experiment run spends.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Mode {
    /// Two replicates — seconds; used by benches and integration tests
    /// to exercise the experiment code paths, not to judge shapes.
    Smoke,
    /// A few replicates — minutes for the whole suite; shapes are checked
    /// with generous tolerances.
    Quick,
    /// The paper's 40 replicates per parameter setting.
    Full,
}

impl Mode {
    /// Replicates per parameter setting (paper: 40).
    pub fn runs(self) -> usize {
        match self {
            Mode::Smoke => 2,
            Mode::Quick => 8,
            Mode::Full => 40,
        }
    }
}

/// Everything an experiment needs to run: the shared cell executor
/// (which carries the jobs limit, result cache, and event sink), the
/// experiment's id (its cache namespace), and the compute budget.
///
/// One executor is shared by reference across all concurrently running
/// experiments, so their replicate cells compete for the same worker
/// permits and land in the same cache.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    exec: &'a Executor,
    id: &'static str,
    mode: Mode,
    check: bool,
    metrics: Option<&'a Metrics>,
    traces: Option<&'a TraceSink>,
}

impl<'a> Ctx<'a> {
    /// Binds an executor to one experiment at one compute budget.
    pub fn new(exec: &'a Executor, id: &'static str, mode: Mode) -> Self {
        Ctx { exec, id, mode, check: false, metrics: None, traces: None }
    }

    /// Attaches the run's metrics registry: replicate helpers fold
    /// per-sim overhead counters (migrations, meetings, footprints,
    /// table writes, radio churn) and span timings into it. Detached —
    /// or attached to a disabled handle — nothing is recorded and
    /// nothing is paid; report bytes are identical either way.
    pub fn with_metrics(mut self, metrics: &'a Metrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches the run's trace sink: replicate helpers enable event
    /// tracing on their sim configs (ring capacity
    /// [`TraceSink::capacity`]) and deposit each replicate's
    /// [`agentnet_core::trace::TraceLog`] for the `--trace-out` export.
    /// Because the config then retains events, traced replicates have a
    /// different cache identity from untraced ones — they recompute
    /// rather than alias untraced cache entries, and produce the same
    /// report bytes (tracing never touches simulation randomness).
    pub fn with_trace_sink(mut self, sink: &'a TraceSink) -> Self {
        self.traces = Some(sink);
        self
    }

    /// Enables per-step invariant checking inside every replicate (the
    /// `repro --check` flag). Off by default: an unchecked run takes the
    /// plain `run` path and pays nothing for the machinery.
    pub fn checked(mut self, check: bool) -> Self {
        self.check = check;
        self
    }

    /// Whether replicates run under per-step invariant checking.
    pub fn check(&self) -> bool {
        self.check
    }

    /// The experiment id this context runs under.
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// The compute budget.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Replicates per parameter setting under this budget.
    pub fn runs(&self) -> usize {
        self.mode.runs()
    }

    /// Runs one replicate group — [`runs`](Ctx::runs) cells of `job` on
    /// the seed stream `MASTER_SEED → stream` — through the executor,
    /// returning results in replicate order.
    ///
    /// `kind` names the metric the cells compute and `params` is
    /// everything that determines a cell's value besides its seed;
    /// together (with the stream) they form the group's cache identity,
    /// so any config change invalidates exactly the affected cells.
    /// Because a cell's seed depends only on `stream` and its index,
    /// cache entries are shared across modes: a `Full` run reuses the
    /// cells a `Quick` run already computed.
    pub fn replicated<T, P, F>(&self, kind: &str, params: &P, stream: u64, job: F) -> Vec<T>
    where
        T: serde::Serialize + serde::Deserialize + Send,
        P: serde::Serialize,
        F: Fn(usize, SeedSequence) -> T + Sync,
    {
        let seeds = SeedSequence::new(MASTER_SEED).child(stream);
        let hash = hash_config(kind, params) ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.exec.run_cells(self.id, hash, self.runs(), seeds, job)
    }

    /// Starts a span timer on the attached registry, if any. The guard
    /// records elapsed microseconds on drop; `None` costs nothing.
    fn span(&self, name: &str) -> Option<SpanTimer> {
        self.metrics.map(|m| m.span(name))
    }

    /// The event retention replicate configs should run with: the trace
    /// sink's ring capacity, or 0 (tracing off) without a sink.
    fn trace_capacity(&self) -> usize {
        self.traces.map_or(0, TraceSink::capacity)
    }

    /// Folds a finished mapping replicate into the run's observability
    /// side channels: overhead counters into the metrics registry, the
    /// replicate's trace into the sink. Cache-hit cells never execute,
    /// so these counters cover *computed* cells only (cache traffic is
    /// counted separately from executor events).
    pub fn observe_mapping(&self, sim: &MappingSim, kind: &str, stream: u64, replicate: usize) {
        if let Some(m) = self.metrics {
            let o = sim.overhead();
            m.counter_add("mapping_replicates_total", 1);
            m.counter_add("mapping_migrations_total", o.migrations);
            m.counter_add("mapping_migrated_bytes_total", o.migrated_bytes);
            m.counter_add("mapping_meeting_messages_total", o.meeting_messages);
            m.counter_add("mapping_footprint_writes_total", o.footprint_writes);
            m.counter_add("trace_events_total", sim.trace().total_recorded());
        }
        if let Some(t) = self.traces {
            t.record(self.id, kind, stream, replicate, sim.trace());
        }
    }

    /// Routing counterpart of [`Ctx::observe_mapping`]; additionally
    /// folds the substrate's [`agentnet_radio::NetStats`] (link churn,
    /// topology bumps, battery decay).
    pub fn observe_routing(&self, sim: &RoutingSim, kind: &str, stream: u64, replicate: usize) {
        if let Some(m) = self.metrics {
            let o = sim.overhead();
            m.counter_add("routing_replicates_total", 1);
            m.counter_add("routing_migrations_total", o.migrations);
            m.counter_add("routing_migrated_bytes_total", o.migrated_bytes);
            m.counter_add("routing_meeting_messages_total", o.meeting_messages);
            m.counter_add("routing_footprint_writes_total", o.footprint_writes);
            m.counter_add("routing_table_writes_total", o.table_writes);
            m.counter_add("trace_events_total", sim.trace().total_recorded());
            observe_network(m, sim.network());
        }
        if let Some(t) = self.traces {
            t.record(self.id, kind, stream, replicate, sim.trace());
        }
    }

    /// Protocol-zoo counterpart of [`Ctx::observe_routing`], over any
    /// [`RoutingProtocol`] arm. Zoo arms carry no
    /// [`agentnet_core::trace::TraceLog`], so there is no trace-sink
    /// leg; overhead counters land under a `zoo_` prefix (labelled
    /// metrics would need a richer registry) together with the shared
    /// substrate's [`agentnet_radio::NetStats`].
    pub fn observe_protocol(
        &self,
        sim: &dyn RoutingProtocol,
        _kind: &str,
        _stream: u64,
        _replicate: usize,
    ) {
        if let Some(m) = self.metrics {
            let o = sim.overhead();
            m.counter_add("zoo_replicates_total", 1);
            m.counter_add("zoo_migrations_total", o.migrations);
            m.counter_add("zoo_migrated_bytes_total", o.migrated_bytes);
            m.counter_add("zoo_meeting_messages_total", o.meeting_messages);
            m.counter_add("zoo_footprint_writes_total", o.footprint_writes);
            m.counter_add("zoo_table_writes_total", o.table_writes);
            observe_network(m, sim.network());
        }
    }
}

/// Folds a finished replicate's [`agentnet_radio::NetStats`] (link
/// churn, topology bumps, battery decay) into the metrics registry.
fn observe_network(m: &Metrics, net: &WirelessNetwork) {
    let s = net.stats();
    m.counter_add("radio_steps_total", s.advances);
    m.counter_add("radio_link_rebuilds_total", s.link_rebuilds);
    m.counter_add("radio_topology_bumps_total", s.topology_bumps);
    m.counter_add("radio_links_formed_total", s.links_formed);
    m.counter_add("radio_links_broken_total", s.links_broken);
    m.counter_add("radio_battery_decay_steps_total", s.battery_decay_steps);
    m.counter_add("radio_grid_cell_clamps_total", s.grid_cell_clamps);
    m.counter_add("radio_grid_incremental_total", s.grid_incremental_updates);
    // Gauge, not counter: the shard count is configuration. A nonzero
    // clamp counter or an unexpected shard gauge in a repro artifact
    // flags a run whose spatial index degraded or whose parallelism
    // differed from the manifest.
    m.gauge_set("radio_advance_shards", net.advance_shards() as f64);
}

/// Order-sensitive hash of a graph's structure, for keying
/// cached results computed on ad-hoc (non-paper) topologies.
pub fn graph_key(graph: &DiGraph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ graph.node_count() as u64;
    for e in graph.edges() {
        h ^= ((e.from.index() as u64) << 32) | e.to.index() as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Master seed all experiments derive their randomness from.
pub const MASTER_SEED: u64 = 2010;

/// Seed of the fixed shared topologies ("a single connected network ...
/// for all experiments", "same configuration and movement path").
pub const TOPOLOGY_SEED: u64 = 42;

/// Step budget for mapping runs (every run in practice finishes far
/// earlier; a run hitting the budget is a bug).
pub const MAPPING_STEP_BUDGET: u64 = 2_000_000;

/// Routing run length (paper: 300 steps).
pub const ROUTING_STEPS: u64 = 300;

/// The paper's measurement window: "the average fraction of connectivity
/// for all nodes from time 150 to 300".
pub const ROUTING_WINDOW: std::ops::Range<usize> = 150..300;

/// The shared mapping topology: the paper's 300-node, ≈2164-edge
/// strongly connected wireless digraph.
pub fn paper_mapping_graph() -> DiGraph {
    GeometricConfig::paper_mapping()
        .generate(TOPOLOGY_SEED)
        .expect("paper mapping topology must generate")
        .graph
}

/// The shared routing network builder: 250 nodes, 12 gateways, half the
/// nodes mobile. Every replicate re-instantiates it with
/// [`TOPOLOGY_SEED`] so all runs share "the same configuration and
/// movement path of nodes"; only agent placement/decisions vary.
pub fn paper_routing_network() -> NetworkBuilder {
    NetworkBuilder::paper_routing()
}

/// Runs one mapping replicate to its budget — under the standard
/// invariant set when `check` is on. An invariant violation inside an
/// experiment replicate is always a simulator bug, so it panics (and
/// the failing invariant, step and message surface in the panic).
fn run_mapping_replicate(sim: &mut MappingSim, ctx: &Ctx) -> MappingOutcome {
    if ctx.check() {
        // The checked histogram covers simulation *plus* per-step
        // invariant evaluation; its gap to the unchecked histogram is
        // the invariant-check cost.
        let _span = ctx.span("mapping_checked_replicate_micros");
        let mut checks = mapping_invariants();
        sim.run_checked(MAPPING_STEP_BUDGET, &mut checks)
            .unwrap_or_else(|v| panic!("mapping replicate failed validation: {v}"))
    } else {
        let _span = ctx.span("mapping_replicate_micros");
        sim.run(MAPPING_STEP_BUDGET)
    }
}

/// Runs one routing replicate for the paper's step count — under the
/// standard invariant set when `check` is on (see
/// [`run_mapping_replicate`]).
fn run_routing_replicate(sim: &mut RoutingSim, ctx: &Ctx) -> RoutingOutcome {
    if ctx.check() {
        let _span = ctx.span("routing_checked_replicate_micros");
        let mut checks = routing_invariants();
        sim.run_checked(ROUTING_STEPS, &mut checks)
            .unwrap_or_else(|v| panic!("routing replicate failed validation: {v}"))
    } else {
        let _span = ctx.span("routing_replicate_micros");
        sim.run(ROUTING_STEPS)
    }
}

/// Replicated mapping finishing times for a config on a fixed graph.
///
/// # Panics
///
/// Panics if any replicate fails to finish within
/// [`MAPPING_STEP_BUDGET`] — only possible on a non-strongly-connected
/// graph, which the generator excludes.
pub fn mapping_finishing_times(
    ctx: &Ctx,
    graph: &DiGraph,
    config: &MappingConfig,
    stream: u64,
) -> Summary {
    let mut config = config.clone();
    config.trace_capacity = config.trace_capacity.max(ctx.trace_capacity());
    let params = (graph_key(graph), config.clone());
    let samples: Vec<f64> = ctx.replicated("mapping-finish", &params, stream, |i, s| {
        let mut sim = MappingSim::new(graph.clone(), config.clone(), s.seed())
            .expect("mapping config must be valid");
        let out = run_mapping_replicate(&mut sim, ctx);
        ctx.observe_mapping(&sim, "mapping-finish", stream, i);
        assert!(out.finished, "mapping run exhausted its step budget");
        out.finishing_time.as_f64()
    });
    Summary::from_samples(samples).expect("at least one replicate")
}

/// Replicated mean knowledge-over-time curve for a mapping config.
pub fn mapping_knowledge_curve(
    ctx: &Ctx,
    graph: &DiGraph,
    config: &MappingConfig,
    stream: u64,
) -> TimeSeries {
    let mut config = config.clone();
    config.trace_capacity = config.trace_capacity.max(ctx.trace_capacity());
    let params = (graph_key(graph), config.clone());
    let curves: Vec<TimeSeries> = ctx.replicated("mapping-curve", &params, stream, |i, s| {
        let mut sim = MappingSim::new(graph.clone(), config.clone(), s.seed())
            .expect("mapping config must be valid");
        let out = run_mapping_replicate(&mut sim, ctx);
        ctx.observe_mapping(&sim, "mapping-curve", stream, i);
        assert!(out.finished, "mapping run exhausted its step budget");
        out.knowledge
    });
    TimeSeries::mean_of(&curves)
}

/// Replicated routing connectivity (mean over the paper's 150–300
/// window).
pub fn routing_connectivity(ctx: &Ctx, config: &RoutingConfig, stream: u64) -> Summary {
    let mut config = config.clone();
    config.trace_capacity = config.trace_capacity.max(ctx.trace_capacity());
    let samples: Vec<f64> = ctx.replicated("routing-conn", &config, stream, |i, s| {
        let net =
            paper_routing_network().build(TOPOLOGY_SEED).expect("paper routing network must build");
        let mut sim =
            RoutingSim::new(net, config.clone(), s.seed()).expect("routing config must be valid");
        let out = run_routing_replicate(&mut sim, ctx);
        ctx.observe_routing(&sim, "routing-conn", stream, i);
        out.mean_connectivity(ROUTING_WINDOW).expect("window inside run")
    });
    Summary::from_samples(samples).expect("at least one replicate")
}

/// Replicated per-run temporal fluctuation: the within-window standard
/// deviation of each run's connectivity series, summarized across
/// replicates. This is the "stability" the paper reads off its plots —
/// it must be measured per run, not on the replicate-averaged curve
/// (averaging smooths fluctuations away).
pub fn routing_temporal_wobble(ctx: &Ctx, config: &RoutingConfig, stream: u64) -> Summary {
    let mut config = config.clone();
    config.trace_capacity = config.trace_capacity.max(ctx.trace_capacity());
    let samples: Vec<f64> = ctx.replicated("routing-wobble", &config, stream, |i, s| {
        let net =
            paper_routing_network().build(TOPOLOGY_SEED).expect("paper routing network must build");
        let mut sim =
            RoutingSim::new(net, config.clone(), s.seed()).expect("routing config must be valid");
        let out = run_routing_replicate(&mut sim, ctx);
        ctx.observe_routing(&sim, "routing-wobble", stream, i);
        out.connectivity.window_std(ROUTING_WINDOW).expect("window inside run")
    });
    Summary::from_samples(samples).expect("at least one replicate")
}

/// Replicated mean connectivity-over-time curve for a routing config.
pub fn routing_connectivity_curve(ctx: &Ctx, config: &RoutingConfig, stream: u64) -> TimeSeries {
    let mut config = config.clone();
    config.trace_capacity = config.trace_capacity.max(ctx.trace_capacity());
    let curves: Vec<TimeSeries> = ctx.replicated("routing-curve", &config, stream, |i, s| {
        let net =
            paper_routing_network().build(TOPOLOGY_SEED).expect("paper routing network must build");
        let mut sim =
            RoutingSim::new(net, config.clone(), s.seed()).expect("routing config must be valid");
        let out = run_routing_replicate(&mut sim, ctx);
        ctx.observe_routing(&sim, "routing-curve", stream, i);
        out.connectivity
    });
    TimeSeries::mean_of(&curves)
}

/// Decimates a time series into at most `points` evenly spaced samples —
/// the series a figure plots, at table-friendly resolution.
pub fn sample_curve(series: &TimeSeries, points: usize) -> Vec<(usize, f64)> {
    let len = series.len();
    if len == 0 || points == 0 {
        return Vec::new();
    }
    let stride = (len / points).max(1);
    let mut out: Vec<(usize, f64)> =
        (0..len).step_by(stride).map(|i| (i, series.values()[i])).collect();
    if out.last().map(|&(i, _)| i) != Some(len - 1) {
        out.push((len - 1, series.values()[len - 1]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentnet_core::policy::MappingPolicy;

    #[test]
    fn paper_mapping_graph_matches_paper_constants() {
        let g = paper_mapping_graph();
        assert_eq!(g.node_count(), 300);
        let err = (g.edge_count() as i64 - 2164).unsigned_abs() as usize;
        assert!(err <= 2164 / 50 + 1, "edge count {} too far from 2164", g.edge_count());
    }

    #[test]
    fn paper_routing_network_matches_paper_constants() {
        let net = paper_routing_network().build(TOPOLOGY_SEED).unwrap();
        assert_eq!(net.node_count(), 250);
        assert_eq!(net.gateways().len(), 12);
    }

    #[test]
    fn paper_network_is_shard_count_invariant_over_the_fig7_horizon() {
        // The figure reports are derived from this network's links and
        // stats, so identity here is identity of every routing report.
        let mut sequential = paper_routing_network().build(TOPOLOGY_SEED).unwrap();
        let mut sharded = paper_routing_network().advance_shards(8).build(TOPOLOGY_SEED).unwrap();
        for _ in 0..300 {
            sequential.advance();
            sharded.advance();
            assert_eq!(sharded.links(), sequential.links());
            assert_eq!(sharded.topology_version(), sequential.topology_version());
            assert_eq!(sharded.stats(), sequential.stats());
        }
        assert_eq!(sharded.nodes(), sequential.nodes());
    }

    #[test]
    fn modes_have_expected_replicates() {
        assert_eq!(Mode::Smoke.runs(), 2);
        assert_eq!(Mode::Quick.runs(), 8);
        assert_eq!(Mode::Full.runs(), 40);
    }

    #[test]
    fn sample_curve_keeps_endpoints() {
        let s: TimeSeries = (0..100).map(|i| i as f64).collect();
        let pts = sample_curve(&s, 10);
        assert_eq!(pts.first(), Some(&(0, 0.0)));
        assert_eq!(pts.last(), Some(&(99, 99.0)));
        assert!(pts.len() <= 12);
        assert!(sample_curve(&TimeSeries::new(), 5).is_empty());
    }

    #[test]
    fn mapping_helper_is_deterministic() {
        let g = agentnet_graph::generators::grid(5, 5);
        let cfg = MappingConfig::new(MappingPolicy::Conscientious, 3);
        let serial = Executor::serial();
        let parallel = Executor::new(4);
        let a = mapping_finishing_times(&Ctx::new(&serial, "t", Mode::Quick), &g, &cfg, 1);
        let b = mapping_finishing_times(&Ctx::new(&parallel, "t", Mode::Quick), &g, &cfg, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn checked_replicates_match_unchecked() {
        // Invariant checking is a pure observer: same samples, and no
        // violations on a healthy config.
        let g = agentnet_graph::generators::grid(5, 5);
        let cfg = MappingConfig::new(MappingPolicy::Conscientious, 3);
        let exec = Executor::serial();
        let plain = mapping_finishing_times(&Ctx::new(&exec, "t", Mode::Smoke), &g, &cfg, 2);
        let checked =
            mapping_finishing_times(&Ctx::new(&exec, "t", Mode::Smoke).checked(true), &g, &cfg, 2);
        assert_eq!(plain, checked);
        assert!(Ctx::new(&exec, "t", Mode::Smoke).checked(true).check());
        assert!(!Ctx::new(&exec, "t", Mode::Smoke).check());
    }

    #[test]
    fn observability_is_a_pure_side_channel() {
        // Metrics and tracing attached must not change a single sample,
        // while the registry and sink fill with replicate activity.
        let g = agentnet_graph::generators::grid(5, 5);
        let cfg = MappingConfig::new(MappingPolicy::Conscientious, 3);
        let exec = Executor::serial();
        let plain = mapping_finishing_times(&Ctx::new(&exec, "t", Mode::Smoke), &g, &cfg, 5);

        let metrics = Metrics::enabled();
        let sink = TraceSink::new(64);
        let ctx = Ctx::new(&exec, "t", Mode::Smoke).with_metrics(&metrics).with_trace_sink(&sink);
        let observed = mapping_finishing_times(&ctx, &g, &cfg, 5);
        assert_eq!(plain, observed);

        let snap = metrics.snapshot();
        assert_eq!(snap.counters["mapping_replicates_total"], 2);
        assert!(snap.counters["mapping_migrations_total"] > 0, "agents must have migrated");
        assert_eq!(snap.histograms["mapping_replicate_micros"].count(), 2);
        let export = sink.export();
        assert_eq!(export.cells, 2);
        assert!(export.events > 0, "migrations must have been traced");
        assert_eq!(export.dropped, 0);
    }

    #[test]
    fn graph_key_tracks_structure() {
        let a = graph_key(&agentnet_graph::generators::grid(4, 4));
        let b = graph_key(&agentnet_graph::generators::grid(4, 4));
        let c = graph_key(&agentnet_graph::generators::grid(4, 5));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
