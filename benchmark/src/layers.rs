//! Per-layer readings of the two MANET workloads, taken by the benchmark
//! around calls into the radio and core layers.
//!
//! The arm under test is stepped in lockstep with a *twin*
//! [`WirelessNetwork`] built from the same builder and seed. The twin's
//! [`WirelessNetwork::advance`] is exactly the radio work inside one arm
//! step, so the arm step minus the twin advance is the protocol's own
//! time. After every step the twin must agree with the arm on
//! `topology_version()` and `stats()`, or the readings are refused. The
//! twin's positions also drive two spare [`SpatialGrid`]s, one rebuilt
//! from scratch and one maintained incrementally.

use crate::stats::median;
use crate::trace::Trace;
use crate::{Metric, Outcome};
use agentnet_core::routing::RoutingProtocol;
use agentnet_engine::Step;
use agentnet_graph::Point2;
use agentnet_radio::{NetStats, SpatialGrid, WirelessNetwork};

/// An arm and its twin network, stepped together.
pub struct Lockstep {
    arm: Box<dyn RoutingProtocol>,
    twin: WirelessNetwork,
    full_grid: SpatialGrid,
    incremental_grid: SpatialGrid,
    positions: Vec<Point2>,
    previous: Vec<Point2>,
    moved: Vec<usize>,
    now: u64,
    stats_at_begin: NetStats,
    migrations_at_begin: u64,
    /// Seconds per measured step, per call.
    step_s: Vec<f64>,
    advance_s: Vec<f64>,
    rebuild_s: Vec<f64>,
    incremental_s: Vec<f64>,
}

impl Lockstep {
    /// Pairs an arm with a twin built from the same builder and seed.
    ///
    /// # Errors
    ///
    /// When the twin does not start out identical to the arm's network.
    pub fn new(arm: Box<dyn RoutingProtocol>, twin: WirelessNetwork) -> Result<Self, String> {
        let grid = |net: &WirelessNetwork| {
            SpatialGrid::build(net.arena(), 1.0, &[]).map_err(|e| format!("spare grid: {e}"))
        };
        let lockstep = Lockstep {
            full_grid: grid(&twin)?,
            incremental_grid: grid(&twin)?,
            arm,
            twin,
            positions: Vec::new(),
            previous: Vec::new(),
            moved: Vec::new(),
            now: 0,
            stats_at_begin: NetStats::default(),
            migrations_at_begin: 0,
            step_s: Vec::new(),
            advance_s: Vec::new(),
            rebuild_s: Vec::new(),
            incremental_s: Vec::new(),
        };
        lockstep.agree()?;
        Ok(lockstep)
    }

    /// Gives the arm back, dropping the twin.
    pub fn into_arm(self) -> Box<dyn RoutingProtocol> {
        self.arm
    }

    /// Seconds per measured arm step.
    pub fn step_seconds(&self) -> &[f64] {
        &self.step_s
    }

    fn agree(&self) -> Result<(), String> {
        let net = self.arm.network();
        if self.twin.topology_version() != net.topology_version()
            || self.twin.stats() != net.stats()
        {
            return Err(format!(
                "twin network diverged from the arm at step {}: topology {} vs {}, stats {:?} vs {:?}",
                self.now,
                self.twin.topology_version(),
                net.topology_version(),
                self.twin.stats(),
                net.stats()
            ));
        }
        Ok(())
    }

    /// Steps arm and twin `steps` times without timing anything.
    ///
    /// # Errors
    ///
    /// When the twin diverges.
    pub fn warm(&mut self, steps: u64) -> Result<(), String> {
        for _ in 0..steps {
            self.arm.step(Step::new(self.now));
            self.twin.advance();
            self.now += 1;
            self.agree()?;
        }
        Ok(())
    }

    /// Starts the measured window: re-indexes the spare grids on the
    /// current positions and takes the counter baselines.
    ///
    /// # Errors
    ///
    /// When the spare grids reject the twin's geometry.
    pub fn begin(&mut self) -> Result<(), String> {
        let max_range = self.read_positions();
        let (arena, shards) = (self.twin.arena(), self.twin.advance_shards());
        for grid in [&mut self.full_grid, &mut self.incremental_grid] {
            grid.rebuild_sharded(arena, max_range, &self.positions, shards)
                .map_err(|e| format!("spare grid: {e}"))?;
        }
        self.previous.clone_from(&self.positions);
        self.stats_at_begin = self.twin.stats();
        self.migrations_at_begin = self.arm.overhead().migrations;
        Ok(())
    }

    /// Copies the twin's positions and returns its largest effective
    /// radio range — the cell size the network's own grid uses.
    fn read_positions(&mut self) -> f64 {
        self.positions.clear();
        let mut max_range = 0.0f64;
        for node in self.twin.nodes() {
            self.positions.push(node.position);
            max_range = max_range.max(node.effective_range());
        }
        max_range.max(1e-9)
    }

    /// One measured step: the arm's step, the twin's advance, and both
    /// grid maintenance paths over the twin's new positions.
    ///
    /// # Errors
    ///
    /// When the twin diverges or a spare grid rejects the geometry.
    pub fn step(&mut self, trace: &mut Trace) -> Result<(), String> {
        let id = self.now;
        let arm = &mut self.arm;
        let ((), step_s) = trace.time("step", None, id, || arm.step(Step::new(id)));
        let twin = &mut self.twin;
        let ((), advance_s) = trace.time("radio.advance", None, id, || twin.advance());
        self.now += 1;
        self.agree()?;

        let max_range = self.read_positions();
        let (arena, shards) = (self.twin.arena(), self.twin.advance_shards());
        let (full, positions) = (&mut self.full_grid, &self.positions);
        let (rebuilt, rebuild_s) = trace.time("radio.grid_rebuild", None, id, || {
            full.rebuild_sharded(arena, max_range, positions, shards)
        });
        rebuilt.map_err(|e| format!("spare grid: {e}"))?;

        self.moved.clear();
        self.moved.extend(
            self.positions
                .iter()
                .zip(&self.previous)
                .enumerate()
                .filter(|(_, (p, q))| p != q)
                .map(|(i, _)| i),
        );
        let (incremental, moved) = (&mut self.incremental_grid, &self.moved);
        let (applied, incremental_s) = trace.time("radio.grid_incremental", None, id, || {
            incremental.incremental_update(arena, max_range, positions, moved)
        });
        if !applied {
            // Refused (cell size changed or too much moved): re-index so
            // the next step diffs against a current grid, untimed.
            self.incremental_grid
                .rebuild_sharded(arena, max_range, &self.positions, shards)
                .map_err(|e| format!("spare grid: {e}"))?;
        }
        std::mem::swap(&mut self.previous, &mut self.positions);

        self.step_s.push(step_s);
        self.advance_s.push(advance_s);
        self.rebuild_s.push(rebuild_s);
        self.incremental_s.push(incremental_s);
        Ok(())
    }

    /// The radio and core readings of the measured window.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        let steps = self.step_s.len();
        let end = self.twin.stats();
        let begin = self.stats_at_begin;
        let per_step = |d: u64| d as f64 / steps as f64;
        let rebuilds = end.link_rebuilds - begin.link_rebuilds;
        let self_s: Vec<f64> =
            self.step_s.iter().zip(&self.advance_s).map(|(step, adv)| step - adv).collect();
        let mut out = Vec::new();
        Outcome::push(&mut out, "radio.advance_ms_p50", median(&self.advance_s) * 1e3, "ms");
        Outcome::push(&mut out, "radio.grid_rebuild_ms_p50", median(&self.rebuild_s) * 1e3, "ms");
        Outcome::push(
            &mut out,
            "radio.grid_incremental_ms_p50",
            median(&self.incremental_s) * 1e3,
            "ms",
        );
        Outcome::push(
            &mut out,
            "radio.link_flips_per_step",
            per_step(
                (end.links_formed + end.links_broken) - (begin.links_formed + begin.links_broken),
            ),
            "count",
        );
        Outcome::push(
            &mut out,
            "radio.topology_bumps_per_step",
            per_step(end.topology_bumps - begin.topology_bumps),
            "count",
        );
        let incremental = end.grid_incremental_updates - begin.grid_incremental_updates;
        Outcome::push(
            &mut out,
            "radio.grid_incremental_ratio",
            if rebuilds == 0 { 0.0 } else { incremental as f64 / rebuilds as f64 },
            "ratio",
        );
        Outcome::push(&mut out, "core.protocol_self_ms_p50", median(&self_s) * 1e3, "ms");
        Outcome::push(
            &mut out,
            "core.migrations_per_step",
            per_step(self.arm.overhead().migrations - self.migrations_at_begin),
            "count",
        );
        Outcome::push(&mut out, "core.route_entries", self.arm.route_entries() as f64, "count");
        out
    }
}
