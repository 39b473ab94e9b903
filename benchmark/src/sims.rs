//! `manet_100k` and `lowmob_100k`: the paper's agents routing over a
//! 100k-node scaled preset, one radio + protocol step at a time in a
//! closed loop.
//!
//! Both workloads run the same radio layer differently. In the paper's
//! MANET half the nodes move and batteries decay, so the grid cell size
//! changes every step and the grid is re-indexed from scratch. With
//! mains power and 2% mobility the cell size holds still and the
//! incremental grid splice engages instead. A grid change that helps one
//! and hurts the other shows up as a split between them.

use crate::layers::Lockstep;
use crate::procfs::{self, CpuWindow};
use crate::stats::{median, percentile};
use crate::trace::Trace;
use crate::{Metric, Outcome, Phase, RunSpec, SETUP_REPEATS};
use agentnet_baselines::zoo::{build_protocol, ZooParams};
use agentnet_core::routing::{ProtocolKind, RoutingProtocol};
use agentnet_engine::Step;
use agentnet_radio::invariants::network_invariants;
use agentnet_radio::{BatteryModel, NetworkBuilder};
use std::time::Instant;

/// Untimed steps before measuring, so tables and agents are spread out.
pub const WARMUP_STEPS: u64 = 10;
/// Fewest measured steps of an untraced run: p95 needs 200 samples to
/// have 10 beyond it.
pub const MIN_STEPS: usize = 200;
/// The step-time percentile reported as `latency_ms_tail`: the highest
/// of p95 and p99 that [`MIN_STEPS`] steps support.
pub const TAIL_PERCENTILE: f64 = 95.0;
/// Fewest measured steps of a traced run (it reports medians only).
const MIN_TRACED_STEPS: usize = 20;

/// The network every run of the workload builds: the scaled preset,
/// sharded over this machine's cores, in the MANET or low-mobility
/// configuration.
pub fn network_builder(low_mobility: bool, nodes: usize) -> NetworkBuilder {
    let builder = NetworkBuilder::scaled_preset(nodes).advance_shards(procfs::cores());
    if low_mobility {
        builder.mobile_battery(BatteryModel::Mains).mobile_fraction(0.02)
    } else {
        builder
    }
}

/// Runs one of the two MANET workloads.
///
/// # Errors
///
/// When the network or arm cannot be built or a twin diverges.
pub fn run(low_mobility: bool, spec: &RunSpec) -> Result<Outcome, String> {
    let builder = network_builder(low_mobility, spec.scale.sim_nodes);
    let params = ZooParams::with_population(spec.scale.sim_population);
    let build_arm = || -> Result<Box<dyn RoutingProtocol>, String> {
        let net = builder.build(spec.seed).map_err(|e| format!("network build: {e}"))?;
        build_protocol(ProtocolKind::Agents, net, &params, spec.seed)
    };

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut arm = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous arm first, so the peak holds one arm.
        drop(arm.take());
        let started = Instant::now();
        arm = Some(build_arm()?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let arm = arm.ok_or("no set-up ran")?;

    let mut out = Outcome::default();
    let mut trace = Trace::new(spec.trace, 8 * 1024);
    let cpu;
    let wall;
    let step_s: Vec<f64>;
    let arm: Box<dyn RoutingProtocol> = if spec.trace {
        let twin = builder.build(spec.seed).map_err(|e| format!("twin build: {e}"))?;
        let mut lockstep = Lockstep::new(arm, twin)?;
        lockstep.warm(WARMUP_STEPS)?;
        lockstep.begin()?;
        cpu = CpuWindow::open()?;
        let started = Instant::now();
        while !done(started, lockstep.step_seconds().len(), MIN_TRACED_STEPS, spec.seconds) {
            lockstep.step(&mut trace)?;
        }
        wall = started.elapsed().as_secs_f64();
        out.extra = lockstep.layer_metrics();
        step_s = lockstep.step_seconds().to_vec();
        let reading =
            |name: &str| out.extra.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value);
        let phase = |name: &str| Phase { name: name.to_string(), value: reading(name) };
        Outcome::push(&mut out.per_layer, "layer.inner_ms", reading("radio.advance_ms_p50"), "ms");
        out.phases = Some((
            Metric { name: "step_ms_p50".into(), value: median(&step_s) * 1e3, unit: "ms" },
            vec![phase("radio.advance_ms_p50"), phase("core.protocol_self_ms_p50")],
        ));
        lockstep.into_arm()
    } else {
        let mut arm = arm;
        for s in 0..WARMUP_STEPS {
            arm.step(Step::new(s));
        }
        let mut samples = Vec::with_capacity(4 * MIN_STEPS);
        cpu = CpuWindow::open()?;
        let started = Instant::now();
        let mut now = WARMUP_STEPS;
        while !done(started, samples.len(), MIN_STEPS, spec.seconds) {
            let t = Instant::now();
            arm.step(Step::new(now));
            samples.push(t.elapsed().as_secs_f64());
            now += 1;
        }
        wall = started.elapsed().as_secs_f64();
        step_s = samples;
        arm
    };
    let utilisation = cpu.utilisation()?;

    out.attempted = step_s.len() as u64;
    Outcome::push(&mut out.end_to_end, "setup_s", median(&setup_s), "s");
    Outcome::push(&mut out.end_to_end, "peak_rss_mib", procfs::peak_rss_mib()?, "MiB");
    Outcome::push(&mut out.end_to_end, "latency_ms_p50", median(&step_s) * 1e3, "ms");
    match percentile(&step_s, TAIL_PERCENTILE) {
        Ok(tail) => Outcome::push(&mut out.end_to_end, "latency_ms_tail", tail * 1e3, "ms"),
        // A traced run may be too short for the tail; it reports medians
        // only.
        Err(e) if spec.trace => eprintln!("latency_ms_tail not reported: {e}"),
        Err(e) => return Err(e.to_string()),
    }
    Outcome::push(&mut out.end_to_end, "throughput_per_s", step_s.len() as f64 / wall, "1/s");
    Outcome::push(&mut out.per_layer, "proc.cpu_util", utilisation, "ratio");
    Outcome::push(&mut out.extra, "steps_measured", step_s.len() as f64, "count");
    check_outputs(arm.as_ref(), &mut out);
    out.trace = spec.trace.then_some(trace);
    Ok(out)
}

/// Whether a measured loop may stop: at least `min_steps` done and
/// `seconds` elapsed.
fn done(started: Instant, steps: usize, min_steps: usize, seconds: f64) -> bool {
    steps >= min_steps && started.elapsed().as_secs_f64() >= seconds
}

/// The sims' output checks: tables valid at the final step, the
/// incrementally recorded connectivity equal to a from-scratch
/// recomputation, and the radio invariants.
fn check_outputs(arm: &dyn RoutingProtocol, out: &mut Outcome) {
    let now = Step::new(arm.network().now().as_u64());
    out.check("validate_tables", arm.validate_tables(now));
    let recorded = arm.connectivity_series().values().last().copied();
    let reference = arm.connectivity();
    out.check(
        "connectivity matches from-scratch",
        match recorded {
            Some(r) if r == reference => Ok(()),
            other => Err(format!("recorded {other:?}, from scratch {reference}")),
        },
    );
    out.check(
        "radio invariants",
        network_invariants().check_all(arm.network(), now).map_err(|v| v.to_string()),
    );
}
