//! Comparison experiments beyond the paper's figures: overhead
//! accounting (E15), packet-level delivery (E16), and head-to-head runs
//! against the ant-colony and distance-vector baselines (E17/E18).

use crate::report::{Claim, ExperimentReport};
use crate::{
    paper_routing_network, routing_connectivity, Ctx, ROUTING_STEPS, ROUTING_WINDOW, TOPOLOGY_SEED,
};
use agentnet_baselines::{AcoConfig, AcoSim, DvConfig, DvSim};
use agentnet_core::overhead::Overhead;
use agentnet_core::policy::RoutingPolicy;
use agentnet_core::routing::{
    RoutingConfig, RoutingProtocol, RoutingSim, TrafficConfig, TrafficSim, TrafficStats,
};
use agentnet_engine::table::Table;
use agentnet_engine::{Summary, TimeSeries};

/// Replicated routing run returning connectivity plus overhead.
fn routing_with_overhead(ctx: &Ctx, config: &RoutingConfig, stream: u64) -> (Summary, Overhead) {
    let results: Vec<(f64, Overhead)> =
        ctx.replicated("routing-overhead", config, stream, |_, s| {
            let net = paper_routing_network().build(TOPOLOGY_SEED).expect("network builds");
            let mut sim =
                RoutingSim::new(net, config.clone(), s.seed()).expect("valid routing config");
            let out = sim.run(ROUTING_STEPS);
            (out.mean_connectivity(ROUTING_WINDOW).expect("window inside run"), sim.overhead())
        });
    let conn = Summary::from_samples(results.iter().map(|r| r.0)).expect("replicates ran");
    let mut total = Overhead::default();
    for (_, o) in &results {
        total += *o;
    }
    // Mean per replicate.
    let k = results.len() as u64;
    let avg = Overhead {
        migrations: total.migrations / k,
        migrated_bytes: total.migrated_bytes / k,
        meeting_messages: total.meeting_messages / k,
        footprint_writes: total.footprint_writes / k,
        table_writes: total.table_writes / k,
    };
    (conn, avg)
}

/// E15 — overhead accounting: the paper claims stigmergic and
/// non-stigmergic agents have "identical overheads" and that footprints
/// impose "negligible overhead".
pub fn ext_overhead(ctx: &Ctx) -> ExperimentReport {
    let base = RoutingConfig::new(RoutingPolicy::OldestNode, 100);
    let (plain_c, plain_o) = routing_with_overhead(ctx, &base, 1500);
    let (stig_c, stig_o) = routing_with_overhead(ctx, &base.clone().stigmergic(true), 1501);
    let (comm_c, comm_o) = routing_with_overhead(ctx, &base.clone().communication(true), 1502);

    let mut table = Table::new([
        "variant",
        "connectivity",
        "migrations/step",
        "bytes/migration",
        "meeting msgs/step",
        "footprints/step",
    ]);
    let steps = ROUTING_STEPS as f64;
    let mut push = |name: &str, c: &Summary, o: &Overhead| {
        table.push_row([
            name.to_string(),
            c.mean_ci_string(3),
            format!("{:.1}", o.migrations as f64 / steps),
            format!("{:.0}", o.bytes_per_migration()),
            format!("{:.1}", o.meeting_messages as f64 / steps),
            format!("{:.1}", o.footprint_writes as f64 / steps),
        ]);
    };
    push("oldest-node", &plain_c, &plain_o);
    push("oldest-node + stigmergy", &stig_c, &stig_o);
    push("oldest-node + visiting", &comm_c, &comm_o);

    let claims = vec![
        Claim::new(
            "stigmergic agents carry exactly the same migration weight",
            format!(
                "{:.0} vs {:.0} bytes/migration",
                stig_o.bytes_per_migration(),
                plain_o.bytes_per_migration()
            ),
            // Counters are integer-averaged across replicates, so allow
            // sub-byte rounding noise.
            (stig_o.bytes_per_migration() - plain_o.bytes_per_migration()).abs() < 0.5,
        ),
        Claim::new(
            "footprint overhead is bounded by one write per migration",
            format!("{} footprints vs {} migrations", stig_o.footprint_writes, stig_o.migrations),
            stig_o.footprint_writes <= stig_o.migrations + 100,
        ),
        Claim::new(
            "direct communication is the costlier channel (extra messages, lower connectivity)",
            format!(
                "visiting: {:.1} msgs/step at {:.3} vs stigmergy: 0 msgs at {:.3}",
                comm_o.meeting_messages as f64 / steps,
                comm_c.mean,
                stig_c.mean
            ),
            comm_o.meeting_messages > 0
                && stig_o.meeting_messages == 0
                && stig_c.mean > comm_c.mean,
        ),
    ];
    ExperimentReport {
        id: "ext-overhead".into(),
        title: "overhead accounting: stigmergy vs direct communication".into(),
        paper_claim:
            "stigmergy imposes negligible overhead; stigmergic and plain agents have identical \
             overheads"
                .into(),
        table,
        claims,
        figure: None,
    }
}

fn traffic_stats(ctx: &Ctx, config: &RoutingConfig, stream: u64) -> (Summary, TrafficStats) {
    let results: Vec<(f64, TrafficStats)> =
        ctx.replicated("routing-traffic", config, stream, |_, s| {
            let net = paper_routing_network().build(TOPOLOGY_SEED).expect("network builds");
            let sim = RoutingSim::new(net, config.clone(), s.seed()).expect("valid routing config");
            let mut traffic = TrafficSim::new(
                sim,
                TrafficConfig { packets_per_step: 5, ttl: 64 },
                s.child(1).seed(),
            );
            let stats = traffic.run(ROUTING_STEPS);
            (stats.delivery_ratio(), stats)
        });
    let ratio = Summary::from_samples(results.iter().map(|r| r.0)).expect("replicates ran");
    let mut agg = TrafficStats::default();
    for (_, s) in &results {
        agg.sent += s.sent;
        agg.delivered += s.delivered;
        agg.dropped += s.dropped;
        agg.delivered_hops += s.delivered_hops;
        agg.delivered_ideal_hops += s.delivered_ideal_hops;
        agg.stretch_samples += s.stretch_samples;
    }
    (ratio, agg)
}

/// E16 — packet-level evaluation: do the agent-maintained tables
/// actually deliver packets, and at what stretch?
pub fn ext_traffic(ctx: &Ctx) -> ExperimentReport {
    let variants: [(&str, RoutingConfig); 3] = [
        ("random", RoutingConfig::new(RoutingPolicy::Random, 100)),
        ("oldest-node", RoutingConfig::new(RoutingPolicy::OldestNode, 100)),
        (
            "oldest-node + stigmergy",
            RoutingConfig::new(RoutingPolicy::OldestNode, 100).stigmergic(true),
        ),
    ];
    let mut table =
        Table::new(["tables maintained by", "delivery ratio", "mean latency", "mean stretch"]);
    let mut measured = Vec::new();
    for (i, (name, config)) in variants.iter().enumerate() {
        let (ratio, stats) = traffic_stats(ctx, config, 1600 + i as u64);
        table.push_row([
            name.to_string(),
            ratio.mean_ci_string(3),
            stats.mean_latency().map_or("-".into(), |l| format!("{l:.1}")),
            stats.mean_stretch().map_or("-".into(), |s| format!("{s:.2}")),
        ]);
        measured.push((*name, ratio.mean, stats));
    }
    let random = &measured[0];
    let oldest = &measured[1];
    let stretch_ok =
        measured.iter().filter_map(|(_, _, s)| s.mean_stretch()).all(|s| (0.8..8.0).contains(&s));
    let claims = vec![
        Claim::new(
            "oldest-node tables deliver more packets than random ones",
            format!("{:.3} vs {:.3}", oldest.1, random.1),
            oldest.1 > random.1,
        ),
        Claim::new(
            "delivered packets take near-shortest paths (stretch sane)",
            measured
                .iter()
                .map(|(n, _, s)| {
                    format!("{n}: {}", s.mean_stretch().map_or("-".into(), |v| format!("{v:.2}")))
                })
                .collect::<Vec<_>>()
                .join("; "),
            stretch_ok,
        ),
    ];
    ExperimentReport {
        id: "ext-traffic".into(),
        title: "packet delivery over agent-maintained tables".into(),
        paper_claim:
            "an average packet multi-hops to a gateway along the tables the agents maintain".into(),
        table,
        claims,
        figure: None,
    }
}

fn aco_connectivity(ctx: &Ctx, config: &AcoConfig, stream: u64) -> (Summary, f64) {
    let results: Vec<(f64, f64)> = ctx.replicated("aco-conn", config, stream, |_, s| {
        let net = paper_routing_network().build(TOPOLOGY_SEED).expect("network builds");
        let mut sim = AcoSim::new(net, config.clone(), s.seed()).expect("valid aco config");
        let series: TimeSeries = sim.run(ROUTING_STEPS);
        (
            series.window_mean(ROUTING_WINDOW).expect("window inside run"),
            sim.ant_moves() as f64 / ROUTING_STEPS as f64,
        )
    });
    let conn = Summary::from_samples(results.iter().map(|r| r.0)).expect("replicates ran");
    let moves = results.iter().map(|r| r.1).sum::<f64>() / results.len() as f64;
    (conn, moves)
}

/// E17 — ant-colony routing (the paper's related work \[9\]) vs the
/// paper's oldest-node agents at equal population.
pub fn ext_aco(ctx: &Ctx) -> ExperimentReport {
    let (aco, aco_moves) = aco_connectivity(ctx, &AcoConfig::new(100), 1700);
    let oldest =
        routing_connectivity(ctx, &RoutingConfig::new(RoutingPolicy::OldestNode, 100), 1701);
    let mut table = Table::new(["system", "connectivity", "agent moves/step"]);
    table.push_row(["100 ACO ants", &aco.mean_ci_string(3), &format!("{aco_moves:.0}")]);
    table.push_row(["100 oldest-node agents", &oldest.mean_ci_string(3), "≤100"]);
    let claims = vec![
        Claim::new(
            "ant-colony routing converges to substantial connectivity",
            format!("{:.3}", aco.mean),
            aco.mean > 0.3,
        ),
        Claim::new(
            "the paper's oldest-node agents are competitive with the ACO comparator",
            format!("{:.3} vs {:.3}", oldest.mean, aco.mean),
            oldest.mean > 0.75 * aco.mean,
        ),
    ];
    ExperimentReport {
        id: "ext-aco".into(),
        title: "ant-colony routing baseline (AntHocNet-style)".into(),
        paper_claim:
            "ant-based algorithms sample gateway paths Monte-Carlo style; bigger colonies \
             converge faster at higher bandwidth (related work [9], [11])"
                .into(),
        table,
        claims,
        figure: None,
    }
}

/// E18 — node-run distance-vector protocol vs the agents: near-ideal
/// connectivity, at a per-step message cost the agents never pay.
pub fn ext_dv(ctx: &Ctx) -> ExperimentReport {
    let dv_results: Vec<(f64, f64)> =
        ctx.replicated("dv-conn", &DvConfig::default(), 1800, |_, s| {
            // DV is deterministic given the network, but replicate over the
            // usual stream anyway so the table shape matches the others.
            let _ = s;
            let net = paper_routing_network().build(TOPOLOGY_SEED).expect("network builds");
            let mut sim = DvSim::new(net, DvConfig::default()).expect("valid dv config");
            let series = sim.run(ROUTING_STEPS);
            (
                series.window_mean(ROUTING_WINDOW).expect("window inside run"),
                sim.receptions() as f64 / ROUTING_STEPS as f64,
            )
        });
    let dv = Summary::from_samples(dv_results.iter().map(|r| r.0)).expect("replicates ran");
    let dv_msgs = dv_results[0].1;
    let (agents, agents_o) = {
        let base = RoutingConfig::new(RoutingPolicy::OldestNode, 100);
        routing_with_overhead(ctx, &base, 1801)
    };
    let agent_moves = agents_o.migrations as f64 / ROUTING_STEPS as f64;

    let mut table = Table::new(["system", "connectivity", "messages or moves / step"]);
    table.push_row([
        "distance-vector protocol (nodes run code)",
        &dv.mean_ci_string(3),
        &format!("{dv_msgs:.0} receptions"),
    ]);
    table.push_row([
        "100 oldest-node agents (nodes run nothing)",
        &agents.mean_ci_string(3),
        &format!("{agent_moves:.0} migrations"),
    ]);
    let claims = vec![
        Claim::new(
            "the full protocol achieves at least the agents' connectivity",
            format!("{:.3} vs {:.3}", dv.mean, agents.mean),
            dv.mean >= agents.mean - 0.02,
        ),
        Claim::new(
            "agents use an order of magnitude less bandwidth than per-step flooding",
            format!("{agent_moves:.0} migrations vs {dv_msgs:.0} receptions per step"),
            agent_moves * 10.0 < dv_msgs,
        ),
    ];
    ExperimentReport {
        id: "ext-dv".into(),
        title: "distance-vector protocol baseline".into(),
        paper_claim:
            "agent routing trades some connectivity for a drastically smaller, decentralized \
             footprint compared with protocols run by every node"
                .into(),
        table,
        claims,
        figure: None,
    }
}

/// E19 — gateway-failure resilience: at step 150 half the gateways'
/// radios die; the decentralized agents re-route the network onto the
/// survivors with no reconfiguration.
pub fn ext_failure(ctx: &Ctx) -> ExperimentReport {
    use agentnet_engine::sim::{Step, TimeStepSim};
    use agentnet_radio::BatteryModel;

    let config = RoutingConfig::new(RoutingPolicy::OldestNode, 100);
    let curves: Vec<TimeSeries> = ctx.replicated("failure-curve", &config, 1900, |_, s| {
        // Mains batteries everywhere so the only disturbance is the
        // failure itself.
        let net = paper_routing_network()
            .mobile_battery(BatteryModel::Mains)
            .build(TOPOLOGY_SEED)
            .expect("network builds");
        let mut sim = RoutingSim::new(net, config.clone(), s.seed()).expect("valid routing config");
        for step in 0..2 * ROUTING_STEPS {
            if step == 150 {
                // Half the gateways lose their uplink.
                let victims: Vec<_> = sim.network().gateways().iter().copied().step_by(2).collect();
                for gw in victims {
                    sim.fail_gateway(gw);
                }
            }
            sim.step(Step::new(step));
        }
        sim.connectivity_series().clone()
    });
    let curve = TimeSeries::mean_of(&curves);
    let before = curve.window_mean(100..150).expect("window inside run");
    let settled = curve.window_mean(450..600).expect("window inside run");

    // Reference: the steady state of a network that only ever had the
    // six surviving gateways.
    let ref_samples: Vec<f64> = ctx.replicated("failure-ref", &config, 1901, |_, s| {
        let net = paper_routing_network()
            .gateways(6)
            .mobile_battery(BatteryModel::Mains)
            .build(TOPOLOGY_SEED)
            .expect("reference network builds");
        let mut sim = RoutingSim::new(net, config.clone(), s.seed()).expect("valid routing config");
        sim.run(ROUTING_STEPS).mean_connectivity(ROUTING_WINDOW).expect("window inside run")
    });
    let reference = Summary::from_samples(ref_samples).expect("replicates ran");

    let mut table = Table::new(["phase", "steps", "mean connectivity"]);
    table.push_row(["12 gateways, before failure", "100-150", &format!("{before:.3}")]);
    table.push_row(["settled after 6/12 uplinks fail", "450-600", &format!("{settled:.3}")]);
    table.push_row(["reference: 6 gateways from scratch", "150-300", &reference.mean_ci_string(3)]);

    let claims = vec![
        Claim::new(
            "losing half the gateways costs connectivity",
            format!("{before:.3} -> {settled:.3}"),
            settled < before - 0.02,
        ),
        Claim::new(
            "with no reconfiguration the agents re-converge to at least the \
             surviving capacity (the steady state of a 6-gateway network; warm \
             tables let them settle above the from-scratch reference)",
            format!("settled {settled:.3} vs 6-gateway reference {:.3}", reference.mean),
            settled >= reference.mean - 0.03,
        ),
    ];
    ExperimentReport {
        id: "ext-failure".into(),
        title: "gateway-failure resilience".into(),
        paper_claim:
            "decentralized agent routing needs no human-mediated reconfiguration when              infrastructure fails (motivation, §I)"
                .into(),
        table,
        claims,
        figure: Some(agentnet_engine::plot::chart(&curve, 60, 8)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::Mode;
    use agentnet_engine::Executor;

    #[test]
    fn overhead_experiment_runs_in_smoke_mode() {
        let exec = Executor::serial();
        let report = ext_overhead(&Ctx::new(&exec, "ext-overhead", Mode::Smoke));
        assert_eq!(report.table.len(), 3);
        assert_eq!(report.claims.len(), 3);
    }

    #[test]
    fn dv_experiment_smoke() {
        let exec = Executor::serial();
        let report = ext_dv(&Ctx::new(&exec, "ext-dv", Mode::Smoke));
        assert_eq!(report.table.len(), 2);
        assert!(report.passed(), "{}", report.to_markdown());
    }
}
