//! Integration tests spanning graph → engine → core for the mapping
//! study: the full pipeline a user of the facade crate would run.

use agentnet::core::mapping::{MappingConfig, MappingSim};
use agentnet::core::policy::{MappingPolicy, TieBreak};
use agentnet::engine::rng::SeedSequence;
use agentnet::engine::sim::{Step, TimeStepSim};
use agentnet::engine::Executor;
use agentnet::graph::connectivity::is_strongly_connected;
use agentnet::graph::generators::GeometricConfig;
use agentnet::graph::DiGraph;

fn test_graph() -> DiGraph {
    GeometricConfig::new(60, 420).generate(9).expect("test graph generates").graph
}

#[test]
fn generated_topology_is_mappable() {
    let g = test_graph();
    assert!(is_strongly_connected(&g), "mapping requires strong connectivity");
    assert!(g.nodes().all(|v| g.out_degree(v) > 0));
}

#[test]
fn full_pipeline_replicated_mapping_is_deterministic() {
    let g = test_graph();
    let job = |_: usize, seeds: SeedSequence| {
        let cfg = MappingConfig::new(MappingPolicy::Conscientious, 4).stigmergic(true);
        let mut sim = MappingSim::new(g.clone(), cfg, seeds.seed()).expect("valid config");
        sim.run(200_000).finishing_time.as_u64()
    };
    let a = Executor::new(0).run_cells("mapping", 0, 6, SeedSequence::new(77), job);
    let b = Executor::new(0).run_cells("mapping", 0, 6, SeedSequence::new(77), job);
    assert_eq!(a, b, "replicated pipeline must be bit-deterministic");
    // Replicates must actually differ from each other (distinct streams).
    assert!(a.windows(2).any(|w| w[0] != w[1]), "all replicates identical: {a:?}");
}

#[test]
fn cooperation_speeds_up_mapping() {
    let g = test_graph();
    let finish = |pop: usize| {
        let samples =
            Executor::new(0).run_cells("mapping", 0, 6, SeedSequence::new(3), |_, seeds| {
                let cfg = MappingConfig::new(MappingPolicy::Conscientious, pop);
                let mut sim = MappingSim::new(g.clone(), cfg, seeds.seed()).expect("valid config");
                let out = sim.run(500_000);
                assert!(out.finished);
                out.finishing_time.as_f64()
            });
        samples.iter().sum::<f64>() / samples.len() as f64
    };
    let solo = finish(1);
    let team = finish(8);
    assert!(team < solo, "8 cooperating agents ({team:.0}) should beat one agent ({solo:.0})");
}

#[test]
fn all_agents_converge_to_identical_complete_maps() {
    let g = test_graph();
    let cfg = MappingConfig::new(MappingPolicy::SuperConscientious, 5);
    let mut sim = MappingSim::new(g.clone(), cfg, 11).expect("valid config");
    let out = sim.run(500_000);
    assert!(out.finished);
    assert_eq!(sim.min_knowledge(), 1.0);
    assert_eq!(sim.mean_knowledge(), 1.0);
}

#[test]
fn knowledge_series_never_decreases_and_ends_at_one() {
    let g = test_graph();
    for stig in [false, true] {
        let cfg = MappingConfig::new(MappingPolicy::Random, 3).stigmergic(stig);
        let mut sim = MappingSim::new(g.clone(), cfg, 5).expect("valid config");
        let out = sim.run(500_000);
        assert!(out.finished);
        let v = out.knowledge.values();
        assert!(v.windows(2).all(|w| w[1] >= w[0] - 1e-12), "knowledge regressed");
        assert!((v.last().unwrap() - 1.0).abs() < 1e-12);
    }
}

#[test]
fn tie_break_variants_produce_different_but_valid_runs() {
    let g = test_graph();
    let run = |tie: TieBreak| {
        let cfg = MappingConfig::new(MappingPolicy::Conscientious, 4).tie_break(tie);
        let mut sim = MappingSim::new(g.clone(), cfg, 13).expect("valid config");
        let out = sim.run(500_000);
        assert!(out.finished, "{tie} run unfinished");
        out.finishing_time.as_u64()
    };
    let hashed = run(TieBreak::Hashed);
    let random = run(TieBreak::Random);
    let lowest = run(TieBreak::LowestId);
    // All three complete; at least two differ (they explore differently).
    assert!(hashed != random || random != lowest);
}

#[test]
fn stepwise_and_run_apis_agree() {
    let g = test_graph();
    let cfg = MappingConfig::new(MappingPolicy::Conscientious, 2);
    let mut a = MappingSim::new(g.clone(), cfg.clone(), 21).expect("valid config");
    let out = a.run(500_000);

    let mut b = MappingSim::new(g, cfg, 21).expect("valid config");
    let mut steps = 0u64;
    while !b.is_done() {
        b.step(Step::new(steps));
        steps += 1;
        assert!(steps < 500_000, "manual stepping never finished");
    }
    assert_eq!(out.finishing_time.as_u64(), steps);
    assert_eq!(out.knowledge, b.knowledge_series().clone());
}
