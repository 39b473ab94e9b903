//! Every workload at tiny scale prints every metric `BENCHMARK.json`
//! names, with its unit, and passes its output checks.

use agentnet_benchmark::{run_workload, RunSpec, Scale, Workload};
use serde_json::Value;

fn spec_metrics(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| (m["name"].as_str().unwrap().to_string(), m["unit"].as_str().unwrap().to_string()))
        .collect()
}

#[test]
fn tiny_runs_print_every_benchmark_metric_with_its_unit() {
    for trace in [false, true] {
        let wanted = spec_metrics(if trace { "per_layer" } else { "end_to_end" });
        for workload in Workload::ALL {
            let spec = RunSpec { seed: 3, seconds: 2.0, trace, scale: Scale::tiny() };
            let outcome = run_workload(workload, &spec).expect("workload runs");
            for check in &outcome.checks {
                assert!(check.result.is_ok(), "{workload} {}: {:?}", check.name, check.result);
            }
            let line = outcome.result_line(trace);
            let printed = line["metrics"].as_object().expect("metrics object");
            assert_eq!(printed.len(), wanted.len(), "{workload} prints extra metrics");
            for (name, unit) in &wanted {
                let m = &printed.get(name).unwrap_or_else(|| panic!("{workload} lacks {name}"));
                assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{workload} {name}");
                assert!(m["value"].as_f64().is_some(), "{workload} {name} is not a number");
            }
            assert_eq!(line["correct"].as_bool(), Some(true));
            assert_eq!(line["failed"].as_u64(), Some(0), "{workload} failed operations");
        }
    }
}
