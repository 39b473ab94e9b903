//! End-to-end benchmark of the agentnet reproduction.
//!
//! Four workloads, each run in a process of its own (see `README.md`
//! for why each exists and which layer metric should move which
//! end-to-end metric):
//!
//! * `manet_100k` — the paper's MANET (half the nodes mobile on
//!   decaying batteries) at 100k nodes with 10k routing agents, stepped
//!   in a closed loop;
//! * `lowmob_100k` — the same preset, mains-powered and 2% mobile, so
//!   the radio layer takes its incremental grid path instead;
//! * `serve_live_10k` — the route-query daemon on the 10k preset,
//!   stepping its map while one generator thread sends queries on a
//!   fixed open-loop schedule;
//! * `repro_quick` — the `repro --quick` suite through the library.
//!
//! Every end-to-end metric is reported by every workload, over that
//! workload's unit of work (a step, a query, or an experiment cell).
//! The traced run adds per-layer readings: the MANETs take theirs around
//! calls into the radio and core layers (see [`layers`]), the daemon
//! from its own metric registry, and the suite from its executor's
//! events. Readings that exist on one workload only are kept as extras.

#![deny(unsafe_code)]

pub mod compare;
pub mod layers;
pub mod procfs;
pub mod quick;
pub mod serve;
pub mod sims;
pub mod stats;
pub mod trace;

use serde_json::{json, Map, Value};
use std::fmt;
use std::str::FromStr;

/// End-to-end metrics, `(name, unit)`, reported by every workload
/// untraced.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, `(name, unit)`, reported by every workload traced:
/// how busy the run kept the cores, and the time of the layer inside
/// each workload's unit of work — the median radio `advance` of a MANET
/// step, the median time the daemon spent handling one query, and the
/// wall time of the slowest experiment, which sets the suite's.
pub const PER_LAYER: &[(&str, &str)] = &[("proc.cpu_util", "ratio"), ("layer.inner_ms", "ms")];

/// Set-ups per run; `setup_s` is their median, so one slow set-up (a
/// cold page cache, a preempted core) does not decide it.
pub const SETUP_REPEATS: usize = 5;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper MANET at 100k nodes: battery decay, half mobile.
    Manet100k,
    /// 100k nodes, mains power, 2% mobile.
    Lowmob100k,
    /// Live daemon on the 10k preset under open-loop query load.
    ServeLive10k,
    /// The `repro --quick` suite.
    ReproQuick,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] =
        [Workload::Manet100k, Workload::Lowmob100k, Workload::ServeLive10k, Workload::ReproQuick];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Manet100k => "manet_100k",
            Workload::Lowmob100k => "lowmob_100k",
            Workload::ServeLive10k => "serve_live_10k",
            Workload::ReproQuick => "repro_quick",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Workload::ALL.into_iter().find(|w| w.name() == s).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {s:?} (known: {})", names.join(", "))
        })
    }
}

/// Problem sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`]
/// exercises the same code in seconds for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    /// Nodes of the two MANET workloads.
    pub sim_nodes: usize,
    /// Routing agents on them.
    pub sim_population: usize,
    /// Nodes of the served map.
    pub serve_nodes: usize,
    /// Replicates per setting of the suite (`Quick` or `Smoke`).
    pub suite: agentnet_experiments::Mode,
}

impl Scale {
    /// The benchmark as published.
    pub fn full() -> Self {
        Scale {
            sim_nodes: 100_000,
            sim_population: 10_000,
            serve_nodes: 10_000,
            suite: agentnet_experiments::Mode::Quick,
        }
    }

    /// 1k-node MANETs and served map, and the smoke suite.
    pub fn tiny() -> Self {
        Scale {
            sim_nodes: 1_000,
            sim_population: 100,
            serve_nodes: 1_000,
            suite: agentnet_experiments::Mode::Smoke,
        }
    }
}

/// What one run asks for.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// Seeds the network build, the protocol and the request trace.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether to take the traced, per-layer run.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value, unrounded.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// One named output check.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// `Err` with the first discrepancy found.
    pub result: Result<(), String>,
}

/// One phase of an end-to-end timing.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    /// Phase name.
    pub name: String,
    /// Duration, in the unit of the timing it splits.
    pub value: f64,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: steps, queries or claims.
    pub attempted: u64,
    /// Operations that failed: lost or late queries, claims whose
    /// verdict changed.
    pub failed: u64,
    /// Output checks; the run is correct when all pass.
    pub checks: Vec<Check>,
    /// End-to-end metrics (always measured).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Workload-specific layer readings for the human report.
    pub extra: Vec<Metric>,
    /// The end-to-end timing the phases split, and the phases.
    pub phases: Option<(Metric, Vec<Phase>)>,
    /// Spans of the traced run.
    pub trace: Option<trace::Trace>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.result.is_ok())
    }

    /// Records a check.
    pub fn check(&mut self, name: impl Into<String>, result: Result<(), String>) {
        self.checks.push(Check { name: name.into(), result });
    }

    /// Records a metric into `list`.
    pub fn push(list: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
        list.push(Metric { name: name.into(), value, unit });
    }

    /// The contract line: `correct`, `attempted`, `failed`, and the
    /// end-to-end (untraced) or per-layer (traced) metrics.
    ///
    /// # Panics
    ///
    /// When the workload did not measure every catalogued metric — a
    /// bug in the workload, not a measurement outcome.
    pub fn result_line(&self, trace: bool) -> Value {
        let (catalogue, measured) =
            if trace { (PER_LAYER, &self.per_layer) } else { (END_TO_END, &self.end_to_end) };
        let mut metrics = Map::new();
        for &(name, unit) in catalogue {
            let m = measured
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("workload did not measure {name}"));
            assert_eq!(m.unit, unit, "{name} measured in the wrong unit");
            metrics.insert(name, json!({ "value": m.value, "unit": unit }));
        }
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }

    /// Everything measured, for `run` and `bench_result.json`.
    pub fn detail(&self) -> Value {
        let metrics = |list: &[Metric]| {
            Value::Object(
                list.iter()
                    .map(|m| (m.name.clone(), json!({ "value": m.value, "unit": m.unit })))
                    .collect(),
            )
        };
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": Value::Array(
                self.checks
                    .iter()
                    .map(|c| json!({
                        "name": c.name,
                        "ok": c.result.is_ok(),
                        "error": c.result.clone().err().map_or(Value::Null, Value::String),
                    }))
                    .collect()
            ),
            "end_to_end": metrics(&self.end_to_end),
            "per_layer": metrics(&self.per_layer),
            "extra": metrics(&self.extra),
            "spans": self.trace.as_ref().map_or(Value::Null, trace::Trace::layer_json),
            "phases": match &self.phases {
                None => Value::Null,
                Some((whole, phases)) => json!({
                    "whole": whole.name,
                    "value": whole.value,
                    "unit": whole.unit,
                    "phases": Value::Object(
                        phases.iter().map(|p| (p.name.clone(), json!(p.value))).collect()
                    ),
                }),
            },
        })
    }
}

/// Runs one workload in this process.
pub fn run_workload(workload: Workload, spec: &RunSpec) -> Result<Outcome, String> {
    match workload {
        Workload::Manet100k => sims::run(false, spec),
        Workload::Lowmob100k => sims::run(true, spec),
        Workload::ServeLive10k => serve::run(spec),
        Workload::ReproQuick => quick::run(spec),
    }
}
