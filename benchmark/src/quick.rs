//! `repro_quick`: the `repro --quick` suite through the library, as the
//! `repro` binary runs it — one thread per experiment, all sharing one
//! two-worker executor, no result cache.
//!
//! Every cell is a paper-scale network (250–300 nodes), so the core
//! protocol, mapping and executor layers dominate and the radio layer is
//! small. The suite uses the paper's fixed seed streams; `--seed` does
//! not change it.

use crate::procfs::{self, CpuWindow};
use crate::stats::{median, percentile};
use crate::trace::Trace;
use crate::{Metric, Outcome, Phase, RunSpec, SETUP_REPEATS};
use agentnet_engine::cache::hash_bytes;
use agentnet_engine::{Executor, RunEvent};
use agentnet_experiments::{
    paper_mapping_graph, paper_routing_network, registry, Ctx, Experiment, ExperimentReport, Mode,
    TOPOLOGY_SEED,
};
use std::time::{Duration, Instant};

/// Executor workers, as `repro --jobs 2`.
pub const JOBS: usize = 2;
/// The cell-time percentile reported as `latency_ms_tail`: the highest
/// of p95 and p99 that one pass's 976 cells support with ten cells
/// beyond it.
pub const TAIL_PERCENTILE: f64 = 95.0;

/// The pinned outputs of one suite mode: the FNV-1a digest of the
/// concatenated report markdown and every claim's verdict, one
/// `PASS|FAIL<TAB>experiment<TAB>statement` line each.
pub struct Expected {
    /// Lowercase hex digest.
    pub digest: &'static str,
    /// Verdict lines.
    pub claims: &'static str,
}

/// The pinned outputs of `mode`.
pub fn expected(mode: Mode) -> Expected {
    match mode {
        Mode::Smoke => Expected {
            digest: include_str!("../expected/repro_smoke.digest"),
            claims: include_str!("../expected/repro_smoke.claims"),
        },
        _ => Expected {
            digest: include_str!("../expected/repro_quick.digest"),
            claims: include_str!("../expected/repro_quick.claims"),
        },
    }
}

/// One claim verdict line: `PASS|FAIL<TAB>experiment<TAB>statement`.
fn verdict_lines(reports: &[ExperimentReport]) -> Vec<String> {
    reports
        .iter()
        .flat_map(|r| {
            r.claims.iter().map(move |c| {
                format!("{}\t{}\t{}", if c.holds { "PASS" } else { "FAIL" }, r.id, c.statement)
            })
        })
        .collect()
}

/// One finished cell, as the executor reported it.
struct Cell {
    experiment: String,
    replicate: usize,
    micros: u64,
    wait_micros: u64,
    finished: Instant,
}

/// One pass of the suite.
struct Pass {
    reports: Vec<ExperimentReport>,
    /// Start and end of every experiment, in registry order.
    experiments: Vec<(Instant, Instant)>,
    cells: Vec<Cell>,
    wall_s: f64,
}

/// Runs every experiment concurrently on one shared executor.
fn run_suite(experiments: &[Experiment], mode: Mode) -> Pass {
    let (tx, rx) = crossbeam::channel::unbounded::<RunEvent>();
    let started = Instant::now();
    let (done, cells) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            rx.iter()
                .map(
                    |RunEvent::CellFinished {
                         experiment, replicate, micros, wait_micros, ..
                     }| {
                        Cell {
                            experiment,
                            replicate,
                            micros,
                            wait_micros,
                            finished: Instant::now(),
                        }
                    },
                )
                .collect::<Vec<_>>()
        });
        let exec = Executor::new(JOBS).with_event_sink(tx);
        let done: Vec<(ExperimentReport, Instant, Instant)> = std::thread::scope(|inner| {
            let handles: Vec<_> = experiments
                .iter()
                .map(|exp| {
                    let exec = &exec;
                    inner.spawn(move || {
                        let begun = Instant::now();
                        let report = (exp.run)(&Ctx::new(exec, exp.id, mode));
                        (report, begun, Instant::now())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("experiment thread panicked")).collect()
        });
        // Dropping the executor closes the event channel.
        drop(exec);
        (done, collector.join().expect("event collector panicked"))
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut reports = Vec::with_capacity(done.len());
    let mut spans = Vec::with_capacity(done.len());
    for (report, begun, ended) in done {
        reports.push(report);
        spans.push((begun, ended));
    }
    Pass { reports, experiments: spans, cells, wall_s }
}

/// Runs `repro_quick`.
///
/// # Errors
///
/// When the suite computes no cells.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let mode = spec.scale.suite;
    // Set-up: the registry and the two shared paper topologies every
    // cell starts from.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut experiments = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        experiments = registry::all();
        std::hint::black_box(paper_mapping_graph());
        std::hint::black_box(
            paper_routing_network().build(TOPOLOGY_SEED).map_err(|e| e.to_string())?,
        );
        setup_s.push(started.elapsed().as_secs_f64());
    }

    // Spans are recorded after the suite, from its events; the epoch
    // must precede them.
    let mut spans = Trace::new(spec.trace, 4 * 1024);
    let cpu = CpuWindow::open()?;
    let started = Instant::now();
    let mut passes = Vec::new();
    // Whole passes only: a pass is the unit a user waits for. Another
    // starts while it should still end inside the window.
    while passes.is_empty()
        || started.elapsed().as_secs_f64() + passes_mean_s(&passes) <= spec.seconds
    {
        passes.push(run_suite(&experiments, mode));
    }
    let utilisation = cpu.utilisation()?;

    let mut out = Outcome::default();
    let expected = expected(mode);
    let pinned: Vec<&str> = expected.claims.lines().collect();
    for pass in &passes {
        let markdown: String = pass.reports.iter().map(ExperimentReport::to_markdown).collect();
        let digest = format!("{:016x}", hash_bytes(markdown.as_bytes()));
        out.check(
            "report digest matches expected",
            if digest == expected.digest.trim() {
                Ok(())
            } else {
                Err(format!("digest {digest}, expected {}", expected.digest.trim()))
            },
        );
        let verdicts = verdict_lines(&pass.reports);
        let changed: Vec<&String> =
            verdicts.iter().filter(|v| !pinned.contains(&v.as_str())).collect();
        out.attempted += verdicts.len() as u64;
        out.failed += changed.len() as u64;
        out.check(
            "claim verdicts match expected",
            if changed.is_empty() && verdicts.len() == pinned.len() {
                Ok(())
            } else {
                Err(format!(
                    "{} of {} verdicts differ from the {} pinned; actual:\n{}",
                    changed.len(),
                    verdicts.len(),
                    pinned.len(),
                    verdicts.join("\n")
                ))
            },
        );
    }

    let cells: Vec<&Cell> = passes.iter().flat_map(|p| &p.cells).collect();
    if cells.is_empty() {
        return Err("the suite computed no cells".into());
    }
    let compute_ms: Vec<f64> =
        cells.iter().map(|c| (c.micros - c.wait_micros) as f64 / 1e3).collect();
    let wait_ms: Vec<f64> = cells.iter().map(|c| c.wait_micros as f64 / 1e3).collect();
    let wall_s: f64 = passes.iter().map(|p| p.wall_s).sum();
    Outcome::push(&mut out.end_to_end, "setup_s", median(&setup_s), "s");
    Outcome::push(&mut out.end_to_end, "peak_rss_mib", procfs::peak_rss_mib()?, "MiB");
    Outcome::push(&mut out.end_to_end, "latency_ms_p50", median(&compute_ms), "ms");
    Outcome::push(
        &mut out.end_to_end,
        "latency_ms_tail",
        percentile(&compute_ms, TAIL_PERCENTILE).map_err(|e| e.to_string())?,
        "ms",
    );
    Outcome::push(&mut out.end_to_end, "throughput_per_s", cells.len() as f64 / wall_s, "1/s");

    let last = passes.last().ok_or("no pass ran")?;
    let extra = &mut out.extra;
    Outcome::push(
        extra,
        "suite_s",
        median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
        "s",
    );
    Outcome::push(extra, "exec.queue_wait_ms_p50", median(&wait_ms), "ms");
    let busy_s: f64 = compute_ms.iter().sum::<f64>() / 1e3;
    Outcome::push(extra, "exec.busy_ratio", busy_s / (JOBS as f64 * wall_s), "ratio");
    let mut critical = 0.0f64;
    for (exp, (begun, ended)) in experiments.iter().zip(&last.experiments) {
        let secs = ended.duration_since(*begun).as_secs_f64();
        critical = critical.max(secs);
        Outcome::push(extra, format!("experiments.{}_s", exp.id), secs, "s");
    }
    Outcome::push(extra, "experiments.critical_path_s", critical, "s");
    Outcome::push(&mut out.per_layer, "proc.cpu_util", utilisation, "ratio");
    // The slowest experiment sets the suite's wall time.
    Outcome::push(&mut out.per_layer, "layer.inner_ms", critical * 1e3, "ms");
    out.phases = Some((
        Metric { name: "suite_ms".into(), value: last.wall_s * 1e3, unit: "ms" },
        vec![Phase {
            name: "exec.cells_per_worker_ms".into(),
            value: last.cells.iter().map(|c| (c.micros - c.wait_micros) as f64).sum::<f64>()
                / 1e3
                / JOBS as f64,
        }],
    ));

    if spec.trace {
        let mut parents = Vec::with_capacity(experiments.len());
        for (i, (begun, ended)) in last.experiments.iter().enumerate() {
            parents.push(spans.record("experiment", *begun, *ended, None, i as u64));
        }
        for cell in &last.cells {
            let parent = experiments
                .iter()
                .position(|e| e.id == cell.experiment)
                .and_then(|i| parents.get(i).copied().flatten());
            let begun = cell.finished - Duration::from_micros(cell.micros);
            let id = spans.record("exec.cell", begun, cell.finished, parent, cell.replicate as u64);
            let waited = begun + Duration::from_micros(cell.wait_micros);
            spans.record("exec.queue_wait", begun, waited, id, cell.replicate as u64);
        }
        out.trace = Some(spans);
    }
    Ok(out)
}

/// Mean wall seconds of the passes so far (0 with none).
fn passes_mean_s(passes: &[Pass]) -> f64 {
    if passes.is_empty() {
        0.0
    } else {
        passes.iter().map(|p| p.wall_s).sum::<f64>() / passes.len() as f64
    }
}
