//! `repro` — regenerate every table/figure of the paper.
//!
//! ```text
//! repro [--smoke|--quick|--full] [--jobs N] [--resume] [--no-cache]
//!       [--cache-dir DIR] [--filter SUBSTRING]... [--json FILE]
//!       [--out DIR] [--metrics-out FILE] [--metrics-prom FILE]
//!       [--trace-out FILE] [--trace] [--list] [EXPERIMENT_ID ...]
//! ```
//!
//! Without ids, runs the whole registry; `--filter` keeps the
//! experiments whose id contains a substring. `--full` uses the paper's
//! 40 replicates per setting (default is a quick 8-replicate pass;
//! `--smoke` runs 2 for a fast shape check).
//!
//! Experiments run concurrently, their replicate cells flattened across
//! a shared pool of `--jobs` workers (default: all cores). Every
//! computed cell is persisted to `--cache-dir` (default
//! `results_cache/`); `--resume` loads cached cells instead of
//! recomputing them, so an interrupted run picks up where it stopped
//! and a repeated run is nearly free. Reports are printed in registry
//! order and are byte-identical for every `--jobs` value and cache
//! state.
//!
//! Progress, per-cell trace events (`--trace`), and a final run-metrics
//! table (cells, cache hit rate, wall-clock, cells/s per experiment)
//! go to stderr; only reports and the summary go to stdout. `--json
//! FILE` additionally writes machine-readable results and `--out DIR`
//! writes one CSV per experiment.
//!
//! Observability is a side channel: `--metrics-out FILE` writes a
//! versioned JSON run manifest (configuration, per-experiment cell
//! stats, cache stats, wall clock, and the full metrics registry of
//! counters/gauges/histograms), `--metrics-prom FILE` writes the same
//! registry in the Prometheus text exposition format, and `--trace-out
//! FILE` exports every replicate's simulation trace as JSON lines.
//! None of the three changes a byte of stdout.
//!
//! `--check` reruns every replicate under the simulator's per-step
//! invariant set (monotone knowledge, bounded histories, live-link
//! routing entries, …); a violation aborts the run naming the invariant
//! and step. Off by default, the checks cost nothing.
//!
//! ```text
//! repro validate [--seed N] [--inject-failure]
//! ```
//!
//! runs the standalone validation battery — invariant sweeps over
//! representative scenarios plus metamorphic (relabeling, population
//! monotonicity) and differential (executor determinism, BFS agreement)
//! checks — printing a pass/fail table and exiting non-zero if any
//! check fails. `--inject-failure` registers a deliberately failing
//! invariant to prove violations surface.
//!
//! ```text
//! repro lint [--baseline] [--root DIR] [--rules] [--format text|json]
//! ```
//!
//! runs the `agentlint` static-analysis pass (see `agentnet_lint`) over
//! the workspace sources, printing findings as `file:line rule message`
//! and exiting non-zero on any finding not grandfathered by the
//! committed `lint.toml` — or on a stale `lint.toml` entry that no
//! longer matches, so the baseline can only shrink. `--baseline`
//! rewrites `lint.toml` from the current findings; `--rules` lists the
//! rule catalogue. `--format json` prints one machine-readable object
//! (schema 1: rule catalogue, sorted findings with source snippets,
//! new/stale baseline diff, counts) to stdout instead of text lines,
//! with the same exit-code contract.
//!
//! ```text
//! repro serve [--nodes N] [--protocol ARM] [--population P] [--cache C]
//!             [--seed S] [--warmup W] [--steps K] [--step-micros U]
//!             [--port P] [--http-port P] [--threads T]
//!             [--duration-secs D] [--metrics-out FILE]
//!             [--metrics-prom FILE] [--dump-routes]
//! ```
//!
//! boots the route-query daemon (see `agentnet_serve`): a step thread
//! advances the chosen protocol arm on a `--nodes`-node scaled preset
//! while UDP worker threads answer route/link/reachability queries from
//! the current map snapshot, and `--http-port` serves
//! `GET /metrics` for scraping. The startup line on stdout names the
//! bound addresses; `--duration-secs` bounds the serving window (0 =
//! until the step budget completes, or forever for a frozen map). On
//! exit, query counts and p50/p95/p99 latency quantiles go to stderr,
//! `--metrics-prom` writes the registry as Prometheus text, and
//! `--metrics-out` writes a run manifest with a `serve` section.
//! `--dump-routes` skips the sockets entirely and prints every node's
//! frozen route and reachability replies deterministically (the golden
//! surface for what the daemon serves).

use agentnet_core::routing::ProtocolKind;
use agentnet_engine::obs::{Metrics, DURATION_MICROS_BUCKETS};
use agentnet_engine::table::Table;
use agentnet_engine::{Executor, ResultCache, RunEvent};
use agentnet_experiments::obs::{
    percent_or_dash, rate_or_dash, CacheStats, ExperimentCellStats, RunManifest, TraceSink,
    MANIFEST_SCHEMA,
};
use agentnet_experiments::{registry, Ctx, Mode};
use agentnet_validate::{run_battery, ValidateConfig};
use crossbeam::channel;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--smoke|--quick|--full] [--jobs N] [--resume] [--no-cache]\n\
         \x20            [--cache-dir DIR] [--filter SUBSTRING]... [--json FILE]\n\
         \x20            [--out DIR] [--metrics-out FILE] [--metrics-prom FILE]\n\
         \x20            [--trace-out FILE] [--trace] [--check] [--list] [EXPERIMENT_ID ...]\n\
         \x20      repro validate [--seed N] [--inject-failure] [--protocol ARM]\n\
         \x20      repro lint [--baseline] [--root DIR] [--rules] [--format text|json]\n\
         \x20      repro serve [--nodes N] [--protocol ARM] [--population P] [--cache C]\n\
         \x20            [--seed S] [--warmup W] [--steps K] [--step-micros U]\n\
         \x20            [--port P] [--http-port P] [--threads T] [--duration-secs D]\n\
         \x20            [--metrics-out FILE] [--metrics-prom FILE] [--dump-routes]"
    );
    eprintln!("experiments:");
    for e in registry::all() {
        eprintln!("  {:<16} {}", e.id, e.title);
    }
    std::process::exit(2);
}

fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Smoke => "smoke",
        Mode::Quick => "quick",
        Mode::Full => "full",
    }
}

/// Per-experiment cell counters aggregated from the executor's events.
#[derive(Default, Clone, Copy)]
struct CellStats {
    cells: usize,
    hits: usize,
}

/// Per-replicate event retention `--trace-out` asks simulations for.
/// Large enough for every event of a smoke/quick replicate; full-mode
/// overflow is reported via the export's dropped count.
const TRACE_EXPORT_CAPACITY: usize = 4096;

/// The `repro validate` subcommand: runs the validation battery, prints
/// its pass/fail table, exits non-zero on any failure.
fn run_validate(args: impl Iterator<Item = String>) -> ExitCode {
    let mut cfg = ValidateConfig::default();
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|n| n.parse().ok()) {
                Some(seed) => cfg.seed = seed,
                None => usage(),
            },
            "--inject-failure" => cfg.inject_failure = true,
            "--protocol" => match args.next().map(|a| a.parse::<ProtocolKind>()) {
                Some(Ok(kind)) => cfg.protocol = Some(kind),
                Some(Err(e)) => {
                    eprintln!("repro validate: {e}");
                    usage()
                }
                None => usage(),
            },
            _ => usage(),
        }
    }
    eprintln!(
        "repro validate: seed {}{}{}",
        cfg.seed,
        match cfg.protocol {
            Some(kind) => format!(", restricted to the {kind} arm"),
            None => String::new(),
        },
        if cfg.inject_failure { ", with an injected failing invariant" } else { "" }
    );
    let report = run_battery(cfg);
    println!("# agentnet validate — {} checks\n", report.len());
    println!("{}", report.to_table().to_markdown());
    let failures = report.failures();
    if failures.is_empty() {
        println!("\nall {} checks passed", report.len());
        ExitCode::SUCCESS
    } else {
        println!("\n{} of {} checks FAILED:", failures.len(), report.len());
        for f in failures {
            println!("- {}: {}", f.name, f.details);
        }
        ExitCode::FAILURE
    }
}

/// The machine-readable `repro lint --format json` payload, schema 1:
/// the rule catalogue, every finding (sorted, with the trimmed source
/// line as `snippet`), the baseline diff, and summary counts. Keys
/// serialize in sorted order, so the output is byte-deterministic for a
/// given tree — CI and editor integrations can diff it directly.
fn lint_json(
    root: &std::path::Path,
    findings: &[agentnet_lint::Finding],
    diff: &agentnet_lint::baseline::Diff,
) -> serde_json::Value {
    let mut sources: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut finding_json = |f: &agentnet_lint::Finding| {
        let lines = sources.entry(f.file.clone()).or_insert_with(|| {
            std::fs::read_to_string(root.join(&f.file))
                .map(|s| s.lines().map(str::to_string).collect())
                .unwrap_or_default()
        });
        let snippet = (f.line as usize)
            .checked_sub(1)
            .and_then(|i| lines.get(i))
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        serde_json::json!({
            "file": f.file,
            "line": f.line,
            "rule": f.rule,
            "message": f.message,
            "snippet": snippet,
        })
    };
    serde_json::json!({
        "schema": 1,
        "rules": agentnet_lint::all_rules()
            .iter()
            .map(|r| serde_json::json!({ "name": r.name(), "description": r.description() }))
            .collect::<Vec<_>>(),
        "findings": findings.iter().map(&mut finding_json).collect::<Vec<_>>(),
        "new": diff.new.iter().map(&mut finding_json).collect::<Vec<_>>(),
        "stale": diff.stale
            .iter()
            .map(|e| serde_json::json!({ "file": e.file, "line": e.line, "rule": e.rule }))
            .collect::<Vec<_>>(),
        "counts": {
            "findings": findings.len(),
            "baselined": findings.len() - diff.new.len(),
            "new": diff.new.len(),
            "stale": diff.stale.len(),
        },
    })
}

/// The `repro lint` subcommand: runs the `agentlint` rules over the
/// workspace, diffs against the committed `lint.toml` baseline, prints
/// findings as `file:line rule message`, and exits non-zero on new
/// findings or stale baseline entries.
fn run_lint(args: impl Iterator<Item = String>) -> ExitCode {
    let mut snapshot = false;
    let mut show_rules = false;
    let mut json = false;
    let mut root_arg: Option<String> = None;
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => snapshot = true,
            "--rules" => show_rules = true,
            "--root" => match args.next() {
                Some(dir) => root_arg = Some(dir),
                None => usage(),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => json = false,
                Some("json") => json = true,
                _ => usage(),
            },
            _ => usage(),
        }
    }
    if show_rules {
        println!("# agentlint rules\n");
        for rule in agentnet_lint::all_rules() {
            println!("{:<24} {}", rule.name(), rule.description());
        }
        return ExitCode::SUCCESS;
    }
    let root = match root_arg {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
            match agentnet_lint::find_workspace_root(&cwd) {
                Some(root) => root,
                None => {
                    eprintln!("repro lint: no workspace Cargo.toml above {}", cwd.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let findings = match agentnet_lint::run_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("repro lint: failed to scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let baseline_path = root.join("lint.toml");
    if snapshot {
        if let Err(e) = agentnet_lint::baseline::save(&baseline_path, &findings) {
            eprintln!("repro lint: failed to write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "repro lint: snapshot of {} finding(s) written to {}",
            findings.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }
    let baseline = match agentnet_lint::baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("repro lint: failed to read {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };
    let diff = agentnet_lint::baseline::diff(&findings, &baseline);
    if json {
        match serde_json::to_string(&lint_json(&root, &findings, &diff)) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("repro lint: failed to serialize findings: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        for f in &diff.new {
            println!("{f}");
        }
        for s in &diff.stale {
            println!("lint.toml stale-entry {s}");
        }
    }
    eprintln!(
        "repro lint: {} finding(s) ({} baselined, {} new), {} stale baseline entr{}",
        findings.len(),
        findings.len() - diff.new.len(),
        diff.new.len(),
        diff.stale.len(),
        if diff.stale.len() == 1 { "y" } else { "ies" }
    );
    if diff.new.is_empty() && diff.stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `repro serve` subcommand: boots the `agentnet_serve` daemon,
/// serves for the requested window, and reports query counts plus
/// latency quantiles (with optional Prometheus / manifest exports).
fn run_serve(args: impl Iterator<Item = String>) -> ExitCode {
    use agentnet_baselines::zoo::ZooParams;
    use agentnet_serve::{ServeConfig, Server};
    use std::net::SocketAddr;
    use std::time::Duration;

    let mut config = ServeConfig { metrics: Metrics::enabled(), ..ServeConfig::default() };
    let mut population: Option<usize> = None;
    let mut cache: Option<usize> = None;
    let mut step_micros = 0u64;
    let mut duration_secs = 0.0f64;
    let mut metrics_out: Option<String> = None;
    let mut metrics_prom: Option<String> = None;
    let mut dump_routes = false;
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--nodes" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => config.nodes = n,
                None => usage(),
            },
            "--protocol" => match args.next().map(|a| a.parse::<ProtocolKind>()) {
                Some(Ok(kind)) => config.protocol = kind,
                Some(Err(e)) => {
                    eprintln!("repro serve: {e}");
                    usage()
                }
                None => usage(),
            },
            "--population" => match args.next().and_then(|n| n.parse().ok()) {
                Some(p) => population = Some(p),
                None => usage(),
            },
            "--cache" => match args.next().and_then(|n| n.parse().ok()) {
                Some(c) => cache = Some(c),
                None => usage(),
            },
            "--seed" => match args.next().and_then(|n| n.parse().ok()) {
                Some(s) => config.seed = s,
                None => usage(),
            },
            "--warmup" => match args.next().and_then(|n| n.parse().ok()) {
                Some(w) => config.warmup_steps = w,
                None => usage(),
            },
            "--steps" => match args.next().and_then(|n| n.parse().ok()) {
                Some(k) => config.steps = k,
                None => usage(),
            },
            "--step-micros" => match args.next().and_then(|n| n.parse().ok()) {
                Some(u) => step_micros = u,
                None => usage(),
            },
            "--port" => match args.next().and_then(|n| n.parse::<u16>().ok()) {
                Some(p) => config.udp_addr = SocketAddr::from(([127, 0, 0, 1], p)),
                None => usage(),
            },
            "--http-port" => match args.next().and_then(|n| n.parse::<u16>().ok()) {
                Some(p) => config.http_addr = Some(SocketAddr::from(([127, 0, 0, 1], p))),
                None => usage(),
            },
            "--threads" => match args.next().and_then(|n| n.parse().ok()) {
                Some(t) => config.query_threads = t,
                None => usage(),
            },
            "--duration-secs" => match args.next().and_then(|n| n.parse().ok()) {
                Some(d) => duration_secs = d,
                None => usage(),
            },
            "--metrics-out" => match args.next() {
                Some(path) => metrics_out = Some(path),
                None => usage(),
            },
            "--metrics-prom" => match args.next() {
                Some(path) => metrics_prom = Some(path),
                None => usage(),
            },
            "--dump-routes" => dump_routes = true,
            _ => usage(),
        }
    }
    let default_population = config.params.population;
    config.params = ZooParams::with_population(population.unwrap_or(default_population))
        .cache(cache.unwrap_or(0));
    config.step_interval = Duration::from_micros(step_micros);

    if dump_routes {
        return dump_frozen_routes(&config);
    }

    let steps = config.steps;
    let (nodes, protocol, seed, warmup) =
        (config.nodes, config.protocol, config.seed, config.warmup_steps);
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("repro serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The startup line is the daemon's contract with load generators:
    // bound addresses first, then flush, so a parent process can parse
    // the ephemeral ports before the first query.
    println!(
        "serve: udp={} http={} nodes={nodes} protocol={protocol} seed={seed} warmup={warmup} \
         steps={steps}",
        server.udp_addr(),
        match server.http_addr() {
            Some(addr) => addr.to_string(),
            None => "-".to_string(),
        },
    );
    let _ = std::io::stdout().flush();

    // Serving window: a positive --duration-secs bounds it by wall
    // clock; otherwise a stepping daemon exits when its budget is done
    // and a frozen one serves until killed.
    // agentlint::allow(no-ambient-entropy) — serve deadline only.
    let started = Instant::now();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if duration_secs > 0.0 {
            if elapsed >= duration_secs {
                break;
            }
        } else if steps > 0 && server.stepping_done() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let served_secs = started.elapsed().as_secs_f64();

    let snapshot = server.metrics().snapshot();
    let queries = snapshot.counters.get("serve_queries_total").copied().unwrap_or(0);
    let query_errors = snapshot.counters.get("serve_query_errors_total").copied().unwrap_or(0);
    let latency = snapshot.histograms.get("serve_query_micros");
    let (p50, p95, p99) = match latency {
        Some(h) => (h.p50(), h.p95(), h.p99()),
        None => (None, None, None),
    };
    let quantile_or_dash =
        |q: Option<f64>| q.map(|v| format!("{v:.0}")).unwrap_or_else(|| "-".to_string());
    let qps = if served_secs > 0.0 { queries as f64 / served_secs } else { 0.0 };
    eprintln!(
        "repro serve: {queries} queries ({query_errors} errors) in {served_secs:.1}s \
         ({qps:.0}/s); latency µs p50={} p95={} p99={}",
        quantile_or_dash(p50),
        quantile_or_dash(p95),
        quantile_or_dash(p99),
    );

    if let Some(path) = &metrics_prom {
        if let Err(e) = std::fs::write(path, snapshot.to_prometheus()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path} (Prometheus text exposition)");
    }
    if let Some(path) = &metrics_out {
        let manifest = RunManifest {
            schema: MANIFEST_SCHEMA,
            mode: "serve".to_string(),
            jobs: 0,
            invariant_checks: false,
            wall_secs: served_secs,
            cache: CacheStats { enabled: false, resume: false, dir: None, hits: 0, misses: 0 },
            experiments: Vec::new(),
            protocols: vec![protocol.name().to_string()],
            serve: Some(agentnet_experiments::obs::ServeStats {
                nodes: nodes as u64,
                protocol: protocol.name().to_string(),
                seed,
                warmup_steps: warmup,
                steps,
                udp_addr: server.udp_addr().to_string(),
                http_addr: server.http_addr().map(|a| a.to_string()),
                served_secs,
                queries,
                query_errors,
                qps,
                p50_micros: p50,
                p95_micros: p95,
                p99_micros: p99,
            }),
            metrics: snapshot,
        };
        if let Err(e) = std::fs::write(path, manifest.to_json_pretty()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path} (run manifest, schema {MANIFEST_SCHEMA}, serve section)");
    }
    server.shutdown();
    ExitCode::SUCCESS
}

/// `repro serve --dump-routes`: skip the sockets, freeze the map after
/// warmup, and print every node's wire-format route and reachability
/// replies — the golden surface pinning what a frozen daemon answers.
fn dump_frozen_routes(config: &agentnet_serve::ServeConfig) -> ExitCode {
    use agentnet_baselines::zoo::build_protocol;
    use agentnet_engine::Step;
    use agentnet_graph::NodeId;
    use agentnet_radio::NetworkBuilder;
    use agentnet_serve::{wire, MapSnapshot};

    let net = match NetworkBuilder::scaled_preset(config.nodes).build(config.seed) {
        Ok(net) => net,
        Err(e) => {
            eprintln!("repro serve: build failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut protocol = match build_protocol(config.protocol, net, &config.params, config.seed) {
        Ok(protocol) => protocol,
        Err(e) => {
            eprintln!("repro serve: build failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for s in 0..config.warmup_steps {
        protocol.step(Step::new(s));
    }
    let n = protocol.network().node_count();
    let snap = MapSnapshot::capture(protocol.as_ref(), Step::new(config.warmup_steps));
    println!("{}", wire::respond(0, wire::Request::Info, &snap));
    for v in 0..n {
        let node = NodeId::new(v);
        println!("{}", wire::respond(v as u64, wire::Request::Route(node), &snap));
        println!("{}", wire::respond(v as u64, wire::Request::Reach(node), &snap));
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut mode = Mode::Quick;
    let mut jobs = 0usize; // 0 = all cores
    let mut resume = false;
    let mut no_cache = false;
    let mut cache_dir = String::from("results_cache");
    let mut filters: Vec<String> = Vec::new();
    let mut trace = false;
    let mut check = false;
    let mut json_path: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut metrics_prom: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("validate") {
        args.next();
        return run_validate(args);
    }
    if args.peek().map(String::as_str) == Some("lint") {
        args.next();
        return run_lint(args);
    }
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        return run_serve(args);
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => mode = Mode::Full,
            "--quick" => mode = Mode::Quick,
            "--smoke" => mode = Mode::Smoke,
            "--jobs" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => jobs = n,
                None => usage(),
            },
            "--resume" => resume = true,
            "--no-cache" => no_cache = true,
            "--cache-dir" => match args.next() {
                Some(dir) => cache_dir = dir,
                None => usage(),
            },
            "--filter" => match args.next() {
                Some(sub) => filters.push(sub),
                None => usage(),
            },
            "--trace" => trace = true,
            "--check" => check = true,
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => usage(),
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(dir),
                None => usage(),
            },
            "--metrics-out" => match args.next() {
                Some(path) => metrics_out = Some(path),
                None => usage(),
            },
            "--metrics-prom" => match args.next() {
                Some(path) => metrics_prom = Some(path),
                None => usage(),
            },
            "--trace-out" => match args.next() {
                Some(path) => trace_out = Some(path),
                None => usage(),
            },
            "--list" => {
                for e in registry::all() {
                    println!("{:<16} {}", e.id, e.title);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => ids.push(other.to_string()),
        }
    }

    let mut experiments: Vec<_> = if ids.is_empty() {
        registry::all()
    } else {
        ids.iter()
            .map(|id| {
                registry::by_id(id).unwrap_or_else(|| {
                    eprintln!("unknown experiment id: {id}");
                    usage()
                })
            })
            .collect()
    };
    if !filters.is_empty() {
        experiments.retain(|e| filters.iter().any(|f| e.id.contains(f.as_str())));
    }
    if experiments.is_empty() {
        eprintln!("no experiments selected");
        return ExitCode::FAILURE;
    }

    // Observability is opt-in: the registry is live only when an output
    // flag will consume it, so the default path records nothing and the
    // reports on stdout are byte-identical either way.
    let want_obs = metrics_out.is_some() || metrics_prom.is_some() || trace_out.is_some();
    let obs = if want_obs { Metrics::enabled() } else { Metrics::disabled() };
    let trace_sink = trace_out.as_ref().map(|_| TraceSink::new(TRACE_EXPORT_CAPACITY));

    let mut exec = Executor::new(jobs);
    if !no_cache {
        exec = exec.with_cache(ResultCache::new(&cache_dir), resume);
    }
    let (event_tx, event_rx) = channel::unbounded::<RunEvent>();
    let exec = exec.with_event_sink(event_tx);
    eprintln!(
        "repro: {} experiment(s), {} mode, {} worker(s), cache {}{}",
        experiments.len(),
        mode_name(mode),
        exec.jobs(),
        if no_cache {
            "off".to_string()
        } else {
            format!("{cache_dir} ({})", if resume { "resume" } else { "write-only" })
        },
        if check { ", invariant checks on" } else { "" },
    );

    // Drains trace events while experiments run; returns the per-
    // experiment counters once the executor (the only sender) drops.
    let collector_obs = obs.clone();
    // The collector must outlive the executor's thread scope (it drains
    // the channel the scoped workers send into), so it cannot itself be
    // scoped; joined explicitly below once the sender side drops.
    // agentlint::allow(no-bare-spawn)
    let collector = std::thread::spawn(move || {
        let mut stats: BTreeMap<String, CellStats> = BTreeMap::new();
        for event in event_rx {
            let RunEvent::CellFinished { experiment, replicate, seed, cached, micros, wait_micros } =
                event;
            if trace {
                eprintln!(
                    "cell {experiment} replicate={replicate} seed={seed:016x} \
                     cached={cached} micros={micros}"
                );
            }
            collector_obs.counter_add("exec_cells_total", 1);
            if cached {
                collector_obs.counter_add("exec_cache_hits_total", 1);
            } else {
                collector_obs.counter_add("exec_cache_misses_total", 1);
                collector_obs.observe("exec_cell_micros", micros as f64, DURATION_MICROS_BUCKETS);
                collector_obs.observe(
                    "exec_queue_wait_micros",
                    wait_micros as f64,
                    DURATION_MICROS_BUCKETS,
                );
            }
            let entry = stats.entry(experiment).or_default();
            entry.cells += 1;
            if cached {
                entry.hits += 1;
            }
        }
        stats
    });

    // One thread per experiment; the shared executor flattens their
    // cells over its worker permits. Reports fan back in indexed so
    // stdout order (and content) is independent of scheduling.
    // Wall-clock for the stderr run-metrics table; reports depend only
    // on seeds.
    // agentlint::allow(no-ambient-entropy)
    let run_started = Instant::now();
    let (report_tx, report_rx) = channel::unbounded();
    std::thread::scope(|scope| {
        for (idx, exp) in experiments.iter().enumerate() {
            let report_tx = report_tx.clone();
            let exec = &exec;
            let obs = &obs;
            let trace_sink = trace_sink.as_ref();
            scope.spawn(move || {
                eprintln!("running {} ...", exp.id);
                // agentlint::allow(no-ambient-entropy) — stderr metrics only.
                let started = Instant::now();
                let mut ctx = Ctx::new(exec, exp.id, mode).checked(check).with_metrics(obs);
                if let Some(sink) = trace_sink {
                    ctx = ctx.with_trace_sink(sink);
                }
                let report = (exp.run)(&ctx);
                let secs = started.elapsed().as_secs_f64();
                eprintln!("finished {} in {secs:.1}s", exp.id);
                let _ = report_tx.send((idx, report, secs));
            });
        }
    });
    drop(report_tx);
    let total_secs = run_started.elapsed().as_secs_f64();

    let mut slots: Vec<Option<(agentnet_experiments::report::ExperimentReport, f64)>> =
        (0..experiments.len()).map(|_| None).collect();
    for (idx, report, secs) in report_rx {
        slots[idx] = Some((report, secs));
    }
    let results: Vec<_> =
        slots.into_iter().map(|s| s.expect("experiment thread dropped its report")).collect();

    // Executor dropped here: its event sender closes and the collector
    // sees end-of-stream.
    let jobs_used = exec.jobs();
    drop(exec);
    let stats = collector.join().expect("event collector panicked");

    println!(
        "# agentnet repro — {} mode ({} replicates per setting)\n",
        mode_name(mode),
        mode.runs()
    );

    let mut failures = 0usize;
    for (report, _) in &results {
        if !report.passed() {
            failures += 1;
        }
        println!("{}", report.to_markdown());
        if let Some(dir) = &out_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("failed to create {dir}: {e}");
                return ExitCode::FAILURE;
            }
            let path = format!("{dir}/{}.csv", report.id);
            if let Err(e) = std::fs::write(&path, report.table.to_csv()) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!("---\n## Summary\n");
    for (r, _) in &results {
        println!("- {}: **{}** — {}", r.id, if r.passed() { "PASS" } else { "FAIL" }, r.title);
    }

    // Run metrics (stderr, so stdout stays byte-identical across jobs
    // counts and cache states).
    let mut metrics =
        Table::new(["experiment", "cells", "cache hits", "hit rate", "wall s", "cells/s"]);
    let (mut all_cells, mut all_hits) = (0usize, 0usize);
    for (exp, (_, secs)) in experiments.iter().zip(&results) {
        let st = stats.get(exp.id).copied().unwrap_or_default();
        all_cells += st.cells;
        all_hits += st.hits;
        metrics.push_row([
            exp.id.to_string(),
            st.cells.to_string(),
            st.hits.to_string(),
            percent_or_dash(st.hits as u64, st.cells as u64),
            format!("{secs:.1}"),
            rate_or_dash(st.cells as u64, *secs),
        ]);
    }
    eprintln!("\nrun metrics:\n{}", metrics.to_markdown());
    eprintln!(
        "total: {all_cells} cells, {all_hits} cache hits ({:.0}%), {total_secs:.1}s wall, \
         {:.1} cells/s",
        if all_cells == 0 { 0.0 } else { 100.0 * all_hits as f64 / all_cells as f64 },
        if total_secs > 0.0 { all_cells as f64 / total_secs } else { 0.0 },
    );

    // Observability side channel: files and stderr only, after every
    // stdout byte above has been printed.
    if let (Some(path), Some(sink)) = (&trace_out, &trace_sink) {
        let export = sink.export();
        obs.counter_add("trace_dropped_events_total", export.dropped);
        if let Err(e) = std::fs::write(path, &export.text) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote {path} ({} trace event(s) from {} cell(s), {} dropped)",
            export.events, export.cells, export.dropped
        );
    }
    if want_obs {
        obs.gauge_set("run_wall_secs", total_secs);
    }
    if let Some(path) = &metrics_out {
        let manifest = RunManifest {
            schema: MANIFEST_SCHEMA,
            mode: mode_name(mode).to_string(),
            jobs: jobs_used,
            invariant_checks: check,
            wall_secs: total_secs,
            cache: CacheStats {
                enabled: !no_cache,
                resume,
                dir: if no_cache { None } else { Some(cache_dir.clone()) },
                hits: all_hits as u64,
                misses: (all_cells - all_hits) as u64,
            },
            experiments: experiments
                .iter()
                .zip(&results)
                .map(|(exp, (r, secs))| {
                    let st = stats.get(exp.id).copied().unwrap_or_default();
                    ExperimentCellStats {
                        id: exp.id.to_string(),
                        title: exp.title.to_string(),
                        passed: r.passed(),
                        cells: st.cells as u64,
                        cache_hits: st.hits as u64,
                        wall_secs: *secs,
                    }
                })
                .collect(),
            // The registry's zoo experiments drive every arm; a manifest
            // listing them says which protocols this run's figures cover.
            protocols: if experiments.iter().any(|e| e.id.starts_with("ext-zoo")) {
                ProtocolKind::ALL.iter().map(|k| k.name().to_string()).collect()
            } else {
                Vec::new()
            },
            serve: None,
            metrics: obs.snapshot(),
        };
        if let Err(e) = std::fs::write(path, manifest.to_json_pretty()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path} (run manifest, schema {MANIFEST_SCHEMA})");
    }
    if let Some(path) = &metrics_prom {
        if let Err(e) = std::fs::write(path, obs.snapshot().to_prometheus()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path} (Prometheus text exposition)");
    }

    if let Some(path) = json_path {
        let json = serde_json::json!({
            "mode": mode_name(mode),
            "reports": results.iter().map(|(r, _)| r.to_json()).collect::<Vec<_>>(),
        });
        match std::fs::File::create(&path) {
            Ok(mut f) => {
                if let Err(e) = writeln!(f, "{}", serde_json::to_string_pretty(&json).unwrap()) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {path}");
            }
            Err(e) => {
                eprintln!("failed to create {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if failures > 0 {
        eprintln!("{failures} experiment(s) had failing shape claims");
    }
    ExitCode::SUCCESS
}
