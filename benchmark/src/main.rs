//! `bench` — the end-to-end benchmark's command line.
//!
//! ```text
//! bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! bench run [--seed N] [--seconds S] [--trace]
//! bench compare --parent FILE... --change FILE... [--spec BENCHMARK.json]
//! ```
//!
//! The first form runs one workload in this process. It prints a
//! report to stderr, a detail line and then the result line to stdout:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics, whose spans it
//! also merges into `bench_trace.json`. It exits 1 when an output check
//! failed, 2 when the workload could not run.
//!
//! `run` runs every workload in a child process of its own (and with
//! `--trace`, each again traced), prints every metric with its unit,
//! writes `bench_result.json`, and exits non-zero on any failed check.
//! `--seconds` defaults to `run_seconds` of `BENCHMARK.json`.
//!
//! `compare` applies the pair rule of `agentnet_benchmark::compare` to
//! the `bench_result.json` files of a parent and a change, pairing the
//! i-th parent file with the i-th change file, with the directions and
//! bounds of `BENCHMARK.json` and the absolute floors of
//! `agentnet_benchmark::compare::FLOORS`. It prints one row per workload × metric
//! and exits 1 when any row is worse or unresolved.

use agentnet_benchmark::compare::{floor, judge, judge_failures, Direction, Verdict};
use agentnet_benchmark::trace::Trace;
use agentnet_benchmark::{run_workload, Outcome, RunSpec, Scale, Workload};
use serde_json::{json, Map, Value};
use std::process::{Command, ExitCode, Stdio};

const TRACE_FILE: &str = "bench_trace.json";
const RESULT_FILE: &str = "bench_result.json";
const SPEC_FILE: &str = "BENCHMARK.json";

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      bench run [--seed N] [--seconds S] [--trace]\n\
         \x20      bench compare --parent FILE... --change FILE... [--spec FILE]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some(_) => one_workload(&args),
        None => return usage(),
    };
    result.unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        ExitCode::from(2)
    })
}

/// Parses `--flag value` pairs; `switches` take no value.
fn flags(args: &[String], switches: &[&str]) -> Result<Map<String, Value>, String> {
    let mut out = Map::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag:?}"));
        };
        if switches.contains(&name) {
            out.insert(name, Value::Bool(true));
        } else {
            let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
            out.insert(name, Value::String(value.clone()));
        }
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    flags: &Map<String, Value>,
    name: &str,
) -> Result<Option<T>, String> {
    flags
        .get(name)
        .and_then(Value::as_str)
        .map(|v| v.parse::<T>().map_err(|_| format!("--{name}: cannot parse {v:?}")))
        .transpose()
}

fn one_workload(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &[])?;
    for key in f.keys() {
        if !["workload", "seed", "seconds", "trace"].contains(&key.as_str()) {
            return Ok(usage());
        }
    }
    let Some(workload) = parsed::<String>(&f, "workload")? else { return Ok(usage()) };
    let workload: Workload = workload.parse()?;
    let trace = match parsed::<u8>(&f, "trace")? {
        None | Some(0) => false,
        Some(1) => true,
        Some(_) => return Ok(usage()),
    };
    let spec = RunSpec {
        seed: parsed(&f, "seed")?.unwrap_or(42),
        seconds: match parsed::<f64>(&f, "seconds")? {
            Some(s) if s > 0.0 => s,
            Some(_) => return Err("--seconds must be positive".into()),
            None => run_seconds()?,
        },
        trace,
        scale: Scale::full(),
    };
    eprintln!(
        "bench: {workload} seed={} seconds={} trace={} cores={}",
        spec.seed,
        spec.seconds,
        u8::from(trace),
        agentnet_benchmark::procfs::cores()
    );
    let outcome = run_workload(workload, &spec)?;
    report(&outcome, trace);
    if trace {
        merge_trace(workload, spec.seed, &outcome)?;
    }
    println!("{}", serde_json::to_string(&outcome.detail()).map_err(|e| e.to_string())?);
    println!("{}", serde_json::to_string(&outcome.result_line(trace)).map_err(|e| e.to_string())?);
    Ok(if outcome.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The human report of one run, on stderr.
fn report(outcome: &Outcome, trace: bool) {
    let list = if trace { &outcome.per_layer } else { &outcome.end_to_end };
    for m in list.iter().chain(&outcome.extra) {
        eprintln!("  {:<34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    eprintln!("  {:<34} {:>14} count", "ops_total", outcome.attempted);
    eprintln!("  {:<34} {:>14} count", "ops_failed", outcome.failed);
    for c in &outcome.checks {
        match &c.result {
            Ok(()) => eprintln!("  check {}: ok", c.name),
            Err(e) => eprintln!("  check {}: FAILED: {e}", c.name),
        }
    }
}

/// Writes this run's spans under its workload's key of
/// `bench_trace.json`, keeping the other workloads' entries.
fn merge_trace(workload: Workload, seed: u64, outcome: &Outcome) -> Result<(), String> {
    let mut all = std::fs::read_to_string(TRACE_FILE)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .and_then(|v| v.as_object().cloned())
        .unwrap_or_default();
    let spans = outcome.trace.as_ref().map_or(Value::Null, Trace::to_json);
    all.insert(workload.name(), json!({ "seed": seed, "spans": spans }));
    std::fs::write(
        TRACE_FILE,
        serde_json::to_string(&Value::Object(all)).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("write {TRACE_FILE}: {e}"))
}

/// A JSON value as text, strings unquoted.
fn show(v: &Value) -> String {
    match v.as_str() {
        Some(s) => s.to_string(),
        None => serde_json::to_string(v).unwrap_or_default(),
    }
}

/// `BENCHMARK.json`, from the working directory.
fn spec_file(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn run_seconds() -> Result<f64, String> {
    spec_file(SPEC_FILE)?["run_seconds"]
        .as_f64()
        .ok_or_else(|| format!("{SPEC_FILE} has no run_seconds"))
}

/// Runs one workload in a child process; returns its detail and result
/// lines.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate bench: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    match lines.as_slice() {
        [.., detail, result] => Ok((
            serde_json::from_str(detail).map_err(|e| format!("{workload} detail: {e}"))?,
            serde_json::from_str(result).map_err(|e| format!("{workload} result: {e}"))?,
        )),
        _ => Err(format!("{workload} exited {} without a result", output.status)),
    }
}

fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["trace"])?;
    for key in f.keys() {
        if !["seed", "seconds", "trace"].contains(&key.as_str()) {
            return Ok(usage());
        }
    }
    let seed: u64 = parsed(&f, "seed")?.unwrap_or(42);
    let seconds = match parsed::<f64>(&f, "seconds")? {
        Some(s) => s,
        None => run_seconds()?,
    };
    let trace = f.contains_key("trace");
    let started = std::time::Instant::now();
    let mut ok = true;
    let mut details = Vec::new();
    for w in Workload::ALL {
        let (detail, result) = child(w, seed, seconds, false)?;
        ok &= result["correct"].as_bool() == Some(true);
        details.push(detail);
    }
    let wall = started.elapsed().as_secs_f64();
    if trace {
        for (w, detail) in Workload::ALL.into_iter().zip(&mut details) {
            let (traced, result) = child(w, seed, seconds, true)?;
            ok &= result["correct"].as_bool() == Some(true);
            let p50 = |d: &Value| d["end_to_end"]["latency_ms_p50"]["value"].as_f64();
            let overhead = match (p50(detail), p50(&traced)) {
                (Some(untraced), Some(with)) => json!(100.0 * (with / untraced - 1.0)),
                _ => Value::Null,
            };
            if let Value::Object(map) = detail {
                map.insert("trace_overhead_pct", overhead);
                map.insert("traced", traced);
            }
        }
    }
    let workloads: Map<String, Value> =
        Workload::ALL.iter().map(|w| w.name().to_string()).zip(details).collect();

    println!(
        "# agentnet benchmark — seed {seed}, {seconds} s per workload, untraced runs {wall:.1} s \
         wall\n"
    );
    println!("| workload | metric | value | unit |\n|---|---|---|---|");
    for (name, d) in workloads.iter() {
        for (metric, m) in d["end_to_end"].as_object().into_iter().flat_map(|o| o.iter()) {
            println!("| {name} | {metric} | {} | {} |", show(&m["value"]), show(&m["unit"]));
        }
        println!("| {name} | ops_total | {} | count |", show(&d["attempted"]));
        println!("| {name} | ops_failed | {} | count |", show(&d["failed"]));
    }
    if trace {
        println!("\n## per layer (traced run)\n\n| workload | metric | value | unit |\n|---|---|---|---|");
        for (name, d) in workloads.iter() {
            let t = &d["traced"];
            let per_layer = t["per_layer"].as_object().cloned().unwrap_or_default();
            let extra = t["extra"].as_object().cloned().unwrap_or_default();
            let extra_only = extra.iter().filter(|(k, _)| !per_layer.contains_key(k));
            for (metric, m) in per_layer.iter().chain(extra_only) {
                println!("| {name} | {metric} | {} | {} |", show(&m["value"]), show(&m["unit"]));
            }
        }
        println!("\n## phases (traced run)\n\n| workload | whole | value | phases | sum | residual | trace_overhead_pct |\n|---|---|---|---|---|---|---|");
        for (name, d) in workloads.iter() {
            let p = &d["traced"]["phases"];
            let whole = p["value"].as_f64().unwrap_or(f64::NAN);
            let phases = p["phases"].as_object().cloned().unwrap_or_default();
            let sum: f64 = phases.values().filter_map(Value::as_f64).sum();
            let listed: Vec<String> = phases
                .iter()
                .map(|(k, v)| format!("{k}={:.4}", v.as_f64().unwrap_or(f64::NAN)))
                .collect();
            println!(
                "| {name} | {} | {whole:.4} {} | {} | {sum:.4} | {:.4} | {:.2} |",
                p["whole"].as_str().unwrap_or("-"),
                p["unit"].as_str().unwrap_or(""),
                listed.join(", "),
                whole - sum,
                d["trace_overhead_pct"].as_f64().unwrap_or(f64::NAN)
            );
        }
        println!(
            "\n## self time per span (traced run)\n\n| workload | span | count | total ms | self ms \
             |\n|---|---|---|---|---|"
        );
        for (name, d) in workloads.iter() {
            for (span, t) in d["traced"]["spans"].as_object().into_iter().flat_map(|o| o.iter()) {
                println!(
                    "| {name} | {span} | {} | {:.3} | {:.3} |",
                    show(&t["count"]),
                    t["total_ms"].as_f64().unwrap_or(f64::NAN),
                    t["self_ms"].as_f64().unwrap_or(f64::NAN)
                );
            }
        }
        println!("\nspans: {TRACE_FILE}");
    }

    let result = json!({
        "seed": seed,
        "seconds": seconds,
        "cores": agentnet_benchmark::procfs::cores(),
        "wall_s": wall,
        "workloads": Value::Object(workloads),
    });
    std::fs::write(
        RESULT_FILE,
        serde_json::to_string_pretty(&result).map_err(|e| e.to_string())? + "\n",
    )
    .map_err(|e| format!("write {RESULT_FILE}: {e}"))?;
    println!("\nwrote {RESULT_FILE}");
    if !ok {
        eprintln!("bench: an output check failed (see above)");
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let mut parent = Vec::new();
    let mut change = Vec::new();
    let mut spec_path = SPEC_FILE.to_string();
    let mut target: Option<&mut Vec<String>> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--parent" => target = Some(&mut parent),
            "--change" => target = Some(&mut change),
            "--spec" => spec_path = iter.next().ok_or("--spec needs a value")?.clone(),
            file => match target.as_deref_mut() {
                Some(list) => list.push(file.to_string()),
                None => return Ok(usage()),
            },
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Ok(usage());
    }
    let spec = spec_file(&spec_path)?;
    let load = |files: &[String]| -> Result<Vec<Value>, String> {
        files.iter().map(|f| spec_file(f)).collect()
    };
    let (parent, change) = (load(&parent)?, load(&change)?);
    println!(
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] | wins/pairs | bound | floor | verdict |\n|---|---|---|---|---|---|---|---|"
    );
    let mut clean = true;
    for w in Workload::ALL.map(Workload::name) {
        for m in spec["end_to_end"].as_array().into_iter().flatten() {
            let name = m["name"].as_str().ok_or("end_to_end entry without a name")?;
            let direction: Direction = m["better"].as_str().unwrap_or("").parse()?;
            let bound = m["bound"].as_f64().ok_or("end_to_end entry without a bound")?;
            let values = |runs: &[Value]| -> Result<Vec<f64>, String> {
                runs.iter()
                    .map(|r| {
                        r["workloads"][w]["end_to_end"][name]["value"]
                            .as_f64()
                            .ok_or_else(|| format!("a result lacks {w} {name}"))
                    })
                    .collect()
            };
            let j = judge(&values(&parent)?, &values(&change)?, direction, bound, floor(name));
            clean &= matches!(j.verdict, Verdict::Same | Verdict::Better);
            println!(
                "| {w} | {name} | {:.6} [{:.6}, {:.6}] | {:.6} [{:.6}, {:.6}] | {}/{} | {bound} | {} | {} |",
                j.parent.median,
                j.parent.q1,
                j.parent.q3,
                j.change.median,
                j.change.q1,
                j.change.q3,
                j.wins,
                j.pairs,
                floor(name),
                j.verdict
            );
        }
        let failures = |runs: &[Value]| -> Vec<(u64, u64)> {
            runs.iter()
                .map(|r| {
                    let d = &r["workloads"][w];
                    (d["attempted"].as_u64().unwrap_or(0), d["failed"].as_u64().unwrap_or(0))
                })
                .collect()
        };
        let verdict = judge_failures(&failures(&parent), &failures(&change));
        clean &= verdict == Verdict::Same;
        println!("| {w} | ops_failed share | | | | 0 | | {verdict} |");
    }
    Ok(if clean { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
