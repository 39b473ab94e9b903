//! End-to-end tests of the `repro` binary: report bytes must not
//! depend on the jobs count or cache state, and a second (resumed)
//! invocation must be served from the result cache.

use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro binary runs")
}

fn stdout(out: &Output) -> String {
    assert!(out.status.success(), "repro failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout.clone()).expect("stdout is utf-8")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agentnet-repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn stdout_is_identical_across_jobs_counts() {
    let serial = stdout(&repro(&["--smoke", "--no-cache", "--jobs", "1", "fig1"]));
    let parallel = stdout(&repro(&["--smoke", "--no-cache", "--jobs", "4", "fig1"]));
    assert!(serial.contains("## fig1"), "unexpected report:\n{serial}");
    assert_eq!(serial, parallel, "--jobs must not change report bytes");
}

#[test]
fn second_resumed_run_hits_the_cache_with_identical_output() {
    let cache = tmpdir("cache");
    let cache_arg = cache.to_str().unwrap();
    let args = ["--smoke", "--jobs", "2", "--resume", "--trace", "--cache-dir", cache_arg, "fig1"];

    let first = repro(&args);
    let second = repro(&args);
    assert_eq!(stdout(&first), stdout(&second), "resumed run must reproduce report bytes");

    let first_err = String::from_utf8_lossy(&first.stderr).to_string();
    let second_err = String::from_utf8_lossy(&second.stderr).to_string();
    // fig1 in smoke mode is 2 configurations x 2 replicates = 4 cells.
    assert_eq!(first_err.matches("cached=false").count(), 4, "stderr:\n{first_err}");
    assert_eq!(second_err.matches("cached=true").count(), 4, "stderr:\n{second_err}");
    assert!(second_err.contains("100%"), "stderr should report a full hit rate:\n{second_err}");

    std::fs::remove_dir_all(&cache).unwrap();
}

#[test]
fn no_cache_runs_leave_no_cache_directory() {
    let cache = tmpdir("nocache");
    let out = repro(&[
        "--smoke",
        "--no-cache",
        "--jobs",
        "1",
        "--cache-dir",
        cache.to_str().unwrap(),
        "fig1",
    ]);
    stdout(&out);
    assert!(!cache.exists(), "--no-cache must not write {}", cache.display());
}

#[test]
fn filter_selects_by_id_substring() {
    let out = stdout(&repro(&["--smoke", "--no-cache", "--filter", "ext-degradation"]));
    assert!(out.contains("## ext-degradation"), "filtered report missing:\n{out}");
    assert!(!out.contains("## fig"), "--filter must drop unmatched experiments:\n{out}");
}

#[test]
fn zoo_report_bytes_survive_jobs_and_check_flags() {
    // The protocol-zoo figure family is golden: byte-identical across
    // parallelism and with the invariant checker observing every arm.
    let serial = stdout(&repro(&["--smoke", "--no-cache", "--jobs", "1", "ext-zoo"]));
    assert!(serial.contains("## ext-zoo"), "unexpected report:\n{serial}");
    for arm in ["agents", "stigmergic", "antnet", "epidemic", "spray-and-wait"] {
        assert!(serial.contains(arm), "report missing the {arm} arm:\n{serial}");
    }
    let parallel = stdout(&repro(&["--smoke", "--no-cache", "--jobs", "4", "ext-zoo"]));
    assert_eq!(serial, parallel, "--jobs must not change zoo report bytes");
    let checked = stdout(&repro(&["--smoke", "--no-cache", "--jobs", "4", "--check", "ext-zoo"]));
    assert_eq!(serial, checked, "--check must not change zoo report bytes");
}

#[test]
fn zoo_manifest_records_the_protocol_arms() {
    let dir = tmpdir("zoo-manifest");
    std::fs::create_dir_all(&dir).unwrap();
    let manifest_path = dir.join("manifest.json");
    stdout(&repro(&[
        "--smoke",
        "--no-cache",
        "--jobs",
        "2",
        "--metrics-out",
        manifest_path.to_str().unwrap(),
        "ext-zoo-cache",
    ]));
    let manifest_text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let manifest = agentnet_experiments::RunManifest::from_json(&manifest_text)
        .expect("manifest parses under the committed schema");
    assert_eq!(
        manifest.protocols,
        ["agents", "stigmergic", "antnet", "epidemic", "spray-and-wait"],
        "manifest:\n{manifest_text}"
    );
    assert!(
        manifest.metrics.counters.contains_key("zoo_replicates_total"),
        "zoo counters missing:\n{manifest_text}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn validate_protocol_flag_restricts_the_battery_to_one_arm() {
    let out = repro(&["validate", "--protocol", "antnet"]);
    let text = stdout(&out);
    assert!(text.contains("zoo-tables-antnet"), "missing arm tables check:\n{text}");
    assert!(text.contains("zoo-claims-antnet"), "missing arm claims check:\n{text}");
    assert!(!text.contains("zoo-tables-agents"), "other arms must be skipped:\n{text}");
    assert!(!text.contains("FAIL"), "restricted battery should be green:\n{text}");

    let bad = repro(&["validate", "--protocol", "bogus"]);
    assert!(!bad.status.success(), "an unknown arm must be rejected");
}

#[test]
fn unknown_id_is_rejected() {
    let out = repro(&["--smoke", "fig99"]);
    assert!(!out.status.success());
}

#[test]
fn check_flag_does_not_change_report_bytes() {
    // Invariant checking observes the sims; it must not perturb them.
    let plain = stdout(&repro(&["--smoke", "--no-cache", "--jobs", "2", "fig1"]));
    let checked = stdout(&repro(&["--smoke", "--no-cache", "--jobs", "2", "--check", "fig1"]));
    assert_eq!(plain, checked, "--check must not change report bytes");
}

#[test]
fn validate_subcommand_passes_and_prints_the_table() {
    let out = repro(&["validate", "--seed", "2010"]);
    let text = stdout(&out);
    assert!(text.contains("# agentnet validate"), "missing header:\n{text}");
    assert!(text.contains("| check"), "missing table header:\n{text}");
    assert!(text.contains("PASS"), "no passing rows:\n{text}");
    assert!(!text.contains("FAIL"), "battery should be green:\n{text}");
    // The acceptance floor: at least 8 invariants and 4 metamorphic or
    // differential relations actually ran (cells are padded, so match
    // on the kind word followed by padding).
    assert!(text.matches("| invariant ").count() >= 8, "too few invariant rows:\n{text}");
    let relations =
        text.matches("| metamorphic ").count() + text.matches("| differential ").count();
    assert!(relations >= 4, "too few relation rows:\n{text}");
}

#[test]
fn observability_flags_do_not_change_stdout_bytes() {
    let dir = tmpdir("obs");
    std::fs::create_dir_all(&dir).unwrap();
    let manifest_path = dir.join("manifest.json");
    let prom_path = dir.join("metrics.prom");
    let trace_path = dir.join("trace.jsonl");

    for fig in ["fig1", "fig7"] {
        let plain = stdout(&repro(&["--smoke", "--no-cache", "--jobs", "2", fig]));
        let observed = stdout(&repro(&[
            "--smoke",
            "--no-cache",
            "--jobs",
            "2",
            "--metrics-out",
            manifest_path.to_str().unwrap(),
            "--metrics-prom",
            prom_path.to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
            fig,
        ]));
        assert_eq!(plain, observed, "{fig}: observability flags must not change stdout");
    }

    // The last iteration's files (fig7) must be well-formed.
    let manifest_text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let manifest = agentnet_experiments::RunManifest::from_json(&manifest_text)
        .expect("manifest parses under the committed schema");
    assert_eq!(manifest.schema, agentnet_experiments::MANIFEST_SCHEMA);
    assert_eq!(manifest.mode, "smoke");
    assert!(!manifest.cache.enabled, "--no-cache run must record a disabled cache");
    assert_eq!(manifest.experiments.len(), 1);
    assert_eq!(manifest.experiments[0].id, "fig7");
    assert!(manifest.experiments[0].cells > 0, "manifest:\n{manifest_text}");
    let cells: u64 = manifest
        .metrics
        .counters
        .get("exec_cells_total")
        .copied()
        .expect("executor cell counter present");
    assert_eq!(cells, manifest.experiments[0].cells);
    assert!(
        manifest.metrics.counters.contains_key("routing_replicates_total"),
        "simulation counters missing:\n{manifest_text}"
    );
    assert!(
        manifest.metrics.histograms.contains_key("exec_cell_micros"),
        "cell-time histogram missing:\n{manifest_text}"
    );

    let prom = std::fs::read_to_string(&prom_path).expect("prom file written");
    assert!(prom.contains("# TYPE agentnet_exec_cells_total counter"), "prom:\n{prom}");
    assert!(prom.contains("agentnet_exec_cell_micros_bucket{le=\"+Inf\"}"), "prom:\n{prom}");

    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    assert!(trace.ends_with('\n'), "trace export must be newline-terminated");
    let mut events = 0usize;
    for line in trace.lines() {
        let value = serde_json::parse(line).expect("every trace line is JSON");
        assert_eq!(value.get("experiment").and_then(|v| v.as_str()), Some("fig7"), "{line}");
        let event = value.get("event").expect("tagged simulation event");
        let _: agentnet_core::trace::TraceEvent =
            serde_json::from_value(event).expect("event deserializes");
        events += 1;
    }
    assert!(events > 0, "fig7 replicates should trace at least one event");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_dump_routes_is_deterministic_and_matches_the_golden_file() {
    let args = ["serve", "--nodes", "120", "--seed", "9", "--warmup", "50", "--dump-routes"];
    let first = stdout(&repro(&args));
    let second = stdout(&repro(&args));
    assert_eq!(first, second, "--dump-routes must be a pure function of its flags");
    // The golden file is this command's output, pinned byte for byte:
    // a diff here is a change to what a frozen daemon serves.
    let golden = include_str!("serve_dump_routes.txt");
    assert_eq!(first, golden, "served routes diverged from the golden dump");
}

#[test]
fn serve_daemon_answers_udp_queries_started_from_the_cli() {
    use std::io::BufRead;

    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--nodes", "80", "--seed", "5", "--warmup", "40", "--duration-secs", "30"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("repro serve spawns");
    let mut startup = String::new();
    std::io::BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut startup)
        .expect("startup line");
    let result = std::panic::catch_unwind(|| {
        let udp = startup
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("udp="))
            .unwrap_or_else(|| panic!("no udp= in startup line: {startup}"))
            .to_string();
        let socket = std::net::UdpSocket::bind("127.0.0.1:0").expect("client socket");
        socket.set_read_timeout(Some(std::time::Duration::from_secs(5))).expect("timeout set");
        socket.send_to(b"7 INFO", &udp).expect("query sent");
        let mut buf = [0u8; 512];
        let (n, _) = socket.recv_from(&mut buf).expect("daemon replied");
        let reply = String::from_utf8_lossy(&buf[..n]).into_owned();
        assert!(reply.starts_with("7 OK "), "unexpected reply: {reply}");
        assert!(reply.contains("nodes=80"), "unexpected reply: {reply}");
    });
    let _ = child.kill();
    let _ = child.wait();
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn validate_injected_failure_exits_nonzero_and_names_the_invariant() {
    let out = repro(&["validate", "--inject-failure"]);
    assert!(!out.status.success(), "an invariant violation must fail the process");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("injected-failure"), "violation not reported:\n{text}");
    assert!(text.contains("FAIL"), "no FAIL row:\n{text}");
    assert!(text.contains("checks FAILED"), "no failure summary:\n{text}");
}

/// `repro lint --format json` against a planted workspace: the schema-1
/// payload pins file, line, rule, message routing and source snippets,
/// and the exit code still reflects the baseline diff.
#[test]
fn lint_json_schema_is_pinned_on_planted_findings() {
    let dir = tmpdir("lint-json");
    std::fs::create_dir_all(dir.join("crates/core/src")).unwrap();
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(dir.join("lint.toml"), "").unwrap();
    // policy.rs is on the kernel list: the Mutex import trips
    // no-lock-in-kernel and the Relaxed load trips no-relaxed-atomics.
    std::fs::write(
        dir.join("crates/core/src/policy.rs"),
        "use std::sync::Mutex;\n\
         fn f(a: &std::sync::atomic::AtomicU64) -> u64 {\n\
         \x20   a.load(Ordering::Relaxed)\n\
         }\n",
    )
    .unwrap();
    let out = repro(&["lint", "--root", dir.to_str().unwrap(), "--format", "json"]);
    assert!(!out.status.success(), "planted findings must fail the gate");
    let text = String::from_utf8(out.stdout.clone()).expect("stdout is utf-8");
    let v = serde_json::parse(&text).expect("--format json emits one valid JSON object");
    assert_eq!(v.get("schema").and_then(Value::as_u64), Some(1), "{text}");

    let findings = v.get("findings").and_then(Value::as_array).expect("findings array");
    let rows: Vec<(&str, u64, &str, &str)> = findings
        .iter()
        .map(|f| {
            (
                f.get("file").and_then(Value::as_str).expect("file"),
                f.get("line").and_then(Value::as_u64).expect("line"),
                f.get("rule").and_then(Value::as_str).expect("rule"),
                f.get("snippet").and_then(Value::as_str).expect("snippet"),
            )
        })
        .collect();
    assert_eq!(
        rows,
        [
            ("crates/core/src/policy.rs", 1, "no-lock-in-kernel", "use std::sync::Mutex;"),
            ("crates/core/src/policy.rs", 3, "no-relaxed-atomics", "a.load(Ordering::Relaxed)"),
        ],
        "{text}"
    );
    assert!(
        findings.iter().all(|f| f.get("message").and_then(Value::as_str).is_some()),
        "every finding carries a message: {text}"
    );
    // With an empty baseline, everything is new and nothing is stale.
    assert_eq!(v.get("new").and_then(Value::as_array).map(Vec::len), Some(2), "{text}");
    assert_eq!(v.get("stale").and_then(Value::as_array).map(Vec::len), Some(0), "{text}");
    let counts = v.get("counts").expect("counts object");
    assert_eq!(counts.get("findings").and_then(Value::as_u64), Some(2), "{text}");
    assert_eq!(counts.get("new").and_then(Value::as_u64), Some(2), "{text}");
    assert_eq!(counts.get("baselined").and_then(Value::as_u64), Some(0), "{text}");
    assert_eq!(counts.get("stale").and_then(Value::as_u64), Some(0), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The committed tree is clean under `--format json` too, and the rule
/// catalogue in the payload is the full 8-rule set in registry order.
#[test]
fn lint_json_on_the_workspace_is_clean_with_the_full_rule_catalogue() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = repro(&["lint", "--root", root.to_str().unwrap(), "--format", "json"]);
    let text = stdout(&out);
    let v = serde_json::parse(&text).expect("--format json emits one valid JSON object");
    let names: Vec<&str> = v
        .get("rules")
        .and_then(Value::as_array)
        .expect("rules array")
        .iter()
        .map(|r| r.get("name").and_then(Value::as_str).expect("rule name"))
        .collect();
    assert_eq!(
        names,
        [
            "no-unordered-iteration",
            "no-ambient-entropy",
            "no-panic-in-kernel",
            "no-alloc-in-hot-path",
            "no-lossy-cast",
            "no-relaxed-atomics",
            "no-lock-in-kernel",
            "no-bare-spawn",
        ],
        "{text}"
    );
    assert_eq!(v.get("findings").and_then(Value::as_array).map(Vec::len), Some(0), "{text}");
    assert_eq!(v.get("counts").and_then(|c| c.get("new")).and_then(Value::as_u64), Some(0));
}
