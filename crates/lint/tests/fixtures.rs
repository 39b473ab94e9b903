//! Fixture-based end-to-end tests for the lint engine.
//!
//! Each fixture under `tests/fixtures/` is linted through the same
//! `lint_source` entry point `repro lint` uses, with a synthetic
//! workspace-relative path that puts it in the rule's scope. The
//! assertions pin the exact `file:line rule` output so a rule that
//! drifts (wrong line attribution, lost finding, spurious finding)
//! fails loudly here before it reaches the workspace gate.

use std::path::Path;

use agentnet_lint::baseline;
use agentnet_lint::{find_workspace_root, lint_source, run_workspace, Finding};

/// Lints `src` under the synthetic path and returns `(line, rule)`
/// pairs in engine (sorted) order.
fn lines_and_rules(rel: &str, src: &str) -> Vec<(u32, &'static str)> {
    lint_source(rel, src).into_iter().map(|f| (f.line, f.rule)).collect()
}

fn rendered(rel: &str, src: &str) -> Vec<String> {
    lint_source(rel, src).iter().map(Finding::to_string).collect()
}

#[test]
fn unordered_iteration_fixture() {
    let src = include_str!("fixtures/unordered_iteration.rs");
    let rel = "crates/core/src/fixture.rs";
    assert_eq!(
        lines_and_rules(rel, src),
        [
            (6, "no-unordered-iteration"),  // `.iter()` on the HashMap param
            (6, "no-unordered-iteration"),  // `for` over the same expression
            (13, "no-unordered-iteration"), // `.iter()` on the HashSet param
        ],
        "{:#?}",
        lint_source(rel, src)
    );
    // Out of scope, the same source is clean.
    assert!(lint_source("crates/engine/src/fixture.rs", src).is_empty());
}

#[test]
fn ambient_entropy_fixture() {
    let src = include_str!("fixtures/ambient_entropy.rs");
    let rel = "crates/core/src/fixture.rs";
    assert_eq!(
        lines_and_rules(rel, src),
        [(3, "no-ambient-entropy"), (8, "no-ambient-entropy")],
        "{:#?}",
        lint_source(rel, src)
    );
    // The sanctioned timing modules are exempt.
    assert!(lint_source("crates/engine/src/obs.rs", src).is_empty());
}

#[test]
fn panic_in_kernel_fixture() {
    let src = include_str!("fixtures/panic_in_kernel.rs");
    // Kernel scope is an explicit file list; borrow a real kernel path.
    let rel = "crates/core/src/policy.rs";
    assert_eq!(
        lines_and_rules(rel, src),
        [
            (3, "no-panic-in-kernel"),  // v[0]
            (7, "no-panic-in-kernel"),  // .unwrap()
            (11, "no-panic-in-kernel"), // .expect(...)
        ],
        "{:#?}",
        lint_source(rel, src)
    );
    assert!(lint_source("crates/engine/src/fixture.rs", src).is_empty());
}

#[test]
fn alloc_in_hot_path_fixture() {
    let src = include_str!("fixtures/alloc_in_hot_path.rs");
    // The rule keys off #[agentnet::hot_path], not the path.
    let rel = "crates/core/src/fixture.rs";
    let findings = lint_source(rel, src);
    assert_eq!(
        lines_and_rules(rel, src),
        [(7, "no-alloc-in-hot-path")], // `.to_vec()` inside `hot`; `cold` is unmarked
        "{findings:#?}"
    );
    assert!(findings[0].message.contains("`hot`"), "{findings:#?}");
}

#[test]
fn lossy_cast_fixture() {
    let src = include_str!("fixtures/lossy_cast.rs");
    let rel = "crates/graph/src/fixture.rs";
    assert_eq!(
        lines_and_rules(rel, src),
        [(3, "no-lossy-cast"), (7, "no-lossy-cast")],
        "{:#?}",
        lint_source(rel, src)
    );
    assert!(lint_source("crates/engine/src/fixture.rs", src).is_empty());
}

#[test]
fn relaxed_atomics_fixture() {
    let src = include_str!("fixtures/relaxed_atomics.rs");
    let rel = "crates/engine/src/fixture.rs";
    assert_eq!(
        lines_and_rules(rel, src),
        [
            (4, "no-relaxed-atomics"), // store(.., Relaxed)
            (8, "no-relaxed-atomics"), // fetch_add(.., AcqRel)
                                       // line 18 is Relaxed too, but carries an allow + why.
        ],
        "{:#?}",
        lint_source(rel, src)
    );
}

#[test]
fn lock_in_kernel_fixture() {
    let src = include_str!("fixtures/lock_in_kernel.rs");
    // Kernel scope is the shared file list; borrow a real kernel path.
    let rel = "crates/core/src/mapping.rs";
    assert_eq!(
        lines_and_rules(rel, src),
        [
            (1, "no-lock-in-kernel"),  // use std::sync::Mutex
            (4, "no-lock-in-kernel"),  // Mutex<u64> field
            (8, "no-lock-in-kernel"),  // .lock() in kernel fn
            (17, "no-lock-in-kernel"), // .lock() in hot-path fn
        ],
        "{:#?}",
        lint_source(rel, src)
    );
    // Outside the kernel list, only the #[agentnet::hot_path] body counts.
    assert_eq!(
        lines_and_rules("crates/engine/src/fixture.rs", src),
        [(17, "no-lock-in-kernel")],
        "{:#?}",
        lint_source("crates/engine/src/fixture.rs", src)
    );
}

#[test]
fn bare_spawn_fixture() {
    let src = include_str!("fixtures/bare_spawn.rs");
    let rel = "crates/experiments/src/fixture.rs";
    assert_eq!(
        lines_and_rules(rel, src),
        [
            (2, "no-bare-spawn"), // std::thread::spawn
            (3, "no-bare-spawn"), // std::thread::Builder
                                  // `structured` uses std::thread::scope + s.spawn: clean.
        ],
        "{:#?}",
        lint_source(rel, src)
    );
    // The serve worker module owns its threads (named, joined on shutdown).
    assert!(lint_source("crates/serve/src/server.rs", src).is_empty());
}

/// The output contract consumed by CI logs and the baseline:
/// `file:line rule message`, stably sorted.
#[test]
fn output_format_is_file_line_rule_message() {
    let src = include_str!("fixtures/ambient_entropy.rs");
    let out = rendered("crates/core/src/fixture.rs", src);
    assert_eq!(
        out[0],
        "crates/core/src/fixture.rs:3 no-ambient-entropy `thread_rng` is unseeded; \
         route randomness/time through engine::rng::SeedSequence \
         (timing belongs in engine::obs)"
    );
    let mut sorted = out.clone();
    sorted.sort();
    assert_eq!(out, sorted, "engine output must be stably sorted");
}

/// An `agentlint::allow` directive suppresses a finding on its own line
/// and on the line directly below — and nothing further.
#[test]
fn allow_directive_suppresses_next_line_only() {
    let rel = "crates/core/src/fixture.rs";
    let suppressed = "fn f() {\n\
                      \x20   // agentlint::allow(no-ambient-entropy)\n\
                      \x20   let t = std::time::Instant::now();\n\
                      \x20   let _ = t;\n\
                      }\n";
    assert!(lint_source(rel, suppressed).is_empty());
    let too_far = "fn f() {\n\
                   \x20   // agentlint::allow(no-ambient-entropy)\n\
                   \x20   let x = 1;\n\
                   \x20   let t = std::time::Instant::now();\n\
                   \x20   let _ = (x, t);\n\
                   }\n";
    assert_eq!(lines_and_rules(rel, too_far), [(4, "no-ambient-entropy")]);
    let wrong_rule = "fn f() {\n\
                      \x20   // agentlint::allow(no-lossy-cast)\n\
                      \x20   let t = std::time::Instant::now();\n\
                      \x20   let _ = t;\n\
                      }\n";
    assert_eq!(lines_and_rules(rel, wrong_rule), [(3, "no-ambient-entropy")]);
}

/// Self-check: the committed tree is clean against the committed
/// baseline — no new findings, no stale entries. This is the same
/// comparison `repro lint` exits non-zero on, so a PR that introduces a
/// hazard (or fixes one without regenerating `lint.toml`) fails the
/// test suite too, not just the CI lint job.
#[test]
fn workspace_is_clean_against_committed_baseline() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let findings = run_workspace(&root).expect("workspace sources are readable");
    let entries = baseline::load(&root.join("lint.toml")).expect("lint.toml parses");
    let diff = baseline::diff(&findings, &entries);
    assert!(
        diff.new.is_empty(),
        "non-baselined findings:\n{}",
        diff.new.iter().map(|f| format!("  {f}\n")).collect::<String>()
    );
    assert!(
        diff.stale.is_empty(),
        "stale baseline entries (regenerate with `repro lint --baseline`):\n{}",
        diff.stale
            .iter()
            .map(|e| format!("  {}:{} {}\n", e.file, e.line, e.rule))
            .collect::<String>()
    );
}
