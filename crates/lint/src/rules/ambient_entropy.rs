//! `no-ambient-entropy`: all randomness and time must flow through
//! `engine::rng` seeds so every run is replayable.
//!
//! Scope: the whole workspace except the sanctioned timing modules
//! (`engine::obs` and `serve::clock`), which exist precisely to own
//! wall-clock measurement — span-timer durations and query latencies
//! flow out of the simulation only, never into report bytes. Flags
//! `thread_rng`, `SystemTime::now`, `Instant::now`, and `rand::random`
//! (argless or turbofish) outside them. CLI-status and diagnostic
//! timing that provably cannot affect report bytes carries
//! `agentlint::allow` with a justification instead.

use crate::context::FileContext;
use crate::rules::{ident_at, path_sep_at, Finding, Rule};

pub struct AmbientEntropy;

/// Files allowed to read the wall clock: the span timers of the metrics
/// registry and the serve daemon's clock module (query latency /
/// snapshot staleness flow out of the daemon only — replies are pure
/// functions of the snapshot).
const TIMING_FILES: &[&str] = &["crates/engine/src/obs.rs", "crates/serve/src/clock.rs"];

impl Rule for AmbientEntropy {
    fn name(&self) -> &'static str {
        "no-ambient-entropy"
    }

    fn description(&self) -> &'static str {
        "thread_rng / SystemTime::now / Instant::now / rand::random outside engine::obs and serve::clock"
    }

    fn check(&self, ctx: &FileContext, findings: &mut Vec<Finding>) {
        if TIMING_FILES.contains(&ctx.rel_path.as_str()) {
            return;
        }
        let toks = &ctx.tokens;
        for i in 0..toks.len() {
            if ctx.in_test(i) {
                continue;
            }
            let hit = if ident_at(toks, i, "thread_rng") {
                Some("`thread_rng` is unseeded")
            } else if ident_at(toks, i, "SystemTime")
                && path_sep_at(toks, i + 1)
                && ident_at(toks, i + 3, "now")
            {
                Some("`SystemTime::now` reads the wall clock")
            } else if ident_at(toks, i, "Instant")
                && path_sep_at(toks, i + 1)
                && ident_at(toks, i + 3, "now")
            {
                Some("`Instant::now` reads the wall clock")
            } else if ident_at(toks, i, "rand")
                && path_sep_at(toks, i + 1)
                && ident_at(toks, i + 3, "random")
            {
                Some("`rand::random` is unseeded")
            } else {
                None
            };
            if let Some(what) = hit {
                findings.push(Finding {
                    file: ctx.rel_path.clone(),
                    line: toks[i].line,
                    rule: self.name(),
                    message: format!(
                        "{what}; route randomness/time through engine::rng::SeedSequence (timing belongs in engine::obs)"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let ctx = FileContext::new(rel, src);
        let mut f = Vec::new();
        AmbientEntropy.check(&ctx, &mut f);
        f
    }

    #[test]
    fn flags_all_four_patterns() {
        let src = "fn f() {\n\
                   \x20   let a = rand::thread_rng();\n\
                   \x20   let b = std::time::SystemTime::now();\n\
                   \x20   let c = std::time::Instant::now();\n\
                   \x20   let d: f64 = rand::random();\n\
                   }\n";
        let f = run("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 4, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert_eq!(f[3].line, 5);
    }

    #[test]
    fn timing_modules_are_exempt() {
        let src = "fn t() { let s = std::time::Instant::now(); let _ = s; }\n";
        assert!(run("crates/engine/src/obs.rs", src).is_empty());
        assert!(run("crates/serve/src/clock.rs", src).is_empty());
        assert!(!run("crates/engine/src/exec.rs", src).is_empty());
        assert!(!run("crates/serve/src/server.rs", src).is_empty());
    }

    #[test]
    fn seeded_rng_calls_are_fine() {
        let src = "fn f(rng: &mut SmallRng) -> f64 { rng.random_range(0.0..1.0) }\n";
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_skipped() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }
}
