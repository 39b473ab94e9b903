//! `no-relaxed-atomics`: no weak atomic orderings outside audited
//! exceptions.
//!
//! Every `Ordering::` in the workspace carries an invariant comment
//! naming the edge it provides. An `Ordering::Relaxed` (no cross-thread
//! visibility) or `Ordering::AcqRel` (a combined pairing that deserves
//! an argument) is either a latent reordering bug or an undocumented
//! cleverness — both of which this rule makes explicit: use the plain
//! Acquire/Release pair, or keep the weak ordering behind an
//! `agentlint::allow` with a justification (e.g. a ticket counter where
//! only atomicity matters and a join provides the real barrier).

use crate::context::FileContext;
use crate::rules::{ident_at, path_sep_at, Finding, Rule};

pub struct RelaxedAtomics;

impl Rule for RelaxedAtomics {
    fn name(&self) -> &'static str {
        "no-relaxed-atomics"
    }

    fn description(&self) -> &'static str {
        "Ordering::Relaxed / Ordering::AcqRel without an audited agentlint::allow"
    }

    fn check(&self, ctx: &FileContext, findings: &mut Vec<Finding>) {
        let toks = &ctx.tokens;
        for i in 0..toks.len() {
            if ctx.in_test(i) {
                continue;
            }
            if !(ident_at(toks, i, "Ordering") && path_sep_at(toks, i + 1)) {
                continue;
            }
            let hit = if ident_at(toks, i + 3, "Relaxed") {
                Some("`Ordering::Relaxed` gives no cross-thread visibility")
            } else if ident_at(toks, i + 3, "AcqRel") {
                Some("`Ordering::AcqRel` combines both directions in one op")
            } else {
                None
            };
            if let Some(what) = hit {
                findings.push(Finding {
                    file: ctx.rel_path.clone(),
                    line: toks[i].line,
                    rule: self.name(),
                    message: format!(
                        "{what}; use the plain Acquire/Release pair with an invariant comment, or justify with agentlint::allow"
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
        RelaxedAtomics.check(&ctx, &mut f);
        f
    }

    #[test]
    fn flags_relaxed_and_acqrel() {
        let src = "fn f(a: &AtomicU64) -> u64 {\n\
                   \x20   a.store(1, Ordering::Relaxed);\n\
                   \x20   a.fetch_add(1, std::sync::atomic::Ordering::AcqRel)\n\
                   }\n";
        let f = run("crates/engine/src/x.rs", src);
        let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, [2, 3], "{f:?}");
    }

    #[test]
    fn acquire_release_seqcst_are_fine() {
        let src = "fn f(a: &AtomicU64) -> u64 {\n\
                   \x20   a.store(1, Ordering::Release);\n\
                   \x20   a.fetch_add(1, Ordering::SeqCst);\n\
                   \x20   a.load(Ordering::Acquire)\n\
                   }\n";
        assert!(run("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_skipped() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t(a: &AtomicU64) { a.store(1, Ordering::Relaxed); }\n}\n";
        assert!(run("crates/engine/src/x.rs", src).is_empty());
    }
}
