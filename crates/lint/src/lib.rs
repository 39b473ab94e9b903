//! `agentlint` — the workspace static-analysis pass.
//!
//! The reproduction's guarantees (resumable caching, metamorphic
//! validation, byte-identical reports) all rest on determinism and on
//! panic-free, allocation-free simulation kernels. PRs 1–3 established
//! those properties by convention; this crate turns them into
//! machine-checked rules that run as `repro lint` and in CI:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-unordered-iteration` | no hasher-ordered iteration in result-bearing crates |
//! | `no-ambient-entropy` | all randomness/time flows through `engine::rng` seeds |
//! | `no-panic-in-kernel` | step-path modules cannot abort mid-run |
//! | `no-alloc-in-hot-path` | `#[agentnet::hot_path]` kernels stay allocation-free |
//! | `no-lossy-cast` | float<->int `as` casts live only in clamped helpers |
//! | `no-relaxed-atomics` | weak atomic orderings only behind an audited allow |
//! | `no-lock-in-kernel` | kernels stay lock-free; shared reads go through the snapshot cell |
//! | `no-bare-spawn` | threads are scoped or owned by the serve worker set |
//!
//! Because the workspace builds fully offline, the analyzer is built on
//! a small hand-rolled lexer ([`lexer`]) rather than `syn`; rules match
//! token patterns with just enough structure (test spans, attribute
//! spans, hot-path bodies) to stay precise on this codebase.
//!
//! Suppression is two-tier: a `// agentlint::allow(<rule>) — why`
//! comment on (or directly above) the offending line for audited
//! exceptions, and a committed `lint.toml` baseline for grandfathered
//! debt. The gate fails on findings missing from the baseline *and* on
//! stale baseline entries, so the baseline can only shrink.

pub mod baseline;
pub mod context;
pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{find_workspace_root, lint_source, run_workspace, workspace_files};
pub use rules::{all_rules, Finding, Rule};
