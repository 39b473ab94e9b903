//! Deterministic time-step simulation engine.
//!
//! This crate is the paper's "2000/3000 lines of Java ... discrete event
//! scheduler, data-collection system" substrate, rebuilt as a reusable Rust
//! library:
//!
//! * [`sim`] — the time-step driver ([`TimeStepSim`]) used by both the
//!   mapping and routing simulations, plus the [`Step`] clock type.
//! * [`invariant`] — per-step invariant checking: an [`Invariant`]
//!   registry the checked driver [`run_until_checked`] threads through
//!   every simulation step (opt-in; the plain driver is untouched).
//! * [`rng`] — reproducible random-number streams: a master seed fans out
//!   into independent per-run / per-component streams.
//! * [`timeseries`] — per-step metric recording with windowed statistics
//!   (the paper averages connectivity over steps 150–300).
//! * [`stats`] — summary statistics and normal-approximation confidence
//!   intervals over replicate runs.
//! * [`cache`] — a content-addressed on-disk store of replicate results,
//!   keyed by experiment, configuration hash, and replicate seed.
//! * [`exec`] — the cell executor: flattens (experiment × parameter ×
//!   replicate) work across a shared worker pool, resumes from the cache,
//!   and emits structured run events. Every replicated run goes through
//!   it (the paper repeats every parameter setting 40 times).
//! * [`obs`] — structured observability: counters, gauges, fixed-bucket
//!   histograms and span timers behind a zero-overhead-when-disabled
//!   [`Metrics`] handle, snapshot-exportable as JSON or Prometheus text.
//! * [`table`] — markdown / CSV / JSON emission of result tables.
//! * [`plot`] — terminal sparklines and block charts of time series.
//!
//! # Example
//!
//! ```
//! use agentnet_engine::sim::{run_until, Step, TimeStepSim};
//!
//! struct Counter { ticks: u64 }
//! impl TimeStepSim for Counter {
//!     fn step(&mut self, _now: Step) { self.ticks += 1; }
//!     fn is_done(&self) -> bool { self.ticks >= 10 }
//! }
//!
//! let mut sim = Counter { ticks: 0 };
//! let outcome = run_until(&mut sim, Step::new(100));
//! assert!(outcome.finished);
//! assert_eq!(outcome.steps.as_u64(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod exec;
pub mod invariant;
pub mod obs;
pub mod plot;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod table;
pub mod timeseries;

pub use cache::ResultCache;
pub use exec::{Executor, RunEvent};
pub use invariant::{run_until_checked, Invariant, InvariantSet, InvariantViolation};
pub use obs::{Metrics, MetricsSnapshot};
pub use rng::SeedSequence;
pub use sim::{run_until, RunOutcome, Step, TimeStepSim};
pub use stats::Summary;
pub use timeseries::TimeSeries;
