//! Structured observability: counters, gauges, fixed-bucket histograms
//! and span timers behind a single cloneable [`Metrics`] handle.
//!
//! The paper's simulator is a "data-collection system"; this module is
//! its production-shaped counterpart. Design constraints:
//!
//! * **Zero overhead when disabled.** [`Metrics::disabled`] carries no
//!   registry; every recording call is an early-return on a `None` and
//!   span timers never read the clock. Simulation results must be
//!   byte-identical with metrics on or off — observability is a side
//!   channel, never an input.
//! * **Deterministic.** The registry is `BTreeMap`-ordered, so
//!   snapshots, JSON manifests and Prometheus expositions list series
//!   in a stable order. No ambient entropy enters any measured value
//!   except wall-clock *durations*, which never feed back into reports.
//! * **Fixed buckets.** Histograms take their bucket bounds at first
//!   observation and never resize, so merged/serialized output is
//!   comparable across runs.
//!
//! This file is one of the sanctioned timing modules under agentlint's
//! `no-ambient-entropy` rule: [`SpanTimer`] owns the only `Instant`
//! reads, and only while a registry is attached.
//!
//! # Example
//!
//! ```
//! use agentnet_engine::obs::{Metrics, DURATION_MICROS_BUCKETS};
//!
//! let metrics = Metrics::enabled();
//! metrics.counter_add("cells_total", 3);
//! metrics.observe("cell_micros", 42.0, DURATION_MICROS_BUCKETS);
//! {
//!     let _span = metrics.span("phase_micros"); // records on drop
//! }
//! let snap = metrics.snapshot();
//! assert_eq!(snap.counters["cells_total"], 3);
//! assert!(snap.to_prometheus().contains("agentnet_cells_total 3"));
//! ```

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default histogram buckets for durations measured in microseconds:
/// 1-2-5 steps per decade from 10µs to 10s, so an interpolated quantile
/// can tell a 2× change apart. Spans land here — once per step, cell or
/// replicate, never per query.
pub const DURATION_MICROS_BUCKETS: &[f64] = &[
    10.0,
    20.0,
    50.0,
    100.0,
    200.0,
    500.0,
    1_000.0,
    2_000.0,
    5_000.0,
    10_000.0,
    20_000.0,
    50_000.0,
    100_000.0,
    200_000.0,
    500_000.0,
    1_000_000.0,
    2_000_000.0,
    5_000_000.0,
    10_000_000.0,
];

/// A fixed-bucket histogram: counts per upper bound (a final implicit
/// `+Inf` bucket catches the rest), plus the sum and count of all
/// observations — exactly the shape Prometheus expects.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Inclusive upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<f64>,
    /// Per-bucket observation counts; one longer than `bounds` (the last
    /// entry is the `+Inf` bucket).
    counts: Vec<u64>,
    /// Sum of all observed values.
    sum: f64,
    /// Number of observations.
    count: u64,
}

impl Histogram {
    /// Creates an empty histogram over the given finite bucket bounds.
    ///
    /// Bounds are *normalized*, not trusted: non-finite entries (NaN,
    /// ±infinity) are rejected, the remainder is sorted ascending and
    /// deduplicated. An unsorted or duplicated bound list therefore
    /// produces the same histogram as its cleaned-up form instead of
    /// silently misbucketing every observation (the `+Inf` bucket is
    /// always implicit, so an explicit `f64::INFINITY` bound is
    /// redundant and dropped too).
    pub fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_unstable_by(|a, b| a.partial_cmp(b).expect("bounds are finite"));
        bounds.dedup();
        let counts = vec![0; bounds.len() + 1];
        Histogram { bounds, counts, sum: 0.0, count: 0 }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        if let Some(slot) = self.counts.get_mut(idx) {
            *slot += 1;
        }
        self.sum += value;
        self.count += 1;
    }

    /// Finite bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (last entry is the `+Inf` bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Estimates the value at quantile `q` (clamped to `0.0..=1.0`) by
    /// linear interpolation inside the bucket the quantile rank falls
    /// in — the same estimator as Prometheus's `histogram_quantile`.
    ///
    /// Conventions (matching Prometheus):
    /// * the first bucket interpolates from `0` when its upper bound is
    ///   positive, and reports its upper bound otherwise (so negative
    ///   buckets never fabricate values below their bound);
    /// * a rank landing in the implicit `+Inf` bucket reports the
    ///   largest finite bound — tail quantiles saturate rather than
    ///   extrapolate;
    /// * `None` with no observations, or with no finite buckets at all
    ///   (every observation in `+Inf` leaves nothing to interpolate).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let max_bound = self.bounds.last().copied()?;
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cumulative = 0u64;
        for (i, (&bound, &count)) in self.bounds.iter().zip(&self.counts).enumerate() {
            cumulative += count;
            if cumulative as f64 >= rank {
                let lower = if i == 0 {
                    if bound <= 0.0 {
                        return Some(bound);
                    }
                    0.0
                } else {
                    *self.bounds.get(i - 1)?
                };
                let below = cumulative - count;
                let fraction = (rank - below as f64) / count as f64;
                return Some(lower + (bound - lower) * fraction);
            }
        }
        // The rank lives in the +Inf bucket: saturate at the largest
        // finite bound.
        Some(max_bound)
    }

    /// The median estimate ([`Self::quantile`] at 0.5).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// The 95th-percentile estimate.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// The 99th-percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// A point-in-time copy of the registry: every counter, gauge and
/// histogram, `BTreeMap`-ordered so serialized output is deterministic.
/// This is the `metrics` section of the run manifest.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotone event counts.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins point values.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket distributions.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Keeps metric names inside the Prometheus charset
/// (`[a-zA-Z0-9_:]`); anything else becomes `_`.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

/// Formats a bucket bound the way Prometheus renders `le` labels:
/// the shortest decimal representation that parses back to exactly the
/// same `f64` (`1000`, not `1000.0`; `-0.5` and `0.00025` stay
/// intact). Rust's `Display` is already shortest-round-trip for every
/// finite float, including negative and sub-`1e-3` bounds; the
/// parse-back check guards the invariant, falling to the explicit
/// exponent form if it ever fails.
fn prom_bound(bound: f64) -> String {
    let text = format!("{bound}");
    if text.parse::<f64>().ok() == Some(bound) {
        text
    } else {
        format!("{bound:e}")
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format,
    /// every series prefixed `agentnet_`. Histograms emit cumulative
    /// `_bucket{le=...}` series plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = prom_name(name);
            out.push_str(&format!("# TYPE agentnet_{name} counter\n"));
            out.push_str(&format!("agentnet_{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let name = prom_name(name);
            out.push_str(&format!("# TYPE agentnet_{name} gauge\n"));
            out.push_str(&format!("agentnet_{name} {value}\n"));
        }
        for (name, hist) in &self.histograms {
            let name = prom_name(name);
            out.push_str(&format!("# TYPE agentnet_{name} histogram\n"));
            let mut cumulative = 0u64;
            for (bound, count) in hist.bounds.iter().zip(&hist.counts) {
                cumulative += count;
                out.push_str(&format!(
                    "agentnet_{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    prom_bound(*bound)
                ));
            }
            out.push_str(&format!("agentnet_{name}_bucket{{le=\"+Inf\"}} {}\n", hist.count));
            out.push_str(&format!("agentnet_{name}_sum {}\n", hist.sum));
            out.push_str(&format!("agentnet_{name}_count {}\n", hist.count));
        }
        out
    }
}

/// Cloneable handle to a shared metrics registry — or to nothing.
///
/// [`Metrics::disabled`] (also `Default`) is the zero-cost mode: every
/// method is a no-op returning immediately. [`Metrics::enabled`] backs
/// the handle with an `Arc<Mutex<MetricsSnapshot>>` shared by all
/// clones, so executor workers and experiment threads record into one
/// registry.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    inner: Option<Arc<Mutex<MetricsSnapshot>>>,
}

impl Metrics {
    /// A handle that records nothing (the default).
    pub fn disabled() -> Self {
        Metrics { inner: None }
    }

    /// A handle backed by a fresh registry.
    pub fn enabled() -> Self {
        Metrics { inner: Some(Arc::new(Mutex::new(MetricsSnapshot::default()))) }
    }

    /// Whether this handle is backed by a registry.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_registry(&self, f: impl FnOnce(&mut MetricsSnapshot)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.lock().expect("metrics registry mutex poisoned"));
        }
    }

    /// Adds `n` to the named counter (creating it at zero).
    pub fn counter_add(&self, name: &str, n: u64) {
        self.with_registry(|reg| {
            *reg.counters.entry(name.to_string()).or_insert(0) += n;
        });
    }

    /// Sets the named gauge (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.with_registry(|reg| {
            reg.gauges.insert(name.to_string(), value);
        });
    }

    /// Records `value` into the named histogram, created with `bounds`
    /// on first observation (later `bounds` arguments are ignored — the
    /// bucket layout is fixed at creation).
    pub fn observe(&self, name: &str, value: f64, bounds: &[f64]) {
        self.with_registry(|reg| {
            reg.histograms
                .entry(name.to_string())
                .or_insert_with(|| Histogram::new(bounds))
                .observe(value);
        });
    }

    /// Starts a span timer; on drop it records the elapsed wall time in
    /// microseconds into the named histogram (buckets
    /// [`DURATION_MICROS_BUCKETS`]). With a disabled handle the clock
    /// is never read.
    pub fn span(&self, name: &str) -> SpanTimer {
        SpanTimer {
            state: self
                .inner
                .as_ref()
                .map(|reg| (Arc::clone(reg), name.to_string(), Instant::now())),
        }
    }

    /// A copy of the registry's current contents (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.lock().expect("metrics registry mutex poisoned").clone(),
            None => MetricsSnapshot::default(),
        }
    }
}

/// Guard returned by [`Metrics::span`]: measures the wall time between
/// creation and drop and records it as a histogram observation.
/// Durations flow *out* of the simulation only — they never influence
/// simulated behavior, so runs stay deterministic.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct SpanTimer {
    state: Option<(Arc<Mutex<MetricsSnapshot>>, String, Instant)>,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some((registry, name, started)) = self.state.take() {
            let micros = started.elapsed().as_micros() as f64;
            if let Ok(mut reg) = registry.lock() {
                reg.histograms
                    .entry(name)
                    .or_insert_with(|| Histogram::new(DURATION_MICROS_BUCKETS))
                    .observe(micros);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        m.counter_add("c", 5);
        m.gauge_set("g", 1.5);
        m.observe("h", 3.0, DURATION_MICROS_BUCKETS);
        drop(m.span("s"));
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let m = Metrics::enabled();
        m.counter_add("cells", 2);
        m.counter_add("cells", 3);
        m.gauge_set("wall", 1.0);
        m.gauge_set("wall", 2.5);
        let snap = m.snapshot();
        assert_eq!(snap.counters["cells"], 5);
        assert_eq!(snap.gauges["wall"], 2.5);
    }

    #[test]
    fn clones_share_one_registry() {
        let m = Metrics::enabled();
        let clone = m.clone();
        clone.counter_add("shared", 1);
        m.counter_add("shared", 1);
        assert_eq!(m.snapshot().counters["shared"], 2);
    }

    #[test]
    fn histogram_buckets_observations() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[1, 2, 1, 1]); // 10.0 lands in its own bucket (le)
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 565.5).abs() < 1e-9);
    }

    #[test]
    fn span_records_a_duration() {
        let m = Metrics::enabled();
        {
            let _span = m.span("phase_micros");
        }
        let snap = m.snapshot();
        let h = &snap.histograms["phase_micros"];
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 0.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = Metrics::enabled();
        m.counter_add("a", 7);
        m.gauge_set("b", 0.25);
        m.observe("c", 42.0, &[10.0, 100.0]);
        let snap = m.snapshot();
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn prometheus_exposition_is_complete_and_ordered() {
        let m = Metrics::enabled();
        m.counter_add("z_counter", 1);
        m.counter_add("a_counter", 2);
        m.gauge_set("speed", 1.5);
        m.observe("lat", 5.0, &[1.0, 10.0]);
        m.observe("lat", 0.5, &[1.0, 10.0]);
        let text = m.snapshot().to_prometheus();
        // BTreeMap order: a_counter before z_counter.
        let a = text.find("agentnet_a_counter 2").unwrap();
        let z = text.find("agentnet_z_counter 1").unwrap();
        assert!(a < z);
        assert!(text.contains("# TYPE agentnet_speed gauge\nagentnet_speed 1.5\n"));
        // Cumulative buckets: le=1 has one observation, le=10 both.
        assert!(text.contains("agentnet_lat_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("agentnet_lat_bucket{le=\"10\"} 2\n"));
        assert!(text.contains("agentnet_lat_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("agentnet_lat_sum 5.5\n"));
        assert!(text.contains("agentnet_lat_count 2\n"));
        // Every line is newline-terminated.
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn unsorted_bounds_are_sorted_on_construction() {
        let h = Histogram::new(&[100.0, 1.0, 10.0]);
        assert_eq!(h.bounds(), &[1.0, 10.0, 100.0]);
        let mut h = h;
        h.observe(5.0);
        // 5.0 lands in the (1, 10] bucket, not wherever the unsorted
        // scan would have dropped it.
        assert_eq!(h.counts(), &[0, 1, 0, 0]);
    }

    #[test]
    fn duplicate_bounds_are_deduplicated() {
        let h = Histogram::new(&[1.0, 1.0, 10.0, 10.0]);
        assert_eq!(h.bounds(), &[1.0, 10.0]);
        assert_eq!(h.counts().len(), 3);
    }

    #[test]
    fn non_finite_bounds_are_rejected() {
        let h = Histogram::new(&[f64::NAN, 1.0, f64::INFINITY, 10.0, f64::NEG_INFINITY]);
        assert_eq!(h.bounds(), &[1.0, 10.0]);
        let empty = Histogram::new(&[f64::NAN]);
        assert!(empty.bounds().is_empty());
        assert_eq!(empty.counts().len(), 1, "the +Inf bucket survives");
    }

    #[test]
    fn normalized_histograms_bucket_identically() {
        let mut clean = Histogram::new(&[1.0, 10.0, 100.0]);
        let mut messy = Histogram::new(&[100.0, f64::NAN, 10.0, 1.0, 10.0]);
        for v in [0.5, 5.0, 50.0, 500.0] {
            clean.observe(v);
            messy.observe(v);
        }
        assert_eq!(clean, messy);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new(&[10.0, 20.0, 30.0]);
        // 10 observations per bucket: uniform over (0, 30].
        for bucket in [5.0, 15.0, 25.0] {
            for _ in 0..10 {
                h.observe(bucket);
            }
        }
        // Rank 15 of 30 is halfway through the (10, 20] bucket.
        assert!((h.p50().unwrap() - 15.0).abs() < 1e-9);
        // Rank 28.5 of 30: 8.5/10 through the (20, 30] bucket.
        assert!((h.p95().unwrap() - 28.5).abs() < 1e-9);
        assert!((h.quantile(0.0).unwrap() - 1.0).abs() < 1e-9, "rank floors at 1");
        assert!((h.quantile(1.0).unwrap() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_saturates_in_the_inf_bucket() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        for _ in 0..10 {
            h.observe(1000.0);
        }
        // Every observation is beyond the finite buckets: all quantiles
        // report the largest finite bound rather than extrapolating.
        assert_eq!(h.p50(), Some(10.0));
        assert_eq!(h.p99(), Some(10.0));
    }

    #[test]
    fn quantile_handles_empty_and_negative_cases() {
        let h = Histogram::new(&[1.0, 10.0]);
        assert_eq!(h.p50(), None, "no observations, no quantile");
        let mut boundless = Histogram::new(&[]);
        boundless.observe(5.0);
        assert_eq!(boundless.p50(), None, "no finite bucket to interpolate in");
        let mut neg = Histogram::new(&[-10.0, 10.0]);
        neg.observe(-20.0);
        neg.observe(-15.0);
        // The quantile rank falls in the first bucket with a negative
        // upper bound: report the bound, never interpolate toward 0.
        assert_eq!(neg.p50(), Some(-10.0));
    }

    #[test]
    fn prom_bounds_render_losslessly() {
        for bound in [-2.5, -0.0005, 0.00025, 0.001, 1e-9, 123456.789, -1.0] {
            let text = prom_bound(bound);
            assert_eq!(text.parse::<f64>().unwrap(), bound, "{bound} rendered as {text}");
            assert!(!text.contains("inf"), "{text}");
        }
        assert_eq!(prom_bound(1000.0), "1000");
        assert_eq!(prom_bound(-0.5), "-0.5");
        assert_eq!(prom_bound(0.00025), "0.00025");
    }

    #[test]
    fn sub_millisecond_buckets_survive_the_exposition() {
        let m = Metrics::enabled();
        m.observe("lat_secs", 0.0004, &[0.00025, 0.0005, -0.001]);
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("agentnet_lat_secs_bucket{le=\"-0.001\"} 0\n"), "{text}");
        assert!(text.contains("agentnet_lat_secs_bucket{le=\"0.00025\"} 0\n"), "{text}");
        assert!(text.contains("agentnet_lat_secs_bucket{le=\"0.0005\"} 1\n"), "{text}");
    }

    #[test]
    fn metric_names_are_sanitized_for_prometheus() {
        let m = Metrics::enabled();
        m.counter_add("weird-name.total", 1);
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("agentnet_weird_name_total 1"));
    }
}
