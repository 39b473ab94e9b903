//! The rule for telling a change's runs from its parent's.
//!
//! Runs come in pairs, parent and change alternating. A change is
//! *better* on a metric only when it wins at least nine tenths of at
//! least ten pairs (ties count for neither side) and the medians differ
//! by more than the parent's own inter-quartile distance. It is *worse*
//! when its median is worse than the parent's by more than the metric's
//! tolerance: its bound times the parent's median, or its absolute
//! [floor](FLOORS) when that is larger. When either side's
//! inter-quartile distance exceeds the tolerance, "same" cannot be told
//! from noise and the metric is *unresolved* — unless every run of the
//! change reads better than every run of the parent.

use crate::stats::{median, quartiles};
use std::fmt;
use std::str::FromStr;

/// Fewest pairs that can support a gain.
pub const MIN_PAIRS: usize = 10;
/// Share of pairs a gain must win.
pub const WIN_SHARE: f64 = 0.9;
/// Absolute floors under the relative bounds, in the metric's unit. A
/// set-up of a few tens of milliseconds moves by more than a quarter
/// with the page cache and timer noise alone, so a set-up change is
/// judged against 0.05 s when a quarter of the parent's is less.
pub const FLOORS: &[(&str, f64)] = &[("setup_s", 0.05)];

/// The absolute floor of `metric` (0 when it has none).
pub fn floor(metric: &str) -> f64 {
    FLOORS.iter().find(|(name, _)| *name == metric).map_or(0.0, |&(_, f)| f)
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput).
    Higher,
    /// Smaller is better (latency, memory).
    Lower,
}

impl Direction {
    /// Whether `a` reads better than `b`.
    pub fn better(self, a: f64, b: f64) -> bool {
        match self {
            Direction::Higher => a > b,
            Direction::Lower => a < b,
        }
    }
}

impl FromStr for Direction {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "higher" => Ok(Direction::Higher),
            "lower" => Ok(Direction::Lower),
            other => Err(format!("direction {other:?} is neither \"higher\" nor \"lower\"")),
        }
    }
}

/// The outcome for one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A gain, by the pair rule.
    Better,
    /// Worse than the parent by more than the bound.
    Worse,
    /// Within the bound, and no gain shown.
    Same,
    /// Spread wider than the bound: neither a gain nor "same" can be
    /// told from noise.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Median and quartiles of one side.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let mid = median(values);
        let (q1, q3) = quartiles(values).unwrap_or((mid, mid));
        Side { median: mid, q1, q3 }
    }
}

/// The comparison of one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Judgement {
    /// The parent's runs.
    pub parent: Side,
    /// The change's runs.
    pub change: Side,
    /// Pairs the change read better in.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges a change against its parent on one metric, with a relative
/// `bound` and an absolute `floor`. Pairs are matched by index.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    direction: Direction,
    bound: f64,
    floor: f64,
) -> Judgement {
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|(p, c)| direction.better(**c, **p)).count();
    let (p, c) = (Side::of(parent), Side::of(change));
    let gain = pairs >= MIN_PAIRS
        && wins as f64 >= WIN_SHARE * pairs as f64
        && direction.better(c.median, p.median)
        && (c.median - p.median).abs() > p.q3 - p.q1;
    let tolerance = (bound * p.median.abs()).max(floor);
    let worse_by = match direction {
        Direction::Lower => c.median - p.median,
        Direction::Higher => p.median - c.median,
    };
    let every_run_better =
        change.iter().all(|&cv| parent.iter().all(|&pv| direction.better(cv, pv)));
    let verdict = if p.q3 - p.q1 > tolerance || c.q3 - c.q1 > tolerance {
        match (every_run_better, gain) {
            (true, true) => Verdict::Better,
            (true, false) => Verdict::Same,
            (false, _) => Verdict::Unresolved,
        }
    } else if gain {
        Verdict::Better
    } else if worse_by > tolerance {
        Verdict::Worse
    } else {
        Verdict::Same
    };
    Judgement { parent: p, change: c, wins, pairs, verdict }
}

/// Judges the share of failed operations: any rise is worse.
pub fn judge_failures(parent: &[(u64, u64)], change: &[(u64, u64)]) -> Verdict {
    let share = |runs: &[(u64, u64)]| {
        median(
            &runs
                .iter()
                .map(|&(attempted, failed)| failed as f64 / attempted.max(1) as f64)
                .collect::<Vec<_>>(),
        )
    };
    if share(change) > share(parent) {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}
