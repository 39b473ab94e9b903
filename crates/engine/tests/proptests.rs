//! Property-based tests for the simulation engine.

use agentnet_engine::rng::SeedSequence;
use agentnet_engine::stats::Summary;
use agentnet_engine::TimeSeries;
use proptest::prelude::*;

proptest! {
    #[test]
    fn summary_mean_is_bounded_by_extrema(values in proptest::collection::vec(-1e6f64..1e6, 1..64)) {
        let s = Summary::from_samples(values.clone()).unwrap();
        prop_assert!(s.min <= s.mean + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!(s.std >= 0.0);
        prop_assert_eq!(s.n, values.len());
    }

    #[test]
    fn summary_of_constant_sample_has_zero_spread(v in -1e6f64..1e6, n in 1usize..32) {
        let s = Summary::from_samples(std::iter::repeat_n(v, n)).unwrap();
        prop_assert!((s.mean - v).abs() < 1e-9);
        prop_assert!(s.std.abs() < 1e-9);
        prop_assert!(s.ci95.abs() < 1e-9);
    }

    #[test]
    fn window_mean_is_bounded(values in proptest::collection::vec(0.0f64..1.0, 4..64)) {
        let series: TimeSeries = values.iter().copied().collect();
        let mean = series.window_mean(1..values.len()).unwrap();
        let lo = values[1..].iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values[1..].iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lo - 1e-12 <= mean && mean <= hi + 1e-12);
    }

    #[test]
    fn mean_of_single_series_is_identity(values in proptest::collection::vec(0.0f64..1.0, 1..32)) {
        let series: TimeSeries = values.iter().copied().collect();
        let mean = TimeSeries::mean_of(std::slice::from_ref(&series));
        prop_assert_eq!(mean, series);
    }

    #[test]
    fn mean_of_is_bounded_by_inputs(
        a in proptest::collection::vec(0.0f64..1.0, 8),
        b in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        let sa: TimeSeries = a.iter().copied().collect();
        let sb: TimeSeries = b.iter().copied().collect();
        let m = TimeSeries::mean_of(&[sa, sb]);
        for i in 0..8 {
            let lo = a[i].min(b[i]);
            let hi = a[i].max(b[i]);
            prop_assert!(lo - 1e-12 <= m.values()[i] && m.values()[i] <= hi + 1e-12);
        }
    }

    #[test]
    fn seed_children_have_no_collisions(master in 0u64..1000) {
        let root = SeedSequence::new(master);
        let mut seeds: Vec<u64> = (0..256).map(|i| root.child(i).seed()).collect();
        seeds.push(root.seed());
        seeds.sort_unstable();
        seeds.dedup();
        prop_assert_eq!(seeds.len(), 257);
    }

    #[test]
    fn labeled_children_are_stable_and_distinct(master in 0u64..1000) {
        let root = SeedSequence::new(master);
        prop_assert_eq!(root.labeled("x").seed(), root.labeled("x").seed());
        prop_assert_ne!(root.labeled("x").seed(), root.labeled("y").seed());
        prop_assert_ne!(root.labeled("ab").seed(), root.labeled("ba").seed());
    }

    #[test]
    fn first_reaching_returns_first_index(values in proptest::collection::vec(0.0f64..1.0, 1..64), thr in 0.0f64..1.0) {
        let series: TimeSeries = values.iter().copied().collect();
        match series.first_reaching(thr) {
            Some(step) => {
                let i = step.as_u64() as usize;
                prop_assert!(values[i] >= thr);
                prop_assert!(values[..i].iter().all(|&v| v < thr));
            }
            None => prop_assert!(values.iter().all(|&v| v < thr)),
        }
    }
}
