//! A percentile needs ten samples beyond it.

use agentnet_benchmark::stats::percentile;

#[test]
fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
    let steps: Vec<f64> = (0..200).map(f64::from).collect();
    // Rank 190 of 200: ten samples beyond.
    assert_eq!(percentile(&steps, 95.0), Ok(189.0));
    // Rank 198 of 200: two beyond.
    let refused = percentile(&steps, 99.0).unwrap_err();
    assert_eq!(refused.beyond, 2);
}
