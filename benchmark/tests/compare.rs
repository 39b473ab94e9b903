//! The pair rule on synthetic runs.

use agentnet_benchmark::compare::{judge, Direction, Verdict};

/// Ten parent runs around 100 with a 5.5% inter-quartile spread.
fn parent() -> Vec<f64> {
    (0..10).map(|i| 100.0 + f64::from(i)).collect()
}

#[test]
fn identical_runs_tie_and_are_the_same() {
    let j = judge(&parent(), &parent(), Direction::Lower, 0.1, 0.0);
    assert_eq!((j.wins, j.verdict), (0, Verdict::Same));
}

#[test]
fn nine_wins_of_ten_with_a_gap_beyond_the_spread_is_a_gain() {
    let mut change: Vec<f64> = parent().iter().map(|v| v - 10.0).collect();
    change[0] = 101.0;
    let j = judge(&parent(), &change, Direction::Lower, 0.1, 0.0);
    assert_eq!((j.wins, j.verdict), (9, Verdict::Better));
    // Eight wins of ten is not enough.
    change[1] = 102.0;
    assert_eq!(judge(&parent(), &change, Direction::Lower, 0.1, 0.0).verdict, Verdict::Same);
}

#[test]
fn spread_wider_than_the_bound_is_unresolved() {
    let noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0];
    let change: Vec<f64> = noisy.iter().map(|v| v + 1.0).collect();
    let j = judge(&noisy, &change, Direction::Lower, 0.1, 0.0);
    assert_eq!(j.verdict, Verdict::Unresolved);
}

#[test]
fn spread_within_the_absolute_floor_is_resolved() {
    // Set-ups of 20-40 ms: a relative spread of 0.5, but 10 ms in
    // absolute terms, inside a 50 ms floor.
    let setup = [0.02, 0.03, 0.04, 0.02, 0.03, 0.04, 0.02, 0.03, 0.04, 0.03];
    assert_eq!(judge(&setup, &setup, Direction::Lower, 0.25, 0.0).verdict, Verdict::Unresolved);
    assert_eq!(judge(&setup, &setup, Direction::Lower, 0.25, 0.05).verdict, Verdict::Same);
    // Worse by 60 ms: beyond the floor.
    let slower: Vec<f64> = setup.iter().map(|v| v + 0.06).collect();
    assert_eq!(judge(&setup, &slower, Direction::Lower, 0.25, 0.05).verdict, Verdict::Worse);
}
