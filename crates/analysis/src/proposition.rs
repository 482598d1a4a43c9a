//! The Proposition of §4.2: bounds on the RLA's proportional-average
//! window, and the closed-form fixed points its proof is built from.
//!
//! With `n` troubled receivers whose congestion probabilities are
//! `p_1..p_n`, the sender cuts on each signal independently with
//! probability `1/n`. Per packet sent, receiver `i` contributes a cut
//! indicator `c_i ~ Bernoulli(p_i / n)` (independent-loss case), so with
//! `k = Σ c_i` cuts the window moves `W → W / 2^k` (and `W → W + 1/W`
//! when `k = 0`). The zero-drift point generalizes equation (3):
//!
//! ```text
//! W*² = P(k = 0) / E[1 − 2^(−k)]
//!     = Π(1 − p_i/n) / (1 − Π(1 − p_i/(2n)))       (independent losses)
//! ```
//!
//! For `n = 1` this is exactly equation (1); for `n = 2` it reduces to the
//! paper's equation (3). The common-loss case (figure 2(b)) replaces the
//! independent indicators by one shared loss event.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Equation (3) generalized: the RLA PA window with *independent* loss
/// paths, congestion probabilities `p`, and cut probability `1/n` where
/// `n = p.len()`.
pub fn rla_window_independent(p: &[f64]) -> f64 {
    let n = p.len() as f64;
    assert!(n >= 1.0, "need at least one receiver");
    for &pi in p {
        assert!((0.0..1.0).contains(&pi), "probabilities must be in [0,1)");
    }
    let q0: f64 = p.iter().map(|&pi| 1.0 - pi / n).product();
    let e_half: f64 = p.iter().map(|&pi| 1.0 - pi / (2.0 * n)).product();
    let denom = 1.0 - e_half;
    assert!(denom > 0.0, "at least one receiver must see losses");
    (q0 / denom).sqrt()
}

/// The *common-loss* case (figure 2(b)): all `n` receivers signal together
/// with probability `p`; each signal is listened to independently with
/// probability `1/n`, so `k | signal ~ Binomial(n, 1/n)`.
pub fn rla_window_common(p: f64, n: usize) -> f64 {
    assert!((0.0..1.0).contains(&p), "probability must be in [0,1)");
    assert!(n >= 1, "need at least one receiver");
    assert!(p > 0.0, "some loss is required for a fixed point");
    let nf = n as f64;
    // P(no cut) = (1-p) + p * (1 - 1/n)^n ; E[2^-k | signal] = (1 - 1/(2n))^n.
    let q0 = (1.0 - p) + p * (1.0 - 1.0 / nf).powi(n as i32);
    let e_half_given_signal = (1.0 - 1.0 / (2.0 * nf)).powi(n as i32);
    let denom = p * (1.0 - e_half_given_signal);
    (q0 / denom).sqrt()
}

/// The paper's equation (3) verbatim, for two receivers with independent
/// loss paths:
/// `W̄² = 4·(1 − (p1+p2)/2 + p1·p2/4) / (p1 + p2 − p1·p2/4)`.
pub fn eq3_two_receivers(p1: f64, p2: f64) -> f64 {
    assert!(p1 > 0.0 || p2 > 0.0, "some loss is required");
    let num = 4.0 * (1.0 - 0.5 * (p1 + p2) + 0.25 * p1 * p2);
    let den = p1 + p2 - 0.25 * p1 * p2;
    (num / den).sqrt()
}

/// The Proposition's bounds (equation 2): with `p_max` the largest
/// congestion probability and `n` troubled receivers,
/// `sqrt(2(1-p_max)/p_max) < W̄ < sqrt(n) · sqrt(2(1-p_max)/p_max)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropositionBounds {
    /// The lower bound (the PA window of a TCP seeing `p_max`).
    pub lower: f64,
    /// The upper bound (`sqrt(n)` times the lower bound).
    pub upper: f64,
}

/// Compute the Proposition's bounds for `n` receivers with worst
/// congestion probability `p_max`.
pub fn proposition_bounds(p_max: f64, n: usize) -> PropositionBounds {
    let base = crate::pa_window::pa_window(p_max);
    PropositionBounds {
        lower: base,
        upper: (n as f64).sqrt() * base,
    }
}

/// Monte-Carlo simulation of the RLA window process for experiment E9:
/// per step, each receiver signals (independently, or all together when
/// `common` is set), each signal is listened to with probability `1/n`,
/// and the window halves once per accepted signal.
pub fn simulate_rla_window(p: &[f64], common: bool, steps: u64, warmup: u64, seed: u64) -> f64 {
    let n = p.len();
    assert!(n >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w: f64 = 1.0;
    let mut sum = 0.0;
    let mut counted = 0u64;
    for t in 0..steps + warmup {
        let mut cuts = 0u32;
        if common {
            // One shared loss event at probability p[0]; n listening coins.
            if rng.gen::<f64>() < p[0] {
                for _ in 0..n {
                    if rng.gen::<f64>() < 1.0 / n as f64 {
                        cuts += 1;
                    }
                }
            }
        } else {
            for &pi in p {
                if rng.gen::<f64>() < pi && rng.gen::<f64>() < 1.0 / n as f64 {
                    cuts += 1;
                }
            }
        }
        if cuts == 0 {
            w += 1.0 / w;
        } else {
            w = (w / 2.0f64.powi(cuts as i32)).max(1.0);
        }
        if t >= warmup {
            sum += w;
            counted += 1;
        }
    }
    sum / counted as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pa_window::pa_window;

    #[test]
    fn single_receiver_reduces_to_eq1() {
        // At n = 1 the Proposition's bounds meet: W is eq. (1) under
        // either loss model.
        for &p in &[0.001, 0.01, 0.02, 0.04] {
            let tcp = pa_window(p);
            for rla in [rla_window_independent(&[p]), rla_window_common(p, 1)] {
                assert!(
                    (rla - tcp).abs() / tcp < 1e-12,
                    "n=1 must equal eq. (1): {rla} vs {tcp}"
                );
            }
        }
    }

    #[test]
    fn two_receivers_match_paper_eq3() {
        for &(p1, p2) in &[(0.01, 0.01), (0.02, 0.005), (0.04, 0.001)] {
            let ours = rla_window_independent(&[p1, p2]);
            let paper = eq3_two_receivers(p1, p2);
            assert!(
                (ours - paper).abs() / paper < 1e-9,
                "({p1},{p2}): {ours} vs {paper}"
            );
        }
    }

    #[test]
    fn proposition_bounds_hold_for_independent_losses() {
        // Sweep asymmetric probability vectors; the window must sit inside
        // (eq1(p_max), sqrt(n)*eq1(p_max)).
        let cases: Vec<Vec<f64>> = vec![
            vec![0.02, 0.02],
            vec![0.02; 3],
            vec![0.02; 9],
            vec![0.02; 27],
            vec![0.04, 0.002],
            vec![0.03, 0.01, 0.001],
            vec![0.02; 10],
            vec![0.04, 0.04, 0.003, 0.002, 0.002],
        ];
        for p in cases {
            let n = p.len();
            let p_max = p.iter().cloned().fold(0.0, f64::max);
            let w = rla_window_independent(&p);
            let b = proposition_bounds(p_max, n);
            assert!(
                w > b.lower && w < b.upper,
                "p={p:?}: W={w} outside ({}, {})",
                b.lower,
                b.upper
            );
        }
    }

    #[test]
    fn proposition_bounds_hold_for_common_losses() {
        for &(p, n) in &[
            (0.01, 2),
            (0.02, 2),
            (0.02, 3),
            (0.02, 5),
            (0.02, 9),
            (0.02, 27),
            (0.04, 27),
        ] {
            let w = rla_window_common(p, n);
            let b = proposition_bounds(p, n);
            assert!(
                w > b.lower && w < b.upper,
                "p={p}, n={n}: W={w} outside ({}, {})",
                b.lower,
                b.upper
            );
        }
    }

    #[test]
    fn lemma_correlation_increases_window() {
        // The Lemma of §4.2: at the same per-receiver congestion
        // probability, fully correlated losses yield a larger window than
        // independent losses.
        for &(p, n) in &[(0.01, 2), (0.02, 9), (0.03, 27)] {
            let independent = rla_window_independent(&vec![p; n]);
            let common = rla_window_common(p, n);
            assert!(
                common > independent,
                "p={p}, n={n}: common {common} must exceed independent {independent}"
            );
        }
        // And the gain grows with n at a fixed p (1.070, 1.116, 1.125).
        let gain = |n: usize| rla_window_common(0.02, n) / rla_window_independent(&vec![0.02; n]);
        let gains = [gain(2), gain(9), gain(27)];
        assert!(
            gains[0] > 1.0 && gains[0] < gains[1] && gains[1] < gains[2],
            "common/independent at p=0.02, n=2,9,27: {gains:?}"
        );
    }

    #[test]
    fn eta_margin_matches_paper_argument() {
        // §4.2: for p1 < 5%, x = p2/p1 >= f(p1) = p1/(2 - 1.5 p1) suffices
        // for W̄² < 4(1-p1)/p1 (the n=2 upper bound). η = 20 enforces
        // x >= 0.05 > f(0.05) ≈ 0.026.
        let p1: f64 = 0.05;
        let f = p1 / (2.0 - 1.5 * p1);
        assert!(f < 0.05, "f(0.05) = {f} must be below 1/η = 0.05");
        // And the bound indeed holds at x = 0.05:
        let w2 = eq3_two_receivers(p1, 0.05 * p1).powi(2);
        assert!(w2 < 4.0 * (1.0 - p1) / p1);
    }

    #[test]
    fn monte_carlo_agrees_with_fixed_point() {
        // Two independent receivers, down to the η = 20 edge p2 = p1/20:
        // the Monte-Carlo mean sits 0-15 % above eq. (3), as eq. (1)'s
        // does above its own fixed point.
        for (p1, p2) in [
            (0.01, 0.01),
            (0.02, 0.02),
            (0.02, 0.01),
            (0.04, 0.002),
            (0.05, 0.0025),
        ] {
            let analytic = eq3_two_receivers(p1, p2);
            let sim = simulate_rla_window(&[p1, p2], false, 2_000_000, 100_000, 3);
            let ratio = sim / analytic;
            assert!(
                (1.00..1.15).contains(&ratio),
                "({p1},{p2}): simulated {sim} vs eq. (3) {analytic} (ratio {ratio})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one receiver must see losses")]
    fn all_zero_probabilities_rejected() {
        rla_window_independent(&[0.0, 0.0]);
    }
}
