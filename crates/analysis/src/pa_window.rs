//! The proportional-average (PA) window size — equation (1) of the paper.
//!
//! For ideal TCP congestion avoidance with congestion probability `p`
//! (window cuts per packet sent), the drift of the window process
//! `W_{t+1} = W_t + 1/W_t` w.p. `1-p`, `W_t/2` w.p. `p` vanishes at
//!
//! ```text
//! W* = sqrt(2 (1-p)) / sqrt(p)            (eq. 1)
//! ```
//!
//! which approximates (and is proportional to) the time-average window,
//! following Ott, Kemperman & Mathis. This module provides the closed form
//! and a Monte-Carlo simulation of the same process; a test here bounds
//! their ratio (experiment E8).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Equation (1): the PA window size for congestion probability `p`.
pub fn pa_window(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "congestion probability must be in (0,1)"
    );
    (2.0 * (1.0 - p)).sqrt() / p.sqrt()
}

/// The Mahdavi–Floyd throughput rule the paper compares against:
/// `bandwidth = 1.3 / (RTT * sqrt(p))` packets per second.
pub fn mahdavi_floyd_pps(p: f64, rtt_secs: f64) -> f64 {
    assert!(p > 0.0, "loss probability must be positive");
    assert!(rtt_secs > 0.0, "RTT must be positive");
    1.3 / (rtt_secs * p.sqrt())
}

/// Outcome of a Monte-Carlo run of the ideal window process.
#[derive(Debug, Clone, Copy)]
pub struct WindowProcessStats {
    /// Mean of `W_t` over all steps (after warmup).
    pub mean: f64,
    /// Mean of `1/W_t` (used to convert between per-packet and per-RTT
    /// averages if needed).
    pub mean_inverse: f64,
    /// Number of window cuts taken.
    pub cuts: u64,
    /// Steps simulated (after warmup).
    pub steps: u64,
}

/// Simulate the per-packet window process of §4.1: with probability `p`
/// the window halves, otherwise it grows by `1/W`. The first `warmup`
/// steps are discarded.
pub fn simulate_tcp_window(p: f64, steps: u64, warmup: u64, seed: u64) -> WindowProcessStats {
    assert!(
        p > 0.0 && p < 1.0,
        "congestion probability must be in (0,1)"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w: f64 = 1.0;
    let mut sum = 0.0;
    let mut sum_inv = 0.0;
    let mut cuts = 0;
    let mut counted = 0;
    for t in 0..steps + warmup {
        if rng.gen::<f64>() < p {
            w = (w / 2.0).max(1.0);
            if t >= warmup {
                cuts += 1;
            }
        } else {
            w += 1.0 / w;
        }
        if t >= warmup {
            sum += w;
            sum_inv += 1.0 / w;
            counted += 1;
        }
    }
    WindowProcessStats {
        mean: sum / counted as f64,
        mean_inverse: sum_inv / counted as f64,
        cuts,
        steps: counted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_at_known_points() {
        // p = 0.02: W* = sqrt(2*0.98/0.02) = sqrt(98) ~ 9.899.
        assert!((pa_window(0.02) - 98.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn window_shrinks_with_more_congestion() {
        assert!(pa_window(0.01) > pa_window(0.02));
        assert!(pa_window(0.02) > pa_window(0.04));
    }

    #[test]
    fn monte_carlo_matches_closed_form_within_tolerance() {
        // The PA window is "proportional to" the time average (Ott et
        // al.): over the whole p range the Monte-Carlo mean sits 3-13 %
        // above eq. (1), never below it.
        for &p in &[0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.03, 0.05] {
            let sim = simulate_tcp_window(p, 2_000_000, 100_000, 42);
            let predicted = pa_window(p);
            let ratio = sim.mean / predicted;
            assert!(
                (1.00..1.15).contains(&ratio),
                "p={p}: simulated {}, predicted {predicted}, ratio {ratio}",
                sim.mean
            );
        }
    }

    #[test]
    fn monte_carlo_cut_rate_matches_p() {
        let p = 0.01;
        let sim = simulate_tcp_window(p, 1_000_000, 10_000, 7);
        let rate = sim.cuts as f64 / sim.steps as f64;
        assert!((rate - p).abs() < 0.002, "cut rate {rate}");
    }

    #[test]
    fn mahdavi_floyd_magnitude() {
        // p = 1%, RTT = 100 ms: 1.3 / (0.1 * 0.1) = 130 pkt/s.
        assert!((mahdavi_floyd_pps(0.01, 0.1) - 130.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn zero_p_rejected() {
        pa_window(0.0);
    }
}
