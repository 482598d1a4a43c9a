//! The Markov "particle" model of two competing RLA sessions (§4.4,
//! figures 3–5).
//!
//! Two multicast sessions share the same topology; the point
//! `(cwnd₁, cwnd₂)` is a particle moving on the plane. With the time unit
//! `Δt = 2·RTT` and all `n` troubled links at pipe size `pipe`:
//!
//! * no congestion (`W₁+W₂ < pipe`): both windows grow by 2;
//! * congestion: each sender independently keeps growing with probability
//!   `p₀ = (1 − 1/n)ⁿ`, or is cut `i` times with probability
//!   `C(n,i) (1 − 1/n)^(n−i) (1/n)^i`.
//!
//! The drift field (figure 4) points toward the fair operating point, and
//! the stationary density (figure 5) concentrates around it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Binomial coefficient as f64 (exact for the small n used here).
fn binom(n: usize, k: usize) -> f64 {
    let mut c = 1.0;
    for j in 0..k {
        c = c * (n - j) as f64 / (j + 1) as f64;
    }
    c
}

/// The cut-count distribution upon congestion: `P(i cuts)` for
/// `i = 0..=n` when `n` congestion signals each get an independent `1/n`
/// coin.
pub fn cut_distribution(n: usize) -> Vec<f64> {
    assert!(n >= 1, "need at least one congested link");
    let nf = n as f64;
    (0..=n)
        .map(|i| binom(n, i) * (1.0 - 1.0 / nf).powi((n - i) as i32) * (1.0 / nf).powi(i as i32))
        .collect()
}

/// The average drift of one session's window at `(w1, w2)` — the
/// x-component of figure 4's vector field (the y-component is symmetric).
pub fn drift_x(w1: f64, w2: f64, n: usize, pipe: f64) -> f64 {
    if w1 + w2 < pipe {
        return 2.0;
    }
    let p = cut_distribution(n);
    // Growth by 2 with p0; a cut to w1/2^i loses w1 (1 - 2^-i).
    let mut d = 2.0 * p[0];
    for (i, &pi) in p.iter().enumerate().skip(1) {
        d -= w1 * (1.0 - 0.5f64.powi(i as i32)) * pi;
    }
    d
}

/// One grid point of the drift diagram.
#[derive(Debug, Clone, Copy)]
pub struct DriftVector {
    /// Session 1 window.
    pub w1: f64,
    /// Session 2 window.
    pub w2: f64,
    /// Average drift of `w1` per `Δt`.
    pub dx: f64,
    /// Average drift of `w2` per `Δt`.
    pub dy: f64,
}

/// The full drift field over `[1, w_max]²` with the given grid step
/// (figure 4 uses `n = 3`, `pipe = 10`).
pub fn drift_field(n: usize, pipe: f64, w_max: f64, step: f64) -> Vec<DriftVector> {
    assert!(step > 0.0 && w_max >= step, "bad grid");
    let mut field = Vec::new();
    let mut w1 = step;
    while w1 <= w_max + 1e-9 {
        let mut w2 = step;
        while w2 <= w_max + 1e-9 {
            field.push(DriftVector {
                w1,
                w2,
                dx: drift_x(w1, w2, n, pipe),
                dy: drift_x(w2, w1, n, pipe),
            });
            w2 += step;
        }
        w1 += step;
    }
    field
}

/// Result of simulating the particle model.
#[derive(Debug, Clone)]
pub struct ParticleStats {
    /// Mean of `W₁` over the run.
    pub mean_w1: f64,
    /// Mean of `W₂` over the run.
    pub mean_w2: f64,
    /// 2-D histogram of `(W₁, W₂)` occurrences: `histogram[x][y]` counts
    /// steps with `floor(W₁) = x`, `floor(W₂) = y` (clamped to the grid).
    pub histogram: Vec<Vec<u64>>,
    /// Steps simulated.
    pub steps: u64,
}

impl ParticleStats {
    /// Fraction of time spent within `radius` (Chebyshev) of `(cx, cy)`.
    pub fn mass_near(&self, cx: f64, cy: f64, radius: f64) -> f64 {
        let mut near = 0u64;
        for (x, row) in self.histogram.iter().enumerate() {
            for (y, &c) in row.iter().enumerate() {
                let dx = (x as f64 - cx).abs();
                let dy = (y as f64 - cy).abs();
                if dx.max(dy) <= radius {
                    near += c;
                }
            }
        }
        near as f64 / self.steps.max(1) as f64
    }
}

/// Simulate the two-session particle (figure 5's setup: both sessions see
/// the same `n` congestion signals; each reacts independently).
pub fn simulate_particle(
    n: usize,
    pipe: f64,
    steps: u64,
    seed: u64,
    grid_max: usize,
) -> ParticleStats {
    assert!(n >= 1 && pipe > 2.0, "degenerate model");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = [2.0f64, 2.0f64];
    let mut sum = [0.0f64; 2];
    let mut histogram = vec![vec![0u64; grid_max + 1]; grid_max + 1];
    for _ in 0..steps {
        if w[0] + w[1] < pipe {
            w[0] += 2.0;
            w[1] += 2.0;
        } else {
            for wk in w.iter_mut() {
                let mut cuts = 0u32;
                for _ in 0..n {
                    if rng.gen::<f64>() < 1.0 / n as f64 {
                        cuts += 1;
                    }
                }
                if cuts == 0 {
                    *wk += 2.0;
                } else {
                    *wk = (*wk / 2.0f64.powi(cuts as i32)).max(1.0);
                }
            }
        }
        sum[0] += w[0];
        sum[1] += w[1];
        let x = (w[0].floor() as usize).min(grid_max);
        let y = (w[1].floor() as usize).min(grid_max);
        histogram[x][y] += 1;
    }
    ParticleStats {
        mean_w1: sum[0] / steps as f64,
        mean_w2: sum[1] / steps as f64,
        histogram,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_distribution_sums_to_one() {
        for n in [1, 2, 3, 9, 27] {
            let p = cut_distribution(n);
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "n={n}: sum {sum}");
            // p0 -> 1/e as n grows.
            if n >= 9 {
                assert!((p[0] - (-1.0f64).exp()).abs() < 0.03);
            }
        }
    }

    #[test]
    fn drift_positive_below_pipe_negative_far_above() {
        // Every cell of figure 4 (n = 3, pipe = 10, w in 1..=16): both
        // windows grow exactly below the pipe, and at or above it both
        // shrink once each is at least 2.
        let pipe = 10.0;
        for v in drift_field(3, pipe, 16.0, 1.0) {
            let below = v.w1 + v.w2 < pipe;
            assert_eq!(v.dx > 0.0 && v.dy > 0.0, below, "{v:?}");
            if !below && v.w1 >= 2.0 && v.w2 >= 2.0 {
                assert!(v.dx < 0.0 && v.dy < 0.0, "{v:?}");
            }
        }
    }

    #[test]
    fn drift_field_is_symmetric() {
        let field = drift_field(3, 10.0, 20.0, 2.0);
        for v in &field {
            let mirror = field
                .iter()
                .find(|m| (m.w1 - v.w2).abs() < 1e-9 && (m.w2 - v.w1).abs() < 1e-9)
                .expect("mirror point must exist");
            assert!((v.dx - mirror.dy).abs() < 1e-12);
        }
    }

    #[test]
    fn sessions_get_equal_average_windows() {
        let s = simulate_particle(3, 40.0, 400_000, 9, 80);
        let rel = (s.mean_w1 - s.mean_w2).abs() / s.mean_w1;
        assert!(rel < 0.02, "means {} vs {}", s.mean_w1, s.mean_w2);
    }

    #[test]
    fn mass_concentrates_near_fair_point() {
        // pipe = 40 shared by two sessions: fair point (20, 20).
        let s = simulate_particle(3, 40.0, 400_000, 11, 80);
        let near = s.mass_near(20.0, 20.0, 10.0);
        assert!(near > 0.5, "only {near} of the mass near the fair point");
        // The distribution is centred there, not at the extremes.
        let corner = s.mass_near(60.0, 60.0, 10.0);
        assert!(corner < 0.05);
    }

    #[test]
    fn fair_point_is_recurrent() {
        // The chain keeps returning near the fair point: count visits in
        // disjoint windows of the run.
        let s = simulate_particle(2, 20.0, 200_000, 13, 40);
        assert!(s.mass_near(10.0, 10.0, 5.0) > 0.4);
    }
}
