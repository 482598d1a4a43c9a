//! Essential fairness — the paper's §2 definitions and §4 theorem bounds.
//!
//! A multicast session is **essentially fair** to TCP if its long-run
//! throughput `λ_RLA` satisfies `a·λ_TCP < λ_RLA < b·λ_TCP`, where
//! `λ_TCP` is the throughput of the competing TCP connections on the soft
//! bottleneck and `a ≤ b < N` are functions of the receiver count.
//! **Absolute fairness** is the special case `a = b = 1`.

/// A pair of essential-fairness bounds `(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairnessBounds {
    /// Lower multiple of the TCP throughput.
    pub a: f64,
    /// Upper multiple of the TCP throughput.
    pub b: f64,
}

impl FairnessBounds {
    /// Theorem I: RED gateways, `n` persistently congested receivers,
    /// worst congestion probability below 5% — `a = 1/3`, `b = √(3n)`.
    pub fn theorem1_red(n: usize) -> Self {
        assert!(n >= 1, "need at least one congested receiver");
        FairnessBounds {
            a: 1.0 / 3.0,
            b: (3.0 * n as f64).sqrt(),
        }
    }

    /// Theorem II: drop-tail gateways with phase effects eliminated —
    /// `a = 1/4`, `b = 2n`.
    pub fn theorem2_droptail(n: usize) -> Self {
        assert!(n >= 1, "need at least one congested receiver");
        FairnessBounds {
            a: 0.25,
            b: 2.0 * n as f64,
        }
    }

    /// Absolute fairness (`a = b = 1`).
    pub fn absolute() -> Self {
        FairnessBounds { a: 1.0, b: 1.0 }
    }

    /// `b / a`, the paper's tightness indicator.
    pub fn tightness(&self) -> f64 {
        self.b / self.a
    }

    /// Does a measured throughput pair satisfy the bounds?
    /// Uses the closed interval (measurement noise should not flip a
    /// boundary case into a failure).
    pub fn contains(&self, lambda_rla: f64, lambda_tcp: f64) -> bool {
        assert!(lambda_tcp > 0.0, "TCP must not be shut out");
        let ratio = lambda_rla / lambda_tcp;
        self.a <= ratio && ratio <= self.b
    }
}

/// A measured fairness outcome for reporting.
#[derive(Debug, Clone)]
pub struct FairnessCheck {
    /// Multicast throughput, pkt/s.
    pub lambda_rla: f64,
    /// Competing TCP throughput on the soft bottleneck, pkt/s.
    pub lambda_tcp: f64,
    /// `λ_RLA / λ_TCP`.
    pub ratio: f64,
    /// The theorem bounds tested.
    pub bounds: FairnessBounds,
    /// Whether the bounds hold.
    pub fair: bool,
}

impl FairnessCheck {
    /// Evaluate a measurement against `bounds`.
    pub fn evaluate(lambda_rla: f64, lambda_tcp: f64, bounds: FairnessBounds) -> Self {
        let ratio = lambda_rla / lambda_tcp;
        FairnessCheck {
            lambda_rla,
            lambda_tcp,
            ratio,
            bounds,
            fair: bounds.contains(lambda_rla, lambda_tcp),
        }
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over a set of throughputs:
/// 1 when everything is equal, `1/n` when one flow takes all. Zero and
/// negative entries count toward `n` (a starved flow lowers the index);
/// an empty or all-zero set yields 0.
pub fn jain_index(throughputs: &[f64]) -> f64 {
    if throughputs.is_empty() {
        return 0.0;
    }
    let sum: f64 = throughputs.iter().sum();
    let sum_sq: f64 = throughputs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 0.0;
    }
    sum * sum / (throughputs.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem_bounds_shape() {
        let t1 = FairnessBounds::theorem1_red(27);
        assert!((t1.a - 1.0 / 3.0).abs() < 1e-12);
        assert!((t1.b - 81.0f64.sqrt()).abs() < 1e-12);
        let t2 = FairnessBounds::theorem2_droptail(27);
        assert_eq!(t2.a, 0.25);
        assert_eq!(t2.b, 54.0);
        // RED bounds are tighter than drop-tail bounds for every n.
        for n in 1..=50 {
            assert!(
                FairnessBounds::theorem1_red(n).tightness()
                    < FairnessBounds::theorem2_droptail(n).tightness()
            );
        }
    }

    #[test]
    fn bounds_are_below_n() {
        // The definition requires a <= b < N (the receiver count), for the
        // regimes the theorems cover.
        for n in 4..=100 {
            let t1 = FairnessBounds::theorem1_red(n);
            assert!(t1.a <= t1.b && t1.b < n as f64 * 3.0);
        }
    }

    #[test]
    fn containment() {
        let b = FairnessBounds::theorem2_droptail(27);
        assert!(b.contains(144.1, 81.8), "figure 7 case 1 is fair");
        assert!(!b.contains(1.0, 100.0), "starved multicast is unfair");
        assert!(!b.contains(10_000.0, 10.0), "TCP shut out is unfair");
    }

    #[test]
    fn absolute_is_special_case() {
        let b = FairnessBounds::absolute();
        assert!(b.contains(100.0, 100.0));
        assert!(!b.contains(101.0, 100.0));
        assert_eq!(b.tightness(), 1.0);
    }

    #[test]
    fn jain_index_spans_its_range() {
        assert_eq!(jain_index(&[]), 0.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 0.0);
        assert!((jain_index(&[100.0, 100.0, 100.0]) - 1.0).abs() < 1e-12);
        // One flow takes all: index collapses to 1/n.
        let n = 4;
        let mut xs = vec![0.0; n];
        xs[0] = 250.0;
        assert!((jain_index(&xs) - 1.0 / n as f64).abs() < 1e-12);
        // Mild skew lands strictly between.
        let j = jain_index(&[100.0, 80.0, 120.0]);
        assert!(j > 0.9 && j < 1.0, "jain {j}");
    }

    #[test]
    fn measured_check_reports_ratio() {
        let c = FairnessCheck::evaluate(144.1, 81.8, FairnessBounds::theorem2_droptail(27));
        assert!(c.fair);
        assert!((c.ratio - 144.1 / 81.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shut out")]
    fn zero_tcp_rejected() {
        FairnessBounds::absolute().contains(1.0, 0.0);
    }
}
