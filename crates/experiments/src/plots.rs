//! ASCII rendering of the paper's figure 5 and the §3.1 time series.

use analysis::particle::ParticleStats;
use netsim::time::SimTime;

/// Render the occupancy histogram of figure 5 as an ASCII density map
/// (darker characters = more probability mass), downsampled into
/// `bins x bins` cells over `[0, grid_max]²`.
pub fn render_density(stats: &ParticleStats, grid_max: usize, bins: usize) -> String {
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let cell = (grid_max + bins - 1) / bins.max(1);
    let mut density = vec![vec![0u64; bins]; bins];
    for (x, row) in stats.histogram.iter().enumerate() {
        for (y, &c) in row.iter().enumerate() {
            let bx = (x / cell.max(1)).min(bins - 1);
            let by = (y / cell.max(1)).min(bins - 1);
            density[by][bx] += c;
        }
    }
    let max = density
        .iter()
        .flat_map(|r| r.iter())
        .copied()
        .max()
        .unwrap_or(1)
        .max(1);
    let mut out = String::new();
    out.push_str("cwnd2\n");
    for (by, row) in density.iter().enumerate().rev() {
        out.push_str(&format!("{:>5} |", by * cell));
        for &c in row {
            // Log-ish scaling so the tails stay visible.
            let frac = (c as f64 / max as f64).sqrt();
            let idx = ((frac * (shades.len() - 1) as f64).round() as usize).min(shades.len() - 1);
            out.push(shades[idx]);
            out.push(shades[idx]);
        }
        out.push('\n');
    }
    out.push_str("      +");
    out.push_str(&"--".repeat(bins));
    out.push_str("  cwnd1\n");
    out
}

/// Render a queue-occupancy time series as a small ASCII strip chart:
/// one column per sample bucket, height proportional to the mean queue
/// length in the bucket.
pub fn render_queue_series(
    samples: &[(SimTime, usize)],
    buckets: usize,
    height: usize,
    capacity: usize,
) -> String {
    if samples.is_empty() {
        return String::from("(no samples)\n");
    }
    let t0 = samples.first().expect("nonempty").0.as_secs_f64();
    let t1 = samples.last().expect("nonempty").0.as_secs_f64();
    let span = (t1 - t0).max(1e-9);
    let mut sums = vec![0.0f64; buckets];
    let mut counts = vec![0u64; buckets];
    for &(t, q) in samples {
        let b = (((t.as_secs_f64() - t0) / span) * buckets as f64) as usize;
        let b = b.min(buckets - 1);
        sums[b] += q as f64;
        counts[b] += 1;
    }
    let means: Vec<f64> = sums
        .iter()
        .zip(&counts)
        .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
        .collect();
    let mut out = String::new();
    for level in (1..=height).rev() {
        let threshold = capacity as f64 * level as f64 / height as f64;
        out.push_str(&format!("{threshold:>5.1} |"));
        for &m in &means {
            out.push(if m >= threshold { '#' } else { ' ' });
        }
        out.push('\n');
    }
    out.push_str("      +");
    out.push_str(&"-".repeat(buckets));
    out.push_str(&format!("  ({t0:.1}s .. {t1:.1}s)\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::particle::simulate_particle;

    #[test]
    fn density_marks_the_fair_point_darkest() {
        let stats = simulate_particle(3, 40.0, 100_000, 5, 80);
        let s = render_density(&stats, 80, 20);
        assert!(s.contains('@') || s.contains('%') || s.contains('#'));
    }

    #[test]
    fn queue_series_outputs() {
        let samples = vec![
            (SimTime::from_secs(1), 0),
            (SimTime::from_secs(2), 10),
            (SimTime::from_secs(3), 20),
        ];
        let strip = render_queue_series(&samples, 10, 5, 20);
        assert!(strip.contains('#'));
    }

    #[test]
    fn empty_queue_series_is_handled() {
        assert_eq!(render_queue_series(&[], 10, 5, 20), "(no samples)\n");
    }
}
