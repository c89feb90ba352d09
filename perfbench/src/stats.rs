//! Percentiles, cost modes and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The smallest sample count at which percentile `p` still has ten
/// samples beyond it.
pub fn min_samples_for(p: f64) -> usize {
    // The epsilon keeps float error in 1 - p from adding a sample.
    (10.0 / (1.0 - p) - 1e-9).ceil() as usize
}

/// A workload's cost modes over its timed requests, cheapest first, and
/// the cumulative ranks that separate modes of different cost.
pub struct Modes {
    pub shares: Vec<(&'static str, f64)>,
    pub boundaries: Vec<f64>,
}

/// Percentile ranks closer than this to a mode boundary are flagged: a
/// small shift in the mix there moves the percentile between modes.
pub const BOUNDARY_MARGIN: f64 = 0.05;

impl Modes {
    /// Prints the shares and flags every reported percentile that lies
    /// within [`BOUNDARY_MARGIN`] of a boundary.
    pub fn report(&self, workload: &str, percentiles: &[(&str, f64)]) {
        let shares: Vec<String> = self
            .shares
            .iter()
            .map(|(name, share)| format!("{name} {:.1}%", share * 100.0))
            .collect();
        eprintln!("cost modes [{workload}]: {}", shares.join(", "));
        for &(name, rank) in percentiles {
            for &b in &self.boundaries {
                if (rank - b).abs() < BOUNDARY_MARGIN {
                    eprintln!(
                        "WARNING [{workload}]: {name} (rank {rank:.2}) lies within {:.0} points of \
                         a cost-mode boundary at rank {b:.3}; it can jump between modes from run to run",
                        BOUNDARY_MARGIN * 100.0
                    );
                }
            }
        }
    }
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _, _)| n == name)
    }

    /// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The process's peak resident set (`VmHWM`) in MB, when the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.5), 20);
    }
}
