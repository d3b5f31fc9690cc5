//! Result assembly: sample statistics, the metric list and the JSON line
//! the benchmark prints last.

use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One benchmark result: run counts, metrics in print order, and the
/// human-readable lines printed above the JSON.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, String)>,
    lines: Vec<String>,
}

impl Report {
    /// Records one run: `ok == false` counts it as failed and says why.
    pub fn run(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.lines.push(format!("FAILED: {what}"));
        }
    }

    /// Adds a metric. A non-finite value is a benchmark bug and fails
    /// the run.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        let value = if value.is_finite() {
            value
        } else {
            self.failed += 1;
            self.lines.push(format!("FAILED: metric {name} is {value}"));
            0.0
        };
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Prints the readable lines, a metric table, and the JSON line last.
    pub fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:e}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
