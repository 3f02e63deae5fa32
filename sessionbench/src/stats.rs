//! Percentiles, host facts and the result printer.

use crate::check::Ledger;
use std::fmt::Write as _;

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single exact count).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What one run produced: metrics, the ledger and the facts that make the
/// numbers comparable (host, widths, seed, sample counts).
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub ledger: Ledger,
    pub facts: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Prints the human-readable report, then the result JSON as the last
    /// line of standard output.
    pub fn print(&self, workload: &str, trace: bool) {
        let pass = if trace { "traced" } else { "untraced" };
        println!("sessionbench {workload} ({pass} pass)");
        for (key, value) in &self.facts {
            println!("  {key:<26} {value}");
        }
        for m in &self.metrics {
            println!(
                "  {:<26} {:>14.4} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let l = &self.ledger;
        println!(
            "  attempted={} succeeded={} failed={} error_rate={:.6} correct={}",
            l.attempted,
            l.attempted - l.failed,
            l.failed,
            1.0 - l.success_rate(),
            l.correct()
        );
        for p in l.problems() {
            println!("  FAIL: {p}");
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; they only arise from a broken
            // run, which the ledger already marks incorrect.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.ledger.correct(),
            self.ledger.attempted,
            self.ledger.failed
        )
    }
}
