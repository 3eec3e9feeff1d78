//! Metric collection, percentiles, memory sampling and the result line.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use impact_support::json::Json;

/// Named metrics in report order, each with its unit.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends `name` (replacing an earlier value under the same name).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.retain(|(n, _, _)| n != name);
        self.0.push((name.to_string(), value, unit));
    }

    /// The value recorded under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Metric names in report order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(n, _, _)| n.as_str())
    }

    /// The `metrics` object of the result line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // Non-finite values (0/0 ratios) are reported as 0: JSON
                // has no NaN, and an empty layer did no work.
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("{}: {{\"value\": {v}, \"unit\": \"{unit}\"}}", quote(name))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// JSON string literal for `s`.
#[must_use]
pub fn quote(s: &str) -> String {
    Json::Str(s.to_string()).to_string()
}

/// Outcome counts behind `correct`, `attempted` and `failed`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were wrong or missing.
    pub failed: u64,
}

impl Tally {
    /// Counts one checked output.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `attempted` checked outputs of which `failed` were wrong.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Failed outputs over attempted outputs.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The last line of standard output.
#[must_use]
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.to_json()
    )
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (upper median for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Resident set size of this process in MiB, from `/proc/self/status`.
fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Samples the resident set size every few milliseconds and keeps the
/// maximum, so the peak covers the measured phase only.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak_kb: Arc<AtomicU64>,
    handle: JoinHandle<()>,
}

impl RssSampler {
    /// Starts sampling.
    #[must_use]
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(AtomicU64::new(0));
        let handle = {
            let (stop, peak_kb) = (Arc::clone(&stop), Arc::clone(&peak_kb));
            std::thread::spawn(move || loop {
                if let Some(mb) = rss_mb() {
                    peak_kb.fetch_max((mb * 1024.0) as u64, Ordering::Relaxed);
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            })
        };
        Self {
            stop,
            peak_kb,
            handle,
        }
    }

    /// Stops sampling and returns the peak in MiB.
    #[must_use]
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("RSS sampler thread panicked");
        self.peak_kb.load(Ordering::Relaxed) as f64 / 1024.0
    }
}

/// `rustc -V`, or `unknown` when no compiler is on the path.
#[must_use]
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The commit of the checkout, or `unknown` outside a git repository.
#[must_use]
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Worker count the benchmark uses for jobs, workers and connections.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25, "s");
        let mut t = Tally::default();
        t.check(true);
        let line = result_line(&t, &m);
        let doc = impact_support::json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
    }
}
