//! A minimal wall-clock micro-benchmark harness.
//!
//! Replaces `criterion` for the `impact-bench` targets: each benchmark is
//! a closure timed over a warmup pass and a measured pass, reporting
//! mean/min wall time per iteration. No statistics beyond that — the
//! benches exist to catch order-of-magnitude regressions, not nanosecond
//! drift.

use std::time::{Duration, Instant};

/// A named group of benchmarks, printed as a small table.
pub struct Harness {
    group: String,
    /// Target wall time per measured benchmark.
    budget: Duration,
}

impl Harness {
    /// A harness whose measured pass targets roughly `budget_ms`
    /// milliseconds per benchmark.
    #[must_use]
    pub fn new(group: &str, budget_ms: u64) -> Self {
        println!("## {group}");
        Self {
            group: group.to_owned(),
            budget: Duration::from_millis(budget_ms),
        }
    }

    /// Times `f`, printing mean and best iteration wall time, and returns
    /// the mean (for callers that derive a rate from it).
    ///
    /// The closure's return value is passed through `std::hint::black_box`
    /// so the work is not optimized away.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) -> Duration {
        // Warmup: one iteration to touch caches and estimate cost.
        let t0 = Instant::now();
        std::hint::black_box(f());
        let first = t0.elapsed();

        // Pick an iteration count that fits the budget (at least 1).
        let iters = if first.is_zero() {
            1000
        } else {
            (self.budget.as_nanos() / first.as_nanos().max(1)).clamp(1, 10_000) as u32
        };

        let mut best = Duration::MAX;
        let t0 = Instant::now();
        for _ in 0..iters {
            let t = Instant::now();
            std::hint::black_box(f());
            best = best.min(t.elapsed());
        }
        let total = t0.elapsed();
        let mean = total / iters;
        println!(
            "{:<40} {:>12} mean {:>12} best ({iters} iters)",
            format!("{}/{name}", self.group),
            format_duration(mean),
            format_duration(best),
        );
        mean
    }
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let h = Harness::new("test", 1);
        let mut calls = 0u64;
        let mean = h.bench("counting", || {
            calls += 1;
            calls
        });
        assert!(calls >= 2, "warmup + at least one measured iteration");
        assert!(mean < Duration::from_secs(1));
    }

    #[test]
    fn durations_format_by_magnitude() {
        assert_eq!(format_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(format_duration(Duration::from_micros(1500)), "1.50 ms");
        assert!(format_duration(Duration::from_secs(2)).ends_with(" s"));
    }
}
