//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! repository's crates; nothing inside the program is instrumented.
//! A span's self time is its duration minus the part of its interval
//! that its child spans cover (children may run in parallel, so the
//! covered part is the union of their intervals, not their sum).

use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (its index).
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `profile.walk` or `plan.minprob`.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (`start_ns` while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request the span belongs to (`serve_cold`).
    pub request: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span sink; spans stay in memory until [`Recorder::spans`].
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panic")
    }

    /// Nanoseconds since the recorder was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    /// Nanoseconds from the recorder's creation to `t`.
    #[must_use]
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::exit`].
    pub fn enter(
        &self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        let now = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn exit(&self, id: SpanId) {
        let now = self.now_ns();
        self.lock()[id].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        request: Option<u64>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.enter(name, parent, request);
        let out = f(id);
        self.exit(id);
        out
    }

    /// Records an interval measured elsewhere.
    pub fn record(
        &self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name: name.into(),
            start_ns: self.ns_of(start),
            end_ns: self.ns_of(end),
            parent,
            request,
        };
        let mut spans = self.lock();
        spans.push(span);
        spans.len() - 1
    }

    /// A snapshot of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Total length of the union of `intervals`.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, indexed like `spans`.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.dur_ns().saturating_sub(union_ns(c)))
        .collect()
}

/// Sum of self times, in seconds, over spans whose name satisfies `pick`.
#[must_use]
pub fn self_seconds(spans: &[Span], selfs: &[u64], pick: impl Fn(&str) -> bool) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| pick(&s.name))
        .map(|(_, &ns)| ns as f64 / 1e9)
        .sum()
}

/// Sum of durations, in seconds, over spans whose name satisfies `pick`.
#[must_use]
pub fn total_seconds(spans: &[Span], pick: impl Fn(&str) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| pick(&s.name))
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

/// Share of the `windows` (`[start_ns, end_ns)` pairs) that root spans
/// (spans without a parent) cover.
#[must_use]
pub fn coverage(spans: &[Span], windows: &[(u64, u64)]) -> f64 {
    let (mut covered, mut total) = (0, 0);
    for &(start_ns, end_ns) in windows {
        let roots = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns.max(start_ns), s.end_ns.min(end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        covered += union_ns(roots);
        total += end_ns.saturating_sub(start_ns);
    }
    covered as f64 / total.max(1) as f64
}

/// Spans as JSON lines (one object per span) with their self times.
#[must_use]
pub fn to_json_lines(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {}, \"request\": {}}}\n",
            crate::report::quote(&s.name),
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.request),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("parent", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Children cover 10..60 and 90..100: 60 ns of the parent.
        assert_eq!(self_times(&spans), vec![40, 40, 30, 30]);
        assert_eq!(coverage(&spans, &[(0, 200)]), 0.5);
        assert_eq!(coverage(&spans, &[(0, 50), (150, 200)]), 0.5);
    }
}
