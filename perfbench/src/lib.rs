//! End-to-end and per-layer benchmark of the IMPACT-I reproduction.
//!
//! Two workloads: `repro_all` (every table of the paper at the reduced
//! `--fast` budget, in process), and `serve_cold` (closed-loop
//! `/v1/simulate` load on an `impact serve` process with a persistent
//! store).
//! An untraced run prints the end-to-end metrics; a traced run
//! (`--trace 1`) records spans around the benchmark's own calls into
//! each crate and prints the per-layer metrics.

pub mod digests;
pub mod layers;
pub mod report;
pub mod repro;
pub mod requests;
pub mod serve;
pub mod span;

use std::path::PathBuf;

use impact_support::json::{Json, ToJson};

use crate::report::{Metrics, Tally};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["repro_all", "serve_cold"];

/// End-to-end metrics and units (printed with `--trace 0`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and units (printed with `--trace 1`). A layer the
/// workload does not exercise reports 0; `perfbench/layers.json` maps
/// each to the end-to-end metric and workload it should move.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("profile.walks", "count"),
    ("profile.instrs", "count"),
    ("profile.walk_s", "s"),
    ("profile.unique_walk_ratio", "ratio"),
    ("layout.inline_s", "s"),
    ("layout.trace_select_s", "s"),
    ("layout.function_layout_s", "s"),
    ("layout.global_layout_s", "s"),
    ("runner.prepare_s", "s"),
    ("runner.plan_s", "s"),
    ("runner.plan_s.minprob", "s"),
    ("runner.plan_s.table9", "s"),
    ("runner.plan_s.score", "s"),
    ("runner.plan_s.ablation", "s"),
    ("runner.finish_s", "s"),
    ("session.execute_s", "s"),
    ("session.evaluate_s", "s"),
    ("session.traces_streamed", "count"),
    ("session.memo_hit_ratio", "ratio"),
    ("session.disk_served", "count"),
    ("session.artifact_bytes", "bytes"),
    ("trace.walk_s", "s"),
    ("trace.instr_per_s", "1/s"),
    ("cache.sim_s", "s"),
    ("cache.instr_per_s", "1/s"),
    ("store.puts", "count"),
    ("store.bytes_written", "bytes"),
    ("store.put_s", "s"),
    ("store.hits", "count"),
    ("store.bytes_read", "bytes"),
    ("store.get_s", "s"),
    ("asm.parse_s", "s"),
    ("json.parse_s", "s"),
    ("json.render_s", "s"),
    ("serve.route_s", "s"),
    ("serve.http_s", "s"),
    ("serve.rcache_hit_ratio", "ratio"),
    ("tracing.coverage", "ratio"),
    ("tracing.overhead", "ratio"),
    ("tracing.wall_s", "s"),
];

/// Command-line options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `impact` binary `serve_cold` starts (`--impact-bin`).
    pub impact_bin: Option<PathBuf>,
}

impl Options {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`, plus the
    /// optional `--impact-bin PATH`.
    ///
    /// # Errors
    /// Describes the first missing or malformed argument.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut it = args.iter();
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut impact_bin = None;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => {
                    workload = Some(value.clone())
                }
                "--workload" => return Err(format!("unknown workload {value}")),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(value.parse().ok().filter(|&s| s >= 1).ok_or_else(bad)?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--impact-bin" => impact_bin = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            impact_bin,
        })
    }

    /// Directory for this run's stores, inside the working directory.
    #[must_use]
    pub fn work_dir(&self) -> PathBuf {
        PathBuf::from(".perfbench").join(format!("{}-{}", self.workload, std::process::id()))
    }
}

/// Result of one run: the output checks, every metric measured, and the
/// run record printed beside them.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks behind `correct`, `attempted` and `failed`.
    pub tally: Tally,
    /// Every metric measured (a superset of what is printed).
    pub metrics: Metrics,
    params: Vec<(String, Json)>,
    samples: Vec<(String, Json)>,
}

impl Outcome {
    /// An outcome with no run-record entries yet.
    #[must_use]
    pub fn new(tally: Tally, metrics: Metrics) -> Self {
        Self {
            tally,
            metrics,
            ..Self::default()
        }
    }

    /// Records a workload parameter in the run record.
    pub fn param(&mut self, key: &str, value: impl ToJson) {
        self.params.push((key.to_string(), value.to_json()));
    }

    /// Records the sample count behind a metric.
    pub fn samples(&mut self, metric: &str, n: usize) {
        self.samples.push((metric.to_string(), n.to_json()));
    }

    /// Writes the traced run's spans as JSON lines under `.perfbench/spans`.
    pub fn write_spans(&mut self, opts: &Options, spans: &[span::Span]) {
        let dir = PathBuf::from(".perfbench").join("spans");
        let path = dir.join(format!("{}-seed{}.jsonl", opts.workload, opts.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, span::to_json_lines(spans)))
            .is_ok();
        self.param("spans", spans.len());
        self.param(
            "spans_file",
            if written {
                path.to_string_lossy().into_owned()
            } else {
                "unwritten".to_string()
            },
        );
    }

    /// The metrics printed for this run: the end-to-end set untraced, the
    /// per-layer set traced, in list order, with list units.
    #[must_use]
    pub fn printed(&self, trace: bool) -> Metrics {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut out = Metrics::default();
        for &(name, unit) in list {
            out.set(name, self.metrics.get(name).unwrap_or(0.0), unit);
        }
        out
    }

    /// The run record printed on the line before the result.
    #[must_use]
    pub fn run_record(&self, opts: &Options) -> String {
        let obj = |fields: &[(String, Json)]| Json::Obj(fields.to_vec());
        Json::Obj(vec![(
            "run_record".to_string(),
            Json::Obj(vec![
                ("workload".into(), opts.workload.to_json()),
                ("seed".into(), opts.seed.to_json()),
                ("seconds".into(), opts.seconds.to_json()),
                ("traced".into(), opts.trace.to_json()),
                ("nproc".into(), report::nproc().to_json()),
                ("rustc".into(), report::rustc_version().to_json()),
                ("commit".into(), report::commit().to_json()),
                ("budget".into(), budget(&opts.workload).to_json()),
                ("attempted".into(), self.tally.attempted.to_json()),
                ("failed".into(), self.tally.failed.to_json()),
                ("error_rate".into(), self.tally.error_rate().to_json()),
                ("params".into(), obj(&self.params)),
                ("samples".into(), obj(&self.samples)),
            ]),
        )])
        .to_string()
    }
}

/// The instruction budget of a workload's simulations, as the run record
/// states it.
fn budget(workload: &str) -> String {
    if workload == "repro_all" {
        "fast (repro all --fast)".to_string()
    } else {
        format!("max_instrs {} per request", requests::MAX_INSTRS)
    }
}

/// Runs the selected workload.
#[must_use]
pub fn run(opts: &Options) -> Outcome {
    match opts.workload.as_str() {
        "repro_all" => repro::run(opts),
        "serve_cold" => serve::run(opts),
        other => unreachable!("workload {other} passed option parsing"),
    }
}
