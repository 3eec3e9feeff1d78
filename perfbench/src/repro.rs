//! `repro_all`: the in-process equivalent of `repro all --fast --jobs <nproc>`.
//!
//! All 17 tables over the ten paper workloads at the reduced (`--fast`)
//! budget, on a fresh `SimSession` without a store. It is a batch job:
//! its inputs are fixed, so the benchmark seed only picks the keys the
//! oracle and the traced trace/cache probe re-check.
//!
//! A pass is timed stage by stage (prepare, each table's plan, execute,
//! each table's finish), and `wall_s` is the sum over stages of the
//! fastest time each stage took in any pass of the run. The host's load
//! only ever adds time, so the minimum is the estimate that other
//! tenants move least; a pass takes a few seconds, so a run holds
//! several of them.

use std::cell::Cell;
use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use impact_experiments::prepare::{pipeline_config, prepare_many_jobs, Budget, Prepared};
use impact_experiments::runner::{self, TableOutput};
use impact_experiments::session::SimSession;
use impact_experiments::tables;
use impact_ir::Program;
use impact_layout::pipeline::{Checkpoint, PipelineObserver};
use impact_layout::{baseline, FunctionLayout, GlobalOrder, Pipeline, Placement};
use impact_profile::{Profile, ProfileSource, Profiler};
use impact_support::json::rows_to_json_pretty;
use impact_support::Rng;
use impact_workloads::Workload;

use crate::layers::{self, EvalKey};
use crate::report::{self, median, Metrics, RssSampler, Tally};
use crate::requests;
use crate::span::{self, Recorder, SpanId};
use crate::{digests, Options, Outcome, SETUP_REPS};

/// Keys the oracle re-checks per run, drawn by the benchmark seed.
const ORACLE_KEYS: usize = 2;
/// Keys the traced run replays through the trace and cache layers.
const PROBE_KEYS: usize = 4;
/// Passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// The budget of every pass: `repro all --fast`. At the full budget one
/// pass takes 13–31 s on a 2-vCPU VM, too long for a run to hold the
/// several passes the per-stage minimum needs.
fn budget() -> Budget {
    Budget::fast()
}

/// Set-up repetitions before each pass: with [`MIN_PASSES`] passes a run
/// makes at least [`SETUP_REPS`] of them, spread over the whole run
/// rather than bunched in its first milliseconds.
const SETUP_REPS_PER_PASS: usize = SETUP_REPS / MIN_PASSES;

/// Set-up: build the ten workload models, [`SETUP_REPS_PER_PASS`] times.
/// Returns the last models and appends each repetition's time to `times`.
fn setup(times: &mut Vec<f64>) -> Vec<Workload> {
    let mut workloads = Vec::new();
    for _ in 0..SETUP_REPS_PER_PASS {
        let t = Instant::now();
        workloads = impact_workloads::all();
        times.push(t.elapsed().as_secs_f64());
    }
    workloads
}

/// One pass through `runner::run_tables`: prepare, then plan, execute
/// and finish every table. It records the digests the timed passes are
/// checked against.
fn pass(workloads: &[Workload], jobs: usize) -> Vec<TableOutput> {
    let prepared = prepare_many_jobs(workloads, &budget(), jobs);
    let mut session = SimSession::with_jobs(jobs);
    let selected: Vec<u8> = runner::TABLE_IDS.collect();
    runner::run_tables(&mut session, &prepared, &selected)
}

/// A timed pass's models, session, table outputs and stage times.
type Timed = (
    Vec<Prepared>,
    SimSession,
    Vec<(String, String, String)>,
    Vec<f64>,
);

/// One untraced pass, timed stage by stage: the same calls as
/// `runner::run_tables`, made one table at a time through each table's
/// public `plan` and `finish`. Returns the stage times in stage order.
fn timed_pass(workloads: &[Workload], jobs: usize) -> Timed {
    let mut stages = Vec::with_capacity(2 + 2 * runner::TABLE_IDS.count());
    let mut timed = |t: Instant| stages.push(t.elapsed().as_secs_f64());
    let t = Instant::now();
    let prepared = prepare_many_jobs(workloads, &budget(), jobs);
    timed(t);
    let mut session = SimSession::with_jobs(jobs);
    let plans: Vec<(u8, Finish<'_>)> = runner::TABLE_IDS
        .map(|n| {
            let t = Instant::now();
            let plan = plan_table(n, &mut session, &prepared);
            timed(t);
            (n, plan)
        })
        .collect();
    let t = Instant::now();
    session.execute();
    timed(t);
    let outputs = plans
        .into_iter()
        .map(|(n, finish)| {
            let t = Instant::now();
            let (text, json) = finish(&mut session);
            timed(t);
            (runner::label(n).to_string(), text, json)
        })
        .collect();
    (prepared, session, outputs, stages)
}

/// Compares every table's text and JSON bytes to the recorded digests.
fn check_outputs(outputs: &[(String, String, String)], tally: &mut Tally) {
    for (label, text, json) in outputs {
        let expected = digests::TABLES.iter().find(|(l, _, _)| l == label);
        let (text_ok, json_ok) = match expected {
            Some((_, t, j)) => (
                digests::sha256_hex(text) == *t,
                digests::sha256_hex(json) == *j,
            ),
            None => (false, false),
        };
        tally.check(text_ok);
        tally.check(json_ok);
    }
    tally.check(outputs.len() == digests::TABLES.len());
}

fn owned(outputs: Vec<TableOutput>) -> Vec<(String, String, String)> {
    outputs
        .into_iter()
        .map(|o| (o.label.to_string(), o.text, o.json))
        .collect()
}

fn eval_key(p: &Prepared) -> EvalKey<'_> {
    EvalKey {
        program: &p.result.program,
        placement: &p.result.placement,
        seed: p.eval_seed(),
        limits: p.budget.eval_limits(&p.workload),
    }
}

/// Seeded sample of prepared benchmarks.
fn sample(prepared: &[Prepared], seed: u64, n: usize) -> Vec<&Prepared> {
    let mut idx: Vec<usize> = (0..prepared.len()).collect();
    Rng::seed_from_u64(seed).shuffle(&mut idx);
    idx.into_iter().take(n).map(|i| &prepared[i]).collect()
}

/// Re-checks the session's statistics for a seeded sample of the
/// optimized evaluation keys against the scalar oracle.
fn oracle(session: &mut SimSession, prepared: &[Prepared], seed: u64, tally: &mut Tally) {
    let configs = requests::configs();
    for p in sample(prepared, seed, ORACLE_KEYS) {
        let key = eval_key(p);
        let handle = session.request(key.program, key.placement, key.seed, key.limits, &configs);
        session.execute();
        let stats = session.stats(&handle);
        tally.check(layers::oracle_agrees(&key, &configs, &stats));
    }
}

/// One untraced pass's table outputs (for `--record-digests`).
#[must_use]
pub fn table_outputs() -> Vec<(String, String, String)> {
    owned(pass(&impact_workloads::all(), report::nproc()))
}

/// Runs the workload.
pub fn run(opts: &Options) -> Outcome {
    let jobs = report::nproc();
    let mut setup_times = Vec::new();
    let mut workloads = Vec::new();
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();

    let rss = RssSampler::start();
    let mut walls = Vec::new();
    let mut fastest: Vec<f64> = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while walls.len() < MIN_PASSES || start.elapsed() < Duration::from_secs(opts.seconds) {
        drop(last.take()); // release the previous pass's session first
        workloads = setup(&mut setup_times);
        let (prepared, session, outputs, stages) = timed_pass(&workloads, jobs);
        walls.push(stages.iter().sum::<f64>());
        if fastest.is_empty() {
            fastest = stages;
        } else {
            for (f, s) in fastest.iter_mut().zip(stages) {
                *f = f.min(s);
            }
        }
        check_outputs(&outputs, &mut tally);
        last = Some((prepared, session));
    }
    let peak_rss = rss.finish();
    let (prepared, mut session) = last.expect("at least one pass ran");
    oracle(&mut session, &prepared, opts.seed, &mut tally);

    metrics.set("setup_s", median(&setup_times), "s");
    let wall: f64 = fastest.iter().sum();
    metrics.set("wall_s", wall, "s");
    // A batch job is one request: its latency is the pass's wall time.
    metrics.set("rps", 1.0 / wall, "1/s");
    metrics.set("latency_p50_ms", wall * 1e3, "ms");
    metrics.set("latency_p99_ms", wall * 1e3, "ms");
    metrics.set("peak_rss_mb", peak_rss, "MiB");

    let mut outcome = Outcome::new(tally, metrics);
    outcome.param("passes", walls.len());
    outcome.param("tables", digests::TABLES.len());
    outcome.param("workloads", workloads.len());
    outcome.param("jobs", jobs);
    outcome.param("stages", fastest.len());
    outcome.param("pass_wall_median_s", median(&walls));
    outcome.samples("wall_s", walls.len());
    outcome.samples("latency_p50_ms", walls.len());
    outcome.samples("latency_p99_ms", walls.len());
    outcome.samples("setup_s", setup_times.len());
    if opts.trace {
        traced(opts, &workloads, jobs, median(&walls), &mut outcome);
    }
    outcome
}

// ---------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------

/// Walk counts gathered by [`Probe`] across every traced pipeline.
#[derive(Default)]
struct WalkLedger {
    walks: AtomicU64,
    instrs: AtomicU64,
    distinct: Mutex<HashSet<(u64, u64, u64, usize)>>,
}

/// Timing [`ProfileSource`]: profiles exactly as the pipeline's own
/// profiler would, inside a `profile.walk` span, and records each walk's
/// `(program structure, seed, limits)` key.
struct Probe<'a> {
    rec: &'a Recorder,
    ledger: &'a WalkLedger,
    profiler: Profiler,
    runs: u32,
    base_seed: u64,
    limits: impact_profile::ExecLimits,
    /// Span that encloses the next profile call.
    parent: Cell<SpanId>,
}

impl ProfileSource for Probe<'_> {
    fn profile(&self, program: &Program) -> Profile {
        let profile = self
            .rec
            .time("profile.walk", Some(self.parent.get()), None, |_| {
                self.profiler.profile(program)
            });
        let mut h = DefaultHasher::new();
        impact_asm::print_program(program).hash(&mut h);
        let structure = h.finish();
        let mut distinct = self.ledger.distinct.lock().expect("walk ledger poisoned");
        for run in 0..self.runs {
            distinct.insert((
                structure,
                self.base_seed + u64::from(run),
                self.limits.max_instructions,
                self.limits.max_call_depth,
            ));
        }
        self.ledger
            .walks
            .fetch_add(u64::from(self.runs), Ordering::Relaxed);
        self.ledger
            .instrs
            .fetch_add(profile.totals.instructions, Ordering::Relaxed);
        profile
    }
}

/// [`PipelineObserver`] that turns the pipeline's checkpoints into
/// layer spans, and re-runs function and global layout from the
/// trace-selection checkpoint to time them (the replica must reproduce
/// the pipeline's placement exactly).
struct Stepper<'a> {
    probe: &'a Probe<'a>,
    pipeline: SpanId,
    open: Option<SpanId>,
    replica: Option<Placement>,
    replica_matches: bool,
}

impl Stepper<'_> {
    fn switch(&mut self, name: &str) {
        let rec = self.probe.rec;
        if let Some(id) = self.open.take() {
            rec.exit(id);
        }
        let id = rec.enter(name, Some(self.pipeline), None);
        self.probe.parent.set(id);
        self.open = Some(id);
    }
}

impl PipelineObserver for Stepper<'_> {
    fn checkpoint(&mut self, checkpoint: &Checkpoint<'_>) {
        let rec = self.probe.rec;
        match checkpoint {
            // Inline expansion runs from here to `Inlined`, re-profiling
            // as it goes; those walks are child spans, not inline time.
            Checkpoint::Profiled { .. } => self.switch("layout.inline"),
            Checkpoint::Inlined { .. } => self.switch("layout.trace_select"),
            Checkpoint::TracesSelected {
                program,
                profile,
                traces,
            } => {
                if let Some(id) = self.open.take() {
                    rec.exit(id);
                }
                let t = Instant::now();
                let layouts: Vec<FunctionLayout> = program
                    .functions()
                    .map(|(fid, func)| {
                        FunctionLayout::compute(func, fid, &traces[fid.index()], profile)
                    })
                    .collect();
                let mid = Instant::now();
                let global = GlobalOrder::compute(program, profile);
                let placement = Placement::assemble(program, &global, &layouts);
                let end = Instant::now();
                rec.record("layout.function_layout", Some(self.pipeline), None, t, mid);
                rec.record("layout.global_layout", Some(self.pipeline), None, mid, end);
                self.replica = Some(placement);
                self.switch("layout.pipeline_rest");
            }
            Checkpoint::Placed { result } => {
                if let Some(id) = self.open.take() {
                    rec.exit(id);
                }
                self.replica_matches = self.replica.as_ref() == Some(&result.placement);
            }
            _ => {}
        }
    }
}

/// `prepare::prepare` driven through the observed pipeline.
fn observed_prepare(
    rec: &Recorder,
    ledger: &WalkLedger,
    parent: SpanId,
    workload: &Workload,
    budget: &Budget,
) -> (Prepared, bool) {
    let config = pipeline_config(workload, budget);
    let pipeline = rec.enter(format!("pipeline.{}", workload.name), Some(parent), None);
    let probe = Probe {
        rec,
        ledger,
        profiler: Profiler::new()
            .runs(config.profile_runs)
            .base_seed(config.profile_base_seed)
            .limits(config.limits),
        runs: config.profile_runs,
        base_seed: config.profile_base_seed,
        limits: config.limits,
        parent: Cell::new(pipeline),
    };
    let mut stepper = Stepper {
        probe: &probe,
        pipeline,
        open: None,
        replica: None,
        replica_matches: false,
    };
    let result =
        Pipeline::new(config).run_observed_with_source(&workload.program, &probe, &mut stepper);
    let replica_matches = stepper.replica_matches;
    rec.exit(pipeline);
    let prepared = Prepared {
        workload: workload.clone(),
        result,
        baseline_program: workload.program.clone(),
        baseline: baseline::natural(&workload.program),
        budget: *budget,
    };
    (prepared, replica_matches)
}

/// A planned table's finish-and-render step.
type Finish<'a> = Box<dyn FnOnce(&mut SimSession) -> (String, String) + 'a>;

/// Plans table `n` through its public `plan`, returning its public
/// `finish` + `render` as a closure (the runner's match, table by table).
fn plan_table<'a>(n: u8, session: &mut SimSession, prepared: &'a [Prepared]) -> Finish<'a> {
    use tables::{
        ablation, assoc, estimate_validation, min_prob, paging, score_validation,
        static_validation, t1, t2, t3, t4, t5, t6, t7, t8, t9, variability,
    };
    macro_rules! table {
        ($m:ident, |$s:ident, $p:ident| $finish:expr) => {{
            let $p = $m::plan(session, prepared);
            Box::new(move |$s: &mut SimSession| {
                let rows = $finish;
                ($m::render(&rows), rows_to_json_pretty(&rows))
            })
        }};
    }
    match n {
        1 => table!(t1, |s, p| t1::finish(s, &p)),
        2 => table!(t2, |s, p| t2::finish(s, p)),
        3 => table!(t3, |s, p| t3::finish(s, p)),
        4 => table!(t4, |s, p| t4::finish(s, p)),
        5 => table!(t5, |s, p| t5::finish(s, &p)),
        6 => table!(t6, |s, p| t6::finish(s, &p)),
        7 => table!(t7, |s, p| t7::finish(s, &p)),
        8 => table!(t8, |s, p| t8::finish(s, &p)),
        9 => table!(t9, |s, p| t9::finish(s, &p)),
        10 => table!(ablation, |s, p| ablation::finish(s, p)),
        11 => table!(paging, |s, p| paging::finish(s, p)),
        12 => table!(estimate_validation, |s, p| {
            estimate_validation::finish(s, &p, prepared)
        }),
        13 => table!(variability, |s, p| variability::finish(s, &p)),
        14 => table!(assoc, |s, p| assoc::finish(s, &p)),
        15 => table!(min_prob, |s, p| min_prob::finish(s, &p)),
        16 => table!(static_validation, |s, p| {
            static_validation::finish(s, &p, prepared)
        }),
        17 => table!(score_validation, |s, p| {
            score_validation::finish(s, &p, prepared)
        }),
        _ => panic!("unknown table id {n}"),
    }
}

/// The traced run: the untraced passes were already measured (their
/// median wall time is `untraced_wall`, the overhead baseline); this
/// drives prepare and every table's plan and finish one by one around
/// `session.execute()`, with spans.
fn traced(
    opts: &Options,
    workloads: &[Workload],
    jobs: usize,
    untraced_wall: f64,
    out: &mut Outcome,
) {
    let rec = Recorder::new();
    let ledger = WalkLedger::default();
    let budget = budget();
    let t0 = Instant::now();
    let begin = rec.now_ns();
    let root = rec.enter("repro.pass", None, None);

    let prepare_span = rec.enter("runner.prepare", Some(root), None);
    let results = impact_support::parallel_map(jobs, workloads.iter().collect(), |w| {
        observed_prepare(&rec, &ledger, prepare_span, w, &budget)
    });
    rec.exit(prepare_span);
    let mut replicas_ok = true;
    let prepared: Vec<Prepared> = results
        .into_iter()
        .map(|(p, ok)| {
            replicas_ok &= ok;
            p
        })
        .collect();

    let mut session = SimSession::with_jobs(jobs);
    let plans: Vec<(u8, Finish<'_>)> = runner::TABLE_IDS
        .map(|n| {
            let plan = rec.time(
                format!("plan.{}", runner::label(n)),
                Some(root),
                None,
                |_| plan_table(n, &mut session, &prepared),
            );
            (n, plan)
        })
        .collect();
    rec.time("session.execute", Some(root), None, |_| session.execute());
    let outputs: Vec<(String, String, String)> = plans
        .into_iter()
        .map(|(n, finish)| {
            let label = runner::label(n);
            let (text, json) = rec.time(format!("finish.{label}"), Some(root), None, |_| {
                finish(&mut session)
            });
            (label.to_string(), text, json)
        })
        .collect();
    rec.exit(root);
    let end = rec.now_ns();
    let traced_wall = t0.elapsed().as_secs_f64();
    check_outputs(&outputs, &mut out.tally);
    out.tally.check(replicas_ok);

    let spans = rec.spans();
    let selfs = span::self_times(&spans);
    let m = &mut out.metrics;
    let walks = ledger.walks.load(Ordering::Relaxed);
    let distinct = ledger.distinct.lock().expect("walk ledger poisoned").len();
    m.set("profile.walks", walks as f64, "count");
    m.set(
        "profile.instrs",
        ledger.instrs.load(Ordering::Relaxed) as f64,
        "count",
    );
    m.set(
        "profile.walk_s",
        span::total_seconds(&spans, |n| n == "profile.walk"),
        "s",
    );
    m.set(
        "profile.unique_walk_ratio",
        distinct as f64 / walks.max(1) as f64,
        "ratio",
    );
    for layer in ["inline", "trace_select", "function_layout", "global_layout"] {
        let name = format!("layout.{layer}");
        m.set(
            &format!("{name}_s"),
            span::self_seconds(&spans, &selfs, |n| n == name),
            "s",
        );
    }
    m.set(
        "runner.prepare_s",
        span::total_seconds(&spans, |n| n == "runner.prepare"),
        "s",
    );
    m.set(
        "runner.plan_s",
        span::total_seconds(&spans, |n| n.starts_with("plan.")),
        "s",
    );
    for table in ["minprob", "table9", "score", "ablation"] {
        let name = format!("plan.{table}");
        m.set(
            &format!("runner.plan_s.{table}"),
            span::total_seconds(&spans, |n| n == name),
            "s",
        );
    }
    m.set(
        "runner.finish_s",
        span::total_seconds(&spans, |n| n.starts_with("finish.")),
        "s",
    );
    m.set(
        "session.execute_s",
        span::total_seconds(&spans, |n| n == "session.execute"),
        "s",
    );
    let sm = session.metrics();
    m.set(
        "session.traces_streamed",
        sm.traces_streamed as f64,
        "count",
    );
    m.set(
        "session.memo_hit_ratio",
        sm.memo_served as f64 / sm.configs_requested.max(1) as f64,
        "ratio",
    );
    m.set("session.disk_served", sm.disk_served as f64, "count");
    m.set("session.artifact_bytes", sm.artifact_bytes as f64, "bytes");

    let keys: Vec<EvalKey<'_>> = sample(&prepared, opts.seed, PROBE_KEYS)
        .into_iter()
        .map(eval_key)
        .collect();
    let probed = layers::trace_and_cache(&rec, &keys, &requests::configs(), m);

    m.set(
        "tracing.coverage",
        span::coverage(&spans, &[(begin, end)]),
        "ratio",
    );
    m.set(
        "tracing.overhead",
        traced_wall / untraced_wall - 1.0,
        "ratio",
    );
    m.set("tracing.wall_s", traced_wall, "s");
    out.param("traced_wall_s", traced_wall);
    out.param("profile_walks_distinct", distinct);
    out.param("trace_cache_keys", probed);
    out.write_spans(opts, &rec.spans());
}
