//! `SimSession` — the shared, parallel, memoizing evaluation engine
//! behind every table runner.
//!
//! The paper applies "the entire execution traces ... to the cache
//! simulator"; fifteen table runners each need cache statistics over the
//! *same* handful of evaluation traces, differing only in which
//! [`CacheConfig`]s they care about. Re-streaming a multi-million-access
//! trace per table is pure waste, so the session works in three phases:
//!
//! 1. **Plan** — table runners [`request`](SimSession::request) cache
//!    statistics (or [`request_sink`](SimSession::request_sink) a custom
//!    [`AccessSink`]) for a `(program, placement, seed, limits)` key and
//!    receive a handle. Identical keys are interned — detected by a
//!    structural fingerprint and confirmed by full equality — and the
//!    requested configurations accumulate into one deduplicated union
//!    per key.
//! 2. **Execute** — [`execute`](SimSession::execute) streams every
//!    pending trace **through the interpreter at most once**, fanning
//!    keys across up to [`jobs`](SimSession::jobs) scoped threads
//!    ([`impact_support::parallel_map`]); each stream drives a single
//!    [`MultiLane`] bank holding the key's config union plus any
//!    attached sinks, while a [`CaptureSink`] tee records the run
//!    stream into a [`RunBuffer`] artifact. Keys that gain demands
//!    *after* their first execution replay the artifact at memcpy
//!    speed instead of re-walking the interpreter (a session-level
//!    byte budget caps artifact memory; over budget, late demands fall
//!    back to re-streaming). Results are stored per key, in
//!    deterministic order — with one job the execution is exactly
//!    today's serial loop.
//! 3. **Serve** — [`stats`](SimSession::stats),
//!    [`instructions`](SimSession::instructions) and
//!    [`take_sink`](SimSession::take_sink) hand results back through the
//!    handles; every duplicate demand is served from the memo.
//!
//! [`SimMetrics`] exposes the observability layer: traces streamed vs.
//! memo-served, instructions simulated, and per-table / per-simulation
//! wall-clock with instructions-per-second rates.

use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use impact_cache::{AccessSink, CacheConfig, CacheStats, MultiLane};
use impact_ir::Program;
use impact_layout::Placement;
use impact_profile::{ExecLimits, ProfileMemo};
use impact_store::{Cid, Store, StoreCounters};
use impact_support::json::{Json, ToJson};
use impact_trace::{CaptureSink, RunBuffer, TraceGenerator};

use crate::persist;

/// Default cap on run-buffer artifact memory per session (bytes). Run
/// buffers cost ~16 bytes per straight-line stretch (~10–15 dynamic
/// instructions), so the default holds roughly two billion instructions
/// of unique trace — far beyond a full 16-table `repro` run — while
/// bounding a long-lived service. Tune with
/// [`SimSession::with_artifact_budget`]; a budget of `0` disables
/// capture entirely (every late demand re-streams the interpreter, the
/// pre-artifact behavior).
pub const DEFAULT_ARTIFACT_BUDGET: usize = 256 << 20;

/// Ticket for one [`SimSession::request`]: redeem with
/// [`SimSession::stats`] / [`SimSession::instructions`] after
/// [`SimSession::execute`].
#[derive(Debug, Clone)]
pub struct SimHandle {
    key: usize,
    slots: Vec<usize>,
}

/// Ticket for one [`SimSession::request_sink`]: redeem with
/// [`SimSession::take_sink`] after [`SimSession::execute`].
#[derive(Debug, Clone)]
pub struct SinkHandle {
    key: usize,
    slot: usize,
}

/// Object-safe adapter so heterogeneous sinks (prefetchers, victim
/// caches, paging simulators, ...) can ride one trace stream and be
/// recovered by concrete type afterwards.
trait SessionSink: Send {
    fn access_addr(&mut self, addr: u64);
    fn access_run_addr(&mut self, addr: u64, words: u64);
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<S: AccessSink + Send + 'static> SessionSink for S {
    fn access_addr(&mut self, addr: u64) {
        self.access(addr);
    }

    fn access_run_addr(&mut self, addr: u64, words: u64) {
        self.access_run(addr, words);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Fans one run-batched trace stream across the key's lane bank and its
/// attached sinks, preserving run granularity for both.
struct Fanout<'a> {
    bank: &'a mut MultiLane,
    sinks: &'a mut Vec<Box<dyn SessionSink>>,
}

impl AccessSink for Fanout<'_> {
    fn access(&mut self, addr: u64) {
        self.bank.access(addr);
        for s in self.sinks.iter_mut() {
            s.access_addr(addr);
        }
    }

    fn access_run(&mut self, addr: u64, words: u64) {
        self.bank.access_run(addr, words);
        for s in self.sinks.iter_mut() {
            s.access_run_addr(addr, words);
        }
    }
}

/// One interned evaluation trace: the key identity, the union of
/// requested cache configurations, attached sinks, and (after execution)
/// the per-config statistics.
struct KeyEntry {
    program: Program,
    placement: Placement,
    seed: u64,
    limits: ExecLimits,
    fingerprint: u64,
    /// Persistent 256-bit key (computed only when a store is attached).
    cid: Option<Cid>,
    /// Union of requested configurations, deduplicated, request order.
    configs: Vec<CacheConfig>,
    /// Statistics for `configs[..simulated]`.
    stats: Vec<CacheStats>,
    /// Number of leading configs already simulated.
    simulated: usize,
    /// Attached sinks (`None` once taken back by the requester).
    sinks: Vec<Option<Box<dyn SessionSink>>>,
    /// Number of leading sinks already streamed.
    streamed_sinks: usize,
    /// Trace length, once streamed at least once.
    instructions: Option<u64>,
    /// Captured run-buffer artifact of this key's trace: recorded on
    /// the first (interpreter) execution, replayed for every later
    /// demand. `None` before the first execution, or when storing it
    /// would exceed the session artifact budget. Shared so a delivery
    /// can replay it without the session borrowed.
    artifact: Option<Arc<RunBuffer>>,
    /// Set while a [`SharedSimSession`] delivery of this key runs outside
    /// the lock; other evaluations of the key wait instead of walking it.
    in_flight: bool,
}

impl KeyEntry {
    fn pending(&self) -> bool {
        self.simulated < self.configs.len()
            || self.streamed_sinks < self.sinks.len()
            || self.instructions.is_none()
    }

    /// Whether every result `handle` redeems has been filed.
    fn serves(&self, handle: &SimHandle) -> bool {
        self.instructions.is_some() && handle.slots.iter().all(|&s| s < self.simulated)
    }
}

/// One key's pending demands, taken out of the session so they can be
/// delivered with the session unborrowed: fanned across threads by
/// [`SimSession::execute`], or outside the lock by
/// [`SharedSimSession::evaluate`].
struct Work {
    key: usize,
    seed: u64,
    limits: ExecLimits,
    cid: Option<Cid>,
    /// The key's not-yet-simulated configs.
    configs: Vec<CacheConfig>,
    /// The key's not-yet-streamed sinks.
    sinks: Vec<Box<dyn SessionSink>>,
    /// Trace length, when an earlier delivery learned it.
    instructions: Option<u64>,
    /// The key's in-memory artifact, replayed instead of a walk.
    artifact: Option<Arc<RunBuffer>>,
    /// Whether the artifact budget has room for a new artifact: a walk
    /// captures one, and a store-backed key first tries to reload one.
    capture: bool,
}

/// The outcome of delivering one [`Work`], filed back by
/// [`SimSession::file`].
struct Delivered {
    key: usize,
    /// Statistics of the work's configs, in order.
    stats: Vec<CacheStats>,
    sinks: Vec<Box<dyn SessionSink>>,
    instructions: u64,
    nanos: u64,
    mode: SimMode,
    /// An artifact this delivery captured or reloaded from the store,
    /// kept if the session budget still has room for it.
    artifact: Option<Arc<RunBuffer>>,
    /// Whether `artifact` was reloaded from the store.
    loaded: bool,
}

/// How one [`SimRecord`]'s instructions were delivered to the sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// First execution of the key: the CFG interpreter walked the
    /// program (capturing the run-buffer artifact along the way).
    Interpreted,
    /// Later execution of the key: its stored [`RunBuffer`] artifact
    /// was replayed, no interpreter involved.
    Replayed,
    /// Every pending config result was loaded from the attached on-disk
    /// store: no interpreter, no replay, no trace stream at all.
    DiskServed,
}

impl SimMode {
    /// Stable label used in metrics documents.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SimMode::Interpreted => "interpreted",
            SimMode::Replayed => "replayed",
            SimMode::DiskServed => "disk_served",
        }
    }
}

/// One trace delivery performed by [`SimSession::execute`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimRecord {
    /// Key fingerprint (hex), stable within a process run.
    pub fingerprint: String,
    /// Evaluation input seed of the streamed trace.
    pub seed: u64,
    /// Cache configurations simulated during this stream.
    pub configs: u64,
    /// Extra sinks driven during this stream.
    pub sinks: u64,
    /// Instructions streamed.
    pub instructions: u64,
    /// Wall-clock nanoseconds spent streaming.
    pub nanos: u64,
    /// Interpreter walk or artifact replay.
    pub mode: SimMode,
}

impl SimRecord {
    /// Simulated instructions per second of this stream.
    #[must_use]
    pub fn instrs_per_sec(&self) -> f64 {
        per_sec(self.instructions, self.nanos)
    }
}

/// Per-table plan/render timing recorded by the table driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRecord {
    /// Table label (`table1` ... `minprob`).
    pub label: String,
    /// Nanoseconds spent planning (includes per-table pipeline re-runs).
    pub plan_nanos: u64,
    /// Nanoseconds spent assembling rows and rendering text/JSON.
    pub render_nanos: u64,
}

/// Observability snapshot of a [`SimSession`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimMetrics {
    /// Worker-thread cap the session executes with.
    pub jobs: u64,
    /// `request`/`request_sink` calls served.
    pub requests: u64,
    /// Distinct `(program, placement, seed, limits)` keys interned.
    pub unique_traces: u64,
    /// Interpreter trace walks actually performed.
    pub traces_streamed: u64,
    /// Interpreter re-walks of a key that had already been streamed —
    /// the artifact-budget fallback path (0 whenever artifacts are on
    /// and within budget).
    pub restreams: u64,
    /// Artifact replays: late demands served by replaying the key's
    /// stored run buffer instead of re-walking the interpreter.
    pub replays: u64,
    /// Key deliveries answered entirely from the on-disk store: every
    /// pending config result was loaded and verified, no trace stream.
    pub disk_served: u64,
    /// Run-buffer artifacts reloaded from the on-disk store (the key
    /// then replays instead of re-interpreting, even in a new process).
    pub artifacts_loaded: u64,
    /// Requests that hit an already-interned key.
    pub memo_key_hits: u64,
    /// Config results requested across all `request` calls.
    pub configs_requested: u64,
    /// Distinct configs actually simulated (union sizes summed).
    pub configs_simulated: u64,
    /// Config results served from the memo instead of a new simulation.
    pub memo_served: u64,
    /// Total instructions of unique traces (each counted once).
    pub instructions: u64,
    /// Instructions delivered by interpreter walks (first streams and
    /// budget-fallback re-streams).
    pub instructions_interpreted: u64,
    /// Instructions delivered by artifact replays.
    pub instructions_replayed: u64,
    /// Instructions whose re-simulation was avoided entirely because an
    /// already-executed config result was memo-served (trace length ×
    /// memo-served results of executed keys).
    pub instructions_memo_served: u64,
    /// Instructions whose simulation was avoided because the key was
    /// disk-served (trace length recorded with the stored results).
    pub instructions_disk_served: u64,
    /// Nanoseconds spent in interpreter walks (summed over threads).
    pub interp_nanos: u64,
    /// Nanoseconds spent in artifact replays (summed over threads).
    pub replay_nanos: u64,
    /// Nanoseconds spent loading and verifying disk-served results.
    pub disk_nanos: u64,
    /// Run-buffer artifacts currently stored.
    pub artifacts_stored: u64,
    /// Bytes held by stored artifacts (counted against the budget).
    pub artifact_bytes: u64,
    /// Total nanoseconds across streams (summed over threads).
    pub sim_nanos: u64,
    /// Wall-clock nanoseconds spent delivering: each `execute` call
    /// that had work, plus each shared evaluation's delivery. Shared
    /// evaluations of distinct keys overlap, so the sum can exceed real
    /// time.
    pub wall_nanos: u64,
    /// Shared evaluations that found their key already in flight and
    /// waited for that delivery instead of walking the trace again.
    pub inflight_waits: u64,
    /// One record per trace stream.
    pub simulations: Vec<SimRecord>,
    /// One record per table run through the session (filled by the
    /// `runner` driver).
    pub tables: Vec<TableRecord>,
    /// Counters of the attached on-disk store (`None` without one).
    pub store: Option<StoreCounters>,
    /// Measured profiles the table runners' pipeline re-runs asked the
    /// session's profile memo for.
    pub profiles_requested: u64,
    /// Of those, the ones the memo had to walk (its misses); the rest
    /// reused a profile an earlier pipeline run had measured.
    pub profiles_walked: u64,
}

impl SimMetrics {
    /// Aggregate delivered instructions per second (interpreted plus
    /// replayed, over total sim time summed across threads).
    #[must_use]
    pub fn instrs_per_sec(&self) -> f64 {
        per_sec(
            self.instructions_interpreted + self.instructions_replayed,
            self.sim_nanos,
        )
    }

    /// Interpreter-walk instructions per second (0.0 when nothing was
    /// interpreted — the division is guarded, never `NaN`/`inf`).
    #[must_use]
    pub fn interpreted_instrs_per_sec(&self) -> f64 {
        per_sec(self.instructions_interpreted, self.interp_nanos)
    }

    /// Artifact-replay instructions per second (0.0 when nothing was
    /// replayed — the division is guarded, never `NaN`/`inf`).
    #[must_use]
    pub fn replayed_instrs_per_sec(&self) -> f64 {
        per_sec(self.instructions_replayed, self.replay_nanos)
    }

    /// Multi-line human summary (the `repro` stderr report).
    #[must_use]
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sim: {} unique traces, {} streamed ({} re-streams), {} replays, {} disk-served, {} memo key hits",
            self.unique_traces,
            self.traces_streamed,
            self.restreams,
            self.replays,
            self.disk_served,
            self.memo_key_hits
        );
        let _ = writeln!(
            out,
            "sim: {} config results requested, {} simulated, {} memo-served",
            self.configs_requested, self.configs_simulated, self.memo_served
        );
        // Per-mode accounting with guarded rates: a session where
        // everything replays (or is memo-served) must report honest
        // numbers, not a division by a near-zero interpreter time.
        let _ = writeln!(
            out,
            "sim: interpreted {} instrs ({}), replayed {} ({}), memo-served {} (no sim time)",
            self.instructions_interpreted,
            rate_label(self.interpreted_instrs_per_sec()),
            self.instructions_replayed,
            rate_label(self.replayed_instrs_per_sec()),
            self.instructions_memo_served,
        );
        let _ = writeln!(
            out,
            "profile: {} requested by pipeline re-runs, {} walked, {} memo-served",
            self.profiles_requested,
            self.profiles_walked,
            self.profiles_requested.saturating_sub(self.profiles_walked),
        );
        if let Some(store) = &self.store {
            let _ = writeln!(
                out,
                "sim: disk-served {} keys / {} instrs; store {} hits, {} misses, {} puts, {} corrupt, {} KiB read, {} KiB written",
                self.disk_served,
                self.instructions_disk_served,
                store.hits,
                store.misses,
                store.puts,
                store.corrupt,
                store.bytes_read >> 10,
                store.bytes_written >> 10,
            );
        }
        let _ = write!(
            out,
            "sim: {} instructions delivered in {:.2?} sim time ({:.2}M instr/s, {} jobs, {:.2?} wall, {} artifacts / {} KiB)",
            self.instructions_interpreted + self.instructions_replayed,
            std::time::Duration::from_nanos(self.sim_nanos),
            self.instrs_per_sec() / 1e6,
            self.jobs,
            std::time::Duration::from_nanos(self.wall_nanos),
            self.artifacts_stored,
            self.artifact_bytes >> 10,
        );
        out
    }
}

/// `"230.36M instr/s"` — or `"-"` when nothing ran in that mode, so a
/// zero-work mode never renders as a bogus rate.
fn rate_label(rate: f64) -> String {
    if rate == 0.0 {
        "-".to_string()
    } else {
        format!("{:.2}M instr/s", rate / 1e6)
    }
}

fn per_sec(count: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        0.0
    } else {
        count as f64 * 1e9 / nanos as f64
    }
}

impl ToJson for SimRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("fingerprint".into(), self.fingerprint.to_json()),
            ("seed".into(), self.seed.to_json()),
            ("configs".into(), self.configs.to_json()),
            ("sinks".into(), self.sinks.to_json()),
            ("instructions".into(), self.instructions.to_json()),
            ("nanos".into(), self.nanos.to_json()),
            ("instrs_per_sec".into(), self.instrs_per_sec().to_json()),
            ("mode".into(), self.mode.label().to_json()),
        ])
    }
}

impl ToJson for TableRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label".into(), self.label.to_json()),
            ("plan_nanos".into(), self.plan_nanos.to_json()),
            ("render_nanos".into(), self.render_nanos.to_json()),
        ])
    }
}

impl ToJson for SimMetrics {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("jobs".into(), self.jobs.to_json()),
            ("requests".into(), self.requests.to_json()),
            ("unique_traces".into(), self.unique_traces.to_json()),
            ("traces_streamed".into(), self.traces_streamed.to_json()),
            ("restreams".into(), self.restreams.to_json()),
            ("replays".into(), self.replays.to_json()),
            ("disk_served".into(), self.disk_served.to_json()),
            ("artifacts_loaded".into(), self.artifacts_loaded.to_json()),
            ("memo_key_hits".into(), self.memo_key_hits.to_json()),
            ("configs_requested".into(), self.configs_requested.to_json()),
            ("configs_simulated".into(), self.configs_simulated.to_json()),
            ("memo_served".into(), self.memo_served.to_json()),
            ("instructions".into(), self.instructions.to_json()),
            (
                "instructions_interpreted".into(),
                self.instructions_interpreted.to_json(),
            ),
            (
                "instructions_replayed".into(),
                self.instructions_replayed.to_json(),
            ),
            (
                "instructions_memo_served".into(),
                self.instructions_memo_served.to_json(),
            ),
            (
                "instructions_disk_served".into(),
                self.instructions_disk_served.to_json(),
            ),
            ("interp_nanos".into(), self.interp_nanos.to_json()),
            ("replay_nanos".into(), self.replay_nanos.to_json()),
            ("disk_nanos".into(), self.disk_nanos.to_json()),
            (
                "interpreted_instrs_per_sec".into(),
                self.interpreted_instrs_per_sec().to_json(),
            ),
            (
                "replayed_instrs_per_sec".into(),
                self.replayed_instrs_per_sec().to_json(),
            ),
            ("artifacts_stored".into(), self.artifacts_stored.to_json()),
            ("artifact_bytes".into(), self.artifact_bytes.to_json()),
            ("sim_nanos".into(), self.sim_nanos.to_json()),
            ("wall_nanos".into(), self.wall_nanos.to_json()),
            ("inflight_waits".into(), self.inflight_waits.to_json()),
            ("instrs_per_sec".into(), self.instrs_per_sec().to_json()),
            ("simulations".into(), self.simulations.to_json()),
            ("tables".into(), self.tables.to_json()),
            (
                "profiles_requested".into(),
                self.profiles_requested.to_json(),
            ),
            ("profiles_walked".into(), self.profiles_walked.to_json()),
        ];
        if let Some(store) = &self.store {
            // Spliced flat so dashboards can grep `store_*` directly.
            if let Json::Obj(store_fields) = store.to_json() {
                fields.extend(store_fields);
            }
        }
        Json::Obj(fields)
    }
}

/// The shared, parallel, memoizing evaluation engine. See the module
/// docs for the plan / execute / serve lifecycle.
pub struct SimSession {
    jobs: usize,
    keys: Vec<KeyEntry>,
    /// Fingerprint → candidate key indices (equality-confirmed on use).
    by_fp: HashMap<u64, Vec<usize>>,
    requests: u64,
    memo_key_hits: u64,
    configs_requested: u64,
    memo_served: u64,
    traces_streamed: u64,
    restreams: u64,
    replays: u64,
    disk_served: u64,
    artifacts_loaded: u64,
    instructions: u64,
    instructions_interpreted: u64,
    instructions_replayed: u64,
    instructions_memo_served: u64,
    instructions_disk_served: u64,
    interp_nanos: u64,
    replay_nanos: u64,
    disk_nanos: u64,
    sim_nanos: u64,
    wall_nanos: u64,
    inflight_waits: u64,
    /// Bytes currently held by stored artifacts.
    artifact_bytes: usize,
    /// Cap on artifact memory; 0 disables capture.
    artifact_budget: usize,
    /// Attached persistent store: finished results and captured
    /// artifacts are written through, pending demands are answered from
    /// it before any trace streams.
    store: Option<Arc<Store>>,
    simulations: Vec<SimRecord>,
    tables: Vec<TableRecord>,
    /// Measured profiles of the table runners' pipeline re-runs. Lives
    /// and dies with the session; the serve path never fills it.
    profiles: ProfileMemo,
}

impl std::fmt::Debug for SimSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession")
            .field("jobs", &self.jobs)
            .field("keys", &self.keys.len())
            .field("requests", &self.requests)
            .field("traces_streamed", &self.traces_streamed)
            .finish_non_exhaustive()
    }
}

impl Default for SimSession {
    fn default() -> Self {
        Self::new()
    }
}

impl SimSession {
    /// A serial session (one worker thread).
    #[must_use]
    pub fn new() -> Self {
        Self::with_jobs(1)
    }

    /// A session that executes with up to `jobs` worker threads
    /// (clamped to at least 1).
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            keys: Vec::new(),
            by_fp: HashMap::new(),
            requests: 0,
            memo_key_hits: 0,
            configs_requested: 0,
            memo_served: 0,
            traces_streamed: 0,
            restreams: 0,
            replays: 0,
            disk_served: 0,
            artifacts_loaded: 0,
            instructions: 0,
            instructions_interpreted: 0,
            instructions_replayed: 0,
            instructions_memo_served: 0,
            instructions_disk_served: 0,
            interp_nanos: 0,
            replay_nanos: 0,
            disk_nanos: 0,
            sim_nanos: 0,
            wall_nanos: 0,
            inflight_waits: 0,
            artifact_bytes: 0,
            artifact_budget: DEFAULT_ARTIFACT_BUDGET,
            store: None,
            simulations: Vec::new(),
            tables: Vec::new(),
            profiles: ProfileMemo::new(),
        }
    }

    /// Replaces the run-buffer artifact budget (bytes). `0` disables
    /// artifact capture: every late demand re-streams the interpreter,
    /// which is the pre-artifact behavior (and the baseline arm of the
    /// replay benchmarks).
    #[must_use]
    pub fn with_artifact_budget(mut self, bytes: usize) -> Self {
        self.artifact_budget = bytes;
        self
    }

    /// Attaches a persistent content-addressed store. Pending demands
    /// are answered from it before any trace streams (counted as
    /// [`SimMetrics::disk_served`]), stored artifacts replay in place of
    /// re-interpretation even in a fresh process, and every finished
    /// result and captured artifact is written through — so a session in
    /// a new process starts warm wherever this one (or any other sharing
    /// the directory) left off.
    #[must_use]
    pub fn with_store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached persistent store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// The session's profile memo: plan phases that re-run the placement
    /// pipeline pass it to [`Pipeline::run_memoized`] so that every
    /// distinct `(program, runs, base seed, limits)` profile is walked
    /// once per session.
    ///
    /// [`Pipeline::run_memoized`]: impact_layout::Pipeline::run_memoized
    #[must_use]
    pub fn profiles(&self) -> &ProfileMemo {
        &self.profiles
    }

    /// The worker-thread cap used by [`SimSession::execute`] (and
    /// available to plan phases that parallelize their own preparation).
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Registers a demand for the statistics of `configs` over the
    /// evaluation trace of `(program, placement)` under `seed` and
    /// `limits`.
    ///
    /// Identical keys share one trace stream; identical configs within a
    /// key share one simulated cache. The returned handle redeems the
    /// statistics in the requested config order after
    /// [`SimSession::execute`].
    pub fn request(
        &mut self,
        program: &Program,
        placement: &Placement,
        seed: u64,
        limits: ExecLimits,
        configs: &[CacheConfig],
    ) -> SimHandle {
        let key = self.intern(program, placement, seed, limits);
        self.demand(key, configs)
    }

    /// Adds `configs` to interned key `key`'s config union.
    fn demand(&mut self, key: usize, configs: &[CacheConfig]) -> SimHandle {
        self.requests += 1;
        self.configs_requested += configs.len() as u64;
        let entry = &mut self.keys[key];
        let mut memo = 0u64;
        let mut memo_instrs = 0u64;
        let slots = configs
            .iter()
            .map(|c| {
                if let Some(i) = entry.configs.iter().position(|e| e == c) {
                    memo += 1;
                    if i < entry.simulated {
                        // The result already exists: an entire
                        // simulation pass over the trace was avoided.
                        // (Duplicates that are merely *planned* dedups —
                        // the key not yet executed — have no known trace
                        // length yet and count only in `memo_served`.)
                        memo_instrs += entry.instructions.unwrap_or(0);
                    }
                    i
                } else {
                    entry.configs.push(*c);
                    entry.configs.len() - 1
                }
            })
            .collect();
        self.memo_served += memo;
        self.instructions_memo_served += memo_instrs;
        SimHandle { key, slots }
    }

    /// Attaches a custom [`AccessSink`] to the key's trace stream; the
    /// sink observes every fetch address exactly once and is recovered
    /// with [`SimSession::take_sink`] after execution.
    pub fn request_sink<S: AccessSink + Send + 'static>(
        &mut self,
        program: &Program,
        placement: &Placement,
        seed: u64,
        limits: ExecLimits,
        sink: S,
    ) -> SinkHandle {
        let key = self.intern(program, placement, seed, limits);
        self.requests += 1;
        let entry = &mut self.keys[key];
        entry.sinks.push(Some(Box::new(sink)));
        SinkHandle {
            key,
            slot: entry.sinks.len() - 1,
        }
    }

    /// Interns the key, returning its index.
    fn intern(
        &mut self,
        program: &Program,
        placement: &Placement,
        seed: u64,
        limits: ExecLimits,
    ) -> usize {
        let fp = fingerprint(program, placement, seed, limits);
        self.intern_keyed(program, placement, seed, limits, fp, || {
            persist::trace_key(program, placement, seed, limits)
        })
    }

    /// Interns the key with fingerprint `fp`, returning its index. `cid`
    /// yields the persistent key; it is called only for a new key, and
    /// only when a store is attached.
    fn intern_keyed(
        &mut self,
        program: &Program,
        placement: &Placement,
        seed: u64,
        limits: ExecLimits,
        fp: u64,
        cid: impl FnOnce() -> Cid,
    ) -> usize {
        if let Some(candidates) = self.by_fp.get(&fp) {
            for &i in candidates {
                let k = &self.keys[i];
                // The fingerprint is an accelerator; full equality is
                // what guarantees distinct placements get distinct keys.
                if k.seed == seed
                    && k.limits == limits
                    && k.placement == *placement
                    && k.program == *program
                {
                    self.memo_key_hits += 1;
                    return i;
                }
            }
        }
        let i = self.keys.len();
        self.keys.push(KeyEntry {
            program: program.clone(),
            placement: placement.clone(),
            seed,
            limits,
            fingerprint: fp,
            cid: self.store.is_some().then(cid),
            configs: Vec::new(),
            stats: Vec::new(),
            simulated: 0,
            sinks: Vec::new(),
            streamed_sinks: 0,
            instructions: None,
            artifact: None,
            in_flight: false,
        });
        self.by_fp.entry(fp).or_default().push(i);
        i
    }

    /// Delivers every pending trace exactly once, fanning keys across
    /// up to [`SimSession::jobs`] scoped threads. Results land in
    /// deterministic (insertion) order regardless of thread scheduling;
    /// with one job this is a plain serial loop.
    ///
    /// With a store attached, a key whose every pending config result is
    /// stored is answered from disk without any trace stream (counted as
    /// [`SimMetrics::disk_served`]), and a key that must stream reloads
    /// its persisted artifact so the stream is a replay, even in a
    /// process that never executed the key.
    ///
    /// Otherwise a key's **first** execution walks the CFG interpreter,
    /// capturing the run stream into a [`RunBuffer`] artifact while it
    /// drives the lane bank. Keys that gained configs or sinks *after*
    /// already being executed **replay** their artifact (counted as
    /// [`SimMetrics::replays`]) — bit-identical to a re-walk, at memcpy
    /// speed. Only when the artifact budget kept a buffer from being
    /// stored does a late demand re-walk the interpreter (counted as
    /// [`SimMetrics::restreams`]).
    pub fn execute(&mut self) {
        let wall = Instant::now();
        let mut taken = Vec::new();
        for i in 0..self.keys.len() {
            if self.keys[i].pending() {
                taken.push(self.take(i));
            }
        }
        if taken.is_empty() {
            return;
        }
        // Work items borrow their key's program and placement, never the
        // (non-`Sync`) sink storage.
        let work: Vec<_> = taken
            .into_iter()
            .map(|w| {
                let k = &self.keys[w.key];
                (w, &k.program, &k.placement)
            })
            .collect();
        let store = self.store.as_deref();
        let done = impact_support::parallel_map(self.jobs, work, |(w, program, placement)| {
            deliver(w, program, placement, store)
        });
        for d in done {
            self.file(d);
        }
        self.wall_nanos += wall.elapsed().as_nanos() as u64;
    }

    /// Takes key `i`'s pending demands out of the session.
    fn take(&mut self, i: usize) -> Work {
        let room = self.artifact_bytes < self.artifact_budget;
        let k = &mut self.keys[i];
        Work {
            key: i,
            seed: k.seed,
            limits: k.limits,
            cid: k.cid,
            configs: k.configs[k.simulated..].to_vec(),
            sinks: k.sinks[k.streamed_sinks..]
                .iter_mut()
                .map(|s| s.take().expect("pending sinks cannot have been taken"))
                .collect(),
            instructions: k.instructions,
            artifact: k.artifact.clone(),
            // The precise size check happens at filing time; this avoids
            // recording buffers that could never be stored.
            capture: k.artifact.is_none() && room,
        }
    }

    /// Files one delivery's results, sinks, artifact and counters back
    /// into its key.
    fn file(&mut self, done: Delivered) {
        let Delivered {
            key,
            stats,
            sinks,
            instructions,
            nanos,
            mode,
            artifact,
            loaded,
        } = done;
        let k = &mut self.keys[key];
        let first_delivery = k.instructions.is_none();
        match mode {
            SimMode::Interpreted => {
                self.traces_streamed += 1;
                self.instructions_interpreted += instructions;
                self.interp_nanos += nanos;
                if !first_delivery {
                    self.restreams += 1;
                }
            }
            SimMode::Replayed => {
                self.replays += 1;
                self.instructions_replayed += instructions;
                self.replay_nanos += nanos;
            }
            SimMode::DiskServed => {
                self.disk_served += 1;
                self.instructions_disk_served += instructions;
                self.disk_nanos += nanos;
            }
        }
        // With a persistent store, a key's *first* delivery can be a
        // replay (artifact reloaded from disk) or a disk serve.
        if first_delivery {
            self.instructions += instructions;
        }
        if mode != SimMode::DiskServed {
            self.sim_nanos += nanos;
        }
        self.artifacts_loaded += u64::from(loaded);
        self.simulations.push(SimRecord {
            fingerprint: format!("{:016x}", k.fingerprint),
            seed: k.seed,
            configs: stats.len() as u64,
            sinks: sinks.len() as u64,
            instructions,
            nanos,
            mode,
        });
        if let Some(buf) = artifact {
            let bytes = buf.bytes();
            if k.artifact.is_none() && self.artifact_bytes + bytes <= self.artifact_budget {
                self.artifact_bytes += bytes;
                k.artifact = Some(buf);
            }
        }
        k.simulated += stats.len();
        k.stats.extend(stats);
        let streamed = sinks.len();
        for (slot, sink) in k.sinks[k.streamed_sinks..].iter_mut().zip(sinks) {
            *slot = Some(sink);
        }
        k.streamed_sinks += streamed;
        k.instructions = Some(instructions);
    }

    /// Statistics for a request, in its requested config order.
    ///
    /// # Panics
    ///
    /// Panics if the handle's key has not been executed yet.
    #[must_use]
    pub fn stats(&self, handle: &SimHandle) -> Vec<CacheStats> {
        let k = &self.keys[handle.key];
        handle
            .slots
            .iter()
            .map(|&s| {
                assert!(s < k.simulated, "call execute() before reading stats");
                k.stats[s]
            })
            .collect()
    }

    /// Trace length (instructions streamed) of a request's key.
    ///
    /// # Panics
    ///
    /// Panics if the handle's key has not been executed yet.
    #[must_use]
    pub fn instructions(&self, handle: &SimHandle) -> u64 {
        self.keys[handle.key]
            .instructions
            .expect("call execute() before reading the trace length")
    }

    /// [`SimSession::stats`] and [`SimSession::instructions`] in one
    /// call — the session counterpart of `sim::simulate_counted`.
    #[must_use]
    pub fn counted(&self, handle: &SimHandle) -> (Vec<CacheStats>, u64) {
        (self.stats(handle), self.instructions(handle))
    }

    /// Recovers a sink attached with [`SimSession::request_sink`], after
    /// its trace has been streamed.
    ///
    /// # Panics
    ///
    /// Panics if the sink has not been streamed yet, was already taken,
    /// or `S` is not its concrete type.
    #[must_use]
    pub fn take_sink<S: AccessSink + Send + 'static>(&mut self, handle: &SinkHandle) -> S {
        let k = &mut self.keys[handle.key];
        assert!(
            handle.slot < k.streamed_sinks,
            "call execute() before taking a sink"
        );
        let sink = k.sinks[handle.slot].take().expect("sink was already taken");
        *sink
            .into_any()
            .downcast::<S>()
            .expect("take_sink called with the wrong concrete type")
    }

    /// Records one table's plan/render timing (the `runner` driver calls
    /// this; it feeds the per-table metrics).
    pub fn record_table(&mut self, label: &str, plan_nanos: u64, render_nanos: u64) {
        self.tables.push(TableRecord {
            label: label.to_owned(),
            plan_nanos,
            render_nanos,
        });
    }

    /// Snapshot of the session's observability counters.
    #[must_use]
    pub fn metrics(&self) -> SimMetrics {
        SimMetrics {
            jobs: self.jobs as u64,
            requests: self.requests,
            unique_traces: self.keys.len() as u64,
            traces_streamed: self.traces_streamed,
            restreams: self.restreams,
            replays: self.replays,
            memo_key_hits: self.memo_key_hits,
            configs_requested: self.configs_requested,
            configs_simulated: self.keys.iter().map(|k| k.simulated as u64).sum(),
            memo_served: self.memo_served,
            instructions: self.instructions,
            instructions_interpreted: self.instructions_interpreted,
            instructions_replayed: self.instructions_replayed,
            instructions_memo_served: self.instructions_memo_served,
            sim_nanos: self.sim_nanos,
            interp_nanos: self.interp_nanos,
            replay_nanos: self.replay_nanos,
            wall_nanos: self.wall_nanos,
            inflight_waits: self.inflight_waits,
            artifacts_stored: self.keys.iter().filter(|k| k.artifact.is_some()).count() as u64,
            artifact_bytes: self.artifact_bytes as u64,
            disk_served: self.disk_served,
            artifacts_loaded: self.artifacts_loaded,
            instructions_disk_served: self.instructions_disk_served,
            disk_nanos: self.disk_nanos,
            store: self.store.as_ref().map(|s| s.counters()),
            simulations: self.simulations.clone(),
            tables: self.tables.clone(),
            profiles_requested: self.profiles.requested(),
            profiles_walked: self.profiles.walked(),
        }
    }
}

/// Delivers one key's pending work, touching no session state: from the
/// store when every pending result is on disk, else by replaying an
/// artifact (in memory, or reloaded from the store) or by walking the
/// interpreter under a capture tee. New results and artifacts are then
/// written through to the store — best-effort: a full or read-only store
/// disk degrades to cold behavior, never to an error.
fn deliver(
    work: Work,
    program: &Program,
    placement: &Placement,
    store: Option<&Store>,
) -> Delivered {
    let Work {
        key,
        seed,
        limits,
        cid,
        configs,
        mut sinks,
        instructions: known,
        mut artifact,
        capture,
    } = work;
    let store = store.zip(cid.as_ref());
    let mut loaded = false;
    if let Some((store, cid)) = store {
        let t0 = Instant::now();
        // Sinks observe the raw stream, which result entries do not carry.
        if sinks.is_empty() {
            if let Some((stats, instructions)) = disk_load(store, cid, &configs, known) {
                return Delivered {
                    key,
                    stats,
                    sinks,
                    instructions,
                    nanos: t0.elapsed().as_nanos() as u64,
                    mode: SimMode::DiskServed,
                    artifact: None,
                    loaded: false,
                };
            }
        }
        if artifact.is_none() && capture {
            artifact = store
                .get(&persist::artifact_cid(cid))
                .and_then(|payload| persist::decode_artifact(&payload))
                .map(Arc::new);
            loaded = artifact.is_some();
        }
    }

    let t0 = Instant::now();
    let mut bank = MultiLane::new(configs.iter().copied());
    let mut fan = Fanout {
        bank: &mut bank,
        sinks: &mut sinks,
    };
    let (instructions, captured, mode) = match &artifact {
        Some(buf) => {
            buf.replay(&mut fan);
            (buf.instructions(), None, SimMode::Replayed)
        }
        None if capture => {
            let gen = TraceGenerator::new(program, placement).with_limits(limits);
            let mut buf = RunBuffer::new();
            let summary = gen.stream(seed, &mut CaptureSink::new(&mut buf, &mut fan));
            buf.shrink_to_fit();
            (
                summary.instructions,
                Some(Arc::new(buf)),
                SimMode::Interpreted,
            )
        }
        None => {
            let gen = TraceGenerator::new(program, placement).with_limits(limits);
            let summary = gen.stream(seed, &mut fan);
            (summary.instructions, None, SimMode::Interpreted)
        }
    };
    let nanos = t0.elapsed().as_nanos() as u64;
    let stats = bank.take_stats();

    if let Some((store, cid)) = store {
        for (config, stats) in configs.iter().zip(&stats) {
            let _ = store.put(
                &persist::result_cid(cid, config),
                &persist::encode_result(stats, instructions),
            );
        }
        // The artifact this stream captured or replayed, unless it just
        // came from the store.
        if let Some(buf) = captured.as_ref().or(artifact.as_ref()).filter(|_| !loaded) {
            let acid = persist::artifact_cid(cid);
            if !store.contains(&acid) {
                let _ = store.put(&acid, &persist::encode_artifact(buf));
            }
        }
    }
    Delivered {
        key,
        stats,
        sinks,
        instructions,
        nanos,
        mode,
        artifact: if loaded { artifact } else { captured },
        loaded,
    }
}

/// Loads every result of `configs` over trace `cid` from the store, with
/// the trace length they were recorded under (which must agree with
/// `known`, the length an earlier delivery learned). `None` on any miss
/// or undecodable entry, when results disagree on the trace length (a
/// foreign or stale entry), and for an empty `configs`: a key pending
/// only for its trace length streams, reloading its artifact.
fn disk_load(
    store: &Store,
    cid: &Cid,
    configs: &[CacheConfig],
    known: Option<u64>,
) -> Option<(Vec<CacheStats>, u64)> {
    if configs.is_empty() {
        return None;
    }
    let mut instructions = known;
    let mut loaded = Vec::with_capacity(configs.len());
    for config in configs {
        let payload = store.get(&persist::result_cid(cid, config))?;
        let (stats, instrs) = persist::decode_result(&payload)?;
        if *instructions.get_or_insert(instrs) != instrs {
            return None;
        }
        loaded.push(stats);
    }
    Some((loaded, instructions?))
}

/// A [`SimSession`] shareable across threads, with per-key single-flight.
///
/// The table runners own their session and drive the plan / execute /
/// serve phases explicitly; a long-lived service (`impact serve`) instead
/// wants one engine that many request-handler threads hit concurrently.
/// `SharedSimSession` exposes the one-shot
/// [`evaluate`](SharedSimSession::evaluate) cycle: request → deliver →
/// serve.
///
/// The lock guards only bookkeeping: interning, the config union, and
/// filing results. The key's fingerprint and persistent key are computed
/// before locking, and the delivery itself (disk serve, artifact replay
/// or interpreter walk, then the store writes) runs unlocked, so
/// evaluations of distinct keys proceed in parallel. A key being
/// delivered is marked in flight: an evaluation of the same key waits on
/// a [`Condvar`] for that delivery's results instead of walking the trace
/// again, and if its own configs were not part of that delivery it then
/// delivers them itself.
///
/// Memoization carries across calls and threads because every evaluation
/// is interned in the same underlying session: a repeated
/// `(program, placement, seed, limits, config)` demand is served from
/// the memo without streaming its trace.
pub struct SharedSimSession {
    inner: Mutex<SimSession>,
    /// Notified whenever a key's in-flight mark clears.
    cleared: Condvar,
    /// The session's store, reachable without the lock: it decides
    /// whether an evaluation computes its persistent key.
    store: Option<Arc<Store>>,
}

impl std::fmt::Debug for SharedSimSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSimSession").finish_non_exhaustive()
    }
}

impl Default for SharedSimSession {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedSimSession {
    /// Wraps a fresh session without a store.
    #[must_use]
    pub fn new() -> Self {
        Self::from_session(SimSession::new())
    }

    /// Wraps an already-configured session (artifact budget, persistent
    /// store, ...) — the constructor `impact serve` uses.
    #[must_use]
    pub fn from_session(session: SimSession) -> Self {
        Self {
            store: session.store.clone(),
            inner: Mutex::new(session),
            cleared: Condvar::new(),
        }
    }

    /// Statistics for `configs` over the evaluation trace of
    /// `(program, placement)` under `seed` and `limits`, plus the trace
    /// length — the shared counterpart of `sim::simulate_counted`,
    /// memo-served whenever this session has already delivered the key,
    /// and coalesced onto the running delivery when one is in flight.
    #[must_use]
    pub fn evaluate(
        &self,
        program: &Program,
        placement: &Placement,
        seed: u64,
        limits: ExecLimits,
        configs: &[CacheConfig],
    ) -> (Vec<CacheStats>, u64) {
        let fp = fingerprint(program, placement, seed, limits);
        let cid = self
            .store
            .is_some()
            .then(|| persist::trace_key(program, placement, seed, limits));
        let mut s = self.lock();
        let key = s.intern_keyed(program, placement, seed, limits, fp, || {
            cid.expect("computed whenever a store is attached")
        });
        let handle = s.demand(key, configs);
        let mut waited = false;
        loop {
            let k = &s.keys[key];
            if k.serves(&handle) {
                return s.counted(&handle);
            }
            if !k.in_flight {
                break;
            }
            if !waited {
                s.inflight_waits += 1;
                waited = true;
            }
            s = self.cleared.wait(s).unwrap_or_else(PoisonError::into_inner);
        }

        let wall = Instant::now();
        let work = s.take(key);
        s.keys[key].in_flight = true;
        drop(s);
        // The caller's program and placement equal the interned key's,
        // so the delivery borrows them instead of the locked entry.
        let mut mark = InFlight {
            shared: self,
            key,
            armed: true,
        };
        let done = deliver(work, program, placement, self.store.as_deref());
        let mut s = self.lock();
        s.file(done);
        s.keys[key].in_flight = false;
        mark.armed = false;
        s.wall_nanos += wall.elapsed().as_nanos() as u64;
        self.cleared.notify_all();
        s.counted(&handle)
    }

    /// Snapshot of the underlying session's observability counters.
    #[must_use]
    pub fn metrics(&self) -> SimMetrics {
        self.lock().metrics()
    }

    fn lock(&self) -> MutexGuard<'_, SimSession> {
        // Deliveries, the only work sized by the request, run unlocked;
        // under the lock only bookkeeping runs, and a panic there is a
        // bug. Recover from the poison rather than wedging the service.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A key's in-flight mark while its delivery runs unlocked. If the
/// delivery unwinds before its results are filed, dropping the armed
/// mark clears it and wakes the key's waiters, so they retry instead of
/// waiting forever.
struct InFlight<'a> {
    shared: &'a SharedSimSession,
    key: usize,
    armed: bool,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.shared.lock().keys[self.key].in_flight = false;
            self.shared.cleared.notify_all();
        }
    }
}

/// Structural fingerprint of an evaluation-trace key.
///
/// Covers everything the trace depends on: program shape
/// ([`Program::hash_structure`]: block sizes, terminators, branch
/// biases), the placement's byte addresses, the input seed, and the
/// execution limits. Freshly constructed placements (code scaling,
/// `MIN_PROB` sweeps, ablation ladders) therefore get distinct
/// fingerprints unless they are genuinely identical — and key identity
/// is always confirmed by full structural equality, so a hash collision
/// can never alias two different traces.
#[must_use]
pub fn fingerprint(program: &Program, placement: &Placement, seed: u64, limits: ExecLimits) -> u64 {
    // DefaultHasher::new() uses fixed keys: deterministic per process.
    let mut h = DefaultHasher::new();
    program.hash_structure(&mut h);
    for (fid, func) in program.functions() {
        for bid in func.block_ids() {
            placement.try_addr(fid, bid).hash(&mut h);
        }
    }
    placement.effective_bytes().hash(&mut h);
    placement.total_bytes().hash(&mut h);
    seed.hash(&mut h);
    limits.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use impact_cache::Cache;
    use impact_layout::baseline;

    use crate::sim;

    use super::*;

    const LIMITS: ExecLimits = ExecLimits {
        max_instructions: 40_000,
        max_call_depth: 512,
    };

    #[test]
    fn session_matches_direct_simulation() {
        let w = impact_workloads::by_name("wc").unwrap();
        let placement = baseline::natural(&w.program);
        let configs = [
            CacheConfig::direct_mapped(512, 64),
            CacheConfig::direct_mapped(2048, 64),
        ];
        let direct = sim::simulate(&w.program, &placement, 17, LIMITS, &configs);

        let mut s = SimSession::new();
        let h = s.request(&w.program, &placement, 17, LIMITS, &configs);
        s.execute();
        assert_eq!(s.stats(&h), direct);
    }

    #[test]
    fn identical_keys_stream_once_and_union_configs() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let a = [
            CacheConfig::direct_mapped(2048, 64),
            CacheConfig::direct_mapped(512, 64),
        ];
        let b = [
            CacheConfig::direct_mapped(512, 64), // shared with `a`
            CacheConfig::direct_mapped(1024, 64),
        ];
        let mut s = SimSession::new();
        let ha = s.request(&w.program, &placement, 3, LIMITS, &a);
        let hb = s.request(&w.program, &placement, 3, LIMITS, &b);
        s.execute();
        let m = s.metrics();
        assert_eq!(m.unique_traces, 1);
        assert_eq!(m.traces_streamed, 1);
        assert_eq!(m.restreams, 0);
        assert_eq!(m.memo_key_hits, 1);
        assert_eq!(m.configs_requested, 4);
        assert_eq!(m.configs_simulated, 3, "512B config is shared");
        assert_eq!(m.memo_served, 1);
        // Both handles see their own config order.
        assert_eq!(s.stats(&ha)[1], s.stats(&hb)[0]);
        assert_eq!(
            s.stats(&hb),
            sim::simulate(&w.program, &placement, 3, LIMITS, &b)
        );
    }

    #[test]
    fn distinct_placements_and_seeds_get_distinct_keys() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let natural = baseline::natural(&w.program);
        let shuffled = baseline::random(&w.program, 0xfeed);
        let cfg = [CacheConfig::direct_mapped(2048, 64)];
        let mut s = SimSession::new();
        let h1 = s.request(&w.program, &natural, 3, LIMITS, &cfg);
        let h2 = s.request(&w.program, &shuffled, 3, LIMITS, &cfg);
        let h3 = s.request(&w.program, &natural, 4, LIMITS, &cfg);
        s.execute();
        assert_eq!(s.metrics().unique_traces, 3);
        assert_eq!(s.metrics().traces_streamed, 3);
        // Same program + seed ⇒ same trace length even across layouts.
        assert_eq!(s.instructions(&h1), s.instructions(&h2));
        let _ = s.stats(&h3);
    }

    #[test]
    fn parallel_execution_is_deterministic() {
        let w = impact_workloads::by_name("wc").unwrap();
        let cfg = [CacheConfig::direct_mapped(1024, 64)];
        let run = |jobs: usize| {
            let mut s = SimSession::with_jobs(jobs);
            let handles: Vec<SimHandle> = (0..6)
                .map(|k| {
                    let placement = baseline::random(&w.program, k);
                    s.request(&w.program, &placement, 11, LIMITS, &cfg)
                })
                .collect();
            s.execute();
            handles.iter().map(|h| s.counted(h)).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn sinks_ride_the_same_stream_and_come_back() {
        let w = impact_workloads::by_name("wc").unwrap();
        let placement = baseline::natural(&w.program);
        let cfg = CacheConfig::direct_mapped(2048, 64);
        let mut s = SimSession::new();
        let h = s.request(&w.program, &placement, 5, LIMITS, &[cfg]);
        let sink = s.request_sink(&w.program, &placement, 5, LIMITS, Cache::new(cfg));
        s.execute();
        assert_eq!(s.metrics().traces_streamed, 1, "sink shares the stream");
        let cache: Cache = s.take_sink(&sink);
        assert_eq!(cache.stats(), s.stats(&h)[0]);
    }

    #[test]
    fn empty_config_request_still_counts_instructions() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let mut s = SimSession::new();
        let h = s.request(&w.program, &placement, 9, LIMITS, &[]);
        s.execute();
        let (_, direct_len) = sim::simulate_counted(&w.program, &placement, 9, LIMITS, &[]);
        assert_eq!(s.instructions(&h), direct_len);
        assert!(s.stats(&h).is_empty());
    }

    #[test]
    fn late_demands_replay_the_stored_artifact() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let c1 = [CacheConfig::direct_mapped(2048, 64)];
        let c2 = [CacheConfig::direct_mapped(512, 64)];
        let mut s = SimSession::new();
        let h1 = s.request(&w.program, &placement, 2, LIMITS, &c1);
        s.execute();
        let h2 = s.request(&w.program, &placement, 2, LIMITS, &c2);
        s.execute();
        let m = s.metrics();
        // The first execute interprets (and captures); the late demand
        // replays the artifact instead of re-walking the interpreter.
        assert_eq!(m.traces_streamed, 1);
        assert_eq!(m.replays, 1);
        assert_eq!(m.restreams, 0);
        assert_eq!(m.artifacts_stored, 1);
        assert!(m.artifact_bytes > 0);
        assert_eq!(m.instructions_interpreted, m.instructions);
        assert_eq!(m.instructions_replayed, m.instructions);
        // Replayed results are bit-identical to direct simulation.
        assert_eq!(
            s.stats(&h1),
            sim::simulate(&w.program, &placement, 2, LIMITS, &c1)
        );
        assert_eq!(
            s.stats(&h2),
            sim::simulate(&w.program, &placement, 2, LIMITS, &c2)
        );
    }

    #[test]
    fn zero_artifact_budget_falls_back_to_restreaming() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let c1 = [CacheConfig::direct_mapped(2048, 64)];
        let c2 = [CacheConfig::direct_mapped(512, 64)];
        let mut s = SimSession::new().with_artifact_budget(0);
        let h1 = s.request(&w.program, &placement, 2, LIMITS, &c1);
        s.execute();
        let h2 = s.request(&w.program, &placement, 2, LIMITS, &c2);
        s.execute();
        let m = s.metrics();
        // No capture possible, so the late demand re-walks: the pre-
        // artifact behavior, kept as the budget-exhausted fallback.
        assert_eq!(m.traces_streamed, 2);
        assert_eq!(m.restreams, 1);
        assert_eq!(m.replays, 0);
        assert_eq!(m.artifacts_stored, 0);
        assert_eq!(m.artifact_bytes, 0);
        assert_eq!(
            s.stats(&h1),
            sim::simulate(&w.program, &placement, 2, LIMITS, &c1)
        );
        assert_eq!(
            s.stats(&h2),
            sim::simulate(&w.program, &placement, 2, LIMITS, &c2)
        );
    }

    #[test]
    fn memo_served_instructions_are_accounted() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let cfg = [CacheConfig::direct_mapped(2048, 64)];
        let mut s = SimSession::new();
        let _ = s.request(&w.program, &placement, 2, LIMITS, &cfg);
        s.execute();
        // Same key, same config: served from the memo, no simulation.
        let _ = s.request(&w.program, &placement, 2, LIMITS, &cfg);
        s.execute();
        let m = s.metrics();
        assert_eq!(m.traces_streamed, 1);
        assert_eq!(m.replays, 0, "fully memo-served demands do not replay");
        assert_eq!(m.instructions_memo_served, m.instructions);
        assert_eq!(m.instructions_replayed, 0);
    }

    #[test]
    fn fingerprints_separate_scaled_programs() {
        let w = impact_workloads::by_name("wc").unwrap();
        let scaled = impact_layout::scale::scale_code(&w.program, 0.5);
        let p1 = baseline::natural(&w.program);
        let p2 = baseline::natural(&scaled);
        assert_ne!(
            fingerprint(&w.program, &p1, 1, LIMITS),
            fingerprint(&scaled, &p2, 1, LIMITS)
        );
        assert_ne!(
            fingerprint(&w.program, &p1, 1, LIMITS),
            fingerprint(&w.program, &p1, 2, LIMITS)
        );
    }

    #[test]
    fn shared_session_memoizes_across_threads() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let cfg = [CacheConfig::direct_mapped(2048, 64)];
        let direct = sim::simulate_counted(&w.program, &placement, 7, LIMITS, &cfg);

        let shared = SharedSimSession::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..3 {
                        let got = shared.evaluate(&w.program, &placement, 7, LIMITS, &cfg);
                        assert_eq!(got, direct);
                    }
                });
            }
        });
        let m = shared.metrics();
        assert_eq!(m.traces_streamed, 1, "11 of 12 evaluations memo-served");
        assert_eq!(m.unique_traces, 1);
        assert_eq!(m.requests, 12);
        assert_eq!(m.memo_served, 11);
    }

    /// A delivery that panics outside the lock must not leave its key
    /// marked in flight: the next evaluation of the key retries (and
    /// here panics again) instead of waiting forever.
    #[test]
    fn a_panicking_delivery_clears_its_in_flight_mark() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let natural = baseline::natural(&w.program);
        let mut addrs: Vec<Vec<u64>> = w
            .program
            .functions()
            .map(|(fid, func)| func.block_ids().map(|bid| natural.addr(fid, bid)).collect())
            .collect();
        // The walk's first fetch hits an unplaced block and panics.
        let main = w.program.entry();
        addrs[main.index()][w.program.function(main).entry().index()] = u64::MAX;
        let broken = Placement::from_raw(
            addrs,
            natural.func_order().to_vec(),
            natural.effective_bytes(),
            natural.total_bytes(),
        );
        let cfg = [CacheConfig::direct_mapped(2048, 64)];
        let shared = SharedSimSession::new();
        let attempt = || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                shared.evaluate(&w.program, &broken, 3, LIMITS, &cfg)
            }))
        };
        assert!(attempt().is_err());
        assert!(attempt().is_err(), "the retry walks again");
        let m = shared.metrics();
        assert_eq!(m.inflight_waits, 0);
        assert_eq!(m.unique_traces, 1);
        // The session keeps serving other keys.
        assert_eq!(
            shared.evaluate(&w.program, &natural, 3, LIMITS, &cfg),
            sim::simulate_counted(&w.program, &natural, 3, LIMITS, &cfg)
        );
    }

    /// A unique store directory removed on drop.
    struct TempStore(std::path::PathBuf);

    impl TempStore {
        fn new(tag: &str) -> TempStore {
            let dir =
                std::env::temp_dir().join(format!("impact-session-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempStore(dir)
        }

        fn open(&self) -> Arc<Store> {
            Arc::new(Store::open(&self.0).expect("open store"))
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A second session over the same store directory — a fresh process,
    /// as far as the session can tell — answers repeated demands from
    /// disk without streaming, bit-identically.
    #[test]
    fn second_session_is_disk_served() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let configs = [
            CacheConfig::direct_mapped(2048, 64),
            CacheConfig::direct_mapped(512, 64),
        ];
        let tmp = TempStore::new("warm");
        let (cold, cold_len) = {
            let mut s = SimSession::new().with_store(tmp.open());
            let h = s.request(&w.program, &placement, 21, LIMITS, &configs);
            s.execute();
            let m = s.metrics();
            assert_eq!(m.traces_streamed, 1, "cold run interprets");
            assert_eq!(m.disk_served, 0);
            let store = m.store.expect("store counters present");
            assert!(store.puts >= 3, "2 results + 1 artifact persisted");
            s.counted(&h)
        };
        let mut s = SimSession::new().with_store(tmp.open());
        let h = s.request(&w.program, &placement, 21, LIMITS, &configs);
        s.execute();
        assert_eq!(s.counted(&h), (cold.clone(), cold_len), "bit-identical");
        let m = s.metrics();
        assert_eq!(m.traces_streamed, 0, "warm run never streams");
        assert_eq!(m.disk_served, 1);
        assert_eq!(m.instructions_disk_served, cold_len);
        assert_eq!(m.instructions, cold_len, "unique instructions counted");
        assert_eq!(m.simulations[0].mode, SimMode::DiskServed);
        assert!(m.store.expect("counters").hits >= 2);
    }

    /// A new config over a known trace in a fresh session replays the
    /// *persisted* artifact instead of re-interpreting.
    #[test]
    fn fresh_session_replays_persisted_artifact() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let tmp = TempStore::new("artifact");
        {
            let mut s = SimSession::new().with_store(tmp.open());
            let _ = s.request(
                &w.program,
                &placement,
                22,
                LIMITS,
                &[CacheConfig::direct_mapped(2048, 64)],
            );
            s.execute();
        }
        // Different config: its result is not on disk, but the trace
        // artifact is.
        let c2 = [CacheConfig::direct_mapped(1024, 64)];
        let mut s = SimSession::new().with_store(tmp.open());
        let h = s.request(&w.program, &placement, 22, LIMITS, &c2);
        s.execute();
        let m = s.metrics();
        assert_eq!(m.traces_streamed, 0, "no interpreter walk");
        assert_eq!(m.replays, 1);
        assert_eq!(m.artifacts_loaded, 1);
        assert_eq!(m.instructions, m.instructions_replayed);
        assert_eq!(
            s.stats(&h),
            sim::simulate(&w.program, &placement, 22, LIMITS, &c2)
        );
    }

    /// A corrupt stored entry is quarantined on read, the session falls
    /// back to simulation, and the next execute re-persists the entry.
    #[test]
    fn corrupt_store_entry_falls_back_and_heals() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let cfg = [CacheConfig::direct_mapped(2048, 64)];
        let tmp = TempStore::new("heal");
        {
            let mut s = SimSession::new().with_store(tmp.open());
            let _ = s.request(&w.program, &placement, 23, LIMITS, &cfg);
            s.execute();
        }
        // Bit-flip every committed entry.
        let store = tmp.open();
        for e in store.entries() {
            let hex = e.cid.to_hex();
            let path = tmp.0.join("objects").join(&hex[..2]).join(&hex);
            let mut raw = std::fs::read(&path).expect("read entry");
            let last = raw.len() - 1;
            raw[last] ^= 0x10;
            std::fs::write(&path, raw).expect("damage entry");
        }
        drop(store);

        let store = tmp.open();
        let mut s = SimSession::new().with_store(Arc::clone(&store));
        let h = s.request(&w.program, &placement, 23, LIMITS, &cfg);
        s.execute();
        let m = s.metrics();
        assert_eq!(m.disk_served, 0, "corrupt entries are never served");
        assert_eq!(m.traces_streamed, 1, "fell back to the interpreter");
        let c = m.store.expect("counters");
        assert!(c.corrupt >= 1, "corruption detected: {c:?}");
        assert_eq!(
            s.stats(&h),
            sim::simulate(&w.program, &placement, 23, LIMITS, &cfg)
        );
        // The fallback execution re-persisted the entries: a third
        // session is disk-served again.
        let mut s2 = SimSession::new().with_store(tmp.open());
        let h2 = s2.request(&w.program, &placement, 23, LIMITS, &cfg);
        s2.execute();
        assert_eq!(s2.metrics().disk_served, 1, "store healed");
        assert_eq!(s2.stats(&h2), s.stats(&h));
    }

    /// Sinks observe the raw stream, so a key with a pending sink is
    /// never disk-served — but its persisted artifact still replaces the
    /// interpreter walk.
    #[test]
    fn pending_sinks_disable_disk_serving() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let cfg = CacheConfig::direct_mapped(2048, 64);
        let tmp = TempStore::new("sinks");
        {
            let mut s = SimSession::new().with_store(tmp.open());
            let _ = s.request(&w.program, &placement, 24, LIMITS, &[cfg]);
            s.execute();
        }
        let mut s = SimSession::new().with_store(tmp.open());
        let h = s.request(&w.program, &placement, 24, LIMITS, &[cfg]);
        let sink = s.request_sink(&w.program, &placement, 24, LIMITS, Cache::new(cfg));
        s.execute();
        let m = s.metrics();
        assert_eq!(m.disk_served, 0, "sink demands need the stream");
        assert_eq!(m.replays, 1, "stream is the persisted artifact replay");
        assert_eq!(m.traces_streamed, 0);
        let cache: Cache = s.take_sink(&sink);
        assert_eq!(cache.stats(), s.stats(&h)[0]);
    }

    #[test]
    fn metrics_render_and_serialize() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let mut s = SimSession::with_jobs(2);
        let _ = s.request(
            &w.program,
            &placement,
            1,
            LIMITS,
            &[CacheConfig::direct_mapped(1024, 64)],
        );
        s.execute();
        s.record_table("table6", 10, 20);
        let m = s.metrics();
        let summary = m.render_summary();
        assert!(summary.contains("1 unique traces"), "{summary}");
        let json = m.to_json().to_string_pretty();
        assert!(json.contains("\"traces_streamed\": 1"), "{json}");
        assert!(json.contains("\"label\": \"table6\""), "{json}");
    }
}
