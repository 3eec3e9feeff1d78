//! Per-layer probes shared by the workloads: the trace walk and cache
//! simulation over a sample of evaluation keys, the scalar cache oracle,
//! and timed store reads and writes.

use std::path::Path;
use std::time::Instant;

use impact_cache::{AccessSink, Cache, CacheConfig, CacheStats, MultiLane};
use impact_ir::Program;
use impact_layout::Placement;
use impact_profile::ExecLimits;
use impact_store::Store;
use impact_support::Rng;
use impact_trace::TraceGenerator;

use crate::report::Metrics;
use crate::span::Recorder;

/// One evaluation key: what a simulate request or a table streams.
pub struct EvalKey<'a> {
    /// The program walked.
    pub program: &'a Program,
    /// Its placement.
    pub placement: &'a Placement,
    /// Input seed.
    pub seed: u64,
    /// Walk limits.
    pub limits: ExecLimits,
}

/// Consumes the stream and discards it: isolates the walk's own cost.
struct NullSink(u64);

impl AccessSink for NullSink {
    fn access(&mut self, addr: u64) {
        self.0 = self.0.wrapping_add(std::hint::black_box(addr));
    }

    fn access_run(&mut self, addr: u64, words: u64) {
        self.0 = self
            .0
            .wrapping_add(std::hint::black_box(addr) ^ std::hint::black_box(words));
    }
}

/// Streams every key into a null sink and then into a [`MultiLane`]
/// over `configs`; sets `trace.walk_s`, `trace.instr_per_s`,
/// `cache.sim_s` and `cache.instr_per_s` (simulation time is the lane
/// pass minus the walk). Returns the number of keys replayed.
pub fn trace_and_cache(
    rec: &Recorder,
    keys: &[EvalKey<'_>],
    configs: &[CacheConfig],
    metrics: &mut Metrics,
) -> usize {
    let (mut walk_s, mut lane_s, mut instrs) = (0.0, 0.0, 0u64);
    for (i, k) in keys.iter().enumerate() {
        let gen = TraceGenerator::new(k.program, k.placement).with_limits(k.limits);
        let t = Instant::now();
        let mut sink = NullSink(0);
        let summary = gen.stream(k.seed, &mut sink);
        std::hint::black_box(sink.0);
        let mid = Instant::now();
        let mut lanes = MultiLane::new(configs.iter().copied());
        gen.stream(k.seed, &mut lanes);
        std::hint::black_box(lanes.stats());
        let end = Instant::now();
        rec.record("trace.walk", None, Some(i as u64), t, mid);
        rec.record("cache.lanes", None, Some(i as u64), mid, end);
        walk_s += (mid - t).as_secs_f64();
        lane_s += (end - mid).as_secs_f64();
        instrs += summary.instructions;
    }
    let sim_s = (lane_s - walk_s).max(0.0);
    metrics.set("trace.walk_s", walk_s, "s");
    metrics.set("trace.instr_per_s", instrs as f64 / walk_s.max(1e-9), "1/s");
    metrics.set("cache.sim_s", sim_s, "s");
    metrics.set("cache.instr_per_s", instrs as f64 / sim_s.max(1e-9), "1/s");
    keys.len()
}

/// Independent oracle: a scalar [`Cache::access`] loop over the
/// materialized trace, one cache per config, compared to `expected`.
#[must_use]
pub fn oracle_agrees(key: &EvalKey<'_>, configs: &[CacheConfig], expected: &[CacheStats]) -> bool {
    let trace = TraceGenerator::new(key.program, key.placement)
        .with_limits(key.limits)
        .collect(key.seed);
    let stats: Vec<CacheStats> = configs
        .iter()
        .map(|c| {
            let mut cache = Cache::new(*c);
            for &addr in &trace {
                cache.access(addr);
            }
            cache.stats()
        })
        .collect();
    stats == expected
}

/// Times [`Store::get`] over a seeded sample of up to `sample` entries
/// of the store at `dir`, and [`Store::put`] of the same payloads into
/// a fresh store at `copy`; sets `store.get_s` and `store.put_s`
/// (totals over the sample). Returns the sample size.
pub fn store_replay(
    rec: &Recorder,
    dir: &Path,
    copy: &Path,
    sample: usize,
    seed: u64,
    metrics: &mut Metrics,
) -> std::io::Result<usize> {
    let store = Store::open(dir)?;
    let mut entries = store.entries();
    entries.sort_by_key(|e| e.cid.0);
    Rng::seed_from_u64(seed).shuffle(&mut entries);
    entries.truncate(sample);
    let target = Store::open(copy)?;
    let (mut get_s, mut put_s) = (0.0, 0.0);
    for (i, e) in entries.iter().enumerate() {
        let t = Instant::now();
        let payload = store.get(&e.cid);
        let mid = Instant::now();
        let Some(payload) = payload else {
            return Err(std::io::Error::other("store entry listed but not readable"));
        };
        target.put(&e.cid, &payload)?;
        let end = Instant::now();
        rec.record("store.get", None, Some(i as u64), t, mid);
        rec.record("store.put", None, Some(i as u64), mid, end);
        get_s += (mid - t).as_secs_f64();
        put_s += (end - mid).as_secs_f64();
    }
    metrics.set("store.get_s", get_s, "s");
    metrics.set("store.put_s", put_s, "s");
    Ok(entries.len())
}
