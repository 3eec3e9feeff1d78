//! `SharedSimSession` concurrency: evaluations of distinct keys run at
//! the same time, and concurrent evaluations of one key share a single
//! trace walk.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use impact_cache::CacheConfig;
use impact_experiments::session::{SharedSimSession, SimSession};
use impact_layout::baseline;
use impact_profile::ExecLimits;
use impact_store::Store;

const fn limits(max_instructions: u64) -> ExecLimits {
    ExecLimits {
        max_instructions,
        max_call_depth: 512,
    }
}

/// `make` under input seed 5 runs past every cap below, so each limit
/// is the trace length.
const SEED: u64 = 5;
/// Tens of millions of instructions: a walk of about 0.2 s in a release
/// build on a 2-vCPU VM.
const LONG: ExecLimits = limits(30_000_000);
const SHORT: ExecLimits = limits(40_000);
/// Long enough (about 30 ms in a release build) that every thread of a
/// burst arrives while the first one is still walking.
const MEDIUM: ExecLimits = limits(5_000_000);

fn configs() -> [CacheConfig; 2] {
    [
        CacheConfig::direct_mapped(2048, 64),
        CacheConfig::direct_mapped(8192, 32),
    ]
}

/// While one thread walks a long cold key, a short evaluation of a
/// different key must not wait for it.
#[test]
fn distinct_keys_evaluate_concurrently() {
    let w = impact_workloads::by_name("make").unwrap();
    let placement = baseline::natural(&w.program);
    let cfg = configs();
    let shared = SharedSimSession::new();
    let long_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let long = scope.spawn(|| {
            let got = shared.evaluate(&w.program, &placement, SEED, LONG, &cfg);
            long_done.store(true, Ordering::SeqCst);
            got
        });
        // The long key is interned and marked in flight under one lock
        // hold, so once it shows up its walk has started.
        while shared.metrics().unique_traces == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let short = shared.evaluate(&w.program, &placement, 2, SHORT, &cfg);
        assert!(
            !long_done.load(Ordering::SeqCst),
            "the short evaluation waited for the long one"
        );
        let (_, long_len) = long.join().expect("long evaluation");
        assert!(long_len >= LONG.max_instructions, "{long_len}");

        let mut s = SimSession::new();
        let h = s.request(&w.program, &placement, 2, SHORT, &cfg);
        s.execute();
        assert_eq!(short, s.counted(&h));
    });
    let m = shared.metrics();
    assert_eq!(m.traces_streamed, 2);
    assert_eq!(m.inflight_waits, 0, "distinct keys never wait");
}

/// [`THREADS`] evaluations of one cold key released at once: one walk,
/// identical results equal to a serial session's, and every other
/// evaluation either coalesced onto the walk or hit the memo after it.
fn coalesce(store: Option<Arc<Store>>) {
    const THREADS: usize = 4;
    let w = impact_workloads::by_name("make").unwrap();
    let placement = baseline::natural(&w.program);
    let cfg = configs();
    let session = match &store {
        Some(store) => SimSession::new().with_store(Arc::clone(store)),
        None => SimSession::new(),
    };
    let shared = SharedSimSession::from_session(session);
    let start = Barrier::new(THREADS);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    shared.evaluate(&w.program, &placement, SEED, MEDIUM, &cfg)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("evaluation"))
            .collect()
    });

    let mut serial = SimSession::new();
    let h = serial.request(&w.program, &placement, SEED, MEDIUM, &cfg);
    serial.execute();
    let expected = serial.counted(&h);
    for got in &results {
        assert_eq!(*got, expected);
    }

    let m = shared.metrics();
    assert_eq!(m.traces_streamed, 1, "one walk for {THREADS} evaluations");
    assert_eq!(m.unique_traces, 1);
    assert_eq!(m.requests, THREADS as u64);
    assert_eq!(m.disk_served, 0);
    assert!(
        (1..THREADS as u64).contains(&m.inflight_waits),
        "inflight_waits = {}",
        m.inflight_waits
    );
    if store.is_some() {
        let puts = m.store.expect("store counters").puts;
        assert_eq!(puts, cfg.len() as u64 + 1, "results and artifact, once");
    }
}

#[test]
fn same_key_evaluations_coalesce() {
    coalesce(None);
    let dir = std::env::temp_dir().join(format!("impact-single-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    coalesce(Some(Arc::new(Store::open(&dir).expect("open store"))));
    let _ = std::fs::remove_dir_all(&dir);
}
