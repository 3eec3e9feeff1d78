//! Property tests pinning `access_run` to the scalar `access` path.
//!
//! The run-batched path is a pure performance change: for every cache
//! organization the paper evaluates, feeding the same fetch stream as
//! runs must produce identical [`CacheStats`] *and* identical internal
//! state (tags, valid bitmaps, recency stamps) as feeding it word by
//! word. The configuration grid below covers every
//! (fill policy × associativity × replacement) combination, so both the
//! direct-mapped fast path and the general per-line path are exercised.

use impact_cache::{
    AccessSink, Associativity, Cache, CacheConfig, CacheStats, FillPolicy, Replacement, WORD_BYTES,
};
use impact_support::check;
use impact_support::rng::Rng;

/// Every (fill × associativity × replacement) combination at the paper's
/// 1 KB / 64 B geometry (16 sets direct-mapped, down to fully
/// associative).
fn config_grid() -> Vec<CacheConfig> {
    let fills = [
        FillPolicy::FullBlock,
        FillPolicy::Sectored { sector_bytes: 8 },
        FillPolicy::Sectored { sector_bytes: 32 },
        FillPolicy::Partial,
    ];
    let assocs = [
        Associativity::Direct,
        Associativity::Ways(2),
        Associativity::Ways(4),
        Associativity::Full,
    ];
    let repls = [Replacement::Lru, Replacement::Fifo, Replacement::Random];
    let mut grid = Vec::new();
    for fill in fills {
        for assoc in assocs {
            for repl in repls {
                grid.push(
                    CacheConfig::direct_mapped(1024, 64)
                        .with_associativity(assoc)
                        .with_fill(fill)
                        .with_replacement(repl),
                );
            }
        }
    }
    grid
}

/// A randomized stream of (start address, run length) fetch runs over a
/// footprint a few times the cache size, so hits, misses, evictions and
/// partial-line entries all occur.
fn gen_runs(rng: &mut Rng) -> Vec<(u64, u64)> {
    let n_runs = rng.gen_range_inclusive(1, 64);
    (0..n_runs)
        .map(|_| {
            let start = rng.gen_below(2048) * WORD_BYTES;
            let words = 1 + rng.gen_below(48);
            (start, words)
        })
        .collect()
}

fn drive_scalar(config: CacheConfig, runs: &[(u64, u64)]) -> (CacheStats, u64) {
    let mut cache = Cache::new(config);
    for &(start, words) in runs {
        for w in 0..words {
            cache.access(start + w * WORD_BYTES);
        }
    }
    (cache.take_stats(), cache.state_fingerprint())
}

fn drive_batched(config: CacheConfig, runs: &[(u64, u64)]) -> (CacheStats, u64) {
    let mut cache = Cache::new(config);
    for &(start, words) in runs {
        cache.access_run(start, words);
    }
    (cache.take_stats(), cache.state_fingerprint())
}

#[test]
fn access_run_is_bit_identical_to_scalar_access_across_config_grid() {
    let grid = config_grid();
    check::forall(96, gen_runs, |runs| {
        for &config in &grid {
            let (scalar_stats, scalar_state) = drive_scalar(config, runs);
            let (batched_stats, batched_state) = drive_batched(config, runs);
            assert_eq!(scalar_stats, batched_stats, "stats diverged for {config:?}");
            assert_eq!(
                scalar_state, batched_state,
                "cache state diverged for {config:?}"
            );
        }
    });
}

#[test]
fn access_run_is_split_invariant() {
    // Splitting one run into arbitrary sub-runs must not change anything:
    // the batched path may only exploit contiguity, not run boundaries.
    let grid = config_grid();
    check::forall(
        64,
        |rng| {
            let start = rng.gen_below(2048) * WORD_BYTES;
            let words = 1 + rng.gen_below(96);
            let mut splits = vec![0];
            let mut at = 0;
            while at < words {
                at = (at + 1 + rng.gen_below(24)).min(words);
                splits.push(at);
            }
            (start, words, splits)
        },
        |(start, words, splits)| {
            for &config in &grid {
                let (whole_stats, whole_state) = drive_batched(config, &[(*start, *words)]);
                let pieces: Vec<(u64, u64)> = splits
                    .windows(2)
                    .map(|w| (*start + w[0] * WORD_BYTES, w[1] - w[0]))
                    .collect();
                let (split_stats, split_state) = drive_batched(config, &pieces);
                assert_eq!(whole_stats, split_stats, "stats diverged for {config:?}");
                assert_eq!(
                    whole_state, split_state,
                    "cache state diverged for {config:?}"
                );
            }
        },
    );
}

/// Drives two copies of any sink — one word-by-word, one via
/// `access_run` — and hands both back for observable-state comparison.
fn drive_pair<S: AccessSink + Clone>(proto: &S, runs: &[(u64, u64)]) -> (S, S) {
    let mut scalar = proto.clone();
    let mut batched = proto.clone();
    for &(start, words) in runs {
        for w in 0..words {
            scalar.access(start + w * WORD_BYTES);
        }
        batched.access_run(start, words);
    }
    (scalar, batched)
}

#[test]
fn wrapper_sinks_match_scalar_path() {
    use impact_cache::paging::{PageConfig, PagingSim, WorkingSetTracker};
    use impact_cache::{CacheBank, NextLinePrefetcher, VictimCache};

    check::forall(48, gen_runs, |runs| {
        let bank = CacheBank::new([
            CacheConfig::direct_mapped(512, 32),
            CacheConfig::direct_mapped(2048, 64)
                .with_associativity(Associativity::Ways(2))
                .with_fill(FillPolicy::Sectored { sector_bytes: 16 }),
        ]);
        let (mut s, mut b) = drive_pair(&bank, runs);
        assert_eq!(s.take_stats(), b.take_stats(), "CacheBank diverged");

        let pf = NextLinePrefetcher::new(Cache::new(CacheConfig::direct_mapped(1024, 64)));
        let (s, b) = drive_pair(&pf, runs);
        assert_eq!(s.stats(), b.stats(), "prefetcher stats diverged");
        assert_eq!(s.prefetches(), b.prefetches(), "prefetch count diverged");
        assert_eq!(s.accuracy(), b.accuracy(), "prefetch accuracy diverged");

        let vc = VictimCache::new(CacheConfig::direct_mapped(1024, 64), 4);
        let (s, b) = drive_pair(&vc, runs);
        assert_eq!(s.stats(), b.stats(), "victim cache stats diverged");
        assert_eq!(s.victim_hits(), b.victim_hits(), "victim hits diverged");

        for sector_bytes in [None, Some(64)] {
            let paging = PagingSim::new(PageConfig {
                page_bytes: 512,
                resident_pages: 4,
                sector_bytes,
            });
            let (s, b) = drive_pair(&paging, runs);
            assert_eq!(s.stats(), b.stats(), "paging diverged ({sector_bytes:?})");
        }

        let ws = WorkingSetTracker::new(512, 100);
        let (s, b) = drive_pair(&ws, runs);
        assert_eq!(s.mean_pages(), b.mean_pages(), "working-set mean diverged");
        assert_eq!(s.peak_pages(), b.peak_pages(), "working-set peak diverged");
    });
}

#[test]
fn default_sink_impl_loops_over_access() {
    // An external sink that only implements `access` still sees every
    // word of a run, in order, through the default `access_run`.
    struct Recorder(Vec<u64>);
    impl AccessSink for Recorder {
        fn access(&mut self, addr: u64) {
            self.0.push(addr);
        }
    }
    let mut sink = Recorder(Vec::new());
    sink.access_run(100, 3);
    sink.access_run(400, 1);
    assert_eq!(sink.0, vec![100, 104, 108, 400]);
}
