//! The cache simulator core.

use crate::config::{CacheConfig, FillPolicy};
use crate::stats::{CacheStats, ExecRunTracker};
use crate::WORD_BYTES;

/// Anything that can consume a stream of instruction fetch addresses.
///
/// The dynamic trace generator drives sinks directly, so multi-million
/// access simulations never materialize the trace.
pub trait AccessSink {
    /// Observe one 4-byte instruction fetch at `addr`.
    fn access(&mut self, addr: u64);

    /// Observe `words` consecutive fetches at `addr`, `addr + 4`, ...,
    /// `addr + 4 * (words - 1)` — one *run* of sequential execution.
    ///
    /// Fetch streams are overwhelmingly sequential (that is the very
    /// property trace placement optimizes for), so batching the stream
    /// at run granularity lets sinks amortize per-access work across a
    /// whole cache line. The default implementation unrolls the run into
    /// [`AccessSink::access`] calls, so every sink accepts runs; sinks
    /// with a native batch path override this with something faster that
    /// is **bit-identical** to the unrolled loop.
    fn access_run(&mut self, addr: u64, words: u64) {
        for i in 0..words {
            self.access(addr + i * WORD_BYTES);
        }
    }
}

/// Adapts a closure to [`AccessSink`].
///
/// Runs arrive unrolled word-by-word through the default
/// [`AccessSink::access_run`], so a `FnSink` observes exactly the
/// per-address stream regardless of how the producer batches.
pub struct FnSink<F: FnMut(u64)>(
    /// The closure every fetch address is forwarded to.
    pub F,
);

impl<F: FnMut(u64)> AccessSink for FnSink<F> {
    fn access(&mut self, addr: u64) {
        (self.0)(addr);
    }
}

/// One cache way: tag, per-word valid bits, and an LRU stamp.
#[derive(Debug, Clone, Copy)]
struct Way {
    /// Tag of the resident block; `u64::MAX` means empty.
    tag: u64,
    /// Bit `i` set ⇒ word `i` of the block is valid.
    valid: u64,
    /// Last-touch stamp for LRU replacement.
    lru: u64,
}

const EMPTY: u64 = u64::MAX;

/// A simulated instruction cache.
///
/// Supports every organization in the paper's evaluation; see
/// [`CacheConfig`]. Drive it through [`AccessSink::access`] and read
/// results with [`Cache::stats`].
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    ways: Vec<Way>,
    ways_per_set: usize,
    words_per_block: u64,
    stamp: u64,
    stats: CacheStats,
    tracker: ExecRunTracker,
    // Geometry, precomputed once: configs are validated powers of two,
    // so every div/mod on the access path reduces to shift/mask.
    /// `log2(block_bytes)`.
    block_shift: u32,
    /// `block_bytes - 1`.
    block_mask: u64,
    /// `sets - 1`.
    set_mask: u64,
    /// `log2(sets)`.
    set_shift: u32,
    /// Valid mask covering the whole block.
    full_mask: u64,
    /// Direct-mapped with whole-block fill: the monomorphized fast path.
    fast_path: bool,
    /// Demand hits refresh recency (LRU only).
    lru_refresh: bool,
}

/// `log2(WORD_BYTES)`.
pub(crate) const WORD_SHIFT: u32 = WORD_BYTES.trailing_zeros();

impl Cache {
    /// Creates a cache for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; validate with
    /// [`CacheConfig::validate`] first when the config is user-supplied.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cache config: {e}"));
        let sets = config.sets();
        let ways_per_set = config.ways() as usize;
        let words_per_block = config.words_per_block();
        Self {
            config,
            ways: vec![
                Way {
                    tag: EMPTY,
                    valid: 0,
                    lru: 0,
                };
                (sets as usize) * ways_per_set
            ],
            ways_per_set,
            words_per_block,
            stamp: 0,
            stats: CacheStats::default(),
            tracker: ExecRunTracker::default(),
            block_shift: config.block_bytes.trailing_zeros(),
            block_mask: config.block_bytes - 1,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            full_mask: Self::word_mask(0, words_per_block),
            fast_path: matches!(config.associativity, crate::Associativity::Direct)
                && matches!(config.fill, FillPolicy::FullBlock),
            lru_refresh: matches!(config.replacement, crate::Replacement::Lru),
        }
    }

    /// The configuration this cache simulates.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Current statistics (with any open execution run flushed).
    ///
    /// This copies the tracker so the simulation can continue afterwards;
    /// for the end of a simulation prefer [`Cache::take_stats`], which
    /// finalizes in place without the copy.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut stats = self.stats;
        let mut tracker = self.tracker;
        tracker.finish(&mut stats);
        stats
    }

    /// Finalizes and returns the statistics: the open execution run (if
    /// any) is flushed *into* the cache's counters, so repeated calls are
    /// idempotent and nothing is copied per call.
    ///
    /// Use this once streaming is done; [`Cache::stats`] remains for
    /// mid-simulation snapshots. Accesses observed after `take_stats`
    /// start a fresh execution-run measurement.
    pub fn take_stats(&mut self) -> CacheStats {
        self.tracker.finish(&mut self.stats);
        self.stats
    }

    /// Demand misses so far, without flushing the execution-run tracker
    /// (cheap; exact — only `exec_runs` counters lag in `self.stats`).
    pub(crate) fn raw_misses(&self) -> u64 {
        self.stats.misses
    }

    /// A digest of the complete replacement-relevant state: every way's
    /// tag, valid bits, and recency stamp, plus the global stamp counter.
    ///
    /// Two caches with equal fingerprints hold identical victim contents
    /// and will behave identically on any future access stream. Exposed
    /// so equivalence tests can assert that the batched
    /// [`AccessSink::access_run`] path leaves *exactly* the state the
    /// word-by-word path does.
    #[must_use]
    pub fn state_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.stamp.hash(&mut h);
        for w in &self.ways {
            w.tag.hash(&mut h);
            w.valid.hash(&mut h);
            w.lru.hash(&mut h);
        }
        h.finish()
    }

    /// Resets counters and contents.
    pub fn reset(&mut self) {
        for w in &mut self.ways {
            *w = Way {
                tag: EMPTY,
                valid: 0,
                lru: 0,
            };
        }
        self.stamp = 0;
        self.stats = CacheStats::default();
        self.tracker = ExecRunTracker::default();
    }

    /// Mask of valid bits covering `count` words starting at `start`.
    fn word_mask(start: u64, count: u64) -> u64 {
        debug_assert!(start + count <= 64);
        if count == 64 {
            u64::MAX
        } else {
            ((1u64 << count) - 1) << start
        }
    }

    /// Handles one demand access; returns `(missed, words_fetched)`.
    fn lookup(&mut self, addr: u64) -> (bool, u64) {
        self.probe(addr, true)
    }

    /// Handles one access; returns `(missed, words_fetched)`.
    ///
    /// `demand` controls recency: only demand accesses refresh a resident
    /// block's LRU stamp. Prefetch probes must be recency-neutral on hits,
    /// or a probed block is promoted as if the program had touched it and
    /// the victim choice skews toward genuinely hot blocks.
    fn probe(&mut self, addr: u64, demand: bool) -> (bool, u64) {
        let block_addr = addr >> self.block_shift;
        let set = (block_addr & self.set_mask) as usize;
        let tag = block_addr >> self.set_shift;
        let word_in_block = (addr & self.block_mask) >> WORD_SHIFT;

        self.stamp += 1;
        let base = set * self.ways_per_set;
        let ways = &mut self.ways[base..base + self.ways_per_set];

        // Tag match?
        if let Some(way) = ways.iter_mut().find(|w| w.tag == tag) {
            if demand && matches!(self.config.replacement, crate::Replacement::Lru) {
                way.lru = self.stamp;
            }
            if way.valid & (1 << word_in_block) != 0 {
                return (false, 0);
            }
            // Word miss on a resident block (sectored / partial fills).
            let fetched = Self::fill(way, self.config.fill, word_in_block, self.words_per_block);
            return (true, fetched);
        }

        // Block miss: pick a victim per the replacement policy (an empty
        // way always wins — its stamp is 0).
        let victim = match self.config.replacement {
            // LRU refreshes stamps on hits, FIFO only at insertion; the
            // victim choice is identical given the stamps.
            crate::Replacement::Lru | crate::Replacement::Fifo => ways
                .iter_mut()
                .min_by_key(|w| if w.tag == EMPTY { 0 } else { w.lru })
                .expect("caches have at least one way"),
            crate::Replacement::Random => {
                if let Some(empty) = ways.iter().position(|w| w.tag == EMPTY) {
                    &mut ways[empty]
                } else {
                    // xorshift on the running stamp: deterministic per
                    // access sequence, well-spread across ways.
                    let mut x = self.stamp ^ 0x9e37_79b9_7f4a_7c15;
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let idx = (x % self.ways_per_set as u64) as usize;
                    &mut ways[idx]
                }
            }
        };
        victim.tag = tag;
        victim.valid = 0;
        victim.lru = self.stamp;
        let fetched = Self::fill(
            victim,
            self.config.fill,
            word_in_block,
            self.words_per_block,
        );
        (true, fetched)
    }

    /// Fetches the words the fill policy dictates; returns words fetched.
    fn fill(way: &mut Way, fill: FillPolicy, word_in_block: u64, words_per_block: u64) -> u64 {
        match fill {
            FillPolicy::FullBlock => {
                way.valid = Self::word_mask(0, words_per_block);
                words_per_block
            }
            FillPolicy::Sectored { sector_bytes } => {
                let words_per_sector = sector_bytes / WORD_BYTES;
                let sector_start = (word_in_block / words_per_sector) * words_per_sector;
                let mask = Self::word_mask(sector_start, words_per_sector);
                debug_assert_eq!(way.valid & mask, 0, "sector re-fetch of valid words");
                way.valid |= mask;
                words_per_sector
            }
            FillPolicy::Partial => {
                // From the missed word to the end of the block or the
                // first already-valid word.
                let mut count = 0;
                for w in word_in_block..words_per_block {
                    if way.valid & (1 << w) != 0 {
                        break;
                    }
                    way.valid |= 1 << w;
                    count += 1;
                }
                count
            }
        }
    }
}

impl Cache {
    /// Fills the block containing `addr` as a *prefetch*: the transfer
    /// counts toward memory traffic, but no access, miss, or execution
    /// run is recorded, and a probe that hits a resident block leaves
    /// its recency untouched. Returns `(was_absent, words_fetched)`.
    ///
    /// Used by prefetchers layered on top of the cache; demand traffic
    /// should go through [`AccessSink::access`].
    pub fn prefetch_fill(&mut self, addr: u64) -> (bool, u64) {
        let (missed, fetched) = self.probe(addr, false);
        self.stats.words_fetched += fetched;
        (missed, fetched)
    }
}

impl Cache {
    /// Batched demand accesses to `n` consecutive words of **one** cache
    /// line, for the headline organization (direct-mapped, whole-block
    /// fill): one tag compare decides hit/miss for the entire span — no
    /// way scan, no fill dispatch, no per-word valid-bit checks (a
    /// resident full-block line is always fully valid).
    fn line_run_fast(&mut self, addr: u64, n: u64) {
        let block_addr = addr >> self.block_shift;
        let set = (block_addr & self.set_mask) as usize;
        let tag = block_addr >> self.set_shift;
        let s0 = self.stamp;
        self.stamp = s0 + n;
        self.stats.accesses += n;
        let way = &mut self.ways[set];
        if way.tag == tag {
            // Word-by-word, every access would refresh recency; only the
            // final stamp survives.
            if self.lru_refresh {
                way.lru = s0 + n;
            }
            self.tracker.observe_hits(addr, n, &mut self.stats);
        } else {
            way.tag = tag;
            way.valid = self.full_mask;
            // Insertion stamps the first access; LRU then refreshes on
            // each of the n-1 following hits.
            way.lru = if self.lru_refresh { s0 + n } else { s0 + 1 };
            self.stats.misses += 1;
            self.stats.words_fetched += self.words_per_block;
            self.tracker.observe(addr, true, &mut self.stats);
            self.tracker
                .observe_hits(addr + WORD_BYTES, n - 1, &mut self.stats);
        }
    }

    /// Batched demand accesses to `n` consecutive words of **one** cache
    /// line, general organization: one tag probe (and at most one victim
    /// choice) per line, then a valid-bitmap walk that replays the
    /// scalar fill policy exactly — including `stamp` evolution, so
    /// LRU/FIFO victim order and `Replacement::Random` draws are
    /// unchanged.
    fn line_run_general(&mut self, addr: u64, w0: u64, n: u64) {
        let block_addr = addr >> self.block_shift;
        let set = (block_addr & self.set_mask) as usize;
        let tag = block_addr >> self.set_shift;
        let fill = self.config.fill;
        let wpb = self.words_per_block;
        let ways_per_set = self.ways_per_set;
        let lru_refresh = self.lru_refresh;
        let s0 = self.stamp;
        self.stamp = s0 + n;
        self.stats.accesses += n;

        // Split borrows: the way array, tracker, and counters are
        // disjoint fields the bitmap walk updates together.
        let Self {
            ref mut ways,
            ref mut tracker,
            ref mut stats,
            ..
        } = *self;
        let base = set * ways_per_set;
        let ways = &mut ways[base..base + ways_per_set];

        let idx = if let Some(i) = ways.iter().position(|w| w.tag == tag) {
            i
        } else {
            // Block miss on the first word of the span: the victim is
            // chosen with that access's stamp, exactly as in `probe`.
            let stamp1 = s0 + 1;
            let i = match self.config.replacement {
                crate::Replacement::Lru | crate::Replacement::Fifo => {
                    ways.iter()
                        .enumerate()
                        .min_by_key(|(_, w)| if w.tag == EMPTY { 0 } else { w.lru })
                        .expect("caches have at least one way")
                        .0
                }
                crate::Replacement::Random => {
                    if let Some(empty) = ways.iter().position(|w| w.tag == EMPTY) {
                        empty
                    } else {
                        let mut x = stamp1 ^ 0x9e37_79b9_7f4a_7c15;
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x % ways_per_set as u64) as usize
                    }
                }
            };
            ways[i] = Way {
                tag,
                valid: 0,
                lru: stamp1,
            };
            i
        };
        let way = &mut ways[idx];
        if lru_refresh {
            // Each demand access refreshes recency; the final stamp wins.
            way.lru = s0 + n;
        }

        let end = w0 + n;
        if way.valid & Self::word_mask(w0, n) == Self::word_mask(w0, n) {
            // Every word resident: bulk hit, no bitmap walk.
            tracker.observe_hits(addr, n, stats);
            return;
        }
        // Walk the span's valid bits: hit stretches are observed in one
        // step, each invalid word replays the scalar fill.
        let mut w = w0;
        while w < end {
            if way.valid & (1 << w) != 0 {
                let span = w;
                while w < end && way.valid & (1 << w) != 0 {
                    w += 1;
                }
                tracker.observe_hits(addr + (span - w0) * WORD_BYTES, w - span, stats);
            } else {
                let fetched = Self::fill(way, fill, w, wpb);
                stats.misses += 1;
                stats.words_fetched += fetched;
                tracker.observe(addr + (w - w0) * WORD_BYTES, true, stats);
                w += 1;
            }
        }
    }
}

impl Cache {
    /// Batched demand accesses to `n` consecutive words of **one** cache
    /// line, starting at `addr` (word `w0` of its block): the span
    /// [`Cache::access_run`] decomposes runs into, exposed so
    /// [`crate::MultiLane`] can decompose once per block geometry and
    /// drive every same-geometry lane with the shared spans.
    ///
    /// Callers must guarantee `w0 == (addr % block_bytes) / 4` and
    /// `w0 + n <= words_per_block` for *this* cache's geometry.
    pub(crate) fn line_run(&mut self, addr: u64, w0: u64, n: u64) {
        debug_assert_eq!(w0, (addr & self.block_mask) >> WORD_SHIFT);
        debug_assert!(w0 + n <= self.words_per_block);
        if self.fast_path {
            self.line_run_fast(addr, n);
        } else {
            self.line_run_general(addr, w0, n);
        }
    }

    /// `block_bytes` of this cache's geometry (the span-grouping key).
    pub(crate) fn block_bytes(&self) -> u64 {
        self.config.block_bytes
    }
}

impl AccessSink for Cache {
    fn access(&mut self, addr: u64) {
        let (missed, fetched) = self.lookup(addr);
        self.stats.accesses += 1;
        if missed {
            self.stats.misses += 1;
            self.stats.words_fetched += fetched;
        }
        self.tracker.observe(addr, missed, &mut self.stats);
    }

    fn access_run(&mut self, addr: u64, words: u64) {
        let mut a = addr;
        let mut remaining = words;
        while remaining > 0 {
            let w0 = (a & self.block_mask) >> WORD_SHIFT;
            let n = remaining.min(self.words_per_block - w0);
            if self.fast_path {
                self.line_run_fast(a, n);
            } else {
                self.line_run_general(a, w0, n);
            }
            a += n * WORD_BYTES;
            remaining -= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::Associativity;

    use super::*;

    fn seq(cache: &mut Cache, start: u64, count: u64) {
        for i in 0..count {
            cache.access(start + i * WORD_BYTES);
        }
    }

    #[test]
    fn cold_miss_then_hits_within_block() {
        let mut c = Cache::new(CacheConfig::direct_mapped(1024, 64));
        seq(&mut c, 0, 16); // exactly one block
        let s = c.stats();
        assert_eq!(s.accesses, 16);
        assert_eq!(s.misses, 1);
        assert_eq!(s.words_fetched, 16);
    }

    #[test]
    fn direct_mapped_conflict_thrashes() {
        // Two blocks 1024 bytes apart collide in a 1 KB direct-mapped cache.
        let mut c = Cache::new(CacheConfig::direct_mapped(1024, 64));
        for _ in 0..10 {
            c.access(0);
            c.access(1024);
        }
        let s = c.stats();
        assert_eq!(s.misses, 20, "every access must conflict-miss");
    }

    #[test]
    fn two_way_associativity_absorbs_the_conflict() {
        let cfg = CacheConfig::direct_mapped(1024, 64).with_associativity(Associativity::Ways(2));
        let mut c = Cache::new(cfg);
        for _ in 0..10 {
            c.access(0);
            c.access(1024);
        }
        let s = c.stats();
        assert_eq!(s.misses, 2, "only the two cold misses remain");
    }

    #[test]
    fn fully_associative_lru_evicts_oldest() {
        // 4-block fully associative cache; touch 5 blocks round-robin:
        // classic LRU worst case, everything misses.
        let mut c = Cache::new(CacheConfig::fully_associative(256, 64));
        for round in 0..3 {
            for b in 0..5u64 {
                c.access(b * 64);
            }
            let _ = round;
        }
        assert_eq!(c.stats().misses, 15);
    }

    #[test]
    fn fully_associative_fits_working_set() {
        let mut c = Cache::new(CacheConfig::fully_associative(256, 64));
        for _ in 0..3 {
            for b in 0..4u64 {
                c.access(b * 64);
            }
        }
        assert_eq!(c.stats().misses, 4);
    }

    #[test]
    fn lru_prefers_empty_ways() {
        let mut c = Cache::new(CacheConfig::fully_associative(256, 64));
        c.access(0);
        c.access(64);
        // Two ways still empty: new blocks must not evict block 0.
        c.access(128);
        c.access(192);
        c.access(0);
        let s = c.stats();
        assert_eq!(s.misses, 4, "block 0 must still be resident");
    }

    #[test]
    fn sectored_fill_fetches_one_sector() {
        let cfg = CacheConfig::direct_mapped(1024, 64)
            .with_fill(FillPolicy::Sectored { sector_bytes: 8 });
        let mut c = Cache::new(cfg);
        c.access(0); // sector 0 (words 0-1)
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.words_fetched, 2);
        c.access(4); // same sector: hit
        assert_eq!(c.stats().misses, 1);
        c.access(8); // next sector of the same block: sector miss
        let s = c.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.words_fetched, 4);
    }

    #[test]
    fn partial_fill_loads_to_block_end() {
        let cfg = CacheConfig::direct_mapped(1024, 64).with_fill(FillPolicy::Partial);
        let mut c = Cache::new(cfg);
        c.access(8); // word 2 of a 16-word block: fetch words 2..16
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.words_fetched, 14);
        // Words before the miss point are absent: touching word 0 misses.
        c.access(0);
        let s = c.stats();
        assert_eq!(s.misses, 2);
        // ... and the partial fill stops at the first valid word (word 2).
        assert_eq!(s.words_fetched, 14 + 2);
    }

    #[test]
    fn partial_fill_miss_at_block_start_loads_whole_block() {
        let cfg = CacheConfig::direct_mapped(1024, 64).with_fill(FillPolicy::Partial);
        let mut c = Cache::new(cfg);
        c.access(0);
        assert_eq!(c.stats().words_fetched, 16);
    }

    #[test]
    fn traffic_ratio_for_straight_line_code_is_one_with_full_blocks() {
        // Fetching fresh code sequentially: every word fetched exactly once.
        let mut c = Cache::new(CacheConfig::direct_mapped(2048, 64));
        seq(&mut c, 0, 4096); // 16 KB of straight-line code
        let s = c.stats();
        assert!((s.traffic_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(s.misses, 4096 / 16);
    }

    #[test]
    fn avg_fetch_matches_block_words_for_full_fill() {
        let mut c = Cache::new(CacheConfig::direct_mapped(2048, 64));
        seq(&mut c, 0, 1024);
        assert!((c.stats().avg_fetch() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = Cache::new(CacheConfig::direct_mapped(1024, 64));
        seq(&mut c, 0, 100);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        c.access(0);
        assert_eq!(c.stats().misses, 1, "contents were flushed too");
    }

    #[test]
    fn doc_example_loop_behavior() {
        let mut c = Cache::new(CacheConfig::direct_mapped(2048, 64));
        for _ in 0..100 {
            seq(&mut c, 0, 32);
        }
        let s = c.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.accesses, 3200);
    }

    #[test]
    fn fifo_ignores_hits_when_choosing_victims() {
        // 2-way set: insert A, B; re-touch A (refreshing LRU but not
        // FIFO); insert C. LRU evicts B, FIFO evicts A.
        let base = CacheConfig::direct_mapped(128, 64).with_associativity(Associativity::Ways(2));
        let run = |cfg: CacheConfig| {
            let mut c = Cache::new(cfg);
            c.access(0); // A
            c.access(64); // B
            c.access(0); // touch A
            c.access(128); // C evicts per policy
            c.access(0); // hit under LRU, miss under FIFO
            c.stats().misses
        };
        let lru = run(base);
        let fifo = run(base.with_replacement(crate::Replacement::Fifo));
        assert_eq!(lru, 3, "LRU keeps A resident");
        assert_eq!(fifo, 4, "FIFO evicts A despite the touch");
    }

    #[test]
    fn random_replacement_is_deterministic_and_valid() {
        let cfg = CacheConfig::direct_mapped(512, 64)
            .with_associativity(Associativity::Ways(4))
            .with_replacement(crate::Replacement::Random);
        let addrs: Vec<u64> = (0..2000u64).map(|i| (i * 37 % 64) * 64).collect();
        let run = |cfg: CacheConfig| {
            let mut c = Cache::new(cfg);
            for &a in &addrs {
                c.access(a);
            }
            c.stats()
        };
        assert_eq!(run(cfg), run(cfg), "random policy must be reproducible");
        let s = run(cfg);
        assert!(s.misses > 8, "a 16-block working set must thrash 8 ways");
        assert!(s.misses <= s.accesses);
    }

    #[test]
    fn replacement_is_moot_for_direct_mapped() {
        let addrs: Vec<u64> = (0..500u64).map(|i| (i * 13 % 100) * 64).collect();
        let run = |r: crate::Replacement| {
            let mut c = Cache::new(CacheConfig::direct_mapped(1024, 64).with_replacement(r));
            for &a in &addrs {
                c.access(a);
            }
            c.stats()
        };
        assert_eq!(run(crate::Replacement::Lru), run(crate::Replacement::Fifo));
        assert_eq!(
            run(crate::Replacement::Lru),
            run(crate::Replacement::Random)
        );
    }

    #[test]
    fn prefetch_probe_of_resident_block_leaves_it_the_lru_victim() {
        // One 2-way set (128 B / 64 B blocks / 2 ways): blocks A=0,
        // B=64, C=128 all collide. Demand-touch A then B, so A is LRU.
        // A prefetch probe of A must NOT promote it: C still evicts A.
        let cfg = CacheConfig::direct_mapped(128, 64).with_associativity(Associativity::Ways(2));
        let mut c = Cache::new(cfg);
        c.access(0); // A
        c.access(64); // B — A is now least recently *demanded*
        let (absent, fetched) = c.prefetch_fill(0); // probe resident A
        assert!(!absent, "A is resident; the probe must hit");
        assert_eq!(fetched, 0, "a hit probe transfers nothing");
        c.access(128); // C must evict A, the true LRU victim
        c.access(64); // B survived: hit
        assert_eq!(c.stats().misses, 3);
        c.access(0); // A was evicted: miss proves the probe didn't refresh it
        let s = c.stats();
        assert_eq!(
            s.misses, 4,
            "prefetch probe promoted A as if demand-touched"
        );
        assert_eq!(s.accesses, 5, "probes are not demand accesses");
    }

    #[test]
    fn prefetch_fill_of_absent_block_installs_it() {
        let mut c = Cache::new(CacheConfig::direct_mapped(1024, 64));
        let (absent, fetched) = c.prefetch_fill(0);
        assert!(absent);
        assert_eq!(fetched, 16);
        c.access(0); // already prefetched: hit
        let s = c.stats();
        assert_eq!(s.misses, 0);
        assert_eq!(s.accesses, 1);
        assert_eq!(s.words_fetched, 16, "the prefetch transfer still counts");
    }

    #[test]
    fn word_mask_full_width() {
        assert_eq!(Cache::word_mask(0, 64), u64::MAX);
        assert_eq!(Cache::word_mask(0, 16), 0xFFFF);
        assert_eq!(Cache::word_mask(4, 2), 0b11_0000);
    }
}
