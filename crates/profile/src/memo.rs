//! A thread-safe memo of measured profiles.
//!
//! The placement pipeline profiles, inlines and re-profiles; experiments
//! re-run it under many configurations (trace-selection thresholds,
//! inline-off ablations, code scaling) that share most of that prefix.
//! A measured profile depends only on the program and the profiler's
//! `(runs, base_seed, limits)`, so a [`ProfileMemo`] walks each such key
//! once and hands out copies afterwards.
//!
//! Keys are the program's structural hash
//! ([`Program::hash_structure`]) plus the profiler settings; every hit
//! is confirmed by full [`Program`] equality, so a hash collision can
//! never hand out another program's profile. Every entry is a walk the
//! memo made itself: there is no way to insert a profile from outside.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use impact_ir::Program;

use crate::profiler::{Profile, ProfileSource, Profiler};

/// One memoized walk: the exact key it answers and its profile.
#[derive(Debug)]
struct Entry {
    profiler: Profiler,
    program: Program,
    profile: Profile,
}

impl Entry {
    fn answers(&self, profiler: &Profiler, program: &Program) -> bool {
        self.profiler == *profiler && self.program == *program
    }
}

/// Measured profiles keyed by `(program, runs, base_seed, limits)`.
///
/// Shareable across threads. If two threads miss on the same key at
/// once, both walk (the profiles are equal: profiling is deterministic)
/// and only the first entry is kept.
#[derive(Debug, Default)]
pub struct ProfileMemo {
    /// Structural hash → entries with that hash (equality-confirmed).
    entries: Mutex<HashMap<u64, Vec<Arc<Entry>>>>,
    requested: AtomicU64,
    walked: AtomicU64,
}

impl ProfileMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The profile `profiler` measures on `program`, walked only if no
    /// equal key has been walked through this memo before.
    #[must_use]
    pub fn profile(&self, profiler: &Profiler, program: &Program) -> Profile {
        self.requested.fetch_add(1, Ordering::Relaxed);
        let hash = key_hash(profiler, program);
        let hit = self.lock().get(&hash).and_then(|bucket| {
            bucket
                .iter()
                .find(|e| e.answers(profiler, program))
                .cloned()
        });
        if let Some(entry) = hit {
            return entry.profile.clone();
        }
        let profile = profiler.profile(program);
        self.walked.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.lock();
        let bucket = entries.entry(hash).or_default();
        if !bucket.iter().any(|e| e.answers(profiler, program)) {
            bucket.push(Arc::new(Entry {
                profiler: profiler.clone(),
                program: program.clone(),
                profile: profile.clone(),
            }));
        }
        profile
    }

    /// A [`ProfileSource`] that profiles with `profiler` through this
    /// memo.
    #[must_use]
    pub fn source(&self, profiler: Profiler) -> MemoizedProfiler<'_> {
        MemoizedProfiler {
            memo: self,
            profiler,
        }
    }

    /// Profiles asked of this memo (hits plus walks).
    #[must_use]
    pub fn requested(&self) -> u64 {
        self.requested.load(Ordering::Relaxed)
    }

    /// Profiles this memo actually walked (its misses).
    #[must_use]
    pub fn walked(&self) -> u64 {
        self.walked.load(Ordering::Relaxed)
    }

    /// Number of distinct keys held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().values().map(Vec::len).sum()
    }

    /// `true` if nothing has been memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, Vec<Arc<Entry>>>> {
        // Entries are inserted whole under the lock, so a panic elsewhere
        // never leaves the map half-written.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn key_hash(profiler: &Profiler, program: &Program) -> u64 {
    let mut h = DefaultHasher::new();
    program.hash_structure(&mut h);
    profiler.hash(&mut h);
    h.finish()
}

/// A [`Profiler`] whose walks go through a [`ProfileMemo`]; see
/// [`ProfileMemo::source`].
#[derive(Debug, Clone)]
pub struct MemoizedProfiler<'a> {
    memo: &'a ProfileMemo,
    profiler: Profiler,
}

impl ProfileSource for MemoizedProfiler<'_> {
    fn profile(&self, program: &Program) -> Profile {
        self.memo.profile(&self.profiler, program)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use impact_ir::BlockId;

    use super::*;
    use crate::ExecLimits;

    fn program() -> Program {
        impact_workloads::by_name("wc").unwrap().program
    }

    fn profiler() -> Profiler {
        Profiler::new().runs(2).limits(ExecLimits {
            max_instructions: 20_000,
            max_call_depth: 512,
        })
    }

    #[test]
    fn repeats_are_served_without_walking() {
        let memo = ProfileMemo::new();
        let p = program();
        let a = memo.profile(&profiler(), &p);
        let b = memo.profile(&profiler(), &p.clone());
        assert_eq!(a, b);
        assert_eq!(a, profiler().profile(&p));
        assert_eq!((memo.requested(), memo.walked(), memo.len()), (2, 1, 1));
    }

    #[test]
    fn profiler_settings_are_part_of_the_key() {
        let memo = ProfileMemo::new();
        let p = program();
        let base = profiler();
        let limits = ExecLimits {
            max_instructions: 10_000,
            max_call_depth: 512,
        };
        let depth = ExecLimits {
            max_call_depth: 64,
            ..limits
        };
        let variants = [
            base.clone(),
            base.clone().runs(3),
            base.clone().base_seed(5),
            base.clone().limits(limits),
            base.clone().limits(depth),
        ];
        for v in &variants {
            assert_eq!(memo.profile(v, &p), v.profile(&p));
        }
        assert_eq!(memo.walked(), variants.len() as u64);
        assert_eq!(memo.len(), variants.len());
    }

    #[test]
    fn concurrent_misses_keep_one_entry() {
        let memo = ProfileMemo::new();
        let p = program();
        let barrier = Barrier::new(4);
        let profiles: Vec<Profile> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        memo.profile(&profiler(), &p)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(profiles.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.requested(), 4);
        assert!((1..=4).contains(&memo.walked()));
    }

    #[test]
    fn source_profiles_through_the_memo() {
        let memo = ProfileMemo::new();
        let p = program();
        let source = memo.source(profiler());
        let a = source.profile(&p);
        let b = source.profile(&p);
        assert_eq!(a, b);
        assert!(a.block_weight(p.entry(), BlockId::new(0)) > 0);
        assert_eq!(memo.walked(), 1);
    }
}
