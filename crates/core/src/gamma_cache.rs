//! Bounded, allocation-free memoization of merged interleaving efficiency.
//!
//! [`crate::grouping`] scores `O(n²)` candidate pairs per matching round
//! and the scheduler re-scores the same pairs tick after tick, so γ
//! lookups are among the hottest paths in the planner. This module
//! replaces the original `Vec`-keyed memo (which allocated a fresh key
//! per lookup and dropped the *entire* cache on overflow) with:
//!
//! * a fixed-size key — `[StageProfile; NUM_RESOURCES]` plus a length —
//!   so lookups never allocate;
//! * key canonicalization under the permutation-invariant policies
//!   ([`OrderingPolicy::Best`] / [`OrderingPolicy::Worst`]): members are
//!   sorted into a canonical order so `[A, B]` and `[B, A]` share one
//!   entry. γ itself is computed **on the sorted order**, which makes the
//!   invariance exact at the bit level rather than merely within float
//!   tolerance. [`OrderingPolicy::Canonical`] executes stages in the
//!   caller's order, so its key keeps that order;
//! * segmented (hot/cold) eviction instead of wholesale `clear()`: on
//!   overflow the cold half is dropped and the hot half demoted, while a
//!   hit in the cold half promotes the entry back to hot — so entries the
//!   scheduler still touches survive overflow indefinitely;
//! * a cheap multiply-rotate hasher ([`FxHasher`]) — SipHash dominates
//!   the lookup cost for small fixed-size keys;
//! * hit/miss counters exposed through [`stats`] for tests and tuning.
//!
//! The cache is thread-local and the planner scores every pair on the
//! calling thread, so one thread's cache accumulates across calls and
//! [`stats`] counts every lookup that thread's grouping made.

use muri_interleave::{policy_efficiency, OrderingPolicy};
use muri_workload::{StageProfile, NUM_RESOURCES};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Entries per segment; two segments bound the cache at twice this.
const DEFAULT_SEGMENT_CAPACITY: usize = 100_000;

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A multiply-rotate hasher in the style of rustc's FxHash: word-at-a-time
/// mixing with no finalization round. Not DoS-resistant — fine here, keys
/// are internal profile data, never attacker-controlled.
#[derive(Default, Clone)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.add(n as u64);
    }
}

pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Fixed-size canonical cache key: the member profiles (padded with
/// defaults past `len`), the member count, and the ordering policy.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct GammaKey {
    profiles: [StageProfile; NUM_RESOURCES],
    len: u8,
    ordering: OrderingPolicy,
}

impl GammaKey {
    fn new(profiles: &[StageProfile], ordering: OrderingPolicy) -> Self {
        assert!(
            profiles.len() <= NUM_RESOURCES,
            "at most {NUM_RESOURCES} jobs per group, got {}",
            profiles.len()
        );
        let mut buf = [StageProfile::default(); NUM_RESOURCES];
        buf[..profiles.len()].copy_from_slice(profiles);
        if matches!(ordering, OrderingPolicy::Best | OrderingPolicy::Worst) {
            // Best/Worst optimize over stage orderings, so γ is invariant
            // under member permutation; sorting folds all permutations
            // into one entry (and one bit pattern — γ is computed on this
            // order). Canonical is order-dependent: never sort it.
            buf[..profiles.len()].sort_unstable_by_key(|p| p.stage.0);
        }
        GammaKey {
            profiles: buf,
            len: profiles.len() as u8,
            ordering,
        }
    }

    fn profiles(&self) -> &[StageProfile] {
        &self.profiles[..usize::from(self.len)]
    }
}

/// Hit/miss counters of a thread-local cache, plus its live entry count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (either segment).
    pub hits: u64,
    /// Lookups that had to compute γ.
    pub misses: u64,
    /// Entries currently resident across both segments.
    pub entries: usize,
}

struct SegmentedCache {
    /// Recently inserted or touched entries.
    hot: HashMap<GammaKey, f64, FxBuildHasher>,
    /// The previous hot segment; dropped wholesale on the next rotation.
    cold: HashMap<GammaKey, f64, FxBuildHasher>,
    segment_capacity: usize,
    hits: u64,
    misses: u64,
}

impl SegmentedCache {
    fn new(segment_capacity: usize) -> Self {
        SegmentedCache {
            hot: HashMap::default(),
            cold: HashMap::default(),
            segment_capacity: segment_capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    fn get(&mut self, key: &GammaKey) -> Option<f64> {
        if let Some(&gamma) = self.hot.get(key) {
            self.hits += 1;
            return Some(gamma);
        }
        if let Some(gamma) = self.cold.remove(key) {
            // Promote: a cold hit proves the entry is still in use, so it
            // must outlive the next rotation.
            self.hits += 1;
            self.insert(*key, gamma);
            return Some(gamma);
        }
        None
    }

    fn insert(&mut self, key: GammaKey, gamma: f64) {
        if self.hot.len() >= self.segment_capacity {
            // Rotate: demote the hot segment, drop the old cold one. Only
            // entries untouched for a full segment's worth of inserts die.
            self.cold = std::mem::take(&mut self.hot);
        }
        self.hot.insert(key, gamma);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.hot.len() + self.cold.len(),
        }
    }
}

thread_local! {
    static CACHE: RefCell<SegmentedCache> =
        RefCell::new(SegmentedCache::new(DEFAULT_SEGMENT_CAPACITY));
}

/// Memoized [`policy_efficiency`] over the canonicalized member set.
/// This is the allocation-free backend of
/// [`crate::grouping::merged_efficiency`].
pub(crate) fn merged_efficiency_cached(profiles: &[StageProfile], ordering: OrderingPolicy) -> f64 {
    let key = GammaKey::new(profiles, ordering);
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(gamma) = cache.get(&key) {
            return gamma;
        }
        cache.misses += 1;
        let gamma = policy_efficiency(key.profiles(), ordering);
        cache.insert(key, gamma);
        gamma
    })
}

/// Hit/miss/occupancy counters of this thread's γ cache.
pub fn stats() -> CacheStats {
    CACHE.with(|cache| cache.borrow().stats())
}

/// Drop every cached entry and zero the counters on this thread. Tests
/// use this to make cache-sensitive assertions non-vacuous.
pub fn reset() {
    CACHE.with(|cache| {
        let cap = cache.borrow().segment_capacity;
        *cache.borrow_mut() = SegmentedCache::new(cap);
    });
}

/// Override the per-segment capacity on this thread (entries, not bytes);
/// the cache holds at most twice this. Implies [`reset`].
#[doc(hidden)]
pub fn set_segment_capacity(segment_capacity: usize) {
    CACHE.with(|cache| {
        *cache.borrow_mut() = SegmentedCache::new(segment_capacity);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use muri_workload::SimDuration;

    fn profile(a: u64, b: u64) -> StageProfile {
        StageProfile::new(
            SimDuration::from_micros(a),
            SimDuration::from_micros(b),
            SimDuration::from_micros(1),
            SimDuration::from_micros(1),
        )
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        set_segment_capacity(64);
        let ps = [profile(1, 2), profile(2, 1)];
        let first = merged_efficiency_cached(&ps, OrderingPolicy::Best);
        let second = merged_efficiency_cached(&ps, OrderingPolicy::Best);
        assert_eq!(first.to_bits(), second.to_bits());
        let s = stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.entries, 1);
        reset();
        assert_eq!(stats(), CacheStats::default());
    }

    #[test]
    fn permuted_members_share_one_entry_under_best() {
        set_segment_capacity(64);
        let a = profile(3, 1);
        let b = profile(1, 3);
        let ab = merged_efficiency_cached(&[a, b], OrderingPolicy::Best);
        let ba = merged_efficiency_cached(&[b, a], OrderingPolicy::Best);
        assert_eq!(ab.to_bits(), ba.to_bits());
        let s = stats();
        assert_eq!(s.misses, 1, "permutations must share one cache entry");
        assert_eq!(s.entries, 1);
        reset();
    }

    #[test]
    fn canonical_policy_keeps_member_order_distinct() {
        set_segment_capacity(64);
        let a = profile(3, 1);
        let b = profile(1, 3);
        merged_efficiency_cached(&[a, b], OrderingPolicy::Canonical);
        merged_efficiency_cached(&[b, a], OrderingPolicy::Canonical);
        assert_eq!(
            stats().misses,
            2,
            "Canonical is order-dependent; orders must not collide"
        );
        reset();
    }

    #[test]
    fn recently_used_entries_survive_eviction() {
        // Regression for the old wholesale clear(): filling past the
        // bound must not evict entries that are still being touched.
        set_segment_capacity(4);
        let keep = [profile(1000, 1), profile(1, 1000)];
        merged_efficiency_cached(&keep, OrderingPolicy::Best);
        // Push 16 distinct entries through a capacity-4 segment, touching
        // `keep` between every insert so it keeps getting promoted.
        for i in 0..16u64 {
            merged_efficiency_cached(&[profile(i + 1, 2 * i + 3)], OrderingPolicy::Best);
            merged_efficiency_cached(&keep, OrderingPolicy::Best);
        }
        let s = stats();
        assert_eq!(
            s.misses, 17,
            "`keep` must never be recomputed despite 4x overflow: {s:?}"
        );
        assert_eq!(s.hits, 16);
        assert!(
            s.entries <= 8,
            "cache must stay bounded at two segments: {s:?}"
        );
        reset();
    }

    #[test]
    fn cache_stays_bounded_under_churn() {
        set_segment_capacity(8);
        for i in 0..1000u64 {
            merged_efficiency_cached(&[profile(i + 1, i + 2)], OrderingPolicy::Best);
        }
        assert!(stats().entries <= 16);
        reset();
    }
}
