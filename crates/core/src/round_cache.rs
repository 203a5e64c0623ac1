//! Cross-tick memoization of per-round grouping state.
//!
//! Profiling the planner shows Blossom matching — not edge-weight
//! construction — dominates grouping cost (`O(n³)` vs `O(n²)`), and the
//! scheduler presents the *same* bucket contents tick after tick whenever
//! no job arrived, finished, or was preempted in between. This cache
//! keys on exactly the inputs that determine round-1 state — the profile
//! list (in priority order), the group-size cap, the ordering policy, the
//! efficiency threshold, and the sparsification knobs (top-m width and
//! loss bound, see [`RoundParams`]) — and memoizes:
//!
//! * the round-1 edge-weight graph (shared by every matching mode,
//!   since edge weights are a pure function of the key);
//! * the round-1 matching, one slot per matching mode (Blossom / greedy);
//! * the final multi-round groups per mode, so an exactly repeated
//!   [`crate::grouping::multi_round_grouping`] call returns without
//!   touching the matcher at all.
//!
//! The free-GPU count is deliberately **not** part of the key: round-1
//! state does not depend on it (capacity only decides which matched
//! pairs get *accepted*).
//!
//! Lookups hash the borrowed inputs without allocating; the owned key is
//! only materialized on insert, and full-key equality is verified on
//! every hash hit so collisions degrade to misses, never wrong answers.
//! Eviction is segmented like [`crate::gamma_cache`], but budgeted by
//! graph *cells* rather than entry count, since one 1000-node graph
//! outweighs thousands of small ones.

use crate::gamma_cache::{CacheStats, FxBuildHasher, FxHasher};
use crate::shard::ShardBy;
use muri_interleave::OrderingPolicy;
use muri_matching::{DenseGraph, Matching};
use muri_workload::StageProfile;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Graph cells per segment (a cell is one `i64` weight). Two segments
/// bound resident graph memory at ~2 × 8 M × 8 B = 128 MB worst case.
const DEFAULT_SEGMENT_CELL_BUDGET: usize = 8_000_000;

/// Matching-mode slots in a cache entry: Blossom and greedy.
pub(crate) const NUM_MATCH_MODES: usize = 2;

/// The scalar half of a round-cache key: every configuration knob that
/// changes round-1 state. The sparsification knobs are part of the key —
/// a pruned matching is a different (certified-approximate) answer than
/// the dense one, so configs with different prune settings must never
/// share a memoized matching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RoundParams {
    /// Group-size cap.
    pub cap: usize,
    /// Stage-ordering policy.
    pub ordering: OrderingPolicy,
    /// `min_efficiency.to_bits()` — bitwise so NaN/−0.0 never alias.
    pub min_eff_bits: u64,
    /// Top-m prune width (0 = dense).
    pub prune_top_m: usize,
    /// `prune_loss_bound.to_bits()`.
    pub prune_loss_bits: u64,
    /// Sharded-planner engagement mode. Part of the key because a
    /// sharded plan is a different certified answer than the dense one
    /// (same reasoning as the prune knobs).
    pub shard_by: ShardBy,
    /// Nodes per shard (0 = default).
    pub shard_size: usize,
    /// Candidate partner classes per profile class (0 = default).
    pub candidate_m: usize,
}

#[derive(Clone, PartialEq)]
struct RoundKey {
    profiles: Vec<StageProfile>,
    params: RoundParams,
}

impl RoundKey {
    fn matches(&self, profiles: &[StageProfile], params: RoundParams) -> bool {
        self.params == params && self.profiles == profiles
    }
}

/// Hash the borrowed key parts without building an owned key.
fn key_hash(profiles: &[StageProfile], params: RoundParams) -> u64 {
    let mut h = FxHasher::default();
    profiles.hash(&mut h);
    params.cap.hash(&mut h);
    params.ordering.hash(&mut h);
    params.min_eff_bits.hash(&mut h);
    params.prune_top_m.hash(&mut h);
    params.prune_loss_bits.hash(&mut h);
    params.shard_by.hash(&mut h);
    params.shard_size.hash(&mut h);
    params.candidate_m.hash(&mut h);
    h.finish()
}

/// Matched pairs `(u, v, w)` of one sharded planning round.
pub(crate) type ShardedPairs = Vec<(usize, usize, i64)>;

struct RoundEntry {
    key: RoundKey,
    /// `None` for entries created by the sharded planner, which never
    /// materializes a dense round graph; [`round1`] fills it lazily if
    /// the dense path is ever asked for the same key.
    graph: Option<Rc<DenseGraph>>,
    any_edge: bool,
    matchings: [Option<Rc<Matching>>; NUM_MATCH_MODES],
    groups: [Option<Rc<Vec<Vec<usize>>>>; NUM_MATCH_MODES],
    /// Round-1 sharded plans per matching mode (only successful —
    /// certified — plans are memoized).
    sharded: [Option<Rc<ShardedPairs>>; NUM_MATCH_MODES],
}

impl RoundEntry {
    fn cells(&self) -> usize {
        let graph = self.graph.as_ref().map_or(0, |g| g.len() * g.len());
        let sharded: usize = self.sharded.iter().flatten().map(|p| p.len() * 3).sum();
        graph + sharded + self.key.profiles.len()
    }
}

struct RoundCache {
    hot: HashMap<u64, RoundEntry, FxBuildHasher>,
    cold: HashMap<u64, RoundEntry, FxBuildHasher>,
    hot_cells: usize,
    segment_cell_budget: usize,
    hits: u64,
    misses: u64,
}

impl RoundCache {
    fn new(segment_cell_budget: usize) -> Self {
        RoundCache {
            hot: HashMap::default(),
            cold: HashMap::default(),
            hot_cells: 0,
            segment_cell_budget: segment_cell_budget.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Find the entry for the given inputs, promoting a cold hit into the
    /// hot segment. A hash hit whose stored key mismatches (a collision)
    /// is treated as a miss. Counts the hit/miss.
    fn lookup(
        &mut self,
        h: u64,
        profiles: &[StageProfile],
        params: RoundParams,
    ) -> Option<&mut RoundEntry> {
        let hot_match = self
            .hot
            .get(&h)
            .is_some_and(|e| e.key.matches(profiles, params));
        if hot_match {
            self.hits += 1;
            return self.hot.get_mut(&h);
        }
        if let Some(entry) = self.cold.remove(&h) {
            if entry.key.matches(profiles, params) {
                self.hits += 1;
                self.insert(h, entry);
                return self.hot.get_mut(&h);
            }
            // Collision with a colder entry: drop it, report a miss.
        }
        self.misses += 1;
        None
    }

    fn insert(&mut self, h: u64, entry: RoundEntry) {
        if self.hot_cells >= self.segment_cell_budget {
            self.cold = std::mem::take(&mut self.hot);
            self.hot_cells = 0;
        }
        self.hot_cells += entry.cells();
        self.hot.insert(h, entry);
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
    static CACHE: RefCell<RoundCache> =
        RefCell::new(RoundCache::new(DEFAULT_SEGMENT_CELL_BUDGET));
}

/// Memoized round-1 state handed back to the grouping loop.
pub(crate) struct Round1 {
    pub graph: Rc<DenseGraph>,
    pub any_edge: bool,
    /// `None` iff the graph has no edges (matching would be empty).
    pub matching: Option<Rc<Matching>>,
}

/// Fetch — building on miss — the round-1 graph and matching for a
/// singleton-node profile list. `build` constructs the edge-weight graph;
/// `solve` runs the matcher for `mode_idx` and is only invoked when the
/// graph has at least one edge (and at most once per mode per entry).
pub(crate) fn round1(
    profiles: &[StageProfile],
    params: RoundParams,
    mode_idx: usize,
    build: impl FnOnce() -> DenseGraph,
    solve: impl FnOnce(&DenseGraph) -> Matching,
) -> Round1 {
    let h = key_hash(profiles, params);
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(entry) = cache.lookup(h, profiles, params) {
            let graph = match &entry.graph {
                Some(g) => Rc::clone(g),
                None => {
                    // Sharded-only entry asked for the dense round (the
                    // certificate-failure fallback): fill the graph
                    // lazily.
                    let g = Rc::new(build());
                    entry.any_edge = g.has_edges();
                    entry.graph = Some(Rc::clone(&g));
                    g
                }
            };
            if entry.any_edge && entry.matchings[mode_idx].is_none() {
                entry.matchings[mode_idx] = Some(Rc::new(solve(&graph)));
            }
            return Round1 {
                graph,
                any_edge: entry.any_edge,
                matching: entry.matchings[mode_idx].clone(),
            };
        }
        let graph = Rc::new(build());
        let any_edge = graph.has_edges();
        let matching = any_edge.then(|| Rc::new(solve(&graph)));
        let mut matchings: [Option<Rc<Matching>>; NUM_MATCH_MODES] = Default::default();
        matchings[mode_idx] = matching.clone();
        let entry = RoundEntry {
            key: RoundKey {
                profiles: profiles.to_vec(),
                params,
            },
            graph: Some(Rc::clone(&graph)),
            any_edge,
            matchings,
            groups: Default::default(),
            sharded: Default::default(),
        };
        cache.insert(h, entry);
        Round1 {
            graph,
            any_edge,
            matching,
        }
    })
}

/// Fetch — computing on miss — the memoized round-1 **sharded** plan for
/// a singleton-node profile list. `compute` runs the sharded planner and
/// may return `None` (certificate failure at fallback scale); failures
/// are never memoized, so the subsequent dense round starts clean and a
/// later identical call re-attempts nothing (it goes dense through
/// [`round1`], which reuses this entry's slot).
pub(crate) fn sharded_round1(
    profiles: &[StageProfile],
    params: RoundParams,
    mode_idx: usize,
    compute: impl FnOnce() -> Option<ShardedPairs>,
) -> Option<Rc<ShardedPairs>> {
    let h = key_hash(profiles, params);
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(entry) = cache.lookup(h, profiles, params) {
            if let Some(pairs) = &entry.sharded[mode_idx] {
                return Some(Rc::clone(pairs));
            }
            let pairs = Rc::new(compute()?);
            entry.sharded[mode_idx] = Some(Rc::clone(&pairs));
            return Some(pairs);
        }
        let pairs = Rc::new(compute()?);
        let mut sharded: [Option<Rc<ShardedPairs>>; NUM_MATCH_MODES] = Default::default();
        sharded[mode_idx] = Some(Rc::clone(&pairs));
        let entry = RoundEntry {
            key: RoundKey {
                profiles: profiles.to_vec(),
                params,
            },
            graph: None,
            any_edge: false,
            matchings: Default::default(),
            groups: Default::default(),
            sharded,
        };
        cache.insert(h, entry);
        Some(pairs)
    })
}

/// The memoized final groups for an exactly repeated grouping call, if
/// any. Does not count toward hit/miss stats unless found.
pub(crate) fn cached_final_groups(
    profiles: &[StageProfile],
    params: RoundParams,
    mode_idx: usize,
) -> Option<Vec<Vec<usize>>> {
    let h = key_hash(profiles, params);
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        let entry = match cache.hot.get(&h) {
            Some(e) if e.key.matches(profiles, params) => cache.hot.get(&h),
            _ => match cache.cold.get(&h) {
                Some(e) if e.key.matches(profiles, params) => cache.cold.get(&h),
                _ => None,
            },
        }?;
        let groups = entry.groups[mode_idx].as_ref()?;
        let groups = Vec::clone(groups);
        cache.hits += 1;
        Some(groups)
    })
}

/// Record the final groups for this key so the next identical call skips
/// the rounds entirely. A no-op if the entry has been evicted since
/// [`round1`] (cannot happen within one grouping call).
pub(crate) fn store_final_groups(
    profiles: &[StageProfile],
    params: RoundParams,
    mode_idx: usize,
    groups: &[Vec<usize>],
) {
    let h = key_hash(profiles, params);
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        let cache = &mut *cache;
        for seg in [&mut cache.hot, &mut cache.cold] {
            if let Some(entry) = seg.get_mut(&h) {
                if entry.key.matches(profiles, params) {
                    entry.groups[mode_idx] = Some(Rc::new(groups.to_vec()));
                    return;
                }
            }
        }
    });
}

/// Hit/miss/occupancy counters of this thread's round cache.
pub fn stats() -> CacheStats {
    CACHE.with(|cache| cache.borrow().stats())
}

/// Drop every cached round entry and zero the counters on this thread.
/// Tests use this to make cache-sensitive assertions non-vacuous.
pub fn reset() {
    CACHE.with(|cache| {
        let budget = cache.borrow().segment_cell_budget;
        *cache.borrow_mut() = RoundCache::new(budget);
    });
}

/// Override the per-segment cell budget on this thread. Implies [`reset`].
#[doc(hidden)]
pub fn set_segment_cell_budget(budget: usize) {
    CACHE.with(|cache| {
        *cache.borrow_mut() = RoundCache::new(budget);
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

    fn toy_graph(n: usize) -> DenseGraph {
        DenseGraph::build_symmetric(n, |u, v| (u + v) as i64)
    }

    fn toy_matching(g: &DenseGraph) -> Matching {
        muri_matching::greedy_matching(g)
    }

    fn params(cap: usize) -> RoundParams {
        RoundParams {
            cap,
            ordering: OrderingPolicy::Best,
            min_eff_bits: 0.0f64.to_bits(),
            prune_top_m: 8,
            prune_loss_bits: 0.05f64.to_bits(),
            shard_by: ShardBy::Auto,
            shard_size: 0,
            candidate_m: 0,
        }
    }

    #[test]
    fn round1_memoizes_graph_and_matching_per_mode() {
        set_segment_cell_budget(1_000_000);
        let ps = vec![profile(1, 2), profile(2, 1), profile(3, 3)];
        let mut builds = 0;
        let mut solves = 0;
        for _ in 0..3 {
            let r = round1(
                &ps,
                params(4),
                0,
                || {
                    builds += 1;
                    toy_graph(3)
                },
                |g| {
                    solves += 1;
                    toy_matching(g)
                },
            );
            assert!(r.any_edge);
            assert!(r.matching.is_some());
        }
        assert_eq!(builds, 1, "graph must be built once");
        assert_eq!(solves, 1, "matching must be solved once per mode");
        // A different mode reuses the graph but solves its own matching.
        let r = round1(
            &ps,
            params(4),
            1,
            || {
                builds += 1;
                toy_graph(3)
            },
            toy_matching,
        );
        assert_eq!(builds, 1);
        assert!(r.matching.is_some());
        reset();
    }

    #[test]
    fn prune_config_joins_the_key() {
        set_segment_cell_budget(1_000_000);
        let ps = vec![profile(1, 2), profile(2, 1), profile(3, 3)];
        let mut builds = 0;
        round1(
            &ps,
            params(4),
            0,
            || {
                builds += 1;
                toy_graph(3)
            },
            toy_matching,
        );
        // Different top-m: must not share the entry.
        let mut alt = params(4);
        alt.prune_top_m = 0;
        round1(
            &ps,
            alt,
            0,
            || {
                builds += 1;
                toy_graph(3)
            },
            toy_matching,
        );
        // Different loss bound: also a distinct key.
        let mut alt2 = params(4);
        alt2.prune_loss_bits = 0.01f64.to_bits();
        round1(
            &ps,
            alt2,
            0,
            || {
                builds += 1;
                toy_graph(3)
            },
            toy_matching,
        );
        assert_eq!(builds, 3, "each prune config must build its own entry");
        reset();
    }

    #[test]
    fn final_groups_round_trip() {
        set_segment_cell_budget(1_000_000);
        let ps = vec![profile(1, 2), profile(2, 1)];
        assert_eq!(cached_final_groups(&ps, params(4), 0), None);
        round1(&ps, params(4), 0, || toy_graph(2), toy_matching);
        let groups = vec![vec![0, 1]];
        store_final_groups(&ps, params(4), 0, &groups);
        assert_eq!(cached_final_groups(&ps, params(4), 0), Some(groups));
        // The other mode's slot is independent.
        assert_eq!(cached_final_groups(&ps, params(4), 1), None);
        reset();
    }

    #[test]
    fn cell_budget_bounds_residency_but_keeps_promoted_entries() {
        // Budget of ~2 ten-node graphs per segment.
        set_segment_cell_budget(200);
        let keep = vec![profile(999, 1); 10];
        round1(&keep, params(4), 0, || toy_graph(10), toy_matching);
        for i in 0..20u64 {
            let ps = vec![profile(i + 1, 2 * i + 3); 10];
            round1(&ps, params(4), 0, || toy_graph(10), toy_matching);
            // Touch `keep` so it keeps getting promoted across rotations.
            let mut rebuilt = false;
            round1(
                &keep,
                params(4),
                0,
                || {
                    rebuilt = true;
                    toy_graph(10)
                },
                toy_matching,
            );
            assert!(!rebuilt, "promoted entry was evicted at insert {i}");
        }
        let s = stats();
        assert!(s.entries <= 6, "cache must stay within budget: {s:?}");
        reset();
    }
}
