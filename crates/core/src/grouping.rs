//! The multi-round job-grouping algorithm (the paper's Algorithm 1).
//!
//! With `k` resource types, Muri packs at most `k` jobs per group. Finding
//! the optimal `k`-way grouping is maximum-weight `k`-uniform hypergraph
//! matching — NP-hard — so the paper divides matching into `log2 k`
//! rounds: each round computes pairwise interleaving efficiencies, finds a
//! maximum-weight matching with the Blossom algorithm, and merges every
//! matched pair into one node for the next round.
//!
//! The Fig. 11 "w/o Blossom" ablation replaces matching with packing
//! consecutive jobs in priority order; Fig. 12's group-size sweep is the
//! `max_group_size` knob (merges that would exceed it get no edge).
//!
//! ## Performance structure
//!
//! The hot path is scoring `O(n²)` candidate pairs and matching them,
//! every scheduler tick. Each grouping call builds its round graphs from
//! the bucket's current nodes and solves them; nothing is carried across
//! calls but the γ memo (see DESIGN.md's Performance section):
//!
//! * γ lookups go through the bounded, allocation-free
//!   [`crate::gamma_cache`] (canonicalized fixed-size keys, segmented
//!   eviction);
//! * within one capacity-aware call, a bucket that no merge touched in
//!   the last round keeps its matched pairs instead of re-solving.

use muri_interleave::OrderingPolicy;
use muri_matching::{
    greedy_matching, maximum_weight_matching, pruned_maximum_weight_matching, weight_from_f64,
    DenseGraph, Matching, PruneConfig, DEFAULT_PRUNE_LOSS_BOUND, DEFAULT_PRUNE_TOP_M,
};
use muri_telemetry::timed_us;
use muri_workload::{StageProfile, NUM_RESOURCES};
use serde::{Deserialize, Serialize};

use crate::gamma_cache;
use crate::shard::{self, ShardBy, ShardCounters};

/// How jobs are grouped for interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum GroupingMode {
    /// No grouping: every job runs alone (the non-interleaving baselines).
    None,
    /// Multi-round maximum-weight matching with Blossom (Algorithm 1).
    #[default]
    Blossom,
    /// Multi-round matching with the greedy ½-approximation instead of
    /// Blossom (an extra ablation of matching quality).
    GreedyMatching,
    /// Pack consecutive jobs in priority order ("Muri-L w/o Blossom",
    /// Fig. 11).
    PriorityPacking,
}

/// Grouping configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupingConfig {
    /// Grouping algorithm.
    pub mode: GroupingMode,
    /// Maximum jobs per group (2–4; the paper's Fig. 12 sweep).
    pub max_group_size: usize,
    /// Stage-ordering policy used both to weigh candidate groups and to
    /// execute them (Fig. 11's "worst ordering" ablation flips this).
    pub ordering: OrderingPolicy,
    /// Drop candidate pairs whose interleaving efficiency is below this
    /// threshold (0 reproduces the paper: any positive-γ pair may match).
    pub min_efficiency: f64,
    /// Merge only as far as the free capacity requires (see
    /// [`capacity_aware_grouping`]). Disabling this reproduces a literal
    /// reading of Algorithm 1 that groups maximally even next to idle
    /// GPUs — kept as an ablation of this repo's design decision
    /// (DESIGN.md §5b.3).
    pub capacity_aware: bool,
    /// Sparsify Blossom inputs to each node's `prune_top_m` heaviest
    /// incident edges before matching (plus keep-threshold edges); `0`
    /// disables sparsification and always runs the dense solver. Results
    /// are protected by an a-posteriori loss certificate — see
    /// [`prune_loss_bound`](Self::prune_loss_bound).
    ///
    /// Serialized configs predating this knob deserialize to `0`
    /// (pruning off), preserving their original dense behaviour;
    /// [`GroupingConfig::default`] enables the paper-scale default.
    #[serde(default)]
    pub prune_top_m: usize,
    /// Maximum fraction of matching weight sparsification may sacrifice.
    /// When the certificate cannot guarantee this bound, the solver falls
    /// back to the dense Blossom run, so quality is always within
    /// `1 − prune_loss_bound` of optimal.
    #[serde(default)]
    pub prune_loss_bound: f64,
    /// When the sharded cold-start planner runs (see [`crate::shard`]):
    /// [`ShardBy::Auto`] engages it at
    /// [`shard::SHARD_AUTO_MIN_NODES`] nodes, `Off` always runs the
    /// dense round, `Force` shards every pool (smokes and tests).
    /// Sharded output is protected by the same loss-certificate
    /// machinery as edge pruning, composed across shards.
    #[serde(default)]
    pub shard_by: ShardBy,
    /// Nodes per shard for the sharded planner; `0` selects
    /// [`shard::DEFAULT_SHARD_SIZE`].
    #[serde(default)]
    pub shard_size: usize,
    /// Candidate partner classes per profile class in the sharded
    /// planner's locality-sensitive candidate graph; `0` selects
    /// [`shard::DEFAULT_CANDIDATE_M`].
    #[serde(default)]
    pub candidate_m: usize,
}

impl Default for GroupingConfig {
    fn default() -> Self {
        GroupingConfig {
            mode: GroupingMode::Blossom,
            max_group_size: muri_workload::NUM_RESOURCES,
            ordering: OrderingPolicy::Best,
            min_efficiency: 0.0,
            capacity_aware: true,
            prune_top_m: DEFAULT_PRUNE_TOP_M,
            prune_loss_bound: DEFAULT_PRUNE_LOSS_BOUND,
            shard_by: ShardBy::Auto,
            shard_size: 0,
            candidate_m: 0,
        }
    }
}

impl GroupingConfig {
    /// No grouping at all.
    pub fn disabled() -> Self {
        GroupingConfig {
            mode: GroupingMode::None,
            ..GroupingConfig::default()
        }
    }
}

/// Interleaving efficiency of the group formed by merging the given jobs,
/// under the configured ordering policy.
///
/// Memoized per thread in the bounded [`crate::gamma_cache`]: the profile
/// universe is tiny without profiling noise (one profile per model), and
/// the scheduler recomputes the same pairs at every tick. Under the
/// permutation-invariant policies ([`OrderingPolicy::Best`] /
/// [`OrderingPolicy::Worst`]) all member orders share one cache entry and
/// return bit-identical values.
pub fn merged_efficiency(profiles: &[StageProfile], ordering: OrderingPolicy) -> f64 {
    gamma_cache::merged_efficiency_cached(profiles, ordering)
}

/// Edge weight for merging two nodes: the fixed-point interleaving
/// efficiency of the combined member set, or 0 (no edge) when the merge
/// would exceed the size cap or fall below the efficiency threshold.
/// Pure in the two member sets — the sharded planner's class table
/// relies on it.
pub(crate) fn node_pair_weight(
    members_u: &[usize],
    members_v: &[usize],
    profiles: &[StageProfile],
    cap: usize,
    ordering: OrderingPolicy,
    min_efficiency: f64,
) -> i64 {
    let total = members_u.len() + members_v.len();
    if total > cap {
        return 0;
    }
    let mut buf = [StageProfile::default(); NUM_RESOURCES];
    for (slot, &i) in buf.iter_mut().zip(members_u.iter().chain(members_v)) {
        *slot = profiles[i];
    }
    let gamma = merged_efficiency(&buf[..total], ordering);
    thresholded_weight(gamma, min_efficiency)
}

/// Apply the efficiency threshold **after** quantizing both sides onto
/// the `2⁻²⁰` fixed-point grid. Filtering in the float domain lets γ
/// values straddling a grid cell disagree with their own edge weight: a
/// pair can pass the filter yet quantize to weight 0 ("no edge"), or be
/// rejected although its quantized weight equals the quantized threshold.
fn thresholded_weight(gamma: f64, min_efficiency: f64) -> i64 {
    let w = weight_from_f64(gamma);
    if w >= weight_from_f64(min_efficiency) {
        w
    } else {
        0
    }
}

/// Build a round's edge-weight graph from scratch.
fn build_node_graph(
    nodes: &[Vec<usize>],
    profiles: &[StageProfile],
    cfg: &GroupingConfig,
    cap: usize,
) -> DenseGraph {
    DenseGraph::build_symmetric(nodes.len(), |u, v| {
        node_pair_weight(
            &nodes[u],
            &nodes[v],
            profiles,
            cap,
            cfg.ordering,
            cfg.min_efficiency,
        )
    })
}

/// Merge matched pairs into single nodes: merged pairs first, then
/// surviving nodes, finally sorted by smallest member index (the
/// highest-priority job in the group — keeps output deterministic).
fn merge_nodes(nodes: &[Vec<usize>], pairs: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut next: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
    let mut consumed = vec![false; nodes.len()];
    for &(u, v) in pairs {
        let mut merged = nodes[u].clone();
        merged.extend(nodes[v].iter().copied());
        merged.sort_unstable();
        next.push(merged);
        consumed[u] = true;
        consumed[v] = true;
    }
    for (u, node) in nodes.iter().enumerate() {
        if !consumed[u] {
            next.push(node.clone());
        }
    }
    // Smallest members are unique across nodes (the node sets partition
    // the index space), so this sort has no ties to break.
    next.sort_by_key(|g| g[0]);
    next
}

/// Sparsification stats of one grouping call, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneCounters {
    /// Edges dropped by the top-m sparsification pass across all
    /// matcher runs of the call.
    pub dropped_edges: u64,
    /// Dense fallbacks taken because the loss certificate failed.
    pub fallbacks: u64,
}

/// The matcher-level prune config for a grouping config.
pub(crate) fn prune_config(cfg: &GroupingConfig) -> PruneConfig {
    PruneConfig::new(cfg.prune_top_m, cfg.prune_loss_bound)
}

/// Run the configured matcher on a round graph. Blossom goes through the
/// certified sparsification pass when enabled and the graph is large
/// enough for pruning to remove anything (`n > m + 1` — below that every
/// incident edge is in every node's top-m and the pass is an exact no-op,
/// so we skip straight to the dense solver).
fn solve_matching(
    mode: GroupingMode,
    graph: &DenseGraph,
    prune: &PruneConfig,
    counters: &mut PruneCounters,
) -> Matching {
    match mode {
        GroupingMode::Blossom => {
            if prune.is_disabled() || graph.len() <= prune.top_m + 1 {
                maximum_weight_matching(graph)
            } else {
                let out = pruned_maximum_weight_matching(graph, prune);
                counters.dropped_edges += out.certificate.dropped_edges;
                if out.fell_back {
                    counters.fallbacks += 1;
                }
                #[cfg(feature = "audit")]
                if cfg!(debug_assertions) {
                    let report = muri_verify::audit_pruning(
                        graph,
                        &out.matching,
                        prune.top_m,
                        muri_matching::weight_from_f64(prune.keep_threshold),
                        out.fell_back,
                    );
                    debug_assert!(
                        report.is_clean(),
                        "pruned matching violated the sparsification contract:\n{report}"
                    );
                }
                out.matching
            }
        }
        GroupingMode::GreedyMatching => greedy_matching(graph),
        GroupingMode::None | GroupingMode::PriorityPacking => {
            unreachable!("only matching modes reach the matcher")
        }
    }
}

/// Group the jobs whose measured profiles are given, returning groups as
/// index sets into `profiles`. Every input index appears in exactly one
/// group; group sizes never exceed `cfg.max_group_size`.
///
/// The input order is the queue's priority order — `PriorityPacking`
/// relies on it, and tie-breaking favors earlier (higher-priority) jobs.
pub fn multi_round_grouping(profiles: &[StageProfile], cfg: &GroupingConfig) -> Vec<Vec<usize>> {
    let cap = cfg.max_group_size.clamp(1, muri_workload::NUM_RESOURCES);
    match cfg.mode {
        GroupingMode::None => (0..profiles.len()).map(|i| vec![i]).collect(),
        GroupingMode::PriorityPacking => {
            let mut groups = Vec::new();
            let mut current = Vec::new();
            for i in 0..profiles.len() {
                current.push(i);
                if current.len() == cap {
                    groups.push(std::mem::take(&mut current));
                }
            }
            if !current.is_empty() {
                groups.push(current);
            }
            groups
        }
        GroupingMode::Blossom | GroupingMode::GreedyMatching => {
            matched_grouping(profiles, cfg, cap)
        }
    }
}

/// Wall-clock sub-phase timings of one grouping call, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupingTimings {
    /// Microseconds spent building round edge-weight graphs.
    pub graph_build_us: u64,
    /// Microseconds spent in the matcher (Blossom or greedy).
    pub matching_us: u64,
    /// Matching rounds executed across all buckets.
    pub rounds: u32,
    /// Edges dropped by the sparsification pass (0 when pruning is
    /// disabled), including within-shard pruning on the sharded planner
    /// path.
    pub pruned_edges: u64,
    /// Dense fallbacks taken because the loss certificate failed
    /// (within-shard prune fallbacks included).
    pub prune_fallbacks: u64,
    /// Shard subproblems planned by the sharded cold-start planner
    /// (0 when it never engaged).
    pub shards: u64,
    /// Distinct shard templates solved (≤ `shards`; the rest were
    /// answered by the template cache).
    pub shard_templates: u64,
    /// Sharded plans whose composed loss certificate failed (each either
    /// fell back to the dense round or — beyond the dense-fallback size —
    /// was kept and surfaced here).
    pub shard_fallbacks: u64,
}

/// One GPU-count bucket of jobs to group (profiles in priority order).
#[derive(Debug, Clone)]
pub struct BucketInput {
    /// GPUs per job in this bucket.
    pub gpus: u32,
    /// Measured stage profiles, highest priority first.
    pub profiles: Vec<StageProfile>,
}

/// Per-bucket round state carried across the capacity-aware demand loop.
/// Merges clear `pairs`; a bucket no merge touched keeps its last round.
struct BucketRoundState {
    /// The current nodes' matched pairs `(u, v, w)`; `None` until this
    /// round is planned.
    pairs: Option<Vec<(usize, usize, i64)>>,
    /// This bucket plans on the sharded path (decided from its initial
    /// size; flips to `false` permanently if a composed certificate
    /// fails at dense-fallback scale).
    sharded: bool,
}

/// Capacity-aware grouping across buckets: merge jobs **only as far as
/// needed** for the admitted demand to fit `free_gpus`, accepting the
/// highest-efficiency merges first.
///
/// Algorithm 1 dequeues "the first n jobs … so that these n jobs can form
/// k-job groups that fully utilize the cluster": grouping exists to pack a
/// backlog onto scarce GPUs. When the queue fits the free capacity
/// outright, sharing would only slow jobs down (idle GPUs next to 4-way
/// packed ones), so no merges happen; under backlog the rounds proceed
/// exactly as Algorithm 1 until either demand fits or group sizes reach
/// the cap.
///
/// Returns per-bucket groups of indices into that bucket's profile list.
pub fn capacity_aware_grouping(
    buckets: &[BucketInput],
    free_gpus: u32,
    cfg: &GroupingConfig,
) -> Vec<Vec<Vec<usize>>> {
    capacity_aware_grouping_timed(buckets, free_gpus, cfg, None)
}

/// [`capacity_aware_grouping`] with optional sub-phase timing capture.
/// With `timings: None` this is exactly the untimed path — no clock
/// reads — preserving the zero-overhead telemetry contract. Timings are
/// collected on the capacity-aware matching path (the Muri default); the
/// literal-Algorithm-1 and priority-packing ablations report only round
/// counts of zero.
pub fn capacity_aware_grouping_timed(
    buckets: &[BucketInput],
    free_gpus: u32,
    cfg: &GroupingConfig,
    timings: Option<&mut GroupingTimings>,
) -> Vec<Vec<Vec<usize>>> {
    let cap = cfg.max_group_size.clamp(1, muri_workload::NUM_RESOURCES);
    // Current nodes per bucket (each node = merged job indices).
    let mut nodes: Vec<Vec<Vec<usize>>> = buckets
        .iter()
        .map(|b| (0..b.profiles.len()).map(|i| vec![i]).collect())
        .collect();
    let demand = |nodes: &Vec<Vec<Vec<usize>>>| -> u64 {
        nodes
            .iter()
            .zip(buckets)
            .map(|(ns, b)| ns.len() as u64 * u64::from(b.gpus))
            .sum()
    };
    if cfg.mode == GroupingMode::None || cap <= 1 {
        return nodes;
    }
    if !cfg.capacity_aware {
        // Literal Algorithm 1: every bucket groups maximally, regardless
        // of how much capacity is actually free.
        return buckets
            .iter()
            .map(|b| multi_round_grouping(&b.profiles, cfg))
            .collect();
    }
    if cfg.mode == GroupingMode::PriorityPacking {
        // Find the smallest uniform chunk size that fits, up to the cap.
        for size in 1..=cap {
            let fits: u64 = buckets
                .iter()
                .map(|b| (b.profiles.len().div_ceil(size)) as u64 * u64::from(b.gpus))
                .sum();
            if fits <= u64::from(free_gpus) || size == cap {
                return buckets
                    .iter()
                    .map(|b| {
                        let sub = GroupingConfig {
                            max_group_size: size,
                            ..*cfg
                        };
                        multi_round_grouping(&b.profiles, &sub)
                    })
                    .collect();
            }
        }
        unreachable!("loop returns at size == cap");
    }
    // Matching modes: rounds of per-bucket matchings; accept the
    // highest-γ merges first, only while demand exceeds capacity.
    let prune = prune_config(cfg);
    let timed = timings.is_some();
    let mut graph_us = 0u64;
    let mut match_us = 0u64;
    let mut rounds_run = 0u32;
    let mut prune_counters = PruneCounters::default();
    let mut shard_counters = ShardCounters::default();
    let mut states: Vec<BucketRoundState> = buckets
        .iter()
        .map(|b| BucketRoundState {
            pairs: None,
            sharded: shard::use_sharding(cfg, b.profiles.len()),
        })
        .collect();
    let max_rounds = 8;
    for _ in 0..max_rounds {
        if demand(&nodes) <= u64::from(free_gpus) {
            break;
        }
        rounds_run += 1;
        // Collect candidate merges from every bucket's matching.
        let mut candidates: Vec<(i64, usize, usize, usize)> = Vec::new(); // (w, bucket, u, v)
        for (bi, b) in buckets.iter().enumerate() {
            let ns = &nodes[bi];
            if ns.len() < 2 {
                continue;
            }
            let st = &mut states[bi];
            if st.pairs.is_none() && st.sharded {
                // Sharded planning path: no dense graph ever exists for
                // this bucket.
                st.pairs = timed_us(timed, &mut match_us, || {
                    shard::sharded_round(ns, &b.profiles, cfg, cap, &mut shard_counters)
                });
                // `None`: the composed certificate failed at a size the
                // dense matrix can afford, so this bucket goes dense from
                // here on.
                st.sharded = st.pairs.is_some();
            }
            if st.pairs.is_none() {
                let graph = timed_us(timed, &mut graph_us, || {
                    build_node_graph(ns, &b.profiles, cfg, cap)
                });
                let mut pairs = Vec::new();
                if graph.has_edges() {
                    let matching = timed_us(timed, &mut match_us, || {
                        solve_matching(cfg.mode, &graph, &prune, &mut prune_counters)
                    });
                    pairs.extend(
                        matching
                            .pairs()
                            .into_iter()
                            .map(|(u, v)| (u, v, graph.weight(u, v))),
                    );
                }
                st.pairs = Some(pairs);
            }
            for &(u, v, w) in st.pairs.iter().flatten() {
                candidates.push((w, bi, u, v));
            }
        }
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut d = demand(&nodes);
        let mut merged_in: Vec<Vec<(usize, usize)>> = vec![Vec::new(); buckets.len()];
        // Phase 1: accept merges in efficiency order, but never push the
        // demand *below* the free capacity — a coarse merge in a big-GPU
        // bucket would otherwise strand idle GPUs.
        let mut leftover: Vec<(i64, usize, usize, usize)> = Vec::new();
        for (w, bi, u, v) in candidates {
            let g = u64::from(buckets[bi].gpus);
            if d <= u64::from(free_gpus) {
                break;
            }
            if d - g >= u64::from(free_gpus) {
                merged_in[bi].push((u, v));
                d -= g;
            } else {
                leftover.push((w, bi, u, v));
            }
        }
        // Phase 2: still over capacity — overshoot once with the merge
        // that wastes the fewest GPUs (running packed beats queueing).
        if d > u64::from(free_gpus) {
            leftover.sort_by(|a, b| {
                buckets[a.1]
                    .gpus
                    .cmp(&buckets[b.1].gpus)
                    .then(b.0.cmp(&a.0))
            });
            if let Some((_, bi, u, v)) = leftover.into_iter().next() {
                d -= u64::from(buckets[bi].gpus);
                merged_in[bi].push((u, v));
            }
        }
        let mut progressed = false;
        for (bi, merges) in merged_in.iter().enumerate() {
            if merges.is_empty() {
                continue;
            }
            progressed = true;
            nodes[bi] = merge_nodes(&nodes[bi], merges);
            states[bi].pairs = None;
        }
        if !progressed {
            break;
        }
    }
    if let Some(t) = timings {
        t.graph_build_us = graph_us;
        t.matching_us = match_us;
        t.rounds = rounds_run;
        t.pruned_edges = prune_counters.dropped_edges + shard_counters.pruned_edges;
        t.prune_fallbacks = prune_counters.fallbacks + shard_counters.prune_fallbacks;
        t.shards = shard_counters.shards;
        t.shard_templates = shard_counters.templates;
        t.shard_fallbacks = shard_counters.cert_failures;
    }
    nodes
}

fn matched_grouping(
    profiles: &[StageProfile],
    cfg: &GroupingConfig,
    cap: usize,
) -> Vec<Vec<usize>> {
    if profiles.len() < 2 {
        return (0..profiles.len()).map(|i| vec![i]).collect();
    }
    if shard::use_sharding(cfg, profiles.len()) {
        let mut counters = ShardCounters::default();
        if let Some(groups) = sharded_matched_grouping(profiles, cfg, cap, &mut counters) {
            return groups;
        }
        // A composed certificate failed at dense-fallback scale: run the
        // dense rounds below from scratch (deterministic either way).
    }
    let prune = prune_config(cfg);
    // Sparsification stats of the ablation path are not reported —
    // telemetry collects them on the capacity-aware scheduler path.
    let mut prune_counters = PruneCounters::default();
    // Nodes start as singletons; each round merges matched pairs.
    let mut nodes: Vec<Vec<usize>> = (0..profiles.len()).map(|i| vec![i]).collect();
    let rounds = (usize::BITS - (cap.max(1) - 1).leading_zeros()) as usize; // ceil(log2(cap))
    for _ in 0..rounds {
        if nodes.len() < 2 {
            break;
        }
        let graph = build_node_graph(&nodes, profiles, cfg, cap);
        if !graph.has_edges() {
            break;
        }
        let matching = solve_matching(cfg.mode, &graph, &prune, &mut prune_counters);
        nodes = merge_nodes(&nodes, &matching.pairs());
    }
    nodes
}

/// The multi-round grouping loop on the sharded planner: each round
/// plans matched pairs without ever materializing a dense graph, then
/// merges them. Returns `None` when a round's composed loss certificate
/// failed at dense-fallback scale — the caller reruns the dense rounds.
fn sharded_matched_grouping(
    profiles: &[StageProfile],
    cfg: &GroupingConfig,
    cap: usize,
    counters: &mut ShardCounters,
) -> Option<Vec<Vec<usize>>> {
    let mut nodes: Vec<Vec<usize>> = (0..profiles.len()).map(|i| vec![i]).collect();
    let rounds = (usize::BITS - (cap.max(1) - 1).leading_zeros()) as usize; // ceil(log2(cap))
    for _ in 0..rounds {
        if nodes.len() < 2 {
            break;
        }
        let pairs = shard::sharded_round(&nodes, profiles, cfg, cap, counters)?;
        if pairs.is_empty() {
            break;
        }
        let merges: Vec<(usize, usize)> = pairs.iter().map(|&(u, v, _)| (u, v)).collect();
        nodes = merge_nodes(&nodes, &merges);
    }
    Some(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muri_workload::SimDuration;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn cpu_gpu(cpu: u64, gpu: u64) -> StageProfile {
        StageProfile::new(SimDuration::ZERO, secs(cpu), secs(gpu), SimDuration::ZERO)
    }

    fn assert_partition(groups: &[Vec<usize>], n: usize, cap: usize) {
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..n).collect::<Vec<_>>(),
            "not a partition: {groups:?}"
        );
        for g in groups {
            assert!(g.len() <= cap, "group {g:?} exceeds cap {cap}");
        }
    }

    #[test]
    fn figure4_blossom_finds_plan1() {
        // A (cpu-heavy), B (gpu-heavy), C (cpu-heavy), D (gpu-heavy):
        // optimal pairing is the complementary one, (A,B) and (C,D) — or
        // any cpu/gpu pairing — never (A,C)/(B,D).
        let profiles = vec![cpu_gpu(2, 1), cpu_gpu(1, 2), cpu_gpu(2, 1), cpu_gpu(1, 2)];
        let cfg = GroupingConfig {
            max_group_size: 2,
            ..GroupingConfig::default()
        };
        let groups = multi_round_grouping(&profiles, &cfg);
        assert_partition(&groups, 4, 2);
        for g in &groups {
            assert_eq!(g.len(), 2);
            let kinds: Vec<u64> = g
                .iter()
                .map(|&i| {
                    profiles[i]
                        .duration(muri_workload::ResourceKind::Cpu)
                        .as_micros()
                })
                .collect();
            assert_ne!(
                kinds[0], kinds[1],
                "paired two same-bottleneck jobs: {groups:?}"
            );
        }
    }

    #[test]
    fn four_way_grouping_reaches_cap() {
        // Four jobs each bottlenecked on a different resource: two rounds
        // of matching merge all four into one group.
        let profiles: Vec<StageProfile> = (0..4)
            .map(|i| {
                let mut stage = [secs(1); 4];
                stage[i] = secs(4);
                StageProfile::new(stage[0], stage[1], stage[2], stage[3])
            })
            .collect();
        let groups = multi_round_grouping(&profiles, &GroupingConfig::default());
        assert_partition(&groups, 4, 4);
        assert_eq!(groups.len(), 1, "expected one 4-job group, got {groups:?}");
    }

    #[test]
    fn cap_three_never_exceeded() {
        let profiles: Vec<StageProfile> = (0..7)
            .map(|i| {
                let mut stage = [secs(1); 4];
                stage[i % 4] = secs(3 + (i % 3) as u64);
                StageProfile::new(stage[0], stage[1], stage[2], stage[3])
            })
            .collect();
        let cfg = GroupingConfig {
            max_group_size: 3,
            ..GroupingConfig::default()
        };
        let groups = multi_round_grouping(&profiles, &cfg);
        assert_partition(&groups, 7, 3);
    }

    #[test]
    fn priority_packing_chunks_in_order() {
        let profiles = vec![cpu_gpu(1, 1); 5];
        let cfg = GroupingConfig {
            mode: GroupingMode::PriorityPacking,
            max_group_size: 2,
            ..GroupingConfig::default()
        };
        let groups = multi_round_grouping(&profiles, &cfg);
        assert_eq!(groups, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn none_mode_keeps_singletons() {
        let profiles = vec![cpu_gpu(1, 2); 3];
        let groups = multi_round_grouping(&profiles, &GroupingConfig::disabled());
        assert_eq!(groups, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn blossom_total_efficiency_dominates_priority_packing() {
        // Alternating bottlenecks arranged so naive packing pairs clones.
        let profiles = vec![
            cpu_gpu(4, 1),
            cpu_gpu(4, 1),
            cpu_gpu(1, 4),
            cpu_gpu(1, 4),
            cpu_gpu(4, 1),
            cpu_gpu(1, 4),
        ];
        let cap2 = |mode| GroupingConfig {
            mode,
            max_group_size: 2,
            ..GroupingConfig::default()
        };
        let total = |groups: &[Vec<usize>]| -> f64 {
            groups
                .iter()
                .map(|g| {
                    let ps: Vec<StageProfile> = g.iter().map(|&i| profiles[i]).collect();
                    merged_efficiency(&ps, OrderingPolicy::Best)
                })
                .sum()
        };
        let blossom = total(&multi_round_grouping(
            &profiles,
            &cap2(GroupingMode::Blossom),
        ));
        let packing = total(&multi_round_grouping(
            &profiles,
            &cap2(GroupingMode::PriorityPacking),
        ));
        assert!(
            blossom > packing + 0.1,
            "blossom {blossom} should clearly beat packing {packing}"
        );
    }

    #[test]
    fn min_efficiency_threshold_blocks_bad_pairs() {
        // Two identical GPU-only jobs: γ = 0.5. A threshold above that
        // leaves them ungrouped.
        let profiles = vec![cpu_gpu(0, 2), cpu_gpu(0, 2)];
        let cfg = GroupingConfig {
            min_efficiency: 0.9,
            ..GroupingConfig::default()
        };
        let groups = multi_round_grouping(&profiles, &cfg);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(multi_round_grouping(&[], &GroupingConfig::default()).is_empty());
        let one = multi_round_grouping(&[cpu_gpu(1, 1)], &GroupingConfig::default());
        assert_eq!(one, vec![vec![0]]);
    }

    #[test]
    fn capacity_aware_skips_merging_when_everything_fits() {
        let buckets = vec![BucketInput {
            gpus: 1,
            profiles: vec![cpu_gpu(2, 1); 6],
        }];
        let groups = capacity_aware_grouping(&buckets, 8, &GroupingConfig::default());
        assert_eq!(groups[0].len(), 6, "no merges needed: {groups:?}");
        assert!(groups[0].iter().all(|g| g.len() == 1));
    }

    #[test]
    fn capacity_aware_merges_exactly_to_capacity_in_single_gpu_bucket() {
        // 10 single-GPU jobs, 7 free GPUs: exactly 3 merges (7 groups).
        let profiles: Vec<StageProfile> = (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    cpu_gpu(2, 1)
                } else {
                    cpu_gpu(1, 2)
                }
            })
            .collect();
        let buckets = vec![BucketInput { gpus: 1, profiles }];
        let groups = capacity_aware_grouping(&buckets, 7, &GroupingConfig::default());
        assert_eq!(groups[0].len(), 7, "{groups:?}");
        let total: usize = groups[0].iter().map(Vec::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn capacity_aware_never_overshoots_by_more_than_one_merge() {
        // Two buckets: 4 × 8-GPU jobs and 6 × 1-GPU jobs; 20 free GPUs.
        // Demand 38; merging should land at >= 20 - 8 + 1 = 13 GPUs.
        let big = BucketInput {
            gpus: 8,
            profiles: vec![cpu_gpu(2, 1), cpu_gpu(1, 2), cpu_gpu(2, 1), cpu_gpu(1, 2)],
        };
        let small = BucketInput {
            gpus: 1,
            profiles: (0..6)
                .map(|i| {
                    if i % 2 == 0 {
                        cpu_gpu(3, 1)
                    } else {
                        cpu_gpu(1, 3)
                    }
                })
                .collect(),
        };
        let groups = capacity_aware_grouping(&[big, small], 20, &GroupingConfig::default());
        let demand: u64 = groups[0].len() as u64 * 8 + groups[1].len() as u64;
        assert!(demand <= 20, "over capacity: {demand}");
        assert!(demand >= 12, "overshot needlessly: {demand} ({groups:?})");
    }

    #[test]
    fn literal_mode_groups_maximally_regardless_of_capacity() {
        let buckets = vec![BucketInput {
            gpus: 1,
            profiles: (0..8)
                .map(|i| {
                    if i % 2 == 0 {
                        cpu_gpu(2, 1)
                    } else {
                        cpu_gpu(1, 2)
                    }
                })
                .collect(),
        }];
        let cfg = GroupingConfig {
            capacity_aware: false,
            ..GroupingConfig::default()
        };
        // Capacity is ample, yet the literal variant still merges to cap.
        let groups = capacity_aware_grouping(&buckets, 64, &cfg);
        assert!(
            groups[0].iter().any(|g| g.len() > 1),
            "literal mode must group anyway: {groups:?}"
        );
    }

    #[test]
    fn grouping_is_deterministic() {
        let profiles: Vec<StageProfile> = (0..10)
            .map(|i| cpu_gpu(1 + (i % 4) as u64, 4 - (i % 4) as u64))
            .collect();
        let cfg = GroupingConfig::default();
        assert_eq!(
            multi_round_grouping(&profiles, &cfg),
            multi_round_grouping(&profiles, &cfg)
        );
    }

    #[test]
    fn threshold_filter_agrees_with_quantized_weights() {
        use muri_matching::WEIGHT_SCALE;
        let grid = |k: i64, frac: f64| (k as f64 + frac) / WEIGHT_SCALE as f64;
        // γ just below the threshold in the float domain, but both
        // quantize to the same grid point: the edge must survive (the old
        // float-domain filter rejected it).
        let min_eff = grid(786_432, 0.4); // rounds to 786_432
        let gamma = grid(786_432, 0.2); // also rounds to 786_432
        assert!(gamma < min_eff, "test setup: float compare must disagree");
        assert_eq!(thresholded_weight(gamma, min_eff), 786_432);
        // γ above the threshold but rounding *below* the quantized
        // threshold must be rejected — filter and weight agree.
        let min_eff = grid(786_432, 0.6); // rounds to 786_433
        let gamma = grid(786_432, 0.7); // also rounds to 786_433
        assert!(gamma > min_eff);
        assert_eq!(thresholded_weight(gamma, min_eff), 786_433);
        let below = grid(786_432, 0.3); // rounds to 786_432 < 786_433
        assert_eq!(thresholded_weight(below, min_eff), 0);
        // A γ that passes a tiny float threshold but quantizes to 0 is
        // "no edge" on both sides of the filter now.
        assert_eq!(thresholded_weight(2e-7, 1e-7), 0);
    }

    #[test]
    fn pruned_grouping_is_deterministic_and_partitions() {
        // Big enough that top-m=2 actually drops edges in round 1.
        let profiles: Vec<StageProfile> = (0..40)
            .map(|i| cpu_gpu(1 + (i % 6) as u64, 6 - (i % 6) as u64))
            .collect();
        let cfg = GroupingConfig {
            prune_top_m: 2,
            ..GroupingConfig::default()
        };
        let a = multi_round_grouping(&profiles, &cfg);
        let b = multi_round_grouping(&profiles, &cfg);
        assert_eq!(a, b);
        assert_partition(&a, 40, 4);
    }

    #[test]
    fn prune_disabled_matches_small_graph_shortcut() {
        // n ≤ top_m + 1: the pruned path is skipped entirely, so results
        // must be bit-identical to pruning disabled.
        let profiles: Vec<StageProfile> = (0..8)
            .map(|i| cpu_gpu(1 + (i % 4) as u64, 4 - (i % 4) as u64))
            .collect();
        let pruned_cfg = GroupingConfig::default(); // top_m = 8 ≥ n − 1
        let dense_cfg = GroupingConfig {
            prune_top_m: 0,
            ..GroupingConfig::default()
        };
        let pruned = multi_round_grouping(&profiles, &pruned_cfg);
        let dense = multi_round_grouping(&profiles, &dense_cfg);
        assert_eq!(pruned, dense);
    }

    #[test]
    fn prune_counters_reach_timings_on_backlog() {
        // A single-GPU backlog far over capacity forces real matcher runs;
        // with an aggressive prune width the counters must register drops.
        let profiles: Vec<StageProfile> = (0..30)
            .map(|i| cpu_gpu(1 + (i % 5) as u64, 5 - (i % 5) as u64))
            .collect();
        let buckets = vec![BucketInput { gpus: 1, profiles }];
        let cfg = GroupingConfig {
            prune_top_m: 2,
            ..GroupingConfig::default()
        };
        let mut timings = GroupingTimings::default();
        let groups = capacity_aware_grouping_timed(&buckets, 4, &cfg, Some(&mut timings));
        assert!(timings.rounds > 0);
        assert!(
            timings.pruned_edges > 0,
            "top_m=2 over 30 nodes must drop edges: {timings:?}"
        );
        let total: usize = groups[0].iter().map(Vec::len).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn cold_grouping_counts_every_round_one_lookup() {
        // Every round-1 pair is scored on the calling thread, so this
        // thread's γ counters see all 80·79/2 of them.
        let profiles: Vec<StageProfile> = (0..80)
            .map(|i| cpu_gpu(1 + (i % 5) as u64, 5 - (i % 5) as u64))
            .collect();
        crate::gamma_cache::reset();
        multi_round_grouping(&profiles, &GroupingConfig::default());
        let s = crate::gamma_cache::stats();
        assert!(
            s.hits + s.misses >= 80 * 79 / 2,
            "γ lookups escaped the caller's counters: {s:?}"
        );
    }
}
