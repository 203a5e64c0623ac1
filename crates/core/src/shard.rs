//! Sharded, locality-sensitive cold-start planning for 10k–100k jobs.
//!
//! Cold-start grouping was `O(n²)` by construction: `DenseGraph`
//! materializes every candidate pair before sparsification can drop any
//! (an 80 GB matrix at 100k jobs). This module makes the edge count
//! `O(n·m)` *by construction* instead:
//!
//! 1. **Profile classes.** Nodes whose ordered member-profile sequences
//!    are identical form one class. Edge weight is a pure function of
//!    the two member-profile sequences, so every `(class a, class b)`
//!    pair shares one weight — the whole pool needs `O(C²)` γ
//!    evaluations instead of `O(n²)` (real traces have a handful of
//!    model profiles, so `C ≪ n`).
//! 2. **Locality-sensitive signatures.** Each class gets a quantized
//!    dominant-resource signature over its merged
//!    `[StageProfile; NUM_RESOURCES]` tuple (bottleneck resource +
//!    3-bit per-resource share buckets, integer arithmetic only), so
//!    near-identical profiles collide onto the same candidate structure.
//!    With `candidate_m > 0` each class keeps edges only to its top-m
//!    partner classes ranked by class-pair weight, ties broken toward
//!    the most signature-complementary partner — only those candidates
//!    ever reach a shard graph.
//! 3. **Proportional sharding.** Nodes are split into shards of
//!    `shard_size` preserving priority order: the `j`-th of a class's
//!    `k` members goes to shard `⌊j·S/k⌋`, so every shard sees the same
//!    class mix and shard-local matchings compose into a near-optimal
//!    global pairing.
//! 4. **Template dedup.** A shard's candidate graph depends only on its
//!    class-id sequence, so shards sharing a template are solved once.
//!    Templates solve on [`muri_matching::SparseGraph`] (CSR, no n×n
//!    allocation) through the certified pruned Blossom path, in
//!    template order.
//! 5. **Repair rounds.** Odd leftovers per shard are re-sharded and
//!    re-matched up to [`MAX_REPAIR_ROUNDS`] times.
//! 6. **Composed certificate.** The final plan weight `W` is checked
//!    against the availability-aware half-max-sum bound
//!    `U = ⌊½·Σ_u max_b w(class(u), b)⌋` on the *unrestricted* dense
//!    optimum (maxima over **all** classes, not just candidates), via
//!    the same fixed-point inequality as edge pruning:
//!    `ε·W ≥ (1 − ε)·(U − W)`. One check bounds the combined
//!    sharding + candidate-pruning + within-shard-pruning loss. When it
//!    fails and the pool is small enough to afford a dense matrix, the
//!    caller falls back to the dense round; at larger scale the sharded
//!    result is kept and the failure is surfaced through
//!    [`ShardCounters`] (and the audit hooks in debug builds).
//!
//! All weights stay in scaled `i64` fixed-point; this file is on the
//! muri-lint D004 float-free decision path.

use std::collections::{BTreeMap, HashMap};

use muri_matching::{
    greedy_matching_sparse, loss_certificate_holds, pruned_maximum_weight_matching_sparse,
    PruneConfig, SparseGraph,
};
use muri_workload::{ResourceKind, StageProfile, NUM_RESOURCES};
use serde::{Deserialize, Serialize};

use crate::grouping::{node_pair_weight, prune_config, GroupingConfig, GroupingMode};

/// Matched pairs `(u, v, w)` of one sharded planning round.
pub(crate) type ShardedPairs = Vec<(usize, usize, i64)>;

/// When the sharded planner engages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ShardBy {
    /// Shard automatically once a pool reaches
    /// [`SHARD_AUTO_MIN_NODES`] nodes (the default).
    #[default]
    Auto,
    /// Never shard: always run the dense / pruned-dense round.
    Off,
    /// Shard every pool with at least two nodes (tests and smokes).
    Force,
}

impl std::str::FromStr for ShardBy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(ShardBy::Auto),
            "off" => Ok(ShardBy::Off),
            "force" => Ok(ShardBy::Force),
            other => Err(format!("unknown shard-by mode '{other}' (auto|off|force)")),
        }
    }
}

/// Default nodes per shard. Blossom is `O(n³)`, so 64-node shards keep
/// each sub-solve around a millisecond while leaving enough of every
/// class in each shard for complementary pairings to exist locally.
pub const DEFAULT_SHARD_SIZE: usize = 64;

/// Default per-class candidate-partner budget (`candidate_m` = 0 on the
/// config selects this). With union semantics every class also keeps
/// edges to classes that selected *it*.
pub const DEFAULT_CANDIDATE_M: usize = 16;

/// `ShardBy::Auto` engages sharding at this pool size. Below it the
/// dense matrix is small (≤ 8 MB) and the pruned dense path is already
/// fast; above it the n×n build dominates cold start.
pub const SHARD_AUTO_MIN_NODES: usize = 1024;

/// When the composed certificate fails and the pool is at most this
/// large, the caller re-runs the dense round (a ≤ 32 MB matrix). Above
/// it the dense fallback is unaffordable by design — the sharded result
/// is kept and the failure is counted.
pub const SHARD_DENSE_FALLBACK_MAX: usize = 2048;

/// Repair passes over unmatched leftovers after the initial shard sweep.
pub const MAX_REPAIR_ROUNDS: usize = 2;

/// Audit hooks replay the full `O(n²)` certificate only below this size.
#[cfg(feature = "audit")]
const SHARD_AUDIT_MAX_NODES: usize = 512;

/// Sharded-planning stats of one grouping call, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardCounters {
    /// Shard subproblems planned (including repair passes).
    pub shards: u64,
    /// Distinct shard templates actually solved (≤ `shards`; the rest
    /// were answered by the template cache).
    pub templates: u64,
    /// Edges dropped by within-shard top-m pruning.
    pub pruned_edges: u64,
    /// Within-shard prune-certificate fallbacks (exact sparse re-runs on
    /// the shard's candidate graph — never a dense matrix).
    pub prune_fallbacks: u64,
    /// Composed shard certificates that could not guarantee the loss
    /// bound.
    pub cert_failures: u64,
}

/// Whether this pool size takes the sharded planning path.
pub(crate) fn use_sharding(cfg: &GroupingConfig, n: usize) -> bool {
    match cfg.shard_by {
        ShardBy::Off => false,
        ShardBy::Force => n >= 2,
        ShardBy::Auto => n >= SHARD_AUTO_MIN_NODES,
    }
}

/// The effective shard size for a config (`0` selects the default).
pub(crate) fn effective_shard_size(cfg: &GroupingConfig) -> usize {
    if cfg.shard_size == 0 {
        DEFAULT_SHARD_SIZE
    } else {
        cfg.shard_size.max(2)
    }
}

/// The effective per-class candidate budget (`0` selects the default).
fn effective_candidate_m(cfg: &GroupingConfig) -> usize {
    if cfg.candidate_m == 0 {
        DEFAULT_CANDIDATE_M
    } else {
        cfg.candidate_m
    }
}

/// Exact-equality profile classes of the current nodes plus the class
/// weight table and candidate structure. Class ids are assigned in
/// first-seen (priority) order, so they are deterministic for a given
/// node list.
struct ClassTable {
    /// Class id of each node.
    class_of: Vec<u32>,
    /// Members per class.
    count: Vec<u32>,
    /// `weights[a * c + b]` = weight of merging a class-`a` node (listed
    /// first) with a class-`b` node. Both orders are stored because the
    /// `Canonical` ordering policy is member-order sensitive.
    weights: Vec<i64>,
    /// Sorted candidate partner classes per class (union semantics).
    allowed: Vec<Vec<u32>>,
    /// Availability-aware per-class maximum over **all** classes (not
    /// just candidates), for the certificate's half-max-sum bound.
    max_w: Vec<i64>,
    /// Number of classes.
    classes: usize,
}

/// Quantized dominant-resource signature fields of a merged profile
/// tuple: `[dominant resource index, share bucket per resource…]`, all
/// integer arithmetic (micros-domain sums, shares in eighths).
fn class_signature(members: &[usize], profiles: &[StageProfile]) -> [u32; NUM_RESOURCES + 1] {
    let mut totals = [0u64; NUM_RESOURCES];
    for &i in members {
        for (slot, r) in totals.iter_mut().zip(ResourceKind::ALL) {
            *slot = slot.saturating_add(profiles[i].duration(r).as_micros());
        }
    }
    let sum: u64 = totals.iter().sum();
    let mut dom = 0usize;
    for r in 1..NUM_RESOURCES {
        if totals[r] > totals[dom] {
            dom = r;
        }
    }
    let mut sig = [0u32; NUM_RESOURCES + 1];
    sig[0] = dom as u32;
    for (slot, &t) in sig[1..].iter_mut().zip(&totals) {
        *slot = if sum == 0 {
            0
        } else {
            ((u128::from(t) * 8) / u128::from(sum)) as u32
        };
    }
    sig
}

/// L1 distance between two signatures, with a fixed penalty when the
/// dominant resource differs. Used only to break weight ties in
/// candidate ranking — larger distance (more complementary resource
/// mix) ranks first among equal-weight partners.
fn signature_distance(a: &[u32; NUM_RESOURCES + 1], b: &[u32; NUM_RESOURCES + 1]) -> u32 {
    let mut d = if a[0] == b[0] { 0 } else { 16 };
    for (x, y) in a[1..].iter().zip(&b[1..]) {
        d += x.abs_diff(*y);
    }
    d
}

/// Classify nodes and build the class-level weight table, candidate
/// lists, and certificate maxima.
fn build_class_table(
    nodes: &[Vec<usize>],
    profiles: &[StageProfile],
    cfg: &GroupingConfig,
    cap: usize,
) -> ClassTable {
    let n = nodes.len();
    // First-seen class ids; the HashMap is lookup-only (never iterated),
    // so ordering stays deterministic.
    let mut key_to_id: HashMap<Vec<StageProfile>, u32> = HashMap::new();
    let mut class_of: Vec<u32> = Vec::with_capacity(n);
    let mut rep: Vec<usize> = Vec::new();
    let mut second: Vec<Option<usize>> = Vec::new();
    let mut count: Vec<u32> = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        let key: Vec<StageProfile> = node.iter().map(|&j| profiles[j]).collect();
        let id = match key_to_id.get(&key) {
            Some(&id) => id,
            None => {
                let id = rep.len() as u32;
                key_to_id.insert(key, id);
                rep.push(i);
                second.push(None);
                count.push(0);
                id
            }
        };
        let idx = id as usize;
        if count[idx] == 1 {
            second[idx] = Some(i);
        }
        count[idx] += 1;
        class_of.push(id);
    }
    let classes = rep.len();
    // Class-pair weights, both member orders. A pair `(u, v)` with
    // `u < v`, `u ∈ a`, `v ∈ b` weighs `weights[a * c + b]` — identical
    // for every such pair because the ordered member-profile sequences
    // are identical within each class.
    let mut weights = vec![0i64; classes * classes];
    for a in 0..classes {
        for b in 0..classes {
            let (ua, vb) = if a == b {
                match second[a] {
                    Some(s) => (rep[a], s),
                    None => continue, // singleton class: intra weight unused
                }
            } else {
                (rep[a], rep[b])
            };
            weights[a * classes + b] = node_pair_weight(
                &nodes[ua],
                &nodes[vb],
                profiles,
                cap,
                cfg.ordering,
                cfg.min_efficiency,
            );
        }
    }
    let sigs: Vec<[u32; NUM_RESOURCES + 1]> = (0..classes)
        .map(|a| class_signature(&nodes[rep[a]], profiles))
        .collect();
    // Certificate maxima (over all classes) and candidate ranking.
    let m = effective_candidate_m(cfg);
    let mut max_w = vec![0i64; classes];
    let mut allowed: Vec<Vec<u32>> = vec![Vec::new(); classes];
    let mut ranked: Vec<(i64, u32, u32)> = Vec::new();
    for a in 0..classes {
        ranked.clear();
        for b in 0..classes {
            if a == b && count[a] < 2 {
                continue;
            }
            let w = weights[a * classes + b].max(weights[b * classes + a]);
            if w <= 0 {
                continue;
            }
            max_w[a] = max_w[a].max(w);
            ranked.push((w, signature_distance(&sigs[a], &sigs[b]), b as u32));
        }
        // Weight desc, then most-complementary signature, then class id.
        ranked.sort_unstable_by(|x, y| y.0.cmp(&x.0).then(y.1.cmp(&x.1)).then(x.2.cmp(&y.2)));
        for &(_, _, b) in ranked.iter().take(m) {
            allowed[a].push(b);
            allowed[b as usize].push(a as u32);
        }
    }
    for list in &mut allowed {
        list.sort_unstable();
        list.dedup();
    }
    ClassTable {
        class_of,
        count,
        weights,
        allowed,
        max_w,
        classes,
    }
}

/// One solved shard template: local matched pairs `(i, j, w)` with
/// `i < j` (positions in the shard's node list) plus its solve stats.
struct TemplateSolve {
    pairs: Vec<(u32, u32, i64)>,
    pruned_edges: u64,
    prune_fallback: bool,
}

/// Solve one template (a class-id sequence) on its CSR candidate graph.
fn solve_template(
    seq: &[u32],
    table: &ClassTable,
    mode: GroupingMode,
    prune: PruneConfig,
) -> TemplateSolve {
    let len = seq.len();
    let c = table.classes;
    let mut edges: Vec<(i64, usize, usize)> = Vec::new();
    for i in 0..len {
        let a = seq[i] as usize;
        for (j, &bj) in seq.iter().enumerate().skip(i + 1) {
            let b = bj as usize;
            if table.allowed[a].binary_search(&bj).is_err() {
                continue;
            }
            // Node order within a shard is ascending, so the class of
            // the smaller node id is listed first.
            let w = table.weights[a * c + b];
            if w > 0 {
                edges.push((w, i, j));
            }
        }
    }
    let graph = SparseGraph::from_edges(len, &edges);
    let (matching, pruned_edges, prune_fallback) = match mode {
        GroupingMode::GreedyMatching => (greedy_matching_sparse(&graph), 0, false),
        _ => {
            let out = pruned_maximum_weight_matching_sparse(&graph, &prune);
            (out.matching, out.certificate.dropped_edges, out.fell_back)
        }
    };
    let mut pairs: Vec<(u32, u32, i64)> = matching
        .pairs()
        .into_iter()
        .map(|(i, j)| (i as u32, j as u32, graph.weight(i, j)))
        .collect();
    pairs.sort_unstable_by_key(|&(i, _, _)| i);
    TemplateSolve {
        pairs,
        pruned_edges,
        prune_fallback,
    }
}

/// Shard `subset` (global node indices, ascending), dedupe templates,
/// solve each once, and return the global matched pairs.
fn plan_subset(
    subset: &[usize],
    table: &ClassTable,
    shard_size: usize,
    mode: GroupingMode,
    prune: PruneConfig,
    counters: &mut ShardCounters,
) -> ShardedPairs {
    let len = subset.len();
    if len < 2 {
        return Vec::new();
    }
    let shard_count = len.div_ceil(shard_size);
    // Proportional assignment: the j-th of a class's k subset members
    // goes to shard ⌊j·S/k⌋, so every shard gets the same class mix.
    let mut sub_count = vec![0usize; table.classes];
    for &i in subset {
        sub_count[table.class_of[i] as usize] += 1;
    }
    let mut seen = vec![0usize; table.classes];
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
    for &i in subset {
        let cl = table.class_of[i] as usize;
        let j = seen[cl];
        seen[cl] += 1;
        shards[j * shard_count / sub_count[cl]].push(i);
    }
    // Template dedup: a shard's candidate graph depends only on its
    // class-id sequence.
    let mut key_to_template: BTreeMap<Vec<u32>, usize> = BTreeMap::new();
    let mut templates: Vec<Vec<u32>> = Vec::new();
    let mut template_of: Vec<usize> = Vec::with_capacity(shard_count);
    for shard in &shards {
        let key: Vec<u32> = shard.iter().map(|&i| table.class_of[i]).collect();
        let t = match key_to_template.get(&key) {
            Some(&t) => t,
            None => {
                let t = templates.len();
                key_to_template.insert(key.clone(), t);
                templates.push(key);
                t
            }
        };
        template_of.push(t);
    }
    let solves: Vec<TemplateSolve> = templates
        .iter()
        .map(|seq| solve_template(seq, table, mode, prune))
        .collect();
    counters.shards += shard_count as u64;
    counters.templates += templates.len() as u64;
    for solve in &solves {
        counters.pruned_edges += solve.pruned_edges;
        if solve.prune_fallback {
            counters.prune_fallbacks += 1;
        }
    }
    let mut pairs: ShardedPairs = Vec::new();
    for (shard, &t) in shards.iter().zip(&template_of) {
        for &(i, j, w) in &solves[t].pairs {
            pairs.push((shard[i as usize], shard[j as usize], w));
        }
    }
    pairs
}

/// Plan one matching round over `nodes` with the sharded planner.
///
/// Returns the matched pairs `(u, v, w)` with `u < v`, sorted by `u` —
/// or `None` when the composed loss certificate failed and the pool is
/// small enough ([`SHARD_DENSE_FALLBACK_MAX`]) for the caller to afford
/// the dense round instead. At larger scale a failed certificate keeps
/// the sharded result and counts in [`ShardCounters::cert_failures`].
pub(crate) fn sharded_round(
    nodes: &[Vec<usize>],
    profiles: &[StageProfile],
    cfg: &GroupingConfig,
    cap: usize,
    counters: &mut ShardCounters,
) -> Option<ShardedPairs> {
    let n = nodes.len();
    if n < 2 {
        return Some(Vec::new());
    }
    let table = build_class_table(nodes, profiles, cfg, cap);
    let shard_size = effective_shard_size(cfg);
    let prune = prune_config(cfg);
    let all: Vec<usize> = (0..n).collect();
    let mut pairs = plan_subset(&all, &table, shard_size, cfg.mode, prune, counters);
    let mut matched = vec![false; n];
    for &(u, v, _) in &pairs {
        matched[u] = true;
        matched[v] = true;
    }
    for _ in 0..MAX_REPAIR_ROUNDS {
        let unmatched: Vec<usize> = (0..n).filter(|&i| !matched[i]).collect();
        if unmatched.len() < 2 {
            break;
        }
        let extra = plan_subset(&unmatched, &table, shard_size, cfg.mode, prune, counters);
        if extra.is_empty() {
            break;
        }
        for &(u, v, _) in &extra {
            matched[u] = true;
            matched[v] = true;
        }
        pairs.extend(extra);
    }
    // Pair minima are distinct (pairs are node-disjoint), so sorting by
    // the first endpoint is a total deterministic order.
    pairs.sort_unstable_by_key(|&(u, _, _)| u);
    let mut total: i64 = 0;
    for &(_, _, w) in &pairs {
        total = total.saturating_add(w);
    }
    let mut half_max: i128 = 0;
    for &cl in &table.class_of {
        half_max += i128::from(table.max_w[cl as usize]);
    }
    let upper = i64::try_from(half_max / 2).unwrap_or(i64::MAX);
    let slack = upper.saturating_sub(total).max(0);
    let holds = loss_certificate_holds(total, slack, cfg.prune_loss_bound);
    if !holds {
        counters.cert_failures += 1;
        if n <= SHARD_DENSE_FALLBACK_MAX {
            return None;
        }
    }
    #[cfg(feature = "audit")]
    if cfg!(debug_assertions) && holds && n <= SHARD_AUDIT_MAX_NODES {
        let node_profiles: Vec<Vec<StageProfile>> = nodes
            .iter()
            .map(|m| m.iter().map(|&j| profiles[j]).collect())
            .collect();
        let report = muri_verify::audit_sharding(
            &node_profiles,
            &pairs,
            cap,
            cfg.ordering,
            cfg.min_efficiency,
            cfg.prune_loss_bound,
        );
        debug_assert!(
            report.is_clean(),
            "sharded plan violated the certificate contract:\n{report}"
        );
    }
    let _ = &table.count;
    Some(pairs)
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

    fn mixed(n: usize) -> Vec<StageProfile> {
        (0..n)
            .map(|i| cpu_gpu(1 + (i % 4) as u64, 4 - (i % 4) as u64))
            .collect()
    }

    fn singletons(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|i| vec![i]).collect()
    }

    fn force_cfg(shard_size: usize) -> GroupingConfig {
        GroupingConfig {
            shard_by: ShardBy::Force,
            shard_size,
            ..GroupingConfig::default()
        }
    }

    #[test]
    fn shard_by_parses() {
        assert_eq!("auto".parse::<ShardBy>().unwrap(), ShardBy::Auto);
        assert_eq!("off".parse::<ShardBy>().unwrap(), ShardBy::Off);
        assert_eq!("force".parse::<ShardBy>().unwrap(), ShardBy::Force);
        assert!("dense".parse::<ShardBy>().is_err());
    }

    #[test]
    fn signatures_collide_for_identical_profiles_and_split_on_bottleneck() {
        let profiles = vec![cpu_gpu(4, 1), cpu_gpu(4, 1), cpu_gpu(1, 4)];
        let a = class_signature(&[0], &profiles);
        let b = class_signature(&[1], &profiles);
        let c = class_signature(&[2], &profiles);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a[0], c[0], "dominant resource must differ");
        assert!(signature_distance(&a, &c) > 0);
        assert_eq!(signature_distance(&a, &b), 0);
    }

    #[test]
    fn pairs_form_a_matching_with_positive_class_weights() {
        let profiles = mixed(40);
        let nodes = singletons(40);
        let cfg = force_cfg(8);
        let mut counters = ShardCounters::default();
        let pairs = sharded_round(&nodes, &profiles, &cfg, 4, &mut counters)
            .expect("certificate must hold on complementary classes");
        assert!(counters.shards >= 5, "{counters:?}");
        assert!(counters.templates >= 1);
        let mut seen = [false; 40];
        for &(u, v, w) in &pairs {
            assert!(u < v && w > 0);
            assert!(!seen[u] && !seen[v], "node matched twice");
            seen[u] = true;
            seen[v] = true;
        }
        assert!(pairs.windows(2).all(|p| p[0].0 < p[1].0), "sorted by u");
    }

    #[test]
    fn template_cache_dedupes_identical_shards() {
        // 8 cycling profile classes over aligned shards: nearly every
        // shard shares one class sequence.
        let profiles = mixed(256);
        let nodes = singletons(256);
        let cfg = force_cfg(32);
        let mut counters = ShardCounters::default();
        sharded_round(&nodes, &profiles, &cfg, 4, &mut counters).unwrap();
        assert!(
            counters.templates < counters.shards,
            "aligned class mix must dedupe templates: {counters:?}"
        );
    }

    #[test]
    fn certificate_failure_falls_back_at_small_n() {
        // 12 cpu-heavy vs 4 gpu-heavy jobs: the half-max-sum bound
        // assumes every cpu job could find a gpu partner, but only 4
        // exist — no plan reaches the bound, so zero tolerance must
        // reject the sharded result.
        let profiles: Vec<StageProfile> = (0..16)
            .map(|i| if i < 12 { cpu_gpu(4, 1) } else { cpu_gpu(1, 4) })
            .collect();
        let nodes = singletons(16);
        let cfg = GroupingConfig {
            prune_loss_bound: 0.0,
            ..force_cfg(4)
        };
        let mut counters = ShardCounters::default();
        let out = sharded_round(&nodes, &profiles, &cfg, 4, &mut counters);
        assert!(
            out.is_none(),
            "zero tolerance must force the dense fallback"
        );
        assert_eq!(counters.cert_failures, 1);
    }

    #[test]
    fn repair_rounds_pick_up_cross_shard_leftovers() {
        // Odd per-shard counts strand one node per shard; repair matches
        // the leftovers across shard boundaries.
        let profiles = mixed(30);
        let nodes = singletons(30);
        let cfg = force_cfg(5);
        let mut counters = ShardCounters::default();
        let pairs = sharded_round(&nodes, &profiles, &cfg, 4, &mut counters).unwrap();
        assert_eq!(pairs.len(), 15, "all 30 nodes must pair up: {pairs:?}");
    }

    #[test]
    fn ten_k_cold_plan_is_certified_with_zero_fallbacks() {
        // The tentpole acceptance point: a 10k-job pool (mixed model
        // classes) plans under the default auto-shard config with a
        // holding certificate and no dense fallback.
        let profiles = mixed(10_000);
        let nodes = singletons(10_000);
        let cfg = GroupingConfig::default();
        assert!(use_sharding(&cfg, 10_000), "auto must engage at 10k");
        let mut counters = ShardCounters::default();
        let pairs = sharded_round(&nodes, &profiles, &cfg, 4, &mut counters)
            .expect("10k cold plan must certify");
        assert_eq!(counters.cert_failures, 0, "zero certificate fallbacks");
        assert_eq!(pairs.len(), 5_000, "every job pairs in the uniform mix");
        assert!(
            counters.templates < counters.shards,
            "template dedup must collapse repeated shards: {} templates / {} shards",
            counters.templates,
            counters.shards
        );
    }

    #[test]
    fn shard_size_variants_stay_certified() {
        let profiles = mixed(64);
        let nodes = singletons(64);
        for shard_size in [4usize, 8, 16, 64] {
            let cfg = force_cfg(shard_size);
            let mut counters = ShardCounters::default();
            let pairs = sharded_round(&nodes, &profiles, &cfg, 4, &mut counters)
                .unwrap_or_else(|| panic!("shard_size={shard_size} must certify"));
            assert_eq!(counters.cert_failures, 0);
            assert!(pairs.windows(2).all(|p| p[0].0 < p[1].0));
        }
    }
}
