//! Compressed-sparse-row candidate graphs — matching without the n×n
//! matrix.
//!
//! `DenseGraph` materializes every cell of the weight matrix, which is an
//! 80 GB allocation at 100k nodes before a single weight is computed. A
//! [`SparseGraph`] stores only the edges that exist (CSR adjacency:
//! `row_ptr` offsets into parallel `cols`/`weights` arrays, each row's
//! columns ascending), so a candidate graph with `O(n·m)` edges costs
//! `O(n·m)` memory end-to-end through Blossom, greedy, and the
//! a-posteriori loss certificate.
//!
//! Determinism contract: a `SparseGraph` and the `DenseGraph` holding the
//! same edge set produce **bit-identical** matchings through every entry
//! point here. The Blossom solver's sparse constructor initializes its
//! bookkeeping exactly as the dense one does, and CSR rows keep the same
//! ascending neighbour order the dense row scan visits — this is pinned
//! by tests and relied on by the scheduler's byte-identity CI smoke.
//!
//! All weights enter as scaled `i64` fixed-point (see `graph.rs`); this
//! file is on the muri-lint D004 float-free decision path.

use crate::blossom::Solver;
use crate::graph::Matching;
use crate::greedy::greedy_matching_on_edges;
use crate::sparse::{
    loss_certificate_holds, select_diversified, PruneCertificate, PruneConfig, PruneOutcome,
};

/// An undirected weighted graph in compressed-sparse-row form. Only
/// positive-weight edges are stored; both directions of each edge are
/// present so `neighbors(u)` is a single slice lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseGraph {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    weights: Vec<i64>,
}

impl SparseGraph {
    /// An edgeless graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        SparseGraph {
            n,
            row_ptr: vec![0; n + 1],
            cols: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Build from an edge list `(w, u, v)` with `u < v`. Non-positive
    /// weights are skipped (absent edges), duplicate pairs must not
    /// occur. Cost is `O(E log d_max)`; rows come out ascending by
    /// column regardless of input order, so construction order never
    /// leaks into matching results.
    pub fn from_edges(n: usize, edges: &[(i64, usize, usize)]) -> Self {
        let mut deg = vec![0usize; n];
        for &(w, u, v) in edges {
            if w <= 0 {
                continue;
            }
            debug_assert!(u < v && v < n, "edge ({u}, {v}) out of range for n = {n}");
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut row_ptr = vec![0usize; n + 1];
        for u in 0..n {
            row_ptr[u + 1] = row_ptr[u] + deg[u];
        }
        let total = row_ptr[n];
        let mut cols = vec![0u32; total];
        let mut weights = vec![0i64; total];
        let mut cursor: Vec<usize> = row_ptr[..n].to_vec();
        for &(w, u, v) in edges {
            if w <= 0 {
                continue;
            }
            cols[cursor[u]] = v as u32;
            weights[cursor[u]] = w;
            cursor[u] += 1;
            cols[cursor[v]] = u as u32;
            weights[cursor[v]] = w;
            cursor[v] += 1;
        }
        // Sort each row by column id so neighbour walks are ascending.
        let mut scratch: Vec<(u32, i64)> = Vec::new();
        for u in 0..n {
            let (lo, hi) = (row_ptr[u], row_ptr[u + 1]);
            scratch.clear();
            scratch.extend(
                cols[lo..hi]
                    .iter()
                    .copied()
                    .zip(weights[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for (i, &(c, w)) in scratch.iter().enumerate() {
                cols[lo + i] = c;
                weights[lo + i] = w;
            }
        }
        SparseGraph {
            n,
            row_ptr,
            cols,
            weights,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.cols.len() / 2
    }

    /// True if any edge is present.
    pub fn has_edges(&self) -> bool {
        !self.cols.is_empty()
    }

    /// `u`'s neighbours as parallel `(columns, weights)` slices, columns
    /// ascending.
    pub fn neighbors(&self, u: usize) -> (&[u32], &[i64]) {
        let (lo, hi) = (self.row_ptr[u], self.row_ptr[u + 1]);
        (&self.cols[lo..hi], &self.weights[lo..hi])
    }

    /// Weight of edge `(u, v)`, `0` when absent. Order-insensitive.
    pub fn weight(&self, u: usize, v: usize) -> i64 {
        let (cols, weights) = self.neighbors(u);
        match cols.binary_search(&(v as u32)) {
            Ok(i) => weights[i],
            Err(_) => 0,
        }
    }

    /// Heaviest weight incident to `u` (`0` when isolated).
    pub fn max_incident(&self, u: usize) -> i64 {
        self.neighbors(u).1.iter().copied().max().unwrap_or(0)
    }

    /// Undirected edge list `(w, u, v)` with `u < v`, ordered by
    /// `(u asc, v asc)`.
    pub fn edges(&self) -> Vec<(i64, usize, usize)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for u in 0..self.n {
            let (cols, weights) = self.neighbors(u);
            for (&c, &w) in cols.iter().zip(weights) {
                let v = c as usize;
                if v > u {
                    out.push((w, u, v));
                }
            }
        }
        out
    }
}

/// Exact maximum-weight matching on a CSR graph — Blossom without ever
/// building a `DenseGraph`. Bit-identical to running
/// [`crate::maximum_weight_matching`] on the equivalent dense graph.
pub fn maximum_weight_matching_sparse(g: &SparseGraph) -> Matching {
    let n = g.len();
    if n < 2 {
        return Matching::empty(n);
    }
    let mut solver = Solver::from_sparse(g);
    solver.solve();
    solver.into_matching_stored()
}

/// Greedy ½-approximate matching on a CSR graph. Bit-identical to the
/// dense [`crate::greedy_matching`] on the equivalent graph.
pub fn greedy_matching_sparse(g: &SparseGraph) -> Matching {
    let mut edges = g.edges();
    greedy_matching_on_edges(g.len(), &mut edges)
}

/// Half-max-sum upper bound on the optimum of `g`:
/// `⌊½·Σ_u max_w(u)⌋` — every matched edge costs each endpoint at most
/// its heaviest incident weight.
pub fn half_max_sum_sparse(g: &SparseGraph) -> i64 {
    let mut sum: i128 = 0;
    for u in 0..g.len() {
        sum += i128::from(g.max_incident(u));
    }
    i64::try_from(sum / 2).unwrap_or(i64::MAX)
}

/// Maximum-weight matching on a CSR graph via diversified top-m pruning
/// with the same a-posteriori certificate as the dense
/// [`crate::pruned_maximum_weight_matching`]: `W_p` within `loss_bound`
/// of the *unpruned* optimum of `g`, or an exact re-run on the unpruned
/// sparse graph with `fell_back = true`. On a CSR graph holding a
/// complete dense graph's edges, the kept set, certificate, and matching
/// are bit-identical to the dense pruned path (same sort keys, same
/// diversified round-robin selection).
pub fn pruned_maximum_weight_matching_sparse(g: &SparseGraph, cfg: &PruneConfig) -> PruneOutcome {
    let n = g.len();
    if cfg.is_disabled() || n <= cfg.top_m + 1 {
        let matching = maximum_weight_matching_sparse(g);
        let certificate = PruneCertificate {
            kept_edges: g.edge_count() as u64,
            dropped_edges: 0,
            pruned_weight: matching.total_weight,
            dropped_bound: 0,
            holds: true,
        };
        return PruneOutcome {
            matching,
            certificate,
            fell_back: false,
        };
    }
    let m = cfg.top_m;
    let keep_w = cfg.keep_weight();
    // Per node: rank incident edges (weight desc, cyclic distance asc —
    // the dense builder's exact sort key) and keep the diversified top-m
    // plus the keep-threshold prefix. Membership is per-node sorted
    // neighbour lists instead of an n×n bitmap so memory stays O(n·m).
    let mut selected: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut half_max: i128 = 0;
    let mut incident: Vec<(i64, usize)> = Vec::new();
    for (u, selected_u) in selected.iter_mut().enumerate() {
        let (cols, weights) = g.neighbors(u);
        incident.clear();
        incident.extend(
            weights
                .iter()
                .copied()
                .zip(cols.iter().map(|&c| c as usize)),
        );
        let dist = |v: usize| (v + n - u) % n;
        incident.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(dist(a.1).cmp(&dist(b.1))));
        half_max += i128::from(incident.first().map_or(0, |&(w, _)| w));
        let mut keep: Vec<u32> = incident
            .iter()
            .take_while(|&&(w, _)| w >= keep_w)
            .map(|&(_, v)| v as u32)
            .collect();
        keep.extend(
            select_diversified(&incident, m)
                .into_iter()
                .map(|v| v as u32),
        );
        keep.sort_unstable();
        keep.dedup();
        *selected_u = keep;
    }
    let half_max_sum = i64::try_from(half_max / 2).unwrap_or(i64::MAX);
    let mut kept: Vec<(i64, usize, usize)> = Vec::new();
    let mut dropped: Vec<(i64, usize, usize)> = Vec::new();
    for u in 0..n {
        let (cols, weights) = g.neighbors(u);
        for (&c, &w) in cols.iter().zip(weights) {
            let v = c as usize;
            if v <= u {
                continue;
            }
            if selected[u].binary_search(&(v as u32)).is_ok()
                || selected[v].binary_search(&(u as u32)).is_ok()
            {
                kept.push((w, u, v));
            } else {
                dropped.push((w, u, v));
            }
        }
    }
    let pruned = SparseGraph::from_edges(n, &kept);
    let matching = maximum_weight_matching_sparse(&pruned);
    let mut dropped_for_greedy = dropped.clone();
    let dropped_greedy = greedy_matching_on_edges(n, &mut dropped_for_greedy);
    let split_bound = dropped_greedy.total_weight.saturating_mul(2);
    let half_max_bound = half_max_sum.saturating_sub(matching.total_weight).max(0);
    let dropped_bound = split_bound.min(half_max_bound);
    let holds = loss_certificate_holds(matching.total_weight, dropped_bound, cfg.loss_bound);
    let certificate = PruneCertificate {
        kept_edges: kept.len() as u64,
        dropped_edges: dropped.len() as u64,
        pruned_weight: matching.total_weight,
        dropped_bound,
        holds,
    };
    if holds {
        PruneOutcome {
            matching,
            certificate,
            fell_back: false,
        }
    } else {
        PruneOutcome {
            matching: maximum_weight_matching_sparse(g),
            certificate,
            fell_back: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blossom::maximum_weight_matching;
    use crate::graph::DenseGraph;
    use crate::greedy::greedy_matching;
    use crate::sparse::pruned_maximum_weight_matching;

    fn det_weight(seed: u64, bound: i64) -> i64 {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        (x % bound as u64) as i64
    }

    /// Dense and CSR graphs over the same deterministic edge set; density
    /// is controlled so both solver paths (adjacency walk and matrix
    /// scan) are exercised.
    fn paired_graphs(n: usize, seed: u64, keep_mod: u64) -> (DenseGraph, SparseGraph) {
        let mut dense = DenseGraph::new(n);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                let key = seed ^ ((u as u64) << 32) ^ v as u64;
                if !key.is_multiple_of(keep_mod) {
                    continue;
                }
                let w = det_weight(key, 1000) + 1;
                dense.set_weight(u, v, w);
                edges.push((w, u, v));
            }
        }
        (dense, SparseGraph::from_edges(n, &edges))
    }

    #[test]
    fn csr_rows_are_ascending_and_symmetric() {
        let (_, g) = paired_graphs(20, 7, 2);
        for u in 0..g.len() {
            let (cols, _) = g.neighbors(u);
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
            for &c in cols {
                assert_eq!(g.weight(u, c as usize), g.weight(c as usize, u));
            }
        }
        assert_eq!(g.edges().len(), g.edge_count());
    }

    #[test]
    fn from_edges_is_input_order_invariant() {
        let edges = vec![(5, 0, 3), (2, 1, 2), (9, 0, 1), (4, 2, 3)];
        let mut shuffled = edges.clone();
        shuffled.reverse();
        assert_eq!(
            SparseGraph::from_edges(4, &edges),
            SparseGraph::from_edges(4, &shuffled)
        );
    }

    #[test]
    fn blossom_sparse_matches_dense_bit_identically() {
        for &(n, keep_mod) in &[(2usize, 1u64), (9, 1), (16, 1), (17, 3), (24, 2), (31, 5)] {
            for seed in 0..6 {
                let (dense, sparse) = paired_graphs(n, seed, keep_mod);
                let md = maximum_weight_matching(&dense);
                let ms = maximum_weight_matching_sparse(&sparse);
                assert_eq!(md, ms, "n={n} seed={seed} keep_mod={keep_mod}");
                ms.validate(&dense).unwrap();
            }
        }
    }

    #[test]
    fn greedy_sparse_matches_dense_bit_identically() {
        for seed in 0..8 {
            let (dense, sparse) = paired_graphs(21, seed, 2);
            assert_eq!(greedy_matching(&dense), greedy_matching_sparse(&sparse));
        }
    }

    #[test]
    fn pruned_sparse_matches_dense_pruned_path_on_complete_graphs() {
        for seed in 0..6 {
            let (dense, sparse) = paired_graphs(18, seed, 1);
            let cfg = PruneConfig {
                top_m: 4,
                loss_bound: 0.05,
                keep_threshold: 2.0, // dense path's threshold never fires
            };
            let d = pruned_maximum_weight_matching(&dense, &cfg);
            let s = pruned_maximum_weight_matching_sparse(&sparse, &cfg);
            assert_eq!(d.matching, s.matching, "seed={seed}");
            assert_eq!(d.certificate, s.certificate, "seed={seed}");
            assert_eq!(d.fell_back, s.fell_back, "seed={seed}");
        }
    }

    #[test]
    fn pruned_sparse_certificate_is_sound_vs_exact() {
        use crate::oracle::exact_maximum_weight_matching;
        for seed in 0..20 {
            let n = 10 + (seed as usize % 5);
            let (dense, sparse) = paired_graphs(n, seed, 1);
            let cfg = PruneConfig::new(3, 0.05);
            let out = pruned_maximum_weight_matching_sparse(&sparse, &cfg);
            let exact = exact_maximum_weight_matching(&dense);
            if out.fell_back {
                assert_eq!(out.matching.total_weight, exact.total_weight);
            } else {
                assert!(out.certificate.dense_upper_bound() >= exact.total_weight);
                assert!(
                    20 * out.matching.total_weight >= 19 * exact.total_weight,
                    "seed {seed}: sparse pruned below certified bound"
                );
            }
        }
    }

    #[test]
    fn small_graph_shortcut_is_exact() {
        let (dense, sparse) = paired_graphs(6, 11, 1);
        let out = pruned_maximum_weight_matching_sparse(&sparse, &PruneConfig::default());
        assert!(!out.fell_back);
        assert_eq!(out.certificate.dropped_edges, 0);
        assert_eq!(out.matching, maximum_weight_matching(&dense));
    }

    #[test]
    fn empty_and_trivial_graphs() {
        assert_eq!(
            maximum_weight_matching_sparse(&SparseGraph::empty(0)).total_weight,
            0
        );
        assert_eq!(
            maximum_weight_matching_sparse(&SparseGraph::empty(5)).total_weight,
            0
        );
        let g = SparseGraph::from_edges(2, &[(7, 0, 1)]);
        let m = maximum_weight_matching_sparse(&g);
        assert_eq!(m.total_weight, 7);
        assert_eq!(m.pairs(), vec![(0, 1)]);
        assert_eq!(half_max_sum_sparse(&g), 7);
    }
}
