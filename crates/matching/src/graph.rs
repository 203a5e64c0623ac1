//! Dense weighted graphs and matchings.

use std::fmt;

/// Fixed-point scale used to convert interleaving efficiencies
/// (`γ ∈ [0, 1]`) into the integer edge weights the Blossom implementation
/// requires for exact integral duals.
pub const WEIGHT_SCALE: i64 = 1 << 20;

/// Convert a `[0, 1]` float score into an integer edge weight.
/// Out-of-range and non-finite inputs clamp into range.
pub fn weight_from_f64(score: f64) -> i64 {
    if !score.is_finite() {
        return 0;
    }
    (score.clamp(0.0, 1.0) * WEIGHT_SCALE as f64).round() as i64
}

/// A dense undirected graph with non-negative integer edge weights.
/// Weight 0 means "no edge" (matching that pair gains nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseGraph {
    n: usize,
    w: Vec<i64>,
}

impl DenseGraph {
    /// An edgeless graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        DenseGraph {
            n,
            w: vec![0; n * n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Set the weight of undirected edge `(u, v)`. Panics on self-loops,
    /// out-of-range nodes, or negative weights.
    pub fn set_weight(&mut self, u: usize, v: usize, w: i64) {
        assert!(
            u < self.n && v < self.n,
            "node out of range ({u},{v}) of {}",
            self.n
        );
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(w >= 0, "edge weights must be non-negative, got {w}");
        self.w[u * self.n + v] = w;
        self.w[v * self.n + u] = w;
    }

    /// Weight of edge `(u, v)`; 0 if absent or a self-loop.
    ///
    /// Out-of-range nodes are a caller bug: `set_weight` panics on them,
    /// and silently answering "no edge" here masks index errors. Debug
    /// builds assert; release builds keep the historical 0 answer rather
    /// than panic in the scheduler hot path.
    pub fn weight(&self, u: usize, v: usize) -> i64 {
        debug_assert!(
            u < self.n && v < self.n,
            "node out of range ({u},{v}) of {}",
            self.n
        );
        if u == v || u >= self.n || v >= self.n {
            0
        } else {
            self.w[u * self.n + v]
        }
    }

    /// The full weight row of node `u` (length `n`), for callers that
    /// scan incident edges without per-cell bounds checks.
    pub fn row(&self, u: usize) -> &[i64] {
        assert!(u < self.n, "node {u} out of range of {}", self.n);
        &self.w[u * self.n..(u + 1) * self.n]
    }

    /// True if any edge has positive weight (i.e. matching can gain
    /// anything at all).
    pub fn has_edges(&self) -> bool {
        self.w.iter().any(|&w| w > 0)
    }

    /// Build a symmetric graph by scoring every upper-triangle pair
    /// `(u, v)`, `u < v`. A score of 0 or below means "no edge".
    pub fn build_symmetric(n: usize, score: impl Fn(usize, usize) -> i64) -> Self {
        let mut g = DenseGraph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                let w = score(u, v);
                if w > 0 {
                    g.set_weight(u, v, w);
                }
            }
        }
        g
    }
}

/// A matching: a set of vertex-disjoint edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// `mate[v]` is the node matched to `v`, if any.
    pub mate: Vec<Option<usize>>,
    /// Total weight of the matched edges.
    pub total_weight: i64,
}

impl Matching {
    /// The empty matching on `n` nodes.
    pub fn empty(n: usize) -> Self {
        Matching {
            mate: vec![None; n],
            total_weight: 0,
        }
    }

    /// Matched pairs `(u, v)` with `u < v`.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        self.mate
            .iter()
            .enumerate()
            .filter_map(|(u, &m)| m.filter(|&v| u < v).map(|v| (u, v)))
            .collect()
    }

    /// Nodes left unmatched.
    pub fn unmatched(&self) -> Vec<usize> {
        self.mate
            .iter()
            .enumerate()
            .filter_map(|(u, m)| m.is_none().then_some(u))
            .collect()
    }

    /// Number of matched pairs.
    pub fn num_pairs(&self) -> usize {
        self.mate.iter().filter(|m| m.is_some()).count() / 2
    }

    /// Validate internal consistency against `g`: symmetry, no self-mates,
    /// and that `total_weight` equals the sum of matched edge weights.
    /// Used pervasively in tests.
    pub fn validate(&self, g: &DenseGraph) -> Result<(), String> {
        if self.mate.len() != g.len() {
            return Err(format!(
                "mate len {} != graph len {}",
                self.mate.len(),
                g.len()
            ));
        }
        let mut total = 0;
        for (u, &m) in self.mate.iter().enumerate() {
            if let Some(v) = m {
                if v == u {
                    return Err(format!("node {u} matched to itself"));
                }
                if self.mate[v] != Some(u) {
                    return Err(format!(
                        "asymmetric mate: {u}->{v} but {v}->{:?}",
                        self.mate[v]
                    ));
                }
                if u < v {
                    if g.weight(u, v) == 0 {
                        return Err(format!("matched absent edge ({u},{v})"));
                    }
                    total += g.weight(u, v);
                }
            }
        }
        if total != self.total_weight {
            return Err(format!(
                "weight mismatch: recomputed {total}, stored {}",
                self.total_weight
            ));
        }
        Ok(())
    }
}

impl fmt::Display for Matching {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matching(w={}, pairs={:?})",
            self.total_weight,
            self.pairs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_from_f64_clamps() {
        assert_eq!(weight_from_f64(0.0), 0);
        assert_eq!(weight_from_f64(1.0), WEIGHT_SCALE);
        assert_eq!(weight_from_f64(2.0), WEIGHT_SCALE);
        assert_eq!(weight_from_f64(-1.0), 0);
        assert_eq!(weight_from_f64(f64::NAN), 0);
        assert_eq!(weight_from_f64(0.5), WEIGHT_SCALE / 2);
    }

    #[test]
    fn graph_symmetric() {
        let mut g = DenseGraph::new(3);
        g.set_weight(0, 2, 7);
        assert_eq!(g.weight(0, 2), 7);
        assert_eq!(g.weight(2, 0), 7);
        assert_eq!(g.weight(0, 1), 0);
        assert_eq!(g.weight(1, 1), 0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn graph_rejects_self_loop() {
        DenseGraph::new(2).set_weight(1, 1, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range")]
    fn weight_asserts_out_of_range_in_debug() {
        let g = DenseGraph::new(2);
        let _ = g.weight(0, 5);
    }

    #[test]
    fn row_exposes_weights() {
        let mut g = DenseGraph::new(3);
        g.set_weight(0, 2, 7);
        assert_eq!(g.row(0), &[0, 0, 7]);
        assert_eq!(g.row(2), &[7, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn graph_rejects_negative_weight() {
        DenseGraph::new(2).set_weight(0, 1, -3);
    }

    #[test]
    fn matching_pairs_and_validation() {
        let mut g = DenseGraph::new(4);
        g.set_weight(0, 1, 5);
        g.set_weight(2, 3, 9);
        let m = Matching {
            mate: vec![Some(1), Some(0), Some(3), Some(2)],
            total_weight: 14,
        };
        assert_eq!(m.pairs(), vec![(0, 1), (2, 3)]);
        assert_eq!(m.num_pairs(), 2);
        assert!(m.unmatched().is_empty());
        m.validate(&g).unwrap();
        let bad = Matching {
            total_weight: 13,
            ..m.clone()
        };
        assert!(bad.validate(&g).is_err());
    }
}
