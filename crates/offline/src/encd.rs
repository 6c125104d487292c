//! ENCD (Exact Node Cardinality Decision) and the reductions of Theorem 4.1.
//!
//! ENCD asks, given a bipartite graph `G = (V ∪ W, E)` and integers `a`, `b`,
//! whether `G` contains a bi-clique with **exactly** `a` nodes in `V` and `b`
//! nodes in `W`. The paper reduces ENCD to both OFF-LINE-COUPLED variants:
//!
//! * **µ = 1** — processors are the nodes of `V`, time-slots the nodes of `W`,
//!   processor `i` is `UP` at slot `j` iff `(v_i, w_j) ∈ E`, and the question
//!   becomes "are there `m = a` processors simultaneously `UP` during
//!   `w = b` slots";
//! * **µ = ∞** — same construction plus `|W| + 1` extra all-`UP` slots, with
//!   `w = b + |W| + 1`, which forces any solution to use exactly `a`
//!   processors.
//!
//! This module provides the graph type, an exhaustive bi-clique decision
//! procedure (for validation on small instances), and both reductions.

use crate::problem::OfflineInstance;
use serde::{Deserialize, Serialize};

/// A bipartite graph `G = (V ∪ W, E)` stored as an adjacency matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BipartiteGraph {
    /// `adj[i][j]` is `true` iff `(v_i, w_j) ∈ E`.
    pub adj: Vec<Vec<bool>>,
}

impl BipartiteGraph {
    /// Build a graph from its adjacency matrix.
    ///
    /// # Panics
    /// Panics if the matrix is empty or ragged.
    pub fn new(adj: Vec<Vec<bool>>) -> Self {
        assert!(!adj.is_empty() && !adj[0].is_empty(), "both sides must be non-empty");
        let cols = adj[0].len();
        assert!(adj.iter().all(|r| r.len() == cols), "adjacency matrix must be rectangular");
        BipartiteGraph { adj }
    }

    /// Number of nodes on the `V` side.
    pub fn num_v(&self) -> usize {
        self.adj.len()
    }

    /// Number of nodes on the `W` side.
    pub fn num_w(&self) -> usize {
        self.adj[0].len()
    }
}

/// An ENCD instance: a bipartite graph and the exact cardinalities `a`, `b`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncdInstance {
    /// The bipartite graph.
    pub graph: BipartiteGraph,
    /// Required number of `V` nodes in the bi-clique.
    pub a: usize,
    /// Required number of `W` nodes in the bi-clique.
    pub b: usize,
}

impl EncdInstance {
    /// Build an instance, checking `1 ≤ a ≤ |V|` and `1 ≤ b ≤ |W|`.
    pub fn new(graph: BipartiteGraph, a: usize, b: usize) -> Self {
        assert!(a >= 1 && a <= graph.num_v(), "a must lie in [1, |V|]");
        assert!(b >= 1 && b <= graph.num_w(), "b must lie in [1, |W|]");
        EncdInstance { graph, a, b }
    }

    /// Exhaustive decision: does a bi-clique with exactly `a` × `b` nodes
    /// exist? Exponential in `|V|`; meant for small validation instances.
    pub fn has_biclique(&self) -> bool {
        let mut vs = Vec::with_capacity(self.a);
        self.search_v(0, &mut vs)
    }

    fn search_v(&self, start: usize, vs: &mut Vec<usize>) -> bool {
        if vs.len() == self.a {
            // Count W nodes adjacent to all chosen V nodes.
            let count = (0..self.graph.num_w())
                .filter(|&j| vs.iter().all(|&i| self.graph.adj[i][j]))
                .count();
            return count >= self.b;
        }
        let nv = self.graph.num_v();
        if nv - start < self.a - vs.len() {
            return false;
        }
        for i in start..nv {
            vs.push(i);
            if self.search_v(i + 1, vs) {
                return true;
            }
            vs.pop();
        }
        false
    }

    /// Reduction of Theorem 4.1 (i): the equivalent OFF-LINE-COUPLED(µ=1)
    /// instance with `p = |V|`, `N = |W|`, `m = a`, `w = b`.
    pub fn to_offline_mu1(&self) -> OfflineInstance {
        OfflineInstance::new(self.graph.adj.clone(), self.b as u64, self.a)
    }

    /// Reduction of Theorem 4.1 (ii): the equivalent OFF-LINE-COUPLED(µ=∞)
    /// instance with `N = 2|W| + 1` (the last `|W| + 1` slots are all-`UP`),
    /// `m = a`, `w = b + |W| + 1`... in the paper's single-task-time units,
    /// i.e. the per-task work is `w` and the extra slots force every solution
    /// to enroll exactly `a` processors.
    pub fn to_offline_mu_unbounded(&self) -> OfflineInstance {
        let nw = self.graph.num_w();
        let up = self
            .graph
            .adj
            .iter()
            .map(|row| {
                let mut r = row.clone();
                r.extend(std::iter::repeat_n(true, nw + 1));
                r
            })
            .collect();
        OfflineInstance::new(up, (self.b + nw + 1) as u64, self.a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{earliest_finish_exact, OracleVariant};
    use dg_availability::rng::rng_from_seed;
    use rand::Rng;
    use OracleVariant::{Mu1, MuUnbounded};

    /// Whether one iteration of `instance` can run at all under `variant`.
    fn solvable(instance: &OfflineInstance, variant: OracleVariant) -> bool {
        earliest_finish_exact(instance, 0, variant).is_some()
    }

    fn graph(rows: &[&str]) -> BipartiteGraph {
        BipartiteGraph::new(rows.iter().map(|r| r.chars().map(|c| c == '1').collect()).collect())
    }

    #[test]
    fn biclique_detection() {
        let g = graph(&["110", "111", "011"]);
        let yes = EncdInstance::new(g.clone(), 2, 2);
        assert!(yes.has_biclique());
        let no = EncdInstance::new(g, 3, 2);
        assert!(!no.has_biclique());
    }

    #[test]
    fn reduction_mu1_preserves_answers_on_fixed_instances() {
        // A positive instance.
        let pos = EncdInstance::new(graph(&["1101", "1111", "0111"]), 2, 3);
        assert!(pos.has_biclique());
        assert!(solvable(&pos.to_offline_mu1(), Mu1));
        // A negative instance: no 3x2 biclique.
        let neg = EncdInstance::new(graph(&["1100", "0110", "0011"]), 3, 2);
        assert!(!neg.has_biclique());
        assert!(!solvable(&neg.to_offline_mu1(), Mu1));
    }

    #[test]
    fn reduction_mu_unbounded_preserves_answers_on_fixed_instances() {
        let pos = EncdInstance::new(graph(&["1101", "1111", "0111"]), 2, 3);
        assert!(solvable(&pos.to_offline_mu_unbounded(), MuUnbounded));
        let neg = EncdInstance::new(graph(&["1100", "0110", "0011"]), 3, 2);
        assert!(!solvable(&neg.to_offline_mu_unbounded(), MuUnbounded));
    }

    #[test]
    fn reductions_agree_with_encd_on_random_instances() {
        let mut rng = rng_from_seed(99);
        for _ in 0..150 {
            let nv = rng.gen_range(2..6);
            let nw = rng.gen_range(2..6);
            let density: f64 = rng.gen_range(0.3..0.95);
            let adj: Vec<Vec<bool>> =
                (0..nv).map(|_| (0..nw).map(|_| rng.gen_bool(density)).collect()).collect();
            let a = rng.gen_range(1..=nv);
            let b = rng.gen_range(1..=nw);
            let encd = EncdInstance::new(BipartiteGraph::new(adj), a, b);
            let expected = encd.has_biclique();
            let mu1 = solvable(&encd.to_offline_mu1(), Mu1);
            assert_eq!(mu1, expected, "µ=1 reduction mismatch on {encd:?}");
            let mu_inf = solvable(&encd.to_offline_mu_unbounded(), MuUnbounded);
            assert_eq!(mu_inf, expected, "µ=∞ reduction mismatch on {encd:?}");
        }
    }

    #[test]
    fn reduction_shapes_match_theorem() {
        let encd = EncdInstance::new(graph(&["101", "111"]), 2, 1);
        let mu1 = encd.to_offline_mu1();
        assert_eq!(mu1.num_procs(), 2);
        assert_eq!(mu1.horizon(), 3);
        assert_eq!(mu1.m, 2);
        assert_eq!(mu1.w, 1);
        let mu_inf = encd.to_offline_mu_unbounded();
        assert_eq!(mu_inf.horizon(), 2 * 3 + 1);
        assert_eq!(mu_inf.w, 1 + 3 + 1);
        // The last |W|+1 slots are all-UP.
        for q in 0..2 {
            for t in 3..7 {
                assert!(mu_inf.is_up(q, t));
            }
        }
    }

    #[test]
    #[should_panic]
    fn invalid_cardinalities_rejected() {
        let _ = EncdInstance::new(graph(&["11", "11"]), 3, 1);
    }
}
