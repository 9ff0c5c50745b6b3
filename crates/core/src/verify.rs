//! Checkers for every combinatorial claim the paper makes.
//!
//! Each lemma/theorem property gets an explicit verifier returning a
//! descriptive [`VerifyError`]; the tests, property tests, and the
//! experiment harness all funnel algorithm outputs through these.

use std::fmt;

use kdom_graph::properties::{nearest_source_with_threads, oracle_threads};
use kdom_graph::{Dsu, EdgeId, Graph, NodeId};

use crate::clustering::Clustering;

/// A violated property, with enough context to debug it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// Some node is farther than `k` from every dominator.
    NotDominated {
        /// The offending node.
        node: NodeId,
        /// Its distance to the nearest dominator.
        distance: u32,
        /// The required radius.
        k: usize,
    },
    /// The dominating set is larger than `max(1, ⌊n/(k+1)⌋)`.
    DominatingSetTooLarge {
        /// Actual size.
        size: usize,
        /// The bound from Lemma 2.1.
        bound: usize,
    },
    /// A cluster is disconnected inside its induced subgraph.
    ClusterDisconnected {
        /// The offending cluster index.
        cluster: usize,
    },
    /// A cluster's induced radius exceeds the allowed bound.
    ClusterRadiusExceeded {
        /// The offending cluster index.
        cluster: usize,
        /// Its induced radius.
        radius: u32,
        /// The allowed bound.
        bound: u32,
    },
    /// A cluster has fewer members than required.
    ClusterTooSmall {
        /// The offending cluster index.
        cluster: usize,
        /// Its size.
        size: usize,
        /// The required minimum.
        min: usize,
    },
    /// An edge set that should be a forest contains a cycle.
    NotAForest,
    /// A spanning forest does not cover every node (some tree too small or
    /// node missing).
    ForestTreeTooSmall {
        /// Size of the offending tree.
        size: usize,
        /// Required minimum (the `σ` of a `(σ, ρ)` spanning forest).
        min: usize,
    },
    /// Edges claimed to be MST fragments are not all in the unique MST.
    NotMstSubset,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NotDominated { node, distance, k } => write!(
                f,
                "node {node:?} is at distance {distance} from the nearest dominator (k = {k})"
            ),
            VerifyError::DominatingSetTooLarge { size, bound } => {
                write!(f, "dominating set has {size} nodes, bound is {bound}")
            }
            VerifyError::ClusterDisconnected { cluster } => {
                write!(
                    f,
                    "cluster {cluster} is disconnected in its induced subgraph"
                )
            }
            VerifyError::ClusterRadiusExceeded {
                cluster,
                radius,
                bound,
            } => {
                write!(f, "cluster {cluster} has radius {radius}, bound is {bound}")
            }
            VerifyError::ClusterTooSmall { cluster, size, min } => {
                write!(f, "cluster {cluster} has {size} members, minimum is {min}")
            }
            VerifyError::NotAForest => write!(f, "edge set contains a cycle"),
            VerifyError::ForestTreeTooSmall { size, min } => {
                write!(f, "spanning-forest tree has {size} nodes, minimum is {min}")
            }
            VerifyError::NotMstSubset => {
                write!(f, "edge set is not a subset of the unique MST")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Checks that `dominators` is a k-dominating set of `g` (every node
/// within hop distance `k` of some dominator).
///
/// The multi-source BFS worker count comes from [`oracle_threads`]; the
/// verdict is byte-identical at every thread count.
///
/// # Errors
///
/// Returns [`VerifyError::NotDominated`] for the first uncovered node.
pub fn check_k_dominating(g: &Graph, dominators: &[NodeId], k: usize) -> Result<(), VerifyError> {
    check_k_dominating_with_threads(g, dominators, k, oracle_threads())
}

/// [`check_k_dominating`] with an explicit worker count for the
/// multi-source BFS.
///
/// # Errors
///
/// Returns [`VerifyError::NotDominated`] for the first uncovered node.
pub fn check_k_dominating_with_threads(
    g: &Graph,
    dominators: &[NodeId],
    k: usize,
    threads: usize,
) -> Result<(), VerifyError> {
    let (dist, _) = nearest_source_with_threads(g, dominators, threads);
    for v in g.nodes() {
        if u64::from(dist[v.0]) > k as u64 {
            return Err(VerifyError::NotDominated {
                node: v,
                distance: dist[v.0],
                k,
            });
        }
    }
    Ok(())
}

/// The size bound of Lemma 2.1: `max(1, ⌊n/(k+1)⌋)`.
pub fn dominating_size_bound(n: usize, k: usize) -> usize {
    (n / (k + 1)).max(1)
}

/// Checks the Lemma 2.1 size bound.
///
/// # Errors
///
/// Returns [`VerifyError::DominatingSetTooLarge`] if violated.
pub fn check_dominating_size(n: usize, k: usize, size: usize) -> Result<(), VerifyError> {
    let bound = dominating_size_bound(n, k);
    if size > bound {
        return Err(VerifyError::DominatingSetTooLarge { size, bound });
    }
    Ok(())
}

/// Checks structural cluster properties: connectivity, a radius bound, and
/// a minimum size (pass `0`/`u32::MAX` to skip a bound).
///
/// # Errors
///
/// Returns the first violated property.
pub fn check_clusters(
    g: &Graph,
    cl: &Clustering,
    min_size: usize,
    max_radius: u32,
) -> Result<(), VerifyError> {
    let sizes = cl.sizes();
    for (c, &size) in sizes.iter().enumerate() {
        let r = cl.induced_radius(g, c);
        if r == u32::MAX {
            return Err(VerifyError::ClusterDisconnected { cluster: c });
        }
        if r > max_radius {
            return Err(VerifyError::ClusterRadiusExceeded {
                cluster: c,
                radius: r,
                bound: max_radius,
            });
        }
        if size < min_size {
            return Err(VerifyError::ClusterTooSmall {
                cluster: c,
                size,
                min: min_size,
            });
        }
    }
    Ok(())
}

/// Checks the full output contract of the `FastDOM` algorithms
/// (Theorem 3.2 / 4.4): the centers form a k-dominating set of size at
/// most `max(1, ⌊n/(k+1)⌋)`, and every cluster is connected with induced
/// radius ≤ k.
///
/// # Errors
///
/// Returns the first violated property.
pub fn check_fastdom_output(g: &Graph, cl: &Clustering, k: usize) -> Result<(), VerifyError> {
    check_dominating_size(g.node_count(), k, cl.cluster_count())?;
    check_clusters(g, cl, 1, k as u32)?;
    check_k_dominating(g, cl.centers(), k)
}

/// Checks the balanced-dominating-set contract of Definition 3.1 /
/// Lemma 3.3 on a graph with `n ≥ 2` nodes: `|D| ≤ ⌊n/2⌋`, `D` dominating
/// (k = 1 via the cluster structure: induced radius ≤ 1), and no singleton
/// cluster.
///
/// # Errors
///
/// Returns the first violated property.
pub fn check_balanced_dom(g: &Graph, cl: &Clustering) -> Result<(), VerifyError> {
    let n = g.node_count();
    if cl.cluster_count() > n / 2 {
        return Err(VerifyError::DominatingSetTooLarge {
            size: cl.cluster_count(),
            bound: n / 2,
        });
    }
    check_clusters(g, cl, 2, 1)
}

/// Checks that `edges` forms a `(σ, ·)` spanning forest of `g`
/// (Definition 3.1 of the paper, connectivity side): the edges are
/// cycle-free and every resulting tree has at least `sigma` nodes.
///
/// # Errors
///
/// Returns [`VerifyError::NotAForest`] or
/// [`VerifyError::ForestTreeTooSmall`].
pub fn check_spanning_forest(g: &Graph, edges: &[EdgeId], sigma: usize) -> Result<(), VerifyError> {
    let mut dsu = Dsu::new(g.node_count());
    for &e in edges {
        let er = g.edge(e);
        if !dsu.union(er.u, er.v) {
            return Err(VerifyError::NotAForest);
        }
    }
    for v in g.nodes() {
        let size = dsu.set_size(v);
        if size < sigma {
            return Err(VerifyError::ForestTreeTooSmall { size, min: sigma });
        }
    }
    Ok(())
}

/// Checks that every edge in `edges` belongs to the unique MST of `g`
/// ("each tree of this forest is a fragment of the MST").
///
/// The reference Kruskal's worker count comes from [`oracle_threads`];
/// the verdict is byte-identical at every thread count.
///
/// # Errors
///
/// Returns [`VerifyError::NotMstSubset`].
pub fn check_mst_fragments(g: &Graph, edges: &[EdgeId]) -> Result<(), VerifyError> {
    check_mst_fragments_with_threads(g, edges, oracle_threads())
}

/// [`check_mst_fragments`] with an explicit worker count for the
/// reference Kruskal.
///
/// # Errors
///
/// Returns [`VerifyError::NotMstSubset`].
pub fn check_mst_fragments_with_threads(
    g: &Graph,
    edges: &[EdgeId],
    threads: usize,
) -> Result<(), VerifyError> {
    if kdom_graph::mst_ref::is_subset_of_mst_with_threads(g, edges, threads) {
        Ok(())
    } else {
        Err(VerifyError::NotMstSubset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdom_graph::generators::{path, star, GenConfig};

    #[test]
    fn domination_ok_and_violated() {
        let g = path(&GenConfig::with_seed(7, 0)); // 0-1-2-3-4-5-6
        assert!(check_k_dominating(&g, &[NodeId(3)], 3).is_ok());
        let err = check_k_dominating(&g, &[NodeId(3)], 2).unwrap_err();
        assert!(matches!(err, VerifyError::NotDominated { distance: 3, .. }));
        assert!(err.to_string().contains("distance 3"));
    }

    #[test]
    fn size_bound() {
        assert_eq!(dominating_size_bound(10, 3), 2);
        assert_eq!(dominating_size_bound(3, 9), 1);
        assert!(check_dominating_size(10, 3, 2).is_ok());
        assert!(check_dominating_size(10, 3, 3).is_err());
    }

    #[test]
    fn cluster_checks() {
        let g = path(&GenConfig::with_seed(5, 0));
        let cl = Clustering::new(vec![0, 0, 1, 1, 1], vec![NodeId(0), NodeId(3)]);
        assert!(check_clusters(&g, &cl, 2, 1).is_ok());
        assert!(matches!(
            check_clusters(&g, &cl, 3, 1),
            Err(VerifyError::ClusterTooSmall {
                cluster: 0,
                size: 2,
                min: 3
            })
        ));
        assert!(matches!(
            check_clusters(&g, &cl, 1, 0),
            Err(VerifyError::ClusterRadiusExceeded { .. })
        ));
    }

    #[test]
    fn balanced_check_on_star() {
        // star with center 0: one cluster covering everything has radius 1
        let g = star(&GenConfig::with_seed(6, 0));
        let cl = Clustering::new(vec![0; 6], vec![NodeId(0)]);
        assert!(check_balanced_dom(&g, &cl).is_ok());
    }

    #[test]
    fn balanced_check_rejects_singletons() {
        let g = path(&GenConfig::with_seed(4, 0));
        let cl = Clustering::new(vec![0, 0, 0, 1], vec![NodeId(1), NodeId(3)]);
        assert!(matches!(
            check_balanced_dom(&g, &cl),
            Err(VerifyError::ClusterTooSmall { .. })
        ));
    }

    #[test]
    fn fastdom_contract() {
        let g = path(&GenConfig::with_seed(6, 0));
        // k = 2: up to 2 clusters of radius ≤ 2
        let cl = Clustering::new(vec![0, 0, 0, 1, 1, 1], vec![NodeId(1), NodeId(4)]);
        assert!(check_fastdom_output(&g, &cl, 2).is_ok());
        // a single whole-path cluster fails for k = 2 (radius 3 > 2)
        let single = Clustering::single(6, NodeId(2));
        assert!(check_fastdom_output(&g, &single, 2).is_err());
    }

    #[test]
    fn spanning_forest_checks() {
        let g = path(&GenConfig::with_seed(6, 0));
        let all: Vec<EdgeId> = g.edges().iter().map(|e| e.id).collect();
        assert!(check_spanning_forest(&g, &all, 6).is_ok());
        assert!(matches!(
            check_spanning_forest(&g, &all[..4], 3),
            Err(VerifyError::ForestTreeTooSmall { size: 1, min: 3 })
        ));
        // edges 0,1,3,4 split the path into {0,1,2} and {3,4,5}
        assert!(check_spanning_forest(&g, &[all[0], all[1], all[3], all[4]], 3).is_ok());
    }

    #[test]
    fn mst_fragment_check() {
        let g = path(&GenConfig::with_seed(4, 0));
        let all: Vec<EdgeId> = g.edges().iter().map(|e| e.id).collect();
        assert!(check_mst_fragments(&g, &all).is_ok());
    }

    #[test]
    fn errors_display() {
        for e in [
            VerifyError::NotAForest,
            VerifyError::NotMstSubset,
            VerifyError::ClusterDisconnected { cluster: 3 },
            VerifyError::ForestTreeTooSmall { size: 1, min: 2 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
