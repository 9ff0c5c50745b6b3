//! Sequential reference MST algorithms and MST-related verifiers.
//!
//! With pairwise-distinct edge weights (the paper's assumption, upheld by
//! every generator in this crate) the minimum spanning tree is *unique*, so
//! the distributed algorithms can be validated by exact edge-set comparison
//! against [`kruskal`].

use crate::dsu::Dsu;
use crate::graph::{EdgeId, Graph, NodeId};
use crate::properties::oracle_threads;

/// Smallest edge count worth splitting the sort across workers.
const PAR_EDGES_MIN: usize = 1 << 13;

/// Kruskal's algorithm. Returns the MST edge ids (a minimum spanning
/// *forest* if the graph is disconnected), sorted by weight.
///
/// Worker count for the edge sort comes from [`oracle_threads`]; see
/// [`kruskal_with_threads`] for an explicit count.
pub fn kruskal(g: &Graph) -> Vec<EdgeId> {
    kruskal_with_threads(g, oracle_threads())
}

/// [`kruskal`] with an explicit worker count for the edge sort. The
/// `(weight, id)` sort keys are unique, so the merged order — and thus
/// the output — is byte-identical at every thread count. The union-find
/// pass stays sequential (it is inherently ordered and cheap next to the
/// sort).
pub fn kruskal_with_threads(g: &Graph, threads: usize) -> Vec<EdgeId> {
    let mut keys: Vec<(u64, EdgeId)> = g.edges().iter().map(|e| (e.weight, e.id)).collect();
    if threads <= 1 || keys.len() < PAR_EDGES_MIN {
        keys.sort_unstable();
    } else {
        let chunk = keys.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for part in keys.chunks_mut(chunk) {
                scope.spawn(move || part.sort_unstable());
            }
        });
        keys = merge_sorted_runs(keys, chunk);
    }
    let mut dsu = Dsu::new(g.node_count());
    let mut out = Vec::new();
    for &(_, e) in &keys {
        let er = g.edge(e);
        if dsu.union(er.u, er.v) {
            out.push(e);
        }
    }
    out
}

/// Merges `runs` of length `chunk` (last possibly shorter), each already
/// sorted, into one sorted vector. Keys are unique, so the result is a
/// total order independent of the run split.
fn merge_sorted_runs(keys: Vec<(u64, EdgeId)>, chunk: usize) -> Vec<(u64, EdgeId)> {
    let mut cursors: Vec<(usize, usize)> = (0..keys.len())
        .step_by(chunk)
        .map(|lo| (lo, keys.len().min(lo + chunk)))
        .collect();
    let mut out = Vec::with_capacity(keys.len());
    loop {
        let mut best: Option<usize> = None;
        for (i, &(pos, end)) in cursors.iter().enumerate() {
            if pos < end && best.is_none_or(|b: usize| keys[pos] < keys[cursors[b].0]) {
                best = Some(i);
            }
        }
        let Some(b) = best else { break };
        out.push(keys[cursors[b].0]);
        cursors[b].0 += 1;
    }
    out
}

/// Prim's algorithm from node 0 (dense `O(n^2)` variant — fine at
/// experiment scale). Returns MST edge ids of node 0's component.
pub fn prim(g: &Graph) -> Vec<EdgeId> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let mut in_tree = vec![false; n];
    let mut best: Vec<Option<(u64, EdgeId)>> = vec![None; n];
    in_tree[0] = true;
    for a in g.neighbors(NodeId(0)) {
        best[a.to.0] = Some((a.weight, a.edge));
    }
    let mut out = Vec::new();
    loop {
        let next = (0..n)
            .filter(|&v| !in_tree[v])
            .filter_map(|v| best[v].map(|(w, e)| (w, e, v)))
            .min();
        let Some((_, e, v)) = next else { break };
        in_tree[v] = true;
        out.push(e);
        for a in g.neighbors(NodeId(v)) {
            if !in_tree[a.to.0] {
                let cand = (a.weight, a.edge);
                if best[a.to.0].is_none_or(|cur| cand < cur) {
                    best[a.to.0] = Some(cand);
                }
            }
        }
    }
    out
}

/// Total weight of the unique MST (forest weight if disconnected).
pub fn mst_weight(g: &Graph) -> u128 {
    g.total_weight(kruskal(g))
}

/// Whether `edges` is a spanning tree of a connected `g`: exactly `n-1`
/// edges whose endpoints connect all nodes.
pub fn is_spanning_tree(g: &Graph, edges: &[EdgeId]) -> bool {
    if g.node_count() == 0 {
        return edges.is_empty();
    }
    if edges.len() != g.node_count() - 1 {
        return false;
    }
    let mut dsu = Dsu::new(g.node_count());
    for &e in edges {
        let er = g.edge(e);
        if !dsu.union(er.u, er.v) {
            return false; // cycle
        }
    }
    dsu.set_count() == 1
}

/// Whether `edges` equals the unique MST of `g` (requires distinct
/// weights; falls back to weight comparison otherwise).
pub fn is_mst(g: &Graph, edges: &[EdgeId]) -> bool {
    is_mst_with_threads(g, edges, oracle_threads())
}

/// [`is_mst`] with an explicit worker count for the reference Kruskal.
pub fn is_mst_with_threads(g: &Graph, edges: &[EdgeId], threads: usize) -> bool {
    if !is_spanning_tree(g, edges) {
        return false;
    }
    if g.has_distinct_weights() {
        let mut a: Vec<EdgeId> = edges.to_vec();
        a.sort_unstable();
        let mut b = kruskal_with_threads(g, threads);
        b.sort_unstable();
        a == b
    } else {
        g.total_weight(edges.iter().copied()) == g.total_weight(kruskal_with_threads(g, threads))
    }
}

/// Whether every edge of `edges` belongs to the unique MST (the paper's
/// "each tree of this forest is a fragment of the MST").
pub fn is_subset_of_mst(g: &Graph, edges: &[EdgeId]) -> bool {
    is_subset_of_mst_with_threads(g, edges, oracle_threads())
}

/// [`is_subset_of_mst`] with an explicit worker count for the reference
/// Kruskal.
pub fn is_subset_of_mst_with_threads(g: &Graph, edges: &[EdgeId], threads: usize) -> bool {
    let mst: std::collections::HashSet<EdgeId> =
        kruskal_with_threads(g, threads).into_iter().collect();
    edges.iter().all(|e| mst.contains(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{gnp_connected, random_tree, GenConfig};
    use crate::graph::GraphBuilder;

    fn diamond() -> Graph {
        // 0-1 (1), 1-3 (2), 0-2 (4), 2-3 (8), 0-3 (16)
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1);
        b.add_edge(NodeId(1), NodeId(3), 2);
        b.add_edge(NodeId(0), NodeId(2), 4);
        b.add_edge(NodeId(2), NodeId(3), 8);
        b.add_edge(NodeId(0), NodeId(3), 16);
        b.build()
    }

    #[test]
    fn kruskal_picks_light_edges() {
        let g = diamond();
        let mst = kruskal(&g);
        assert_eq!(g.total_weight(mst.iter().copied()), 1 + 2 + 4);
        assert!(is_mst(&g, &mst));
    }

    #[test]
    fn prim_matches_kruskal() {
        let g = diamond();
        let mut p = prim(&g);
        let mut k = kruskal(&g);
        p.sort_unstable();
        k.sort_unstable();
        assert_eq!(p, k);
    }

    #[test]
    fn prim_matches_kruskal_on_random_graphs() {
        for seed in 0..10 {
            let g = gnp_connected(&GenConfig::with_seed(40, seed), 0.15);
            let mut p = prim(&g);
            let mut k = kruskal(&g);
            p.sort_unstable();
            k.sort_unstable();
            assert_eq!(p, k, "seed {seed}");
        }
    }

    #[test]
    fn tree_is_its_own_mst() {
        let g = random_tree(&GenConfig::with_seed(30, 7));
        let all: Vec<EdgeId> = g.edges().iter().map(|e| e.id).collect();
        assert!(is_mst(&g, &all));
        assert!(is_subset_of_mst(&g, &all));
    }

    #[test]
    fn spanning_tree_detects_cycles_and_shortfalls() {
        let g = diamond();
        let ids: Vec<EdgeId> = g.edges().iter().map(|e| e.id).collect();
        assert!(!is_spanning_tree(&g, &ids[..2])); // too few
        assert!(!is_spanning_tree(&g, &ids)); // too many
                                              // 3 edges forming a cycle + isolated node:
        assert!(!is_spanning_tree(&g, &[ids[0], ids[1], ids[4]]));
    }

    #[test]
    fn non_mst_spanning_tree_rejected() {
        let g = diamond();
        // 0-1, 1-3, 0-3 is a cycle; pick spanning tree with heavy edge 0-3.
        let heavy = g.edge_between(NodeId(0), NodeId(3)).unwrap().id;
        let e01 = g.edge_between(NodeId(0), NodeId(1)).unwrap().id;
        let e02 = g.edge_between(NodeId(0), NodeId(2)).unwrap().id;
        let st = [heavy, e01, e02];
        assert!(is_spanning_tree(&g, &st));
        assert!(!is_mst(&g, &st));
        assert!(!is_subset_of_mst(&g, &st));
    }

    #[test]
    fn parallel_kruskal_matches_sequential() {
        use crate::generators::gnm_connected;
        // m above PAR_EDGES_MIN so the chunked sort + merge genuinely runs
        let g = gnm_connected(&GenConfig::with_seed(2048, 9), 10000);
        let seq = kruskal_with_threads(&g, 1);
        for threads in [2, 4] {
            assert_eq!(
                kruskal_with_threads(&g, threads),
                seq,
                "threads = {threads}"
            );
        }
        assert!(is_mst_with_threads(&g, &seq, 4));
        assert!(is_subset_of_mst_with_threads(&g, &seq[..100], 4));
    }

    #[test]
    fn empty_and_singleton() {
        let g0 = GraphBuilder::new(0).build();
        assert!(kruskal(&g0).is_empty());
        assert!(is_spanning_tree(&g0, &[]));
        let g1 = GraphBuilder::new(1).build();
        assert!(kruskal(&g1).is_empty());
        assert!(prim(&g1).is_empty());
        assert!(is_mst(&g1, &[]));
    }
}
