//! Output certification against the sequential oracles and the paper's
//! bounds. Every check returns the first violation as text.

use std::collections::HashMap;

use kdom::congest::jobs::{Algo, RunSpec};
use kdom::congest::Port;
use kdom::core::clustering::Clustering;
use kdom::core::dist::fragments::forest_from_parents;
use kdom::core::verify::{check_fastdom_output, check_mst_fragments, check_spanning_forest};
use kdom::graph::mst_ref::is_mst;
use kdom::graph::properties::bfs_distances;
use kdom::graph::{EdgeId, Graph, NodeId};

/// `Fast-MST` (its MST edge ids, `k`, cluster count and pipeline
/// stalls): the exact MST, no stall (Lemma 5.3) and at most `n/(k+1) + 1`
/// clusters.
pub fn fast_mst(
    g: &Graph,
    edges: &[u64],
    k: usize,
    clusters: usize,
    stalls: u64,
) -> Result<(), String> {
    let edges: Vec<EdgeId> = edges.iter().map(|&e| EdgeId(e as usize)).collect();
    if edges.iter().any(|e| e.0 >= g.edge_count()) || !is_mst(g, &edges) {
        return Err("edge set is not the MST".into());
    }
    if stalls != 0 {
        return Err(format!("{stalls} pipeline stalls (Lemma 5.3 says 0)"));
    }
    let bound = g.node_count() / (k + 1) + 1;
    if clusters > bound {
        return Err(format!("{clusters} clusters > n/(k+1)+1 = {bound}"));
    }
    Ok(())
}

/// Parent pointers from output rows of "parent port + 1, 0 = none".
fn parents_of(g: &Graph, rows: &[u64]) -> Result<Vec<Option<Port>>, String> {
    if rows.len() != g.node_count() {
        return Err(format!("{} rows for {} nodes", rows.len(), g.node_count()));
    }
    g.nodes()
        .map(|v| match rows[v.0] {
            0 => Ok(None),
            p if (p as usize) <= g.degree(v) => Ok(Some(Port(p as usize - 1))),
            p => Err(format!(
                "node {} names port {} of {}",
                v.0,
                p - 1,
                g.degree(v)
            )),
        })
        .collect()
}

/// `Algo::Bfs` rows: a tree rooted at node 0 whose depths equal the
/// oracle's BFS distances.
pub fn bfs(g: &Graph, rows: &[u64]) -> Result<(), String> {
    let parents = parents_of(g, rows)?;
    let want = bfs_distances(g, NodeId(0));
    let n = g.node_count();
    let mut depth: Vec<Option<u32>> = vec![None; n];
    depth[0] = Some(0);
    if parents[0].is_some() {
        return Err("the root has a parent".into());
    }
    let mut chain = Vec::new();
    for v in 0..n {
        let mut u = v;
        while depth[u].is_none() {
            if chain.len() > n {
                return Err(format!("parent pointers from node {v} cycle"));
            }
            chain.push(u);
            let p = parents[u].ok_or_else(|| format!("node {u} has no parent"))?;
            u = g.neighbors(NodeId(u))[p.0].to.0;
        }
        let mut d = depth[u].expect("loop ends on a known depth");
        while let Some(w) = chain.pop() {
            d += 1;
            depth[w] = Some(d);
        }
    }
    for v in 0..n {
        if depth[v] != Some(want[v]) {
            return Err(format!(
                "node {v} has depth {:?}, the oracle says {}",
                depth[v], want[v]
            ));
        }
    }
    Ok(())
}

/// `Algo::FastDomG` rows (each node's center id): a k-dominating set of
/// size at most `max(1, ⌊n/(k+1)⌋)` whose clusters are connected with
/// radius at most `k`.
pub fn fastdom(g: &Graph, rows: &[u64], k: usize) -> Result<(), String> {
    if rows.len() != g.node_count() {
        return Err(format!("{} rows for {} nodes", rows.len(), g.node_count()));
    }
    let mut index_of: HashMap<u64, usize> = HashMap::new();
    let mut centers = Vec::new();
    for v in g.nodes() {
        if rows[v.0] == g.id_of(v) {
            index_of.insert(rows[v.0], centers.len());
            centers.push(v);
        }
    }
    let cluster_of = g
        .nodes()
        .map(|v| {
            index_of
                .get(&rows[v.0])
                .copied()
                .ok_or_else(|| format!("node {} names a non-center {}", v.0, rows[v.0]))
        })
        .collect::<Result<Vec<usize>, String>>()?;
    check_fastdom_output(g, &Clustering::new(cluster_of, centers), k).map_err(|e| e.to_string())
}

/// `Algo::SimpleMst` rows: a forest of MST fragments, each with at least
/// `min(k+1, n)` nodes.
pub fn simple_mst(g: &Graph, rows: &[u64], k: usize) -> Result<(), String> {
    let parents = parents_of(g, rows)?;
    // panics on pointers that do not form a rooted forest; callers run
    // certificates under `workloads::guarded`
    let (_, _, edges) = forest_from_parents(g, &parents);
    check_mst_fragments(g, &edges).map_err(|e| e.to_string())?;
    check_spanning_forest(g, &edges, (k + 1).min(g.node_count())).map_err(|e| e.to_string())
}

/// One service job's rows, by algorithm.
pub fn job(g: &Graph, spec: &RunSpec, rows: &[u64]) -> Result<(), String> {
    let k = kdom::mst::service::resolve_k(spec, g);
    match spec.algo {
        Algo::SimpleMst => simple_mst(g, rows, k),
        Algo::FastDomG => fastdom(g, rows, k),
        Algo::Bfs => bfs(g, rows),
    }
}
