//! Structural queries: BFS, distances, diameter/radius, connectivity.
//!
//! Distances are *unweighted* (hop counts), matching the paper's definition
//! of `Diam(F)`/`Rad(F)` ("measuring distance in the unweighted sense, i.e.,
//! in number of hops").
//!
//! The BFS oracles have a deterministic data-parallel mode: a
//! ranked-frontier level-synchronous sweep whose sequential commit phase
//! reproduces the FIFO queue's discovery order exactly, so outputs are
//! byte-identical at every thread count. The worker count comes from
//! `KDOM_ORACLE_THREADS` (default 1 — see [`oracle_threads`]), or
//! explicitly via the `_with_threads` variants.

use std::collections::VecDeque;

use crate::graph::{Graph, NodeId};

/// Distance value for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Smallest frontier worth fanning out to workers; levels below this run
/// sequentially (same commit order, no spawn overhead).
const PAR_FRONTIER_MIN: usize = 256;

/// Worker-thread count for the oracle helpers: `KDOM_ORACLE_THREADS`,
/// default 1 (fully sequential). The parallel sweeps are deterministic,
/// so the knob changes wall-clock only, never outputs.
pub fn oracle_threads() -> usize {
    crate::knob::knob_checked("KDOM_ORACLE_THREADS", 1, |&t: &usize| {
        if t >= 1 {
            Ok(())
        } else {
            Err("worker count must be at least 1".to_string())
        }
    })
}

/// Hop distances from `src` to every node (`UNREACHABLE` if disconnected).
///
/// Worker count comes from [`oracle_threads`]; see
/// [`bfs_distances_with_threads`] for an explicit count.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    bfs_distances_with_threads(g, src, oracle_threads())
}

/// [`bfs_distances`] with an explicit worker count. `threads <= 1` runs
/// the sequential FIFO BFS; more workers run the ranked-frontier
/// level-synchronous sweep. Outputs are byte-identical either way.
pub fn bfs_distances_with_threads(g: &Graph, src: NodeId, threads: usize) -> Vec<u32> {
    if threads <= 1 {
        return bfs_distances_seq(g, src);
    }
    let mut dist = vec![UNREACHABLE; g.node_count()];
    dist[src.0] = 0;
    let mut frontier = vec![src];
    let mut level = 0u32;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        if frontier.len() < PAR_FRONTIER_MIN {
            for &u in &frontier {
                for a in g.neighbors(u) {
                    if dist[a.to.0] == UNREACHABLE {
                        dist[a.to.0] = level + 1;
                        next.push(a.to);
                    }
                }
            }
        } else {
            // workers scan contiguous rank ranges of the frontier against
            // a frozen `dist`; the sequential commit below walks their
            // candidates in (worker, rank, adjacency) order — exactly the
            // FIFO discovery order
            let chunk = frontier.len().div_ceil(threads);
            let dist_r = &dist;
            let buckets: Vec<Vec<NodeId>> = std::thread::scope(|scope| {
                let handles: Vec<_> = frontier
                    .chunks(chunk)
                    .map(|part| {
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            for &u in part {
                                for a in g.neighbors(u) {
                                    if dist_r[a.to.0] == UNREACHABLE {
                                        out.push(a.to);
                                    }
                                }
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("oracle worker panicked"))
                    .collect()
            });
            for v in buckets.into_iter().flatten() {
                if dist[v.0] == UNREACHABLE {
                    dist[v.0] = level + 1;
                    next.push(v);
                }
            }
        }
        level += 1;
        frontier = next;
    }
    dist
}

fn bfs_distances_seq(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut q = VecDeque::new();
    dist[src.0] = 0;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        for a in g.neighbors(u) {
            if dist[a.to.0] == UNREACHABLE {
                dist[a.to.0] = dist[u.0] + 1;
                q.push_back(a.to);
            }
        }
    }
    dist
}

/// BFS parents from `src`: `parent[src] = src`, `None` for unreachable nodes.
pub fn bfs_parents(g: &Graph, src: NodeId) -> Vec<Option<NodeId>> {
    let mut parent = vec![None; g.node_count()];
    let mut q = VecDeque::new();
    parent[src.0] = Some(src);
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        for a in g.neighbors(u) {
            if parent[a.to.0].is_none() && a.to != src {
                parent[a.to.0] = Some(u);
                q.push_back(a.to);
            }
        }
    }
    parent
}

/// Maximum finite distance from `v` (its eccentricity within its component).
pub fn eccentricity(g: &Graph, v: NodeId) -> u32 {
    bfs_distances(g, v)
        .into_iter()
        .filter(|&d| d != UNREACHABLE)
        .max()
        .unwrap_or(0)
}

/// Exact diameter via all-pairs BFS (per-component maximum eccentricity).
///
/// Quadratic in `n`; intended for experiment-scale graphs.
pub fn diameter(g: &Graph) -> u32 {
    g.nodes().map(|v| eccentricity(g, v)).max().unwrap_or(0)
}

/// Exact radius and a center vertex attaining it.
///
/// # Panics
///
/// Panics on an empty graph.
pub fn radius_and_center(g: &Graph) -> (u32, NodeId) {
    assert!(g.node_count() > 0, "radius of an empty graph");
    g.nodes()
        .map(|v| (eccentricity(g, v), v))
        .min()
        .expect("non-empty graph")
}

/// Whether every node is reachable from node 0.
pub fn is_connected(g: &Graph) -> bool {
    if g.node_count() == 0 {
        return true;
    }
    bfs_distances(g, NodeId(0))
        .iter()
        .all(|&d| d != UNREACHABLE)
}

/// Whether the graph is a tree (connected, `m = n - 1`).
pub fn is_tree(g: &Graph) -> bool {
    g.node_count() > 0 && g.edge_count() == g.node_count() - 1 && is_connected(g)
}

/// Connected components: `comp[v]` is a small component index, and the
/// number of components is returned alongside.
pub fn components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.node_count();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0;
    for s in g.nodes() {
        if comp[s.0] != usize::MAX {
            continue;
        }
        let mut q = VecDeque::new();
        comp[s.0] = count;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for a in g.neighbors(u) {
                if comp[a.to.0] == usize::MAX {
                    comp[a.to.0] = count;
                    q.push_back(a.to);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

/// Multi-source BFS: hop distance from each node to the nearest source, and
/// which source it is (ties broken by BFS order).
///
/// This is exactly the "dominator assignment" of the paper: given a
/// k-dominating set `D`, `D(v)` is the node of `D` closest to `v`.
///
/// Worker count comes from [`oracle_threads`]; see
/// [`nearest_source_with_threads`] for an explicit count.
pub fn nearest_source(g: &Graph, sources: &[NodeId]) -> (Vec<u32>, Vec<Option<NodeId>>) {
    nearest_source_with_threads(g, sources, oracle_threads())
}

/// [`nearest_source`] with an explicit worker count. `threads <= 1` runs
/// the sequential FIFO BFS; more workers run the ranked-frontier
/// level-synchronous sweep. Distances *and* tie-broken source
/// assignments are byte-identical at every thread count: workers read a
/// `src` table frozen for the level (every frontier node's source is
/// already final), and the commit order equals the FIFO order.
pub fn nearest_source_with_threads(
    g: &Graph,
    sources: &[NodeId],
    threads: usize,
) -> (Vec<u32>, Vec<Option<NodeId>>) {
    if threads <= 1 {
        return nearest_source_seq(g, sources);
    }
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut src = vec![None; g.node_count()];
    let mut frontier = Vec::new();
    for &s in sources {
        if dist[s.0] == 0 && src[s.0].is_some() {
            continue; // duplicate source
        }
        dist[s.0] = 0;
        src[s.0] = Some(s);
        frontier.push(s);
    }
    let mut level = 0u32;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        if frontier.len() < PAR_FRONTIER_MIN {
            for &u in &frontier {
                for a in g.neighbors(u) {
                    if dist[a.to.0] == UNREACHABLE {
                        dist[a.to.0] = level + 1;
                        src[a.to.0] = src[u.0];
                        next.push(a.to);
                    }
                }
            }
        } else {
            let chunk = frontier.len().div_ceil(threads);
            let dist_r = &dist;
            let src_r = &src;
            let buckets: Vec<Vec<(NodeId, Option<NodeId>)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = frontier
                    .chunks(chunk)
                    .map(|part| {
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            for &u in part {
                                for a in g.neighbors(u) {
                                    if dist_r[a.to.0] == UNREACHABLE {
                                        out.push((a.to, src_r[u.0]));
                                    }
                                }
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("oracle worker panicked"))
                    .collect()
            });
            for (v, s) in buckets.into_iter().flatten() {
                if dist[v.0] == UNREACHABLE {
                    dist[v.0] = level + 1;
                    src[v.0] = s;
                    next.push(v);
                }
            }
        }
        level += 1;
        frontier = next;
    }
    (dist, src)
}

fn nearest_source_seq(g: &Graph, sources: &[NodeId]) -> (Vec<u32>, Vec<Option<NodeId>>) {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut src = vec![None; g.node_count()];
    let mut q = VecDeque::new();
    for &s in sources {
        if dist[s.0] == 0 && src[s.0].is_some() {
            continue; // duplicate source
        }
        dist[s.0] = 0;
        src[s.0] = Some(s);
        q.push_back(s);
    }
    while let Some(u) = q.pop_front() {
        for a in g.neighbors(u) {
            if dist[a.to.0] == UNREACHABLE {
                dist[a.to.0] = dist[u.0] + 1;
                src[a.to.0] = src[u.0];
                q.push_back(a.to);
            }
        }
    }
    (dist, src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(NodeId(i), NodeId(i + 1), (i + 1) as u64);
        }
        b.build()
    }

    #[test]
    fn path_distances() {
        let g = path(5);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        assert_eq!(eccentricity(&g, NodeId(2)), 2);
        assert_eq!(diameter(&g), 4);
        let (r, c) = radius_and_center(&g);
        assert_eq!(r, 2);
        assert_eq!(c, NodeId(2));
    }

    #[test]
    fn parents_form_shortest_paths() {
        let g = path(4);
        let p = bfs_parents(&g, NodeId(3));
        assert_eq!(p[3], Some(NodeId(3)));
        assert_eq!(p[0], Some(NodeId(1)));
        assert_eq!(p[2], Some(NodeId(3)));
    }

    #[test]
    fn connectivity_and_tree() {
        let g = path(6);
        assert!(is_connected(&g));
        assert!(is_tree(&g));
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1);
        let g2 = b.build();
        assert!(!is_connected(&g2));
        assert!(!is_tree(&g2));
        let (comp, k) = components(&g2);
        assert_eq!(k, 3);
        assert_eq!(comp[0], comp[1]);
        assert_ne!(comp[0], comp[2]);
    }

    #[test]
    fn cycle_is_not_tree() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1);
        b.add_edge(NodeId(1), NodeId(2), 2);
        b.add_edge(NodeId(2), NodeId(0), 3);
        assert!(!is_tree(&b.build()));
    }

    #[test]
    fn nearest_source_assigns_closest() {
        let g = path(7);
        let (dist, src) = nearest_source(&g, &[NodeId(0), NodeId(6)]);
        assert_eq!(dist, vec![0, 1, 2, 3, 2, 1, 0]);
        assert_eq!(src[1], Some(NodeId(0)));
        assert_eq!(src[5], Some(NodeId(6)));
        assert!(src[3].is_some());
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = GraphBuilder::new(0).build();
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), 0);
    }

    #[test]
    fn parallel_bfs_matches_sequential_on_gnm() {
        use crate::generators::{gnm_connected, GenConfig};
        // dense enough that the frontier crosses PAR_FRONTIER_MIN, so the
        // worker fan-out genuinely runs
        let g = gnm_connected(&GenConfig::with_seed(4096, 11), 16384);
        for threads in [1, 4] {
            assert_eq!(
                bfs_distances_with_threads(&g, NodeId(0), threads),
                bfs_distances_seq(&g, NodeId(0)),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn parallel_nearest_source_matches_sequential_on_grid() {
        use crate::generators::grid;
        // 64x64 grid with every 8th node a source: the initial frontier
        // (512 sources) already exceeds PAR_FRONTIER_MIN
        let g = grid(64, 64, 3);
        let sources: Vec<NodeId> = (0..g.node_count()).step_by(8).map(NodeId).collect();
        let seq = nearest_source_seq(&g, &sources);
        for threads in [1, 4] {
            assert_eq!(
                nearest_source_with_threads(&g, &sources, threads),
                seq,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn parallel_nearest_source_matches_sequential_on_gnm() {
        use crate::generators::{gnm_connected, GenConfig};
        let g = gnm_connected(&GenConfig::with_seed(4096, 5), 12288);
        let sources = [NodeId(0), NodeId(17), NodeId(4095), NodeId(17)]; // dup on purpose
        let seq = nearest_source_seq(&g, &sources);
        for threads in [1, 4] {
            assert_eq!(
                nearest_source_with_threads(&g, &sources, threads),
                seq,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn oracle_threads_defaults_to_one() {
        // can't mutate the environment safely in a threaded test binary;
        // just pin the parse contract on whatever is set
        let t = oracle_threads();
        assert!(t >= 1);
    }

    #[test]
    fn unreachable_marked() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1);
        let g = b.build();
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(bfs_parents(&g, NodeId(0))[2], None);
    }
}
