//! Property-based tests for the substrates: graph generators, sequential
//! MST references, the DSU, the simulator's BFS building block, and the
//! coloring/MIS machinery. (Seeded-loop style.)

use kdom::core::coloring::{forest_mis, is_mis, is_proper_coloring, six_color_forest};
use kdom::core::dist::bfs::run_bfs;
use kdom::core::dist::executor::Executor;
use kdom::core::logstar::{ceil_log2, log_star};
use kdom::graph::generators::{gnp_connected, random_connected, random_tree, GenConfig};
use kdom::graph::mst_ref::{is_mst, kruskal, prim};
use kdom::graph::properties::{bfs_distances, diameter, is_connected, is_tree, radius_and_center};
use kdom::graph::{Graph, NodeId, RootedTree};
use kdom_rng::StdRng;

fn any_graph(rng: &mut StdRng) -> Graph {
    let n = rng.random_range(3usize..60);
    let seed = rng.next_u64();
    let p = 0.05 + rng.random_unit() * 0.35;
    gnp_connected(&GenConfig::with_seed(n, seed), p)
}

/// Generators uphold the paper's standing assumptions.
#[test]
fn generators_invariants() {
    let mut rng = StdRng::seed_from_u64(0x5B_0001);
    for case in 0..64 {
        let g = any_graph(&mut rng);
        assert!(g.has_distinct_weights(), "case {case}");
        assert!(g.has_distinct_ids(), "case {case}");
        assert!(is_connected(&g), "case {case}");
    }
}

/// Random trees are trees; radius/diameter relate as they must.
#[test]
fn tree_metrics() {
    let mut rng = StdRng::seed_from_u64(0x5B_0002);
    for case in 0..64 {
        let n = rng.random_range(1usize..100);
        let g = random_tree(&GenConfig::with_seed(n, rng.next_u64()));
        assert!(is_tree(&g), "case {case}");
        let d = diameter(&g);
        let (r, _) = radius_and_center(&g);
        assert!(r <= d && d <= 2 * r + 1, "case {case}");
    }
}

/// `random_connected` delivers the exact requested edge count.
#[test]
fn random_connected_edges() {
    let mut rng = StdRng::seed_from_u64(0x5B_0003);
    for case in 0..64 {
        let n = rng.random_range(2usize..40);
        let seed = rng.next_u64();
        let extra = rng.random_range(0usize..60);
        let max_m = n * (n - 1) / 2;
        let m = (n - 1 + extra).min(max_m);
        let g = random_connected(&GenConfig::with_seed(n, seed), m);
        assert_eq!(g.edge_count(), m, "case {case}");
        assert!(is_connected(&g), "case {case}");
    }
}

/// Kruskal and Prim agree on the unique MST.
#[test]
fn kruskal_eq_prim() {
    let mut rng = StdRng::seed_from_u64(0x5B_0004);
    for case in 0..64 {
        let g = any_graph(&mut rng);
        let mut a = kruskal(&g);
        let mut b = prim(&g);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "case {case}");
        assert!(is_mst(&g, &a), "case {case}");
    }
}

/// The distributed BFS matches the sequential distances exactly.
#[test]
fn distributed_bfs_matches() {
    let mut rng = StdRng::seed_from_u64(0x5B_0005);
    for case in 0..64 {
        let g = any_graph(&mut rng);
        let root = NodeId(rng.random_range(0usize..g.node_count()));
        let (nodes, report) = run_bfs(&g, root, &Executor::default()).unwrap();
        let want = bfs_distances(&g, root);
        for v in 0..g.node_count() {
            assert_eq!(nodes[v].depth, Some(want[v]), "case {case} node {v}");
        }
        // one message per direction of each tree/cross edge at most twice
        assert!(
            report.messages <= 2 * 2 * g.edge_count() as u64,
            "case {case}"
        );
    }
}

/// Cole–Vishkin gives a proper < 6 coloring and a valid MIS on any
/// random tree orientation.
#[test]
fn coloring_and_mis() {
    let mut rng = StdRng::seed_from_u64(0x5B_0006);
    for case in 0..64 {
        let n = rng.random_range(2usize..150);
        let g = random_tree(&GenConfig::with_seed(n, rng.next_u64()));
        let t = RootedTree::from_graph(&g, NodeId(0));
        let parent: Vec<Option<usize>> = (0..n).map(|v| t.parent(NodeId(v)).map(|p| p.0)).collect();
        let ids: Vec<u64> = (0..n).map(|v| g.id_of(NodeId(v))).collect();
        let coloring = six_color_forest(&parent, &ids);
        assert!(coloring.colors.iter().all(|&c| c < 6), "case {case}");
        assert!(is_proper_coloring(&parent, &coloring.colors), "case {case}");
        let (mis, iters) = forest_mis(&parent, &ids);
        assert!(is_mis(&parent, &mis), "case {case}");
        assert!(iters <= 7, "case {case}");
    }
}

/// log* and ceil_log2 sanity relations.
#[test]
fn log_functions() {
    let mut rng = StdRng::seed_from_u64(0x5B_0007);
    for _ in 0..256 {
        let n = rng.random_range(1u64..1_000_000);
        assert!(log_star(n) <= 5);
        let c = ceil_log2(n);
        if n > 1 {
            assert!(1u64 << (c - 1) < n);
        }
        assert!(u128::from(n) <= 1u128 << c);
    }
}
