//! The paper's §1.2 synchrony argument, executed: every protocol in the
//! repo runs *unchanged* on an asynchronous network under synchronizer α
//! and produces exactly the synchronous outputs.

use kdom::congest::run_protocol_alpha;
use kdom::core::dist::bfs::BfsNode;
use kdom::core::dist::election::ElectionNode;
use kdom::core::dist::executor::Executor;
use kdom::core::dist::fragments::{run_simple_mst, FragmentNode};
use kdom::graph::generators::gnp_connected;
use kdom::graph::generators::{Family, GenConfig};
use kdom::graph::properties::bfs_distances;
use kdom::graph::NodeId;

#[test]
fn bfs_under_alpha_matches_synchronous() {
    for seed in 0..4u64 {
        let g = gnp_connected(&GenConfig::with_seed(60, seed), 0.08);
        let nodes: Vec<BfsNode> = (0..60).map(|v| BfsNode::new(v == 0)).collect();
        let (nodes, report) = run_protocol_alpha(&g, nodes, seed, 4, 50_000).unwrap();
        let want = bfs_distances(&g, NodeId(0));
        for v in 0..60 {
            assert_eq!(nodes[v].depth, Some(want[v]), "seed {seed} node {v}");
        }
        assert!(report.control_messages > report.payload_messages);
    }
}

#[test]
fn election_under_alpha_matches_synchronous() {
    let g = Family::Grid.generate(49, 5);
    let nodes: Vec<ElectionNode> = (0..g.node_count()).map(|_| ElectionNode::new()).collect();
    let (nodes, _) = run_protocol_alpha(&g, nodes, 3, 5, 50_000).unwrap();
    let max_id = g.nodes().map(|v| g.id_of(v)).max().unwrap();
    for n in &nodes {
        assert_eq!(n.best, max_id);
    }
}

#[test]
fn simple_mst_under_alpha_matches_synchronous() {
    // SimpleMST is entirely round-schedule driven — the hardest case for
    // a synchronizer. The α execution must select the same MST edges.
    let g = gnp_connected(&GenConfig::with_seed(40, 9), 0.15);
    let k = 5;
    let sync = run_simple_mst(&g, k, &Executor::default());
    let nodes: Vec<FragmentNode> = g
        .nodes()
        .map(|v| FragmentNode::new(k, g.id_of(v)))
        .collect();
    let (nodes, _) = run_protocol_alpha(&g, nodes, 17, 3, 500_000).unwrap();
    // reconstruct the selected edges from parent pointers
    let mut got: Vec<_> = g
        .nodes()
        .filter_map(|v| nodes[v.0].parent.map(|p| g.neighbors(v)[p.0].edge))
        .collect();
    got.sort_unstable();
    let mut want = sync.tree_edges.clone();
    want.sort_unstable();
    assert_eq!(got, want, "α execution must pick the same MST fragments");
}

#[test]
fn alpha_time_scales_with_max_delay() {
    let g = Family::Grid.generate(64, 2);
    let mk = || {
        let nodes: Vec<BfsNode> = (0..g.node_count()).map(|v| BfsNode::new(v == 0)).collect();
        nodes
    };
    let (_, fast) = run_protocol_alpha(&g, mk(), 1, 1, 50_000).unwrap();
    let (_, slow) = run_protocol_alpha(&g, mk(), 1, 8, 50_000).unwrap();
    assert!(
        slow.virtual_time > fast.virtual_time,
        "delays slow virtual time"
    );
}
