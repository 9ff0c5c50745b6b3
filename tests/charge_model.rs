//! Ties the charged-round model to measured executions: the constants
//! the cluster engine charges must match what the per-node protocols
//! actually take where both exist.

use kdom::congest::{EngineConfig, Port};
use kdom::core::cluster::{ClusterEngine, ClusterState};
use kdom::core::dist::coloring::{BalancedConfig, BalancedNode};
use kdom::graph::generators::{random_tree, GenConfig};
use kdom::graph::{Graph, NodeId, RootedTree};

fn run_distributed_balanced(g: &Graph) -> u64 {
    let t = RootedTree::from_graph(g, NodeId(0));
    let port_to = |v: NodeId, to: NodeId| {
        Port(
            g.neighbors(v)
                .iter()
                .position(|a| a.to == to)
                .expect("tree edge"),
        )
    };
    let nodes: Vec<BalancedNode> = (0..g.node_count())
        .map(|v| {
            let v = NodeId(v);
            BalancedNode::new(BalancedConfig {
                parent: t.parent(v).map(|p| port_to(v, p)),
                children: t.children(v).iter().map(|&c| port_to(v, c)).collect(),
                id_bits: 48,
            })
        })
        .collect();
    let (_, report) =
        kdom_congest::run_protocol(g, nodes, 10_000, EngineConfig::default()).expect("quiesces");
    report.rounds
}

/// On the base tree (radius-0 clusters) one charged virtual round equals
/// one real round, so the engine's virtual-round count for a
/// `BalancedDOM` step must match the measured per-node protocol within a
/// small constant.
#[test]
fn virtual_rounds_match_measured_balanced_dom() {
    for seed in [1u64, 7, 23] {
        let g = random_tree(&GenConfig::with_seed(300, seed));
        let measured = run_distributed_balanced(&g);

        let nodes: Vec<NodeId> = g.nodes().collect();
        let edges: Vec<(NodeId, NodeId)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        let mut eng = ClusterEngine::new(&g, nodes, &edges);
        let parts = eng.in_state(ClusterState::Forest);
        let step = eng.balanced_step(&parts);
        assert_eq!(step.max_radius_before, 0, "base tree: radius-0 clusters");
        let charged = u64::from(step.virtual_rounds);

        let diff = charged.abs_diff(measured);
        assert!(
            diff <= 4,
            "seed {seed}: charged {charged} vs measured {measured} — the model drifted"
        );
    }
}

/// The charged rounds of a full partition dominate the virtual-round
/// count times 1 (radius ≥ 0), i.e. the model never under-charges its
/// own virtual rounds.
#[test]
fn charges_dominate_virtual_rounds() {
    use kdom::core::partition::dom_partition;
    for (n, k) in [(200usize, 3usize), (500, 9)] {
        let g = random_tree(&GenConfig::with_seed(n, 4));
        let nodes: Vec<NodeId> = g.nodes().collect();
        let edges: Vec<(NodeId, NodeId)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        let res = dom_partition(&g, nodes, &edges, k);
        assert!(res.charge.rounds >= res.charge.virtual_rounds);
    }
}
