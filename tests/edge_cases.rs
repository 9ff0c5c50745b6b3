//! Edge cases and failure-path behavior across the whole stack.

use kdom::congest::{run_protocol_alpha, EngineConfig, SimError};
use kdom::core::dist::bfs::BfsNode;
use kdom::core::dist::diamdom::run_diamdom;
use kdom::core::dist::partition1::run_partition1;
use kdom::core::fastdom::{fast_dom_t, WithinCluster};
use kdom::core::verify::check_fastdom_output;
use kdom::graph::generators::{expanderish, hypercube, torus, GenConfig};
use kdom::graph::generators::{path, star};
use kdom::graph::mst_ref::is_mst;
use kdom::graph::{GraphBuilder, NodeId};
use kdom::mst::fastmst::fast_mst;
use kdom::mst::pipeline::run_pipeline;

#[test]
fn pipeline_on_singleton_graph() {
    let g = GraphBuilder::new(1).build();
    let run = run_pipeline(&g, NodeId(0), &[42], true, false, EngineConfig::default());
    assert!(run.mst_weights.is_empty());
    assert_eq!(run.stalls, 0);
}

#[test]
fn pipeline_on_two_nodes() {
    let mut b = GraphBuilder::new(2);
    b.add_edge(NodeId(0), NodeId(1), 7);
    let g = b.build();
    let run = run_pipeline(&g, NodeId(0), &[1, 2], true, false, EngineConfig::default());
    assert_eq!(run.mst_weights, vec![7]);
}

#[test]
fn alpha_round_limit_is_reported() {
    // a protocol that never finishes must hit the pulse budget
    let g = path(&GenConfig::with_seed(4, 0));
    #[derive(Debug)]
    struct Forever;
    #[derive(Clone, Debug)]
    struct Ping;
    kdom::congest::impl_wire_empty!(Ping);
    impl kdom::congest::Message for Ping {}
    impl kdom::congest::Protocol for Forever {
        type Msg = Ping;
        fn round(
            &mut self,
            _: &kdom::congest::NodeCtx<'_>,
            _: &[(kdom::congest::Port, Ping)],
            out: &mut kdom::congest::Outbox<Ping>,
        ) {
            out.broadcast(Ping);
        }
        fn is_done(&self) -> bool {
            false
        }
    }
    let err =
        run_protocol_alpha(&g, vec![Forever, Forever, Forever, Forever], 1, 2, 20).unwrap_err();
    assert!(matches!(err, SimError::RoundLimitExceeded { .. }));
}

#[test]
fn fast_mst_on_new_topologies() {
    for g in [
        hypercube(6, 1),
        torus(5, 5, 2),
        expanderish(&GenConfig::with_seed(50, 3), 2),
    ] {
        let run = fast_mst(&g);
        assert!(is_mst(&g, &run.mst_edges));
        assert_eq!(run.stalls, 0);
    }
}

#[test]
fn diamdom_on_new_topologies() {
    for g in [hypercube(5, 4), torus(4, 5, 5)] {
        let run = run_diamdom(&g, NodeId(0), 2, EngineConfig::default());
        kdom::core::verify::check_k_dominating(&g, &run.dominators, 2).unwrap();
    }
}

#[test]
fn partition1_star_collapses_once() {
    // a star contracts to one cluster in the first iteration and then
    // idles (lone) for the rest of the schedule
    let g = star(&GenConfig::with_seed(30, 7));
    let (nodes, _) = run_partition1(&g, NodeId(0), 7);
    let first = nodes[0].cluster;
    assert!(nodes.iter().all(|n| n.cluster == first));
    assert_eq!(nodes.iter().filter(|n| n.is_center).count(), 1);
}

#[test]
fn partition1_two_nodes() {
    let mut b = GraphBuilder::new(2);
    b.add_edge(NodeId(0), NodeId(1), 3);
    b.ids(vec![5, 9]);
    let g = b.build();
    let (nodes, _) = run_partition1(&g, NodeId(0), 1);
    assert_eq!(nodes[0].cluster, nodes[1].cluster);
}

#[test]
fn fastdom_t_on_exact_threshold_sizes() {
    // n = k+1 and n = k+2: the partition floor is exercised exactly
    for extra in [1usize, 2] {
        let k = 6;
        let g = path(&GenConfig::with_seed(k + extra, 9));
        let res = fast_dom_t(&g, k, WithinCluster::OptimalDp);
        check_fastdom_output(&g, &res.clustering, k).unwrap();
    }
}

#[test]
fn bfs_under_alpha_on_star_is_fast() {
    let g = star(&GenConfig::with_seed(20, 2));
    let nodes: Vec<BfsNode> = (0..20).map(|v| BfsNode::new(v == 0)).collect();
    let (nodes, report) = run_protocol_alpha(&g, nodes, 3, 2, 1000).unwrap();
    assert!(nodes.iter().all(|n| n.depth.is_some()));
    assert!(report.pulses <= 10);
}

#[test]
fn degenerate_weights_near_u64_max() {
    // huge (but distinct) weights flow through every pipeline intact
    let mut b = GraphBuilder::new(4);
    b.add_edge(NodeId(0), NodeId(1), u64::MAX - 1);
    b.add_edge(NodeId(1), NodeId(2), u64::MAX - 2);
    b.add_edge(NodeId(2), NodeId(3), u64::MAX - 3);
    b.add_edge(NodeId(3), NodeId(0), u64::MAX - 4);
    let g = b.build();
    let run = fast_mst(&g);
    assert!(is_mst(&g, &run.mst_edges));
}
