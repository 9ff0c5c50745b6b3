//! Property tests for the synchronizer-α executor: randomized protocols,
//! graphs, and delay seeds must reproduce the synchronous outputs — with
//! and without injected faults. (Seeded-loop style: every case derives
//! deterministically from a fixed seed, so failures are reproducible.)

use kdom::congest::{
    run_protocol, run_protocol_alpha, run_protocol_alpha_reliable, EngineConfig, FaultPlan,
};
use kdom::core::dist::diamdom::{DiamDomNode, TreeConfig};
use kdom::core::dist::election::ElectionNode;
use kdom::core::dist::executor::Executor;
use kdom::graph::generators::{gnp_connected, GenConfig};
use kdom::graph::{Graph, NodeId};
use kdom_rng::StdRng;

fn random_graph(rng: &mut StdRng) -> Graph {
    let n = rng.random_range(4usize..40);
    let seed = rng.next_u64();
    let p = 0.05 + rng.random_unit() * 0.25;
    gnp_connected(&GenConfig::with_seed(n, seed), p)
}

fn diamdom_nodes(g: &Graph, k: usize) -> Vec<DiamDomNode> {
    let (bfs, _) = kdom::core::dist::bfs::run_bfs(g, NodeId(0), &Executor::default()).unwrap();
    bfs.iter()
        .map(|b| {
            DiamDomNode::new(TreeConfig {
                parent: b.parent,
                children: b.children.clone(),
                k,
                preset_depth: b.depth,
            })
        })
        .collect()
}

/// Leader election under α always agrees on the max id, for any delay
/// pattern.
#[test]
fn election_alpha_agrees() {
    let mut rng = StdRng::seed_from_u64(0xA1FA_0001);
    for case in 0..24 {
        let g = random_graph(&mut rng);
        let seed = rng.next_u64();
        let delay = rng.random_range(1u64..6);
        let nodes = (0..g.node_count()).map(|_| ElectionNode::new()).collect();
        let (nodes, _) = run_protocol_alpha(&g, nodes, seed, delay, 500_000).unwrap();
        let max_id = g.nodes().map(|v| g.id_of(v)).max().unwrap();
        assert!(nodes.iter().all(|n| n.best == max_id), "case {case}");
    }
}

/// The schedule-driven DiamDOM census protocol — the hardest case for a
/// synchronizer, since everything hangs off exact round numbers —
/// produces the identical dominating set under α.
#[test]
fn diamdom_alpha_matches_sync() {
    let mut rng = StdRng::seed_from_u64(0xA1FA_0002);
    for case in 0..24 {
        let g = random_graph(&mut rng);
        let seed = rng.next_u64();
        let k = 2;
        let sync = run_protocol(&g, diamdom_nodes(&g, k), 100_000, EngineConfig::default())
            .unwrap()
            .0;
        let alpha = run_protocol_alpha(&g, diamdom_nodes(&g, k), seed, 3, 2_000_000)
            .unwrap()
            .0;
        for v in 0..g.node_count() {
            assert_eq!(
                sync[v].is_dominator, alpha[v].is_dominator,
                "case {case} node {v}"
            );
            assert_eq!(sync[v].chosen, alpha[v].chosen, "case {case} node {v}");
        }
    }
}

/// α never loses or duplicates payload messages: the payload count
/// equals the synchronous message count.
#[test]
fn alpha_payload_count_matches() {
    let mut rng = StdRng::seed_from_u64(0xA1FA_0003);
    for case in 0..24 {
        let g = random_graph(&mut rng);
        let seed = rng.next_u64();
        let k = 2;
        let (_, sync_report) =
            run_protocol(&g, diamdom_nodes(&g, k), 100_000, EngineConfig::default()).unwrap();
        let (_, alpha_report) =
            run_protocol_alpha(&g, diamdom_nodes(&g, k), seed, 4, 2_000_000).unwrap();
        assert_eq!(
            alpha_report.payload_messages, sync_report.messages,
            "case {case}"
        );
    }
}

/// The recovery property: under randomized per-link loss, duplication,
/// and extra delay, the reliable layer restores exactly-once delivery and
/// the α outputs stay **byte-identical** to the fault-free synchronous
/// execution — for a schedule-driven protocol, the strictest test there is.
#[test]
fn faulty_reliable_alpha_matches_sync() {
    let mut rng = StdRng::seed_from_u64(0xA1FA_0004);
    for case in 0..12 {
        let g = random_graph(&mut rng);
        let seed = rng.next_u64();
        let k = 2;
        let plan = FaultPlan::new(rng.next_u64())
            .drop_prob(0.05 + rng.random_unit() * 0.2)
            .dup_prob(rng.random_unit() * 0.1)
            .max_extra_delay(rng.random_range(0u64..4));
        let sync = run_protocol(&g, diamdom_nodes(&g, k), 100_000, EngineConfig::default())
            .unwrap()
            .0;
        let (alpha, report) =
            run_protocol_alpha_reliable(&g, diamdom_nodes(&g, k), seed, 3, &plan, 4_000_000)
                .unwrap();
        for v in 0..g.node_count() {
            assert_eq!(
                sync[v].is_dominator, alpha[v].is_dominator,
                "case {case} node {v}"
            );
            assert_eq!(sync[v].chosen, alpha[v].chosen, "case {case} node {v}");
        }
        assert!(
            report.dropped_messages > 0 || report.duplicated_messages > 0,
            "case {case}: the adversary never fired — weaken the plan check"
        );
    }
}

/// Election under faults + recovery also agrees with the fault-free
/// answer (max id), across random loss rates up to 30%.
#[test]
fn faulty_reliable_election_agrees() {
    let mut rng = StdRng::seed_from_u64(0xA1FA_0005);
    for case in 0..12 {
        let g = random_graph(&mut rng);
        let seed = rng.next_u64();
        let plan = FaultPlan::new(rng.next_u64()).drop_prob(0.3);
        let nodes = (0..g.node_count()).map(|_| ElectionNode::new()).collect();
        let (nodes, report) =
            run_protocol_alpha_reliable(&g, nodes, seed, 2, &plan, 1_000_000).unwrap();
        let max_id = g.nodes().map(|v| g.id_of(v)).max().unwrap();
        assert!(nodes.iter().all(|n| n.best == max_id), "case {case}");
        assert!(
            report.retransmissions > 0 || report.dropped_messages == 0,
            "case {case}"
        );
    }
}

/// Root-free Fast-MST stays correct across topologies (deterministic
/// spot-check kept for speed).
#[test]
fn elected_fast_mst_is_correct() {
    use kdom::graph::generators::Family;
    use kdom::graph::mst_ref::is_mst;
    for fam in [Family::Grid, Family::Gnp, Family::RandomTree] {
        let g = fam.generate(120, 44);
        let run = kdom::mst::fastmst::fast_mst_elected(&g);
        assert!(is_mst(&g, &run.mst_edges), "{fam}");
    }
}
