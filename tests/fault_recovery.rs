//! Fault-injection integration suite: every protocol in the repo must
//! survive a hostile network when run over the reliable α transport.
//!
//! Each test drives an **unmodified** protocol through synchronizer α
//! with seeded link faults (≥ 20% per-link drop probability, plus
//! duplication and extra delay) and asserts the outputs are identical to
//! the fault-free synchronous execution — the recovery layer makes the
//! reliability assumption a toggle, not a requirement. Crash-stop
//! scenarios compare against references computed on the surviving
//! component, and budget exhaustion must produce a structured diagnosis
//! naming the stuck nodes, never a bare hang.

use kdom::congest::{
    run_protocol, run_protocol_alpha_reliable, AlphaReport, AlphaSimulator, EngineConfig,
    FaultPlan, Message, NodeCtx, Outbox, Protocol, ReliableConfig, SimError, Simulator,
};
use kdom::core::dist::bfs::BfsNode;
use kdom::core::dist::election::ElectionNode;
use kdom::core::dist::executor::Executor;
use kdom::core::dist::fastdom::{fast_dom_g_distributed, fast_dom_t_distributed};
use kdom::core::dist::fragments::run_simple_mst;
use kdom::core::fastdom::WithinCluster;
use kdom::core::verify::check_fastdom_output;
use kdom::graph::generators::Family;
use kdom::graph::mst_ref::kruskal;
use kdom::graph::properties::bfs_distances;
use kdom::graph::{Graph, NodeId};
use kdom::mst::pipeline::{PipelineConfig, PipelineNode};

/// The headline adversary: 30% of transmissions dropped, 10% duplicated,
/// extra delay on top of the random base delays.
fn heavy_loss(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .drop_prob(0.3)
        .dup_prob(0.1)
        .max_extra_delay(3)
}

/// BFS completes under 30% loss and reproduces the exact layer structure.
#[test]
fn bfs_survives_heavy_loss() {
    for (fam, seed) in [
        (Family::Gnp, 3u64),
        (Family::Grid, 4),
        (Family::RandomTree, 5),
    ] {
        let g = fam.generate(36, seed);
        let nodes = (0..g.node_count()).map(|v| BfsNode::new(v == 0)).collect();
        let (nodes, report) =
            run_protocol_alpha_reliable(&g, nodes, seed, 3, &heavy_loss(seed ^ 0xF00D), 1_000_000)
                .unwrap();
        let want = bfs_distances(&g, NodeId(0));
        for v in 0..g.node_count() {
            assert_eq!(nodes[v].depth, Some(want[v]), "{fam} node {v}");
        }
        assert!(
            report.dropped_messages > 0,
            "{fam}: the adversary never fired"
        );
        assert!(report.retransmissions > 0, "{fam}: recovery never fired");
    }
}

/// Leader election under 30% loss still agrees on the global max id.
#[test]
fn election_survives_heavy_loss() {
    for seed in 10..14u64 {
        let g = Family::Gnp.generate(30, seed);
        let nodes = (0..g.node_count()).map(|_| ElectionNode::new()).collect();
        let (nodes, _) =
            run_protocol_alpha_reliable(&g, nodes, seed, 2, &heavy_loss(seed), 1_000_000).unwrap();
        let max_id = g.nodes().map(|v| g.id_of(v)).max().unwrap();
        assert!(nodes.iter().all(|n| n.best == max_id), "seed {seed}");
    }
}

/// SimpleMST — the hardest protocol here, driven entirely by exact round
/// numbers — produces the identical fragment forest under 25% loss.
#[test]
fn simple_mst_survives_heavy_loss() {
    for (fam, seed) in [(Family::Gnp, 21u64), (Family::Grid, 22)] {
        let g = fam.generate(30, seed);
        let k = 3;
        let exec = Executor::ReliableAlpha {
            seed,
            max_delay: 2,
            plan: FaultPlan::new(seed ^ 0xBEEF).drop_prob(0.25).dup_prob(0.05),
        };
        let faulty = run_simple_mst(&g, k, &exec);
        let clean = run_simple_mst(&g, k, &Executor::default());
        let mut fe = faulty.tree_edges.clone();
        fe.sort_unstable();
        let mut ce = clean.tree_edges.clone();
        ce.sort_unstable();
        assert_eq!(fe, ce, "{fam}: tree edges differ");
        assert_eq!(faulty.roots, clean.roots, "{fam}: roots differ");
        assert_eq!(
            faulty.fragment_of, clean.fragment_of,
            "{fam}: partition differs"
        );
        assert!(
            faulty.report.dropped_messages > 0,
            "{fam}: the adversary never fired"
        );
    }
}

/// FastDOM_T end to end: the measured within-cluster stage runs over
/// reliable α at 20% loss and the final clustering is byte-identical.
#[test]
fn fastdom_t_survives_heavy_loss() {
    for seed in 30..33u64 {
        let g = Family::RandomTree.generate(60, seed);
        let k = 2;
        let exec = Executor::ReliableAlpha {
            seed,
            max_delay: 3,
            plan: FaultPlan::new(seed)
                .drop_prob(0.2)
                .dup_prob(0.1)
                .max_extra_delay(2),
        };
        for solver in [WithinCluster::OptimalDp, WithinCluster::DiamDom] {
            let faulty = fast_dom_t_distributed(&g, k, solver, &exec);
            let clean = fast_dom_t_distributed(&g, k, solver, &Executor::default());
            assert_eq!(
                faulty.dominators(),
                clean.dominators(),
                "seed {seed} {solver:?}"
            );
            for v in g.nodes() {
                assert_eq!(
                    faulty.clustering.cluster_of(v),
                    clean.clustering.cluster_of(v),
                    "seed {seed} {solver:?} node {}",
                    v.0
                );
            }
            assert!(
                check_fastdom_output(&g, &faulty.clustering, k).is_ok(),
                "seed {seed}"
            );
            assert!(
                faulty.within_report.dropped_messages > 0,
                "adversary never fired"
            );
        }
    }
}

/// FastDOM_G end to end: both measured stages (SimpleMST + within-cluster)
/// run over reliable α at 25% loss; dominators and clustering match the
/// fault-free synchronous composition exactly.
#[test]
fn fastdom_g_survives_heavy_loss() {
    for seed in 40..43u64 {
        let g = Family::Gnp.generate(40, seed);
        let k = 2;
        let exec = Executor::ReliableAlpha {
            seed,
            max_delay: 2,
            plan: FaultPlan::new(seed ^ 0xD00D)
                .drop_prob(0.25)
                .dup_prob(0.05)
                .max_extra_delay(2),
        };
        let (faulty, _) = fast_dom_g_distributed(&g, k, WithinCluster::OptimalDp, &exec);
        let (clean, _) =
            fast_dom_g_distributed(&g, k, WithinCluster::OptimalDp, &Executor::default());
        assert_eq!(faulty.dominators(), clean.dominators(), "seed {seed}");
        for v in g.nodes() {
            assert_eq!(
                faulty.clustering.cluster_of(v),
                clean.clustering.cluster_of(v),
                "seed {seed} node {}",
                v.0
            );
        }
        assert!(
            check_fastdom_output(&g, &faulty.clustering, k).is_ok(),
            "seed {seed}"
        );
        let dropped = faulty.within_report.dropped_messages;
        assert!(
            dropped > 0,
            "seed {seed}: adversary never fired in the within stage"
        );
    }
}

/// The MST pipeline (upcast with elimination) under 25% loss computes the
/// exact cluster-graph MST with zero stalls and zero order violations.
#[test]
fn pipeline_survives_heavy_loss() {
    for seed in 50..53u64 {
        let g = Family::Gnp.generate(28, seed);
        let (bfs, _) = kdom::core::dist::bfs::run_bfs(&g, NodeId(0), &Executor::default()).unwrap();
        let mk_nodes = || -> Vec<PipelineNode> {
            bfs.iter()
                .enumerate()
                .map(|(v, b)| {
                    PipelineNode::new(PipelineConfig {
                        parent: b.parent,
                        children: b.children.clone(),
                        cluster: g.id_of(NodeId(v)),
                        eliminate: true,
                        barrier: false,
                    })
                })
                .collect()
        };
        let plan = FaultPlan::new(seed).drop_prob(0.25).dup_prob(0.1);
        let (nodes, _) =
            run_protocol_alpha_reliable(&g, mk_nodes(), seed, 2, &plan, 2_000_000).unwrap();
        let root = &nodes[0];
        let mut got = root.result.clone().expect("root computed the MST");
        got.sort_unstable();
        let mut want: Vec<u64> = kruskal(&g).iter().map(|&e| g.edge(e).weight).collect();
        want.sort_unstable();
        assert_eq!(got, want, "seed {seed}");
        assert_eq!(
            nodes.iter().map(|n| n.stalls).sum::<u64>(),
            0,
            "seed {seed}"
        );
        assert_eq!(
            nodes.iter().map(|n| n.order_violations).sum::<u64>(),
            0,
            "seed {seed}"
        );
    }
}

/// BFS distances on the induced subgraph that excludes `dead`, or `None`
/// when a survivor is unreachable without it.
fn survivor_distances(g: &Graph, root: NodeId, dead: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.node_count()];
    dist[root.0] = Some(0u32);
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(u) = queue.pop_front() {
        for a in g.neighbors(u) {
            if a.to != dead && dist[a.to.0].is_none() {
                dist[a.to.0] = Some(dist[u.0].unwrap() + 1);
                queue.push_back(a.to);
            }
        }
    }
    dist
}

/// Picks a non-root node whose removal keeps every survivor reachable.
fn removable_node(g: &Graph, root: NodeId) -> (NodeId, Vec<Option<u32>>) {
    for v in g.nodes() {
        if v == root {
            continue;
        }
        let dist = survivor_distances(g, root, v);
        if g.nodes().all(|w| w == v || dist[w.0].is_some()) {
            return (v, dist);
        }
    }
    panic!("graph has no removable non-root node");
}

/// A node that crashes before round 0 simply degrades the topology: the
/// survivors compute the exact BFS tree of the induced subgraph, under
/// loss on top of the crash.
#[test]
fn crash_before_round_zero_bfs_on_survivors() {
    for seed in 60..63u64 {
        let g = Family::Gnp.generate(24, seed);
        let root = NodeId(0);
        let (dead, want) = removable_node(&g, root);
        let plan = FaultPlan::new(seed).drop_prob(0.2).crash(dead, 0);
        let nodes = (0..g.node_count()).map(|v| BfsNode::new(v == 0)).collect();
        let (nodes, _) = run_protocol_alpha_reliable(&g, nodes, seed, 2, &plan, 1_000_000).unwrap();
        for v in g.nodes() {
            if v == dead {
                assert_eq!(
                    nodes[v.0].depth, None,
                    "seed {seed}: the dead node computed"
                );
            } else {
                assert_eq!(nodes[v.0].depth, want[v.0], "seed {seed} node {}", v.0);
            }
        }
    }
}

/// Crashing the max-id node before round 0: survivors elect the max id
/// *among the survivors*, exactly as on the induced subgraph.
#[test]
fn crash_before_round_zero_election_on_survivors() {
    for seed in 70..73u64 {
        let g = Family::Gnp.generate(24, seed);
        let champion = g.nodes().max_by_key(|&v| g.id_of(v)).unwrap();
        let (dead, _) = removable_node(&g, NodeId(0));
        // crash the champion when the topology allows it, else any node
        let dead = if g
            .nodes()
            .all(|w| w == champion || survivor_distances(&g, NodeId(0), champion)[w.0].is_some())
            && champion != NodeId(0)
        {
            champion
        } else {
            dead
        };
        let plan = FaultPlan::new(seed).drop_prob(0.2).crash(dead, 0);
        let nodes = (0..g.node_count()).map(|_| ElectionNode::new()).collect();
        let (nodes, _) = run_protocol_alpha_reliable(&g, nodes, seed, 2, &plan, 1_000_000).unwrap();
        let survivor_max = g
            .nodes()
            .filter(|&v| v != dead)
            .map(|v| g.id_of(v))
            .max()
            .unwrap();
        for v in g.nodes().filter(|&v| v != dead) {
            assert_eq!(nodes[v.0].best, survivor_max, "seed {seed} node {}", v.0);
        }
    }
}

/// Exhausting the round budget yields a structured error that names the
/// stuck nodes and their pending-queue depths — never a bare panic.
#[test]
fn budget_exhaustion_names_stuck_nodes() {
    let g = Family::Path.generate(20, 1);
    let nodes: Vec<BfsNode> = (0..g.node_count()).map(|v| BfsNode::new(v == 0)).collect();
    let err = run_protocol(&g, nodes, 3, EngineConfig::default()).unwrap_err();
    match err {
        SimError::RoundLimitExceeded { limit, ref stall } => {
            assert_eq!(limit, 3);
            assert!(!stall.not_done.is_empty(), "no stuck nodes reported");
            // the far end of the path cannot have finished in 3 rounds
            assert!(stall.not_done.contains(&NodeId(19)), "{stall:?}");
        }
        other => panic!("expected RoundLimitExceeded, got {other:?}"),
    }
    let shown = err.to_string();
    assert!(
        shown.contains("not done"),
        "diagnosis lacks the stuck-node list: {shown}"
    );
    assert!(
        shown.contains("n3"),
        "diagnosis does not name a stuck node: {shown}"
    );
}

/// Reliable α (every frame encoded at send, decoded at delivery) on a
/// lossy network.
fn run_reliable<P: Protocol>(
    g: &Graph,
    nodes: Vec<P>,
    seed: u64,
    max_delay: u64,
    plan: &FaultPlan,
) -> (Vec<P>, AlphaReport) {
    let cfg = ReliableConfig::for_delays(max_delay, plan.max_extra_delay);
    let mut sim = AlphaSimulator::with_faults(g, nodes, seed, max_delay, plan).reliable(cfg);
    let report = sim.run(1_000_000).expect("reliable α quiesces");
    (sim.into_nodes(), report)
}

/// Under heavy loss the ARQ layer, fed only the decoded frames, still
/// delivers the exact BFS depths.
#[test]
fn reliable_bfs_depths_are_exact_under_loss() {
    for seed in 80..83u64 {
        let g = Family::Gnp.generate(30, seed);
        let plan = heavy_loss(seed ^ 0xACE);
        let mk = || (0..g.node_count()).map(|v| BfsNode::new(v == 0)).collect();
        let (nodes, report) = run_reliable::<BfsNode>(&g, mk(), seed, 3, &plan);
        assert!(report.dropped_messages > 0, "seed {seed}: no loss");
        let want = bfs_distances(&g, NodeId(0));
        for v in g.nodes() {
            assert_eq!(nodes[v.0].depth, Some(want[v.0]), "seed {seed}");
        }
    }
}

/// Loss plus a crash-stop: the degraded topology, the ARQ recovery and
/// the crash bookkeeping still yield the survivors' exact BFS depths.
#[test]
fn reliable_bfs_depths_are_exact_under_loss_and_crash() {
    for seed in 90..93u64 {
        let g = Family::Gnp.generate(24, seed);
        let root = NodeId(0);
        let (dead, want) = removable_node(&g, root);
        let plan = FaultPlan::new(seed)
            .drop_prob(0.25)
            .dup_prob(0.05)
            .crash(dead, 0);
        let mk = || (0..g.node_count()).map(|v| BfsNode::new(v == 0)).collect();
        let (nodes, _) = run_reliable::<BfsNode>(&g, mk(), seed, 2, &plan);
        for v in g.nodes() {
            let reference = if v == dead { None } else { want[v.0] };
            assert_eq!(nodes[v.0].depth, reference, "seed {seed} node {}", v.0);
        }
    }
}

/// The stall diagnosis counts **queued message copies**, not arena slots:
/// a duplicated transmission occupies one `(node, port)` slot but is two
/// deliveries, and the pending-queue depth must say so.
#[test]
fn stall_report_counts_duplicated_copies() {
    #[derive(Clone, Debug)]
    struct Ping;
    kdom::congest::impl_wire_empty!(Ping);
    impl Message for Ping {}

    /// Node 0 broadcasts every round and never finishes; node 1 listens.
    struct Chatter {
        origin: bool,
    }
    impl Protocol for Chatter {
        type Msg = Ping;
        fn round(
            &mut self,
            _ctx: &NodeCtx<'_>,
            _inbox: &[(kdom::congest::Port, Ping)],
            out: &mut Outbox<Ping>,
        ) {
            if self.origin {
                out.broadcast(Ping);
            }
        }
        fn is_done(&self) -> bool {
            !self.origin
        }
    }

    let g = Family::Path.generate(2, 0);
    let plan = FaultPlan::new(3).dup_prob(1.0);
    let nodes = vec![Chatter { origin: true }, Chatter { origin: false }];
    let mut sim = Simulator::with_faults(&g, nodes, &plan, EngineConfig::default());
    match sim.run(5).unwrap_err() {
        SimError::RoundLimitExceeded { ref stall, .. } => {
            let depth = stall
                .pending
                .iter()
                .find(|(v, _)| *v == NodeId(1))
                .map(|&(_, d)| d)
                .expect("node 1 must have a pending queue");
            assert_eq!(
                depth, 2,
                "pending depth must count both copies of the duplicated message: {stall:?}"
            );
        }
        other => panic!("expected RoundLimitExceeded, got {other:?}"),
    }
}
