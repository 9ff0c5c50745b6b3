//! Fault injection and recovery demo: dropping the paper's reliability
//! assumption.
//!
//! A seeded [`FaultPlan`] subjects the asynchronous network to heavy
//! message loss, duplication and extra delay; the per-link ARQ transport
//! recovers exactly-once delivery, so the unmodified `FastDOM_G` stack
//! (SimpleMST + partition + within-cluster domination) computes the exact
//! same k-dominating set it does on a perfect synchronous network. A
//! crash-stop failure degrades the topology instead, and the watchdog
//! turns a wedged run into a structured error naming the stuck nodes.
//!
//! ```bash
//! cargo run --release --example lossy_recovery
//! ```

use kdom::congest::{run_protocol, run_protocol_alpha_reliable, EngineConfig, FaultPlan, SimError};
use kdom::core::dist::bfs::BfsNode;
use kdom::core::dist::executor::Executor;
use kdom::core::dist::fastdom::fast_dom_g_distributed;
use kdom::core::fastdom::WithinCluster;
use kdom::graph::generators::Family;
use kdom::graph::NodeId;

fn main() {
    let g = Family::Gnp.generate(120, 47);
    let k = 4;
    println!(
        "graph: {} nodes, {} edges; FastDOM_G with k = {k}\n",
        g.node_count(),
        g.edge_count()
    );

    // Baseline: the paper's model — reliable, synchronous.
    let (sync, _) = fast_dom_g_distributed(&g, k, WithinCluster::OptimalDp, &Executor::default());
    println!(
        "reliable sync:       {:>3} dominators (bound n/(k+1) = {})",
        sync.dominators().len(),
        g.node_count() / (k + 1)
    );

    // The same stack over a hostile asynchronous network: 30% of all
    // transmissions dropped, 10% duplicated, up to 3 units extra delay.
    for loss in [10u64, 30] {
        let plan = FaultPlan::new(1000 + loss)
            .drop_prob(loss as f64 / 100.0)
            .dup_prob(0.10)
            .max_extra_delay(3);
        let exec = Executor::ReliableAlpha {
            seed: 7,
            max_delay: 2,
            plan,
        };
        let (lossy, _) = fast_dom_g_distributed(&g, k, WithinCluster::OptimalDp, &exec);
        assert_eq!(
            lossy.dominators(),
            sync.dominators(),
            "recovery must reproduce the fault-free output"
        );
        println!(
            "ARQ over {loss:>2}% loss:   {:>3} dominators — identical set ✓",
            lossy.dominators().len()
        );
    }

    // Crash-stop: a node that never wakes up is a degraded topology. BFS
    // from n0 still terminates and the survivors get correct distances.
    let root = NodeId(0);
    let dead = NodeId(97);
    let plan = FaultPlan::new(9).drop_prob(0.20).crash(dead, 0);
    let nodes: Vec<BfsNode> = (0..g.node_count())
        .map(|v| BfsNode::new(v == root.0))
        .collect();
    let (nodes, rep) =
        run_protocol_alpha_reliable(&g, nodes, 11, 2, &plan, 1_000_000).expect("survivors finish");
    let reached = nodes.iter().filter(|n| n.depth.is_some()).count();
    println!(
        "\ncrash of {dead:?} at pulse 0: BFS over 20% loss reaches {reached}/{} nodes,",
        g.node_count()
    );
    println!(
        "  {} drops / {} duplicates healed by {} retransmissions",
        rep.dropped_messages, rep.duplicated_messages, rep.retransmissions
    );
    assert!(
        nodes[dead.0].depth.is_none(),
        "the dead node learns nothing"
    );

    // The watchdog: an impossible budget does not hang — it returns a
    // structured error naming the nodes that were still busy.
    let nodes: Vec<BfsNode> = (0..g.node_count())
        .map(|v| BfsNode::new(v == root.0))
        .collect();
    match run_protocol(&g, nodes, 2, EngineConfig::default()) {
        Err(SimError::RoundLimitExceeded { limit, stall }) => {
            println!("\nbudget of {limit} rounds exhausted; watchdog says:");
            println!("  {}", SimError::RoundLimitExceeded { limit, stall });
        }
        other => panic!("expected a stall report, got {other:?}"),
    }

    println!("\nThe reliability assumption is a toggle: flip the executor and every");
    println!("protocol in the repo runs unmodified over a lossy asynchronous network.");
}
