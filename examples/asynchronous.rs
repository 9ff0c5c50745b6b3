//! Asynchronous execution demo: the paper's §1.2 synchrony argument.
//!
//! The same per-node `SimpleMST` automaton runs (a) on the synchronous
//! simulator and (b) on an event-driven asynchronous network with random
//! message delays under synchronizer α — and selects the exact same MST
//! fragment edges, at the cost of the classic α control-message overhead.
//!
//! ```bash
//! cargo run --release --example asynchronous
//! ```

use kdom::congest::run_protocol_alpha;
use kdom::core::dist::executor::Executor;
use kdom::core::dist::fragments::{run_simple_mst, FragmentNode};
use kdom::graph::generators::Family;

fn main() {
    let g = Family::Grid.generate(144, 11);
    let k = 7;
    println!(
        "graph: {} nodes, {} edges; SimpleMST with k = {k}\n",
        g.node_count(),
        g.edge_count()
    );

    // Synchronous run.
    let sync = run_simple_mst(&g, k, &Executor::default());
    println!(
        "synchronous:  {} rounds, {} messages, {} fragments",
        sync.report.rounds,
        sync.report.messages,
        sync.roots.len()
    );
    let mut want = sync.tree_edges.clone();
    want.sort_unstable();

    // Asynchronous runs with growing delay bounds.
    for max_delay in [1u64, 4, 16] {
        let nodes: Vec<FragmentNode> = g
            .nodes()
            .map(|v| FragmentNode::new(k, g.id_of(v)))
            .collect();
        let (nodes, rep) =
            run_protocol_alpha(&g, nodes, max_delay, max_delay, 10_000_000).expect("α run");
        let mut got: Vec<_> = g
            .nodes()
            .filter_map(|v| nodes[v.0].parent.map(|p| g.neighbors(v)[p.0].edge))
            .collect();
        got.sort_unstable();
        assert_eq!(got, want, "α must select the same MST edges");
        println!(
            "α, delay ≤ {max_delay:>2}: {} pulses, virtual time {}, {} payload + {} control msgs — same MST ✓",
            rep.pulses, rep.virtual_time, rep.payload_messages, rep.control_messages
        );
    }

    println!("\nSynchronizer α makes the synchronous algorithms run verbatim on an");
    println!("asynchronous network, paying one control message per edge-direction per");
    println!("pulse — exactly the overhead the paper quotes from [Al].");
}
