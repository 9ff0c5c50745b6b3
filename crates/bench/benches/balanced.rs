//! Wall-clock bench behind E3: distributed BalancedDOM (CV + MIS + fix-ups).

use kdom_bench::harness::Criterion;
use kdom_bench::{criterion_group, criterion_main};
use kdom_congest::Port;
use kdom_core::dist::coloring::{BalancedConfig, BalancedNode};
use kdom_graph::generators::Family;
use kdom_graph::{NodeId, RootedTree};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("balanced_dom");
    for n in [256usize, 1024, 4096] {
        let graph = Family::RandomTree.generate(n, 29);
        let tree = RootedTree::from_graph(&graph, NodeId(0));
        g.bench_function(format!("random-tree/n{n}"), |b| {
            b.iter(|| {
                let port_to = |v: NodeId, to: NodeId| {
                    Port(graph.neighbors(v).iter().position(|a| a.to == to).unwrap())
                };
                let nodes: Vec<BalancedNode> = (0..n)
                    .map(|v| {
                        let v = NodeId(v);
                        BalancedNode::new(BalancedConfig {
                            parent: tree.parent(v).map(|p| port_to(v, p)),
                            children: tree.children(v).iter().map(|&c| port_to(v, c)).collect(),
                            id_bits: 48,
                        })
                    })
                    .collect();
                kdom_congest::run_protocol(
                    std::hint::black_box(&graph),
                    nodes,
                    10_000,
                    kdom_congest::EngineConfig::default(),
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
