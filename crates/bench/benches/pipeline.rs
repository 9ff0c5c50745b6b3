//! Wall-clock bench behind E9/E11: the pipelined convergecast and its
//! barrier ablation.

use kdom_bench::harness::Criterion;
use kdom_bench::{criterion_group, criterion_main};
use kdom_congest::EngineConfig;
use kdom_graph::generators::Family;
use kdom_graph::NodeId;
use kdom_mst::pipeline::run_pipeline;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    for fam in [Family::RandomTree, Family::Grid] {
        let graph = fam.generate(256, 53);
        let clusters: Vec<u64> = graph.nodes().map(|v| graph.id_of(v)).collect();
        g.bench_function(format!("{fam}/pipelined"), |b| {
            b.iter(|| {
                run_pipeline(
                    std::hint::black_box(&graph),
                    NodeId(0),
                    &clusters,
                    true,
                    false,
                    EngineConfig::default(),
                )
            })
        });
        g.bench_function(format!("{fam}/barrier"), |b| {
            b.iter(|| {
                run_pipeline(
                    std::hint::black_box(&graph),
                    NodeId(0),
                    &clusters,
                    true,
                    true,
                    EngineConfig::default(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
