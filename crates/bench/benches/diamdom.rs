//! Wall-clock bench behind E2: simulation wall-clock of distributed
//! DiamDOM across graph families and k.

use kdom_bench::harness::Criterion;
use kdom_bench::{criterion_group, criterion_main};
use kdom_congest::EngineConfig;
use kdom_core::dist::diamdom::run_diamdom;
use kdom_graph::generators::Family;
use kdom_graph::NodeId;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("diamdom");
    for fam in [Family::RandomTree, Family::Grid, Family::Gnp] {
        for k in [2usize, 8] {
            let graph = fam.generate(256, 23);
            g.bench_function(format!("{fam}/n256/k{k}"), |b| {
                b.iter(|| {
                    run_diamdom(
                        std::hint::black_box(&graph),
                        NodeId(0),
                        k,
                        EngineConfig::default(),
                    )
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
