//! Wall-clock bench behind E7: the distributed SimpleMST fragment growth.

use kdom_bench::harness::Criterion;
use kdom_bench::{criterion_group, criterion_main};
use kdom_core::dist::executor::Executor;
use kdom_core::dist::fragments::run_simple_mst;
use kdom_graph::generators::Family;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("simple_mst");
    let graph = Family::Grid.generate(400, 43);
    for k in [3usize, 15, 31] {
        g.bench_function(format!("grid/n400/k{k}"), |b| {
            b.iter(|| run_simple_mst(std::hint::black_box(&graph), k, &Executor::default()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
