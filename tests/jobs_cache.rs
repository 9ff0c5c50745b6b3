//! Content-address discipline for the result cache: every advertised
//! [`RunSpec`] field separates keys, graph identity is structural (an
//! isomorphic graph assembled in a different order is a *different*
//! graph to the cache), and a hit returns the original run's bytes.

use std::sync::Arc;

use kdom::congest::{Algo, CacheKey, ExecSpec, JobPool, JobStatus, RunSpec};
use kdom::graph::generators::Family;
use kdom::graph::{GraphBuilder, NodeId};
use kdom::mst::service;

#[test]
fn specs_differing_in_one_field_key_differently() {
    let g = Family::Grid.generate(64, 3);
    let base = RunSpec::default().with_k(4).with_seed(7);
    let variants = [
        ("seed", base.clone().with_seed(8)),
        ("k", base.clone().with_k(5)),
        ("threads", base.clone().with_threads(base.threads + 1)),
        ("algorithm", base.clone().with_algo(Algo::Bfs)),
        ("trace", base.clone().with_trace(true)),
        (
            "backend",
            base.clone()
                .with_exec(ExecSpec::ReliableAlpha { max_delay: 4 }),
        ),
    ];
    let base_key = CacheKey::of(&g, &base);
    for (field, spec) in &variants {
        assert_ne!(
            CacheKey::of(&g, spec),
            base_key,
            "changing only the {field} must change the cache key"
        );
    }
    // and the keys are pairwise distinct, not just distinct from base
    let mut keys: Vec<CacheKey> = variants.iter().map(|(_, s)| CacheKey::of(&g, s)).collect();
    keys.push(base_key);
    let mut dedup = keys.clone();
    dedup.sort_by_key(|k| (k.graph, k.spec));
    dedup.dedup();
    assert_eq!(dedup.len(), keys.len(), "keys must be pairwise distinct");
}

/// Two structurally identical triangles ("isomorphic" with the identity
/// node mapping) whose edges were inserted in different orders: edge ids
/// and adjacency order differ, so the canonical fingerprint — and with
/// it the cache key — must differ. The cache keys *runs*, and the
/// engine's schedules walk adjacency in CSR order.
#[test]
fn isomorphic_but_differently_ordered_graphs_miss() {
    let tri = |order: &[(usize, usize, u64)]| {
        let mut b = GraphBuilder::new(3);
        for &(u, v, w) in order {
            b.add_edge(NodeId(u), NodeId(v), w);
        }
        b.build()
    };
    let a = tri(&[(0, 1, 10), (1, 2, 20), (0, 2, 30)]);
    let b = tri(&[(0, 2, 30), (0, 1, 10), (1, 2, 20)]);
    assert_ne!(a.fingerprint(), b.fingerprint());
    let spec = RunSpec::default();
    assert_ne!(
        CacheKey::of(&a, &spec),
        CacheKey::of(&b, &spec),
        "a reordered edge list is a different content address"
    );

    // the pool agrees: the second graph is a miss, not a bogus hit
    let pool = JobPool::new(1, 1 << 20, service::runner());
    pool.submit(Arc::new(a), spec.clone())
        .wait()
        .expect("first");
    let h = pool.submit(Arc::new(b), spec);
    h.wait().expect("second");
    assert_eq!(h.status(), JobStatus::Done { from_cache: false });
    assert_eq!(pool.stats().engine_runs, 2);
}

#[test]
fn a_hit_returns_the_byte_identical_report() {
    let g = Arc::new(Family::Gnp.generate(48, 5));
    let spec = RunSpec::default().with_algo(Algo::FastDomG).with_k(3);
    let pool = JobPool::new(2, 1 << 20, service::runner());

    let first = pool.submit(Arc::clone(&g), spec.clone());
    let out1 = first.wait().expect("miss runs the engine");
    let second = pool.submit(g, spec);
    let out2 = second.wait().expect("hit is served from cache");

    assert_eq!(second.status(), JobStatus::Done { from_cache: true });
    assert!(
        Arc::ptr_eq(&out1, &out2),
        "a hit is a pointer clone of the cached entry"
    );
    assert_eq!(out1.report, out2.report, "byte-identical RunReport");
    assert_eq!(out1.outputs, out2.outputs, "byte-identical outputs");
    let stats = pool.stats();
    assert_eq!(stats.engine_runs, 1);
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.cache.misses, 1);
}
