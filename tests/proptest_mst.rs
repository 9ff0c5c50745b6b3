//! Property-based tests for the MST stack: the distributed algorithms
//! must reproduce the unique MST on arbitrary random inputs, the
//! pipelining invariants must hold, and the distributed `SimpleMST` must
//! agree exactly with its sequential reference. (Seeded-loop style.)

use kdom::congest::EngineConfig;
use kdom::core::dist::executor::Executor;
use kdom::core::dist::fragments::run_simple_mst;
use kdom::core::fragments::simple_mst_forest;
use kdom::core::verify::{check_mst_fragments, check_spanning_forest};
use kdom::graph::generators::{gnp_connected, random_tree, GenConfig};
use kdom::graph::mst_ref::{is_mst, kruskal};
use kdom::graph::{Graph, NodeId};
use kdom::mst::fastmst::fast_mst_with_k;
use kdom::mst::pipeline::run_pipeline;
use kdom_rng::StdRng;

fn random_graph(rng: &mut StdRng) -> Graph {
    let n = rng.random_range(4usize..70);
    let seed = rng.next_u64();
    let p = 0.03 + rng.random_unit() * 0.32;
    gnp_connected(&GenConfig::with_seed(n, seed), p)
}

/// Theorem 5.6 correctness: Fast-MST returns the unique MST for any k,
/// with a stall-free pipeline.
#[test]
fn fast_mst_always_correct() {
    let mut rng = StdRng::seed_from_u64(0x3157_0001);
    for case in 0..48 {
        let g = random_graph(&mut rng);
        let k = rng.random_range(1usize..12);
        let run = fast_mst_with_k(&g, k);
        assert!(is_mst(&g, &run.mst_edges), "case {case}");
        assert_eq!(run.stalls, 0, "case {case}");
        assert_eq!(run.mst_edges.len(), g.node_count() - 1, "case {case}");
    }
}

/// Lemma 5.3: the pipeline never stalls and never violates the
/// nondecreasing-upcast order, on any input and clustering.
#[test]
fn pipeline_invariants() {
    let mut rng = StdRng::seed_from_u64(0x3157_0002);
    for case in 0..48 {
        let g = random_graph(&mut rng);
        let clusters = rng.random_range(1u64..6);
        let cl: Vec<u64> = g.nodes().map(|v| g.id_of(v) % clusters).collect();
        let run = run_pipeline(&g, NodeId(0), &cl, true, false, EngineConfig::default());
        assert_eq!(run.stalls, 0, "case {case}");
        assert_eq!(run.order_violations, 0, "case {case}");
    }
}

/// Lemma 5.5 output: with singleton clusters the pipeline alone
/// reproduces the unique MST.
#[test]
fn pipeline_computes_quotient_mst() {
    let mut rng = StdRng::seed_from_u64(0x3157_0003);
    for case in 0..48 {
        let g = random_graph(&mut rng);
        let singles: Vec<u64> = g.nodes().map(|v| g.id_of(v)).collect();
        let run = run_pipeline(
            &g,
            NodeId(0),
            &singles,
            true,
            false,
            EngineConfig::default(),
        );
        let mut got = run.mst_weights.clone();
        got.sort_unstable();
        let mut want: Vec<u64> = kruskal(&g).iter().map(|&e| g.edge(e).weight).collect();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}");
    }
}

/// Lemma 4.2/4.3: SimpleMST (distributed) equals the sequential
/// reference edge-for-edge and root-for-root.
#[test]
fn simple_mst_dist_eq_seq() {
    let mut rng = StdRng::seed_from_u64(0x3157_0004);
    for case in 0..48 {
        let g = random_graph(&mut rng);
        let k = rng.random_range(1usize..10);
        let dist = run_simple_mst(&g, k, &Executor::default());
        let seq = simple_mst_forest(&g, k);
        let mut de = dist.tree_edges.clone();
        de.sort_unstable();
        let mut se = seq.tree_edges.clone();
        se.sort_unstable();
        assert_eq!(de, se, "case {case}");
        let mut dr = dist.roots.clone();
        dr.sort_unstable();
        let mut sr = seq.roots.clone();
        sr.sort_unstable();
        assert_eq!(dr, sr, "case {case}");
    }
}

/// SimpleMST outputs a (min(k+1, n), ·) spanning forest of MST edges.
#[test]
fn simple_mst_forest_properties() {
    let mut rng = StdRng::seed_from_u64(0x3157_0005);
    for case in 0..48 {
        let g = random_graph(&mut rng);
        let k = rng.random_range(1usize..10);
        let fr = simple_mst_forest(&g, k);
        assert!(
            check_mst_fragments(&g, &fr.tree_edges).is_ok(),
            "case {case}"
        );
        let sigma = (k + 1).min(g.node_count());
        assert!(
            check_spanning_forest(&g, &fr.tree_edges, sigma).is_ok(),
            "case {case}"
        );
    }
}

/// Trees are their own MST through the whole stack.
#[test]
fn tree_identity() {
    let mut rng = StdRng::seed_from_u64(0x3157_0006);
    for case in 0..48 {
        let n = rng.random_range(2usize..80);
        let g = random_tree(&GenConfig::with_seed(n, rng.next_u64()));
        let run = fast_mst_with_k(&g, 3);
        assert_eq!(run.mst_edges.len(), n - 1, "case {case}");
        assert!(is_mst(&g, &run.mst_edges), "case {case}");
    }
}
