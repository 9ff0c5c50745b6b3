//! End-to-end integration: the whole public API surface, exactly as a
//! downstream user would drive it.

use kdom::congest::EngineConfig;
use kdom::core::fastdom::{fast_dom_g, fast_dom_t, WithinCluster};
use kdom::core::verify::{check_fastdom_output, dominating_size_bound};
use kdom::graph::generators::Family;
use kdom::graph::mst_ref::is_mst;
use kdom::graph::properties::{diameter, is_connected};
use kdom::graph::NodeId;
use kdom::mst::baselines::{collect_all_mst, phase_doubling_mst, pipeline_only_mst};
use kdom::mst::fastmst::{fast_mst, fast_mst_with_k};
use kdom::mst::pipeline::run_pipeline;

#[test]
fn fastdom_g_public_contract() {
    for fam in Family::ALL {
        for k in [2usize, 5] {
            let g = fam.generate(150, 99);
            assert!(is_connected(&g));
            let res = fast_dom_g(&g, k);
            check_fastdom_output(&g, &res.clustering, k)
                .unwrap_or_else(|e| panic!("{fam} k={k}: {e}"));
            assert!(res.dominators().len() <= dominating_size_bound(g.node_count(), k));
        }
    }
}

#[test]
fn fastdom_t_both_solvers() {
    for fam in Family::TREES {
        let g = fam.generate(120, 5);
        for solver in [WithinCluster::OptimalDp, WithinCluster::DiamDom] {
            let res = fast_dom_t(&g, 4, solver);
            kdom::core::verify::check_k_dominating(&g, res.dominators(), 4)
                .unwrap_or_else(|e| panic!("{fam} {solver:?}: {e}"));
        }
    }
}

#[test]
fn all_four_mst_algorithms_agree() {
    for fam in Family::ALL {
        let g = fam.generate(100, 31);
        let expected = kdom::graph::mst_ref::kruskal(&g);
        let total = |edges: &[kdom::graph::EdgeId]| g.total_weight(edges.iter().copied());
        let want = total(&expected);
        let fast = fast_mst(&g);
        assert_eq!(total(&fast.mst_edges), want, "{fam} fast");
        assert_eq!(total(&phase_doubling_mst(&g).mst_edges), want, "{fam} pd");
        assert_eq!(total(&pipeline_only_mst(&g).mst_edges), want, "{fam} po");
        assert_eq!(total(&collect_all_mst(&g).mst_edges), want, "{fam} ca");
    }
}

#[test]
fn fast_mst_round_shape_on_grids() {
    // doubling the side (4x nodes) should much less than double... the
    // √n-shaped stages: frag+partition ~2x; pipeline+bfs tracks N+Diam.
    let small = fast_mst(&Family::Grid.generate(256, 7));
    let large = fast_mst(&Family::Grid.generate(1024, 7));
    let sqrt_part_small = small.fragment_rounds + small.partition_charge.rounds;
    let sqrt_part_large = large.fragment_rounds + large.partition_charge.rounds;
    assert!(
        sqrt_part_large < sqrt_part_small * 3,
        "√n-shaped stages grew {sqrt_part_small} -> {sqrt_part_large}"
    );
}

#[test]
fn pipeline_handles_custom_clusterings() {
    let g = Family::Gnp.generate(90, 13);
    // arbitrary 3-coloring as a (non-contiguous) clustering: pipeline
    // still computes the MST of the quotient multigraph
    let clusters: Vec<u64> = g.nodes().map(|v| (v.0 % 3) as u64).collect();
    let run = run_pipeline(
        &g,
        NodeId(0),
        &clusters,
        true,
        false,
        EngineConfig::default(),
    );
    assert_eq!(run.stalls, 0);
    assert_eq!(
        run.mst_weights.len(),
        2,
        "3 clusters need 2 connecting edges"
    );
}

#[test]
fn k_extremes() {
    let g = Family::Gnp.generate(80, 21);
    // k = 1: dominating set in the classical sense
    let res = fast_dom_g(&g, 1);
    check_fastdom_output(&g, &res.clustering, 1).unwrap();
    // k ≥ n: SimpleMST merges everything into one fragment and a single
    // dominator suffices
    let k = g.node_count();
    let res = fast_dom_g(&g, k);
    check_fastdom_output(&g, &res.clustering, k).unwrap();
    assert_eq!(res.dominators().len(), 1);
    // k = diameter+1: not necessarily minimal (one dominator per MST
    // fragment), but the Theorem 4.4 bound still holds
    let k = diameter(&g) as usize + 1;
    let res = fast_dom_g(&g, k);
    check_fastdom_output(&g, &res.clustering, k).unwrap();
}

#[test]
fn fast_mst_k_parameter_is_safe_everywhere() {
    let g = Family::Grid.generate(64, 3);
    for k in 1..=10 {
        let run = fast_mst_with_k(&g, k);
        assert!(is_mst(&g, &run.mst_edges), "k = {k}");
        assert_eq!(run.stalls, 0, "k = {k}");
    }
}
