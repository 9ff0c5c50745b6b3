//! One test per numbered claim of the paper, in the paper's order — the
//! machine-checked version of the EXPERIMENTS.md summary table.

use kdom::congest::{congest_budget, EngineConfig, Simulator};
use kdom::core::dist::coloring::cv_schedule;
use kdom::core::dist::diamdom::run_diamdom;
use kdom::core::dist::executor::Executor;
use kdom::core::dist::fragments::{run_simple_mst, schedule_end, FragmentNode};
use kdom::core::fastdom::{fast_dom_g, fast_dom_t, WithinCluster};
use kdom::core::partition::dom_partition;
use kdom::core::verify::{
    check_fastdom_output, check_k_dominating, check_mst_fragments, check_spanning_forest,
    dominating_size_bound,
};
use kdom::graph::generators::Family;
use kdom::graph::mst_ref::is_mst;
use kdom::graph::properties::diameter;
use kdom::graph::NodeId;
use kdom::mst::fastmst::fast_mst;
use kdom::mst::pipeline::run_pipeline;

const SEED: u64 = 1995; // the venue year, why not

/// Lemma 2.1 — for every connected G and k ≥ 1 there is a k-dominating
/// set of size ≤ max(1, ⌊n/(k+1)⌋).
#[test]
fn lemma_2_1_existence() {
    for fam in Family::ALL {
        for k in [1usize, 4, 9] {
            let g = fam.generate(200, SEED);
            let res = fast_dom_g(&g, k);
            assert!(res.dominators().len() <= dominating_size_bound(g.node_count(), k));
            check_k_dominating(&g, res.dominators(), k).unwrap();
        }
    }
}

/// Lemma 2.3 — DiamDOM runs in O(Diam + k) (≤ 5·Diam + 2k + c measured).
#[test]
fn lemma_2_3_diamdom_time() {
    for fam in Family::ALL {
        let g = fam.generate(200, SEED);
        let k = 4;
        let run = run_diamdom(&g, NodeId(0), k, EngineConfig::default());
        let bound = 5 * u64::from(diameter(&g)) + 2 * k as u64 + 12;
        assert!(run.total_rounds() <= bound, "{fam}");
    }
}

/// Lemma 3.3 — BalancedDOM is O(log* n): with 48-bit ids the whole
/// schedule is a constant ≤ cv_schedule(48) + 19 rounds.
#[test]
fn lemma_3_3_balanced_dom_constant() {
    assert!(cv_schedule(48) <= 5);
    // the measured-flatness claim is covered by dist::coloring tests and
    // experiment E3; here we pin the schedule constant itself
    assert_eq!(cv_schedule(48), 4);
}

/// Lemmas 3.5–3.8 — DOMPartition outputs a (k+1, 5k+2) partition.
#[test]
fn lemmas_3_5_to_3_8_partition() {
    for fam in Family::TREES {
        let k = 6;
        let g = fam.generate(300, SEED);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let edges: Vec<(NodeId, NodeId)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        let res = dom_partition(&g, nodes, &edges, k);
        assert!(res.min_size() > k, "{fam}");
        let cl = kdom::core::fastdom::clusters_to_clustering(g.node_count(), &res.clusters);
        assert!(cl.max_radius(&g) <= 5 * k as u32 + 2, "{fam}");
    }
}

/// Theorem 3.2 — FastDOM_T: size ≤ n/(k+1) on trees.
#[test]
fn theorem_3_2_fastdom_t() {
    for fam in Family::TREES {
        let g = fam.generate(250, SEED);
        let res = fast_dom_t(&g, 5, WithinCluster::OptimalDp);
        check_fastdom_output(&g, &res.clustering, 5).unwrap_or_else(|e| panic!("{fam}: {e}"));
    }
}

/// Lemmas 4.1–4.3 — SimpleMST: a (k+1, n) spanning forest of MST
/// fragments in O(k) measured rounds.
#[test]
fn lemmas_4_1_to_4_3_simple_mst() {
    let g = Family::Grid.generate(400, SEED);
    for k in [3usize, 15] {
        let run = run_simple_mst(&g, k, &Executor::default());
        assert!(run.report.rounds <= schedule_end(k) + 2);
        check_mst_fragments(&g, &run.tree_edges).unwrap();
        check_spanning_forest(&g, &run.tree_edges, k + 1).unwrap();
    }
}

/// Theorem 4.4 — FastDOM_G: size ≤ n/(k+1) on general graphs.
#[test]
fn theorem_4_4_fastdom_g() {
    for fam in [Family::Grid, Family::Gnp] {
        let g = fam.generate(300, SEED);
        let res = fast_dom_g(&g, 6);
        check_fastdom_output(&g, &res.clustering, 6).unwrap_or_else(|e| panic!("{fam}: {e}"));
    }
}

/// Lemma 5.3 — the convergecast is fully pipelined: zero stalls, zero
/// order violations, on every family.
#[test]
fn lemma_5_3_full_pipelining() {
    for fam in Family::ALL {
        let g = fam.generate(250, SEED);
        let clusters: Vec<u64> = g.nodes().map(|v| g.id_of(v)).collect();
        let run = run_pipeline(
            &g,
            NodeId(0),
            &clusters,
            true,
            false,
            EngineConfig::default(),
        );
        assert_eq!(run.stalls, 0, "{fam}");
        assert_eq!(run.order_violations, 0, "{fam}");
    }
}

/// Lemma 5.5 — Pipeline collects within O(N + Diam) and outputs the
/// cluster-graph MST.
#[test]
fn lemma_5_5_pipeline_time_and_output() {
    let g = Family::Gnp.generate(300, SEED);
    let clusters: Vec<u64> = g.nodes().map(|v| g.id_of(v)).collect();
    let run = run_pipeline(
        &g,
        NodeId(0),
        &clusters,
        true,
        false,
        EngineConfig::default(),
    );
    let bound = g.node_count() as u64 + 2 * u64::from(diameter(&g)) + 16;
    assert!(run.collect_rounds <= bound);
    assert_eq!(run.mst_weights.len(), g.node_count() - 1);
}

/// Theorem 5.6 — Fast-MST computes the MST and beats the O(n) baseline
/// on a low-diameter graph.
#[test]
fn theorem_5_6_fast_mst() {
    let g = Family::Gnp.generate(400, SEED);
    let fast = fast_mst(&g);
    assert!(is_mst(&g, &fast.mst_edges));
    assert_eq!(fast.stalls, 0);
    let pd = kdom::mst::baselines::phase_doubling_mst(&g);
    assert!(fast.total_rounds() < pd.rounds);
}

/// The CONGEST discipline (§1.2) — messages carry O(log n) bits. Every
/// message in the repo fits a constant number of 48-bit words; the widest
/// is Fast-MST's pipelined edge descriptor `(id, id, weight)` = 3 words,
/// pinned here via the engine's measured `max_message_bits`.
#[test]
fn congest_budget_bounds_fast_mst_messages() {
    assert_eq!(congest_budget(3), 144);
    let g = Family::Gnp.generate(400, SEED);
    let fast = fast_mst(&g);
    assert_eq!(fast.pipeline_report.max_message_bits, congest_budget(3));

    // debug builds can enforce the budget per send, inside the engine:
    // SimpleMST's widest frame (the depth probe, 80 bits) fits 2 words
    let nodes: Vec<FragmentNode> = g
        .nodes()
        .map(|v| FragmentNode::new(3, g.id_of(v)))
        .collect();
    let mut sim = Simulator::with_config(
        &g,
        nodes,
        EngineConfig::default().with_bit_budget(congest_budget(2)),
    );
    let report = sim.run(10_000).expect("SimpleMST quiesces");
    assert!(report.max_message_bits <= congest_budget(2));
}

/// The per-send budget assert trips in debug builds on the first message
/// wider than the configured budget.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "CONGEST budget exceeded")]
fn congest_budget_assert_trips() {
    let g = Family::Path.generate(8, SEED);
    let nodes: Vec<FragmentNode> = g
        .nodes()
        .map(|v| FragmentNode::new(3, g.id_of(v)))
        .collect();
    let mut sim = Simulator::with_config(&g, nodes, EngineConfig::default().with_bit_budget(16));
    let _ = sim.run(10_000);
}
