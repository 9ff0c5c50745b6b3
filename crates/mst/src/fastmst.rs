//! `Fast-MST` (§5.2, Theorem 5.6): distributed MST in
//! `O(√n log* n + Diam(G))` rounds.
//!
//! The composition follows the paper:
//!
//! 1. **`SimpleMST(k)`** with `k = ⌈√n⌉` — measured CONGEST rounds —
//!    yields a `(k+1, n)` spanning forest of MST fragments;
//! 2. **`DOMPartition(k)`** on each fragment (in parallel; charged rounds,
//!    see DESIGN.md) — yields ≤ `n/(k+1)` clusters of radius `O(k)`, each
//!    spanned by MST edges, with every node knowing its cluster id;
//! 3. **BFS + `Pipeline`** — measured rounds — eliminates all but the
//!    `N − 1` inter-cluster MST edges.
//!
//! The final MST is the union of the fragments' internal edges and the
//! pipeline's selected edges. Per the paper's footnote 2, the `DiamDOM`
//! stage of `FastDOM_G` is not needed for the MST itself and is skipped
//! here.

use kdom_congest::{EngineConfig, RunReport};
use kdom_core::cluster::Charge;
use kdom_core::dist::executor::Executor;
use kdom_core::dist::fragments::{run_simple_mst, DistFragments};
use kdom_core::partition::dom_partition;
use kdom_graph::{EdgeId, Graph, NodeId};

use crate::pipeline::{run_pipeline, PipelineRun};

/// Result and full round breakdown of a `Fast-MST` run.
#[derive(Clone, Debug)]
pub struct FastMstRun {
    /// The MST edges (exactly `n − 1` on a connected graph).
    pub mst_edges: Vec<EdgeId>,
    /// The `k` used (`⌈√n⌉` by default).
    pub k: usize,
    /// Number of contracted clusters `N` handed to the pipeline.
    pub cluster_count: usize,
    /// Measured rounds of the `SimpleMST` stage.
    pub fragment_rounds: u64,
    /// Charged rounds of the `DOMPartition` stage (max over the parallel
    /// fragments).
    pub partition_charge: Charge,
    /// Measured rounds of the BFS-tree stage.
    pub bfs_rounds: u64,
    /// Measured rounds of the `Pipeline` stage (including the result
    /// broadcast).
    pub pipeline_rounds: u64,
    /// Root-collection rounds of the pipeline (the Lemma 5.5 quantity).
    pub collect_rounds: u64,
    /// Stall count across the pipeline (Lemma 5.3: must be 0).
    pub stalls: u64,
    /// Full report of the pipeline stage.
    pub pipeline_report: RunReport,
}

impl FastMstRun {
    /// Total rounds: measured stages plus the charged partition stage.
    pub fn total_rounds(&self) -> u64 {
        self.fragment_rounds + self.partition_charge.rounds + self.bfs_rounds + self.pipeline_rounds
    }
}

/// The default parameter of Theorem 5.6: `k = ⌈√n⌉`.
pub fn default_k(n: usize) -> usize {
    (n as f64).sqrt().ceil() as usize
}

/// Runs `Fast-MST` with an explicit `k` (exposed for the k-sweep
/// ablation).
///
/// # Panics
///
/// Panics if the graph is disconnected or has fewer than 2 nodes.
pub fn fast_mst_with_k(g: &Graph, k: usize) -> FastMstRun {
    fast_mst_from_root(g, k, NodeId(0), EngineConfig::default())
}

/// Runs `Fast-MST` from an explicit BFS root (see [`fast_mst_elected`]
/// for the root-free composition), every measured stage on the
/// synchronous engine under `config`.
///
/// # Panics
///
/// Panics if the graph is disconnected or has fewer than 2 nodes.
pub fn fast_mst_from_root(g: &Graph, k: usize, root: NodeId, config: EngineConfig) -> FastMstRun {
    assert!(g.node_count() >= 2, "MST needs at least two nodes");

    // Stage 1: SimpleMST fragments (measured).
    let fragments: DistFragments = run_simple_mst(g, k, &Executor::Sync(config));

    // Stage 2: DOMPartition(k) per fragment (charged; parallel => max).
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); fragments.roots.len()];
    for v in g.nodes() {
        members[fragments.fragment_of[v.0]].push(v);
    }
    let mut frag_edges: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); fragments.roots.len()];
    for &e in &fragments.tree_edges {
        let er = g.edge(e);
        frag_edges[fragments.fragment_of[er.u.0]].push((er.u, er.v));
    }
    let mut cluster_of = vec![0u64; g.node_count()];
    let mut cluster_count = 0usize;
    let mut partition_charge = Charge::default();
    for (f, mem) in members.into_iter().enumerate() {
        let res = dom_partition(g, mem, &frag_edges[f], k);
        if res.charge.rounds > partition_charge.rounds {
            partition_charge = res.charge;
        }
        for (center, cmembers) in &res.clusters {
            cluster_count += 1;
            let cid = g.id_of(*center);
            for &v in cmembers {
                cluster_of[v.0] = cid;
            }
        }
    }
    kdom_congest::trace::emit_phase("DOMPartition");
    kdom_congest::trace::emit_charge(partition_charge.rounds);

    // Stage 3: BFS + Pipeline (measured).
    let run: PipelineRun = run_pipeline(g, root, &cluster_of, true, false, config);

    // Final MST: fragment-internal edges + selected inter-cluster edges.
    let weight_to_edge: std::collections::HashMap<u64, EdgeId> =
        g.edges().iter().map(|e| (e.weight, e.id)).collect();
    let mut mst_edges: Vec<EdgeId> = fragments.tree_edges.clone();
    let selected: std::collections::HashSet<EdgeId> = mst_edges.iter().copied().collect();
    for w in &run.mst_weights {
        let e = weight_to_edge[w];
        if !selected.contains(&e) {
            mst_edges.push(e);
        }
    }

    FastMstRun {
        mst_edges,
        k,
        cluster_count,
        fragment_rounds: fragments.report.rounds,
        partition_charge,
        bfs_rounds: run.bfs_report.rounds,
        pipeline_rounds: run.report.rounds,
        collect_rounds: run.collect_rounds,
        stalls: run.stalls,
        pipeline_report: run.report,
    }
}

/// Runs `Fast-MST` with the paper's `k = ⌈√n⌉` (Theorem 5.6).
pub fn fast_mst(g: &Graph) -> FastMstRun {
    fast_mst_with_k(g, default_k(g.node_count()))
}

/// Root-free `Fast-MST`: elects the maximum-id node first (`O(Diam)`
/// measured rounds, added to the BFS stage), then runs the usual
/// composition from the elected leader.
pub fn fast_mst_elected(g: &Graph) -> FastMstRun {
    let (leader, election_report) = kdom_core::dist::election::elect_leader(g);
    let mut run = fast_mst_from_root(
        g,
        default_k(g.node_count()),
        leader,
        EngineConfig::default(),
    );
    run.bfs_rounds += election_report.rounds;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdom_graph::generators::gnp_connected;
    use kdom_graph::generators::{Family, GenConfig};
    use kdom_graph::mst_ref::is_mst;

    #[test]
    fn computes_the_mst_on_all_families() {
        for fam in Family::ALL {
            let g = fam.generate(60, 8);
            let run = fast_mst(&g);
            assert!(is_mst(&g, &run.mst_edges), "{fam}");
            assert_eq!(run.stalls, 0, "{fam}");
        }
    }

    #[test]
    fn computes_the_mst_on_random_seeds() {
        for seed in 0..8u64 {
            let g = gnp_connected(&GenConfig::with_seed(80, seed), 0.07);
            let run = fast_mst(&g);
            assert!(is_mst(&g, &run.mst_edges), "seed {seed}");
        }
    }

    #[test]
    fn cluster_count_at_most_n_over_k() {
        let g = Family::Grid.generate(225, 4);
        let run = fast_mst(&g);
        assert!(
            run.cluster_count <= 225 / (run.k + 1).max(1) + 1,
            "N = {} with k = {}",
            run.cluster_count,
            run.k
        );
    }

    #[test]
    fn k_sweep_stays_correct() {
        let g = gnp_connected(&GenConfig::with_seed(64, 3), 0.1);
        for k in [1usize, 2, 4, 8, 16, 32] {
            let run = fast_mst_with_k(&g, k);
            assert!(is_mst(&g, &run.mst_edges), "k = {k}");
        }
    }

    #[test]
    fn elected_variant_is_correct_and_costs_a_diameter_more() {
        let g = Family::Grid.generate(100, 9);
        let plain = fast_mst(&g);
        let elected = fast_mst_elected(&g);
        assert!(is_mst(&g, &elected.mst_edges));
        assert!(
            elected.bfs_rounds > plain.bfs_rounds,
            "election rounds included"
        );
        assert!(elected.bfs_rounds <= plain.bfs_rounds + 3 * 100);
    }

    #[test]
    fn round_breakdown_adds_up() {
        let g = Family::Grid.generate(100, 5);
        let run = fast_mst(&g);
        assert_eq!(
            run.total_rounds(),
            run.fragment_rounds
                + run.partition_charge.rounds
                + run.bfs_rounds
                + run.pipeline_rounds
        );
        assert!(run.fragment_rounds > 0 && run.bfs_rounds > 0 && run.pipeline_rounds > 0);
    }

    #[test]
    fn two_node_graph() {
        let mut b = kdom_graph::GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 9);
        let g = b.build();
        let run = fast_mst(&g);
        assert_eq!(run.mst_edges.len(), 1);
        assert!(is_mst(&g, &run.mst_edges));
    }
}
