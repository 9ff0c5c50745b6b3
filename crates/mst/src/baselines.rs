//! Baseline distributed MST algorithms the paper compares against.
//!
//! * [`phase_doubling_mst`] — the `O(n)`-round Awerbuch-style algorithm
//!   (\[A2\] in the paper): `SimpleMST` run all the way (`k = n − 1`), i.e.
//!   controlled Borůvka with phase windows `5·2^i`, until one fragment
//!   remains. This stands in for the `O(n log n)` GHS family: same
//!   structure, better phase scheduling.
//! * [`collect_all_mst`] — the trivial `O(m + Diam)` algorithm the paper
//!   mentions for the unbounded-message model, done honestly in CONGEST:
//!   every edge description is upcast to the root (no elimination), which
//!   computes the MST locally.
//! * [`pipeline_only_mst`] — BFS + `Pipeline` with singleton clusters:
//!   the red rule alone gives an `O(n + Diam)` MST, isolating the value
//!   of the `FastDOM` contraction stage.

use kdom_congest::EngineConfig;
use kdom_core::dist::executor::Executor;
use kdom_core::dist::fragments::run_simple_mst;
use kdom_graph::{EdgeId, Graph, NodeId};

use crate::pipeline::run_pipeline;

/// A baseline run: the MST and its measured round count.
#[derive(Clone, Debug)]
pub struct BaselineRun {
    /// The MST edges.
    pub mst_edges: Vec<EdgeId>,
    /// Measured CONGEST rounds.
    pub rounds: u64,
    /// Total messages sent.
    pub messages: u64,
}

/// Awerbuch-style phase-doubling MST: `O(n)` rounds, measured.
pub fn phase_doubling_mst(g: &Graph) -> BaselineRun {
    let n = g.node_count();
    let fragments = run_simple_mst(g, n.saturating_sub(1).max(1), &Executor::default());
    assert_eq!(
        fragments.roots.len(),
        1,
        "k = n-1 runs Borůvka to completion on a connected graph"
    );
    BaselineRun {
        mst_edges: fragments.tree_edges,
        rounds: fragments.report.rounds,
        messages: fragments.report.messages,
    }
}

fn map_weights(g: &Graph, weights: &[u64]) -> Vec<EdgeId> {
    let w2e: std::collections::HashMap<u64, EdgeId> =
        g.edges().iter().map(|e| (e.weight, e.id)).collect();
    weights.iter().map(|w| w2e[w]).collect()
}

/// BFS + `Pipeline` from node 0 with singleton clusters, measured.
fn singleton_pipeline(g: &Graph, eliminate: bool) -> BaselineRun {
    let clusters: Vec<u64> = g.nodes().map(|v| g.id_of(v)).collect();
    let run = run_pipeline(
        g,
        NodeId(0),
        &clusters,
        eliminate,
        false,
        EngineConfig::default(),
    );
    BaselineRun {
        mst_edges: map_weights(g, &run.mst_weights),
        rounds: run.bfs_report.rounds + run.report.rounds,
        messages: run.bfs_report.messages + run.report.messages,
    }
}

/// Collect-everything-at-root MST: `O(m + Diam)` rounds, measured.
pub fn collect_all_mst(g: &Graph) -> BaselineRun {
    singleton_pipeline(g, false)
}

/// Pipeline-only MST (singleton clusters, red rule on): `O(n + Diam)`
/// rounds, measured.
pub fn pipeline_only_mst(g: &Graph) -> BaselineRun {
    singleton_pipeline(g, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdom_graph::generators::gnp_connected;
    use kdom_graph::generators::{Family, GenConfig};
    use kdom_graph::mst_ref::is_mst;

    #[test]
    fn all_baselines_compute_the_mst() {
        for fam in Family::ALL {
            let g = fam.generate(50, 12);
            for (name, run) in [
                ("phase-doubling", phase_doubling_mst(&g)),
                ("collect-all", collect_all_mst(&g)),
                ("pipeline-only", pipeline_only_mst(&g)),
            ] {
                assert!(is_mst(&g, &run.mst_edges), "{name} on {fam}");
            }
        }
    }

    #[test]
    fn collect_all_sends_more_messages_than_pipeline_only() {
        let g = gnp_connected(&GenConfig::with_seed(60, 1), 0.2);
        let ca = collect_all_mst(&g);
        let po = pipeline_only_mst(&g);
        assert!(ca.messages > po.messages);
        assert!(ca.rounds >= po.rounds);
    }

    #[test]
    fn phase_doubling_rounds_linear_in_n() {
        // rounds ≈ Σ 5·2^i up to 2^⌈log n⌉ ⇒ ≤ ~20n
        for n in [32usize, 64, 128] {
            let g = Family::RandomTree.generate(n, 3);
            let run = phase_doubling_mst(&g);
            assert!(run.rounds <= 25 * n as u64 + 200, "n={n}: {}", run.rounds);
        }
    }

    #[test]
    fn fastmst_beats_phase_doubling_on_low_diameter_graphs() {
        let g = gnp_connected(&GenConfig::with_seed(400, 7), 0.03);
        let fast = crate::fastmst::fast_mst(&g);
        let base = phase_doubling_mst(&g);
        assert!(is_mst(&g, &fast.mst_edges));
        assert!(
            fast.total_rounds() < base.rounds,
            "FastMST {} vs phase-doubling {}",
            fast.total_rounds(),
            base.rounds
        );
    }
}
