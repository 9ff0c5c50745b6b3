//! The service-layer dispatcher: a typed [`RunSpec`] in, an executed
//! run out.
//!
//! The job scheduler ([`kdom_congest::jobs::JobPool`]) is deliberately
//! algorithm-agnostic — it executes an opaque [`Runner`] closure. This
//! module supplies the production runner: it sits at the top of the
//! algorithm stack (graph → congest → core → mst), so it can dispatch a
//! spec's [`Algo`] tag onto the actual compositions and harvest one
//! `u64` per node as the job's output row. The `kdom-serve` binary, the
//! sweep benchmarks, and the parity tests all share this one dispatch.

use std::sync::Arc;

use kdom_congest::jobs::{Algo, JobOutput, RunSpec, Runner};
use kdom_congest::SimError;
use kdom_core::dist::bfs::run_bfs;
use kdom_core::dist::executor::Executor;
use kdom_core::dist::fastdom::fast_dom_g_distributed;
use kdom_core::dist::fragments::run_simple_mst;
use kdom_core::fastdom::WithinCluster;
use kdom_graph::{Graph, NodeId};

/// The `k` a spec resolves to on `g`: the spec's own `k` when nonzero,
/// the paper's default `k(n) = ⌈√n⌉` ([`crate::fastmst::default_k`])
/// otherwise.
pub fn resolve_k(spec: &RunSpec, g: &Graph) -> usize {
    if spec.k == 0 {
        crate::fastmst::default_k(g.node_count())
    } else {
        spec.k as usize
    }
}

/// Runs `spec` on `g` and harvests the result.
///
/// Per-node output rows, in node order:
///
/// * [`Algo::SimpleMst`] — fragment-tree parent port + 1 (`0` marks a
///   fragment root), matching the `kdom-shard` harvest convention;
/// * [`Algo::FastDomG`] — the application id of the node's dominating
///   center;
/// * [`Algo::Bfs`] — BFS parent port + 1 (`0` marks the root, node 0).
///
/// The returned [`JobOutput::trace`] is always empty: trace capture is
/// the scheduler's job (it installs the thread-scoped policy around
/// this call and harvests the sink itself).
///
/// # Errors
///
/// Propagates the simulator's [`SimError`] from stages that surface it;
/// stages that assert internally (the SimpleMST and FastDOM drivers)
/// panic instead, which a [`kdom_congest::jobs::JobPool`] worker
/// converts into a failed job.
pub fn run(g: &Graph, spec: &RunSpec) -> Result<JobOutput, SimError> {
    let exec = Executor::from(spec);
    let k = resolve_k(spec, g);
    match spec.algo {
        Algo::SimpleMst => {
            let frags = run_simple_mst(g, k, &exec);
            let outputs = frags
                .parents
                .iter()
                .map(|p| p.map_or(0, |p| p.0 as u64 + 1))
                .collect();
            Ok(JobOutput {
                report: frags.report,
                outputs,
                trace: Vec::new(),
            })
        }
        Algo::FastDomG => {
            let (dom, report) = fast_dom_g_distributed(g, k, WithinCluster::OptimalDp, &exec);
            let outputs = g
                .nodes()
                .map(|v| g.id_of(dom.clustering.center(dom.clustering.cluster_of(v))))
                .collect();
            Ok(JobOutput {
                report,
                outputs,
                trace: Vec::new(),
            })
        }
        Algo::Bfs => {
            let (nodes, report) = run_bfs(g, NodeId(0), &exec)?;
            let outputs = nodes
                .iter()
                .map(|n| n.parent.map_or(0, |p| p.0 as u64 + 1))
                .collect();
            Ok(JobOutput {
                report,
                outputs,
                trace: Vec::new(),
            })
        }
    }
}

/// The production [`Runner`]: [`run`] as a pool-ready shared closure.
pub fn runner() -> Runner {
    Arc::new(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdom_congest::jobs::ExecSpec;
    use kdom_core::verify::check_k_dominating;
    use kdom_graph::generators::Family;

    #[test]
    fn dispatch_covers_every_algorithm() {
        let g = Family::Grid.generate(49, 3);
        for algo in Algo::ALL {
            let spec = RunSpec::default().with_algo(algo).with_k(3);
            let out = run(&g, &spec).unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert_eq!(out.outputs.len(), g.node_count(), "{algo}");
            assert!(out.report.rounds > 0, "{algo}: rounds must be measured");
            assert!(out.trace.is_empty(), "{algo}: trace is the pool's job");
        }
    }

    #[test]
    fn fastdom_outputs_name_a_k_dominating_set() {
        let g = Family::Gnp.generate(80, 5);
        let k = 4;
        let spec = RunSpec::default()
            .with_algo(Algo::FastDomG)
            .with_k(k as u64);
        let out = run(&g, &spec).expect("fastdom runs");
        let id_to_node: std::collections::HashMap<u64, NodeId> =
            g.nodes().map(|v| (g.id_of(v), v)).collect();
        let mut centers: Vec<NodeId> = out.outputs.iter().map(|id| id_to_node[id]).collect();
        centers.sort_unstable();
        centers.dedup();
        check_k_dominating(&g, &centers, k).expect("harvest names the dominators");
    }

    #[test]
    fn bfs_outputs_encode_a_rooted_tree() {
        let g = Family::Path.generate(12, 0);
        let spec = RunSpec::default().with_algo(Algo::Bfs);
        let out = run(&g, &spec).expect("bfs runs");
        assert_eq!(out.outputs[0], 0, "node 0 is the root");
        assert_eq!(
            out.outputs.iter().filter(|&&p| p == 0).count(),
            1,
            "exactly one root on a connected graph"
        );
    }

    #[test]
    fn auto_k_resolves_to_the_paper_default() {
        let g = Family::Grid.generate(100, 1);
        assert_eq!(resolve_k(&RunSpec::default(), &g), 10);
        assert_eq!(resolve_k(&RunSpec::default().with_k(3), &g), 3);
    }

    #[test]
    fn backends_agree_on_simple_mst_outputs() {
        let g = Family::Gnp.generate(40, 9);
        let sync = run(&g, &RunSpec::default().with_k(2)).expect("sync");
        let alpha = run(
            &g,
            &RunSpec::default()
                .with_k(2)
                .with_seed(13)
                .with_exec(ExecSpec::ReliableAlpha { max_delay: 3 }),
        )
        .expect("reliable-alpha");
        assert_eq!(sync.outputs, alpha.outputs, "backends agree on the trees");
    }
}
