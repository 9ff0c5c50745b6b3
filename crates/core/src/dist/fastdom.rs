//! Distributed `FastDOM_T` / `FastDOM_G` compositions with a *measured*
//! within-cluster stage.
//!
//! The `DOMPartition` stage still runs on the charged cluster engine (see
//! DESIGN.md), but everything around it executes per-node on the
//! simulator: `SimpleMST` (for the graph variant) and the within-cluster
//! k-domination — either the faithful `DiamDOM` censuses
//! ([`crate::dist::diamdom`]) or the exact DP ([`crate::dist::treedp`])
//! — run forest-parallel over all clusters at once, and the measured
//! rounds are reported separately from the charge.

use std::collections::VecDeque;

use kdom_congest::{Port, RunReport};
use kdom_graph::{Graph, NodeId};

use crate::cluster::Charge;
use crate::clustering::Clustering;
use crate::dist::diamdom::{DiamDomNode, TreeConfig};
use crate::dist::executor::Executor;
use crate::dist::fragments::run_simple_mst;
use crate::dist::treedp::{DpConfig, TreeDpNode};
use crate::fastdom::WithinCluster;
use crate::partition::dom_partition;

/// Result of a distributed `FastDOM` run.
#[derive(Clone, Debug)]
pub struct DistFastDom {
    /// The final radius-≤k partition around the dominators.
    pub clustering: Clustering,
    /// Measured rounds of the `SimpleMST` stage (0 for the tree variant).
    pub fragment_rounds: u64,
    /// Charged rounds of the `DOMPartition` stage.
    pub partition_charge: Charge,
    /// Measured report of the within-cluster stage (all clusters in
    /// parallel).
    pub within_report: RunReport,
}

impl DistFastDom {
    /// The k-dominating set.
    pub fn dominators(&self) -> &[NodeId] {
        self.clustering.centers()
    }

    /// Total rounds: measured stages plus the partition charge.
    pub fn total_rounds(&self) -> u64 {
        self.fragment_rounds + self.partition_charge.rounds + self.within_report.rounds
    }
}

/// Per-node cluster-tree structure: parent/children ports plus depth,
/// derived from a (center, members) partition over given tree edges.
struct ClusterTreePlan {
    parent: Vec<Option<Port>>,
    children: Vec<Vec<Port>>,
    depth: Vec<u32>,
}

fn plan_cluster_trees(
    g: &Graph,
    clusters: &[(NodeId, Vec<NodeId>)],
    tree_adj: &[Vec<NodeId>],
) -> ClusterTreePlan {
    let n = g.node_count();
    let mut cluster_of = vec![usize::MAX; n];
    for (i, (_, members)) in clusters.iter().enumerate() {
        for &v in members {
            cluster_of[v.0] = i;
        }
    }
    let mut parent = vec![None; n];
    let mut children = vec![Vec::new(); n];
    let mut depth = vec![0u32; n];
    let mut seen = vec![false; n];
    for (i, (center, members)) in clusters.iter().enumerate() {
        seen[center.0] = true;
        let mut q = VecDeque::from([*center]);
        let mut reached = 1usize;
        while let Some(u) = q.pop_front() {
            for &w in &tree_adj[u.0] {
                if cluster_of[w.0] == i && !seen[w.0] {
                    seen[w.0] = true;
                    // each node scans its own arcs once, for its parent;
                    // the parent's port is that arc's twin, so a hub
                    // never scans its arcs once per child
                    let up = g
                        .neighbors(w)
                        .iter()
                        .position(|a| a.to == u)
                        .expect("tree edge exists in the graph");
                    parent[w.0] = Some(Port(up));
                    children[u.0].push(Port(g.twin_port(w, up)));
                    depth[w.0] = depth[u.0] + 1;
                    reached += 1;
                    q.push_back(w);
                }
            }
        }
        assert_eq!(reached, members.len(), "cluster must be tree-connected");
    }
    ClusterTreePlan {
        parent,
        children,
        depth,
    }
}

/// Runs the within-cluster stage distributedly over all clusters and
/// returns (per-node dominator id, measured report).
fn run_within(
    g: &Graph,
    plan: &ClusterTreePlan,
    k: usize,
    solver: WithinCluster,
    exec: &Executor,
) -> (Vec<u64>, RunReport) {
    let n = g.node_count();
    let budget = 30 * (n as u64 + k as u64) + 128;
    kdom_congest::trace::emit_phase("FastDOM/within");
    match solver {
        WithinCluster::DiamDom => {
            let nodes: Vec<DiamDomNode> = (0..n)
                .map(|v| {
                    DiamDomNode::new(TreeConfig {
                        parent: plan.parent[v],
                        children: plan.children[v].clone(),
                        k,
                        preset_depth: Some(plan.depth[v]),
                    })
                })
                .collect();
            let (nodes, report) = exec
                .run(g, nodes, budget)
                .unwrap_or_else(|e| panic!("DiamDOM stage failed: {e}"));
            (
                nodes
                    .iter()
                    .map(|x| x.dominator.expect("all nodes claimed"))
                    .collect(),
                report,
            )
        }
        WithinCluster::OptimalDp => {
            let nodes: Vec<TreeDpNode> = (0..n)
                .map(|v| {
                    TreeDpNode::new(DpConfig {
                        parent: plan.parent[v],
                        children: plan.children[v].clone(),
                        k,
                    })
                })
                .collect();
            let (nodes, report) = exec
                .run(g, nodes, budget)
                .unwrap_or_else(|e| panic!("DP stage failed: {e}"));
            (
                nodes
                    .iter()
                    .map(|x| x.dominator.expect("all nodes claimed"))
                    .collect(),
                report,
            )
        }
    }
}

fn clustering_from_dominators(g: &Graph, dominator_id: &[u64]) -> Clustering {
    let id_to_node: std::collections::HashMap<u64, NodeId> =
        g.nodes().map(|v| (g.id_of(v), v)).collect();
    let mut centers: Vec<NodeId> = Vec::new();
    let mut index_of = std::collections::HashMap::new();
    for v in g.nodes() {
        if dominator_id[v.0] == g.id_of(v) {
            index_of.insert(v, centers.len());
            centers.push(v);
        }
    }
    let cluster_of: Vec<usize> = g
        .nodes()
        .map(|v| index_of[&id_to_node[&dominator_id[v.0]]])
        .collect();
    Clustering::new(cluster_of, centers)
}

/// Distributed `FastDOM_T` on a tree graph: the measured within-cluster
/// stage runs on `exec` (e.g. reliable α over faulty links).
///
/// # Panics
///
/// Panics if `g` is not a tree or a protocol stage fails.
pub fn fast_dom_t_distributed(
    g: &Graph,
    k: usize,
    solver: WithinCluster,
    exec: &Executor,
) -> DistFastDom {
    assert!(
        kdom_graph::properties::is_tree(g),
        "FastDOM_T requires a tree"
    );
    let nodes: Vec<NodeId> = g.nodes().collect();
    let edges: Vec<(NodeId, NodeId)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
    let part = dom_partition(g, nodes, &edges, k);
    kdom_congest::trace::emit_phase("DOMPartition");
    kdom_congest::trace::emit_charge(part.charge.rounds);
    let mut tree_adj: Vec<Vec<NodeId>> = vec![Vec::new(); g.node_count()];
    for &(u, v) in &edges {
        tree_adj[u.0].push(v);
        tree_adj[v.0].push(u);
    }
    let plan = plan_cluster_trees(g, &part.clusters, &tree_adj);
    let (dominator_id, within_report) = run_within(g, &plan, k, solver, exec);
    DistFastDom {
        clustering: clustering_from_dominators(g, &dominator_id),
        fragment_rounds: 0,
        partition_charge: part.charge,
        within_report,
    }
}

/// Distributed `FastDOM_G` on a connected graph: measured `SimpleMST`
/// stage, charged `DOMPartition` stage, measured within-cluster stage.
/// Both measured stages run on `exec` (e.g. reliable α over faulty
/// links). Also returns the absorbed [`RunReport`] of the whole
/// composition — the measured `SimpleMST` report, the charged
/// `DOMPartition` rounds, and the measured within-cluster report — which
/// the service layer schedules and caches.
///
/// # Panics
///
/// Panics if a protocol stage fails.
pub fn fast_dom_g_distributed(
    g: &Graph,
    k: usize,
    solver: WithinCluster,
    exec: &Executor,
) -> (DistFastDom, RunReport) {
    let fragments = run_simple_mst(g, k, exec);
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); fragments.roots.len()];
    for v in g.nodes() {
        members[fragments.fragment_of[v.0]].push(v);
    }
    let mut frag_edges: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); fragments.roots.len()];
    let mut tree_adj: Vec<Vec<NodeId>> = vec![Vec::new(); g.node_count()];
    for &e in &fragments.tree_edges {
        let er = g.edge(e);
        frag_edges[fragments.fragment_of[er.u.0]].push((er.u, er.v));
        tree_adj[er.u.0].push(er.v);
        tree_adj[er.v.0].push(er.u);
    }
    let mut charge = Charge::default();
    let mut all_clusters = Vec::new();
    for (f, mem) in members.into_iter().enumerate() {
        let res = dom_partition(g, mem, &frag_edges[f], k);
        if res.charge.rounds > charge.rounds {
            charge = res.charge;
        }
        all_clusters.extend(res.clusters);
    }
    kdom_congest::trace::emit_phase("DOMPartition");
    kdom_congest::trace::emit_charge(charge.rounds);
    let plan = plan_cluster_trees(g, &all_clusters, &tree_adj);
    let (dominator_id, within_report) = run_within(g, &plan, k, solver, exec);
    let mut report = fragments.report.clone();
    report.charge_rounds(charge.rounds);
    report.absorb(&within_report);
    (
        DistFastDom {
            clustering: clustering_from_dominators(g, &dominator_id),
            fragment_rounds: fragments.report.rounds,
            partition_charge: charge,
            within_report,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_fastdom_output, check_k_dominating};
    use kdom_graph::generators::Family;

    #[test]
    fn distributed_fastdom_t_meets_theorem_32() {
        for fam in Family::TREES {
            for k in [2usize, 5] {
                let g = fam.generate(150, 7);
                let res =
                    fast_dom_t_distributed(&g, k, WithinCluster::OptimalDp, &Executor::default());
                check_fastdom_output(&g, &res.clustering, k)
                    .unwrap_or_else(|e| panic!("{fam} k={k}: {e}"));
                assert!(
                    res.within_report.rounds > 0,
                    "{fam}: stage must be measured"
                );
            }
        }
    }

    #[test]
    fn distributed_fastdom_t_diamdom_solver() {
        for fam in Family::TREES {
            let k = 4;
            let g = fam.generate(120, 9);
            let res = fast_dom_t_distributed(&g, k, WithinCluster::DiamDom, &Executor::default());
            check_k_dominating(&g, res.dominators(), k).unwrap_or_else(|e| panic!("{fam}: {e}"));
            crate::verify::check_clusters(&g, &res.clustering, 1, k as u32)
                .unwrap_or_else(|e| panic!("{fam}: {e}"));
        }
    }

    #[test]
    fn distributed_fastdom_g_meets_theorem_44() {
        for fam in [Family::Grid, Family::Gnp] {
            for k in [3usize, 6] {
                let g = fam.generate(180, 11);
                let (res, _) =
                    fast_dom_g_distributed(&g, k, WithinCluster::OptimalDp, &Executor::default());
                check_fastdom_output(&g, &res.clustering, k)
                    .unwrap_or_else(|e| panic!("{fam} k={k}: {e}"));
                assert!(res.fragment_rounds > 0);
            }
        }
    }

    #[test]
    fn distributed_matches_sequential_dominator_count_with_dp() {
        // both run the same partition + the same deterministic DP, so
        // the dominating sets coincide exactly
        let g = Family::RandomTree.generate(130, 13);
        let k = 4;
        let dist = fast_dom_t_distributed(&g, k, WithinCluster::OptimalDp, &Executor::default());
        let seq = crate::fastdom::fast_dom_t(&g, k, WithinCluster::OptimalDp);
        let mut a = dist.dominators().to_vec();
        let mut b = seq.dominators().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        // regression: BalancedDOM contraction once iterated a HashMap, so
        // two runs in the same process could disagree on cluster ids and
        // hence on DP tie-breaks — the fault-recovery suite needs
        // run-to-run determinism to compare backends
        let g = Family::RandomTree.generate(60, 30);
        let a = fast_dom_t_distributed(&g, 2, WithinCluster::OptimalDp, &Executor::default());
        let b = fast_dom_t_distributed(&g, 2, WithinCluster::OptimalDp, &Executor::default());
        assert_eq!(a.dominators(), b.dominators());
        let gg = Family::Gnp.generate(60, 30);
        let (ga, _) =
            fast_dom_g_distributed(&gg, 2, WithinCluster::OptimalDp, &Executor::default());
        let (gb, _) =
            fast_dom_g_distributed(&gg, 2, WithinCluster::OptimalDp, &Executor::default());
        assert_eq!(ga.dominators(), gb.dominators());
    }

    /// FNV-1a over the debug rendering of a `FastDOM_G` run: its
    /// clustering, stage reports and absorbed report together.
    fn run_hash(g: &Graph, k: usize, solver: WithinCluster) -> u64 {
        let (res, report) = fast_dom_g_distributed(g, k, solver, &Executor::default());
        format!("{res:?}{report:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
    }

    #[test]
    fn hub_runs_reproduce_recorded_hashes() {
        // Recorded when the cluster-tree plan still scanned a hub's arcs
        // once per child and SimpleMST deduped attachments by scanning
        // its children: the linear versions keep every child order, so
        // the DP and DiamDOM tie-breaks, and hence the hashes, stay put.
        use kdom_graph::generators::{broom, star, GenConfig};
        let star = star(&GenConfig::with_seed(5000, 1));
        let broom = broom(&GenConfig::with_seed(5000, 2), 2500);
        let cases = [
            (&star, 2, WithinCluster::OptimalDp, 0x24cc_8220_d83f_bdd5),
            (&star, 2, WithinCluster::DiamDom, 0x2078_628a_298d_da37),
            (&star, 4, WithinCluster::OptimalDp, 0xbf0f_7cb7_d7a2_559a),
            (&star, 4, WithinCluster::DiamDom, 0x46e4_f0d9_d70e_7f40),
            (&broom, 2, WithinCluster::OptimalDp, 0x3abb_703f_592b_3af0),
            (&broom, 2, WithinCluster::DiamDom, 0x4bb5_3048_ffc6_522d),
            (&broom, 4, WithinCluster::OptimalDp, 0xfa41_5d21_f5ac_dd2d),
            (&broom, 4, WithinCluster::DiamDom, 0x330a_52f7_710a_0aa2),
        ];
        for (i, &(g, k, solver, want)) in cases.iter().enumerate() {
            let got = run_hash(g, k, solver);
            assert_eq!(got, want, "case {i}: k={k} {solver:?}: {got:#018x}");
        }
    }

    #[test]
    fn measured_within_stage_scales_with_cluster_radius_not_n() {
        let k = 3;
        let small = fast_dom_t_distributed(
            &Family::RandomTree.generate(200, 15),
            k,
            WithinCluster::OptimalDp,
            &Executor::default(),
        );
        let large = fast_dom_t_distributed(
            &Family::RandomTree.generate(2000, 15),
            k,
            WithinCluster::OptimalDp,
            &Executor::default(),
        );
        // cluster radii are ≤ 5k+2 in both, so the measured stage is flat
        assert!(
            large.within_report.rounds <= small.within_report.rounds + 40,
            "{} vs {}",
            large.within_report.rounds,
            small.within_report.rounds
        );
    }
}
