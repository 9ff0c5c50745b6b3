//! The `DOMPartition` family (§3.2): partitioning a tree into clusters of
//! size ≥ k+1 and radius O(k).
//!
//! Three variants, matching the paper's development:
//!
//! * [`dom_partition_1`] (Fig. 5) — `⌈log(k+1)⌉` rounds of `BalancedDOM` +
//!   contraction; clusters ≥ k+1 nodes, radius ≤ 4k², charged time
//!   `O(k² log* n)`;
//! * [`dom_partition_2`] (Fig. 6) — additionally removes clusters of
//!   depth ≥ k+1 from the tree as they form; radius ≤ 5k+2, charged time
//!   `O(k log k log* n)`;
//! * [`dom_partition`] (Fig. 6 + Fig. 7) — additionally caps iteration `i`
//!   participation at radius `2·2^i`, so iteration `i` costs `O(2^i)`;
//!   radius ≤ 5k+2, charged time `O(k log* n)`.
//!
//! One deviation from the extended abstract, documented in DESIGN.md: the
//! participation test of step (3-II) here is `radius ≤ min(2·2^i, k)`
//! (the EA says `2·2^i` alone). Clusters of radius above `k` never merge
//! again as *participants*, which is what the `5k+2` radius bound of
//! Lemma 3.7(b) needs; with the EA's unclamped test, a radius-`4k`
//! participant could produce a `12k`-radius cluster. The time analysis is
//! unaffected.

use kdom_graph::{Graph, NodeId};

use crate::cluster::{Charge, ClusterEngine, ClusterState};
use crate::logstar::ceil_log2;

/// Output of a partition run.
#[derive(Clone, Debug)]
pub struct PartitionResult {
    /// The clusters as (center, members) pairs. They partition the scope.
    pub clusters: Vec<(NodeId, Vec<NodeId>)>,
    /// Charged-round ledger (see `crate::cluster` for the model).
    pub charge: Charge,
    /// Number of main-loop iterations executed.
    pub iterations: u32,
}

impl PartitionResult {
    /// Smallest cluster size.
    pub fn min_size(&self) -> usize {
        self.clusters
            .iter()
            .map(|(_, m)| m.len())
            .min()
            .unwrap_or(0)
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }
}

fn finish(eng: ClusterEngine<'_>, charge: Charge, iterations: u32) -> PartitionResult {
    let clusters = eng.extract(&[
        ClusterState::Out,
        ClusterState::Forest,
        ClusterState::Waiting,
    ]);
    debug_assert!(eng.covers_scope(&[
        ClusterState::Out,
        ClusterState::Forest,
        ClusterState::Waiting
    ]));
    PartitionResult {
        clusters,
        charge,
        iterations,
    }
}

/// `DOMPartition_1(k)` (Fig. 5): repeated `BalancedDOM` + contraction.
///
/// Guarantees (Lemma 3.4) for an input tree of `n ≥ k+1` nodes: every
/// cluster has ≥ k+1 nodes and radius ≤ 4k²; charged time `O(k² log* n)`.
///
/// # Panics
///
/// Panics if `tree_edges` do not form a tree over `nodes`.
pub fn dom_partition_1(
    g: &Graph,
    nodes: Vec<NodeId>,
    tree_edges: &[(NodeId, NodeId)],
    k: usize,
) -> PartitionResult {
    let mut eng = ClusterEngine::new(g, nodes, tree_edges);
    let mut charge = Charge::default();
    let max_iters = ceil_log2(k as u64 + 1);
    let mut iterations = 0;
    for _ in 0..max_iters {
        let parts = eng.in_state(ClusterState::Forest);
        if parts.len() <= 1 {
            break;
        }
        iterations += 1;
        let step = eng.balanced_step(&parts);
        charge.virtual_step(step.virtual_rounds, step.max_radius_before);
        let r_after = eng
            .in_state(ClusterState::Forest)
            .iter()
            .map(|&c| eng.radius(c))
            .max()
            .unwrap_or(0);
        // contraction bookkeeping: new cluster ids + depths, one
        // intra-cluster broadcast over the merged clusters
        charge.flat(2 * u64::from(r_after) + 1);
    }
    finish(eng, charge, iterations)
}

/// Shared step (4) of Fig. 6: fold the small-cluster set `S` into the
/// output. Clusters larger than `k` move as-is; the rest merge into a
/// neighboring output cluster (Lemma 3.5 guarantees one exists; isolated
/// leftovers — possible only when the whole input tree is small — are
/// emitted as-is).
fn fold_small_clusters(eng: &mut ClusterEngine<'_>, charge: &mut Charge, k: usize) {
    loop {
        let small = eng.in_state(ClusterState::Small);
        if small.is_empty() {
            break;
        }
        let mut progressed = false;
        for c in small {
            if eng.state(c) != ClusterState::Small {
                continue; // absorbed earlier this pass
            }
            if eng.size(c) > k {
                eng.set_state(c, ClusterState::Out);
                progressed = true;
                continue;
            }
            let neighbors = eng.neighbor_clusters(c);
            if let Some(&host) = neighbors
                .iter()
                .find(|&&h| eng.state(h) == ClusterState::Out)
            {
                eng.attach(c, host);
                charge.flat(2 * (k as u64) + 3);
                progressed = true;
            } else if neighbors.is_empty() {
                // the whole input tree was one small cluster
                eng.set_state(c, ClusterState::Out);
                progressed = true;
            }
        }
        if !progressed {
            // only mutually-Small neighborhoods remain: chain them into
            // one cluster, then emit it (its combined size is the whole
            // residual component, ≥ k+1 when the input tree was).
            let small = eng.in_state(ClusterState::Small);
            let c = small[0];
            if let Some(&other) = eng
                .neighbor_clusters(c)
                .iter()
                .find(|&&h| eng.state(h) == ClusterState::Small)
            {
                eng.attach(c, other);
                charge.flat(2 * (k as u64) + 3);
            } else {
                eng.set_state(c, ClusterState::Out);
            }
        }
    }
}

/// `DOMPartition_2(k)` (Fig. 6): like `DOMPartition_1` but clusters whose
/// depth reaches `k+1` are removed from the tree as they form, so radii
/// stay bounded by `5k+2` (Lemma 3.6); charged time `O(k log k log* n)`.
///
/// # Panics
///
/// Panics if `tree_edges` do not form a tree over `nodes`.
pub fn dom_partition_2(
    g: &Graph,
    nodes: Vec<NodeId>,
    tree_edges: &[(NodeId, NodeId)],
    k: usize,
) -> PartitionResult {
    let mut eng = ClusterEngine::new(g, nodes, tree_edges);
    let mut charge = Charge::default();
    let max_iters = ceil_log2(k as u64 + 1);
    let mut iterations = 0;
    for _ in 0..max_iters {
        let parts = eng.in_state(ClusterState::Forest);
        if parts.is_empty() {
            break;
        }
        iterations += 1;
        // (3a) BalancedDOM + contraction
        let step = eng.balanced_step(&parts);
        charge.virtual_step(step.virtual_rounds, step.max_radius_before);
        // (3b) remove sufficiently deep clusters (depth probe to k+1)
        charge.flat(2 * (k as u64 + 1) + 1);
        for c in eng.in_state(ClusterState::Forest) {
            if eng.radius(c) > k as u32 {
                eng.set_state(c, ClusterState::Out);
            }
        }
        // (3c) remove lone clusters (singleton virtual trees)
        for c in eng.in_state(ClusterState::Forest) {
            let isolated = eng
                .neighbor_clusters(c)
                .iter()
                .all(|&h| eng.state(h) != ClusterState::Forest);
            if isolated {
                eng.set_state(c, ClusterState::Small);
            }
        }
        charge.flat(1);
    }
    // Leftover forest clusters merged every iteration, so their sizes
    // reached k+1; emit them.
    for c in eng.in_state(ClusterState::Forest) {
        eng.set_state(c, ClusterState::Out);
    }
    // (4) fold S into the output
    fold_small_clusters(&mut eng, &mut charge, k);
    finish(eng, charge, iterations)
}

/// `DOMPartition(k)` (Fig. 6 with the Fig. 7 additions): iteration `i`
/// only lets clusters of radius ≤ `min(2·2^i, k)` participate, charging
/// `O(2^i)` per iteration, for total charged time `O(k log* n)`
/// (Lemma 3.8). Radius ≤ 5k+2, sizes ≥ k+1 (Lemma 3.7).
///
/// # Panics
///
/// Panics if `tree_edges` do not form a tree over `nodes`.
pub fn dom_partition(
    g: &Graph,
    nodes: Vec<NodeId>,
    tree_edges: &[(NodeId, NodeId)],
    k: usize,
) -> PartitionResult {
    let mut eng = ClusterEngine::new(g, nodes, tree_edges);
    let mut charge = Charge::default();
    let max_iters = ceil_log2(k as u64 + 1);
    let mut iterations = 0;
    for i in 1..=u64::from(max_iters) {
        let cap = (2u64 << i).min(k as u64) as u32; // min(2·2^i, k)
                                                    // (3-I) return waiting clusters to the forest
        for c in eng.in_state(ClusterState::Waiting) {
            eng.set_state(c, ClusterState::Forest);
        }
        charge.flat(1);
        let forest = eng.in_state(ClusterState::Forest);
        if forest.is_empty() {
            break;
        }
        iterations += 1;
        // (3-II)+(3-III) radius probe to 2·2^i; non-participants wait
        charge.flat(2 * u64::from(cap) + 1);
        let mut participants = Vec::new();
        for c in forest {
            if eng.radius(c) <= cap {
                participants.push(c);
            } else {
                eng.set_state(c, ClusterState::Waiting);
            }
        }
        // (3-IV) lone participants merge onto a waiting neighbor with a
        // contact of depth ≤ k, or drop to S
        let (lone, participants): (Vec<usize>, Vec<usize>) =
            participants.into_iter().partition(|&c| {
                eng.neighbor_clusters(c)
                    .iter()
                    .all(|&h| eng.state(h) != ClusterState::Forest)
            });
        if !lone.is_empty() {
            charge.flat(2 * (k as u64) + 3);
        }
        for c in lone {
            let host = eng
                .neighbor_clusters(c)
                .into_iter()
                .filter(|&h| eng.state(h) == ClusterState::Waiting)
                .find(|&h| {
                    eng.shallowest_contact(h, c)
                        .is_some_and(|d| d as u64 <= k as u64)
                });
            match host {
                Some(h) => eng.attach(c, h),
                None => eng.set_state(c, ClusterState::Small),
            }
        }
        if participants.is_empty() {
            continue;
        }
        // (3a) BalancedDOM on the participants
        let step = eng.balanced_step(&participants);
        charge.virtual_step(step.virtual_rounds, step.max_radius_before);
        // (3b) deep clusters out (depth counters make this O(1) amortized;
        // we charge the one-shot probe)
        charge.flat(2 * u64::from(cap) + 3);
        for c in eng.in_state(ClusterState::Forest) {
            if eng.radius(c) > k as u32 {
                eng.set_state(c, ClusterState::Out);
            }
        }
    }
    // Post-loop: waiting clusters at the last iteration had radius > k
    // hence ≥ k+1 nodes; forest leftovers doubled to ≥ k+1 — emit both.
    // Anything smaller (possible only on tiny inputs) goes through S.
    for c in eng
        .in_state(ClusterState::Waiting)
        .into_iter()
        .chain(eng.in_state(ClusterState::Forest))
    {
        if eng.size(c) > k {
            eng.set_state(c, ClusterState::Out);
        } else {
            eng.set_state(c, ClusterState::Small);
        }
    }
    fold_small_clusters(&mut eng, &mut charge, k);
    finish(eng, charge, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdom_graph::generators::{broom, caterpillar, path, random_tree};
    use kdom_graph::generators::{Family, GenConfig};
    use kdom_graph::Graph;

    fn scope(g: &Graph) -> (Vec<NodeId>, Vec<(NodeId, NodeId)>) {
        (
            g.nodes().collect(),
            g.edges().iter().map(|e| (e.u, e.v)).collect(),
        )
    }

    /// Checks Definition 3.1: a (k+1, ρ) spanning forest partition.
    fn check(g: &Graph, res: &PartitionResult, k: usize, rho: u32) {
        let n = g.node_count();
        let covered: usize = res.clusters.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(covered, n, "clusters must partition the tree");
        let mut seen = vec![false; n];
        for (center, members) in &res.clusters {
            assert!(members.contains(center), "center inside its cluster");
            for &v in members {
                assert!(!seen[v.0], "node {v:?} in two clusters");
                seen[v.0] = true;
            }
            if n > k {
                assert!(
                    members.len() > k,
                    "cluster of {} nodes < k+1 = {}",
                    members.len(),
                    k + 1
                );
            }
        }
        // radius bound via induced BFS
        let cl = crate::fastdom::clusters_to_clustering(n, &res.clusters);
        crate::verify::check_clusters(g, &cl, 1, rho).unwrap();
    }

    #[test]
    fn partition1_on_paths() {
        for (n, k) in [(20usize, 2usize), (50, 3), (100, 7)] {
            let g = path(&GenConfig::with_seed(n, 1));
            let (nodes, edges) = scope(&g);
            let res = dom_partition_1(&g, nodes, &edges, k);
            check(&g, &res, k, 4 * (k as u32) * (k as u32));
        }
    }

    #[test]
    fn partition2_radius_bound() {
        for (n, k, seed) in [
            (50usize, 2usize, 0u64),
            (100, 3, 1),
            (200, 5, 2),
            (150, 10, 3),
        ] {
            let g = random_tree(&GenConfig::with_seed(n, seed));
            let (nodes, edges) = scope(&g);
            let res = dom_partition_2(&g, nodes, &edges, k);
            check(&g, &res, k, 5 * k as u32 + 2);
        }
    }

    #[test]
    fn partition_full_radius_bound() {
        for (n, k, seed) in [
            (50usize, 2usize, 0u64),
            (100, 3, 1),
            (200, 5, 2),
            (300, 10, 3),
        ] {
            let g = random_tree(&GenConfig::with_seed(n, seed));
            let (nodes, edges) = scope(&g);
            let res = dom_partition(&g, nodes, &edges, k);
            check(&g, &res, k, 5 * k as u32 + 2);
        }
    }

    #[test]
    fn all_variants_on_all_tree_families() {
        for fam in Family::TREES {
            for (n, k) in [(64usize, 3usize), (128, 5)] {
                let g = fam.generate(n, 9);
                let (nodes, edges) = scope(&g);
                let r1 = dom_partition_1(&g, nodes.clone(), &edges, k);
                check(&g, &r1, k, 4 * (k as u32 * k as u32).max(1));
                let r2 = dom_partition_2(&g, nodes.clone(), &edges, k);
                check(&g, &r2, k, 5 * k as u32 + 2);
                let r3 = dom_partition(&g, nodes, &edges, k);
                check(&g, &r3, k, 5 * k as u32 + 2);
            }
        }
    }

    #[test]
    fn small_tree_single_cluster() {
        // n < k+1: everything collapses into one cluster
        let g = path(&GenConfig::with_seed(4, 0));
        let (nodes, edges) = scope(&g);
        for res in [
            dom_partition_1(&g, nodes.clone(), &edges, 10),
            dom_partition_2(&g, nodes.clone(), &edges, 10),
            dom_partition(&g, nodes, &edges, 10),
        ] {
            assert_eq!(res.cluster_count(), 1);
            assert_eq!(res.clusters[0].1.len(), 4);
        }
    }

    #[test]
    fn full_charges_less_than_partition2_on_big_k() {
        let g = path(&GenConfig::with_seed(3000, 5));
        let (nodes, edges) = scope(&g);
        let k = 63;
        let r2 = dom_partition_2(&g, nodes.clone(), &edges, k);
        let r3 = dom_partition(&g, nodes, &edges, k);
        check(&g, &r2, k, 5 * k as u32 + 2);
        check(&g, &r3, k, 5 * k as u32 + 2);
        assert!(
            r3.charge.rounds < r2.charge.rounds,
            "Fig. 7 capping should beat Fig. 6: {} vs {}",
            r3.charge.rounds,
            r2.charge.rounds
        );
    }

    #[test]
    fn broom_and_caterpillar_edge_shapes() {
        let g1 = broom(&GenConfig::with_seed(80, 2), 40);
        let (n1, e1) = scope(&g1);
        check(&g1, &dom_partition(&g1, n1, &e1, 4), 4, 22);
        let g2 = caterpillar(&GenConfig::with_seed(90, 3), 0.5);
        let (n2, e2) = scope(&g2);
        check(&g2, &dom_partition(&g2, n2, &e2, 6), 6, 32);
    }

    #[test]
    fn exact_k_plus_one_tree() {
        // n = k+1 exactly: one cluster of the whole tree
        let g = random_tree(&GenConfig::with_seed(8, 4));
        let (nodes, edges) = scope(&g);
        let res = dom_partition(&g, nodes, &edges, 7);
        assert_eq!(res.cluster_count(), 1);
        check(&g, &res, 7, 5 * 7 + 2);
    }

    /// FNV-1a over a run's clusters (center, size, members in order), its
    /// charge ledger and its iteration count.
    fn result_hash(res: &PartitionResult) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x100_0000_01b3);
        for (center, members) in &res.clusters {
            mix(center.0 as u64);
            mix(members.len() as u64);
            members.iter().for_each(|v| mix(v.0 as u64));
        }
        mix(res.charge.rounds);
        mix(res.charge.virtual_rounds);
        mix(res.charge.cv_iterations);
        mix(u64::from(res.iterations));
        h
    }

    /// `(hash, charged rounds)` of all three variants on `tree` at `k`.
    fn pinned(g: &Graph, tree: &[(NodeId, NodeId)], k: usize) -> Vec<(u64, u64)> {
        let nodes: Vec<NodeId> = g.nodes().collect();
        [
            dom_partition_1(g, nodes.clone(), tree, k),
            dom_partition_2(g, nodes.clone(), tree, k),
            dom_partition(g, nodes, tree, k),
        ]
        .iter()
        .map(|r| (result_hash(r), r.charge.rounds))
        .collect()
    }

    /// Pins all three variants on the MST of a connected G(6000, 12000)
    /// with k = ⌈√n⌉ (the Fast-MST setting), and on a 6000-node broom
    /// whose hub has 3000 leaves: clusters, member order and charges
    /// must stay exactly as recorded.
    #[test]
    fn partitions_of_6000_node_trees_reproduce_recorded_runs() {
        let g = kdom_graph::generators::gnm_connected(&GenConfig::with_seed(6000, 3), 12_000);
        let mst: Vec<(NodeId, NodeId)> = kdom_graph::mst_ref::kruskal(&g)
            .into_iter()
            .map(|e| (g.edge(e).u, g.edge(e).v))
            .collect();
        assert_eq!(
            pinned(&g, &mst, 78),
            [
                (0xd084_b188_af81_033e, 4408),
                (0xadf3_4a71_e2dd_cbb9, 5219),
                (0x5d36_1f9b_3b05_0710, 5254),
            ]
        );
        let hub = broom(&GenConfig::with_seed(6000, 4), 3000);
        let (_, edges) = scope(&hub);
        assert_eq!(
            pinned(&hub, &edges, 78),
            [
                (0x3070_4a3f_3653_bbc8, 12_709),
                (0x156d_1e95_98e0_fad9, 5617),
                (0x8b30_a7e6_dabb_dd33, 5812),
            ]
        );
    }

    #[test]
    fn charges_scale_with_k_not_n() {
        // For fixed k, charged rounds should be flat as n grows.
        let k = 7;
        let mut prev = 0u64;
        for n in [500usize, 1000, 2000] {
            let g = path(&GenConfig::with_seed(n, 6));
            let (nodes, edges) = scope(&g);
            let res = dom_partition(&g, nodes, &edges, k);
            if prev > 0 {
                assert!(
                    res.charge.rounds <= prev * 2,
                    "charges must not grow with n: {} then {}",
                    prev,
                    res.charge.rounds
                );
            }
            prev = res.charge.rounds;
        }
    }
}
