//! The cluster-graph execution engine behind the `DOMPartition` family.
//!
//! The partition algorithms of §3.2 repeatedly contract star clusters of a
//! tree. This engine maintains the contraction state *on the original
//! nodes* — which nodes form each cluster, the cluster's center and its
//! exact radius inside the tree — and executes `BalancedDOM` steps on the
//! contracted (virtual) forest.
//!
//! ## Round charging
//!
//! Per DESIGN.md, this family is executed at the cluster abstraction with
//! explicit round charges instead of per-node emulation: one virtual round
//! over clusters of maximum radius `r` is charged `2r + 1` real rounds
//! (intra-cluster broadcast to the boundary, the inter-cluster hop, and
//! the convergecast back; `r = 0` degenerates to 1 real round on the base
//! tree). This matches the accounting the paper's own analysis uses —
//! iteration `i` costs `O(2^i)` because participating clusters have radius
//! `O(2^i)` (§3.2.2–3.2.3). The virtual-round counts themselves are
//! measured from the actual `BalancedDOM` executions.

use std::collections::VecDeque;

use kdom_graph::{Graph, NodeId};

use crate::balanced::{balanced_dom, BalancedOut};

/// Lifecycle of a cluster inside the partition algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterState {
    /// Still in the working forest `𝒯`.
    Forest,
    /// Non-participating this iteration (the paper's waiting set `W`).
    Waiting,
    /// A lone small cluster (the paper's set `S`).
    Small,
    /// Finished (the paper's output collection `P_out`).
    Out,
    /// Consumed by a merge.
    Dead,
}

/// One cluster: a connected set of original nodes with a center.
#[derive(Clone, Debug)]
struct Cluster {
    center: usize,
    members: Vec<usize>,
    radius: u32,
    state: ClusterState,
}

/// Result of one `BalancedDOM` + contraction step on the virtual forest.
#[derive(Clone, Debug)]
pub struct BalancedStep {
    /// Newly created cluster indices.
    pub merged: Vec<usize>,
    /// Participating clusters that were singleton virtual components and
    /// therefore could not merge (left untouched, still `Forest`).
    pub lone: Vec<usize>,
    /// Maximum radius among participants before merging (drives charges).
    pub max_radius_before: u32,
    /// Virtual rounds the `BalancedDOM` execution used.
    pub virtual_rounds: u32,
    /// Cole–Vishkin iterations inside the MIS subroutine.
    pub cv_iterations: u32,
}

/// Accumulated charged-round ledger for a partition run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Charge {
    /// Total charged real rounds.
    pub rounds: u64,
    /// Total virtual rounds across all `BalancedDOM` executions.
    pub virtual_rounds: u64,
    /// Total Cole–Vishkin iterations.
    pub cv_iterations: u64,
}

impl Charge {
    /// Charges `vr` virtual rounds over clusters of max radius `r`.
    pub fn virtual_step(&mut self, vr: u32, r: u32) {
        self.rounds += u64::from(vr) * (2 * u64::from(r) + 1);
        self.virtual_rounds += u64::from(vr);
    }

    /// Charges a flat number of real rounds (probes, merges, bookkeeping).
    pub fn flat(&mut self, rounds: u64) {
        self.rounds += rounds;
    }
}

/// Contraction state of one tree (or forest) being partitioned.
#[derive(Clone, Debug)]
pub struct ClusterEngine<'g> {
    g: &'g Graph,
    /// Scope: the original nodes this engine partitions.
    nodes: Vec<NodeId>,
    /// Tree adjacency in local indices.
    adj: Vec<Vec<usize>>,
    /// Local node → cluster index.
    cluster_of: Vec<usize>,
    clusters: Vec<Cluster>,
    /// Local node → depth below its cluster's center, inside the cluster.
    /// Current for every live cluster: a merge recomputes its cluster's
    /// depths, an attach sets only the attached child's.
    depth: Vec<u32>,
}

impl<'g> ClusterEngine<'g> {
    /// Creates the engine over `nodes` connected by `tree_edges` (which
    /// must form a forest over exactly those nodes). Every node starts as
    /// its own singleton cluster in state `Forest`.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is outside `nodes` or the edges contain
    /// a cycle.
    pub fn new(g: &'g Graph, nodes: Vec<NodeId>, tree_edges: &[(NodeId, NodeId)]) -> Self {
        // (node, local index) sorted by node: O(scope) memory, where a
        // node-indexed table would cost O(n) for every fragment
        let mut local: Vec<(NodeId, usize)> = nodes.iter().copied().zip(0..).collect();
        local.sort_unstable();
        if let Some(w) = local.windows(2).find(|w| w[0].0 == w[1].0) {
            panic!("duplicate node {:?} in scope", w[0].0);
        }
        let local_of = |v: NodeId| {
            local
                .binary_search_by_key(&v, |&(x, _)| x)
                .map(|i| local[i].1)
                .expect("edge endpoint outside scope")
        };
        let mut adj = vec![Vec::new(); nodes.len()];
        let mut dsu = kdom_graph::Dsu::new(nodes.len());
        for &(u, v) in tree_edges {
            let (lu, lv) = (local_of(u), local_of(v));
            assert!(
                dsu.union(NodeId(lu), NodeId(lv)),
                "tree_edges contain a cycle"
            );
            adj[lu].push(lv);
            adj[lv].push(lu);
        }
        let n = nodes.len();
        let clusters = (0..n)
            .map(|v| Cluster {
                center: v,
                members: vec![v],
                radius: 0,
                state: ClusterState::Forest,
            })
            .collect();
        ClusterEngine {
            g,
            nodes,
            adj,
            cluster_of: (0..n).collect(),
            clusters,
            depth: vec![0; n],
        }
    }

    /// Number of original nodes in scope.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Cluster indices currently in `state`.
    pub fn in_state(&self, state: ClusterState) -> Vec<usize> {
        (0..self.clusters.len())
            .filter(|&c| self.clusters[c].state == state)
            .collect()
    }

    /// The state of cluster `c`.
    pub fn state(&self, c: usize) -> ClusterState {
        self.clusters[c].state
    }

    /// Moves cluster `c` to `state`.
    ///
    /// # Panics
    ///
    /// Panics if the cluster is dead.
    pub fn set_state(&mut self, c: usize, state: ClusterState) {
        assert_ne!(
            self.clusters[c].state,
            ClusterState::Dead,
            "cluster {c} is dead"
        );
        self.clusters[c].state = state;
    }

    /// Exact radius of cluster `c` (from its center, inside the cluster).
    pub fn radius(&self, c: usize) -> u32 {
        self.clusters[c].radius
    }

    /// Number of original nodes in cluster `c`.
    pub fn size(&self, c: usize) -> usize {
        self.clusters[c].members.len()
    }

    /// The center of cluster `c`, as an original node.
    pub fn center(&self, c: usize) -> NodeId {
        self.nodes[self.clusters[c].center]
    }

    /// Distinct live neighbor clusters of `c` (via tree edges), in order
    /// of first appearance over `c`'s members and their tree arcs.
    pub fn neighbor_clusters(&self, c: usize) -> Vec<usize> {
        // (cluster, position) of every boundary arc; sorting dedupes in
        // O(d log d), where a scan of the output per arc is O(d²) at a hub
        let mut arcs: Vec<(usize, usize)> = self.clusters[c]
            .members
            .iter()
            .flat_map(|&m| &self.adj[m])
            .map(|&w| self.cluster_of[w])
            .filter(|&cw| cw != c)
            .zip(0..)
            .collect();
        arcs.sort_unstable();
        arcs.dedup_by_key(|&mut (cw, _)| cw);
        arcs.sort_unstable_by_key(|&(_, at)| at);
        arcs.into_iter().map(|(cw, _)| cw).collect()
    }

    /// BFS from `start`, at depth `d0`, through the members of `c`,
    /// setting each reached node's depth; returns how many nodes it
    /// reached and the deepest depth. The tree edges form a forest, so a
    /// BFS that never steps back to the node it came from reaches each
    /// node once and needs no visited set.
    fn set_depths(&mut self, c: usize, start: usize, d0: u32) -> (usize, u32) {
        self.depth[start] = d0;
        let (mut reached, mut deepest) = (1, d0);
        let mut q = VecDeque::from([(start, usize::MAX)]);
        while let Some((u, from)) = q.pop_front() {
            let d = self.depth[u] + 1;
            for &w in &self.adj[u] {
                if w != from && self.cluster_of[w] == c {
                    self.depth[w] = d;
                    deepest = d;
                    reached += 1;
                    q.push_back((w, u));
                }
            }
        }
        (reached, deepest)
    }

    fn recompute_radius(&mut self, c: usize) {
        let (reached, r) = self.set_depths(c, self.clusters[c].center, 0);
        assert_eq!(
            reached,
            self.clusters[c].members.len(),
            "cluster {c} is disconnected"
        );
        self.clusters[c].radius = r;
    }

    /// Runs one `BalancedDOM` + contraction step over the clusters in
    /// `participants` (all must be alive). Virtual singleton components
    /// are reported in [`BalancedStep::lone`] and left untouched.
    pub fn balanced_step(&mut self, participants: &[usize]) -> BalancedStep {
        let slot_of: std::collections::HashMap<usize, usize> = participants
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i))
            .collect();
        // virtual adjacency among participants; neighbor clusters are
        // distinct, so their slots are too
        let mut vadj: Vec<Vec<usize>> = vec![Vec::new(); participants.len()];
        for (i, &c) in participants.iter().enumerate() {
            for nc in self.neighbor_clusters(c) {
                if let Some(&j) = slot_of.get(&nc) {
                    vadj[i].push(j);
                }
            }
        }
        // components; orient each at its minimum-center-id cluster
        let mut comp = vec![usize::MAX; participants.len()];
        let mut lone = Vec::new();
        let mut parent: Vec<Option<usize>> = vec![None; participants.len()];
        let mut in_play = vec![false; participants.len()];
        for s in 0..participants.len() {
            if comp[s] != usize::MAX {
                continue;
            }
            // gather component via BFS
            let mut members = vec![s];
            comp[s] = s;
            let mut q = VecDeque::from([s]);
            while let Some(u) = q.pop_front() {
                for &w in &vadj[u] {
                    if comp[w] == usize::MAX {
                        comp[w] = s;
                        members.push(w);
                        q.push_back(w);
                    }
                }
            }
            if members.len() == 1 {
                lone.push(participants[s]);
                continue;
            }
            // root at the member with the smallest center id
            let root = members
                .iter()
                .copied()
                .min_by_key(|&m| self.g.id_of(self.center(participants[m])))
                .expect("non-empty component");
            // in_play doubles as the visited set: it is still false on
            // this component, which no earlier BFS reached
            let mut q = VecDeque::from([root]);
            in_play[root] = true;
            while let Some(u) = q.pop_front() {
                for &w in &vadj[u] {
                    if !in_play[w] {
                        in_play[w] = true;
                        parent[w] = Some(u);
                        q.push_back(w);
                    }
                }
            }
        }
        let playing: Vec<usize> = (0..participants.len()).filter(|&i| in_play[i]).collect();
        if playing.is_empty() {
            return BalancedStep {
                merged: Vec::new(),
                lone,
                max_radius_before: participants
                    .iter()
                    .map(|&c| self.radius(c))
                    .max()
                    .unwrap_or(0),
                virtual_rounds: 0,
                cv_iterations: 0,
            };
        }
        // compact to the playing sub-forest
        let compact: std::collections::HashMap<usize, usize> =
            playing.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let cparent: Vec<Option<usize>> = playing
            .iter()
            .map(|&s| parent[s].map(|p| compact[&p]))
            .collect();
        let cids: Vec<u64> = playing
            .iter()
            .map(|&s| self.g.id_of(self.center(participants[s])))
            .collect();
        let out: BalancedOut = balanced_dom(&cparent, &cids);

        let max_radius_before = participants
            .iter()
            .map(|&c| self.radius(c))
            .max()
            .unwrap_or(0);

        // contract: group playing clusters by their dominator slot
        let mut groups: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, &s) in playing.iter().enumerate() {
            groups.entry(out.dominator[i]).or_default().push(s);
        }
        // hash order is not deterministic across processes (or even across
        // calls): fix the contraction order so cluster ids, member order,
        // and every downstream tie-break are reproducible
        let mut grouped: Vec<(usize, Vec<usize>)> = groups.into_iter().collect();
        grouped.sort_unstable_by_key(|&(slot, _)| slot);
        let mut merged = Vec::new();
        for (dom_slot, group) in grouped {
            let dom_cluster = participants[playing[dom_slot]];
            let center = self.clusters[dom_cluster].center;
            let new_id = self.clusters.len();
            let mut members = Vec::new();
            for &s in &group {
                let c = participants[s];
                for &m in &self.clusters[c].members {
                    self.cluster_of[m] = new_id;
                }
                members.extend_from_slice(&self.clusters[c].members);
                self.clusters[c].state = ClusterState::Dead;
            }
            self.clusters.push(Cluster {
                center,
                members,
                radius: 0,
                state: ClusterState::Forest,
            });
            self.recompute_radius(new_id);
            merged.push(new_id);
        }
        merged.sort_unstable();
        BalancedStep {
            merged,
            lone,
            max_radius_before,
            virtual_rounds: out.virtual_rounds,
            cv_iterations: out.cv_iterations,
        }
    }

    /// Attaches every member of cluster `child` into cluster `host`
    /// (keeping `host`'s center) and recomputes the radius. `child`
    /// becomes `Dead`; `host` keeps its state.
    ///
    /// # Panics
    ///
    /// Panics if the two clusters are not adjacent via a tree edge.
    pub fn attach(&mut self, child: usize, host: usize) {
        // two clusters of a forest share at most one tree edge, so the
        // host's depths stand and the child hangs below this contact
        let (contact, outside) = self.clusters[child]
            .members
            .iter()
            .find_map(|&m| {
                self.adj[m]
                    .iter()
                    .find(|&&w| self.cluster_of[w] == host)
                    .map(|&w| (m, w))
            })
            .expect("attach requires adjacent clusters");
        let (reached, deepest) = self.set_depths(child, contact, self.depth[outside] + 1);
        assert_eq!(
            reached,
            self.clusters[child].members.len(),
            "cluster {child} is disconnected"
        );
        let members = std::mem::take(&mut self.clusters[child].members);
        for &m in &members {
            self.cluster_of[m] = host;
        }
        self.clusters[host].members.extend(members);
        self.clusters[child].state = ClusterState::Dead;
        let radius = &mut self.clusters[host].radius;
        *radius = (*radius).max(deepest);
    }

    /// Depth (distance from `host`'s center) of the shallowest node of
    /// `host` adjacent to `child`, or `None` if not adjacent. This is the
    /// `Depth(w)` test of step (3-IV).
    pub fn shallowest_contact(&self, host: usize, child: usize) -> Option<u32> {
        self.clusters[child]
            .members
            .iter()
            .flat_map(|&m| &self.adj[m])
            .filter(|&&w| self.cluster_of[w] == host)
            .map(|&w| self.depth[w])
            .min()
    }

    /// Final extraction: clusters in `states`, as (center, members) pairs
    /// over original node ids.
    pub fn extract(&self, states: &[ClusterState]) -> Vec<(NodeId, Vec<NodeId>)> {
        (0..self.clusters.len())
            .filter(|&c| states.contains(&self.clusters[c].state))
            .map(|c| {
                let center = self.center(c);
                let members = self.clusters[c]
                    .members
                    .iter()
                    .map(|&m| self.nodes[m])
                    .collect();
                (center, members)
            })
            .collect()
    }

    /// Sanity: every original node belongs to exactly one cluster in the
    /// given states.
    pub fn covers_scope(&self, states: &[ClusterState]) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        for cluster in self.clusters.iter().filter(|c| states.contains(&c.state)) {
            for &m in &cluster.members {
                if std::mem::replace(&mut seen[m], true) {
                    return false;
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdom_graph::generators::{path, random_tree, GenConfig};

    fn engine_of(g: &Graph) -> ClusterEngine<'_> {
        let nodes: Vec<NodeId> = g.nodes().collect();
        let edges: Vec<(NodeId, NodeId)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        ClusterEngine::new(g, nodes, &edges)
    }

    #[test]
    fn initial_state() {
        let g = path(&GenConfig::with_seed(5, 0));
        let e = engine_of(&g);
        assert_eq!(e.node_count(), 5);
        assert_eq!(e.in_state(ClusterState::Forest).len(), 5);
        assert_eq!(e.radius(0), 0);
        assert_eq!(e.size(0), 1);
        assert_eq!(e.neighbor_clusters(2), vec![1, 3]);
    }

    #[test]
    fn one_balanced_step_merges_everything_into_stars() {
        let g = path(&GenConfig::with_seed(8, 1));
        let mut e = engine_of(&g);
        let parts = e.in_state(ClusterState::Forest);
        let step = e.balanced_step(&parts);
        assert!(step.lone.is_empty());
        assert!(!step.merged.is_empty());
        // all new clusters: size ≥ 2, radius ≤ 1 (stars), scope covered
        for &c in &step.merged {
            assert!(e.size(c) >= 2, "cluster {c} too small");
            assert!(e.radius(c) <= 1, "star radius ≤ 1");
        }
        assert!(e.covers_scope(&[ClusterState::Forest]));
    }

    #[test]
    fn repeated_steps_converge_to_one_cluster() {
        let g = random_tree(&GenConfig::with_seed(33, 4));
        let mut e = engine_of(&g);
        let mut sizes_min = 1;
        for _ in 0..10 {
            let parts = e.in_state(ClusterState::Forest);
            let step = e.balanced_step(&parts);
            if step.merged.is_empty() {
                break;
            }
            let min_size = e
                .in_state(ClusterState::Forest)
                .iter()
                .map(|&c| e.size(c))
                .min()
                .unwrap();
            assert!(min_size >= 2 * sizes_min, "sizes at least double");
            sizes_min = min_size;
            assert!(e.covers_scope(&[ClusterState::Forest]));
            if e.in_state(ClusterState::Forest).len() == 1 {
                break;
            }
        }
        assert_eq!(e.in_state(ClusterState::Forest).len(), 1);
        let c = e.in_state(ClusterState::Forest)[0];
        assert_eq!(e.size(c), 33);
    }

    #[test]
    fn lone_cluster_reported_not_merged() {
        let g = path(&GenConfig::with_seed(4, 0));
        let mut e = engine_of(&g);
        // merge everything into one forest cluster first
        loop {
            let parts = e.in_state(ClusterState::Forest);
            if parts.len() == 1 {
                break;
            }
            let step = e.balanced_step(&parts);
            if step.merged.is_empty() {
                break;
            }
        }
        let parts = e.in_state(ClusterState::Forest);
        assert_eq!(parts.len(), 1);
        let step = e.balanced_step(&parts);
        assert_eq!(step.lone, parts);
        assert!(step.merged.is_empty());
        assert_eq!(step.virtual_rounds, 0);
    }

    #[test]
    fn attach_and_contact() {
        let g = path(&GenConfig::with_seed(6, 2));
        let mut e = engine_of(&g);
        // merge pairs manually via balanced step
        let step = e.balanced_step(&e.in_state(ClusterState::Forest));
        let clusters = step.merged;
        // pick two adjacent clusters
        let c0 = clusters[0];
        let n0 = e.neighbor_clusters(c0)[0];
        let contact = e.shallowest_contact(n0, c0).expect("adjacent");
        assert!(contact <= e.radius(n0));
        let size_before = e.size(n0) + e.size(c0);
        e.attach(c0, n0);
        assert_eq!(e.size(n0), size_before);
        assert_eq!(e.state(c0), ClusterState::Dead);
        assert!(e.covers_scope(&[ClusterState::Forest]));
    }

    #[test]
    fn charge_ledger() {
        let mut ch = Charge::default();
        ch.virtual_step(10, 0); // base tree: 1 round each
        assert_eq!(ch.rounds, 10);
        ch.virtual_step(4, 3); // radius 3: 7 rounds each
        assert_eq!(ch.rounds, 10 + 28);
        ch.flat(5);
        assert_eq!(ch.rounds, 43);
        assert_eq!(ch.virtual_rounds, 14);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_rejected() {
        let g = kdom_graph::generators::cycle(&GenConfig::with_seed(4, 0));
        let nodes: Vec<NodeId> = g.nodes().collect();
        let edges: Vec<(NodeId, NodeId)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        ClusterEngine::new(&g, nodes, &edges);
    }

    #[test]
    fn scoped_subtree() {
        // engine over a sub-path 2-3-4 of a longer path
        let g = path(&GenConfig::with_seed(7, 0));
        let nodes = vec![NodeId(2), NodeId(3), NodeId(4)];
        let edges = vec![(NodeId(2), NodeId(3)), (NodeId(3), NodeId(4))];
        let mut e = ClusterEngine::new(&g, nodes, &edges);
        let step = e.balanced_step(&e.in_state(ClusterState::Forest));
        assert!(step.lone.is_empty());
        assert!(e.covers_scope(&[ClusterState::Forest]));
        let out = e.extract(&[ClusterState::Forest]);
        let total: usize = out.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, 3);
    }
}
