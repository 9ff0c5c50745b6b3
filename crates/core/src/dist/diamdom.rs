//! Distributed `DiamDOM` (Figs. 1–3) over a forest of rooted trees.
//!
//! Every cluster runs the same schedule, derived locally from the tree
//! height `M` and the paper's staggering:
//!
//! 1. **Initialize** (Fig. 1): a depth wave down, a max-depth echo up, and
//!    a broadcast of `(M, t1)` down, where `t1` is the first census slot.
//! 2. **Census pipelining** (Fig. 2/3): node `v` at depth `i` sends
//!    `counter(v, l)` at round `t1 + l + (M − i)`; the k+1 censuses never
//!    collide (Lemma 2.3) — each node sends exactly one census message per
//!    round, which the CONGEST outbox enforces by construction.
//! 3. The root picks the minimum-count residue `l*` and broadcasts it;
//!    dominators (depth ≡ l*, plus the root as the domination safeguard —
//!    see [`crate::levels`]) flood claims so every node learns its
//!    dominator.
//!
//! If `k ≥ M` the root short-circuits to the root-only mode, exactly as
//! the `k ≥ h` case of Lemma 2.1.

use kdom_congest::wire::{BitReader, BitWriter, Wire, WireError};
use kdom_congest::{EngineConfig, Message, NodeCtx, Outbox, Port, Protocol, RunReport};
use kdom_graph::{Graph, NodeId};

use crate::dist::bfs::run_bfs;
use crate::dist::executor::Executor;

/// Which dominating set the cluster root announced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chosen {
    /// `k ≥ M`: the root alone dominates.
    RootOnly,
    /// The depth-residue class `l` (with root completion).
    Level(u16),
}

impl Wire for Chosen {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            Chosen::RootOnly => w.flag(false),
            Chosen::Level(l) => {
                w.flag(true);
                w.u16(*l);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        Ok(if r.flag()? {
            Chosen::Level(r.u16()?)
        } else {
            Chosen::RootOnly
        })
    }
}

/// `DiamDOM` protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DdMsg {
    /// Depth wave: the sender's depth.
    Depth(u32),
    /// Echo of the maximum depth in the sender's subtree.
    EchoMax(u32),
    /// Tree height and the census start slot.
    MInfo {
        /// Tree height (maximum depth).
        m: u32,
        /// First census send slot for the deepest leaves.
        t1: u64,
    },
    /// One census message: residue and subtree count.
    Census {
        /// The residue class `l`.
        l: u16,
        /// Number of `D_l` members in the sender's subtree.
        count: u32,
    },
    /// The root's choice.
    Decision(Chosen),
    /// Dominator claim carrying the dominator's id.
    Claim(u64),
}

impl Wire for DdMsg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            DdMsg::Depth(d) => {
                w.tag(0, 6);
                w.u32(*d);
            }
            DdMsg::EchoMax(d) => {
                w.tag(1, 6);
                w.u32(*d);
            }
            DdMsg::MInfo { m, t1 } => {
                w.tag(2, 6);
                w.u32(*m);
                w.word(*t1); // a round number, far below 2^48
            }
            DdMsg::Census { l, count } => {
                w.tag(3, 6);
                w.u16(*l);
                w.u32(*count);
            }
            DdMsg::Decision(c) => {
                w.tag(4, 6);
                c.encode(w);
            }
            DdMsg::Claim(id) => {
                w.tag(5, 6);
                w.word(*id);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag(6)? {
            0 => DdMsg::Depth(r.u32()?),
            1 => DdMsg::EchoMax(r.u32()?),
            2 => DdMsg::MInfo {
                m: r.u32()?,
                t1: r.word()?,
            },
            3 => DdMsg::Census {
                l: r.u16()?,
                count: r.u32()?,
            },
            4 => DdMsg::Decision(Chosen::decode(r)?),
            5 => DdMsg::Claim(r.word()?),
            value => {
                return Err(WireError::BadTag {
                    context: "DdMsg",
                    value,
                })
            }
        })
    }
}

impl Message for DdMsg {}

/// Static per-node configuration: the cluster tree around this node.
#[derive(Clone, Debug)]
pub struct TreeConfig {
    /// Port to the parent inside the cluster (`None` for the center).
    pub parent: Option<Port>,
    /// Ports to the children inside the cluster.
    pub children: Vec<Port>,
    /// The domination radius `k` (global).
    pub k: usize,
    /// Depth already known from a preceding BFS stage (skips the depth
    /// wave — the paper's Initialize labels depths during the BFS).
    pub preset_depth: Option<u32>,
}

/// Per-node `DiamDOM` automaton.
#[derive(Clone, Debug)]
pub struct DiamDomNode {
    cfg: TreeConfig,
    /// Depth inside the cluster (0 at the center).
    pub depth: Option<u32>,
    /// Cluster tree height, once known.
    pub m: Option<u32>,
    t1: Option<u64>,
    echoes: Vec<u32>,
    census_acc: std::collections::HashMap<u16, u32>,
    root_counts: Vec<u32>,
    /// The root's decision, once known.
    pub chosen: Option<Chosen>,
    /// Whether this node ended up in the dominating set.
    pub is_dominator: bool,
    /// The id of this node's dominator, once claimed.
    pub dominator: Option<u64>,
    claims_sent: bool,
}

impl DiamDomNode {
    /// A fresh automaton for a node whose cluster tree is `cfg`.
    pub fn new(cfg: TreeConfig) -> Self {
        assert!(
            cfg.k < u16::MAX as usize,
            "k must fit the census wire format"
        );
        DiamDomNode {
            cfg,
            depth: None,
            m: None,
            t1: None,
            echoes: Vec::new(),
            census_acc: std::collections::HashMap::new(),
            root_counts: Vec::new(),
            chosen: None,
            is_dominator: false,
            dominator: None,
            claims_sent: false,
        }
    }

    fn is_root(&self) -> bool {
        self.cfg.parent.is_none()
    }

    fn all_tree_ports(&self) -> Vec<Port> {
        let mut p: Vec<Port> = self.cfg.parent.into_iter().collect();
        p.extend(self.cfg.children.iter().copied());
        p
    }

    /// The round at which this node must send its census for residue `l`.
    fn census_slot(&self, l: u64) -> u64 {
        self.t1.expect("census after MInfo")
            + l
            + u64::from(self.m.expect("census after MInfo") - self.depth.expect("depth set"))
    }

    /// The globally derivable claim-phase start round for this cluster.
    fn claim_slot(&self) -> u64 {
        let (m, t1, k) = (
            u64::from(self.m.expect("m known")),
            self.t1.expect("t1 known"),
            self.cfg.k as u64,
        );
        if k >= u64::from(self.m.expect("m known")) {
            t1 + m + 2
        } else {
            t1 + k + 2 * m + 2
        }
    }

    fn my_membership(&self, l: u16) -> u32 {
        let d = self.depth.expect("depth set");
        u32::from(d as usize % (self.cfg.k + 1) == l as usize)
    }

    fn decide_dominatorship(&mut self) {
        let chosen = self.chosen.expect("decision known");
        let d = self.depth.expect("depth known");
        self.is_dominator = match chosen {
            Chosen::RootOnly => self.is_root(),
            Chosen::Level(l) => {
                d as usize % (self.cfg.k + 1) == l as usize || (self.is_root() && l != 0)
            }
        };
    }
}

impl Protocol for DiamDomNode {
    type Msg = DdMsg;

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Port, DdMsg)], out: &mut Outbox<DdMsg>) {
        // ——— message intake ———
        let mut claims: Vec<(Port, u64)> = Vec::new();
        for (p, msg) in inbox {
            match msg {
                DdMsg::Depth(dp) => {
                    debug_assert!(self.depth.is_none());
                    self.depth = Some(dp + 1);
                    // forward the wave; leaves echo instead
                    for &c in &self.cfg.children {
                        out.send(c, DdMsg::Depth(dp + 1));
                    }
                    if self.cfg.children.is_empty() {
                        out.send(*p, DdMsg::EchoMax(dp + 1));
                    }
                }
                DdMsg::EchoMax(mx) => {
                    self.echoes.push(*mx);
                    if self.echoes.len() == self.cfg.children.len() {
                        let m = self
                            .echoes
                            .iter()
                            .copied()
                            .max()
                            .unwrap_or(0)
                            .max(self.depth.unwrap_or(0));
                        if let Some(parent) = self.cfg.parent {
                            out.send(parent, DdMsg::EchoMax(m));
                        } else {
                            // root: M is known; schedule the censuses
                            self.m = Some(m);
                            let t1 = ctx.round + u64::from(m) + 2;
                            self.t1 = Some(t1);
                            for &c in &self.cfg.children {
                                out.send(c, DdMsg::MInfo { m, t1 });
                            }
                            if self.cfg.k as u64 >= u64::from(m) {
                                self.chosen = Some(Chosen::RootOnly);
                                self.decide_dominatorship();
                            }
                        }
                    }
                }
                DdMsg::MInfo { m, t1 } => {
                    self.m = Some(*m);
                    self.t1 = Some(*t1);
                    for &c in &self.cfg.children {
                        out.send(c, DdMsg::MInfo { m: *m, t1: *t1 });
                    }
                    if self.cfg.k as u64 >= u64::from(*m) {
                        self.chosen = Some(Chosen::RootOnly);
                        self.decide_dominatorship();
                    }
                }
                DdMsg::Census { l, count } => {
                    if self.is_root() {
                        while self.root_counts.len() <= *l as usize {
                            self.root_counts.push(0);
                        }
                        self.root_counts[*l as usize] += count;
                    } else {
                        *self.census_acc.entry(*l).or_insert(0) += count;
                    }
                }
                DdMsg::Decision(ch) => {
                    self.chosen = Some(*ch);
                    self.decide_dominatorship();
                    for &c in &self.cfg.children {
                        out.send(c, DdMsg::Decision(*ch));
                    }
                }
                DdMsg::Claim(dom) => claims.push((*p, *dom)),
            }
        }

        // ——— round-0 kickoff ———
        if ctx.round == 0 {
            if self.is_root() {
                self.depth = Some(0);
                if self.cfg.children.is_empty() {
                    // single-node cluster
                    self.m = Some(0);
                    self.t1 = Some(1);
                    self.chosen = Some(Chosen::RootOnly);
                    self.is_dominator = true;
                    self.dominator = Some(ctx.id);
                    return;
                }
                if self.cfg.preset_depth.is_none() {
                    for &c in &self.cfg.children {
                        out.send(c, DdMsg::Depth(0));
                    }
                }
            } else if let Some(d) = self.cfg.preset_depth {
                // depths pre-assigned by the BFS stage: leaves start the
                // max-depth echo immediately, no depth wave needed
                self.depth = Some(d);
                if self.cfg.children.is_empty() {
                    out.send(self.cfg.parent.expect("non-root"), DdMsg::EchoMax(d));
                }
            }
        }

        // ——— scheduled census sends (non-root, census mode) ———
        if let (Some(m), Some(_), false) = (self.m, self.t1, self.is_root()) {
            if (self.cfg.k as u64) < u64::from(m) {
                let k = self.cfg.k as u64;
                for l in 0..=k {
                    if ctx.round == self.census_slot(l) {
                        let l = l as u16;
                        let count = self.my_membership(l) + self.census_acc.remove(&l).unwrap_or(0);
                        out.send(
                            self.cfg.parent.expect("non-root"),
                            DdMsg::Census { l, count },
                        );
                    }
                }
            }
        }

        // ——— root decision after the last census ———
        if self.is_root() && self.chosen.is_none() {
            if let (Some(m), Some(t1)) = (self.m, self.t1) {
                let k = self.cfg.k as u64;
                if k < u64::from(m) && ctx.round == t1 + k + u64::from(m) {
                    // add the root's own membership to each residue count
                    while self.root_counts.len() <= self.cfg.k {
                        self.root_counts.push(0);
                    }
                    for l in 0..=self.cfg.k {
                        self.root_counts[l] += self.my_membership(l as u16);
                    }
                    let l_star = self
                        .root_counts
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, c)| *c)
                        .map(|(l, _)| l as u16)
                        .expect("k+1 censuses");
                    let ch = Chosen::Level(l_star);
                    self.chosen = Some(ch);
                    self.decide_dominatorship();
                    for &c in &self.cfg.children {
                        out.send(c, DdMsg::Decision(ch));
                    }
                }
            }
        }

        // ——— claim phase ———
        if self.m.is_some() && self.t1.is_some() && self.chosen.is_some() {
            let slot = self.claim_slot();
            if self.is_dominator && !self.claims_sent && ctx.round >= slot {
                self.dominator = Some(ctx.id);
                for p in self.all_tree_ports() {
                    out.send(p, DdMsg::Claim(ctx.id));
                }
                self.claims_sent = true;
            }
        }
        if self.dominator.is_none() {
            if let Some(&(from, dom)) = claims.first() {
                self.dominator = Some(dom);
                for p in self.all_tree_ports() {
                    if p != from {
                        out.send(p, DdMsg::Claim(dom));
                    }
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.dominator.is_some()
    }
}

/// Output of a standalone `DiamDOM` run on a connected graph.
#[derive(Clone, Debug)]
pub struct DiamDomRun {
    /// The dominating set.
    pub dominators: Vec<NodeId>,
    /// Each node's dominator.
    pub dominator_of: Vec<NodeId>,
    /// The root's decision.
    pub chosen: Chosen,
    /// BFS stage report.
    pub bfs_report: RunReport,
    /// `DiamDOM` stage report.
    pub dd_report: RunReport,
}

impl DiamDomRun {
    /// Total measured rounds (BFS + DiamDOM).
    pub fn total_rounds(&self) -> u64 {
        self.bfs_report.rounds + self.dd_report.rounds
    }
}

/// Runs the full distributed `DiamDOM` on a connected graph: BFS from
/// `root` (Procedure `Initialize`'s first half), then the census protocol
/// on the BFS tree, both on the synchronous engine under `config`.
///
/// # Panics
///
/// Panics if the graph is disconnected or the protocol exceeds its round
/// budget (cannot happen on connected graphs).
pub fn run_diamdom(g: &Graph, root: NodeId, k: usize, config: EngineConfig) -> DiamDomRun {
    let (bfs, bfs_report) = run_bfs(g, root, &Executor::Sync(config))
        .expect("BFS quiesces within O(n) rounds on a connected graph");
    let nodes: Vec<DiamDomNode> = bfs
        .iter()
        .map(|b| {
            DiamDomNode::new(TreeConfig {
                parent: b.parent,
                children: b.children.clone(),
                k,
                preset_depth: b.depth,
            })
        })
        .collect();
    let budget = 20 * (g.node_count() as u64 + k as u64) + 64;
    let (nodes, dd_report) =
        kdom_congest::run_protocol(g, nodes, budget, config).expect("DiamDOM quiesces");
    let id_to_node: std::collections::HashMap<u64, NodeId> =
        g.nodes().map(|v| (g.id_of(v), v)).collect();
    let dominators: Vec<NodeId> = g.nodes().filter(|&v| nodes[v.0].is_dominator).collect();
    let dominator_of: Vec<NodeId> = nodes
        .iter()
        .map(|n| id_to_node[&n.dominator.expect("all nodes claimed")])
        .collect();
    let chosen = nodes[root.0].chosen.expect("root decided");
    DiamDomRun {
        dominators,
        dominator_of,
        chosen,
        bfs_report,
        dd_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_dominating_size, check_k_dominating};
    use kdom_graph::generators::{gnp_connected, path, random_tree, star};
    use kdom_graph::generators::{Family, GenConfig};
    use kdom_graph::properties::diameter;

    #[test]
    fn path_census_matches_reference() {
        let g = path(&GenConfig::with_seed(10, 0));
        let run = run_diamdom(&g, NodeId(0), 2, EngineConfig::default());
        // sequential reference: D_1 is smallest (3 of depths 1,4,7)
        assert_eq!(run.chosen, Chosen::Level(1));
        check_k_dominating(&g, &run.dominators, 2).unwrap();
    }

    #[test]
    fn root_only_mode_on_star() {
        let g = star(&GenConfig::with_seed(30, 1));
        let run = run_diamdom(&g, NodeId(0), 3, EngineConfig::default());
        assert_eq!(run.chosen, Chosen::RootOnly);
        assert_eq!(run.dominators, vec![NodeId(0)]);
        assert!(run.dominator_of.iter().all(|&d| d == NodeId(0)));
    }

    #[test]
    fn census_counts_match_sequential_choice() {
        for seed in 0..10u64 {
            let n = 30 + (seed as usize) * 7;
            let g = random_tree(&GenConfig::with_seed(n, seed));
            let k = 2 + (seed as usize) % 3;
            let run = run_diamdom(&g, NodeId(0), k, EngineConfig::default());
            let seq = crate::levels::existence_dominating_set(&g, NodeId(0), k);
            match (run.chosen, seq.level) {
                (Chosen::RootOnly, None) => {}
                (Chosen::Level(l), Some(sl)) => {
                    assert_eq!(l as usize, sl, "n={n} k={k}");
                }
                other => panic!("mode mismatch {other:?}"),
            }
            check_k_dominating(&g, &run.dominators, k).unwrap();
            // root completion costs at most one extra dominator
            let bound = crate::verify::dominating_size_bound(n, k) + 1;
            assert!(run.dominators.len() <= bound);
        }
    }

    #[test]
    fn rounds_within_lemma_23_budget() {
        for fam in Family::ALL {
            let g = fam.generate(80, 4);
            for k in [1usize, 3, 8] {
                let run = run_diamdom(&g, NodeId(0), k, EngineConfig::default());
                let diam = u64::from(diameter(&g));
                let bound = 5 * diam + 2 * k as u64 + 12;
                assert!(
                    run.total_rounds() <= bound,
                    "{fam} k={k}: {} rounds > {bound}",
                    run.total_rounds()
                );
                check_k_dominating(&g, &run.dominators, k).unwrap();
            }
        }
    }

    #[test]
    fn all_nodes_get_nearest_tree_dominators() {
        let g = gnp_connected(&GenConfig::with_seed(70, 9), 0.07);
        let run = run_diamdom(&g, NodeId(0), 3, EngineConfig::default());
        check_k_dominating(&g, &run.dominators, 3).unwrap();
        // every node's claimed dominator is a dominator
        for d in &run.dominator_of {
            assert!(run.dominators.contains(d));
        }
    }

    #[test]
    fn size_bound_without_root_completion_when_l_zero() {
        // When the chosen level is 0 the root is itself a dominator and
        // the bound is exactly Lemma 2.1's.
        let g = path(&GenConfig::with_seed(30, 3));
        for k in 1..6 {
            let run = run_diamdom(&g, NodeId(0), k, EngineConfig::default());
            if run.chosen == Chosen::Level(0) {
                check_dominating_size(30, k, run.dominators.len()).unwrap();
            }
        }
    }

    #[test]
    fn two_node_graph() {
        let mut b = kdom_graph::GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 1);
        let g = b.build();
        let run = run_diamdom(&g, NodeId(0), 1, EngineConfig::default());
        assert_eq!(run.chosen, Chosen::RootOnly);
        assert_eq!(run.dominators, vec![NodeId(0)]);
    }
}
