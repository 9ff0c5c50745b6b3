//! Distributed exact tree k-domination (the DP of [`crate::treedp`]) over
//! a forest of rooted trees.
//!
//! One convergecast carries each subtree's `(need, have, height)` triple
//! to the cluster root; the root performs the final fix-up and announces
//! the claim-phase start round; selected nodes then flood claims so every
//! node learns its dominator. Total: `2·height + k + O(1)` measured
//! rounds per cluster, all clusters in parallel — the same complexity
//! class as `DiamDOM`, with the theorem-exact `⌊|C|/(k+1)⌋` output size.

use kdom_congest::wire::{BitReader, BitWriter, Wire, WireError};
use kdom_congest::{Message, NodeCtx, Outbox, Port, Protocol};

/// Distributed-DP messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DpMsg {
    /// Convergecast payload: the subtree's DP state and height.
    Up {
        /// Distance to the farthest still-undominated node (`None` if
        /// all covered).
        need: Option<u32>,
        /// Distance to the nearest selected node that can still help
        /// above (`None` if none within k).
        have: Option<u32>,
        /// Height of the subtree below the sender.
        height: u32,
    },
    /// The claim phase starts at the given round (root broadcast).
    Start {
        /// Global round at which dominators flood claims.
        t: u64,
    },
    /// Dominator claim with the dominator's id.
    Claim(u64),
}

impl Wire for DpMsg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            DpMsg::Up { need, have, height } => {
                w.tag(0, 3);
                w.opt_u32(*need);
                w.opt_u32(*have);
                w.u32(*height);
            }
            DpMsg::Start { t } => {
                w.tag(1, 3);
                w.word(*t); // rounds stay far below 2^48
            }
            DpMsg::Claim(id) => {
                w.tag(2, 3);
                w.word(*id);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag(3)? {
            0 => DpMsg::Up {
                need: r.opt_u32()?,
                have: r.opt_u32()?,
                height: r.u32()?,
            },
            1 => DpMsg::Start { t: r.word()? },
            2 => DpMsg::Claim(r.word()?),
            value => {
                return Err(WireError::BadTag {
                    context: "DpMsg",
                    value,
                })
            }
        })
    }
}

impl Message for DpMsg {}

/// Static per-node configuration (cluster tree around this node).
#[derive(Clone, Debug)]
pub struct DpConfig {
    /// Port to the parent (`None` at cluster roots).
    pub parent: Option<Port>,
    /// Ports to the children.
    pub children: Vec<Port>,
    /// The domination radius.
    pub k: usize,
}

/// Per-node automaton of the distributed DP.
#[derive(Clone, Debug)]
pub struct TreeDpNode {
    cfg: DpConfig,
    child_states: Vec<(Option<u32>, Option<u32>, u32)>,
    /// Whether this node selected itself into the dominating set.
    pub selected: bool,
    /// The id of this node's dominator, once claimed.
    pub dominator: Option<u64>,
    start_at: Option<u64>,
    claimed: bool,
    reported: bool,
}

impl TreeDpNode {
    /// A fresh automaton.
    pub fn new(cfg: DpConfig) -> Self {
        TreeDpNode {
            cfg,
            child_states: Vec::new(),
            selected: false,
            dominator: None,
            start_at: None,
            claimed: false,
            reported: false,
        }
    }

    fn tree_ports(&self) -> Vec<Port> {
        let mut p: Vec<Port> = self.cfg.parent.into_iter().collect();
        p.extend(self.cfg.children.iter().copied());
        p
    }

    /// Combines children states exactly like the sequential DP.
    fn combine(&mut self) -> (Option<u32>, Option<u32>, u32) {
        let k = self.cfg.k as u32;
        let mut need: Option<u32> = None;
        let mut have: Option<u32> = None;
        let mut height = 0u32;
        for &(cn, ch, chh) in &self.child_states {
            height = height.max(chh + 1);
            if let Some(nc) = cn {
                need = Some(need.map_or(nc + 1, |x| x.max(nc + 1)));
            }
            if let Some(hc) = ch {
                if hc < k {
                    have = Some(have.map_or(hc + 1, |x| x.min(hc + 1)));
                }
            }
        }
        let covered = have.is_some_and(|h| h <= k);
        if !covered {
            need = Some(need.unwrap_or(0));
        }
        if let (Some(nd), Some(hv)) = (need, have) {
            if nd + hv <= k {
                need = None;
            }
        }
        if need == Some(k) {
            self.selected = true;
            have = Some(0);
            need = None;
        }
        (need, have, height)
    }
}

impl Protocol for TreeDpNode {
    type Msg = DpMsg;

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Port, DpMsg)], out: &mut Outbox<DpMsg>) {
        let mut claims: Vec<(Port, u64)> = Vec::new();
        for (p, m) in inbox {
            match m {
                DpMsg::Up { need, have, height } => {
                    self.child_states.push((*need, *have, *height));
                }
                DpMsg::Start { t } => {
                    self.start_at = Some(*t);
                    for &c in &self.cfg.children.clone() {
                        out.send(c, DpMsg::Start { t: *t });
                    }
                }
                DpMsg::Claim(dom) => claims.push((*p, *dom)),
            }
        }

        // convergecast: fire once all children reported (leaves at round 0)
        if !self.reported && self.child_states.len() == self.cfg.children.len() {
            self.reported = true;
            let (need, have, height) = self.combine();
            match self.cfg.parent {
                Some(parent) => out.send(parent, DpMsg::Up { need, have, height }),
                None => {
                    // root fix-up: leftover needs are within k of the root
                    if need.is_some() {
                        self.selected = true;
                    }
                    let t = ctx.round + u64::from(height) + 2;
                    self.start_at = Some(t);
                    for &c in &self.cfg.children.clone() {
                        out.send(c, DpMsg::Start { t });
                    }
                }
            }
        }

        // claim phase
        if let Some(t) = self.start_at {
            if self.selected && !self.claimed && ctx.round >= t {
                self.dominator = Some(ctx.id);
                for p in self.tree_ports() {
                    out.send(p, DpMsg::Claim(ctx.id));
                }
                self.claimed = true;
            }
        }
        if self.dominator.is_none() {
            if let Some(&(from, dom)) = claims.first() {
                self.dominator = Some(dom);
                for p in self.tree_ports() {
                    if p != from {
                        out.send(p, DpMsg::Claim(dom));
                    }
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.dominator.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treedp::min_k_dominating_tree;
    use crate::verify::{check_dominating_size, check_k_dominating};
    use kdom_graph::generators::{random_tree, Family, GenConfig};
    use kdom_graph::{Graph, NodeId, RootedTree};

    fn run(g: &Graph, k: usize) -> (Vec<TreeDpNode>, kdom_congest::RunReport) {
        let t = RootedTree::from_graph(g, NodeId(0));
        let port_to = |v: NodeId, to: NodeId| {
            Port(
                g.neighbors(v)
                    .iter()
                    .position(|a| a.to == to)
                    .expect("tree edge"),
            )
        };
        let nodes = (0..g.node_count())
            .map(|v| {
                let v = NodeId(v);
                TreeDpNode::new(DpConfig {
                    parent: t.parent(v).map(|p| port_to(v, p)),
                    children: t.children(v).iter().map(|&c| port_to(v, c)).collect(),
                    k,
                })
            })
            .collect();
        let budget = 10 * g.node_count() as u64 + 64;
        kdom_congest::run_protocol(g, nodes, budget, kdom_congest::EngineConfig::default())
            .expect("distributed DP quiesces")
    }

    #[test]
    fn matches_sequential_dp_exactly() {
        for seed in 0..20u64 {
            let n = 2 + (seed as usize * 11) % 90;
            for k in [1usize, 2, 4] {
                let g = random_tree(&GenConfig::with_seed(n, seed));
                let (nodes, _) = run(&g, k);
                let dist: Vec<NodeId> =
                    (0..n).map(NodeId).filter(|v| nodes[v.0].selected).collect();
                let t = RootedTree::from_graph(&g, NodeId(0));
                let seq = min_k_dominating_tree(&t, k);
                assert_eq!(dist, seq, "n={n} k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn output_meets_lemma21() {
        for fam in Family::TREES {
            let g = fam.generate(120, 3);
            let n = g.node_count();
            let k = 4;
            let (nodes, _) = run(&g, k);
            let d: Vec<NodeId> = (0..n).map(NodeId).filter(|v| nodes[v.0].selected).collect();
            check_k_dominating(&g, &d, k).unwrap_or_else(|e| panic!("{fam}: {e}"));
            check_dominating_size(n, k, d.len()).unwrap_or_else(|e| panic!("{fam}: {e}"));
            // every node claimed a dominator that is selected
            for (v, node) in nodes.iter().enumerate().take(n) {
                assert!(node.dominator.is_some(), "{fam}: node {v} unclaimed");
            }
        }
    }

    #[test]
    fn rounds_linear_in_height_plus_k() {
        let g = Family::Path.generate(200, 5);
        let (_, report) = run(&g, 3);
        // height 199: converge + broadcast + claims ≈ 2h + k + c
        assert!(
            report.rounds <= 2 * 200 + 3 + 16,
            "rounds {}",
            report.rounds
        );
    }

    #[test]
    fn single_node_cluster() {
        let g = kdom_graph::GraphBuilder::new(1).build();
        let (nodes, _) = run(&g, 2);
        assert!(nodes[0].selected);
        assert!(nodes[0].dominator.is_some());
    }
}
