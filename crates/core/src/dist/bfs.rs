//! Distributed synchronous BFS-tree construction.
//!
//! In a synchronous network, flooding from the root yields an exact BFS
//! tree: a node's first round of arrivals comes precisely from neighbors
//! at the previous BFS layer. Each node adopts the lowest-port first
//! arrival as its parent and claims childhood, so after quiescence every
//! node knows its parent port, its depth, and its child ports — the
//! substrate Procedure `Initialize` and `Pipeline` build on.

use kdom_congest::wire::{BitReader, BitWriter, Wire, WireError};
use kdom_congest::{Message, NodeCtx, Outbox, Port, Protocol, RunReport, SimError, Wake};
use kdom_graph::{Graph, NodeId};

use crate::dist::executor::Executor;

/// BFS protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BfsMsg {
    /// "Your distance from the root is at most this plus one."
    Dist(u32),
    /// "You are my parent."
    Child,
}

impl Wire for BfsMsg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            BfsMsg::Dist(d) => {
                w.tag(0, 2);
                w.u32(*d);
            }
            BfsMsg::Child => w.tag(1, 2),
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag(2)? {
            0 => BfsMsg::Dist(r.u32()?),
            _ => BfsMsg::Child,
        })
    }
}

impl Message for BfsMsg {}

/// Per-node BFS automaton.
#[derive(Clone, Debug)]
pub struct BfsNode {
    /// Whether this node is the BFS root.
    pub is_root: bool,
    /// Assigned depth (0 for the root).
    pub depth: Option<u32>,
    /// Parent port (`None` for the root).
    pub parent: Option<Port>,
    /// Ports leading to this node's BFS children.
    pub children: Vec<Port>,
    forwarded: bool,
}

impl BfsNode {
    /// A fresh automaton; exactly one node must have `is_root = true`.
    pub fn new(is_root: bool) -> Self {
        BfsNode {
            is_root,
            depth: None,
            parent: None,
            children: Vec::new(),
            forwarded: false,
        }
    }

    /// Tree ports: parent + children.
    pub fn tree_ports(&self) -> Vec<Port> {
        let mut p: Vec<Port> = self.parent.into_iter().collect();
        p.extend(self.children.iter().copied());
        p
    }
}

impl Protocol for BfsNode {
    type Msg = BfsMsg;

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Port, BfsMsg)], out: &mut Outbox<BfsMsg>) {
        // record child claims whenever they arrive: a port claims at most
        // once, and duplicated copies sit adjacent in the port-sorted
        // inbox, so comparing with the last claim dedupes in O(1) (a
        // scan of `children` costs a hub the square of its degree)
        for (p, m) in inbox {
            if matches!(m, BfsMsg::Child) && self.children.last() != Some(p) {
                self.children.push(*p);
            }
        }
        if self.is_root && ctx.round == 0 {
            self.depth = Some(0);
            out.broadcast(BfsMsg::Dist(0));
            self.forwarded = true;
            return;
        }
        if self.depth.is_none() {
            // synchronous flooding: the first Dist arrivals are all from
            // the previous layer; adopt the lowest port and forward the
            // wave in the same round, so it travels at full speed
            let best = inbox
                .iter()
                .filter_map(|(p, m)| match m {
                    BfsMsg::Dist(d) => Some((*d, *p)),
                    BfsMsg::Child => None,
                })
                .min();
            if let Some((d, p)) = best {
                self.depth = Some(d + 1);
                self.parent = Some(p);
                out.send(p, BfsMsg::Child);
                for q in ctx.ports() {
                    if q != p {
                        out.send(q, BfsMsg::Dist(d + 1));
                    }
                }
                self.forwarded = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.depth.is_some() && self.forwarded
    }

    fn next_wake(&self, _now: u64) -> Wake {
        // purely message-driven: the root's spontaneous send happens in
        // round 0, which the engine always executes for every node
        Wake::OnMessage
    }
}

/// Runs BFS from `root` on `exec` and returns the automata (with parents,
/// depths and children filled in) plus the run report.
///
/// # Errors
///
/// Propagates the executor's [`SimError`]. On a disconnected graph the
/// undiscovered nodes keep `depth = None`, so the run exhausts its
/// `O(n)` budget.
pub fn run_bfs(
    g: &Graph,
    root: NodeId,
    exec: &Executor,
) -> Result<(Vec<BfsNode>, RunReport), SimError> {
    let nodes = (0..g.node_count())
        .map(|v| BfsNode::new(v == root.0))
        .collect();
    let budget = exec.watchdog_budget(4 * g.node_count() as u64 + 16);
    kdom_congest::trace::emit_phase("BFS");
    exec.run(g, nodes, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdom_graph::generators::{gnp_connected, path};
    use kdom_graph::generators::{Family, GenConfig};
    use kdom_graph::properties::{bfs_distances, eccentricity};

    #[test]
    fn depths_match_reference() {
        for fam in Family::ALL {
            let g = fam.generate(50, 3);
            let (nodes, _) = run_bfs(&g, NodeId(0), &Executor::default()).unwrap();
            let expect = bfs_distances(&g, NodeId(0));
            for v in 0..g.node_count() {
                assert_eq!(nodes[v].depth, Some(expect[v]), "{fam} node {v}");
            }
        }
    }

    #[test]
    fn parents_form_a_tree_with_consistent_children() {
        let g = gnp_connected(&GenConfig::with_seed(60, 5), 0.1);
        let (nodes, _) = run_bfs(&g, NodeId(0), &Executor::default()).unwrap();
        let mut child_count = 0;
        for (v, node) in nodes.iter().enumerate() {
            match node.parent {
                None => assert_eq!(v, 0, "only the root lacks a parent"),
                Some(p) => {
                    let parent = g.neighbors(NodeId(v))[p.0].to;
                    assert_eq!(
                        nodes[parent.0].depth.unwrap() + 1,
                        node.depth.unwrap(),
                        "parent is one layer up"
                    );
                }
            }
            child_count += node.children.len();
        }
        assert_eq!(child_count, 59, "n-1 child links");
    }

    #[test]
    fn rounds_are_eccentricity_plus_constant() {
        let g = path(&GenConfig::with_seed(40, 1));
        let (_, report) = run_bfs(&g, NodeId(0), &Executor::default()).unwrap();
        let ecc = eccentricity(&g, NodeId(0)) as u64;
        assert!(
            report.rounds <= ecc + 3,
            "rounds {} vs ecc {}",
            report.rounds,
            ecc
        );
    }

    #[test]
    fn duplicated_child_claims_are_recorded_once() {
        use kdom_congest::{EngineConfig, FaultPlan, Simulator};
        let g = gnp_connected(&GenConfig::with_seed(80, 9), 0.15);
        let (clean, _) = run_bfs(&g, NodeId(0), &Executor::default()).unwrap();
        let nodes = (0..g.node_count()).map(|v| BfsNode::new(v == 0)).collect();
        let plan = FaultPlan::new(4).dup_prob(1.0);
        let mut sim = Simulator::with_faults(&g, nodes, &plan, EngineConfig::default());
        let report = sim.run(1_000).unwrap();
        assert!(report.duplicated_messages > 0);
        for (v, (dup, want)) in sim.nodes().iter().zip(&clean).enumerate() {
            assert_eq!(dup.children, want.children, "node {v}");
        }
    }

    #[test]
    fn child_ports_point_back() {
        let g = Family::Grid.generate(25, 2);
        let (nodes, _) = run_bfs(&g, NodeId(0), &Executor::default()).unwrap();
        for (v, node) in nodes.iter().enumerate() {
            for &cp in &node.children {
                let child = g.neighbors(NodeId(v))[cp.0].to;
                let back = nodes[child.0].parent.expect("child has a parent");
                assert_eq!(g.neighbors(child)[back.0].to, NodeId(v));
            }
        }
    }
}
