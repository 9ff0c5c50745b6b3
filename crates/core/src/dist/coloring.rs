//! Distributed `BalancedDOM` (Fig. 4) on a forest of rooted trees —
//! Cole–Vishkin coloring, MIS by color class, and the balancing fix-ups,
//! all as one fixed-schedule CONGEST protocol with *measured* rounds.
//!
//! The schedule is derived locally from the id width: with `B`-bit
//! identifiers, [`cv_schedule`] computes the number of Cole–Vishkin
//! iterations that provably reach < 6 colors (the `O(log* n)` term); the
//! MIS sweep then takes 2 rounds per color class and the Fig. 4 steps a
//! constant 4 more. Nothing in the protocol depends on global
//! coordination beyond knowing the id width — the standard "nodes know
//! n" assumption.

use kdom_congest::wire::{BitReader, BitWriter, Wire, WireError};
use kdom_congest::{Message, NodeCtx, Outbox, Port, Protocol};

/// Number of Cole–Vishkin iterations needed to reduce a proper coloring
/// with values below `2^bits` to fewer than 6 colors.
///
/// One iteration maps a coloring with values in `0..2^b` to values
/// `≤ 2(b-1)+1`; iterating this recurrence until the value space is
/// within `0..6` gives the `O(log* n)` iteration count.
///
/// ```
/// use kdom_core::dist::coloring::cv_schedule;
/// assert_eq!(cv_schedule(48), 4);
/// assert_eq!(cv_schedule(64), 4);
/// assert_eq!(cv_schedule(3), 1);
/// ```
pub fn cv_schedule(bits: u32) -> u32 {
    let mut space: u64 = 1u64 << bits.min(63); // colors live in 0..space
    let mut iters = 0;
    while space > 6 {
        let b = 64 - (space - 1).leading_zeros(); // bits of space-1
        space = u64::from(2 * (b - 1) + 1) + 1;
        iters += 1;
    }
    iters
}

/// One Cole–Vishkin recoloring step.
fn cv_step(own: u64, parent: u64) -> u64 {
    let diff = own ^ parent;
    debug_assert_ne!(diff, 0, "neighbors must have different colors");
    let i = diff.trailing_zeros();
    u64::from(2 * i) + ((own >> i) & 1)
}

/// `BalancedDOM` messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BdMsg {
    /// Current Cole–Vishkin color (starts as an id, so one CONGEST word).
    Color(u64),
    /// "I joined the MIS."
    Join,
    /// "I choose you as my dominator" (step 1/2 of Fig. 4).
    Choose,
    /// "I am a deserted singleton; you become a dominator" (step 2).
    Select,
    /// "I just added myself to D" (step 3).
    NewDom,
}

impl Wire for BdMsg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            BdMsg::Color(c) => {
                w.tag(0, 5);
                w.word(*c);
            }
            BdMsg::Join => w.tag(1, 5),
            BdMsg::Choose => w.tag(2, 5),
            BdMsg::Select => w.tag(3, 5),
            BdMsg::NewDom => w.tag(4, 5),
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag(5)? {
            0 => BdMsg::Color(r.word()?),
            1 => BdMsg::Join,
            2 => BdMsg::Choose,
            3 => BdMsg::Select,
            4 => BdMsg::NewDom,
            value => {
                return Err(WireError::BadTag {
                    context: "BdMsg",
                    value,
                })
            }
        })
    }
}

impl Message for BdMsg {}

/// Static configuration of a node for one `BalancedDOM` run.
#[derive(Clone, Debug)]
pub struct BalancedConfig {
    /// Port to the parent in the (oriented) tree; `None` at roots.
    pub parent: Option<Port>,
    /// Ports to the children.
    pub children: Vec<Port>,
    /// Id width in bits (all nodes must agree; drives the schedule).
    pub id_bits: u32,
}

/// The per-node `BalancedDOM` automaton.
#[derive(Clone, Debug)]
pub struct BalancedNode {
    cfg: BalancedConfig,
    /// Final Cole–Vishkin color (< 6 after the schedule).
    pub color: u64,
    parent_color: Option<u64>,
    /// MIS membership after the sweep.
    pub in_mis: bool,
    blocked: bool,
    joined_ports: Vec<Port>,
    chooser_ports: Vec<Port>,
    /// Whether this node ends up a cluster center (dominator).
    pub is_center: bool,
    /// Port toward this node's center (`None` if it is the center).
    pub center_port: Option<Port>,
    /// The center's unique id (own id for centers).
    pub center_id: Option<u64>,
    finished: bool,
}

impl BalancedNode {
    /// A fresh automaton. Every tree in the forest must have ≥ 2 nodes.
    pub fn new(cfg: BalancedConfig) -> Self {
        BalancedNode {
            cfg,
            color: 0,
            parent_color: None,
            in_mis: false,
            blocked: false,
            joined_ports: Vec::new(),
            chooser_ports: Vec::new(),
            is_center: false,
            center_port: None,
            center_id: None,
            finished: false,
        }
    }

    fn tree_ports(&self) -> Vec<Port> {
        let mut p: Vec<Port> = self.cfg.parent.into_iter().collect();
        p.extend(self.cfg.children.iter().copied());
        p
    }
}

impl Protocol for BalancedNode {
    type Msg = BdMsg;

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Port, BdMsg)], out: &mut Outbox<BdMsg>) {
        let iters = u64::from(cv_schedule(self.cfg.id_bits));
        let mis_start = iters + 1; // colors settle after round `iters`
        let step_x = mis_start + 12; // Fig. 4 steps occupy x .. x+3

        // ——— intake ———
        let mut selects = false;
        let mut newdom_ports: Vec<Port> = Vec::new();
        for (p, m) in inbox {
            match m {
                BdMsg::Color(c) => self.parent_color = Some(*c),
                BdMsg::Join => {
                    self.blocked = true;
                    if !self.joined_ports.contains(p) {
                        self.joined_ports.push(*p);
                    }
                }
                BdMsg::Choose => self.chooser_ports.push(*p),
                BdMsg::Select => selects = true,
                BdMsg::NewDom => newdom_ports.push(*p),
            }
        }

        // ——— Cole–Vishkin iterations ———
        if ctx.round == 0 {
            self.color = ctx.id;
        }
        if ctx.round >= 1 && ctx.round <= iters {
            let pc = match self.cfg.parent {
                Some(_) => self.parent_color.expect("parent sent its color"),
                None => self.color ^ 1,
            };
            self.color = cv_step(self.color, pc);
        }
        if ctx.round < iters {
            for &c in &self.cfg.children {
                out.send(c, BdMsg::Color(self.color));
            }
        }

        // ——— MIS by color class ———
        if ctx.round >= mis_start && ctx.round < mis_start + 12 {
            let slot = ctx.round - mis_start;
            if slot.is_multiple_of(2) {
                let c = slot / 2;
                if self.color == c && !self.blocked && !self.in_mis {
                    self.in_mis = true;
                    for p in self.tree_ports() {
                        out.send(p, BdMsg::Join);
                    }
                }
            }
        }

        // ——— Fig. 4 steps ———
        if ctx.round == step_x && !self.in_mis {
            // step (1): pick an MIS neighbor (prefer parent)
            let pick = self
                .cfg
                .parent
                .filter(|p| self.joined_ports.contains(p))
                .or_else(|| {
                    let mut cs: Vec<Port> = self
                        .cfg
                        .children
                        .iter()
                        .copied()
                        .filter(|c| self.joined_ports.contains(c))
                        .collect();
                    cs.sort();
                    cs.first().copied()
                })
                .expect("MIS maximality: some neighbor joined");
            self.center_port = Some(pick);
            self.center_id = Some(ctx.neighbor_id(pick));
            out.send(pick, BdMsg::Choose);
        }
        if ctx.round == step_x + 1 && self.in_mis {
            if self.chooser_ports.is_empty() {
                // step (2): deserted singleton — follow a (non-MIS) neighbor
                let mut ports = self.tree_ports();
                ports.sort();
                let u = *ports.first().expect("components have ≥ 2 nodes");
                self.center_port = Some(u);
                self.center_id = Some(ctx.neighbor_id(u));
                out.send(u, BdMsg::Select);
            } else {
                self.is_center = true;
                self.center_id = Some(ctx.id);
            }
        }
        if ctx.round == step_x + 2 && selects {
            // step (3): a selected node adds itself to D
            self.is_center = true;
            self.center_port = None;
            self.center_id = Some(ctx.id);
            for p in self.tree_ports() {
                out.send(p, BdMsg::NewDom);
            }
        }
        if ctx.round == step_x + 3 {
            // step (4): a center whose choosers all left follows one
            if self.in_mis && self.is_center {
                self.chooser_ports.retain(|p| !newdom_ports.contains(p));
                if self.chooser_ports.is_empty() {
                    let mut np = newdom_ports.clone();
                    np.sort();
                    let u = *np.first().expect("Lemma 3.3: a departed member exists");
                    self.is_center = false;
                    self.center_port = Some(u);
                    self.center_id = Some(ctx.neighbor_id(u));
                }
            }
            self.finished = true;
        }
        if ctx.round > step_x + 3 {
            self.finished = true;
        }
    }

    fn is_done(&self) -> bool {
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdom_graph::generators::{balanced_tree, caterpillar, path, random_tree, star, GenConfig};
    use kdom_graph::{Graph, NodeId, RootedTree};

    fn port_to(g: &Graph, v: NodeId, to: NodeId) -> Port {
        Port(
            g.neighbors(v)
                .iter()
                .position(|a| a.to == to)
                .expect("tree edge present"),
        )
    }

    fn run(g: &Graph) -> (Vec<BalancedNode>, kdom_congest::RunReport) {
        let t = RootedTree::from_graph(g, NodeId(0));
        let nodes: Vec<BalancedNode> = (0..g.node_count())
            .map(|v| {
                let v = NodeId(v);
                let parent = t.parent(v).map(|p| port_to(g, v, p));
                let children = t.children(v).iter().map(|&c| port_to(g, v, c)).collect();
                BalancedNode::new(BalancedConfig {
                    parent,
                    children,
                    id_bits: 48,
                })
            })
            .collect();
        kdom_congest::run_protocol(g, nodes, 10_000, kdom_congest::EngineConfig::default())
            .expect("BalancedDOM quiesces")
    }

    fn check_output(g: &Graph, nodes: &[BalancedNode]) {
        let n = g.node_count();
        let mut size = std::collections::HashMap::new();
        for (v, node) in nodes.iter().enumerate() {
            let center = match node.center_port {
                None => {
                    assert!(node.is_center, "node {v} has no center");
                    NodeId(v)
                }
                Some(p) => g.neighbors(NodeId(v))[p.0].to,
            };
            assert!(nodes[center.0].is_center, "{v}'s center is not a center");
            assert_eq!(node.center_id, Some(g.id_of(center)));
            *size.entry(center).or_insert(0usize) += 1;
        }
        let centers = size.len();
        assert!(centers <= n / 2, "|D| = {centers} > ⌊{n}/2⌋");
        for (c, s) in size {
            assert!(s >= 2, "cluster of {c:?} is a singleton");
        }
    }

    #[test]
    fn balanced_on_tree_families() {
        for g in [
            path(&GenConfig::with_seed(60, 1)),
            star(&GenConfig::with_seed(60, 2)),
            balanced_tree(&GenConfig::with_seed(60, 3), 3),
            caterpillar(&GenConfig::with_seed(60, 4), 0.3),
        ] {
            let (nodes, _) = run(&g);
            check_output(&g, &nodes);
        }
    }

    #[test]
    fn many_random_trees() {
        for seed in 0..25u64 {
            let n = 2 + (seed as usize * 13) % 150;
            let g = random_tree(&GenConfig::with_seed(n, seed));
            let (nodes, _) = run(&g);
            check_output(&g, &nodes);
        }
    }

    #[test]
    fn rounds_are_constant_in_n() {
        // O(log* n) with 48-bit ids is a fixed schedule: rounds must not
        // grow with n.
        let mut rounds = Vec::new();
        for n in [50usize, 500, 5000] {
            let g = random_tree(&GenConfig::with_seed(n, 3));
            let (_, report) = run(&g);
            rounds.push(report.rounds);
        }
        assert_eq!(rounds[0], rounds[1]);
        assert_eq!(rounds[1], rounds[2]);
        assert!(rounds[0] <= u64::from(cv_schedule(48)) + 12 + 4 + 3);
    }

    #[test]
    fn colors_proper_after_schedule() {
        let g = path(&GenConfig::with_seed(200, 9));
        let (nodes, _) = run(&g);
        let t = RootedTree::from_graph(&g, NodeId(0));
        for v in 0..200 {
            assert!(nodes[v].color < 6, "color {} too big", nodes[v].color);
            if let Some(p) = t.parent(NodeId(v)) {
                assert_ne!(nodes[v].color, nodes[p.0].color, "improper edge {v}");
            }
        }
    }

    #[test]
    fn mis_is_valid() {
        let g = random_tree(&GenConfig::with_seed(120, 11));
        let (nodes, _) = run(&g);
        let t = RootedTree::from_graph(&g, NodeId(0));
        let parent: Vec<Option<usize>> =
            (0..120).map(|v| t.parent(NodeId(v)).map(|p| p.0)).collect();
        let mis: Vec<bool> = nodes.iter().map(|n| n.in_mis).collect();
        assert!(crate::coloring::is_mis(&parent, &mis));
    }

    #[test]
    fn two_nodes() {
        let mut b = kdom_graph::GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 1);
        b.ids(vec![97, 1042]);
        let g = b.build();
        let (nodes, _) = run(&g);
        check_output(&g, &nodes);
        assert_eq!(nodes.iter().filter(|n| n.is_center).count(), 1);
    }
}
