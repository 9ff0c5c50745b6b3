//! Distributed `SimpleMST` (§4.3): phase-scheduled MST fragment growth.
//!
//! All nodes follow the same global schedule (phase `i` occupies a window
//! of `5·2^i + 8` rounds), so fragments stay in lockstep without any
//! global coordinator — exactly the paper's design. Within phase `i`
//! (`B = 2^i`, offsets `t` from the phase start):
//!
//! | t            | step |
//! |--------------|------|
//! | `0 .. 2B+1`  | depth probe to depth `B` with echo (halts deep fragments); refreshes fragment ids along the way |
//! | `2B+2..3B+2` | the root of an active fragment broadcasts `Activate` |
//! | `3B+3`       | **every** node transmits its (possibly stale) fragment id on all edges — stale ids never misclassify an active fragment's edges (see the module test) |
//! | `3B+4..4B+4` | MWOE convergecast, deepest nodes first |
//! | `4B+5..5B+5` | rootship transfer along the marked path, flipping parent pointers |
//! | `5B+6..5B+7` | `Connect` over the MWOE; same-edge pairs resolve by higher id |
//!
//! Measured rounds total `Σ(5·2^i + 8) = O(k)` (Lemma 4.1); the output is
//! cross-checked for exact structural equality against the sequential
//! reference in [`crate::fragments`].

use kdom_congest::wire::{BitReader, BitWriter, Wire, WireError};
use kdom_congest::{Message, NodeCtx, Outbox, Port, Protocol, RunReport, Wake};
use kdom_graph::{EdgeId, Graph, NodeId};

use crate::dist::executor::Executor;
use crate::logstar::ceil_log2;

/// `SimpleMST` messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrMsg {
    /// Depth probe with remaining hops and the (fresh) root id.
    Probe {
        /// Remaining hops the probe may travel.
        hops: u32,
        /// The fragment root's id, refreshing ids along the way.
        root_id: u64,
    },
    /// Echo: "my subtree exceeds the probe depth".
    EchoDeep(bool),
    /// The fragment is active this phase.
    Activate,
    /// Fragment-id exchange for edge classification.
    FragId(u64),
    /// Convergecast of the minimum outgoing edge weight (`None` = no
    /// outgoing edge in this subtree).
    MwoeUp(Option<u64>),
    /// Rootship transfer toward the MWOE endpoint.
    Transfer,
    /// Merge request over the MWOE, carrying the sender's id.
    Connect(u64),
}

impl Wire for FrMsg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            FrMsg::Probe { hops, root_id } => {
                w.tag(0, 7);
                w.u32(*hops);
                w.word(*root_id);
            }
            FrMsg::EchoDeep(deep) => {
                w.tag(1, 7);
                w.flag(*deep);
            }
            FrMsg::Activate => w.tag(2, 7),
            FrMsg::FragId(id) => {
                w.tag(3, 7);
                w.word(*id);
            }
            FrMsg::MwoeUp(best) => {
                w.tag(4, 7);
                w.opt_word(*best);
            }
            FrMsg::Transfer => w.tag(5, 7),
            FrMsg::Connect(id) => {
                w.tag(6, 7);
                w.word(*id);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag(7)? {
            0 => FrMsg::Probe {
                hops: r.u32()?,
                root_id: r.word()?,
            },
            1 => FrMsg::EchoDeep(r.flag()?),
            2 => FrMsg::Activate,
            3 => FrMsg::FragId(r.word()?),
            4 => FrMsg::MwoeUp(r.opt_word()?),
            5 => FrMsg::Transfer,
            6 => FrMsg::Connect(r.word()?),
            value => {
                return Err(WireError::BadTag {
                    context: "FrMsg",
                    value,
                })
            }
        })
    }
}

impl Message for FrMsg {}

/// Where a subtree's best outgoing edge came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BestSrc {
    Own(Port),
    Child(Port),
}

/// Per-node `SimpleMST` automaton.
#[derive(Clone, Debug)]
pub struct FragmentNode {
    k: usize,
    /// Port to the parent in the fragment tree (`None` at fragment roots).
    pub parent: Option<Port>,
    /// Ports to the children in the fragment tree.
    pub children: Vec<Port>,
    /// This node's current (possibly stale) fragment id.
    pub frag_id: u64,
    // per-phase scratch
    probe_depth: Option<u32>,
    echo_deep: bool,
    echo_count: usize,
    active: bool,
    best: Option<(u64, BestSrc)>,
    mwoe_port: Option<Port>,
    sent_connect: bool,
    done: bool,
}

/// Total number of phases for parameter `k`.
pub fn phase_count(k: usize) -> u32 {
    ceil_log2(k as u64 + 1)
}

/// Window length of phase `i` (1-based).
fn window(i: u32) -> u64 {
    5 * (1u64 << i) + 8
}

/// First round of phase `i` (1-based).
fn phase_start(i: u32) -> u64 {
    (1..i).map(window).sum()
}

/// The round after the last phase ends.
pub fn schedule_end(k: usize) -> u64 {
    phase_start(phase_count(k) + 1)
}

impl FragmentNode {
    /// A fresh singleton-fragment automaton; `id` must be the node's
    /// unique identifier (as reported by the simulator context).
    pub fn new(k: usize, id: u64) -> Self {
        FragmentNode {
            k,
            parent: None,
            children: Vec::new(),
            frag_id: id,
            probe_depth: None,
            echo_deep: false,
            echo_count: 0,
            active: false,
            best: None,
            mwoe_port: None,
            sent_connect: false,
            done: false,
        }
    }

    fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    /// Phase index (1-based) and offset for a round, or `None` after the
    /// schedule ends.
    fn locate(&self, round: u64) -> Option<(u32, u64)> {
        let phases = phase_count(self.k);
        let mut start = 0u64;
        for i in 1..=phases {
            let w = window(i);
            if round < start + w {
                return Some((i, round - start));
            }
            start += w;
        }
        None
    }

    /// Re-hangs this node's tree pointers when the rootship path passes
    /// through it toward `next`.
    fn flip_toward(&mut self, next: Port) {
        self.children.retain(|&c| c != next);
        if let Some(p) = self.parent {
            self.children.push(p);
        }
        self.parent = Some(next);
    }
}

impl Protocol for FragmentNode {
    type Msg = FrMsg;

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Port, FrMsg)], out: &mut Outbox<FrMsg>) {
        let Some((i, t)) = self.locate(ctx.round) else {
            self.done = true;
            return;
        };
        let b = 1u64 << i;

        // ——— phase reset ———
        if t == 0 {
            self.probe_depth = None;
            self.echo_deep = false;
            self.echo_count = 0;
            self.active = false;
            self.best = None;
            self.mwoe_port = None;
            self.sent_connect = false;
            if self.is_root() {
                self.frag_id = ctx.id;
                self.probe_depth = Some(0);
                if self.children.is_empty() {
                    self.active = true; // depth 0 ≤ B, trivially
                } else {
                    // `hops` counts the forwards still allowed after the
                    // receipt, so a receiver's depth is B - hops and a
                    // node seeing hops = 0 sits exactly at depth B
                    for &c in &self.children.clone() {
                        out.send(
                            c,
                            FrMsg::Probe {
                                hops: b as u32 - 1,
                                root_id: ctx.id,
                            },
                        );
                    }
                }
            }
        }

        // ——— intake ———
        let mut connects: Vec<(Port, u64)> = Vec::new();
        let mut neighbor_ids: Vec<(Port, u64)> = Vec::new();
        for (p, m) in inbox {
            match m {
                FrMsg::Probe { hops, root_id } => {
                    self.probe_depth = Some(b as u32 - hops);
                    self.frag_id = *root_id;
                    if *hops == 0 {
                        // probe exhausted: deep iff the tree continues
                        out.send(*p, FrMsg::EchoDeep(!self.children.is_empty()));
                    } else if self.children.is_empty() {
                        out.send(*p, FrMsg::EchoDeep(false));
                    } else {
                        for &c in &self.children.clone() {
                            out.send(
                                c,
                                FrMsg::Probe {
                                    hops: hops - 1,
                                    root_id: *root_id,
                                },
                            );
                        }
                    }
                }
                FrMsg::EchoDeep(deep) => {
                    self.echo_deep |= deep;
                    self.echo_count += 1;
                    if self.echo_count == self.children.len() {
                        if let Some(parent) = self.parent {
                            out.send(parent, FrMsg::EchoDeep(self.echo_deep));
                        } else {
                            self.active = !self.echo_deep;
                        }
                    }
                }
                FrMsg::Activate => {
                    self.active = true;
                    for &c in &self.children.clone() {
                        out.send(c, FrMsg::Activate);
                    }
                }
                FrMsg::FragId(fid) => neighbor_ids.push((*p, *fid)),
                FrMsg::MwoeUp(w) => {
                    if let Some(w) = w {
                        let cand = (*w, BestSrc::Child(*p));
                        if self.best.is_none_or(|(bw, _)| *w < bw) {
                            self.best = Some(cand);
                        }
                    }
                }
                FrMsg::Transfer => {
                    // the rootship path reaches this node
                    match self.best {
                        Some((_, BestSrc::Own(q))) => {
                            // I am the MWOE endpoint: become root
                            let old_parent = self.parent.expect("transfer came from my parent");
                            self.children.push(old_parent);
                            self.parent = None;
                            self.mwoe_port = Some(q);
                        }
                        Some((_, BestSrc::Child(c))) => {
                            out.send(c, FrMsg::Transfer);
                            self.flip_toward(c);
                        }
                        None => unreachable!("transfer follows recorded best pointers"),
                    }
                }
                FrMsg::Connect(their_id) => connects.push((*p, *their_id)),
            }
        }

        // ——— fixed-slot actions ———
        // root announces activity
        if t == 2 * b + 2 && self.is_root() && self.active && !self.children.is_empty() {
            for &c in &self.children.clone() {
                out.send(c, FrMsg::Activate);
            }
        }
        // universal fragment-id exchange
        if t == 3 * b + 3 {
            out.broadcast(FrMsg::FragId(self.frag_id));
        }
        // classification + convergecast start (deepest slots first)
        if t == 3 * b + 4 && self.active {
            // neighbor_ids collected this round: classify and seed best
            for (p, fid) in &neighbor_ids {
                if *fid != self.frag_id {
                    let w = ctx.edge_weight(*p);
                    if self.best.is_none_or(|(bw, _)| w < bw) {
                        self.best = Some((w, BestSrc::Own(*p)));
                    }
                }
            }
        }
        if self.active {
            if let Some(d) = self.probe_depth {
                let slot = 3 * b + 4 + (b - u64::from(d).min(b));
                if t == slot && !self.is_root() {
                    let w = self.best.map(|(w, _)| w);
                    out.send(self.parent.expect("non-root"), FrMsg::MwoeUp(w));
                }
            }
        }
        // root launches the transfer
        if t == 4 * b + 5 && self.is_root() && self.active {
            match self.best {
                Some((_, BestSrc::Own(q))) => self.mwoe_port = Some(q),
                Some((_, BestSrc::Child(c))) => {
                    out.send(c, FrMsg::Transfer);
                    self.flip_toward(c);
                }
                None => {} // fragment spans its component
            }
        }
        // the MWOE endpoint connects
        if t == 5 * b + 6 {
            if let Some(q) = self.mwoe_port {
                out.send(q, FrMsg::Connect(ctx.id));
                self.sent_connect = true;
            }
        }
        // connect resolution
        if t == 5 * b + 7 {
            if self.sent_connect {
                let q = self.mwoe_port.expect("sent connect over the MWOE");
                match connects.iter().find(|(p, _)| *p == q) {
                    Some(&(_, their_id)) => {
                        // both fragments chose this edge: higher id roots
                        if ctx.id > their_id {
                            self.children.push(q);
                        } else {
                            self.parent = Some(q);
                        }
                    }
                    None => {
                        // one-sided: we merge into the other fragment
                        self.parent = Some(q);
                    }
                }
                connects.retain(|(p, _)| *p != q);
            }
            // all remaining connects are inbound attachments: each
            // port's copies sit adjacent in the port-sorted inbox, and an
            // attaching (inter-fragment) port is never an earlier child,
            // so comparing with the last child dedupes in O(1)
            for (p, _) in connects {
                if self.children.last() != Some(&p) {
                    self.children.push(p);
                }
            }
        }

        if ctx.round + 1 >= schedule_end(self.k) {
            self.done = true;
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn next_wake(&self, now: u64) -> Wake {
        // The schedule is fixed: a node acts spontaneously only at the
        // phase reset (t = 0) and the fixed slots of the current phase;
        // everything else is a reaction to an arrival (which wakes the
        // node regardless, after which the promise is recomputed — so
        // slots gated on state a message may change, like the
        // probe-depth convergecast slot, are re-added as soon as that
        // state exists).
        let Some((i, t)) = self.locate(now) else {
            return Wake::OnMessage; // past the schedule: done
        };
        let b = 1u64 << i;
        let phase_start = now - t;
        let mwoe_slot = match self.probe_depth {
            Some(d) => 3 * b + 4 + (b - u64::from(d).min(b)),
            None => u64::MAX,
        };
        let slots = [
            2 * b + 2, // root announces activity
            3 * b + 3, // universal fragment-id exchange
            3 * b + 4, // edge classification
            mwoe_slot, // depth-scheduled MWOE convergecast
            4 * b + 5, // root launches the transfer
            5 * b + 6, // MWOE endpoint connects
            5 * b + 7, // connect resolution + done transition
        ];
        match slots.iter().filter(|&&s| s > t && s != u64::MAX).min() {
            Some(&s) => Wake::At(phase_start + s),
            // nothing left in this phase: wake at t = 0 of the next
            None => Wake::At(phase_start + window(i)),
        }
    }
}

/// Output of the distributed `SimpleMST`.
#[derive(Clone, Debug)]
pub struct DistFragments {
    /// Fragment index per node.
    pub fragment_of: Vec<usize>,
    /// The root node of each fragment.
    pub roots: Vec<NodeId>,
    /// Selected MST edges.
    pub tree_edges: Vec<EdgeId>,
    /// Per-node parent ports (the fragment trees as the nodes know them).
    pub parents: Vec<Option<Port>>,
    /// Simulator report (measured rounds = `O(k)`).
    pub report: RunReport,
}

/// Runs the distributed `SimpleMST` on `exec` and extracts the fragment
/// forest.
///
/// # Panics
///
/// Panics if the run fails (budget exhaustion, stall, delivery failure);
/// the message carries the simulator's structured diagnosis.
pub fn run_simple_mst(g: &Graph, k: usize, exec: &Executor) -> DistFragments {
    let nodes: Vec<FragmentNode> = g
        .nodes()
        .map(|v| FragmentNode::new(k, g.id_of(v)))
        .collect();
    let budget = exec.watchdog_budget(schedule_end(k) + 8);
    kdom_congest::trace::emit_phase("SimpleMST");
    let (nodes, report) = exec
        .run(g, nodes, budget)
        .unwrap_or_else(|e| panic!("SimpleMST failed to quiesce: {e}"));

    let parents: Vec<Option<Port>> = nodes.iter().map(|x| x.parent).collect();
    let (fragment_of, roots, tree_edges) = forest_from_parents(g, &parents);
    DistFragments {
        fragment_of,
        roots,
        tree_edges,
        parents,
        report,
    }
}

/// Extracts the fragment forest from per-node parent ports: selected
/// tree edges, roots in node order, and the fragment index of every
/// node. This is the **single** numbering rule shared by the full run
/// and the incremental re-fixup splice ([`crate::dist::refixup`]) — any
/// divergence between the two paths would otherwise hide in renumbering.
///
/// # Panics
///
/// Panics if the parent pointers do not form a forest with exactly one
/// root per tree (e.g. two roots joined by tree edges).
pub fn forest_from_parents(
    g: &Graph,
    parents: &[Option<Port>],
) -> (Vec<usize>, Vec<NodeId>, Vec<EdgeId>) {
    let n = g.node_count();
    let mut tree_edges = Vec::new();
    let mut dsu = kdom_graph::Dsu::new(n);
    for v in g.nodes() {
        if let Some(p) = parents[v.0] {
            let arc = g.neighbors(v)[p.0];
            tree_edges.push(arc.edge);
            dsu.union(v, arc.to);
        }
    }
    let mut root_index = std::collections::HashMap::new();
    let mut roots = Vec::new();
    for v in g.nodes() {
        if parents[v.0].is_none() {
            root_index.insert(v, roots.len());
            roots.push(v);
        }
    }
    // map every DSU representative to the (unique) root in its component
    let mut rep_to_frag = std::collections::HashMap::new();
    for (&r, &idx) in &root_index {
        let rep = dsu.find(r);
        assert!(
            rep_to_frag.insert(rep, idx).is_none(),
            "two roots in one fragment"
        );
    }
    let fragment_of: Vec<usize> = g
        .nodes()
        .map(|v| {
            let rep = dsu.find(v);
            *rep_to_frag
                .get(&rep)
                .unwrap_or_else(|| panic!("fragment of {v:?} has no root"))
        })
        .collect();
    (fragment_of, roots, tree_edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragments::simple_mst_forest;
    use kdom_graph::generators::Family;

    fn cross_check(g: &Graph, k: usize) {
        let dist = run_simple_mst(g, k, &Executor::default());
        let seq = simple_mst_forest(g, k);
        // identical edge sets
        let mut de = dist.tree_edges.clone();
        de.sort_unstable();
        let mut se = seq.tree_edges.clone();
        se.sort_unstable();
        assert_eq!(de, se, "tree edges differ (k = {k})");
        // identical partitions (up to renumbering)
        let mut map = std::collections::HashMap::new();
        for v in 0..g.node_count() {
            let d = dist.fragment_of[v];
            let s = seq.fragment_of[v];
            assert_eq!(
                *map.entry(d).or_insert(s),
                s,
                "partition differs at node {v}"
            );
        }
        // identical roots
        let mut dr = dist.roots.clone();
        dr.sort_unstable();
        let mut sr = seq.roots.clone();
        sr.sort_unstable();
        assert_eq!(dr, sr, "roots differ (k = {k})");
    }

    #[test]
    fn matches_sequential_on_all_families() {
        for fam in Family::ALL {
            for k in [1usize, 3, 7] {
                let g = fam.generate(48, 6);
                cross_check(&g, k);
            }
        }
    }

    #[test]
    fn matches_sequential_on_random_seeds() {
        for seed in 0..8u64 {
            let g = Family::Gnp.generate(60, seed);
            cross_check(&g, 5);
        }
    }

    #[test]
    fn measured_rounds_linear_in_k() {
        let g = Family::Grid.generate(400, 2);
        let mut prev = 0u64;
        for k in [1usize, 3, 7, 15, 31] {
            let dist = run_simple_mst(&g, k, &Executor::default());
            let end = schedule_end(k);
            assert!(
                dist.report.rounds >= end - 1 && dist.report.rounds <= end + 2,
                "fixed schedule: {} vs {end}",
                dist.report.rounds
            );
            assert!(dist.report.rounds >= prev);
            prev = dist.report.rounds;
        }
        // O(k): schedule_end(k) ≤ 10(k+1) + 8 log(k+1) + slack
        assert!(schedule_end(31) <= 10 * 64 + 8 * 6 + 16);
    }

    #[test]
    fn fragment_sizes_meet_k_plus_one() {
        let g = Family::RandomTree.generate(120, 9);
        let k = 7;
        let dist = run_simple_mst(&g, k, &Executor::default());
        let mut sizes = vec![0usize; dist.roots.len()];
        for &f in &dist.fragment_of {
            sizes[f] += 1;
        }
        for s in sizes {
            assert!(s > k, "fragment of {s} nodes");
        }
    }

    #[test]
    fn stale_ids_never_misclassify() {
        // After many phases with deep fragments, check the classification
        // invariant on a long path: every selected edge is an MST edge and
        // no internal edge was ever reported (implied by edge-set equality
        // with the sequential reference, which never misclassifies).
        let g = Family::Path.generate(64, 4);
        cross_check(&g, 15);
    }
}
