//! Procedure `Pipeline` (§5.1, Fig. 8): global edge elimination by a
//! fully-pipelined convergecast.
//!
//! Nodes sit on a BFS tree `B` of the whole graph and know which cluster
//! of the partition `P` they belong to. Each node maintains the set `Q`
//! of inter-cluster edges it knows of and the set `U` it has already
//! upcast; each pulse it sends up the lightest *remaining candidate* —
//! an edge of `Q \ (U ∪ Cyc(U, Q))` — or terminates when no candidate is
//! left and all children terminated. The root collects the arrivals and
//! computes the MST of the cluster graph.
//!
//! Two instruments back the paper's analysis:
//!
//! * **stalls** — Lemma 5.3(a) proves a started, non-terminated interior
//!   node always has a candidate; we count the pulses where that fails
//!   (expected: zero);
//! * **order violations** — Lemma 5.3(d) proves each node's upcasts are
//!   nondecreasing; we count arrivals lighter than the last pop
//!   (expected: zero). The red-rule filtering is only sound under this
//!   order, so the count doubles as a soundness monitor.
//!
//! Config flags expose the ablations: `barrier` makes nodes wait for all
//! children to *terminate* before sending (the naive convergecast the
//! paper replaces), and `eliminate = false` disables the red rule (the
//! collect-everything baseline).

use std::collections::{BinaryHeap, HashMap, HashSet};

use kdom_congest::wire::{BitReader, BitWriter, Wire, WireError};
use kdom_congest::{EngineConfig, Message, NodeCtx, Outbox, Port, Protocol, RunReport, Wake};
use kdom_graph::{Graph, NodeId};

use kdom_core::dist::bfs::run_bfs;
use kdom_core::dist::executor::Executor;

/// An inter-cluster edge description: weight plus both endpoint cluster
/// ids — the `O(log n)`-bit unit the convergecast forwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeDesc {
    /// The (globally unique) edge weight.
    pub w: u64,
    /// Cluster id of one endpoint.
    pub a: u64,
    /// Cluster id of the other endpoint.
    pub b: u64,
}

/// `Pipeline` messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlMsg {
    /// Round-0 cluster-id exchange (classifies inter-cluster edges).
    ClusterId(u64),
    /// One upcast edge description.
    Edge(EdgeDesc),
    /// "I have terminated" (the paper's terminating message).
    Done,
    /// Result broadcast: one MST edge of the cluster graph.
    SEdge(u64),
    /// Result broadcast finished.
    SDone,
}

/// The widest message in the repo is [`PlMsg::Edge`], pinned at *exactly*
/// three CONGEST words (`congest_budget(3)` = 144 bits) — ids use the
/// full 48-bit range, so there is no headroom for a discriminant inside
/// the payload. Frames are length-delimited (see the `wire` module docs),
/// so the encoding dispatches on length instead: 144 bits is tagless
/// `Edge`, 49 bits is a 1-bit tag plus a word (`ClusterId`/`SEdge`),
/// 1 bit is a bare tag (`Done`/`SDone`). No two variants share a length.
impl Wire for PlMsg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            PlMsg::Edge(e) => {
                w.word(e.w);
                w.word(e.a);
                w.word(e.b);
            }
            PlMsg::ClusterId(c) => {
                w.flag(false);
                w.word(*c);
            }
            PlMsg::SEdge(we) => {
                w.flag(true);
                w.word(*we);
            }
            PlMsg::Done => w.flag(false),
            PlMsg::SDone => w.flag(true),
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        Ok(match r.remaining() {
            144 => PlMsg::Edge(EdgeDesc {
                w: r.word()?,
                a: r.word()?,
                b: r.word()?,
            }),
            49 => {
                if r.flag()? {
                    PlMsg::SEdge(r.word()?)
                } else {
                    PlMsg::ClusterId(r.word()?)
                }
            }
            1 => {
                if r.flag()? {
                    PlMsg::SDone
                } else {
                    PlMsg::Done
                }
            }
            bits => {
                return Err(WireError::BadLength {
                    context: "PlMsg",
                    bits,
                })
            }
        })
    }
}

impl Message for PlMsg {}

/// Static node configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// BFS parent port (`None` at the root).
    pub parent: Option<Port>,
    /// BFS children ports.
    pub children: Vec<Port>,
    /// This node's cluster id.
    pub cluster: u64,
    /// Apply the red rule at interior nodes (the paper's algorithm).
    pub eliminate: bool,
    /// Wait for all children to terminate before sending (the naive
    /// convergecast; ablation only).
    pub barrier: bool,
}

/// Tiny union–find over cluster ids, for the local `Cyc(U, Q)` test.
#[derive(Clone, Debug, Default)]
struct IdDsu {
    parent: HashMap<u64, u64>,
}

impl IdDsu {
    fn find(&mut self, x: u64) -> u64 {
        let p = *self.parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let r = self.find(p);
        self.parent.insert(x, r);
        r
    }

    fn union(&mut self, a: u64, b: u64) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent.insert(ra, rb);
        true
    }

    fn connected(&mut self, a: u64, b: u64) -> bool {
        self.find(a) == self.find(b)
    }
}

/// The per-node `Pipeline` automaton.
#[derive(Clone, Debug)]
pub struct PipelineNode {
    cfg: PipelineConfig,
    /// Candidates not yet popped, as a min-heap.
    queue: BinaryHeap<std::cmp::Reverse<(u64, u64, u64)>>,
    seen: HashSet<u64>,
    upcast_forest: IdDsu,
    active_children: HashSet<Port>,
    heard_from: HashSet<Port>,
    started: bool,
    terminated: bool,
    last_pop: Option<u64>,
    /// Pulses where a started interior node had active children but no
    /// candidate (Lemma 5.3(a) says this never happens).
    pub stalls: u64,
    /// Arrivals lighter than this node's last pop (Lemma 5.3(b)/(d) says
    /// this never happens).
    pub order_violations: u64,
    /// Root only: every edge heard (plus its own), in arrival order.
    pub collected: Vec<EdgeDesc>,
    /// Root only: the computed cluster-graph MST edge weights.
    pub result: Option<Vec<u64>>,
    /// The round at which the root finished collecting (upcast time).
    pub collect_done_round: Option<u64>,
    result_cursor: usize,
    downcast: Vec<u64>,
    sdone_received: bool,
    downcast_done: bool,
}

impl PipelineNode {
    /// A fresh automaton.
    pub fn new(cfg: PipelineConfig) -> Self {
        let active_children = cfg.children.iter().copied().collect();
        PipelineNode {
            cfg,
            queue: BinaryHeap::new(),
            seen: HashSet::new(),
            upcast_forest: IdDsu::default(),
            active_children,
            heard_from: HashSet::new(),
            started: false,
            terminated: false,
            last_pop: None,
            stalls: 0,
            order_violations: 0,
            collected: Vec::new(),
            result: None,
            collect_done_round: None,
            result_cursor: 0,
            downcast: Vec::new(),
            sdone_received: false,
            downcast_done: false,
        }
    }

    fn is_root(&self) -> bool {
        self.cfg.parent.is_none()
    }

    fn push_candidate(&mut self, e: EdgeDesc) {
        if self.seen.insert(e.w) {
            self.queue.push(std::cmp::Reverse((e.w, e.a, e.b)));
        }
    }

    /// Pops the lightest remaining candidate, discarding cycle-closers.
    fn pop_candidate(&mut self) -> Option<EdgeDesc> {
        while let Some(std::cmp::Reverse((w, a, b))) = self.queue.pop() {
            if self.cfg.eliminate && self.upcast_forest.connected(a, b) {
                continue; // Cyc(U, Q): closes a cycle with upcast edges
            }
            if self.cfg.eliminate {
                self.upcast_forest.union(a, b);
            }
            return Some(EdgeDesc { w, a, b });
        }
        None
    }
}

impl Protocol for PipelineNode {
    type Msg = PlMsg;

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Port, PlMsg)], out: &mut Outbox<PlMsg>) {
        // ——— intake ———
        for (p, m) in inbox {
            match m {
                PlMsg::ClusterId(cid) => {
                    if *cid != self.cfg.cluster {
                        self.push_candidate(EdgeDesc {
                            w: ctx.edge_weight(*p),
                            a: self.cfg.cluster,
                            b: *cid,
                        });
                    }
                }
                PlMsg::Edge(e) => {
                    self.heard_from.insert(*p);
                    if let Some(lp) = self.last_pop {
                        if e.w < lp {
                            self.order_violations += 1;
                        }
                    }
                    if self.is_root() {
                        self.collected.push(*e);
                    } else {
                        self.push_candidate(*e);
                    }
                }
                PlMsg::Done => {
                    self.heard_from.insert(*p);
                    self.active_children.remove(p);
                }
                PlMsg::SEdge(w) => {
                    self.downcast.push(*w);
                }
                PlMsg::SDone => {
                    self.sdone_received = true;
                }
            }
        }

        // ——— cluster-id exchange at round 0 ———
        if ctx.round == 0 {
            out.broadcast(PlMsg::ClusterId(self.cfg.cluster));
            return;
        }

        // ——— start gate ———
        if !self.started && ctx.round >= 2 {
            let gate = if self.cfg.barrier {
                self.active_children.is_empty()
            } else {
                self.cfg
                    .children
                    .iter()
                    .all(|c| self.heard_from.contains(c))
            };
            if gate {
                self.started = true;
            }
        }

        // ——— root: collect own candidates, detect completion ———
        if self.is_root() {
            if self.started && self.result.is_none() {
                // drain own queue into the collection (local, free)
                while let Some(e) = self.pop_candidate() {
                    self.collected.push(e);
                }
                if self.active_children.is_empty() {
                    // compute the cluster-graph MST by Kruskal
                    let mut edges = self.collected.clone();
                    edges.sort_by_key(|e| e.w);
                    let mut dsu = IdDsu::default();
                    let mut s = Vec::new();
                    for e in edges {
                        if dsu.union(e.a, e.b) {
                            s.push(e.w);
                        }
                    }
                    self.result = Some(s);
                    self.collect_done_round = Some(ctx.round);
                }
            }
            // downcast the result, one edge per round per tree edge
            if let Some(s) = &self.result {
                if self.result_cursor < s.len() {
                    let w = s[self.result_cursor];
                    self.result_cursor += 1;
                    for &c in &self.cfg.children.clone() {
                        out.send(c, PlMsg::SEdge(w));
                    }
                } else if !self.downcast_done {
                    self.downcast_done = true;
                    for &c in &self.cfg.children.clone() {
                        out.send(c, PlMsg::SDone);
                    }
                }
            }
            return;
        }

        // ——— interior/leaf: forward the result stream, SDone last ———
        if self.result_cursor < self.downcast.len() {
            let w = self.downcast[self.result_cursor];
            self.result_cursor += 1;
            for &c in &self.cfg.children.clone() {
                out.send(c, PlMsg::SEdge(w));
            }
        } else if self.sdone_received && !self.downcast_done {
            self.downcast_done = true;
            for &c in &self.cfg.children.clone() {
                out.send(c, PlMsg::SDone);
            }
        }

        // ——— interior/leaf: one upcast per pulse ———
        if self.started && !self.terminated {
            match self.pop_candidate() {
                Some(e) => {
                    self.last_pop = Some(e.w);
                    out.send(self.cfg.parent.expect("non-root"), PlMsg::Edge(e));
                }
                None => {
                    if self.active_children.is_empty() {
                        self.terminated = true;
                        out.send(self.cfg.parent.expect("non-root"), PlMsg::Done);
                    } else {
                        // Lemma 5.3(a) says this cannot happen
                        self.stalls += 1;
                    }
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        if self.is_root() {
            self.result.is_some() && self.downcast_done
        } else {
            self.terminated && self.downcast_done
        }
    }

    fn next_wake(&self, _now: u64) -> Wake {
        if !self.started {
            // the start gate is re-evaluated from round 2 on; its inputs
            // (heard_from / active_children) only change on arrivals, so
            // a node whose gate would already pass wakes exactly at the
            // gate round and everyone else waits for a message
            let gate = if self.cfg.barrier {
                self.active_children.is_empty()
            } else {
                self.cfg
                    .children
                    .iter()
                    .all(|c| self.heard_from.contains(c))
            };
            return if gate { Wake::At(2) } else { Wake::OnMessage };
        }
        if self.is_root() {
            // collecting: the queue is drained on every execution, so an
            // empty-inbox round is a no-op until a child sends; once the
            // result exists the downcast streams one edge per round
            return if self.result.is_some() {
                Wake::EveryRound
            } else {
                Wake::OnMessage
            };
        }
        if !self.terminated {
            return Wake::EveryRound; // one upcast per pulse
        }
        // terminated: still forwarding the result stream?
        if self.result_cursor < self.downcast.len() || (self.sdone_received && !self.downcast_done)
        {
            Wake::EveryRound
        } else {
            Wake::OnMessage
        }
    }
}

/// Aggregate result of a `Pipeline` run.
#[derive(Clone, Debug)]
pub struct PipelineRun {
    /// The cluster-graph MST edge weights the root computed.
    pub mst_weights: Vec<u64>,
    /// Total stalls across all interior nodes (Lemma 5.3: must be 0).
    pub stalls: u64,
    /// Total nondecreasing-order violations (Lemma 5.3: must be 0).
    pub order_violations: u64,
    /// Round at which the root finished collecting (the `O(N + Diam)`
    /// quantity of Lemma 5.5, without the optional result broadcast).
    pub collect_rounds: u64,
    /// BFS-stage report.
    pub bfs_report: RunReport,
    /// Pipeline-stage report (includes the result broadcast).
    pub report: RunReport,
}

/// Runs BFS from `root` and then `Pipeline` over it, with `cluster[v]`
/// giving each node's cluster id, both on the synchronous engine under
/// `config`.
///
/// # Panics
///
/// Panics if the graph is disconnected or the run exceeds its budget.
pub fn run_pipeline(
    g: &Graph,
    root: NodeId,
    cluster: &[u64],
    eliminate: bool,
    barrier: bool,
    config: EngineConfig,
) -> PipelineRun {
    let (bfs, bfs_report) = run_bfs(g, root, &Executor::Sync(config))
        .expect("BFS quiesces within O(n) rounds on a connected graph");
    let nodes: Vec<PipelineNode> = bfs
        .iter()
        .enumerate()
        .map(|(v, b)| {
            PipelineNode::new(PipelineConfig {
                parent: b.parent,
                children: b.children.clone(),
                cluster: cluster[v],
                eliminate,
                barrier,
            })
        })
        .collect();
    // the barrier ablation serializes subtrees and can take Θ(n²) rounds
    let n64 = g.node_count() as u64;
    let budget =
        40 * (n64 + g.edge_count() as u64) + 1000 + if barrier { 4 * n64 * n64 } else { 0 };
    kdom_congest::trace::emit_phase("Pipeline");
    let (nodes, report) =
        kdom_congest::run_protocol(g, nodes, budget, config).expect("pipeline quiesces");
    let root_node = &nodes[root.0];
    PipelineRun {
        mst_weights: root_node.result.clone().expect("root computed the MST"),
        stalls: nodes.iter().map(|n| n.stalls).sum(),
        order_violations: nodes.iter().map(|n| n.order_violations).sum(),
        collect_rounds: root_node.collect_done_round.expect("root finished"),
        bfs_report,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdom_graph::generators::gnp_connected;
    use kdom_graph::generators::{Family, GenConfig};
    use kdom_graph::mst_ref::kruskal;
    use kdom_graph::properties::diameter;

    /// Singleton clusters: pipeline alone computes the full MST.
    fn singleton_clusters(g: &Graph) -> Vec<u64> {
        g.nodes().map(|v| g.id_of(v)).collect()
    }

    /// [`run_pipeline`] from node 0 on the default engine.
    fn pipeline(g: &Graph, cluster: &[u64], eliminate: bool, barrier: bool) -> PipelineRun {
        run_pipeline(
            g,
            NodeId(0),
            cluster,
            eliminate,
            barrier,
            EngineConfig::default(),
        )
    }

    fn expect_mst_weights(g: &Graph) -> Vec<u64> {
        let mut w: Vec<u64> = kruskal(g).iter().map(|&e| g.edge(e).weight).collect();
        w.sort_unstable();
        w
    }

    #[test]
    fn pipeline_computes_mst_with_singletons() {
        for fam in Family::ALL {
            let g = fam.generate(40, 7);
            let run = pipeline(&g, &singleton_clusters(&g), true, false);
            let mut got = run.mst_weights.clone();
            got.sort_unstable();
            assert_eq!(got, expect_mst_weights(&g), "{fam}");
            assert_eq!(run.stalls, 0, "{fam}: Lemma 5.3 violated");
            assert_eq!(run.order_violations, 0, "{fam}");
        }
    }

    #[test]
    fn pipeline_is_fully_pipelined_on_many_graphs() {
        for seed in 0..12u64 {
            let g = gnp_connected(&GenConfig::with_seed(70, seed), 0.08);
            let run = pipeline(&g, &singleton_clusters(&g), true, false);
            assert_eq!(run.stalls, 0, "seed {seed}");
            assert_eq!(run.order_violations, 0, "seed {seed}");
            let mut got = run.mst_weights.clone();
            got.sort_unstable();
            assert_eq!(got, expect_mst_weights(&g), "seed {seed}");
        }
    }

    #[test]
    fn collect_rounds_bounded_by_n_plus_diam() {
        // Lemma 5.5: O(N + Diam); with singleton clusters N = n.
        let g = Family::Grid.generate(100, 3);
        let run = pipeline(&g, &singleton_clusters(&g), true, false);
        let bound = g.node_count() as u64 + 2 * u64::from(diameter(&g)) + 16;
        assert!(
            run.collect_rounds <= bound,
            "{} rounds > {bound}",
            run.collect_rounds
        );
    }

    #[test]
    fn barrier_variant_is_slower_but_correct() {
        let g = Family::BalancedBinary.generate(127, 2);
        let fast = pipeline(&g, &singleton_clusters(&g), true, false);
        let slow = pipeline(&g, &singleton_clusters(&g), true, true);
        let mut a = fast.mst_weights.clone();
        let mut b = slow.mst_weights.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(
            slow.collect_rounds > fast.collect_rounds,
            "barrier {} vs pipelined {}",
            slow.collect_rounds,
            fast.collect_rounds
        );
    }

    #[test]
    fn no_elimination_still_correct_but_heavier() {
        let g = gnp_connected(&GenConfig::with_seed(50, 9), 0.2);
        let with = pipeline(&g, &singleton_clusters(&g), true, false);
        let without = pipeline(&g, &singleton_clusters(&g), false, false);
        let mut a = with.mst_weights.clone();
        let mut b = without.mst_weights.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(without.report.messages > with.report.messages);
    }

    #[test]
    fn cluster_graph_mode() {
        // path of 6 in 3 clusters of 2: the cluster MST has 2 edges
        let g = Family::Path.generate(6, 1);
        let cluster = vec![10, 10, 20, 20, 30, 30];
        let run = pipeline(&g, &cluster, true, false);
        assert_eq!(run.mst_weights.len(), 2);
        assert_eq!(run.stalls, 0);
        // the two inter-cluster edges are path edges 1-2 and 3-4
        let w12 = g.edge_between(NodeId(1), NodeId(2)).unwrap().weight;
        let w34 = g.edge_between(NodeId(3), NodeId(4)).unwrap().weight;
        let mut expect = vec![w12, w34];
        expect.sort_unstable();
        let mut got = run.mst_weights.clone();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn single_cluster_yields_empty_mst() {
        let g = Family::Path.generate(5, 0);
        let run = pipeline(&g, &[7; 5], true, false);
        assert!(run.mst_weights.is_empty());
    }
}
