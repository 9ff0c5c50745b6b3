//! Deterministic fault injection for the simulators.
//!
//! The paper's model (§1.2) assumes perfectly reliable synchronous links.
//! This module makes that assumption a *toggle*: a [`FaultPlan`] describes
//! a reproducible adversary — per-link message loss, duplication, bounded
//! extra delivery delay (for the asynchronous executor), fail-stop node
//! crashes, and link down-intervals — and a [`FaultInjector`] plays it
//! back deterministically from a seed. The synchronous [`crate::Simulator`]
//! and the synchronizer-α executor ([`crate::AlphaSimulator`]) both accept
//! a plan; the reliable-delivery layer ([`crate::reliable`]) restores
//! exactly-once semantics on top so unmodified protocols stay correct.
//!
//! All decisions are drawn from a single [`StdRng`] stream in simulation
//! event order, so a `(plan, executor seed)` pair fully determines a run.
//!
//! Beyond transient faults, a plan may also schedule **churn epochs**
//! ([`ChurnEpoch`]): batches of topology changes ([`ChurnEvent`]) applied
//! between runs. [`NodeLeave`](ChurnEvent::NodeLeave) generalizes
//! crash-stop — the node is removed from the topology rather than merely
//! silenced — and joins, edge insertions/removals, and weight changes
//! model the rest of a production graph's life. [`apply_churn`] rebuilds
//! the (immutable) [`Graph`] deterministically and returns a
//! [`ChurnRemap`] so surviving per-node state can be carried across;
//! `kdom_core::dist::refixup::run_fragment_epochs` uses it to repair a
//! protocol's output on the rebuilt topology.

use std::collections::{HashMap, HashSet};
use std::fmt;

use kdom_graph::{EdgeId, Graph, GraphBuilder, NodeId};
use kdom_rng::StdRng;

/// A declarative, seeded description of the faults to inject into a run.
///
/// The default plan is fault-free, which reproduces the paper's reliable
/// synchronous model exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault stream; equal plans replay identical faults.
    pub seed: u64,
    /// Per-transmission probability that a message is silently lost.
    pub drop_prob: f64,
    /// Per-transmission probability that a message is delivered twice.
    pub dup_prob: f64,
    /// Upper bound on the *extra* delivery delay (in virtual time units)
    /// a message may suffer, drawn uniformly from `0..=max_extra_delay`.
    /// Only the asynchronous executor interprets delays; the synchronous
    /// simulator ignores this field.
    pub max_extra_delay: u64,
    /// Fail-stop crashes: each named node permanently halts when it
    /// reaches the given round (synchronous) or pulse (α executor).
    pub crashes: Vec<Crash>,
    /// Intervals during which a link delivers nothing in either direction.
    pub link_downs: Vec<LinkDown>,
    /// Scheduled churn epochs, kept sorted by `at` by
    /// [`FaultPlan::epoch`]. The simulators themselves do not interpret
    /// these (a [`Graph`] is immutable for the lifetime of a run):
    /// `ChurnEpoch::at` orders the batches, and
    /// `kdom_core::dist::refixup::run_fragment_epochs` applies each batch
    /// once the previous run has quiesced.
    pub epochs: Vec<ChurnEpoch>,
}

/// One topology change, addressed by **application-level node ids** (the
/// `u64` identifiers), which stay stable across graph rebuilds — dense
/// [`NodeId`] indices shift when nodes leave.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// The node is removed from the topology together with all incident
    /// edges. This generalizes crash-stop: a crashed node still occupies
    /// its slot and darkens its links, a departed node is *gone*.
    NodeLeave {
        /// Application-level id of the leaving node.
        id: u64,
    },
    /// A new node appears, wired to existing nodes.
    NodeJoin {
        /// Fresh application-level id of the joining node.
        id: u64,
        /// `(neighbor id, edge weight)` per new link; weights must keep
        /// the graph's distinct-weights invariant.
        links: Vec<(u64, u64)>,
    },
    /// The weight of an existing edge changes (staying globally distinct).
    EdgeWeightChange {
        /// One endpoint id.
        a: u64,
        /// The other endpoint id.
        b: u64,
        /// The new (distinct) weight.
        weight: u64,
    },
    /// A new edge appears between two existing nodes.
    EdgeInsert {
        /// One endpoint id.
        a: u64,
        /// The other endpoint id.
        b: u64,
        /// The (distinct) weight of the new edge.
        weight: u64,
    },
    /// An existing edge disappears.
    EdgeRemove {
        /// One endpoint id.
        a: u64,
        /// The other endpoint id.
        b: u64,
    },
}

impl ChurnEvent {
    /// Stable snake_case label of the event kind (used by the trace
    /// layer's `churn` records).
    pub fn kind(&self) -> &'static str {
        match self {
            ChurnEvent::NodeLeave { .. } => "node_leave",
            ChurnEvent::NodeJoin { .. } => "node_join",
            ChurnEvent::EdgeWeightChange { .. } => "weight_change",
            ChurnEvent::EdgeInsert { .. } => "edge_insert",
            ChurnEvent::EdgeRemove { .. } => "edge_remove",
        }
    }

    /// The application-level ids the event names: `(primary, secondary)`.
    pub fn endpoints(&self) -> (u64, Option<u64>) {
        match *self {
            ChurnEvent::NodeLeave { id } | ChurnEvent::NodeJoin { id, .. } => (id, None),
            ChurnEvent::EdgeWeightChange { a, b, .. }
            | ChurnEvent::EdgeInsert { a, b, .. }
            | ChurnEvent::EdgeRemove { a, b } => (a, Some(b)),
        }
    }

    /// The weight the event carries, for weight-bearing events.
    pub fn weight(&self) -> Option<u64> {
        match *self {
            ChurnEvent::EdgeWeightChange { weight, .. } | ChurnEvent::EdgeInsert { weight, .. } => {
                Some(weight)
            }
            _ => None,
        }
    }
}

/// A batch of churn events applied atomically between two runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnEpoch {
    /// The batch's position in the plan: epochs apply in ascending `at`,
    /// each once the run before it has quiesced. The value is part of
    /// the plan's identity (it is hashed into a run's spec), but nothing
    /// reads it as a round number.
    pub at: u64,
    /// The events of the batch, applied in order.
    pub events: Vec<ChurnEvent>,
}

/// A churn event could not be applied to the current graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnError {
    /// An event named an application id not present in the graph.
    UnknownNode {
        /// The missing id.
        id: u64,
    },
    /// A `NodeJoin` reused an id that is already present.
    DuplicateNode {
        /// The clashing id.
        id: u64,
    },
    /// An edge event named a pair of nodes with no edge between them.
    UnknownEdge {
        /// One endpoint id.
        a: u64,
        /// The other endpoint id.
        b: u64,
    },
    /// An `EdgeInsert` (or a join link) would create a parallel edge.
    DuplicateEdge {
        /// One endpoint id.
        a: u64,
        /// The other endpoint id.
        b: u64,
    },
    /// A new or changed weight collides with an existing edge weight,
    /// breaking the paper's distinct-weights assumption.
    WeightClash {
        /// The colliding weight.
        weight: u64,
    },
    /// An edge event named the same node twice.
    SelfLoop {
        /// The offending id.
        id: u64,
    },
    /// A `NodeLeave` would remove the last node of the graph.
    EmptyGraph,
}

impl fmt::Display for ChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChurnError::UnknownNode { id } => write!(f, "no node with id {id}"),
            ChurnError::DuplicateNode { id } => write!(f, "a node with id {id} already exists"),
            ChurnError::UnknownEdge { a, b } => write!(f, "no edge between ids {a} and {b}"),
            ChurnError::DuplicateEdge { a, b } => {
                write!(f, "an edge between ids {a} and {b} already exists")
            }
            ChurnError::WeightClash { weight } => {
                write!(f, "weight {weight} is already used by another edge")
            }
            ChurnError::SelfLoop { id } => write!(f, "event names id {id} on both endpoints"),
            ChurnError::EmptyGraph => write!(f, "cannot remove the last node of the graph"),
        }
    }
}

impl std::error::Error for ChurnError {}

/// How node indices moved across [`apply_churn`]: surviving nodes keep
/// their relative order, joined nodes are appended in event order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnRemap {
    /// For each old [`NodeId`]: its new index, or `None` if it left.
    pub old_to_new: Vec<Option<NodeId>>,
    /// For each new [`NodeId`]: its old index, or `None` if it joined.
    pub new_to_old: Vec<Option<NodeId>>,
}

impl ChurnRemap {
    /// The identity remap over `n` nodes (an epoch with no membership
    /// changes).
    pub fn identity(n: usize) -> Self {
        ChurnRemap {
            old_to_new: (0..n).map(|v| Some(NodeId(v))).collect(),
            new_to_old: (0..n).map(|v| Some(NodeId(v))).collect(),
        }
    }
}

/// Applies a batch of churn events to `g`, returning the rebuilt graph
/// and the index remap.
///
/// The rebuild is deterministic: surviving nodes keep their relative
/// order (joins appended in event order), surviving edges keep their
/// relative order (insertions appended in event order), so equal inputs
/// produce byte-identical graphs — ports included. Events are validated
/// against the *evolving* graph, so one epoch may insert an edge and a
/// later epoch may remove it.
///
/// # Errors
///
/// Returns the first [`ChurnError`] encountered; the graph is unchanged
/// (the input is never mutated — on success a fresh [`Graph`] is built).
pub fn apply_churn(g: &Graph, events: &[ChurnEvent]) -> Result<(Graph, ChurnRemap), ChurnError> {
    // working copy: app ids in node order, (a_id, b_id, weight) in edge order
    let mut ids: Vec<u64> = g.nodes().map(|v| g.id_of(v)).collect();
    let mut edges: Vec<(u64, u64, u64)> = g
        .edges()
        .iter()
        .map(|e| (g.id_of(e.u), g.id_of(e.v), e.weight))
        .collect();
    let mut weights: HashSet<u64> = edges.iter().map(|&(_, _, w)| w).collect();
    let mut present: HashSet<u64> = ids.iter().copied().collect();
    let has_edge = |edges: &[(u64, u64, u64)], a: u64, b: u64| {
        edges
            .iter()
            .position(|&(x, y, _)| (x == a && y == b) || (x == b && y == a))
    };

    for ev in events {
        match ev {
            ChurnEvent::NodeLeave { id } => {
                if !present.remove(id) {
                    return Err(ChurnError::UnknownNode { id: *id });
                }
                if present.is_empty() {
                    return Err(ChurnError::EmptyGraph);
                }
                ids.retain(|x| x != id);
                edges.retain(|&(a, b, w)| {
                    let keep = a != *id && b != *id;
                    if !keep {
                        weights.remove(&w);
                    }
                    keep
                });
            }
            ChurnEvent::NodeJoin { id, links } => {
                if !present.insert(*id) {
                    return Err(ChurnError::DuplicateNode { id: *id });
                }
                ids.push(*id);
                for &(nb, w) in links {
                    if nb == *id {
                        return Err(ChurnError::SelfLoop { id: *id });
                    }
                    if !present.contains(&nb) {
                        return Err(ChurnError::UnknownNode { id: nb });
                    }
                    if has_edge(&edges, *id, nb).is_some() {
                        return Err(ChurnError::DuplicateEdge { a: *id, b: nb });
                    }
                    if !weights.insert(w) {
                        return Err(ChurnError::WeightClash { weight: w });
                    }
                    edges.push((*id, nb, w));
                }
            }
            ChurnEvent::EdgeWeightChange { a, b, weight } => {
                if a == b {
                    return Err(ChurnError::SelfLoop { id: *a });
                }
                let at =
                    has_edge(&edges, *a, *b).ok_or(ChurnError::UnknownEdge { a: *a, b: *b })?;
                let old_w = edges[at].2;
                if *weight != old_w {
                    weights.remove(&old_w);
                    if !weights.insert(*weight) {
                        weights.insert(old_w);
                        return Err(ChurnError::WeightClash { weight: *weight });
                    }
                    edges[at].2 = *weight;
                }
            }
            ChurnEvent::EdgeInsert { a, b, weight } => {
                if a == b {
                    return Err(ChurnError::SelfLoop { id: *a });
                }
                for id in [a, b] {
                    if !present.contains(id) {
                        return Err(ChurnError::UnknownNode { id: *id });
                    }
                }
                if has_edge(&edges, *a, *b).is_some() {
                    return Err(ChurnError::DuplicateEdge { a: *a, b: *b });
                }
                if !weights.insert(*weight) {
                    return Err(ChurnError::WeightClash { weight: *weight });
                }
                edges.push((*a, *b, *weight));
            }
            ChurnEvent::EdgeRemove { a, b } => {
                let at =
                    has_edge(&edges, *a, *b).ok_or(ChurnError::UnknownEdge { a: *a, b: *b })?;
                let (_, _, w) = edges.remove(at);
                weights.remove(&w);
            }
        }
    }

    let index: HashMap<u64, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut b = GraphBuilder::new(ids.len());
    b.ids(ids.clone());
    for &(a_id, b_id, w) in &edges {
        b.add_edge(NodeId(index[&a_id]), NodeId(index[&b_id]), w);
    }
    let new_g = b.build();

    let old_to_new: Vec<Option<NodeId>> = g
        .nodes()
        .map(|v| index.get(&g.id_of(v)).map(|&i| NodeId(i)))
        .collect();
    let old_index: HashMap<u64, usize> = g.nodes().map(|v| (g.id_of(v), v.0)).collect();
    let new_to_old: Vec<Option<NodeId>> = ids
        .iter()
        .map(|id| old_index.get(id).map(|&i| NodeId(i)))
        .collect();
    Ok((
        new_g,
        ChurnRemap {
            old_to_new,
            new_to_old,
        },
    ))
}

/// A plan builder input was rejected.
///
/// The panicking builder methods ([`FaultPlan::drop_prob`] & co.) wrap
/// the `try_*` variants and panic with this error's [`fmt::Display`]
/// message, so both APIs reject exactly the same inputs.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultPlanError {
    /// A probability was NaN or outside its legal range.
    ProbabilityOutOfRange {
        /// Which knob: `"drop"` or `"dup"`.
        what: &'static str,
        /// The rejected value (possibly NaN).
        p: f64,
    },
    /// A node already has a scheduled crash.
    DuplicateCrash {
        /// The doubly-crashed node.
        node: NodeId,
    },
    /// A link down-interval was empty or inverted (`from >= until`).
    EmptyLinkDown {
        /// The affected edge.
        edge: EdgeId,
        /// Claimed start of the outage.
        from: u64,
        /// Claimed end of the outage.
        until: u64,
    },
    /// A churn epoch is already scheduled at the same `at`.
    DuplicateEpoch {
        /// The clashing `at`.
        at: u64,
    },
    /// A churn epoch carried no events.
    EmptyEpoch {
        /// The `at` of the empty epoch.
        at: u64,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::ProbabilityOutOfRange { what: "drop", p } => {
                write!(f, "drop probability {p} must be in [0, 1)")
            }
            FaultPlanError::ProbabilityOutOfRange { what, p } => {
                write!(f, "{what} probability {p} out of range")
            }
            FaultPlanError::DuplicateCrash { node } => {
                write!(f, "{node:?} already has a scheduled crash")
            }
            FaultPlanError::EmptyLinkDown { edge, from, until } => {
                write!(f, "empty down-interval [{from}, {until}) for {edge:?}")
            }
            FaultPlanError::DuplicateEpoch { at } => {
                write!(f, "an epoch is already scheduled at {at}")
            }
            FaultPlanError::EmptyEpoch { at } => {
                write!(f, "the epoch at {at} has no events")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A fail-stop crash of one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crash {
    /// The crashing node.
    pub node: NodeId,
    /// First round/pulse the node does **not** execute (`0` = the node
    /// never participates at all, i.e. a degraded topology).
    pub at: u64,
}

/// A down-interval of one link: transmissions in `from..until` (in rounds
/// for the synchronous simulator, virtual time for α) are lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkDown {
    /// The affected undirected edge.
    pub edge: EdgeId,
    /// First failing instant (inclusive).
    pub from: u64,
    /// First working instant again (exclusive end of the outage).
    pub until: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            max_extra_delay: 0,
            crashes: Vec::new(),
            link_downs: Vec::new(),
            epochs: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A fault-free plan with the given seed (faults are opted into via
    /// the builder methods).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the per-transmission drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or not in `[0, 1)` — a drop probability of 1
    /// can never be recovered from and would hang any retransmission
    /// scheme. [`FaultPlan::try_drop_prob`] reports the same rejection as
    /// a typed error.
    pub fn drop_prob(self, p: f64) -> Self {
        self.try_drop_prob(p).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sets the per-transmission drop probability, rejecting NaN and
    /// out-of-`[0, 1)` values.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError::ProbabilityOutOfRange`] on a rejected value.
    pub fn try_drop_prob(mut self, p: f64) -> Result<Self, FaultPlanError> {
        if !(0.0..1.0).contains(&p) {
            // NaN fails every range check and lands here too
            return Err(FaultPlanError::ProbabilityOutOfRange { what: "drop", p });
        }
        self.drop_prob = p;
        Ok(self)
    }

    /// Sets the per-transmission duplication probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or not in `[0, 1]`
    /// ([`FaultPlan::try_dup_prob`] is the non-panicking variant).
    pub fn dup_prob(self, p: f64) -> Self {
        self.try_dup_prob(p).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sets the per-transmission duplication probability, rejecting NaN
    /// and out-of-`[0, 1]` values.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError::ProbabilityOutOfRange`] on a rejected value.
    pub fn try_dup_prob(mut self, p: f64) -> Result<Self, FaultPlanError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(FaultPlanError::ProbabilityOutOfRange {
                what: "duplication",
                p,
            });
        }
        self.dup_prob = p;
        Ok(self)
    }

    /// Sets the maximum extra delivery delay for the α executor.
    pub fn max_extra_delay(mut self, d: u64) -> Self {
        self.max_extra_delay = d;
        self
    }

    /// Schedules a fail-stop crash of `node` at round/pulse `at`.
    ///
    /// # Panics
    ///
    /// Panics if `node` already has a scheduled crash — a second crash
    /// of the same node is always a plan-construction bug (the injector
    /// would silently keep the earlier one). [`FaultPlan::try_crash`] is
    /// the non-panicking variant.
    pub fn crash(self, node: NodeId, at: u64) -> Self {
        self.try_crash(node, at).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Schedules a fail-stop crash, rejecting a second crash for a node
    /// that already has one.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError::DuplicateCrash`] if `node` is already scheduled.
    pub fn try_crash(mut self, node: NodeId, at: u64) -> Result<Self, FaultPlanError> {
        if self.crashes.iter().any(|c| c.node == node) {
            return Err(FaultPlanError::DuplicateCrash { node });
        }
        self.crashes.push(Crash { node, at });
        Ok(self)
    }

    /// Schedules a down-interval `[from, until)` for `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `from >= until` ([`FaultPlan::try_link_down`] is the
    /// non-panicking variant).
    pub fn link_down(self, edge: EdgeId, from: u64, until: u64) -> Self {
        self.try_link_down(edge, from, until)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Schedules a down-interval, rejecting empty or inverted intervals
    /// (`from >= until`).
    ///
    /// # Errors
    ///
    /// [`FaultPlanError::EmptyLinkDown`] on a rejected interval.
    pub fn try_link_down(
        mut self,
        edge: EdgeId,
        from: u64,
        until: u64,
    ) -> Result<Self, FaultPlanError> {
        if from >= until {
            return Err(FaultPlanError::EmptyLinkDown { edge, from, until });
        }
        self.link_downs.push(LinkDown { edge, from, until });
        Ok(self)
    }

    /// Schedules a churn epoch: `events` applied atomically, in the order
    /// `at` gives among the plan's epochs, once the previous run has
    /// quiesced. Epochs are kept sorted by `at`.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or a second epoch at the same `at`
    /// ([`FaultPlan::try_epoch`] is the non-panicking variant).
    pub fn epoch(self, at: u64, events: Vec<ChurnEvent>) -> Self {
        self.try_epoch(at, events).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Schedules a churn epoch, rejecting empty batches and a second
    /// epoch at the same `at`.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError::EmptyEpoch`] or [`FaultPlanError::DuplicateEpoch`].
    pub fn try_epoch(mut self, at: u64, events: Vec<ChurnEvent>) -> Result<Self, FaultPlanError> {
        if events.is_empty() {
            return Err(FaultPlanError::EmptyEpoch { at });
        }
        if self.epochs.iter().any(|e| e.at == at) {
            return Err(FaultPlanError::DuplicateEpoch { at });
        }
        self.epochs.push(ChurnEpoch { at, events });
        self.epochs.sort_by_key(|e| e.at);
        Ok(self)
    }

    /// Whether the plan injects any fault at all (scheduled churn epochs
    /// count: they change the topology under the protocol).
    pub fn is_fault_free(&self) -> bool {
        self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.max_extra_delay == 0
            && self.crashes.is_empty()
            && self.link_downs.is_empty()
            && self.epochs.is_empty()
    }
}

/// The fate of a single physical transmission.
///
/// `copies` holds one entry per delivered copy — the entry is the *extra*
/// delay of that copy. Empty means the transmission was lost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transmission {
    /// Extra delay per delivered copy.
    pub copies: Vec<u64>,
    /// Whether a loss was caused by a link down-interval rather than the
    /// random drop stream (always `false` when copies were delivered).
    /// The trace layer records this so drops stay attributable.
    pub down: bool,
}

impl Transmission {
    /// Whether the transmission was dropped entirely.
    pub fn dropped(&self) -> bool {
        self.copies.is_empty()
    }

    /// Extra copies beyond the first (0 or 1 with the current injector).
    pub fn duplicates(&self) -> u64 {
        (self.copies.len() as u64).saturating_sub(1)
    }
}

/// Deterministic executor of a [`FaultPlan`].
///
/// Counters ([`FaultInjector::dropped`], [`FaultInjector::duplicated`])
/// accumulate across the run and are copied into the run reports.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    rng: StdRng,
    drop_prob: f64,
    dup_prob: f64,
    max_extra_delay: u64,
    crash_at: HashMap<usize, u64>,
    downs: HashMap<usize, Vec<(u64, u64)>>,
    dropped: u64,
    duplicated: u64,
}

impl FaultInjector {
    /// Compiles a plan into a replayable injector.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut crash_at = HashMap::new();
        for c in &plan.crashes {
            // keep the earliest crash if a node is named twice
            let e = crash_at.entry(c.node.0).or_insert(c.at);
            *e = (*e).min(c.at);
        }
        let mut downs: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
        for d in &plan.link_downs {
            downs.entry(d.edge.0).or_default().push((d.from, d.until));
        }
        FaultInjector {
            rng: StdRng::seed_from_u64(plan.seed),
            drop_prob: plan.drop_prob,
            dup_prob: plan.dup_prob,
            max_extra_delay: plan.max_extra_delay,
            crash_at,
            downs,
            dropped: 0,
            duplicated: 0,
        }
    }

    /// Whether `node` has crashed at or before round/pulse `now`.
    pub fn is_crashed(&self, node: NodeId, now: u64) -> bool {
        self.crash_at.get(&node.0).is_some_and(|&at| at <= now)
    }

    /// The round/pulse at which `node` crashes, if any.
    pub fn crash_time(&self, node: NodeId) -> Option<u64> {
        self.crash_at.get(&node.0).copied()
    }

    /// Every scheduled crash as `(round, node)`, sorted. The round
    /// engine consumes this as a static event queue so quiescence
    /// horizons can be computed without polling each node's crash time.
    pub(crate) fn crash_schedule(&self) -> Vec<(u64, u32)> {
        let mut events: Vec<(u64, u32)> = self
            .crash_at
            .iter()
            .map(|(&node, &at)| (at, node as u32))
            .collect();
        events.sort_unstable();
        events
    }

    /// Whether `edge` is inside a down-interval at `now`.
    pub fn link_is_down(&self, edge: EdgeId, now: u64) -> bool {
        self.downs
            .get(&edge.0)
            .is_some_and(|iv| iv.iter().any(|&(f, u)| f <= now && now < u))
    }

    /// Decides the fate of one transmission over `edge` at time `now`,
    /// advancing the deterministic fault stream.
    pub fn transmit(&mut self, edge: EdgeId, now: u64) -> Transmission {
        if self.link_is_down(edge, now) {
            self.dropped += 1;
            return Transmission {
                copies: Vec::new(),
                down: true,
            };
        }
        if self.drop_prob > 0.0 && self.rng.random_bool(self.drop_prob) {
            self.dropped += 1;
            return Transmission {
                copies: Vec::new(),
                down: false,
            };
        }
        let mut copies = Vec::with_capacity(1);
        copies.push(self.extra_delay());
        if self.dup_prob > 0.0 && self.rng.random_bool(self.dup_prob) {
            self.duplicated += 1;
            copies.push(self.extra_delay());
        }
        Transmission {
            copies,
            down: false,
        }
    }

    fn extra_delay(&mut self) -> u64 {
        if self.max_extra_delay == 0 {
            0
        } else {
            self.rng.random_range(0..=self.max_extra_delay)
        }
    }

    /// Messages lost so far (drops plus down-interval losses).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Extra copies injected so far.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_fault_free() {
        let plan = FaultPlan::default();
        assert!(plan.is_fault_free());
        let mut inj = FaultInjector::new(&plan);
        for t in 0..1000 {
            let tx = inj.transmit(EdgeId(0), t);
            assert_eq!(tx.copies, vec![0]);
        }
        assert_eq!(inj.dropped(), 0);
        assert_eq!(inj.duplicated(), 0);
    }

    #[test]
    fn injector_is_deterministic() {
        let plan = FaultPlan::new(7)
            .drop_prob(0.3)
            .dup_prob(0.2)
            .max_extra_delay(5);
        let mut a = FaultInjector::new(&plan);
        let mut b = FaultInjector::new(&plan);
        for t in 0..500 {
            assert_eq!(
                a.transmit(EdgeId(t as usize % 9), t),
                b.transmit(EdgeId(t as usize % 9), t)
            );
        }
        assert_eq!(a.dropped(), b.dropped());
        assert_eq!(a.duplicated(), b.duplicated());
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::new(3).drop_prob(0.25);
        let mut inj = FaultInjector::new(&plan);
        let n = 20_000;
        for t in 0..n {
            inj.transmit(EdgeId(0), t);
        }
        let rate = inj.dropped() as f64 / n as f64;
        assert!((0.22..0.28).contains(&rate), "observed drop rate {rate}");
    }

    #[test]
    fn duplication_produces_two_copies() {
        let plan = FaultPlan::new(5).dup_prob(1.0).max_extra_delay(3);
        let mut inj = FaultInjector::new(&plan);
        let tx = inj.transmit(EdgeId(1), 0);
        assert_eq!(tx.copies.len(), 2);
        assert!(tx.copies.iter().all(|&d| d <= 3));
        assert_eq!(inj.duplicated(), 1);
    }

    #[test]
    fn crashes_and_earliest_wins() {
        // the builder rejects duplicate crashes; a hand-built plan may
        // still carry them, and the injector keeps the earliest
        let plan = FaultPlan {
            crashes: vec![
                Crash {
                    node: NodeId(4),
                    at: 10,
                },
                Crash {
                    node: NodeId(4),
                    at: 3,
                },
            ],
            ..FaultPlan::new(0)
        };
        let inj = FaultInjector::new(&plan);
        assert!(!inj.is_crashed(NodeId(4), 2));
        assert!(inj.is_crashed(NodeId(4), 3));
        assert!(inj.is_crashed(NodeId(4), 11));
        assert_eq!(inj.crash_time(NodeId(4)), Some(3));
        assert_eq!(inj.crash_time(NodeId(5)), None);
    }

    #[test]
    fn link_down_interval_is_half_open() {
        let plan = FaultPlan::new(0).link_down(EdgeId(2), 5, 8);
        let mut inj = FaultInjector::new(&plan);
        assert!(!inj.link_is_down(EdgeId(2), 4));
        assert!(inj.link_is_down(EdgeId(2), 5));
        assert!(inj.link_is_down(EdgeId(2), 7));
        assert!(!inj.link_is_down(EdgeId(2), 8));
        assert!(!inj.link_is_down(EdgeId(3), 6));
        assert!(inj.transmit(EdgeId(2), 6).dropped());
        assert_eq!(inj.dropped(), 1);
    }

    #[test]
    fn down_interval_losses_are_attributed() {
        let plan = FaultPlan::new(0).link_down(EdgeId(2), 5, 8).dup_prob(1.0);
        let mut inj = FaultInjector::new(&plan);
        assert!(inj.transmit(EdgeId(2), 6).down);
        let tx = inj.transmit(EdgeId(2), 9);
        assert!(!tx.down);
        assert_eq!(tx.duplicates(), 1);
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn full_drop_rejected() {
        let _ = FaultPlan::new(0).drop_prob(1.0);
    }

    #[test]
    fn builder_inputs_rejected_with_typed_errors() {
        match FaultPlan::new(0).try_drop_prob(f64::NAN) {
            Err(FaultPlanError::ProbabilityOutOfRange { what: "drop", p }) => {
                assert!(p.is_nan())
            }
            other => panic!("expected out-of-range error, got {other:?}"),
        }
        assert!(FaultPlan::new(0).try_drop_prob(1.0).is_err());
        assert!(FaultPlan::new(0).try_drop_prob(-0.1).is_err());
        assert!(FaultPlan::new(0).try_drop_prob(0.999).is_ok());
        assert!(FaultPlan::new(0).try_dup_prob(f64::NAN).is_err());
        assert!(FaultPlan::new(0).try_dup_prob(1.0 + f64::EPSILON).is_err());
        assert!(FaultPlan::new(0).try_dup_prob(1.0).is_ok());
        assert_eq!(
            FaultPlan::new(0)
                .try_crash(NodeId(3), 5)
                .unwrap()
                .try_crash(NodeId(3), 9),
            Err(FaultPlanError::DuplicateCrash { node: NodeId(3) })
        );
        assert_eq!(
            FaultPlan::new(0).try_link_down(EdgeId(1), 7, 7),
            Err(FaultPlanError::EmptyLinkDown {
                edge: EdgeId(1),
                from: 7,
                until: 7
            })
        );
        assert_eq!(
            FaultPlan::new(0).try_link_down(EdgeId(1), 9, 2),
            Err(FaultPlanError::EmptyLinkDown {
                edge: EdgeId(1),
                from: 9,
                until: 2
            })
        );
        assert!(FaultPlan::new(0).try_link_down(EdgeId(1), 2, 9).is_ok());
        assert_eq!(
            FaultPlan::new(0).try_epoch(4, Vec::new()),
            Err(FaultPlanError::EmptyEpoch { at: 4 })
        );
        let ev = vec![ChurnEvent::NodeLeave { id: 1 }];
        assert_eq!(
            FaultPlan::new(0)
                .try_epoch(4, ev.clone())
                .unwrap()
                .try_epoch(4, ev),
            Err(FaultPlanError::DuplicateEpoch { at: 4 })
        );
        // NaN errors display something actionable
        let e = FaultPlan::new(0).try_drop_prob(f64::NAN).unwrap_err();
        assert!(e.to_string().contains("drop probability NaN"));
    }

    #[test]
    #[should_panic(expected = "already has a scheduled crash")]
    fn duplicate_crash_panics_in_builder() {
        let _ = FaultPlan::new(0).crash(NodeId(4), 10).crash(NodeId(4), 3);
    }

    #[test]
    fn epochs_are_sorted_and_count_as_faults() {
        let plan = FaultPlan::new(0)
            .epoch(9, vec![ChurnEvent::NodeLeave { id: 2 }])
            .epoch(4, vec![ChurnEvent::EdgeRemove { a: 0, b: 1 }]);
        assert_eq!(plan.epochs[0].at, 4);
        assert_eq!(plan.epochs[1].at, 9);
        assert!(!plan.is_fault_free());
    }

    fn square() -> Graph {
        // 0-1-2-3-0 cycle with a chord 0-2
        let mut b = kdom_graph::GraphBuilder::new(4);
        b.ids(vec![10, 11, 12, 13]);
        b.add_edge(NodeId(0), NodeId(1), 1);
        b.add_edge(NodeId(1), NodeId(2), 2);
        b.add_edge(NodeId(2), NodeId(3), 3);
        b.add_edge(NodeId(3), NodeId(0), 4);
        b.add_edge(NodeId(0), NodeId(2), 5);
        b.build()
    }

    #[test]
    fn churn_leave_rewires_and_remaps() {
        let g = square();
        let (h, remap) = apply_churn(&g, &[ChurnEvent::NodeLeave { id: 11 }]).unwrap();
        assert_eq!(h.node_count(), 3);
        assert_eq!(h.edge_count(), 3); // lost 10-11 and 11-12
        assert_eq!(remap.old_to_new[1], None);
        assert_eq!(remap.old_to_new[0], Some(NodeId(0)));
        assert_eq!(remap.old_to_new[2], Some(NodeId(1)));
        assert_eq!(remap.old_to_new[3], Some(NodeId(2)));
        assert_eq!(
            remap.new_to_old,
            vec![Some(NodeId(0)), Some(NodeId(2)), Some(NodeId(3))]
        );
        assert_eq!(h.id_of(NodeId(1)), 12);
        assert!(h.has_distinct_weights());
    }

    /// A rebuilt topology carries its own twin-port table: every arc's
    /// recorded twin matches a scan of the other endpoint.
    #[test]
    fn churned_graph_twin_ports_match_scan() {
        let g = kdom_graph::generators::gnp_connected(
            &kdom_graph::generators::GenConfig::with_seed(40, 5),
            0.15,
        );
        let id = |v: usize| g.id_of(NodeId(v));
        let kept = g
            .edges()
            .iter()
            .find(|e| e.u.0 != 7 && e.v.0 != 7)
            .expect("an edge away from node 7");
        let events = [
            ChurnEvent::NodeLeave { id: id(7) },
            ChurnEvent::EdgeRemove {
                a: g.id_of(kept.u),
                b: g.id_of(kept.v),
            },
            ChurnEvent::NodeJoin {
                id: 1_000,
                links: vec![(id(3), u64::MAX - 1), (id(30), u64::MAX - 2)],
            },
        ];
        let (h, _) = apply_churn(&g, &events).unwrap();
        for v in h.nodes() {
            for (p, arc) in h.neighbors(v).iter().enumerate() {
                let scanned = h.neighbors(arc.to).iter().position(|x| x.edge == arc.edge);
                assert_eq!(Some(h.twin_port(v, p)), scanned, "twin of {v:?} port {p}");
            }
        }
    }

    #[test]
    fn churn_join_appends_node_and_edges() {
        let g = square();
        let (h, remap) = apply_churn(
            &g,
            &[ChurnEvent::NodeJoin {
                id: 99,
                links: vec![(10, 100), (12, 101)],
            }],
        )
        .unwrap();
        assert_eq!(h.node_count(), 5);
        assert_eq!(h.id_of(NodeId(4)), 99);
        assert_eq!(remap.new_to_old[4], None);
        assert_eq!(h.degree(NodeId(4)), 2);
        assert!(h.edge_between(NodeId(4), NodeId(0)).is_some());
    }

    #[test]
    fn churn_edge_events_validate() {
        let g = square();
        // weight change to a colliding weight
        assert_eq!(
            apply_churn(
                &g,
                &[ChurnEvent::EdgeWeightChange {
                    a: 10,
                    b: 11,
                    weight: 3
                }]
            ),
            Err(ChurnError::WeightClash { weight: 3 })
        );
        // no-op weight change to its own weight is fine
        let (h, _) = apply_churn(
            &g,
            &[ChurnEvent::EdgeWeightChange {
                a: 10,
                b: 11,
                weight: 1,
            }],
        )
        .unwrap();
        assert_eq!(h.edge_between(NodeId(0), NodeId(1)).unwrap().weight, 1);
        // insert a parallel edge
        assert_eq!(
            apply_churn(
                &g,
                &[ChurnEvent::EdgeInsert {
                    a: 11,
                    b: 10,
                    weight: 50
                }]
            ),
            Err(ChurnError::DuplicateEdge { a: 11, b: 10 })
        );
        // remove + reinsert with a new weight, across one batch
        let (h, remap) = apply_churn(
            &g,
            &[
                ChurnEvent::EdgeRemove { a: 10, b: 12 },
                ChurnEvent::EdgeInsert {
                    a: 11,
                    b: 13,
                    weight: 7,
                },
            ],
        )
        .unwrap();
        assert_eq!(remap, ChurnRemap::identity(4));
        assert!(h.edge_between(NodeId(0), NodeId(2)).is_none());
        assert_eq!(h.edge_between(NodeId(1), NodeId(3)).unwrap().weight, 7);
        // unknown nodes / edges
        assert_eq!(
            apply_churn(&g, &[ChurnEvent::NodeLeave { id: 77 }]),
            Err(ChurnError::UnknownNode { id: 77 })
        );
        assert_eq!(
            apply_churn(&g, &[ChurnEvent::EdgeRemove { a: 11, b: 13 }]),
            Err(ChurnError::UnknownEdge { a: 11, b: 13 })
        );
    }

    #[test]
    fn churn_rebuild_is_deterministic() {
        let g = square();
        let events = [
            ChurnEvent::NodeLeave { id: 13 },
            ChurnEvent::NodeJoin {
                id: 20,
                links: vec![(12, 40)],
            },
            ChurnEvent::EdgeWeightChange {
                a: 10,
                b: 11,
                weight: 9,
            },
        ];
        let (a, ra) = apply_churn(&g, &events).unwrap();
        let (b, rb) = apply_churn(&g, &events).unwrap();
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }
}
