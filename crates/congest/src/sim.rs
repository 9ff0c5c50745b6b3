//! The synchronous round loop, node context, outbox, and watchdog.

use std::fmt;

use kdom_graph::graph::{Arc, Graph, NodeId};

use crate::engine::{EngineConfig, RoundEngine};
use crate::faults::{FaultInjector, FaultPlan};
use crate::report::RunReport;
use crate::round::RoundCore;

/// A message that can travel over an edge.
///
/// Every message must define a bit-exact encoding via
/// [`Wire`](crate::wire::Wire) — there is deliberately no default, so an
/// unencoded message type fails to compile instead of silently
/// mis-charging the CONGEST accounting. `size_bits` is *derived* from
/// the encoded length (a zero-allocation counting pass over
/// [`Wire::encode`](crate::wire::Wire::encode)), and every executor
/// routes every send through the real frame. The `Send` bound lets the
/// engine's parallel compute phase move messages across worker shards;
/// protocol messages are plain data, so it is automatic.
pub trait Message: Clone + fmt::Debug + Send + crate::wire::Wire {
    /// Exact size of this message's wire encoding in bits, for the
    /// [`RunReport`] accounting. Provided — do not override; the single
    /// source of truth is the [`Wire`](crate::wire::Wire) encoding.
    fn size_bits(&self) -> u64 {
        self.encoded_bits()
    }
}

/// Bits in one CONGEST word under this repo's conventions: node ids and
/// edge weights are `u64` values below 2^48, so a "`O(log n)`-bit word"
/// is 48 bits.
pub const CONGEST_WORD_BITS: u64 = 48;

/// The CONGEST bit budget of a message carrying `words` `O(log n)`-bit
/// fields — `words * 48` under this repo's id/weight conventions.
///
/// Pass the result to
/// [`EngineConfig::with_bit_budget`](crate::engine::EngineConfig::with_bit_budget)
/// to make debug builds assert that every
/// sent message respects the bound, or compare it against
/// [`RunReport::max_message_bits`](crate::RunReport) after a run. The
/// widest message in the repo is the pipeline's edge descriptor:
/// `(id, id, weight)` = `congest_budget(3)` = 144 bits.
pub const fn congest_budget(words: u64) -> u64 {
    words * CONGEST_WORD_BITS
}

/// The local port (index into a node's adjacency list) an edge occupies.
///
/// Ports are the only way a node refers to its incident edges, mirroring
/// the standard port-numbering convention of message-passing models.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(pub usize);

impl fmt::Debug for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Read-only view a node gets of itself each round.
#[derive(Debug)]
pub struct NodeCtx<'a> {
    /// Dense index of this node (also usable as its unique id).
    pub node: NodeId,
    /// The node's unique application-level identifier.
    pub id: u64,
    /// Current round number, starting at 0.
    pub round: u64,
    /// Incident edges, indexed by [`Port`]. Each [`Arc`] exposes the edge
    /// weight; `neighbor_id` exposes the remote identifier (both are local
    /// knowledge in the paper's model).
    pub arcs: &'a [Arc],
    ids: &'a [u64],
}

impl<'a> NodeCtx<'a> {
    pub(crate) fn new(node: NodeId, id: u64, round: u64, arcs: &'a [Arc], ids: &'a [u64]) -> Self {
        NodeCtx {
            node,
            id,
            round,
            arcs,
            ids,
        }
    }
}

impl NodeCtx<'_> {
    /// Number of incident edges.
    #[inline]
    pub fn degree(&self) -> usize {
        self.arcs.len()
    }

    /// Unique identifier of the neighbor across `port`.
    #[inline]
    pub fn neighbor_id(&self, port: Port) -> u64 {
        self.ids[self.arcs[port.0].to.0]
    }

    /// Weight of the edge at `port`.
    #[inline]
    pub fn edge_weight(&self, port: Port) -> u64 {
        self.arcs[port.0].weight
    }

    /// All ports.
    pub fn ports(&self) -> impl Iterator<Item = Port> {
        (0..self.arcs.len()).map(Port)
    }
}

/// Per-round send buffer: at most one message per port.
#[derive(Debug)]
pub struct Outbox<M> {
    slots: Vec<Option<M>>,
    violation: Option<Port>,
}

impl<M: Message> Outbox<M> {
    /// Creates an empty outbox for a node of the given degree.
    ///
    /// Protocol code receives its outbox from the engine; this is public
    /// for custom executors and benchmark harnesses that drive
    /// [`Protocol::round`] directly.
    pub fn with_degree(degree: usize) -> Self {
        Outbox {
            slots: (0..degree).map(|_| None).collect(),
            violation: None,
        }
    }

    /// Rebuilds an outbox from a recycled slot buffer, clearing it and
    /// resizing to `degree` — the engine's allocation-free path.
    pub(crate) fn recycle(mut slots: Vec<Option<M>>, degree: usize) -> Self {
        slots.clear();
        slots.resize_with(degree, || None);
        Outbox {
            slots,
            violation: None,
        }
    }

    /// Consumes the outbox, yielding the queued message (if any) per port.
    pub fn into_slots(self) -> Vec<Option<M>> {
        self.slots
    }

    /// The first CONGEST violation recorded this round, if any.
    pub fn violation(&self) -> Option<Port> {
        self.violation
    }

    /// Sends `msg` over `port`.
    ///
    /// Queuing a second message on the same port in one round violates the
    /// CONGEST one-message-per-edge-per-round rule; the violation is
    /// recorded and surfaced by the simulator as
    /// [`SimError::CongestViolation`] (the offending message is discarded).
    pub fn send(&mut self, port: Port, msg: M) {
        let slot = &mut self.slots[port.0];
        if slot.is_some() {
            self.violation.get_or_insert(port);
            return;
        }
        *slot = Some(msg);
    }

    /// Sends a copy of `msg` over every port.
    pub fn broadcast(&mut self, msg: M) {
        for i in 0..self.slots.len() {
            self.send(Port(i), msg.clone());
        }
    }

    /// Sends a copy of `msg` over every port except `skip`.
    pub fn broadcast_except(&mut self, msg: M, skip: Port) {
        for i in 0..self.slots.len() {
            if i != skip.0 {
                self.send(Port(i), msg.clone());
            }
        }
    }

    /// Whether anything has been queued this round.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }
}

/// When a node next needs to be stepped, as promised by
/// [`Protocol::next_wake`].
///
/// The engine uses this to *skip* rounds in which provably nothing can
/// happen: a round in which no messages are due and no node is ticking or
/// timer-armed advances the round counter in O(1) instead of scanning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wake {
    /// Step me every round (the conservative default — always correct).
    EveryRound,
    /// I act spontaneously no earlier than round `r`; until then I only
    /// need to be stepped when a message arrives.
    At(u64),
    /// I act only in response to messages; never wake me on a timer.
    OnMessage,
}

/// A per-node automaton executed synchronously by the [`Simulator`].
///
/// The `Send` bound lets the engine shard automata across worker threads
/// when [`EngineConfig::threads`] asks for a parallel compute phase; automata are
/// plain state machines, so it is automatic.
pub trait Protocol: Send {
    /// The message type of this protocol.
    type Msg: Message;

    /// Executes one synchronous round.
    ///
    /// `inbox` holds the messages sent to this node in the previous round,
    /// ordered by port. Messages queued in `out` are delivered at the start
    /// of the next round.
    fn round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(Port, Self::Msg)],
        out: &mut Outbox<Self::Msg>,
    );

    /// Local termination flag. The simulator stops once every node is done
    /// *and* no messages are in flight; a node may "un-done" itself if a
    /// later message re-activates it.
    fn is_done(&self) -> bool;

    /// Declares when this node next needs to run, queried after each of
    /// its executions (with `now` = the round that just ran). The engine
    /// uses the answer both to shrink the per-round active set and to
    /// fast-forward over globally silent stretches.
    ///
    /// **Contract:** for every round `r` strictly between `now` and the
    /// promised wake, executing [`Protocol::round`] with an empty inbox
    /// must be a no-op (no sends, no observable state change, same
    /// `is_done`). Message arrivals always override the promise — a node
    /// is stepped whenever something was delivered to it, whatever it
    /// returned here. Returning a *superset* of the rounds a node acts in
    /// (e.g. [`Wake::EveryRound`], the default) is always safe; returning
    /// too few rounds silently skips protocol actions.
    fn next_wake(&self, _now: u64) -> Wake {
        Wake::EveryRound
    }
}

/// Diagnostic snapshot attached to stall-style errors: which nodes are
/// stuck, how deep their queues are, and when the run last made progress.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StallReport {
    /// Nodes whose [`Protocol::is_done`] is still `false` (crashed nodes
    /// excluded — they are expected to be unfinished).
    pub not_done: Vec<NodeId>,
    /// Nonempty pending queues: `(node, queued message count)`.
    pub pending: Vec<(NodeId, usize)>,
    /// Last round (or virtual time, for the α executor) at which any
    /// message was delivered or any node made progress.
    pub last_activity: u64,
    /// Nodes that crashed per the fault plan.
    pub crashed: Vec<NodeId>,
    /// Nodes still live (not crashed) when the report was taken — with
    /// [`StallReport::last_activity`], enough to diagnose a livelock
    /// from the report alone: who could still act, and since when nobody
    /// has.
    pub live: Vec<NodeId>,
    /// The round (or pulse) at which the watchdog took this snapshot;
    /// `stopped_at - last_activity` is how long the run sat silent.
    pub stopped_at: u64,
}

impl StallReport {
    fn describe(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "; {} node(s) not done", self.not_done.len())?;
        if !self.not_done.is_empty() {
            let head: Vec<String> = self
                .not_done
                .iter()
                .take(8)
                .map(|v| format!("{v:?}"))
                .collect();
            write!(
                f,
                " [{}{}]",
                head.join(", "),
                if self.not_done.len() > 8 { ", …" } else { "" }
            )?;
        }
        let depth: usize = self.pending.iter().map(|(_, d)| d).sum();
        write!(f, "; {depth} message(s) pending",)?;
        if !self.crashed.is_empty() {
            write!(f, "; {} node(s) crashed", self.crashed.len())?;
        }
        write!(
            f,
            "; {} node(s) live; last activity at {} ({} silent before the stop at {})",
            self.live.len(),
            self.last_activity,
            self.stopped_at.saturating_sub(self.last_activity),
            self.stopped_at
        )
    }
}

/// Errors the simulator can report.
///
/// Every variant carries enough context to debug the failing run without
/// re-running it — the watchdog philosophy is that a simulation never
/// fails silently.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The protocol did not reach quiescence within the round budget.
    RoundLimitExceeded {
        /// The budget that was exhausted.
        limit: u64,
        /// Who is stuck and why.
        stall: StallReport,
    },
    /// The event queue drained while the protocol was still unfinished
    /// (asynchronous executor only) — typically lost messages with no
    /// recovery layer enabled.
    Stalled {
        /// Who is stuck and why.
        stall: StallReport,
    },
    /// A node queued two messages on one port in a single round.
    CongestViolation {
        /// The offending node.
        node: NodeId,
        /// The port that was double-sent.
        port: Port,
        /// The round in which it happened.
        round: u64,
    },
    /// A message's frame failed to decode, or its decoded form disagrees
    /// with what was sent — the codec and the message type are out of
    /// sync.
    WireMismatch {
        /// The sending node.
        node: NodeId,
        /// The port the message was sent on.
        port: Port,
        /// The round (or virtual time, for the α executor) of the send.
        round: u64,
        /// What the round trip got wrong.
        detail: String,
    },
    /// The reliable-delivery layer gave up on a link after exhausting its
    /// retransmission budget (asynchronous executor only).
    DeliveryExhausted {
        /// The sending node.
        node: NodeId,
        /// The port whose deliveries kept failing.
        port: Port,
        /// How many transmission attempts were made.
        attempts: u32,
    },
    /// A multi-process peer disappeared or went silent: its socket hit
    /// end-of-file, a read timed out past the heartbeat deadline, or its
    /// handshake disagreed about the protocol version or the graph
    /// (socket transport only).
    PeerLost {
        /// The shard index of the lost peer (`u32::MAX` for the
        /// coordinator, as seen from a worker).
        peer: u32,
        /// The round the run had reached when contact was lost.
        round: u64,
        /// What happened on the stream.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RoundLimitExceeded { limit, stall } => {
                write!(f, "protocol did not quiesce within {limit} rounds")?;
                stall.describe(f)
            }
            SimError::Stalled { stall } => {
                write!(f, "execution stalled: no events left before quiescence")?;
                stall.describe(f)
            }
            SimError::CongestViolation { node, port, round } => write!(
                f,
                "CONGEST violation: {node:?} sent two messages on {port:?} in round {round}"
            ),
            SimError::WireMismatch {
                node,
                port,
                round,
                detail,
            } => write!(
                f,
                "wire round-trip mismatch on {node:?} {port:?} at {round}: {detail}"
            ),
            SimError::DeliveryExhausted {
                node,
                port,
                attempts,
            } => write!(
                f,
                "reliable delivery exhausted after {attempts} attempts on {node:?} {port:?}"
            ),
            SimError::PeerLost {
                peer,
                round,
                detail,
            } => {
                if *peer == u32::MAX {
                    write!(f, "lost the coordinator at round {round}: {detail}")
                } else {
                    write!(f, "lost worker shard {peer} at round {round}: {detail}")
                }
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Deterministic lockstep executor of a [`Protocol`] over a graph.
///
/// A thin shell over the shared round core (the round loop, message
/// arena, and scheduling) driving the in-process [`crate::engine`]
/// backend (the automata and the optional parallel compute phase); this
/// type adds the public surface. Every constructor takes its
/// [`EngineConfig`] from the caller; nothing here reads the
/// environment's engine knobs.
pub struct Simulator<'g, P: Protocol> {
    core: RoundCore<'g, P::Msg>,
    engine: RoundEngine<'g, P>,
}

impl<'g, P: Protocol> Simulator<'g, P> {
    /// Creates a simulator with one automaton per node.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != graph.node_count()`.
    pub fn with_config(graph: &'g Graph, nodes: Vec<P>, config: EngineConfig) -> Self {
        Self::build(graph, nodes, config, None)
    }

    fn build(
        graph: &'g Graph,
        nodes: Vec<P>,
        config: EngineConfig,
        injector: Option<FaultInjector>,
    ) -> Self {
        let (core, engine) = RoundEngine::new(graph, nodes, config, injector);
        Simulator { core, engine }
    }

    /// Creates a simulator that injects the faults described by `plan`.
    ///
    /// Crash times are interpreted as rounds; `max_extra_delay` is ignored
    /// (the synchronous model has no delivery delays). Without a recovery
    /// layer most protocols are *expected* to fail under loss — the
    /// watchdog turns that into a structured [`SimError`] instead of a
    /// hang or a wrong answer. The injected fault stream is part of the
    /// deterministic run: it is identical across thread counts and
    /// schedules.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != graph.node_count()`.
    pub fn with_faults(
        graph: &'g Graph,
        nodes: Vec<P>,
        plan: &FaultPlan,
        config: EngineConfig,
    ) -> Self {
        Self::build(graph, nodes, config, Some(FaultInjector::new(plan)))
    }

    /// The node automata (for output extraction after a run).
    pub fn nodes(&self) -> &[P] {
        self.engine.nodes()
    }

    /// Consumes the simulator, returning the automata and the report.
    pub fn into_parts(self) -> (Vec<P>, RunReport) {
        (self.engine.into_nodes(), self.core.into_report())
    }

    /// Statistics accumulated so far.
    pub fn report(&self) -> &RunReport {
        self.core.report()
    }

    /// Whether every surviving node is done and no messages are in flight.
    pub fn quiescent(&self) -> bool {
        self.core.quiescent()
    }

    /// Attaches a [`TraceSink`](crate::trace::TraceSink) for this run,
    /// replacing the environment-selected one (`KDOM_TRACE`). The sink
    /// immediately receives the `run_start` event; the final report is
    /// emitted when [`Simulator::run`] reaches quiescence.
    pub fn set_trace(&mut self, sink: Box<dyn crate::trace::TraceSink>) {
        self.core.attach_trace(Some(sink));
    }

    /// Skips ahead over provably-empty rounds without executing them
    /// (bounded by `limit`): when no message is queued and no node
    /// ticks, every round before the next timer wake or scheduled crash
    /// is empty, and the round counter jumps there in O(1) with a
    /// byte-identical report. A no-op unless the run is idle-parked, or
    /// when [`EngineConfig::fast_forward`] is off. [`Simulator::run`]
    /// calls this automatically — it is public so instrumented drivers
    /// (the bench harness's round profiler) can interleave skips with
    /// hand-timed [`Simulator::step`] calls.
    pub fn fast_forward(&mut self, limit: u64) {
        self.core.fast_forward(limit);
    }

    /// `(jumps, skipped_rounds)` taken by quiescence fast-forward so far.
    pub fn fast_forward_stats(&self) -> (u64, u64) {
        self.core.fast_forward_stats()
    }

    /// `(nanoseconds, round_trips)` spent in the wire codec so far; all
    /// zeros unless the run was configured with
    /// [`EngineConfig::with_codec_profile`](crate::EngineConfig::with_codec_profile).
    /// Profiling telemetry only — never part of [`RunReport`].
    pub fn codec_stats(&self) -> (u64, u64) {
        self.engine.codec_stats()
    }

    /// Executes a single round: delivers pending messages, steps the
    /// scheduled automata, and queues the newly sent messages.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CongestViolation`] on a double send and
    /// [`SimError::WireMismatch`] when a message's round trip fails.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.core.step(&mut self.engine)
    }

    /// Runs until quiescence or until `max_rounds` rounds were executed.
    ///
    /// When quiescence fast-forward is enabled ([`EngineConfig`], the
    /// default), stretches of rounds in which no message is due and no
    /// node is ticking are skipped in O(1) — the [`RunReport`] and any
    /// [`StallReport`] are byte-identical to the unskipped execution.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimitExceeded`] (with a [`StallReport`]
    /// naming the stuck nodes) if the protocol is still active after
    /// `max_rounds` rounds, and propagates every error of [`Self::step`].
    pub fn run(&mut self, max_rounds: u64) -> Result<RunReport, SimError> {
        self.core.run(&mut self.engine, max_rounds)?;
        Ok(self.core.report().clone())
    }
}

/// Convenience: builds a simulator, runs it to quiescence, and returns the
/// automata plus the report.
///
/// # Errors
///
/// Propagates every [`SimError`] of [`Simulator::run`].
pub fn run_protocol<P: Protocol>(
    graph: &Graph,
    nodes: Vec<P>,
    max_rounds: u64,
    config: EngineConfig,
) -> Result<(Vec<P>, RunReport), SimError> {
    let mut sim = Simulator::with_config(graph, nodes, config);
    sim.run(max_rounds)?;
    Ok(sim.into_parts())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdom_graph::generators::{path, star, GenConfig};
    use kdom_graph::properties::bfs_distances;

    /// Distributed BFS used as the simulator's own smoke test.
    #[derive(Clone, Debug)]
    struct Dist(u32);
    impl crate::wire::Wire for Dist {
        fn encode(&self, w: &mut crate::wire::BitWriter) {
            w.u32(self.0);
        }
        fn decode(r: &mut crate::wire::BitReader<'_>) -> Result<Self, crate::wire::WireError> {
            Ok(Dist(r.u32()?))
        }
    }
    impl Message for Dist {}

    #[derive(Debug)]
    struct Bfs {
        source: bool,
        dist: Option<u32>,
    }

    impl Protocol for Bfs {
        type Msg = Dist;
        fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Port, Dist)], out: &mut Outbox<Dist>) {
            if self.dist.is_some() {
                return;
            }
            if self.source && ctx.round == 0 {
                self.dist = Some(0);
                out.broadcast(Dist(0));
            } else if let Some((p, m)) = inbox.iter().min_by_key(|(_, m)| m.0) {
                self.dist = Some(m.0 + 1);
                out.broadcast_except(Dist(m.0 + 1), *p);
            }
        }
        fn is_done(&self) -> bool {
            self.dist.is_some()
        }
    }

    fn run_bfs(g: &kdom_graph::Graph) -> (Vec<u32>, RunReport) {
        let nodes = (0..g.node_count())
            .map(|i| Bfs {
                source: i == 0,
                dist: None,
            })
            .collect();
        let (nodes, report) = run_protocol(g, nodes, 10_000, EngineConfig::default()).unwrap();
        (nodes.into_iter().map(|b| b.dist.unwrap()).collect(), report)
    }

    fn run_faulty<P: Protocol>(
        g: &Graph,
        nodes: Vec<P>,
        plan: &FaultPlan,
        max_rounds: u64,
    ) -> Result<(Vec<P>, RunReport), SimError> {
        let mut sim = Simulator::with_faults(g, nodes, plan, EngineConfig::default());
        sim.run(max_rounds)?;
        Ok(sim.into_parts())
    }

    #[test]
    fn bfs_on_path_matches_reference() {
        let g = path(&GenConfig::with_seed(12, 0));
        let (dist, report) = run_bfs(&g);
        assert_eq!(dist, bfs_distances(&g, NodeId(0)));
        // eccentricity 11, +1 final processing round
        assert_eq!(report.rounds, 12);
        assert_eq!(report.max_message_bits, 32);
    }

    #[test]
    fn bfs_on_star_is_constant_time() {
        let g = star(&GenConfig::with_seed(100, 0));
        let (dist, report) = run_bfs(&g);
        assert_eq!(dist, bfs_distances(&g, NodeId(0)));
        assert_eq!(report.rounds, 2);
    }

    #[test]
    fn message_accounting() {
        let g = path(&GenConfig::with_seed(3, 0));
        let (_, report) = run_bfs(&g);
        // node0 sends 1 (to node1), node1 forwards 1 (to node2), node2
        // has nowhere left to forward => 2 messages
        assert_eq!(report.messages, 2);
        assert_eq!(report.total_bits, 2 * 32);
        assert!(report.peak_messages_per_round >= 1);
        assert_eq!(report.dropped_messages, 0);
        assert_eq!(report.duplicated_messages, 0);
    }

    #[test]
    fn round_limit_reports_stuck_nodes() {
        #[derive(Debug)]
        struct Chatter;
        #[derive(Clone, Debug)]
        struct Ping;
        crate::impl_wire_empty!(Ping);
        impl Message for Ping {}
        impl Protocol for Chatter {
            type Msg = Ping;
            fn round(&mut self, _: &NodeCtx<'_>, _: &[(Port, Ping)], out: &mut Outbox<Ping>) {
                out.broadcast(Ping);
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = path(&GenConfig::with_seed(2, 0));
        let err = run_protocol(&g, vec![Chatter, Chatter], 5, EngineConfig::default()).unwrap_err();
        let SimError::RoundLimitExceeded { limit, stall } = &err else {
            panic!("expected RoundLimitExceeded, got {err:?}");
        };
        assert_eq!(*limit, 5);
        assert_eq!(
            stall.not_done,
            vec![NodeId(0), NodeId(1)],
            "stuck nodes are named"
        );
        assert!(!stall.pending.is_empty(), "queue depths are reported");
        assert!(err.to_string().contains("5 rounds"));
        assert!(err.to_string().contains("2 node(s) not done"));
    }

    #[test]
    fn double_send_is_a_typed_error() {
        #[derive(Debug)]
        struct Bad;
        #[derive(Clone, Debug)]
        struct Ping;
        crate::impl_wire_empty!(Ping);
        impl Message for Ping {}
        impl Protocol for Bad {
            type Msg = Ping;
            fn round(&mut self, _: &NodeCtx<'_>, _: &[(Port, Ping)], out: &mut Outbox<Ping>) {
                out.send(Port(0), Ping);
                out.send(Port(0), Ping);
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = path(&GenConfig::with_seed(2, 0));
        let err = run_protocol(&g, vec![Bad, Bad], 5, EngineConfig::default()).unwrap_err();
        assert_eq!(
            err,
            SimError::CongestViolation {
                node: NodeId(0),
                port: Port(0),
                round: 0
            }
        );
        assert!(err.to_string().contains("CONGEST violation"));
    }

    #[test]
    fn ports_are_consistent_across_endpoints() {
        // Send a message carrying the sender's id; receiver verifies the
        // arrival port's neighbor_id matches.
        #[derive(Clone, Debug)]
        struct IdMsg(u64);
        impl crate::wire::Wire for IdMsg {
            fn encode(&self, w: &mut crate::wire::BitWriter) {
                w.word(self.0);
            }
            fn decode(r: &mut crate::wire::BitReader<'_>) -> Result<Self, crate::wire::WireError> {
                Ok(IdMsg(r.word()?))
            }
        }
        impl Message for IdMsg {}
        struct Check {
            ok: bool,
            fired: bool,
        }
        impl Protocol for Check {
            type Msg = IdMsg;
            fn round(
                &mut self,
                ctx: &NodeCtx<'_>,
                inbox: &[(Port, IdMsg)],
                out: &mut Outbox<IdMsg>,
            ) {
                if ctx.round == 0 {
                    out.broadcast(IdMsg(ctx.id));
                    self.fired = true;
                }
                for (p, m) in inbox {
                    if ctx.neighbor_id(*p) != m.0 {
                        self.ok = false;
                    }
                }
            }
            fn is_done(&self) -> bool {
                self.fired
            }
        }
        let g = star(&GenConfig::with_seed(9, 3));
        let nodes = (0..9)
            .map(|_| Check {
                ok: true,
                fired: false,
            })
            .collect();
        let (nodes, _) = run_protocol(&g, nodes, 10, EngineConfig::default()).unwrap();
        assert!(nodes.iter().all(|n| n.ok));
    }

    #[test]
    fn broadcast_except_skips_port() {
        let g = path(&GenConfig::with_seed(3, 0));
        // middle node (degree 2) broadcasts except port 0 at round 0
        #[derive(Debug)]
        struct Mid {
            ticked: bool,
        }
        #[derive(Clone, Debug)]
        struct Ping;
        crate::impl_wire_empty!(Ping);
        impl Message for Ping {}
        impl Protocol for Mid {
            type Msg = Ping;
            fn round(&mut self, ctx: &NodeCtx<'_>, _: &[(Port, Ping)], out: &mut Outbox<Ping>) {
                if ctx.round == 0 && ctx.degree() == 2 {
                    out.broadcast_except(Ping, Port(0));
                }
                self.ticked = true;
            }
            fn is_done(&self) -> bool {
                self.ticked
            }
        }
        let nodes = (0..3).map(|_| Mid { ticked: false }).collect();
        let (_, report) = run_protocol(&g, nodes, 10, EngineConfig::default()).unwrap();
        assert_eq!(report.messages, 1);
        assert_eq!(report.rounds, 2);
    }

    #[test]
    fn crash_before_round_zero_degrades_topology() {
        // path 0-1-2-3-4: crashing node 4 leaves 0..=3 reachable; BFS on
        // the survivors matches BFS on the truncated path.
        let g = path(&GenConfig::with_seed(5, 0));
        let plan = FaultPlan::new(1).crash(NodeId(4), 0);
        let nodes = (0..5)
            .map(|i| Bfs {
                source: i == 0,
                dist: None,
            })
            .collect();
        let (nodes, report) = run_faulty(&g, nodes, &plan, 100).unwrap();
        for (v, node) in nodes.iter().enumerate().take(4) {
            assert_eq!(node.dist, Some(v as u32), "survivor distances intact");
        }
        assert_eq!(nodes[4].dist, None, "crashed node learned nothing");
        assert!(
            report.dropped_messages >= 1,
            "the wave into the crashed node is lost"
        );
    }

    #[test]
    fn mid_run_crash_partitions_the_wave() {
        // path of 7, crash node 3 at round 2: the wave reaches nodes 0..=2
        // (distances 0..=2 are assigned by end of round 2) but never
        // crosses the crashed node; nodes 4..=6 stay unreached and the run
        // exceeds its budget with a stall report naming them.
        let g = path(&GenConfig::with_seed(7, 0));
        let plan = FaultPlan::new(2).crash(NodeId(3), 2);
        let nodes = (0..7)
            .map(|i| Bfs {
                source: i == 0,
                dist: None,
            })
            .collect();
        let err = run_faulty::<Bfs>(&g, nodes, &plan, 50).unwrap_err();
        let SimError::RoundLimitExceeded { stall, .. } = err else {
            panic!("expected budget exhaustion");
        };
        assert!(stall.not_done.contains(&NodeId(4)));
        assert!(stall.not_done.contains(&NodeId(6)));
        assert_eq!(stall.crashed, vec![NodeId(3)]);
    }

    #[test]
    fn duplication_duplicates_delivery() {
        #[derive(Debug, Default)]
        struct Count {
            got: usize,
            ticked: bool,
        }
        #[derive(Clone, Debug)]
        struct Ping;
        crate::impl_wire_empty!(Ping);
        impl Message for Ping {}
        impl Protocol for Count {
            type Msg = Ping;
            fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Port, Ping)], out: &mut Outbox<Ping>) {
                self.got += inbox.len();
                if ctx.round == 0 && ctx.node == NodeId(0) {
                    out.broadcast(Ping);
                }
                self.ticked = true;
            }
            fn is_done(&self) -> bool {
                self.ticked
            }
        }
        let g = path(&GenConfig::with_seed(2, 0));
        let plan = FaultPlan::new(3).dup_prob(1.0);
        let (nodes, report) =
            run_faulty(&g, vec![Count::default(), Count::default()], &plan, 10).unwrap();
        assert_eq!(nodes[1].got, 2, "duplicated copy arrives in the same round");
        assert_eq!(report.duplicated_messages, 1);
    }

    /// The packed per-message meta word stores `size_bits` in 20 bits;
    /// frames over `2^20 − 1` bits collapse into the all-ones sentinel and
    /// the merge recomputes their size from the message itself. Push a
    /// frame over 1 Mbit through a real run and check the accounting
    /// took the recompute path, not the truncated field.
    #[test]
    fn oversized_frame_accounting_survives_meta_sentinel() {
        /// `words` zero-words plus a 32-bit count — sized well past 2^20 bits.
        #[derive(Clone, Debug, PartialEq)]
        struct Huge {
            words: u32,
        }
        impl crate::wire::Wire for Huge {
            fn encode(&self, w: &mut crate::wire::BitWriter) {
                w.u32(self.words);
                for _ in 0..self.words {
                    w.word(0);
                }
            }
            fn decode(r: &mut crate::wire::BitReader<'_>) -> Result<Self, crate::wire::WireError> {
                let words = r.u32()?;
                for _ in 0..words {
                    r.word()?;
                }
                Ok(Huge { words })
            }
        }
        impl Message for Huge {}

        #[derive(Debug)]
        struct Shout {
            origin: bool,
            heard_bits: Option<u64>,
        }
        impl Protocol for Shout {
            type Msg = Huge;
            fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Port, Huge)], out: &mut Outbox<Huge>) {
                if self.origin && ctx.round == 0 {
                    out.broadcast(Huge { words: 25_000 });
                }
                if let Some((_, m)) = inbox.first() {
                    self.heard_bits = Some(m.size_bits());
                }
            }
            fn is_done(&self) -> bool {
                self.origin || self.heard_bits.is_some()
            }
        }

        let huge_bits = Huge { words: 25_000 }.size_bits();
        assert!(huge_bits > (1 << 20), "frame must exceed the meta field");
        let g = path(&GenConfig::with_seed(2, 0));
        let nodes = vec![
            Shout {
                origin: true,
                heard_bits: None,
            },
            Shout {
                origin: false,
                heard_bits: None,
            },
        ];
        let (nodes, report) = run_protocol(&g, nodes, 100, EngineConfig::default()).unwrap();
        assert_eq!(nodes[1].heard_bits, Some(huge_bits), "payload intact");
        assert_eq!(report.messages, 1);
        assert_eq!(report.total_bits, huge_bits, "recomputed, not truncated");
        assert_eq!(report.max_message_bits, huge_bits);
    }
}
