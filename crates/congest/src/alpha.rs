//! Asynchronous execution via **synchronizer α** (Awerbuch \[Al\]).
//!
//! The paper's model discussion (§1.2) notes that assuming synchrony "is
//! not essential, since our decision to ignore communication costs allows
//! us to freely use a synchronizer of our choice; for example, we can use
//! the simple synchronizer α whose cost in an asynchronous network is one
//! message over each edge in each direction per round". This module makes
//! that argument executable: an event-driven network with per-message
//! delivery delays runs any synchronous [`Protocol`] *unchanged* under
//! synchronizer α, and the tests check the outputs coincide with the
//! synchronous executions.
//!
//! The classic α recipe, per pulse `p`:
//!
//! 1. a node entering pulse `p` runs its synchronous round with the
//!    payload messages its neighbors sent at pulse `p−1`;
//! 2. every payload is acknowledged; once all of a node's pulse-`p`
//!    payloads are acknowledged the node is *safe* and tells every
//!    neighbor;
//! 3. a node advances to pulse `p+1` once it is safe and every neighbor
//!    reported safe for pulse `p` — at which point all pulse-`p` traffic
//!    toward it has provably arrived.
//!
//! # Faults and recovery
//!
//! The executor optionally plays back a [`FaultPlan`]: transmissions can
//! be dropped, duplicated, or delayed, links can go down for intervals,
//! and nodes can fail-stop at a chosen pulse. Under loss the bare
//! synchronizer deadlocks (a lost payload is never acked; a lost *safe*
//! blocks a pulse forever) — the watchdog then reports
//! [`SimError::Stalled`] with the stuck nodes instead of hanging.
//! Layering the [`reliable`](crate::reliable) ARQ machinery under the
//! synchronizer ([`AlphaSimulator::reliable`]) restores exactly-once
//! delivery, making every protocol's output *identical* to its fault-free
//! synchronous execution — the property the recovery tests assert.
//!
//! Crashes use a perfect failure detector: a dying node emits `Down`
//! frames (immune to faults, as is standard for failure-detector
//! abstractions) so neighbors stop waiting for its acks and safes.
//!
//! Measured overheads (report fields): the payload/control message split,
//! the virtual completion time under random delays, and the fault/
//! recovery counters.
//!
//! # Quiescence fast-forward
//!
//! The synchronous engine skips provably-empty rounds explicitly
//! ([`crate::engine`]); this executor needs no analogue, because its
//! event queue *is* a "next event time" min-tracker. Execution is a
//! single FIFO-stable [`EventQueue`] — the shared event core also
//! backing the engine's timer heap — covering
//! payload deliveries, ARQ retransmission timers, and (via the reliable
//! layer's delay queues) every fault-injected extra delay. Popping the
//! queue jumps the virtual clock directly to the next event — silent
//! stretches of virtual time cost nothing by construction, and there is
//! no per-pulse scan to skip. The counters in [`AlphaReport`] are keyed
//! to events, not wall ticks, so they are trivially identical to the
//! "unskipped" execution (no such execution exists to diverge from).

use std::collections::{HashMap, HashSet};

use kdom_graph::graph::{Graph, NodeId};
use kdom_rng::StdRng;

use crate::engine;
use crate::events::EventQueue;
use crate::faults::{FaultInjector, FaultPlan};
use crate::reliable::{LinkState, ReliableConfig, RetxDecision};
use crate::sim::{Message, Port, Protocol, SimError, StallReport};
use crate::trace::{TraceEvent, TraceSink};
use crate::wire::{BitReader, BitWriter, CodecScratch, Wire, WireError, WireFrame};

/// Statistics of an asynchronous (synchronizer-α) execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AlphaReport {
    /// Highest pulse any node entered (should match the synchronous
    /// round count up to the final drain).
    pub pulses: u64,
    /// Virtual completion time (max delivery timestamp processed).
    pub virtual_time: u64,
    /// Payload (protocol) messages delivered.
    pub payload_messages: u64,
    /// Control messages (acks + safe notifications) delivered.
    pub control_messages: u64,
    /// Messages lost to injected faults (drops, down-intervals, and
    /// traffic to/from crashed nodes).
    pub dropped_messages: u64,
    /// Extra copies injected by fault duplication.
    pub duplicated_messages: u64,
    /// Retransmissions performed by the reliable-delivery layer.
    pub retransmissions: u64,
    /// Link-layer bits of payload-carrying frames delivered to live
    /// nodes: the *encoded* frame size, so α pulse tags and (in reliable
    /// mode) ARQ sequence-number framing are priced honestly on top of
    /// the protocol payload.
    pub payload_bits: u64,
    /// Link-layer bits of control frames delivered to live nodes — α
    /// acks and safe notifications, ARQ link-acks and retransmitted
    /// duplicates, and failure-detector `Down` frames.
    pub control_bits: u64,
}

impl From<AlphaReport> for crate::RunReport {
    /// Projects an asynchronous run onto the synchronous metrics, so
    /// compositions can account an α-executed stage like any other:
    /// pulses count as rounds and delivered payloads as messages. The
    /// bit-level fields are α-specific (control traffic dominates) and
    /// are left at zero rather than reported misleadingly.
    fn from(a: AlphaReport) -> Self {
        crate::RunReport {
            rounds: a.pulses,
            messages: a.payload_messages,
            dropped_messages: a.dropped_messages,
            duplicated_messages: a.duplicated_messages,
            retransmissions: a.retransmissions,
            ..crate::RunReport::default()
        }
    }
}

/// α wire format: a payload with its pulse tag, or α control traffic.
/// (Named `AlphaWire` so the codec trait [`Wire`] keeps the short name.)
#[derive(Clone, Debug)]
pub(crate) enum AlphaWire<M> {
    Payload { pulse: u64, msg: M },
    Ack { pulse: u64 },
    Safe { pulse: u64 },
}

impl<M> AlphaWire<M> {
    fn is_payload(&self) -> bool {
        matches!(self, AlphaWire::Payload { .. })
    }
}

/// Encoding: 2-bit tag, pulse as one CONGEST word, and — for payloads —
/// the protocol message as the *tail* of the frame, so its (possibly
/// length-delimited) decoder sees exactly its own bits as the remainder.
impl<M: Message> Wire for AlphaWire<M> {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            AlphaWire::Payload { pulse, msg } => {
                w.tag(0, 3);
                w.word(*pulse);
                msg.encode(w);
            }
            AlphaWire::Ack { pulse } => {
                w.tag(1, 3);
                w.word(*pulse);
            }
            AlphaWire::Safe { pulse } => {
                w.tag(2, 3);
                w.word(*pulse);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag(3)? {
            0 => AlphaWire::Payload {
                pulse: r.word()?,
                msg: M::decode(r)?,
            },
            1 => AlphaWire::Ack { pulse: r.word()? },
            2 => AlphaWire::Safe { pulse: r.word()? },
            value => {
                return Err(WireError::BadTag {
                    context: "AlphaWire",
                    value,
                })
            }
        })
    }
}

/// Physical frame on a link: raw α traffic, ARQ-wrapped traffic, its
/// acknowledgement, or a failure notification.
#[derive(Clone, Debug)]
enum Frame<M> {
    /// Unreliable transport (the fault-free fast path).
    Raw(AlphaWire<M>),
    /// Reliable transport: a wire tagged with a link sequence number.
    Data { seq: u64, wire: AlphaWire<M> },
    /// Link-level acknowledgement of a `Data` frame.
    LinkAck { seq: u64 },
    /// Failure-detector notification: the sender has crashed.
    Down,
}

impl<M> Frame<M> {
    fn carries_payload(&self) -> bool {
        match self {
            Frame::Raw(w) | Frame::Data { wire: w, .. } => w.is_payload(),
            Frame::LinkAck { .. } | Frame::Down => false,
        }
    }
}

/// Encoding: 2-bit tag, ARQ sequence numbers as CONGEST words, and the
/// wrapped α wire as the tail (see [`AlphaWire`]'s encoding note).
impl<M: Message> Wire for Frame<M> {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            Frame::Raw(wire) => {
                w.tag(0, 4);
                wire.encode(w);
            }
            Frame::Data { seq, wire } => {
                w.tag(1, 4);
                w.word(*seq);
                wire.encode(w);
            }
            Frame::LinkAck { seq } => {
                w.tag(2, 4);
                w.word(*seq);
            }
            Frame::Down => w.tag(3, 4),
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag(4)? {
            0 => Frame::Raw(AlphaWire::decode(r)?),
            1 => Frame::Data {
                seq: r.word()?,
                wire: AlphaWire::decode(r)?,
            },
            2 => Frame::LinkAck { seq: r.word()? },
            _ => Frame::Down,
        })
    }
}

/// What actually travels through the event queue: the encoded bit
/// frame, decoded only at delivery. The payload flag is stored so
/// in-flight accounting never needs to decode.
#[derive(Clone, Debug)]
struct Packet {
    frame: WireFrame,
    payload: bool,
}

impl Packet {
    /// Encodes `frame` to its link representation.
    fn of<M: Message>(frame: &Frame<M>) -> Self {
        Packet {
            frame: frame.to_frame(),
            payload: frame.carries_payload(),
        }
    }
}

/// A scheduled simulation event.
enum Event {
    /// `pkt` arrives at `to` over its local `port`.
    Deliver { to: usize, port: Port, pkt: Packet },
    /// The retransmission timer of `(from, port, seq)` fires.
    Retx { from: usize, port: Port, seq: u64 },
}

struct NodeState<P: Protocol> {
    inner: P,
    pulse: u64,
    ran_current: bool,
    pending_acks: u64,
    /// Unacked payloads of the current pulse, per port — lets a dead
    /// neighbor's outstanding acks be cancelled precisely.
    awaiting: Vec<u64>,
    safe_sent: bool,
    /// payloads received, keyed by the sender's pulse
    payloads: HashMap<u64, Vec<(Port, P::Msg)>>,
    /// safe notifications received, keyed by pulse
    safes: HashMap<u64, HashSet<Port>>,
}

/// Event-driven asynchronous executor wrapping synchronous protocols
/// with synchronizer α, with optional fault injection and an optional
/// reliable-delivery layer.
pub struct AlphaSimulator<'g, P: Protocol> {
    graph: &'g Graph,
    nodes: Vec<NodeState<P>>,
    /// Time-ordered, FIFO-stable event queue from the shared event core.
    queue: EventQueue<Event>,
    rng: StdRng,
    max_delay: u64,
    report: AlphaReport,
    /// Application ids, hoisted out of the per-pulse hot path.
    ids: Vec<u64>,
    injector: Option<FaultInjector>,
    arq: Option<ReliableConfig>,
    /// ARQ endpoint state per `(node, port)` (reliable mode only).
    links: Vec<Vec<LinkState<AlphaWire<P::Msg>>>>,
    dead: Vec<bool>,
    /// `dead_ports[v][p]`: v has learned (via `Down`) that the neighbor
    /// across port p crashed.
    dead_ports: Vec<Vec<bool>>,
    /// Payloads lost because an endpoint had crashed.
    crash_dropped: u64,
    /// Payload-bearing frames currently in the event queue.
    inflight_payloads: u64,
    /// Payload wires registered with the ARQ layer and not yet acked.
    unacked_payloads: u64,
    last_activity: u64,
    /// Pooled outbox slab handed to the shared round executor.
    outbox_pool: Vec<Option<P::Msg>>,
    /// Reused codec buffers for the delivery check.
    codec: CodecScratch,
    /// First CONGEST violation observed; surfaced by [`Self::run`].
    violation: Option<SimError>,
    /// Evidence stream (`KDOM_TRACE` / [`AlphaSimulator::set_trace`]);
    /// `None` keeps every emission site a never-taken branch.
    trace: Option<Box<dyn TraceSink>>,
}

impl<'g, P: Protocol> AlphaSimulator<'g, P> {
    /// Creates the asynchronous executor. `max_delay ≥ 1` bounds the
    /// per-message delivery delay, drawn deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != graph.node_count()` or `max_delay == 0`.
    pub fn new(graph: &'g Graph, nodes: Vec<P>, seed: u64, max_delay: u64) -> Self {
        assert_eq!(nodes.len(), graph.node_count(), "one automaton per node");
        assert!(max_delay >= 1, "delays are at least one time unit");
        let n = graph.node_count();
        let nodes = nodes
            .into_iter()
            .enumerate()
            .map(|(v, inner)| NodeState {
                inner,
                pulse: 0,
                ran_current: false,
                pending_acks: 0,
                awaiting: vec![0; graph.degree(NodeId(v))],
                safe_sent: false,
                payloads: HashMap::new(),
                safes: HashMap::new(),
            })
            .collect();
        let ids = (0..n).map(|v| graph.id_of(NodeId(v))).collect();
        let links = (0..n)
            .map(|v| {
                (0..graph.degree(NodeId(v)))
                    .map(|_| LinkState::new())
                    .collect()
            })
            .collect();
        let dead_ports = (0..n)
            .map(|v| vec![false; graph.degree(NodeId(v))])
            .collect();
        AlphaSimulator {
            graph,
            nodes,
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(seed),
            max_delay,
            report: AlphaReport::default(),
            ids,
            injector: None,
            arq: None,
            links,
            dead: vec![false; n],
            dead_ports,
            crash_dropped: 0,
            inflight_payloads: 0,
            unacked_payloads: 0,
            last_activity: 0,
            outbox_pool: Vec::new(),
            codec: CodecScratch::new(),
            violation: None,
            trace: crate::trace::from_env(),
        }
    }

    /// Attaches a [`TraceSink`] for this run, replacing the
    /// environment-selected one; the `run_start` event is emitted when
    /// [`AlphaSimulator::run`] begins (its mode depends on whether the
    /// reliable layer is enabled).
    pub fn set_trace(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Creates an executor that injects the faults described by `plan`
    /// (crash times are interpreted as pulses). Without the reliable
    /// layer most protocols *stall* under loss — enable it with
    /// [`AlphaSimulator::reliable`] to recover exactly-once delivery.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != graph.node_count()` or `max_delay == 0`.
    pub fn with_faults(
        graph: &'g Graph,
        nodes: Vec<P>,
        seed: u64,
        max_delay: u64,
        plan: &FaultPlan,
    ) -> Self {
        let mut sim = Self::new(graph, nodes, seed, max_delay);
        sim.injector = Some(FaultInjector::new(plan));
        sim
    }

    /// Enables the link-level ARQ layer ([`crate::reliable`]): every wire
    /// is sequence-numbered, acknowledged, retransmitted with exponential
    /// backoff until acked, and deduplicated at the receiver.
    pub fn reliable(mut self, cfg: ReliableConfig) -> Self {
        self.arq = Some(cfg);
        self
    }

    /// Pushes `ev` at absolute time `at`, maintaining payload accounting.
    fn enqueue(&mut self, at: u64, ev: Event) {
        if let Event::Deliver { pkt, .. } = &ev {
            if pkt.payload {
                self.inflight_payloads += 1;
            }
        }
        self.queue.push(at, ev);
    }

    /// Physically transmits `frame` over `(from, port)` as its encoded
    /// bit frame, through the fault injector (drops, duplicates, extra
    /// delay, down links).
    fn physical_send(&mut self, now: u64, from: usize, port: Port, frame: Frame<P::Msg>) {
        let arc = self.graph.neighbors(NodeId(from))[port.0];
        let to = arc.to.0;
        let back = Port(self.graph.twin_port(NodeId(from), port.0));
        let pkt = Packet::of(&frame);
        match self.injector.as_mut() {
            None => {
                let delay = self.rng.random_range(1..=self.max_delay);
                self.enqueue(
                    now + delay,
                    Event::Deliver {
                        to,
                        port: back,
                        pkt,
                    },
                );
            }
            Some(inj) => {
                let tx = inj.transmit(arc.edge, now);
                if let Some(t) = self.trace.as_mut() {
                    if tx.copies.is_empty() {
                        t.event(&TraceEvent::Drop {
                            time: now,
                            link_down: tx.down,
                        });
                    } else if tx.copies.len() > 1 {
                        t.event(&TraceEvent::Duplicate { time: now });
                    }
                }
                engine::fan_out(tx.copies, pkt, |extra, pkt| {
                    let delay = self.rng.random_range(1..=self.max_delay) + extra;
                    self.enqueue(
                        now + delay,
                        Event::Deliver {
                            to,
                            port: back,
                            pkt,
                        },
                    );
                });
            }
        }
    }

    /// Sends an α wire over the configured transport (raw or ARQ).
    fn transport_send(&mut self, now: u64, from: usize, port: Port, wire: AlphaWire<P::Msg>) {
        if self.dead[from] || self.dead_ports[from][port.0] {
            if wire.is_payload() {
                self.crash_dropped += 1;
                if let Some(t) = self.trace.as_mut() {
                    t.event(&TraceEvent::CrashDrop { lost: 1 });
                }
            }
            return;
        }
        match self.arq {
            None => self.physical_send(now, from, port, Frame::Raw(wire)),
            Some(cfg) => {
                if wire.is_payload() {
                    self.unacked_payloads += 1;
                }
                let seq = self.links[from][port.0].register_send(wire.clone(), &cfg);
                self.physical_send(now, from, port, Frame::Data { seq, wire });
                self.enqueue(now + cfg.base_timeout, Event::Retx { from, port, seq });
            }
        }
    }

    /// Emits failure-detector `Down` frames on every port of `v`. These
    /// bypass the fault injector (a perfect detector) and arrive after
    /// one time unit.
    fn broadcast_down(&mut self, now: u64, v: usize) {
        for p in 0..self.graph.degree(NodeId(v)) {
            let arc = self.graph.neighbors(NodeId(v))[p];
            let back = Port(self.graph.twin_port(NodeId(v), p));
            let pkt = Packet::of(&Frame::<P::Msg>::Down);
            self.enqueue(
                now + 1,
                Event::Deliver {
                    to: arc.to.0,
                    port: back,
                    pkt,
                },
            );
        }
    }

    /// Fail-stops `v`: it executes nothing further, its pending traffic
    /// is abandoned, and every neighbor is notified.
    fn die(&mut self, now: u64, v: usize) {
        if self.dead[v] {
            return;
        }
        self.dead[v] = true;
        for link in &mut self.links[v] {
            for w in link.clear() {
                if w.is_payload() {
                    self.unacked_payloads = self.unacked_payloads.saturating_sub(1);
                    self.crash_dropped += 1;
                    if let Some(t) = self.trace.as_mut() {
                        t.event(&TraceEvent::CrashDrop { lost: 1 });
                    }
                }
            }
        }
        self.nodes[v].payloads.clear();
        self.nodes[v].safes.clear();
        self.broadcast_down(now, v);
    }

    /// Runs the node's synchronous round for its current pulse and ships
    /// the outputs.
    fn run_round(&mut self, now: u64, v: usize) {
        if self.dead[v] {
            return;
        }
        let pulse = self.nodes[v].pulse;
        debug_assert!(!self.nodes[v].ran_current);
        let inbox = {
            let st = &mut self.nodes[v];
            let mut inbox = if pulse == 0 {
                Vec::new()
            } else {
                st.payloads.remove(&(pulse - 1)).unwrap_or_default()
            };
            inbox.sort_by_key(|(p, _)| *p);
            inbox
        };
        let violation = engine::execute_node_round(
            self.graph,
            &self.ids,
            v,
            pulse,
            &mut self.nodes[v].inner,
            &inbox,
            &mut self.outbox_pool,
        );
        if let Some(port) = violation {
            self.violation.get_or_insert(SimError::CongestViolation {
                node: NodeId(v),
                port,
                round: pulse,
            });
        }
        let mut slots = std::mem::take(&mut self.outbox_pool);
        let mut sent = 0u64;
        self.nodes[v].awaiting.iter_mut().for_each(|a| *a = 0);
        for (p, slot) in slots.iter_mut().enumerate() {
            let Some(msg) = slot.take() else { continue };
            if self.dead_ports[v][p] {
                // neighbor is gone: the payload is undeliverable and no
                // ack will ever come — don't wait for one
                self.crash_dropped += 1;
                if let Some(t) = self.trace.as_mut() {
                    t.event(&TraceEvent::CrashDrop { lost: 1 });
                }
                continue;
            }
            sent += 1;
            self.nodes[v].awaiting[p] = 1;
            self.transport_send(now, v, Port(p), AlphaWire::Payload { pulse, msg });
        }
        self.outbox_pool = slots;
        self.nodes[v].ran_current = true;
        self.nodes[v].pending_acks = sent;
        self.nodes[v].safe_sent = false;
        self.maybe_safe(now, v);
    }

    /// Declares safety once all payloads of the current pulse are acked.
    fn maybe_safe(&mut self, now: u64, v: usize) {
        if self.dead[v] {
            return;
        }
        if self.nodes[v].ran_current && self.nodes[v].pending_acks == 0 && !self.nodes[v].safe_sent
        {
            self.nodes[v].safe_sent = true;
            let pulse = self.nodes[v].pulse;
            for p in 0..self.graph.degree(NodeId(v)) {
                if !self.dead_ports[v][p] {
                    self.transport_send(now, v, Port(p), AlphaWire::Safe { pulse });
                }
            }
            self.maybe_advance(now, v);
        }
    }

    /// Advances to the next pulse once safe and all *live* neighbors are
    /// safe (dead neighbors, learned via `Down`, are excused).
    fn maybe_advance(&mut self, now: u64, v: usize) {
        if self.dead[v] {
            return;
        }
        let pulse = self.nodes[v].pulse;
        let degree = self.graph.degree(NodeId(v));
        // A node with no live neighbors can never receive anything again:
        // suspend it rather than let it pulse in an unbounded self-loop.
        let isolated = (0..degree).all(|p| self.dead_ports[v][p]);
        let ready = !isolated && {
            let st = &self.nodes[v];
            st.ran_current
                && st.safe_sent
                && (0..degree).all(|p| {
                    self.dead_ports[v][p]
                        || st.safes.get(&pulse).is_some_and(|s| s.contains(&Port(p)))
                })
        };
        if ready {
            let st = &mut self.nodes[v];
            st.safes.remove(&pulse);
            st.pulse += 1;
            st.ran_current = false;
            let next = st.pulse;
            if next > self.report.pulses {
                self.report.pulses = next;
                if let Some(t) = self.trace.as_mut() {
                    t.event(&TraceEvent::Pulse { pulse: next });
                }
            }
            if self
                .injector
                .as_ref()
                .and_then(|inj| inj.crash_time(NodeId(v)))
                .is_some_and(|at| next >= at)
            {
                self.die(now, v);
            } else {
                self.run_round(now, v);
            }
        }
    }

    /// Marks the neighbor across `port` as crashed and releases every
    /// wait that depended on it.
    fn handle_down(&mut self, now: u64, v: usize, port: Port) {
        if self.dead[v] || self.dead_ports[v][port.0] {
            return;
        }
        self.dead_ports[v][port.0] = true;
        for w in self.links[v][port.0].clear() {
            if w.is_payload() {
                self.unacked_payloads = self.unacked_payloads.saturating_sub(1);
                self.crash_dropped += 1;
                if let Some(t) = self.trace.as_mut() {
                    t.event(&TraceEvent::CrashDrop { lost: 1 });
                }
            }
        }
        let owed = std::mem::take(&mut self.nodes[v].awaiting[port.0]);
        self.nodes[v].pending_acks = self.nodes[v].pending_acks.saturating_sub(owed);
        self.maybe_safe(now, v);
        self.maybe_advance(now, v);
    }

    /// Processes one α wire delivered to `v` on `port`.
    fn deliver_wire(&mut self, time: u64, v: usize, port: Port, wire: AlphaWire<P::Msg>) {
        match wire {
            AlphaWire::Payload { pulse, msg } => {
                self.report.payload_messages += 1;
                if let Some(t) = self.trace.as_mut() {
                    t.event(&TraceEvent::Deliver {
                        time,
                        node: v as u32,
                        port: port.0 as u32,
                        bits: msg.size_bits(),
                    });
                }
                self.nodes[v]
                    .payloads
                    .entry(pulse)
                    .or_default()
                    .push((port, msg));
                self.transport_send(time, v, port, AlphaWire::Ack { pulse });
            }
            AlphaWire::Ack { pulse } => {
                self.report.control_messages += 1;
                if self.nodes[v].pulse == pulse && self.nodes[v].awaiting[port.0] > 0 {
                    self.nodes[v].awaiting[port.0] -= 1;
                    self.nodes[v].pending_acks = self.nodes[v].pending_acks.saturating_sub(1);
                    self.maybe_safe(time, v);
                }
            }
            AlphaWire::Safe { pulse } => {
                self.report.control_messages += 1;
                self.nodes[v].safes.entry(pulse).or_default().insert(port);
                if self.nodes[v].pulse == pulse {
                    self.maybe_advance(time, v);
                }
            }
        }
    }

    fn all_quiet(&self) -> bool {
        self.inflight_payloads == 0
            && self.unacked_payloads == 0
            && self.nodes.iter().enumerate().all(|(v, st)| {
                self.dead[v] || (st.inner.is_done() && st.payloads.values().all(Vec::is_empty))
            })
    }

    fn stall_report(&self) -> StallReport {
        StallReport {
            not_done: (0..self.nodes.len())
                .filter(|&v| !self.dead[v] && !self.nodes[v].inner.is_done())
                .map(NodeId)
                .collect(),
            pending: self
                .nodes
                .iter()
                .enumerate()
                .map(|(v, st)| (NodeId(v), st.payloads.values().map(Vec::len).sum::<usize>()))
                .filter(|(_, d)| *d > 0)
                .collect(),
            last_activity: self.last_activity,
            crashed: (0..self.nodes.len())
                .filter(|&v| self.dead[v])
                .map(NodeId)
                .collect(),
            live: (0..self.nodes.len())
                .filter(|&v| !self.dead[v])
                .map(NodeId)
                .collect(),
            stopped_at: self.report.pulses,
        }
    }

    /// Surfaces a recorded CONGEST violation as the run's error.
    fn take_violation(&mut self) -> Result<(), SimError> {
        match self.violation.take() {
            Some(e) => {
                self.sync_fault_counters();
                Err(e)
            }
            None => Ok(()),
        }
    }

    fn sync_fault_counters(&mut self) {
        if let Some(inj) = &self.injector {
            self.report.dropped_messages = inj.dropped() + self.crash_dropped;
            self.report.duplicated_messages = inj.duplicated();
        } else {
            self.report.dropped_messages = self.crash_dropped;
        }
    }

    /// Runs to protocol quiescence.
    ///
    /// # Errors
    ///
    /// - [`SimError::RoundLimitExceeded`] if more than `max_pulses` pulses
    ///   elapse, with a [`StallReport`] naming who is behind;
    /// - [`SimError::Stalled`] if the event queue drains before
    ///   quiescence (lost messages with no recovery layer);
    /// - [`SimError::DeliveryExhausted`] if the ARQ layer gives up a link;
    /// - [`SimError::CongestViolation`] if a node double-sent on a port
    ///   (matching the synchronous executor's watchdog).
    pub fn run(&mut self, max_pulses: u64) -> Result<AlphaReport, SimError> {
        if let Some(t) = self.trace.as_mut() {
            t.event(&TraceEvent::RunStart {
                mode: if self.arq.is_some() {
                    "reliable-alpha"
                } else {
                    "alpha"
                },
                nodes: self.graph.node_count(),
                edges: self.graph.edge_count(),
                bit_budget: None,
                fixed_mem: None,
            });
        }
        // initial crashes (pulse 0): these nodes never participate — a
        // degraded topology
        let initial_dead: Vec<usize> = (0..self.nodes.len())
            .filter(|&v| {
                self.injector
                    .as_ref()
                    .and_then(|inj| inj.crash_time(NodeId(v)))
                    .is_some_and(|at| at == 0)
            })
            .collect();
        for v in initial_dead {
            self.die(0, v);
        }
        // pulse 0 for everyone alive
        for v in 0..self.nodes.len() {
            if !self.dead[v] {
                self.run_round(0, v);
            }
        }
        while !self.all_quiet() {
            self.take_violation()?;
            let Some((time, ev)) = self.queue.pop() else {
                self.sync_fault_counters();
                return Err(SimError::Stalled {
                    stall: self.stall_report(),
                });
            };
            if self.report.pulses > max_pulses {
                self.sync_fault_counters();
                return Err(SimError::RoundLimitExceeded {
                    limit: max_pulses,
                    stall: self.stall_report(),
                });
            }
            self.report.virtual_time = self.report.virtual_time.max(time);
            match ev {
                Event::Deliver { to, port, pkt } => {
                    let is_payload = pkt.payload;
                    if is_payload {
                        self.inflight_payloads -= 1;
                    }
                    self.last_activity = time;
                    if self.dead[to] {
                        if is_payload {
                            self.crash_dropped += 1;
                            if let Some(t) = self.trace.as_mut() {
                                t.event(&TraceEvent::CrashDrop { lost: 1 });
                            }
                        }
                        // in reliable mode the sender's state is settled
                        // by the Down frame, not by an ack
                        continue;
                    }
                    let link_bits = pkt.frame.bits();
                    let frame = match self.codec.check_frame::<Frame<P::Msg>>(&pkt.frame) {
                        Ok(decoded) => decoded,
                        Err(detail) => {
                            self.violation.get_or_insert(SimError::WireMismatch {
                                node: NodeId(to),
                                port,
                                round: time,
                                detail,
                            });
                            continue;
                        }
                    };
                    if is_payload {
                        self.report.payload_bits += link_bits;
                    } else {
                        self.report.control_bits += link_bits;
                    }
                    match frame {
                        Frame::Raw(wire) => self.deliver_wire(time, to, port, wire),
                        Frame::Data { seq, wire } => {
                            // always re-ack: the previous LinkAck may have
                            // been lost
                            self.physical_send(time, to, port, Frame::LinkAck { seq });
                            if self.links[to][port.0].accept(seq) {
                                self.deliver_wire(time, to, port, wire);
                            }
                        }
                        Frame::LinkAck { seq } => {
                            if let Some(w) = self.links[to][port.0].on_link_ack(seq) {
                                if w.is_payload() {
                                    self.unacked_payloads -= 1;
                                }
                            }
                        }
                        Frame::Down => self.handle_down(time, to, port),
                    }
                }
                Event::Retx { from, port, seq } => {
                    if self.dead[from] || self.dead_ports[from][port.0] {
                        continue; // link state already cleared
                    }
                    let cfg = self.arq.expect("retx only scheduled in reliable mode");
                    match self.links[from][port.0].on_retx_timer(seq, &cfg) {
                        RetxDecision::Acked => {}
                        RetxDecision::Resend {
                            wire,
                            next_timeout,
                            attempt,
                        } => {
                            self.report.retransmissions += 1;
                            if let Some(t) = self.trace.as_mut() {
                                t.event(&TraceEvent::Retx {
                                    time,
                                    node: from as u32,
                                    port: port.0 as u32,
                                    seq,
                                    attempt,
                                });
                            }
                            self.physical_send(time, from, port, Frame::Data { seq, wire });
                            self.enqueue(time + next_timeout, Event::Retx { from, port, seq });
                        }
                        RetxDecision::Exhausted { attempts } => {
                            self.sync_fault_counters();
                            return Err(SimError::DeliveryExhausted {
                                node: NodeId(from),
                                port,
                                attempts,
                            });
                        }
                    }
                }
            }
        }
        self.take_violation()?;
        self.sync_fault_counters();
        if self.trace.is_some() {
            let projected = crate::RunReport::from(self.report.clone());
            if let Some(t) = self.trace.as_mut() {
                t.event(&TraceEvent::RunEnd { report: &projected });
                t.flush();
            }
        }
        Ok(self.report.clone())
    }

    /// The wrapped automata (for output extraction).
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes.into_iter().map(|st| st.inner).collect()
    }
}

/// Convenience: runs `nodes` under synchronizer α with random delays in
/// `1..=max_delay` and returns the automata plus the report.
///
/// # Errors
///
/// Propagates every [`SimError`] of [`AlphaSimulator::run`].
pub fn run_protocol_alpha<P: Protocol>(
    graph: &Graph,
    nodes: Vec<P>,
    seed: u64,
    max_delay: u64,
    max_pulses: u64,
) -> Result<(Vec<P>, AlphaReport), SimError> {
    let mut sim = AlphaSimulator::new(graph, nodes, seed, max_delay);
    let report = sim.run(max_pulses)?;
    Ok((sim.into_nodes(), report))
}

/// Convenience: α execution with injected faults *and* the reliable
/// ARQ layer, sized for the run's delay bounds. Protocol outputs match
/// the fault-free synchronous execution (on the surviving component).
///
/// # Errors
///
/// Propagates every [`SimError`] of [`AlphaSimulator::run`].
pub fn run_protocol_alpha_reliable<P: Protocol>(
    graph: &Graph,
    nodes: Vec<P>,
    seed: u64,
    max_delay: u64,
    plan: &FaultPlan,
    max_pulses: u64,
) -> Result<(Vec<P>, AlphaReport), SimError> {
    let cfg = ReliableConfig::for_delays(max_delay, plan.max_extra_delay);
    let mut sim = AlphaSimulator::with_faults(graph, nodes, seed, max_delay, plan).reliable(cfg);
    let report = sim.run(max_pulses)?;
    Ok((sim.into_nodes(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run_protocol, Message, NodeCtx, Outbox};
    use kdom_graph::generators::{gnp_connected, path, GenConfig};
    use kdom_graph::properties::bfs_distances;

    /// The BFS protocol from the synchronous tests, reused verbatim.
    #[derive(Clone, Debug, PartialEq, Eq)]
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

    fn bfs_nodes(n: usize) -> Vec<Bfs> {
        (0..n)
            .map(|i| Bfs {
                source: i == 0,
                dist: None,
            })
            .collect()
    }

    #[test]
    fn alpha_bfs_matches_synchronous_output() {
        for seed in 0..5u64 {
            let g = gnp_connected(&GenConfig::with_seed(40, seed), 0.1);
            let (sync_nodes, _) =
                run_protocol(&g, bfs_nodes(40), 10_000, crate::EngineConfig::default()).unwrap();
            let (async_nodes, report) =
                run_protocol_alpha(&g, bfs_nodes(40), seed, 5, 10_000).unwrap();
            let want = bfs_distances(&g, kdom_graph::NodeId(0));
            for v in 0..40 {
                assert_eq!(
                    async_nodes[v].dist, sync_nodes[v].dist,
                    "seed {seed} node {v}"
                );
                assert_eq!(async_nodes[v].dist, Some(want[v]));
            }
            assert!(report.control_messages > 0, "α control traffic exists");
            assert_eq!(report.dropped_messages, 0);
            assert_eq!(report.retransmissions, 0);
        }
    }

    #[test]
    fn alpha_pulse_count_matches_synchronous_rounds_shape() {
        let g = path(&GenConfig::with_seed(30, 0));
        let (_, sync_report) =
            run_protocol(&g, bfs_nodes(30), 10_000, crate::EngineConfig::default()).unwrap();
        let (_, alpha_report) = run_protocol_alpha(&g, bfs_nodes(30), 7, 3, 10_000).unwrap();
        // α keeps *adjacent* nodes within one pulse, so across a path the
        // fastest node can run ahead by up to the diameter before global
        // quiescence is detected: rounds ≤ pulses ≤ rounds + Diam + O(1)
        assert!(alpha_report.pulses >= sync_report.rounds - 1);
        assert!(alpha_report.pulses <= sync_report.rounds + 30 + 3);
    }

    #[test]
    fn alpha_is_deterministic_per_seed() {
        let g = gnp_connected(&GenConfig::with_seed(30, 3), 0.15);
        let (_, a) = run_protocol_alpha(&g, bfs_nodes(30), 11, 4, 10_000).unwrap();
        let (_, b) = run_protocol_alpha(&g, bfs_nodes(30), 11, 4, 10_000).unwrap();
        assert_eq!(a, b);
        let (_, c) = run_protocol_alpha(&g, bfs_nodes(30), 12, 4, 10_000).unwrap();
        assert_ne!(
            a.virtual_time, c.virtual_time,
            "different delays, different time"
        );
    }

    #[test]
    fn alpha_overhead_is_per_edge_per_pulse() {
        let g = gnp_connected(&GenConfig::with_seed(50, 9), 0.1);
        let (_, report) = run_protocol_alpha(&g, bfs_nodes(50), 2, 3, 10_000).unwrap();
        // acks ≤ payloads; safes ≈ 2·|E| per pulse — the [Al] bound
        let bound = (report.pulses + 2) * 2 * g.edge_count() as u64 + report.payload_messages;
        assert!(
            report.control_messages <= bound,
            "{} control msgs > bound {bound}",
            report.control_messages
        );
    }

    #[test]
    fn lossy_alpha_without_recovery_stalls_with_diagnostics() {
        let g = path(&GenConfig::with_seed(20, 0));
        let plan = FaultPlan::new(5).drop_prob(0.5);
        let mut sim = AlphaSimulator::with_faults(&g, bfs_nodes(20), 1, 3, &plan);
        let err = sim.run(10_000).unwrap_err();
        match err {
            SimError::Stalled { stall } | SimError::RoundLimitExceeded { stall, .. } => {
                assert!(!stall.not_done.is_empty(), "stuck nodes are named");
            }
            other => panic!("expected a stall-style error, got {other:?}"),
        }
    }

    #[test]
    fn reliable_alpha_recovers_from_heavy_loss() {
        for seed in 0..3u64 {
            let g = gnp_connected(&GenConfig::with_seed(30, seed), 0.12);
            let plan = FaultPlan::new(seed + 100)
                .drop_prob(0.3)
                .dup_prob(0.1)
                .max_extra_delay(4);
            let (nodes, report) =
                run_protocol_alpha_reliable(&g, bfs_nodes(30), seed, 3, &plan, 10_000).unwrap();
            let want = bfs_distances(&g, kdom_graph::NodeId(0));
            for v in 0..30 {
                assert_eq!(nodes[v].dist, Some(want[v]), "seed {seed} node {v}");
            }
            assert!(report.dropped_messages > 0, "faults actually fired");
            assert!(report.retransmissions > 0, "recovery actually worked");
        }
    }

    #[test]
    fn reliable_alpha_is_exactly_once_without_faults() {
        let g = path(&GenConfig::with_seed(10, 0));
        let plan = FaultPlan::new(0); // fault-free, but ARQ framing active
        let (nodes, report) =
            run_protocol_alpha_reliable(&g, bfs_nodes(10), 4, 2, &plan, 10_000).unwrap();
        let want = bfs_distances(&g, kdom_graph::NodeId(0));
        for v in 0..10 {
            assert_eq!(nodes[v].dist, Some(want[v]));
        }
        assert_eq!(report.dropped_messages, 0);
    }

    #[test]
    fn crash_at_pulse_zero_degrades_topology() {
        // path 0-1-2-3-4-5: node 5 never starts; survivors complete BFS
        let g = path(&GenConfig::with_seed(6, 0));
        let plan = FaultPlan::new(9).crash(kdom_graph::NodeId(5), 0);
        let (nodes, _) =
            run_protocol_alpha_reliable(&g, bfs_nodes(6), 2, 3, &plan, 10_000).unwrap();
        for (v, node) in nodes.iter().enumerate().take(5) {
            assert_eq!(node.dist, Some(v as u32), "survivor {v}");
        }
        assert_eq!(nodes[5].dist, None, "crashed node learned nothing");
    }

    #[test]
    fn mid_run_crash_does_not_wedge_neighbors() {
        // star center crashes at pulse 2: leaves already have distances
        // (assigned at pulse 1) and the run terminates cleanly
        let g = kdom_graph::generators::star(&GenConfig::with_seed(8, 0));
        let plan = FaultPlan::new(1).crash(kdom_graph::NodeId(0), 2);
        let (nodes, _) =
            run_protocol_alpha_reliable(&g, bfs_nodes(8), 3, 2, &plan, 10_000).unwrap();
        assert_eq!(nodes[0].dist, Some(0));
        for (v, node) in nodes.iter().enumerate().skip(1) {
            assert_eq!(node.dist, Some(1), "leaf {v}");
        }
    }

    #[test]
    fn faulty_alpha_is_deterministic() {
        let g = gnp_connected(&GenConfig::with_seed(25, 1), 0.15);
        let plan = FaultPlan::new(3).drop_prob(0.2).dup_prob(0.05);
        let (na, a) = run_protocol_alpha_reliable(&g, bfs_nodes(25), 6, 3, &plan, 10_000).unwrap();
        let (nb, b) = run_protocol_alpha_reliable(&g, bfs_nodes(25), 6, 3, &plan, 10_000).unwrap();
        assert_eq!(a, b, "identical (plan, seed) ⇒ identical reports");
        for v in 0..25 {
            assert_eq!(na[v].dist, nb[v].dist);
        }
    }

    #[test]
    fn alpha_wire_and_frame_round_trip() {
        let wires: Vec<AlphaWire<Dist>> = vec![
            AlphaWire::Payload {
                pulse: 7,
                msg: Dist(41),
            },
            AlphaWire::Ack { pulse: 0 },
            AlphaWire::Safe {
                pulse: (1 << 48) - 1,
            },
        ];
        for w in &wires {
            crate::wire::round_trip(w).unwrap();
        }
        // pulse tag + optional ARQ framing is priced on the wire
        assert_eq!(wires[1].encoded_bits(), 50);
        assert_eq!(wires[0].encoded_bits(), 50 + Dist(41).encoded_bits());
        let frames: Vec<Frame<Dist>> = vec![
            Frame::Raw(wires[0].clone()),
            Frame::Data {
                seq: 3,
                wire: wires[2].clone(),
            },
            Frame::LinkAck { seq: 9 },
            Frame::Down,
        ];
        for f in &frames {
            crate::wire::round_trip(f).unwrap();
        }
        assert_eq!(frames[3].encoded_bits(), 2);
        assert_eq!(frames[2].encoded_bits(), 50);
        assert_eq!(frames[1].encoded_bits(), 50 + wires[2].encoded_bits());
    }

    #[test]
    fn reliable_alpha_charges_payload_and_control_bits() {
        let g = gnp_connected(&GenConfig::with_seed(20, 5), 0.2);
        let plan = FaultPlan::new(11).drop_prob(0.15).dup_prob(0.05);
        let cfg = ReliableConfig::for_delays(3, plan.max_extra_delay);
        let mut sim = AlphaSimulator::with_faults(&g, bfs_nodes(20), 9, 3, &plan).reliable(cfg);
        let report = sim.run(10_000).unwrap();
        assert!(report.payload_bits > 0 && report.control_bits > 0);
        let want = bfs_distances(&g, kdom_graph::NodeId(0));
        for (v, node) in sim.into_nodes().iter().enumerate() {
            assert_eq!(node.dist, Some(want[v]));
        }
    }
}
