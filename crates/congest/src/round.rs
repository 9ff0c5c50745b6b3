//! The synchronous round, implemented once for every executor.
//!
//! A CONGEST round (Kutten–Peleg §1.2) lets each edge direction carry at
//! most one message, delivered at the start of the next round.
//! [`RoundCore`] owns everything such a round needs except the automata:
//!
//! - the double-buffered slot arena, indexed by the graph's CSR arc
//!   order and generic over the payload — the protocol's message in
//!   process, an opaque wire frame in the socket coordinator;
//! - the schedule: ticking list, [`TimerHeap`], receiver marks, done
//!   flags, the live-undone counter, and the crash cursor;
//! - the sequential merge ([`RoundCore::deliver`]) with fault injection,
//!   trace events, and [`RunReport`] accounting;
//! - quiescence fast-forward, the stall snapshot, the fixed-memory
//!   formula, and the one run loop ([`RoundCore::run`]).
//!
//! How the active nodes are computed is a [`RoundBackend`]: the
//! in-process [`RoundEngine`](crate::engine) shards automata across
//! threads, the socket coordinator ([`crate::transport`]) ships work
//! orders to worker processes. Both feed their sends back in ascending
//! `(sender, port)` order, so both produce the same report and trace.
//!
//! Two ideas keep the round cheap:
//!
//! 1. **Wake-driven active sets.** Instead of scanning all `n` automata
//!    every round, the core steps only nodes that received a message,
//!    declared [`Wake::EveryRound`], or whose [`Wake::At`] timer is due.
//!    This relies on the [`Protocol`] contract ([`Protocol::next_wake`]):
//!    between its declared wakes, a node with an empty inbox does
//!    nothing. When the active fraction reaches
//!    [`EngineConfig::dense_pct`] the core falls back to a dense `0..n`
//!    scan — cheaper than merging near-full lists. `dense_pct = 0` with
//!    fast-forward off steps every node every round; every schedule is
//!    byte-identical for contract-abiding protocols.
//!
//! 2. **Quiescence fast-forward.** The core tracks in-flight message
//!    copies, ticking nodes, timer wakes (a lazily-invalidated
//!    [`TimerHeap`] from the shared [`events`](crate::events) core), and
//!    the fault plan's crash schedule. When no message is queued and no
//!    node ticks, every round up to the next timer or crash is provably
//!    empty — [`RoundCore::fast_forward`] advances the round counter
//!    there in O(1). An empty round touches nothing but the counter, so
//!    all [`RunReport`]/[`StallReport`] fields stay byte-identical to the
//!    unskipped execution.

use kdom_graph::graph::{Graph, NodeId};

use crate::engine::EngineConfig;
use crate::events::TimerHeap;
use crate::faults::FaultInjector;
use crate::report::RunReport;
use crate::sim::{Port, Protocol, SimError, StallReport, Wake};
use crate::trace::{TraceEvent, TraceSink};

/// One arena slot: the message queued on an edge direction plus the
/// number of identical copies the fault injector delivered — duplicates
/// are refcounted here, not deep-cloned.
pub(crate) type Slot<M> = Option<(M, u32)>;

/// What a stepped node needs next, recorded by the compute phase and
/// applied to the schedule after the merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NodeOutcome {
    /// Crashed: never scheduled by timer again (arrivals still reach it,
    /// and are lost there).
    Crashed,
    /// `is_done()`: unscheduled until a message arrives.
    Done,
    /// Not done and ticking: step it next round.
    Tick,
    /// Not done, acts only on messages.
    Sleep,
    /// Not done, timer-armed for the given future round (> now + 1).
    Park(u64),
}

impl NodeOutcome {
    /// The schedule request of `node` right after it executed `round`.
    pub(crate) fn after<P: Protocol>(node: &P, round: u64) -> Self {
        if node.is_done() {
            return NodeOutcome::Done;
        }
        match node.next_wake(round) {
            Wake::EveryRound => NodeOutcome::Tick,
            Wake::OnMessage => NodeOutcome::Sleep,
            Wake::At(r) if r > round + 1 => NodeOutcome::Park(r),
            Wake::At(_) => NodeOutcome::Tick,
        }
    }
}

/// The fixed memory footprint of a run of protocol `P` on `graph`, in
/// bytes: the graph (CSR, twin ports, edges, ids), the executor's id
/// table, both message arenas, the per-node schedule state (wake_at 8 +
/// recv_mark 8 + done_flag 1 bytes), and the automata. Computed from
/// logical lengths and type sizes, never allocator capacities, so it is
/// the same at every thread count and on both sides of a socket (workers
/// ship it in their handshake: only they know `P`).
pub(crate) fn fixed_memory<P: Protocol>(graph: &Graph) -> u64 {
    let n = graph.node_count() as u64;
    let slots = graph.twin_ports().len() as u64;
    graph.memory_bytes()
        + n * 8
        + 2 * slots * std::mem::size_of::<Slot<P::Msg>>() as u64
        + n * 17
        + n * std::mem::size_of::<P>() as u64
}

/// Bytes one staged send of protocol `P` occupies: a packed metadata
/// word plus its message slab slot.
pub(crate) fn staged_bytes<P: Protocol>() -> u64 {
    8 + std::mem::size_of::<P::Msg>() as u64
}

/// How an executor computes one round for a [`RoundCore`].
pub(crate) trait RoundBackend<M> {
    /// Executes `core.active` for round `core.round`: takes their queued
    /// messages out of `core.inbox`, merges every staged send into the
    /// core in ascending `(sender, port)` order
    /// ([`RoundCore::open_merge`], [`RoundCore::deliver`],
    /// [`RoundCore::close_merge`]), and hands the executed nodes'
    /// outcomes, ascending by node, to [`RoundCore::apply_schedule`].
    fn execute(&mut self, core: &mut RoundCore<'_, M>) -> Result<(), SimError>;
}

/// The schedule, arena, and accounting of a synchronous run (see the
/// module docs). Fields the backends touch directly are `pub(crate)`.
pub(crate) struct RoundCore<'g, M> {
    graph: &'g Graph,
    config: EngineConfig,
    /// The graph's CSR offsets: node `v`'s arena slots are
    /// `offsets[v]..offsets[v + 1]`.
    pub(crate) offsets: &'g [usize],
    /// The graph's twin ports, in arena-slot order.
    pub(crate) twins: &'g [u32],
    /// Arena being consumed this round (last round's deliveries).
    pub(crate) inbox: Vec<Slot<M>>,
    /// Arena receiving this round's sends (next round's inbox).
    pub(crate) pending: Vec<Slot<M>>,
    /// Message copies queued in `pending`.
    pending_count: u64,
    /// Epoch stamps marking nodes already in `receivers` this round.
    pub(crate) recv_mark: Vec<u64>,
    /// Nodes with queued messages in `pending`, in delivery order
    /// (sorted on demand when the active list is merged).
    pub(crate) receivers: Vec<u32>,
    /// Not-done nodes that asked to tick next round, sorted.
    ticking: Vec<u32>,
    /// Per-node one-shot timers: the authoritative `wake_at` table plus
    /// the lazily-invalidated parked heap.
    timers: TimerHeap,
    /// Scratch: valid timers due this round.
    due: Vec<u32>,
    /// Scratch for the three-way active-list merge.
    merged: Vec<u32>,
    /// This round's active nodes, ascending.
    pub(crate) active: Vec<u32>,
    /// `is_done()` per node, as of its last execution.
    done_flag: Vec<bool>,
    /// Count of not-done nodes not yet excused by a crash — quiescence
    /// in O(1).
    live_undone: usize,
    /// The fault plan's crash schedule, sorted by `(round, node)`, with
    /// a cursor over the events already applied to `live_undone`.
    crash_events: Vec<(u64, u32)>,
    crash_cursor: usize,
    /// The first step visits every node regardless of schedule.
    first_step: bool,
    pub(crate) round: u64,
    report: RunReport,
    pub(crate) injector: Option<FaultInjector>,
    last_activity: u64,
    /// Messages lost in the inboxes of crashed nodes (counted separately
    /// from the injector's link-level drops).
    crash_lost: u64,
    /// Evidence stream; `None` (the default) makes every emission site a
    /// single never-taken branch.
    pub(crate) trace: Option<Box<dyn TraceSink>>,
    /// Fast-forward jumps taken, and rounds they skipped.
    ff_jumps: u64,
    ff_skipped: u64,
    /// See [`fixed_memory`] and [`staged_bytes`].
    fixed_mem: u64,
    staged_bytes: u64,
    /// Sends staged and messages sent in the current round.
    round_staged: u64,
    round_msgs: u64,
}

impl<'g, M> RoundCore<'g, M> {
    /// A core at round 0 over `graph`, with every node's initial
    /// `is_done()` in `done`. `fixed_mem` and `staged_bytes` are the
    /// run protocol's [`fixed_memory`] and [`staged_bytes`].
    pub(crate) fn new(
        graph: &'g Graph,
        config: EngineConfig,
        done: Vec<bool>,
        injector: Option<FaultInjector>,
        fixed_mem: u64,
        staged_bytes: u64,
    ) -> Self {
        let n = graph.node_count();
        assert_eq!(done.len(), n, "one done flag per node required");
        let slots = graph.twin_ports().len();
        let crash_events = injector
            .as_ref()
            .map(FaultInjector::crash_schedule)
            .unwrap_or_default();
        let mut core = RoundCore {
            graph,
            config,
            offsets: graph.offsets(),
            twins: graph.twin_ports(),
            inbox: (0..slots).map(|_| None).collect(),
            pending: (0..slots).map(|_| None).collect(),
            pending_count: 0,
            recv_mark: vec![0; n],
            receivers: Vec::new(),
            ticking: Vec::new(),
            timers: TimerHeap::new(n),
            due: Vec::new(),
            merged: Vec::new(),
            active: Vec::new(),
            live_undone: done.iter().filter(|&&d| !d).count(),
            done_flag: done,
            crash_events,
            crash_cursor: 0,
            first_step: true,
            round: 0,
            report: RunReport {
                peak_memory_bytes: fixed_mem,
                ..RunReport::default()
            },
            injector,
            last_activity: 0,
            crash_lost: 0,
            trace: None,
            ff_jumps: 0,
            ff_skipped: 0,
            fixed_mem,
            staged_bytes,
            round_staged: 0,
            round_msgs: 0,
        };
        core.advance_crash_epoch();
        core
    }

    /// Attaches an evidence sink and announces the run to it; `None` is
    /// a no-op.
    pub(crate) fn attach_trace(&mut self, sink: Option<Box<dyn TraceSink>>) {
        if let Some(mut t) = sink {
            t.event(&TraceEvent::RunStart {
                mode: "sync",
                nodes: self.graph.node_count(),
                edges: self.graph.edge_count(),
                bit_budget: self.config.bit_budget,
                fixed_mem: Some(self.fixed_mem),
            });
            self.trace = Some(t);
        }
    }

    /// `(jumps, skipped_rounds)` taken by quiescence fast-forward so far.
    pub(crate) fn fast_forward_stats(&self) -> (u64, u64) {
        (self.ff_jumps, self.ff_skipped)
    }

    pub(crate) fn report(&self) -> &RunReport {
        &self.report
    }

    pub(crate) fn into_report(self) -> RunReport {
        self.report
    }

    /// Whether every surviving node is done and no messages are queued.
    /// Crash excuses are evaluated at the *current* round (the crash
    /// cursor is advanced with it), so a node scheduled to crash later
    /// still counts as unfinished now.
    pub(crate) fn quiescent(&self) -> bool {
        self.pending_count == 0 && self.live_undone == 0
    }

    /// Applies every crash event scheduled at or before the current
    /// round: an unfinished node that crashes stops counting toward
    /// quiescence, and its timer (if any) is cancelled.
    fn advance_crash_epoch(&mut self) {
        while let Some(&(at, v)) = self.crash_events.get(self.crash_cursor) {
            if at > self.round {
                break;
            }
            self.crash_cursor += 1;
            if !self.done_flag[v as usize] {
                self.live_undone -= 1;
            }
            self.timers.cancel(v);
        }
    }

    /// Skips ahead over provably-empty rounds: when nothing is queued and
    /// no node ticks, every round before the next due timer, the next
    /// scheduled crash, or `limit` executes nothing — advance the round
    /// counter (and nothing else) straight there. A skipped round is
    /// byte-identical to stepping it: an empty step only increments the
    /// counter, so every report field, the fault-injector RNG, and all
    /// node states are untouched either way.
    ///
    /// No-op before the first step or when disabled via the config.
    pub(crate) fn fast_forward(&mut self, limit: u64) {
        if !self.config.fast_forward
            || self.first_step
            || self.pending_count != 0
            || !self.ticking.is_empty()
        {
            return;
        }
        let mut target = limit;
        if let Some(wake) = self.timers.next_valid() {
            if wake <= self.round {
                return; // a timer is due: the next step is a real one
            }
            target = target.min(wake);
        }
        if let Some(&(at, _)) = self.crash_events.get(self.crash_cursor) {
            target = target.min(at);
        }
        if target <= self.round {
            return;
        }
        if let Some(t) = self.trace.as_mut() {
            t.event(&TraceEvent::FastForward {
                from: self.round,
                to: target,
            });
        }
        self.ff_jumps += 1;
        self.ff_skipped += target - self.round;
        self.round = target;
        self.report.rounds = target;
        self.advance_crash_epoch();
    }

    /// Snapshot of who is stuck: unfinished survivors, per-node queued
    /// message counts (copies included, read straight from the arena),
    /// and crash context.
    pub(crate) fn stall_report(&self) -> StallReport {
        let round = self.round;
        let n = self.done_flag.len();
        let is_crashed = |v: usize| {
            self.injector
                .as_ref()
                .is_some_and(|inj| inj.is_crashed(NodeId(v), round))
        };
        let queued_at = |v: usize| -> usize {
            self.pending[self.offsets[v]..self.offsets[v + 1]]
                .iter()
                .filter_map(|s| s.as_ref().map(|&(_, copies)| copies as usize))
                .sum()
        };
        let mut pending: Vec<(NodeId, usize)> = self
            .receivers
            .iter()
            .map(|&v| (NodeId(v as usize), queued_at(v as usize)))
            .filter(|&(_, depth)| depth > 0)
            .collect();
        pending.sort_unstable_by_key(|&(v, _)| v.0);
        StallReport {
            not_done: (0..n)
                .filter(|&v| !self.done_flag[v] && !is_crashed(v))
                .map(NodeId)
                .collect(),
            pending,
            last_activity: self.last_activity,
            crashed: (0..n).filter(|&v| is_crashed(v)).map(NodeId).collect(),
            live: (0..n).filter(|&v| !is_crashed(v)).map(NodeId).collect(),
            stopped_at: round,
        }
    }

    /// The run loop of every synchronous executor: runs until quiescence,
    /// then closes the trace with the final report.
    ///
    /// # Errors
    ///
    /// [`SimError::RoundLimitExceeded`] (with a stall snapshot) if the
    /// round counter reaches `limit` first, and every error of a step.
    pub(crate) fn run<B: RoundBackend<M>>(
        &mut self,
        backend: &mut B,
        limit: u64,
    ) -> Result<(), SimError> {
        while !self.quiescent() {
            self.fast_forward(limit);
            // the jump may have landed on a crash that excuses the last
            // unfinished nodes
            if self.quiescent() {
                break;
            }
            if self.round >= limit {
                return Err(SimError::RoundLimitExceeded {
                    limit,
                    stall: self.stall_report(),
                });
            }
            self.step(backend)?;
        }
        if let Some(t) = self.trace.as_mut() {
            t.event(&TraceEvent::RunEnd {
                report: &self.report,
            });
            t.flush();
        }
        Ok(())
    }

    /// Executes a single round on `backend`.
    ///
    /// # Errors
    ///
    /// The backend's error: [`SimError::CongestViolation`] on a double
    /// send, or a wire or peer failure.
    #[inline]
    pub(crate) fn step<B: RoundBackend<M>>(&mut self, backend: &mut B) -> Result<(), SimError> {
        self.open_round();
        backend.execute(self)?;
        self.close_round();
        Ok(())
    }

    /// Starts a round: last round's sends become this round's inbox, due
    /// timers pop, and the active list is built.
    #[inline]
    fn open_round(&mut self) {
        let n = self.done_flag.len();
        if let Some(t) = self.trace.as_mut() {
            t.event(&TraceEvent::Round { round: self.round });
        }
        // the drained inbox arena becomes the next pending buffer:
        // zero allocation per round
        std::mem::swap(&mut self.inbox, &mut self.pending);
        self.pending_count = 0;
        self.round_msgs = 0;
        // the event core discards stale entries and returns the valid
        // ones sorted and deduplicated — see `TimerHeap::pop_due` for
        // why the dedup is load-bearing
        self.timers.pop_due(self.round, &mut self.due);
        self.active.clear();
        let estimate = self.ticking.len() + self.due.len() + self.receivers.len();
        if self.first_step || estimate * 100 >= n.saturating_mul(self.config.dense_pct) {
            // dense fallback: when most nodes are active anyway, the
            // 0..n scan beats merging near-full sorted lists (and the
            // first round visits everyone)
            self.active.extend(0..n as u32);
        } else {
            self.receivers.sort_unstable();
            self.merged.clear();
            merge_sorted_dedup(&self.ticking, &self.due, &mut self.merged);
            merge_sorted_dedup(&self.merged, &self.receivers, &mut self.active);
        }
        self.first_step = false;
        self.receivers.clear();
    }

    /// Ends a round: peak memory, fault counters, activity, the clock.
    #[inline]
    fn close_round(&mut self) {
        self.report.peak_memory_bytes = self
            .report
            .peak_memory_bytes
            .max(self.fixed_mem + self.round_staged * self.staged_bytes);
        if let Some(inj) = &self.injector {
            self.report.dropped_messages = inj.dropped() + self.crash_lost;
            self.report.duplicated_messages = inj.duplicated();
        }
        self.report.peak_messages_per_round =
            self.report.peak_messages_per_round.max(self.round_msgs);
        if self.round_msgs > 0 {
            self.last_activity = self.round;
        }
        self.round += 1;
        self.report.rounds = self.round;
        self.advance_crash_epoch();
    }

    /// Opens the round's sequential merge: `staged` sends were staged in
    /// all (those past a violation cut included) and `crash_lost` queued
    /// copies died in crashed inboxes. One flush and one crash-loss event
    /// per round, however the backend split the work, keeps the trace
    /// identical across thread counts and processes.
    pub(crate) fn open_merge(&mut self, staged: u64, crash_lost: u64) {
        self.round_staged = staged;
        if let Some(t) = self.trace.as_mut() {
            t.event(&TraceEvent::ShardFlush {
                round: self.round,
                staged,
                bytes: staged * self.staged_bytes,
            });
            if crash_lost > 0 {
                t.event(&TraceEvent::CrashLost {
                    round: self.round,
                    copies: crash_lost,
                });
            }
        }
        self.crash_lost += crash_lost;
    }

    /// Merges one send — `bits` wide, on `sender`'s `port` — into next
    /// round's arena: message accounting, the fault injector's
    /// transmission (the only place its RNG advances), the `send` trace
    /// event, and delivery into the twin slot. Backends call this in
    /// ascending `(sender, port)` order, which makes the fault stream
    /// and the trace independent of how the round was computed. Inlined
    /// into each backend's merge loop: it runs once per message.
    #[inline(always)]
    pub(crate) fn deliver(&mut self, sender: u32, port: usize, bits: u64, msg: M) {
        let round = self.round;
        self.report.messages += 1;
        self.report.total_bits += bits;
        self.report.max_message_bits = self.report.max_message_bits.max(bits);
        self.round_msgs += 1;
        let v = sender as usize;
        let arc = self.graph.neighbors(NodeId(v))[port];
        let (copies, down) = match self.injector.as_mut() {
            None => (1, false),
            Some(inj) => {
                let tx = inj.transmit(arc.edge, round);
                (tx.copies.len() as u32, tx.down)
            }
        };
        if let Some(t) = self.trace.as_mut() {
            t.event(&TraceEvent::Send {
                round,
                sender,
                port: port as u32,
                bits,
                copies,
                link_down: down,
            });
        }
        if copies == 0 {
            return; // dropped on the wire
        }
        let to = arc.to.0;
        let slot =
            &mut self.pending[self.offsets[to] + self.twins[self.offsets[v] + port] as usize];
        match slot {
            // only fault duplication can target an occupied slot: one
            // sender per edge direction per round
            Some((_, existing)) => *existing += copies,
            None => *slot = Some((msg, copies)),
        }
        self.pending_count += u64::from(copies);
        if self.recv_mark[to] != round + 1 {
            self.recv_mark[to] = round + 1;
            self.receivers.push(to as u32);
        }
    }

    /// Closes the merge: a CONGEST violation at `cut` aborted the round
    /// at that node, whose sends (and every later node's) never happened.
    pub(crate) fn close_merge(&self, cut: Option<(u32, Port)>) -> Result<(), SimError> {
        match cut {
            None => Ok(()),
            Some((v, port)) => Err(SimError::CongestViolation {
                node: NodeId(v as usize),
                port,
                round: self.round,
            }),
        }
    }

    /// Accounts a round the backend delivered itself, in parallel, into
    /// disjoint tiles of `pending` and `recv_mark` (appending its new
    /// receivers): `sent` sends of `bits` bits in total, the widest
    /// `max_bits`, one copy each.
    pub(crate) fn absorb_parallel(&mut self, sent: u64, bits: u64, max_bits: u64) {
        self.report.messages += sent;
        self.report.total_bits += bits;
        self.report.max_message_bits = self.report.max_message_bits.max(max_bits);
        self.pending_count += sent;
        self.round_staged = sent;
        self.round_msgs = sent;
    }

    /// Folds the executed nodes' outcomes, ascending by node, into next
    /// round's schedule: the ticking list (kept sorted), the timer heap,
    /// and the O(1) quiescence counter.
    pub(crate) fn apply_schedule(
        &mut self,
        outcomes: impl IntoIterator<Item = (u32, NodeOutcome)>,
    ) {
        let next = self.round + 1;
        self.ticking.clear();
        for (v32, outcome) in outcomes {
            let v = v32 as usize;
            let done = outcome == NodeOutcome::Done;
            if outcome != NodeOutcome::Crashed && done != self.done_flag[v] {
                // finished, or un-done: a message re-activated the node
                self.done_flag[v] = done;
                if done {
                    self.live_undone -= 1;
                } else {
                    self.live_undone += 1;
                }
            }
            match outcome {
                NodeOutcome::Tick => {
                    // the ticking list schedules the node; `note` only
                    // invalidates parked entries
                    self.timers.note(v32, next);
                    self.ticking.push(v32);
                }
                // `park` skips the push when the heap already holds
                // this exact wake — re-parking an unchanged timer is free
                NodeOutcome::Park(r) => self.timers.park(v32, r),
                NodeOutcome::Crashed | NodeOutcome::Done | NodeOutcome::Sleep => {
                    self.timers.cancel(v32);
                }
            }
        }
    }
}

/// Merges two sorted, duplicate-free lists into `out`, deduplicating.
fn merge_sorted_dedup(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_dedup_interleaves() {
        let mut out = Vec::new();
        merge_sorted_dedup(&[1, 3, 5], &[2, 3, 6], &mut out);
        assert_eq!(out, vec![1, 2, 3, 5, 6]);
        out.clear();
        merge_sorted_dedup(&[], &[4, 9], &mut out);
        assert_eq!(out, vec![4, 9]);
    }
}
