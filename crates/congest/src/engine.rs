//! The in-process compute backend of the synchronous round.
//!
//! The crate's round core (`RoundCore`) owns the round itself — arena,
//! schedule, sequential merge, fast-forward, accounting, the run loop —
//! once for every synchronous executor. `RoundEngine` is its in-process
//! backend: it owns the automata and computes each round's active nodes,
//! built around two ideas:
//!
//! 1. **Packed staging.** Sends are staged as packed `u64` metadata
//!    words (`sender | port | size_bits`) alongside a message slab, so
//!    the merge reads `size_bits` as a field and replays indices, not
//!    messages. `Outbox` slabs are pooled per worker; steady-state rounds
//!    allocate nothing.
//!
//! 2. **A deterministically parallel compute *and merge* phase.** With
//!    [`EngineConfig::threads`] > 1 the active list is split into
//!    contiguous node shards and executed under [`std::thread::scope`] —
//!    but only when each shard gets at least [`EngineConfig::shard_min`]
//!    active nodes (spawn overhead dominates tiny rounds). In the
//!    fault-free, untraced common case the merge is **destination-
//!    sharded**: while computing, each worker buckets its staged sends by
//!    the destination's shard; the buckets are exchanged over persistent
//!    channels, and each worker then delivers — in parallel — only into
//!    the inbox slots of its own node range. No worker ever touches
//!    another worker's arena slice, every `(receiver, port)` slot has
//!    exactly one writer, and all counters are order-independent sums, so
//!    a parallel run is **byte-identical** to a single-threaded one: same
//!    outputs, same [`RunReport`]. When a fault
//!    injector or a trace sink needs globally ordered per-message effects
//!    — the RNG stream, `send` events — the engine falls back to the
//!    core's sequential merge, replaying staged sends in ascending node
//!    order, so traced and fault-injected runs remain byte-identical
//!    across thread counts too. Every send crosses as its bit frame; on
//!    the bucketed merge each worker transcodes its own staged frames
//!    through a reused [`CodecScratch`] at staging time — the check is
//!    per-message-local, so it needs no global order — and stages the
//!    *decoded* message. After an error ([`SimError::CongestViolation`] /
//!    [`SimError::WireMismatch`]) the reported counters still match the
//!    sequential run (the bucketed path detects both conditions during
//!    compute and re-sorts the buckets to replay the sequential cut-off
//!    exactly), but node automata beyond the failing node are in an
//!    unspecified state (they may have executed the failing round);
//!    errors abort the run, so no caller observes that state through the
//!    public API.
//!
//! Configuration comes from [`EngineConfig`], which every runner takes
//! from its caller; nothing here reads the environment for it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use kdom_graph::graph::{Graph, NodeId};

use crate::faults::FaultInjector;
use crate::report::RunReport;
use crate::round::{fixed_memory, staged_bytes, NodeOutcome, RoundBackend, RoundCore, Slot};
use crate::sim::{Message, NodeCtx, Outbox, Port, Protocol, SimError, StallReport};
use crate::wire::CodecScratch;

/// Execution knobs of the synchronous executor: worker threads,
/// fast-forward, and the adaptive thresholds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for the compute phase. `1` runs everything inline
    /// on the calling thread (no spawns); higher values shard the active
    /// set. Results are byte-identical either way.
    pub threads: usize,
    /// Skip provably-empty rounds in O(1) (see
    /// [`Simulator::fast_forward`](crate::Simulator::fast_forward)).
    /// On by default.
    pub fast_forward: bool,
    /// Active-fraction percentage at which the scheduler falls back to a
    /// dense `0..n` scan instead of merging near-full lists. `0` forces
    /// the dense scan every round (with `fast_forward` off, every node
    /// is then stepped every round); values above 300 can never trigger
    /// (the merged estimate counts each node at most thrice).
    pub dense_pct: usize,
    /// Minimum active nodes per worker shard before the compute phase
    /// splits across threads; below `threads * shard_min` active nodes
    /// fewer (or no) workers are spawned.
    pub shard_min: usize,
    /// Debug-build CONGEST budget: when set, every staged message asserts
    /// `size_bits() <= bit_budget` (see [`crate::congest_budget`]).
    /// Release builds ignore it.
    pub bit_budget: Option<u64>,
    /// Accumulate wall-clock spent in the wire codec (the per-send
    /// encode+decode transcodes), readable via
    /// [`Simulator::codec_stats`](crate::Simulator::codec_stats). Off by
    /// default — the hot path then carries no timer calls. Never part of
    /// [`RunReport`], so reports stay byte-identical whether or not
    /// profiling ran.
    pub codec_profile: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 1,
            fast_forward: true,
            dense_pct: 75,
            shard_min: 1024,
            bit_budget: None,
            codec_profile: false,
        }
    }
}

impl EngineConfig {
    /// Accepts a worker count in `1..=256`: the bound the service's
    /// `threads=` spec token enforces.
    ///
    /// # Errors
    ///
    /// The violated constraint, for the caller to name its source.
    pub fn check_threads(&threads: &usize) -> Result<(), String> {
        if (1..=256).contains(&threads) {
            Ok(())
        } else {
            Err("worker count must be in 1..=256".into())
        }
    }

    /// Returns the config with the worker count replaced.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns the config with quiescence fast-forward enabled or not.
    pub fn with_fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// Returns the config with the dense-scan threshold replaced.
    pub fn with_dense_pct(mut self, pct: usize) -> Self {
        self.dense_pct = pct;
        self
    }

    /// Returns the config with the minimum shard size replaced.
    pub fn with_shard_min(mut self, shard_min: usize) -> Self {
        self.shard_min = shard_min.max(1);
        self
    }

    /// Returns the config with a debug-build CONGEST bit budget.
    pub fn with_bit_budget(mut self, bits: u64) -> Self {
        self.bit_budget = Some(bits);
        self
    }

    /// Returns the config with codec wall-clock profiling enabled or not.
    pub fn with_codec_profile(mut self, on: bool) -> Self {
        self.codec_profile = on;
        self
    }
}

/// Runs one synchronous protocol round for node `v`: builds the context,
/// recycles `outbox_buf` into a fresh [`Outbox`], executes
/// [`Protocol::round`], and leaves the sends in `outbox_buf` (one
/// optional message per port). Returns the port of the first CONGEST
/// violation, if the node double-sent.
///
/// Every executor calls this — it is the single place a protocol's round
/// function runs.
pub(crate) fn execute_node_round<P: Protocol>(
    graph: &Graph,
    ids: &[u64],
    v: usize,
    round: u64,
    node: &mut P,
    inbox: &[(Port, P::Msg)],
    outbox_buf: &mut Vec<Option<P::Msg>>,
) -> Option<Port> {
    let ctx = NodeCtx::new(NodeId(v), ids[v], round, graph.neighbors(NodeId(v)), ids);
    let mut out = Outbox::recycle(std::mem::take(outbox_buf), ctx.degree());
    node.round(&ctx, inbox, &mut out);
    let violation = out.violation();
    *outbox_buf = out.into_slots();
    violation
}

/// Hands `item` to `deliver` once per tag in `tags`, cloning for every
/// copy but the last (the common single-copy case moves without cloning).
pub(crate) fn fan_out<T: Clone, E>(tags: Vec<E>, item: T, mut deliver: impl FnMut(E, T)) {
    let n = tags.len();
    let mut item = Some(item);
    for (i, tag) in tags.into_iter().enumerate() {
        let it = if i + 1 == n {
            item.take().expect("one item per fan-out")
        } else {
            item.clone().expect("one item per fan-out")
        };
        deliver(tag, it);
    }
}

/// Width of the packed `size_bits` field in a staged-send metadata word.
/// The maximum value doubles as a "recompute at merge" sentinel for the
/// rare message wider than 2^20 - 1 bits.
const META_BITS: u64 = (1 << 20) - 1;

/// Packs one staged send into a metadata word:
/// `sender (24 bits) | port (20 bits) | size_bits (20 bits)`.
/// Capacity limits are asserted once at engine construction.
#[inline]
fn pack_meta(sender: u32, port: usize, size_bits: u64) -> u64 {
    (u64::from(sender) << 40) | ((port as u64) << 20) | size_bits.min(META_BITS)
}

/// One bucket of staged sends in flight between workers during the
/// destination-sharded merge: `(source shard, packed metadata, messages)`.
type BucketBatch<M> = (usize, Vec<u64>, Vec<M>);

/// Persistent channels for the destination-sharded merge: worker `d`
/// receives every shard's bucket for its node range on `rxs[d]`; row `s`
/// of `txs` holds worker `s`'s own clones of all senders. Created once
/// (sized by the configured thread count) and reused every round — the
/// bucket `Vec`s themselves are recycled through [`WorkerScratch`], so
/// steady-state rounds allocate nothing.
struct Exchange<M> {
    txs: Vec<Vec<mpsc::Sender<BucketBatch<M>>>>,
    rxs: Vec<mpsc::Receiver<BucketBatch<M>>>,
}

impl<M> Exchange<M> {
    fn new(workers: usize) -> Self {
        let (txs0, rxs): (Vec<_>, Vec<_>) = (0..workers).map(|_| mpsc::channel()).unzip();
        let txs = (0..workers).map(|_| txs0.clone()).collect();
        Exchange { txs, rxs }
    }
}

/// Reused wire-codec buffers plus the wall-clock spent in them (only
/// accumulated under [`EngineConfig::codec_profile`]).
#[derive(Default)]
struct Codec {
    scratch: CodecScratch,
    ns: u64,
    msgs: u64,
}

impl Codec {
    /// Runs one codec call on the scratch buffers, timed when `profile`.
    #[inline]
    fn timed<T>(&mut self, profile: bool, f: impl FnOnce(&mut CodecScratch) -> T) -> T {
        let t0 = profile.then(Instant::now);
        let out = f(&mut self.scratch);
        if let Some(t0) = t0 {
            self.ns += t0.elapsed().as_nanos() as u64;
            self.msgs += 1;
        }
        out
    }
}

/// Per-worker reusable state: the materialised inbox, the pooled outbox
/// slab, the packed staged-send slab, and the shard's contribution to the
/// next round's schedule.
struct WorkerScratch<M> {
    inbox: Vec<(Port, M)>,
    outbox: Vec<Option<M>>,
    /// Packed metadata per staged send (see [`pack_meta`]), in the
    /// shard's (ascending-node) execution order.
    staged_meta: Vec<u64>,
    /// The staged messages, aligned index-for-index with `staged_meta`.
    staged_msgs: Vec<M>,
    /// `(node, outcome)` for every node this shard executed.
    sched: Vec<(u32, NodeOutcome)>,
    /// Queued copies consumed by crashed nodes this round.
    crash_lost: u64,
    /// First CONGEST violation in this shard, by node order.
    violation: Option<(u32, Port)>,
    /// Bucketed mode: staged sends grouped by destination shard,
    /// `(packed metadata, messages)` per destination.
    buckets: Vec<(Vec<u64>, Vec<M>)>,
    /// Bucketed mode: the batches this worker received, indexed by
    /// source shard; their capacity is recycled into `buckets`.
    incoming: Vec<(Vec<u64>, Vec<M>)>,
    /// Bucketed mode: nodes in this worker's destination range that
    /// received their first message this round.
    dest_receivers: Vec<u32>,
    /// Bucketed mode: messages this shard staged.
    sent_msgs: u64,
    /// Bucketed mode: total bits this shard staged (true widths, not
    /// the packed-field cap).
    sent_bits: u64,
    /// Bucketed mode: widest message this shard staged, in bits.
    max_bits: u64,
    /// Codec buffers for the staging transcodes; staging allocates
    /// nothing per frame.
    codec: Codec,
    /// A staging transcode failed in this shard. The
    /// sequential fallback replays every frame in global order so the
    /// mismatch surfaces at its exact sequential position.
    wire_bad: bool,
}

impl<M> Default for WorkerScratch<M> {
    fn default() -> Self {
        WorkerScratch {
            inbox: Vec::new(),
            outbox: Vec::new(),
            staged_meta: Vec::new(),
            staged_msgs: Vec::new(),
            sched: Vec::new(),
            crash_lost: 0,
            violation: None,
            buckets: Vec::new(),
            incoming: Vec::new(),
            dest_receivers: Vec::new(),
            sent_msgs: 0,
            sent_bits: 0,
            max_bits: 0,
            codec: Codec::default(),
            wire_bad: false,
        }
    }
}

/// Executes the active nodes of one contiguous shard. `nodes` and
/// `slots` are the shard's windows into the automata array and the
/// inbox arena; `node_base`/`slot_base` translate global indices into
/// them. Purely local: all cross-node effects are staged in `scratch`,
/// and crashed nodes consume their queued arrivals as losses.
///
/// With `dest_bounds` given (the destination-sharded merge) sends go into
/// `scratch.buckets`, keyed by which of the destination shards — node
/// ranges between consecutive bounds — contains the receiving node.
/// With `transcode`, each staged frame is transcoded through the
/// shard's codec *here* — the check is per-message-local, so the
/// bucketed merge keeps its order-freedom — and the **decoded** message
/// is what gets staged, with the bit count taken from the same encode; a
/// decode failure sets `scratch.wire_bad`, stages the original, and the
/// sequential replay re-derives the error in global order. The caller
/// passes `transcode` as false when a fault injector or trace sink is
/// attached: those runs stage the original message and take the
/// sequential merge, which round-trips it in exact replay order.
#[allow(clippy::too_many_arguments)]
fn run_shard<P: Protocol>(
    graph: &Graph,
    ids: &[u64],
    injector: Option<&FaultInjector>,
    round: u64,
    config: EngineConfig,
    transcode: bool,
    active: &[u32],
    node_base: usize,
    nodes: &mut [P],
    slot_base: usize,
    slots: &mut [Slot<P::Msg>],
    dest_bounds: Option<&[u32]>,
    scratch: &mut WorkerScratch<P::Msg>,
) {
    let offsets = graph.offsets();
    scratch.staged_meta.clear();
    scratch.staged_msgs.clear();
    scratch.sched.clear();
    scratch.crash_lost = 0;
    scratch.violation = None;
    scratch.sent_msgs = 0;
    scratch.sent_bits = 0;
    scratch.max_bits = 0;
    scratch.wire_bad = false;
    if let Some(bounds) = dest_bounds {
        let shards = bounds.len() - 1;
        if scratch.buckets.len() < shards {
            scratch.buckets.resize_with(shards, Default::default);
        }
        if scratch.incoming.len() < shards {
            scratch.incoming.resize_with(shards, Default::default);
        }
        for (meta, msgs) in &mut scratch.buckets[..shards] {
            meta.clear();
            msgs.clear();
        }
    }
    for &v32 in active {
        let v = v32 as usize;
        let (s0, s1) = (offsets[v] - slot_base, offsets[v + 1] - slot_base);
        if injector.is_some_and(|inj| inj.is_crashed(NodeId(v), round)) {
            // a crashed node consumes nothing and sends nothing; its
            // queued arrivals are lost
            for slot in &mut slots[s0..s1] {
                if let Some((_, copies)) = slot.take() {
                    scratch.crash_lost += u64::from(copies);
                }
            }
            scratch.sched.push((v32, NodeOutcome::Crashed));
            continue;
        }
        scratch.inbox.clear();
        for (p, slot) in slots[s0..s1].iter_mut().enumerate() {
            if let Some((msg, copies)) = slot.take() {
                for _ in 1..copies {
                    scratch.inbox.push((Port(p), msg.clone()));
                }
                scratch.inbox.push((Port(p), msg));
            }
        }
        let node = &mut nodes[v - node_base];
        let violation = execute_node_round(
            graph,
            ids,
            v,
            round,
            node,
            &scratch.inbox,
            &mut scratch.outbox,
        );
        if let Some(port) = violation {
            if scratch.violation.is_none() {
                scratch.violation = Some((v32, port));
            }
        }
        let arcs = graph.neighbors(NodeId(v));
        for (p, slot) in scratch.outbox.iter_mut().enumerate() {
            if let Some(msg) = slot.take() {
                // What gets staged is the *decoded* frame, so delivery
                // hands the automaton exactly the bits that were on the
                // wire. The encode that produces those bits doubles as
                // the accounting pass — no separate `size_bits` walk on
                // this path.
                let (msg, bits) = if transcode {
                    match scratch
                        .codec
                        .timed(config.codec_profile, |c| c.transcode(&msg))
                    {
                        Ok(pair) => pair,
                        Err(_) => {
                            // stage the original: the sequential replay
                            // re-derives the error in global order
                            scratch.wire_bad = true;
                            let bits = msg.size_bits();
                            (msg, bits)
                        }
                    }
                } else {
                    let bits = msg.size_bits();
                    (msg, bits)
                };
                #[cfg(debug_assertions)]
                if let Some(budget) = config.bit_budget {
                    assert!(
                        bits <= budget,
                        "CONGEST budget exceeded: node {v} sent {bits} bits on port {p} \
                         in round {round} (budget {budget})",
                    );
                }
                if let Some(bounds) = dest_bounds {
                    let to = arcs[p].to.0 as u32;
                    let d = bounds.partition_point(|&b| b <= to) - 1;
                    let (meta, msgs) = &mut scratch.buckets[d];
                    meta.push(pack_meta(v32, p, bits));
                    msgs.push(msg);
                    scratch.sent_msgs += 1;
                    scratch.sent_bits += bits;
                    scratch.max_bits = scratch.max_bits.max(bits);
                } else {
                    scratch.staged_meta.push(pack_meta(v32, p, bits));
                    scratch.staged_msgs.push(msg);
                }
            }
        }
        scratch.sched.push((v32, NodeOutcome::after(node, round)));
    }
}

/// Replays staged sends — packed metadata words with their messages, in
/// ascending `(sender, port)` order — into the core's sequential merge;
/// the caller closes the merge. Sends at or past the violation `cut`
/// never happened; with `round_trip`, each frame is round-tripped
/// through `codec` first, so the receiving automaton provably depends
/// only on the bits that were on the wire.
fn replay<M: Message>(
    core: &mut RoundCore<'_, M>,
    codec: &mut Codec,
    profile: bool,
    round_trip: bool,
    cut: Option<(u32, Port)>,
    sends: impl Iterator<Item = (u64, M)>,
) -> Result<(), SimError> {
    let cut_node = cut.map_or(u32::MAX, |(v, _)| v);
    for (meta, msg) in sends {
        let v32 = (meta >> 40) as u32;
        if v32 >= cut_node {
            continue;
        }
        let p = ((meta >> 20) & 0xF_FFFF) as usize;
        let field = meta & META_BITS;
        let bits = if field == META_BITS {
            msg.size_bits() // wider than the packed field
        } else {
            field
        };
        debug_assert_eq!(bits, msg.size_bits(), "packed word out of sync");
        let msg = if round_trip {
            codec
                .timed(profile, |c| c.round_trip(&msg))
                .map_err(|detail| SimError::WireMismatch {
                    node: NodeId(v32 as usize),
                    port: Port(p),
                    round: core.round,
                    detail,
                })?
        } else {
            msg
        };
        core.deliver(v32, p, bits, msg);
    }
    Ok(())
}

/// The first CONGEST violation across `scratch`, by node order.
fn violation_cut<M>(scratch: &[WorkerScratch<M>]) -> Option<(u32, Port)> {
    scratch
        .iter()
        .filter_map(|s| s.violation)
        .min_by_key(|&(v, _)| v)
}

/// The in-process compute backend: the automata, the per-worker scratch,
/// and the cross-worker exchange.
pub(crate) struct RoundEngine<'g, P: Protocol> {
    graph: &'g Graph,
    config: EngineConfig,
    nodes: Vec<P>,
    /// Application-level node ids, hoisted out of the round loop.
    ids: Vec<u64>,
    scratch: Vec<WorkerScratch<P::Msg>>,
    /// Node-range boundaries of the destination shards for the bucketed
    /// merge (`len = shards + 1`), rebuilt each sharded round.
    dest_bounds: Vec<u32>,
    /// Persistent cross-worker channels for the bucketed merge, created
    /// on the first multi-shard round.
    exchange: Option<Exchange<P::Msg>>,
    /// Codec buffers for the sequential merge's round trips (workers
    /// carry their own in [`WorkerScratch`]).
    codec: Codec,
}

impl<'g, P: Protocol> RoundEngine<'g, P> {
    /// Creates a run: the round core (with the environment's trace sink,
    /// `KDOM_TRACE`) and the engine holding one automaton per node.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != graph.node_count()`, or if the graph
    /// exceeds the packed-metadata capacity (2^24 nodes, 2^20 ports per
    /// node).
    pub fn new(
        graph: &'g Graph,
        nodes: Vec<P>,
        config: EngineConfig,
        injector: Option<FaultInjector>,
    ) -> (RoundCore<'g, P::Msg>, Self) {
        assert_eq!(
            nodes.len(),
            graph.node_count(),
            "one automaton per node required"
        );
        let n = graph.node_count();
        assert!(n <= 1 << 24, "packed staging supports up to 2^24 nodes");
        assert!(
            graph.offsets().windows(2).all(|w| w[1] - w[0] < 1 << 20),
            "packed staging supports degrees below 2^20"
        );
        let done = nodes.iter().map(Protocol::is_done).collect();
        let mut core = RoundCore::new(
            graph,
            config,
            done,
            injector,
            fixed_memory::<P>(graph),
            staged_bytes::<P>(),
        );
        core.attach_trace(crate::trace::from_env());
        let engine = RoundEngine {
            graph,
            config,
            nodes,
            ids: (0..n).map(|v| graph.id_of(NodeId(v))).collect(),
            scratch: Vec::new(),
            dest_bounds: Vec::new(),
            exchange: None,
            codec: Codec::default(),
        };
        (core, engine)
    }

    /// `(nanoseconds, round_trips)` spent in the wire codec so far,
    /// summed over the sequential merge and every worker shard. All
    /// zeros unless [`EngineConfig::codec_profile`] is set.
    pub fn codec_stats(&self) -> (u64, u64) {
        let codecs = std::iter::once(&self.codec).chain(self.scratch.iter().map(|s| &s.codec));
        codecs.fold((0, 0), |(ns, msgs), c| (ns + c.ns, msgs + c.msgs))
    }

    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }

    /// The sequential merge: replays every shard's staged sends in
    /// ascending node order (shards cover ascending node ranges).
    fn merge_staged(
        &mut self,
        core: &mut RoundCore<'_, P::Msg>,
        shards: usize,
    ) -> Result<(), SimError> {
        let scratch = &mut self.scratch[..shards];
        // On a double send the sequential loop aborts at the violating
        // node: its sends and every later node's sends never happen.
        let cut = violation_cut(scratch);
        // Unordered runs transcoded every message at staging (the decoded
        // frame is what sits in the slab), so the merge only replays the
        // round trip for ordered runs — fault injection or tracing — or
        // to re-derive a staging failure at its exact replay position.
        let ordered = core.injector.is_some() || core.trace.is_some();
        let round_trip = ordered || scratch.iter().any(|s| s.wire_bad);
        core.open_merge(
            scratch.iter().map(|s| s.staged_meta.len() as u64).sum(),
            scratch.iter().map(|s| s.crash_lost).sum(),
        );
        for s in scratch.iter_mut() {
            replay(
                core,
                &mut self.codec,
                self.config.codec_profile,
                round_trip,
                cut,
                s.staged_meta.drain(..).zip(s.staged_msgs.drain(..)),
            )?;
        }
        core.close_merge(cut)
    }

    /// Sequential replay of a bucketed round on which a shard flagged a
    /// CONGEST violation or a wire mismatch. The workers left all
    /// exchanged batches in their `incoming` slots and the pending arena
    /// untouched; sorting the packed metadata words restores the exact
    /// ascending `(sender, port)` order of the sequential merge (the
    /// words are unique per edge direction), so the partial accounting
    /// and delivery state at the abort match a single-threaded run byte
    /// for byte. Every frame is round-tripped again in that order —
    /// idempotent for the frames that already passed at staging time,
    /// and re-deriving the mismatch at its exact sequential position for
    /// the one that failed (a wire error at a lower node beats a
    /// violation cut at a higher one).
    fn replay_sorted(
        &mut self,
        core: &mut RoundCore<'_, P::Msg>,
        shards: usize,
    ) -> Result<(), SimError> {
        let cut = violation_cut(&self.scratch[..shards]);
        let mut entries: Vec<(u64, P::Msg)> = Vec::new();
        for s in &mut self.scratch[..shards] {
            for (meta, msgs) in &mut s.incoming[..shards] {
                entries.extend(meta.drain(..).zip(msgs.drain(..)));
            }
        }
        entries.sort_unstable_by_key(|&(meta, _)| meta);
        core.open_merge(entries.len() as u64, 0);
        replay(
            core,
            &mut self.codec,
            self.config.codec_profile,
            true,
            cut,
            entries.into_iter(),
        )?;
        core.close_merge(cut)
    }
}

impl<P: Protocol> RoundBackend<P::Msg> for RoundEngine<'_, P> {
    /// Steps the active nodes (sharded across workers when configured)
    /// and merges their staged sends in node order.
    fn execute(&mut self, core: &mut RoundCore<'_, P::Msg>) -> Result<(), SimError> {
        let graph = self.graph;
        let config = self.config;
        let n = graph.node_count();
        // Shard count: `per` from the configured ceiling, then the *true*
        // chunk count — div_ceil can produce fewer non-empty chunks than
        // the first estimate, and iterating stale scratch for the missing
        // chunks would double-count its previous round's state.
        let shards0 = config
            .threads
            .min(core.active.len() / config.shard_min.max(1))
            .max(1);
        let per = core.active.len().div_ceil(shards0).max(1);
        let shards = core.active.len().div_ceil(per).max(1);
        if self.scratch.len() < shards {
            self.scratch.resize_with(shards, WorkerScratch::default);
        }
        // A fault injector (its RNG stream) and a trace sink (its send
        // events) need the sequential replay order. Everything else can
        // take order-free paths, with every frame transcoded at
        // staging time: that check is per-message-local.
        let ordered = core.injector.is_some() || core.trace.is_some();
        if shards == 1 {
            run_shard(
                graph,
                &self.ids,
                core.injector.as_ref(),
                core.round,
                config,
                !ordered,
                &core.active,
                0,
                &mut self.nodes,
                0,
                &mut core.inbox,
                None,
                &mut self.scratch[0],
            );
            self.merge_staged(core, 1)?;
        } else {
            // the destination-sharded merge needs order-free effects
            let bucketed = !ordered;
            self.dest_bounds.clear();
            if bucketed {
                // Worker s owns delivery for nodes [bounds[s], bounds[s+1]):
                // ranges anchored at each compute chunk's first node so
                // the tiles cover 0..n contiguously.
                self.dest_bounds.push(0);
                for s in 1..shards {
                    self.dest_bounds.push(core.active[s * per]);
                }
                self.dest_bounds.push(n as u32);
                if self.exchange.is_none() {
                    self.exchange = Some(Exchange::new(config.threads));
                }
            }
            let ids = &self.ids;
            let (offsets, twins) = (core.offsets, core.twins);
            let injector = core.injector.as_ref();
            let round = core.round;
            let epoch = round + 1;
            let active = &core.active;
            let dest_bounds = bucketed.then_some(&self.dest_bounds[..]);
            let fallback = AtomicBool::new(false);
            let fallback_ref = &fallback;
            let mut nodes_tail: &mut [P] = &mut self.nodes;
            let mut slots_tail: &mut [Slot<P::Msg>] = &mut core.inbox;
            let mut pend_tail: &mut [Slot<P::Msg>] = &mut core.pending;
            let mut mark_tail: &mut [u64] = &mut core.recv_mark;
            let mut nodes_cut = 0usize;
            let mut slots_cut = 0usize;
            let mut scratch_iter = self.scratch.iter_mut();
            let (mut tx_iter, mut rx_iter) = match self.exchange.as_mut() {
                Some(e) if bucketed => (e.txs.iter_mut(), e.rxs.iter_mut()),
                _ => ([].iter_mut(), [].iter_mut()),
            };
            std::thread::scope(|scope| {
                for s in 0..shards {
                    let chunk = &active[s * per..((s + 1) * per).min(active.len())];
                    let node_lo = chunk[0] as usize;
                    let node_hi = *chunk.last().expect("chunks are non-empty") as usize + 1;
                    let (head_n, tail_n) =
                        std::mem::take(&mut nodes_tail).split_at_mut(node_hi - nodes_cut);
                    let shard_nodes = &mut head_n[node_lo - nodes_cut..];
                    nodes_tail = tail_n;
                    let (slot_lo, slot_hi) = (offsets[node_lo], offsets[node_hi]);
                    let (head_s, tail_s) =
                        std::mem::take(&mut slots_tail).split_at_mut(slot_hi - slots_cut);
                    let shard_slots = &mut head_s[slot_lo - slots_cut..];
                    slots_tail = tail_s;
                    nodes_cut = node_hi;
                    slots_cut = slot_hi;
                    let scratch = scratch_iter.next().expect("one scratch per shard");
                    // Bucketed: this worker's delivery tile of the pending
                    // arena and the receiver marks. The tiles are
                    // contiguous, so successive splits need no offset.
                    let (dest_lo, dest_slots, dest_marks, txs, rx) = match dest_bounds {
                        Some(bounds) => {
                            let (lo, hi) = (bounds[s] as usize, bounds[s + 1] as usize);
                            let (ds, rest_p) = std::mem::take(&mut pend_tail)
                                .split_at_mut(offsets[hi] - offsets[lo]);
                            pend_tail = rest_p;
                            let (dm, rest_m) = std::mem::take(&mut mark_tail).split_at_mut(hi - lo);
                            mark_tail = rest_m;
                            (
                                lo,
                                ds,
                                dm,
                                Some(tx_iter.next().expect("one sender row per worker")),
                                Some(rx_iter.next().expect("one receiver per worker")),
                            )
                        }
                        None => (0, Default::default(), Default::default(), None, None),
                    };
                    let run = move || {
                        run_shard(
                            graph,
                            ids,
                            injector,
                            round,
                            config,
                            !ordered,
                            chunk,
                            node_lo,
                            shard_nodes,
                            slot_lo,
                            shard_slots,
                            dest_bounds,
                            scratch,
                        );
                        let (Some(txs), Some(rx)) = (txs, rx) else {
                            return; // sequential merge
                        };
                        // A violation or a wire mismatch poisons the
                        // parallel delivery; flag it *before* sending so
                        // every worker's post-exchange check observes it.
                        if scratch.violation.is_some() || scratch.wire_bad {
                            fallback_ref.store(true, Ordering::Relaxed);
                        }
                        for (d, tx) in txs.iter().enumerate().take(shards) {
                            let (meta, msgs) = std::mem::take(&mut scratch.buckets[d]);
                            let _ = tx.send((s, meta, msgs));
                        }
                        scratch.dest_receivers.clear();
                        // The receive loop doubles as the round barrier:
                        // every worker's flag store happens-before its
                        // sends, so once all batches are in, all flags are
                        // visible.
                        for _ in 0..shards {
                            let (src, meta, msgs) = rx.recv().expect("peer worker panicked");
                            scratch.incoming[src] = (meta, msgs);
                        }
                        if fallback_ref.load(Ordering::Relaxed) {
                            // leave `incoming` for the sequential replay;
                            // the pending arena is untouched
                            return;
                        }
                        let pend_base = offsets[dest_lo];
                        for src in 0..shards {
                            let (meta_v, msgs_v) = &mut scratch.incoming[src];
                            for (&meta, msg) in meta_v.iter().zip(msgs_v.drain(..)) {
                                let v = (meta >> 40) as usize;
                                let p = ((meta >> 20) & 0xF_FFFF) as usize;
                                let to = graph.neighbors(NodeId(v))[p].to.0;
                                let slot = &mut dest_slots
                                    [offsets[to] + twins[offsets[v] + p] as usize - pend_base];
                                debug_assert!(
                                    slot.is_none(),
                                    "one sender per edge direction per round"
                                );
                                *slot = Some((msg, 1));
                                let m = &mut dest_marks[to - dest_lo];
                                if *m != epoch {
                                    *m = epoch;
                                    scratch.dest_receivers.push(to as u32);
                                }
                            }
                            meta_v.clear();
                        }
                        // recycle the drained batches as next round's
                        // bucket capacity
                        for d in 0..shards {
                            scratch.buckets[d] = std::mem::take(&mut scratch.incoming[d]);
                        }
                    };
                    if s + 1 == shards {
                        // the caller's thread works the final shard
                        // instead of idling in join
                        run();
                    } else {
                        scope.spawn(run);
                    }
                }
            });
            if !bucketed {
                self.merge_staged(core, shards)?;
            } else if fallback.into_inner() {
                self.replay_sorted(core, shards)?;
            } else {
                let (mut sent, mut bits, mut max_bits) = (0u64, 0u64, 0u64);
                for s in &mut self.scratch[..shards] {
                    sent += s.sent_msgs;
                    bits += s.sent_bits;
                    max_bits = max_bits.max(s.max_bits);
                    // order differs from the sequential merge, but the
                    // list is sorted before every use
                    core.receivers.extend_from_slice(&s.dest_receivers);
                }
                core.absorb_parallel(sent, bits, max_bits);
            }
        }
        core.apply_schedule(
            self.scratch[..shards]
                .iter_mut()
                .flat_map(|s| s.sched.drain(..)),
        );
        Ok(())
    }
}

/// The **pre-engine reference loop**, retained verbatim as a benchmarking
/// baseline: per-node `Vec<Vec<(Port, Msg)>>` inboxes with a per-round
/// `sort_by_key`, a reverse-port table built by scanning adjacency lists,
/// a freshly allocated [`Outbox`] per node per round, and a full scan of
/// all `n` automata every round. Fault-free only. The engine must produce
/// byte-identical `(nodes, RunReport)` to this loop; the `engine` bench
/// and experiment E21 measure the speedup against it.
pub fn run_reference_loop<P: Protocol>(
    graph: &Graph,
    mut nodes: Vec<P>,
    max_rounds: u64,
) -> Result<(Vec<P>, RunReport), SimError> {
    let n = graph.node_count();
    assert_eq!(nodes.len(), n, "one automaton per node");
    let ids: Vec<u64> = graph.nodes().map(|v| graph.id_of(v)).collect();
    let rev: Vec<Vec<Port>> = graph
        .nodes()
        .map(|v| {
            graph
                .neighbors(v)
                .iter()
                .map(|arc| {
                    let back = graph
                        .neighbors(arc.to)
                        .iter()
                        .position(|a| a.edge == arc.edge);
                    Port(back.expect("every edge is in both adjacency lists"))
                })
                .collect()
        })
        .collect();
    let mut inboxes: Vec<Vec<(Port, P::Msg)>> = vec![Vec::new(); n];
    let mut pending: Vec<Vec<(Port, P::Msg)>> = vec![Vec::new(); n];
    let mut report = RunReport::default();
    let mut round = 0u64;
    while !(pending.iter().all(Vec::is_empty) && nodes.iter().all(Protocol::is_done)) {
        if round >= max_rounds {
            return Err(SimError::RoundLimitExceeded {
                limit: max_rounds,
                stall: StallReport {
                    not_done: (0..n)
                        .filter(|&v| !nodes[v].is_done())
                        .map(NodeId)
                        .collect(),
                    pending: (0..n)
                        .filter(|&v| !pending[v].is_empty())
                        .map(|v| (NodeId(v), pending[v].len()))
                        .collect(),
                    last_activity: round,
                    crashed: Vec::new(),
                    live: (0..n).map(NodeId).collect(),
                    stopped_at: round,
                },
            });
        }
        std::mem::swap(&mut inboxes, &mut pending);
        let mut round_msgs = 0u64;
        for v in 0..n {
            let mut inbox = std::mem::take(&mut inboxes[v]);
            inbox.sort_by_key(|&(p, _)| p);
            let arcs = graph.neighbors(NodeId(v));
            let ctx = NodeCtx::new(NodeId(v), ids[v], round, arcs, &ids);
            let mut out = Outbox::with_degree(arcs.len());
            nodes[v].round(&ctx, &inbox, &mut out);
            if let Some(port) = out.violation() {
                return Err(SimError::CongestViolation {
                    node: NodeId(v),
                    port,
                    round,
                });
            }
            for (p, slot) in out.into_slots().into_iter().enumerate() {
                let Some(msg) = slot else { continue };
                let bits = msg.size_bits();
                report.messages += 1;
                report.total_bits += bits;
                report.max_message_bits = report.max_message_bits.max(bits);
                round_msgs += 1;
                pending[arcs[p].to.0].push((rev[v][p], msg));
            }
        }
        report.peak_messages_per_round = report.peak_messages_per_round.max(round_msgs);
        round += 1;
        report.rounds = round;
    }
    Ok((nodes, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_moves_last_copy() {
        let mut seen = Vec::new();
        fan_out(vec![10u64, 20], "msg".to_string(), |tag, m| {
            seen.push((tag, m));
        });
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (10, "msg".to_string()));
        assert_eq!(seen[1], (20, "msg".to_string()));
        let mut none = 0;
        fan_out(Vec::<u64>::new(), "x", |_, _| none += 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn config_env_parsing_defaults() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.threads, 1);
        assert!(cfg.fast_forward);
        assert_eq!(cfg.dense_pct, 75);
        assert_eq!(cfg.shard_min, 1024);
        assert_eq!(cfg.bit_budget, None);
        assert!(!cfg.codec_profile);
        let cfg = cfg
            .with_threads(4)
            .with_fast_forward(false)
            .with_dense_pct(50)
            .with_shard_min(32)
            .with_bit_budget(96)
            .with_codec_profile(true);
        assert_eq!(cfg.threads, 4);
        assert!(!cfg.fast_forward);
        assert_eq!(cfg.dense_pct, 50);
        assert_eq!(cfg.shard_min, 32);
        assert_eq!(cfg.bit_budget, Some(96));
        assert!(cfg.codec_profile);
        assert_eq!(cfg.with_threads(0).threads, 1, "zero clamps to one");
        assert_eq!(cfg.with_shard_min(0).shard_min, 1, "zero clamps to one");
    }

    #[test]
    fn packed_meta_round_trips() {
        for (v, p, bits) in [
            (0u32, 0usize, 0u64),
            (7, 19, 144),
            ((1 << 24) - 1, (1 << 20) - 1, META_BITS - 1),
        ] {
            let w = pack_meta(v, p, bits);
            assert_eq!((w >> 40) as u32, v);
            assert_eq!(((w >> 20) & 0xF_FFFF) as usize, p);
            assert_eq!(w & META_BITS, bits);
        }
        // oversized messages collapse into the recompute sentinel
        let w = pack_meta(3, 1, META_BITS + 999);
        assert_eq!(w & META_BITS, META_BITS);
    }
}
