//! Structured tracing and post-hoc validation for the round engine.
//!
//! The paper's claims are accounting claims — round counts, message
//! counts, `O(log n)`-bit frames — and until now the only window into a
//! run was the nine-field [`RunReport`] produced by counters scattered
//! through the engine. This module records the *evidence* instead: every
//! executed round, every fast-forward skip, every staged send with its
//! `(sender, port, size_bits)`, every injected fault, every ARQ
//! retransmission, and the phase markers of the composed runners, as a
//! stream of typed [`TraceEvent`]s.
//!
//! Three pieces:
//!
//! * [`TraceSink`] — where events go. The engine holds an
//!   `Option<Box<dyn TraceSink>>`; with no sink attached (the default)
//!   every emission site is a single never-taken branch, so tracing costs
//!   nothing when disabled.
//! * [`JsonlSink`] — the production sink: one JSON object per line,
//!   appended to the file named by `KDOM_TRACE` (see [`from_env`]). The
//!   format is hand-rolled and dependency-free, like the bench harness's
//!   `BENCH_engine.json`.
//! * [`validate_str`] / [`validate_file`] — the post-hoc validator: it
//!   replays the event stream, **re-derives every [`RunReport`] field**
//!   from first principles, compares against the report the engine
//!   recorded at `run_end`, and checks the CONGEST contract over the
//!   whole run — at most one message per edge-direction per round and
//!   `size_bits` within the word budget. This turns experiment E12's
//!   single pinned assert into a property of every traced round.
//!
//! Phase markers ([`emit_phase`] / [`emit_charge`]) partition a multi-run
//! trace into the composition stages of the paper's algorithms (SimpleMST
//! fragments, the charged `DOMPartition`, BFS, the MST pipeline), and the
//! validator folds per-run reports into per-phase breakdowns whose sum is
//! checked against the absorbed total.

use std::collections::{HashMap, HashSet};
use std::fs::OpenOptions;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::report::RunReport;

/// Environment variable naming the JSONL trace file ([`from_env`]).
pub const TRACE_ENV: &str = "KDOM_TRACE";

/// One structured event in a run's evidence stream.
///
/// Borrowed fields keep emission allocation-free; sinks serialize what
/// they need. Times are rounds in the synchronous engine and virtual
/// times under synchronizer α (whose pulses are reported separately).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent<'a> {
    /// A simulator run begins. `mode` is `"sync"`, `"alpha"`, or
    /// `"reliable-alpha"`; `bit_budget` is the engine's per-message
    /// CONGEST cap when one is configured.
    RunStart {
        /// Execution mode label.
        mode: &'a str,
        /// Nodes in the simulated graph.
        nodes: usize,
        /// Undirected edges in the simulated graph.
        edges: usize,
        /// Per-message bit cap enforced by the engine, if configured.
        bit_budget: Option<u64>,
        /// Fixed memory footprint of the executor (graph CSR, arenas,
        /// tables, automata), in bytes. `None` for executors that do not
        /// track memory (the reference loop and synchronizer α). The
        /// validator re-derives `peak_memory_bytes` as this plus the
        /// largest per-round flush.
        fixed_mem: Option<u64>,
    },
    /// A composition-stage marker (e.g. `"BFS"`, `"Pipeline"`): all
    /// following runs and charges belong to this phase until the next
    /// marker.
    Phase {
        /// Stage label.
        label: &'a str,
    },
    /// Analytically charged rounds (the cluster engine's `Charge`):
    /// rounds added to the phase without a measured run.
    Charge {
        /// Charged round count.
        rounds: u64,
    },
    /// A round is about to execute (not emitted for skipped rounds).
    Round {
        /// The round number.
        round: u64,
    },
    /// Quiescence fast-forward jumped the round counter from `from` to
    /// `to` without executing the `to - from` silent rounds between.
    FastForward {
        /// Round counter before the jump.
        from: u64,
        /// Round counter after the jump.
        to: u64,
    },
    /// The round's staged sends are merged into the arena. Emitted once
    /// per executed round with totals summed over all worker shards, so
    /// the stream is identical regardless of the engine's thread count.
    ShardFlush {
        /// The round being merged.
        round: u64,
        /// Sends staged across all shards this round.
        staged: u64,
        /// Bytes the staged slab occupied (packed metadata + payload
        /// slots); the validator's peak-memory evidence.
        bytes: u64,
    },
    /// One staged send, at the instant it is accounted: `copies` is what
    /// the fault injector put on the wire (0 = dropped, 2 = duplicated),
    /// and `link_down` marks drops caused by a link down-interval.
    Send {
        /// The sending round.
        round: u64,
        /// Sender node index.
        sender: u32,
        /// Sender-side port.
        port: u32,
        /// Message width in bits.
        bits: u64,
        /// Copies placed on the wire by the injector (1 when fault-free).
        copies: u32,
        /// Whether a zero-copy outcome was a down-interval drop.
        link_down: bool,
    },
    /// Queued message copies destroyed in the inboxes of nodes that
    /// crashed this round (counted as drops, separately from link loss).
    CrashLost {
        /// The round of the crash.
        round: u64,
        /// Copies destroyed.
        copies: u64,
    },
    /// Synchronizer α advanced a node to `pulse` for the first time
    /// (emitted only when the global pulse high-water mark moves).
    Pulse {
        /// The new maximum pulse.
        pulse: u64,
    },
    /// A payload frame was delivered to the protocol under α (control
    /// frames — acks, safes, link-acks — are not payload deliveries).
    Deliver {
        /// Virtual delivery time.
        time: u64,
        /// Receiving node index.
        node: u32,
        /// Receiver-side port.
        port: u32,
        /// Payload width in bits.
        bits: u64,
    },
    /// The injector destroyed a frame under α; `link_down` marks
    /// down-interval losses.
    Drop {
        /// Virtual send time.
        time: u64,
        /// Whether the loss came from a link down-interval.
        link_down: bool,
    },
    /// The injector duplicated a frame under α.
    Duplicate {
        /// Virtual send time.
        time: u64,
    },
    /// Frames destroyed by node crashes under α (unsent payloads of dead
    /// senders, undeliverable payloads to dead receivers, wires cleared
    /// by [`crate::reliable::LinkState::clear`]).
    CrashDrop {
        /// Frames lost.
        lost: u64,
    },
    /// The ARQ layer retransmitted an unacknowledged frame.
    Retx {
        /// Virtual time of the retransmission.
        time: u64,
        /// Retransmitting node index.
        node: u32,
        /// Sender-side port of the link.
        port: u32,
        /// Link-local sequence number of the frame.
        seq: u64,
        /// Attempt number (2 = first retransmission).
        attempt: u32,
    },
    /// One churn event applied at an epoch boundary (between runs). The
    /// endpoint fields follow [`crate::faults::ChurnEvent`]: `a` is the
    /// primary node id, `b` the second endpoint for edge events, `w` the
    /// weight for weight-carrying events.
    Churn {
        /// Index of the epoch this event belongs to.
        epoch: u64,
        /// Event kind label (`"node_leave"`, `"node_join"`,
        /// `"weight_change"`, `"edge_insert"`, `"edge_remove"`).
        kind: &'a str,
        /// Primary application-level node id.
        a: u64,
        /// Second endpoint for edge events.
        b: Option<u64>,
        /// Weight for weight-carrying events.
        w: Option<u64>,
    },
    /// A re-fixup decision after an epoch (emitted between runs, before
    /// the recovery run starts): `scope` nodes out of `total` were
    /// declared dirty. When `full_restart` is false, the validator audits
    /// that the next `run_start` simulates at most `scope` nodes — the
    /// incremental path must not touch more of the graph than it claimed.
    Refixup {
        /// Index of the epoch being repaired.
        epoch: u64,
        /// Nodes in the dirty scope the incremental path claims.
        scope: usize,
        /// Nodes in the whole (post-churn) graph.
        total: usize,
        /// Whether the full-restart fallback was taken instead of the
        /// incremental path.
        full_restart: bool,
    },
    /// The run finished; `report` is the engine's own final accounting,
    /// which the validator re-derives independently from the events
    /// above.
    RunEnd {
        /// The report the engine recorded.
        report: &'a RunReport,
    },
}

/// Destination for trace events.
///
/// Implementations must be cheap per call (the engine emits one `Send`
/// per message) — buffer internally and flush in [`TraceSink::flush`].
pub trait TraceSink: Send {
    /// Records one event.
    fn event(&mut self, ev: &TraceEvent<'_>);
    /// Flushes buffered events (called at `run_end`); default no-op.
    fn flush(&mut self) {}
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Serializes one event as its canonical single-line JSON object (the
/// format [`validate_str`] parses).
pub fn to_json(ev: &TraceEvent<'_>) -> String {
    match ev {
        TraceEvent::RunStart {
            mode,
            nodes,
            edges,
            bit_budget,
            fixed_mem,
        } => {
            let mut s = String::from("{\"ev\":\"run_start\",\"mode\":\"");
            escape_into(&mut s, mode);
            s.push_str(&format!("\",\"nodes\":{nodes},\"edges\":{edges}"));
            if let Some(b) = bit_budget {
                s.push_str(&format!(",\"budget\":{b}"));
            }
            if let Some(m) = fixed_mem {
                s.push_str(&format!(",\"fixed_mem\":{m}"));
            }
            s.push('}');
            s
        }
        TraceEvent::Phase { label } => {
            let mut s = String::from("{\"ev\":\"phase\",\"label\":\"");
            escape_into(&mut s, label);
            s.push_str("\"}");
            s
        }
        TraceEvent::Charge { rounds } => {
            format!("{{\"ev\":\"charge\",\"rounds\":{rounds}}}")
        }
        TraceEvent::Round { round } => format!("{{\"ev\":\"round\",\"r\":{round}}}"),
        TraceEvent::FastForward { from, to } => {
            format!("{{\"ev\":\"ff\",\"from\":{from},\"to\":{to}}}")
        }
        TraceEvent::ShardFlush {
            round,
            staged,
            bytes,
        } => format!("{{\"ev\":\"flush\",\"r\":{round},\"staged\":{staged},\"bytes\":{bytes}}}"),
        TraceEvent::Send {
            round,
            sender,
            port,
            bits,
            copies,
            link_down,
        } => format!(
            "{{\"ev\":\"send\",\"r\":{round},\"v\":{sender},\"p\":{port},\"bits\":{bits},\
             \"copies\":{copies},\"down\":{link_down}}}"
        ),
        TraceEvent::CrashLost { round, copies } => {
            format!("{{\"ev\":\"crash_lost\",\"r\":{round},\"copies\":{copies}}}")
        }
        TraceEvent::Pulse { pulse } => format!("{{\"ev\":\"pulse\",\"p\":{pulse}}}"),
        TraceEvent::Deliver {
            time,
            node,
            port,
            bits,
        } => {
            format!("{{\"ev\":\"deliver\",\"t\":{time},\"v\":{node},\"p\":{port},\"bits\":{bits}}}")
        }
        TraceEvent::Drop { time, link_down } => {
            format!("{{\"ev\":\"drop\",\"t\":{time},\"down\":{link_down}}}")
        }
        TraceEvent::Duplicate { time } => format!("{{\"ev\":\"dup\",\"t\":{time}}}"),
        TraceEvent::CrashDrop { lost } => format!("{{\"ev\":\"crash_drop\",\"n\":{lost}}}"),
        TraceEvent::Retx {
            time,
            node,
            port,
            seq,
            attempt,
        } => format!(
            "{{\"ev\":\"retx\",\"t\":{time},\"v\":{node},\"p\":{port},\"seq\":{seq},\
             \"attempt\":{attempt}}}"
        ),
        TraceEvent::Churn {
            epoch,
            kind,
            a,
            b,
            w,
        } => {
            let mut s = format!("{{\"ev\":\"churn\",\"epoch\":{epoch},\"kind\":\"");
            escape_into(&mut s, kind);
            s.push_str(&format!("\",\"a\":{a}"));
            if let Some(b) = b {
                s.push_str(&format!(",\"b\":{b}"));
            }
            if let Some(w) = w {
                s.push_str(&format!(",\"w\":{w}"));
            }
            s.push('}');
            s
        }
        TraceEvent::Refixup {
            epoch,
            scope,
            total,
            full_restart,
        } => format!(
            "{{\"ev\":\"refixup\",\"epoch\":{epoch},\"scope\":{scope},\"total\":{total},\
             \"full\":{full_restart}}}"
        ),
        TraceEvent::RunEnd { report } => format!(
            "{{\"ev\":\"run_end\",\"rounds\":{},\"messages\":{},\"total_bits\":{},\
             \"max_message_bits\":{},\"peak\":{},\"dropped\":{},\"duplicated\":{},\"retx\":{},\
             \"peak_mem\":{}}}",
            report.rounds,
            report.messages,
            report.total_bits,
            report.max_message_bits,
            report.peak_messages_per_round,
            report.dropped_messages,
            report.duplicated_messages,
            report.retransmissions,
            report.peak_memory_bytes
        ),
    }
}

/// The production sink: serialized events appended line-by-line to a
/// file. Opened in append mode so the multiple runs of a composed
/// algorithm (fragments, BFS, pipeline) land in one stream.
pub struct JsonlSink {
    out: BufWriter<std::fs::File>,
}

impl JsonlSink {
    /// Opens (creating if needed) `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `std::io::Error`.
    pub fn append(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JsonlSink {
            out: BufWriter::new(file),
        })
    }
}

impl TraceSink for JsonlSink {
    fn event(&mut self, ev: &TraceEvent<'_>) {
        let _ = writeln!(self.out, "{}", to_json(ev));
    }
    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// An in-memory sink holding serialized JSONL lines behind a shared
/// handle — tests attach one clone to a simulator and validate the other
/// after the run, no filesystem or environment involved.
#[derive(Clone, Default)]
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemorySink {
    /// Creates an empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded lines joined into one JSONL document (validator
    /// input).
    pub fn to_jsonl(&self) -> String {
        let lines = self.lines.lock().unwrap_or_else(|p| p.into_inner());
        let mut s = lines.join("\n");
        if !s.is_empty() {
            s.push('\n');
        }
        s
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.lines.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The serialized lines recorded at index `from` and later — the
    /// incremental read used by `kdom-serve` trace subscribers, who poll
    /// a job's sink and remember how far they have streamed.
    pub fn lines_since(&self, from: usize) -> Vec<String> {
        let lines = self.lines.lock().unwrap_or_else(|p| p.into_inner());
        lines
            .get(from..)
            .map(<[String]>::to_vec)
            .unwrap_or_default()
    }
}

impl TraceSink for MemorySink {
    fn event(&mut self, ev: &TraceEvent<'_>) {
        self.lines
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(to_json(ev));
    }
}

/// A per-thread trace policy overriding the `KDOM_TRACE` environment
/// knob; installed with [`with_thread_trace`].
///
/// The environment is process-global, which is exactly wrong for the job
/// scheduler: two concurrent jobs appending to one `KDOM_TRACE` file
/// would interleave their streams into something no validator accepts.
/// Every sink attach point in the workspace funnels through
/// [`from_env`], so a thread-scoped override at that one choke point
/// gives each job its own policy without touching the engine.
#[derive(Clone, Default)]
pub enum ThreadTrace {
    /// Defer to the `KDOM_TRACE` environment knob (the default).
    #[default]
    Inherit,
    /// Tracing disabled on this thread regardless of the environment.
    Off,
    /// Events recorded into this shared in-memory sink.
    Capture(MemorySink),
}

thread_local! {
    static THREAD_TRACE: std::cell::RefCell<ThreadTrace> =
        const { std::cell::RefCell::new(ThreadTrace::Inherit) };
}

/// Runs `f` with `mode` as this thread's trace policy, restoring the
/// previous policy afterwards (also on panic, so a crashed job cannot
/// leak its capture sink into the worker thread's next job).
pub fn with_thread_trace<R>(mode: ThreadTrace, f: impl FnOnce() -> R) -> R {
    struct Restore(ThreadTrace);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = std::mem::take(&mut self.0);
            THREAD_TRACE.with(|t| *t.borrow_mut() = prev);
        }
    }
    let _restore = Restore(THREAD_TRACE.with(|t| t.replace(mode)));
    f()
}

/// Builds the sink selected by this thread's policy: the capture sink or
/// nothing when a [`ThreadTrace`] override is installed, otherwise a
/// [`JsonlSink`] appending to the file named by `KDOM_TRACE`, or `None`
/// (the zero-cost default) when the variable is unset or empty. An
/// unopenable path is reported to stderr once and treated as disabled
/// rather than aborting the run.
pub fn from_env() -> Option<Box<dyn TraceSink>> {
    match THREAD_TRACE.with(|t| t.borrow().clone()) {
        ThreadTrace::Off => return None,
        ThreadTrace::Capture(sink) => return Some(Box::new(sink)),
        ThreadTrace::Inherit => {}
    }
    let path = kdom_graph::knob::raw(TRACE_ENV)?;
    match JsonlSink::append(&path) {
        Ok(sink) => Some(Box::new(sink)),
        Err(e) => {
            eprintln!("{TRACE_ENV}: cannot open {path}: {e}; tracing disabled");
            None
        }
    }
}

/// Appends a phase marker to the `KDOM_TRACE` stream (no-op when tracing
/// is disabled). Called once per composition stage by the runners, so
/// the open-append-close cost is irrelevant.
pub fn emit_phase(label: &str) {
    if let Some(mut sink) = from_env() {
        sink.event(&TraceEvent::Phase { label });
        sink.flush();
    }
}

/// Appends an analytic round charge (the cluster engine's contribution)
/// to the `KDOM_TRACE` stream; no-op when tracing is disabled.
pub fn emit_charge(rounds: u64) {
    if let Some(mut sink) = from_env() {
        sink.event(&TraceEvent::Charge { rounds });
        sink.flush();
    }
}

/// Appends one churn event (applied at an epoch boundary) to the
/// `KDOM_TRACE` stream; no-op when tracing is disabled. Must be called
/// between runs — the validator rejects churn inside an open run.
pub fn emit_churn(epoch: u64, ev: &crate::faults::ChurnEvent) {
    if let Some(mut sink) = from_env() {
        let (a, b) = ev.endpoints();
        sink.event(&TraceEvent::Churn {
            epoch,
            kind: ev.kind(),
            a,
            b,
            w: ev.weight(),
        });
        sink.flush();
    }
}

/// Appends a re-fixup decision to the `KDOM_TRACE` stream; no-op when
/// tracing is disabled. For an incremental decision (`full_restart ==
/// false`) the validator audits that the next run simulates at most
/// `scope` nodes.
pub fn emit_refixup(epoch: u64, scope: usize, total: usize, full_restart: bool) {
    if let Some(mut sink) = from_env() {
        sink.event(&TraceEvent::Refixup {
            epoch,
            scope,
            total,
            full_restart,
        });
        sink.flush();
    }
}

// ---------------------------------------------------------------------
// Validator
// ---------------------------------------------------------------------

/// One validated run inside a trace: the report re-derived from events
/// next to the report the engine recorded. [`validate_str`] only returns
/// summaries whose two reports agree on all nine fields.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Execution mode (`"sync"`, `"alpha"`, `"reliable-alpha"`).
    pub mode: String,
    /// The phase label active when the run started (empty before any
    /// marker).
    pub phase: String,
    /// The report re-derived from the event stream.
    pub derived: RunReport,
    /// The report the engine emitted at `run_end`.
    pub recorded: RunReport,
}

/// The validator's verdict over a whole trace.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Every run, in stream order, with derived == recorded.
    pub runs: Vec<RunSummary>,
    /// Per-phase breakdowns in first-seen order: measured runs absorbed,
    /// analytic charges added via `charge_rounds`.
    pub phases: Vec<(String, RunReport)>,
    /// Absorbed total over all runs and charges (equals the sum of the
    /// per-phase breakdowns by construction — and by test).
    pub total: RunReport,
    /// Fast-forward jumps recorded across all runs.
    pub ff_jumps: u64,
    /// Rounds skipped by fast-forward across all runs.
    pub ff_skipped: u64,
    /// Churn events recorded between runs.
    pub churn_events: u64,
    /// Re-fixup decisions recorded between runs (incremental or full).
    pub refixups: u64,
}

impl TraceSummary {
    /// The breakdown recorded for `phase`, if any run or charge landed
    /// in it.
    pub fn phase(&self, label: &str) -> Option<&RunReport> {
        self.phases
            .iter()
            .find_map(|(l, r)| (l == label).then_some(r))
    }
}

/// Extracts the integer value of `"key":` from a single-line JSON
/// object. Only the exact quoted key matches, so `"r"` never matches
/// inside `"rounds"`.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    rest.find('"').map(|end| &rest[..end])
}

fn field_bool(line: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = line[at..].trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Accumulator for the run currently open in the stream.
struct RunAcc {
    mode: String,
    phase: String,
    budget: Option<u64>,
    fixed_mem: Option<u64>,
    max_flush_bytes: u64,
    max_round: Option<u64>,
    ff_to: u64,
    max_pulse: u64,
    sends: u64,
    send_bits: u64,
    max_bits: u64,
    per_round: HashMap<u64, u64>,
    edge_dirs: HashSet<(u64, u32, u32)>,
    send_drops: u64,
    send_dups: u64,
    crash_lost: u64,
    delivers: u64,
    drops: u64,
    dups: u64,
    crash_drops: u64,
    retx: u64,
}

impl RunAcc {
    fn derive(&self) -> RunReport {
        let mut r = RunReport::default();
        if self.mode == "sync" {
            r.rounds = self.max_round.map(|x| x + 1).unwrap_or(0).max(self.ff_to);
            r.messages = self.sends;
            r.total_bits = self.send_bits;
            r.max_message_bits = self.max_bits;
            r.peak_messages_per_round = self.per_round.values().copied().max().unwrap_or(0);
            r.dropped_messages = self.send_drops + self.crash_lost;
            r.duplicated_messages = self.send_dups;
            r.retransmissions = 0;
            // Peak memory is the executor's fixed footprint plus the
            // largest per-round staged-send slab (the flush events). A
            // run that traced no fixed_mem (the reference loop) derives
            // zero, matching what such executors record.
            r.peak_memory_bytes = self.fixed_mem.map_or(0, |f| f + self.max_flush_bytes);
        } else {
            // α projection: pulses are rounds, payload deliveries are
            // messages; bit and peak accounting is deliberately zeroed
            // (RunReport::from<AlphaReport> documents why).
            r.rounds = self.max_pulse;
            r.messages = self.delivers;
            r.dropped_messages = self.drops + self.crash_drops;
            r.duplicated_messages = self.dups;
            r.retransmissions = self.retx;
        }
        r
    }
}

fn report_fields(r: &RunReport) -> [(&'static str, u64); 9] {
    [
        ("rounds", r.rounds),
        ("messages", r.messages),
        ("total_bits", r.total_bits),
        ("max_message_bits", r.max_message_bits),
        ("peak_messages_per_round", r.peak_messages_per_round),
        ("dropped_messages", r.dropped_messages),
        ("duplicated_messages", r.duplicated_messages),
        ("retransmissions", r.retransmissions),
        ("peak_memory_bytes", r.peak_memory_bytes),
    ]
}

fn phase_entry<'a>(phases: &'a mut Vec<(String, RunReport)>, label: &str) -> &'a mut RunReport {
    if let Some(at) = phases.iter().position(|(l, _)| l == label) {
        return &mut phases[at].1;
    }
    phases.push((label.to_string(), RunReport::default()));
    &mut phases.last_mut().expect("just pushed").1
}

/// Validates a JSONL trace file; see [`validate_str`].
///
/// # Errors
///
/// Returns the first accounting or CONGEST violation found, or an I/O
/// description if the file cannot be read.
pub fn validate_file(
    path: impl AsRef<Path>,
    expect_bit_budget: Option<u64>,
) -> Result<TraceSummary, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    validate_str(&text, expect_bit_budget)
}

/// Replays a JSONL trace and checks it end to end.
///
/// Per run, the validator re-derives all nine [`RunReport`] fields from
/// the raw events (round/ff events for `rounds`, send events for
/// `messages`/`total_bits`/`max_message_bits`/`peak`, zero-copy sends
/// plus crash losses for `dropped_messages`, extra copies for
/// `duplicated_messages`, the `run_start` fixed footprint plus the
/// largest flush for `peak_memory_bytes`; under α: pulses, payload
/// deliveries, drops, dups and retransmissions) and requires exact
/// agreement with the
/// report recorded at `run_end`. Synchronous runs are additionally
/// checked against the CONGEST contract: no two sends may share an
/// `(round, sender, port)` edge-direction, and — when a budget is known
/// from the `run_start` event or `expect_bit_budget` — every message
/// must fit in it (`expect_bit_budget` also bounds α payloads).
///
/// # Errors
///
/// Returns a description of the first malformed line, accounting
/// mismatch, or CONGEST violation encountered.
pub fn validate_str(text: &str, expect_bit_budget: Option<u64>) -> Result<TraceSummary, String> {
    let mut sum = TraceSummary::default();
    let mut current_phase = String::new();
    let mut cur: Option<RunAcc> = None;
    // Scope claimed by the last incremental refixup event, audited
    // against the node count of the next run_start.
    let mut pending_refixup: Option<(usize, u64)> = None;

    for (at, line) in text.lines().enumerate() {
        let lineno = at + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ev = field_str(line, "ev").ok_or_else(|| format!("line {lineno}: no \"ev\" field"))?;
        let miss = |k: &str| format!("line {lineno}: {ev} event missing \"{k}\"");
        match ev {
            "run_start" => {
                if cur.is_some() {
                    return Err(format!("line {lineno}: run_start inside an open run"));
                }
                let nodes = field_u64(line, "nodes").ok_or_else(|| miss("nodes"))? as usize;
                if let Some((scope, epoch)) = pending_refixup.take() {
                    if nodes > scope {
                        return Err(format!(
                            "line {lineno}: refixup for epoch {epoch} claimed a {scope}-node \
                             scope but the recovery run simulates {nodes} nodes"
                        ));
                    }
                }
                cur = Some(RunAcc {
                    mode: field_str(line, "mode")
                        .ok_or_else(|| miss("mode"))?
                        .to_string(),
                    phase: current_phase.clone(),
                    budget: field_u64(line, "budget"),
                    fixed_mem: field_u64(line, "fixed_mem"),
                    max_flush_bytes: 0,
                    max_round: None,
                    ff_to: 0,
                    max_pulse: 0,
                    sends: 0,
                    send_bits: 0,
                    max_bits: 0,
                    per_round: HashMap::new(),
                    edge_dirs: HashSet::new(),
                    send_drops: 0,
                    send_dups: 0,
                    crash_lost: 0,
                    delivers: 0,
                    drops: 0,
                    dups: 0,
                    crash_drops: 0,
                    retx: 0,
                });
            }
            "phase" => {
                if cur.is_some() {
                    return Err(format!("line {lineno}: phase marker inside an open run"));
                }
                current_phase = field_str(line, "label")
                    .ok_or_else(|| miss("label"))?
                    .to_string();
            }
            "charge" => {
                if cur.is_some() {
                    return Err(format!("line {lineno}: charge inside an open run"));
                }
                let rounds = field_u64(line, "rounds").ok_or_else(|| miss("rounds"))?;
                phase_entry(&mut sum.phases, &current_phase).charge_rounds(rounds);
                sum.total.charge_rounds(rounds);
            }
            "churn" => {
                if cur.is_some() {
                    return Err(format!("line {lineno}: churn event inside an open run"));
                }
                field_u64(line, "epoch").ok_or_else(|| miss("epoch"))?;
                field_str(line, "kind").ok_or_else(|| miss("kind"))?;
                field_u64(line, "a").ok_or_else(|| miss("a"))?;
                sum.churn_events += 1;
            }
            "refixup" => {
                if cur.is_some() {
                    return Err(format!("line {lineno}: refixup event inside an open run"));
                }
                let epoch = field_u64(line, "epoch").ok_or_else(|| miss("epoch"))?;
                let scope = field_u64(line, "scope").ok_or_else(|| miss("scope"))? as usize;
                let total = field_u64(line, "total").ok_or_else(|| miss("total"))? as usize;
                let full = field_bool(line, "full").ok_or_else(|| miss("full"))?;
                if scope > total {
                    return Err(format!(
                        "line {lineno}: refixup scope {scope} exceeds the {total}-node graph"
                    ));
                }
                if let Some((_, prev)) = pending_refixup {
                    return Err(format!(
                        "line {lineno}: refixup for epoch {epoch} before the incremental \
                         refixup for epoch {prev} was followed by a recovery run"
                    ));
                }
                if !full {
                    pending_refixup = Some((scope, epoch));
                }
                sum.refixups += 1;
            }
            "run_end" => {
                let run = cur
                    .take()
                    .ok_or_else(|| format!("line {lineno}: run_end without run_start"))?;
                let recorded = RunReport {
                    rounds: field_u64(line, "rounds").ok_or_else(|| miss("rounds"))?,
                    messages: field_u64(line, "messages").ok_or_else(|| miss("messages"))?,
                    total_bits: field_u64(line, "total_bits").ok_or_else(|| miss("total_bits"))?,
                    max_message_bits: field_u64(line, "max_message_bits")
                        .ok_or_else(|| miss("max_message_bits"))?,
                    peak_messages_per_round: field_u64(line, "peak").ok_or_else(|| miss("peak"))?,
                    dropped_messages: field_u64(line, "dropped").ok_or_else(|| miss("dropped"))?,
                    duplicated_messages: field_u64(line, "duplicated")
                        .ok_or_else(|| miss("duplicated"))?,
                    retransmissions: field_u64(line, "retx").ok_or_else(|| miss("retx"))?,
                    peak_memory_bytes: field_u64(line, "peak_mem")
                        .ok_or_else(|| miss("peak_mem"))?,
                };
                let derived = run.derive();
                for ((name, d), (_, r)) in report_fields(&derived)
                    .into_iter()
                    .zip(report_fields(&recorded))
                {
                    if d != r {
                        return Err(format!(
                            "line {lineno}: {} run: derived {name} = {d} but the engine \
                             recorded {r}",
                            run.mode
                        ));
                    }
                }
                phase_entry(&mut sum.phases, &run.phase).absorb(&derived);
                sum.total.absorb(&derived);
                sum.runs.push(RunSummary {
                    mode: run.mode,
                    phase: run.phase,
                    derived,
                    recorded,
                });
            }
            _ => {
                let run = cur
                    .as_mut()
                    .ok_or_else(|| format!("line {lineno}: {ev} event outside any run"))?;
                match ev {
                    "round" => {
                        let r = field_u64(line, "r").ok_or_else(|| miss("r"))?;
                        run.max_round = Some(run.max_round.map_or(r, |m| m.max(r)));
                    }
                    "ff" => {
                        let from = field_u64(line, "from").ok_or_else(|| miss("from"))?;
                        let to = field_u64(line, "to").ok_or_else(|| miss("to"))?;
                        if to < from {
                            return Err(format!("line {lineno}: fast-forward goes backwards"));
                        }
                        run.ff_to = run.ff_to.max(to);
                        sum.ff_jumps += 1;
                        sum.ff_skipped += to - from;
                    }
                    "flush" => {
                        field_u64(line, "r").ok_or_else(|| miss("r"))?;
                        field_u64(line, "staged").ok_or_else(|| miss("staged"))?;
                        let bytes = field_u64(line, "bytes").ok_or_else(|| miss("bytes"))?;
                        run.max_flush_bytes = run.max_flush_bytes.max(bytes);
                    }
                    "send" => {
                        let r = field_u64(line, "r").ok_or_else(|| miss("r"))?;
                        let v = field_u64(line, "v").ok_or_else(|| miss("v"))? as u32;
                        let p = field_u64(line, "p").ok_or_else(|| miss("p"))? as u32;
                        let bits = field_u64(line, "bits").ok_or_else(|| miss("bits"))?;
                        let copies = field_u64(line, "copies").ok_or_else(|| miss("copies"))?;
                        if !run.edge_dirs.insert((r, v, p)) {
                            return Err(format!(
                                "line {lineno}: CONGEST violation: round {r} carries two \
                                 messages from node {v} port {p}"
                            ));
                        }
                        if let Some(b) = run.budget.or(expect_bit_budget) {
                            if bits > b {
                                return Err(format!(
                                    "line {lineno}: CONGEST violation: {bits}-bit message \
                                     from node {v} exceeds the {b}-bit budget"
                                ));
                            }
                        }
                        run.sends += 1;
                        run.send_bits += bits;
                        run.max_bits = run.max_bits.max(bits);
                        *run.per_round.entry(r).or_insert(0) += 1;
                        if copies == 0 {
                            run.send_drops += 1;
                        } else {
                            run.send_dups += copies - 1;
                        }
                    }
                    "crash_lost" => {
                        run.crash_lost +=
                            field_u64(line, "copies").ok_or_else(|| miss("copies"))?;
                    }
                    "pulse" => {
                        let p = field_u64(line, "p").ok_or_else(|| miss("p"))?;
                        run.max_pulse = run.max_pulse.max(p);
                    }
                    "deliver" => {
                        let bits = field_u64(line, "bits").ok_or_else(|| miss("bits"))?;
                        if let Some(b) = expect_bit_budget {
                            if bits > b {
                                return Err(format!(
                                    "line {lineno}: CONGEST violation: {bits}-bit payload \
                                     exceeds the {b}-bit budget"
                                ));
                            }
                        }
                        run.delivers += 1;
                    }
                    "drop" => {
                        field_bool(line, "down").ok_or_else(|| miss("down"))?;
                        run.drops += 1;
                    }
                    "dup" => run.dups += 1,
                    "crash_drop" => {
                        run.crash_drops += field_u64(line, "n").ok_or_else(|| miss("n"))?;
                    }
                    "retx" => {
                        field_u64(line, "attempt").ok_or_else(|| miss("attempt"))?;
                        run.retx += 1;
                    }
                    other => return Err(format!("line {lineno}: unknown event \"{other}\"")),
                }
            }
        }
    }
    if cur.is_some() {
        return Err("trace ends inside an open run (no run_end)".to_string());
    }
    if let Some((_, epoch)) = pending_refixup {
        return Err(format!(
            "trace ends before the incremental refixup for epoch {epoch} ran its recovery"
        ));
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(round: u64, sender: u32, port: u32, bits: u64) -> TraceEvent<'static> {
        TraceEvent::Send {
            round,
            sender,
            port,
            bits,
            copies: 1,
            link_down: false,
        }
    }

    fn record(events: &[TraceEvent<'_>]) -> String {
        let mut sink = MemorySink::new();
        for ev in events {
            sink.event(ev);
        }
        sink.to_jsonl()
    }

    #[test]
    fn sync_roundtrip_rederives_all_fields() {
        let report = RunReport {
            rounds: 40,
            messages: 3,
            total_bits: 144,
            max_message_bits: 96,
            peak_messages_per_round: 2,
            dropped_messages: 1,
            duplicated_messages: 1,
            retransmissions: 0,
            peak_memory_bytes: 0,
        };
        let text = record(&[
            TraceEvent::RunStart {
                mode: "sync",
                nodes: 4,
                edges: 3,
                bit_budget: Some(96),
                fixed_mem: None,
            },
            TraceEvent::Round { round: 0 },
            send(0, 0, 0, 48),
            send(0, 1, 1, 96),
            TraceEvent::Round { round: 1 },
            TraceEvent::Send {
                round: 1,
                sender: 2,
                port: 0,
                bits: 0,
                copies: 2,
                link_down: false,
            },
            TraceEvent::CrashLost {
                round: 1,
                copies: 1,
            },
            TraceEvent::FastForward { from: 2, to: 40 },
            TraceEvent::RunEnd { report: &report },
        ]);
        let sum = validate_str(&text, None).expect("valid trace");
        assert_eq!(sum.runs.len(), 1);
        assert_eq!(sum.runs[0].derived, report);
        assert_eq!(sum.total, report);
        assert_eq!(sum.ff_jumps, 1);
        assert_eq!(sum.ff_skipped, 38);
    }

    #[test]
    fn peak_memory_rederives_from_fixed_and_flush() {
        let report = RunReport {
            rounds: 2,
            messages: 1,
            total_bits: 48,
            max_message_bits: 48,
            peak_messages_per_round: 1,
            peak_memory_bytes: 1024 + 72,
            ..RunReport::default()
        };
        let events = [
            TraceEvent::RunStart {
                mode: "sync",
                nodes: 2,
                edges: 1,
                bit_budget: None,
                fixed_mem: Some(1024),
            },
            TraceEvent::Round { round: 0 },
            TraceEvent::ShardFlush {
                round: 0,
                staged: 1,
                bytes: 72,
            },
            send(0, 0, 0, 48),
            TraceEvent::Round { round: 1 },
            TraceEvent::ShardFlush {
                round: 1,
                staged: 0,
                bytes: 0,
            },
            TraceEvent::RunEnd { report: &report },
        ];
        let sum = validate_str(&record(&events), None).expect("valid trace");
        assert_eq!(sum.runs[0].derived.peak_memory_bytes, 1096);

        // A cooked peak is caught like any other field.
        let cooked = RunReport {
            peak_memory_bytes: 4096,
            ..report.clone()
        };
        let mut forged = events;
        forged[forged.len() - 1] = TraceEvent::RunEnd { report: &cooked };
        let err = validate_str(&record(&forged), None).expect_err("cooked peak");
        assert!(err.contains("peak_memory_bytes"), "{err}");
    }

    #[test]
    fn double_send_on_edge_direction_is_flagged() {
        let report = RunReport {
            rounds: 1,
            messages: 2,
            total_bits: 96,
            max_message_bits: 48,
            peak_messages_per_round: 2,
            ..RunReport::default()
        };
        let text = record(&[
            TraceEvent::RunStart {
                mode: "sync",
                nodes: 2,
                edges: 1,
                bit_budget: None,
                fixed_mem: None,
            },
            TraceEvent::Round { round: 0 },
            send(0, 0, 0, 48),
            send(0, 0, 0, 48),
            TraceEvent::RunEnd { report: &report },
        ]);
        let err = validate_str(&text, None).expect_err("double send must fail");
        assert!(err.contains("CONGEST violation"), "{err}");
    }

    #[test]
    fn oversized_message_is_flagged_via_expected_budget() {
        let report = RunReport {
            rounds: 1,
            messages: 1,
            total_bits: 200,
            max_message_bits: 200,
            peak_messages_per_round: 1,
            ..RunReport::default()
        };
        let text = record(&[
            TraceEvent::RunStart {
                mode: "sync",
                nodes: 2,
                edges: 1,
                bit_budget: None,
                fixed_mem: None,
            },
            TraceEvent::Round { round: 0 },
            send(0, 0, 0, 200),
            TraceEvent::RunEnd { report: &report },
        ]);
        assert!(validate_str(&text, None).is_ok());
        let err = validate_str(&text, Some(144)).expect_err("budget exceeded");
        assert!(err.contains("exceeds the 144-bit budget"), "{err}");
    }

    #[test]
    fn cooked_report_is_caught() {
        let cooked = RunReport {
            rounds: 1,
            messages: 5, // stream shows 1
            total_bits: 48,
            max_message_bits: 48,
            peak_messages_per_round: 1,
            ..RunReport::default()
        };
        let text = record(&[
            TraceEvent::RunStart {
                mode: "sync",
                nodes: 2,
                edges: 1,
                bit_budget: None,
                fixed_mem: None,
            },
            TraceEvent::Round { round: 0 },
            send(0, 0, 0, 48),
            TraceEvent::RunEnd { report: &cooked },
        ]);
        let err = validate_str(&text, None).expect_err("mismatch must fail");
        assert!(err.contains("derived messages = 1"), "{err}");
    }

    #[test]
    fn phases_partition_runs_and_charges() {
        let r1 = RunReport {
            rounds: 2,
            messages: 1,
            total_bits: 48,
            max_message_bits: 48,
            peak_messages_per_round: 1,
            ..RunReport::default()
        };
        let text = record(&[
            TraceEvent::Phase { label: "SimpleMST" },
            TraceEvent::RunStart {
                mode: "sync",
                nodes: 2,
                edges: 1,
                bit_budget: None,
                fixed_mem: None,
            },
            TraceEvent::Round { round: 0 },
            send(0, 0, 0, 48),
            TraceEvent::Round { round: 1 },
            TraceEvent::RunEnd { report: &r1 },
            TraceEvent::Phase {
                label: "DOMPartition",
            },
            TraceEvent::Charge { rounds: 57 },
        ]);
        let sum = validate_str(&text, None).expect("valid trace");
        assert_eq!(sum.phase("SimpleMST").unwrap().messages, 1);
        assert_eq!(sum.phase("DOMPartition").unwrap().rounds, 57);
        assert_eq!(sum.phase("DOMPartition").unwrap().messages, 0);
        // per-phase sums equal the absorbed total
        let mut recombined = RunReport::default();
        for (_, r) in &sum.phases {
            recombined.absorb(r);
        }
        assert_eq!(recombined, sum.total);
        assert_eq!(sum.total.rounds, 2 + 57);
    }

    #[test]
    fn alpha_runs_derive_from_pulses_and_deliveries() {
        let report = RunReport {
            rounds: 3,
            messages: 2,
            dropped_messages: 2,
            duplicated_messages: 1,
            retransmissions: 1,
            ..RunReport::default()
        };
        let text = record(&[
            TraceEvent::RunStart {
                mode: "reliable-alpha",
                nodes: 2,
                edges: 1,
                bit_budget: None,
                fixed_mem: None,
            },
            TraceEvent::Pulse { pulse: 1 },
            TraceEvent::Drop {
                time: 1,
                link_down: false,
            },
            TraceEvent::Retx {
                time: 4,
                node: 0,
                port: 0,
                seq: 1,
                attempt: 2,
            },
            TraceEvent::Duplicate { time: 4 },
            TraceEvent::Deliver {
                time: 5,
                node: 1,
                port: 0,
                bits: 48,
            },
            TraceEvent::Pulse { pulse: 2 },
            TraceEvent::Deliver {
                time: 6,
                node: 0,
                port: 0,
                bits: 48,
            },
            TraceEvent::Pulse { pulse: 3 },
            TraceEvent::CrashDrop { lost: 1 },
            TraceEvent::RunEnd { report: &report },
        ]);
        let sum = validate_str(&text, None).expect("valid α trace");
        assert_eq!(sum.runs[0].derived, report);
        // α traces never zero out: bit fields are zero by projection
        assert_eq!(sum.runs[0].derived.total_bits, 0);
    }

    #[test]
    fn truncated_trace_is_rejected() {
        let text = record(&[TraceEvent::RunStart {
            mode: "sync",
            nodes: 1,
            edges: 0,
            bit_budget: None,
            fixed_mem: None,
        }]);
        let err = validate_str(&text, None).expect_err("open run must fail");
        assert!(err.contains("no run_end"), "{err}");
    }

    #[test]
    fn labels_are_escaped() {
        let ev = TraceEvent::Phase {
            label: "odd \"label\"\\n",
        };
        let line = to_json(&ev);
        assert_eq!(
            line,
            "{\"ev\":\"phase\",\"label\":\"odd \\\"label\\\"\\\\n\"}"
        );
    }

    static ZERO_REPORT: RunReport = RunReport {
        rounds: 0,
        messages: 0,
        total_bits: 0,
        max_message_bits: 0,
        peak_messages_per_round: 0,
        dropped_messages: 0,
        duplicated_messages: 0,
        retransmissions: 0,
        peak_memory_bytes: 0,
    };

    fn tiny_run(nodes: usize) -> [TraceEvent<'static>; 2] {
        [
            TraceEvent::RunStart {
                mode: "sync",
                nodes,
                edges: 0,
                bit_budget: None,
                fixed_mem: None,
            },
            TraceEvent::RunEnd {
                report: &ZERO_REPORT,
            },
        ]
    }

    #[test]
    fn churn_and_refixup_round_trip() {
        assert_eq!(
            to_json(&TraceEvent::Churn {
                epoch: 2,
                kind: "edge_insert",
                a: 7,
                b: Some(9),
                w: Some(44),
            }),
            "{\"ev\":\"churn\",\"epoch\":2,\"kind\":\"edge_insert\",\"a\":7,\"b\":9,\"w\":44}"
        );
        assert_eq!(
            to_json(&TraceEvent::Churn {
                epoch: 0,
                kind: "node_leave",
                a: 5,
                b: None,
                w: None,
            }),
            "{\"ev\":\"churn\",\"epoch\":0,\"kind\":\"node_leave\",\"a\":5}"
        );
        assert_eq!(
            to_json(&TraceEvent::Refixup {
                epoch: 1,
                scope: 3,
                total: 10,
                full_restart: false,
            }),
            "{\"ev\":\"refixup\",\"epoch\":1,\"scope\":3,\"total\":10,\"full\":false}"
        );
        let mut events: Vec<TraceEvent<'static>> = tiny_run(10).to_vec();
        events.push(TraceEvent::Churn {
            epoch: 0,
            kind: "node_leave",
            a: 5,
            b: None,
            w: None,
        });
        events.push(TraceEvent::Refixup {
            epoch: 0,
            scope: 3,
            total: 9,
            full_restart: false,
        });
        events.extend(tiny_run(3));
        let sum = validate_str(&record(&events), None).expect("valid churn trace");
        assert_eq!(sum.churn_events, 1);
        assert_eq!(sum.refixups, 1);
        assert_eq!(sum.runs.len(), 2);
    }

    #[test]
    fn refixup_audit_catches_overscoped_recovery() {
        // The incremental refixup claims a 2-node scope but the recovery
        // run simulates all 9 nodes — the validator must reject it.
        let mut events: Vec<TraceEvent<'static>> = vec![TraceEvent::Refixup {
            epoch: 0,
            scope: 2,
            total: 9,
            full_restart: false,
        }];
        events.extend(tiny_run(9));
        let err = validate_str(&record(&events), None).expect_err("overscoped");
        assert!(err.contains("claimed a 2-node scope"), "{err}");
        assert!(err.contains("simulates 9 nodes"), "{err}");

        // A full restart makes no scope claim, so the same run is fine.
        let mut events: Vec<TraceEvent<'static>> = vec![TraceEvent::Refixup {
            epoch: 0,
            scope: 2,
            total: 9,
            full_restart: true,
        }];
        events.extend(tiny_run(9));
        validate_str(&record(&events), None).expect("full restart audits nothing");
    }

    #[test]
    fn refixup_misuse_is_rejected() {
        // scope larger than the graph
        let events = [TraceEvent::Refixup {
            epoch: 0,
            scope: 11,
            total: 10,
            full_restart: true,
        }];
        let err = validate_str(&record(&events), None).expect_err("scope > total");
        assert!(err.contains("exceeds"), "{err}");

        // incremental claim never followed by a recovery run
        let events = [TraceEvent::Refixup {
            epoch: 3,
            scope: 1,
            total: 10,
            full_restart: false,
        }];
        let err = validate_str(&record(&events), None).expect_err("no recovery run");
        assert!(err.contains("epoch 3"), "{err}");

        // churn inside an open run
        let text = concat!(
            "{\"ev\":\"run_start\",\"mode\":\"sync\",\"nodes\":1,\"edges\":0}\n",
            "{\"ev\":\"churn\",\"epoch\":0,\"kind\":\"node_leave\",\"a\":5}\n",
        );
        let err = validate_str(text, None).expect_err("churn inside run");
        assert!(err.contains("inside an open run"), "{err}");
    }

    #[test]
    fn thread_trace_overrides_environment_and_restores() {
        // An env-selected file sink would pollute other tests; use a
        // variable scoped to this test's thread via the override instead.
        let captured = MemorySink::new();
        with_thread_trace(ThreadTrace::Capture(captured.clone()), || {
            emit_phase("Captured");
        });
        assert_eq!(captured.len(), 1);
        assert!(captured.to_jsonl().contains("\"label\":\"Captured\""));

        // Off suppresses emission entirely.
        let silent = MemorySink::new();
        with_thread_trace(ThreadTrace::Capture(silent.clone()), || {
            with_thread_trace(ThreadTrace::Off, || emit_phase("Dropped"));
            // ...and the outer capture policy is restored afterwards.
            emit_phase("AfterRestore");
        });
        assert_eq!(silent.len(), 1);
        assert!(silent.to_jsonl().contains("AfterRestore"));

        // The restore also survives a panicking body.
        let outer = MemorySink::new();
        with_thread_trace(ThreadTrace::Capture(outer.clone()), || {
            let caught = std::panic::catch_unwind(|| {
                with_thread_trace(ThreadTrace::Off, || panic!("job died"))
            });
            assert!(caught.is_err());
            emit_phase("StillCapturing");
        });
        assert_eq!(outer.len(), 1);
    }

    #[test]
    fn memory_sink_lines_since_reads_incrementally() {
        let mut sink = MemorySink::new();
        sink.event(&TraceEvent::Phase { label: "A" });
        sink.event(&TraceEvent::Phase { label: "B" });
        let first = sink.lines_since(0);
        assert_eq!(first.len(), 2);
        assert!(sink.lines_since(2).is_empty());
        sink.event(&TraceEvent::Phase { label: "C" });
        let tail = sink.lines_since(2);
        assert_eq!(tail.len(), 1);
        assert!(tail[0].contains("\"label\":\"C\""));
        assert!(sink.lines_since(99).is_empty());
    }
}
