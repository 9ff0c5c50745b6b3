//! Multi-process socket transport for the round engine.
//!
//! The in-process [`Simulator`](crate::Simulator) shards its automata
//! across *threads*; this module shards them across *OS processes*
//! exchanging wire-encoded frames over TCP or Unix-domain sockets. The
//! split of responsibilities keeps the distributed run byte-identical to
//! the in-process engine:
//!
//! - The **coordinator** ([`coordinate`]) drives the same round core as
//!   the in-process engine, with the socket fleet as its compute
//!   backend: the core owns everything global and order-sensitive — the
//!   round clock, the wake-driven schedule, the fault injector (whose
//!   RNG must advance in the sequential replay order), the trace sink,
//!   and the [`RunReport`] accounting — while the coordinator only ships
//!   work orders out and merges replies back. It never decodes a
//!   message: payloads move through it as opaque `(words, bits)` frames.
//! - Each **worker** ([`run_worker`]) owns a contiguous shard of the
//!   automata and is the only place protocol code runs. Workers decode
//!   their inbound frames and encode their outbound ones, so the wire
//!   genuinely crosses the process boundary: what a node observes is
//!   what was on the socket, with a canonical re-encode check on every
//!   received frame and every staged send (a mismatch aborts the run
//!   with [`SimError::WireMismatch`], reported through a typed `Abort`
//!   frame).
//!
//! Because the coordinator feeds sends to the core's merge in the same
//! ascending `(sender, port)` order as the engine — including the fault
//! injector's [`transmit`](crate::FaultInjector::transmit) calls — a
//! distributed run produces the same [`RunReport`] and the same JSONL
//! trace, byte for byte, as `Simulator::run` on one process.
//! `tests/transport_parity.rs` pins this, with and without transient
//! faults.
//!
//! Crash-stop faults are deliberately unsupported here: in a
//! multi-process run a "crashed node" is modelled by killing its worker
//! process, which surfaces as [`SimError::PeerLost`] when the heartbeat
//! deadline passes. Transient faults (drops, duplication, link
//! down-intervals) are fully supported — they live coordinator-side.
//!
//! The one liveness setting is the coordinator's [`CoordOpts::timeout`]
//! (`kdom-shard --timeout-ms`): it bounds the handshake and every reply,
//! and the `Welcome` frame hands it to the workers, which heartbeat at a
//! quarter of it. A worker retries its first connect for a fixed 5 s.
//!
//! Framing is length-prefixed: a 16-byte header (magic, word count, bit
//! length) followed by little-endian `u64` words. [`frame_to_bytes`] and
//! [`read_frame`] are pure and exercised directly by the corruption
//! tests in `tests/wire_roundtrip.rs`.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kdom_graph::graph::{Graph, NodeId};

use crate::engine::{execute_node_round, EngineConfig};
use crate::faults::{FaultInjector, FaultPlan};
use crate::report::RunReport;
use crate::round::{fixed_memory, staged_bytes, NodeOutcome, RoundBackend, RoundCore};
use crate::sim::{Port, Protocol, SimError};
use crate::trace::TraceSink;
use crate::wire::{decode_from, encode_to, BitReader, BitWriter, CodecScratch, Wire, WireError};

/// Protocol version carried in the handshake; bumped on any change to
/// the control frame layout. A mismatch aborts with
/// [`SimError::PeerLost`] instead of silently misparsing frames.
pub const TRANSPORT_VERSION: u32 = 2;

/// Magic word opening every byte frame (`"KDOM"` little-endian-ish).
pub const FRAME_MAGIC: u32 = 0x4B44_4F4D;

/// Upper bound on the word count of a single frame (128 MiB of payload).
/// A header advertising more is rejected as corrupt before any
/// allocation happens — lengths read off a socket are never trusted.
pub const MAX_FRAME_WORDS: u32 = 1 << 24;

/// How long a worker retries connecting to its coordinator: the fleet
/// may launch before the coordinator listens. Once connected, the
/// worker's heartbeat follows the coordinator's [`CoordOpts::timeout`].
const CONNECT_DEADLINE: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------------
// Byte framing
// ---------------------------------------------------------------------------

/// Serializes a wire frame into `out` (cleared first): a 16-byte header
/// `[FRAME_MAGIC: u32][word count: u32][bit length: u64]`, all
/// little-endian, followed by the words. The inverse of [`read_frame`].
///
/// # Panics
///
/// If `words.len()` exceeds [`MAX_FRAME_WORDS`] or does not match
/// `bits.div_ceil(64)` — both indicate a caller bug, not wire input.
pub fn frame_to_bytes(words: &[u64], bits: u64, out: &mut Vec<u8>) {
    assert!(
        words.len() as u64 == bits.div_ceil(64),
        "frame word count {} does not match {} bits",
        words.len(),
        bits
    );
    assert!(words.len() <= MAX_FRAME_WORDS as usize, "frame too large");
    out.clear();
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&(words.len() as u32).to_le_bytes());
    out.extend_from_slice(&bits.to_le_bytes());
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Reads one length-prefixed frame from `r` into `words` (cleared
/// first), returning the bit length. Every header field is validated
/// before the payload is read: a bad magic, an oversized word count, or
/// a word count disagreeing with the bit length all fail with
/// [`io::ErrorKind::InvalidData`] *before* any allocation sized by the
/// untrusted length. Truncation mid-frame is
/// [`io::ErrorKind::UnexpectedEof`].
///
/// # Errors
///
/// Any I/O error from `r`, plus the corruption cases above.
pub fn read_frame(r: &mut impl Read, words: &mut Vec<u64>) -> io::Result<u64> {
    let mut header = [0u8; 16];
    r.read_exact(&mut header)?;
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let nwords = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let bits = u64::from_le_bytes(header[8..16].try_into().unwrap());
    if magic != FRAME_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame magic {magic:#010x}"),
        ));
    }
    if nwords > MAX_FRAME_WORDS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {nwords} words exceeds the {MAX_FRAME_WORDS}-word cap"),
        ));
    }
    if u64::from(nwords) != bits.div_ceil(64) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame header claims {nwords} words for {bits} bits"),
        ));
    }
    words.clear();
    // chunked reads: the payload length and the buffer size are both
    // multiples of 8, so every chunk splits into whole words
    let mut buf = [0u8; 4096];
    let mut remaining = nwords as usize * 8;
    while remaining > 0 {
        let take = remaining.min(buf.len());
        r.read_exact(&mut buf[..take])?;
        remaining -= take;
        for w in buf[..take].chunks_exact(8) {
            words.push(u64::from_le_bytes(w.try_into().unwrap()));
        }
    }
    Ok(bits)
}

// ---------------------------------------------------------------------------
// Endpoints and connections
// ---------------------------------------------------------------------------

/// A socket address the transport can listen on or connect to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP host:port pair, e.g. `127.0.0.1:7000`.
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

impl std::str::FromStr for Endpoint {
    type Err = String;

    /// Parses `tcp:HOST:PORT`, a bare `HOST:PORT`, or `unix:/PATH`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(rest) = s.strip_prefix("unix:") {
            #[cfg(unix)]
            return Ok(Endpoint::Unix(rest.into()));
            #[cfg(not(unix))]
            return Err(format!("unix sockets unsupported here: {rest}"));
        }
        let rest = s.strip_prefix("tcp:").unwrap_or(s);
        if rest.contains(':') {
            Ok(Endpoint::Tcp(rest.to_string()))
        } else {
            Err(format!(
                "endpoint {s:?} is neither tcp:host:port, host:port, nor unix:/path"
            ))
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
            #[cfg(unix)]
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

impl Endpoint {
    /// Opens a client connection to this endpoint. A TCP stream comes
    /// back with `TCP_NODELAY` set (see [`Conn`]).
    ///
    /// # Errors
    ///
    /// Any socket-level connect failure.
    pub fn connect(&self) -> io::Result<Conn> {
        match self {
            Endpoint::Tcp(a) => TcpStream::connect(a.as_str()).and_then(Conn::tcp),
            #[cfg(unix)]
            Endpoint::Unix(p) => std::os::unix::net::UnixStream::connect(p).map(Conn::Unix),
        }
    }
}

/// A listening socket owned by the coordinator.
pub enum CoordListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

impl CoordListener {
    /// Binds a listener on `ep`. A TCP port of `0` binds an ephemeral
    /// port; read it back with [`CoordListener::local_endpoint`].
    ///
    /// # Errors
    ///
    /// Any socket-level bind failure.
    pub fn bind(ep: &Endpoint) -> io::Result<Self> {
        match ep {
            Endpoint::Tcp(a) => TcpListener::bind(a.as_str()).map(CoordListener::Tcp),
            #[cfg(unix)]
            Endpoint::Unix(p) => std::os::unix::net::UnixListener::bind(p).map(CoordListener::Unix),
        }
    }

    /// The endpoint this listener is actually bound to (resolves an
    /// ephemeral TCP port to its real number).
    ///
    /// # Errors
    ///
    /// If the socket address cannot be read back.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            CoordListener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            CoordListener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr.as_pathname().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "unnamed unix listener")
                })?;
                Ok(Endpoint::Unix(path.to_path_buf()))
            }
        }
    }

    /// Switches the listener between blocking and non-blocking accepts.
    /// Non-blocking mode lets a server poll [`CoordListener::accept`]
    /// alongside a shutdown flag instead of parking forever in the OS.
    ///
    /// # Errors
    ///
    /// If the OS rejects the option.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            CoordListener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            CoordListener::Unix(l) => l.set_nonblocking(nb),
        }
    }

    /// Accepts one incoming connection. In non-blocking mode an empty
    /// backlog is [`io::ErrorKind::WouldBlock`]. A TCP stream comes back
    /// with `TCP_NODELAY` set (see [`Conn`]).
    ///
    /// # Errors
    ///
    /// Any socket-level accept failure.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            CoordListener::Tcp(l) => l.accept().and_then(|(s, _)| Conn::tcp(s)),
            #[cfg(unix)]
            CoordListener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// One established stream between a worker and the coordinator.
///
/// Every TCP stream the transport hands out has `TCP_NODELAY` set. A
/// reply written as more than one frame (a `kdom-serve` `WAIT` answer is
/// a text frame and then a word frame) would otherwise hold its second
/// write under Nagle's algorithm until the peer's delayed ACK, about
/// 40 ms. Unix-domain sockets have no Nagle and need nothing.
pub enum Conn {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Conn {
    fn tcp(s: TcpStream) -> io::Result<Conn> {
        s.set_nodelay(true)?;
        Ok(Conn::Tcp(s))
    }

    /// Clones the underlying socket handle (reads and writes on the
    /// clone share the same stream) — how the worker's heartbeat thread
    /// gets a writer while the main thread keeps the reader.
    ///
    /// # Errors
    ///
    /// If the OS refuses to duplicate the handle.
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Sets (or clears, with `None`) the blocking-read deadline.
    ///
    /// # Errors
    ///
    /// If the OS rejects the option.
    pub fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(d),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------------

/// Contiguous node ranges for `shards` workers over `n` nodes: worker
/// `s` owns `bounds[s]..bounds[s + 1]`. Ranges cover `0..n` exactly and
/// differ in size by at most one node.
pub fn shard_bounds(n: usize, shards: usize) -> Vec<usize> {
    assert!(shards > 0, "at least one shard");
    (0..=shards).map(|s| s * n / shards).collect()
}

// ---------------------------------------------------------------------------
// Control protocol
// ---------------------------------------------------------------------------

/// A node's requested schedule for the next round, as shipped back by a
/// worker — the wire form of the round core's node outcome (crash-stop
/// is excluded: process death models crashes over the transport).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireOutcome {
    /// `is_done()` held after the round: unschedule until a message.
    Done,
    /// Step the node next round.
    Tick,
    /// The node acts only on messages.
    Sleep,
    /// Timer-armed for the given future round.
    Park(u64),
}

impl WireOutcome {
    /// The wire form of `node`'s schedule request after `round`.
    fn after<P: Protocol>(node: &P, round: u64) -> Self {
        match NodeOutcome::after(node, round) {
            NodeOutcome::Done => WireOutcome::Done,
            NodeOutcome::Tick => WireOutcome::Tick,
            NodeOutcome::Sleep => WireOutcome::Sleep,
            NodeOutcome::Park(r) => WireOutcome::Park(r),
            NodeOutcome::Crashed => unreachable!("a stepped node has not crashed"),
        }
    }
}

impl From<WireOutcome> for NodeOutcome {
    fn from(w: WireOutcome) -> Self {
        match w {
            WireOutcome::Done => NodeOutcome::Done,
            WireOutcome::Tick => NodeOutcome::Tick,
            WireOutcome::Sleep => NodeOutcome::Sleep,
            WireOutcome::Park(r) => NodeOutcome::Park(r),
        }
    }
}

/// One staged send leaving a worker: the sender-side port plus the
/// encoded frame. The coordinator treats the payload as opaque.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SendFrame {
    /// Sender-side port.
    pub port: u32,
    /// Encoded message length in bits.
    pub bits: u64,
    /// Encoded message words.
    pub words: Vec<u64>,
}

/// One queued message delivered to a node at the start of a round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Receiver-side port the message arrives on.
    pub port: u32,
    /// Copies queued on this slot (fault duplication refcounts here).
    pub copies: u32,
    /// The original sender, kept for error attribution.
    pub sender: u32,
    /// The sender-side port, kept for error attribution.
    pub sender_port: u32,
    /// Encoded message length in bits.
    pub bits: u64,
    /// Encoded message words.
    pub words: Vec<u64>,
}

/// One active node's work order for a round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StartEntry {
    /// The node to step.
    pub node: u32,
    /// Its queued messages, ascending by port.
    pub inbox: Vec<Delivery>,
}

/// One stepped node's results for a round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeResult {
    /// The node that ran.
    pub node: u32,
    /// Its schedule request.
    pub outcome: WireOutcome,
    /// Port of the first CONGEST violation (double send), if any.
    pub violation: Option<u32>,
    /// Its staged sends, ascending by port.
    pub sends: Vec<SendFrame>,
}

/// A control frame on a coordinator–worker stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ctl {
    /// Worker → coordinator, once, immediately after connecting.
    Hello {
        /// The worker's [`TRANSPORT_VERSION`].
        version: u32,
        /// Which shard this worker claims.
        shard: u32,
        /// How many shards the worker believes exist.
        shards: u32,
        /// The worker's [`Graph::fingerprint`] of its graph copy: a worker
        /// generated from different parameters (or a different generator
        /// seed) is rejected up front instead of desynchronizing mid-run,
        /// and the same value keys the result cache.
        graph_hash: u64,
        /// The engine fixed-memory constant for the worker's protocol
        /// type (workers must agree; the coordinator cannot compute it
        /// without knowing the protocol).
        fixed_mem: u64,
        /// Bytes per staged send for the protocol's message type.
        staged_bytes: u64,
        /// Initial `is_done()` per node of the worker's shard.
        done: Vec<bool>,
    },
    /// Coordinator → worker, completing the handshake.
    Welcome {
        /// Heartbeat/read deadline in milliseconds.
        timeout_ms: u64,
    },
    /// Coordinator → worker: step these nodes for `round`.
    Start {
        /// The round number.
        round: u64,
        /// Work orders, ascending by node; may be empty (the worker
        /// still replies, keeping every stream in lockstep).
        entries: Vec<StartEntry>,
    },
    /// Worker → coordinator: results for `round`.
    RoundDone {
        /// The round these results belong to.
        round: u64,
        /// Per-node results, ascending by node.
        results: Vec<NodeResult>,
    },
    /// Coordinator → worker: the run is over, send outputs.
    Finish,
    /// Worker → coordinator: harvested outputs, one row per node of the
    /// shard, ascending.
    Output {
        /// Harvest rows.
        rows: Vec<u64>,
    },
    /// Worker → coordinator: a frame failed its canonical round-trip —
    /// the run aborts with [`SimError::WireMismatch`].
    Abort {
        /// The node whose send failed.
        node: u32,
        /// The sender-side port.
        port: u32,
        /// The round of the failing send.
        round: u64,
        /// Human-readable failure detail.
        detail: String,
    },
    /// Worker → coordinator: liveness beacon between round replies.
    Heartbeat,
}

/// Variant count of [`Ctl`], for tag sizing.
const CTL_VARIANTS: u64 = 8;

fn push_words(w: &mut BitWriter, words: &[u64]) {
    w.u32(words.len() as u32);
    for &x in words {
        w.push(x, 64);
    }
}

fn pull_words(r: &mut BitReader<'_>) -> Result<Vec<u64>, WireError> {
    let len = r.u32()?;
    // push-grow: a lying length hits `Overrun` long before it can size
    // an allocation
    let mut v = Vec::new();
    for _ in 0..len {
        v.push(r.pull(64)?);
    }
    Ok(v)
}

fn push_str(w: &mut BitWriter, s: &str) {
    w.u32(s.len() as u32);
    for b in s.bytes() {
        w.push(u64::from(b), 8);
    }
}

fn pull_str(r: &mut BitReader<'_>) -> Result<String, WireError> {
    let len = r.u32()?;
    let mut bytes = Vec::new();
    for _ in 0..len {
        bytes.push(r.pull(8)? as u8);
    }
    String::from_utf8(bytes).map_err(|_| WireError::BadTag {
        context: "transport string utf-8",
        value: u64::from(len),
    })
}

impl Wire for SendFrame {
    fn encode(&self, w: &mut BitWriter) {
        w.u32(self.port);
        w.push(self.bits, 64);
        push_words(w, &self.words);
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        let port = r.u32()?;
        let bits = r.pull(64)?;
        let words = pull_words(r)?;
        if words.len() as u64 != bits.div_ceil(64) {
            return Err(WireError::BadLength {
                context: "send frame word count",
                bits,
            });
        }
        Ok(SendFrame { port, bits, words })
    }
}

impl Wire for Delivery {
    fn encode(&self, w: &mut BitWriter) {
        w.u32(self.port);
        w.u32(self.copies);
        w.u32(self.sender);
        w.u32(self.sender_port);
        w.push(self.bits, 64);
        push_words(w, &self.words);
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        let port = r.u32()?;
        let copies = r.u32()?;
        let sender = r.u32()?;
        let sender_port = r.u32()?;
        let bits = r.pull(64)?;
        let words = pull_words(r)?;
        if words.len() as u64 != bits.div_ceil(64) {
            return Err(WireError::BadLength {
                context: "delivery word count",
                bits,
            });
        }
        Ok(Delivery {
            port,
            copies,
            sender,
            sender_port,
            bits,
            words,
        })
    }
}

impl Wire for StartEntry {
    fn encode(&self, w: &mut BitWriter) {
        w.u32(self.node);
        w.u32(self.inbox.len() as u32);
        for d in &self.inbox {
            d.encode(w);
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        let node = r.u32()?;
        let len = r.u32()?;
        let mut inbox = Vec::new();
        for _ in 0..len {
            inbox.push(Delivery::decode(r)?);
        }
        Ok(StartEntry { node, inbox })
    }
}

impl Wire for NodeResult {
    fn encode(&self, w: &mut BitWriter) {
        w.u32(self.node);
        let idx = match self.outcome {
            WireOutcome::Done => 0,
            WireOutcome::Tick => 1,
            WireOutcome::Sleep => 2,
            WireOutcome::Park(_) => 3,
        };
        w.tag(idx, 4);
        if let WireOutcome::Park(at) = self.outcome {
            w.push(at, 64);
        }
        w.opt_u32(self.violation);
        w.u32(self.sends.len() as u32);
        for s in &self.sends {
            s.encode(w);
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        let node = r.u32()?;
        let outcome = match r.tag(4)? {
            0 => WireOutcome::Done,
            1 => WireOutcome::Tick,
            2 => WireOutcome::Sleep,
            _ => WireOutcome::Park(r.pull(64)?), // two tag bits, four variants
        };
        let violation = r.opt_u32()?;
        let len = r.u32()?;
        let mut sends = Vec::new();
        for _ in 0..len {
            sends.push(SendFrame::decode(r)?);
        }
        Ok(NodeResult {
            node,
            outcome,
            violation,
            sends,
        })
    }
}

impl Wire for Ctl {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            Ctl::Hello {
                version,
                shard,
                shards,
                graph_hash,
                fixed_mem,
                staged_bytes,
                done,
            } => {
                w.tag(0, CTL_VARIANTS);
                w.u32(*version);
                w.u32(*shard);
                w.u32(*shards);
                w.push(*graph_hash, 64);
                w.push(*fixed_mem, 64);
                w.push(*staged_bytes, 64);
                w.u32(done.len() as u32);
                for &d in done {
                    w.flag(d);
                }
            }
            Ctl::Welcome { timeout_ms } => {
                w.tag(1, CTL_VARIANTS);
                w.push(*timeout_ms, 64);
            }
            Ctl::Start { round, entries } => {
                w.tag(2, CTL_VARIANTS);
                w.push(*round, 64);
                w.u32(entries.len() as u32);
                for e in entries {
                    e.encode(w);
                }
            }
            Ctl::RoundDone { round, results } => {
                w.tag(3, CTL_VARIANTS);
                w.push(*round, 64);
                w.u32(results.len() as u32);
                for res in results {
                    res.encode(w);
                }
            }
            Ctl::Finish => w.tag(4, CTL_VARIANTS),
            Ctl::Output { rows } => {
                w.tag(5, CTL_VARIANTS);
                w.u32(rows.len() as u32);
                for &x in rows {
                    w.push(x, 64);
                }
            }
            Ctl::Abort {
                node,
                port,
                round,
                detail,
            } => {
                w.tag(6, CTL_VARIANTS);
                w.u32(*node);
                w.u32(*port);
                w.push(*round, 64);
                push_str(w, detail);
            }
            Ctl::Heartbeat => w.tag(7, CTL_VARIANTS),
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag(CTL_VARIANTS)? {
            0 => {
                let version = r.u32()?;
                let shard = r.u32()?;
                let shards = r.u32()?;
                let graph_hash = r.pull(64)?;
                let fixed_mem = r.pull(64)?;
                let staged_bytes = r.pull(64)?;
                let len = r.u32()?;
                let mut done = Vec::new();
                for _ in 0..len {
                    done.push(r.flag()?);
                }
                Ctl::Hello {
                    version,
                    shard,
                    shards,
                    graph_hash,
                    fixed_mem,
                    staged_bytes,
                    done,
                }
            }
            1 => Ctl::Welcome {
                timeout_ms: r.pull(64)?,
            },
            2 => {
                let round = r.pull(64)?;
                let len = r.u32()?;
                let mut entries = Vec::new();
                for _ in 0..len {
                    entries.push(StartEntry::decode(r)?);
                }
                Ctl::Start { round, entries }
            }
            3 => {
                let round = r.pull(64)?;
                let len = r.u32()?;
                let mut results = Vec::new();
                for _ in 0..len {
                    results.push(NodeResult::decode(r)?);
                }
                Ctl::RoundDone { round, results }
            }
            4 => Ctl::Finish,
            5 => {
                let len = r.u32()?;
                let mut rows = Vec::new();
                for _ in 0..len {
                    rows.push(r.pull(64)?);
                }
                Ctl::Output { rows }
            }
            6 => Ctl::Abort {
                node: r.u32()?,
                port: r.u32()?,
                round: r.pull(64)?,
                detail: pull_str(r)?,
            },
            7 => Ctl::Heartbeat,
            value => {
                return Err(WireError::BadTag {
                    context: "ctl frame",
                    value,
                })
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Frame I/O over a connection
// ---------------------------------------------------------------------------

/// Reusable buffers for control-frame serialization.
#[derive(Default)]
struct FrameBufs {
    words: Vec<u64>,
    bytes: Vec<u8>,
}

impl FrameBufs {
    fn serialize(&mut self, msg: &Ctl) -> &[u8] {
        let bits = encode_to(msg, &mut self.words);
        frame_to_bytes(&self.words, bits, &mut self.bytes);
        &self.bytes
    }

    fn send(&mut self, conn: &mut Conn, msg: &Ctl) -> io::Result<()> {
        self.serialize(msg);
        conn.write_all(&self.bytes)?;
        conn.flush()
    }

    fn recv(&mut self, conn: &mut Conn) -> io::Result<Ctl> {
        let bits = read_frame(conn, &mut self.words)?;
        decode_from::<Ctl>(&self.words, bits)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad ctl frame: {e}")))
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Options for [`run_worker`].
#[derive(Clone, Debug)]
pub struct WorkerOpts {
    /// Where the coordinator is listening.
    pub connect: Endpoint,
    /// This worker's shard index in `0..shards`.
    pub shard: usize,
    /// Total worker count.
    pub shards: usize,
    /// Test hook: exit the process (code 3) upon receiving a `Start`
    /// for a round `>=` this value — models a mid-run worker crash for
    /// the `PeerLost` path.
    pub die_at_round: Option<u64>,
}

fn lost_coord(round: u64, what: &str, e: &io::Error) -> SimError {
    SimError::PeerLost {
        peer: u32::MAX,
        round,
        detail: format!("{what}: {e}"),
    }
}

/// Runs one worker process: connects to the coordinator, claims shard
/// `opts.shard` of the node range, and executes protocol rounds on
/// demand until the coordinator sends `Finish`.
///
/// `make(v, id)` constructs the automaton for global node index `v`
/// (application id `id`); `harvest` extracts one output row per node
/// once the run completes. Every process in a distributed run must
/// construct its graph and automata identically — the handshake's graph
/// fingerprint catches topology drift, but automaton construction is
/// trusted.
///
/// Inbound frames are decoded and re-encoded canonically before an
/// automaton sees them; outbound frames round-trip the same way at
/// staging. Either check failing sends a typed `Abort` upstream and
/// returns [`SimError::WireMismatch`] — nothing is silently passed
/// through.
///
/// # Errors
///
/// [`SimError::PeerLost`] when the coordinator's stream drops or the
/// handshake disagrees; [`SimError::WireMismatch`] on a non-canonical
/// frame.
pub fn run_worker<P: Protocol>(
    graph: &Graph,
    mut make: impl FnMut(usize, u64) -> P,
    harvest: impl Fn(&P) -> u64,
    opts: &WorkerOpts,
) -> Result<(), SimError> {
    assert!(
        opts.shard < opts.shards,
        "shard {} out of range for {} shards",
        opts.shard,
        opts.shards
    );
    let n = graph.node_count();
    let bounds = shard_bounds(n, opts.shards);
    let (lo, hi) = (bounds[opts.shard], bounds[opts.shard + 1]);
    let ids: Vec<u64> = (0..n).map(|v| graph.id_of(NodeId(v))).collect();
    let mut nodes: Vec<P> = (lo..hi).map(|v| make(v, ids[v])).collect();

    // Connect with retry: the coordinator may not be listening yet when
    // the process fleet launches.
    let deadline = Instant::now() + CONNECT_DEADLINE;
    let mut conn = loop {
        match opts.connect.connect() {
            Ok(c) => break c,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(lost_coord(0, "connect", &e));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };

    let mut bufs = FrameBufs::default();
    bufs.send(
        &mut conn,
        &Ctl::Hello {
            version: TRANSPORT_VERSION,
            shard: opts.shard as u32,
            shards: opts.shards as u32,
            graph_hash: graph.fingerprint(),
            fixed_mem: fixed_memory::<P>(graph),
            staged_bytes: staged_bytes::<P>(),
            done: nodes.iter().map(Protocol::is_done).collect(),
        },
    )
    .map_err(|e| lost_coord(0, "handshake send", &e))?;
    // Reads stay blocking on the worker side: a sibling shard may
    // legitimately compute for a long time while this worker waits for
    // its next Start. Liveness toward the coordinator is the heartbeat
    // thread's job; a dead coordinator surfaces here as EOF.
    let timeout_ms = match bufs.recv(&mut conn) {
        Ok(Ctl::Welcome { timeout_ms }) => timeout_ms,
        Ok(other) => {
            return Err(SimError::PeerLost {
                peer: u32::MAX,
                round: 0,
                detail: format!("expected Welcome, got {other:?}"),
            })
        }
        Err(e) => return Err(lost_coord(0, "handshake recv", &e)),
    };

    // Heartbeat thread: a pre-serialized beacon every quarter-deadline,
    // sharing the write half with the main thread's round replies.
    let writer = Arc::new(Mutex::new(
        conn.try_clone()
            .map_err(|e| lost_coord(0, "clone stream", &e))?,
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let hb = {
        let writer = Arc::clone(&writer);
        let stop = Arc::clone(&stop);
        let beat = {
            let mut b = FrameBufs::default();
            b.serialize(&Ctl::Heartbeat).to_vec()
        };
        let interval = Duration::from_millis((timeout_ms / 4).max(1));
        std::thread::spawn(move || {
            let mut last = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(25));
                if last.elapsed() >= interval {
                    let mut w = writer.lock().expect("heartbeat writer");
                    if w.write_all(&beat).and_then(|()| w.flush()).is_err() {
                        return; // coordinator gone; main thread will see EOF
                    }
                    last = Instant::now();
                }
            }
        })
    };

    let result = worker_loop(
        graph,
        &ids,
        lo,
        &mut nodes,
        &harvest,
        opts.die_at_round,
        &mut conn,
        &writer,
    );
    stop.store(true, Ordering::Relaxed);
    let _ = hb.join();
    result
}

/// Sends a control frame through the mutex-shared write half.
fn send_shared(writer: &Mutex<Conn>, bufs: &mut FrameBufs, msg: &Ctl) -> io::Result<()> {
    bufs.serialize(msg);
    let mut w = writer.lock().expect("shared writer");
    w.write_all(&bufs.bytes)?;
    w.flush()
}

/// Reports a non-canonical frame upstream as a typed `Abort` and returns
/// the matching error; the tuple names the send `(sender, port, round)`.
fn abort(
    writer: &Mutex<Conn>,
    bufs: &mut FrameBufs,
    (node, port, round): (u32, u32, u64),
    detail: String,
) -> SimError {
    let msg = Ctl::Abort {
        node,
        port,
        round,
        detail: detail.clone(),
    };
    let _ = send_shared(writer, bufs, &msg);
    SimError::WireMismatch {
        node: NodeId(node as usize),
        port: Port(port as usize),
        round,
        detail,
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop<P: Protocol>(
    graph: &Graph,
    ids: &[u64],
    lo: usize,
    nodes: &mut [P],
    harvest: &impl Fn(&P) -> u64,
    die_at_round: Option<u64>,
    conn: &mut Conn,
    writer: &Mutex<Conn>,
) -> Result<(), SimError> {
    let mut bufs = FrameBufs::default();
    let mut out_bufs = FrameBufs::default();
    let mut inbox: Vec<(Port, P::Msg)> = Vec::new();
    let mut outbox: Vec<Option<P::Msg>> = Vec::new();
    let mut enc_scratch: Vec<u64> = Vec::new();
    let mut codec = CodecScratch::new();
    let mut last_round = 0u64;
    loop {
        let msg = match bufs.recv(conn) {
            Ok(m) => m,
            Err(e) => return Err(lost_coord(last_round, "read", &e)),
        };
        match msg {
            Ctl::Start { round, entries } => {
                last_round = round;
                if die_at_round.is_some_and(|r| round >= r) {
                    // test hook: model a worker crash mid-run
                    std::process::exit(3);
                }
                let mut results = Vec::with_capacity(entries.len());
                for entry in entries {
                    let v = entry.node as usize;
                    inbox.clear();
                    for d in &entry.inbox {
                        // Decode exactly what was on the socket; the
                        // canonical re-encode proves the sender and this
                        // receiver agree on the message layout.
                        let send = (d.sender, d.sender_port, round.saturating_sub(1));
                        let msg = codec
                            .check_words::<P::Msg>(&d.words, d.bits)
                            .map_err(|detail| abort(writer, &mut out_bufs, send, detail))?;
                        for _ in 1..d.copies {
                            inbox.push((Port(d.port as usize), msg.clone()));
                        }
                        inbox.push((Port(d.port as usize), msg));
                    }
                    let violation = execute_node_round(
                        graph,
                        ids,
                        v,
                        round,
                        &mut nodes[v - lo],
                        &inbox,
                        &mut outbox,
                    );
                    let mut sends = Vec::new();
                    for (p, slot) in outbox.iter_mut().enumerate() {
                        let Some(msg) = slot.take() else { continue };
                        let bits = encode_to(&msg, &mut enc_scratch);
                        // the engine's staging round trip, across the
                        // process boundary
                        let send = (entry.node, p as u32, round);
                        codec
                            .check_words::<P::Msg>(&enc_scratch, bits)
                            .map_err(|detail| abort(writer, &mut out_bufs, send, detail))?;
                        sends.push(SendFrame {
                            port: p as u32,
                            bits,
                            words: enc_scratch.clone(),
                        });
                    }
                    results.push(NodeResult {
                        node: entry.node,
                        outcome: WireOutcome::after(&nodes[v - lo], round),
                        violation: violation.map(|p| p.0 as u32),
                        sends,
                    });
                }
                send_shared(writer, &mut out_bufs, &Ctl::RoundDone { round, results })
                    .map_err(|e| lost_coord(round, "round reply", &e))?;
            }
            Ctl::Finish => {
                let rows: Vec<u64> = nodes.iter().map(harvest).collect();
                send_shared(writer, &mut out_bufs, &Ctl::Output { rows })
                    .map_err(|e| lost_coord(last_round, "output reply", &e))?;
                return Ok(());
            }
            other => {
                return Err(SimError::PeerLost {
                    peer: u32::MAX,
                    round: last_round,
                    detail: format!("unexpected frame from coordinator: {other:?}"),
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Options for [`coordinate`].
#[derive(Clone, Debug)]
pub struct CoordOpts {
    /// Worker process count (each owns one contiguous node shard).
    pub shards: usize,
    /// Transient-fault plan (drops, duplication, link down-intervals).
    /// Crash-stop schedules are rejected: kill a worker process to
    /// model a crash, and observe [`SimError::PeerLost`].
    pub plan: Option<FaultPlan>,
    /// Round watchdog, as in [`Simulator::run`](crate::Simulator::run).
    pub max_rounds: u64,
    /// Handshake and per-reply read deadline; workers heartbeat at a
    /// quarter of this period.
    pub timeout: Duration,
}

/// What a distributed run produces: the engine-identical report plus
/// one harvested output row per node, ascending by node index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistOutcome {
    /// The run's accounting, byte-identical to the in-process engine.
    pub report: RunReport,
    /// Worker-harvested rows, concatenated in shard (= node) order.
    pub outputs: Vec<u64>,
}

/// An opaque frame queued in the round core's arena on the
/// coordinator: the encoded message, with its sender kept for error
/// attribution.
struct Frame {
    words: Vec<u64>,
    bits: u64,
    sender: u32,
    sender_port: u32,
}

struct WorkerLink {
    conn: Conn,
    bufs: FrameBufs,
}

impl WorkerLink {
    /// Receives the next non-heartbeat frame, under the read deadline.
    fn recv_real(&mut self, shard: usize, round: u64) -> Result<Ctl, SimError> {
        loop {
            match self.bufs.recv(&mut self.conn) {
                Ok(Ctl::Heartbeat) => continue,
                Ok(m) => return Ok(m),
                Err(e) => {
                    let what = match e.kind() {
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                            "silent past the heartbeat deadline"
                        }
                        io::ErrorKind::UnexpectedEof => "stream closed",
                        _ => "stream error",
                    };
                    return Err(SimError::PeerLost {
                        peer: shard as u32,
                        round,
                        detail: format!("{what}: {e}"),
                    });
                }
            }
        }
    }

    fn send(&mut self, msg: &Ctl, shard: usize, round: u64) -> Result<(), SimError> {
        self.bufs
            .send(&mut self.conn, msg)
            .map_err(|e| SimError::PeerLost {
                peer: shard as u32,
                round,
                detail: format!("write failed: {e}"),
            })
    }
}

/// The worker fleet as the round core's compute backend: each round it
/// ships every worker its shard of the active nodes, with their queued
/// frames, and merges the replies back into the core.
struct Fleet {
    links: Vec<WorkerLink>,
    bounds: Vec<usize>,
    /// Per-round scratch: the sends to merge, in ascending
    /// `(sender, port)` order.
    sends: Vec<Frame>,
    /// Per-round scratch: `(node, outcome)` in ascending node order.
    outcomes: Vec<(u32, NodeOutcome)>,
}

impl RoundBackend<Frame> for Fleet {
    fn execute(&mut self, core: &mut RoundCore<'_, Frame>) -> Result<(), SimError> {
        let round = core.round;
        for (s, link) in self.links.iter_mut().enumerate() {
            let (lo, hi) = (self.bounds[s] as u32, self.bounds[s + 1] as u32);
            let from = core.active.partition_point(|&v| v < lo);
            let to = core.active.partition_point(|&v| v < hi);
            let mut entries = Vec::with_capacity(to - from);
            for &v in &core.active[from..to] {
                let slots = core.offsets[v as usize]..core.offsets[v as usize + 1];
                let mut inbox = Vec::new();
                for (p, slot) in core.inbox[slots].iter_mut().enumerate() {
                    if let Some((f, copies)) = slot.take() {
                        inbox.push(Delivery {
                            port: p as u32,
                            copies,
                            sender: f.sender,
                            sender_port: f.sender_port,
                            bits: f.bits,
                            words: f.words,
                        });
                    }
                }
                entries.push(StartEntry { node: v, inbox });
            }
            link.send(&Ctl::Start { round, entries }, s, round)?;
        }
        // Replies arrive in shard order, each ascending by node, so the
        // first violation seen is the lowest: it cuts the round there,
        // and neither its node's sends nor any later node's happen.
        let mut staged = 0u64;
        let mut cut = None;
        for (s, link) in self.links.iter_mut().enumerate() {
            match link.recv_real(s, round)? {
                Ctl::RoundDone { round: r, results } => {
                    if r != round {
                        return Err(SimError::PeerLost {
                            peer: s as u32,
                            round,
                            detail: format!("round skew: replied for {r}, expected {round}"),
                        });
                    }
                    for res in results {
                        staged += res.sends.len() as u64;
                        if cut.is_none() {
                            cut = res.violation.map(|p| (res.node, Port(p as usize)));
                        }
                        if cut.is_none() {
                            self.sends.extend(res.sends.into_iter().map(|send| Frame {
                                words: send.words,
                                bits: send.bits,
                                sender: res.node,
                                sender_port: send.port,
                            }));
                        }
                        self.outcomes.push((res.node, res.outcome.into()));
                    }
                }
                Ctl::Abort {
                    node,
                    port,
                    round: r,
                    detail,
                } => {
                    return Err(SimError::WireMismatch {
                        node: NodeId(node as usize),
                        port: Port(port as usize),
                        round: r,
                        detail,
                    })
                }
                other => {
                    return Err(SimError::PeerLost {
                        peer: s as u32,
                        round,
                        detail: format!("unexpected reply: {other:?}"),
                    })
                }
            }
        }
        core.open_merge(staged, 0);
        for frame in self.sends.drain(..) {
            let (sender, port, bits) = (frame.sender, frame.sender_port as usize, frame.bits);
            core.deliver(sender, port, bits, frame);
        }
        core.close_merge(cut)?;
        core.apply_schedule(self.outcomes.drain(..));
        Ok(())
    }
}

/// Runs the coordinator side of a distributed execution: accepts
/// `opts.shards` worker connections on `listener`, validates the
/// handshake (version, graph fingerprint, shard layout, memory-model
/// consensus), then drives the round core with the worker fleet as its
/// backend until quiescence. The returned report — and the stream
/// written to `trace`, if any — is byte-identical to
/// `Simulator::with_config(.., EngineConfig::default()).run(max_rounds)`
/// (or `Simulator::with_faults` under `opts.plan`) on a single process:
/// the engine's schedule settings change wall time, never a report, and
/// the fleet's parallelism is its processes.
///
/// # Errors
///
/// [`SimError::PeerLost`] when a worker never connects, disagrees in
/// the handshake, goes silent past the deadline, or closes its stream;
/// otherwise exactly the errors the in-process engine produces
/// ([`SimError::RoundLimitExceeded`], [`SimError::CongestViolation`],
/// [`SimError::WireMismatch`]).
///
/// # Panics
///
/// If `opts.plan` schedules crash-stop faults (kill a worker process
/// instead), or `opts.shards` is zero or exceeds the node count.
pub fn coordinate(
    listener: CoordListener,
    graph: &Graph,
    opts: &CoordOpts,
    trace: Option<Box<dyn TraceSink>>,
) -> Result<DistOutcome, SimError> {
    let n = graph.node_count();
    assert!(
        opts.shards > 0 && opts.shards <= n.max(1),
        "shard count {} out of range for {n} nodes",
        opts.shards
    );
    let injector = opts.plan.as_ref().map(FaultInjector::new);
    if let Some(inj) = &injector {
        assert!(
            inj.crash_schedule().is_empty(),
            "crash-stop faults are not supported over the socket transport: \
             kill a worker process to model a crash (observed as PeerLost)"
        );
    }

    // Accept and identify the fleet.
    let mut links = accept_workers(&listener, graph, opts)?;
    let hello = |l: &HelloLink| (l.fixed_mem, l.staged_bytes);
    let (fixed_mem, staged_bytes) = hello(&links[0]);
    for (s, l) in links.iter().enumerate().skip(1) {
        if hello(l) != (fixed_mem, staged_bytes) {
            return Err(SimError::PeerLost {
                peer: s as u32,
                round: 0,
                detail: format!(
                    "memory-model disagreement: shard {s} reports ({}, {}), shard 0 ({}, {})",
                    l.fixed_mem, l.staged_bytes, fixed_mem, staged_bytes
                ),
            });
        }
    }
    let bounds = shard_bounds(n, opts.shards);
    let mut done = vec![false; n];
    for (s, l) in links.iter().enumerate() {
        let want = bounds[s + 1] - bounds[s];
        if l.done.len() != want {
            return Err(SimError::PeerLost {
                peer: s as u32,
                round: 0,
                detail: format!("shard {s} reported {} nodes, expected {want}", l.done.len()),
            });
        }
        done[bounds[s]..bounds[s + 1]].copy_from_slice(&l.done);
    }

    // Complete the handshake.
    let welcome = Ctl::Welcome {
        timeout_ms: opts.timeout.as_millis() as u64,
    };
    let mut wlinks = Vec::with_capacity(links.len());
    for (s, mut l) in links.drain(..).enumerate() {
        l.link
            .conn
            .set_read_timeout(Some(opts.timeout))
            .map_err(|e| SimError::PeerLost {
                peer: s as u32,
                round: 0,
                detail: format!("set timeout: {e}"),
            })?;
        l.link.send(&welcome, s, 0)?;
        wlinks.push(l.link);
    }

    let config = EngineConfig::default();
    let mut core = RoundCore::new(graph, config, done, injector, fixed_mem, staged_bytes);
    core.attach_trace(trace);
    let mut fleet = Fleet {
        links: wlinks,
        bounds,
        sends: Vec::new(),
        outcomes: Vec::new(),
    };
    core.run(&mut fleet, opts.max_rounds)?;

    // Harvest.
    let mut outputs = Vec::with_capacity(n);
    let round = core.round;
    for (s, link) in fleet.links.iter_mut().enumerate() {
        link.send(&Ctl::Finish, s, round)?;
    }
    for (s, link) in fleet.links.iter_mut().enumerate() {
        match link.recv_real(s, round)? {
            Ctl::Output { rows } => {
                let want = fleet.bounds[s + 1] - fleet.bounds[s];
                if rows.len() != want {
                    return Err(SimError::PeerLost {
                        peer: s as u32,
                        round,
                        detail: format!("shard {s} harvested {} rows, expected {want}", rows.len()),
                    });
                }
                outputs.extend_from_slice(&rows);
            }
            other => {
                return Err(SimError::PeerLost {
                    peer: s as u32,
                    round,
                    detail: format!("expected Output, got {other:?}"),
                })
            }
        }
    }
    Ok(DistOutcome {
        report: core.into_report(),
        outputs,
    })
}

/// A worker link paired with its validated handshake data.
struct HelloLink {
    link: WorkerLink,
    fixed_mem: u64,
    staged_bytes: u64,
    done: Vec<bool>,
}

/// Accepts `opts.shards` connections, reads and validates each Hello,
/// and returns the links ordered by shard index.
fn accept_workers(
    listener: &CoordListener,
    graph: &Graph,
    opts: &CoordOpts,
) -> Result<Vec<HelloLink>, SimError> {
    let deadline = Instant::now() + opts.timeout;
    listener
        .set_nonblocking(true)
        .map_err(|e| SimError::PeerLost {
            peer: 0,
            round: 0,
            detail: format!("listener setup: {e}"),
        })?;
    let mut slots: Vec<Option<HelloLink>> = (0..opts.shards).map(|_| None).collect();
    let mut filled = 0usize;
    let expect_hash = graph.fingerprint();
    while filled < opts.shards {
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    let missing = slots.iter().position(Option::is_none).unwrap_or(0);
                    return Err(SimError::PeerLost {
                        peer: missing as u32,
                        round: 0,
                        detail: format!(
                            "only {filled} of {} workers connected before the deadline",
                            opts.shards
                        ),
                    });
                }
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            Err(e) => {
                return Err(SimError::PeerLost {
                    peer: 0,
                    round: 0,
                    detail: format!("accept: {e}"),
                })
            }
        };
        conn.set_read_timeout(Some(opts.timeout))
            .map_err(|e| SimError::PeerLost {
                peer: 0,
                round: 0,
                detail: format!("set timeout: {e}"),
            })?;
        let mut link = WorkerLink {
            conn,
            bufs: FrameBufs::default(),
        };
        let hello = link.recv_real(0, 0)?;
        let Ctl::Hello {
            version,
            shard,
            shards,
            graph_hash,
            fixed_mem,
            staged_bytes,
            done,
        } = hello
        else {
            return Err(SimError::PeerLost {
                peer: 0,
                round: 0,
                detail: format!("expected Hello, got {hello:?}"),
            });
        };
        let reject = |detail: String| SimError::PeerLost {
            peer: shard,
            round: 0,
            detail,
        };
        if version != TRANSPORT_VERSION {
            return Err(reject(format!(
                "transport version mismatch: worker speaks v{version}, coordinator v{TRANSPORT_VERSION}"
            )));
        }
        if shards as usize != opts.shards {
            return Err(reject(format!(
                "shard-count mismatch: worker expects {shards} shards, coordinator {}",
                opts.shards
            )));
        }
        if shard as usize >= opts.shards {
            return Err(reject(format!("shard index {shard} out of range")));
        }
        if graph_hash != expect_hash {
            return Err(reject(format!(
                "graph fingerprint mismatch: worker {graph_hash:#018x}, coordinator {expect_hash:#018x}"
            )));
        }
        let slot = &mut slots[shard as usize];
        if slot.is_some() {
            return Err(reject(format!("duplicate connection for shard {shard}")));
        }
        *slot = Some(HelloLink {
            link,
            fixed_mem,
            staged_bytes,
            done,
        });
        filled += 1;
    }
    listener.set_nonblocking(false).ok();
    Ok(slots.into_iter().map(|s| s.expect("filled")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(msg: &Ctl) -> Ctl {
        let mut words = Vec::new();
        let bits = encode_to(msg, &mut words);
        let mut bytes = Vec::new();
        frame_to_bytes(&words, bits, &mut bytes);
        let mut back = Vec::new();
        let got_bits = read_frame(&mut Cursor::new(&bytes), &mut back).expect("read back");
        assert_eq!(got_bits, bits);
        assert_eq!(back, words);
        decode_from(&back, got_bits).expect("decode back")
    }

    fn sample_frames() -> Vec<Ctl> {
        vec![
            Ctl::Hello {
                version: TRANSPORT_VERSION,
                shard: 2,
                shards: 4,
                graph_hash: 0xdead_beef_cafe_f00d,
                fixed_mem: 123_456,
                staged_bytes: 24,
                done: vec![true, false, true],
            },
            Ctl::Welcome { timeout_ms: 5000 },
            Ctl::Start {
                round: 7,
                entries: vec![
                    StartEntry {
                        node: 3,
                        inbox: vec![Delivery {
                            port: 1,
                            copies: 2,
                            sender: 9,
                            sender_port: 0,
                            bits: 65,
                            words: vec![u64::MAX, 1],
                        }],
                    },
                    StartEntry {
                        node: 4,
                        inbox: vec![],
                    },
                ],
            },
            Ctl::RoundDone {
                round: 7,
                results: vec![NodeResult {
                    node: 3,
                    outcome: WireOutcome::Park(19),
                    violation: Some(2),
                    sends: vec![SendFrame {
                        port: 0,
                        bits: 3,
                        words: vec![5],
                    }],
                }],
            },
            Ctl::Finish,
            Ctl::Output {
                rows: vec![0, u64::MAX, 42],
            },
            Ctl::Abort {
                node: 1,
                port: 2,
                round: 3,
                detail: "re-encode differs: 7 bits vs 9".into(),
            },
            Ctl::Heartbeat,
        ]
    }

    #[test]
    fn every_ctl_variant_survives_the_byte_frame() {
        for msg in sample_frames() {
            assert_eq!(roundtrip(&msg), msg);
        }
    }

    #[test]
    fn node_outcomes_roundtrip() {
        for outcome in [
            WireOutcome::Done,
            WireOutcome::Tick,
            WireOutcome::Sleep,
            WireOutcome::Park(u64::MAX),
        ] {
            let res = NodeResult {
                node: 0,
                outcome,
                violation: None,
                sends: vec![],
            };
            let frame = res.to_frame();
            assert_eq!(NodeResult::from_frame(&frame).expect("roundtrip"), res);
        }
    }

    #[test]
    fn bad_magic_is_invalid_data_not_a_panic() {
        let mut bytes = Vec::new();
        frame_to_bytes(&[1, 2], 128, &mut bytes);
        bytes[0] ^= 0xFF;
        let mut words = Vec::new();
        let err = read_frame(&mut Cursor::new(&bytes), &mut words).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let mut bytes = Vec::new();
        frame_to_bytes(&[1, 2, 3], 192, &mut bytes);
        for cut in [1, 8, 15, 16, 17, bytes.len() - 1] {
            let mut words = Vec::new();
            let err = read_frame(&mut Cursor::new(&bytes[..cut]), &mut words).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn word_count_bit_length_disagreement_is_rejected() {
        let mut bytes = Vec::new();
        frame_to_bytes(&[7], 64, &mut bytes);
        // claim 2 words in the header while the bit length says 1
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        let mut words = Vec::new();
        let err = read_frame(&mut Cursor::new(&bytes), &mut words).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_word_count_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&(MAX_FRAME_WORDS + 1).to_le_bytes());
        bytes.extend_from_slice(&(u64::from(MAX_FRAME_WORDS + 1) * 64).to_le_bytes());
        let mut words = Vec::new();
        let err = read_frame(&mut Cursor::new(&bytes), &mut words).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_payload_decodes_to_a_typed_error() {
        // a NodeResult carrying a send frame whose word count (2) does
        // not match its bit length (3 bits = 1 word)
        let mut w = BitWriter::new();
        w.u32(0);
        w.tag(0, 4); // Done
        w.opt_u32(None);
        w.u32(1); // one send
        w.u32(0); // port
        w.push(3, 64); // bits
        w.u32(2); // word count
        w.push(5, 64);
        w.push(0, 64);
        let frame = w.finish();
        let err = NodeResult::from_frame(&frame).unwrap_err();
        assert!(matches!(
            err,
            WireError::BadLength {
                context: "send frame word count",
                bits: 3
            }
        ));
        // and a truncated Ctl frame overruns instead of panicking
        let hello = sample_frames().remove(0);
        let full = hello.to_frame();
        let mut w = BitWriter::new();
        w.push(0, 3); // the Hello tag alone, nothing after it
        let truncated = w.finish();
        assert!(full.bits() > truncated.bits());
        assert!(matches!(
            Ctl::from_frame(&truncated).unwrap_err(),
            WireError::Overrun { .. }
        ));
    }

    #[test]
    fn shard_bounds_cover_everything_evenly() {
        for n in [0usize, 1, 2, 7, 100, 2500] {
            for shards in [1usize, 2, 3, 4, 7] {
                let b = shard_bounds(n, shards);
                assert_eq!(b.len(), shards + 1);
                assert_eq!(b[0], 0);
                assert_eq!(b[shards], n);
                for s in 0..shards {
                    assert!(b[s] <= b[s + 1]);
                    // balanced within one node
                    let size = b[s + 1] - b[s];
                    assert!(size * shards <= n + shards && (size + 1) * shards >= n);
                }
            }
        }
    }

    #[test]
    fn endpoints_parse_and_display() {
        let tcp: Endpoint = "127.0.0.1:7000".parse().expect("bare tcp");
        assert_eq!(tcp, Endpoint::Tcp("127.0.0.1:7000".into()));
        let tcp2: Endpoint = "tcp:localhost:0".parse().expect("prefixed tcp");
        assert_eq!(tcp2, Endpoint::Tcp("localhost:0".into()));
        assert!("no-colon-here".parse::<Endpoint>().is_err());
        #[cfg(unix)]
        {
            let ux: Endpoint = "unix:/tmp/kdom.sock".parse().expect("unix");
            assert_eq!(ux.to_string(), "unix:/tmp/kdom.sock");
        }
    }

    #[test]
    fn tcp_streams_are_nodelay_on_both_ends() {
        let listener = CoordListener::bind(&"tcp:127.0.0.1:0".parse().expect("endpoint"))
            .expect("bind an ephemeral port");
        let ep = listener.local_endpoint().expect("bound endpoint");
        let client = ep.connect().expect("connect");
        let server = listener.accept().expect("accept");
        for (end, conn) in [("connect", &client), ("accept", &server)] {
            let Conn::Tcp(s) = conn else {
                panic!("{end} returned a non-TCP stream")
            };
            assert!(
                s.nodelay().expect("read TCP_NODELAY"),
                "{end} left Nagle on"
            );
        }
    }
}
