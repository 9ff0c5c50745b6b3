//! kdom-as-a-service: a socket server in front of the job scheduler.
//!
//! The server owns a [`JobPool`] (and through it the content-addressed
//! result cache) plus a registry of graphs keyed by
//! [`Graph::fingerprint`]. Clients install graphs (generated from a
//! `FAMILY:N:SEED` spec or uploaded edge-by-edge), submit single jobs or
//! whole sweeps, wait for byte-exact
//! [`JobOutput`](kdom_congest::JobOutput)s, stream per-job JSONL trace
//! events, and read scheduler/cache statistics.
//!
//! ## Wire protocol
//!
//! Every message reuses the engine transport's length-prefixed word
//! framing ([`frame_to_bytes`] / [`read_frame`]), so the server shares
//! its corruption checks (magic, length caps) with the shard transport.
//! Commands and replies are UTF-8 text packed little-endian into the
//! frame words; only graph uploads and harvested outputs travel as raw
//! word frames. One request, one reply — except `TRACE`, which streams
//! line batches and closes with a literal `END` frame.
//!
//! | request | reply |
//! |---|---|
//! | `PING` | `OK pong` |
//! | `GRAPH FAMILY:N:SEED` (`1 ≤ N ≤ 2^24`, `2^14` for `gnp`) | `OK graph <fp> nodes <n> edges <m>` |
//! | `UPLOAD <n> <m>` + word frame `[id]*n [u v w]*m` | `OK graph <fp> …` |
//! | `SUBMIT <fp> <spec tokens>` | `OK job <id>` |
//! | `SWEEP <fp> <spec tokens + algos=/ks=/seeds=>` | `OK jobs <id,…>` |
//! | `WAIT <id>` | `OK done …report…` + outputs word frame |
//! | `TRACE <id>` | line-batch frames, then `END` |
//! | `STATS` | `OK stats k=v …` |
//! | `SHUTDOWN` | `OK bye` (server drains and exits) |
//!
//! Failures are a single `ERR <reason>` frame; the connection stays up.

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use kdom_congest::transport::{frame_to_bytes, read_frame, Conn, CoordListener, Endpoint};
use kdom_congest::{
    Algo, CacheStats, EngineConfig, ExecSpec, FaultPlan, JobHandle, JobPool, JobStatus, PoolStats,
    RunReport, RunSpec, SweepSpec,
};
use kdom_graph::generators::Family;
use kdom_graph::graph::EdgeRef;
use kdom_graph::{EdgeId, Graph, NodeId};

/// How long a streaming trace subscriber sleeps between polls of the
/// job's sink.
const TRACE_POLL: Duration = Duration::from_millis(5);

/// How long the accept loop sleeps when the backlog is empty.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

// ---------------------------------------------------------------------------
// Text frames
// ---------------------------------------------------------------------------

/// Packs `text` as UTF-8 into the transport's word framing and writes
/// it to `w`: bytes land little-endian in consecutive words, the bit
/// length records the exact byte count.
fn send_text(w: &mut impl Write, text: &str) -> io::Result<()> {
    let bytes = text.as_bytes();
    let mut words = vec![0u64; bytes.len().div_ceil(8)];
    for (i, &b) in bytes.iter().enumerate() {
        words[i / 8] |= u64::from(b) << ((i % 8) * 8);
    }
    let mut out = Vec::new();
    frame_to_bytes(&words, bytes.len() as u64 * 8, &mut out);
    w.write_all(&out)
}

/// Writes a raw word frame (graph uploads, harvested outputs).
fn send_words(w: &mut impl Write, words: &[u64]) -> io::Result<()> {
    let mut out = Vec::new();
    frame_to_bytes(words, words.len() as u64 * 64, &mut out);
    w.write_all(&out)
}

/// Reads one frame and unpacks it as UTF-8 text (the inverse of
/// [`send_text`]).
fn recv_text(r: &mut impl io::Read, words: &mut Vec<u64>) -> io::Result<String> {
    let bits = read_frame(r, words)?;
    if bits % 8 != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("text frame of {bits} bits is not whole bytes"),
        ));
    }
    let nbytes = (bits / 8) as usize;
    let mut bytes = Vec::with_capacity(nbytes);
    for i in 0..nbytes {
        bytes.push((words[i / 8] >> ((i % 8) * 8)) as u8);
    }
    String::from_utf8(bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("non-UTF-8 frame: {e}")))
}

// ---------------------------------------------------------------------------
// Spec and report token codecs
// ---------------------------------------------------------------------------

/// Serializes a [`RunSpec`] as `key=value` tokens for `SUBMIT`/`SWEEP`.
/// Every cache-key field crosses the wire, so the server-side spec
/// hashes identically to the client's. Float fault probabilities travel
/// as IEEE-754 bit patterns in hex — byte-exact, no decimal round trip.
///
/// # Errors
///
/// Structured fault plans (crashes, link outages, churn epochs) have no
/// token form; specs carrying them are rejected here rather than
/// silently stripped.
pub fn spec_to_tokens(spec: &RunSpec) -> Result<String, String> {
    let f = &spec.faults;
    if !(f.crashes.is_empty() && f.link_downs.is_empty() && f.epochs.is_empty()) {
        return Err(
            "structured fault plans (crashes/link-downs/churn) are not wire-encodable".into(),
        );
    }
    let exec = match spec.exec {
        ExecSpec::Sync => "sync".to_string(),
        ExecSpec::ReliableAlpha { max_delay } => format!("alpha:{max_delay}"),
    };
    Ok(format!(
        "algo={} k={} seed={} threads={} exec={} trace={} \
         fseed={} fdrop={:016x} fdup={:016x} fdelay={}",
        spec.algo.label(),
        spec.k,
        spec.seed,
        spec.threads,
        exec,
        u8::from(spec.trace),
        f.seed,
        f.drop_prob.to_bits(),
        f.dup_prob.to_bits(),
        f.max_extra_delay,
    ))
}

fn parse_num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse()
        .map_err(|e| format!("{key}={v:?} did not parse: {e}"))
}

/// Parses the `threads=` token, held to [`EngineConfig::check_threads`].
fn parse_threads(key: &str, v: &str) -> Result<usize, String> {
    let n = parse_num(key, v)?;
    EngineConfig::check_threads(&n).map_err(|e| format!("{key}={v:?} is out of range: {e}"))?;
    Ok(n)
}

fn parse_bool(key: &str, v: &str) -> Result<bool, String> {
    match v {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{key}={v:?} is not 0 or 1")),
    }
}

/// Parses the tokens produced by [`spec_to_tokens`] back into a
/// [`RunSpec`]. Unknown keys are an error — a misspelled field must not
/// silently fall back to a default and then get *cached* under the
/// wrong content address. Values are held to the bounds the library
/// enforces, so a client cannot request what the library would refuse.
/// A nonzero `fdrop`, `fdup` or `fdelay` needs
/// `exec=alpha:D`: the sync executor runs fault-free.
///
/// # Errors
///
/// On any unknown key, malformed value or out-of-range value, naming
/// the token.
pub fn spec_from_tokens<'a>(tokens: impl Iterator<Item = &'a str>) -> Result<RunSpec, String> {
    let mut spec = RunSpec::default();
    let mut fseed = 0u64;
    let mut fdrop = 0u64;
    let mut fdup = 0u64;
    let mut fdelay = 0u64;
    for tok in tokens {
        let (key, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("token {tok:?} is not key=value"))?;
        match key {
            "algo" => spec.algo = v.parse()?,
            "k" => spec.k = parse_num(key, v)?,
            "seed" => spec.seed = parse_num(key, v)?,
            "threads" => spec.threads = parse_threads(key, v)?,
            "exec" => {
                spec.exec = match v.split_once(':') {
                    None if v == "sync" => ExecSpec::Sync,
                    Some(("alpha", d)) => match parse_num(key, d)? {
                        0 => return Err(format!("exec={v:?}: the delay must be at least 1")),
                        max_delay => ExecSpec::ReliableAlpha { max_delay },
                    },
                    _ => return Err(format!("exec={v:?} is not sync or alpha:DELAY")),
                }
            }
            "trace" => spec.trace = parse_bool(key, v)?,
            "fseed" => fseed = parse_num(key, v)?,
            "fdrop" => {
                fdrop = u64::from_str_radix(v, 16).map_err(|e| format!("fdrop={v:?}: {e}"))?
            }
            "fdup" => fdup = u64::from_str_radix(v, 16).map_err(|e| format!("fdup={v:?}: {e}"))?,
            "fdelay" => fdelay = parse_num(key, v)?,
            _ => return Err(format!("unknown spec token {key:?}")),
        }
    }
    if spec.exec == ExecSpec::Sync {
        // the sync executor runs fault-free: a plan it would drop must
        // not reach the cache key
        let faults = [("fdrop", fdrop), ("fdup", fdup), ("fdelay", fdelay)];
        if let Some((key, _)) = faults.iter().find(|(_, v)| *v != 0) {
            return Err(format!(
                "{key} needs exec=alpha:D: exec=sync runs fault-free"
            ));
        }
    }
    spec.faults = FaultPlan::new(fseed)
        .try_drop_prob(f64::from_bits(fdrop))
        .map_err(|e| format!("fdrop={fdrop:016x}: {e}"))?
        .try_dup_prob(f64::from_bits(fdup))
        .map_err(|e| format!("fdup={fdup:016x}: {e}"))?
        .max_extra_delay(fdelay);
    Ok(spec)
}

fn report_to_tokens(r: &RunReport) -> String {
    format!(
        "rounds={} messages={} total_bits={} max_message_bits={} peak_messages_per_round={} \
         dropped_messages={} duplicated_messages={} retransmissions={} peak_memory_bytes={}",
        r.rounds,
        r.messages,
        r.total_bits,
        r.max_message_bits,
        r.peak_messages_per_round,
        r.dropped_messages,
        r.duplicated_messages,
        r.retransmissions,
        r.peak_memory_bytes
    )
}

fn report_from_tokens<'a>(tokens: impl Iterator<Item = &'a str>) -> Result<RunReport, String> {
    let mut r = RunReport::default();
    for tok in tokens {
        let (key, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("token {tok:?} is not key=value"))?;
        let v: u64 = parse_num(key, v)?;
        match key {
            "rounds" => r.rounds = v,
            "messages" => r.messages = v,
            "total_bits" => r.total_bits = v,
            "max_message_bits" => r.max_message_bits = v,
            "peak_messages_per_round" => r.peak_messages_per_round = v,
            "dropped_messages" => r.dropped_messages = v,
            "duplicated_messages" => r.duplicated_messages = v,
            "retransmissions" => r.retransmissions = v,
            "peak_memory_bytes" => r.peak_memory_bytes = v,
            _ => return Err(format!("unknown report token {key:?}")),
        }
    }
    Ok(r)
}

/// Largest `N` a `FAMILY:N:SEED` spec may ask for: the engine's packed
/// staging holds 2^24 nodes.
const MAX_SPEC_NODES: usize = 1 << 24;

/// Largest `N` of a `gnp` spec: its generation draws once per node pair,
/// `Θ(N²)` work.
const MAX_GNP_NODES: usize = 1 << 14;

/// Builds a graph from the `FAMILY:N:SEED` dialect the `kdom-shard`
/// launcher introduced (`grid:2500:42`, `gnp:500:7`, …).
///
/// # Errors
///
/// Names the malformed component (unknown family, bad node count or
/// seed), or the bound a node count breaks: `N` must be in
/// `1..=2^24`, and in `1..=2^14` for `gnp`.
pub fn parse_graph_spec(s: &str) -> Result<Graph, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let [family, n, seed] = parts.as_slice() else {
        return Err(format!("graph spec {s:?} is not FAMILY:N:SEED"));
    };
    let family = match *family {
        "grid" => Family::Grid,
        "path" => Family::Path,
        "star" => Family::Star,
        "btree" => Family::BalancedBinary,
        "rtree" => Family::RandomTree,
        "caterpillar" => Family::Caterpillar,
        "gnp" => Family::Gnp,
        other => return Err(format!("unknown graph family {other:?}")),
    };
    let n: usize = n.parse().map_err(|e| format!("bad node count: {e}"))?;
    let (max, why) = match family {
        Family::Gnp => (MAX_GNP_NODES, "2^14: gnp draws once per node pair"),
        _ => (MAX_SPEC_NODES, "2^24: the engine's packed staging"),
    };
    if n == 0 || n > max {
        return Err(format!(
            "node count N={n} in {s:?} is outside 1..={max} (the bound is {why})"
        ));
    }
    let seed = seed.parse().map_err(|e| format!("bad seed: {e}"))?;
    Ok(family.generate(n, seed))
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

struct ServerState {
    pool: JobPool,
    graphs: Mutex<HashMap<u64, Arc<Graph>>>,
    jobs: Mutex<HashMap<u64, JobHandle>>,
    shutdown: AtomicBool,
}

/// The kdom job server: a listening socket in front of a [`JobPool`].
pub struct Server {
    listener: CoordListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds a server on `listen` (a TCP port of `0` picks an ephemeral
    /// one — read it back with [`Server::local_endpoint`]). The pool —
    /// and with it the worker count, cache budget, and the [`Runner`]
    /// dispatching specs onto algorithms — is supplied by the caller;
    /// the production binary passes `kdom_mst::service::runner()`.
    ///
    /// [`Runner`]: kdom_congest::Runner
    ///
    /// # Errors
    ///
    /// Any socket-level bind failure.
    pub fn bind(listen: &Endpoint, pool: JobPool) -> io::Result<Server> {
        let listener = CoordListener::bind(listen)?;
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                pool,
                graphs: Mutex::new(HashMap::new()),
                jobs: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The endpoint the server actually listens on.
    ///
    /// # Errors
    ///
    /// If the socket address cannot be read back.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        self.listener.local_endpoint()
    }

    /// Accepts and serves clients until one sends `SHUTDOWN`, then
    /// drains the pool (queued jobs still finish) and returns. Each
    /// client gets its own thread; a client error drops only that
    /// connection.
    ///
    /// # Errors
    ///
    /// Only on listener-level failures; per-client errors are contained.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        while !self.state.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok(conn) => {
                    let state = Arc::clone(&self.state);
                    std::thread::Builder::new()
                        .name("kdom-serve-client".into())
                        .spawn(move || handle_client(&state, conn))
                        .expect("spawn client thread");
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
                Err(e) => return Err(e),
            }
        }
        // dropping self.state's pool (last Arc may be held briefly by a
        // client thread) drains queued jobs and joins the workers
        Ok(())
    }
}

fn register_graph(state: &ServerState, g: Graph) -> String {
    let fp = g.fingerprint();
    let (n, m) = (g.node_count(), g.edge_count());
    state
        .graphs
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .entry(fp)
        .or_insert_with(|| Arc::new(g));
    format!("OK graph {fp:016x} nodes {n} edges {m}")
}

fn lookup_graph(state: &ServerState, fp_hex: &str) -> Result<Arc<Graph>, String> {
    let fp = u64::from_str_radix(fp_hex, 16)
        .map_err(|e| format!("graph fingerprint {fp_hex:?}: {e}"))?;
    state
        .graphs
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .get(&fp)
        .cloned()
        .ok_or_else(|| format!("unknown graph {fp_hex} (install it with GRAPH or UPLOAD first)"))
}

fn lookup_job(state: &ServerState, id_str: &str) -> Result<JobHandle, String> {
    let id: u64 = id_str
        .parse()
        .map_err(|e| format!("job id {id_str:?}: {e}"))?;
    state
        .jobs
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .get(&id)
        .cloned()
        .ok_or_else(|| format!("unknown job {id}"))
}

fn track_job(state: &ServerState, handle: &JobHandle) {
    state
        .jobs
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .insert(handle.id(), handle.clone());
}

/// Handles `UPLOAD n m`: reads the `[id]*n [u v w]*m` word frame and
/// builds the graph. Node ids travel explicitly (the generators assign
/// random distinct ids, and [`Graph::fingerprint`] covers them);
/// consecutive edge ids are implicit in frame order.
fn handle_upload(
    state: &ServerState,
    conn: &mut Conn,
    words: &mut Vec<u64>,
    n: &str,
    m: &str,
) -> io::Result<String> {
    let n: usize = match n.parse() {
        Ok(n) => n,
        Err(e) => return Ok(format!("ERR bad node count {n:?}: {e}")),
    };
    let m: usize = match m.parse() {
        Ok(m) => m,
        Err(e) => return Ok(format!("ERR bad edge count {m:?}: {e}")),
    };
    // the payload frame must be consumed even if the header was odd, or
    // the stream would desynchronize — hence reading before validating
    read_frame(conn, words)?;
    // checked: a hostile header must not wrap the sum onto a short frame
    if m.checked_mul(3).and_then(|e| e.checked_add(n)) != Some(words.len()) {
        return Ok(format!(
            "ERR graph frame has {} words, expected {n}+3*{m}",
            words.len()
        ));
    }
    let ids = words[..n].to_vec();
    // an endpoint beyond usize is out of range as usize::MAX too
    let node = |w: u64| NodeId(usize::try_from(w).unwrap_or(usize::MAX));
    let edges = words[n..]
        .chunks_exact(3)
        .enumerate()
        .map(|(i, e)| EdgeRef {
            id: EdgeId(i),
            u: node(e[0]),
            v: node(e[1]),
            weight: e[2],
        })
        .collect();
    Ok(match Graph::try_from_edges(n, edges, Some(ids)) {
        Ok(g) => register_graph(state, g),
        Err(e) => format!("ERR {e}"),
    })
}

/// Splits the sweep axis tokens (`algos=`, `ks=`, `seeds=`) out of a
/// `SWEEP` token stream and builds the [`SweepSpec`] around the
/// remaining base-spec tokens.
fn parse_sweep<'a>(tokens: impl Iterator<Item = &'a str>) -> Result<SweepSpec, String> {
    let mut base_tokens = Vec::new();
    let mut algos = Vec::new();
    let mut ks = Vec::new();
    let mut seeds = Vec::new();
    for tok in tokens {
        match tok.split_once('=') {
            Some(("algos", v)) => {
                for a in v.split(',') {
                    algos.push(a.parse::<Algo>()?);
                }
            }
            Some(("ks", v)) => {
                for k in v.split(',') {
                    ks.push(parse_num::<u64>("ks", k)?);
                }
            }
            Some(("seeds", v)) => {
                for s in v.split(',') {
                    seeds.push(parse_num::<u64>("seeds", s)?);
                }
            }
            _ => base_tokens.push(tok),
        }
    }
    let base = spec_from_tokens(base_tokens.into_iter())?;
    Ok(SweepSpec::new(base)
        .over_algos(&algos)
        .over_ks(&ks)
        .over_seeds(&seeds))
}

/// Streams a job's trace to `conn`: line batches as they appear in the
/// job's sink, a final drain once the job settles, then a literal `END`
/// frame. Cache-served jobs replay the cached trace instead (their sink
/// never ran).
fn stream_trace(conn: &mut Conn, handle: &JobHandle) -> io::Result<()> {
    let mut from = 0usize;
    loop {
        let batch = handle.trace_lines_since(from);
        if !batch.is_empty() {
            from += batch.len();
            send_text(conn, &batch.join("\n"))?;
        }
        match handle.status() {
            JobStatus::Done { from_cache } => {
                let tail = handle.trace_lines_since(from);
                if !tail.is_empty() {
                    from += tail.len();
                    send_text(conn, &tail.join("\n"))?;
                }
                if from_cache && from == 0 {
                    if let Some(Ok(out)) = handle.try_output() {
                        if !out.trace.is_empty() {
                            send_text(conn, &out.trace.join("\n"))?;
                        }
                    }
                }
                break;
            }
            JobStatus::Failed(_) => break,
            JobStatus::Queued | JobStatus::Running => std::thread::sleep(TRACE_POLL),
        }
    }
    send_text(conn, "END")
}

fn stats_reply(state: &ServerState) -> String {
    let PoolStats {
        submitted,
        completed,
        failed,
        engine_runs,
        cache:
            CacheStats {
                hits,
                misses,
                insertions,
                evictions,
                entries,
                bytes,
            },
    } = state.pool.stats();
    let graphs = state.graphs.lock().unwrap_or_else(|p| p.into_inner()).len();
    format!(
        "OK stats submitted={submitted} completed={completed} failed={failed} \
         engine_runs={engine_runs} hits={hits} misses={misses} insertions={insertions} \
         evictions={evictions} entries={entries} bytes={bytes} graphs={graphs}"
    )
}

/// One client connection: a request/reply loop until the peer hangs up
/// or sends `SHUTDOWN`.
fn handle_client(state: &ServerState, mut conn: Conn) {
    let mut words = Vec::new();
    loop {
        let text = match recv_text(&mut conn, &mut words) {
            Ok(t) => t,
            Err(_) => return, // peer gone (or corrupt): drop the connection
        };
        let mut parts = parts_of(&text);
        let reply = match parts.next() {
            Some("PING") => "OK pong".to_string(),
            Some("GRAPH") => match parts.next().ok_or("GRAPH needs FAMILY:N:SEED".to_string()) {
                Ok(spec) => match parse_graph_spec(spec) {
                    Ok(g) => register_graph(state, g),
                    Err(e) => format!("ERR {e}"),
                },
                Err(e) => format!("ERR {e}"),
            },
            Some("UPLOAD") => match (parts.next(), parts.next()) {
                (Some(n), Some(m)) => match handle_upload(state, &mut conn, &mut words, n, m) {
                    Ok(reply) => reply,
                    Err(_) => return,
                },
                _ => "ERR UPLOAD needs node and edge counts".to_string(),
            },
            Some("SUBMIT") => match parts.next().ok_or("SUBMIT needs a graph fingerprint") {
                Ok(fp) => match lookup_graph(state, fp)
                    .and_then(|g| spec_from_tokens(parts).map(|spec| (g, spec)))
                {
                    Ok((g, spec)) => {
                        let handle = state.pool.submit(g, spec);
                        track_job(state, &handle);
                        format!("OK job {}", handle.id())
                    }
                    Err(e) => format!("ERR {e}"),
                },
                Err(e) => format!("ERR {e}"),
            },
            Some("SWEEP") => match parts.next().ok_or("SWEEP needs a graph fingerprint") {
                Ok(fp) => match lookup_graph(state, fp)
                    .and_then(|g| parse_sweep(parts).map(|sweep| (g, sweep)))
                {
                    Ok((g, sweep)) => {
                        let handles = state.pool.submit_sweep(&g, &sweep);
                        for h in &handles {
                            track_job(state, h);
                        }
                        let ids: Vec<String> = handles.iter().map(|h| h.id().to_string()).collect();
                        format!("OK jobs {}", ids.join(","))
                    }
                    Err(e) => format!("ERR {e}"),
                },
                Err(e) => format!("ERR {e}"),
            },
            Some("WAIT") => match parts.next().ok_or("WAIT needs a job id") {
                Ok(id) => match lookup_job(state, id) {
                    Ok(handle) => match handle.wait() {
                        Ok(out) => {
                            let from_cache =
                                matches!(handle.status(), JobStatus::Done { from_cache: true });
                            let reply = format!(
                                "OK done from_cache={} {}",
                                u8::from(from_cache),
                                report_to_tokens(&out.report)
                            );
                            if send_text(&mut conn, &reply).is_err()
                                || send_words(&mut conn, &out.outputs).is_err()
                            {
                                return;
                            }
                            continue; // reply already sent (two frames)
                        }
                        Err(e) => format!("ERR job failed: {e}"),
                    },
                    Err(e) => format!("ERR {e}"),
                },
                Err(e) => format!("ERR {e}"),
            },
            Some("TRACE") => match parts.next().ok_or("TRACE needs a job id") {
                Ok(id) => match lookup_job(state, id) {
                    Ok(handle) => {
                        if stream_trace(&mut conn, &handle).is_err() {
                            return;
                        }
                        continue; // END frame already sent
                    }
                    Err(e) => format!("ERR {e}"),
                },
                Err(e) => format!("ERR {e}"),
            },
            Some("STATS") => stats_reply(state),
            Some("SHUTDOWN") => {
                state.shutdown.store(true, Ordering::SeqCst);
                let _ = send_text(&mut conn, "OK bye");
                return;
            }
            Some(other) => format!("ERR unknown command {other:?}"),
            None => "ERR empty command".to_string(),
        };
        if send_text(&mut conn, &reply).is_err() {
            return;
        }
    }
}

fn parts_of(text: &str) -> impl Iterator<Item = &str> {
    text.split_whitespace()
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A graph's server-side identity, as reported by `GRAPH`/`UPLOAD`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphInfo {
    /// The canonical [`Graph::fingerprint`].
    pub fingerprint: u64,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
}

/// One finished job, as reported by `WAIT`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitReply {
    /// Whether the result was served from the cache without running the
    /// engine.
    pub from_cache: bool,
    /// The run's [`RunReport`].
    pub report: RunReport,
    /// The harvested per-node outputs.
    pub outputs: Vec<u64>,
}

/// Scheduler and cache counters, as reported by `STATS`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// The pool's counters (submissions, engine runs, cache hit rate).
    pub pool: PoolStats,
    /// Graphs currently installed.
    pub graphs: usize,
}

/// A blocking client for the [`Server`] protocol.
pub struct Client {
    conn: Conn,
    words: Vec<u64>,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Any socket-level connect failure.
    pub fn connect(ep: &Endpoint) -> io::Result<Client> {
        Ok(Client {
            conn: ep.connect()?,
            words: Vec::new(),
        })
    }

    fn round_trip(&mut self, request: &str) -> io::Result<String> {
        send_text(&mut self.conn, request)?;
        let reply = recv_text(&mut self.conn, &mut self.words)?;
        match reply.strip_prefix("ERR ") {
            Some(e) => Err(io::Error::other(e.to_string())),
            None => Ok(reply),
        }
    }

    fn parse_graph_reply(reply: &str) -> io::Result<GraphInfo> {
        let bad = || io::Error::new(io::ErrorKind::InvalidData, format!("bad reply {reply:?}"));
        let mut parts = reply.split_whitespace();
        if (parts.next(), parts.next()) != (Some("OK"), Some("graph")) {
            return Err(bad());
        }
        let fingerprint =
            u64::from_str_radix(parts.next().ok_or_else(bad)?, 16).map_err(|_| bad())?;
        let mut field = |tag: &str| -> io::Result<usize> {
            if parts.next() != Some(tag) {
                return Err(bad());
            }
            parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())
        };
        Ok(GraphInfo {
            fingerprint,
            nodes: field("nodes")?,
            edges: field("edges")?,
        })
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// On transport failure or an unexpected reply.
    pub fn ping(&mut self) -> io::Result<()> {
        let reply = self.round_trip("PING")?;
        if reply == "OK pong" {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad reply {reply:?}"),
            ))
        }
    }

    /// Installs a generated graph from a `FAMILY:N:SEED` spec.
    ///
    /// # Errors
    ///
    /// A server-side `ERR` (bad spec) surfaces as [`io::Error`].
    pub fn graph_spec(&mut self, spec: &str) -> io::Result<GraphInfo> {
        let reply = self.round_trip(&format!("GRAPH {spec}"))?;
        Self::parse_graph_reply(&reply)
    }

    /// Uploads `g` edge-by-edge. The server rebuilds it with the same
    /// CSR construction, so the returned fingerprint equals
    /// `g.fingerprint()` — asserting that is a transport self-check.
    ///
    /// # Errors
    ///
    /// A server-side `ERR` (malformed edge list) or transport failure.
    pub fn upload(&mut self, g: &Graph) -> io::Result<GraphInfo> {
        send_text(
            &mut self.conn,
            &format!("UPLOAD {} {}", g.node_count(), g.edge_count()),
        )?;
        let mut words = Vec::with_capacity(g.node_count() + 3 * g.edge_count());
        words.extend(g.nodes().map(|v| g.id_of(v)));
        for e in g.edges() {
            words.extend([e.u.0 as u64, e.v.0 as u64, e.weight]);
        }
        send_words(&mut self.conn, &words)?;
        let reply = recv_text(&mut self.conn, &mut self.words)?;
        match reply.strip_prefix("ERR ") {
            Some(e) => Err(io::Error::other(e.to_string())),
            None => Self::parse_graph_reply(&reply),
        }
    }

    /// Submits one job against an installed graph, returning its id.
    ///
    /// # Errors
    ///
    /// Unknown graphs, non-encodable specs, and transport failures.
    pub fn submit(&mut self, graph: u64, spec: &RunSpec) -> io::Result<u64> {
        let tokens = spec_to_tokens(spec).map_err(io::Error::other)?;
        let reply = self.round_trip(&format!("SUBMIT {graph:016x} {tokens}"))?;
        reply
            .strip_prefix("OK job ")
            .and_then(|id| id.parse().ok())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad reply {reply:?}"))
            })
    }

    /// Submits a sweep (cross-product batch), returning the job ids in
    /// the sweep's canonical order (algorithm-major, then `k`, then
    /// seed) — the same order [`SweepSpec::specs`] enumerates.
    ///
    /// # Errors
    ///
    /// Unknown graphs, non-encodable specs, and transport failures.
    pub fn sweep(&mut self, graph: u64, sweep: &SweepSpec) -> io::Result<Vec<u64>> {
        let base = spec_to_tokens(&sweep.base).map_err(io::Error::other)?;
        let join = |xs: &[String]| xs.join(",");
        let mut request = format!("SWEEP {graph:016x} {base}");
        if !sweep.algos.is_empty() {
            let algos: Vec<String> = sweep.algos.iter().map(|a| a.label().into()).collect();
            request.push_str(&format!(" algos={}", join(&algos)));
        }
        if !sweep.ks.is_empty() {
            let ks: Vec<String> = sweep.ks.iter().map(|k| k.to_string()).collect();
            request.push_str(&format!(" ks={}", join(&ks)));
        }
        if !sweep.seeds.is_empty() {
            let seeds: Vec<String> = sweep.seeds.iter().map(|s| s.to_string()).collect();
            request.push_str(&format!(" seeds={}", join(&seeds)));
        }
        let reply = self.round_trip(&request)?;
        let ids = reply.strip_prefix("OK jobs ").ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad reply {reply:?}"))
        })?;
        ids.split(',')
            .map(|id| {
                id.parse().map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad job id {id:?}: {e}"),
                    )
                })
            })
            .collect()
    }

    /// Blocks until job `id` finishes and returns its report and
    /// outputs.
    ///
    /// # Errors
    ///
    /// A failed job surfaces its failure description as [`io::Error`].
    pub fn wait(&mut self, id: u64) -> io::Result<WaitReply> {
        let reply = self.round_trip(&format!("WAIT {id}"))?;
        let rest = reply.strip_prefix("OK done ").ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad reply {reply:?}"))
        })?;
        let mut parts = rest.split_whitespace();
        let from_cache = match parts.next() {
            Some("from_cache=0") => false,
            Some("from_cache=1") => true,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad reply {reply:?}"),
                ))
            }
        };
        let report =
            report_from_tokens(parts).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        read_frame(&mut self.conn, &mut self.words)?;
        Ok(WaitReply {
            from_cache,
            report,
            outputs: self.words.clone(),
        })
    }

    /// Streams job `id`'s JSONL trace, feeding every line to `sink` as
    /// it arrives, until the server's `END` marker. Returns the number
    /// of lines streamed.
    ///
    /// # Errors
    ///
    /// Transport failures and server-side `ERR` replies.
    pub fn trace(&mut self, id: u64, mut sink: impl FnMut(&str)) -> io::Result<usize> {
        send_text(&mut self.conn, &format!("TRACE {id}"))?;
        let mut lines = 0usize;
        loop {
            let batch = recv_text(&mut self.conn, &mut self.words)?;
            if batch == "END" {
                return Ok(lines);
            }
            if let Some(e) = batch.strip_prefix("ERR ") {
                return Err(io::Error::other(e.to_string()));
            }
            for line in batch.lines() {
                sink(line);
                lines += 1;
            }
        }
    }

    /// Reads the scheduler and cache counters.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed replies.
    pub fn stats(&mut self) -> io::Result<ServeStats> {
        let reply = self.round_trip("STATS")?;
        let rest = reply.strip_prefix("OK stats ").ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad reply {reply:?}"))
        })?;
        let mut s = ServeStats::default();
        for tok in rest.split_whitespace() {
            let bad = || {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad stats token {tok:?}"),
                )
            };
            let (key, v) = tok.split_once('=').ok_or_else(bad)?;
            let v: u64 = v.parse().map_err(|_| bad())?;
            match key {
                "submitted" => s.pool.submitted = v,
                "completed" => s.pool.completed = v,
                "failed" => s.pool.failed = v,
                "engine_runs" => s.pool.engine_runs = v,
                "hits" => s.pool.cache.hits = v,
                "misses" => s.pool.cache.misses = v,
                "insertions" => s.pool.cache.insertions = v,
                "evictions" => s.pool.cache.evictions = v,
                "entries" => s.pool.cache.entries = v as usize,
                "bytes" => s.pool.cache.bytes = v as usize,
                "graphs" => s.graphs = v as usize,
                _ => return Err(bad()),
            }
        }
        Ok(s)
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Transport failures and unexpected replies.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let reply = self.round_trip("SHUTDOWN")?;
        if reply == "OK bye" {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad reply {reply:?}"),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdom_congest::jobs::JobOutput;
    use kdom_congest::{trace, Runner};
    use kdom_graph::generators::{path, GenConfig};

    /// A deterministic toy runner: one trace line, outputs derived from
    /// the spec and graph so distinct specs yield distinct results.
    fn toy_runner() -> Runner {
        Arc::new(|g, spec| {
            trace::emit_phase("Toy");
            let base = spec.seed ^ (spec.k << 8);
            Ok(JobOutput {
                report: RunReport {
                    rounds: spec.seed + 1,
                    messages: g.node_count() as u64,
                    ..RunReport::default()
                },
                outputs: g.nodes().map(|v| base ^ g.id_of(v)).collect(),
                trace: Vec::new(),
            })
        })
    }

    fn test_server() -> (Endpoint, std::thread::JoinHandle<io::Result<()>>) {
        let pool = JobPool::new(2, 1 << 20, toy_runner());
        let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), pool).expect("bind");
        let ep = server.local_endpoint().expect("endpoint");
        let handle = std::thread::spawn(move || server.run());
        (ep, handle)
    }

    #[test]
    fn spec_tokens_round_trip_bytes() {
        let spec = RunSpec::default()
            .with_algo(Algo::FastDomG)
            .with_k(7)
            .with_seed(42)
            .with_threads(3)
            .with_exec(ExecSpec::ReliableAlpha { max_delay: 9 })
            .with_faults(FaultPlan::new(5).drop_prob(0.125))
            .with_trace(true);
        let tokens = spec_to_tokens(&spec).expect("encodable");
        let back = spec_from_tokens(tokens.split_whitespace()).expect("parse");
        assert_eq!(back, spec);
        assert_eq!(back.canonical_hash(), spec.canonical_hash());
    }

    #[test]
    fn structured_fault_plans_are_refused() {
        let mut plan = FaultPlan::new(1);
        plan.crashes.push(kdom_congest::faults::Crash {
            node: NodeId(0),
            at: 3,
        });
        let spec = RunSpec::default().with_faults(plan);
        let err = spec_to_tokens(&spec).expect_err("crashes cannot cross the wire");
        assert!(err.contains("not wire-encodable"), "{err}");
    }

    #[test]
    fn unknown_spec_tokens_are_rejected() {
        let err = spec_from_tokens(["algo=bfs", "kay=3"].into_iter())
            .expect_err("typos must not silently default");
        assert!(err.contains("kay"), "{err}");
        // every message crosses as its bit frame (no codec mode), and the
        // engine's schedule settings never change an output (no
        // fast-forward, dense-scan or shard-size tokens)
        for (token, key) in [
            ("wire=1", "wire"),
            ("ff=1", "ff"),
            ("dense=75", "dense"),
            ("shard=1024", "shard"),
        ] {
            let err = spec_from_tokens([token].into_iter()).expect_err("no such token");
            assert!(
                err.contains(&format!("unknown spec token {key:?}")),
                "{token}: {err}"
            );
        }
    }

    #[test]
    fn out_of_range_spec_tokens_are_rejected_naming_the_token() {
        let one = format!("{:016x}", 1.0f64.to_bits());
        let nan = format!("{:016x}", f64::NAN.to_bits());
        let quarter = format!("{:016x}", 0.25f64.to_bits());
        let cases = [
            ("exec=sync", "threads=0".to_string(), "threads"),
            ("exec=sync", "threads=257".to_string(), "threads"),
            ("exec=sync", "exec=alpha:0".to_string(), "exec"),
            ("exec=alpha:2", format!("fdrop={one}"), "fdrop"),
            ("exec=alpha:2", format!("fdup={nan}"), "fdup"),
            // the sync executor would silently drop a fault plan
            ("exec=sync", format!("fdrop={quarter}"), "fdrop"),
            ("exec=sync", format!("fdup={quarter}"), "fdup"),
            ("exec=sync", "fdelay=2".to_string(), "fdelay"),
        ];
        for (exec, token, key) in &cases {
            let err = spec_from_tokens(["algo=bfs", exec, token.as_str()].into_iter())
                .expect_err("out-of-range token must be refused");
            assert!(err.starts_with(key), "{exec} {token}: {err}");
        }
        let err = spec_from_tokens(["exec=sync", "fdelay=2"].into_iter()).expect_err("sync");
        assert!(err.contains("exec=alpha:D"), "{err}");
        spec_from_tokens(["exec=sync", "fseed=9"].into_iter())
            .expect("a fault seed alone is inert");
        let spec =
            spec_from_tokens(["threads=256"].into_iter()).expect("the bound itself is accepted");
        assert_eq!(spec.threads, 256);
    }

    #[test]
    fn report_tokens_round_trip() {
        let report = RunReport {
            rounds: 1,
            messages: 2,
            total_bits: 3,
            max_message_bits: 4,
            peak_messages_per_round: 5,
            dropped_messages: 6,
            duplicated_messages: 7,
            retransmissions: 8,
            peak_memory_bytes: 9,
        };
        let back = report_from_tokens(report_to_tokens(&report).split_whitespace()).expect("parse");
        assert_eq!(back, report);
    }

    #[test]
    fn text_frames_round_trip_via_a_pipe() {
        let mut buf = Vec::new();
        send_text(&mut buf, "hello frames ≠ bytes").expect("write");
        let mut words = Vec::new();
        let text = recv_text(&mut &buf[..], &mut words).expect("read");
        assert_eq!(text, "hello frames ≠ bytes");
    }

    #[test]
    fn server_round_trip_submit_wait_trace_stats() {
        let (ep, server) = test_server();
        let mut client = Client::connect(&ep).expect("connect");
        client.ping().expect("ping");

        let info = client.graph_spec("path:8:3").expect("install graph");
        let reference = path(&GenConfig::with_seed(8, 3));
        assert_eq!(info.fingerprint, reference.fingerprint());
        assert_eq!((info.nodes, info.edges), (8, 7));

        let spec = RunSpec::default().with_seed(5).with_trace(true);
        let id = client.submit(info.fingerprint, &spec).expect("submit");
        let reply = client.wait(id).expect("wait");
        assert!(!reply.from_cache, "first run misses the cache");
        assert_eq!(reply.report.rounds, 6);
        assert_eq!(reply.outputs.len(), 8);

        // resubmitting the same spec is served from the cache, byte-identically
        let id2 = client.submit(info.fingerprint, &spec).expect("resubmit");
        let reply2 = client.wait(id2).expect("wait cached");
        assert!(reply2.from_cache, "identical spec must hit the cache");
        assert_eq!(reply2.report, reply.report);
        assert_eq!(reply2.outputs, reply.outputs);

        let mut lines = Vec::new();
        client
            .trace(id, |l| lines.push(l.to_string()))
            .expect("trace");
        assert_eq!(lines.len(), 1, "the toy runner emits one phase marker");
        assert!(lines[0].contains("Toy"), "{lines:?}");
        // the cached job replays the cached trace
        let mut cached_lines = Vec::new();
        client
            .trace(id2, |l| cached_lines.push(l.to_string()))
            .expect("cached trace");
        assert_eq!(cached_lines, lines);

        let stats = client.stats().expect("stats");
        assert_eq!(stats.pool.submitted, 2);
        assert_eq!(stats.pool.engine_runs, 1, "the resubmission ran nothing");
        assert_eq!(stats.pool.cache.hits, 1);
        assert_eq!(stats.graphs, 1);

        client.shutdown().expect("shutdown");
        server.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn out_of_range_submit_is_an_err_and_the_connection_survives() {
        let (ep, server) = test_server();
        let mut client = Client::connect(&ep).expect("connect");
        let info = client.graph_spec("path:6:0").expect("graph");
        let err = client
            .submit(info.fingerprint, &RunSpec::default().with_threads(257))
            .expect_err("257 worker threads are refused");
        assert!(err.to_string().starts_with("threads=\"257\""), "{err}");
        client.ping().expect("connection survives an ERR");
        client.shutdown().expect("shutdown");
        server.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn overflowing_upload_header_is_an_err_and_the_connection_survives() {
        let (ep, server) = test_server();
        let mut conn = ep.connect().expect("connect");
        let mut words = Vec::new();
        // u64::MAX + 3 * 1 wraps to 2, the length of the frame sent
        send_text(&mut conn, &format!("UPLOAD {} 1", u64::MAX)).expect("header");
        send_words(&mut conn, &[1, 2]).expect("payload");
        let reply = recv_text(&mut conn, &mut words).expect("a reply, not EOF");
        assert!(reply.starts_with("ERR "), "{reply}");
        assert!(reply.contains(&format!("{}+3*1", u64::MAX)), "{reply}");
        send_text(&mut conn, "PING").expect("ping");
        let pong = recv_text(&mut conn, &mut words).expect("the connection survives");
        assert_eq!(pong, "OK pong");
        let mut client = Client::connect(&ep).expect("connect");
        client.shutdown().expect("shutdown");
        server.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn upload_with_a_parallel_edge_is_an_err_naming_it_and_the_connection_survives() {
        let (ep, server) = test_server();
        let mut conn = ep.connect().expect("connect");
        let mut words = Vec::new();
        send_text(&mut conn, "UPLOAD 3 3").expect("header");
        // ids, then edges 0-1, 1-2 and 2-1 (parallel to the second)
        send_words(&mut conn, &[10, 11, 12, 0, 1, 5, 1, 2, 6, 2, 1, 7]).expect("payload");
        let reply = recv_text(&mut conn, &mut words).expect("a reply, not EOF");
        assert_eq!(
            reply,
            "ERR parallel edge 1-2: edges 1 and 2 join the same nodes"
        );
        send_text(&mut conn, "UPLOAD 2 1").expect("header");
        send_words(&mut conn, &[10, 11, 0, 9, 5]).expect("payload");
        let reply = recv_text(&mut conn, &mut words).expect("a reply, not EOF");
        assert_eq!(reply, "ERR endpoint out of range: edge 0 names node 9 of 2");
        send_text(&mut conn, "PING").expect("ping");
        let pong = recv_text(&mut conn, &mut words).expect("the connection survives");
        assert_eq!(pong, "OK pong");
        let mut client = Client::connect(&ep).expect("connect");
        client.shutdown().expect("shutdown");
        server.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn graph_specs_outside_their_node_bounds_are_refused() {
        let cases = [
            ("path:0:1", "N=0", "1..=16777216"),
            ("star:16777217:1", "N=16777217", "1..=16777216"),
            ("gnp:16385:1", "N=16385", "1..=16384"),
        ];
        for (spec, token, bound) in cases {
            let err = parse_graph_spec(spec).expect_err("out-of-bound N is refused");
            assert!(err.contains(token) && err.contains(bound), "{spec}: {err}");
        }
        // the serve_mix graphs stay accepted
        for spec in ["grid:2500:1", "rtree:2500:1", "gnp:1200:1"] {
            parse_graph_spec(spec).expect("in bounds");
        }
        // over the socket, N = 0 is an ERR reply, not a dead connection
        let (ep, server) = test_server();
        let mut client = Client::connect(&ep).expect("connect");
        let err = client.graph_spec("path:0:1").expect_err("N = 0");
        assert!(err.to_string().contains("N=0"), "{err}");
        client.ping().expect("connection survives an ERR");
        client.shutdown().expect("shutdown");
        server.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn uploaded_graphs_fingerprint_identically() {
        let (ep, server) = test_server();
        let mut client = Client::connect(&ep).expect("connect");
        let g = Family::Gnp.generate(30, 11);
        let info = client.upload(&g).expect("upload");
        assert_eq!(info.fingerprint, g.fingerprint());
        assert_eq!((info.nodes, info.edges), (g.node_count(), g.edge_count()));
        // the uploaded graph is immediately runnable
        let id = client
            .submit(info.fingerprint, &RunSpec::default())
            .expect("submit");
        let reply = client.wait(id).expect("wait");
        assert_eq!(reply.outputs.len(), g.node_count());
        client.shutdown().expect("shutdown");
        server.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn sweeps_enumerate_in_canonical_order_and_errors_stay_contained() {
        let (ep, server) = test_server();
        let mut client = Client::connect(&ep).expect("connect");
        let info = client.graph_spec("path:6:0").expect("graph");
        let sweep = SweepSpec::new(RunSpec::default())
            .over_algos(&[Algo::SimpleMst, Algo::Bfs])
            .over_seeds(&[1, 2, 3]);
        let ids = client.sweep(info.fingerprint, &sweep).expect("sweep");
        assert_eq!(ids.len(), 6, "2 algorithms × 3 seeds");
        for (id, spec) in ids.iter().zip(sweep.specs()) {
            let reply = client.wait(*id).expect("wait");
            assert_eq!(reply.report.rounds, spec.seed + 1, "canonical order held");
        }
        // an unknown graph is an ERR reply, not a dropped connection
        let err = client
            .submit(0xdead_beef, &RunSpec::default())
            .expect_err("unknown graph");
        assert!(err.to_string().contains("unknown graph"), "{err}");
        client.ping().expect("connection survives an ERR");
        client.shutdown().expect("shutdown");
        server.join().expect("server thread").expect("clean exit");
    }
}
