//! Multi-process shard runner for the CONGEST engine's socket transport.
//!
//! One binary, three roles:
//!
//! - `kdom-shard coord` — bind a socket, accept `--shards` workers, and
//!   drive the round clock (the coordinator never runs protocol code).
//! - `kdom-shard worker` — connect to a coordinator and execute one
//!   contiguous shard of the automata.
//! - `kdom-shard run` — demo convenience: bind an ephemeral port, spawn
//!   `--shards` worker copies of this same binary, and coordinate them.
//!
//! Every process must be given the *same* `--graph` and `--proto` spec;
//! the handshake's graph fingerprint rejects drift. Example:
//!
//! ```text
//! kdom-shard run --shards 4 --graph grid:2500:42 --proto simple-mst
//! ```
//!
//! Exit codes: `0` success, `2` a peer was lost (socket dropped, silent
//! past the heartbeat deadline, or handshake mismatch), `3` the
//! `--die-at-round` test hook fired, `1` any other failure.

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use kdom::congest::transport::{
    coordinate, net_timeout, run_worker, CoordListener, CoordOpts, Endpoint, WorkerOpts,
};
use kdom::congest::{EngineConfig, JsonlSink, SimError, TraceSink};
use kdom::core::dist::fragments::{schedule_end, FragmentNode};
use kdom::graph::generators::Family;
use kdom::graph::Graph;
use kdom::mst::fastmst::default_k;

/// A `--graph FAMILY:N:SEED` spec.
struct GraphSpec {
    family: Family,
    n: usize,
    seed: u64,
}

impl GraphSpec {
    fn parse(s: &str) -> Result<Self, String> {
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
        let n = n.parse().map_err(|e| format!("bad node count: {e}"))?;
        let seed = seed.parse().map_err(|e| format!("bad seed: {e}"))?;
        Ok(GraphSpec { family, n, seed })
    }

    fn build(&self) -> Graph {
        self.family.generate(self.n, self.seed)
    }
}

/// A `--proto` spec. Only `simple-mst[:K]` exists today; the enum keeps
/// the dispatch explicit for when more stages ride the transport.
enum ProtoSpec {
    SimpleMst { k: Option<usize> },
}

impl ProtoSpec {
    fn parse(s: &str) -> Result<Self, String> {
        match s.split_once(':') {
            None if s == "simple-mst" => Ok(ProtoSpec::SimpleMst { k: None }),
            Some(("simple-mst", k)) => {
                let k = k.parse().map_err(|e| format!("bad k: {e}"))?;
                Ok(ProtoSpec::SimpleMst { k: Some(k) })
            }
            _ => Err(format!("unknown protocol {s:?} (try simple-mst[:K])")),
        }
    }

    fn k_for(&self, g: &Graph) -> usize {
        match self {
            ProtoSpec::SimpleMst { k } => k.unwrap_or_else(|| default_k(g.node_count())),
        }
    }
}

struct Args {
    role: String,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut it = std::env::args().skip(1);
        let role = it.next().ok_or("missing role: coord | worker | run")?;
        let mut flags = Vec::new();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_string(), value));
        }
        Ok(Args { role, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("--{name} {v:?} did not parse: {e}")),
        }
    }
}

fn harvest(node: &FragmentNode) -> u64 {
    // parent port + 1, with 0 for fragment roots: one u64 per node, enough
    // to reconstruct the fragment forest coordinator-side
    node.parent.map_or(0, |p| p.0 as u64 + 1)
}

fn sim_exit(e: &SimError) -> ExitCode {
    eprintln!("kdom-shard: {e}");
    match e {
        SimError::PeerLost { .. } => ExitCode::from(2),
        _ => ExitCode::from(1),
    }
}

fn worker(args: &Args) -> Result<ExitCode, String> {
    let graph = GraphSpec::parse(args.require("graph")?)?.build();
    let proto = ProtoSpec::parse(args.require("proto")?)?;
    let k = proto.k_for(&graph);
    let connect: Endpoint = args.require("connect")?.parse()?;
    let shard: usize = args
        .require("shard")?
        .parse()
        .map_err(|e| format!("bad --shard: {e}"))?;
    let shards: usize = args
        .require("shards")?
        .parse()
        .map_err(|e| format!("bad --shards: {e}"))?;
    let die_at_round = match args.get("die-at-round") {
        None => None,
        Some(v) => Some(v.parse().map_err(|e| format!("bad --die-at-round: {e}"))?),
    };
    let opts = WorkerOpts {
        connect,
        shard,
        shards,
        die_at_round,
    };
    match run_worker(&graph, |_, id| FragmentNode::new(k, id), harvest, &opts) {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => Ok(sim_exit(&e)),
    }
}

fn coord_opts(args: &Args, graph: &Graph, k: usize) -> Result<CoordOpts, String> {
    let shards: usize = args
        .require("shards")?
        .parse()
        .map_err(|e| format!("bad --shards: {e}"))?;
    if shards == 0 || shards > graph.node_count() {
        return Err(format!(
            "--shards {shards} out of range for {} nodes",
            graph.node_count()
        ));
    }
    let max_rounds = args.parsed("max-rounds", schedule_end(k) + 8)?;
    let timeout_ms: u64 = args.parsed("timeout-ms", net_timeout().as_millis() as u64)?;
    Ok(CoordOpts {
        shards,
        // the engine knobs are this binary's deployment setting; the
        // transport is chosen by --listen/--connect flags
        config: EngineConfig::from_env(),
        plan: None,
        max_rounds,
        timeout: Duration::from_millis(timeout_ms),
    })
}

fn trace_sink(args: &Args) -> Result<Option<Box<dyn TraceSink>>, String> {
    match args.get("trace") {
        None => Ok(None),
        Some(path) => {
            let sink =
                JsonlSink::append(path).map_err(|e| format!("cannot open trace {path:?}: {e}"))?;
            Ok(Some(Box::new(sink)))
        }
    }
}

fn report_outcome(
    result: Result<kdom::congest::transport::DistOutcome, SimError>,
) -> Result<ExitCode, String> {
    match result {
        Ok(outcome) => {
            let roots = outcome.outputs.iter().filter(|&&p| p == 0).count();
            println!("{:#?}", outcome.report);
            println!(
                "outputs: {} nodes, {} fragment roots",
                outcome.outputs.len(),
                roots
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => Ok(sim_exit(&e)),
    }
}

fn coord(args: &Args) -> Result<ExitCode, String> {
    let graph = GraphSpec::parse(args.require("graph")?)?.build();
    let proto = ProtoSpec::parse(args.require("proto")?)?;
    let k = proto.k_for(&graph);
    let opts = coord_opts(args, &graph, k)?;
    let listen: Endpoint = args.require("listen")?.parse()?;
    let listener = CoordListener::bind(&listen).map_err(|e| format!("bind {listen}: {e}"))?;
    if let Ok(ep) = listener.local_endpoint() {
        println!("listening on {ep}");
    }
    report_outcome(coordinate(listener, &graph, &opts, trace_sink(args)?))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let graph_spec = args.require("graph")?;
    let proto_spec = args.require("proto")?;
    let graph = GraphSpec::parse(graph_spec)?.build();
    let proto = ProtoSpec::parse(proto_spec)?;
    let k = proto.k_for(&graph);
    let opts = coord_opts(args, &graph, k)?;
    let listener = CoordListener::bind(&Endpoint::Tcp("127.0.0.1:0".into()))
        .map_err(|e| format!("bind: {e}"))?;
    let ep = listener
        .local_endpoint()
        .map_err(|e| format!("local endpoint: {e}"))?;
    println!("coordinating {} workers on {ep}", opts.shards);
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut children = Vec::new();
    for shard in 0..opts.shards {
        let child = Command::new(&exe)
            .args([
                "worker",
                "--connect",
                &ep.to_string(),
                "--shard",
                &shard.to_string(),
                "--shards",
                &opts.shards.to_string(),
                "--graph",
                graph_spec,
                "--proto",
                proto_spec,
            ])
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn worker {shard}: {e}"))?;
        children.push(child);
    }
    let code = report_outcome(coordinate(listener, &graph, &opts, trace_sink(args)?))?;
    for mut child in children {
        let _ = child.wait();
    }
    Ok(code)
}

fn main() -> ExitCode {
    let result = Args::parse().and_then(|args| match args.role.as_str() {
        "worker" => worker(&args),
        "coord" => coord(&args),
        "run" => run(&args),
        other => Err(format!("unknown role {other:?}: coord | worker | run")),
    });
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("kdom-shard: {msg}");
            eprintln!(
                "usage: kdom-shard run --shards N --graph grid:2500:42 --proto simple-mst[:K] \
                 [--max-rounds M] [--timeout-ms T] [--trace out.jsonl]"
            );
            ExitCode::from(1)
        }
    }
}
