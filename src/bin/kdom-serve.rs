//! kdom-as-a-service: the job server and its command-line client.
//!
//! One binary, four roles:
//!
//! - `kdom-serve serve` — bind a socket, accept clients, and run jobs on
//!   a bounded worker pool (`--jobs`, 1..=256, default 4) fronted by the
//!   content-addressed result cache (`--cache-bytes`, default 64 MiB).
//!   Prints `listening on <endpoint>` once ready (an ephemeral
//!   `--listen tcp:127.0.0.1:0` resolves to its real port).
//! - `kdom-serve sweep` — install a graph on a running server, submit a
//!   cross-product sweep, wait for every job, and print one line per
//!   result plus the server's cache statistics.
//! - `kdom-serve stats` — print a running server's scheduler and cache
//!   counters.
//! - `kdom-serve shutdown` — ask a running server to drain and exit.
//!
//! Example:
//!
//! ```text
//! kdom-serve serve --listen tcp:127.0.0.1:7400 --jobs 4 &
//! kdom-serve sweep --connect tcp:127.0.0.1:7400 --graph grid:400:42 \
//!     --algos simple-mst,bfs --seeds 1,2,3
//! ```
//!
//! Exit codes: `0` success, `1` any failure (the offending command and
//! reason go to stderr).

use std::io::Write as _;
use std::process::ExitCode;

use kdom::congest::transport::Endpoint;
use kdom::congest::{Algo, ExecSpec, JobPool, RunSpec, SweepSpec};
use kdom::serve::{Client, Server};

#[path = "../cli_args.rs"]
mod cli_args;

use cli_args::Args;

const ROLES: &str = "serve | sweep | stats | shutdown";

impl Args {
    /// A comma-separated list flag (`--seeds 1,2,3`), empty when unset.
    fn list<T: std::str::FromStr>(&self, name: &str) -> Result<Vec<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(Vec::new()),
            Some(v) => v
                .split(',')
                .map(|x| {
                    x.parse()
                        .map_err(|e| format!("--{name} item {x:?} did not parse: {e}"))
                })
                .collect(),
        }
    }
}

fn connect(args: &Args) -> Result<Client, String> {
    let ep: Endpoint = args.require("connect")?.parse()?;
    Client::connect(&ep).map_err(|e| format!("connect {ep}: {e}"))
}

fn serve(args: &Args) -> Result<(), String> {
    let listen: Endpoint = args
        .parsed("listen", Endpoint::Tcp("127.0.0.1:0".into()))
        .map_err(|e| e.to_string())?;
    let jobs: usize = args.parsed("jobs", 4)?;
    if !(1..=256).contains(&jobs) {
        return Err(format!("--jobs {jobs} is outside 1..=256"));
    }
    let cache_bytes = args.parsed("cache-bytes", 64usize << 20)?;
    let pool = JobPool::new(jobs, cache_bytes, kdom::mst::service::runner());
    let server = Server::bind(&listen, pool).map_err(|e| format!("bind {listen}: {e}"))?;
    let ep = server
        .local_endpoint()
        .map_err(|e| format!("local endpoint: {e}"))?;
    println!("listening on {ep}");
    // scripted callers (CI, the smoke test) block on this line to know
    // the port — it must not sit in a stdio buffer
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| format!("serve: {e}"))
}

/// Builds the sweep's base [`RunSpec`] from the single-value flags.
fn base_spec(args: &Args) -> Result<RunSpec, String> {
    let mut spec = RunSpec::default()
        .with_k(args.parsed("k", 0u64)?)
        .with_seed(args.parsed("seed", 0u64)?)
        .with_trace(args.get("trace-dir").is_some());
    if let Some(algo) = args.get("algo") {
        spec = spec.with_algo(algo.parse()?);
    }
    match args.get("exec") {
        None | Some("sync") => {}
        Some("alpha") | Some("reliable-alpha") | Some("reliable") => {
            spec = spec.with_exec(ExecSpec::ReliableAlpha {
                max_delay: args.parsed("max-delay", 4u64)?,
            });
        }
        Some(other) => return Err(format!("--exec {other:?} is not sync or alpha")),
    }
    Ok(spec)
}

fn sweep(args: &Args) -> Result<(), String> {
    let mut client = connect(args)?;
    let info = client
        .graph_spec(args.require("graph")?)
        .map_err(|e| format!("install graph: {e}"))?;
    println!(
        "graph {:016x}: {} nodes, {} edges",
        info.fingerprint, info.nodes, info.edges
    );
    let algos: Vec<Algo> = args.list("algos")?;
    let sweep = SweepSpec::new(base_spec(args)?)
        .over_algos(&algos)
        .over_ks(&args.list("ks")?)
        .over_seeds(&args.list("seeds")?);
    let trace_dir = args.get("trace-dir").map(std::path::PathBuf::from);
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let ids = client
        .sweep(info.fingerprint, &sweep)
        .map_err(|e| format!("submit sweep: {e}"))?;
    for (id, spec) in ids.iter().zip(sweep.specs()) {
        let reply = client
            .wait(*id)
            .map_err(|e| format!("job {id} ({spec:?}): {e}"))?;
        println!(
            "job {id} algo={} k={} seed={} cached={} rounds={} messages={}",
            spec.algo,
            spec.k,
            spec.seed,
            u8::from(reply.from_cache),
            reply.report.rounds,
            reply.report.messages
        );
        if let Some(dir) = &trace_dir {
            let path = dir.join(format!("job-{id}.jsonl"));
            let mut file = std::fs::File::create(&path)
                .map_err(|e| format!("create {}: {e}", path.display()))?;
            client
                .trace(*id, |line| {
                    let _ = writeln!(file, "{line}");
                })
                .map_err(|e| format!("trace job {id}: {e}"))?;
        }
    }
    print_stats(&mut client)
}

fn print_stats(client: &mut Client) -> Result<(), String> {
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    println!(
        "server: {} submitted, {} engine runs, cache {} hits / {} misses, \
         {} evictions, {} entries ({} bytes), {} graphs",
        stats.pool.submitted,
        stats.pool.engine_runs,
        stats.pool.cache.hits,
        stats.pool.cache.misses,
        stats.pool.cache.evictions,
        stats.pool.cache.entries,
        stats.pool.cache.bytes,
        stats.graphs
    );
    Ok(())
}

fn main() -> ExitCode {
    let result = Args::parse(ROLES).and_then(|args| match args.role.as_str() {
        "serve" => serve(&args),
        "sweep" => sweep(&args),
        "stats" => print_stats(&mut connect(&args)?),
        "shutdown" => connect(&args)?
            .shutdown()
            .map_err(|e| format!("shutdown: {e}")),
        other => Err(format!("unknown role {other:?}: {ROLES}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("kdom-serve: {msg}");
            eprintln!(
                "usage: kdom-serve serve [--listen tcp:HOST:PORT] [--jobs N] [--cache-bytes B]\n\
                 \x20      kdom-serve sweep --connect EP --graph FAMILY:N:SEED \
                 [--algo A | --algos a,b] [--k K | --ks ...] [--seed S | --seeds ...] \
                 [--exec sync|alpha] [--max-delay D] [--trace-dir DIR]\n\
                 \x20      kdom-serve stats --connect EP\n\
                 \x20      kdom-serve shutdown --connect EP"
            );
            ExitCode::from(1)
        }
    }
}
