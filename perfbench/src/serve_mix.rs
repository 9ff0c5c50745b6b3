//! `serve_mix`: a closed-loop SUBMIT/WAIT traffic mix against an
//! in-process `kdom::serve::Server`.
//!
//! One *pass* starts a fresh server over a `JobPool` of one worker per
//! CPU, installs three small generated graphs, and lets
//! [`CLIENTS_PER_WORKER`] clients per worker work through their shares of
//! a fixed seeded request list — each client submits, waits for the
//! result, then sends its next request.
//! Requests draw from a Zipf-skewed key space of algorithm × k × run seed
//! × graph that is larger than the cache budget, so one pass mixes cache
//! hits, misses with inserts, and evictions. A run repeats passes until
//! `--seconds` have passed.
//!
//! Every reply is compared with the first reply seen for its key in the
//! run (a hit must be byte-identical to the run that filled the cache),
//! and a seeded sample of keys is certified against graphs regenerated
//! locally from the same `FAMILY:N:SEED` specs.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use kdom::congest::jobs::{Algo, CacheKey, JobPool, PoolStats, RunSpec, Runner};
use kdom::congest::transport::Endpoint;
use kdom::graph::Graph;
use kdom::serve::{parse_graph_spec, Client, Server, WaitReply};

use crate::certify;
use crate::metrics::{peak_rss_mb, quantile, Metrics, Outcome, Tally, PER_LAYER};
use crate::spans::Spans;
use crate::staged;
use crate::workloads::{guarded, layer_metrics, residual_ok, Config, Scale};

/// `k` values of the key space (`0` = the paper's default `⌈√n⌉`).
const KS: [u64; 3] = [0, 4, 16];

/// Run seeds of the key space: equal outputs, distinct cache keys.
const RUN_SEEDS: u64 = 4;

/// Cache entries the budget holds, as a count of the largest output.
const CACHE_ENTRIES: usize = 24;

/// Closed-loop clients per pool worker. A `WAIT` reply travels as two
/// frames, and the second meets Nagle's algorithm and the client's
/// delayed ACK: even a cache hit waits about 40 ms on the wire. One
/// client per worker would leave the workers idle most of the time, so
/// each worker gets four.
const CLIENTS_PER_WORKER: usize = 4;

/// Passes every run makes at least: 3 × 400 requests keep more than ten
/// samples beyond `job_p99_ms` however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Extra server starts per untraced run that only set up and shut down,
/// so `setup_s` is a median over more than the few full passes.
const SETUP_PROBES: usize = 5;

/// Keys per algorithm whose outputs are certified against the oracles.
const SAMPLE_PER_ALGO: usize = 2;

/// Seed of the key popularity order and the request multiset.
const MIX_SEED: u64 = 0x4B44_4F4D;

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix) {
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
}

/// SplitMix64: a tiny seeded generator for the request mix.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The traffic of one seed: the graphs to install and the request list
/// every pass replays.
struct Mix {
    graph_specs: Vec<String>,
    /// `(graph index, spec)` in request order.
    requests: Vec<(usize, RunSpec)>,
    cache_budget: usize,
}

impl Mix {
    /// The graphs' seeds and the request order come from `seed`. The
    /// key popularity and the multiset of requests are fixed, so every
    /// seed asks for the same amount of simulation and `sim_rounds`
    /// moves only with the generated graphs.
    fn new(seed: u64, scale: Scale) -> Mix {
        let mut rng = SplitMix(seed ^ 0x5EED_5EED);
        let mut fixed = SplitMix(MIX_SEED);
        let (sizes, requests) = match scale {
            Scale::Full => ([2_500, 2_500, 1_200], 400),
            Scale::Smoke => ([100, 120, 80], 60),
        };
        let graph_specs = ["grid", "rtree", "gnp"]
            .iter()
            .zip(sizes)
            .map(|(family, n)| format!("{family}:{n}:{}", rng.next() % 1_000_000))
            .collect();
        let mut keys = Vec::new();
        for graph in 0..sizes.len() {
            for algo in Algo::ALL {
                for k in KS {
                    for s in 0..RUN_SEEDS {
                        keys.push((
                            graph,
                            RunSpec::default().with_algo(algo).with_k(k).with_seed(s),
                        ));
                    }
                }
            }
        }
        // a fixed popularity order and Zipf(1) draws over it ...
        shuffle(&mut keys, &mut fixed);
        let weights: Vec<f64> = (1..=keys.len()).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut requests: Vec<(usize, RunSpec)> = (0..requests)
            .map(|_| {
                let mut x = fixed.unit() * total;
                let mut i = 0;
                while i + 1 < keys.len() && x >= weights[i] {
                    x -= weights[i];
                    i += 1;
                }
                keys[i].clone()
            })
            .collect();
        // ... sent in a seeded order
        shuffle(&mut requests, &mut rng);
        let largest = sizes.iter().max().copied().unwrap_or(1);
        Mix {
            graph_specs,
            requests,
            cache_budget: CACHE_ENTRIES * (largest * 8 + 128),
        }
    }
}

/// Queue-wait and runner timings of the pool's jobs in a traced pass:
/// clients note when they submit each key, the wrapped runner looks the
/// key up when a worker picks the job.
#[derive(Default)]
struct JobProbe {
    submitted: Mutex<HashMap<CacheKey, VecDeque<Instant>>>,
    done: Mutex<JobSamples>,
}

#[derive(Default)]
struct JobSamples {
    queue_wait: Vec<f64>,
    runner: Vec<f64>,
    spans: Spans,
}

impl JobProbe {
    fn note_submit(&self, key: CacheKey, at: Instant) {
        lock(&self.submitted).entry(key).or_default().push_back(at);
    }

    /// Forgets a submission that the cache served (no runner will pick
    /// it up).
    fn forget(&self, key: CacheKey, at: Instant) {
        if let Some(q) = lock(&self.submitted).get_mut(&key) {
            q.retain(|&t| t != at);
        }
    }

    /// A pool runner that runs the traced replays and records how long
    /// each job waited in the queue and ran.
    fn runner(self: &Arc<Self>) -> Runner {
        let probe = Arc::clone(self);
        Arc::new(move |g, spec| {
            let picked = Instant::now();
            let submitted = lock(&probe.submitted)
                .get_mut(&CacheKey::of(g, spec))
                .and_then(VecDeque::pop_front);
            let mut tr = Spans::default();
            let start = Instant::now();
            let out = staged::run_spec(&mut tr, g, spec);
            let ran = start.elapsed();
            let mut done = lock(&probe.done);
            if let Some(t) = submitted {
                done.queue_wait.push(picked.duration_since(t).as_secs_f64());
            }
            done.runner.push(ran.as_secs_f64());
            done.spans.absorb(&tr);
            drop(done);
            // the pool turns a panic into a failed job, as for the
            // production runner's stage failures
            Ok(out.unwrap_or_else(|e| panic!("{e}")))
        })
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark thread panicked while holding a lock")
}

/// The first reply of every key in the run, with the spec that made it.
type Seen = Mutex<BTreeMap<(usize, u64), (RunSpec, Arc<WaitReply>)>>;

/// One client's view of a pass.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    latency: Vec<f64>,
    submit_rtt: Vec<f64>,
    wait_rtt_hit: Vec<f64>,
    rounds: u64,
    spans: Spans,
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    setup_s: f64,
    install_s: f64,
    wall_s: f64,
    rounds: u64,
    clients: Vec<ClientLog>,
    stats: PoolStats,
    tally: Tally,
}

impl Pass {
    fn fail(&mut self, what: &str, e: impl ToString) {
        self.tally.attempt();
        self.tally.check(what, Err(e.to_string()));
    }
}

/// One client's closed loop over its share of the requests.
fn drive(
    ep: &Endpoint,
    fps: &[u64],
    requests: &[(usize, RunSpec)],
    seen: &Seen,
    probe: Option<&JobProbe>,
    start: &Barrier,
) -> ClientLog {
    let mut log = ClientLog::default();
    let client = Client::connect(ep).and_then(|mut c| c.ping().map(|()| c));
    start.wait();
    let mut client = match client {
        Ok(c) => c,
        Err(e) => {
            log.tally.attempt();
            log.tally.check("connect", Err(e.to_string()));
            return log;
        }
    };
    log.spans.span("client", |tr| {
        for (graph, spec) in requests {
            log.tally.attempt();
            let key = CacheKey {
                graph: fps[*graph],
                spec: spec.canonical_hash(),
            };
            let t0 = Instant::now();
            if let Some(p) = probe {
                p.note_submit(key, t0);
            }
            let id = client.submit(fps[*graph], spec);
            let t1 = Instant::now();
            let reply = id.and_then(|id| client.wait(id));
            let t2 = Instant::now();
            tr.record("serve.submit", t1 - t0);
            tr.record("serve.wait", t2 - t1);
            let reply = match reply {
                Ok(r) => r,
                Err(e) => {
                    log.tally.check("job", Err(e.to_string()));
                    continue;
                }
            };
            log.latency.push((t2 - t0).as_secs_f64());
            log.submit_rtt.push((t1 - t0).as_secs_f64());
            if reply.from_cache {
                log.wait_rtt_hit.push((t2 - t1).as_secs_f64());
                if let Some(p) = probe {
                    p.forget(key, t0);
                }
            }
            log.rounds += reply.report.rounds;
            let mut seen = lock(seen);
            let same = match seen.get(&(*graph, key.spec)) {
                Some((_, first))
                    if first.report != reply.report || first.outputs != reply.outputs =>
                {
                    Err(format!(
                        "reply for {} differs from the key's first",
                        spec.algo
                    ))
                }
                Some(_) => Ok(()),
                None => {
                    seen.insert((*graph, key.spec), (spec.clone(), Arc::new(reply)));
                    Ok(())
                }
            };
            drop(seen);
            log.tally.check("hit identity", same);
        }
    });
    log
}

/// Starts a server, installs the graphs, runs `clients` clients over
/// shares of the requests, and shuts the server down.
fn pass(
    mix: &Mix,
    workers: usize,
    clients: usize,
    runner: Runner,
    seen: &Seen,
    probe: Option<&JobProbe>,
) -> Pass {
    let mut out = Pass::default();
    let setup = Instant::now();
    let listen: Endpoint = "tcp:127.0.0.1:0"
        .parse()
        .expect("a literal endpoint parses");
    let pool = JobPool::new(workers, mix.cache_budget, runner);
    let (server, ep) = match Server::bind(&listen, pool).and_then(|s| {
        let ep = s.local_endpoint()?;
        Ok((s, ep))
    }) {
        Ok(s) => s,
        Err(e) => {
            out.fail("server start", e);
            return out;
        }
    };
    let serving = std::thread::spawn(move || server.run());
    out.setup_s = setup.elapsed().as_secs_f64();
    // Accepting a connection waits on the server's poll interval, which
    // is not set-up work, so the clock pauses while the control client
    // connects. Should it fail, the server thread is left to end with
    // the process: nothing else could ask it to stop.
    let mut control = match Client::connect(&ep).and_then(|mut c| c.ping().map(|()| c)) {
        Ok(c) => c,
        Err(e) => {
            out.fail("control connection", e);
            return out;
        }
    };
    let install = Instant::now();
    let fps: std::io::Result<Vec<u64>> = mix
        .graph_specs
        .iter()
        .map(|s| control.graph_spec(s).map(|info| info.fingerprint))
        .collect();
    out.install_s = install.elapsed().as_secs_f64();
    out.setup_s += out.install_s;
    match fps {
        Ok(fps) if clients > 0 => run_clients(&mut out, mix, clients, &ep, &fps, seen, probe),
        Ok(_) => {}
        Err(e) => out.fail("graph install", e),
    }
    match control.stats() {
        Ok(s) => out.stats = s.pool,
        Err(e) => out.fail("stats", e),
    }
    match control.shutdown() {
        Ok(()) => match serving.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => out.fail("server", e),
            Err(_) => out.fail("server", "the server thread panicked"),
        },
        Err(e) => out.fail("shutdown", e),
    }
    out
}

/// Runs `clients` client threads over round-robin shares of the request
/// list, all released at once; records the pass's wall time.
fn run_clients(
    out: &mut Pass,
    mix: &Mix,
    clients: usize,
    ep: &Endpoint,
    fps: &[u64],
    seen: &Seen,
    probe: Option<&JobProbe>,
) {
    let start = Barrier::new(clients + 1);
    let shares: Vec<Vec<(usize, RunSpec)>> = (0..clients)
        .map(|c| {
            mix.requests
                .iter()
                .skip(c)
                .step_by(clients)
                .cloned()
                .collect()
        })
        .collect();
    std::thread::scope(|scope| {
        let start = &start;
        let clients: Vec<_> = shares
            .iter()
            .map(|share| scope.spawn(move || drive(ep, fps, share, seen, probe, start)))
            .collect();
        start.wait();
        let t = Instant::now();
        out.clients = clients
            .into_iter()
            .map(|c| c.join().expect("a client thread panicked"))
            .collect();
        out.wall_s = t.elapsed().as_secs_f64();
    });
    out.rounds = out.clients.iter().map(|c| c.rounds).sum();
}

/// Certifies a seeded sample of keys per algorithm against locally
/// regenerated graphs. Returns the oracle time and the local graphs'
/// footprint.
fn certify_sample(mix: &Mix, seed: u64, seen: &Seen, tally: &mut Tally) -> (Duration, u64) {
    let start = Instant::now();
    let graphs: Vec<Result<Graph, String>> = mix
        .graph_specs
        .iter()
        .map(|s| parse_graph_spec(s))
        .collect();
    let bytes = graphs.iter().flatten().map(Graph::memory_bytes).sum();
    let seen = lock(seen);
    let mut rng = SplitMix(seed ^ 0xCE27_1F1E);
    for algo in Algo::ALL {
        let mut keys: Vec<_> = seen.iter().filter(|(_, (s, _))| s.algo == algo).collect();
        for _ in 0..SAMPLE_PER_ALGO.min(keys.len()) {
            let ((graph, _), (spec, reply)) =
                keys.swap_remove((rng.next() % keys.len() as u64) as usize);
            let verdict = graphs[*graph]
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|g| guarded(|| certify::job(g, spec, &reply.outputs)));
            tally.check(
                &format!("sample {algo} on {}", mix.graph_specs[*graph]),
                verdict,
            );
        }
    }
    (start.elapsed(), bytes)
}

/// Runs `serve_mix`: untraced passes for the end-to-end metrics, or pairs
/// of an untraced and a traced pass for the per-layer ones.
pub fn run(cfg: &Config, traced: bool) -> Outcome {
    let mix = Mix::new(cfg.seed, cfg.scale);
    let workers = std::thread::available_parallelism().map_or(2, usize::from);
    let seen: Seen = Mutex::default();
    let mut tally = Tally::default();
    let clients = workers * CLIENTS_PER_WORKER;
    let mut setups = Vec::new();
    if !traced {
        for _ in 0..SETUP_PROBES {
            let p = pass(&mix, workers, 0, kdom::mst::service::runner(), &seen, None);
            tally.absorb(&p.tally);
            setups.push(p.setup_s);
        }
    }
    let mut passes = Vec::new();
    let mut traced_passes = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < cfg.seconds {
        let plain = pass(
            &mix,
            workers,
            clients,
            kdom::mst::service::runner(),
            &seen,
            None,
        );
        let failed = plain.tally.failed > 0 || plain.clients.is_empty();
        passes.push(plain);
        if traced && !failed {
            let probe = Arc::new(JobProbe::default());
            let p = pass(&mix, workers, clients, probe.runner(), &seen, Some(&probe));
            let samples = std::mem::take(&mut *lock(&probe.done));
            traced_passes.push((p, samples));
        }
        if failed {
            break;
        }
    }
    let sim_rounds = passes[0].rounds;
    for p in passes.iter().chain(traced_passes.iter().map(|(p, _)| p)) {
        tally.absorb(&p.tally);
        for c in &p.clients {
            tally.absorb(&c.tally);
        }
        let same = if p.rounds == sim_rounds {
            Ok(())
        } else {
            Err(format!(
                "pass rounds {} differ from the first pass's {sim_rounds}",
                p.rounds
            ))
        };
        tally.check("pass rounds", same);
    }
    let (verify, graph_bytes) = certify_sample(&mix, cfg.seed, &seen, &mut tally);

    let metrics = if traced {
        traced_metrics(&passes, &traced_passes, &mut tally, verify, graph_bytes)
    } else {
        let latency: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.clients.iter())
            .flat_map(|c| c.latency.iter().copied())
            .collect();
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        setups.extend(passes.iter().map(|p| p.setup_s));
        let mut m = Metrics::default();
        m.set("run_s", quantile(&walls, 0.5));
        m.set("setup_s", quantile(&setups, 0.5));
        m.set("peak_rss_mb", peak_rss_mb());
        m.set("sim_rounds", sim_rounds as f64);
        m.set("job_p50_ms", quantile(&latency, 0.5) * 1e3);
        m.set("job_p99_ms", quantile(&latency, 0.99) * 1e3);
        m.set(
            "jobs_per_s",
            latency.len() as f64 / walls.iter().sum::<f64>(),
        );
        m
    };
    Outcome { tally, metrics }
}

fn traced_metrics(
    plain: &[Pass],
    traced: &[(Pass, JobSamples)],
    tally: &mut Tally,
    verify: Duration,
    graph_bytes: u64,
) -> Metrics {
    let mut reps = Vec::new();
    for ((p, samples), base) in traced.iter().zip(plain) {
        let mut m = layer_metrics(&samples.spans);
        let mut residual: f64 = 0.0;
        for c in &p.clients {
            let root = c.spans.total("client");
            if root.inclusive > Duration::ZERO {
                residual = residual
                    .max(100.0 * root.self_time.as_secs_f64() / root.inclusive.as_secs_f64());
            }
        }
        tally.check("span coverage", residual_ok(residual));
        let all = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
            p.clients
                .iter()
                .flat_map(|c| f(c).iter().copied())
                .collect()
        };
        let cache = p.stats.cache;
        let lookups = cache.hits + cache.misses;
        m.set(
            "jobs.queue_wait_p50_ms",
            quantile(&samples.queue_wait, 0.5) * 1e3,
        );
        m.set(
            "jobs.queue_wait_p99_ms",
            quantile(&samples.queue_wait, 0.99) * 1e3,
        );
        m.set("jobs.runner_p50_ms", quantile(&samples.runner, 0.5) * 1e3);
        m.set("jobs.cache_lookups", lookups as f64);
        if lookups > 0 {
            m.set("jobs.cache_hit_ratio", cache.hits as f64 / lookups as f64);
        }
        m.set("jobs.cache_evictions", cache.evictions as f64);
        m.set("jobs.engine_runs", p.stats.engine_runs as f64);
        m.set(
            "serve.submit_rtt_ms",
            quantile(&all(|c| &c.submit_rtt), 0.5) * 1e3,
        );
        m.set(
            "serve.wait_rtt_hit_ms",
            quantile(&all(|c| &c.wait_rtt_hit), 0.5) * 1e3,
        );
        m.set("graph.build_s", p.install_s);
        m.set("graph.bytes", graph_bytes as f64);
        m.set("verify.s", verify.as_secs_f64());
        m.set("trace.residual_pct", residual);
        m.set("trace.overhead_s", p.wall_s - base.wall_s);
        reps.push(m);
    }
    if reps.is_empty() {
        let mut m = Metrics::default();
        for (name, _) in PER_LAYER {
            m.set(name, f64::NAN);
        }
        return m;
    }
    Metrics::median_of(&reps)
}
