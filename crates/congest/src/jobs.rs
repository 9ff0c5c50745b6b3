//! kdom as a service: typed run specifications, a bounded job
//! scheduler, and a content-addressed result cache.
//!
//! [`RunSpec`] makes a run an explicit *value* — algorithm, `k`, seed,
//! worker threads, execution backend, fault plan, trace toggle.
//! Everything downstream (the engine config, the executor, the cache
//! key) is derived from the spec, never from the environment; the
//! engine's other schedule settings keep their [`EngineConfig`]
//! defaults, which change wall time only.
//!
//! On top of the spec sit two service pieces:
//!
//! * [`JobPool`] — a bounded worker pool running many independent
//!   seeded simulations concurrently. Submission returns a
//!   [`JobHandle`] exposing status, the final [`JobOutput`] (report +
//!   harvested per-node outputs + captured trace), and incremental
//!   trace streaming. Because the engine itself is deterministic and
//!   each job's trace policy is thread-scoped
//!   ([`crate::trace::with_thread_trace`]), a pool of any size produces
//!   outputs byte-identical to serial execution ([`run_serial`]).
//! * [`ResultCache`] — results keyed by [`CacheKey`]: the graph's
//!   canonical fingerprint ([`Graph::fingerprint`], the same value the
//!   socket handshake compares) paired with the spec's canonical hash.
//!   A repeated submission is served from the cache without touching
//!   the engine; cost-aware (GreedyDual-Size-Frequency) eviction keeps
//!   the cache inside a byte budget.
//!
//! The pool is deliberately algorithm-agnostic: it executes an opaque
//! [`Runner`] closure, so this crate stays below the algorithm crates
//! in the dependency order. `kdom_mst::service` provides the runner
//! that dispatches on [`Algo`]; the `kdom-serve` binary puts a socket
//! front end on the whole stack.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use kdom_graph::Graph;

use crate::engine::EngineConfig;
use crate::faults::FaultPlan;
use crate::report::RunReport;
use crate::sim::SimError;
use crate::trace::{self, MemorySink, ThreadTrace};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------
// RunSpec
// ---------------------------------------------------------------------

/// The algorithm a job runs. Only compositions whose execution is fully
/// spec-driven are offered as a service — an algorithm that still read
/// knobs mid-run would break the cache's claim that equal keys mean
/// equal results.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// SimpleMST fragment growth to depth `k` (paper §2).
    SimpleMst,
    /// The general-graph fast `k`-dominating set composition (paper §3):
    /// SimpleMST fragments, the charged `DOMPartition`, and the
    /// within-cluster solver.
    FastDomG,
    /// Distributed BFS layering from node 0 (the primitive the paper's
    /// compositions lean on).
    Bfs,
}

impl Algo {
    /// Every service algorithm, in canonical order.
    pub const ALL: [Algo; 3] = [Algo::SimpleMst, Algo::FastDomG, Algo::Bfs];

    /// Stable kebab-case label (wire protocol, bench rows).
    pub fn label(self) -> &'static str {
        match self {
            Algo::SimpleMst => "simple-mst",
            Algo::FastDomG => "fastdom-g",
            Algo::Bfs => "bfs",
        }
    }

    /// Parses a label or its aliases; `None` for unknown strings.
    pub fn parse(s: &str) -> Option<Algo> {
        match s {
            "simple-mst" | "simplemst" | "mst" => Some(Algo::SimpleMst),
            "fastdom-g" | "fastdom" | "dom" => Some(Algo::FastDomG),
            "bfs" => Some(Algo::Bfs),
            _ => None,
        }
    }

    fn tag(self) -> u64 {
        match self {
            Algo::SimpleMst => 1,
            Algo::FastDomG => 2,
            Algo::Bfs => 3,
        }
    }
}

impl fmt::Display for Algo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Algo {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Algo::parse(s)
            .ok_or_else(|| format!("unknown algorithm {s:?} (use simple-mst, fastdom-g, or bfs)"))
    }
}

/// Which execution backend a job uses. The heavyweight member of the
/// core crate's `Executor` (the fault plan) lives on the [`RunSpec`]
/// itself, so this stays `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecSpec {
    /// Lock-step synchronous CONGEST rounds.
    Sync,
    /// Synchronizer α over a faulty asynchronous network with the
    /// reliable (ARQ) transport; base delays are seeded by
    /// [`RunSpec::seed`].
    ReliableAlpha {
        /// Maximum base link delay in virtual time units (≥ 1).
        max_delay: u64,
    },
}

/// A fully-specified simulation run: everything that decides the
/// outputs, and nothing that doesn't.
///
/// Construction is programmatic ([`Default`] plus the `with_*`
/// builders). The spec is the unit of scheduling ([`JobPool::submit`])
/// and — through
/// [`RunSpec::canonical_hash`] — half of the result-cache key.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// The algorithm to run.
    pub algo: Algo,
    /// The paper's `k` parameter; `0` means "auto": the dispatcher
    /// substitutes the paper's default `k(n)` for the input graph.
    pub k: u64,
    /// The run seed. Seeds the α executor's per-message base delays;
    /// always part of the cache key, so sweeps over seeds occupy
    /// distinct cache slots even for the (deterministic) sync backend.
    pub seed: u64,
    /// Round-engine worker threads (see [`EngineConfig::threads`]).
    pub threads: usize,
    /// The execution backend.
    pub exec: ExecSpec,
    /// The fault adversary (fault-free by default). Only
    /// [`ExecSpec::ReliableAlpha`] runs under it; a sync spec's run is
    /// fault-free whatever the plan says.
    pub faults: FaultPlan,
    /// Capture a per-job JSONL trace into the job's [`MemorySink`]
    /// (streamed by `kdom-serve` subscribers, returned in
    /// [`JobOutput::trace`]).
    pub trace: bool,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            algo: Algo::SimpleMst,
            k: 0,
            seed: 0,
            threads: EngineConfig::default().threads,
            exec: ExecSpec::Sync,
            faults: FaultPlan::new(0),
            trace: false,
        }
    }
}

impl RunSpec {
    /// Returns the spec with the algorithm replaced.
    pub fn with_algo(mut self, algo: Algo) -> Self {
        self.algo = algo;
        self
    }

    /// Returns the spec with `k` replaced (`0` = auto).
    pub fn with_k(mut self, k: u64) -> Self {
        self.k = k;
        self
    }

    /// Returns the spec with the run seed replaced.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the spec with the engine worker count replaced.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns the spec with the execution backend replaced.
    pub fn with_exec(mut self, exec: ExecSpec) -> Self {
        self.exec = exec;
        self
    }

    /// Returns the spec with the fault plan replaced.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Returns the spec with per-job trace capture enabled or not.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// The round-engine configuration this spec describes: the default
    /// schedule on [`RunSpec::threads`] workers. Tracing is *not* part
    /// of it — the trace policy is installed thread-locally by the pool,
    /// and the engine picks it up at its attach point.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::default().with_threads(self.threads)
    }

    /// The spec's canonical FNV-1a hash — the spec half of the cache
    /// key. Every field is folded in (a tagged, length-prefixed word
    /// stream, so permuted collections cannot collide structurally):
    /// specs differing in *any* field — seed, `k`, thread count, fault
    /// plan, trace toggle — hash differently by construction. Threads are
    /// included even though the engine's outputs are byte-identical
    /// across them: the service caches *runs*, and a run's identity is
    /// its full spec.
    pub fn canonical_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(4); // spec schema version
        h.word(self.algo.tag());
        h.word(self.k);
        h.word(self.seed);
        h.word(self.threads as u64);
        match self.exec {
            ExecSpec::Sync => h.word(0),
            ExecSpec::ReliableAlpha { max_delay } => {
                h.word(1);
                h.word(max_delay);
            }
        }
        h.word(u64::from(self.trace));
        let p = &self.faults;
        h.word(p.seed);
        h.word(p.drop_prob.to_bits());
        h.word(p.dup_prob.to_bits());
        h.word(p.max_extra_delay);
        h.word(p.crashes.len() as u64);
        for c in &p.crashes {
            h.word(c.node.0 as u64);
            h.word(c.at);
        }
        h.word(p.link_downs.len() as u64);
        for d in &p.link_downs {
            h.word(d.edge.0 as u64);
            h.word(d.from);
            h.word(d.until);
        }
        h.word(p.epochs.len() as u64);
        for e in &p.epochs {
            h.word(e.at);
            h.word(e.events.len() as u64);
            for ev in &e.events {
                h.str(ev.kind());
                let (a, b) = ev.endpoints();
                h.word(a);
                h.opt(b);
                h.opt(ev.weight());
            }
        }
        h.finish()
    }
}

/// Incremental FNV-1a over a tagged word stream (the same constants as
/// [`Graph::fingerprint`]).
struct Fnv(u64);

impl Fnv {
    const PRIME: u64 = 0x100_0000_01b3;

    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(Self::PRIME);
    }

    fn opt(&mut self, x: Option<u64>) {
        match x {
            None => self.word(0),
            Some(v) => {
                self.word(1);
                self.word(v);
            }
        }
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------

/// The content address of a result: *what graph* (its canonical
/// topology fingerprint — the same value the socket handshake compares)
/// under *what spec* (its canonical hash). Two submissions with equal
/// keys are the same run; the second is served from the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`Graph::fingerprint`] of the input graph.
    pub graph: u64,
    /// [`RunSpec::canonical_hash`] of the run spec.
    pub spec: u64,
}

impl CacheKey {
    /// The key for running `spec` on `graph`.
    pub fn of(graph: &Graph, spec: &RunSpec) -> Self {
        CacheKey {
            graph: graph.fingerprint(),
            spec: spec.canonical_hash(),
        }
    }
}

/// Everything a finished job produced: the engine's accounting, the
/// harvested per-node outputs (one `u64` per node, algorithm-defined),
/// and the captured JSONL trace lines when [`RunSpec::trace`] was set.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct JobOutput {
    /// The absorbed [`RunReport`] of the whole composition.
    pub report: RunReport,
    /// One harvested value per node, in node order. SimpleMST: parent
    /// port + 1 (0 = fragment root). FastDomG: the dominating center's
    /// application id. BFS: parent port + 1 (0 = the BFS root).
    pub outputs: Vec<u64>,
    /// The job's captured JSONL trace (empty when tracing was off).
    pub trace: Vec<String>,
}

impl JobOutput {
    /// The bytes this entry is charged against the cache budget.
    pub fn cost_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.outputs.len() * std::mem::size_of::<u64>()
            + self
                .trace
                .iter()
                .map(|l| l.len() + std::mem::size_of::<String>())
                .sum::<usize>()
    }
}

/// Running counters of a [`ResultCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries stored (including replacements).
    pub insertions: u64,
    /// Entries removed to keep the cache inside its byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged against the budget.
    pub bytes: usize,
}

struct CacheEntry {
    output: Arc<JobOutput>,
    bytes: usize,
    /// Hits plus the first insertion; a re-insertion keeps the count.
    uses: u64,
    /// `clock + uses × cost / bytes` as of the last use.
    priority: f64,
    last_used: u64,
}

impl CacheEntry {
    /// Re-prices the entry at `clock` and marks it used at `tick`.
    fn touch(&mut self, clock: f64, tick: u64) {
        let cost = self.output.report.messages.max(1);
        self.priority = clock + self.uses as f64 * cost as f64 / self.bytes as f64;
        self.last_used = tick;
    }
}

/// An in-memory result cache under a byte budget, evicting by
/// GreedyDual-Size-Frequency.
///
/// An entry's priority is `clock + uses × cost / bytes`, set when it is
/// stored or hit. `cost` is the engine messages its run took
/// (`report.messages`, at least 1): deterministic, and a proxy for the
/// runner time a recompute would spend. The entry of least priority is
/// evicted first, and `clock` rises to its priority, so entries that go
/// unused age out however expensive they were. Ties go to the least
/// recently used entry, so equal-cost entries leave in LRU order and
/// the victim never depends on map iteration order. Use counts live
/// only in resident entries.
///
/// Entries are shared (`Arc`), so a hit is a pointer clone — the
/// returned output is *byte-identical* to the one the original run
/// produced, trivially. An entry larger than the whole budget is not
/// cached at all (it would only evict everything else and then be
/// evicted itself on the next insert).
pub struct ResultCache {
    budget: usize,
    bytes: usize,
    tick: u64,
    clock: f64,
    map: HashMap<CacheKey, CacheEntry>,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl ResultCache {
    /// An empty cache charging at most `budget` bytes.
    pub fn new(budget: usize) -> Self {
        ResultCache {
            budget,
            bytes: 0,
            tick: 0,
            clock: 0.0,
            map: HashMap::new(),
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    /// Looks up `key`, counting a use and refreshing its priority on a
    /// hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<JobOutput>> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(e) => {
                e.uses += 1;
                e.touch(self.clock, self.tick);
                self.hits += 1;
                Some(Arc::clone(&e.output))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores `output` under `key` (replacing any previous entry and
    /// keeping its use count), then evicts least-priority entries until
    /// the budget holds. The new entry competes too: a cheap result can
    /// leave at once rather than push out a costlier one.
    pub fn insert(&mut self, key: CacheKey, output: Arc<JobOutput>) {
        let bytes = output.cost_bytes();
        if bytes > self.budget {
            return;
        }
        self.tick += 1;
        let uses = match self.map.remove(&key) {
            Some(old) => {
                self.bytes -= old.bytes;
                old.uses
            }
            None => 1,
        };
        self.bytes += bytes;
        self.insertions += 1;
        let mut entry = CacheEntry {
            output,
            bytes,
            uses,
            priority: 0.0,
            last_used: 0,
        };
        entry.touch(self.clock, self.tick);
        self.map.insert(key, entry);
        while self.bytes > self.budget {
            let victim = self
                .map
                .iter()
                .min_by(|(_, a), (_, b)| {
                    a.priority
                        .total_cmp(&b.priority)
                        .then(a.last_used.cmp(&b.last_used))
                })
                .map(|(k, _)| *k)
                .expect("bytes > 0 implies an entry");
            let e = self.map.remove(&victim).expect("just found");
            self.bytes -= e.bytes;
            self.clock = e.priority;
            self.evictions += 1;
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            entries: self.map.len(),
            bytes: self.bytes,
        }
    }
}

// ---------------------------------------------------------------------
// Jobs and the pool
// ---------------------------------------------------------------------

/// The closure a [`JobPool`] executes per job: run `spec` on `graph`,
/// return the report and harvested outputs. The runner must not fill
/// [`JobOutput::trace`] — the pool installs each job's thread-scoped
/// trace policy around the call and harvests the captured lines itself.
///
/// Keeping the runner opaque keeps this crate below the algorithm
/// crates; `kdom_mst::service::runner()` is the production dispatcher.
pub type Runner = Arc<dyn Fn(&Graph, &RunSpec) -> Result<JobOutput, SimError> + Send + Sync>;

/// A snapshot of where a job is in its lifecycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully.
    Done {
        /// Whether the result was served from the cache without
        /// invoking the engine.
        from_cache: bool,
    },
    /// The run failed; the string is the [`SimError`] (or panic)
    /// description.
    Failed(String),
}

enum State {
    Queued,
    Running,
    Done {
        output: Arc<JobOutput>,
        from_cache: bool,
    },
    Failed(String),
}

struct JobState {
    id: u64,
    key: CacheKey,
    spec: RunSpec,
    graph: Arc<Graph>,
    sink: MemorySink,
    state: Mutex<State>,
    done: Condvar,
}

/// A shareable handle to a submitted job.
#[derive(Clone)]
pub struct JobHandle {
    job: Arc<JobState>,
}

impl JobHandle {
    /// The pool-unique job id (submission order).
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// The spec this job runs.
    pub fn spec(&self) -> &RunSpec {
        &self.job.spec
    }

    /// The content address of this job's result.
    pub fn key(&self) -> CacheKey {
        self.job.key
    }

    /// Where the job is right now.
    pub fn status(&self) -> JobStatus {
        match &*lock(&self.job.state) {
            State::Queued => JobStatus::Queued,
            State::Running => JobStatus::Running,
            State::Done { from_cache, .. } => JobStatus::Done {
                from_cache: *from_cache,
            },
            State::Failed(e) => JobStatus::Failed(e.clone()),
        }
    }

    /// Blocks until the job finishes.
    ///
    /// # Errors
    ///
    /// Returns the failure description when the run errored or
    /// panicked.
    pub fn wait(&self) -> Result<Arc<JobOutput>, String> {
        let mut st = lock(&self.job.state);
        loop {
            match &*st {
                State::Done { output, .. } => return Ok(Arc::clone(output)),
                State::Failed(e) => return Err(e.clone()),
                _ => st = self.job.done.wait(st).unwrap_or_else(|p| p.into_inner()),
            }
        }
    }

    /// The result if the job already finished (`None` while queued or
    /// running).
    ///
    /// # Errors
    ///
    /// As [`JobHandle::wait`], when the finished job failed.
    #[allow(clippy::type_complexity)]
    pub fn try_output(&self) -> Option<Result<Arc<JobOutput>, String>> {
        match &*lock(&self.job.state) {
            State::Done { output, .. } => Some(Ok(Arc::clone(output))),
            State::Failed(e) => Some(Err(e.clone())),
            _ => None,
        }
    }

    /// The job's captured trace lines from index `from` on — the
    /// incremental read a streaming subscriber polls while the job
    /// runs. Empty unless the spec enabled tracing (cache-served jobs
    /// expose the cached [`JobOutput::trace`] instead).
    pub fn trace_lines_since(&self, from: usize) -> Vec<String> {
        self.job.sink.lines_since(from)
    }
}

/// Running counters of a [`JobPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs submitted, including cache-served ones.
    pub submitted: u64,
    /// Jobs completed by a worker (engine actually ran).
    pub completed: u64,
    /// Jobs that failed (error or panic).
    pub failed: u64,
    /// Times the runner was invoked — cache hits never increment this.
    pub engine_runs: u64,
    /// The result cache's counters.
    pub cache: CacheStats,
}

struct PoolInner {
    runner: Runner,
    cache: Mutex<ResultCache>,
    queue: Mutex<VecDeque<Arc<JobState>>>,
    work: Condvar,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    engine_runs: AtomicU64,
}

/// A bounded worker pool running independent simulations concurrently,
/// fronted by a content-addressed result cache.
///
/// Dropping the pool drains it: remaining queued jobs still run, then
/// the workers exit and are joined.
pub struct JobPool {
    inner: Arc<PoolInner>,
    workers: Vec<JoinHandle<()>>,
}

impl JobPool {
    /// A pool with `workers` worker threads (at least 1) and a result
    /// cache charging at most `cache_budget` bytes.
    pub fn new(workers: usize, cache_budget: usize, runner: Runner) -> Self {
        let inner = Arc::new(PoolInner {
            runner,
            cache: Mutex::new(ResultCache::new(cache_budget)),
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            engine_runs: AtomicU64::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("kdom-job-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker")
            })
            .collect();
        JobPool { inner, workers }
    }

    /// Submits one run. Served instantly from the cache when the
    /// content address hits (status `Done { from_cache: true }`, zero
    /// engine invocations); queued for a worker otherwise.
    pub fn submit(&self, graph: Arc<Graph>, spec: RunSpec) -> JobHandle {
        let key = CacheKey::of(&graph, &spec);
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        let cached = lock(&self.inner.cache).get(&key);
        let state = match cached {
            Some(output) => State::Done {
                output,
                from_cache: true,
            },
            None => State::Queued,
        };
        let queued = matches!(state, State::Queued);
        let job = Arc::new(JobState {
            id,
            key,
            spec,
            graph,
            sink: MemorySink::new(),
            state: Mutex::new(state),
            done: Condvar::new(),
        });
        if queued {
            lock(&self.inner.queue).push_back(Arc::clone(&job));
            self.inner.work.notify_one();
        }
        JobHandle { job }
    }

    /// Submits every run of a sweep (in the sweep's deterministic
    /// order), returning one handle per run.
    pub fn submit_sweep(&self, graph: &Arc<Graph>, sweep: &SweepSpec) -> Vec<JobHandle> {
        sweep
            .specs()
            .into_iter()
            .map(|spec| self.submit(Arc::clone(graph), spec))
            .collect()
    }

    /// Current counters (pool and cache).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            engine_runs: self.inner.engine_runs.load(Ordering::Relaxed),
            cache: lock(&self.inner.cache).stats(),
        }
    }
}

impl Drop for JobPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut q = lock(&inner.queue);
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = inner.work.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        };
        run_job(inner, &job);
    }
}

fn run_job(inner: &PoolInner, job: &JobState) {
    *lock(&job.state) = State::Running;
    let mode = if job.spec.trace {
        ThreadTrace::Capture(job.sink.clone())
    } else {
        ThreadTrace::Off
    };
    inner.engine_runs.fetch_add(1, Ordering::Relaxed);
    let result = trace::with_thread_trace(mode, || {
        std::panic::catch_unwind(AssertUnwindSafe(|| (inner.runner)(&job.graph, &job.spec)))
    });
    let state = match result {
        Ok(Ok(mut output)) => {
            output.trace = job.sink.lines_since(0);
            let output = Arc::new(output);
            lock(&inner.cache).insert(job.key, Arc::clone(&output));
            inner.completed.fetch_add(1, Ordering::Relaxed);
            State::Done {
                output,
                from_cache: false,
            }
        }
        Ok(Err(e)) => {
            inner.failed.fetch_add(1, Ordering::Relaxed);
            State::Failed(e.to_string())
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            inner.failed.fetch_add(1, Ordering::Relaxed);
            State::Failed(format!("job panicked: {msg}"))
        }
    };
    *lock(&job.state) = state;
    job.done.notify_all();
}

/// Runs one spec inline on the calling thread, with the same
/// thread-scoped trace policy a pool worker would install — the
/// reference a pool of any size must match byte-for-byte.
///
/// # Errors
///
/// Propagates the runner's [`SimError`].
pub fn run_serial(graph: &Graph, spec: &RunSpec, runner: &Runner) -> Result<JobOutput, SimError> {
    let sink = MemorySink::new();
    let mode = if spec.trace {
        ThreadTrace::Capture(sink.clone())
    } else {
        ThreadTrace::Off
    };
    let mut out = trace::with_thread_trace(mode, || runner(graph, spec))?;
    out.trace = sink.lines_since(0);
    Ok(out)
}

// ---------------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------------

/// A cross-product batch of runs: `base` with every combination of the
/// listed algorithms, `k` values, and seeds substituted. An empty axis
/// means "keep the base value". [`SweepSpec::specs`] enumerates the
/// product in a deterministic order (algorithm-major, then `k`, then
/// seed), so a sweep's handles line up with its serial reference run.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// The template every combination starts from.
    pub base: RunSpec,
    /// Algorithms to sweep (empty = just `base.algo`).
    pub algos: Vec<Algo>,
    /// `k` values to sweep (empty = just `base.k`).
    pub ks: Vec<u64>,
    /// Seeds to sweep (empty = just `base.seed`).
    pub seeds: Vec<u64>,
}

impl SweepSpec {
    /// A sweep of just `base` (grow it with the axis builders).
    pub fn new(base: RunSpec) -> Self {
        SweepSpec {
            base,
            algos: Vec::new(),
            ks: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// Returns the sweep with the algorithm axis replaced.
    pub fn over_algos(mut self, algos: &[Algo]) -> Self {
        self.algos = algos.to_vec();
        self
    }

    /// Returns the sweep with the `k` axis replaced.
    pub fn over_ks(mut self, ks: &[u64]) -> Self {
        self.ks = ks.to_vec();
        self
    }

    /// Returns the sweep with the seed axis replaced.
    pub fn over_seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Every run of the cross product, in deterministic order.
    pub fn specs(&self) -> Vec<RunSpec> {
        let algos = if self.algos.is_empty() {
            vec![self.base.algo]
        } else {
            self.algos.clone()
        };
        let ks = if self.ks.is_empty() {
            vec![self.base.k]
        } else {
            self.ks.clone()
        };
        let seeds = if self.seeds.is_empty() {
            vec![self.base.seed]
        } else {
            self.seeds.clone()
        };
        let mut out = Vec::with_capacity(algos.len() * ks.len() * seeds.len());
        for &algo in &algos {
            for &k in &ks {
                for &seed in &seeds {
                    out.push(self.base.clone().with_algo(algo).with_k(k).with_seed(seed));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdom_graph::generators::{path, GenConfig};

    fn toy_graph(n: usize) -> Arc<Graph> {
        Arc::new(path(&GenConfig::with_seed(n, 7)))
    }

    /// A deterministic stand-in for the algorithm dispatcher: emits one
    /// phase marker (so trace capture is observable) and derives the
    /// outputs from the spec and graph.
    fn toy_runner() -> Runner {
        Arc::new(|g, spec| {
            trace::emit_phase("Toy");
            Ok(JobOutput {
                report: RunReport {
                    rounds: spec.seed + spec.k + 1,
                    messages: g.node_count() as u64,
                    ..RunReport::default()
                },
                outputs: (0..g.node_count() as u64)
                    .map(|v| v.wrapping_mul(31) ^ spec.seed)
                    .collect(),
                trace: Vec::new(),
            })
        })
    }

    #[test]
    fn canonical_hash_separates_every_advertised_field() {
        let base = RunSpec::default();
        let variants = [
            base.clone().with_seed(1),
            base.clone().with_k(1),
            base.clone().with_threads(2),
            base.clone().with_algo(Algo::Bfs),
            base.clone()
                .with_exec(ExecSpec::ReliableAlpha { max_delay: 4 }),
            base.clone().with_faults(FaultPlan::new(0).drop_prob(0.1)),
            base.clone().with_trace(true),
        ];
        let h0 = base.canonical_hash();
        assert_eq!(h0, base.clone().canonical_hash(), "hash must be stable");
        for v in &variants {
            assert_ne!(v.canonical_hash(), h0, "collision for {v:?}");
        }
    }

    #[test]
    fn cached_resubmission_skips_the_engine() {
        let pool = JobPool::new(2, 1 << 20, toy_runner());
        let g = toy_graph(16);
        let spec = RunSpec::default().with_seed(5);
        let first = pool.submit(Arc::clone(&g), spec.clone());
        let out1 = first.wait().expect("first run");
        assert_eq!(first.status(), JobStatus::Done { from_cache: false });
        let second = pool.submit(Arc::clone(&g), spec);
        assert_eq!(second.status(), JobStatus::Done { from_cache: true });
        let out2 = second.wait().expect("cached run");
        assert!(Arc::ptr_eq(&out1, &out2), "a hit is the same entry");
        let stats = pool.stats();
        assert_eq!(stats.engine_runs, 1, "the engine ran exactly once");
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
    }

    #[test]
    fn per_job_trace_capture_is_isolated() {
        let pool = JobPool::new(2, 1 << 20, toy_runner());
        let g = toy_graph(8);
        let traced = pool.submit(Arc::clone(&g), RunSpec::default().with_trace(true));
        let silent = pool.submit(Arc::clone(&g), RunSpec::default().with_seed(9));
        let t = traced.wait().expect("traced run");
        let s = silent.wait().expect("silent run");
        assert_eq!(t.trace.len(), 1, "one phase marker captured");
        assert!(t.trace[0].contains("\"label\":\"Toy\""));
        assert!(s.trace.is_empty(), "tracing off captures nothing");
        assert_eq!(traced.trace_lines_since(0).len(), 1);
        assert!(traced.trace_lines_since(1).is_empty());
    }

    #[test]
    fn pool_outputs_match_serial_execution() {
        let runner = toy_runner();
        let g = toy_graph(12);
        let sweep = SweepSpec::new(RunSpec::default())
            .over_algos(&[Algo::SimpleMst, Algo::Bfs])
            .over_seeds(&[1, 2, 3]);
        let pool = JobPool::new(3, 1 << 20, Arc::clone(&runner));
        let handles = pool.submit_sweep(&g, &sweep);
        assert_eq!(handles.len(), 6);
        for (handle, spec) in handles.iter().zip(sweep.specs()) {
            assert_eq!(*handle.spec(), spec, "sweep order is deterministic");
            let pooled = handle.wait().expect("pooled run");
            let serial = run_serial(&g, &spec, &runner).expect("serial run");
            assert_eq!(*pooled, serial, "pool must match serial byte-for-byte");
        }
    }

    #[test]
    fn sweep_axes_default_to_the_base_value() {
        let base = RunSpec::default().with_k(3).with_seed(11);
        let specs = SweepSpec::new(base.clone()).specs();
        assert_eq!(specs, vec![base.clone()]);
        let specs = SweepSpec::new(base.clone()).over_ks(&[1, 2]).specs();
        assert_eq!(specs.len(), 2);
        assert!(specs.iter().all(|s| s.seed == 11));
        assert_eq!(specs[0].k, 1);
        assert_eq!(specs[1].k, 2);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let sample = Arc::new(JobOutput {
            outputs: vec![0; 8],
            ..JobOutput::default()
        });
        let one = sample.cost_bytes();
        let mut cache = ResultCache::new(2 * one);
        let key = |i: u64| CacheKey { graph: i, spec: 0 };
        cache.insert(key(1), Arc::clone(&sample));
        cache.insert(key(2), Arc::clone(&sample));
        assert!(cache.get(&key(1)).is_some(), "refresh 1's recency");
        cache.insert(key(3), Arc::clone(&sample));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= 2 * one);
        assert!(cache.get(&key(2)).is_none(), "2 was least recently used");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());

        // an entry larger than the whole budget is not cached
        let mut tiny = ResultCache::new(1);
        tiny.insert(key(9), Arc::clone(&sample));
        assert_eq!(tiny.stats().entries, 0);
    }

    /// An output of fixed size whose run took `messages` messages.
    fn priced_output(messages: u64) -> Arc<JobOutput> {
        Arc::new(JobOutput {
            report: RunReport {
                messages,
                ..RunReport::default()
            },
            outputs: vec![0; 8],
            ..JobOutput::default()
        })
    }

    #[test]
    fn an_expensive_unread_entry_outlives_cheap_newcomers() {
        let one = priced_output(1).cost_bytes();
        let mut cache = ResultCache::new(2 * one);
        let key = |i: u64| CacheKey { graph: i, spec: 0 };
        cache.insert(key(1), priced_output(1_000_000));
        cache.insert(key(2), priced_output(10));
        cache.insert(key(3), priced_output(10));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
        assert!(cache.get(&key(2)).is_none(), "the older cheap entry leaves");
        assert!(cache.get(&key(1)).is_some(), "LRU would have evicted 1");
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn eviction_replays_identically_on_fresh_caches() {
        // equal sizes, so an insert evicts at most one entry and the
        // per-insert diff of resident keys is the eviction order
        fn replay() -> Vec<CacheKey> {
            let one = priced_output(1).cost_bytes();
            let mut cache = ResultCache::new(4 * one);
            let mut rng = kdom_rng::StdRng::seed_from_u64(5);
            let mut evicted = Vec::new();
            for _ in 0..600 {
                let key = CacheKey {
                    graph: rng.below(12),
                    spec: 0,
                };
                if rng.random_bool(0.5) {
                    cache.get(&key);
                    continue;
                }
                // three cost levels: plenty of exact priority ties
                let output = priced_output([1, 10, 100][rng.below(3) as usize]);
                let before: Vec<CacheKey> = cache.map.keys().copied().collect();
                cache.insert(key, output);
                evicted.extend(
                    before
                        .into_iter()
                        .chain([key])
                        .filter(|k| !cache.map.contains_key(k)),
                );
            }
            assert_eq!(cache.stats().evictions as usize, evicted.len());
            evicted
        }
        let first = replay();
        assert!(first.len() > 50, "the replay must evict often");
        assert_eq!(first, replay(), "the victim order is deterministic");
    }

    #[test]
    fn panicking_jobs_fail_without_killing_the_worker() {
        let runner: Runner = Arc::new(|_, spec| {
            assert!(spec.k != 7, "k=7 is cursed");
            Ok(JobOutput::default())
        });
        let pool = JobPool::new(1, 1 << 20, runner);
        let g = toy_graph(4);
        let bad = pool.submit(Arc::clone(&g), RunSpec::default().with_k(7));
        let err = bad.wait().expect_err("panic surfaces as failure");
        assert!(err.contains("cursed"), "{err}");
        assert_eq!(bad.status(), JobStatus::Failed(err));
        // the same (sole) worker still serves the next job
        let good = pool.submit(Arc::clone(&g), RunSpec::default());
        good.wait().expect("worker survived the panic");
        let stats = pool.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn algo_labels_round_trip() {
        for algo in Algo::ALL {
            assert_eq!(Algo::parse(algo.label()), Some(algo));
            assert_eq!(algo.label().parse::<Algo>().ok(), Some(algo));
        }
        assert!(Algo::parse("frobnicate").is_none());
        assert!("frobnicate".parse::<Algo>().is_err());
    }
}
