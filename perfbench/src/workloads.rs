//! The four workloads and the shared measurement loop of the three
//! single-call ones.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use kdom::congest::jobs::{Algo, JobOutput, RunSpec};
use kdom::congest::{EngineConfig, RunReport};
use kdom::graph::generators::{broom, gnm_connected, GenConfig};
use kdom::graph::Graph;
use kdom::mst::fastmst::{fast_mst, FastMstRun};
use kdom::mst::service;

use crate::certify;
use crate::metrics::{peak_rss_mb, quantile, Metrics, Outcome, Tally, MAX_RESIDUAL_PCT, PER_LAYER};
use crate::spans::Spans;
use crate::staged;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `fast_mst` on a connected G(n, 2n), n = 10^5.
    FastmstGnm,
    /// Service BFS with 2 engine threads on G(10^6, 2·10^6).
    BfsGnm1m,
    /// Service FastDOM_G on a broom: a 2·10^4-leaf hub behind a
    /// 2·10^4-node handle.
    KdomBroom,
    /// A closed-loop SUBMIT/WAIT mix against an in-process `kdom-serve`.
    ServeMix,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::FastmstGnm,
        Workload::BfsGnm1m,
        Workload::KdomBroom,
        Workload::ServeMix,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FastmstGnm => "fastmst_gnm",
            Workload::BfsGnm1m => "bfs_gnm_1m",
            Workload::KdomBroom => "kdom_broom",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// The workload named `s`.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: the benchmark's own, or a small set for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Small inputs with the same shapes, for tests.
    Smoke,
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Input sizes.
    pub scale: Scale,
}

/// Runs `w` once: untraced, reporting the end-to-end metrics, or traced,
/// reporting the per-layer ones.
pub fn run(w: Workload, cfg: &Config, traced: bool) -> Outcome {
    if w == Workload::ServeMix {
        return crate::serve_mix::run(cfg, traced);
    }
    let call = SingleCall::of(w, cfg);
    if traced {
        call.traced(cfg)
    } else {
        call.untraced(cfg)
    }
}

/// Timed repetitions every single-call run makes at least, so that a
/// median exists even when one call outlasts `--seconds`.
const MIN_REPS: usize = 3;

/// Graph generations per run, and the time they may take together
/// before the run stops at [`MIN_SETUPS`]; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;

/// What one end-to-end call produced, in a shape all three single-call
/// workloads share.
#[derive(Clone, Debug, PartialEq)]
pub struct CallOut {
    /// Service jobs: the per-node output rows. Fast-MST: the MST edge ids.
    pub rows: Vec<u64>,
    /// Service jobs: the absorbed report. Fast-MST: the pipeline report.
    pub report: RunReport,
    /// Simulated rounds, charged partition rounds included.
    pub sim_rounds: u64,
    /// Fast-MST only: the run with its stage breakdown.
    pub fast_mst: Option<FastMstSummary>,
}

/// The parts of a [`FastMstRun`] the certificate and the equality check
/// read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FastMstSummary {
    k: usize,
    cluster_count: usize,
    stage_rounds: [u64; 5],
    stalls: u64,
}

impl From<FastMstRun> for CallOut {
    fn from(run: FastMstRun) -> CallOut {
        CallOut {
            rows: run.mst_edges.iter().map(|e| e.0 as u64).collect(),
            sim_rounds: run.total_rounds(),
            fast_mst: Some(FastMstSummary {
                k: run.k,
                cluster_count: run.cluster_count,
                stage_rounds: [
                    run.fragment_rounds,
                    run.partition_charge.rounds,
                    run.bfs_rounds,
                    run.pipeline_rounds,
                    run.collect_rounds,
                ],
                stalls: run.stalls,
            }),
            report: run.pipeline_report,
        }
    }
}

impl From<JobOutput> for CallOut {
    fn from(out: JobOutput) -> CallOut {
        CallOut {
            rows: out.outputs,
            sim_rounds: out.report.rounds,
            report: out.report,
            fast_mst: None,
        }
    }
}

type Call = Box<dyn Fn(&Graph) -> Result<CallOut, String>>;
type StagedCall = Box<dyn Fn(&mut Spans, &Graph) -> Result<CallOut, String>>;
type Certificate = Box<dyn Fn(&Graph, &CallOut) -> Result<(), String>>;

/// A workload made of one seeded graph and one repeated library call.
pub struct SingleCall {
    generate: Box<dyn Fn() -> Graph>,
    call: Call,
    staged: StagedCall,
    certify: Certificate,
}

/// Runs `f`, turning a panic into an error naming its message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".into());
        Err(format!("panicked: {msg}"))
    })
}

impl SingleCall {
    /// The call, inputs and certificate of workload `w`.
    ///
    /// # Panics
    ///
    /// On [`Workload::ServeMix`], which is not a single call.
    pub fn of(w: Workload, cfg: &Config) -> SingleCall {
        let seed = cfg.seed;
        let smoke = cfg.scale == Scale::Smoke;
        match w {
            Workload::FastmstGnm => {
                let n = if smoke { 2_000 } else { 100_000 };
                SingleCall {
                    generate: Box::new(move || {
                        gnm_connected(&GenConfig::with_seed(n, seed), 2 * n)
                    }),
                    call: Box::new(|g| Ok(fast_mst(g).into())),
                    staged: Box::new(|tr, g| {
                        staged::fast_mst(tr, g, EngineConfig::default()).map(CallOut::from)
                    }),
                    certify: Box::new(|g, out| {
                        let s = out.fast_mst.as_ref().ok_or("no Fast-MST summary")?;
                        certify::fast_mst(g, &out.rows, s.k, s.cluster_count, s.stalls)
                    }),
                }
            }
            Workload::BfsGnm1m => {
                let n = if smoke { 5_000 } else { 1_000_000 };
                let spec = RunSpec::default().with_algo(Algo::Bfs).with_threads(2);
                SingleCall::service(
                    Box::new(move || gnm_connected(&GenConfig::with_seed(n, seed), 2 * n)),
                    spec,
                )
            }
            Workload::KdomBroom => {
                let n = if smoke { 2_000 } else { 40_000 };
                let spec = RunSpec::default().with_algo(Algo::FastDomG);
                SingleCall::service(
                    Box::new(move || broom(&GenConfig::with_seed(n, seed), n / 2)),
                    spec,
                )
            }
            Workload::ServeMix => panic!("serve_mix is a traffic mix, not a single call"),
        }
    }

    /// A `kdom::mst::service::run` call of `spec`, certified by the
    /// job's algorithm.
    fn service(generate: Box<dyn Fn() -> Graph>, spec: RunSpec) -> SingleCall {
        let (s1, s2, s3) = (spec.clone(), spec.clone(), spec);
        SingleCall {
            generate,
            call: Box::new(move |g| {
                service::run(g, &s1)
                    .map(CallOut::from)
                    .map_err(|e| e.to_string())
            }),
            staged: Box::new(move |tr, g| staged::run_spec(tr, g, &s2).map(CallOut::from)),
            certify: Box::new(move |g, out| certify::job(g, &s3, &out.rows)),
        }
    }

    /// The workload's input graph.
    pub fn input(&self) -> Graph {
        (self.generate)()
    }

    /// Generates the input [`MIN_SETUPS`] to [`MAX_SETUPS`] times,
    /// returning the last graph and the median generation time.
    fn setup(&self) -> (Graph, f64) {
        let mut times = Vec::new();
        let mut graph = None;
        while times.len() < MIN_SETUPS
            || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
        {
            drop(graph.take()); // free the previous copy before timing the next
            let start = Instant::now();
            graph = Some(std::hint::black_box((self.generate)()));
            times.push(start.elapsed().as_secs_f64());
        }
        (graph.expect("at least one setup"), quantile(&times, 0.5))
    }

    /// Certifies the first successful output against the oracles and
    /// requires every later one to equal it (the library is
    /// deterministic). Returns the oracle time.
    fn check(
        &self,
        tally: &mut Tally,
        g: &Graph,
        first: &mut Option<CallOut>,
        out: CallOut,
    ) -> Duration {
        match first {
            Some(want) => {
                let same = if *want == out {
                    Ok(())
                } else {
                    Err("output differs from the first call's".to_string())
                };
                tally.check("repeat call", same);
                Duration::ZERO
            }
            None => {
                let start = Instant::now();
                tally.check("certificate", guarded(|| (self.certify)(g, &out)));
                let took = start.elapsed();
                *first = Some(out);
                took
            }
        }
    }

    fn untraced(&self, cfg: &Config) -> Outcome {
        let (g, setup_s) = self.setup();
        let mut tally = Tally::default();
        let mut times = Vec::new();
        let mut first = None;
        let start = Instant::now();
        while times.len() < MIN_REPS || start.elapsed().as_secs_f64() < cfg.seconds {
            tally.attempt();
            let t = Instant::now();
            let out = guarded(|| (self.call)(std::hint::black_box(&g)));
            let took = t.elapsed().as_secs_f64();
            eprintln!("kdom-perfbench: call {}: {took:.4} s", times.len() + 1);
            match out {
                Ok(out) => {
                    times.push(took);
                    self.check(&mut tally, &g, &mut first, out);
                }
                Err(e) => tally.check("call", Err(e)),
            }
            if tally.failed > 0 && times.is_empty() {
                break; // every call fails: stop rather than spin
            }
        }
        let mut m = Metrics::default();
        if let Some(out) = &first {
            m.set("sim_rounds", out.sim_rounds as f64);
            m.set("run_s", quantile(&times, 0.5));
            m.set("job_p50_ms", quantile(&times, 0.5) * 1e3);
            m.set("job_p99_ms", quantile(&times, 0.99) * 1e3);
            m.set("jobs_per_s", times.len() as f64 / times.iter().sum::<f64>());
        }
        m.set("setup_s", setup_s);
        m.set("peak_rss_mb", peak_rss_mb());
        Outcome { tally, metrics: m }
    }

    fn traced(&self, cfg: &Config) -> Outcome {
        let (g, setup_s) = self.setup();
        let mut tally = Tally::default();
        let mut reps = Vec::new();
        let mut first = None;
        let mut verify = Duration::ZERO;
        let start = Instant::now();
        while reps.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
            tally.attempt();
            let t = Instant::now();
            let plain = guarded(|| (self.call)(&g));
            let plain_s = t.elapsed().as_secs_f64();
            let mut tr = Spans::default();
            let traced = guarded(|| tr.span("op", |tr| (self.staged)(tr, &g)));
            let (plain, traced) = match (plain, traced) {
                (Ok(p), Ok(t)) => (p, t),
                (p, t) => {
                    let e = [p.err(), t.err()].into_iter().flatten().collect::<Vec<_>>();
                    tally.check("traced pair", Err(e.join("; ")));
                    break;
                }
            };
            let same = if plain == traced {
                Ok(())
            } else {
                Err("traced replay's output or rounds differ from the library call's".into())
            };
            tally.check("traced vs untraced", same);
            verify += self.check(&mut tally, &g, &mut first, traced);

            let mut m = layer_metrics(&tr);
            let op = tr.total("op");
            let residual = 100.0 * op.self_time.as_secs_f64() / op.inclusive.as_secs_f64();
            tally.check("span coverage", residual_ok(residual));
            m.set("trace.residual_pct", residual);
            m.set("trace.overhead_s", op.inclusive.as_secs_f64() - plain_s);
            m.set("graph.build_s", setup_s);
            m.set("graph.bytes", g.memory_bytes() as f64);
            reps.push(m);
        }
        // the oracle certifies the first output only
        let mut metrics = Metrics::median_of(&reps);
        metrics.set("verify.s", verify.as_secs_f64());
        Outcome { tally, metrics }
    }
}

/// Fails a traced operation whose layer spans leave more than
/// [`MAX_RESIDUAL_PCT`] of its wall time unattributed.
pub fn residual_ok(residual_pct: f64) -> Result<(), String> {
    if residual_pct <= MAX_RESIDUAL_PCT {
        Ok(())
    } else {
        Err(format!(
            "{residual_pct:.2}% of the traced wall time is outside every layer span \
             (limit {MAX_RESIDUAL_PCT}%)"
        ))
    }
}

/// The per-layer metrics a span recorder yields. Every per-layer name is
/// present; layers the recorder never saw read 0.
pub fn layer_metrics(tr: &Spans) -> Metrics {
    let mut m = Metrics::default();
    for (name, _) in PER_LAYER {
        m.set(name, 0.0);
    }
    let steps: Vec<f64> = tr.steps.iter().map(Duration::as_secs_f64).collect();
    let e = &tr.engine;
    let codec_s = tr.secs("wire.codec");
    m.set("engine.build_s", tr.secs("engine.build"));
    m.set("engine.teardown_s", tr.secs("engine.teardown"));
    m.set("engine.step_s", tr.secs("engine.step"));
    m.set("engine.fast_forward_s", tr.secs("engine.fast_forward"));
    m.set("engine.step_p50_us", quantile(&steps, 0.5) * 1e6);
    m.set("engine.step_max_ms", quantile(&steps, 1.0) * 1e3);
    m.set("engine.executed_rounds", e.executed_rounds as f64);
    m.set("engine.ff_skipped_rounds", e.ff_skipped_rounds as f64);
    m.set("engine.messages", e.messages as f64);
    m.set("engine.total_bits", e.total_bits as f64);
    m.set("engine.peak_mem_bytes", e.peak_mem_bytes as f64);
    m.set("wire.codec_s", codec_s);
    m.set("wire.codec_msgs", e.codec_msgs as f64);
    if e.codec_msgs > 0 {
        m.set("wire.ns_per_msg", codec_s * 1e9 / e.codec_msgs as f64);
    }
    m.set("core.simple_mst_s", tr.secs("core.simple_mst"));
    m.set("core.dom_partition_s", tr.secs("core.dom_partition"));
    m.set("core.fastdom_within_s", tr.secs("core.fastdom_within"));
    m.set(
        "core.partition_charge_rounds",
        tr.partition_charge_rounds as f64,
    );
    m.set("mst.bfs_s", tr.secs("mst.bfs"));
    m.set("mst.pipeline_s", tr.secs("mst.pipeline"));
    m.set("mst.assemble_s", tr.secs("mst.assemble"));
    m
}
