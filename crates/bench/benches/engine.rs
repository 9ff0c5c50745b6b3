//! Engine scaling bench: the shared round engine against the pre-refactor
//! reference loop, across thread counts.
//!
//! Produces `BENCH_engine.json` at the repo root (median wall-clock and
//! rounds/second per target). Every engine leg is asserted byte-identical
//! to the reference loop before being timed, so the speedups are over
//! equivalent work. `KDOM_THREADS=4` legs only show wall-clock gains on
//! multi-core hosts; on a single core they measure the determinism
//! overhead instead.

use kdom_bench::harness::{
    can_bench_threads, check_regression_gate, note_extra, note_rounds, record_measurement,
    write_engine_json, Criterion, Histogram,
};
use kdom_bench::{criterion_group, criterion_main};
use kdom_congest::engine::run_reference_loop;
use kdom_congest::{CodecScratch, EngineConfig, Simulator};
use kdom_core::dist::bfs::BfsNode;
use kdom_core::dist::fragments::{FrMsg, FragmentNode};
use kdom_graph::generators::Family;
use kdom_graph::{Graph, NodeId};
use kdom_mst::fastmst::{default_k, fast_mst, fast_mst_from_root};

fn mst_nodes(g: &Graph, k: usize) -> Vec<FragmentNode> {
    g.nodes()
        .map(|v| FragmentNode::new(k, g.id_of(v)))
        .collect()
}

fn engine_cfg(threads: usize) -> EngineConfig {
    EngineConfig::default().with_threads(threads)
}

/// BFS on a 2000-node path: diameter-bound rounds where only the frontier
/// does work — the showcase for active-set scheduling (the legacy loop
/// burns `n` automaton steps per round on idle nodes).
fn bench_bfs_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/bfs_path2000");
    let graph = Family::Path.generate(2000, 0);
    let make =
        |g: &Graph| -> Vec<BfsNode> { (0..g.node_count()).map(|v| BfsNode::new(v == 0)).collect() };

    let (ref_nodes, ref_report) =
        run_reference_loop(&graph, make(&graph), 1_000_000).expect("reference quiesces");
    let want = format!("{ref_nodes:?}{ref_report:?}");
    let legs = [
        ("legacy-loop", None),
        ("active-set-1t", Some(engine_cfg(1))),
    ];
    for (leg, cfg) in legs {
        if let Some(cfg) = cfg {
            let mut sim = Simulator::with_config(&graph, make(&graph), cfg);
            sim.run(1_000_000).expect("engine quiesces");
            // the reference loop predates memory tracking: zero the peak
            // before the comparison, everything else must match exactly
            let mut report = sim.report().clone();
            report.peak_memory_bytes = 0;
            let got = format!("{:?}{report:?}", sim.nodes());
            assert_eq!(want, got, "{leg} diverged from the reference loop");
        }
        g.bench_function(leg, |b| match cfg {
            None => {
                b.iter(|| run_reference_loop(std::hint::black_box(&graph), make(&graph), 1_000_000))
            }
            Some(cfg) => b.iter(|| {
                let mut sim =
                    Simulator::with_config(std::hint::black_box(&graph), make(&graph), cfg);
                sim.run(1_000_000).map(|r| r.rounds)
            }),
        });
        note_rounds(&format!("engine/bfs_path2000/{leg}"), ref_report.rounds);
    }
    g.finish();
}

/// SimpleMST on a ~2500-node grid: the round-schedule-heavy protocol the
/// active set helps most (late rounds have few live fragments).
fn bench_simple_mst(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/simple_mst_grid2500");
    let graph = Family::Grid.generate(2500, 7);
    let k = 25;

    let (ref_nodes, ref_report) =
        run_reference_loop(&graph, mst_nodes(&graph, k), 1_000_000).expect("reference quiesces");
    let want = format!("{ref_nodes:?}{ref_report:?}");
    let legs = [
        ("legacy-loop", None),
        ("active-set-1t", Some(engine_cfg(1))),
        ("active-set-4t", Some(engine_cfg(4))),
    ];
    for (leg, cfg) in legs {
        if let Some(cfg) = cfg {
            let mut sim = Simulator::with_config(&graph, mst_nodes(&graph, k), cfg);
            sim.run(1_000_000).expect("engine quiesces");
            // peak is zeroed as in `bench_bfs_path`: the reference loop
            // does not track memory
            let mut report = sim.report().clone();
            report.peak_memory_bytes = 0;
            let got = format!("{:?}{report:?}", sim.nodes());
            assert_eq!(want, got, "{leg} diverged from the reference loop");
        }
        // byte-identity above needs no real parallelism; the *timing* of
        // multi-thread legs on an undersubscribed machine would poison the
        // committed baseline, so those rows are skipped entirely
        if cfg.is_some_and(|c| c.threads > 1) && !can_bench_threads(4) {
            continue;
        }
        g.bench_function(leg, |b| match cfg {
            None => b.iter(|| {
                run_reference_loop(
                    std::hint::black_box(&graph),
                    mst_nodes(&graph, k),
                    1_000_000,
                )
            }),
            Some(cfg) => b.iter(|| {
                let mut sim =
                    Simulator::with_config(std::hint::black_box(&graph), mst_nodes(&graph, k), cfg);
                sim.run(1_000_000).map(|r| r.rounds)
            }),
        });
        note_rounds(
            &format!("engine/simple_mst_grid2500/{leg}"),
            ref_report.rounds,
        );
    }
    g.finish();
}

/// Wall-time-per-simulated-round profile of the SimpleMST grid target:
/// hand-drives the engine (fast-forward, then one timed [`Simulator::step`]
/// per executed round) so the per-round latency distribution and the
/// quiescence fast-forward accounting are visible next to the aggregate
/// medians. Skipped rounds never enter the histogram — they cost O(1)
/// total — so "rounds/second" can be read honestly: executed rounds are
/// timed, skipped rounds are counted.
///
/// Runs with codec profiling on, so the encode/decode share of the
/// per-round cost is split out of the aggregate: `codec_ns`/`codec_msgs`
/// land in the JSON row as extras.
fn profile_round_walltime(_c: &mut Criterion) {
    let graph = Family::Grid.generate(2500, 7);
    let k = 25;
    let name = "engine/round_profile/simple_mst_grid2500";
    let mut sim = Simulator::with_config(
        &graph,
        mst_nodes(&graph, k),
        EngineConfig::default()
            .with_threads(1)
            .with_codec_profile(true),
    );
    let mut hist = Histogram::new();
    let start = std::time::Instant::now();
    while !sim.quiescent() {
        sim.fast_forward(1_000_000);
        if sim.quiescent() {
            break;
        }
        let t = std::time::Instant::now();
        sim.step().expect("profiled run quiesces");
        hist.record(t.elapsed());
    }
    let wall = start.elapsed().as_secs_f64();
    let (ff_jumps, ff_skipped) = sim.fast_forward_stats();
    let (codec_ns, codec_msgs) = sim.codec_stats();
    let simulated = sim.report().rounds;
    eprintln!("group engine/round_profile");
    eprintln!("  simple_mst_grid2500/active-set-1t: {}", hist.summary());
    eprintln!(
        "    executed {} of {simulated} simulated rounds; fast-forward skipped {ff_skipped} in {ff_jumps} jumps",
        hist.count()
    );
    eprintln!(
        "    codec: {:.2}% of wall — {:.1} ms over {codec_msgs} messages ({:.0} ns/msg)",
        codec_ns as f64 / 1e9 / wall.max(1e-12) * 100.0,
        codec_ns as f64 / 1e6,
        codec_ns as f64 / (codec_msgs.max(1)) as f64
    );
    record_measurement(name, wall);
    note_rounds(name, simulated);
    note_extra(name, "executed_rounds", hist.count());
    note_extra(name, "ff_skipped_rounds", ff_skipped);
    note_extra(name, "ff_jumps", ff_jumps);
    note_extra(name, "codec_ns", codec_ns);
    note_extra(name, "codec_msgs", codec_msgs);
}

/// The full Fast-MST composition on a ~1600-node grid, one leg per
/// engine thread count.
fn bench_fast_mst(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/fast_mst_grid1600");
    let graph = Family::Grid.generate(1600, 11);
    let k = default_k(graph.node_count());
    let run = |threads| {
        let config = EngineConfig::default().with_threads(threads);
        fast_mst_from_root(std::hint::black_box(&graph), k, NodeId(0), config)
    };

    let want = fast_mst(&graph);
    for (leg, threads) in [("active-set-1t", 1), ("active-set-4t", 4)] {
        let got = run(threads);
        assert_eq!(
            format!("{want:?}"),
            format!("{got:?}"),
            "{leg} diverged on Fast-MST"
        );
        // identity holds regardless of CPU count; only the timing of
        // multi-thread legs is skipped on undersubscribed machines
        if threads != 1 && !can_bench_threads(4) {
            continue;
        }
        g.bench_function(leg, |b| b.iter(|| run(threads)));
        note_rounds(
            &format!("engine/fast_mst_grid1600/{leg}"),
            want.total_rounds(),
        );
    }
    g.finish();
}

/// Codec microbench: raw bit I/O and full message round-trips through
/// the branchless codec, with and without scratch-buffer reuse. These
/// rows quantify the per-message cost the codec adds to every engine
/// send.
fn bench_wire_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_codec");

    // a representative SimpleMST message mix (every FrMsg variant)
    let msgs: Vec<FrMsg> = (0..256u64)
        .map(|i| match i % 7 {
            0 => FrMsg::Probe {
                hops: i as u32,
                root_id: i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & ((1 << 48) - 1),
            },
            1 => FrMsg::EchoDeep(i % 2 == 0),
            2 => FrMsg::Activate,
            3 => FrMsg::FragId(i << 17),
            4 => FrMsg::MwoeUp((i % 3 == 0).then_some(i | 1 << 40)),
            5 => FrMsg::Transfer,
            _ => FrMsg::Connect(!i & ((1 << 48) - 1)),
        })
        .collect();

    // raw writer/reader throughput: push+pull 4096 mixed-width fields
    g.bench_function("bitio_mixed_4096", |b| {
        use kdom_congest::{BitReader, BitWriter};
        b.iter(|| {
            let mut w = BitWriter::new();
            for i in 0..4096u64 {
                w.push(i & ((1 << (1 + i % 48)) - 1), 1 + (i % 48) as u32);
            }
            let frame = w.finish();
            let mut r = BitReader::new(&frame);
            let mut acc = 0u64;
            for i in 0..4096u64 {
                acc ^= r.pull(1 + (i % 48) as u32).expect("pull in bounds");
            }
            acc
        })
    });

    // the engine's per-send hot path: encode+decode through reused
    // scratch buffers, bit count taken from the same encode
    let mut scratch = CodecScratch::new();
    g.bench_function("frmsg_transcode_scratch_256", |b| {
        b.iter(|| {
            let mut bits = 0u64;
            for m in &msgs {
                bits += scratch.transcode(m).map_or(0, |(_, b)| b);
            }
            bits
        })
    });

    // full verification (adds the canonicality re-encode + compare) in
    // the same reused buffers — the fallback-replay and test path
    g.bench_function("frmsg_round_trip_scratch_256", |b| {
        b.iter(|| {
            let mut ok = 0usize;
            for m in &msgs {
                ok += scratch.round_trip(m).is_ok() as usize;
            }
            ok
        })
    });

    // the old allocating path (two fresh Vecs + Debug formatting per
    // message), kept as the comparison row
    g.bench_function("frmsg_round_trip_alloc_256", |b| {
        b.iter(|| {
            let mut ok = 0usize;
            for m in &msgs {
                ok += kdom_congest::wire::round_trip(m).is_ok() as usize;
            }
            ok
        })
    });
    g.finish();
}

/// Service-layer throughput rows: a 64-job sweep through the job
/// scheduler, cache-cold (`miss-grid64`, every job invokes the engine)
/// and fully cached (`hit-grid64`, the identical sweep resubmitted —
/// zero engine invocations, results served by pointer clone). Hand-timed
/// single passes, like the million-node row: a sweep is a batch, not an
/// iterable microbench.
fn bench_sweep_throughput(_c: &mut Criterion) {
    use kdom_congest::{JobPool, JobStatus, RunSpec, SweepSpec};
    let graph = std::sync::Arc::new(Family::Grid.generate(256, 21));
    let seeds: Vec<u64> = (0..64).collect();
    let sweep = SweepSpec::new(RunSpec::default().with_k(8)).over_seeds(&seeds);
    let pool = JobPool::new(4, 64 << 20, kdom_mst::service::runner());
    eprintln!("group jobs/sweep_throughput");
    for (leg, want_cached) in [("miss-grid64", false), ("hit-grid64", true)] {
        let start = std::time::Instant::now();
        let handles = pool.submit_sweep(&graph, &sweep);
        for h in &handles {
            h.wait().expect("sweep job runs");
        }
        let wall = start.elapsed().as_secs_f64();
        for h in &handles {
            assert_eq!(
                h.status(),
                JobStatus::Done {
                    from_cache: want_cached
                },
                "{leg}: unexpected cache behaviour"
            );
        }
        let jobs = handles.len() as u64;
        let jobs_per_sec = jobs as f64 / wall.max(1e-12);
        eprintln!("  {leg}: {wall:.3}s for {jobs} jobs ({jobs_per_sec:.0} jobs/s)");
        let name = format!("jobs/sweep_throughput/{leg}");
        record_measurement(&name, wall);
        note_extra(&name, "jobs", jobs);
        note_extra(&name, "jobs_per_sec", jobs_per_sec as u64);
    }
    let stats = pool.stats();
    assert_eq!(stats.engine_runs, 64, "the cached pass must run nothing");
    assert_eq!(stats.cache.hits, 64, "all 64 resubmissions must hit");
}

/// Million-node row: the full Fast-MST composition (`k = ⌈√n⌉ = 1000`)
/// on a streamed `G(n, m)` graph with 10^6 nodes and 2×10^6 edges, timed
/// as a single iteration — the run is far past the harness batch budget
/// — with the reported engine peak memory as an extra, where the trace
/// validator and the CI budget assert can see it. Skipped in smoke runs
/// (`KDOM_BENCH_MS=0`): CI covers this scale with the dedicated
/// `large-graph` job at 10^5 nodes instead.
fn bench_fast_mst_rand1m(_c: &mut Criterion) {
    let smoke = kdom_graph::knob::knob("KDOM_BENCH_MS", 300u64) == 0;
    if smoke {
        eprintln!("kdom-bench: skipping fast_mst_rand1M in smoke mode (KDOM_BENCH_MS=0)");
    } else {
        let graph = kdom_graph::generators::gnm_connected(
            &kdom_graph::generators::GenConfig::with_seed(1_000_000, 42),
            2_000_000,
        );
        eprintln!("group engine/fast_mst_rand1M");
        let name = "engine/fast_mst_rand1M/active-set-1t";
        let start = std::time::Instant::now();
        let run = fast_mst(std::hint::black_box(&graph));
        let wall = start.elapsed().as_secs_f64();
        let peak = run.pipeline_report.peak_memory_bytes;
        eprintln!("  active-set-1t: {wall:.2}s, peak {} MiB", peak >> 20);
        assert_eq!(run.mst_edges.len(), graph.node_count() - 1);
        assert!(peak > 0, "pipeline must report peak memory");
        record_measurement(name, wall);
        note_rounds(name, run.total_rounds());
        note_extra(name, "peak_mem_bytes", peak);
        note_extra(name, "graph_mem_bytes", graph.memory_bytes());
    }
    // gate against the committed baseline before replacing it
    check_regression_gate();
    write_engine_json().expect("BENCH_engine.json written");
}

criterion_group!(
    benches,
    bench_bfs_path,
    bench_simple_mst,
    profile_round_walltime,
    bench_fast_mst,
    bench_wire_codec,
    bench_sweep_throughput,
    bench_fast_mst_rand1m
);
criterion_main!(benches);
