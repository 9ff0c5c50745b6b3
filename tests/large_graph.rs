//! Large-graph legs: the determinism contract and the memory budget at
//! 10^5-node scale, on graphs produced by the streaming generators
//! (`gnm_connected` writes edges straight into the CSR arrays — no
//! `n × n` structures, no intermediate pair lists), and the linear cost
//! of graph construction at 10^6 nodes.
//!
//! The parity tests here are the million-node engine's proving ground:
//! with `shard_min` lowered, every multi-thread round takes the
//! destination-sharded bucketed merge, and the node states, the full
//! `RunReport` (peak memory included), and the synchronizer-α outputs
//! must all be byte-identical to the single-threaded legs. The
//! budget test pins the reported engine peak for a streamed Fast-MST run.
//! The construction legs time generators whose degrees differ (a star's
//! hub holds every arc) against each other and across a 10× size step,
//! and the FastDOM_G leg times a star's run against a random tree's.
//!
//! Every test here is `#[ignore]`d: at this scale the legs take minutes
//! even in release mode, so the default (debug) `cargo test` run only
//! compiles them. The CI `large-graph` job runs the binary with
//! `--release -- --ignored --test-threads=1` — single-threaded because
//! the oracle and construction legs time themselves and must not share
//! the CPUs with another leg.

use kdom::congest::{AlphaSimulator, EngineConfig, Simulator};
use kdom::core::dist::bfs::BfsNode;
use kdom::core::dist::executor::Executor;
use kdom::core::dist::fastdom::fast_dom_g_distributed;
use kdom::core::dist::fragments::FragmentNode;
use kdom::core::fastdom::WithinCluster;
use kdom::core::verify::{check_k_dominating_with_threads, check_mst_fragments_with_threads};
use kdom::graph::generators::{gnm_connected, random_tree, star, GenConfig};
use kdom::graph::mst_ref::kruskal_with_threads;
use kdom::graph::{Graph, NodeId};
use kdom::mst::fastmst::{default_k, fast_mst, fast_mst_from_root};

const N: usize = 100_000;
const M: usize = 200_000;

/// The shared 10^5-node, 2×10^5-edge streamed graph.
fn big_graph() -> Graph {
    gnm_connected(&GenConfig::with_seed(N, 2026), M)
}

/// The configurations the large runs must agree across: every node
/// stepped every round and the active set, single-threaded, plus a
/// 4-thread active-set leg whose `shard_min` is low enough that even
/// late, sparse frontiers still split into multiple shards (so the
/// bucketed merge is exercised on every parallel round).
fn configs() -> Vec<(&'static str, EngineConfig)> {
    let base = EngineConfig::default().with_shard_min(64);
    vec![
        (
            "every-node/1t",
            base.with_dense_pct(0)
                .with_fast_forward(false)
                .with_threads(1),
        ),
        ("active-set/1t", base.with_threads(1)),
        ("active-set/4t", base.with_threads(4)),
    ]
}

fn assert_parity<P, F>(g: &Graph, make_nodes: F, what: &str) -> String
where
    P: kdom::congest::Protocol + std::fmt::Debug,
    F: Fn(&Graph) -> Vec<P>,
{
    let mut baseline: Option<(String, String)> = None;
    for (name, cfg) in configs() {
        let mut sim = Simulator::with_config(g, make_nodes(g), cfg);
        sim.run(1_000_000).expect("large run quiesces");
        let nodes = format!("{:?}", sim.nodes());
        let report = format!("{:?}", sim.report());
        assert!(
            sim.report().peak_memory_bytes > 0,
            "{what}: engine must report peak memory"
        );
        match &baseline {
            None => baseline = Some((nodes, report)),
            Some((n, r)) => {
                assert_eq!(n, &nodes, "{what}: node states diverged under {name}");
                assert_eq!(r, &report, "{what}: RunReport diverged under {name}");
            }
        }
    }
    baseline.expect("at least one config ran").0
}

/// BFS across the full config matrix, then the same protocol under
/// synchronizer α: the asynchronous execution must land on the exact
/// depths of the synchronous baseline.
#[test]
#[ignore = "release-mode CI leg (minutes in debug); run with --ignored"]
fn bfs_parity_and_alpha_at_1e5() {
    let g = big_graph();
    let make = |g: &Graph| {
        (0..g.node_count())
            .map(|v| BfsNode::new(v == 0))
            .collect::<Vec<BfsNode>>()
    };
    let sync_nodes = assert_parity(&g, make, "large BFS");

    let mut alpha = AlphaSimulator::new(&g, make(&g), 9, 3);
    alpha.run(10_000_000).expect("α BFS quiesces");
    assert_eq!(
        sync_nodes,
        format!("{:?}", alpha.into_nodes()),
        "α diverged from the synchronous engine at 10^5 nodes"
    );
}

/// SimpleMST fragments at 10^5 nodes: the message-heaviest parity leg —
/// fragment merges keep a large active set alive for many rounds, so the
/// bucketed merge carries real per-round volume here.
#[test]
#[ignore = "release-mode CI leg (minutes in debug); run with --ignored"]
fn simple_mst_parity_at_1e5() {
    let g = big_graph();
    assert_parity(
        &g,
        |g| {
            g.nodes()
                .map(|v| FragmentNode::new(6, g.id_of(v)))
                .collect::<Vec<FragmentNode>>()
        },
        "large SimpleMST",
    );
}

/// The data-parallel oracle certifying a streamed Fast-MST run at 10^5
/// nodes: the reference Kruskal (chunk-sorted + merged) and the
/// dominator-assignment multi-source BFS (ranked-frontier level-sync),
/// at 1 and 4 workers. Verdicts must be byte-identical at every thread
/// count; on a ≥4-core host the 4-worker certification must also beat
/// the sequential one. Undersubscribed machines skip the timing claim
/// with a log line — the same policy as the bench harness's
/// `can_bench_threads` — but always check equality (correctness needs no
/// real parallelism).
#[test]
#[ignore = "release-mode CI leg (minutes in debug); run with --ignored"]
fn parallel_oracle_certifies_fast_mst_at_1e5() {
    let g = big_graph();
    let run = fast_mst(&g);
    assert_eq!(run.mst_edges.len(), N - 1, "spanning tree incomplete");
    // every 50th node: far denser than needed, since diam(G) << k = ⌈√n⌉
    let sources: Vec<kdom::graph::NodeId> = (0..N).step_by(50).map(kdom::graph::NodeId).collect();

    let certify = |threads: usize| {
        (
            kruskal_with_threads(&g, threads),
            check_mst_fragments_with_threads(&g, &run.mst_edges, threads),
            check_k_dominating_with_threads(&g, &sources, run.k, threads),
        )
    };

    let seq = certify(1);
    let par = certify(4);
    assert_eq!(seq.0, par.0, "reference MST diverged across thread counts");
    assert_eq!(seq.1, par.1, "MST-fragment verdict diverged");
    assert_eq!(seq.2, par.2, "domination verdict diverged");
    seq.1.as_ref().expect("Fast-MST edges form the unique MST");
    seq.2.as_ref().expect("sampled sources k-dominate");

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    if nproc < 4 {
        eprintln!("parallel_oracle: skipping 4-thread timing claim: only {nproc} CPU(s) available");
        return;
    }
    let time = |threads: usize| {
        (0..3)
            .map(|_| {
                let t = std::time::Instant::now();
                let (mst, frag, dom) = std::hint::black_box(certify(threads));
                assert!(!mst.is_empty() && frag.is_ok() && dom.is_ok());
                t.elapsed()
            })
            .min()
            .expect("three timed runs")
    };
    let t_seq = time(1);
    let t_par = time(4);
    eprintln!(
        "parallel_oracle: certification {:.1} ms sequential vs {:.1} ms at 4 workers",
        t_seq.as_secs_f64() * 1e3,
        t_par.as_secs_f64() * 1e3
    );
    assert!(
        t_par < t_seq,
        "4-worker oracle ({t_par:?}) not faster than sequential ({t_seq:?}) on a {nproc}-core host"
    );
}

/// CI `large-graph` smoke: streamed Fast-MST (`k = ⌈√n⌉`) at 10^5 nodes
/// on 4 engine threads, asserting the reported engine peak memory
/// stays under a pinned budget. The budget is deliberately generous —
/// it exists to catch accidental O(n²) structures or unbounded staging
/// growth, not to tune constants.
#[test]
#[ignore = "release-mode CI leg (minutes in debug); run with --ignored"]
fn fast_mst_1e5_peak_memory_budget() {
    const BUDGET: u64 = 256 << 20; // 256 MiB for n = 10^5, m = 2×10^5

    let g = big_graph();
    let config = EngineConfig::default().with_threads(4);
    let run = fast_mst_from_root(&g, default_k(g.node_count()), NodeId(0), config);

    assert_eq!(run.mst_edges.len(), N - 1, "spanning tree incomplete");
    assert_eq!(run.stalls, 0, "pipeline stalled (Lemma 5.3)");
    let peak = run.pipeline_report.peak_memory_bytes;
    assert!(peak > 0, "pipeline must report peak memory");
    assert!(
        peak <= BUDGET,
        "pipeline peak {peak} bytes exceeds the {BUDGET}-byte budget"
    );
    eprintln!(
        "fast_mst_1e5: peak {} MiB of {} MiB budget, {} total rounds",
        peak >> 20,
        BUDGET >> 20,
        run.total_rounds()
    );
}

/// The best of three wall-clock times of `run` (its output is dropped
/// after the clock stops).
fn best_of_3<T>(run: impl Fn() -> T) -> std::time::Duration {
    (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            let out = std::hint::black_box(run());
            let elapsed = t.elapsed();
            drop(out);
            elapsed
        })
        .min()
        .expect("three timed runs")
}

/// A 10^6-node star is built in under 4× the time of a random tree of
/// the same size, though its hub holds 10^6 − 1 arcs: construction does
/// no per-arc scan of a node's earlier arcs (a Σdeg² check made the star
/// quadratic, 3 s at 10^5 nodes against 0.01 s for the tree).
#[test]
#[ignore = "release-mode CI leg (seconds in release); run with --ignored"]
fn star_builds_within_4x_of_a_random_tree_at_1e6() {
    const N: usize = 1_000_000;
    let t_star = best_of_3(|| star(&GenConfig::with_seed(N, 1)));
    let t_tree = best_of_3(|| random_tree(&GenConfig::with_seed(N, 1)));
    eprintln!(
        "construction at 10^6: star {:.1} ms, random tree {:.1} ms",
        t_star.as_secs_f64() * 1e3,
        t_tree.as_secs_f64() * 1e3
    );
    assert!(
        t_star < 4 * t_tree,
        "star {t_star:?} not within 4x of random tree {t_tree:?}"
    );
}

/// Building a star and a connected G(n, 2n) grows less than 40× from
/// 10^5 to 10^6 nodes. Linear work gives 10× plus the cache effect of a
/// working set that no longer fits (15–30× measured); a Σdeg² star gives
/// 100×.
#[test]
#[ignore = "release-mode CI leg (seconds in release); run with --ignored"]
fn construction_grows_linearly_from_1e5_to_1e6() {
    for name in ["star", "gnm"] {
        let build = |n: usize| match name {
            "star" => star(&GenConfig::with_seed(n, 1)),
            _ => gnm_connected(&GenConfig::with_seed(n, 1), 2 * n),
        };
        let small = best_of_3(|| build(100_000));
        let large = best_of_3(|| build(1_000_000));
        let ratio = large.as_secs_f64() / small.as_secs_f64();
        eprintln!(
            "construction of {name}: {:.1} ms at 10^5, {:.1} ms at 10^6 ({ratio:.1}x)",
            small.as_secs_f64() * 1e3,
            large.as_secs_f64() * 1e3
        );
        assert!(
            ratio < 40.0,
            "{name}: 10^5 -> 10^6 construction grew {ratio:.1}x"
        );
    }
}

/// `FastDOM_G` on a 10^5-leaf star runs in under 2× its time on a random
/// tree of the same size (6.5× when the hub scanned its arcs once per
/// child): the cluster-tree plan takes a child's port from the twin of
/// the child's parent port, and SimpleMST dedupes a round's attachments
/// against the last child.
#[test]
#[ignore = "release-mode CI leg (seconds in release); run with --ignored"]
fn fast_dom_g_on_a_star_within_2x_of_a_random_tree_at_1e5() {
    let time = |g: &Graph| {
        best_of_3(|| fast_dom_g_distributed(g, 4, WithinCluster::OptimalDp, &Executor::default()))
    };
    let t_star = time(&star(&GenConfig::with_seed(N, 1)));
    let t_tree = time(&random_tree(&GenConfig::with_seed(N, 1)));
    eprintln!(
        "FastDOM_G at 10^5, k = 4: star {:.0} ms, random tree {:.0} ms",
        t_star.as_secs_f64() * 1e3,
        t_tree.as_secs_f64() * 1e3
    );
    assert!(
        t_star < 2 * t_tree,
        "star {t_star:?} not within 2x of random tree {t_tree:?}"
    );
}
