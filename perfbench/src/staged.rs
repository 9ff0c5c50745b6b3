//! The traced replays: the library's compositions re-run stage by
//! stage through their public entry points, with a span around every
//! call into a layer.
//!
//! Each replay mirrors one library call exactly — same automata, same
//! round budgets, same engine configuration (plus codec profiling, which
//! never changes a report) — so its outputs and reports must equal the
//! untraced call's. The workloads check that equality on every traced
//! run; a drift between a replay and the library it mirrors shows up as
//! a failure, not as quietly wrong per-layer numbers.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

use kdom::congest::jobs::{Algo, JobOutput, RunSpec};
use kdom::congest::{EngineConfig, Port, Protocol, RunReport, Simulator};
use kdom::core::cluster::Charge;
use kdom::core::dist::bfs::BfsNode;
use kdom::core::dist::fragments::{forest_from_parents, schedule_end, DistFragments, FragmentNode};
use kdom::core::dist::treedp::{DpConfig, TreeDpNode};
use kdom::core::partition::dom_partition;
use kdom::graph::{EdgeId, Graph, NodeId};
use kdom::mst::fastmst::{default_k, FastMstRun};
use kdom::mst::pipeline::{PipelineConfig, PipelineNode};

use crate::spans::{EngineCounts, Spans};

/// `Simulator::run` to quiescence, spanned: `engine.build` around
/// construction, `engine.fast_forward` around every skip, `engine.step`
/// around every executed round (its wire-codec share carved out into
/// `wire.codec`), and `engine.teardown` around `into_parts`.
///
/// # Errors
///
/// The simulator's error, as text.
pub fn run_engine<P: Protocol>(
    tr: &mut Spans,
    g: &Graph,
    nodes: Vec<P>,
    max_rounds: u64,
    config: EngineConfig,
) -> Result<(Vec<P>, RunReport), String> {
    let config = config.with_codec_profile(true);
    let mut sim = tr.span("engine.build", |_| Simulator::with_config(g, nodes, config));
    let mut executed = 0u64;
    loop {
        if sim.quiescent() {
            break;
        }
        tr.span("engine.fast_forward", |_| sim.fast_forward(max_rounds));
        if sim.quiescent() {
            break;
        }
        if sim.report().rounds >= max_rounds {
            // let the library build its stall diagnosis
            return Err(sim
                .run(max_rounds)
                .err()
                .map_or_else(|| "round limit reached".to_string(), |e| e.to_string()));
        }
        let start = Instant::now();
        let stepped = sim.step();
        let elapsed = start.elapsed();
        tr.record("engine.step", elapsed);
        tr.steps.push(elapsed);
        executed += 1;
        stepped.map_err(|e| e.to_string())?;
    }
    let (codec_ns, codec_msgs) = sim.codec_stats();
    tr.carve(
        "engine.step",
        "wire.codec",
        std::time::Duration::from_nanos(codec_ns),
    );
    let (_, skipped) = sim.fast_forward_stats();
    let (nodes, report) = tr.span("engine.teardown", |_| sim.into_parts());
    tr.engine.absorb(&EngineCounts {
        executed_rounds: executed,
        ff_skipped_rounds: skipped,
        messages: report.messages,
        total_bits: report.total_bits,
        peak_mem_bytes: report.peak_memory_bytes,
        codec_msgs,
    });
    Ok((nodes, report))
}

/// `run_simple_mst_configured` on the synchronous executor, in a
/// `core.simple_mst` span.
///
/// # Errors
///
/// The simulator's error, as text.
pub fn simple_mst(
    tr: &mut Spans,
    g: &Graph,
    k: usize,
    config: EngineConfig,
) -> Result<DistFragments, String> {
    tr.span("core.simple_mst", |tr| fragments(tr, g, k, config))
}

/// The body of [`simple_mst`], for callers that extend its span.
fn fragments(
    tr: &mut Spans,
    g: &Graph,
    k: usize,
    config: EngineConfig,
) -> Result<DistFragments, String> {
    let nodes: Vec<FragmentNode> = g
        .nodes()
        .map(|v| FragmentNode::new(k, g.id_of(v)))
        .collect();
    let (nodes, report) = run_engine(tr, g, nodes, schedule_end(k) + 8, config)?;
    let parents: Vec<Option<Port>> = nodes.iter().map(|x| x.parent).collect();
    let (fragment_of, roots, tree_edges) = forest_from_parents(g, &parents);
    Ok(DistFragments {
        fragment_of,
        roots,
        tree_edges,
        parents,
        report,
    })
}

/// `DOMPartition(k)` on every fragment, as `fast_mst` and `FastDOM_G`
/// run it: the clusters of all fragments and the largest charge.
fn partition_fragments(
    g: &Graph,
    fragments: &DistFragments,
    k: usize,
) -> (Vec<(NodeId, Vec<NodeId>)>, Charge) {
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); fragments.roots.len()];
    for v in g.nodes() {
        members[fragments.fragment_of[v.0]].push(v);
    }
    let mut frag_edges: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); fragments.roots.len()];
    for &e in &fragments.tree_edges {
        let er = g.edge(e);
        frag_edges[fragments.fragment_of[er.u.0]].push((er.u, er.v));
    }
    let mut charge = Charge::default();
    let mut clusters = Vec::new();
    for (f, mem) in members.into_iter().enumerate() {
        let res = dom_partition(g, mem, &frag_edges[f], k);
        if res.charge.rounds > charge.rounds {
            charge = res.charge;
        }
        clusters.extend(res.clusters);
    }
    (clusters, charge)
}

/// BFS from node 0 as the service's `Algo::Bfs` and `run_bfs` drive it.
fn bfs_nodes(
    tr: &mut Spans,
    g: &Graph,
    config: EngineConfig,
) -> Result<(Vec<BfsNode>, RunReport), String> {
    let nodes = (0..g.node_count()).map(|v| BfsNode::new(v == 0)).collect();
    run_engine(tr, g, nodes, 4 * g.node_count() as u64 + 16, config)
}

/// `fast_mst(g)` (root node 0, `k = ⌈√n⌉`) stage by stage.
///
/// # Errors
///
/// A stage's failure, as text.
pub fn fast_mst(tr: &mut Spans, g: &Graph, config: EngineConfig) -> Result<FastMstRun, String> {
    let k = default_k(g.node_count());
    let fragments = simple_mst(tr, g, k, config)?;

    let (cluster_of, cluster_count, partition_charge) = tr.span("core.dom_partition", |tr| {
        let (clusters, charge) = partition_fragments(g, &fragments, k);
        tr.partition_charge_rounds += charge.rounds;
        let mut cluster_of = vec![0u64; g.node_count()];
        for (center, members) in &clusters {
            let cid = g.id_of(*center);
            for &v in members {
                cluster_of[v.0] = cid;
            }
        }
        (cluster_of, clusters.len(), charge)
    });

    let (bfs, bfs_report) = tr.span("mst.bfs", |tr| bfs_nodes(tr, g, config))?;
    let (nodes, report) = tr.span("mst.pipeline", |tr| {
        let nodes: Vec<PipelineNode> = bfs
            .iter()
            .enumerate()
            .map(|(v, b)| {
                PipelineNode::new(PipelineConfig {
                    parent: b.parent,
                    children: b.children.clone(),
                    cluster: cluster_of[v],
                    eliminate: true,
                    barrier: false,
                })
            })
            .collect();
        let budget = 40 * (g.node_count() as u64 + g.edge_count() as u64) + 1000;
        run_engine(tr, g, nodes, budget, config)
    })?;

    tr.span("mst.assemble", |_| {
        let root = &nodes[0];
        let mst_weights = root.result.clone().ok_or("root computed no MST")?;
        let collect_rounds = root.collect_done_round.ok_or("root never finished")?;
        let weight_to_edge: HashMap<u64, EdgeId> =
            g.edges().iter().map(|e| (e.weight, e.id)).collect();
        let mut mst_edges: Vec<EdgeId> = fragments.tree_edges.clone();
        let selected: HashSet<EdgeId> = mst_edges.iter().copied().collect();
        for w in &mst_weights {
            let e = weight_to_edge[w];
            if !selected.contains(&e) {
                mst_edges.push(e);
            }
        }
        Ok(FastMstRun {
            mst_edges,
            k,
            cluster_count,
            fragment_rounds: fragments.report.rounds,
            partition_charge,
            bfs_rounds: bfs_report.rounds,
            pipeline_rounds: report.rounds,
            collect_rounds,
            stalls: nodes.iter().map(|n| n.stalls).sum(),
            pipeline_report: report,
        })
    })
}

/// Per-node parent port and child ports of the cluster trees.
type TreePorts = (Vec<Option<Port>>, Vec<Vec<Port>>);

/// Per-node cluster-tree ports of a `(center, members)`
/// partition over the fragment tree edges — the within-cluster stage's
/// set-up, built the way `fast_dom_g_distributed_configured` builds it.
fn cluster_tree_ports(
    g: &Graph,
    clusters: &[(NodeId, Vec<NodeId>)],
    tree_adj: &[Vec<NodeId>],
) -> Result<TreePorts, String> {
    let n = g.node_count();
    let mut cluster_of = vec![usize::MAX; n];
    for (i, (_, members)) in clusters.iter().enumerate() {
        for &v in members {
            cluster_of[v.0] = i;
        }
    }
    let port_to = |v: NodeId, w: NodeId| {
        g.neighbors(v)
            .iter()
            .position(|a| a.to == w)
            .map(Port)
            .ok_or_else(|| format!("tree edge {v:?}-{w:?} is not in the graph"))
    };
    let mut parent = vec![None; n];
    let mut children = vec![Vec::new(); n];
    for (i, (center, members)) in clusters.iter().enumerate() {
        let mut seen = HashSet::new();
        seen.insert(*center);
        let mut q = VecDeque::from([*center]);
        while let Some(u) = q.pop_front() {
            for &w in &tree_adj[u.0] {
                if cluster_of[w.0] == i && seen.insert(w) {
                    parent[w.0] = Some(port_to(w, u)?);
                    children[u.0].push(port_to(u, w)?);
                    q.push_back(w);
                }
            }
        }
        if seen.len() != members.len() {
            return Err(format!("cluster {i} is not tree-connected"));
        }
    }
    Ok((parent, children))
}

/// The service's `Algo::FastDomG` (optimal within-cluster DP) stage by
/// stage: per-node dominator ids and the absorbed report.
///
/// # Errors
///
/// A stage's failure, as text.
pub fn fast_dom_g(
    tr: &mut Spans,
    g: &Graph,
    k: usize,
    config: EngineConfig,
) -> Result<(Vec<u64>, RunReport), String> {
    let fragments = simple_mst(tr, g, k, config)?;
    let (clusters, charge) = tr.span("core.dom_partition", |tr| {
        let (clusters, charge) = partition_fragments(g, &fragments, k);
        tr.partition_charge_rounds += charge.rounds;
        (clusters, charge)
    });
    let (dominators, within) = tr.span("core.fastdom_within", |tr| {
        let mut tree_adj: Vec<Vec<NodeId>> = vec![Vec::new(); g.node_count()];
        for &e in &fragments.tree_edges {
            let er = g.edge(e);
            tree_adj[er.u.0].push(er.v);
            tree_adj[er.v.0].push(er.u);
        }
        let (parent, children) = cluster_tree_ports(g, &clusters, &tree_adj)?;
        let nodes: Vec<TreeDpNode> = (0..g.node_count())
            .map(|v| {
                TreeDpNode::new(DpConfig {
                    parent: parent[v],
                    children: children[v].clone(),
                    k,
                })
            })
            .collect();
        let budget = 30 * (g.node_count() as u64 + k as u64) + 128;
        let (nodes, report) = run_engine(tr, g, nodes, budget, config)?;
        let ids = nodes
            .iter()
            .map(|x| x.dominator.ok_or("a node was left unclaimed"))
            .collect::<Result<Vec<u64>, _>>()?;
        Ok::<_, String>((ids, report))
    })?;
    let mut report = fragments.report.clone();
    report.charge_rounds(charge.rounds);
    report.absorb(&within);
    Ok((dominators, report))
}

/// `kdom::mst::service::run` on the synchronous executor, stage by
/// stage: the same per-node output rows and report.
///
/// # Errors
///
/// A stage's failure, as text.
pub fn run_spec(tr: &mut Spans, g: &Graph, spec: &RunSpec) -> Result<JobOutput, String> {
    let config = spec.engine_config();
    let k = kdom::mst::service::resolve_k(spec, g);
    // each branch harvests its rows, and frees the automata, inside its
    // stage's span
    let (outputs, report) = match spec.algo {
        Algo::SimpleMst => tr.span("core.simple_mst", |tr| {
            let frags = fragments(tr, g, k, config)?;
            let rows = frags
                .parents
                .iter()
                .map(|p| p.map_or(0, |p| p.0 as u64 + 1))
                .collect();
            Ok::<_, String>((rows, frags.report))
        })?,
        Algo::FastDomG => fast_dom_g(tr, g, k, config)?,
        Algo::Bfs => tr.span("mst.bfs", |tr| {
            let (nodes, report) = bfs_nodes(tr, g, config)?;
            let rows = nodes
                .iter()
                .map(|n| n.parent.map_or(0, |p| p.0 as u64 + 1))
                .collect();
            Ok::<_, String>((rows, report))
        })?,
    };
    Ok(JobOutput {
        report,
        outputs,
        trace: Vec::new(),
    })
}
