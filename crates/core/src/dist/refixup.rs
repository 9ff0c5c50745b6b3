//! Incremental re-fixup after churn epochs.
//!
//! When the topology changes under a finished run, a full restart is
//! always correct — but it re-pays `O(k)` rounds for every node in the
//! graph, even when one edge-weight nudge touched two fragments. This
//! module recomputes only what an epoch's events could have touched:
//!
//! 1. **Dirty closure.** An event marks *old final fragments* dirty: the
//!    endpoints of a changed/inserted/removed edge, a leaving node's
//!    fragment plus its neighbors' fragments, a join's link targets.
//!    Fresh nodes (joins) are dirty by definition. The dirty scope is
//!    the union of those fragments' members, mapped into the new graph.
//! 2. **Local re-run.** The distributed `SimpleMST` runs on the induced
//!    subgraph of the dirty scope, carrying the original application
//!    ids (so tie-breaking matches a global run) and original weights.
//! 3. **Splice.** Clean nodes keep their old parent ports — valid
//!    because the dirty closure guarantees a clean node's adjacency list
//!    is unchanged (every modified edge endpoint is dirty, surviving
//!    edges keep their relative order, and inserted edges only append).
//!    Dirty nodes take their parents from the local run, translated
//!    back to global ports. The forest is re-extracted with the *same*
//!    numbering rule as a full run
//!    ([`crate::dist::fragments::forest_from_parents`]).
//! 4. **Certificate.** The spliced forest is compared against the
//!    sequential oracle on the full new graph
//!    ([`crate::fragments::simple_mst_forest`]): identical edge sets,
//!    identical partition (up to renumbering), identical root sets. A
//!    mismatch — e.g. a merge that should have crossed the dirty/clean
//!    boundary — falls back to a full distributed restart, so the
//!    incremental path can only ever trade rounds, never correctness.
//!
//! For `DOMPartition_1` the story is simpler and is implemented in
//! [`refixup_partition1`]: the partition never reads edge weights and a
//! weight-only epoch keeps every port identical, so it is a certified
//! no-op; structural events restart the partition, because the DFS
//! segmentation is globally order-dependent — a single subtree size
//! change can relabel every cluster downstream, so there is no local
//! scope to exploit.
//!
//! Every decision is recorded in the trace stream (`KDOM_TRACE`): the
//! epoch's churn events, then a `refixup` event claiming the scope. For
//! an incremental decision the trace validator audits that the next run
//! simulates **at most `scope` nodes** — an over-eager "incremental"
//! path that secretly re-runs the world fails validation.

use std::collections::HashMap;

use kdom_congest::faults::{apply_churn, ChurnError, ChurnEvent, ChurnRemap};
use kdom_congest::{FaultPlan, Port};
use kdom_graph::{Graph, GraphBuilder, NodeId};

use crate::dist::executor::Executor;
use crate::dist::fragments::{forest_from_parents, run_simple_mst, DistFragments};
use crate::fragments::{simple_mst_forest, Fragments};

/// Outcome of one fragment re-fixup.
#[derive(Clone, Debug)]
pub struct FragRefixup {
    /// The repaired forest on the new graph.
    pub fragments: DistFragments,
    /// Nodes in the dirty scope (the incremental path simulated at most
    /// this many; equals the node count on a full restart).
    pub scope: usize,
    /// Whether the full-restart fallback ran (dirty scope covered the
    /// graph, or the certificate rejected the splice).
    pub full_restart: bool,
}

/// Marks the old fragments an epoch's events touch and returns the
/// dirty node set **of the new graph**, in ascending node order. Fresh
/// nodes (no old counterpart) are always dirty.
pub fn dirty_scope(
    old_g: &Graph,
    old: &DistFragments,
    new_g: &Graph,
    remap: &ChurnRemap,
    events: &[ChurnEvent],
) -> Vec<NodeId> {
    let mut dirty_frag = vec![false; old.roots.len()];
    // ids born earlier in the same epoch miss the lookup; their nodes
    // are fresh in the new graph and therefore dirty anyway
    fn mark(dirty: &mut [bool], old_g: &Graph, old: &DistFragments, id: u64) {
        if let Some(v) = old_g.node_with_id(id) {
            dirty[old.fragment_of[v.0]] = true;
        }
    }
    for ev in events {
        match ev {
            ChurnEvent::NodeLeave { id } => {
                if let Some(v) = old_g.node_with_id(*id) {
                    dirty_frag[old.fragment_of[v.0]] = true;
                    for a in old_g.neighbors(v) {
                        dirty_frag[old.fragment_of[a.to.0]] = true;
                    }
                }
            }
            ChurnEvent::NodeJoin { links, .. } => {
                for (target, _) in links {
                    mark(&mut dirty_frag, old_g, old, *target);
                }
            }
            ChurnEvent::EdgeWeightChange { a, b, .. }
            | ChurnEvent::EdgeInsert { a, b, .. }
            | ChurnEvent::EdgeRemove { a, b } => {
                mark(&mut dirty_frag, old_g, old, *a);
                mark(&mut dirty_frag, old_g, old, *b);
            }
        }
    }
    new_g
        .nodes()
        .filter(|&v| match remap.new_to_old[v.0] {
            Some(o) => dirty_frag[old.fragment_of[o.0]],
            None => true,
        })
        .collect()
}

/// Whether a candidate forest equals the sequential oracle: same edge
/// set, same root set, and the same partition up to renumbering.
fn matches_oracle(cand: &DistFragments, oracle: &Fragments) -> bool {
    let mut ce = cand.tree_edges.clone();
    ce.sort_unstable();
    let mut oe = oracle.tree_edges.clone();
    oe.sort_unstable();
    if ce != oe {
        return false;
    }
    let mut cr = cand.roots.clone();
    cr.sort_unstable();
    let mut or = oracle.roots.clone();
    or.sort_unstable();
    if cr != or {
        return false;
    }
    if cand.fragment_of.len() != oracle.fragment_of.len() {
        return false;
    }
    let mut fwd = HashMap::new();
    let mut bwd = HashMap::new();
    for (c, o) in cand.fragment_of.iter().zip(&oracle.fragment_of) {
        if *fwd.entry(*c).or_insert(*o) != *o || *bwd.entry(*o).or_insert(*c) != *c {
            return false;
        }
    }
    true
}

/// Repairs a `SimpleMST` forest after one churn epoch.
///
/// `old` is the forest computed on `old_g`; `new_g`/`remap` come from
/// [`apply_churn`] over `events`. The incremental path re-runs the
/// distributed protocol only on the dirty scope and splices the result
/// (see the module docs); it is certified against the sequential oracle
/// and falls back to a full distributed restart on any mismatch, so the
/// returned forest is always oracle-correct. `epoch` tags the trace
/// events.
///
/// # Panics
///
/// Panics if a protocol run fails to quiesce (as [`run_simple_mst`]).
#[allow(clippy::too_many_arguments)]
pub fn refixup_fragments(
    old_g: &Graph,
    old: &DistFragments,
    new_g: &Graph,
    remap: &ChurnRemap,
    events: &[ChurnEvent],
    k: usize,
    exec: &Executor,
    epoch: u64,
) -> FragRefixup {
    let n = new_g.node_count();
    let dirty = dirty_scope(old_g, old, new_g, remap, events);

    let full = |why_full: bool| -> FragRefixup {
        kdom_congest::trace::emit_refixup(epoch, n, n, true);
        FragRefixup {
            fragments: run_simple_mst(new_g, k, exec),
            scope: n,
            full_restart: why_full,
        }
    };
    if dirty.len() == n {
        return full(true);
    }

    // splice: clean nodes keep their old parent ports
    let mut in_dirty = vec![false; n];
    for &v in &dirty {
        in_dirty[v.0] = true;
    }
    let mut parents: Vec<Option<Port>> = vec![None; n];
    for v in new_g.nodes() {
        if !in_dirty[v.0] {
            let o = remap.new_to_old[v.0].expect("clean nodes survive the epoch");
            parents[v.0] = old.parents[o.0];
        }
    }

    // local re-run on the induced dirty subgraph (original ids and
    // weights, so every tie-break matches a global run); a run over
    // at most `dirty.len()` nodes — which the trace validator audits.
    // Dirty nodes with no dirty neighbor are left out of the run: they
    // induce degree-0 vertices, every executor computes the same thing
    // for a singleton fragment (no parent), and the α synchronizer
    // cannot clock an isolated node past pulse 0 at all.
    let wired: Vec<NodeId> = dirty
        .iter()
        .copied()
        .filter(|&v| new_g.neighbors(v).iter().any(|a| in_dirty[a.to.0]))
        .collect();
    let mut local_report = kdom_congest::RunReport::default();
    if !wired.is_empty() {
        kdom_congest::trace::emit_refixup(epoch, dirty.len(), n, false);
        let mut b = GraphBuilder::new(wired.len());
        b.ids(wired.iter().map(|&v| new_g.id_of(v)).collect());
        let sub_index: HashMap<NodeId, usize> =
            wired.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for e in new_g.edges() {
            if let (Some(&su), Some(&sv)) = (sub_index.get(&e.u), sub_index.get(&e.v)) {
                b.add_edge(NodeId(su), NodeId(sv), e.weight);
            }
        }
        let sub = b.build();
        let local = run_simple_mst(&sub, k, exec);
        local_report = local.report.clone();
        for (si, &v) in wired.iter().enumerate() {
            if let Some(p) = local.parents[si] {
                let target = wired[sub.neighbors(NodeId(si))[p.0].to.0];
                let port = new_g
                    .neighbors(v)
                    .iter()
                    .position(|a| a.to == target)
                    .expect("subgraph edges exist in the host graph");
                parents[v.0] = Some(Port(port));
            }
        }
    }

    let (fragment_of, roots, tree_edges) = forest_from_parents(new_g, &parents);
    // the candidate's report is the *local* run's: the rounds and
    // messages the repair actually spent (zero for a pure splice)
    let candidate = DistFragments {
        fragment_of,
        roots,
        tree_edges,
        parents,
        report: local_report,
    };
    let oracle = simple_mst_forest(new_g, k);
    if matches_oracle(&candidate, &oracle) {
        FragRefixup {
            fragments: candidate,
            scope: dirty.len(),
            full_restart: false,
        }
    } else {
        // a merge crossed the dirty/clean boundary: the heuristic was
        // too optimistic, correctness falls back to the full path
        full(true)
    }
}

/// Outcome of one partition re-fixup.
#[derive(Clone, Debug)]
pub struct P1Refixup {
    /// Cluster id (the center's application id) per node of the new
    /// graph.
    pub clusters: Vec<u64>,
    /// Center flag per node of the new graph.
    pub centers: Vec<bool>,
    /// Nodes the recovery touched (0 for the certified no-op).
    pub scope: usize,
    /// Whether the partition restarted from scratch.
    pub full_restart: bool,
}

/// Repairs a `DOMPartition_1` clustering after one churn epoch.
///
/// A weight-only epoch is a certified no-op: the partition never reads
/// edge weights, and [`apply_churn`] keeps node order and edge order —
/// hence every port — identical, so the old assignment is the correct
/// assignment and `scope == 0`. Any structural event restarts the
/// partition: the DFS segmentation behind `DOMPartition_1` is globally
/// order-dependent (one subtree size change relabels every cluster
/// after it in DFS order), so no useful local scope exists.
///
/// # Panics
///
/// Panics if `new_g` is not a tree when a restart is needed, as
/// [`crate::dist::partition1::run_partition1`].
pub fn refixup_partition1(
    old_clusters: &[u64],
    old_centers: &[bool],
    new_g: &Graph,
    events: &[ChurnEvent],
    root: NodeId,
    k: usize,
    epoch: u64,
) -> P1Refixup {
    let weight_only = events
        .iter()
        .all(|e| matches!(e, ChurnEvent::EdgeWeightChange { .. }));
    if weight_only {
        // no refixup trace event: no recovery run happens, and the
        // validator audits scope claims against the *next* run
        return P1Refixup {
            clusters: old_clusters.to_vec(),
            centers: old_centers.to_vec(),
            scope: 0,
            full_restart: false,
        };
    }
    let n = new_g.node_count();
    kdom_congest::trace::emit_refixup(epoch, n, n, true);
    let (nodes, _) = crate::dist::partition1::run_partition1(new_g, root, k);
    P1Refixup {
        clusters: nodes.iter().map(|x| x.cluster).collect(),
        centers: nodes.iter().map(|x| x.is_center).collect(),
        scope: n,
        full_restart: true,
    }
}

/// The state after one epoch of [`run_fragment_epochs`]: the topology,
/// the repaired forest, and how much work the repair did.
#[derive(Clone, Debug)]
pub struct FragmentEpochOutcome {
    /// The topology this forest lives on.
    pub graph: Graph,
    /// The (oracle-correct) forest.
    pub fragments: DistFragments,
    /// Nodes the computation touched (node count for the initial run
    /// and full restarts).
    pub scope: usize,
    /// Whether this outcome came from a full run.
    pub full_restart: bool,
}

/// Runs `SimpleMST` across all churn epochs of `plan`: one full run on
/// the base graph, then one [`refixup_fragments`] per epoch. Returns
/// `plan.epochs.len() + 1` outcomes, each oracle-correct for its
/// topology. Churn and refixup decisions land in the trace stream.
///
/// The plan's *transient* faults are not interpreted here — pass an
/// [`Executor::ReliableAlpha`] carrying them to run the protocol legs
/// under loss; the epochs are consumed from `plan` directly.
///
/// # Errors
///
/// Returns the [`ChurnError`] of the first epoch whose events do not
/// apply to the topology they arrived at.
///
/// # Panics
///
/// Panics if a protocol run fails to quiesce.
pub fn run_fragment_epochs(
    g: &Graph,
    plan: &FaultPlan,
    k: usize,
    exec: &Executor,
) -> Result<Vec<FragmentEpochOutcome>, ChurnError> {
    let mut out = Vec::with_capacity(plan.epochs.len() + 1);
    out.push(FragmentEpochOutcome {
        graph: g.clone(),
        fragments: run_simple_mst(g, k, exec),
        scope: g.node_count(),
        full_restart: true,
    });
    for (i, ep) in plan.epochs.iter().enumerate() {
        for ev in &ep.events {
            kdom_congest::trace::emit_churn(i as u64, ev);
        }
        let prev = out.last().expect("seeded with the initial run");
        let (next, remap) = apply_churn(&prev.graph, &ep.events)?;
        let fix = refixup_fragments(
            &prev.graph,
            &prev.fragments,
            &next,
            &remap,
            &ep.events,
            k,
            exec,
            i as u64,
        );
        out.push(FragmentEpochOutcome {
            graph: next,
            fragments: fix.fragments,
            scope: fix.scope,
            full_restart: fix.full_restart,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdom_graph::generators::Family;

    fn canonical(f: &DistFragments) -> (Vec<kdom_graph::EdgeId>, Vec<NodeId>, Vec<usize>) {
        let mut e = f.tree_edges.clone();
        e.sort_unstable();
        let mut r = f.roots.clone();
        r.sort_unstable();
        // renumber fragments by first appearance
        let mut seen = HashMap::new();
        let frag = f
            .fragment_of
            .iter()
            .map(|&x| {
                let next = seen.len();
                *seen.entry(x).or_insert(next)
            })
            .collect();
        (e, r, frag)
    }

    /// Re-weights the globally heaviest edge to `max + 1`: every weight
    /// comparison is unchanged, so the oracle output is identical and
    /// the incremental path must certify.
    fn weight_change_epoch(g: &Graph) -> Vec<ChurnEvent> {
        let e = g.edges().iter().max_by_key(|x| x.weight).unwrap();
        vec![ChurnEvent::EdgeWeightChange {
            a: g.id_of(e.u),
            b: g.id_of(e.v),
            weight: e.weight + 1,
        }]
    }

    #[test]
    fn incremental_matches_full_restart_on_weight_change() {
        let g = Family::Gnp.generate(60, 3);
        let k = 3;
        let exec = Executor::default();
        let old = run_simple_mst(&g, k, &exec);
        // a *disruptive* change: the lightest edge becomes the heaviest,
        // so merge decisions genuinely differ and the certificate (or
        // the fallback) has to earn its keep
        let e = g.edges().iter().min_by_key(|x| x.weight).unwrap();
        let max_w = g.edges().iter().map(|x| x.weight).max().unwrap();
        let events = vec![ChurnEvent::EdgeWeightChange {
            a: g.id_of(e.u),
            b: g.id_of(e.v),
            weight: max_w + 1,
        }];
        let (new_g, remap) = apply_churn(&g, &events).unwrap();
        let fix = refixup_fragments(&g, &old, &new_g, &remap, &events, k, &exec, 0);
        let full = run_simple_mst(&new_g, k, &exec);
        assert_eq!(canonical(&fix.fragments), canonical(&full));
        assert!(fix.scope <= new_g.node_count());
    }

    #[test]
    fn incremental_matches_full_restart_on_node_leave() {
        let g = Family::Grid.generate(49, 5);
        let k = 2;
        let exec = Executor::default();
        let old = run_simple_mst(&g, k, &exec);
        // remove an interior node (grid stays connected)
        let v = g
            .nodes()
            .find(|&v| {
                g.degree(v) == 4 && {
                    // removal keeps the grid connected: any interior node
                    true
                }
            })
            .unwrap();
        let events = vec![ChurnEvent::NodeLeave { id: g.id_of(v) }];
        let (new_g, remap) = apply_churn(&g, &events).unwrap();
        let fix = refixup_fragments(&g, &old, &new_g, &remap, &events, k, &exec, 0);
        let full = run_simple_mst(&new_g, k, &exec);
        assert_eq!(canonical(&fix.fragments), canonical(&full));
    }

    #[test]
    fn scope_shrinks_on_a_path() {
        // On a long path with small k there are many fragments; one
        // weight change must not re-run the whole world.
        let g = Family::Path.generate(120, 7);
        let k = 1;
        let exec = Executor::default();
        let old = run_simple_mst(&g, k, &exec);
        assert!(
            old.roots.len() >= 10,
            "path should split into many fragments"
        );
        let events = weight_change_epoch(&g);
        let (new_g, remap) = apply_churn(&g, &events).unwrap();
        let fix = refixup_fragments(&g, &old, &new_g, &remap, &events, k, &exec, 0);
        assert!(
            !fix.full_restart && fix.scope < new_g.node_count() / 2,
            "scope {} of {} (full_restart = {})",
            fix.scope,
            new_g.node_count(),
            fix.full_restart
        );
        let full = run_simple_mst(&new_g, k, &exec);
        assert_eq!(canonical(&fix.fragments), canonical(&full));
    }

    #[test]
    fn epoch_driver_chains_refixups() {
        let g = Family::Gnp.generate(40, 11);
        let plan = two_epoch_plan(&g);
        let out = run_fragment_epochs(&g, &plan, 3, &Executor::default()).unwrap();
        assert_eq!(out.len(), 3);
        for o in &out {
            // every epoch's output verifies against the oracle
            let oracle = simple_mst_forest(&o.graph, 3);
            assert!(matches_oracle(&o.fragments, &oracle));
        }
        assert_eq!(out[2].graph.node_count(), g.node_count() + 1);
    }

    /// Two epochs on `g`: a weight change that makes edge 1 the
    /// heaviest, then a join wired to nodes 0 and 1.
    fn two_epoch_plan(g: &Graph) -> FaultPlan {
        let max_w = g.edges().iter().map(|x| x.weight).max().unwrap();
        let e0 = &g.edges()[1];
        FaultPlan::new(0)
            .epoch(
                5,
                vec![ChurnEvent::EdgeWeightChange {
                    a: g.id_of(e0.u),
                    b: g.id_of(e0.v),
                    weight: max_w + 1,
                }],
            )
            .epoch(
                9,
                vec![ChurnEvent::NodeJoin {
                    id: 1 << 40,
                    links: vec![
                        (g.id_of(NodeId(0)), max_w + 2),
                        (g.id_of(NodeId(1)), max_w + 3),
                    ],
                }],
            )
    }

    /// The trace of `run_fragment_epochs` passes the validator, whose
    /// scope audit checks every incremental refixup claim against the
    /// recovery run after it.
    #[test]
    fn fragment_epochs_trace_passes_the_scope_audit() {
        use kdom_congest::trace::{validate_str, with_thread_trace, ThreadTrace};
        let g = Family::Gnp.generate(40, 11);
        let plan = two_epoch_plan(&g);
        let sink = kdom_congest::MemorySink::new();
        with_thread_trace(ThreadTrace::Capture(sink.clone()), || {
            run_fragment_epochs(&g, &plan, 3, &Executor::default()).unwrap()
        });
        let sum = validate_str(&sink.to_jsonl(), None).unwrap();
        let events: usize = plan.epochs.iter().map(|e| e.events.len()).sum();
        assert_eq!(sum.churn_events, events as u64);
        assert!(sum.refixups >= 1, "no refixup decision was traced");
    }

    #[test]
    fn fragment_epochs_return_the_churn_error_of_a_stale_epoch() {
        // every grid edge lies on a 4-cycle: removing one keeps the
        // graph connected
        let g = Family::Grid.generate(16, 1);
        let e = &g.edges()[0];
        let (a, b) = (g.id_of(e.u), g.id_of(e.v));
        let plan = FaultPlan::new(0)
            .epoch(5, vec![ChurnEvent::EdgeRemove { a, b }])
            .epoch(9, vec![ChurnEvent::EdgeRemove { a, b }]);
        let err = run_fragment_epochs(&g, &plan, 3, &Executor::default()).unwrap_err();
        assert_eq!(err, ChurnError::UnknownEdge { a, b });
    }

    #[test]
    fn partition1_weight_only_is_a_certified_noop() {
        let g = Family::RandomTree.generate(60, 13);
        let k = 3;
        let (nodes, _) = crate::dist::partition1::run_partition1(&g, NodeId(0), k);
        let clusters: Vec<u64> = nodes.iter().map(|x| x.cluster).collect();
        let centers: Vec<bool> = nodes.iter().map(|x| x.is_center).collect();
        let events = weight_change_epoch(&g);
        let (new_g, _) = apply_churn(&g, &events).unwrap();
        let fix = refixup_partition1(&clusters, &centers, &new_g, &events, NodeId(0), k, 0);
        assert!(!fix.full_restart);
        assert_eq!(fix.scope, 0);
        // the no-op claim: a fresh run on the new graph agrees exactly
        let (renodes, _) = crate::dist::partition1::run_partition1(&new_g, NodeId(0), k);
        let reclusters: Vec<u64> = renodes.iter().map(|x| x.cluster).collect();
        assert_eq!(fix.clusters, reclusters);
    }
}
