//! Chaos harness: seeded random churn+fault schedules against the
//! self-healing re-fixup pipeline, verified epoch-by-epoch against the
//! sequential oracle.
//!
//! Every schedule is a pure function of `(base graph, config, seed)`
//! ([`kdom::congest::gen_schedule`]), so a failing seed *is* the
//! reproduction. The sweep runs each schedule across engine thread
//! counts {1, 4} and across the sync / α / reliable-α executors and
//! demands byte-identical forests; after every churn epoch the repaired
//! forest must match [`simple_mst_forest`] on the current topology, and
//! the incremental path must agree with a fresh full restart. When a
//! schedule fails, [`kdom::congest::shrink`] bisects it down to a
//! minimal reproducing event list — the injected-bug smoke test shows a
//! 100-event schedule collapsing to a single culprit event.
//!
//! The `#[ignore]`d `chaos_nightly` sweep reads `KDOM_CHAOS_*` for a
//! bigger budget and writes the minimal seed plus a JSONL trace to
//! `KDOM_CHAOS_DIR` on failure (CI uploads them as artifacts).

use std::collections::HashMap;

use kdom::congest::{
    apply_churn, gen_schedule, gen_schedule_with_mix, shrink, ChaosConfig, ChaosSchedule,
    ChurnEvent, EngineConfig, EventMix, FaultPlan,
};
use kdom::core::dist::executor::Executor;
use kdom::core::dist::fragments::{run_simple_mst, DistFragments};
use kdom::core::dist::partition1::run_partition1;
use kdom::core::dist::refixup::{refixup_partition1, run_fragment_epochs, FragmentEpochOutcome};
use kdom::core::fastdom::clusters_to_clustering;
use kdom::core::fragments::simple_mst_forest;
use kdom::core::verify::check_clusters;
use kdom::graph::generators::Family;
use kdom::graph::{EdgeId, Graph, NodeId};

/// Canonical form of a fragment forest: sorted edges, sorted roots, and
/// the partition renumbered by first appearance. Two forests are the
/// same forest iff their canonical forms are equal.
fn canonical(f: &DistFragments) -> (Vec<EdgeId>, Vec<NodeId>, Vec<usize>) {
    let mut e = f.tree_edges.clone();
    e.sort_unstable();
    let mut r = f.roots.clone();
    r.sort_unstable();
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

/// Asserts `f` equals the sequential oracle on `g` (independent of the
/// certificate inside the re-fixup — this recomputes the oracle here).
fn assert_matches_oracle(g: &Graph, f: &DistFragments, k: usize, ctx: &str) {
    let oracle = simple_mst_forest(g, k);
    let mut oe = oracle.tree_edges.clone();
    oe.sort_unstable();
    let mut or = oracle.roots.clone();
    or.sort_unstable();
    let (ce, cr, cf) = canonical(f);
    assert_eq!(ce, oe, "{ctx}: tree edges diverge from the oracle");
    assert_eq!(cr, or, "{ctx}: roots diverge from the oracle");
    let mut seen = HashMap::new();
    let of: Vec<usize> = oracle
        .fragment_of
        .iter()
        .map(|&x| {
            let next = seen.len();
            *seen.entry(x).or_insert(next)
        })
        .collect();
    assert_eq!(cf, of, "{ctx}: partition diverges from the oracle");
}

/// The plan's transient faults with the churn epochs stripped — what the
/// reliable-α executor should carry (epochs are consumed by the epoch
/// driver, not the transport).
fn transient_only(plan: &FaultPlan) -> FaultPlan {
    FaultPlan {
        epochs: Vec::new(),
        ..plan.clone()
    }
}

/// One leg of the sweep: a labelled executor.
fn legs(sched: &ChaosSchedule) -> Vec<(&'static str, Executor)> {
    vec![
        (
            "sync-t1",
            Executor::Sync(EngineConfig::default().with_threads(1)),
        ),
        (
            "sync-t4",
            Executor::Sync(EngineConfig::default().with_threads(4)),
        ),
        (
            "alpha",
            Executor::ReliableAlpha {
                seed: sched.seed,
                max_delay: 2,
                plan: FaultPlan::new(sched.seed), // fault-free α
            },
        ),
        (
            "reliable-alpha",
            Executor::ReliableAlpha {
                seed: sched.seed,
                max_delay: 2,
                plan: transient_only(&sched.plan),
            },
        ),
    ]
}

/// Runs one schedule through every leg and cross-checks everything.
/// Returns the per-epoch outcomes of the reference leg.
fn run_and_check(base: &Graph, sched: &ChaosSchedule, k: usize) -> Vec<FragmentEpochOutcome> {
    let all: Vec<(&str, Vec<FragmentEpochOutcome>)> = legs(sched)
        .into_iter()
        .map(|(label, exec)| {
            let outcomes = run_fragment_epochs(base, &sched.plan, k, &exec).unwrap_or_else(|e| {
                panic!("seed {} {label}: schedule does not apply: {e}", sched.seed)
            });
            (label, outcomes)
        })
        .collect();
    let (_, reference) = &all[0];
    assert_eq!(reference.len(), sched.plan.epochs.len() + 1);

    for (label, outcomes) in &all {
        assert_eq!(
            outcomes.len(),
            reference.len(),
            "seed {} {label}",
            sched.seed
        );
        for (i, (got, want)) in outcomes.iter().zip(reference).enumerate() {
            let ctx = format!("seed {} {label} epoch {i}", sched.seed);
            // every epoch's forest verifies against the sequential oracle
            assert_matches_oracle(&got.graph, &got.fragments, k, &ctx);
            // byte-identical across legs: same parents, same forest, and
            // the same incremental-vs-full decision with the same scope
            assert_eq!(
                got.fragments.parents, want.fragments.parents,
                "{ctx}: parent ports diverge across legs"
            );
            assert_eq!(
                canonical(&got.fragments),
                canonical(&want.fragments),
                "{ctx}"
            );
            assert_eq!(got.scope, want.scope, "{ctx}: scope diverges");
            assert_eq!(
                got.full_restart, want.full_restart,
                "{ctx}: restart decision diverges"
            );
        }
    }

    // thread counts 1 vs 4 are byte-identical including the RunReport
    let t1 = &all[0].1;
    let t4 = &all[1].1;
    for (i, (a, b)) in t1.iter().zip(t4).enumerate() {
        assert_eq!(
            a.fragments.report, b.fragments.report,
            "seed {} epoch {i}: reports diverge across thread counts",
            sched.seed
        );
    }
    all.into_iter().next().unwrap().1
}

/// The headline sweep: ≥ 50 seeded random churn schedules; after every
/// epoch the repaired forest verifies against the sequential oracle,
/// byte-identical across thread counts {1, 4} and across the
/// sync/α/reliable-α executors.
#[test]
fn fifty_seeded_schedules_survive_churn_on_every_leg() {
    let cfg = ChaosConfig {
        schedules: 50,
        epochs: 3,
        events_per_epoch: 2,
        ..ChaosConfig::default()
    };
    // a grid: sparse enough that a churn event's dirty scope stays
    // local, so the sweep exercises the incremental path, not just the
    // full-restart fallback (dense G(n,p) scopes swallow the graph)
    let base = Family::Grid.generate(36, 7);
    let k = 2;
    let mut total_events = 0usize;
    let mut incremental = 0usize;
    for i in 0..cfg.schedules as u64 {
        let sched = gen_schedule(&base, &cfg, cfg.seed + i);
        total_events += sched.event_count();
        let outcomes = run_and_check(&base, &sched, k);
        incremental += outcomes.iter().filter(|o| !o.full_restart).count();
    }
    assert!(total_events > 0, "the generator produced no churn at all");
    assert!(
        incremental > 0,
        "no schedule ever took the incremental path — the scope analysis is dead code"
    );
}

/// Incremental re-fixup produces the same forest as the full-restart
/// path, on every epoch of every schedule it fires on.
#[test]
fn incremental_refixup_matches_full_restart() {
    let cfg = ChaosConfig {
        schedules: 12,
        epochs: 3,
        events_per_epoch: 2,
        ..ChaosConfig::default()
    };
    let base = Family::Grid.generate(36, 11);
    let k = 2;
    let exec = Executor::Sync(EngineConfig::default().with_threads(1));
    let mut compared = 0usize;
    for i in 0..cfg.schedules as u64 {
        let sched = gen_schedule(&base, &cfg, cfg.seed ^ (i << 8));
        let outcomes = run_fragment_epochs(&base, &sched.plan, k, &exec)
            .expect("generated schedules apply by construction");
        for (e, o) in outcomes.iter().enumerate().skip(1) {
            let full = run_simple_mst(&o.graph, k, &exec);
            assert_eq!(
                canonical(&o.fragments),
                canonical(&full),
                "seed {} epoch {e}: incremental and full restart disagree",
                sched.seed
            );
            if !o.full_restart {
                compared += 1;
                assert!(
                    o.scope < o.graph.node_count(),
                    "seed {} epoch {e}: incremental claim with full scope",
                    sched.seed
                );
            }
        }
    }
    assert!(compared > 0, "no incremental repair was ever exercised");
}

/// Replays a schedule's churn and reports whether the injected bug
/// fires: the (deliberately broken) recovery logic under test treats
/// `NodeJoin` as a no-op, so any cleanly-applying schedule containing a
/// join is a failure. Schedules that stop applying after shrinking do
/// **not** reproduce — the shrinker has to navigate event dependencies.
fn injected_join_bug_fires(base: &Graph, sched: &ChaosSchedule) -> bool {
    let mut cur = base.clone();
    let mut saw_join = false;
    for ep in &sched.plan.epochs {
        match apply_churn(&cur, &ep.events) {
            Ok((next, _)) => cur = next,
            Err(_) => return false,
        }
        saw_join |= ep
            .events
            .iter()
            .any(|e| matches!(e, ChurnEvent::NodeJoin { .. }));
    }
    saw_join
}

/// The acceptance smoke test: a failing ~100-event schedule shrinks to
/// ≤ 5 events (here: the single culprit join), with the transient-fault
/// knobs shed along the way.
#[test]
fn shrinker_reduces_failing_100_event_schedule_to_five_events() {
    let base = Family::Gnp.generate(18, 5);
    let cfg = ChaosConfig {
        epochs: 40,
        events_per_epoch: 3,
        ..ChaosConfig::default()
    };
    let sched = gen_schedule(&base, &cfg, 0xFA11);
    assert!(
        sched.event_count() >= 100,
        "need a ≥100-event schedule to shrink, got {}",
        sched.event_count()
    );
    assert!(
        injected_join_bug_fires(&base, &sched),
        "the injected bug must fire on the full schedule"
    );
    let report = shrink(&sched, |s| injected_join_bug_fires(&base, s), 4_000);
    assert_eq!(report.events_before, sched.event_count());
    assert!(
        report.events_after <= 5,
        "shrinker left {} events (from {}), want ≤ 5",
        report.events_after,
        report.events_before
    );
    assert!(
        injected_join_bug_fires(&base, &report.schedule),
        "the minimal schedule no longer reproduces"
    );
    // every surviving event is load-bearing for the repro
    assert!(report
        .schedule
        .plan
        .epochs
        .iter()
        .flat_map(|e| &e.events)
        .any(|e| matches!(e, ChurnEvent::NodeJoin { .. })));
    assert_eq!(
        report.schedule.plan.drop_prob, 0.0,
        "transient knobs should be shed from the minimal repro"
    );
}

/// Weight-only churn on a tree: `DOMPartition_1` re-fixup certifies the
/// old clustering as a no-op (scope 0), and the carried-over clustering
/// still satisfies the paper's cluster invariants on the new topology —
/// and equals a fresh run, since the partition never reads weights.
#[test]
fn partition1_weight_only_churn_is_a_certified_noop() {
    let cfg = ChaosConfig {
        epochs: 3,
        events_per_epoch: 2,
        ..ChaosConfig::default()
    };
    let k = 3;
    for seed in 0..8u64 {
        let base = Family::RandomTree.generate(50, seed + 1);
        let sched = gen_schedule_with_mix(&base, &cfg, 0xBEE5 + seed, EventMix::WeightOnly);
        let (nodes, _) = run_partition1(&base, NodeId(0), k);
        let mut clusters: Vec<u64> = nodes.iter().map(|x| x.cluster).collect();
        let mut centers: Vec<bool> = nodes.iter().map(|x| x.is_center).collect();
        let mut cur = base.clone();
        for (i, ep) in sched.plan.epochs.iter().enumerate() {
            let (next, _) = apply_churn(&cur, &ep.events).expect("weight-only churn applies");
            assert_eq!(
                next.node_count(),
                cur.node_count(),
                "weight-only churn moved nodes"
            );
            let fix = refixup_partition1(
                &clusters,
                &centers,
                &next,
                &ep.events,
                NodeId(0),
                k,
                i as u64,
            );
            assert_eq!(
                fix.scope, 0,
                "seed {seed} epoch {i}: weight-only epoch was not a no-op"
            );
            assert!(!fix.full_restart, "seed {seed} epoch {i}");
            // the certified no-op equals a fresh run on the new topology
            let (fresh, _) = run_partition1(&next, NodeId(0), k);
            let fresh_clusters: Vec<u64> = fresh.iter().map(|x| x.cluster).collect();
            assert_eq!(fix.clusters, fresh_clusters, "seed {seed} epoch {i}");
            // and still satisfies the cluster invariants on the new graph
            let id_to_node: HashMap<u64, NodeId> =
                next.nodes().map(|v| (next.id_of(v), v)).collect();
            let mut members: HashMap<u64, Vec<NodeId>> = HashMap::new();
            for v in next.nodes() {
                members.entry(fix.clusters[v.0]).or_default().push(v);
            }
            let cl: Vec<(NodeId, Vec<NodeId>)> = members
                .iter()
                .map(|(cid, m)| (id_to_node[cid], m.clone()))
                .collect();
            let clustering = clusters_to_clustering(next.node_count(), &cl);
            check_clusters(&next, &clustering, 1, 4 * (k as u32) * (k as u32))
                .unwrap_or_else(|e| panic!("seed {seed} epoch {i}: {e}"));
            clusters = fix.clusters;
            centers = fix.centers;
            cur = next;
        }
    }
}

/// Nightly sweep (`cargo test --test chaos -- --ignored`): a bigger
/// budget from `KDOM_CHAOS_*`, and on failure the minimal reproducing
/// schedule plus a JSONL trace of it are written to `KDOM_CHAOS_DIR`.
#[test]
#[ignore = "nightly budget; run with --ignored (KDOM_CHAOS_* configures it)"]
fn chaos_nightly() {
    let cfg = ChaosConfig::from_env();
    // Resolve and create the artifact directory *before* any schedule
    // runs: an uncreatable KDOM_CHAOS_DIR used to surface only after a
    // failure had already been found and minimized — losing the repro
    // the whole run existed to capture.
    let dir = cfg.artifact_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir()
            .join("kdom-chaos")
            .display()
            .to_string()
    });
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create KDOM_CHAOS_DIR {dir:?}: {e}"));
    let base = Family::Gnp.generate(32, cfg.seed ^ 0x9E37);
    let k = 2;
    for i in 0..cfg.schedules as u64 {
        let sched = gen_schedule(&base, &cfg, cfg.seed + i);
        let outcome = std::panic::catch_unwind(|| run_and_check(&base, &sched, k));
        let Err(panic) = outcome else { continue };
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        // shrink against the real predicate: does the sweep still fail?
        let report = shrink(
            &sched,
            |s| std::panic::catch_unwind(|| run_and_check(&base, s, k)).is_err(),
            2_000,
        );
        // Artifacts land via tmp + rename so an interrupted run (CI
        // timeout, OOM kill mid-write) leaves either the complete file
        // or nothing — never a truncated repro that replays differently.
        let seed_path = format!("{dir}/minimal-seed.txt");
        let seed_tmp = format!("{seed_path}.tmp");
        std::fs::write(
            &seed_tmp,
            format!(
                "base: Gnp n=32 seed={:#x}\nfailure: {msg}\n{}\nminimal plan: {:#?}\n",
                cfg.seed ^ 0x9E37,
                report.describe(),
                report.schedule.plan
            ),
        )
        .expect("write minimal seed");
        std::fs::rename(&seed_tmp, &seed_path).expect("publish minimal seed");
        // replay the minimal schedule with tracing on for the artifact;
        // the trace streams into the tmp path and is published whole
        // (KDOM_TRACE appends, so a stale file from an earlier failure
        // would otherwise pollute the new repro)
        let trace_path = format!("{dir}/minimal-trace.jsonl");
        let trace_tmp = format!("{trace_path}.tmp");
        let _ = std::fs::remove_file(&trace_tmp);
        std::env::set_var("KDOM_TRACE", &trace_tmp);
        let _ = std::panic::catch_unwind(|| run_and_check(&base, &report.schedule, k));
        std::env::remove_var("KDOM_TRACE");
        std::fs::rename(&trace_tmp, &trace_path).expect("publish minimal trace");
        panic!(
            "schedule seed {} failed ({msg}); minimal repro ({} events) at {seed_path}, trace at {trace_path}",
            sched.seed, report.events_after
        );
    }
}
