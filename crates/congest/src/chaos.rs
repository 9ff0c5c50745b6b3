//! Chaos harness: seeded random fault + churn schedules and a shrinker.
//!
//! The harness is split across two layers. This module owns the
//! protocol-agnostic machinery — generating a valid [`FaultPlan`] full of
//! churn epochs against an evolving topology, and shrinking a failing
//! schedule to a minimal reproducer. The oracle-coupled driver (which
//! protocols to run, what "failing" means) lives in the facade crate's
//! `tests/chaos.rs`, because the sequential oracles live above this
//! crate in the dependency graph.
//!
//! Every generated schedule is a pure function of `(base graph, config,
//! seed)`: re-running a seed reproduces the exact schedule, which is
//! what makes the shrinker's verdicts meaningful. Generated events are
//! *valid by construction* — each one is accepted by [`apply_churn`]
//! against the topology the preceding events produce, and node leaves /
//! edge removals are only emitted when they keep the graph connected
//! (the protocols under test assume a connected input).
//!
//! The shrinker ([`shrink`]) is a greedy delta-debugging loop: it
//! repeatedly removes chunks of churn events (halving the chunk size as
//! removals stop reproducing the failure), drops epochs that become
//! empty, and finally tries to zero out the transient-fault knobs. The
//! caller's `still_fails` closure decides reproduction; a candidate
//! whose event list no longer applies cleanly should simply return
//! `false` there (the failure is then kept attached to the larger,
//! still-valid schedule).

use std::collections::VecDeque;
use std::fmt;

use kdom_graph::{Graph, NodeId};
use kdom_rng::StdRng;

use crate::faults::{apply_churn, ChurnEpoch, ChurnEvent, FaultPlan};

/// Environment prefix for the chaos knobs (`KDOM_CHAOS_*`).
pub const CHAOS_ENV_PREFIX: &str = "KDOM_CHAOS_";

/// Tunables of the chaos generator, fillable from `KDOM_CHAOS_*`.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Number of seeded schedules a sweep runs (`KDOM_CHAOS_SCHEDULES`).
    pub schedules: usize,
    /// Churn epochs per schedule (`KDOM_CHAOS_EPOCHS`).
    pub epochs: usize,
    /// Events attempted per epoch (`KDOM_CHAOS_EVENTS`); an epoch may
    /// end up smaller when the topology runs out of valid candidates.
    pub events_per_epoch: usize,
    /// Base seed of the sweep (`KDOM_CHAOS_SEED`); schedule `i` uses
    /// `seed + i`.
    pub seed: u64,
    /// Message-loss probability of every schedule (`KDOM_CHAOS_DROP`).
    pub drop_prob: f64,
    /// Message-duplication probability (`KDOM_CHAOS_DUP`).
    pub dup_prob: f64,
    /// Directory for failure artifacts — minimal seed and JSONL trace —
    /// written by the nightly driver (`KDOM_CHAOS_DIR`); `None` skips
    /// artifact writing.
    pub artifact_dir: Option<String>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            schedules: 50,
            epochs: 3,
            events_per_epoch: 4,
            seed: 0xC0FFEE,
            drop_prob: 0.1,
            dup_prob: 0.05,
            artifact_dir: None,
        }
    }
}

impl ChaosConfig {
    /// Reads the `KDOM_CHAOS_*` knobs, falling back to the defaults for
    /// unset (or empty) values.
    ///
    /// # Panics
    ///
    /// Panics, naming the variable and the offending value, when a knob
    /// is set but does not parse (via
    /// [`kdom_graph::knob`](mod@kdom_graph::knob)) — a sweep invoked with
    /// `KDOM_CHAOS_SCHEDULES=abc` must not silently run the 50-schedule
    /// default and report success.
    pub fn from_env() -> Self {
        use kdom_graph::knob::knob;
        let d = ChaosConfig::default();
        ChaosConfig {
            schedules: knob("KDOM_CHAOS_SCHEDULES", d.schedules),
            epochs: knob("KDOM_CHAOS_EPOCHS", d.epochs),
            events_per_epoch: knob("KDOM_CHAOS_EVENTS", d.events_per_epoch),
            seed: knob("KDOM_CHAOS_SEED", d.seed),
            drop_prob: knob("KDOM_CHAOS_DROP", d.drop_prob),
            dup_prob: knob("KDOM_CHAOS_DUP", d.dup_prob),
            artifact_dir: kdom_graph::knob::raw("KDOM_CHAOS_DIR"),
        }
    }
}

/// Which churn events the generator may emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventMix {
    /// Every event kind: leaves, joins, weight changes, edge churn.
    Full,
    /// Only [`ChurnEvent::EdgeWeightChange`] — for protocols whose
    /// topology must stay fixed (e.g. the partition runs on a tree whose
    /// shape the cluster engine owns).
    WeightOnly,
}

/// One seeded random schedule: the plan to run and the seed that
/// regenerates it.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSchedule {
    /// The seed this schedule was generated from.
    pub seed: u64,
    /// Transient faults plus churn epochs, ready for the epoch driver.
    pub plan: FaultPlan,
}

impl ChaosSchedule {
    /// Total churn events across all epochs.
    pub fn event_count(&self) -> usize {
        self.plan.epochs.iter().map(|e| e.events.len()).sum()
    }

    /// One-line human summary, printed in failure reports.
    pub fn describe(&self) -> String {
        format!(
            "seed {}: {} epoch(s) / {} event(s), drop {}, dup {}",
            self.seed,
            self.plan.epochs.len(),
            self.event_count(),
            self.plan.drop_prob,
            self.plan.dup_prob,
        )
    }
}

impl fmt::Display for ChaosSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Whether `g` is connected (BFS from node 0; the empty graph counts as
/// connected).
fn connected(g: &Graph) -> bool {
    let n = g.node_count();
    if n == 0 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut q = VecDeque::from([NodeId(0)]);
    seen[0] = true;
    let mut reached = 1;
    while let Some(v) = q.pop_front() {
        for a in g.neighbors(v) {
            if !seen[a.to.0] {
                seen[a.to.0] = true;
                reached += 1;
                q.push_back(a.to);
            }
        }
    }
    reached == n
}

fn max_id(g: &Graph) -> u64 {
    g.nodes().map(|v| g.id_of(v)).max().unwrap_or(0)
}

fn max_weight(g: &Graph) -> u64 {
    g.edges().iter().map(|e| e.weight).max().unwrap_or(0)
}

/// Draws one candidate event against `cur`; `None` when the drawn kind
/// has no valid candidate in this topology.
fn draw_event(rng: &mut StdRng, cur: &Graph, mix: EventMix) -> Option<ChurnEvent> {
    let n = cur.node_count();
    let m = cur.edge_count();
    let kind = match mix {
        EventMix::WeightOnly => 2,
        EventMix::Full => rng.below(5),
    };
    match kind {
        // node_leave: only from graphs that stay non-trivial
        0 if n > 2 => {
            let v = NodeId(rng.below(n as u64) as usize);
            Some(ChurnEvent::NodeLeave { id: cur.id_of(v) })
        }
        // node_join: 1..=3 links to distinct existing nodes
        1 => {
            let id = max_id(cur) + 1;
            let deg = 1 + rng.below(3.min(n as u64)) as usize;
            let mut targets: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut targets);
            let w0 = max_weight(cur);
            let links = targets[..deg]
                .iter()
                .enumerate()
                .map(|(i, &t)| (cur.id_of(NodeId(t)), w0 + 1 + i as u64))
                .collect();
            Some(ChurnEvent::NodeJoin { id, links })
        }
        // weight_change: re-weight a random edge with a fresh weight
        2 if m > 0 => {
            let e = &cur.edges()[rng.below(m as u64) as usize];
            Some(ChurnEvent::EdgeWeightChange {
                a: cur.id_of(e.u),
                b: cur.id_of(e.v),
                weight: max_weight(cur) + 1,
            })
        }
        // edge_insert: a random non-adjacent pair
        3 if n >= 2 => {
            for _ in 0..8 {
                let u = NodeId(rng.below(n as u64) as usize);
                let v = NodeId(rng.below(n as u64) as usize);
                if u != v && cur.edge_between(u, v).is_none() {
                    return Some(ChurnEvent::EdgeInsert {
                        a: cur.id_of(u),
                        b: cur.id_of(v),
                        weight: max_weight(cur) + 1,
                    });
                }
            }
            None
        }
        // edge_remove: a random edge (the connectivity gate is applied
        // by the caller, which tries the event against the real graph)
        4 if m > 0 => {
            let e = &cur.edges()[rng.below(m as u64) as usize];
            Some(ChurnEvent::EdgeRemove {
                a: cur.id_of(e.u),
                b: cur.id_of(e.v),
            })
        }
        _ => None,
    }
}

/// Generates up to `count` valid events forming one epoch, returning the
/// events and the topology they produce. Every event is validated by
/// actually applying it; candidates that fail validation or disconnect
/// the graph are discarded (up to a bounded number of redraws).
pub fn random_epoch(
    rng: &mut StdRng,
    start: &Graph,
    count: usize,
    mix: EventMix,
) -> (Vec<ChurnEvent>, Graph) {
    let mut cur = start.clone();
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        for _attempt in 0..16 {
            let Some(ev) = draw_event(rng, &cur, mix) else {
                continue;
            };
            if let Ok((next, _)) = apply_churn(&cur, std::slice::from_ref(&ev)) {
                if connected(&next) {
                    events.push(ev);
                    cur = next;
                    break;
                }
            }
        }
    }
    (events, cur)
}

/// Generates the full schedule for one seed: transient faults from the
/// config plus `cfg.epochs` churn epochs of `mix` events, each valid
/// against the topology produced by its predecessors. Epoch `i`'s
/// `ChurnEpoch::at` exceeds its predecessor's by a seeded draw from
/// `1..=12`; only the order of the epochs matters, but the draw keeps
/// every seed's schedule stable.
pub fn gen_schedule(base: &Graph, cfg: &ChaosConfig, seed: u64, mix: EventMix) -> ChaosSchedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = FaultPlan::new(seed)
        .drop_prob(cfg.drop_prob)
        .dup_prob(cfg.dup_prob);
    let mut cur = base.clone();
    let mut at = 0u64;
    for _ in 0..cfg.epochs {
        let (events, next) = random_epoch(&mut rng, &cur, cfg.events_per_epoch, mix);
        at += 1 + rng.below(12);
        if events.is_empty() {
            continue;
        }
        plan = plan.epoch(at, events);
        cur = next;
    }
    ChaosSchedule { seed, plan }
}

/// What the shrinker did to a failing schedule.
#[derive(Clone, Debug)]
pub struct ShrinkReport {
    /// The smallest schedule that still reproduces the failure.
    pub schedule: ChaosSchedule,
    /// Candidate schedules tried (each one cost a `still_fails` call).
    pub attempts: usize,
    /// Churn events before shrinking.
    pub events_before: usize,
    /// Churn events in the minimal schedule.
    pub events_after: usize,
}

impl ShrinkReport {
    /// One-line human summary for failure reports.
    pub fn describe(&self) -> String {
        format!(
            "shrunk {} -> {} event(s) in {} attempt(s); minimal reproducer: {}",
            self.events_before,
            self.events_after,
            self.attempts,
            self.schedule.describe()
        )
    }
}

/// Flattens a plan's epochs into `(at, event)` pairs, in epoch order.
fn flatten(plan: &FaultPlan) -> Vec<(u64, ChurnEvent)> {
    plan.epochs
        .iter()
        .flat_map(|e| e.events.iter().map(move |ev| (e.at, ev.clone())))
        .collect()
}

/// Rebuilds a schedule from a flattened subset, dropping epochs that
/// lost all their events.
fn rebuild(base: &ChaosSchedule, flat: &[(u64, ChurnEvent)]) -> ChaosSchedule {
    let mut epochs: Vec<ChurnEpoch> = Vec::new();
    for (at, ev) in flat {
        match epochs.last_mut() {
            Some(last) if last.at == *at => last.events.push(ev.clone()),
            _ => epochs.push(ChurnEpoch {
                at: *at,
                events: vec![ev.clone()],
            }),
        }
    }
    ChaosSchedule {
        seed: base.seed,
        plan: FaultPlan {
            epochs,
            ..base.plan.clone()
        },
    }
}

/// Shrinks a failing schedule to a minimal reproducer.
///
/// Greedy delta debugging over the churn events: chunks of events are
/// removed (chunk size halving from `len/2` down to 1) and a removal is
/// kept whenever `still_fails` still reproduces the failure; epochs that
/// lose all events disappear. A final pass tries zeroing the transient
/// knobs (`drop_prob`, `dup_prob`, `max_extra_delay`) and clearing the
/// crash / link-down schedules. At most `max_attempts` candidates are
/// tried; the loop also stops once a full sweep at chunk size 1 removes
/// nothing.
///
/// `still_fails` must be a pure function of the schedule (re-run the
/// deterministic reproduction, return whether it still fails). A
/// candidate whose events no longer apply cleanly to the base graph
/// should return `false`.
pub fn shrink<F>(failing: &ChaosSchedule, mut still_fails: F, max_attempts: usize) -> ShrinkReport
where
    F: FnMut(&ChaosSchedule) -> bool,
{
    let mut best = failing.clone();
    let events_before = best.event_count();
    let mut attempts = 0usize;

    let mut flat = flatten(&best.plan);
    let mut chunk = (flat.len() / 2).max(1);
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < flat.len() && attempts < max_attempts {
            let hi = (i + chunk).min(flat.len());
            let mut cand_flat = flat.clone();
            cand_flat.drain(i..hi);
            let cand = rebuild(&best, &cand_flat);
            attempts += 1;
            if still_fails(&cand) {
                flat = cand_flat;
                best = cand;
                removed_any = true;
                // do not advance: the next chunk slid into position i
            } else {
                i = hi;
            }
        }
        if attempts >= max_attempts || (chunk == 1 && !removed_any) || flat.is_empty() {
            break;
        }
        chunk = (chunk / 2).max(1);
    }

    // Transient-fault reduction: each knob zeroed independently, kept
    // only when the failure survives without it.
    let mut try_plan = |mutate: &dyn Fn(&mut FaultPlan), best: &mut ChaosSchedule| {
        if attempts >= max_attempts {
            return;
        }
        let mut cand = best.clone();
        mutate(&mut cand.plan);
        if cand.plan == best.plan {
            return;
        }
        attempts += 1;
        if still_fails(&cand) {
            *best = cand;
        }
    };
    try_plan(&|p| p.drop_prob = 0.0, &mut best);
    try_plan(&|p| p.dup_prob = 0.0, &mut best);
    try_plan(&|p| p.max_extra_delay = 0, &mut best);
    try_plan(&|p| p.crashes.clear(), &mut best);
    try_plan(&|p| p.link_downs.clear(), &mut best);

    let events_after = best.event_count();
    ShrinkReport {
        schedule: best,
        attempts,
        events_before,
        events_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdom_graph::GraphBuilder;

    fn ring(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        b.ids((0..n as u64).map(|i| 100 + i).collect());
        for i in 0..n {
            b.add_edge(NodeId(i), NodeId((i + 1) % n), 1 + i as u64);
        }
        b.build()
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        let g = ring(8);
        let cfg = ChaosConfig::default();
        let s1 = gen_schedule(&g, &cfg, 7, EventMix::Full);
        let s2 = gen_schedule(&g, &cfg, 7, EventMix::Full);
        assert_eq!(s1, s2, "same seed must regenerate the same schedule");
        assert!(!s1.plan.epochs.is_empty());
        // every epoch applies cleanly in sequence and keeps the graph
        // connected
        let mut cur = g.clone();
        for ep in &s1.plan.epochs {
            let (next, _) = apply_churn(&cur, &ep.events).expect("generated events are valid");
            assert!(connected(&next));
            cur = next;
        }
        let s3 = gen_schedule(&g, &cfg, 8, EventMix::Full);
        assert_ne!(s1, s3, "different seeds should differ");
    }

    #[test]
    fn weight_only_mix_changes_no_topology() {
        let g = ring(6);
        let cfg = ChaosConfig::default();
        let s = gen_schedule(&g, &cfg, 3, EventMix::WeightOnly);
        let mut cur = g.clone();
        for ep in &s.plan.epochs {
            for ev in &ep.events {
                assert!(matches!(ev, ChurnEvent::EdgeWeightChange { .. }));
            }
            let (next, remap) = apply_churn(&cur, &ep.events).unwrap();
            assert_eq!(next.node_count(), cur.node_count());
            assert_eq!(next.edge_count(), cur.edge_count());
            assert!(remap.old_to_new.iter().all(|m| m.is_some()));
            cur = next;
        }
    }

    #[test]
    fn shrinker_isolates_a_single_culprit_event() {
        let g = ring(10);
        let cfg = ChaosConfig {
            epochs: 25,
            events_per_epoch: 4,
            ..ChaosConfig::default()
        };
        let sched = gen_schedule(&g, &cfg, 11, EventMix::Full);
        assert!(
            sched.event_count() >= 50,
            "need a big schedule, got {}",
            sched.event_count()
        );
        // Synthetic bug: the run "fails" iff the schedule still contains
        // a node_leave event. The shrinker must isolate one.
        let is_leave = |s: &ChaosSchedule| {
            s.plan
                .epochs
                .iter()
                .flat_map(|e| &e.events)
                .any(|ev| matches!(ev, ChurnEvent::NodeLeave { .. }))
        };
        assert!(is_leave(&sched), "schedule should contain a leave");
        let report = shrink(&sched, is_leave, 10_000);
        assert_eq!(report.events_after, 1, "{}", report.describe());
        assert!(is_leave(&report.schedule));
        assert_eq!(report.schedule.plan.epochs.len(), 1);
        // probabilities were not needed to reproduce, so they were shed
        assert_eq!(report.schedule.plan.drop_prob, 0.0);
        assert_eq!(report.schedule.plan.dup_prob, 0.0);
    }

    #[test]
    fn shrinker_respects_the_attempt_budget() {
        let g = ring(8);
        let sched = gen_schedule(&g, &ChaosConfig::default(), 5, EventMix::Full);
        let mut calls = 0usize;
        let report = shrink(
            &sched,
            |_| {
                calls += 1;
                true
            },
            3,
        );
        assert!(calls <= 3, "{calls} calls exceed the budget");
        assert!(report.attempts <= 3);
    }

    #[test]
    fn shrink_of_non_reproducing_schedule_is_identity() {
        let g = ring(6);
        let sched = gen_schedule(&g, &ChaosConfig::default(), 9, EventMix::Full);
        let report = shrink(&sched, |_| false, 1_000);
        assert_eq!(report.schedule, sched);
        assert_eq!(report.events_before, report.events_after);
    }
}
