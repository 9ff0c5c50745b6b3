//! Engine parity: every protocol in the repo must produce **byte-identical**
//! outputs and identical reports under every scheduler/thread configuration
//! of the shared round engine, as the in-memory reference loop, and under
//! reliable-α execution with loss.
//!
//! The determinism contract (DESIGN.md §4): staged sends are merged in
//! node-index order, and the fault injector's RNG is advanced only during
//! that sequential merge — so `{every node every round, active set} × {1,
//! 4 threads}` are observationally one machine. These tests pin that
//! contract for
//! BFS, election, DiamDOM, BalancedDOM coloring, SimpleMST, the Pipeline
//! (via Fast-MST), FastDOM_T/G, and Fast-MST.

use kdom::congest::engine::run_reference_loop;
use kdom::congest::{
    run_protocol_alpha_reliable, EngineConfig, FaultPlan, Message, NodeCtx, Outbox, Port, Protocol,
    RunReport, Simulator, Wake,
};
use kdom::core::dist::bfs::BfsNode;
use kdom::core::dist::coloring::{BalancedConfig, BalancedNode};
use kdom::core::dist::diamdom::run_diamdom;
use kdom::core::dist::election::ElectionNode;
use kdom::core::dist::executor::Executor;
use kdom::core::dist::fastdom::{fast_dom_g_distributed, fast_dom_t_distributed};
use kdom::core::dist::fragments::{run_simple_mst, FragmentNode};
use kdom::core::fastdom::WithinCluster;
use kdom::graph::generators::{gnp_connected, path, Family, GenConfig};
use kdom::graph::tree::RootedTree;
use kdom::graph::{Graph, NodeId};
use kdom::mst::fastmst::{default_k, fast_mst_from_root};

/// Every engine configuration the suite must agree across: every node
/// stepped every round vs the active set, 1 vs 4 threads, fast-forward on
/// vs off, and a forced dense-scan leg.
/// `with_shard_min(32)` lowers the parallel-split threshold (the default
/// is 1024) so the `n ≥ 128` graphs here make the 4-thread legs genuinely
/// shard; `with_dense_pct(0)` forces the adaptive dense fallback on every
/// round, and with fast-forward off it steps every node every round.
fn configs() -> Vec<(&'static str, EngineConfig)> {
    let base = EngineConfig::default().with_shard_min(32);
    let every_node = base.with_dense_pct(0).with_fast_forward(false);
    vec![
        ("every-node/1t", every_node.with_threads(1)),
        ("every-node/4t", every_node.with_threads(4)),
        ("active-set/1t", base.with_threads(1)),
        ("active-set/4t", base.with_threads(4)),
        (
            "active-set/1t/no-ff",
            base.with_threads(1).with_fast_forward(false),
        ),
        (
            "active-set/4t/no-ff",
            base.with_threads(4).with_fast_forward(false),
        ),
        (
            "active-set/1t/dense",
            base.with_threads(1).with_dense_pct(0),
        ),
    ]
}

/// Runs `make_nodes(g)` under every config and asserts the Debug rendering
/// of the full node vector, the `RunReport`, and the run result are all
/// byte-identical to the first (every node every round, single-thread)
/// leg. Fault-free runs add one more leg: the in-memory reference loop,
/// which hands over messages without the codec, must reach the same node
/// states and the same report except `peak_memory_bytes`, which it does
/// not track — so delivering the decoded frame changes nothing.
fn assert_parity<P, F>(g: &Graph, make_nodes: F, plan: Option<&FaultPlan>, what: &str)
where
    P: Protocol + std::fmt::Debug,
    F: Fn(&Graph) -> Vec<P>,
{
    let mut baseline: Option<(String, String, RunReport)> = None;
    for (name, cfg) in configs() {
        let mut sim = match plan {
            Some(p) => Simulator::with_faults(g, make_nodes(g), p, cfg),
            None => Simulator::with_config(g, make_nodes(g), cfg),
        };
        let outcome = format!("{:?}", sim.run(50_000));
        let nodes = format!("{:?}", sim.nodes());
        let report = sim.report().clone();
        match &baseline {
            None => baseline = Some((outcome, nodes, report)),
            Some((o, n, r)) => {
                assert_eq!(o, &outcome, "{what}: run outcome diverged under {name}");
                assert_eq!(n, &nodes, "{what}: node states diverged under {name}");
                assert_eq!(r, &report, "{what}: RunReport diverged under {name}");
            }
        }
    }
    if plan.is_none() {
        let (_, want_nodes, want_report) = baseline.expect("at least one config");
        let (nodes, report) = run_reference_loop(g, make_nodes(g), 50_000)
            .unwrap_or_else(|e| panic!("{what}: reference loop failed: {e}"));
        assert_eq!(
            want_nodes,
            format!("{nodes:?}"),
            "{what}: node states diverged from the reference loop"
        );
        let want_report = RunReport {
            peak_memory_bytes: 0,
            ..want_report
        };
        assert_eq!(
            want_report, report,
            "{what}: RunReport diverged from the reference loop"
        );
    }
}

fn balanced_nodes(g: &Graph) -> Vec<BalancedNode> {
    let t = RootedTree::from_graph(g, NodeId(0));
    let port_to = |v: NodeId, to: NodeId| -> Port {
        g.neighbors(v)
            .iter()
            .position(|e| e.to == to)
            .map(Port)
            .expect("tree edge present")
    };
    (0..g.node_count())
        .map(|v| {
            let v = NodeId(v);
            BalancedNode::new(BalancedConfig {
                parent: t.parent(v).map(|p| port_to(v, p)),
                children: t.children(v).iter().map(|&c| port_to(v, c)).collect(),
                id_bits: 48,
            })
        })
        .collect()
}

#[test]
fn bfs_parity() {
    for seed in 0..3u64 {
        let g = gnp_connected(&GenConfig::with_seed(200, seed), 0.04);
        assert_parity(
            &g,
            |g| (0..g.node_count()).map(|v| BfsNode::new(v == 0)).collect(),
            None,
            "BFS",
        );
    }
}

#[test]
fn election_parity() {
    let g = Family::Grid.generate(196, 5);
    assert_parity(
        &g,
        |g| (0..g.node_count()).map(|_| ElectionNode::new()).collect(),
        None,
        "election",
    );
}

#[test]
fn simple_mst_parity() {
    let g = gnp_connected(&GenConfig::with_seed(160, 9), 0.05);
    assert_parity(
        &g,
        |g| {
            g.nodes()
                .map(|v| FragmentNode::new(5, g.id_of(v)))
                .collect()
        },
        None,
        "SimpleMST",
    );
}

#[test]
fn coloring_parity() {
    let g = path(&GenConfig::with_seed(200, 9));
    assert_parity(&g, balanced_nodes, None, "BalancedDOM");
}

#[derive(Clone, Debug)]
struct Tok;
kdom::congest::impl_wire_empty!(Tok);
impl Message for Tok {}

/// A relay with long silent countdown phases: each node receives the
/// token, arms a timer `gap` rounds out ([`Wake::At`]), and only then
/// forwards it. Almost every round of the run is globally silent — the
/// worst case for a scanning scheduler and the best case for
/// fast-forward, which must nevertheless reproduce the identical report.
#[derive(Debug)]
struct Countdown {
    origin: bool,
    gap: u64,
    from: Option<Port>,
    fire_at: Option<u64>,
    fired: bool,
}

impl Protocol for Countdown {
    type Msg = Tok;

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Port, Tok)], out: &mut Outbox<Tok>) {
        if self.origin && ctx.round == 0 {
            out.broadcast(Tok);
            self.fired = true;
            return;
        }
        if !self.fired && self.fire_at.is_none() {
            if let Some(&(p, _)) = inbox.first() {
                self.from = Some(p);
                self.fire_at = Some(ctx.round + self.gap);
            }
        }
        if let Some(r) = self.fire_at {
            if !self.fired && ctx.round >= r {
                self.fired = true;
                for q in ctx.ports() {
                    if Some(q) != self.from {
                        out.send(q, Tok);
                    }
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.fired
    }

    fn next_wake(&self, _now: u64) -> Wake {
        match self.fire_at {
            Some(r) if !self.fired => Wake::At(r),
            _ => Wake::OnMessage,
        }
    }
}

/// Fast-forward must skip the countdown gaps without perturbing a single
/// counter: ~`n · gap` rounds of which only ~`n` carry a message.
#[test]
fn countdown_parity_across_fast_forward() {
    let g = path(&GenConfig::with_seed(64, 2));
    let gap = 37;
    let make = |g: &Graph| {
        (0..g.node_count())
            .map(|v| Countdown {
                origin: v == 0,
                gap,
                from: None,
                fire_at: None,
                fired: false,
            })
            .collect()
    };
    assert_parity(&g, make, None, "countdown relay");
    // sanity: the run really is dominated by silent gaps
    let mut sim = Simulator::with_config(&g, make(&g), EngineConfig::default());
    let report = sim.run(50_000).expect("relay quiesces");
    assert!(report.rounds >= 63 * gap, "rounds {}", report.rounds);
    // one forward per node except the far endpoint
    assert_eq!(report.messages, 63);
}

/// Every node broadcasts in round 0: the densest round any protocol can
/// produce, with one message per directed edge.
#[derive(Debug)]
struct Burst {
    sent: bool,
}

impl Protocol for Burst {
    type Msg = Tok;

    fn round(&mut self, ctx: &NodeCtx<'_>, _inbox: &[(Port, Tok)], out: &mut Outbox<Tok>) {
        if ctx.round == 0 {
            out.broadcast(Tok);
            self.sent = true;
        }
    }

    fn is_done(&self) -> bool {
        self.sent
    }

    fn next_wake(&self, _now: u64) -> Wake {
        Wake::OnMessage
    }
}

/// `peak_messages_per_round` must be the **global** per-round maximum,
/// not a per-shard one: a 4-thread run whose shards are forced as small
/// as possible (`shard_min = 1`) has to report the same peak as the
/// single-threaded reference loop. With every node broadcasting in round
/// 0, that peak is exactly `2·|E|` — any per-shard aggregation bug
/// reports a fraction of it.
#[test]
fn peak_messages_per_round_is_global_across_shards() {
    let g = gnp_connected(&GenConfig::with_seed(256, 1), 0.04);
    let want_peak = 2 * g.edge_count() as u64;
    let make = |g: &Graph| {
        (0..g.node_count())
            .map(|_| Burst { sent: false })
            .collect::<Vec<_>>()
    };

    let (_, ref_report) = run_reference_loop(&g, make(&g), 1_000).expect("burst quiesces");
    assert_eq!(
        ref_report.peak_messages_per_round, want_peak,
        "reference loop disagrees with the analytic peak"
    );

    let cfg = EngineConfig::default().with_threads(4).with_shard_min(1);
    let mut sim = Simulator::with_config(&g, make(&g), cfg);
    let report = sim.run(1_000).expect("burst quiesces");
    assert_eq!(
        report.peak_messages_per_round, want_peak,
        "maximally-sharded 4-thread run reported a per-shard peak"
    );

    assert_parity(&g, make, None, "burst broadcast");
}

/// A node engineered to leave **two valid entries for the same (round,
/// node) pair** in the timer heap: it parks at round 10, is woken by a
/// message and moves its promise to round 3 (the round-10 heap entry goes
/// stale), then at round 3 re-parks at round 10 — which re-validates the
/// stale entry *and* pushes a fresh one. At round 10 both entries are
/// valid, so a scheduler that doesn't dedup its due-timer list steps the
/// node twice in one round: the wake-slot action runs twice (double state
/// mutation) and the second send silently merges into the occupied arena
/// slot as a fault-style duplicate copy.
#[derive(Debug)]
struct Repark {
    role: ReparkRole,
    phase: u8,
    from: Option<Port>,
    wake: Option<u64>,
    fires: u32,
}

#[derive(Debug, PartialEq)]
enum ReparkRole {
    /// Node 0: sends one token at round 0, then only absorbs replies.
    Driver,
    /// Node 1: runs the park / deviate / re-park sequence above.
    Target,
    /// Everyone else: permanently done, message-driven.
    Idle,
}

impl Repark {
    fn new(v: usize) -> Self {
        Repark {
            role: match v {
                0 => ReparkRole::Driver,
                1 => ReparkRole::Target,
                _ => ReparkRole::Idle,
            },
            phase: 0,
            from: None,
            wake: None,
            fires: 0,
        }
    }
}

impl Protocol for Repark {
    type Msg = Tok;

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Port, Tok)], out: &mut Outbox<Tok>) {
        match self.role {
            ReparkRole::Driver => {
                if ctx.round == 0 {
                    out.send(Port(0), Tok);
                }
            }
            ReparkRole::Target => match self.phase {
                0 => {
                    // round 0: park at round 10
                    self.wake = Some(10);
                    self.phase = 1;
                }
                1 => {
                    if let Some(&(p, _)) = inbox.first() {
                        // woken by the driver's token: deviate to round 3
                        self.from = Some(p);
                        self.wake = Some(3);
                        self.phase = 2;
                    }
                }
                2 => {
                    if ctx.round == 3 {
                        // re-park at round 10: the stale heap entry from
                        // phase 0 is valid again alongside the new one
                        self.wake = Some(10);
                        self.phase = 3;
                    }
                }
                _ => {
                    if ctx.round == 10 {
                        // the wake-slot action: any double-step doubles
                        // `fires` and duplicates the reply on the wire
                        self.fires += 1;
                        out.send(self.from.expect("token seen"), Tok);
                        self.wake = None;
                    }
                }
            },
            ReparkRole::Idle => {}
        }
    }

    fn is_done(&self) -> bool {
        match self.role {
            ReparkRole::Driver => true,
            ReparkRole::Target => self.fires > 0,
            ReparkRole::Idle => true,
        }
    }

    fn next_wake(&self, _now: u64) -> Wake {
        match self.wake {
            Some(r) => Wake::At(r),
            None => Wake::OnMessage,
        }
    }
}

/// Regression test: duplicate valid timer entries must not step a node
/// twice in one round (due-timer dedup in the active-set scheduler).
#[test]
fn duplicate_timer_entries_step_once() {
    let g = path(&GenConfig::with_seed(8, 0));
    let make = |g: &Graph| (0..g.node_count()).map(Repark::new).collect::<Vec<_>>();
    assert_parity(&g, make, None, "re-park relay");

    // the double-step corrupts these directly: fires becomes 2 and the
    // duplicated reply inflates the message count from 2 to 3
    let mut sim = Simulator::with_config(&g, make(&g), EngineConfig::default());
    let report = sim.run(50_000).expect("re-park relay quiesces");
    assert_eq!(sim.nodes()[1].fires, 1, "target stepped twice at its wake");
    assert_eq!(report.messages, 2, "reply duplicated on the wire");
}

/// The fault stream (drops, duplicates, delays, a mid-run crash) is part
/// of the determinism contract: the injector RNG advances only in the
/// sequential merge, so faulty runs are byte-identical too.
#[test]
fn fault_injection_parity() {
    for seed in 0..2u64 {
        let g = gnp_connected(&GenConfig::with_seed(160, seed), 0.05);
        let plan = FaultPlan::new(seed ^ 0xD15EA5E)
            .drop_prob(0.2)
            .dup_prob(0.1)
            .max_extra_delay(2)
            .crash(NodeId(7), 40);
        assert_parity(
            &g,
            |g| (0..g.node_count()).map(|v| BfsNode::new(v == 0)).collect(),
            Some(&plan),
            "faulty BFS",
        );
        assert_parity(
            &g,
            |g| {
                g.nodes()
                    .map(|v| FragmentNode::new(4, g.id_of(v)))
                    .collect()
            },
            Some(&plan),
            "faulty SimpleMST",
        );
    }
}

/// Fault counters must survive quiescence fast-forward byte-identically
/// even when the losses come from a scheduled link-down interval: the
/// countdown relay makes almost every round silent (so the no-ff legs
/// actually execute thousands of rounds the ff legs skip), while the
/// down interval severs the relay mid-run — `dropped_messages` comes
/// entirely from the scheduled outage (the relay has no retries, so a
/// probabilistic drop would just end the run early), `duplicated_messages`
/// from the duplicator, and every config has to agree on the exact totals.
#[test]
fn fault_counter_parity_across_fast_forward() {
    let g = path(&GenConfig::with_seed(64, 5));
    let down_edge = g.edges()[20].id;
    let plan = FaultPlan::new(0xFFD0)
        .dup_prob(0.2)
        .link_down(down_edge, 300, 2_000)
        .crash(NodeId(60), 900);
    let gap = 37;
    let make = |g: &Graph| {
        (0..g.node_count())
            .map(|v| Countdown {
                origin: v == 0,
                gap,
                from: None,
                fire_at: None,
                fired: false,
            })
            .collect::<Vec<_>>()
    };
    assert_parity(&g, make, Some(&plan), "faulty countdown relay");

    // sanity: both loss paths and the duplicator really fired
    let mut sim = Simulator::with_faults(&g, make(&g), &plan, EngineConfig::default());
    let _ = sim.run(50_000);
    let report = sim.report().clone();
    assert!(report.dropped_messages > 0, "no drops: {report:?}");
    assert!(report.duplicated_messages > 0, "no dups: {report:?}");
}

/// Reliable-α at 20% loss recovers the synchronous outputs exactly, and
/// two identically-seeded α runs agree on every `AlphaReport` counter.
#[test]
fn reliable_alpha_matches_sync() {
    let g = gnp_connected(&GenConfig::with_seed(130, 4), 0.06);
    let plan = FaultPlan::new(77).drop_prob(0.2);

    // BFS: depths must match the synchronous run (fast-forward on and off).
    let mut sync = Simulator::with_config(
        &g,
        (0..130).map(|v| BfsNode::new(v == 0)).collect(),
        EngineConfig::default(),
    );
    sync.run(10_000).expect("sync BFS quiesces");
    let mut sync_noff = Simulator::with_config(
        &g,
        (0..130).map(|v| BfsNode::new(v == 0)).collect(),
        EngineConfig::default().with_fast_forward(false),
    );
    sync_noff.run(10_000).expect("sync BFS quiesces");
    assert_eq!(
        format!("{:?}", (sync.nodes(), sync.report())),
        format!("{:?}", (sync_noff.nodes(), sync_noff.report())),
        "fast-forward changed the synchronous baseline"
    );
    let nodes: Vec<BfsNode> = (0..130).map(|v| BfsNode::new(v == 0)).collect();
    let (a1, r1) =
        run_protocol_alpha_reliable(&g, nodes.clone(), 7, 3, &plan, 500_000).expect("α BFS");
    let (a2, r2) = run_protocol_alpha_reliable(&g, nodes, 7, 3, &plan, 500_000).expect("α BFS");
    for (v, (a, s)) in a1.iter().zip(sync.nodes()).enumerate() {
        assert_eq!(a.depth, s.depth, "node {v}");
    }
    assert_eq!(
        format!("{r1:?}"),
        format!("{r2:?}"),
        "AlphaReport not deterministic"
    );
    assert_eq!(
        format!("{:?}", a1),
        format!("{:?}", a2),
        "α node states not deterministic"
    );

    // SimpleMST: the fragment forest survives 20% loss byte-identically.
    let k = 4;
    let want = run_simple_mst(&g, k, &Executor::default());
    let nodes: Vec<FragmentNode> = g
        .nodes()
        .map(|v| FragmentNode::new(k, g.id_of(v)))
        .collect();
    let (mst_nodes, _) =
        run_protocol_alpha_reliable(&g, nodes, 11, 3, &plan, 2_000_000).expect("α SimpleMST");
    let mut got: Vec<_> = g
        .nodes()
        .filter_map(|v| mst_nodes[v.0].parent.map(|p| g.neighbors(v)[p.0].edge))
        .collect();
    got.sort_unstable();
    let mut edges = want.tree_edges.clone();
    edges.sort_unstable();
    assert_eq!(got, edges, "α MST fragments diverged from sync");
}

/// Composed runners (DiamDOM, FastDOM_T/G, Fast-MST with its Pipeline
/// stage) agree across every engine configuration. They take their run
/// context from the caller, so each leg hands them one of [`configs`];
/// its `shard_min` of 32 makes the 4-thread legs shard these 140–150-node
/// graphs.
#[test]
fn composed_runners_parity() {
    let gd = gnp_connected(&GenConfig::with_seed(150, 3), 0.05);
    let gt = Family::RandomTree.generate(150, 8);
    let gg = gnp_connected(&GenConfig::with_seed(140, 6), 0.06);
    let mut baseline: Option<[String; 4]> = None;
    for (name, cfg) in configs() {
        let exec = Executor::Sync(cfg);
        let got = [
            format!("{:?}", run_diamdom(&gd, NodeId(0), 3, cfg)),
            format!(
                "{:?}",
                fast_dom_t_distributed(&gt, 2, WithinCluster::OptimalDp, &exec)
            ),
            format!(
                "{:?}",
                fast_dom_g_distributed(&gg, 3, WithinCluster::DiamDom, &exec)
            ),
            format!(
                "{:?}",
                fast_mst_from_root(&gg, default_k(gg.node_count()), NodeId(0), cfg)
            ),
        ];
        match &baseline {
            None => baseline = Some(got),
            Some(want) => {
                for (i, runner) in ["DiamDOM", "FastDOM_T", "FastDOM_G", "Fast-MST"]
                    .iter()
                    .enumerate()
                {
                    assert_eq!(want[i], got[i], "{runner} diverged under {name}");
                }
            }
        }
    }
}
