//! Socket-transport parity: a Fast-MST fragment stage executed across
//! separate OS processes must be **byte-identical** to the in-process
//! engine — same [`RunReport`], same per-send JSONL trace, same
//! harvested outputs — for both 2-worker and 4-worker fleets, and under
//! transient faults (drops, duplicates, a link outage), which replay
//! coordinator-side in the in-process order. A frame that cannot be
//! decoded must end both runs in the same [`SimError::WireMismatch`].
//! Killing a worker mid-run must surface as a typed
//! [`SimError::PeerLost`] within the heartbeat deadline, and a worker
//! whose graph disagrees must be rejected in the handshake. A graph spec
//! outside its node bounds must exit 1 naming the bound, not panic.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use kdom::congest::transport::{
    coordinate, run_worker, CoordListener, CoordOpts, Endpoint, WorkerOpts,
};
use kdom::congest::wire::{BitReader, BitWriter, Wire, WireError};
use kdom::congest::{
    trace, EngineConfig, FaultPlan, MemorySink, Message, NodeCtx, Outbox, Port, Protocol,
    RunReport, SimError, Simulator,
};
use kdom::core::dist::fragments::{schedule_end, FragmentNode};
use kdom::graph::{Graph, NodeId};
use kdom::mst::fastmst::default_k;
use kdom::serve::parse_graph_spec;

const GRAPH_SPEC: &str = "grid:2500:42";
const SMALL_SPEC: &str = "grid:100:7";

fn graph_of(spec: &str) -> Graph {
    parse_graph_spec(spec).expect("graph spec")
}

fn harvest(node: &FragmentNode) -> u64 {
    node.parent.map_or(0, |p| p.0 as u64 + 1)
}

/// What a run produced: its report and harvested rows, or its error.
type Outcome = Result<(RunReport, Vec<u64>), SimError>;

/// The in-process reference: `Simulator` with a memory trace, exactly
/// the engine configuration [`coordinate`] drives, under `plan`'s
/// transient faults when given.
fn reference_run(
    g: &Graph,
    k: usize,
    max_rounds: u64,
    plan: Option<&FaultPlan>,
) -> (Outcome, String) {
    let nodes: Vec<FragmentNode> = (0..g.node_count())
        .map(|v| FragmentNode::new(k, g.id_of(NodeId(v))))
        .collect();
    let mut sim = match plan {
        Some(p) => Simulator::with_faults(g, nodes, p, EngineConfig::default()),
        None => Simulator::with_config(g, nodes, EngineConfig::default()),
    };
    let sink = MemorySink::new();
    sim.set_trace(Box::new(sink.clone()));
    let outcome = sim
        .run(max_rounds)
        .map(|report| (report, sim.nodes().iter().map(harvest).collect()));
    (outcome, sink.to_jsonl())
}

fn spawn_worker(ep: &Endpoint, shard: usize, shards: usize, spec: &str, extra: &[&str]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_kdom-shard"));
    cmd.args([
        "worker",
        "--connect",
        &ep.to_string(),
        "--shard",
        &shard.to_string(),
        "--shards",
        &shards.to_string(),
        "--graph",
        spec,
        "--proto",
    ])
    .arg(format!(
        "simple-mst:{}",
        default_k(graph_of(spec).node_count())
    ))
    .args(extra)
    .stdin(Stdio::null())
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    cmd.spawn().expect("spawn kdom-shard worker")
}

fn reap(mut children: Vec<Child>) {
    for child in &mut children {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Runs a distributed fleet (under `plan`'s transient faults, when
/// given) and returns its outcome plus the trace.
fn distributed_run(
    spec: &str,
    shards: usize,
    max_rounds: u64,
    timeout: Duration,
    extra_for_shard0: &[&str],
    plan: Option<FaultPlan>,
) -> (
    Result<kdom::congest::transport::DistOutcome, SimError>,
    String,
) {
    let g = graph_of(spec);
    let listener = CoordListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let ep = listener.local_endpoint().expect("local endpoint");
    let children: Vec<Child> = (0..shards)
        .map(|s| {
            let extra = if s == 0 { extra_for_shard0 } else { &[] };
            spawn_worker(&ep, s, shards, spec, extra)
        })
        .collect();
    let sink = MemorySink::new();
    let opts = CoordOpts {
        shards,
        plan,
        max_rounds,
        timeout,
    };
    let result = coordinate(listener, &g, &opts, Some(Box::new(sink.clone())));
    reap(children);
    (result, sink.to_jsonl())
}

/// Runs the grid target in process and on a `shards`-worker fleet,
/// asserts the outcomes and the JSONL traces are identical, and returns
/// the outcome with the trace.
fn assert_parity_under(shards: usize, plan: Option<FaultPlan>, label: &str) -> (Outcome, String) {
    let g = graph_of(GRAPH_SPEC);
    let k = default_k(g.node_count());
    let max_rounds = schedule_end(k) + 8;
    let (want, want_trace) = reference_run(&g, k, max_rounds, plan.as_ref());
    let (result, got_trace) = distributed_run(
        GRAPH_SPEC,
        shards,
        max_rounds,
        Duration::from_secs(60),
        &[],
        plan,
    );
    let got = result.map(|o| (o.report, o.outputs));
    assert_eq!(
        got, want,
        "{label}: socket run diverged from the in-process engine (report, outputs or error)"
    );
    if got_trace != want_trace {
        // keep both traces on disk for the CI artifact upload before
        // failing — a byte diff of two full event streams is unreadable
        // in a panic message
        let dir = std::path::Path::new("target/transport-parity");
        std::fs::create_dir_all(dir).expect("create trace dump dir");
        std::fs::write(dir.join(format!("{label}-inprocess.jsonl")), &want_trace)
            .expect("dump in-process trace");
        std::fs::write(dir.join(format!("{label}-socket.jsonl")), &got_trace)
            .expect("dump socket trace");
        let line = want_trace
            .lines()
            .zip(got_trace.lines())
            .position(|(a, b)| a != b)
            .map_or("the tail".to_string(), |l| format!("line {}", l + 1));
        panic!(
            "{label}: JSONL trace diverged from the in-process engine at {line}; \
             both traces written to {}",
            dir.display()
        );
    }
    (want, want_trace)
}

fn assert_parity(shards: usize) {
    let label = format!("{shards}proc");
    let (outcome, trace) = assert_parity_under(shards, None, &label);
    let (want_report, _) = outcome.unwrap_or_else(|e| panic!("{label} run failed: {e}"));
    let summary = trace::validate_str(&trace, None)
        .unwrap_or_else(|e| panic!("{label} trace failed validation: {e}"));
    assert_eq!(summary.runs.len(), 1);
    assert_eq!(summary.runs[0].recorded, want_report);
    assert_eq!(summary.runs[0].derived, want_report);
}

/// The edge whose link goes down in the fault legs.
fn outage_edge() -> kdom::graph::EdgeId {
    graph_of(GRAPH_SPEC).edges()[100].id
}

#[test]
fn two_process_run_is_byte_identical_to_in_process() {
    assert_parity(2);
}

#[test]
fn four_process_run_is_byte_identical_to_in_process() {
    assert_parity(4);
}

/// Drops and a link outage are drawn coordinator-side, in the
/// in-process merge order, so the lossy run completes identically.
#[test]
fn two_process_run_under_drops_and_an_outage_is_byte_identical() {
    let plan = FaultPlan::new(7)
        .drop_prob(0.02)
        .link_down(outage_edge(), 5, 60);
    let (outcome, _) = assert_parity_under(2, Some(plan), "2proc-lossy");
    let (report, _) = outcome.unwrap_or_else(|e| panic!("the lossy run must complete: {e}"));
    assert_eq!(report.messages, 84_797);
    assert_eq!(report.dropped_messages, 1_719);
}

/// Duplicated copies reach SimpleMST, which answers each one, so the
/// run double-sends; both sides must stop at the same violation with
/// the same trace up to it.
#[test]
fn two_process_run_under_duplication_fails_with_the_same_violation() {
    let plan = FaultPlan::new(7)
        .drop_prob(0.05)
        .dup_prob(0.1)
        .link_down(outage_edge(), 5, 60);
    let (outcome, _) = assert_parity_under(2, Some(plan), "2proc-dup");
    assert_eq!(
        outcome.map(|_| ()),
        Err(SimError::CongestViolation {
            node: NodeId(68),
            port: Port(0),
            round: 19,
        })
    );
}

#[test]
fn killing_a_worker_mid_run_is_a_typed_peer_lost() {
    let timeout = Duration::from_millis(2000);
    let started = Instant::now();
    let (result, _) = distributed_run(
        SMALL_SPEC,
        2,
        10_000,
        timeout,
        &["--die-at-round", "5"],
        None,
    );
    let err = result.expect_err("a dead worker must fail the run");
    let SimError::PeerLost { peer, round, .. } = &err else {
        panic!("expected PeerLost, got {err}");
    };
    assert_eq!(*peer, 0, "the killed shard should be named");
    assert!(*round >= 5, "death was scheduled at round 5, got {round}");
    // detected within the read deadline (plus slack for process startup)
    assert!(
        started.elapsed() < timeout + Duration::from_secs(20),
        "PeerLost took {:?}",
        started.elapsed()
    );
}

#[test]
fn graph_fingerprint_mismatch_is_rejected_in_the_handshake() {
    let g = graph_of(SMALL_SPEC);
    let listener = CoordListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let ep = listener.local_endpoint().expect("local endpoint");
    // worker built from a different seed: same node count, different weights
    let children = vec![
        spawn_worker(&ep, 0, 2, "grid:100:8", &[]),
        spawn_worker(&ep, 1, 2, SMALL_SPEC, &[]),
    ];
    let opts = CoordOpts {
        shards: 2,
        plan: None,
        max_rounds: 10_000,
        timeout: Duration::from_secs(10),
    };
    let result = coordinate(listener, &g, &opts, None);
    reap(children);
    let err = result.expect_err("a mismatched graph must be rejected");
    let SimError::PeerLost { round, detail, .. } = &err else {
        panic!("expected PeerLost, got {err}");
    };
    assert_eq!(*round, 0, "rejection happens in the handshake");
    assert!(
        detail.contains("fingerprint"),
        "detail should name the fingerprint check: {detail}"
    );
}

/// The one value [`Val`]'s decoder refuses.
const POISON: u64 = (1 << 48) - 1;

/// A message that encodes every value but decodes [`POISON`] as a bad
/// tag: the frame carrying it can never be delivered.
#[derive(Clone, Debug)]
struct Val(u64);

impl Wire for Val {
    fn encode(&self, w: &mut BitWriter) {
        w.word(self.0);
    }
    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        match r.word()? {
            POISON => Err(WireError::BadTag {
                context: "Val",
                value: POISON,
            }),
            v => Ok(Val(v)),
        }
    }
}

impl Message for Val {}

/// Every node broadcasts its id in round 0; in round 1 the poisoner
/// sends [`POISON`] on its port 0.
#[derive(Debug)]
struct Poison {
    poisoner: bool,
    rounds: u64,
}

impl Protocol for Poison {
    type Msg = Val;

    fn round(&mut self, ctx: &NodeCtx<'_>, _inbox: &[(Port, Val)], out: &mut Outbox<Val>) {
        match ctx.round {
            0 => out.broadcast(Val(ctx.id)),
            1 if self.poisoner => out.send(Port(0), Val(POISON)),
            _ => {}
        }
        self.rounds = ctx.round + 1;
    }

    fn is_done(&self) -> bool {
        self.rounds >= 2
    }
}

/// A worker whose automaton sends an undecodable frame aborts the run
/// with the `WireMismatch` the in-process engine reports for it: same
/// node, port and round.
#[test]
fn undecodable_frame_is_the_same_wire_mismatch_on_a_fleet() {
    let g = graph_of(SMALL_SPEC);
    let poisoner = g.node_count() - 1; // in the second of two shards
    let make = |v: usize, _id: u64| Poison {
        poisoner: v == poisoner,
        rounds: 0,
    };
    let nodes = (0..g.node_count()).map(|v| make(v, 0)).collect();
    let mut sim = Simulator::with_config(&g, nodes, EngineConfig::default());
    let want = sim.run(10_000).expect_err("the poisoned frame must abort");

    let listener = CoordListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let ep = listener.local_endpoint().expect("local endpoint");
    let opts = CoordOpts {
        shards: 2,
        plan: None,
        max_rounds: 10_000,
        timeout: Duration::from_secs(10),
    };
    let got = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|shard| {
                let opts = WorkerOpts {
                    connect: ep.clone(),
                    shard,
                    shards: 2,
                    die_at_round: None,
                };
                let g = &g;
                scope.spawn(move || run_worker(g, make, |n: &Poison| n.rounds, &opts))
            })
            .collect();
        let got = coordinate(listener, &g, &opts, None);
        for w in workers {
            // the poisoner's worker aborts, its peer loses the
            // coordinator; neither may panic
            let _ = w.join().expect("worker thread");
        }
        got
    });

    let site = |e: &SimError| match e {
        SimError::WireMismatch {
            node, port, round, ..
        } => Some((*node, *port, *round)),
        _ => None,
    };
    let got = got.expect_err("the poisoned frame must abort the fleet");
    assert_eq!(
        site(&want),
        Some((NodeId(poisoner), Port(0), 1)),
        "in process: {want}"
    );
    assert_eq!(site(&got), site(&want), "on the fleet: {got}");
}

#[test]
fn graph_spec_outside_its_node_bounds_exits_1_naming_it() {
    for role in [
        &["coord", "--listen", "tcp:127.0.0.1:0"][..],
        &["run", "--shards", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_kdom-shard"))
            .args(role)
            .args(["--graph", "path:0:1", "--proto", "simple-mst"])
            .stdin(Stdio::null())
            .output()
            .expect("run kdom-shard");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{role:?}: {stderr}");
        assert!(stderr.contains("N=0"), "{role:?}: {stderr}");
    }
}
