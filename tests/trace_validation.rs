//! End-to-end trace validation: every execution mode's event stream must
//! re-derive the `RunReport` the engine recorded, and the full Fast-MST
//! composition must demonstrably respect the CONGEST budget.
//!
//! The in-memory tests drive sinks through `set_trace`, but the engine
//! constructors also consult `KDOM_TRACE` — so **every** test here holds
//! the binary-wide lock, and only the Fast-MST test (which exercises the
//! environment path on purpose) mutates the variable while holding it.
//! Its JSONL file is kept under `target/trace/` on failure so CI can
//! upload it as an artifact.

use std::sync::Mutex;

use kdom::congest::trace::{validate_file, validate_str};
use kdom::congest::{
    congest_budget, AlphaSimulator, EngineConfig, FaultPlan, MemorySink, ReliableConfig, RunReport,
    Simulator,
};
use kdom::core::dist::bfs::BfsNode;
use kdom::graph::generators::{gnp_connected, Family, GenConfig};
use kdom::graph::{Graph, NodeId};
use kdom::mst::fastmst::fast_mst;

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // a poisoned lock just means another test failed; the env var is
    // still consistent because each test clears it before unwinding past
    // the guard
    ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn bfs_nodes(g: &Graph) -> Vec<BfsNode> {
    (0..g.node_count()).map(|v| BfsNode::new(v == 0)).collect()
}

/// Synchronous run with injected duplication, delay, and a crash: the
/// validator must re-derive all eight report fields exactly from the
/// per-send events.
#[test]
fn sync_trace_rederives_recorded_report() {
    let _g = lock();
    let g = gnp_connected(&GenConfig::with_seed(130, 4), 0.06);
    let plan = FaultPlan::new(0xACE)
        .dup_prob(0.1)
        .max_extra_delay(2)
        .crash(NodeId(7), 3);
    let mem = MemorySink::new();
    let mut sim = Simulator::with_faults(&g, bfs_nodes(&g), &plan, EngineConfig::default());
    sim.set_trace(Box::new(mem.clone()));
    let report = sim.run(50_000).expect("faulty BFS quiesces");

    let summary = validate_str(&mem.to_jsonl(), None)
        .unwrap_or_else(|e| panic!("sync trace failed validation: {e}"));
    assert_eq!(summary.runs.len(), 1);
    let run = &summary.runs[0];
    assert_eq!(run.mode, "sync");
    assert_eq!(run.recorded, report, "run_end disagrees with the report");
    assert_eq!(run.derived, report, "derivation disagrees with the report");
    assert!(report.messages > 0 && report.duplicated_messages > 0);
    assert!(
        summary.ff_jumps > 0 || summary.ff_skipped == 0,
        "skip accounting without a jump"
    );
}

/// Plain synchronizer α (no faults, no ARQ): pulses and payload
/// deliveries must re-derive the projected report, with the bit-level
/// fields zero by design.
#[test]
fn alpha_trace_rederives_projected_report() {
    let _g = lock();
    let g = gnp_connected(&GenConfig::with_seed(90, 3), 0.07);
    let mem = MemorySink::new();
    let mut sim = AlphaSimulator::new(&g, bfs_nodes(&g), 13, 3);
    sim.set_trace(Box::new(mem.clone()));
    let alpha_report = sim.run(500_000).expect("α BFS quiesces");
    let projected = RunReport::from(alpha_report);

    let summary = validate_str(&mem.to_jsonl(), None)
        .unwrap_or_else(|e| panic!("α trace failed validation: {e}"));
    assert_eq!(summary.runs.len(), 1);
    let run = &summary.runs[0];
    assert_eq!(run.mode, "alpha");
    assert_eq!(run.recorded, projected);
    assert!(projected.messages > 0);
    assert_eq!(projected.total_bits, 0, "α must project bit fields to zero");
}

/// Reliable-α under 20% loss: the ARQ layer's accounting must be
/// internally consistent — the validator re-derives retransmissions and
/// drops from the event stream, and exactly-once delivery means the
/// payload count equals the synchronous message count despite the loss.
#[test]
fn reliable_alpha_lossy_trace_is_consistent_with_sync() {
    let _g = lock();
    let g = gnp_connected(&GenConfig::with_seed(110, 6), 0.06);
    let plan = FaultPlan::new(77).drop_prob(0.2);

    let mut sync = Simulator::with_config(&g, bfs_nodes(&g), EngineConfig::default());
    let sync_report = sync.run(10_000).expect("sync BFS quiesces");

    let mem = MemorySink::new();
    let mut sim = AlphaSimulator::with_faults(&g, bfs_nodes(&g), 7, 3, &plan)
        .reliable(ReliableConfig::for_delays(3, plan.max_extra_delay));
    sim.set_trace(Box::new(mem.clone()));
    let alpha_report = sim.run(500_000).expect("reliable-α BFS quiesces");
    let projected = RunReport::from(alpha_report);

    let summary = validate_str(&mem.to_jsonl(), None)
        .unwrap_or_else(|e| panic!("reliable-α trace failed validation: {e}"));
    assert_eq!(summary.runs.len(), 1);
    let run = &summary.runs[0];
    assert_eq!(run.mode, "reliable-alpha");
    assert_eq!(run.recorded, projected);
    assert!(
        projected.retransmissions > 0,
        "20% loss must force retransmissions: {projected:?}"
    );
    assert!(projected.dropped_messages > 0);
    assert_eq!(
        projected.messages, sync_report.messages,
        "exactly-once delivery must recover the synchronous payload count"
    );
}

/// The full Fast-MST composition, traced through the `KDOM_TRACE`
/// environment path: the validator must confirm the CONGEST budget (one
/// message per edge-direction per round, every message within the
/// 3-word/144-bit pipeline maximum), the per-phase breakdown must cover
/// `SimpleMST` / `DOMPartition` (charged) / `BFS` / `Pipeline`, and the
/// absorbed total must reproduce `FastMstRun::total_rounds`.
#[test]
fn fast_mst_trace_confirms_congest_budget_and_phases() {
    let _g = lock();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/trace");
    std::fs::create_dir_all(&dir).expect("create target/trace");
    let path = dir.join("fast_mst_grid400.jsonl");
    let _ = std::fs::remove_file(&path);

    std::env::set_var("KDOM_TRACE", &path);
    let g = Family::Grid.generate(400, 11);
    let run = fast_mst(&g);
    std::env::remove_var("KDOM_TRACE");

    let summary = validate_file(&path, Some(congest_budget(3))).unwrap_or_else(|e| {
        panic!(
            "Fast-MST trace failed validation (kept at {}): {e}",
            path.display()
        )
    });

    assert_eq!(
        summary.runs.len(),
        3,
        "SimpleMST, BFS and Pipeline are measured runs"
    );
    for label in ["SimpleMST", "DOMPartition", "BFS", "Pipeline"] {
        let phase = summary
            .phase(label)
            .unwrap_or_else(|| panic!("phase {label} missing from the breakdown"));
        assert!(phase.rounds > 0, "phase {label} recorded no rounds");
    }
    assert_eq!(
        summary.phase("DOMPartition").unwrap().messages,
        0,
        "the partition stage is charged, not simulated"
    );
    assert_eq!(
        summary.total.rounds,
        run.total_rounds(),
        "trace total disagrees with the composition's own accounting"
    );

    // the phase breakdowns partition the total, field by field
    let mut sum = RunReport::default();
    for (_, r) in &summary.phases {
        sum.absorb(r);
    }
    assert_eq!(sum, summary.total, "phases do not partition the total");

    // validated: safe to reclaim the artifact
    let _ = std::fs::remove_file(&path);
}
