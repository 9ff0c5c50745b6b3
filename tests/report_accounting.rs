//! `RunReport` accounting across composed multi-phase runs.
//!
//! The compositions (FastDOM, Fast-MST) stitch their per-stage reports
//! together with [`RunReport::absorb`] and account analytic stages with
//! [`RunReport::charge_rounds`]. These tests pin the composition algebra
//! against real protocol runs — per-phase reports must sum to the
//! absorbed total field by field, charged rounds must touch *only* the
//! round count, and the α → sync projection must never smuggle
//! α-specific bit counts into a synchronous breakdown.

use kdom::congest::{run_protocol_alpha_reliable, EngineConfig, FaultPlan, RunReport, Simulator};
use kdom::core::dist::bfs::{run_bfs, BfsNode};
use kdom::core::dist::executor::Executor;
use kdom::core::dist::fragments::run_simple_mst;
use kdom::graph::generators::{gnp_connected, GenConfig};
use kdom::graph::NodeId;

/// Real per-phase reports (SimpleMST, a charged partition stage, BFS)
/// absorbed into one total must agree with the field-by-field arithmetic:
/// additive fields sum, max fields take the maximum, and the charge adds
/// rounds only.
#[test]
fn absorb_and_charge_compose_across_phases() {
    let g = gnp_connected(&GenConfig::with_seed(120, 5), 0.06);
    let mst = run_simple_mst(&g, 4, &Executor::default());
    let (_, bfs_report) = run_bfs(&g, NodeId(0), &Executor::default()).unwrap();
    let phases = [mst.report.clone(), bfs_report];
    let charge = 17u64;

    let mut total = RunReport::default();
    for p in &phases {
        total.absorb(p);
    }
    total.charge_rounds(charge);

    assert!(
        phases.iter().all(|p| p.rounds > 0 && p.messages > 0),
        "phases must be non-trivial for the test to mean anything: {phases:?}"
    );
    assert_eq!(
        total.rounds,
        phases.iter().map(|p| p.rounds).sum::<u64>() + charge
    );
    assert_eq!(
        total.messages,
        phases.iter().map(|p| p.messages).sum::<u64>()
    );
    assert_eq!(
        total.total_bits,
        phases.iter().map(|p| p.total_bits).sum::<u64>()
    );
    assert_eq!(
        total.max_message_bits,
        phases.iter().map(|p| p.max_message_bits).max().unwrap()
    );
    assert_eq!(
        total.peak_messages_per_round,
        phases
            .iter()
            .map(|p| p.peak_messages_per_round)
            .max()
            .unwrap()
    );
    assert_eq!(
        total.dropped_messages,
        phases.iter().map(|p| p.dropped_messages).sum::<u64>()
    );
    assert_eq!(
        total.duplicated_messages,
        phases.iter().map(|p| p.duplicated_messages).sum::<u64>()
    );
    assert_eq!(
        total.retransmissions,
        phases.iter().map(|p| p.retransmissions).sum::<u64>()
    );
}

/// A charged (analytic) phase must not distort any message statistic:
/// absorbing a report built purely from `charge_rounds` is the identity
/// on everything but `rounds`.
#[test]
fn charged_phase_touches_rounds_only() {
    let g = gnp_connected(&GenConfig::with_seed(80, 2), 0.08);
    let mst = run_simple_mst(&g, 3, &Executor::default());
    let mut total = mst.report.clone();

    let mut charged = RunReport::default();
    charged.charge_rounds(123);
    total.absorb(&charged);

    let mut want = mst.report.clone();
    want.rounds += 123;
    assert_eq!(total, want, "charge leaked into a message statistic");
}

/// The α → `RunReport` projection counts pulses as rounds and delivered
/// payloads as messages, and deliberately zeroes the bit-level fields
/// (α control traffic dominates them, so reporting them as CONGEST
/// message bits would be misleading). In a fault-free run the projected
/// message count must equal the synchronous one — same automata, same
/// protocol messages, exactly-once delivery.
#[test]
fn alpha_projection_matches_sync_messages_and_zeroes_bits() {
    let g = gnp_connected(&GenConfig::with_seed(90, 3), 0.07);
    let make = || {
        (0..g.node_count())
            .map(|v| BfsNode::new(v == 0))
            .collect::<Vec<BfsNode>>()
    };

    let mut sync = Simulator::with_config(&g, make(), EngineConfig::default());
    let sync_report = sync.run(10_000).expect("sync BFS quiesces");

    let plan = FaultPlan::new(0); // fault-free
    let (_, alpha_report) =
        run_protocol_alpha_reliable(&g, make(), 13, 3, &plan, 500_000).expect("α BFS quiesces");
    let projected = RunReport::from(alpha_report);

    assert_eq!(
        projected.messages, sync_report.messages,
        "fault-free α delivered a different payload count than sync"
    );
    assert!(projected.rounds > 0);
    assert_eq!(projected.total_bits, 0, "α bit totals must project to zero");
    assert_eq!(projected.max_message_bits, 0);
    assert_eq!(projected.peak_messages_per_round, 0);
    assert_eq!(projected.dropped_messages, 0);
    assert_eq!(projected.duplicated_messages, 0);
    assert_eq!(projected.retransmissions, 0);
}
