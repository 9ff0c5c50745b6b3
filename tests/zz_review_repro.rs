//! Review repro: dropped_messages parity at high thread counts with crashes.

use kdom::congest::{EngineConfig, FaultPlan, Message, NodeCtx, Outbox, Port, Protocol, Simulator};
use kdom::graph::generators::{gnp_connected, GenConfig};
use kdom::graph::NodeId;

#[derive(Clone, Debug)]
struct Ping;
kdom::congest::impl_wire_empty!(Ping);
impl Message for Ping {}

/// Every node broadcasts until round `until`, then stops; nodes stay
/// active while they have messages, so the active-set size varies.
struct Chatter {
    until: u64,
    done: bool,
}
impl Protocol for Chatter {
    type Msg = Ping;
    fn round(&mut self, ctx: &NodeCtx<'_>, _inbox: &[(Port, Ping)], out: &mut Outbox<Ping>) {
        // stagger finish times so the active set shrinks gradually
        let stop = self.until + (ctx.id % 7);
        if ctx.round < stop {
            out.broadcast(Ping);
        } else {
            self.done = true;
        }
    }
    fn is_done(&self) -> bool {
        self.done
    }
}

#[test]
fn dropped_messages_parity_high_threads() {
    let g = gnp_connected(&GenConfig::with_seed(2600, 1), 0.004);
    let mut plan = FaultPlan::new(9).drop_prob(0.05).dup_prob(0.05);
    // crashes scattered across node indices and rounds
    for (v, at) in [(2550usize, 2u64), (1280, 3), (700, 4), (2590, 5), (100, 6)] {
        plan = plan.crash(NodeId(v), at);
    }
    let mk = |g: &kdom::graph::Graph| -> Vec<Chatter> {
        (0..g.node_count())
            .map(|_| Chatter {
                until: 12,
                done: false,
            })
            .collect()
    };
    let mut reports = Vec::new();
    for threads in [1usize, 40] {
        let cfg = EngineConfig::default().with_threads(threads);
        let mut sim = Simulator::with_faults(&g, mk(&g), &plan, cfg);
        sim.run(10_000).expect("quiesces");
        reports.push(sim.report().clone());
    }
    assert_eq!(
        format!("{:?}", reports[0]),
        format!("{:?}", reports[1]),
        "RunReport diverged between 1 and 40 threads"
    );
}
