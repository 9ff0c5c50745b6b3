//! Synchronous leader election by max-id flooding.
//!
//! `DiamDOM` and `Pipeline` assume a distinguished root ("given a graph G
//! and a root node r"); the paper cites \[P\] for time-optimal leader
//! election. This module provides the standard `O(Diam)` synchronous
//! flooding election so the compositions can run root-free: every node
//! repeatedly forwards the largest id it has seen; after quiescence the
//! unique maximum has flooded everywhere and its holder knows it is the
//! leader.

use kdom_congest::wire::{BitReader, BitWriter, Wire, WireError};
use kdom_congest::{EngineConfig, Message, NodeCtx, Outbox, Port, Protocol, RunReport};
use kdom_graph::{Graph, NodeId};

/// The largest id seen so far: a single 48-bit CONGEST word.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Best(pub u64);

impl Wire for Best {
    fn encode(&self, w: &mut BitWriter) {
        w.word(self.0);
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        Ok(Best(r.word()?))
    }
}

impl Message for Best {}

/// Per-node election automaton.
#[derive(Clone, Debug)]
pub struct ElectionNode {
    /// Largest id seen so far (own id initially).
    pub best: u64,
    started: bool,
}

impl ElectionNode {
    /// A fresh automaton.
    pub fn new() -> Self {
        ElectionNode {
            best: 0,
            started: false,
        }
    }

    /// Whether this node believes itself elected (call after the run).
    pub fn is_leader(&self, own_id: u64) -> bool {
        self.best == own_id
    }
}

impl Default for ElectionNode {
    fn default() -> Self {
        Self::new()
    }
}

impl Protocol for ElectionNode {
    type Msg = Best;

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Port, Best)], out: &mut Outbox<Best>) {
        let before = self.best;
        if !self.started {
            self.best = ctx.id;
            self.started = true;
        }
        for (_, m) in inbox {
            self.best = self.best.max(m.0);
        }
        if self.best != before {
            out.broadcast(Best(self.best));
        }
    }

    fn is_done(&self) -> bool {
        self.started
    }
}

/// Elects the maximum-id node of a connected graph.
///
/// Returns the leader and the run report (`O(Diam)` rounds).
///
/// # Panics
///
/// Panics if the graph is empty or disconnected.
pub fn elect_leader(g: &Graph) -> (NodeId, RunReport) {
    assert!(g.node_count() > 0, "cannot elect on an empty graph");
    let nodes = (0..g.node_count()).map(|_| ElectionNode::new()).collect();
    let budget = 4 * g.node_count() as u64 + 16;
    let (nodes, report) = kdom_congest::run_protocol(g, nodes, budget, EngineConfig::default())
        .expect("election quiesces on a connected graph");
    let max_id = g.nodes().map(|v| g.id_of(v)).max().expect("non-empty");
    let leader = g.node_with_id(max_id).expect("max id exists");
    for v in g.nodes() {
        assert_eq!(nodes[v.0].best, max_id, "{v:?} did not learn the leader");
    }
    (leader, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdom_graph::generators::Family;
    use kdom_graph::properties::diameter;

    #[test]
    fn elects_max_id_everywhere() {
        for fam in Family::ALL {
            let g = fam.generate(80, 19);
            let (leader, _) = elect_leader(&g);
            let max_id = g.nodes().map(|v| g.id_of(v)).max().unwrap();
            assert_eq!(g.id_of(leader), max_id, "{fam}");
        }
    }

    #[test]
    fn rounds_track_diameter() {
        let g = Family::Path.generate(120, 4);
        let (_, report) = elect_leader(&g);
        let d = u64::from(diameter(&g));
        assert!(
            report.rounds <= 2 * d + 4,
            "{} rounds vs diam {d}",
            report.rounds
        );
    }

    #[test]
    fn single_node() {
        let g = kdom_graph::GraphBuilder::new(1).build();
        let (leader, report) = elect_leader(&g);
        assert_eq!(leader, NodeId(0));
        assert!(report.rounds <= 2);
    }

    #[test]
    fn messages_bounded() {
        // each node re-broadcasts only on improvement: O(m · improvements)
        let g = Family::Gnp.generate(100, 8);
        let (_, report) = elect_leader(&g);
        assert!(report.messages < 100 * g.edge_count() as u64);
        assert_eq!(report.max_message_bits, 48);
    }
}
