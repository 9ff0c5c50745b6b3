//! Pluggable execution backends for the composed algorithms.
//!
//! The paper's reliability assumption is an *assumption*, not part of the
//! algorithms — so the compositions take it as a toggle. [`Executor::Sync`]
//! is the lock-step CONGEST model every protocol was written for;
//! [`Executor::ReliableAlpha`] runs the *same unmodified automata* over an
//! asynchronous network with injected faults, with synchronizer α
//! restoring rounds and the ARQ layer restoring exactly-once delivery.
//! The recovery tests assert that both backends produce byte-identical
//! outputs. An [`Executor`] is a runner's whole run context: the sync
//! backend carries its [`EngineConfig`], and no runner reads the
//! environment.

use kdom_congest::{EngineConfig, FaultPlan, Protocol, RunReport, SimError};
use kdom_graph::Graph;

/// How a composition's measured protocol stages are executed: the run
/// context every runner takes from its caller.
#[derive(Clone, Debug)]
pub enum Executor {
    /// Lock-step synchronous CONGEST rounds on the round engine, with
    /// its schedule knobs and worker threads.
    Sync(EngineConfig),
    /// Synchronizer α over a faulty asynchronous network, recovered by
    /// the reliable (ARQ) transport. α is event-driven rather than
    /// round-sharded, so it runs single-threaded; its outputs are
    /// byte-identical to the synchronous run's.
    ReliableAlpha {
        /// Seed for the per-message base delays.
        seed: u64,
        /// Maximum base link delay, in virtual time units (≥ 1).
        max_delay: u64,
        /// The adversary: drops, duplication, extra delay, crashes.
        plan: FaultPlan,
    },
}

impl Default for Executor {
    /// Synchronous rounds on the default engine configuration.
    fn default() -> Self {
        Executor::Sync(EngineConfig::default())
    }
}

impl Executor {
    /// Runs `nodes` to quiescence under this backend. `max_rounds` bounds
    /// synchronous rounds and α pulses alike (α executes exactly one
    /// protocol round per pulse, so the same budget fits both). A caller
    /// that labels a phase in the trace stream calls
    /// [`kdom_congest::trace::emit_phase`] first.
    ///
    /// # Errors
    ///
    /// Propagates the simulator's [`SimError`] — budget exhaustion and
    /// stalls carry a [`kdom_congest::StallReport`] naming the stuck nodes.
    pub fn run<P: Protocol>(
        &self,
        g: &Graph,
        nodes: Vec<P>,
        max_rounds: u64,
    ) -> Result<(Vec<P>, RunReport), SimError> {
        match self {
            Executor::Sync(config) => kdom_congest::run_protocol(g, nodes, max_rounds, *config),
            Executor::ReliableAlpha {
                seed,
                max_delay,
                plan,
            } => {
                let (nodes, report) = kdom_congest::run_protocol_alpha_reliable(
                    g, nodes, *seed, *max_delay, plan, max_rounds,
                )?;
                Ok((nodes, report.into()))
            }
        }
    }

    /// The watchdog budget equivalent to `sync_rounds` synchronous
    /// rounds under this backend. The α transport spends extra pulses
    /// on ARQ retransmissions and on draining acks *after* the protocol
    /// itself has quiesced, so a schedule-derived synchronous bound is
    /// too tight under loss; the α budget gets generous headroom. The
    /// budget only catches runaway runs — it never changes the outputs
    /// of a run that completes.
    pub fn watchdog_budget(&self, sync_rounds: u64) -> u64 {
        match self {
            Executor::Sync(_) => sync_rounds,
            Executor::ReliableAlpha { .. } => sync_rounds.saturating_mul(64).max(1 << 16),
        }
    }

    /// A short human label for reports and benchmarks.
    pub fn label(&self) -> &'static str {
        match self {
            Executor::Sync(_) => "sync",
            Executor::ReliableAlpha { .. } => "reliable-α",
        }
    }
}

impl From<&kdom_congest::RunSpec> for Executor {
    /// The backend a [`kdom_congest::RunSpec`] describes: a sync spec
    /// runs on its engine configuration; an α spec's run seed becomes
    /// the delay seed and its fault plan the adversary.
    fn from(spec: &kdom_congest::RunSpec) -> Executor {
        match spec.exec {
            kdom_congest::ExecSpec::Sync => Executor::Sync(spec.engine_config()),
            kdom_congest::ExecSpec::ReliableAlpha { max_delay } => Executor::ReliableAlpha {
                seed: spec.seed,
                max_delay,
                plan: spec.faults.clone(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::election::ElectionNode;
    use kdom_graph::generators::Family;

    #[test]
    fn backends_agree_on_election() {
        let g = Family::Gnp.generate(24, 7);
        let max_id = g.nodes().map(|v| g.id_of(v)).max().unwrap();
        for exec in [
            Executor::default(),
            Executor::ReliableAlpha {
                seed: 11,
                max_delay: 3,
                plan: FaultPlan::new(5).drop_prob(0.25),
            },
        ] {
            let nodes = (0..g.node_count()).map(|_| ElectionNode::new()).collect();
            let (nodes, report) = exec.run(&g, nodes, 1_000_000).unwrap();
            assert!(nodes.iter().all(|n| n.best == max_id), "{}", exec.label());
            assert!(report.rounds > 0);
        }
    }

    #[test]
    fn explicit_engine_configs_agree() {
        let g = Family::Grid.generate(36, 9);
        let max_id = g.nodes().map(|v| g.id_of(v)).max().unwrap();
        let mut reports = Vec::new();
        let every_node_every_round = EngineConfig::default()
            .with_dense_pct(0)
            .with_fast_forward(false);
        for cfg in [
            every_node_every_round.with_threads(1),
            EngineConfig::default().with_threads(4),
        ] {
            let nodes = (0..g.node_count()).map(|_| ElectionNode::new()).collect();
            let (nodes, report) = Executor::Sync(cfg).run(&g, nodes, 10_000).unwrap();
            assert!(nodes.iter().all(|n| n.best == max_id));
            reports.push(report);
        }
        assert_eq!(reports[0], reports[1], "configs must be byte-identical");
    }

    #[test]
    fn labels_are_distinct() {
        let a = Executor::default().label();
        let b = Executor::ReliableAlpha {
            seed: 0,
            max_delay: 1,
            plan: FaultPlan::new(0),
        }
        .label();
        assert_ne!(a, b);
    }
}
