//! Pluggable execution backends for the composed algorithms.
//!
//! The paper's reliability assumption is an *assumption*, not part of the
//! algorithms — so the compositions take it as a toggle. [`Executor::Sync`]
//! is the lock-step CONGEST model every protocol was written for;
//! [`Executor::ReliableAlpha`] runs the *same unmodified automata* over an
//! asynchronous network with injected faults, with synchronizer α
//! restoring rounds and the ARQ layer restoring exactly-once delivery.
//! The recovery tests assert that both backends produce byte-identical
//! outputs.

use kdom_congest::{EngineConfig, FaultPlan, Protocol, RunReport, SimError};
use kdom_graph::Graph;

/// How a composition's measured protocol stages are executed.
#[derive(Clone, Debug, Default)]
pub enum Executor {
    /// Lock-step synchronous CONGEST rounds (the default; no overhead).
    #[default]
    Sync,
    /// Synchronizer α over a faulty asynchronous network, recovered by
    /// the reliable (ARQ) transport.
    ReliableAlpha {
        /// Seed for the per-message base delays.
        seed: u64,
        /// Maximum base link delay, in virtual time units (≥ 1).
        max_delay: u64,
        /// The adversary: drops, duplication, extra delay, crashes.
        plan: FaultPlan,
    },
}

impl Executor {
    /// Runs `nodes` to quiescence under this backend. `max_rounds` bounds
    /// synchronous rounds and α pulses alike (α executes exactly one
    /// protocol round per pulse, so the same budget fits both).
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
        self.run_configured(g, nodes, max_rounds, EngineConfig::from_env())
    }

    /// [`Executor::run`] with an explicit round-engine configuration
    /// (schedule knobs and worker threads) instead of the
    /// [`EngineConfig::from_env`] environment defaults. The α backend
    /// is event-driven rather than round-sharded, so it executes
    /// single-threaded regardless of `config.threads`; outputs are
    /// byte-identical either way.
    ///
    /// # Errors
    ///
    /// Propagates the simulator's [`SimError`], as [`Executor::run`].
    pub fn run_configured<P: Protocol>(
        &self,
        g: &Graph,
        nodes: Vec<P>,
        max_rounds: u64,
        config: EngineConfig,
    ) -> Result<(Vec<P>, RunReport), SimError> {
        match self {
            Executor::Sync => kdom_congest::run_protocol_with(g, nodes, max_rounds, config),
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

    /// [`Executor::run`] preceded by a phase marker in the trace stream
    /// (`KDOM_TRACE`): composed algorithms label their measured stages
    /// (`"SimpleMST"`, `"BFS"`, `"FastDOM/within"`, …) so the trace
    /// validator can break the absorbed [`RunReport`] totals back down
    /// per phase. A no-op wrapper when tracing is disabled.
    ///
    /// # Errors
    ///
    /// Propagates the simulator's [`SimError`], as [`Executor::run`].
    pub fn run_phase<P: Protocol>(
        &self,
        phase: &str,
        g: &Graph,
        nodes: Vec<P>,
        max_rounds: u64,
    ) -> Result<(Vec<P>, RunReport), SimError> {
        kdom_congest::trace::emit_phase(phase);
        self.run(g, nodes, max_rounds)
    }

    /// [`Executor::run_phase`] with an explicit round-engine
    /// configuration instead of the environment defaults — the
    /// spec-driven path used by the service layer, where the
    /// environment must not leak into a job's execution.
    ///
    /// # Errors
    ///
    /// Propagates the simulator's [`SimError`], as [`Executor::run`].
    pub fn run_phase_configured<P: Protocol>(
        &self,
        phase: &str,
        g: &Graph,
        nodes: Vec<P>,
        max_rounds: u64,
        config: EngineConfig,
    ) -> Result<(Vec<P>, RunReport), SimError> {
        kdom_congest::trace::emit_phase(phase);
        self.run_configured(g, nodes, max_rounds, config)
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
            Executor::Sync => sync_rounds,
            Executor::ReliableAlpha { .. } => sync_rounds.saturating_mul(64).max(1 << 16),
        }
    }

    /// A short human label for reports and benchmarks.
    pub fn label(&self) -> &'static str {
        match self {
            Executor::Sync => "sync",
            Executor::ReliableAlpha { .. } => "reliable-α",
        }
    }

    /// The backend selected by `KDOM_TRANSPORT`, failing fast on
    /// anything it cannot honor. Unset or `local` is [`Executor::Sync`].
    /// A socket endpoint (`tcp:…`, `host:port`, `unix:/…`) is *valid
    /// but not runnable here*: the in-process `Executor` hands the final
    /// automata back to the caller, which is impossible when they live
    /// in other processes — multi-process runs go through the
    /// `kdom-shard` binary (`kdom_congest::transport`). Naming that
    /// explicitly beats the historical alternative of silently falling
    /// back to an in-process run the user believed was distributed.
    ///
    /// # Panics
    ///
    /// On a socket endpoint (with a pointer to `kdom-shard`) or on any
    /// other unrecognized value, quoting the offending text. The knob
    /// parsing — including this `KDOM_TRANSPORT` validation — lives in
    /// [`kdom_congest::RunSpec::from_env`]; this is the executor view
    /// of that spec.
    pub fn from_env() -> Self {
        Executor::from(&kdom_congest::RunSpec::from_env())
    }
}

impl From<&kdom_congest::RunSpec> for Executor {
    /// The backend a [`kdom_congest::RunSpec`] describes: the spec's
    /// run seed becomes the α executor's delay seed and the spec's
    /// fault plan becomes the adversary.
    fn from(spec: &kdom_congest::RunSpec) -> Executor {
        match spec.exec {
            kdom_congest::ExecSpec::Sync => Executor::Sync,
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
            Executor::Sync,
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
            let (nodes, report) = Executor::Sync
                .run_configured(&g, nodes, 10_000, cfg)
                .unwrap();
            assert!(nodes.iter().all(|n| n.best == max_id));
            reports.push(report);
        }
        assert_eq!(reports[0], reports[1], "configs must be byte-identical");
    }

    #[test]
    fn from_env_refuses_socket_endpoints_instead_of_falling_back() {
        // a socket endpoint is valid *transport* syntax but the
        // in-process Executor cannot honor it — the panic must point at
        // kdom-shard, not silently run locally
        let err = std::panic::catch_unwind(|| {
            std::env::set_var("KDOM_TRANSPORT", "tcp:127.0.0.1:7000");
            let exec = Executor::from_env();
            std::env::remove_var("KDOM_TRANSPORT");
            exec
        })
        .expect_err("a socket endpoint must not fall back to Sync");
        std::env::remove_var("KDOM_TRANSPORT");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(
            msg.contains("kdom-shard"),
            "no pointer to the launcher: {msg}"
        );
    }

    #[test]
    fn labels_are_distinct() {
        let a = Executor::Sync.label();
        let b = Executor::ReliableAlpha {
            seed: 0,
            max_delay: 1,
            plan: FaultPlan::new(0),
        }
        .label();
        assert_ne!(a, b);
    }
}
