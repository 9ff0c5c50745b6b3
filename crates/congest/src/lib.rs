//! A deterministic synchronous **CONGEST**-model simulator.
//!
//! The model follows Kutten–Peleg (PODC'95) §1.2:
//!
//! * computation proceeds in synchronous rounds;
//! * a node may send **at most one message per incident edge per round**
//!   (enforced — a double send aborts the run with
//!   [`SimError::CongestViolation`]);
//! * messages carry `O(log n)` bits (accounted via [`Message::size_bits`],
//!   which is *derived* from the message's bit-exact [`wire`] encoding,
//!   and reported in [`RunReport`]; the experiments check the bound);
//! * nodes have unique identifiers and know the weights of incident edges.
//!
//! Algorithms are written as per-node automata implementing [`Protocol`];
//! the [`Simulator`] runs all automata in lockstep and measures the number
//! of rounds until global quiescence. Rounds are **measured, not modeled**.
//!
//! # Example: flooding a token
//!
//! ```
//! use kdom_congest::{EngineConfig, Message, NodeCtx, Outbox, Port, Protocol, Simulator};
//! use kdom_graph::generators::{path, GenConfig};
//!
//! #[derive(Clone, Debug)]
//! struct Token;
//! kdom_congest::impl_wire_empty!(Token); // zero payload bits on the wire
//! impl Message for Token {}
//!
//! struct Flood { seen: bool, origin: bool }
//! impl Protocol for Flood {
//!     type Msg = Token;
//!     fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Port, Token)], out: &mut Outbox<Token>) {
//!         let newly = (self.origin && ctx.round == 0) || (!self.seen && !inbox.is_empty());
//!         if newly {
//!             self.seen = true;
//!             out.broadcast(Token);
//!         }
//!     }
//!     fn is_done(&self) -> bool { self.seen }
//! }
//!
//! let g = path(&GenConfig::with_seed(10, 0));
//! let nodes = (0..10).map(|i| Flood { seen: false, origin: i == 0 }).collect();
//! let mut sim = Simulator::with_config(&g, nodes, EngineConfig::default());
//! let report = sim.run(100).unwrap();
//! assert!(sim.nodes().iter().all(|n| n.seen));
//! // 9 hops, one final processing step, one echo drained at the far end
//! assert_eq!(report.rounds, 11);
//! ```
//!
//! # Faults and recovery
//!
//! The paper assumes reliable links and crash-free nodes. The [`faults`]
//! module makes that assumption a toggle: a seeded [`FaultPlan`] injects
//! message loss, duplication, extra delay, link outages, and fail-stop
//! crashes into either executor. The [`reliable`] module layers a
//! link-level ARQ machine under the α synchronizer so that *unmodified*
//! protocols stay correct under loss, and the watchdog turns every
//! would-be hang into a structured [`SimError`] naming the stuck nodes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alpha;
pub mod chaos;
pub mod engine;
pub mod events;
pub mod faults;
pub mod jobs;
pub mod reliable;
mod report;
mod round;
mod sim;
pub mod trace;
pub mod transport;
pub mod wire;

pub use alpha::{run_protocol_alpha, run_protocol_alpha_reliable, AlphaReport, AlphaSimulator};
pub use chaos::{
    gen_schedule, random_epoch, shrink, ChaosConfig, ChaosSchedule, EventMix, ShrinkReport,
};
pub use engine::EngineConfig;
pub use events::{EventQueue, TimerHeap};
pub use faults::{
    apply_churn, ChurnEpoch, ChurnError, ChurnEvent, ChurnRemap, FaultInjector, FaultPlan,
    FaultPlanError, Transmission,
};
pub use jobs::{
    run_serial, Algo, CacheKey, CacheStats, ExecSpec, JobHandle, JobOutput, JobPool, JobStatus,
    PoolStats, ResultCache, RunSpec, Runner, SweepSpec,
};
pub use reliable::ReliableConfig;
pub use report::RunReport;
pub use sim::{
    congest_budget, run_protocol, Message, NodeCtx, Outbox, Port, Protocol, SimError, Simulator,
    StallReport, Wake, CONGEST_WORD_BITS,
};
pub use trace::{JsonlSink, MemorySink, TraceEvent, TraceSink, TraceSummary};
pub use transport::{
    coordinate, frame_to_bytes, read_frame, run_worker, shard_bounds, Conn, CoordListener,
    CoordOpts, DistOutcome, Endpoint, WorkerOpts, TRANSPORT_VERSION,
};
pub use wire::{
    decode_from, encode_to, BitReader, BitWriter, CodecScratch, Wire, WireError, WireFrame,
};
