//! Graph substrate for the `kdom` workspace.
//!
//! This crate provides everything the Kutten–Peleg algorithms need from a
//! graph library:
//!
//! * [`Graph`] — an undirected graph with distinct `u64` edge weights and
//!   unique node identifiers, stored as adjacency lists ([`graph`]);
//! * deterministic generators for the topologies used in the experiments
//!   ([`generators`]);
//! * structural queries: BFS layers, distances, diameter, radius,
//!   connectivity ([`properties`]);
//! * rooted-tree views with parent/children/depth arrays ([`tree`]);
//! * a disjoint-set union used by the sequential MST algorithms and by the
//!   red-rule verifiers ([`dsu`]);
//! * fail-fast parsing of `KDOM_*` environment knobs, shared by every
//!   layer above ([`knob`](mod@knob));
//! * sequential reference MST algorithms (Kruskal, Prim) against which the
//!   distributed algorithms are validated ([`mst_ref`]).
//!
//! # Example
//!
//! ```
//! use kdom_graph::generators::{random_tree, GenConfig};
//! use kdom_graph::properties::diameter;
//!
//! let g = random_tree(&GenConfig::with_seed(64, 7));
//! assert_eq!(g.node_count(), 64);
//! assert_eq!(g.edge_count(), 63);
//! assert!(diameter(&g) < 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dsu;
pub mod generators;
pub mod graph;
pub mod knob;
pub mod mst_ref;
pub mod properties;
pub mod tree;

pub use dsu::Dsu;
pub use graph::{EdgeId, EdgeRef, Graph, GraphBuilder, NodeId};
pub use knob::{knob, knob_checked, knob_enum};
pub use tree::RootedTree;
