//! End-to-end benchmark of the kdom workspace.
//!
//! Four seeded workloads drive the public API — `fast_mst`, the service
//! dispatcher and the `kdom-serve` server — certify every output against
//! the sequential oracles, and report end-to-end metrics (untraced runs)
//! or per-layer metrics from spans around each layer's public entry
//! points (traced runs). See `README.md` beside this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod metrics;
pub mod serve_mix;
pub mod spans;
pub mod staged;
pub mod workloads;
