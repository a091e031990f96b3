//! End-to-end and per-layer benchmark of the AJX erasure-coded block
//! store: four closed-loop workloads on an in-process cluster with an
//! unshaped network and in-memory nodes, so the figures measure the
//! software. See `README.md` for the workloads and the metrics.

mod layers;
mod mix;
pub mod oracle;
pub mod report;
pub mod workloads;
