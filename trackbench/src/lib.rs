//! # trackbench
//!
//! The benchmark of the trackdown pipeline: four user-facing workloads
//! (`internet`, `paper_measured`, `attack_stream`, `online_attack`), each
//! measured end to end with tracing off and, in a separate traced run,
//! layer by layer through timed calls into each crate's public functions.
//! Every run checks its outputs against a reference before it reports.
//!
//! The `benchmark` binary is the command line; see `README.md` in this
//! directory for the workloads, metrics, and how to run and compare.

pub mod alloc;
mod attack;
mod campaign;
pub mod compare;
pub mod metrics;
mod online;
pub mod profile;
mod stats;
pub mod workload;

pub use metrics::{Metric, RunResult};

#[cfg(test)]
mod tests;
