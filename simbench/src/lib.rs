//! End-to-end and per-layer benchmark of the burst scheduling simulator.
//!
//! See `NOTES.md` in this directory for why each workload exists and which
//! layer metric should move which end-to-end metric on which workload.

pub mod digest;
pub mod host;
pub mod metrics;
pub mod runs;
