//! # linkage-experiments
//!
//! The reproduction harness behind the paper's figures and tables.  It
//! wires the full stack together — `linkage-datagen` workloads, the
//! operators of `linkage-operators`, the adaptive controller of
//! `linkage-core` — and scores the output against the generated ground
//! truth.
//!
//! [`run`] executes one configured join over one generated dataset and
//! returns an [`ExperimentResult`] with counts, quality metrics (recall /
//! precision against truth) and timings.  The binaries under `src/bin/`
//! each sweep one axis:
//!
//! | binary | axis |
//! |---|---|
//! | `run_all` | the three join modes on the mid-stream-dirt workload |
//! | `calibration` | similarity threshold vs dirty-pair similarity |
//! | `param_sweep` | `θ_out` × check cadence grid |
//! | `fig5_patterns` | position of the dirty region in the stream |
//! | `fig6_gain_cost` | recall gain vs runtime cost of adaptivity |
//! | `fig7_state_breakdown` | resident state of exact vs approximate joins |
//! | `fig8_cost_breakdown` | where the adaptive join spends its time |
//! | `table1` | per-operation micro costs |
//!
//! [`json`] renders and reads back flat machine-readable reports.
//!
//! Performance claims are measured by the standalone benchmark in
//! `perfbench/`, not by these binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod json;

pub use harness::{header, run, ExperimentConfig, ExperimentResult, JoinMode};
pub use json::{extract_number, JsonValue};
