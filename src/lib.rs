//! # linkage
//!
//! Adaptive record linkage (conf_edbt_LenguMFGM09): a pipelined exact
//! symmetric hash join that is switched **mid-stream** to an approximate
//! q-gram similarity join when a binomial outlier test flags a
//! completeness problem — behind one declarative facade, [`api`], with
//! swappable execution engines.
//!
//! ## The pipeline builder
//!
//! Declare sources, a key column and an execution mode; every other knob
//! defaults to the paper's value ([`types::defaults`]):
//!
//! ```
//! use linkage::api::Pipeline;
//! use linkage::datagen::{generate, DatagenConfig, GeneratedData};
//!
//! // A workload whose child keys turn dirty halfway through the stream.
//! let data = generate(&DatagenConfig::mid_stream_dirty(300, 42))?;
//!
//! let outcome = Pipeline::builder()
//!     .left(&data.parents)
//!     .right(&data.children)
//!     .key_column(GeneratedData::KEY_COLUMN)
//!     .serial()
//!     .collect()?;
//!
//! // The controller detected the dirt and switched mid-stream.
//! let switch = outcome.report.switch.expect("switch must fire");
//! assert!(switch.after_tuples > 0);
//! assert!(outcome.report.emitted.approximate > 0);
//! # Ok::<(), linkage::types::LinkageError>(())
//! ```
//!
//! Moving the same declaration onto the sharded parallel engine is one
//! builder call, and the emitted match-pair set is identical:
//!
//! ```
//! use linkage::api::Pipeline;
//! use linkage::datagen::{generate, DatagenConfig, GeneratedData};
//! use std::collections::HashSet;
//!
//! let data = generate(&DatagenConfig::mid_stream_dirty(150, 7))?;
//! let declare = || {
//!     Pipeline::builder()
//!         .left(&data.parents)
//!         .right(&data.children)
//!         .key_column(GeneratedData::KEY_COLUMN)
//! };
//!
//! let serial = declare().serial().collect()?;
//! let sharded = declare().sharded(2).collect()?;
//!
//! let ids = |o: &linkage::api::RunOutcome| -> HashSet<_> {
//!     o.matches.iter().map(|p| p.id_pair()).collect()
//! };
//! assert_eq!(ids(&serial), ids(&sharded));
//! # Ok::<(), linkage::types::LinkageError>(())
//! ```
//!
//! See the [`api`] module docs for streaming consumption
//! (`run()` → [`api::MatchEvent`] iterator), the pluggable similarity
//! choice and switch policies.
//!
//! ## Layers
//!
//! The facade re-exports the workspace crates under stable module names
//! for callers who need to drop below the builder:
//!
//! * [`types`] — records, relations, streams, match pairs, shared
//!   [`types::defaults`];
//! * [`text`] — normalisation, q-grams, similarity functions;
//! * [`stats`] — the binomial outlier predicate σ(n) ≤ θ_out;
//! * [`operators`] — scans and the exact/approximate/switchable joins;
//! * [`core`] — the monitor → assessor → actuator control loop;
//! * [`exec`] — the sharded partition-parallel executor;
//! * [`datagen`] — deterministic dirty-dataset generation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;

pub use linkage_core as core;
pub use linkage_datagen as datagen;
pub use linkage_exec as exec;
pub use linkage_operators as operators;
pub use linkage_stats as stats;
pub use linkage_text as text;
pub use linkage_types as types;
