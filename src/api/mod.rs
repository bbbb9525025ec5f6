//! The unified pipeline facade: declare a linkage job, pick an engine,
//! stream the results.
//!
//! PR 1 and PR 2 grew three disjoint entry points — the serial
//! [`AdaptiveJoin`](crate::core::AdaptiveJoin), the sharded
//! [`ParallelJoin`](crate::exec::ParallelJoin), and per-crate configs
//! with duplicated defaults.  This module is the single, stable surface
//! in front of all of them:
//!
//! * [`Pipeline::builder`] — a fluent builder where you declare **sources**
//!   (in-memory relations, record iterators, or a datagen workload), key
//!   columns, a pluggable **similarity choice** ([`QGramCoefficient`]),
//!   thresholds, a **switch policy**, and an execution mode —
//!   [`serial`](PipelineBuilder::serial) or
//!   [`sharded`](PipelineBuilder::sharded);
//! * [`PipelineConfig`] — the ONE configuration type.  The per-layer
//!   configs (`SwitchJoinConfig`, `ControllerConfig`,
//!   `ParallelJoinConfig`) become thin internals constructed from it;
//! * one [`Controller`](crate::core::Controller) decides the switch for
//!   either engine, and the engine's own output queue announces it
//!   in-band — the engines are push cores behind a crate-private trait,
//!   so a future backend (async, multi-node) is one more impl inside this
//!   crate;
//! * [`MatchStream`] — `run()` returns an iterator of [`MatchEvent`]s:
//!   each [`MatchEvent::Match`], the mid-stream
//!   [`MatchEvent::Switched`] notification, and a final
//!   [`MatchEvent::Finished`] carrying the unified [`RunReport`].  The
//!   stream owns the input: it feeds the engine from the declared
//!   sources, or — for a [`PipelineBuilder::session`] — whatever the
//!   caller passes to [`MatchStream::feed`].
//!
//! # Serial quickstart
//!
//! ```
//! use linkage::api::Pipeline;
//! use linkage::datagen::{generate, DatagenConfig, GeneratedData};
//!
//! let data = generate(&DatagenConfig::mid_stream_dirty(300, 42))?;
//! let outcome = Pipeline::builder()
//!     .left(&data.parents)
//!     .right(&data.children)
//!     .key_column(GeneratedData::KEY_COLUMN)
//!     .serial()
//!     .collect()?;
//!
//! assert!(outcome.report.switch.is_some(), "dirty tail must trigger");
//! assert_eq!(outcome.matches.len() as u64, outcome.report.emitted.total());
//! # Ok::<(), linkage::types::LinkageError>(())
//! ```
//!
//! # Sharded execution and streaming events
//!
//! Switching engines is one builder call — the declaration does not
//! change, and the emitted match-pair set is identical:
//!
//! ```
//! use linkage::api::{MatchEvent, Pipeline};
//! use linkage::datagen::{generate, DatagenConfig, GeneratedData};
//!
//! let data = generate(&DatagenConfig::mid_stream_dirty(200, 7))?;
//! let mut matches = 0u64;
//! for event in Pipeline::builder()
//!     .left(&data.parents)
//!     .right(&data.children)
//!     .key_column(GeneratedData::KEY_COLUMN)
//!     .sharded(2)
//!     .run()?
//! {
//!     match event? {
//!         MatchEvent::Match(_) => matches += 1,
//!         MatchEvent::Switched(event) => assert!(event.after_tuples > 0),
//!         MatchEvent::Finished(report) => assert_eq!(report.emitted.total(), matches),
//!         _ => {}
//!     }
//! }
//! # Ok::<(), linkage::types::LinkageError>(())
//! ```
//!
//! # Checkpoint and resume
//!
//! A running stream can be checkpointed with
//! [`MatchStream::snapshot`] — a versioned, checksummed, atomically
//! written container specified byte-for-byte in `docs/format.md` — and
//! picked up later by a fresh pipeline with the **same declaration** via
//! [`Pipeline::resume`].  The resumed stream emits the bit-identical
//! remaining event sequence, including across the exact → approximate
//! switch:
//!
//! ```
//! use linkage::api::{MatchEvent, Pipeline, PipelineBuilder};
//! use linkage::datagen::{generate, DatagenConfig, GeneratedData};
//!
//! let data = generate(&DatagenConfig::mid_stream_dirty(120, 9))?;
//! let declare = || -> PipelineBuilder {
//!     Pipeline::builder()
//!         .left(&data.parents)
//!         .right(&data.children)
//!         .key_column(GeneratedData::KEY_COLUMN)
//!         .serial()
//! };
//!
//! // Consume a few events, checkpoint, and abandon the run.
//! let mut stream = declare().run()?;
//! let head: Vec<_> = stream.by_ref().take(5).collect::<Result<_, _>>()?;
//! let path = std::env::temp_dir().join("linkage-doctest.snap");
//! stream.snapshot(&path)?;
//! drop(stream); // simulated crash
//!
//! // A brand-new pipeline resumes exactly where the snapshot was cut.
//! let tail = declare().resume(&path)?;
//! let resumed_matches = tail
//!     .filter(|e| matches!(e, Ok(MatchEvent::Match(_))))
//!     .count();
//! let full = declare().collect()?;
//! let head_matches = head
//!     .iter()
//!     .filter(|e| matches!(e, MatchEvent::Match(_)))
//!     .count();
//! assert_eq!(head_matches + resumed_matches, full.matches.len());
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), linkage::types::LinkageError>(())
//! ```

mod builder;
mod config;
mod engine;
mod session;
mod source;
mod stream;

pub use builder::{Pipeline, PipelineBuilder};
pub use config::{ExecutionMode, PipelineConfig};
pub use engine::RunReport;
pub use source::Source;
pub use stream::{MatchEvent, MatchStream, RunOutcome};

// The vocabulary the builder takes and the events carry, re-exported so
// callers can stay on `linkage::api` alone.
pub use linkage_core::{SwitchEvent, SwitchPolicy};
pub use linkage_exec::ShardStats;
pub use linkage_operators::{JoinPhase, PerKind};
pub use linkage_text::{QGramCoefficient, QGramConfig};
pub use linkage_types::{
    InterleavePolicy, LinkageError, MatchKind, MatchPair, PerSide, Record, RecordId, Relation,
    Result, Schema,
};
