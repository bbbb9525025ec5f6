//! # linkage-types
//!
//! Foundational data model for the adaptive record-linkage workspace.
//!
//! The crate provides the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Value`] — a dynamically typed cell value (string, integer, float,
//!   boolean or null);
//! * [`Schema`], [`Field`], [`DataType`] — relational schemas describing the
//!   shape of a record;
//! * [`Record`] — a single tuple, carrying a stable [`RecordId`] and the
//!   per-tuple bookkeeping used by the adaptive join (the *matched-exactly*
//!   flag of the paper's §3.3);
//! * [`Relation`] — an in-memory table (schema + records) with convenience
//!   constructors used by the data generator and the tests;
//! * [`RecordStream`] and friends — the pull-based tuple sources consumed by
//!   the pipelined operators;
//! * [`MatchPair`] / [`MatchKind`] — join results annotated with how the
//!   match was obtained (exact vs approximate) and the similarity score;
//! * [`snapshot`] — the versioned, checksummed columnar container every
//!   layer stores its durable state in (byte layout: `docs/format.md`).
//!
//! The crate is deliberately free of any join or statistics logic so that the
//! operator and control crates can be tested against a minimal, stable
//! surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod defaults;
pub mod error;
pub mod fault;
pub mod matchpair;
pub mod partition;
pub mod record;
pub mod relation;
pub mod schema;
pub mod side;
pub mod snapshot;
pub mod stream;
pub mod value;
pub mod wire;

pub use error::{LinkageError, Result};
pub use matchpair::{MatchKind, MatchPair};
pub use partition::{stable_hash, Partitioner, ShardId};
pub use record::{Record, RecordId, SidedRecord};
pub use relation::Relation;
pub use schema::{DataType, Field, Schema};
pub use side::{PerSide, Side};
pub use stream::{InterleavePolicy, InterleavedStream, RecordStream, VecStream};
pub use value::Value;
