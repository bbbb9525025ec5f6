//! # linkage-operators
//!
//! The pipelined physical operators of the adaptive record-linkage
//! pipeline (paper §2):
//!
//! * [`Operator`] / [`OperatorState`] — the `OPEN`/`NEXT`/`CLOSE` iterator
//!   protocol every operator follows, with state-machine enforcement;
//! * [`InterleavedScan`] — the leaf operator merging both join inputs'
//!   [`linkage_types::RecordStream`]s into one validated sided stream
//!   under an [`linkage_types::InterleavePolicy`];
//! * [`ExactJoinCore`] — the exact symmetric hash join kernel (§2.1):
//!   probe the opposite hash table, emit, insert;
//! * [`SshJoinCore`] — the approximate similarity join kernel (§2.2): an
//!   incremental inverted q-gram index per side with threshold matching;
//! * [`SwitchJoinCore`] — the adaptive join (§3.3) as a push core: starts
//!   exact, and on demand hands its hash-table state over to the
//!   approximate kernel mid-stream, recovering missed matches without
//!   emitting duplicates (per-tuple matched-exactly flags);
//!   [`SwitchJoin`] is a pull adapter over it;
//! * [`oracle`] — quadratic nested-loop reference joins for tests and
//!   benchmarks, among them the arrival-order stream oracle every kernel
//!   path is compared with pair by pair.
//!
//! The control loop that decides *when* to switch lives in `linkage-core`;
//! this crate only provides the machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod exact;
pub mod iterator;
pub mod oracle;
pub mod scan;
pub mod snapshot;
pub mod ssh;
pub mod state;
pub mod switch;

pub use batch::PreparedBatch;
pub use exact::ExactJoinCore;
pub use iterator::{Operator, OperatorState};
pub use scan::InterleavedScan;
pub use ssh::{GramIndex, ProbeFunnel, SshJoinCore, SshStored};
pub use state::{KeyTable, StoredTuple};
pub use switch::{
    JoinPhase, PerKind, RestoredCore, SwitchJoin, SwitchJoinConfig, SwitchJoinCore, SwitchRestore,
};
