//! The coordinator ⇄ shard wire protocol.
//!
//! Commands flow down a bounded channel per shard, replies flow back up
//! one.  The protocol is request/reply in epoch order: the coordinator
//! sends one command to every shard, then collects exactly one reply from
//! every shard in shard order — which is what makes the merged output
//! deterministic for a given shard count.  Tuples always travel in
//! **batches** (one message per epoch per shard, never per tuple), and in
//! the approximate phase the whole prepared batch is a single
//! `Arc`-shared structure-of-arrays, so broadcasting to N shards costs N
//! channel sends and zero per-tuple clones.

use std::sync::Arc;

use linkage_operators::{PerKind, ProbeFunnel, SshStored};
use linkage_types::snapshot::{Decoder, Encoder, SnapshotFile};
use linkage_types::{MatchPair, PerSide, Result, ShardId, Side, SidedRecord};

// The structure-of-arrays batch now lives beside the batched probe
// kernel that consumes it; it is still part of this wire protocol.
pub use linkage_operators::PreparedBatch;

/// A command from the coordinator to one shard.
#[derive(Debug)]
pub enum ShardCmd {
    /// Exact phase: process these hash-routed tuples (key pre-normalised).
    ExactBatch(Vec<(SidedRecord, Arc<str>)>),
    /// Approximate phase: probe every tuple, store the ones homed here.
    /// The batch is shared — one allocation broadcast to every shard.
    ApproxBatch(Arc<PreparedBatch>),
    /// Perform the local exact → approximate handover (paper §3.3) and
    /// reply with the recovered pairs plus a snapshot of the residents.
    Switch,
    /// Probe these foreign residents (snapshots of lower-numbered shards)
    /// against the local post-handover indexes.
    Recover(Vec<Arc<Vec<(Side, SshStored)>>>),
    /// Encode the shard's durable state (valid at any epoch barrier, in
    /// either phase) and reply with [`ShardReply::Snapshot`].
    Snapshot,
    /// Install previously snapshotted state into a pristine shard: the
    /// worker decodes its own `SHARD` section of the (shared, verified)
    /// container — the kernel through the operator-layer codecs, which
    /// rebuild its index structures — and adopts the counters, then
    /// replies [`ShardReply::Restored`].
    Restore(SnapshotFile),
    /// Report final statistics and exit.
    Finish,
}

/// A reply from one shard to the coordinator.
#[derive(Debug)]
pub enum ShardReply {
    /// Pairs emitted by a batch command (either phase), in processing
    /// order; an `Err` poisons the join.
    Pairs(Result<Vec<MatchPair>>),
    /// The local handover completed.
    Switched {
        /// Matches recovered from this shard's own resident state.
        recovered: Vec<MatchPair>,
        /// Snapshot of the shard's residents, for cross-shard recovery.
        residents: Vec<(Side, SshStored)>,
    },
    /// Cross-shard recovery completed with these additional pairs.
    Recovered(Vec<MatchPair>),
    /// The shard's durable state, in response to [`ShardCmd::Snapshot`].
    Snapshot(Box<ShardSnapshot>),
    /// Restore completed (or failed), in response to
    /// [`ShardCmd::Restore`].
    Restored(Result<()>),
    /// Final per-shard statistics, sent in response to [`ShardCmd::Finish`].
    Finished(Box<ShardStats>),
}

/// One shard's durable state, as a worker reports it for a snapshot:
/// the coordinator persists it as a `SHARD` section, and on resume
/// every worker reads its own section back straight from the shared
/// snapshot buffer.
///
/// The kernel itself travels **encoded** (`core_bytes`, the operator
/// layer's `EXACT_CORE`/`SSH_CORE` payload of `docs/format.md`) rather
/// than as a live structure: on resume every worker decodes its own
/// partition in parallel, and the bytes are exactly what the snapshot
/// file stores, so there is one codec path to trust, not two.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Whether the shard had performed the §3.3 handover (`core_bytes`
    /// is an `SSH_CORE` payload) or was still exact (`EXACT_CORE`).
    pub approx: bool,
    /// The encoded phase kernel.
    pub core_bytes: Vec<u8>,
    /// Tuples this shard stored over its lifetime.
    pub stored_tuples: u64,
    /// Probe operations this shard performed.
    pub probes: u64,
    /// Pairs this shard emitted, by kind.
    pub emitted: PerKind,
}

impl ShardSnapshot {
    /// The `SHARD` section payload of `docs/format.md`.
    pub(crate) fn encode_section(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_bool(self.approx);
        e.put_u64(self.stored_tuples);
        e.put_u64(self.probes);
        e.put_u64(self.emitted.exact);
        e.put_u64(self.emitted.approximate);
        e.put_bytes(&self.core_bytes);
        e.finish()
    }
}

/// A decoded `SHARD` section: [`ShardSnapshot`]'s fields, with the
/// encoded kernel borrowed from the snapshot buffer instead of copied.
pub(crate) struct ShardSection<'a> {
    pub approx: bool,
    pub core_bytes: &'a [u8],
    pub stored_tuples: u64,
    pub probes: u64,
    pub emitted: PerKind,
}

impl<'a> ShardSection<'a> {
    pub(crate) fn decode(payload: &'a [u8]) -> Result<Self> {
        let mut d = Decoder::new(payload, "SHARD");
        let section = Self {
            approx: d.get_bool()?,
            stored_tuples: d.get_u64()?,
            probes: d.get_u64()?,
            emitted: PerKind {
                exact: d.get_u64()?,
                approximate: d.get_u64()?,
            },
            core_bytes: d.get_bytes()?,
        };
        d.finish()?;
        Ok(section)
    }
}

/// What one shard did over its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Which shard.
    pub shard: ShardId,
    /// Tuples this shard stored (exact-phase routed plus approximate-phase
    /// homed).  Summed over shards this equals the join's consumed count.
    pub stored_tuples: u64,
    /// Probe operations performed, including approximate-phase broadcast
    /// probes of tuples homed elsewhere.
    pub probes: u64,
    /// Pairs this shard emitted, by kind (recovery included).
    pub emitted: PerKind,
    /// Tuples resident per side at the end of the run.
    pub resident: PerSide<usize>,
    /// Estimated resident-state bytes per side at the end of the run
    /// (flat postings + tuples + keys; gram text excluded — see
    /// `interner_bytes`).
    pub state_bytes: PerSide<usize>,
    /// Estimated bytes of the **shared** gram-interner table.  Every
    /// shard reports the same value because every worker holds a handle
    /// to the same table: account for it once per join, never summed
    /// over shards.
    pub interner_bytes: usize,
    /// Estimated non-payload overhead bytes: flat-posting slack on both
    /// sides (headers of never-populated gram-id slots plus unused
    /// posting capacity) plus the probe-scratch allocations (epoch
    /// stamps, candidate arena, batch ranges, bounds memo) — reported
    /// separately so `state_bytes` stays the payload estimate.
    pub postings_slack_bytes: usize,
    /// Cumulative candidate-funnel counters of this shard's probe kernel
    /// (zero while the shard is still exact).  Sum over shards for the
    /// join-wide funnel.
    pub funnel: ProbeFunnel,
}
