//! The streaming result API.
//!
//! [`MatchStream`] forwards what the engine's pull returns: match pairs
//! and the switch announcement arrive in-band, in stream order, so the
//! stream holds no event state of its own beyond "finished".

use std::path::Path;

use linkage_core::{Pulled, SwitchEvent};
use linkage_types::snapshot::SnapshotBuilder;
use linkage_types::{LinkageError, MatchPair, Result};

use crate::api::engine::{JoinEngine, RunReport};

/// One event in a pipeline's output stream.
///
/// `#[non_exhaustive]`: future engines may add events (checkpoints,
/// progress heartbeats); consumers must carry a wildcard arm.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum MatchEvent {
    /// One emitted match pair.
    Match(MatchPair),
    /// The exact → approximate switch happened; recovered matches follow
    /// in the stream as ordinary [`MatchEvent::Match`] events.
    Switched(SwitchEvent),
    /// The run completed; always the last event of a successful stream.
    Finished(RunReport),
}

/// The event iterator returned by
/// [`Pipeline::run`](crate::api::Pipeline::run).
///
/// Yields `Result<MatchEvent>`: every match pair as it is produced, a
/// [`MatchEvent::Switched`] notification when the engine performs the
/// mid-stream handover, and one final [`MatchEvent::Finished`] carrying
/// the [`RunReport`].  After an `Err` or the `Finished` event the
/// iterator is fused (returns `None`).  The engine is closed before the
/// final event is yielded, so shard statistics are complete.
pub struct MatchStream {
    // (Debug is implemented manually: the engine box is opaque.)
    engine: Box<dyn JoinEngine + Send>,
    done: bool,
}

impl std::fmt::Debug for MatchStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchStream")
            .field("engine", &self.engine.engine_name())
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl From<Pulled> for MatchEvent {
    fn from(pulled: Pulled) -> Self {
        match pulled {
            Pulled::Match(pair) => MatchEvent::Match(pair),
            Pulled::Switched(event) => MatchEvent::Switched(event),
        }
    }
}

impl MatchStream {
    /// A stream over an open engine — fresh, or restored from a snapshot,
    /// in which case it continues the event sequence exactly where the
    /// snapshot cut it.
    pub(crate) fn new(engine: Box<dyn JoinEngine + Send>) -> Self {
        Self {
            engine,
            done: false,
        }
    }

    /// Write a consistent snapshot of the whole pipeline — engine state
    /// plus this stream's own position — to `path`, in the versioned
    /// container specified by `docs/format.md`.
    ///
    /// The write is atomic (temp file + rename): a crash mid-snapshot
    /// leaves either the previous file or none, never a torn one.  The
    /// stream is untouched and continues normally afterwards; resuming
    /// from the file with [`Pipeline::resume`](crate::api::Pipeline::resume)
    /// yields the exact remaining event sequence, bit for bit.
    ///
    /// Fails with [`LinkageError::Snapshot`] on a finished stream.
    pub fn snapshot(&mut self, path: impl AsRef<Path>) -> Result<()> {
        self.snapshot_builder()?.write_to(path.as_ref())
    }

    /// Capture the same consistent pipeline state as [`snapshot`](Self::snapshot)
    /// but hand back the unserialised [`SnapshotBuilder`], so callers that
    /// need custom durability (extra sections, manifest-committed writes —
    /// the server's eviction path) can append to and persist it themselves.
    pub fn snapshot_builder(&mut self) -> Result<SnapshotBuilder> {
        if self.done {
            return Err(LinkageError::snapshot("cannot snapshot a finished stream"));
        }
        let mut builder = SnapshotBuilder::new();
        self.engine.snapshot_state(&mut builder)?;
        Ok(builder)
    }

    /// Drain the stream into a materialised [`RunOutcome`], failing on
    /// the first error.
    pub fn into_outcome(self) -> Result<RunOutcome> {
        let mut matches = Vec::new();
        let mut report = None;
        for event in self {
            match event? {
                MatchEvent::Match(pair) => matches.push(pair),
                MatchEvent::Finished(r) => report = Some(r),
                _ => {}
            }
        }
        // The iterator yields `Finished` on every successful drain; this
        // is unreachable unless a future engine breaks that contract.
        let report = report.expect("stream ended without a Finished event");
        Ok(RunOutcome { matches, report })
    }

    /// Advance an incrementally fed
    /// ([session](crate::api::PipelineBuilder::session)) pipeline as far
    /// as is safe given that `available` total input tuples exist so far
    /// — typically
    /// [`SessionInput::pushed`](crate::api::SessionInput::pushed) after
    /// a feed.  Produced events stay buffered for
    /// [`next_ready`](Self::next_ready).  A no-op on a finished stream.
    pub fn advance(&mut self, available: u64) -> Result<()> {
        if self.done {
            return Ok(());
        }
        self.engine.advance_input(available)
    }

    /// The next event that is ready *without touching the input*, or
    /// `None` when producing one would require more input — feed and
    /// [`advance`](Self::advance), or finish the session's input and
    /// drain through the ordinary [`Iterator::next`], which is the only
    /// path that can yield [`MatchEvent::Finished`].
    ///
    /// Unlike `Iterator::next`, a `None` here does **not** mean the
    /// stream ended, and the event sequence the two entry points jointly
    /// produce is identical to what `Iterator::next` alone would have
    /// produced: both pop from the same engine buffer, in order.
    pub fn next_ready(&mut self) -> Option<Result<MatchEvent>> {
        if self.done {
            return None;
        }
        match self.engine.pop_ready() {
            Ok(pulled) => pulled.map(|p| Ok(p.into())),
            Err(e) => Some(Err(self.fail(e))),
        }
    }

    /// End the stream on an engine error.
    fn fail(&mut self, e: LinkageError) -> LinkageError {
        self.done = true;
        let _ = self.engine.close();
        e
    }
}

impl Iterator for MatchStream {
    type Item = Result<MatchEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.engine.next_event() {
            Ok(Some(pulled)) => Some(Ok(pulled.into())),
            Ok(None) => {
                self.done = true;
                match self.engine.close() {
                    Ok(()) => Some(Ok(MatchEvent::Finished(self.engine.report()))),
                    Err(e) => Some(Err(e)),
                }
            }
            Err(e) => Some(Err(self.fail(e))),
        }
    }
}

/// A fully drained run: every match pair plus the final report.
///
/// `#[non_exhaustive]`: future fields (e.g. per-event timings) may be
/// added.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RunOutcome {
    /// Every emitted match pair, in stream order.
    pub matches: Vec<MatchPair>,
    /// The final unified report.
    pub report: RunReport,
}
