//! The streaming result API.
//!
//! [`MatchStream`] owns the pipeline's input and feeds the engine, a push
//! core, from it: a batch pipeline's interleaved sources one tuple per
//! step, whenever the engine has nothing ready; a session's records as
//! they arrive through [`MatchStream::feed`].  It forwards what the
//! engine pops — match pairs and the switch announcement arrive in-band,
//! in stream order — so the stream holds no event state of its own beyond
//! where its input stands.

use std::path::Path;

use linkage_core::{Pulled, SwitchEvent};
use linkage_operators::{InterleavedScan, Operator};
use linkage_types::snapshot::{SnapshotBuilder, SnapshotFile};
use linkage_types::{LinkageError, MatchPair, PerSide, Result, SidedRecord, VecStream};

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
///
/// A [session](crate::api::PipelineBuilder::session) pipeline's stream
/// has no sources: [`feed`](Self::feed) it records, pop what is ready
/// with [`next_ready`](Self::next_ready), and after
/// [`finish`](Self::finish) drain it through the iterator.
pub struct MatchStream {
    // (Debug is implemented manually: the engine box is opaque.)
    engine: Box<dyn JoinEngine + Send>,
    input: Input,
    done: bool,
}

/// Where the stream's input comes from, and how far it has got.
enum Input {
    /// A batch pipeline's declared sources, interleaved.
    Sources(InterleavedScan<VecStream, VecStream>),
    /// A session's input: records arrive through [`MatchStream::feed`].
    Fed,
    /// The input is complete; the engine has not been told yet.
    Ended,
    /// The engine was told, so everything it will produce is queued.
    Finished,
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
    /// A stream over a fresh engine, fed from `sources` — or, for a
    /// session, through [`Self::feed`].
    pub(crate) fn new(
        engine: Box<dyn JoinEngine + Send>,
        sources: Option<InterleavedScan<VecStream, VecStream>>,
    ) -> Result<Self> {
        let input = match sources {
            Some(mut scan) => {
                scan.open()?;
                Input::Sources(scan)
            }
            None => Input::Fed,
        };
        Ok(Self {
            engine,
            input,
            done: false,
        })
    }

    /// A stream that continues the event sequence exactly where `file`
    /// cut it: the engine restores the snapshot's state, and the stream
    /// reads and drops the snapshot's consumed prefix from its sources.
    /// A session's stream has no prefix to drop: its owner feeds what
    /// follows the snapshot.
    pub(crate) fn resume(
        mut engine: Box<dyn JoinEngine + Send>,
        sources: Option<InterleavedScan<VecStream, VecStream>>,
        file: &SnapshotFile,
    ) -> Result<Self> {
        if let Err(e) = engine.restore_state(file) {
            let _ = engine.close();
            return Err(e);
        }
        let mut stream = Self::new(engine, sources)?;
        if let Err(e) = stream.skip_consumed() {
            return Err(stream.fail(e));
        }
        Ok(stream)
    }

    /// Read and drop the tuples the restored engine had consumed,
    /// checking the per-side counts: a source that ends early or
    /// interleaves differently is a typed [`LinkageError::Snapshot`],
    /// never silent corruption.
    fn skip_consumed(&mut self) -> Result<()> {
        let Input::Sources(scan) = &mut self.input else {
            return Ok(());
        };
        let consumed = self.engine.report().consumed;
        let mut seen = PerSide::new(0u64, 0u64);
        while seen.left < consumed.left || seen.right < consumed.right {
            let Some(sided) = scan.next()? else {
                return Err(LinkageError::snapshot(format!(
                    "input ended while skipping the consumed prefix: snapshot consumed \
                     {}/{} tuples (left/right), input supplied only {}/{}",
                    consumed.left, consumed.right, seen.left, seen.right
                )));
            };
            seen[sided.side] += 1;
            if seen[sided.side] > consumed[sided.side] {
                return Err(LinkageError::snapshot(format!(
                    "input does not match the snapshot: saw more {:?}-side tuples in the \
                     prefix than the snapshotted run consumed ({} > {})",
                    sided.side, seen[sided.side], consumed[sided.side]
                )));
            }
        }
        Ok(())
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
    /// The snapshot ends at [`consumed`](Self::consumed); a session keeps
    /// its [`pending_input`](Self::pending_input) beside it.
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

    /// Feed a session pipeline's next records, in order.  The engine
    /// takes them into the join as far as it can without more input; the
    /// events they produce wait for [`next_ready`](Self::next_ready).
    /// However the input is chunked into calls, the event sequence is the
    /// same.
    ///
    /// Fails with [`LinkageError::OperatorState`] on a batch pipeline
    /// (its input is its declared sources) and after
    /// [`finish`](Self::finish); an engine error ends the stream.
    pub fn feed(&mut self, records: &[SidedRecord]) -> Result<()> {
        match self.input {
            Input::Fed => {}
            Input::Sources(_) => {
                return Err(LinkageError::operator_state(
                    "cannot feed a batch pipeline: its input is its declared sources",
                ))
            }
            Input::Ended | Input::Finished => {
                return Err(LinkageError::operator_state(
                    "cannot feed a finished session input",
                ))
            }
        }
        self.engine.feed(records).map_err(|e| self.fail(e))
    }

    /// Declare a session's input complete.  Idempotent and O(1): the
    /// engine processes what it still holds on the next pull through the
    /// iterator, which then drains to [`MatchEvent::Finished`].  No effect
    /// on a batch pipeline, whose input ends with its sources.
    pub fn finish(&mut self) {
        if let Input::Fed = self.input {
            self.input = Input::Ended;
        }
    }

    /// Records fed but not yet taken into the join — the sharded engine's
    /// partial epoch; always empty on the serial engine.  With
    /// [`consumed`](Self::consumed) and the snapshot, everything a
    /// session must persist about its input.
    pub fn pending_input(&self) -> &[SidedRecord] {
        self.engine.pending()
    }

    /// Input tuples the engine has taken into the join, which is where a
    /// snapshot of this stream ends.
    pub fn consumed(&self) -> u64 {
        self.engine.report().total_consumed()
    }

    /// The next event that is ready *without more input*, or `None` when
    /// producing one would require more — feed, or finish the session's
    /// input and drain through the ordinary [`Iterator::next`], which is
    /// the only path that can yield [`MatchEvent::Finished`].
    ///
    /// Unlike `Iterator::next`, a `None` here does **not** mean the
    /// stream ended, and the event sequence the two entry points jointly
    /// produce is identical to what `Iterator::next` alone would have
    /// produced: both pop from the same engine queue, in order.
    pub fn next_ready(&mut self) -> Option<Result<MatchEvent>> {
        if self.done {
            return None;
        }
        match self.engine.pop_ready() {
            Ok(pulled) => pulled.map(|p| Ok(p.into())),
            Err(e) => Some(Err(self.fail(e))),
        }
    }

    /// The next event, feeding the engine from the sources as needed.
    fn step(&mut self) -> Result<MatchEvent> {
        loop {
            if let Some(pulled) = self.engine.pop_ready()? {
                return Ok(pulled.into());
            }
            match &mut self.input {
                Input::Sources(scan) => match scan.next()? {
                    Some(sided) => self.engine.feed(std::slice::from_ref(&sided))?,
                    None => self.input = Input::Ended,
                },
                Input::Fed => {
                    return Err(LinkageError::execution(
                        "session input starved: the stream was drained before finish()",
                    ))
                }
                Input::Ended => {
                    self.engine.finish()?;
                    self.input = Input::Finished;
                }
                Input::Finished => {
                    self.done = true;
                    self.engine.close()?;
                    return Ok(MatchEvent::Finished(self.engine.report()));
                }
            }
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
        Some(self.step().map_err(|e| self.fail(e)))
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
