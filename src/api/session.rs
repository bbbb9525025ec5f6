//! Incremental input for long-lived (server-driven) pipelines.
//!
//! A normal pipeline's input is fixed at build time and the engines
//! treat `Ok(None)` from it as *permanent* exhaustion.  A served session
//! receives its records in `FEED` batches instead, so its input must be
//! growable: [`SessionInput`] is the feeding handle, and the private
//! [`SessionStream`] operator behind it yields whatever has been pushed,
//! reports end-of-input only after [`SessionInput::finish`], and treats
//! being pulled while empty-but-unfinished as a hard error.
//!
//! That error is unreachable by construction: the engines' bounded
//! `advance_to` entry points (driven through
//! [`MatchStream::advance`](crate::api::MatchStream::advance)) never
//! read past the fed prefix.  Encoding the discipline as a typed error
//! instead of a silent `None` is what protects the bit-identity
//! contract — an engine that *did* observe a premature end would fuse.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use linkage_operators::{Operator, OperatorState};
use linkage_types::{LinkageError, Record, Result, Side, SidedRecord};

/// Shared feed state between the handle and the stream operator.
#[derive(Debug, Default)]
struct FeedState {
    queue: VecDeque<SidedRecord>,
    /// Total records ever pushed (not just currently queued).
    pushed: u64,
    /// Records a previous incarnation of the session had already handed
    /// to its engine (see [`SessionInput::restore_position`]).
    offset: u64,
    finished: bool,
}

/// The feeding half of a session pipeline, returned by
/// [`PipelineBuilder::session`](crate::api::PipelineBuilder::session).
///
/// Clone-able and `Send`: the handle can live on a different thread
/// than the pipeline it feeds.  Push records with [`push`](Self::push),
/// declare the input complete with [`finish`](Self::finish), and use
/// [`pushed`](Self::pushed) as the `available` argument to
/// [`MatchStream::advance`](crate::api::MatchStream::advance).
#[derive(Debug, Clone)]
pub struct SessionInput {
    state: Arc<Mutex<FeedState>>,
}

impl SessionInput {
    pub(crate) fn new() -> Self {
        Self {
            state: Arc::new(Mutex::new(FeedState::default())),
        }
    }

    pub(crate) fn stream(&self) -> SessionStream {
        SessionStream {
            state: Arc::clone(&self.state),
            op_state: OperatorState::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FeedState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Append one record to the session's input.
    ///
    /// Fails with [`LinkageError::OperatorState`] after
    /// [`finish`](Self::finish): a finished input is immutable.
    pub fn push(&self, side: Side, record: Record) -> Result<()> {
        self.push_sided(SidedRecord::new(side, record))
    }

    /// Append one already-sided record to the session's input.
    pub fn push_sided(&self, record: SidedRecord) -> Result<()> {
        let mut state = self.lock();
        if state.finished {
            return Err(LinkageError::operator_state(
                "cannot push into a finished session input",
            ));
        }
        state.queue.push_back(record);
        state.pushed += 1;
        Ok(())
    }

    /// Declare the input complete.  Idempotent; after this the stream
    /// reports a normal end of input once the queue drains, letting the
    /// pipeline finish exactly like a fixed-input run.
    pub fn finish(&self) {
        self.lock().finished = true;
    }

    /// Whether [`finish`](Self::finish) was called.
    pub fn is_finished(&self) -> bool {
        self.lock().finished
    }

    /// Total records ever pushed — the engine-visible input length, and
    /// the `available` argument for
    /// [`MatchStream::advance`](crate::api::MatchStream::advance).
    pub fn pushed(&self) -> u64 {
        self.lock().pushed
    }

    /// Records pushed but not yet consumed by the engine.
    pub fn buffered(&self) -> usize {
        self.lock().queue.len()
    }

    /// The records pushed but not yet consumed by the engine, oldest
    /// first — with [`pushed`](Self::pushed), everything a session must
    /// persist about its input: the consumed prefix lives on in the
    /// engine's own snapshot.
    pub fn buffered_records(&self) -> Vec<SidedRecord> {
        self.lock().queue.iter().cloned().collect()
    }

    /// Position a pristine input where an evicted session's input
    /// stood: `consumed` records already handed to the engine (and not
    /// held here any more), then `pending` still queued.  Afterwards
    /// [`pushed`](Self::pushed) is `consumed + pending.len()`, and
    /// [`Pipeline::resume_from`](crate::api::Pipeline::resume_from)
    /// checks the snapshot's consumed count against `consumed` instead
    /// of pulling and discarding a replayed prefix.
    ///
    /// Fails with [`LinkageError::OperatorState`] on an input that was
    /// already pushed into or finished.
    pub fn restore_position(&self, consumed: u64, pending: Vec<SidedRecord>) -> Result<()> {
        let mut state = self.lock();
        if state.pushed != 0 || state.finished {
            return Err(LinkageError::operator_state(
                "cannot reposition a session input that is already in use",
            ));
        }
        state.offset = consumed;
        state.pushed = consumed + pending.len() as u64;
        state.queue = pending.into();
        Ok(())
    }
}

/// The operator end of a [`SessionInput`]: a sided-record stream that
/// grows as the handle pushes.
#[derive(Debug)]
pub(crate) struct SessionStream {
    state: Arc<Mutex<FeedState>>,
    op_state: OperatorState,
}

impl Operator for SessionStream {
    type Item = SidedRecord;

    fn name(&self) -> &'static str {
        "session-stream"
    }

    fn state(&self) -> OperatorState {
        self.op_state
    }

    fn open(&mut self) -> Result<()> {
        self.op_state.check_open(self.name())?;
        self.op_state = OperatorState::Open;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<SidedRecord>> {
        self.op_state.check_next(self.name())?;
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(record) = state.queue.pop_front() {
            return Ok(Some(record));
        }
        if state.finished {
            return Ok(None);
        }
        // Unreachable under the engines' bounded-advance discipline; a
        // silent `None` here would fuse the engine mid-session, so the
        // discipline is enforced as a typed error instead.
        Err(LinkageError::execution(
            "session input starved: the engine was advanced past the fed prefix",
        ))
    }

    fn close(&mut self) -> Result<()> {
        self.op_state = OperatorState::Closed;
        Ok(())
    }

    fn resume_offset(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkage_types::Value;

    fn rec(id: u64) -> Record {
        Record::new(id, vec![Value::string("k")])
    }

    #[test]
    fn pushes_flow_through_in_order_and_finish_ends_the_stream() {
        let input = SessionInput::new();
        let mut stream = input.stream();
        stream.open().unwrap();
        input.push(Side::Left, rec(1)).unwrap();
        input.push(Side::Right, rec(2)).unwrap();
        assert_eq!(input.pushed(), 2);
        assert_eq!(input.buffered(), 2);
        assert_eq!(stream.next().unwrap().unwrap().record.id, 1.into());
        assert_eq!(stream.next().unwrap().unwrap().record.id, 2.into());
        assert_eq!(input.buffered(), 0);
        input.finish();
        assert!(input.is_finished());
        assert!(stream.next().unwrap().is_none());
        assert!(matches!(
            input.push(Side::Left, rec(3)),
            Err(LinkageError::OperatorState(_))
        ));
    }

    #[test]
    fn a_restored_position_keeps_absolute_counts_and_only_the_pending_records() {
        let input = SessionInput::new();
        let mut stream = input.stream();
        stream.open().unwrap();
        assert_eq!(stream.resume_offset(), 0);
        let pending = vec![
            SidedRecord::new(Side::Left, rec(8)),
            SidedRecord::new(Side::Right, rec(9)),
        ];
        input.restore_position(7, pending).unwrap();
        assert_eq!(input.pushed(), 9);
        assert_eq!(input.buffered(), 2);
        assert_eq!(stream.resume_offset(), 7);
        let ids: Vec<_> = input
            .buffered_records()
            .iter()
            .map(|r| r.record.id)
            .collect();
        assert_eq!(ids, vec![8.into(), 9.into()]);
        assert_eq!(stream.next().unwrap().unwrap().record.id, 8.into());
        input.push(Side::Left, rec(10)).unwrap();
        assert_eq!(input.pushed(), 10);
        // Only a pristine input can be repositioned.
        assert!(matches!(
            input.restore_position(1, Vec::new()),
            Err(LinkageError::OperatorState(_))
        ));
    }

    #[test]
    fn starvation_is_a_typed_error_not_an_end() {
        let input = SessionInput::new();
        let mut stream = input.stream();
        stream.open().unwrap();
        assert!(matches!(stream.next(), Err(LinkageError::Execution(_))));
        // The stream is still usable: a later push flows through.
        input.push(Side::Left, rec(1)).unwrap();
        assert!(stream.next().unwrap().is_some());
    }
}
