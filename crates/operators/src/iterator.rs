//! The pipelined operator iterator protocol.
//!
//! Every physical operator follows the classic `OPEN`/`NEXT`/`CLOSE`
//! lifecycle of the relational iterator model, made explicit as a state
//! machine so that illegal transitions (pulling before opening, reopening a
//! closed operator) surface as [`LinkageError::OperatorState`] errors
//! instead of silent misbehaviour.  Unlike [`linkage_types::RecordStream`]
//! — the lenient, infallible contract for leaf *sources* — operators carry
//! state worth protecting (hash tables, inverted indexes, adaptive
//! counters), so every protocol method is fallible.

use linkage_types::{LinkageError, Result};

/// Lifecycle state of an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OperatorState {
    /// Constructed but not yet opened.
    #[default]
    Created,
    /// Open: `next` may be called.
    Open,
    /// Closed: no further calls succeed except idempotent `close`.
    Closed,
}

impl OperatorState {
    /// Check that `open` is legal from this state.
    pub fn check_open(self, op: &str) -> Result<()> {
        match self {
            OperatorState::Created => Ok(()),
            OperatorState::Open => Err(LinkageError::operator_state(format!(
                "{op}: open() called on an already open operator"
            ))),
            OperatorState::Closed => Err(LinkageError::operator_state(format!(
                "{op}: open() called on a closed operator"
            ))),
        }
    }

    /// Check that `next` is legal from this state.
    pub fn check_next(self, op: &str) -> Result<()> {
        match self {
            OperatorState::Open => Ok(()),
            OperatorState::Created => Err(LinkageError::operator_state(format!(
                "{op}: next() called before open()"
            ))),
            OperatorState::Closed => Err(LinkageError::operator_state(format!(
                "{op}: next() called after close()"
            ))),
        }
    }
}

/// A pipelined physical operator producing items of type `Self::Item`.
///
/// Contract:
///
/// * [`open`](Self::open) transitions `Created → Open` and recursively opens
///   the operator's inputs; calling it twice is an error.
/// * [`next`](Self::next) may only be called while `Open`; it returns
///   `Ok(None)` exactly when the operator is exhausted (further calls keep
///   returning `Ok(None)`).
/// * [`close`](Self::close) transitions to `Closed` and releases input
///   resources; it is idempotent, but opening after closing is an error.
pub trait Operator {
    /// The item type this operator produces.
    type Item;

    /// A short, stable name for error messages and reports.
    fn name(&self) -> &'static str;

    /// Current lifecycle state.
    fn state(&self) -> OperatorState;

    /// Prepare the operator and its inputs for pulling.
    fn open(&mut self) -> Result<()>;

    /// Produce the next item, or `Ok(None)` when exhausted.
    fn next(&mut self) -> Result<Option<Self::Item>>;

    /// Release resources; idempotent.
    fn close(&mut self) -> Result<()>;

    /// How many items a previous incarnation of this operator already
    /// delivered.  Nonzero only for an input rebuilt at an absolute
    /// position — a rehydrated session input holds the records its
    /// engine had not consumed yet, not the ones it had — whose consumer
    /// must check a snapshot's consumed count against this offset
    /// instead of pulling and discarding that prefix again.
    fn resume_offset(&self) -> u64 {
        0
    }

    /// Pull up to `max` items in one call.  Returns fewer than `max` items
    /// only when the operator is exhausted.
    fn next_batch(&mut self, max: usize) -> Result<Vec<Self::Item>> {
        let mut out = Vec::with_capacity(max.min(1024));
        while out.len() < max {
            match self.next()? {
                Some(item) => out.push(item),
                None => break,
            }
        }
        Ok(out)
    }

    /// Convenience driver: open if necessary, drain every item, close.
    fn run_to_end(&mut self) -> Result<Vec<Self::Item>> {
        if self.state() == OperatorState::Created {
            self.open()?;
        }
        let mut out = Vec::new();
        while let Some(item) = self.next()? {
            out.push(item);
        }
        self.close()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counting operator used to exercise the default methods.
    struct Upto {
        n: u32,
        next: u32,
        state: OperatorState,
    }

    impl Operator for Upto {
        type Item = u32;

        fn name(&self) -> &'static str {
            "upto"
        }

        fn state(&self) -> OperatorState {
            self.state
        }

        fn open(&mut self) -> Result<()> {
            self.state.check_open(self.name())?;
            self.state = OperatorState::Open;
            Ok(())
        }

        fn next(&mut self) -> Result<Option<u32>> {
            self.state.check_next(self.name())?;
            if self.next < self.n {
                self.next += 1;
                Ok(Some(self.next - 1))
            } else {
                Ok(None)
            }
        }

        fn close(&mut self) -> Result<()> {
            self.state = OperatorState::Closed;
            Ok(())
        }
    }

    fn upto(n: u32) -> Upto {
        Upto {
            n,
            next: 0,
            state: OperatorState::Created,
        }
    }

    #[test]
    fn protocol_enforces_open_before_next() {
        let mut op = upto(3);
        assert!(matches!(
            op.next(),
            Err(LinkageError::OperatorState(ref m)) if m.contains("before open")
        ));
        op.open().unwrap();
        assert_eq!(op.next().unwrap(), Some(0));
        assert!(op.open().is_err(), "double open must fail");
        op.close().unwrap();
        assert!(op.next().is_err(), "next after close must fail");
        assert!(op.open().is_err(), "reopen after close must fail");
        assert!(op.close().is_ok(), "close is idempotent");
    }

    #[test]
    fn next_batch_is_bounded_and_drains() {
        let mut op = upto(5);
        op.open().unwrap();
        assert_eq!(op.next_batch(2).unwrap(), vec![0, 1]);
        assert_eq!(op.next_batch(10).unwrap(), vec![2, 3, 4]);
        assert!(op.next_batch(1).unwrap().is_empty());
    }

    #[test]
    fn run_to_end_opens_drains_and_closes() {
        let mut op = upto(4);
        assert_eq!(op.run_to_end().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(op.state(), OperatorState::Closed);
    }

    #[test]
    fn state_checks_name_the_operator() {
        let err = OperatorState::Closed.check_next("ssh-join").unwrap_err();
        assert!(err.to_string().contains("ssh-join"));
    }
}
