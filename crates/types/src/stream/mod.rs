//! Pull-based record streams and the operator-facing stream contract.
//!
//! The operators in this workspace are *pipelined*: they consume tuples one
//! at a time from their inputs and can emit results before either input is
//! exhausted (paper §2.1).  [`RecordStream`] is the pull contract those
//! operators consume.  It follows the classic `OPEN`/`NEXT`/`CLOSE`
//! iterator lifecycle of the relational literature:
//!
//! * [`RecordStream::open`] prepares the source (no-op for in-memory
//!   sources, connection setup for future network sources);
//! * [`RecordStream::next_record`] pulls one tuple;
//! * [`RecordStream::close`] releases resources; a closed stream yields no
//!   further records.
//!
//! The richer *operator* protocol — which adds state-machine enforcement
//! and fallible `next` — lives in `linkage-operators::iterator`; streams
//! stay infallible and lenient so that cheap in-memory sources do not pay
//! for book-keeping they do not need.
//!
//! Module layout:
//!
//! * [`mod@vec`] — [`VecStream`], the in-memory source used everywhere in
//!   tests and examples;
//! * [`interleave`] — [`InterleavedStream`] and [`InterleavePolicy`], which
//!   merge the two inputs of a symmetric join into one sided stream.

pub mod interleave;
pub mod vec;

pub use interleave::{InterleavePolicy, InterleavedStream};
pub use vec::VecStream;

use crate::record::Record;
use crate::schema::Schema;

/// A pull-based source of records with a known schema, following the
/// `OPEN`/`NEXT`/`CLOSE` lifecycle.
///
/// Lifecycle rules (deliberately lenient for in-memory sources):
///
/// * [`open`](Self::open) must be called before pulling; in-memory sources
///   accept pulls without it, but operators always call it.
/// * After [`close`](Self::close), [`next_record`](Self::next_record) must
///   return `None`.
pub trait RecordStream {
    /// The schema every produced record conforms to.
    fn schema(&self) -> &Schema;

    /// Prepare the source for pulling.  Default: no-op.
    fn open(&mut self) {}

    /// Produce the next record, or `None` when exhausted or closed.
    fn next_record(&mut self) -> Option<Record>;

    /// Release resources.  After closing, pulls return `None`.  Default:
    /// no-op (in-memory sources hold nothing worth releasing — they still
    /// honour the "no records after close" rule via their own state).
    fn close(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::Value;

    fn stream_of(keys: &[&str]) -> VecStream {
        let schema = Schema::of(vec![Field::string("k")]);
        let records = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Record::new(i as u64, vec![Value::string(*k)]))
            .collect();
        VecStream::new(schema, records)
    }

    #[test]
    fn lifecycle_open_pull_close() {
        let mut s = stream_of(&["a", "b"]);
        s.open();
        assert!(s.next_record().is_some());
        s.close();
        assert!(s.next_record().is_none(), "closed stream must yield None");
    }
}
