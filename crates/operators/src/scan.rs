//! The leaf operator: a scan over both join inputs' record streams.

use linkage_types::{
    InterleavePolicy, InterleavedStream, PerSide, RecordStream, Result, Schema, Side, SidedRecord,
};

use crate::iterator::{Operator, OperatorState};

/// The symmetric joins' input: two record streams merged into one stream
/// of [`SidedRecord`]s under an [`InterleavePolicy`].
///
/// Every record is validated against its side's schema at ingestion, so
/// the joins can index fields positionally without re-checking.
pub struct InterleavedScan<L, R> {
    inner: InterleavedStream<L, R>,
    state: OperatorState,
    consumed: PerSide<u64>,
}

impl<L: RecordStream, R: RecordStream> InterleavedScan<L, R> {
    /// Build from two streams and a policy.
    pub fn new(left: L, right: R, policy: InterleavePolicy) -> Self {
        Self {
            inner: InterleavedStream::new(left, right, policy),
            state: OperatorState::default(),
            consumed: PerSide::default(),
        }
    }

    /// Build with the paper's default strictly alternating policy.
    pub fn alternating(left: L, right: R) -> Self {
        Self::new(left, right, InterleavePolicy::Alternate)
    }

    /// Schemas of the two inputs.
    pub fn schemas(&self) -> (&Schema, &Schema) {
        self.inner.schemas()
    }

    /// Number of records produced so far from each side.
    pub fn consumed(&self) -> PerSide<u64> {
        self.consumed
    }
}

impl<L: RecordStream, R: RecordStream> Operator for InterleavedScan<L, R> {
    type Item = SidedRecord;

    fn name(&self) -> &'static str {
        "interleaved-scan"
    }

    fn state(&self) -> OperatorState {
        self.state
    }

    fn open(&mut self) -> Result<()> {
        self.state.check_open(self.name())?;
        self.inner.open();
        self.state = OperatorState::Open;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<SidedRecord>> {
        self.state.check_next(self.name())?;
        match self.inner.next_sided() {
            Some(sided) => {
                let schema = match sided.side {
                    Side::Left => self.inner.schemas().0,
                    Side::Right => self.inner.schemas().1,
                };
                schema.validate(&sided.record.values)?;
                self.consumed[sided.side] += 1;
                Ok(Some(sided))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self) -> Result<()> {
        if self.state != OperatorState::Closed {
            self.inner.close();
            self.state = OperatorState::Closed;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkage_types::{Field, Record, Value, VecStream};

    fn stream_of(keys: &[&str]) -> VecStream {
        let records = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Record::new(i as u64, vec![Value::string(*k)]))
            .collect();
        VecStream::new(Schema::of(vec![Field::string("k")]), records)
    }

    #[test]
    fn scan_produces_all_records_and_counts() {
        let mut scan = InterleavedScan::alternating(stream_of(&["a", "b", "c"]), stream_of(&[]));
        let out = scan.run_to_end().unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(scan.consumed(), PerSide::new(3, 0));
        assert_eq!(scan.schemas().0.len(), 1);
    }

    #[test]
    fn scan_validates_records_at_ingestion() {
        // A record with the wrong arity sneaks into the right stream.
        let schema = Schema::of(vec![Field::string("k")]);
        let records = vec![
            Record::new(0u64, vec![Value::string("ok")]),
            Record::new(1u64, vec![Value::string("bad"), Value::Int(1)]),
        ];
        let mut scan =
            InterleavedScan::alternating(stream_of(&["a"]), VecStream::new(schema, records));
        scan.open().unwrap();
        assert!(scan.next().unwrap().is_some());
        assert!(scan.next().unwrap().is_some());
        assert!(scan.next().is_err(), "invalid record must be rejected");
    }

    #[test]
    fn scan_requires_open() {
        let mut scan = InterleavedScan::alternating(stream_of(&["a"]), stream_of(&["b"]));
        assert!(scan.next().is_err());
        scan.open().unwrap();
        assert!(scan.next().unwrap().is_some());
        scan.close().unwrap();
        assert!(scan.next().is_err());
    }

    #[test]
    fn interleaved_scan_alternates_and_counts_per_side() {
        let mut scan = InterleavedScan::alternating(stream_of(&["l1", "l2"]), stream_of(&["r1"]));
        let out = scan.run_to_end().unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].side, Side::Left);
        assert_eq!(out[1].side, Side::Right);
        assert_eq!(scan.consumed()[Side::Left], 2);
        assert_eq!(scan.consumed()[Side::Right], 1);
    }
}
