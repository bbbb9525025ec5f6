//! The in-memory [`VecStream`] source.

use crate::record::Record;
use crate::relation::Relation;
use crate::schema::Schema;

use super::RecordStream;

/// An in-memory [`RecordStream`] over a vector of records.
#[derive(Debug, Clone)]
pub struct VecStream {
    schema: Schema,
    records: Vec<Record>,
    cursor: usize,
    closed: bool,
}

impl VecStream {
    /// Build a stream over explicit records.
    pub fn new(schema: Schema, records: Vec<Record>) -> Self {
        Self {
            schema,
            records,
            cursor: 0,
            closed: false,
        }
    }

    /// Build a stream over a relation's records.
    pub fn from_relation(relation: &Relation) -> Self {
        Self::new(relation.schema().clone(), relation.records().to_vec())
    }

    /// How many records have been consumed so far.
    pub fn consumed(&self) -> usize {
        self.cursor
    }

    /// Total number of records in the underlying vector.
    pub fn total(&self) -> usize {
        self.records.len()
    }
}

impl RecordStream for VecStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) {
        self.closed = false;
    }

    fn next_record(&mut self) -> Option<Record> {
        if self.closed {
            return None;
        }
        let rec = self.records.get(self.cursor).cloned();
        if rec.is_some() {
            self.cursor += 1;
        }
        rec
    }

    fn close(&mut self) {
        self.closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::Value;

    fn stream_of(keys: &[&str]) -> VecStream {
        let records = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Record::new(i as u64, vec![Value::string(*k)]))
            .collect();
        VecStream::new(Schema::of(vec![Field::string("k")]), records)
    }

    #[test]
    fn vec_stream_yields_in_order() {
        let mut s = stream_of(&["a", "b", "c"]);
        assert_eq!(s.next_record().unwrap().key_str(0).unwrap(), "a");
        assert_eq!(s.consumed(), 1);
        assert_eq!(s.next_record().unwrap().key_str(0).unwrap(), "b");
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn vec_stream_exhausts() {
        let mut s = stream_of(&["a"]);
        assert!(s.next_record().is_some());
        assert!(s.next_record().is_none());
        assert!(s.next_record().is_none());
    }

    #[test]
    fn closed_stream_reports_empty_until_reopened() {
        let mut s = stream_of(&["a", "b"]);
        s.close();
        assert!(s.next_record().is_none());
        s.open();
        assert_eq!(s.next_record().unwrap().key_str(0).unwrap(), "a");
    }

    #[test]
    fn from_relation_copies_schema_and_rows() {
        let mut rel = Relation::empty("r", Schema::of(vec![Field::string("k")]));
        rel.push_values(vec![Value::string("x")]).unwrap();
        let mut s = VecStream::from_relation(&rel);
        assert_eq!(s.schema(), rel.schema());
        assert_eq!(s.next_record().unwrap().key_str(0).unwrap(), "x");
        assert!(s.next_record().is_none());
    }
}
