//! The hash-table state of the exact join — the unit handed over to the
//! approximate join at switch time (paper §3.3).

use std::collections::HashMap;
use std::sync::Arc;

use linkage_types::Record;

/// One tuple resident in a join hash table.
#[derive(Debug, Clone)]
pub struct StoredTuple {
    /// The tuple itself.
    pub record: Record,
    /// The normalised join key the tuple was hashed under.
    pub key: Arc<str>,
    /// Whether this tuple has produced at least one **exact** match.
    ///
    /// The flag is the paper's per-tuple *matched-exactly* marker (§3.3): at
    /// switch time the approximate join re-probes the accumulated state, and
    /// a candidate pair whose keys are identical and whose tuples are both
    /// flagged was already emitted by the exact operator — re-emitting it
    /// would duplicate output.
    pub matched_exactly: bool,
}

/// One side's hash table: tuples in arrival order plus an index from the
/// normalised key to the positions holding it.
#[derive(Debug, Clone, Default)]
pub struct KeyTable {
    tuples: Vec<StoredTuple>,
    by_key: HashMap<Arc<str>, Vec<usize>>,
}

impl KeyTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Reserve room for `additional` more tuples (and as many distinct
    /// keys — an upper bound).
    pub fn reserve(&mut self, additional: usize) {
        self.tuples.reserve(additional);
        self.by_key.reserve(additional);
    }

    /// Insert a tuple under its normalised key, returning its position.
    pub fn insert(&mut self, record: Record, key: Arc<str>) -> usize {
        let idx = self.tuples.len();
        self.by_key.entry(Arc::clone(&key)).or_default().push(idx);
        self.tuples.push(StoredTuple {
            record,
            key,
            matched_exactly: false,
        });
        idx
    }

    /// Positions of the tuples stored under `key`.
    pub fn positions_of(&self, key: &str) -> &[usize] {
        self.by_key.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The tuple at `idx`.
    pub fn tuple(&self, idx: usize) -> &StoredTuple {
        &self.tuples[idx]
    }

    /// Mark the tuple at `idx` as having matched exactly.
    pub fn mark_matched(&mut self, idx: usize) {
        self.tuples[idx].matched_exactly = true;
    }

    /// All stored tuples, in arrival order.
    pub fn tuples(&self) -> &[StoredTuple] {
        &self.tuples
    }

    /// Consume the table, yielding its tuples in arrival order.  Used by the
    /// exact → approximate state handover.
    pub fn into_tuples(self) -> Vec<StoredTuple> {
        self.tuples
    }

    /// Number of distinct keys in the table.
    pub fn distinct_keys(&self) -> usize {
        self.by_key.len()
    }

    /// Estimated resident-state size in bytes.
    ///
    /// Counts the tuple entries, the shared key text (once — both the tuple
    /// and the index hold `Arc` clones of the same allocation) and the
    /// key-index positions.  An estimate, not an allocator measurement: it
    /// exists so experiments can compare state growth across operators and
    /// shard counts on a consistent scale (the paper's §2.3 space analysis).
    pub fn state_bytes(&self) -> usize {
        let tuples = self.tuples.len() * std::mem::size_of::<StoredTuple>();
        let keys: usize = self.tuples.iter().map(|t| t.key.len()).sum();
        let index = self.by_key.len() * std::mem::size_of::<(Arc<str>, Vec<usize>)>()
            + self
                .by_key
                .values()
                .map(|v| v.len() * std::mem::size_of::<usize>())
                .sum::<usize>();
        tuples + keys + index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkage_types::Value;

    fn rec(id: u64, key: &str) -> (Record, Arc<str>) {
        (Record::new(id, vec![Value::string(key)]), Arc::from(key))
    }

    #[test]
    fn insert_and_probe_by_key() {
        let mut t = KeyTable::new();
        assert!(t.is_empty());
        let (r0, k0) = rec(0, "ROMA");
        let (r1, k1) = rec(1, "MILANO");
        let (r2, k2) = rec(2, "ROMA");
        assert_eq!(t.insert(r0, k0), 0);
        assert_eq!(t.insert(r1, k1), 1);
        assert_eq!(t.insert(r2, k2), 2);
        assert_eq!(t.len(), 3);
        assert_eq!(t.positions_of("ROMA"), &[0, 2]);
        assert_eq!(t.positions_of("MILANO"), &[1]);
        assert!(t.positions_of("NAPOLI").is_empty());
        assert_eq!(t.distinct_keys(), 2);
    }

    #[test]
    fn state_bytes_grow_with_insertions() {
        let mut t = KeyTable::new();
        assert_eq!(t.state_bytes(), 0);
        let (r0, k0) = rec(0, "ROMA");
        t.insert(r0, k0);
        let after_one = t.state_bytes();
        assert!(after_one > 0);
        let (r1, k1) = rec(1, "MILANO");
        t.insert(r1, k1);
        assert!(t.state_bytes() > after_one);
    }

    #[test]
    fn matched_flags_start_false_and_stick() {
        let mut t = KeyTable::new();
        let (r, k) = rec(7, "GENOVA");
        let idx = t.insert(r, k);
        assert!(!t.tuple(idx).matched_exactly);
        t.mark_matched(idx);
        assert!(t.tuple(idx).matched_exactly);
        let tuples = t.into_tuples();
        assert_eq!(tuples.len(), 1);
        assert!(tuples[0].matched_exactly);
        assert_eq!(tuples[0].key.as_ref(), "GENOVA");
    }
}
