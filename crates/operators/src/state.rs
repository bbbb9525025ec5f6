//! The hash-table state of the exact join — the unit handed over to the
//! approximate join at switch time (paper §3.3).

use std::sync::Arc;

use linkage_types::{LinkageError, Record, Result};

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

/// One side's hash table, a key-id table: tuples in arrival order, and
/// per key id (dense, from the exact core's one key map) a chain through
/// the positions holding that key — first and last position per id,
/// next position per tuple, all `u32`.
#[derive(Debug, Clone, Default)]
pub struct KeyTable {
    tuples: Vec<StoredTuple>,
    ends: Vec<(u32, u32)>,
    next: Vec<u32>,
    /// Key text of the ids this table holds, once per id.
    key_bytes: usize,
}

/// The end of a chain, and the ends of an id this table holds nothing under.
const NONE: u32 = u32::MAX;

/// `n` as a position or key id, refused at `u32::MAX` (the sentinel) and
/// beyond instead of wrapping.
pub(crate) fn checked_u32(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n)
        .ok()
        .filter(|&n| n != NONE)
        .ok_or_else(|| LinkageError::operator_state(format!("exact join: too many {what}")))
}

impl KeyTable {
    /// Reserve room for `additional` more tuples (and as many key ids —
    /// an upper bound).
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.tuples.reserve(additional);
        self.next.reserve(additional);
        self.ends.reserve(additional);
    }

    /// Append a tuple under its normalised key and that key's id,
    /// returning its position.
    pub(crate) fn insert(&mut self, record: Record, key: Arc<str>, id: u32) -> Result<u32> {
        let pos = checked_u32(self.tuples.len(), "tuples on one side")?;
        if id as usize >= self.ends.len() {
            self.ends.resize(id as usize + 1, (NONE, NONE));
        }
        let ends = &mut self.ends[id as usize];
        if ends.1 == NONE {
            ends.0 = pos;
            self.key_bytes += key.len();
        } else {
            self.next[ends.1 as usize] = pos;
        }
        ends.1 = pos;
        self.next.push(NONE);
        self.tuples.push(StoredTuple {
            record,
            key,
            matched_exactly: false,
        });
        Ok(pos)
    }

    /// Mark every tuple stored under key id `id` as matched exactly and
    /// hand each record to `partner`, in arrival order.  Returns how
    /// many there were.
    pub(crate) fn match_all(&mut self, id: u32, mut partner: impl FnMut(&Record)) -> usize {
        let mut pos = self.ends.get(id as usize).map_or(NONE, |ends| ends.0);
        let mut matched = 0;
        while pos != NONE {
            let stored = &mut self.tuples[pos as usize];
            stored.matched_exactly = true;
            partner(&stored.record);
            matched += 1;
            pos = self.next[pos as usize];
        }
        matched
    }

    /// Mark the tuple at `pos` as having matched exactly.
    pub(crate) fn mark_matched(&mut self, pos: u32) {
        self.tuples[pos as usize].matched_exactly = true;
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

    /// Estimated resident-state size in bytes.
    ///
    /// Counts the tuple entries, the key text once per key id the table
    /// holds (its tuples share one allocation) and the chain columns.  An
    /// estimate, not an allocator measurement: it exists so experiments
    /// can compare state growth across operators and shard counts on a
    /// consistent scale (the paper's §2.3 space analysis).
    pub fn state_bytes(&self) -> usize {
        self.tuples.len() * std::mem::size_of::<StoredTuple>()
            + self.key_bytes
            + self.ends.len() * std::mem::size_of::<(u32, u32)>()
            + self.next.len() * std::mem::size_of::<u32>()
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
        let mut t = KeyTable::default();
        for (pos, (key, id)) in [("ROMA", 0), ("MILANO", 1), ("ROMA", 0), ("ROMA", 0)]
            .into_iter()
            .enumerate()
        {
            let (r, k) = rec(pos as u64, key);
            assert_eq!(t.insert(r, k, id).unwrap(), pos as u32);
        }
        assert_eq!(t.tuples().len(), 4);
        let chain = |t: &mut KeyTable, id| {
            let mut ids = Vec::new();
            t.match_all(id, |r| ids.push(r.id.as_u64()));
            ids
        };
        assert_eq!(chain(&mut t, 0), vec![0, 2, 3]);
        assert_eq!(chain(&mut t, 1), vec![1]);
        // An id the other side introduced: no tuple here, no chain.
        assert!(chain(&mut t, 7).is_empty());
        assert!(t.tuples().iter().all(|s| s.matched_exactly));
    }

    #[test]
    fn state_bytes_grow_with_insertions() {
        let mut t = KeyTable::default();
        assert_eq!(t.state_bytes(), 0);
        let (r0, k0) = rec(0, "ROMA");
        t.insert(r0, k0, 0).unwrap();
        let after_one = t.state_bytes();
        assert!(after_one > 0);
        let (r1, k1) = rec(1, "ROMA");
        t.insert(r1, k1, 0).unwrap();
        let per_tuple = std::mem::size_of::<StoredTuple>() + std::mem::size_of::<u32>();
        assert_eq!(t.state_bytes() - after_one, per_tuple);
        let (r2, k2) = rec(2, "MILANO");
        t.insert(r2, k2, 1).unwrap();
        assert!(t.state_bytes() > after_one + 2 * per_tuple);
    }

    #[test]
    fn matched_flags_start_false_and_stick() {
        let mut t = KeyTable::default();
        let (r, k) = rec(7, "GENOVA");
        let pos = t.insert(r, k, 0).unwrap();
        assert!(!t.tuples()[0].matched_exactly);
        t.mark_matched(pos);
        assert!(t.tuples()[0].matched_exactly);
        let tuples = t.into_tuples();
        assert_eq!(tuples.len(), 1);
        assert!(tuples[0].matched_exactly);
        assert_eq!(tuples[0].key.as_ref(), "GENOVA");
    }

    #[test]
    fn positions_and_ids_past_u32_are_refused_not_wrapped() {
        assert_eq!(checked_u32(5, "tuples").unwrap(), 5);
        assert!(checked_u32(u32::MAX as usize, "tuples").is_err());
        assert!(checked_u32(u32::MAX as usize + 1, "tuples").is_err());
    }
}
