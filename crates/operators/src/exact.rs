//! The pipelined exact symmetric hash join (paper §2.1).
//!
//! Both inputs are scanned in an interleaved fashion; each arriving tuple
//! first **probes** the opposite side's hash table (emitting one exact
//! match pair per equal-key partner already seen) and is then **inserted**
//! into its own side's table.  Probing before inserting guarantees each
//! cross pair is discovered exactly once, so the operator never emits
//! duplicates.
//!
//! The join logic lives in [`ExactJoinCore`], free of operator plumbing:
//! [`crate::switch::SwitchJoin`] drives it and hands its accumulated
//! [`KeyTable`]s over to the approximate join mid-stream.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use linkage_text::{normalize_into, NormalizeConfig};
use linkage_types::{MatchPair, PerSide, Record, Result, Side, SidedRecord};

use crate::state::{checked_u32, KeyTable};

/// The probe-then-insert kernel of the exact symmetric hash join.  A
/// tuple costs one pass over its key bytes and one lookup in the key map
/// both sides share; only a new key allocates.
#[derive(Debug, Clone)]
pub struct ExactJoinCore {
    keys: PerSide<usize>,
    normalize: NormalizeConfig,
    /// Normalised key → key id.  Std's SipHash: keys come from clients.
    ids: HashMap<Arc<str>, u32>,
    /// The reused buffer [`Self::process`] normalises into.
    key_buf: String,
    tables: PerSide<KeyTable>,
    emitted: u64,
}

/// `sided`'s normalised join key, written into `buf`: the one key
/// derivation of the exact phase, for its core and its sharded router.
pub(crate) fn normalize_key<'b>(
    keys: &PerSide<usize>,
    normalize: &NormalizeConfig,
    sided: &SidedRecord,
    buf: &'b mut String,
) -> Result<&'b str> {
    normalize_into(sided.record.key_str(keys[sided.side])?, normalize, buf);
    Ok(buf)
}

impl ExactJoinCore {
    /// Build a core joining on the given key columns, normalising keys with
    /// `normalize` before hashing (the same configuration the approximate
    /// join uses before tokenising, so exact equality and similarity 1.0
    /// coincide).
    pub fn new(keys: PerSide<usize>, normalize: NormalizeConfig) -> Self {
        Self {
            keys,
            normalize,
            ids: HashMap::new(),
            key_buf: String::new(),
            tables: PerSide::default(),
            emitted: 0,
        }
    }

    /// Process one arriving tuple: probe the opposite table, emit matches
    /// into `out`, insert into the own table.  Returns the number of pairs
    /// emitted.
    pub fn process(&mut self, sided: SidedRecord, out: &mut VecDeque<MatchPair>) -> Result<usize> {
        let mut buf = std::mem::take(&mut self.key_buf);
        let joined = normalize_key(&self.keys, &self.normalize, &sided, &mut buf)
            .and_then(|key| self.join(sided, key, || Arc::from(key), out));
        self.key_buf = buf;
        joined
    }

    /// [`Self::process`] with the normalised key already computed; a key
    /// not seen before adopts `key`'s allocation.  The sharded execution
    /// layer normalises once at the router (it needs the key to pick a
    /// shard), so the work is not repeated per shard.
    ///
    /// The caller is responsible for `key` being exactly the key
    /// [`Self::process`] derives for `sided`
    /// ([`SwitchJoinConfig::normalized_key`](crate::SwitchJoinConfig::normalized_key))
    /// — an inconsistent key would silently corrupt the hash table.
    pub fn process_with_key(
        &mut self,
        sided: SidedRecord,
        key: Arc<str>,
        out: &mut VecDeque<MatchPair>,
    ) -> Result<usize> {
        self.join(sided, &key, || Arc::clone(&key), out)
    }

    /// The id of `key` and its shared text, minting both (the text from
    /// `adopt`) for a key not seen before.
    fn key_id(&mut self, key: &str, adopt: impl FnOnce() -> Arc<str>) -> Result<(u32, Arc<str>)> {
        if let Some((text, &id)) = self.ids.get_key_value(key) {
            return Ok((id, Arc::clone(text)));
        }
        let (id, text) = (checked_u32(self.ids.len(), "distinct keys")?, adopt());
        self.ids.insert(Arc::clone(&text), id);
        Ok((id, text))
    }

    /// Insert `sided` under `key`, then emit one pair per opposite tuple
    /// under the same key, oldest first.
    fn join(
        &mut self,
        sided: SidedRecord,
        key: &str,
        adopt: impl FnOnce() -> Arc<str>,
        out: &mut VecDeque<MatchPair>,
    ) -> Result<usize> {
        let (id, key) = self.key_id(key, adopt)?;
        let (own, opposite) = self.tables.own_and_opposite_mut(sided.side);
        let pos = own.insert(sided.record.clone(), key, id)?;
        let matched = opposite.match_all(id, |partner| {
            let (left, right) = orient(sided.side, sided.record.clone(), partner.clone());
            out.push_back(MatchPair::exact(left, right));
        });
        if matched > 0 {
            own.mark_matched(pos);
            self.emitted += matched as u64;
        }
        Ok(matched)
    }

    /// Number of match pairs emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Number of tuples stored per side.
    pub fn stored(&self) -> PerSide<usize> {
        self.tables.map(|table| table.tuples().len())
    }

    /// Read access to the accumulated per-side tables.
    pub fn tables(&self) -> &PerSide<KeyTable> {
        &self.tables
    }

    /// Estimated resident-state size in bytes, per side (the key map's
    /// text is counted by each table that holds the key).
    pub fn state_bytes(&self) -> PerSide<usize> {
        self.tables.map(KeyTable::state_bytes)
    }

    /// Consume the core, yielding its state for the exact → approximate
    /// handover (paper §3.3).
    pub fn into_tables(self) -> PerSide<KeyTable> {
        self.tables
    }

    /// Pre-size `side`'s table for `tuples` upcoming [`Self::insert_restored`]
    /// calls, and the key map for the first side only: reserving for the
    /// second, whose keys mostly repeat, would rehash every key already in.
    pub fn reserve_restored(&mut self, side: Side, tuples: usize) {
        self.tables[side].reserve(tuples);
        if self.ids.is_empty() {
            self.ids.reserve(tuples);
        }
    }

    /// Re-insert one tuple during snapshot restore.
    ///
    /// The snapshot stores only the arrival-order tuple column (record,
    /// normalised key, matched-exactly flag); replaying the inserts in
    /// that order re-derives the key map and the chains, so they never
    /// hit disk.  **Snapshot restore only** — tuples must be replayed in
    /// their original arrival order for the chains to line up.
    pub fn insert_restored(
        &mut self,
        side: Side,
        record: Record,
        key: &str,
        matched_exactly: bool,
    ) -> Result<()> {
        let (id, key) = self.key_id(key, || Arc::from(key))?;
        let pos = self.tables[side].insert(record, key, id)?;
        if matched_exactly {
            self.tables[side].mark_matched(pos);
        }
        Ok(())
    }

    /// Restore the emission counter from a snapshot (replayed inserts
    /// bypass probing, so the counter must be set explicitly).
    pub fn set_emitted(&mut self, emitted: u64) {
        self.emitted = emitted;
    }
}

/// Order a `(new tuple, stored partner)` pair as `(left, right)`.
pub(crate) fn orient(new_side: Side, new: Record, stored: Record) -> (Record, Record) {
    match new_side {
        Side::Left => (new, stored),
        Side::Right => (stored, new),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterator::Operator;
    use crate::scan::InterleavedScan;
    use linkage_types::{Field, MatchKind, RecordId, Schema, Value, VecStream};

    fn stream_of(keys: &[&str]) -> VecStream {
        let records = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Record::new(i as u64, vec![Value::string(*k)]))
            .collect();
        VecStream::new(Schema::of(vec![Field::string("k")]), records)
    }

    /// The two key lists as one alternating feed.
    fn feed(left: &[&str], right: &[&str]) -> Vec<SidedRecord> {
        InterleavedScan::alternating(stream_of(left), stream_of(right))
            .run_to_end()
            .unwrap()
    }

    /// Run `left` and `right` alternately through a fresh core.
    fn run(left: &[&str], right: &[&str]) -> (ExactJoinCore, Vec<MatchPair>) {
        let mut core = ExactJoinCore::new(PerSide::new(0, 0), NormalizeConfig::default());
        let mut out = VecDeque::new();
        for sided in feed(left, right) {
            core.process(sided, &mut out).unwrap();
        }
        (core, out.into())
    }

    fn id_pairs(pairs: &[MatchPair]) -> Vec<(u64, u64)> {
        let mut ids: Vec<(u64, u64)> = pairs
            .iter()
            .map(|p| (p.left.id.as_u64(), p.right.id.as_u64()))
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn equal_keys_join_and_disjoint_keys_do_not() {
        let pairs = run(&["a", "b", "c"], &["b", "c", "d"]).1;
        assert_eq!(id_pairs(&pairs), vec![(1, 0), (2, 1)]);
        assert!(pairs.iter().all(|p| p.kind == MatchKind::Exact));
    }

    #[test]
    fn duplicate_keys_produce_the_full_cross_product_once() {
        let pairs = run(&["x", "x"], &["x", "x", "x"]).1;
        assert_eq!(pairs.len(), 6);
        let mut seen = std::collections::HashSet::new();
        for p in &pairs {
            assert!(seen.insert(p.id_pair()), "duplicate pair {:?}", p.id_pair());
        }
    }

    #[test]
    fn partners_are_emitted_oldest_first() {
        let pairs = run(&["x", "x", "x"], &["y", "y", "x"]).1;
        let lefts: Vec<u64> = pairs.iter().map(|p| p.left.id.as_u64()).collect();
        assert_eq!(lefts, vec![0, 1, 2]);
    }

    #[test]
    fn tuples_under_one_key_share_one_allocation() {
        let (core, _) = run(&["Roma", "roma"], &["ROMA", "Milano"]);
        let tables = core.tables();
        let roma = &tables[Side::Left].tuples()[0].key;
        assert!(Arc::ptr_eq(roma, &tables[Side::Left].tuples()[1].key));
        assert!(Arc::ptr_eq(roma, &tables[Side::Right].tuples()[0].key));
        assert!(!Arc::ptr_eq(roma, &tables[Side::Right].tuples()[1].key));
    }

    #[test]
    fn results_are_pipelined_before_input_exhaustion() {
        let mut core = ExactJoinCore::new(PerSide::new(0, 0), NormalizeConfig::default());
        let mut out = VecDeque::new();
        let mut tuples = feed(&["a", "b"], &["a", "b"]).into_iter();
        assert_eq!(core.process(tuples.next().unwrap(), &mut out).unwrap(), 0);
        // The second tuple already produces the first match.
        assert_eq!(core.process(tuples.next().unwrap(), &mut out).unwrap(), 1);
        assert_eq!(out[0].id_pair(), (RecordId(0), RecordId(0)));
    }

    #[test]
    fn keys_are_normalized_before_hashing() {
        let pairs = run(&["Santa  Cristina"], &["SANTA CRISTINA"]).1;
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn matched_flags_are_set_on_both_partners() {
        let (core, pairs) = run(&["a", "q"], &["a", "z"]);
        assert_eq!(pairs.len(), 1);
        let tables = core.tables();
        let flagged = |side: Side| -> Vec<bool> {
            tables[side]
                .tuples()
                .iter()
                .map(|t| t.matched_exactly)
                .collect()
        };
        assert_eq!(flagged(Side::Left), vec![true, false]);
        assert_eq!(flagged(Side::Right), vec![true, false]);
    }

    #[test]
    fn stored_counts_follow_consumption() {
        let (core, _) = run(&["a", "b", "c"], &["z"]);
        assert_eq!(core.stored()[Side::Left], 3);
        assert_eq!(core.stored()[Side::Right], 1);
        assert_eq!(core.emitted(), 0);
    }

    #[test]
    fn non_string_key_column_errors() {
        let mut core = ExactJoinCore::new(PerSide::new(0, 0), NormalizeConfig::default());
        let record = Record::new(0u64, vec![Value::Int(5)]);
        let sided = SidedRecord::new(Side::Left, record);
        assert!(core.process(sided, &mut VecDeque::new()).is_err());
    }
}
