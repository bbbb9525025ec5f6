//! The pipelined exact symmetric hash join (paper §2.1).
//!
//! Both inputs are scanned in an interleaved fashion; each arriving tuple
//! first **probes** the opposite side's hash table (emitting one exact
//! match pair per equal-key partner already seen) and is then **inserted**
//! into its own side's table.  Probing before inserting guarantees each
//! cross pair is discovered exactly once, so the operator never emits
//! duplicates.
//!
//! The join logic lives in [`ExactJoinCore`], separated from the operator
//! plumbing so that [`crate::switch::SwitchJoin`] can drive the same core
//! and hand its accumulated [`KeyTable`]s over to the approximate join
//! mid-stream.

use std::collections::VecDeque;
use std::sync::Arc;

use linkage_text::{normalize, NormalizeConfig};
use linkage_types::{MatchPair, PerSide, Record, Result, Side, SidedRecord};

use crate::iterator::{Operator, OperatorState};
use crate::state::KeyTable;

/// The probe-then-insert kernel of the exact symmetric hash join.
#[derive(Debug, Clone)]
pub struct ExactJoinCore {
    keys: PerSide<usize>,
    normalize: NormalizeConfig,
    tables: PerSide<KeyTable>,
    emitted: u64,
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
            tables: PerSide::default(),
            emitted: 0,
        }
    }

    /// Process one arriving tuple: probe the opposite table, emit matches
    /// into `out`, insert into the own table.  Returns the number of pairs
    /// emitted.
    pub fn process(&mut self, sided: SidedRecord, out: &mut VecDeque<MatchPair>) -> Result<usize> {
        let key = self.normalized_key(&sided)?;
        self.process_with_key(sided, key, out)
    }

    /// The normalised join key of `sided`, as [`Self::process`] would
    /// compute it.  The sharded execution layer normalises once at the
    /// router (it needs the key to pick a shard) and then hands the key to
    /// [`Self::process_with_key`], so the work is not repeated per shard.
    pub fn normalized_key(&self, sided: &SidedRecord) -> Result<Arc<str>> {
        let raw = sided.record.key_str(self.keys[sided.side])?;
        Ok(Arc::from(normalize(raw, &self.normalize).as_str()))
    }

    /// [`Self::process`] with the normalised key already computed.
    ///
    /// The caller is responsible for `key` being exactly
    /// [`Self::normalized_key`] of `sided` — an inconsistent key would
    /// silently corrupt the hash table.
    pub fn process_with_key(
        &mut self,
        sided: SidedRecord,
        key: Arc<str>,
        out: &mut VecDeque<MatchPair>,
    ) -> Result<usize> {
        let (own, opposite) = self.tables.own_and_opposite_mut(sided.side);
        let partners = opposite.positions_of(&key).to_vec();
        let my_idx = own.insert(sided.record.clone(), key);

        for idx in &partners {
            opposite.mark_matched(*idx);
            let partner = opposite.tuple(*idx).record.clone();
            let (left, right) = orient(sided.side, sided.record.clone(), partner);
            out.push_back(MatchPair::exact(left, right));
        }
        if !partners.is_empty() {
            own.mark_matched(my_idx);
            self.emitted += partners.len() as u64;
        }
        Ok(partners.len())
    }

    /// Number of match pairs emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Number of tuples stored per side.
    pub fn stored(&self) -> PerSide<usize> {
        self.tables.map(KeyTable::len)
    }

    /// Read access to the accumulated per-side tables.
    pub fn tables(&self) -> &PerSide<KeyTable> {
        &self.tables
    }

    /// Estimated resident-state size in bytes, per side.
    pub fn state_bytes(&self) -> PerSide<usize> {
        self.tables.map(KeyTable::state_bytes)
    }

    /// Consume the core, yielding its state for the exact → approximate
    /// handover (paper §3.3).
    pub fn into_tables(self) -> PerSide<KeyTable> {
        self.tables
    }

    /// Pre-size `side`'s table for `tuples` upcoming
    /// [`Self::insert_restored`] calls, so the replay never regrows it.
    pub fn reserve_restored(&mut self, side: Side, tuples: usize) {
        self.tables[side].reserve(tuples);
    }

    /// Re-insert one tuple during snapshot restore.
    ///
    /// The snapshot stores only the arrival-order tuple column (record,
    /// normalised key, matched-exactly flag); replaying the inserts in
    /// that order re-derives the by-key hash index, so it never hits
    /// disk.  **Snapshot restore only** — tuples must be replayed in
    /// their original arrival order for positions to line up.
    pub fn insert_restored(
        &mut self,
        side: Side,
        record: Record,
        key: Arc<str>,
        matched_exactly: bool,
    ) {
        let idx = self.tables[side].insert(record, key);
        if matched_exactly {
            self.tables[side].mark_matched(idx);
        }
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

/// The exact symmetric hash join as a pipelined [`Operator`].
pub struct SymmetricHashJoin<I> {
    input: I,
    core: ExactJoinCore,
    out: VecDeque<MatchPair>,
    state: OperatorState,
    consumed: PerSide<u64>,
}

impl<I: Operator<Item = SidedRecord>> SymmetricHashJoin<I> {
    /// Build over a sided input, joining on `keys` with default key
    /// normalisation.
    pub fn new(input: I, keys: PerSide<usize>) -> Self {
        Self::with_normalization(input, keys, NormalizeConfig::default())
    }

    /// Build with an explicit key normalisation.
    pub fn with_normalization(input: I, keys: PerSide<usize>, normalize: NormalizeConfig) -> Self {
        Self {
            input,
            core: ExactJoinCore::new(keys, normalize),
            out: VecDeque::new(),
            state: OperatorState::default(),
            consumed: PerSide::default(),
        }
    }

    /// Number of input tuples consumed from each side.
    pub fn consumed(&self) -> PerSide<u64> {
        self.consumed
    }

    /// Number of match pairs emitted so far.
    pub fn emitted(&self) -> u64 {
        self.core.emitted()
    }

    /// Number of tuples resident per side (the paper's state-size metric).
    pub fn stored(&self) -> PerSide<usize> {
        self.core.stored()
    }
}

impl<I: Operator<Item = SidedRecord>> Operator for SymmetricHashJoin<I> {
    type Item = MatchPair;

    fn name(&self) -> &'static str {
        "symmetric-hash-join"
    }

    fn state(&self) -> OperatorState {
        self.state
    }

    fn open(&mut self) -> Result<()> {
        self.state.check_open(self.name())?;
        self.input.open()?;
        self.state = OperatorState::Open;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<MatchPair>> {
        self.state.check_next(self.name())?;
        loop {
            if let Some(pair) = self.out.pop_front() {
                return Ok(Some(pair));
            }
            match self.input.next()? {
                Some(sided) => {
                    self.consumed[sided.side] += 1;
                    self.core.process(sided, &mut self.out)?;
                }
                None => return Ok(None),
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        if self.state != OperatorState::Closed {
            self.input.close()?;
            self.state = OperatorState::Closed;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn join_all(left: &[&str], right: &[&str]) -> Vec<MatchPair> {
        let scan = InterleavedScan::alternating(stream_of(left), stream_of(right));
        let mut join = SymmetricHashJoin::new(scan, PerSide::new(0, 0));
        join.run_to_end().unwrap()
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
        let pairs = join_all(&["a", "b", "c"], &["b", "c", "d"]);
        assert_eq!(id_pairs(&pairs), vec![(1, 0), (2, 1)]);
        assert!(pairs.iter().all(|p| p.kind == MatchKind::Exact));
    }

    #[test]
    fn duplicate_keys_produce_the_full_cross_product_once() {
        let pairs = join_all(&["x", "x"], &["x", "x", "x"]);
        assert_eq!(pairs.len(), 6);
        let mut seen = std::collections::HashSet::new();
        for p in &pairs {
            assert!(seen.insert(p.id_pair()), "duplicate pair {:?}", p.id_pair());
        }
    }

    #[test]
    fn results_are_pipelined_before_input_exhaustion() {
        let scan = InterleavedScan::alternating(stream_of(&["a", "b"]), stream_of(&["a", "b"]));
        let mut join = SymmetricHashJoin::new(scan, PerSide::new(0, 0));
        join.open().unwrap();
        let first = join.next().unwrap().unwrap();
        assert_eq!(first.id_pair(), (RecordId(0), RecordId(0)));
        // Only two tuples were needed to produce the first match.
        assert_eq!(
            join.consumed()[Side::Left] + join.consumed()[Side::Right],
            2
        );
    }

    #[test]
    fn keys_are_normalized_before_hashing() {
        let pairs = join_all(&["Santa  Cristina"], &["SANTA CRISTINA"]);
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn matched_flags_are_set_on_both_partners() {
        let scan = InterleavedScan::alternating(stream_of(&["a", "q"]), stream_of(&["a", "z"]));
        let mut join = SymmetricHashJoin::new(scan, PerSide::new(0, 0));
        let pairs = join.run_to_end().unwrap();
        assert_eq!(pairs.len(), 1);
        let tables = join.core.tables();
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
        let scan = InterleavedScan::alternating(stream_of(&["a", "b", "c"]), stream_of(&["z"]));
        let mut join = SymmetricHashJoin::new(scan, PerSide::new(0, 0));
        join.run_to_end().unwrap();
        assert_eq!(join.stored()[Side::Left], 3);
        assert_eq!(join.stored()[Side::Right], 1);
        assert_eq!(join.emitted(), 0);
    }

    #[test]
    fn non_string_key_column_errors() {
        let schema = Schema::of(vec![Field::integer("id")]);
        let records = vec![Record::new(0u64, vec![Value::Int(5)])];
        let left = VecStream::new(schema.clone(), records.clone());
        let right = VecStream::new(schema, records);
        let scan = InterleavedScan::alternating(left, right);
        let mut join = SymmetricHashJoin::new(scan, PerSide::new(0, 0));
        join.open().unwrap();
        assert!(join.next().is_err());
    }
}
