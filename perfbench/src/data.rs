//! Inputs and what outputs are scored with: generated datasets with their
//! feed sequence and ground truth, pair hashing, counting correct pairs.

use std::collections::HashSet;

use linkage::api::{Pipeline, PipelineBuilder, PipelineConfig};
use linkage::datagen::{generate, DatagenConfig, GeneratedData};
use linkage::operators::{InterleavedScan, Operator};
use linkage::types::{InterleavePolicy, MatchPair, PerSide, Result, Side, SidedRecord, VecStream};

/// `(left record id, right record id)`.
pub type IdPair = (u64, u64);

/// The record ids of an emitted pair.
pub fn ids(pair: &MatchPair) -> IdPair {
    let (left, right) = pair.id_pair();
    (left.as_u64(), right.as_u64())
}

/// Which engine a pipeline runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Serial,
    Sharded(usize),
}

pub const KEYS: PerSide<usize> = PerSide {
    left: GeneratedData::KEY_COLUMN,
    right: GeneratedData::KEY_COLUMN,
};

/// One generated parent/child dataset, ready to be run or fed.
pub struct Dataset {
    pub config: DatagenConfig,
    pub data: GeneratedData,
    /// Both relations in the order the join consumes them.
    pub sequence: Vec<SidedRecord>,
    pub truth: HashSet<IdPair>,
    /// Tuples consumed when the first perturbed child key has arrived.
    pub first_dirty_at: Option<u64>,
}

impl Dataset {
    pub fn generate(config: DatagenConfig) -> Result<Dataset> {
        let data = generate(&config)?;
        let sequence = feed_sequence(&data)?;
        let truth = data
            .truth
            .iter()
            .map(|(parent, child)| (parent.as_u64(), child.as_u64()))
            .collect();
        // Children appear in stream order and every one after the clean
        // prefix may be perturbed, so the first dirty child is the first
        // whose key no longer equals its parent's.
        let parent_key = |id: u64| {
            data.parents.records()[id as usize]
                .key_str(GeneratedData::KEY_COLUMN)
                .unwrap_or("")
        };
        let first_dirty_child = data
            .children
            .records()
            .iter()
            .zip(&data.truth)
            .find(|(child, (parent, _))| {
                child.key_str(GeneratedData::KEY_COLUMN).unwrap_or("")
                    != parent_key(parent.as_u64())
            })
            .map(|(child, _)| child.id);
        let first_dirty_at = first_dirty_child.and_then(|id| {
            sequence
                .iter()
                .position(|s| s.side == Side::Right && s.record.id == id)
                .map(|at| at as u64 + 1)
        });
        Ok(Dataset {
            config,
            data,
            sequence,
            truth,
            first_dirty_at,
        })
    }

    pub fn tuples(&self) -> usize {
        self.sequence.len()
    }

    pub fn is_dirty(&self) -> bool {
        self.data.dirty_children > 0
    }

    /// The declaration a served session of this dataset is opened with.
    pub fn session_config(&self) -> PipelineConfig {
        let mut config = PipelineConfig::default();
        config.keys = KEYS;
        config.reference_size = Some(self.data.parents.len() as u64);
        config
    }

    /// A batch pipeline over this dataset.
    pub fn pipeline(&self, mode: Mode) -> PipelineBuilder {
        let builder = Pipeline::builder()
            .left(&self.data.parents)
            .right(&self.data.children)
            .key_column(GeneratedData::KEY_COLUMN);
        match mode {
            Mode::Serial => builder.serial(),
            Mode::Sharded(shards) => builder.sharded(shards),
        }
    }
}

/// Drain the program's own interleaving scan: the order a batch pipeline
/// consumes the two relations in is the order a served session is fed.
fn feed_sequence(data: &GeneratedData) -> Result<Vec<SidedRecord>> {
    let mut scan = InterleavedScan::new(
        VecStream::from_relation(&data.parents),
        VecStream::from_relation(&data.children),
        InterleavePolicy::default(),
    );
    scan.open()?;
    let mut sequence = Vec::with_capacity(data.parents.len() + data.children.len());
    while let Some(sided) = scan.next()? {
        sequence.push(sided);
    }
    scan.close()?;
    Ok(sequence)
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn pair_hash((left, right): IdPair) -> u64 {
    mix(mix(left).wrapping_add(right.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// Hash of a pair *set*: the same for any emission order, different when a
/// pair is missing, extra or doubled.
pub fn set_hash(pairs: &[IdPair]) -> u64 {
    pairs
        .iter()
        .fold(pairs.len() as u64, |acc, p| acc.wrapping_add(pair_hash(*p)))
}

/// Hash of a pair *sequence*: order matters, as for a served stream that
/// must equal a solo run pair by pair.
pub fn sequence_hash(pairs: &[IdPair]) -> u64 {
    pairs
        .iter()
        .fold(pairs.len() as u64, |acc, p| mix(acc ^ pair_hash(*p)))
}

/// Emitted pairs that are in the ground truth.
pub fn count_correct(pairs: &[IdPair], truth: &HashSet<IdPair>) -> usize {
    pairs.iter().filter(|p| truth.contains(p)).count()
}

/// A dataset switched wrongly when it is clean and switched, or dirty and
/// never switched.
pub fn wrong_switch(dataset: &Dataset, switched: bool) -> bool {
    dataset.is_dirty() != switched
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_hash_ignores_order_and_sees_changes() {
        let a = [(1, 2), (3, 4), (5, 6)];
        let b = [(5, 6), (1, 2), (3, 4)];
        assert_eq!(set_hash(&a), set_hash(&b));
        assert_ne!(sequence_hash(&a), sequence_hash(&b));
        assert_ne!(set_hash(&a), set_hash(&a[..2]));
        assert_ne!(set_hash(&a), set_hash(&[(1, 2), (3, 4), (5, 6), (5, 6)]));
        assert_ne!(set_hash(&[(1, 2)]), set_hash(&[(2, 1)]));
    }

    #[test]
    fn a_dirty_dataset_knows_where_its_dirt_starts() {
        let dirty = Dataset::generate(DatagenConfig::mid_stream_dirty(100, 5)).unwrap();
        assert_eq!(dirty.tuples(), 200);
        assert!(dirty.is_dirty());
        // Alternating interleave: child 50 is the 102nd tuple.
        assert_eq!(dirty.first_dirty_at, Some(102));
        assert!(wrong_switch(&dirty, false) && !wrong_switch(&dirty, true));

        let clean = Dataset::generate(DatagenConfig::clean(100, 5)).unwrap();
        assert_eq!(clean.first_dirty_at, None);
        assert!(wrong_switch(&clean, true) && !wrong_switch(&clean, false));
        let (parent, child) = clean.data.truth[0];
        let true_pair = (parent.as_u64(), child.as_u64());
        assert_eq!(count_correct(&[true_pair, (9999, 0)], &clean.truth), 1);
    }
}
