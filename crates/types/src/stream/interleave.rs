//! Interleaving the two inputs of a symmetric join.

use serde::{Deserialize, Serialize};

use crate::record::{Record, SidedRecord};
use crate::schema::Schema;
use crate::side::Side;

use super::RecordStream;

/// The policy used to interleave the two inputs of a symmetric join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum InterleavePolicy {
    /// Strict alternation left, right, left, right, … (the paper's
    /// "scanning each of the tables in turn, one tuple at a time").
    #[default]
    Alternate,
    /// Drain the left input completely, then the right.
    LeftFirst,
    /// Drain the right input completely, then the left.
    RightFirst,
    /// `k` tuples from the left, then `k` from the right, repeatedly.
    Blocks(usize),
}

/// Interleaves two [`RecordStream`]s into a single stream of [`SidedRecord`]s.
///
/// When one input is exhausted the other continues to be drained, so the join
/// always sees every tuple exactly once regardless of relative input sizes.
pub struct InterleavedStream<L, R> {
    left: L,
    right: R,
    policy: InterleavePolicy,
    /// Which side to try next under the alternating policies.
    next_side: Side,
    /// Tuples emitted from the current block (for `Blocks`).
    block_progress: usize,
}

impl<L: RecordStream, R: RecordStream> InterleavedStream<L, R> {
    /// Build an interleaved stream with the given policy.
    pub fn new(left: L, right: R, policy: InterleavePolicy) -> Self {
        let next_side = match policy {
            InterleavePolicy::RightFirst => Side::Right,
            _ => Side::Left,
        };
        Self {
            left,
            right,
            policy,
            next_side,
            block_progress: 0,
        }
    }

    /// Strictly alternating interleave (the default used by the paper).
    pub fn alternating(left: L, right: R) -> Self {
        Self::new(left, right, InterleavePolicy::Alternate)
    }

    /// Open both underlying streams.
    pub fn open(&mut self) {
        self.left.open();
        self.right.open();
    }

    /// Close both underlying streams; subsequent pulls return `None`.
    pub fn close(&mut self) {
        self.left.close();
        self.right.close();
    }

    fn pull(&mut self, side: Side) -> Option<Record> {
        match side {
            Side::Left => self.left.next_record(),
            Side::Right => self.right.next_record(),
        }
    }

    /// Produce the next sided record according to the interleave policy.
    pub fn next_sided(&mut self) -> Option<SidedRecord> {
        let first_choice = match self.policy {
            InterleavePolicy::Alternate => self.next_side,
            InterleavePolicy::LeftFirst => Side::Left,
            InterleavePolicy::RightFirst => Side::Right,
            InterleavePolicy::Blocks(_) => self.next_side,
        };

        let result = match self.pull(first_choice) {
            Some(record) => Some(SidedRecord::new(first_choice, record)),
            None => self
                .pull(first_choice.opposite())
                .map(|record| SidedRecord::new(first_choice.opposite(), record)),
        };

        if let Some(sided) = &result {
            match self.policy {
                InterleavePolicy::Alternate => {
                    self.next_side = sided.side.opposite();
                }
                InterleavePolicy::Blocks(k) => {
                    let k = k.max(1);
                    if sided.side == self.next_side {
                        self.block_progress += 1;
                        if self.block_progress >= k {
                            self.block_progress = 0;
                            self.next_side = self.next_side.opposite();
                        }
                    } else {
                        // The preferred side is exhausted: stay on the other.
                        self.next_side = sided.side;
                        self.block_progress = 0;
                    }
                }
                InterleavePolicy::LeftFirst | InterleavePolicy::RightFirst => {}
            }
        }
        result
    }

    /// Schemas of the two inputs.
    pub fn schemas(&self) -> (&Schema, &Schema) {
        (self.left.schema(), self.right.schema())
    }
}

#[cfg(test)]
mod tests {
    use super::super::VecStream;
    use super::*;
    use crate::schema::Field;
    use crate::value::Value;

    fn schema() -> Schema {
        Schema::of(vec![Field::string("k")])
    }

    fn stream_of(keys: &[&str]) -> VecStream {
        let records = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Record::new(i as u64, vec![Value::string(*k)]))
            .collect();
        VecStream::new(schema(), records)
    }

    fn collect_all<L: RecordStream, R: RecordStream>(
        mut inter: InterleavedStream<L, R>,
    ) -> Vec<SidedRecord> {
        let mut out = Vec::new();
        while let Some(s) = inter.next_sided() {
            out.push(s);
        }
        out
    }

    fn sides(out: &[SidedRecord]) -> Vec<Side> {
        out.iter().map(|s| s.side).collect()
    }

    #[test]
    fn alternating_interleave_strictly_alternates() {
        let inter =
            InterleavedStream::alternating(stream_of(&["l1", "l2"]), stream_of(&["r1", "r2"]));
        let out = collect_all(inter);
        assert_eq!(
            sides(&out),
            vec![Side::Left, Side::Right, Side::Left, Side::Right]
        );
        assert_eq!(out[1].record.key_str(0).unwrap(), "r1");
    }

    #[test]
    fn alternating_interleave_drains_longer_side() {
        let inter =
            InterleavedStream::alternating(stream_of(&["l1"]), stream_of(&["r1", "r2", "r3"]));
        let out = collect_all(inter);
        assert_eq!(out.len(), 4);
        assert_eq!(
            sides(&out),
            vec![Side::Left, Side::Right, Side::Right, Side::Right]
        );
    }

    #[test]
    fn left_first_policy_drains_left_then_right() {
        let inter = InterleavedStream::new(
            stream_of(&["l1", "l2"]),
            stream_of(&["r1"]),
            InterleavePolicy::LeftFirst,
        );
        let out = collect_all(inter);
        assert_eq!(sides(&out), vec![Side::Left, Side::Left, Side::Right]);
    }

    #[test]
    fn right_first_policy_drains_right_then_left() {
        let inter = InterleavedStream::new(
            stream_of(&["l1"]),
            stream_of(&["r1", "r2"]),
            InterleavePolicy::RightFirst,
        );
        let out = collect_all(inter);
        assert_eq!(sides(&out), vec![Side::Right, Side::Right, Side::Left]);
    }

    #[test]
    fn block_policy_emits_blocks() {
        let inter = InterleavedStream::new(
            stream_of(&["l1", "l2", "l3", "l4"]),
            stream_of(&["r1", "r2", "r3", "r4"]),
            InterleavePolicy::Blocks(2),
        );
        let out = collect_all(inter);
        assert_eq!(
            sides(&out),
            vec![
                Side::Left,
                Side::Left,
                Side::Right,
                Side::Right,
                Side::Left,
                Side::Left,
                Side::Right,
                Side::Right
            ]
        );
    }

    #[test]
    fn block_policy_handles_exhausted_preferred_side() {
        let inter = InterleavedStream::new(
            stream_of(&["l1"]),
            stream_of(&["r1", "r2", "r3"]),
            InterleavePolicy::Blocks(2),
        );
        let out = collect_all(inter);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].side, Side::Left);
        assert!(out[1..].iter().all(|s| s.side == Side::Right));
    }

    #[test]
    fn open_close_propagate_to_both_inputs() {
        let mut inter =
            InterleavedStream::alternating(stream_of(&["l1", "l2"]), stream_of(&["r1"]));
        inter.open();
        assert!(inter.next_sided().is_some());
        inter.close();
        assert!(inter.next_sided().is_none());
    }
}
