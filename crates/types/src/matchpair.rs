//! Join results: match pairs and how they were matched.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::record::{Record, RecordId};

/// How a pair of records was matched.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MatchKind {
    /// The join attribute values were identical (exact join).
    Exact,
    /// The join attribute values were similar above the configured threshold
    /// (approximate join); carries the similarity score in `[0, 1]`.
    Approximate {
        /// Similarity of the two join attribute values.
        similarity: f64,
    },
}

impl MatchKind {
    /// Whether this is an exact match.
    pub fn is_exact(&self) -> bool {
        matches!(self, MatchKind::Exact)
    }

    /// Whether this is an approximate match.
    pub fn is_approximate(&self) -> bool {
        matches!(self, MatchKind::Approximate { .. })
    }

    /// The similarity score: 1.0 for exact matches.
    pub fn similarity(&self) -> f64 {
        match self {
            MatchKind::Exact => 1.0,
            MatchKind::Approximate { similarity } => *similarity,
        }
    }
}

impl fmt::Display for MatchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchKind::Exact => write!(f, "exact"),
            MatchKind::Approximate { similarity } => write!(f, "approx({similarity:.3})"),
        }
    }
}

/// One joined pair: a left record, a right record, and how they matched.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchPair {
    /// The record from the left input.
    pub left: Record,
    /// The record from the right input.
    pub right: Record,
    /// How the pair was matched.
    pub kind: MatchKind,
}

impl MatchPair {
    /// Build an exact match pair.
    pub fn exact(left: Record, right: Record) -> Self {
        Self {
            left,
            right,
            kind: MatchKind::Exact,
        }
    }

    /// Build an approximate match pair with the given similarity.
    pub fn approximate(left: Record, right: Record, similarity: f64) -> Self {
        Self {
            left,
            right,
            kind: MatchKind::Approximate { similarity },
        }
    }

    /// The `(left id, right id)` key identifying this pair.
    pub fn id_pair(&self) -> (RecordId, RecordId) {
        (self.left.id, self.right.id)
    }
}

impl fmt::Display for MatchPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ⋈ {} [{}]", self.left.id, self.right.id, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn rec(id: u64, key: &str) -> Record {
        Record::new(id, vec![Value::string(key)])
    }

    #[test]
    fn match_kind_accessors() {
        assert!(MatchKind::Exact.is_exact());
        assert!(!MatchKind::Exact.is_approximate());
        assert_eq!(MatchKind::Exact.similarity(), 1.0);
        let approx = MatchKind::Approximate { similarity: 0.9 };
        assert!(approx.is_approximate());
        assert_eq!(approx.similarity(), 0.9);
        assert_eq!(approx.to_string(), "approx(0.900)");
        assert_eq!(MatchKind::Exact.to_string(), "exact");
    }

    #[test]
    fn pair_constructors_and_display() {
        let p = MatchPair::exact(rec(1, "a"), rec(2, "a"));
        assert_eq!(p.id_pair(), (RecordId(1), RecordId(2)));
        assert!(p.kind.is_exact());
        let q = MatchPair::approximate(rec(1, "a"), rec(2, "ab"), 0.5);
        assert!(q.kind.is_approximate());
        assert!(q.to_string().contains("#1"));
        assert!(q.to_string().contains("approx"));
    }
}
