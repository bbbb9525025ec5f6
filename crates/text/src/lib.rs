//! # linkage-text
//!
//! String tokenisation and similarity for approximate record linkage.
//!
//! The paper's approximate join (SSHJoin) measures string similarity with the
//! **Jaccard coefficient over q-gram sets** (§2.2):
//!
//! ```text
//! sim(s1, s2) = |q(s1) ∩ q(s2)| / |q(s1) ∪ q(s2)|
//! ```
//!
//! where `q(s)` is the set of substrings obtained by sliding a window of
//! width `q` (typically 3) over `s`, padded so that a string of length `n`
//! yields `n + q − 1` grams.
//!
//! This crate provides:
//!
//! * [`QGramConfig`] / [`QGramSet`] — q-gram extraction with the padding
//!   convention the paper's cost model assumes; grams are interned to
//!   dense [`GramId`]s through a [`GramInterner`], so the join kernel's
//!   probe path never hashes strings ([`StringGramSet`] keeps the
//!   string-keyed representation for the standalone similarity functions
//!   and the reference the kernel is tested against);
//! * [`normalize()`] — the canonicalisation applied to join keys before
//!   tokenisation (case folding, whitespace collapsing);
//! * [`StringSimilarity`] and its q-gram implementations: the paper's
//!   [`QGramJaccard`] plus [`QGramDice`], [`QGramCosine`] and
//!   [`QGramOverlap`] ("other similarity functions based on q-grams can be
//!   exploited", §2.2 footnote), each backed by a [`QGramCoefficient`]
//!   with the sound pruning bounds the probe kernel relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod intern;
pub mod normalize;
pub mod qgram;
pub mod similarity;

pub use intern::{FxBuildHasher, FxHasher, GramId, GramInterner, SharedInterner};
pub use normalize::{normalize, normalize_into, NormalizeConfig};
pub use qgram::{overlap_at_least, Gram, QGramConfig, QGramSet, StringGramSet};
pub use similarity::{
    QGramCoefficient, QGramCosine, QGramDice, QGramJaccard, QGramOverlap, SimilarityFn,
    StringSimilarity,
};
