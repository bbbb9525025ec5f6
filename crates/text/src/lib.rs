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
//!   probe path never hashes strings ([`StringGramSet`] retains the
//!   string-keyed representation as the tested-against reference);
//! * [`normalize()`] — the canonicalisation applied to join keys before
//!   tokenisation (case folding, whitespace collapsing);
//! * [`StringSimilarity`] and a family of implementations: the paper's
//!   [`QGramJaccard`] plus [`QGramDice`], [`QGramCosine`], [`QGramOverlap`],
//!   [`NormalizedLevenshtein`] and [`JaroWinkler`] used in ablation
//!   experiments ("other similarity functions based on q-grams can be
//!   exploited", §2.2 footnote).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edit;
pub mod intern;
pub mod jaro;
pub mod normalize;
pub mod qgram;
pub mod similarity;

pub use edit::{levenshtein_distance, NormalizedLevenshtein};
pub use intern::{FxBuildHasher, FxHasher, GramId, GramInterner, SharedInterner};
pub use jaro::{jaro_similarity, jaro_winkler_similarity, JaroWinkler};
pub use normalize::{normalize, NormalizeConfig};
pub use qgram::{overlap_at_least, Gram, QGramConfig, QGramSet, StringGramSet};
pub use similarity::{
    QGramCoefficient, QGramCosine, QGramDice, QGramJaccard, QGramOverlap, SimilarityFn,
    StringSimilarity,
};
