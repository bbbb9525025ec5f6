//! The [`StringSimilarity`] trait and its q-gram based implementations.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::qgram::{QGramConfig, StringGramSet};

/// A symmetric string similarity in `[0, 1]`.
///
/// The adaptive join is parameterised by a similarity function plus a match
/// threshold `θ_sim`; the paper uses the q-gram Jaccard coefficient
/// ([`QGramJaccard`]) with `θ_sim = 0.85`, the others support ablations.
pub trait StringSimilarity {
    /// The similarity of `a` and `b`, in `[0, 1]`, 1 meaning identical.
    fn similarity(&self, a: &str, b: &str) -> f64;

    /// A short, stable name for reports and configuration.
    fn name(&self) -> &'static str;

    /// Whether the pair passes the given threshold.
    fn matches(&self, a: &str, b: &str, threshold: f64) -> bool {
        self.similarity(a, b) >= threshold
    }
}

/// Object-safe, shareable handle to a similarity function.
pub type SimilarityFn = Arc<dyn StringSimilarity + Send + Sync>;

impl fmt::Debug for dyn StringSimilarity + Send + Sync {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StringSimilarity({})", self.name())
    }
}

/// The family of q-gram set coefficients the approximate join can be
/// parameterised with — the pipeline's *pluggable similarity choice*.
///
/// The paper uses the Jaccard coefficient; its §2.2 footnote notes that
/// "other similarity functions based on q-grams can be exploited", which
/// is exactly what this enum encodes.  Every member is computable in
/// O(1) from `(|A|, |B|, |A ∩ B|)`, so the SSH join's inverted-index
/// kernel supports all of them with the same per-candidate counters; and
/// every member admits a *sound* minimum-overlap pruning bound
/// ([`Self::min_overlap`]), so candidate pruning never drops a true
/// match whichever coefficient is selected.
///
/// [`Self::with_config`] yields the corresponding [`StringSimilarity`]
/// implementation, which the nested-loop oracles use to cross-check the
/// kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum QGramCoefficient {
    /// `|A ∩ B| / |A ∪ B|` — the paper's similarity.
    #[default]
    Jaccard,
    /// `2·|A ∩ B| / (|A| + |B|)`.
    Dice,
    /// `|A ∩ B| / √(|A|·|B|)`.
    Cosine,
    /// `|A ∩ B| / min(|A|, |B|)`.
    Overlap,
}

impl QGramCoefficient {
    /// Every member, for sweeps and ablation experiments.
    pub const ALL: [QGramCoefficient; 4] = [
        QGramCoefficient::Jaccard,
        QGramCoefficient::Dice,
        QGramCoefficient::Cosine,
        QGramCoefficient::Overlap,
    ];

    /// A short, stable name for reports and configuration.
    pub fn name(&self) -> &'static str {
        match self {
            QGramCoefficient::Jaccard => "jaccard",
            QGramCoefficient::Dice => "dice",
            QGramCoefficient::Cosine => "cosine",
            QGramCoefficient::Overlap => "overlap",
        }
    }

    /// Combine an intersection size with the two set sizes.
    ///
    /// Conventions: two empty sets are identical (1.0); an empty set
    /// against a non-empty one shares nothing (0.0).
    pub fn combine(self, inter: usize, len_a: usize, len_b: usize) -> f64 {
        if len_a == 0 && len_b == 0 {
            return 1.0;
        }
        if len_a == 0 || len_b == 0 {
            return 0.0;
        }
        let inter = inter as f64;
        let (a, b) = (len_a as f64, len_b as f64);
        match self {
            QGramCoefficient::Jaccard => inter / (a + b - inter),
            QGramCoefficient::Dice => 2.0 * inter / (a + b),
            QGramCoefficient::Cosine => inter / (a * b).sqrt(),
            QGramCoefficient::Overlap => inter / a.min(b),
        }
    }

    /// The similarity implied by an externally counted intersection size
    /// — the formula the approximate join applies once its per-candidate
    /// counters are known.  The overlap is clamped to `min(|A|, |B|)` so
    /// inconsistent counts can never produce a similarity above 1.
    pub fn from_overlap(self, len_a: usize, len_b: usize, overlap: usize) -> f64 {
        self.combine(overlap.min(len_a).min(len_b), len_a, len_b)
    }

    /// Minimum number of shared grams a candidate must have for this
    /// coefficient to possibly reach `threshold` against a probe set of
    /// `probe_len` grams — the sound generalisation of the paper's
    /// `|A ∩ B| ≥ θ·|A|` Jaccard pruning bound (§2.2).
    ///
    /// Derivations use `i ≤ min(|A|, |B|)` with `A` the probe set:
    ///
    /// * Jaccard ≥ θ ⟹ `i ≥ θ·|A ∪ B| ≥ θ·|A|`;
    /// * Dice ≥ θ ⟹ `2i ≥ θ(|A| + |B|) ≥ θ(|A| + i)` ⟹ `i ≥ θ·|A|/(2−θ)`;
    /// * Cosine ≥ θ ⟹ `i ≥ θ·√(|A|·|B|) ≥ θ·√(|A|·i)` ⟹ `i ≥ θ²·|A|`;
    /// * Overlap ≥ θ ⟹ only `i ≥ 1` can be guaranteed (a small candidate
    ///   set keeps the denominator small).
    pub fn min_overlap(self, probe_len: usize, threshold: f64) -> usize {
        if probe_len == 0 {
            return 0;
        }
        let t = threshold.clamp(0.0, 1.0);
        let a = probe_len as f64;
        let bound = match self {
            QGramCoefficient::Jaccard => t * a,
            QGramCoefficient::Dice => t * a / (2.0 - t),
            QGramCoefficient::Cosine => t * t * a,
            QGramCoefficient::Overlap => 1.0,
        };
        (bound.ceil() as usize).clamp(1, probe_len)
    }

    /// Number of probe grams the prefix filter must scan: with
    /// `t = min_overlap(probe_len, threshold)`, any candidate sharing at
    /// least `t` grams with the probe set shares — by pigeonhole — at
    /// least one gram with **any** `probe_len − t + 1` of the probe's
    /// grams (the probe has at most `probe_len − t` grams outside the
    /// intersection).  Scanning only that many posting lists therefore
    /// finds every candidate that can still reach the threshold,
    /// whichever traversal order is used; rare-first ordering is the
    /// performance choice, not a soundness requirement.
    ///
    /// `0` for an empty probe set; between `1` and `probe_len` otherwise
    /// (it equals `probe_len` — no filtering — exactly when
    /// `min_overlap` is 1, e.g. always for [`Self::Overlap`]).
    pub fn prefix_len(self, probe_len: usize, threshold: f64) -> usize {
        if probe_len == 0 {
            return 0;
        }
        probe_len - self.min_overlap(probe_len, threshold) + 1
    }

    /// The [`StringSimilarity`] implementation computing this coefficient
    /// over q-gram sets extracted under `config` — what the inverted-index
    /// kernel's output is equivalent to, pair by pair.
    pub fn with_config(self, config: QGramConfig) -> SimilarityFn {
        match self {
            QGramCoefficient::Jaccard => Arc::new(QGramJaccard::new(config)),
            QGramCoefficient::Dice => Arc::new(QGramDice::new(config)),
            QGramCoefficient::Cosine => Arc::new(QGramCosine::new(config)),
            QGramCoefficient::Overlap => Arc::new(QGramOverlap::new(config)),
        }
    }
}

macro_rules! qgram_similarity {
    ($(#[$doc:meta])* $name:ident, $coef:expr, $label:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
        pub struct $name {
            /// Q-gram extraction configuration.
            pub config: QGramConfig,
        }

        impl $name {
            /// Build with an explicit q-gram configuration.
            pub fn new(config: QGramConfig) -> Self {
                Self { config }
            }

            /// Build with window width `q` and default padding/normalisation.
            pub fn with_q(q: usize) -> Self {
                Self { config: QGramConfig::with_q(q) }
            }

            /// Similarity of two pre-extracted q-gram sets.
            ///
            /// These one-pair-at-a-time similarity functions tokenise
            /// into the string-keyed [`StringGramSet`] on purpose: they
            /// are the oracle path the interned probe kernel is tested
            /// against, so they must not share its interning machinery.
            pub fn of_sets(&self, a: &StringGramSet, b: &StringGramSet) -> f64 {
                $coef.combine(a.intersection_size(b), a.len(), b.len())
            }
        }

        impl StringSimilarity for $name {
            fn similarity(&self, a: &str, b: &str) -> f64 {
                let sa = StringGramSet::extract(a, &self.config);
                let sb = StringGramSet::extract(b, &self.config);
                self.of_sets(&sa, &sb)
            }

            fn name(&self) -> &'static str {
                $label
            }
        }
    };
}

qgram_similarity!(
    /// The paper's similarity: Jaccard coefficient over q-gram sets,
    /// `|q(s1) ∩ q(s2)| / |q(s1) ∪ q(s2)|`.
    QGramJaccard,
    QGramCoefficient::Jaccard,
    "qgram-jaccard"
);

qgram_similarity!(
    /// Dice coefficient over q-gram sets, `2·|A ∩ B| / (|A| + |B|)`.
    QGramDice,
    QGramCoefficient::Dice,
    "qgram-dice"
);

qgram_similarity!(
    /// Cosine coefficient over q-gram sets, `|A ∩ B| / √(|A|·|B|)`.
    QGramCosine,
    QGramCoefficient::Cosine,
    "qgram-cosine"
);

qgram_similarity!(
    /// Overlap coefficient over q-gram sets, `|A ∩ B| / min(|A|, |B|)`.
    QGramOverlap,
    QGramCoefficient::Overlap,
    "qgram-overlap"
);

#[cfg(test)]
mod tests {
    use super::*;

    const VARIANT_A: &str = "TAA BZ SANTA CRISTINA VALGARDENA";
    const VARIANT_B: &str = "TAA BZ SANTA CRISTINx VALGARDENA";

    #[test]
    fn jaccard_matches_set_computation() {
        let sim = QGramJaccard::default();
        let sa = StringGramSet::extract(VARIANT_A, &sim.config);
        let sb = StringGramSet::extract(VARIANT_B, &sim.config);
        assert!((sim.similarity(VARIANT_A, VARIANT_B) - sa.jaccard(&sb)).abs() < 1e-12);
    }

    #[test]
    fn single_edit_variant_passes_calibrated_threshold() {
        // The paper calibrates θ_sim so that edit-distance-1 variants of
        // location strings are matched while unrelated locations are not
        // (§4.2).  With padded 3-gram Jaccard a one-character substitution in
        // a ~30-character key scores ≈ 0.84, so the calibrated threshold in
        // this code base is 0.80 (see DESIGN.md §6).
        let sim = QGramJaccard::default();
        let s = sim.similarity(VARIANT_A, VARIANT_B);
        assert!(s > 0.80 && s < 1.0, "variant similarity {s}");
        assert!(sim.matches(VARIANT_A, VARIANT_B, 0.80));
        // But an unrelated location must not match.
        assert!(!sim.matches(VARIANT_A, "LIG GE GENOVA NERVI", 0.80));
    }

    #[test]
    fn coefficient_ordering_on_same_pair() {
        // For any pair: overlap ≥ dice ≥ jaccard and cosine ≥ jaccard.
        let pairs = [
            (VARIANT_A, VARIANT_B),
            ("GENOVA", "GENOVA NERVI"),
            ("ROMA", "MILANO"),
        ];
        for (a, b) in pairs {
            let j = QGramJaccard::default().similarity(a, b);
            let d = QGramDice::default().similarity(a, b);
            let c = QGramCosine::default().similarity(a, b);
            let o = QGramOverlap::default().similarity(a, b);
            assert!(o + 1e-12 >= d, "overlap {o} < dice {d} for {a}/{b}");
            assert!(d + 1e-12 >= j, "dice {d} < jaccard {j} for {a}/{b}");
            assert!(c + 1e-12 >= j, "cosine {c} < jaccard {j} for {a}/{b}");
        }
    }

    #[test]
    fn identical_strings_score_one_for_all_coefficients() {
        for s in ["", "ROMA", "PIE TO TORINO"] {
            assert_eq!(QGramJaccard::default().similarity(s, s), 1.0);
            assert_eq!(QGramDice::default().similarity(s, s), 1.0);
            assert_eq!(QGramCosine::default().similarity(s, s), 1.0);
            assert_eq!(QGramOverlap::default().similarity(s, s), 1.0);
        }
    }

    #[test]
    fn empty_vs_nonempty_scores_zero() {
        assert_eq!(QGramJaccard::default().similarity("", "ROMA"), 0.0);
        assert_eq!(QGramDice::default().similarity("ROMA", ""), 0.0);
        assert_eq!(QGramOverlap::default().similarity("", "X"), 0.0);
        assert_eq!(QGramCosine::default().similarity("X", ""), 0.0);
    }

    #[test]
    fn with_q_builder_sets_window() {
        let sim = QGramJaccard::with_q(2);
        assert_eq!(sim.config.q, 2);
        let sim = QGramDice::with_q(4);
        assert_eq!(sim.config.q, 4);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(QGramJaccard::default().name(), "qgram-jaccard");
        assert_eq!(QGramDice::default().name(), "qgram-dice");
        assert_eq!(QGramCosine::default().name(), "qgram-cosine");
        assert_eq!(QGramOverlap::default().name(), "qgram-overlap");
        for coefficient in QGramCoefficient::ALL {
            assert!(!coefficient.name().is_empty());
        }
        assert_eq!(QGramCoefficient::default(), QGramCoefficient::Jaccard);
    }

    #[test]
    fn coefficient_handle_agrees_with_the_concrete_struct() {
        let config = QGramConfig::default();
        for coefficient in QGramCoefficient::ALL {
            let handle = coefficient.with_config(config.clone());
            let sa = StringGramSet::extract(VARIANT_A, &config);
            let sb = StringGramSet::extract(VARIANT_B, &config);
            let via_sets = coefficient.combine(sa.intersection_size(&sb), sa.len(), sb.len());
            let via_handle = handle.similarity(VARIANT_A, VARIANT_B);
            assert!(
                (via_sets - via_handle).abs() < 1e-12,
                "{} disagrees with its handle",
                coefficient.name()
            );
        }
    }

    #[test]
    fn from_overlap_clamps_and_respects_empty_set_conventions() {
        for coefficient in QGramCoefficient::ALL {
            assert_eq!(coefficient.from_overlap(0, 0, 0), 1.0);
            assert_eq!(coefficient.from_overlap(5, 0, 0), 0.0);
            assert_eq!(coefficient.from_overlap(0, 5, 3), 0.0);
            // Inconsistent overlap counts can never exceed 1.
            assert!(coefficient.from_overlap(3, 3, 10) <= 1.0);
            assert_eq!(coefficient.from_overlap(4, 4, 4), 1.0);
        }
    }

    #[test]
    fn min_overlap_edges() {
        for coefficient in QGramCoefficient::ALL {
            assert_eq!(coefficient.min_overlap(0, 0.8), 0, "empty probe");
            assert!(coefficient.min_overlap(10, 0.0) >= 1);
            assert_eq!(
                coefficient.min_overlap(10, 1.0),
                if coefficient == QGramCoefficient::Overlap {
                    1
                } else {
                    10
                }
            );
        }
    }

    #[test]
    fn prefix_len_complements_min_overlap() {
        for coefficient in QGramCoefficient::ALL {
            assert_eq!(coefficient.prefix_len(0, 0.8), 0, "empty probe");
            for probe_len in [1usize, 5, 33, 100] {
                for theta in [0.0, 0.5, 0.8, 1.0] {
                    let t = coefficient.min_overlap(probe_len, theta);
                    let prefix = coefficient.prefix_len(probe_len, theta);
                    assert_eq!(prefix, probe_len - t + 1);
                    assert!((1..=probe_len).contains(&prefix));
                }
            }
        }
        // The Overlap coefficient can never prune (t = 1 always)…
        assert_eq!(QGramCoefficient::Overlap.prefix_len(33, 0.8), 33);
        // …while a high Jaccard threshold scans only a short prefix.
        assert_eq!(QGramCoefficient::Jaccard.prefix_len(33, 1.0), 1);
        assert!(QGramCoefficient::Jaccard.prefix_len(33, 0.8) <= 7);
    }

    #[test]
    fn trait_objects_are_usable() {
        let sims: Vec<SimilarityFn> = vec![
            Arc::new(QGramJaccard::default()),
            Arc::new(QGramDice::default()),
            Arc::new(QGramCosine::default()),
            Arc::new(QGramOverlap::default()),
        ];
        for sim in &sims {
            let s = sim.similarity("GENOVA", "GENOVA");
            assert_eq!(s, 1.0, "{} should be reflexive", sim.name());
        }
        let dbg = format!("{:?}", sims[0]);
        assert!(dbg.contains("qgram-jaccard"));
    }

    #[test]
    fn normalisation_makes_case_insensitive_by_default() {
        let sim = QGramJaccard::default();
        assert_eq!(sim.similarity("Santa Cristina", "SANTA CRISTINA"), 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_key() -> impl Strategy<Value = String> {
        proptest::collection::vec("[A-Z]{1,6}", 1..4).prop_map(|w| w.join(" "))
    }

    proptest! {
        #[test]
        fn all_coefficients_symmetric_and_bounded(a in arb_key(), b in arb_key()) {
            let sims: Vec<SimilarityFn> = vec![
                Arc::new(QGramJaccard::default()),
                Arc::new(QGramDice::default()),
                Arc::new(QGramCosine::default()),
                Arc::new(QGramOverlap::default()),
            ];
            for sim in sims {
                let ab = sim.similarity(&a, &b);
                let ba = sim.similarity(&b, &a);
                prop_assert!((ab - ba).abs() < 1e-12, "{} not symmetric", sim.name());
                prop_assert!((0.0..=1.0 + 1e-12).contains(&ab), "{} out of range", sim.name());
            }
        }

        #[test]
        fn matches_is_monotone_in_threshold(a in arb_key(), b in arb_key()) {
            let sim = QGramJaccard::default();
            let s = sim.similarity(&a, &b);
            prop_assert_eq!(sim.matches(&a, &b, 0.0), s >= 0.0);
            if sim.matches(&a, &b, 0.9) {
                prop_assert!(sim.matches(&a, &b, 0.5));
            }
        }

        /// The pruning bound must never reject a pair that actually
        /// reaches the threshold — for every coefficient, from either
        /// probe direction (the kernel probes with whichever side
        /// arrives).
        #[test]
        fn min_overlap_bound_is_sound_for_every_coefficient(a in arb_key(), b in arb_key()) {
            let cfg = QGramConfig::default();
            let sa = StringGramSet::extract(&a, &cfg);
            let sb = StringGramSet::extract(&b, &cfg);
            let inter = sa.intersection_size(&sb);
            for coefficient in QGramCoefficient::ALL {
                let sim = coefficient.combine(inter, sa.len(), sb.len());
                for theta in [0.1, 0.3, 0.5, 0.8, 0.95, 1.0] {
                    if sim >= theta {
                        for probe_len in [sa.len(), sb.len()] {
                            prop_assert!(
                                inter >= coefficient.min_overlap(probe_len, theta),
                                "{} would prune a true match: sim {} ≥ θ {} but \
                                 inter {} < bound {}",
                                coefficient.name(), sim, theta, inter,
                                coefficient.min_overlap(probe_len, theta)
                            );
                        }
                    }
                }
            }
        }
    }
}
