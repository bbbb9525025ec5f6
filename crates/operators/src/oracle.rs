//! Nested-loop reference joins.
//!
//! Quadratic, materialised, and obviously correct — the oracles the
//! integration tests and benchmarks compare the pipelined operators
//! against.  Not for production use.
//!
//! * [`nested_loop_similarity`] — the match *set* of a similarity join
//!   over two relations;
//! * [`stream_similarity`] — the match *stream* of the adaptive join over
//!   one interleaved feed: every pair in the order the kernels emit it,
//!   with its kind and its similarity bits, across the §3.3 switch.

use linkage_text::{
    normalize, NormalizeConfig, QGramCoefficient, QGramConfig, StringGramSet, StringSimilarity,
};
use linkage_types::{
    LinkageError, MatchPair, PerSide, Record, Relation, Result, Side, SidedRecord,
};

/// Similarity nested-loop join: emits one pair per `(l, r)` whose keys
/// score at or above `theta` under `sim`; pairs with equal normalised keys
/// are emitted with exact kind, mirroring the SSH join's classification.
pub fn nested_loop_similarity(
    left: &Relation,
    right: &Relation,
    keys: PerSide<usize>,
    config: &NormalizeConfig,
    sim: &dyn StringSimilarity,
    theta: f64,
) -> Result<Vec<MatchPair>> {
    let right = keyed(right, keys.right, config)?;
    let mut out = Vec::new();
    for (l, lraw, lk) in keyed(left, keys.left, config)? {
        for &(r, rraw, ref rk) in &right {
            if lk == *rk {
                out.push(MatchPair::exact(l.clone(), r.clone()));
            } else {
                let s = sim.similarity(lraw, rraw);
                if s >= theta {
                    out.push(MatchPair::approximate(l.clone(), r.clone(), s));
                }
            }
        }
    }
    Ok(out)
}

/// Each record of `relation` with its raw and its normalised key.
fn keyed<'r>(
    relation: &'r Relation,
    column: usize,
    config: &NormalizeConfig,
) -> Result<Vec<(&'r Record, &'r str, String)>> {
    relation
        .records()
        .iter()
        .map(|record| {
            let raw = record.key_str(column)?;
            Ok((record, raw, normalize(raw, config)))
        })
        .collect()
}

/// One feed tuple as [`stream_similarity`] sees it.
struct Tuple<'a> {
    sided: &'a SidedRecord,
    key: String,
    grams: StringGramSet,
}

impl Tuple<'_> {
    /// The pair of this (probing) tuple and `other`, oriented left/right;
    /// `None` is the exact kind.
    fn pair(&self, other: &Tuple, similarity: Option<f64>) -> MatchPair {
        let (l, r) = match self.sided.side {
            Side::Left => (self, other),
            Side::Right => (other, self),
        };
        let (l, r) = (l.sided.record.clone(), r.sided.record.clone());
        match similarity {
            None => MatchPair::exact(l, r),
            Some(s) => MatchPair::approximate(l, r, s),
        }
    }
}

/// The match stream of the adaptive join over `feed`, by nested loops in
/// arrival order — the reference every kernel path is compared with, pair
/// by pair.
///
/// `switch_at = None` never switches; `Some(k)` switches before tuple `k`
/// (after the last tuple when `k` is the feed length).
///
/// * **Exact phase** (tuples before `k`, or all): each tuple emits an
///   exact pair with every earlier opposite tuple whose normalised key is
///   equal, in arrival order.
/// * **Recovery at `k`**: every left tuple of the prefix, in arrival
///   order, probes every right tuple of the prefix, in arrival order.  A
///   candidate with an unequal key emits an approximate pair when its
///   similarity reaches `theta`; equal keys were emitted by the exact
///   phase.
/// * **From `k` on**: each tuple probes every earlier opposite tuple in
///   arrival order.  A candidate with an equal key emits an exact pair;
///   any other emits an approximate pair when its similarity reaches
///   `theta`.
///
/// A candidate shares at least one gram with the probing tuple, and at
/// least `min_overlap(|probe|, theta)`.  Tuple `i` is scored under
/// `coefficient_at(i)` and the recovery under `coefficient_at(k)`.  Keys
/// are tokenised into [`StringGramSet`]s: no interner, no index.
pub fn stream_similarity(
    feed: &[SidedRecord],
    keys: PerSide<usize>,
    config: &QGramConfig,
    theta: f64,
    switch_at: Option<usize>,
    coefficient_at: impl Fn(usize) -> QGramCoefficient,
) -> Result<Vec<MatchPair>> {
    let exact_until = switch_at.unwrap_or(feed.len());
    if exact_until > feed.len() {
        return Err(LinkageError::config(format!(
            "switch at tuple {exact_until} is past the end of a {}-tuple feed",
            feed.len()
        )));
    }
    let tuples = feed
        .iter()
        .map(|sided| {
            let raw = sided.record.key_str(keys[sided.side])?;
            Ok(Tuple {
                sided,
                key: normalize(raw, &config.normalize),
                grams: StringGramSet::extract(raw, config),
            })
        })
        .collect::<Result<Vec<_>>>()?;

    // The candidate rule: the shared-gram count, if `other` is one for
    // `probe` under `coefficient`.
    let shared = |probe: &Tuple, other: &Tuple, coefficient: QGramCoefficient| {
        let shared = probe.grams.intersection_size(&other.grams);
        let bound = coefficient.min_overlap(probe.grams.len(), theta);
        (shared >= 1 && shared >= bound).then_some(shared)
    };
    // The similarity of a candidate with an unequal key, if it reaches θ.
    let similar = |probe: &Tuple, other: &Tuple, coefficient: QGramCoefficient| {
        let shared = shared(probe, other, coefficient)?;
        let sim = coefficient.from_overlap(probe.grams.len(), other.grams.len(), shared);
        (sim >= theta).then_some(sim)
    };

    let mut out = Vec::new();
    for i in 0..=tuples.len() {
        if Some(i) == switch_at {
            let coefficient = coefficient_at(i);
            let prefix = &tuples[..i];
            for l in prefix.iter().filter(|t| t.sided.side == Side::Left) {
                for r in prefix.iter().filter(|t| t.sided.side == Side::Right) {
                    if l.key != r.key {
                        if let Some(sim) = similar(l, r, coefficient) {
                            out.push(l.pair(r, Some(sim)));
                        }
                    }
                }
            }
        }
        let Some(t) = tuples.get(i) else { break };
        let coefficient = coefficient_at(i);
        for earlier in tuples[..i].iter().filter(|e| e.sided.side != t.sided.side) {
            if earlier.key == t.key {
                if i < exact_until || shared(t, earlier, coefficient).is_some() {
                    out.push(t.pair(earlier, None));
                }
            } else if i >= exact_until {
                if let Some(sim) = similar(t, earlier, coefficient) {
                    out.push(t.pair(earlier, Some(sim)));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExactJoinCore, SshJoinCore};
    use linkage_text::QGramJaccard;
    use linkage_types::{Field, MatchKind, Record, Schema, Value};
    use std::collections::VecDeque;

    const KEYS: PerSide<usize> = PerSide { left: 0, right: 0 };

    fn relation(name: &str, keys: &[&str]) -> Relation {
        let mut rel = Relation::empty(name, Schema::of(vec![Field::string("k")]));
        for k in keys {
            rel.push_values(vec![Value::string(*k)]).unwrap();
        }
        rel
    }

    fn sided(side: Side, id: u64, key: &str) -> SidedRecord {
        SidedRecord::new(side, Record::new(id, vec![Value::string(key)]))
    }

    /// The stream view: ids, kind and similarity bits.
    fn view(pairs: &[MatchPair]) -> Vec<(u64, u64, MatchKind)> {
        pairs
            .iter()
            .map(|p| (p.left.id.as_u64(), p.right.id.as_u64(), p.kind))
            .collect()
    }

    /// What the interned kernels emit over `feed`: the exact core before
    /// `switch_at`, the §3.3 handover, then the SSH core.
    fn kernel_stream(
        feed: &[SidedRecord],
        config: &QGramConfig,
        switch_at: Option<usize>,
    ) -> Vec<MatchPair> {
        let at = switch_at.unwrap_or(feed.len());
        let mut out = VecDeque::new();
        let mut exact = ExactJoinCore::new(KEYS, config.normalize);
        for t in &feed[..at] {
            exact.process(t.clone(), &mut out).unwrap();
        }
        if switch_at.is_some() {
            let (mut ssh, _) = SshJoinCore::new(KEYS, config.clone(), 0.8)
                .with_exact_state(exact.into_tables(), &mut out);
            for t in &feed[at..] {
                ssh.process(t.clone(), &mut out).unwrap();
            }
        }
        out.into()
    }

    #[test]
    fn exact_oracle_finds_all_equal_pairs() {
        // The stream oracle that never switches is the exact join.
        let feed = [
            sided(Side::Left, 0, "a"),
            sided(Side::Right, 0, "a"),
            sided(Side::Left, 1, "b"),
            sided(Side::Right, 1, "c"),
            sided(Side::Left, 2, "a"),
        ];
        let pairs = stream_similarity(&feed, KEYS, &QGramConfig::default(), 0.8, None, |_| {
            QGramCoefficient::Jaccard
        })
        .unwrap();
        assert_eq!(
            view(&pairs),
            [(0, 0, MatchKind::Exact), (2, 0, MatchKind::Exact)]
        );
    }

    #[test]
    fn similarity_oracle_classifies_equal_vs_similar() {
        let left = relation("l", &["LIG GE GENOVA NERVI CAPOLUNGO"]);
        let right = relation(
            "r",
            &[
                "LIG GE GENOVA NERVI CAPOLUNGO",
                "LIG GE GENOVA NERVx CAPOLUNGO",
                "ROMA",
            ],
        );
        let sim = QGramJaccard::default();
        let pairs = nested_loop_similarity(
            &left,
            &right,
            PerSide::new(0, 0),
            &NormalizeConfig::default(),
            &sim,
            0.8,
        )
        .unwrap();
        assert_eq!(pairs.len(), 2);
        assert!(pairs[0].kind.is_exact());
        assert!(pairs[1].kind.is_approximate());
    }

    const A: &str = "TAA BZ SANTA CRISTINA VALGARDENA";
    const A_TYPO: &str = "TAA BZ SANTA CRISTINx VALGARDENA";
    const B: &str = "LIG GE GENOVA NERVI";

    #[test]
    fn five_tuple_feed_switching_at_three_emits_the_written_out_stream() {
        let feed = [
            sided(Side::Left, 0, A),
            sided(Side::Right, 0, A_TYPO),
            sided(Side::Right, 1, B),
            sided(Side::Left, 1, B),
            sided(Side::Left, 2, A_TYPO),
        ];
        let config = QGramConfig::default();
        let pairs = stream_similarity(&feed, KEYS, &config, 0.8, Some(3), |_| {
            QGramCoefficient::Jaccard
        })
        .unwrap();
        // Nothing is equal among the first three tuples.  Recovery pairs
        // L0 with R0: A's 34 padded grams and A_TYPO's share all but the
        // three around the typo, Jaccard 31 / (34 + 34 − 31).  L1 then
        // meets R1's equal key, and L2 meets R0's.
        let expected = [
            (
                0,
                0,
                MatchKind::Approximate {
                    similarity: 31.0 / 37.0,
                },
            ),
            (1, 1, MatchKind::Exact),
            (2, 0, MatchKind::Exact),
        ];
        assert_eq!(view(&pairs), expected);
        assert_eq!(view(&kernel_stream(&feed, &config, Some(3))), expected);
    }

    #[test]
    fn equal_keys_without_grams_match_only_in_the_exact_phase() {
        // A key that normalises to nothing has no grams (a non-empty key
        // shorter than q still has one: itself).  The exact phase compares
        // keys; the SSH kernel only ever sees a candidate through a shared
        // gram.
        let config = QGramConfig::default();
        let feed = [
            sided(Side::Left, 0, ""),
            sided(Side::Right, 0, "   "),
            sided(Side::Left, 1, ""),
        ];
        for (switch_at, expected) in [
            (
                None,
                vec![(0, 0, MatchKind::Exact), (1, 0, MatchKind::Exact)],
            ),
            (Some(2), vec![(0, 0, MatchKind::Exact)]),
            (Some(0), vec![]),
        ] {
            let pairs = stream_similarity(&feed, KEYS, &config, 0.8, switch_at, |_| {
                QGramCoefficient::Jaccard
            })
            .unwrap();
            assert_eq!(view(&pairs), expected, "switch at {switch_at:?}");
            assert_eq!(
                view(&kernel_stream(&feed, &config, switch_at)),
                expected,
                "kernel, switch at {switch_at:?}"
            );
        }
    }

    #[test]
    fn a_switch_past_the_feed_is_a_config_error() {
        let feed = [sided(Side::Left, 0, A)];
        let err = stream_similarity(&feed, KEYS, &QGramConfig::default(), 0.8, Some(2), |_| {
            QGramCoefficient::Jaccard
        })
        .unwrap_err();
        assert!(matches!(err, LinkageError::Config(_)), "{err}");
    }
}
