//! Q-gram extraction.
//!
//! The paper (§2.2) defines `q(s)` as "the set of all substrings obtained by
//! sliding a window of width q (typically, q = 3) over s" and its cost model
//! (Table 1) assumes a string whose join attribute has `|jA|` characters
//! yields `|jA| + q − 1` q-grams.  That count corresponds to the classic
//! padded-q-gram convention (Gravano et al.): the string is logically
//! extended with `q − 1` copies of a begin marker and `q − 1` copies of an
//! end marker, giving `|s| + q − 1` windows, of which duplicates are removed
//! when the *set* is taken.
//!
//! Two set representations share the window enumeration:
//!
//! * [`QGramSet`] — the production representation: each gram is interned to
//!   a dense [`GramId`] through a [`GramInterner`], and the set is a sorted
//!   `Vec<GramId>`.  Set operations are integer merges and the approximate
//!   join's inverted index can use ids as direct array indexes — no string
//!   hashing anywhere on the probe path.  At `q ≤ 3` tokenisation builds no
//!   strings either: each window is a rolling integer key (see
//!   `intern::PackedGram`).
//! * [`StringGramSet`] — the retained string-keyed reference: sorted
//!   `Arc<str>` grams, exactly the representation the kernel used before
//!   interning.  The standalone similarity functions build on it (they
//!   compare one pair at a time, where an interner would be pure overhead)
//!   and the property suites probe the interned kernel against it.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::intern::{GramId, GramInterner, PackedGram};
use crate::normalize::{normalize, NormalizeConfig};

/// A single q-gram as shared text.
///
/// Grams are shared behind an `Arc<str>` wherever they are kept as strings
/// (the [`StringGramSet`] reference path and the interner's own table), so
/// the memory cost stays at the `n · (|jA| + q − 1) · p` pointers the
/// paper's §2.3 space analysis assumes rather than duplicating string data
/// per posting.
pub type Gram = Arc<str>;

/// Configuration for q-gram extraction.
///
/// `#[non_exhaustive]`: construct via [`Default`], [`QGramConfig::with_q`]
/// or [`QGramConfig::unpadded`] so new knobs can be added without breaking
/// downstream crates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct QGramConfig {
    /// Window width. The paper uses `q = 3`.
    pub q: usize,
    /// Whether to pad with `q − 1` begin/end markers. Padding is what makes
    /// the gram count equal `|s| + q − 1` and gives prefix/suffix characters
    /// the same weight as interior ones.
    pub pad: bool,
    /// Character used for the begin marker (must not occur in input).
    pub pad_begin: char,
    /// Character used for the end marker (must not occur in input).
    pub pad_end: char,
    /// Normalisation applied to the string before tokenisation.
    pub normalize: NormalizeConfig,
}

impl Default for QGramConfig {
    fn default() -> Self {
        Self {
            q: linkage_types::defaults::Q,
            pad: true,
            pad_begin: '\u{2310}', // '⌐', outside the generator's alphabet
            pad_end: '\u{00B6}',   // '¶'
            normalize: NormalizeConfig::default(),
        }
    }
}

impl QGramConfig {
    /// Configuration with a custom window width and default padding.
    pub fn with_q(q: usize) -> Self {
        Self {
            q,
            ..Self::default()
        }
    }

    /// Configuration without padding (gram count `max(|s| − q + 1, 0/1)`).
    pub fn unpadded(q: usize) -> Self {
        Self {
            q,
            pad: false,
            ..Self::default()
        }
    }

    /// Number of (non-deduplicated) windows this configuration produces for a
    /// string of `len` characters — the `|jA| + q − 1` of the paper when
    /// padding is on.
    pub fn expected_window_count(&self, len: usize) -> usize {
        if self.q == 0 {
            return 0;
        }
        if self.pad {
            if len == 0 {
                0
            } else {
                len + self.q - 1
            }
        } else if len >= self.q {
            len - self.q + 1
        } else if len == 0 {
            0
        } else {
            1 // the whole (short) string is taken as a single gram
        }
    }
}

/// The characters the window slides over: `normalized`, with `q − 1`
/// begin and end markers around it when padding is on.  Both window
/// enumerations below read this sequence, so they tokenise identically.
fn padded_chars<'a>(normalized: &'a str, config: &QGramConfig) -> impl Iterator<Item = char> + 'a {
    let pad = if config.pad { config.q - 1 } else { 0 };
    std::iter::repeat_n(config.pad_begin, pad)
        .chain(normalized.chars())
        .chain(std::iter::repeat_n(config.pad_end, pad))
}

/// Enumerate the sliding windows of the already normalised `normalized`
/// under `config`, calling `f` with each window's text.  Returns the
/// window count (the paper's `|jA| + q − 1` with padding).
fn for_each_window(normalized: &str, config: &QGramConfig, mut f: impl FnMut(&str)) -> usize {
    if config.q == 0 || normalized.is_empty() {
        return 0;
    }
    let chars: Vec<char> = padded_chars(normalized, config).collect();
    let mut buf = String::with_capacity(config.q * 4);
    if chars.len() < config.q {
        // Unpadded short string: take the whole string as one gram.
        buf.extend(chars.iter());
        f(&buf);
        return 1;
    }
    let mut window_count = 0usize;
    for window in chars.windows(config.q) {
        buf.clear();
        buf.extend(window.iter());
        f(&buf);
        window_count += 1;
    }
    window_count
}

/// [`for_each_window`] for `q ≤ PackedGram::MAX_CHARS`, without building
/// any string: the window is a rolling [`PackedGram`] and `f` receives
/// one key per window.
fn for_each_packed_window(
    normalized: &str,
    config: &QGramConfig,
    mut f: impl FnMut(PackedGram),
) -> usize {
    if config.q == 0 || normalized.is_empty() {
        return 0;
    }
    let mut window = PackedGram::default();
    let mut fed = 0usize;
    for c in padded_chars(normalized, config) {
        window = window.slide(c, config.q);
        fed += 1;
        if fed >= config.q {
            f(window);
        }
    }
    if fed < config.q {
        // Unpadded short string: take the whole string as one gram.
        f(window);
        return 1;
    }
    fed + 1 - config.q
}

/// The deduplicated, **interned** q-gram set of one string.
///
/// Grams are dense [`GramId`]s kept sorted, so set operations
/// (intersection/union sizes, hence Jaccard/Dice/overlap) are linear
/// integer merges, and the approximate join's flat posting lists can be
/// indexed directly by id.  Two sets are only comparable when their ids
/// come from the **same** [`GramInterner`] (or [`SharedInterner`]
/// handles over the same table) — which is also why this type is *not*
/// serialisable: bare ids are meaningless outside the issuing interner,
/// so a round-tripped set would intersect as structurally valid garbage.
/// Serialise the self-contained [`StringGramSet`] instead.
///
/// [`SharedInterner`]: crate::intern::SharedInterner
#[derive(Debug, Clone, Default)]
pub struct QGramSet {
    grams: Vec<GramId>,
    /// The same ids permuted **rare-first** (ascending document frequency
    /// at extraction time, ties by id) — the traversal order of the probe
    /// prefix.  A snapshot: later extractions of the same string may rank
    /// differently as frequencies evolve, which is why equality ignores
    /// this field.
    probe_order: Vec<GramId>,
    /// Number of windows before deduplication (used by the cost model).
    window_count: usize,
}

/// Two sets are equal when they contain the same ids (and saw the same
/// window count) — the rare-first [`QGramSet::probe_order`] is a
/// frequency *snapshot*, not part of the set's identity.
impl PartialEq for QGramSet {
    fn eq(&self, other: &Self) -> bool {
        self.grams == other.grams && self.window_count == other.window_count
    }
}

impl Eq for QGramSet {}

impl QGramSet {
    /// Extract the q-gram set of `input` under `config`, interning each
    /// distinct gram through `interner`.
    ///
    /// Extraction also **notes the set** in the interner's document-
    /// frequency sidecar (once per distinct gram) and snapshots the
    /// rare-first [`Self::probe_order`] from the updated frequencies.
    pub fn extract(input: &str, config: &QGramConfig, interner: &mut GramInterner) -> Self {
        Self::extract_normalized(&normalize(input, &config.normalize), config, interner)
    }

    /// [`Self::extract`] for a key that already went through
    /// [`normalize`] under `config.normalize` — the join normalises each
    /// key once, for its equality test, and tokenises that text.
    pub fn extract_normalized(
        normalized: &str,
        config: &QGramConfig,
        interner: &mut GramInterner,
    ) -> Self {
        let mut grams: Vec<GramId> = Vec::new();
        let window_count = if config.q <= PackedGram::MAX_CHARS {
            for_each_packed_window(normalized, config, |window| {
                grams.push(interner.intern_packed(window));
            })
        } else {
            for_each_window(normalized, config, |window| {
                grams.push(interner.intern(window));
            })
        };
        grams.sort_unstable();
        grams.dedup();
        interner.note_document(&grams);
        let probe_order = interner.rank_order(&grams);
        Self {
            grams,
            probe_order,
            window_count,
        }
    }

    /// Reassemble a set from its snapshot columns: the sorted id column,
    /// the rare-first permutation captured at original extraction time,
    /// and the pre-dedup window count.
    ///
    /// **Snapshot restore only.**  The caller owns the invariants
    /// `extract` normally guarantees — `grams` sorted ascending and
    /// distinct, `probe_order` a permutation of `grams`, and every id
    /// issued by the interner the set will be used with.  The snapshot
    /// decoder validates the first two; the last is what shipping the
    /// interner section alongside every core section is for.  Preserving
    /// the *original* probe order (rather than re-ranking against
    /// restored frequencies) is what makes a resumed run scan posting
    /// lists in exactly the order the interrupted run would have.
    pub fn from_parts(grams: Vec<GramId>, probe_order: Vec<GramId>, window_count: usize) -> Self {
        debug_assert!(grams.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
        debug_assert_eq!(grams.len(), probe_order.len());
        Self {
            grams,
            probe_order,
            window_count,
        }
    }

    /// Number of **distinct** grams.
    pub fn len(&self) -> usize {
        self.grams.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.grams.is_empty()
    }

    /// Number of sliding windows before deduplication (`|s| + q − 1` with
    /// padding).  This is the quantity the paper's cost model uses.
    pub fn window_count(&self) -> usize {
        self.window_count
    }

    /// The gram ids, sorted ascending.
    pub fn gram_ids(&self) -> &[GramId] {
        &self.grams
    }

    /// The gram ids in rare-first rank order (ascending document
    /// frequency at extraction time) — the order the prefix filter scans
    /// posting lists in.  Same distinct ids as [`Self::gram_ids`],
    /// permuted.
    pub fn probe_order(&self) -> &[GramId] {
        &self.probe_order
    }

    /// Estimated heap bytes of the id storage (both the sorted column
    /// and the rare-first permutation) — what the operators' state
    /// accounting charges per resident tuple.
    pub fn ids_bytes(&self) -> usize {
        (self.grams.len() + self.probe_order.len()) * std::mem::size_of::<GramId>()
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: GramId) -> bool {
        self.grams.binary_search(&id).is_ok()
    }

    /// Iterator over the gram ids.
    pub fn iter(&self) -> impl Iterator<Item = GramId> + '_ {
        self.grams.iter().copied()
    }

    /// `|self ∩ other|` by sorted merge.  Both sets must come from the
    /// same interner.
    pub fn intersection_size(&self, other: &QGramSet) -> usize {
        overlap_at_least(&self.grams, &other.grams, 0).unwrap_or(0)
    }

    /// `|self ∪ other|`.  Both sets must come from the same interner.
    pub fn union_size(&self, other: &QGramSet) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }

    /// The Jaccard coefficient `|A ∩ B| / |A ∪ B|` (the paper's `sim`).
    /// Both sets must come from the same interner.
    ///
    /// Two empty sets have similarity 1 (identical); an empty set against a
    /// non-empty set has similarity 0.
    pub fn jaccard(&self, other: &QGramSet) -> f64 {
        if self.is_empty() && other.is_empty() {
            return 1.0;
        }
        let inter = self.intersection_size(other);
        let union = self.len() + other.len() - inter;
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// The Jaccard similarity implied by an externally counted intersection
    /// size — the formula the approximate join uses once its per-candidate
    /// counters are known: `c / (|A| + |B| − c)`.
    ///
    /// Delegates to [`QGramCoefficient::Jaccard`], the single home of the
    /// coefficient arithmetic.
    ///
    /// [`QGramCoefficient::Jaccard`]: crate::similarity::QGramCoefficient
    pub fn jaccard_from_overlap(len_a: usize, len_b: usize, overlap: usize) -> f64 {
        crate::similarity::QGramCoefficient::Jaccard.from_overlap(len_a, len_b, overlap)
    }

    /// Minimum number of common grams two sets must share for their Jaccard
    /// similarity to possibly reach `threshold`, given that this set has
    /// `self.len()` grams: `⌈θ · |A|⌉`.
    ///
    /// This is the bound the approximate join uses to drive the
    /// reverse-frequency prefix optimisation (§2.2, point 4 and following
    /// paragraph): if `J(A, B) ≥ θ` then `|A ∩ B| ≥ θ·|A ∪ B| ≥ θ·|A|`.
    /// Delegates to [`QGramCoefficient::Jaccard`]; the other coefficients
    /// carry their own sound bounds there.
    ///
    /// [`QGramCoefficient::Jaccard`]: crate::similarity::QGramCoefficient
    pub fn min_overlap_for(&self, threshold: f64) -> usize {
        crate::similarity::QGramCoefficient::Jaccard.min_overlap(self.len(), threshold)
    }
}

/// Size ratio beyond which [`overlap_at_least`] switches from the linear
/// merge to galloping (exponential search) over the longer side.
const GALLOP_RATIO: usize = 8;

/// Exact `|a ∩ b|` of two sorted, deduplicated [`GramId`] slices — unless
/// the intersection provably cannot reach `min`, in which case `None` is
/// returned as soon as that is known (`count so far + elements left on
/// the shorter side < min`).
///
/// This is the approximate join's **merge-based verification** primitive:
/// a prefix-filtered candidate's overlap is computed exactly here instead
/// of being accumulated posting list by posting list, and candidates that
/// cannot reach the coefficient's `min_overlap` bound exit early.  When
/// one side is ≥ `GALLOP_RATIO` (8)× longer than the other, the merge
/// gallops (exponential search) through the longer side, so lopsided
/// intersections cost `O(short · log long)` instead of `O(long)`.
///
/// `min == 0` never exits early and always yields the exact size.
pub fn overlap_at_least<'s>(mut a: &'s [GramId], mut b: &'s [GramId], min: usize) -> Option<usize> {
    let mut count = 0usize;
    while !a.is_empty() && !b.is_empty() {
        // Keep `a` the shorter side; the early exit and the gallop both
        // key off it.
        if a.len() > b.len() {
            std::mem::swap(&mut a, &mut b);
        }
        if count + a.len() < min {
            return None;
        }
        if b.len() >= GALLOP_RATIO * a.len() {
            let target = a[0];
            let pos = lower_bound_gallop(b, target);
            if b.get(pos) == Some(&target) {
                count += 1;
                b = &b[pos + 1..];
            } else {
                b = &b[pos..];
            }
            a = &a[1..];
            continue;
        }
        match a[0].cmp(&b[0]) {
            std::cmp::Ordering::Less => a = &a[1..],
            std::cmp::Ordering::Greater => b = &b[1..],
            std::cmp::Ordering::Equal => {
                count += 1;
                a = &a[1..];
                b = &b[1..];
            }
        }
    }
    (count >= min).then_some(count)
}

/// First index of sorted `b` whose element is `>= target`, found by
/// exponential probing followed by a binary search over the bracketed
/// range — `O(log position)` rather than `O(log |b|)` when the target
/// sits near the front, which is the common case while merging.
fn lower_bound_gallop(b: &[GramId], target: GramId) -> usize {
    let mut bound = 1;
    while bound < b.len() && b[bound] < target {
        bound *= 2;
    }
    let lo = bound / 2;
    let hi = bound.min(b.len());
    lo + b[lo..hi].partition_point(|&x| x < target)
}

impl fmt::Display for QGramSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, g) in self.grams.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "#{}", g.as_u32())?;
        }
        write!(f, "}}")
    }
}

/// The deduplicated q-gram set of one string, as sorted shared text — the
/// retained string-keyed reference representation.
///
/// This is exactly the set the probe kernel used before gram interning:
/// the reference probe in `linkage-operators` and the oracle-vs-kernel
/// property suites keep it alive so the interned fast path always has an
/// independently implemented twin to be checked against.  Self-contained
/// (no interner), hence also what the standalone [`StringSimilarity`]
/// implementations tokenise with.
///
/// [`StringSimilarity`]: crate::similarity::StringSimilarity
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct StringGramSet {
    grams: Vec<Gram>,
    /// Number of windows before deduplication (used by the cost model).
    window_count: usize,
}

impl StringGramSet {
    /// Extract the q-gram set of `input` under `config`.
    pub fn extract(input: &str, config: &QGramConfig) -> Self {
        let mut set: BTreeSet<Gram> = BTreeSet::new();
        let normalized = normalize(input, &config.normalize);
        let window_count = for_each_window(&normalized, config, |window| {
            if !set.contains(window) {
                set.insert(Arc::from(window));
            }
        });
        Self {
            grams: set.into_iter().collect(),
            window_count,
        }
    }

    /// Extract with the default configuration (`q = 3`, padded).
    pub fn extract_default(input: &str) -> Self {
        Self::extract(input, &QGramConfig::default())
    }

    /// Number of **distinct** grams.
    pub fn len(&self) -> usize {
        self.grams.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.grams.is_empty()
    }

    /// Number of sliding windows before deduplication.
    pub fn window_count(&self) -> usize {
        self.window_count
    }

    /// The grams, sorted ascending.
    pub fn grams(&self) -> &[Gram] {
        &self.grams
    }

    /// Whether `gram` is a member.
    pub fn contains(&self, gram: &str) -> bool {
        self.grams
            .binary_search_by(|g| g.as_ref().cmp(gram))
            .is_ok()
    }

    /// Iterator over the grams.
    pub fn iter(&self) -> impl Iterator<Item = &Gram> {
        self.grams.iter()
    }

    /// `|self ∩ other|` by sorted merge.
    pub fn intersection_size(&self, other: &StringGramSet) -> usize {
        let mut i = 0;
        let mut j = 0;
        let mut count = 0;
        while i < self.grams.len() && j < other.grams.len() {
            match self.grams[i].cmp(&other.grams[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// `|self ∪ other|`.
    pub fn union_size(&self, other: &StringGramSet) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }

    /// The Jaccard coefficient `|A ∩ B| / |A ∪ B|` (the paper's `sim`).
    pub fn jaccard(&self, other: &StringGramSet) -> f64 {
        if self.is_empty() && other.is_empty() {
            return 1.0;
        }
        let inter = self.intersection_size(other);
        let union = self.len() + other.len() - inter;
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }
}

impl fmt::Display for StringGramSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, g) in self.grams.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{g:?}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unpadded_ascii(q: usize) -> QGramConfig {
        QGramConfig {
            normalize: NormalizeConfig::none(),
            ..QGramConfig::unpadded(q)
        }
    }

    fn padded_ascii(q: usize) -> QGramConfig {
        QGramConfig {
            normalize: NormalizeConfig::none(),
            pad_begin: '#',
            pad_end: '$',
            ..QGramConfig::with_q(q)
        }
    }

    fn interned(input: &str, config: &QGramConfig) -> (QGramSet, GramInterner) {
        let mut interner = GramInterner::new();
        let set = QGramSet::extract(input, config, &mut interner);
        (set, interner)
    }

    #[test]
    fn unpadded_trigram_extraction() {
        let set = StringGramSet::extract("abcde", &unpadded_ascii(3));
        let grams: Vec<&str> = set.iter().map(|g| g.as_ref()).collect();
        assert_eq!(grams, vec!["abc", "bcd", "cde"]);
        assert_eq!(set.window_count(), 3);
    }

    #[test]
    fn padded_trigram_extraction_counts_paper_formula() {
        let set = StringGramSet::extract("abcde", &padded_ascii(3));
        // |s| + q - 1 = 5 + 2 = 7 windows.
        assert_eq!(set.window_count(), 7);
        assert!(set.contains("##a"));
        assert!(set.contains("#ab"));
        assert!(set.contains("de$"));
        assert!(set.contains("e$$"));
        assert_eq!(set.len(), 7);
    }

    #[test]
    fn interned_extraction_mirrors_string_extraction() {
        for (input, config) in [
            ("abcde", padded_ascii(3)),
            ("abcde", unpadded_ascii(3)),
            ("aaaa", unpadded_ascii(2)),
            ("ab", unpadded_ascii(5)),
            ("", QGramConfig::default()),
            ("Santa  Cristina", QGramConfig::default()),
        ] {
            let strings = StringGramSet::extract(input, &config);
            let (ids, interner) = interned(input, &config);
            assert_eq!(ids.len(), strings.len(), "{input:?}");
            assert_eq!(ids.window_count(), strings.window_count(), "{input:?}");
            let mut resolved: Vec<&str> = ids
                .iter()
                .map(|id| interner.resolve(id).expect("unknown id"))
                .collect();
            resolved.sort_unstable();
            let expected: Vec<&str> = strings.iter().map(|g| g.as_ref()).collect();
            assert_eq!(resolved, expected, "{input:?}");
        }
    }

    #[test]
    fn interned_sets_share_ids_across_extractions() {
        let mut interner = GramInterner::new();
        let cfg = unpadded_ascii(3);
        let a = QGramSet::extract("abcdef", &cfg, &mut interner);
        let b = QGramSet::extract("abcdef", &cfg, &mut interner);
        let c = QGramSet::extract("uvwxyz", &cfg, &mut interner);
        assert_eq!(a, b, "same string, same interner: identical id sets");
        assert_eq!(a.intersection_size(&c), 0);
        assert_eq!(a.jaccard(&b), 1.0);
        assert_eq!(a.jaccard(&c), 0.0);
        assert!(a.contains(interner.get("abc").unwrap()));
        assert!(!c.contains(interner.get("abc").unwrap()));
    }

    #[test]
    fn expected_window_count_matches_extraction() {
        for len in 0usize..20 {
            let s: String = (0..len)
                .map(|i| char::from(b'a' + (i % 26) as u8))
                .collect();
            for q in 1usize..5 {
                let padded = QGramConfig {
                    normalize: NormalizeConfig::none(),
                    pad_begin: '#',
                    pad_end: '$',
                    ..QGramConfig::with_q(q)
                };
                let set = StringGramSet::extract(&s, &padded);
                assert_eq!(
                    set.window_count(),
                    padded.expected_window_count(s.chars().count()),
                    "padded len={len} q={q}"
                );
                let (set, _) = interned(&s, &padded);
                assert_eq!(
                    set.window_count(),
                    padded.expected_window_count(s.chars().count()),
                    "interned padded len={len} q={q}"
                );
                let unpadded = unpadded_ascii(q);
                let set = StringGramSet::extract(&s, &unpadded);
                assert_eq!(
                    set.window_count(),
                    unpadded.expected_window_count(s.chars().count()),
                    "unpadded len={len} q={q}"
                );
            }
        }
    }

    #[test]
    fn duplicate_windows_are_deduplicated_in_set() {
        let (set, _) = interned("aaaa", &unpadded_ascii(2));
        assert_eq!(set.len(), 1);
        assert_eq!(set.window_count(), 3);
    }

    #[test]
    fn empty_and_zero_q_inputs() {
        let mut interner = GramInterner::new();
        assert!(QGramSet::extract("", &QGramConfig::default(), &mut interner).is_empty());
        assert!(QGramSet::extract("abc", &QGramConfig::with_q(0), &mut interner).is_empty());
        let short = QGramSet::extract("ab", &unpadded_ascii(5), &mut interner);
        assert_eq!(short.len(), 1);
        assert!(short.contains(interner.get("ab").unwrap()));
    }

    #[test]
    fn normalization_is_applied_before_tokenising() {
        let mut interner = GramInterner::new();
        let set_a = QGramSet::extract("Santa  Cristina", &QGramConfig::default(), &mut interner);
        let set_b = QGramSet::extract("SANTA CRISTINA", &QGramConfig::default(), &mut interner);
        assert_eq!(set_a, set_b);
    }

    #[test]
    fn jaccard_of_single_edit_is_high_for_long_strings() {
        let cfg = QGramConfig::default();
        let mut interner = GramInterner::new();
        let a = QGramSet::extract("TAA BZ SANTA CRISTINA VALGARDENA", &cfg, &mut interner);
        let b = QGramSet::extract("TAA BZ SANTA CRISTINx VALGARDENA", &cfg, &mut interner);
        let sim = a.jaccard(&b);
        assert!(
            sim > 0.8,
            "one-character variant should stay similar: {sim}"
        );
        assert!(sim < 1.0);
    }

    #[test]
    fn jaccard_empty_set_conventions() {
        let cfg = QGramConfig::default();
        let mut interner = GramInterner::new();
        let empty = QGramSet::extract("", &cfg, &mut interner);
        let non_empty = QGramSet::extract("abc", &cfg, &mut interner);
        assert_eq!(empty.jaccard(&empty), 1.0);
        assert_eq!(empty.jaccard(&non_empty), 0.0);
        assert_eq!(non_empty.jaccard(&empty), 0.0);
    }

    #[test]
    fn jaccard_from_overlap_matches_direct_computation() {
        let cfg = QGramConfig::default();
        let mut interner = GramInterner::new();
        let a = QGramSet::extract("GENOVA NERVI", &cfg, &mut interner);
        let b = QGramSet::extract("GENOVA QUARTO", &cfg, &mut interner);
        let overlap = a.intersection_size(&b);
        let direct = a.jaccard(&b);
        let derived = QGramSet::jaccard_from_overlap(a.len(), b.len(), overlap);
        assert!((direct - derived).abs() < 1e-12);
    }

    #[test]
    fn jaccard_from_overlap_clamps_inconsistent_overlap() {
        // Overlap larger than either set size cannot produce sim > 1.
        assert_eq!(QGramSet::jaccard_from_overlap(3, 3, 10), 1.0);
        assert_eq!(QGramSet::jaccard_from_overlap(0, 0, 0), 1.0);
        assert_eq!(QGramSet::jaccard_from_overlap(5, 0, 0), 0.0);
    }

    #[test]
    fn min_overlap_bound_is_sound() {
        let cfg = QGramConfig::default();
        let mut interner = GramInterner::new();
        let a = QGramSet::extract("SANTA CRISTINA", &cfg, &mut interner);
        let b = QGramSet::extract("SANTA CRISTINx", &cfg, &mut interner);
        let theta = 0.85;
        if a.jaccard(&b) >= theta {
            assert!(a.intersection_size(&b) >= a.min_overlap_for(theta));
        }
        assert_eq!(QGramSet::default().min_overlap_for(0.9), 0);
        assert!(a.min_overlap_for(0.0) >= 1);
        assert!(a.min_overlap_for(1.0) <= a.len());
    }

    #[test]
    fn probe_order_is_a_rare_first_permutation() {
        let mut interner = GramInterner::new();
        let cfg = unpadded_ascii(3);
        // "abcd" twice then "bcde" once: grams of "abcd" end up more
        // frequent than the ones unique to "bcde".
        QGramSet::extract("abcd", &cfg, &mut interner);
        QGramSet::extract("abcd", &cfg, &mut interner);
        let set = QGramSet::extract("bcde", &cfg, &mut interner);
        // Same ids, permuted.
        let mut sorted = set.probe_order().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, set.gram_ids());
        // Rare first: "cde" (seen once) precedes "bcd" (seen 3 times).
        let cde = interner.get("cde").unwrap();
        let bcd = interner.get("bcd").unwrap();
        let pos = |id| set.probe_order().iter().position(|&g| g == id).unwrap();
        assert!(pos(cde) < pos(bcd), "rare gram must come first");
    }

    #[test]
    fn overlap_at_least_matches_plain_intersection() {
        let cfg = QGramConfig::default();
        let mut interner = GramInterner::new();
        let a = QGramSet::extract("GENOVA NERVI", &cfg, &mut interner);
        let b = QGramSet::extract("GENOVA QUARTO", &cfg, &mut interner);
        let exact = a.intersection_size(&b);
        assert!(exact > 0);
        // Reachable bounds return the exact size; unreachable ones None.
        for min in 0..=exact {
            assert_eq!(
                overlap_at_least(a.gram_ids(), b.gram_ids(), min),
                Some(exact)
            );
        }
        assert_eq!(
            overlap_at_least(a.gram_ids(), b.gram_ids(), exact + 1),
            None
        );
        assert_eq!(overlap_at_least(a.gram_ids(), &[], 0), Some(0));
        assert_eq!(overlap_at_least(a.gram_ids(), &[], 1), None);
    }

    #[test]
    fn overlap_at_least_gallops_lopsided_inputs_correctly() {
        // One short side against a long one (ratio far beyond the gallop
        // threshold), with matches at the front, middle and back.
        let long: Vec<GramId> = (0..1000u32).map(GramId::new).collect();
        let short: Vec<GramId> = [0u32, 499, 999, 1500]
            .into_iter()
            .map(GramId::new)
            .collect();
        assert_eq!(overlap_at_least(&short, &long, 0), Some(3));
        assert_eq!(overlap_at_least(&long, &short, 0), Some(3), "symmetric");
        assert_eq!(overlap_at_least(&short, &long, 3), Some(3));
        assert_eq!(overlap_at_least(&short, &long, 4), None);
        // No overlap at all.
        let disjoint: Vec<GramId> = (2000..2004u32).map(GramId::new).collect();
        assert_eq!(overlap_at_least(&disjoint, &long, 0), Some(0));
        assert_eq!(overlap_at_least(&disjoint, &long, 1), None);
    }

    #[test]
    fn display_lists_gram_ids_and_strings() {
        let (set, _) = interned("ab", &unpadded_ascii(2));
        assert_eq!(set.to_string(), "{#0}");
        let set = StringGramSet::extract("ab", &unpadded_ascii(2));
        assert_eq!(set.to_string(), "{\"ab\"}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_key() -> impl Strategy<Value = String> {
        // Uppercase words similar to the generator's alphabet.
        proptest::collection::vec("[A-Z]{1,8}", 1..5).prop_map(|words| words.join(" "))
    }

    /// Keys over a small alphabet (so sets overlap) that exercises
    /// multi-byte and astral characters, a one-to-two uppercase expansion
    /// (`ß`) and whitespace, from empty up to a dozen characters.
    fn arb_unicode_key() -> impl Strategy<Value = String> {
        "[abAB éß𝄞😀]{0,12}"
    }

    proptest! {
        #[test]
        fn jaccard_is_symmetric(a in arb_key(), b in arb_key()) {
            let cfg = QGramConfig::default();
            let mut interner = GramInterner::new();
            let sa = QGramSet::extract(&a, &cfg, &mut interner);
            let sb = QGramSet::extract(&b, &cfg, &mut interner);
            prop_assert!((sa.jaccard(&sb) - sb.jaccard(&sa)).abs() < 1e-12);
        }

        #[test]
        fn jaccard_is_bounded_and_reflexive(a in arb_key(), b in arb_key()) {
            let cfg = QGramConfig::default();
            let mut interner = GramInterner::new();
            let sa = QGramSet::extract(&a, &cfg, &mut interner);
            let sb = QGramSet::extract(&b, &cfg, &mut interner);
            let sim = sa.jaccard(&sb);
            prop_assert!((0.0..=1.0).contains(&sim));
            prop_assert_eq!(sa.jaccard(&sa), 1.0);
        }

        #[test]
        fn intersection_never_exceeds_either_set(a in arb_key(), b in arb_key()) {
            let cfg = QGramConfig::default();
            let mut interner = GramInterner::new();
            let sa = QGramSet::extract(&a, &cfg, &mut interner);
            let sb = QGramSet::extract(&b, &cfg, &mut interner);
            let inter = sa.intersection_size(&sb);
            prop_assert!(inter <= sa.len());
            prop_assert!(inter <= sb.len());
            prop_assert_eq!(sa.union_size(&sb), sa.len() + sb.len() - inter);
        }

        #[test]
        fn padded_window_count_follows_paper_formula(a in arb_key()) {
            let cfg = QGramConfig::default();
            let mut interner = GramInterner::new();
            let set = QGramSet::extract(&a, &cfg, &mut interner);
            let normalized = crate::normalize::normalize(&a, &cfg.normalize);
            let chars = normalized.chars().count();
            if chars > 0 {
                prop_assert_eq!(set.window_count(), chars + cfg.q - 1);
            }
        }

        #[test]
        fn distinct_grams_bounded_by_windows(a in arb_key(), q in 1usize..5) {
            let cfg = QGramConfig::with_q(q);
            let mut interner = GramInterner::new();
            let set = QGramSet::extract(&a, &cfg, &mut interner);
            prop_assert!(set.len() <= set.window_count());
        }

        /// The interned set and the retained string-keyed set are the
        /// same set: equal sizes, equal window counts, and ids resolve to
        /// exactly the string grams — for every input and window width.
        #[test]
        fn interned_and_string_sets_agree(a in arb_key(), q in 1usize..5) {
            let cfg = QGramConfig::with_q(q);
            let strings = StringGramSet::extract(&a, &cfg);
            let mut interner = GramInterner::new();
            let ids = QGramSet::extract(&a, &cfg, &mut interner);
            prop_assert_eq!(ids.len(), strings.len());
            prop_assert_eq!(ids.window_count(), strings.window_count());
            let mut resolved: Vec<&str> = ids
                .iter()
                .map(|id| interner.resolve(id).expect("unknown id"))
                .collect();
            resolved.sort_unstable();
            let expected: Vec<&str> = strings.iter().map(|g| g.as_ref()).collect();
            prop_assert_eq!(resolved, expected);
        }

        /// Tokenising through rolling packed keys is indistinguishable
        /// from interning each window's text one by one — same ids in the
        /// same first-sight order, same rare-first orders, same window
        /// counts, same table columns (hence the same snapshot bytes) —
        /// over Unicode keys with characters above U+FFFF, keys shorter
        /// than `q`, and widths on both sides of the packing limit.  A
        /// table restored from those columns answers `get`/`intern` with
        /// the same ids and tokenises to the same sets.
        #[test]
        fn packed_interning_matches_interning_window_strings(
            keys in proptest::collection::vec(arb_unicode_key(), 1..6),
            q in 1usize..6,
            pad in 0usize..2,
        ) {
            let cfg = QGramConfig { pad: pad == 1, ..QGramConfig::with_q(q) };
            let mut fast = GramInterner::new();
            let mut slow = GramInterner::new();
            let mut sets = Vec::new();
            for key in &keys {
                let set = QGramSet::extract(key, &cfg, &mut fast);
                let mut ids = Vec::new();
                let normalized = normalize(key, &cfg.normalize);
                let windows = for_each_window(&normalized, &cfg, |w| ids.push(slow.intern(w)));
                ids.sort_unstable();
                ids.dedup();
                slow.note_document(&ids);
                prop_assert_eq!(set.gram_ids(), &ids[..]);
                prop_assert_eq!(set.probe_order(), &slow.rank_order(&ids)[..]);
                prop_assert_eq!(set.window_count(), windows);
                sets.push(set);
            }
            prop_assert_eq!(fast.texts(), slow.texts());
            prop_assert_eq!(fast.doc_freqs(), slow.doc_freqs());

            let mut restored =
                GramInterner::from_parts(fast.texts().to_vec(), fast.doc_freqs().to_vec()).unwrap();
            for (i, text) in fast.texts().iter().enumerate() {
                let id = GramId::new(i as u32);
                prop_assert_eq!(restored.get(text), Some(id));
                prop_assert_eq!(restored.intern(text), id);
            }
            for (key, set) in keys.iter().zip(&sets) {
                prop_assert_eq!(&QGramSet::extract(key, &cfg, &mut restored), set);
            }
            prop_assert_eq!(restored.len(), fast.len());
        }

        /// The early-exit/galloping merge agrees with the plain
        /// intersection for every input and every bound: exact size when
        /// reachable, `None` exactly when not.
        #[test]
        fn overlap_at_least_agrees_with_intersection_size(
            a in arb_key(),
            b in arb_key(),
            min in 0usize..40,
        ) {
            let cfg = QGramConfig::default();
            let mut interner = GramInterner::new();
            let sa = QGramSet::extract(&a, &cfg, &mut interner);
            let sb = QGramSet::extract(&b, &cfg, &mut interner);
            let exact = sa.intersection_size(&sb);
            let bounded = overlap_at_least(sa.gram_ids(), sb.gram_ids(), min);
            if exact >= min {
                prop_assert_eq!(bounded, Some(exact));
            } else {
                prop_assert_eq!(bounded, None);
            }
        }

        /// The prefix bound is sound for all four coefficients: any pair
        /// reaching θ shares at least one gram within the rare-first
        /// prefix `|A| − min_overlap(|A|, θ) + 1` of either side's probe
        /// order — so a prefix-limited posting scan cannot miss a true
        /// match, whichever side probes.
        #[test]
        fn prefix_bound_is_sound_for_every_coefficient(
            a in arb_key(),
            b in arb_key(),
            repeats in 0usize..4,
        ) {
            use crate::similarity::QGramCoefficient;
            let cfg = QGramConfig::default();
            let mut interner = GramInterner::new();
            // Perturb the document frequencies (hence the rank order)
            // with extra extractions: soundness must not depend on them.
            for _ in 0..repeats {
                QGramSet::extract(&a, &cfg, &mut interner);
            }
            let sa = QGramSet::extract(&a, &cfg, &mut interner);
            let sb = QGramSet::extract(&b, &cfg, &mut interner);
            let inter = sa.intersection_size(&sb);
            for coefficient in QGramCoefficient::ALL {
                let sim = coefficient.combine(inter, sa.len(), sb.len());
                for theta in [0.1, 0.3, 0.5, 0.8, 0.95, 1.0] {
                    if sim < theta {
                        continue;
                    }
                    for (probe, index) in [(&sa, &sb), (&sb, &sa)] {
                        if probe.is_empty() {
                            continue;
                        }
                        let prefix = coefficient.prefix_len(probe.len(), theta);
                        prop_assert!(prefix >= 1 && prefix <= probe.len());
                        let hit = probe.probe_order()[..prefix]
                            .iter()
                            .any(|&id| index.contains(id));
                        prop_assert!(
                            hit,
                            "{} θ={} sim={}: no shared gram in the {}-gram prefix",
                            coefficient.name(), theta, sim, prefix
                        );
                    }
                }
            }
        }

        /// Pairwise set operations agree between the two representations
        /// whenever both sets share one interner.
        #[test]
        fn interned_intersections_match_string_intersections(
            a in arb_key(),
            b in arb_key(),
            q in 1usize..5,
        ) {
            let cfg = QGramConfig::with_q(q);
            let sa = StringGramSet::extract(&a, &cfg);
            let sb = StringGramSet::extract(&b, &cfg);
            let mut interner = GramInterner::new();
            let ia = QGramSet::extract(&a, &cfg, &mut interner);
            let ib = QGramSet::extract(&b, &cfg, &mut interner);
            prop_assert_eq!(ia.intersection_size(&ib), sa.intersection_size(&sb));
            prop_assert_eq!(ia.union_size(&ib), sa.union_size(&sb));
            prop_assert!((ia.jaccard(&ib) - sa.jaccard(&sb)).abs() < 1e-12);
        }
    }
}
