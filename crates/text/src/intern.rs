//! Gram interning: dense token ids for q-grams.
//!
//! The approximate join's probe kernel used to key its inverted index by
//! gram *text* (`Arc<str>`), which meant every probe hashed every gram of
//! the probing tuple through SipHash before it could even look at a
//! posting list.  A [`GramInterner`] assigns each distinct gram a dense
//! [`GramId`] exactly once — at tokenisation time — after which the whole
//! probe path is integer indexing: posting lists live in a flat
//! `Vec<Vec<u32>>` indexed directly by id, and set operations between
//! [`QGramSet`]s are merges over sorted `u32`s.
//!
//! The gram → id lookup runs once per *window* at tokenisation, so it is
//! integer work too: a gram of up to three characters (every gram at the
//! paper's `q = 3`) is keyed by its characters packed
//! into one `u64`, stored inline in the table — a hit neither builds a
//! `String` nor dereferences one, and the gram text is materialised only
//! on first sight.  Wider grams keep a string-keyed table; which table a
//! gram lives in is decided by its length alone.  Both hash with
//! [`FxHasher`], a fast non-cryptographic multiply-rotate hash; the
//! tables are private to the join, so HashDoS resistance buys nothing
//! here.
//!
//! [`SharedInterner`] wraps the table in `Arc<Mutex<…>>` so the sharded
//! executor's workers can share one id space: the coordinator interns
//! every post-switch tuple once at the router, and the workers touch the
//! lock only during the §3.3 handover (when each rebuilds its inverted
//! index from resident keys).  Steady-state probing never locks — it sees
//! only pre-assigned ids, an effectively read-only snapshot.
//!
//! [`QGramSet`]: crate::qgram::QGramSet

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

use linkage_types::{LinkageError, Result};
use serde::{Deserialize, Serialize};

/// Dense identifier of one distinct q-gram within a [`GramInterner`].
///
/// Ids are assigned sequentially from 0 in first-interned order, so they
/// double as direct indexes into flat posting arrays.  An id is only
/// meaningful relative to the interner that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GramId(u32);

impl GramId {
    /// Wrap a raw index.
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The raw index, as a `usize` for direct array indexing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast non-cryptographic hasher (the multiply-rotate scheme used by
/// rustc's internal tables) for the interner's one string-keyed map.
///
/// Not DoS-resistant by design — the keys are q-grams of join attributes
/// inside a private table, not attacker-controlled map keys.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    /// The low bits of the last multiply depend only on the low bits of
    /// the words fed in, and the low bits are the ones `HashMap` picks
    /// buckets by — short grams over a small alphabet would pile into a
    /// few bucket groups.  Rotating brings the well-mixed high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some(chunk) = bytes.first_chunk::<8>() {
            self.add(u64::from_le_bytes(*chunk));
            bytes = &bytes[8..];
        }
        if let Some(chunk) = bytes.first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*chunk)));
            bytes = &bytes[4..];
        }
        if let Some(chunk) = bytes.first_chunk::<2>() {
            self.add(u64::from(u16::from_le_bytes(*chunk)));
            bytes = &bytes[2..];
        }
        if let Some(&byte) = bytes.first() {
            self.add(u64::from(byte));
        }
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A gram of at most [`Self::MAX_CHARS`] characters as one integer: 21
/// bits per character (a `char` is below 2²¹), most recent character
/// lowest, each biased by one so that a shorter gram differs from a gram
/// with leading NULs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct PackedGram(u64);

impl PackedGram {
    /// The widest gram one key holds.
    pub(crate) const MAX_CHARS: usize = 64 / Self::BITS;
    const BITS: usize = 21;

    /// Slide `c` into a window of width `q ≤ MAX_CHARS`, dropping the
    /// character that falls out.
    #[inline]
    pub(crate) fn slide(self, c: char, q: usize) -> Self {
        debug_assert!((1..=Self::MAX_CHARS).contains(&q));
        let mask = u64::MAX >> (64 - Self::BITS * q);
        Self(((self.0 << Self::BITS) | (u64::from(c) + 1)) & mask)
    }

    /// Pack `gram`, or `None` when it is too wide.
    fn pack(gram: &str) -> Option<Self> {
        let mut chars = gram.chars();
        let mut packed = Self::default();
        for c in chars.by_ref().take(Self::MAX_CHARS) {
            packed = packed.slide(c, Self::MAX_CHARS);
        }
        chars.next().is_none().then_some(packed)
    }

    /// The gram's text.
    fn text(self) -> String {
        (0..Self::MAX_CHARS)
            .rev()
            .filter_map(|i| {
                let biased = (self.0 >> (Self::BITS * i)) as u32 & ((1 << Self::BITS) - 1);
                char::from_u32(biased.checked_sub(1)?)
            })
            .collect()
    }
}

/// The gram ⇄ id table: each distinct gram is stored once and mapped to a
/// dense [`GramId`].
///
/// Besides the id mapping, the table keeps a per-gram **document
/// frequency** sidecar: how many extracted gram *sets* contained the gram
/// (bumped once per set by `QGramSet::extract`, never per window).  The
/// frequencies order the probe prefix of the set-similarity prefix filter
/// rare-first, so the shortest posting lists are scanned first; they are
/// a heuristic for posting-list length, not a correctness input — the
/// prefix bound is sound under *any* traversal order.
#[derive(Debug, Clone, Default)]
pub struct GramInterner {
    /// Grams of at most [`PackedGram::MAX_CHARS`] characters, keyed inline.
    packed: HashMap<PackedGram, GramId, FxBuildHasher>,
    /// Every wider gram, keyed by its text (shared with `texts`).
    wide: HashMap<Arc<str>, GramId, FxBuildHasher>,
    texts: Vec<Arc<str>>,
    /// `doc_freq[id]` = number of noted gram sets containing `id`.
    doc_freq: Vec<u32>,
}

impl GramInterner {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct grams interned so far (also the exclusive upper
    /// bound of issued ids).
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Whether no gram has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// The id of `gram`, assigning the next dense id on first sight.
    ///
    /// The gram text is allocated (once, globally) only on first sight;
    /// re-interning an already-known gram is a hash lookup with no
    /// allocation.
    pub fn intern(&mut self, gram: &str) -> GramId {
        if let Some(packed) = PackedGram::pack(gram) {
            return self.intern_packed(packed);
        }
        if let Some(&id) = self.wide.get(gram) {
            return id;
        }
        let text: Arc<str> = Arc::from(gram);
        let id = self.push_text(Arc::clone(&text));
        self.wide.insert(text, id);
        id
    }

    /// [`Self::intern`] for a gram already packed — the tokeniser's
    /// per-window path.
    #[inline]
    pub(crate) fn intern_packed(&mut self, gram: PackedGram) -> GramId {
        if let Some(&id) = self.packed.get(&gram) {
            return id;
        }
        let id = self.push_text(Arc::from(gram.text()));
        self.packed.insert(gram, id);
        id
    }

    /// Issue the next dense id, for `text`.
    fn push_text(&mut self, text: Arc<str>) -> GramId {
        let id = GramId::new(
            u32::try_from(self.texts.len()).expect("more than u32::MAX distinct grams"),
        );
        self.texts.push(text);
        self.doc_freq.push(0);
        id
    }

    /// Record that one extracted gram set contained each id in `ids`
    /// (called once per set, with the set's *distinct* ids).
    pub fn note_document(&mut self, ids: &[GramId]) {
        for id in ids {
            self.doc_freq[id.as_usize()] = self.doc_freq[id.as_usize()].saturating_add(1);
        }
    }

    /// Number of noted gram sets that contained `id` (0 for unknown ids).
    pub fn doc_freq(&self, id: GramId) -> u32 {
        self.doc_freq.get(id.as_usize()).copied().unwrap_or(0)
    }

    /// `ids` permuted into the **rare-first** rank order: ascending
    /// document frequency, ties broken by id (first-interned first) so
    /// the order is a total one.  This is the traversal order the probe
    /// prefix uses; it is recomputed per extraction, so it reflects the
    /// frequencies at that moment — a later snapshot may order the same
    /// ids differently, which is harmless (the prefix bound does not
    /// depend on the order).
    pub fn rank_order(&self, ids: &[GramId]) -> Vec<GramId> {
        // Pack (frequency, id) into one u64 per element up front so the
        // sort compares plain integers instead of re-deriving the key —
        // this runs once per extracted set, on the insert path.
        let mut keyed: Vec<u64> = ids
            .iter()
            .map(|&id| (u64::from(self.doc_freq(id)) << 32) | u64::from(id.as_u32()))
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|k| GramId::new(k as u32)).collect()
    }

    /// The id of `gram`, if it was interned before.
    pub fn get(&self, gram: &str) -> Option<GramId> {
        match PackedGram::pack(gram) {
            Some(packed) => self.packed.get(&packed).copied(),
            None => self.wide.get(gram).copied(),
        }
    }

    /// The text behind `id`, if the id was issued by this interner.
    pub fn resolve(&self, id: GramId) -> Option<&str> {
        self.texts.get(id.as_usize()).map(Arc::as_ref)
    }

    /// The interned gram texts, in first-interned (= id) order.  This is
    /// the column the snapshot writer serialises; together with
    /// [`Self::doc_freqs`] it is the table's complete observable state.
    pub fn texts(&self) -> &[Arc<str>] {
        &self.texts
    }

    /// The document-frequency column, indexed by gram id.
    pub fn doc_freqs(&self) -> &[u32] {
        &self.doc_freq
    }

    /// Rebuild a table from its snapshot columns: `texts[i]` becomes the
    /// text of `GramId(i)` with document frequency `doc_freq[i]`, and the
    /// gram → id tables are re-derived.  Fails with a typed
    /// [`LinkageError::Snapshot`] when the columns disagree in length or
    /// a gram text repeats (dense ids require distinct texts).
    pub fn from_parts(texts: Vec<Arc<str>>, doc_freq: Vec<u32>) -> Result<Self> {
        if texts.len() != doc_freq.len() {
            return Err(LinkageError::snapshot(format!(
                "interner columns disagree: {} texts vs {} doc frequencies",
                texts.len(),
                doc_freq.len()
            )));
        }
        // One counting pass sizes both tables, so neither rehashes
        // while the columns are loaded.
        let packed = texts
            .iter()
            .filter(|t| PackedGram::pack(t).is_some())
            .count();
        let mut table = Self {
            packed: HashMap::with_capacity_and_hasher(packed, FxBuildHasher::default()),
            wide: HashMap::with_capacity_and_hasher(texts.len() - packed, FxBuildHasher::default()),
            texts: Vec::new(),
            doc_freq,
        };
        for (i, text) in texts.iter().enumerate() {
            let id = GramId::new(i as u32);
            let repeated = match PackedGram::pack(text) {
                Some(packed) => table.packed.insert(packed, id),
                None => table.wide.insert(Arc::clone(text), id),
            };
            if repeated.is_some() {
                return Err(LinkageError::snapshot(format!(
                    "interner snapshot repeats gram text {text:?}"
                )));
            }
        }
        table.texts = texts;
        Ok(table)
    }

    /// Estimated size of the table in bytes: the gram text (stored once
    /// per distinct gram), the id column, and the key/value slots of the
    /// packed and the string-keyed table.
    /// Same estimate-not-measurement caveat as the operators' state
    /// accounting.
    pub fn state_bytes(&self) -> usize {
        let text: usize = self.texts.iter().map(|t| t.len()).sum();
        let columns = self.texts.len() * std::mem::size_of::<Arc<str>>()
            + self.doc_freq.len() * std::mem::size_of::<u32>();
        let tables = self.packed.len() * std::mem::size_of::<(PackedGram, GramId)>()
            + self.wide.len() * std::mem::size_of::<(Arc<str>, GramId)>();
        text + columns + tables
    }
}

/// A [`GramInterner`] shareable across threads.
///
/// Cloning the handle shares the table (ids stay globally consistent);
/// the lock is uncontended everywhere except the sharded handover, where
/// every worker interns its resident keys into the common id space.
#[derive(Debug, Clone, Default)]
pub struct SharedInterner {
    inner: Arc<Mutex<GramInterner>>,
}

impl SharedInterner {
    /// A handle to a fresh, empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock the table for interning.  Poisoning is ignored: the table is
    /// append-only, so a panicking holder cannot leave it inconsistent.
    pub fn lock(&self) -> MutexGuard<'_, GramInterner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether two handles share the same table (hence the same id
    /// space).
    pub fn same_table(&self, other: &SharedInterner) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// A handle owning `table` (snapshot restore: the decoded table
    /// becomes the join-wide id space).
    pub fn from_table(table: GramInterner) -> Self {
        Self {
            inner: Arc::new(Mutex::new(table)),
        }
    }

    /// Replace the shared table **in place** with `table`, propagating to
    /// every clone of this handle (the sharded executor restores the
    /// join-wide id space after its workers already hold handle clones).
    /// Refuses to clobber a non-empty table: live ids would dangle.
    pub fn restore_table(&self, table: GramInterner) -> Result<()> {
        let mut guard = self.lock();
        if !guard.is_empty() {
            return Err(LinkageError::snapshot(
                "cannot restore into an interner that already issued ids",
            ));
        }
        *guard = table;
        Ok(())
    }

    /// Number of distinct grams interned so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no gram has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Estimated size of the shared table in bytes (see
    /// [`GramInterner::state_bytes`]).  Count it **once** per join, not
    /// per shard: every worker's handle points at the same table.
    pub fn state_bytes(&self) -> usize {
        self.lock().state_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut interner = GramInterner::new();
        let a = interner.intern("abc");
        let b = interner.intern("bcd");
        let a2 = interner.intern("abc");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.as_usize(), 0);
        assert_eq!(b.as_usize(), 1);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.resolve(a), Some("abc"));
        assert_eq!(interner.resolve(b), Some("bcd"));
        assert_eq!(interner.resolve(GramId::new(2)), None);
        assert_eq!(interner.get("abc"), Some(a));
        assert_eq!(interner.get("zzz"), None);
    }

    #[test]
    fn shared_handles_share_the_id_space() {
        let shared = SharedInterner::new();
        let clone = shared.clone();
        assert!(shared.same_table(&clone));
        assert!(!shared.same_table(&SharedInterner::new()));
        let a = shared.lock().intern("abc");
        let a2 = clone.lock().intern("abc");
        assert_eq!(a, a2);
        assert_eq!(shared.len(), 1);
        assert!(!clone.is_empty());
    }

    #[test]
    fn state_bytes_grow_with_distinct_grams_only() {
        let mut interner = GramInterner::new();
        assert_eq!(interner.state_bytes(), 0);
        interner.intern("abc");
        let one = interner.state_bytes();
        assert!(one > 0);
        interner.intern("abc");
        assert_eq!(
            interner.state_bytes(),
            one,
            "re-interning allocates nothing"
        );
        interner.intern("xyz");
        assert!(interner.state_bytes() > one);
    }

    #[test]
    fn doc_frequencies_count_noted_sets_and_order_rare_first() {
        let mut interner = GramInterner::new();
        let common = interner.intern("abc");
        let rare = interner.intern("xyz");
        let unseen = interner.intern("qqq");
        assert_eq!(
            interner.doc_freq(common),
            0,
            "interning alone counts nothing"
        );
        interner.note_document(&[common, rare]);
        interner.note_document(&[common]);
        interner.note_document(&[common]);
        assert_eq!(interner.doc_freq(common), 3);
        assert_eq!(interner.doc_freq(rare), 1);
        assert_eq!(interner.doc_freq(unseen), 0);
        assert_eq!(interner.doc_freq(GramId::new(99)), 0, "unknown id");
        // Rare-first total order, ties broken by id.
        assert_eq!(
            interner.rank_order(&[common, rare, unseen]),
            vec![unseen, rare, common]
        );
        let tied = interner.intern("ttt");
        assert_eq!(
            interner.rank_order(&[tied, unseen]),
            vec![unseen, tied],
            "equal frequencies fall back to id order"
        );
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let mut original = GramInterner::new();
        let a = original.intern("abc");
        let b = original.intern("bcd");
        original.note_document(&[a, b]);
        original.note_document(&[a]);

        let texts: Vec<Arc<str>> = original.texts().to_vec();
        let freqs: Vec<u32> = original.doc_freqs().to_vec();
        let restored = GramInterner::from_parts(texts.clone(), freqs.clone()).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.get("abc"), Some(a), "map is re-derived");
        assert_eq!(restored.doc_freq(a), 2);
        assert_eq!(restored.doc_freq(b), 1);
        assert_eq!(restored.rank_order(&[a, b]), original.rank_order(&[a, b]));

        assert!(GramInterner::from_parts(texts.clone(), vec![1]).is_err());
        let dup = vec![texts[0].clone(), texts[0].clone()];
        assert!(GramInterner::from_parts(dup, vec![0, 0]).is_err());
    }

    #[test]
    fn shared_restore_propagates_to_clones_and_guards_live_tables() {
        let shared = SharedInterner::new();
        let clone = shared.clone();
        let mut table = GramInterner::new();
        table.intern("abc");
        shared.restore_table(table).unwrap();
        assert_eq!(clone.len(), 1, "restore reaches every handle");

        let mut again = GramInterner::new();
        again.intern("xyz");
        assert!(
            shared.restore_table(again).is_err(),
            "restoring over issued ids must fail"
        );
    }

    #[test]
    fn fx_hasher_distinguishes_typical_grams() {
        // Not a distribution test — just a sanity check that the chunked
        // write path hashes unequal short strings unequally.
        let hash = |s: &str| {
            let mut h = FxHasher::default();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_ne!(hash("abc"), hash("abd"));
        assert_ne!(hash("abc"), hash("ab"));
        assert_ne!(hash(""), hash("a"));
        assert_ne!(hash("abcdefgh"), hash("abcdefgi"), "8-byte chunk path");
        assert_ne!(hash("abcdefghij"), hash("abcdefghik"), "tail path");
        assert_eq!(hash("abc"), hash("abc"));
    }

    /// `HashMap` picks a bucket from the low bits of the hash.  Every
    /// 3-character gram over a 40-symbol alphabet, hashed as the packed
    /// table and as the string table hash it, must spread over the low 15
    /// bits: with the raw multiply as `finish` one value held 1 600 packed
    /// grams.
    #[test]
    fn fx_hasher_spreads_short_grams_over_the_low_bits() {
        use std::hash::BuildHasher;
        const BITS: u32 = 15;
        let alphabet: Vec<char> = ('A'..='Z').chain('0'..='9').chain(" -'.".chars()).collect();
        assert_eq!(alphabet.len(), 40);
        let build = FxBuildHasher::default();
        let mut packed = vec![0u32; 1 << BITS];
        let mut strings = vec![0u32; 1 << BITS];
        let mut grams = 0u32;
        for &a in &alphabet {
            for &b in &alphabet {
                for &c in &alphabet {
                    let text: String = [a, b, c].iter().collect();
                    let key = PackedGram::pack(&text).expect("three characters pack");
                    let low = |hash: u64| (hash & ((1 << BITS) - 1)) as usize;
                    packed[low(build.hash_one(key))] += 1;
                    strings[low(build.hash_one(text.as_str()))] += 1;
                    grams += 1;
                }
            }
        }
        let fair = grams.div_ceil(1 << BITS);
        for (table, counts) in [("packed", &packed), ("string", &strings)] {
            let worst = *counts.iter().max().unwrap();
            assert!(
                worst <= 8 * fair,
                "{table} keys: one low-{BITS}-bit value holds {worst} of {grams} grams (fair share {fair})"
            );
        }
    }

    #[test]
    fn packed_grams_round_trip_their_text() {
        for text in ["", "a", "ab", "abc", "\0\0a", "\0", "ß𝄞\u{10FFFF}"] {
            let packed = PackedGram::pack(text).expect("at most three characters");
            assert_eq!(packed.text(), text);
        }
        assert_eq!(PackedGram::pack("abcd"), None, "too wide for one key");
        assert_ne!(PackedGram::pack("\0a"), PackedGram::pack("a"));
        // Sliding at width q keeps the last q characters only.
        let slid = "xyabc"
            .chars()
            .fold(PackedGram::default(), |w, c| w.slide(c, 3));
        assert_eq!(Some(slid), PackedGram::pack("abc"));
    }

    #[test]
    fn short_and_wide_grams_share_one_dense_id_space() {
        let mut interner = GramInterner::new();
        let short = interner.intern("abc");
        let wide = interner.intern("abcd");
        assert_eq!((short.as_u32(), wide.as_u32()), (0, 1));
        assert_eq!(interner.intern("abcd"), wide);
        assert_eq!(interner.get("abc"), Some(short));
        assert_eq!(interner.get("abcd"), Some(wide));
        assert_eq!(interner.get("abce"), None);
        assert_eq!(interner.resolve(wide), Some("abcd"));
        // 16 B per packed slot, 24 B per string-keyed slot, plus text and
        // the two per-id columns.
        let per_id = std::mem::size_of::<Arc<str>>() + std::mem::size_of::<u32>();
        assert_eq!(interner.state_bytes(), (3 + 4) + 2 * per_id + 16 + 24);
    }

    #[test]
    fn concurrent_interning_yields_consistent_ids() {
        let shared = SharedInterner::new();
        let grams: Vec<String> = (0..64).map(|i| format!("g{i:02}")).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = shared.clone();
                let grams = grams.clone();
                std::thread::spawn(move || {
                    grams
                        .iter()
                        .map(|g| shared.lock().intern(g))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<GramId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for other in &results[1..] {
            assert_eq!(&results[0], other, "same gram must get the same id");
        }
        assert_eq!(shared.len(), 64);
    }
}
