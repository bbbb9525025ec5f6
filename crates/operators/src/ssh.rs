//! The approximate similarity join SSHJoin (paper §2.2).
//!
//! A symmetric *set* hash join: each side maintains an inverted index from
//! q-grams to the tuples containing them.  An arriving tuple's key is
//! tokenised into its q-gram set; probing the opposite index counts, per
//! candidate, the number of shared grams, from which the Jaccard similarity
//! is computed in O(1) (`c / (|A| + |B| − c)`).  Candidates that cannot
//! reach the threshold are pruned early with the `|A ∩ B| ≥ θ·|A|` bound.
//!
//! # The probe kernel: prefix scan, then length → signature → merge
//!
//! Grams are interned to dense [`GramId`]s at tokenisation time (see
//! `linkage_text::intern`), so the whole per-tuple path is integer work:
//!
//! * posting lists live in a **flat** `Vec<Vec<u32>>` indexed directly by
//!   gram id — no hashing at probe time at all;
//! * candidate generation is **prefix-filtered** (classic set-similarity
//!   prefix filtering): with `t = coefficient.min_overlap(|A|, θ)`, only
//!   the first `|A| − t + 1` posting lists of the probe set are scanned,
//!   traversed in the **rare-first** order snapshotted by
//!   `QGramSet::probe_order` — by pigeonhole every candidate that can
//!   still reach θ shares a gram with that prefix (see
//!   [`QGramCoefficient::prefix_len`]), and the rare-first order makes
//!   the scanned lists the shortest ones;
//! * candidate dedup uses an **epoch-stamped array** indexed by tuple
//!   position (O(1) logical reset per probe — no per-probe `HashMap`
//!   allocation), and at first touch a candidate passes two filters, each
//!   a few integer operations on a flat column:
//!   1. the **length filter** drops it when its gram-set size makes the
//!      threshold unreachable even at maximum possible overlap
//!      `min(|A|, |B|)`;
//!   2. the **signature filter** drops it when the 128-bit bitmaps of the
//!      two sets (one bit per gram) differ in so many bits that
//!      `|A ∩ B| ≤ (|A| + |B| − popcount(sigA ^ sigB)) / 2` falls below
//!      `t` (the bitmap filter of Sandes et al., sitting where PPJoin's
//!      positional filter sits).  On keys of similar length the length
//!      filter passes almost everything, and this is the filter that
//!      keeps the merge below from running once per scanned posting;
//! * the few survivors are scored by **merge-based verification**: an
//!   early-exit sorted-id merge (galloping for lopsided sizes, see
//!   `linkage_text::overlap_at_least`) against the candidate's stored
//!   gram column computes the *exact* overlap and rejects below `t`, so
//!   the signature filter only ever drops what the merge would have
//!   rejected and the emitted similarity is identical to a full
//!   posting-list count.
//!
//! Candidates are emitted in arrival order (their tuple position), which
//! keeps the output stream deterministic and bit-identical to the
//! nested-loop stream oracle, [`crate::oracle::stream_similarity`].  The
//! [`ProbeFunnel`] counters expose how many posting entries were scanned
//! or skipped and how many candidates survived the length filter and the
//! merge.
//!
//! The join kernel lives in [`SshJoinCore`];
//! [`SshJoinCore::with_exact_state`] implements the paper's §3.3 state
//! handover: it rebuilds the inverted index from the exact join's hash
//! tables (interning every resident key exactly once) and re-probes the
//! accumulated tuples against each other to *recover* approximate matches
//! the exact operator missed, using the per-tuple matched-exactly flags to
//! skip pairs the exact operator already emitted.
//!
//! [`GramId`]: linkage_text::GramId

use std::collections::VecDeque;
use std::sync::Arc;

use linkage_text::{
    normalize, overlap_at_least, GramId, QGramCoefficient, QGramConfig, QGramSet, SharedInterner,
};
use linkage_types::{MatchPair, PerSide, Record, Result, ShardId, Side, SidedRecord};

use crate::batch::PreparedBatch;
use crate::exact::orient;
use crate::state::KeyTable;

/// The 128-bit signature of a gram set: bit `mix(id) mod 128` is set for
/// every gram id.  A shared gram sets the same bit on both sides, so each
/// bit in which two signatures differ is owed to a gram of the symmetric
/// difference, which bounds the overlap from above (see
/// [`signature_overlap_bound`]).  The multiplicative mix spreads the dense
/// first-sight ids, whose low values all belong to the commonest grams.
fn signature(grams: &[GramId]) -> u128 {
    grams.iter().fold(0, |sig, g| {
        sig | 1 << (g.as_u32().wrapping_mul(0x9E37_79B1) >> 25)
    })
}

/// An upper bound on `|A ∩ B|` from the sets' sizes and signatures:
/// `popcount(sigA ^ sigB) ≤ |A Δ B| = |A| + |B| − 2·|A ∩ B|`.  Equal sets
/// have equal signatures and reach the bound `|A|` exactly.
fn signature_overlap_bound(len_a: usize, len_b: usize, sig_a: u128, sig_b: u128) -> usize {
    (len_a + len_b - (sig_a ^ sig_b).count_ones() as usize) / 2
}

/// One tuple resident in the SSH join, with its pre-extracted q-gram set.
#[derive(Debug, Clone)]
pub struct SshStored {
    /// The tuple itself.
    pub record: Record,
    /// The normalised join key.
    pub key: Arc<str>,
    /// The interned q-gram set of the key.
    pub grams: QGramSet,
    /// Carried-over matched-exactly flag (see [`crate::state::StoredTuple`]).
    pub matched_exactly: bool,
}

/// Cumulative candidate-funnel counters of one probe kernel: how much
/// work the prefix filter admitted at each stage, and how much it
/// skipped.  Monotone over a core's lifetime; aggregate across shards
/// with [`ProbeFunnel::absorb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeFunnel {
    /// Posting entries visited by prefix scans (re-touches included).
    pub candidates_scanned: u64,
    /// Distinct candidates that survived the first-touch length filter
    /// and entered a candidate list.
    pub candidates_after_length_filter: u64,
    /// Candidates whose merge-verified exact overlap reached the
    /// coefficient's `min_overlap` bound (and were therefore scored
    /// against θ).
    pub candidates_verified: u64,
    /// Posting entries in the non-prefix gram lists that were never
    /// scanned — the work the prefix filter saved outright.
    pub prefix_postings_skipped: u64,
}

impl ProbeFunnel {
    /// Fold another funnel into this one (shard aggregation).
    pub fn absorb(&mut self, other: ProbeFunnel) {
        self.candidates_scanned += other.candidates_scanned;
        self.candidates_after_length_filter += other.candidates_after_length_filter;
        self.candidates_verified += other.candidates_verified;
        self.prefix_postings_skipped += other.prefix_postings_skipped;
    }
}

/// Reusable probe state: one epoch stamp per resident tuple position for
/// candidate dedup, the candidate list of the current probe, and the
/// cumulative funnel counters.
///
/// Bumping `epoch` logically resets every stamp in O(1); a position has
/// been touched by the current probe exactly when its stamp equals the
/// current epoch.  The buffers are owned by the [`SshJoinCore`] (not the
/// index) so a single scratch serves both sides, and probing needs no
/// allocation at all once the buffers have grown to the resident-state
/// size.  (Pre-prefix-filtering the slots also carried per-candidate
/// overlap counts; exact overlap now comes from merge verification, so a
/// bare stamp suffices.)
#[derive(Debug, Clone, Default)]
struct ProbeScratch {
    epoch: u32,
    /// Epoch stamp per tuple position.
    stamps: Vec<u32>,
    /// Candidate **arena**: positions touched by the current probe (or,
    /// in batch mode, by every probe of the current batch) that passed
    /// the length filter.  Each probe's slice is sorted ascending
    /// (arrival order) after its scan phase; batch mode addresses the
    /// slices through `ranges`.
    candidates: Vec<u32>,
    /// Per-probe `(start, end)` ranges into `candidates`, filled by the
    /// batched scan phase and consumed by the block-verification phase.
    ranges: Vec<(u32, u32)>,
    /// Arena of per-batch-tuple stored positions (`u32::MAX` = the tuple
    /// was not stored here), parallel to `ranges` in batch mode.
    stored_pos: Vec<u32>,
    /// Memoised `(min_overlap, prefix_len)` per probe length for the
    /// `(coefficient, θ)` in `bounds_key` — the per-probe ceil/clamp
    /// float arithmetic of [`QGramCoefficient::min_overlap`] and
    /// [`QGramCoefficient::prefix_len`] is paid once per distinct `|A|`
    /// instead of once per probe.  `u32::MAX` in the first slot marks an
    /// unfilled entry.
    bounds: Vec<(u32, u32)>,
    /// The `(coefficient, θ)` the `bounds` table was computed for.
    /// Checked on every lookup, so a stale table self-invalidates even
    /// if a caller bypasses [`SshJoinCore::set_coefficient`].
    bounds_key: Option<(QGramCoefficient, f64)>,
    /// Cumulative candidate-funnel counters.
    funnel: ProbeFunnel,
}

impl ProbeScratch {
    /// Start a new probe over an index holding `tuples` residents: grow
    /// the stamp array and open a fresh epoch.  Does **not** clear the
    /// candidate arena — serial probes do that themselves, batch probes
    /// deliberately accumulate.
    fn begin_probe(&mut self, tuples: usize) {
        if self.stamps.len() < tuples {
            self.stamps.resize(tuples, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One real reset every 2³² probes keeps stale stamps from a
            // previous epoch cycle from aliasing the new epoch.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// The `(min_overlap, prefix_len)` bounds of a probe with `len`
    /// grams under `(coefficient, theta)`, memoised per length.
    fn bounds(&mut self, coefficient: QGramCoefficient, theta: f64, len: usize) -> (usize, usize) {
        if self.bounds_key != Some((coefficient, theta)) {
            self.bounds.clear();
            self.bounds_key = Some((coefficient, theta));
        }
        if len >= self.bounds.len() {
            self.bounds.resize(len + 1, (u32::MAX, 0));
        }
        let entry = &mut self.bounds[len];
        if entry.0 == u32::MAX {
            *entry = (
                coefficient.min_overlap(len, theta) as u32,
                coefficient.prefix_len(len, theta) as u32,
            );
        }
        (entry.0 as usize, entry.1 as usize)
    }

    /// Drop the memoised bounds (coefficient or θ changed).
    fn invalidate_bounds(&mut self) {
        self.bounds.clear();
        self.bounds_key = None;
    }

    /// Estimated heap bytes held by the probe scratch — stamp array,
    /// candidate arena, batch ranges and the bounds memo.  Reported via
    /// [`SshJoinCore::scratch_bytes`] so batched probing doesn't hide
    /// RAM from the state accounting.
    fn heap_bytes(&self) -> usize {
        self.stamps.capacity() * std::mem::size_of::<u32>()
            + self.candidates.capacity() * std::mem::size_of::<u32>()
            + self.ranges.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.stored_pos.capacity() * std::mem::size_of::<u32>()
            + self.bounds.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

/// One side's inverted q-gram index: flat posting lists indexed directly
/// by [`GramId`].
#[derive(Debug, Clone, Default)]
pub struct GramIndex {
    tuples: Vec<SshStored>,
    /// `postings[gram id] =` positions (arrival order) of the tuples
    /// whose gram set contains that gram.  Indexed by the *shared* id
    /// space, so the vector's length tracks the highest id this side has
    /// seen, not its own distinct-gram count.
    postings: Vec<Vec<u32>>,
    /// Distinct-gram count per tuple position — the `|B|` the length
    /// filter and the similarity arithmetic read, kept flat so the probe
    /// loop never touches the (much larger) tuple entries.
    lens: Vec<u32>,
    /// [`signature`] per tuple position, read by the signature filter
    /// right after `lens`.  Derived from the gram ids at insert, so a
    /// restored or migrated index rebuilds it and no snapshot carries it.
    sigs: Vec<u128>,
    /// CSR-style gram **column**: every resident's sorted gram ids,
    /// concatenated in arrival order.  Verification reads candidate gram
    /// sets as cache-linear slices of this column instead of chasing the
    /// per-tuple `Vec` inside [`SshStored`] — consecutive candidates of
    /// one probe land on nearby cache lines.
    grams: Vec<GramId>,
    /// CSR offsets: tuple `i`'s grams live at `grams[offsets[i] ..
    /// offsets[i + 1]]`.  Length `tuples.len() + 1` once non-empty.
    offsets: Vec<u32>,
    posting_entries: usize,
}

impl GramIndex {
    /// Number of indexed tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the index holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Number of distinct grams with at least one posting.
    pub fn distinct_grams(&self) -> usize {
        self.postings.iter().filter(|p| !p.is_empty()).count()
    }

    /// Total posting-list entries (the paper's §2.3 space metric).
    pub fn posting_entries(&self) -> usize {
        self.posting_entries
    }

    /// The indexed tuples, in arrival order.
    pub fn tuples(&self) -> &[SshStored] {
        &self.tuples
    }

    /// The sorted gram ids of the tuple at `pos`, as a cache-linear
    /// slice of the CSR gram column.  Identical content to
    /// `tuples()[pos].grams.gram_ids()`; this is the representation the
    /// verification kernel reads.
    pub fn gram_column(&self, pos: usize) -> &[GramId] {
        let start = self.offsets[pos] as usize;
        let end = self.offsets[pos + 1] as usize;
        &self.grams[start..end]
    }

    /// Estimated resident-state size in bytes — the bytes doing useful
    /// work.
    ///
    /// Counts the tuple entries, key text, per-tuple gram-id columns
    /// (sorted **and** rare-first permutation), the CSR gram column the
    /// verifier reads (sorted ids concatenated, plus offsets) and the
    /// flat inverted index (headers of *populated* posting lists,
    /// posting entries, per-tuple length and signature columns).  Two
    /// things are deliberately **not** counted here: gram *text*, stored
    /// once in the join's shared [`SharedInterner`] (see
    /// [`SshJoinCore::interner_bytes`]); and the
    /// slack of the flat posting layout — never-populated slot headers
    /// and unused posting capacity — reported separately by
    /// [`Self::postings_slack_bytes`].  Same estimate-not-measurement
    /// caveat as [`crate::state::KeyTable::state_bytes`].
    pub fn state_bytes(&self) -> usize {
        let tuples = self.tuples.len() * std::mem::size_of::<SshStored>();
        let keys: usize = self.tuples.iter().map(|t| t.key.len()).sum();
        let gram_ids: usize = self.tuples.iter().map(|t| t.grams.ids_bytes()).sum();
        let postings = self.postings.iter().filter(|p| !p.is_empty()).count()
            * std::mem::size_of::<Vec<u32>>()
            + self.posting_entries * std::mem::size_of::<u32>();
        let lens = self.lens.len() * std::mem::size_of::<u32>()
            + self.sigs.len() * std::mem::size_of::<u128>();
        let csr = self.grams.len() * std::mem::size_of::<GramId>()
            + self.offsets.len() * std::mem::size_of::<u32>();
        tuples + keys + gram_ids + postings + lens + csr
    }

    /// Estimated bytes the flat posting layout holds **beyond** its
    /// payload: the `Vec` headers of never-populated gram-id slots (the
    /// price of O(1) direct indexing into a shared id space) plus the
    /// unused capacity push-growth left in populated lists.  The latter
    /// is 0 in an index built by the internal bulk `extend` alone (a
    /// snapshot restore, or a handover before its first steady-state
    /// insert), whose lists are sized exactly.
    pub fn postings_slack_bytes(&self) -> usize {
        let empty_headers =
            self.postings.iter().filter(|p| p.is_empty()).count() * std::mem::size_of::<Vec<u32>>();
        let excess: usize = self
            .postings
            .iter()
            .map(|p| (p.capacity() - p.len()) * std::mem::size_of::<u32>())
            .sum();
        empty_headers + excess
    }

    /// Append `tuples` (arrival order) in bulk: a counting pass grows
    /// every posting list they touch exactly once and exactly, then one
    /// pass fills the postings and the flat columns — no list regrows
    /// mid-pass and none is left with slack.  Any sequence of calls
    /// builds the index one call over all the tuples would have built,
    /// and both equal what per-tuple [`Self::insert`] calls build, minus
    /// the push-growth capacity.  The one builder behind snapshot
    /// restore and the §3.3 handover, ahead of the switch and at it;
    /// fills the columns itself instead of looping over `insert`, which
    /// stays the steady-state path's alone.
    pub(crate) fn extend(&mut self, tuples: Vec<SshStored>) {
        if tuples.is_empty() {
            return;
        }
        let base = self.tuples.len();
        assert!(
            u32::try_from(base + tuples.len()).is_ok(),
            "more than u32::MAX resident tuples"
        );
        // The ids are sorted, so each tuple's last one is its largest.
        let slots = tuples
            .iter()
            .filter_map(|t| t.grams.gram_ids().last())
            .max()
            .map_or(0, |max| max.as_usize() + 1);
        let mut counts = vec![0u32; slots];
        let mut added = 0usize;
        for t in &tuples {
            for id in t.grams.gram_ids() {
                counts[id.as_usize()] += 1;
            }
            added += t.grams.len();
        }
        assert!(
            u32::try_from(self.grams.len() + added).is_ok(),
            "CSR gram column exceeds u32::MAX ids"
        );
        for (list, &count) in self.postings.iter_mut().zip(&counts) {
            list.reserve_exact(count as usize);
        }
        if let Some(new) = counts.get(self.postings.len()..) {
            self.postings
                .extend(new.iter().map(|&count| Vec::with_capacity(count as usize)));
        }
        self.lens.reserve(tuples.len());
        self.sigs.reserve(tuples.len());
        self.grams.reserve(added);
        self.offsets
            .reserve(tuples.len() + usize::from(self.offsets.is_empty()));
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        for (pos, t) in (base as u32..).zip(&tuples) {
            let ids = t.grams.gram_ids();
            for id in ids {
                self.postings[id.as_usize()].push(pos);
            }
            self.grams.extend_from_slice(ids);
            self.offsets.push(self.grams.len() as u32);
            self.lens.push(ids.len() as u32);
            self.sigs.push(signature(ids));
        }
        self.posting_entries += added;
        if self.tuples.is_empty() {
            self.tuples = tuples;
        } else {
            self.tuples.extend(tuples);
        }
    }

    /// Bulk-reserve for `tuples` upcoming inserts carrying `gram_total`
    /// gram ids in all, none larger than `max_id`: one growth decision
    /// per prepared batch for the tuple/length/CSR columns, and one
    /// posting-table resize covering every insert of the batch (so the
    /// per-tuple resize check in [`Self::insert`] stays a no-op).
    fn reserve_batch(&mut self, tuples: usize, gram_total: usize, max_id: Option<GramId>) {
        self.tuples.reserve(tuples);
        self.lens.reserve(tuples);
        self.sigs.reserve(tuples);
        self.offsets
            .reserve(tuples + usize::from(self.offsets.is_empty()));
        self.grams.reserve(gram_total);
        if let Some(max) = max_id {
            if max.as_usize() >= self.postings.len() {
                self.postings.resize(max.as_usize() + 1, Vec::new());
            }
        }
    }

    fn insert(&mut self, stored: SshStored) -> usize {
        let idx = self.tuples.len();
        let pos = u32::try_from(idx).expect("more than u32::MAX resident tuples");
        let ids = stored.grams.gram_ids();
        // The ids are sorted, so covering the last one covers them all:
        // one resize test per tuple instead of one per gram (and a no-op
        // whenever `reserve_batch` already sized the table).
        if let Some(max) = ids.last() {
            if max.as_usize() >= self.postings.len() {
                self.postings.resize(max.as_usize() + 1, Vec::new());
            }
        }
        for id in ids {
            self.postings[id.as_usize()].push(pos);
        }
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.grams.extend_from_slice(stored.grams.gram_ids());
        let end = u32::try_from(self.grams.len()).expect("CSR gram column exceeds u32::MAX ids");
        self.offsets.push(end);
        self.posting_entries += stored.grams.len();
        self.lens.push(stored.grams.len() as u32);
        self.sigs.push(signature(stored.grams.gram_ids()));
        self.tuples.push(stored);
        idx
    }

    /// Generate the candidates of `probe` into `scratch` by scanning only
    /// the **rare-first prefix** of its posting lists.  After the call
    /// `scratch.candidates` holds the touched positions that survived
    /// the first-touch length and signature filters, sorted by arrival
    /// position (deterministic output order).  Exact per-candidate
    /// overlap is *not* counted here — callers verify survivors with a
    /// sorted-id merge against the stored gram column, rejecting below
    /// the `min_overlap` bound this returns.
    ///
    /// With `t = coefficient.min_overlap(|A|, θ)` (recomputed on every
    /// probe, so a mid-stream coefficient or θ change takes effect
    /// immediately), only the first `|A| − t + 1` gram ids in the probe's
    /// rare-first [`QGramSet::probe_order`] are scanned: a candidate
    /// reaching θ shares ≥ t grams with the probe, and at most
    /// `|A| − t` probe grams lie outside the intersection, so every such
    /// candidate appears in at least one scanned list — under any
    /// traversal order ([`QGramCoefficient::prefix_len`]).  Rare-first
    /// makes the scanned lists the shortest ones.
    ///
    /// The length filter is sound: a candidate with `|B|` grams is
    /// dropped only when `coefficient.from_overlap(|A|, |B|,
    /// min(|A|, |B|))` — its best achievable similarity — is below
    /// `theta`.  The signature filter is sound because it drops a
    /// candidate only when [`signature_overlap_bound`] is below `t`,
    /// where verification rejects it anyway; with `t = 1` (the Overlap
    /// coefficient) it drops nothing.  Equal-key partners always survive
    /// both (identical keys tokenise to identical sets, whose best
    /// similarity is 1 and whose signatures are equal).
    fn probe_into(
        &self,
        probe: &QGramSet,
        coefficient: QGramCoefficient,
        theta: f64,
        scratch: &mut ProbeScratch,
    ) -> usize {
        scratch.candidates.clear();
        let bounds = scratch.bounds(coefficient, theta, probe.len());
        self.probe_arena(probe, coefficient, theta, bounds, scratch);
        bounds.0
    }

    /// The arena-based scan behind [`Self::probe_into`] and the batched
    /// kernel: identical candidate generation, but survivors are
    /// **appended** to the shared candidate arena instead of replacing
    /// it, and the probe's `(start, end)` arena range is returned.  Only
    /// the new tail is sorted, so each probe's slice is in arrival order
    /// regardless of what precedes it in the arena.
    fn probe_arena(
        &self,
        probe: &QGramSet,
        coefficient: QGramCoefficient,
        theta: f64,
        (min_overlap, prefix): (usize, usize),
        scratch: &mut ProbeScratch,
    ) -> (u32, u32) {
        scratch.begin_probe(self.tuples.len());
        let epoch = scratch.epoch;
        let probe_len = probe.len();
        let probe_sig = signature(probe.gram_ids());
        let order = probe.probe_order();
        let start = scratch.candidates.len();
        for id in &order[..prefix] {
            let Some(list) = self.postings.get(id.as_usize()) else {
                continue;
            };
            scratch.funnel.candidates_scanned += list.len() as u64;
            for &pos in list {
                let stamp = &mut scratch.stamps[pos as usize];
                if *stamp == epoch {
                    continue;
                }
                *stamp = epoch;
                let candidate_len = self.lens[pos as usize] as usize;
                let best = coefficient.from_overlap(
                    probe_len,
                    candidate_len,
                    probe_len.min(candidate_len),
                );
                if best < theta {
                    continue;
                }
                scratch.funnel.candidates_after_length_filter += 1;
                let sig = self.sigs[pos as usize];
                if signature_overlap_bound(probe_len, candidate_len, probe_sig, sig) >= min_overlap
                {
                    scratch.candidates.push(pos);
                }
            }
        }
        for id in &order[prefix..] {
            if let Some(list) = self.postings.get(id.as_usize()) {
                scratch.funnel.prefix_postings_skipped += list.len() as u64;
            }
        }
        scratch.candidates[start..].sort_unstable();
        let end = u32::try_from(scratch.candidates.len()).expect("candidate arena exceeds u32");
        (start as u32, end)
    }
}

/// The approximate core's resident state, built from the exact phase's
/// tables before the §3.3 switch: `indexes[side]` holds the first
/// `len()` tuples of `tables[side]`, and `sets[side]` the gram sets of
/// the tuples after those that are tokenised but not indexed yet.  The
/// exact phase only appends to its tables, so positions stay aligned.
/// Gram ids come from the interner the approximate core will be built
/// with.  In memory only: a snapshot never holds it.
#[derive(Debug, Default)]
pub(crate) struct Handover {
    indexes: PerSide<GramIndex>,
    sets: PerSide<Vec<QGramSet>>,
}

impl Handover {
    /// Residents of `tables` not indexed yet.
    pub(crate) fn unindexed(&self, tables: &PerSide<KeyTable>) -> usize {
        Side::BOTH
            .iter()
            .map(|&side| tables[side].tuples().len() - self.indexes[side].len())
            .sum()
    }

    /// Residents tokenised but not indexed yet.
    pub(crate) fn tokenized(&self) -> usize {
        self.sets.left.len() + self.sets.right.len()
    }

    /// Tokenise, into `interner`, up to `limit` tuples of `tables` that
    /// are not tokenised yet.  The right side goes first: each left set's
    /// rare-first probe order is then ranked against the frequencies of
    /// the side it probes at the recovery.  One interner lock per side,
    /// so concurrent shard handovers take turns by side instead of
    /// contending for the lock once per key.  Keys stored by the exact
    /// core are already normalised.
    pub(crate) fn tokenize(
        &mut self,
        tables: &PerSide<KeyTable>,
        config: &QGramConfig,
        interner: &SharedInterner,
        mut limit: usize,
    ) {
        for side in [Side::Right, Side::Left] {
            let sets = &mut self.sets[side];
            let done = self.indexes[side].len() + sets.len();
            let todo = &tables[side].tuples()[done..];
            let todo = &todo[..todo.len().min(limit)];
            if todo.is_empty() {
                continue;
            }
            limit -= todo.len();
            let mut interner = interner.lock();
            sets.extend(
                todo.iter()
                    .map(|stored| QGramSet::extract_normalized(&stored.key, config, &mut interner)),
            );
        }
    }

    /// Append every tokenised tuple to its side's index, one bulk
    /// [`GramIndex::extend`] per side.  The exact phase goes on with its
    /// tables, so records and keys are shared, not moved; a flag an exact
    /// match sets after this call is copied at the switch.
    pub(crate) fn index(&mut self, tables: &PerSide<KeyTable>) {
        for side in Side::BOTH {
            let index = &mut self.indexes[side];
            let tuples = &tables[side].tuples()[index.len()..];
            let stored = tuples
                .iter()
                .zip(std::mem::take(&mut self.sets[side]))
                .map(|(t, grams)| SshStored {
                    record: t.record.clone(),
                    key: Arc::clone(&t.key),
                    grams,
                    matched_exactly: t.matched_exactly,
                })
                .collect();
            index.extend(stored);
        }
    }
}

/// The probe-then-insert kernel of the approximate SSH join.
#[derive(Debug, Clone)]
pub struct SshJoinCore {
    keys: PerSide<usize>,
    config: QGramConfig,
    coefficient: QGramCoefficient,
    theta: f64,
    interner: SharedInterner,
    sides: PerSide<GramIndex>,
    scratch: ProbeScratch,
    emitted_exact: u64,
    emitted_approx: u64,
}

impl SshJoinCore {
    /// Build a core joining on `keys` with similarity threshold `theta`
    /// over q-gram sets extracted under `config`, scored with the paper's
    /// Jaccard coefficient (override via [`Self::with_coefficient`]).
    /// The core owns a fresh gram interner; share one across cores with
    /// [`Self::with_shared_interner`].
    pub fn new(keys: PerSide<usize>, config: QGramConfig, theta: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&theta),
            "similarity threshold must be in [0, 1], got {theta}"
        );
        Self {
            keys,
            config,
            coefficient: QGramCoefficient::default(),
            theta,
            interner: SharedInterner::new(),
            sides: PerSide::default(),
            scratch: ProbeScratch::default(),
            emitted_exact: 0,
            emitted_approx: 0,
        }
    }

    /// Score candidates with a different q-gram set coefficient.  The
    /// kernel's per-candidate counters and the coefficient's sound
    /// [`QGramCoefficient::min_overlap`] pruning bound adapt automatically.
    #[must_use]
    pub fn with_coefficient(mut self, coefficient: QGramCoefficient) -> Self {
        self.coefficient = coefficient;
        self
    }

    /// Use a shared gram interner instead of the core's own fresh one.
    ///
    /// The sharded executor hands every worker (and its own router-side
    /// prepare kernel) clones of one [`SharedInterner`], so gram ids are
    /// globally consistent: a tuple tokenised once at the router can be
    /// probed against every shard's flat postings, and resident snapshots
    /// shipped between shards for §3.3 recovery carry ids every receiver
    /// understands.  Must be called before any state exists — resident
    /// postings are indexed by the ids of the interner they were built
    /// with.
    #[must_use]
    pub fn with_shared_interner(mut self, interner: SharedInterner) -> Self {
        assert!(
            self.sides.left.is_empty() && self.sides.right.is_empty(),
            "with_shared_interner requires an empty core: resident postings \
             are indexed by the previous interner's ids"
        );
        self.interner = interner;
        self
    }

    /// The similarity coefficient scoring candidates.
    pub fn coefficient(&self) -> QGramCoefficient {
        self.coefficient
    }

    /// Change the scoring coefficient **mid-stream**.
    ///
    /// Takes effect on the next probe: the memoised per-length
    /// `min_overlap`/`prefix_len` table is invalidated and rebuilt from
    /// the new coefficient on demand, and the resident state needs no
    /// rebuild — the inverted index and the stored gram columns are
    /// coefficient-agnostic.
    pub fn set_coefficient(&mut self, coefficient: QGramCoefficient) {
        self.coefficient = coefficient;
        self.scratch.invalidate_bounds();
    }

    /// The shared gram interner handle backing this core's ids.
    pub fn interner(&self) -> &SharedInterner {
        &self.interner
    }

    /// Estimated size of the shared gram table in bytes.  The table is
    /// shared by every core holding a clone of the handle (all shards of
    /// a parallel join), so account for it **once** per join.
    pub fn interner_bytes(&self) -> usize {
        self.interner.state_bytes()
    }

    /// The §3.3 state handover: rebuild the inverted index from the exact
    /// join's tables and recover missed approximate matches among the
    /// already-seen tuples, pushing them into `out`.
    ///
    /// Every resident key is tokenised and interned exactly once, a
    /// side at a time under one interner lock, the probed right side
    /// first.  Pairs whose keys are identical are skipped when both
    /// tuples carry the matched-exactly flag — the exact operator already
    /// emitted them, and re-emitting would duplicate output.  Returns the
    /// core and the number of recovered pairs.  Must be called on a
    /// freshly built core (no resident state yet).
    pub fn with_exact_state(
        self,
        tables: PerSide<KeyTable>,
        out: &mut VecDeque<MatchPair>,
    ) -> (Self, u64) {
        self.with_handover(tables, Handover::default(), out)
    }

    /// [`Self::with_exact_state`] from the state `handover` built ahead
    /// of the switch, into this core's interner — what the serial engine
    /// hands over when an alarm streak gave it notice.  The switch is
    /// left with five steps: tokenise and index the residents the
    /// handover has not indexed, copy the indexed residents' flags (an
    /// exact match can set one after its resident was indexed), move the
    /// records and keys the exact phase no longer needs, drop the exact
    /// tables, and recover.
    pub(crate) fn with_handover(
        mut self,
        tables: PerSide<KeyTable>,
        mut handover: Handover,
        out: &mut VecDeque<MatchPair>,
    ) -> (Self, u64) {
        assert!(
            self.sides.left.is_empty()
                && self.sides.right.is_empty()
                && self.emitted_exact == 0
                && self.emitted_approx == 0,
            "with_exact_state requires a freshly built core: resident state \
             would be re-probed and matches re-emitted"
        );
        handover.tokenize(&tables, &self.config, &self.interner, usize::MAX);
        let PerSide { left, right } = tables;
        for (side, table) in [(Side::Left, left), (Side::Right, right)] {
            let mut index = std::mem::take(&mut handover.indexes[side]);
            let mut tuples = table.into_tuples();
            for (stored, tuple) in index.tuples.iter_mut().zip(&tuples) {
                stored.matched_exactly = tuple.matched_exactly;
            }
            let late = tuples
                .drain(index.len()..)
                .zip(std::mem::take(&mut handover.sets[side]))
                .map(|(t, grams)| SshStored {
                    record: t.record,
                    key: t.key,
                    grams,
                    matched_exactly: t.matched_exactly,
                })
                .collect();
            index.extend(late);
            self.sides[side] = index;
        }
        let core = &mut self;

        // Recover: probe each pre-switch left tuple against the right index.
        // Iterating one side only visits every cross pair exactly once.
        let mut recovered_exact = 0u64;
        let mut recovered_approx = 0u64;
        let coefficient = core.coefficient;
        let theta = core.theta;
        let (left_index, right_index) = (&core.sides.left, &core.sides.right);
        let scratch = &mut core.scratch;
        for l in left_index.tuples() {
            let bound = right_index.probe_into(&l.grams, coefficient, theta, scratch);
            let mut verified = 0u64;
            for &pos in &scratch.candidates {
                let r = &right_index.tuples()[pos as usize];
                if l.matched_exactly && r.matched_exactly && l.key == r.key {
                    // The exact operator already emitted this pair (both
                    // tuples were resident, so whichever arrived later
                    // probed the other) — the flags record that, and
                    // equal keys need no merge to say so.
                    continue;
                }
                let Some(shared) = overlap_at_least(
                    l.grams.gram_ids(),
                    right_index.gram_column(pos as usize),
                    bound,
                ) else {
                    continue;
                };
                verified += 1;
                if l.key == r.key {
                    // Tables handed over without exact probing (possible when
                    // built by hand): recover the equal-key pair too.
                    out.push_back(MatchPair::exact(l.record.clone(), r.record.clone()));
                    recovered_exact += 1;
                    continue;
                }
                let sim = coefficient.from_overlap(l.grams.len(), r.grams.len(), shared);
                if sim >= theta {
                    out.push_back(MatchPair::approximate(
                        l.record.clone(),
                        r.record.clone(),
                        sim,
                    ));
                    recovered_approx += 1;
                }
            }
            scratch.funnel.candidates_verified += verified;
        }
        core.emitted_exact += recovered_exact;
        core.emitted_approx += recovered_approx;
        let recovered = recovered_exact + recovered_approx;
        (self, recovered)
    }

    /// Process one arriving tuple: probe the opposite index, emit pairs at
    /// or above the threshold into `out`, insert into the own index.
    /// Returns the number of pairs emitted.
    pub fn process(&mut self, sided: SidedRecord, out: &mut VecDeque<MatchPair>) -> Result<usize> {
        let (key, grams) = self.prepare(&sided)?;
        self.process_prepared(&sided, &key, &grams, true, out)
    }

    /// Normalise, tokenise and intern the join key of `sided`, exactly as
    /// [`Self::process`] would.
    ///
    /// The sharded execution layer broadcasts each post-switch tuple to
    /// every shard; preparing once at the router and sharing the result
    /// keeps tokenisation — the per-tuple cost the paper's Table 1 prices
    /// as `α_q · |jA|` — *and* interning off the workers' critical path:
    /// the grams arrive at every shard as dense ids ready for direct
    /// posting-array indexing.
    pub fn prepare(&self, sided: &SidedRecord) -> Result<(Arc<str>, QGramSet)> {
        let raw = sided.record.key_str(self.keys[sided.side])?;
        let key: Arc<str> = Arc::from(normalize(raw, &self.config.normalize));
        let grams = QGramSet::extract_normalized(&key, &self.config, &mut self.interner.lock());
        Ok((key, grams))
    }

    /// [`Self::process`] with the key already prepared, and an explicit
    /// choice of whether the tuple is **stored** in the own-side index.
    ///
    /// `store = false` is the probe-only half of the sharded approximate
    /// join: every shard probes every tuple against its slice of the
    /// resident state, but only the tuple's home shard stores it, so each
    /// resident lives in exactly one shard and no pair is emitted twice.
    /// The caller must pass `key`/`grams` from [`Self::prepare`] for this
    /// `sided` (or from a core sharing the same interner).
    pub fn process_prepared(
        &mut self,
        sided: &SidedRecord,
        key: &Arc<str>,
        grams: &QGramSet,
        store: bool,
        out: &mut VecDeque<MatchPair>,
    ) -> Result<usize> {
        let coefficient = self.coefficient;
        let theta = self.theta;
        let (own, opposite) = self.sides.own_and_opposite_mut(sided.side);
        let scratch = &mut self.scratch;
        let bound = opposite.probe_into(grams, coefficient, theta, scratch);
        let mut emitted = 0usize;
        let mut verified = 0u64;
        let mut matched_exactly = false;
        for &pos in &scratch.candidates {
            let idx = pos as usize;
            let Some(shared) = overlap_at_least(grams.gram_ids(), opposite.gram_column(idx), bound)
            else {
                continue;
            };
            let partner = &mut opposite.tuples[idx];
            verified += 1;
            let pair = if partner.key == *key {
                matched_exactly = true;
                partner.matched_exactly = true;
                let (l, r) = orient(sided.side, sided.record.clone(), partner.record.clone());
                MatchPair::exact(l, r)
            } else {
                let sim = coefficient.from_overlap(grams.len(), partner.grams.len(), shared);
                if sim < theta {
                    continue;
                }
                let (l, r) = orient(sided.side, sided.record.clone(), partner.record.clone());
                MatchPair::approximate(l, r, sim)
            };
            if pair.kind.is_exact() {
                self.emitted_exact += 1;
            } else {
                self.emitted_approx += 1;
            }
            out.push_back(pair);
            emitted += 1;
        }
        scratch.funnel.candidates_verified += verified;
        if store {
            own.insert(SshStored {
                record: sided.record.clone(),
                key: Arc::clone(key),
                grams: grams.clone(),
                matched_exactly,
            });
        }
        Ok(emitted)
    }

    /// The **batched** probe entry point: run a whole [`PreparedBatch`]
    /// through the kernel in two columnar phases, bit-identically to
    /// calling [`Self::process_prepared`] once per tuple.
    ///
    /// Phase 1 (*scan*) walks the batch in stream order, running each
    /// tuple's prefix-posting scan and first-touch length filter into a
    /// shared candidate arena — inserting tuples homed here as it goes,
    /// so later tuples of the same batch still see earlier ones, exactly
    /// as in serial execution.  Phase 2 (*verify*) scores every
    /// surviving (probe, candidate) pair in blocks, reading candidate
    /// gram sets as cache-linear slices of the CSR gram column.  Epoch
    /// management and scratch growth are amortised across the batch, and
    /// the emission order is the serial order: tuples in batch order,
    /// each tuple's candidates in arrival order.
    ///
    /// `store_home = Some(id)` stores the tuples with
    /// `batch.homes[i] == id` (the sharded executor's home-shard
    /// contract); `None` probes only.  Returns the number of pairs
    /// pushed into `out`.
    pub fn probe_batch_into(
        &mut self,
        batch: &PreparedBatch,
        store_home: Option<ShardId>,
        out: &mut VecDeque<MatchPair>,
    ) -> Result<usize> {
        let coefficient = self.coefficient;
        let theta = self.theta;

        // Phase 1: candidate generation (and home-shard inserts) for the
        // whole batch, into the shared arena.
        self.scratch.candidates.clear();
        self.scratch.ranges.clear();
        self.scratch.stored_pos.clear();
        // Bulk-reserve each side's index for the tuples this batch will
        // store there, so the per-tuple inserts below never grow the
        // tuple/CSR columns or the posting table mid-batch.
        if let Some(home) = store_home {
            for side in [Side::Left, Side::Right] {
                let mut tuples = 0usize;
                let mut gram_total = 0usize;
                let mut max_id: Option<GramId> = None;
                for i in 0..batch.len() {
                    if batch.homes[i] == home && batch.sided[i].side == side {
                        tuples += 1;
                        gram_total += batch.grams[i].len();
                        if let Some(&last) = batch.grams[i].gram_ids().last() {
                            max_id = Some(max_id.map_or(last, |m| m.max(last)));
                        }
                    }
                }
                if tuples > 0 {
                    let (own, _) = self.sides.own_and_opposite_mut(side);
                    own.reserve_batch(tuples, gram_total, max_id);
                }
            }
        }
        for i in 0..batch.len() {
            let grams = &batch.grams[i];
            let bounds = self.scratch.bounds(coefficient, theta, grams.len());
            let (own, opposite) = self.sides.own_and_opposite_mut(batch.sided[i].side);
            let range = opposite.probe_arena(grams, coefficient, theta, bounds, &mut self.scratch);
            self.scratch.ranges.push(range);
            if store_home == Some(batch.homes[i]) {
                // The matched-exactly flag is not known until this
                // tuple's verify phase; phase 2 back-patches it.
                let pos = own.insert(SshStored {
                    record: batch.sided[i].record.clone(),
                    key: Arc::clone(&batch.keys[i]),
                    grams: grams.clone(),
                    matched_exactly: false,
                });
                self.scratch.stored_pos.push(pos as u32);
            } else {
                self.scratch.stored_pos.push(u32::MAX);
            }
        }

        // Phase 2: block verification of the surviving pairs, in serial
        // emission order.
        let mut emitted_total = 0usize;
        for i in 0..batch.len() {
            let sided = &batch.sided[i];
            let key = &batch.keys[i];
            let grams = &batch.grams[i];
            let bound = self.scratch.bounds(coefficient, theta, grams.len()).0;
            let (start, end) = self.scratch.ranges[i];
            let (own, opposite) = self.sides.own_and_opposite_mut(sided.side);
            let mut verified = 0u64;
            let mut matched_exactly = false;
            for &pos in &self.scratch.candidates[start as usize..end as usize] {
                let idx = pos as usize;
                let Some(shared) =
                    overlap_at_least(grams.gram_ids(), opposite.gram_column(idx), bound)
                else {
                    continue;
                };
                verified += 1;
                let partner = &mut opposite.tuples[idx];
                let pair = if partner.key == *key {
                    matched_exactly = true;
                    partner.matched_exactly = true;
                    let (l, r) = orient(sided.side, sided.record.clone(), partner.record.clone());
                    MatchPair::exact(l, r)
                } else {
                    let sim = coefficient.from_overlap(grams.len(), partner.grams.len(), shared);
                    if sim < theta {
                        continue;
                    }
                    let (l, r) = orient(sided.side, sided.record.clone(), partner.record.clone());
                    MatchPair::approximate(l, r, sim)
                };
                if pair.kind.is_exact() {
                    self.emitted_exact += 1;
                } else {
                    self.emitted_approx += 1;
                }
                out.push_back(pair);
                emitted_total += 1;
            }
            self.scratch.funnel.candidates_verified += verified;
            let pos = self.scratch.stored_pos[i];
            if matched_exactly && pos != u32::MAX {
                own.tuples[pos as usize].matched_exactly = true;
            }
        }
        Ok(emitted_total)
    }

    /// Estimated heap bytes of the reusable probe scratch: the
    /// epoch-stamp array, the candidate arena, the batch range/position
    /// columns and the memoised bounds table.  Reported by the executor
    /// alongside postings slack so the batched kernel's working memory
    /// doesn't hide as untracked RAM.
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.heap_bytes()
    }

    /// Snapshot every resident tuple, tagged with its side.
    ///
    /// Cheap relative to the state itself — records and keys are
    /// `Arc`-shared and gram sets are dense id arrays — and used by the
    /// sharded switch handover to ship one shard's residents to the
    /// others for cross-shard match recovery.  The ids are meaningful to
    /// any core sharing this core's interner.
    pub fn residents(&self) -> Vec<(Side, SshStored)> {
        let mut out = Vec::with_capacity(self.sides.left.len() + self.sides.right.len());
        for side in Side::BOTH {
            for stored in self.sides[side].tuples() {
                out.push((side, stored.clone()));
            }
        }
        out
    }

    /// Probe foreign residents (from **other** shards) against the local
    /// indexes, emitting recovered matches into `out`.
    ///
    /// This is the cross-shard half of the §3.3 handover: under hash
    /// partitioning a dirty tuple and its true partner usually accumulated
    /// in *different* shards during the exact phase, so after each shard's
    /// local [`Self::with_exact_state`] recovery the coordinator routes every
    /// shard's residents past the shards that came before it.  Foreign
    /// tuples are probed but never stored, and the same matched-exactly
    /// suppression as local recovery applies.  The foreign gram ids must
    /// come from the same shared interner as this core's.  Returns the
    /// number of recovered pairs.
    pub fn recover_foreign(
        &mut self,
        foreign: &[(Side, SshStored)],
        out: &mut VecDeque<MatchPair>,
    ) -> u64 {
        let mut recovered_exact = 0u64;
        let mut recovered_approx = 0u64;
        let coefficient = self.coefficient;
        let theta = self.theta;
        for (side, f) in foreign {
            let scratch = &mut self.scratch;
            let local = &self.sides[side.opposite()];
            let bound = local.probe_into(&f.grams, coefficient, theta, scratch);
            let mut verified = 0u64;
            for &pos in &scratch.candidates {
                let partner = &local.tuples[pos as usize];
                let Some(shared) =
                    overlap_at_least(f.grams.gram_ids(), local.gram_column(pos as usize), bound)
                else {
                    continue;
                };
                verified += 1;
                if partner.key == f.key {
                    if partner.matched_exactly && f.matched_exactly {
                        continue;
                    }
                    let (l, r) = orient(*side, f.record.clone(), partner.record.clone());
                    out.push_back(MatchPair::exact(l, r));
                    recovered_exact += 1;
                    continue;
                }
                let sim = coefficient.from_overlap(f.grams.len(), partner.grams.len(), shared);
                if sim >= theta {
                    let (l, r) = orient(*side, f.record.clone(), partner.record.clone());
                    out.push_back(MatchPair::approximate(l, r, sim));
                    recovered_approx += 1;
                }
            }
            self.scratch.funnel.candidates_verified += verified;
        }
        self.emitted_exact += recovered_exact;
        self.emitted_approx += recovered_approx;
        recovered_exact + recovered_approx
    }

    /// The similarity threshold.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Pairs emitted with identical keys.
    pub fn emitted_exact(&self) -> u64 {
        self.emitted_exact
    }

    /// Pairs emitted by similarity only.
    pub fn emitted_approx(&self) -> u64 {
        self.emitted_approx
    }

    /// Number of tuples indexed per side.
    pub fn stored(&self) -> PerSide<usize> {
        self.sides.map(GramIndex::len)
    }

    /// Read access to the per-side indexes (state-size reporting).
    pub fn indexes(&self) -> &PerSide<GramIndex> {
        &self.sides
    }

    /// Estimated resident-state size in bytes, per side.  Gram text is
    /// not included — it lives once in the shared interner (see
    /// [`Self::interner_bytes`]) — and neither is flat-posting slack,
    /// reported by [`Self::postings_slack_bytes`].
    pub fn state_bytes(&self) -> PerSide<usize> {
        self.sides.map(GramIndex::state_bytes)
    }

    /// Estimated flat-posting slack bytes, per side (empty slot headers
    /// plus unused posting capacity; see
    /// [`GramIndex::postings_slack_bytes`]).
    pub fn postings_slack_bytes(&self) -> PerSide<usize> {
        self.sides.map(GramIndex::postings_slack_bytes)
    }

    /// Cumulative candidate-funnel counters over every probe this core
    /// ran (steady-state, handover recovery and foreign recovery alike).
    pub fn funnel(&self) -> ProbeFunnel {
        self.scratch.funnel
    }

    /// Install a snapshot's resident state into a freshly built core.
    ///
    /// The snapshot stores only the arrival-order tuple column per side
    /// (record, key, gram-id set with its original rare-first probe
    /// order, matched-exactly flag); every index structure — flat
    /// postings, the length and signature columns, the CSR gram column
    /// and the posting-entry count — is re-derived from it in bulk
    /// ([`GramIndex::extend`]), so none of them is ever written to
    /// disk.  The counters a rebuild cannot re-derive — the emission
    /// counters and the cumulative probe funnel — are set explicitly.
    /// **Snapshot restore only.**
    pub(crate) fn bulk_restore(
        &mut self,
        mut tuples: PerSide<Vec<SshStored>>,
        emitted_exact: u64,
        emitted_approx: u64,
        funnel: ProbeFunnel,
    ) {
        for side in Side::BOTH {
            self.sides[side] = GramIndex::default();
            self.sides[side].extend(std::mem::take(&mut tuples[side]));
        }
        self.emitted_exact = emitted_exact;
        self.emitted_approx = emitted_approx;
        self.scratch.funnel = funnel;
    }

    /// Re-insert one resident tuple through the steady-state insert
    /// path, without probing — the per-tuple replay [`Self::bulk_restore`]
    /// replaced, retained as the reference it is tested against.
    #[cfg(test)]
    pub(crate) fn insert_restored(&mut self, side: Side, stored: SshStored) {
        self.sides[side].insert(stored);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterator::Operator;
    use crate::scan::InterleavedScan;
    use linkage_types::{Field, Schema, Value, VecStream};

    fn stream_of(keys: &[&str]) -> VecStream {
        let records = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Record::new(i as u64, vec![Value::string(*k)]))
            .collect();
        VecStream::new(Schema::of(vec![Field::string("k")]), records)
    }

    /// Run `left` and `right` alternately through a fresh core.
    fn run(left: &[&str], right: &[&str], theta: f64) -> (SshJoinCore, Vec<MatchPair>) {
        let mut core = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), theta);
        let mut out = VecDeque::new();
        let mut feed = InterleavedScan::alternating(stream_of(left), stream_of(right));
        for sided in feed.run_to_end().unwrap() {
            core.process(sided, &mut out).unwrap();
        }
        (core, out.into())
    }

    const LONG_A: &str = "TAA BZ SANTA CRISTINA VALGARDENA";
    const LONG_A_TYPO: &str = "TAA BZ SANTA CRISTINx VALGARDENA";
    const UNRELATED: &str = "LIG GE GENOVA NERVI";

    #[test]
    fn near_duplicates_match_and_unrelated_do_not() {
        let pairs = run(&[LONG_A], &[LONG_A_TYPO, UNRELATED], 0.8).1;
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].id_pair().1.as_u64(), 0);
        assert!(pairs[0].kind.is_approximate());
        assert!(pairs[0].kind.similarity() > 0.8 && pairs[0].kind.similarity() < 1.0);
    }

    #[test]
    fn identical_keys_emit_exact_kind() {
        let pairs = run(&[LONG_A], &[LONG_A], 0.8).1;
        assert_eq!(pairs.len(), 1);
        assert!(pairs[0].kind.is_exact());
    }

    #[test]
    fn symmetric_discovery_each_pair_once() {
        // Both orders of arrival must find the pair, but only once.
        let pairs = run(&[LONG_A, UNRELATED], &[UNRELATED, LONG_A_TYPO], 0.8).1;
        let mut seen = std::collections::HashSet::new();
        for p in &pairs {
            assert!(seen.insert(p.id_pair()), "duplicate {:?}", p.id_pair());
        }
        assert_eq!(pairs.len(), 2, "typo pair and exact unrelated pair");
    }

    #[test]
    fn threshold_one_only_accepts_identical_gram_sets() {
        let pairs = run(&[LONG_A, LONG_A_TYPO], &[LONG_A], 1.0).1;
        assert_eq!(pairs.len(), 1);
        assert!(pairs[0].kind.is_exact());
    }

    #[test]
    fn empty_keys_never_match_through_the_index() {
        let pairs = run(&["", "x"], &["", "x"], 0.5).1;
        // Only the "x"/"x" pair: empty keys produce no grams, hence no
        // candidates in the inverted index.
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].left.key_str(0).unwrap(), "x");
    }

    #[test]
    fn index_counters_grow_with_insertions() {
        let (core, _) = run(&[LONG_A], &[UNRELATED], 0.8);
        assert_eq!(core.stored(), PerSide::new(1, 1));
        let idx = &core.indexes()[Side::Left];
        assert!(idx.distinct_grams() > 10);
        assert_eq!(idx.posting_entries(), idx.tuples()[0].grams.len());
        assert_eq!((core.emitted_exact(), core.emitted_approx()), (0, 0));
    }

    #[test]
    fn length_filter_drops_hopeless_candidates_before_counting() {
        // A short key shares grams with a long one, but the Jaccard
        // threshold is unreachable at any overlap: the candidate never
        // enters the candidate list.
        let mut core = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8);
        let mut out = VecDeque::new();
        core.process(sided(Side::Left, 0, LONG_A), &mut out)
            .unwrap();
        let probe = sided(Side::Right, 0, "TAA BZ");
        let (key, grams) = core.prepare(&probe).unwrap();
        assert!(!grams.is_empty());
        let left = &core.sides[Side::Left];
        let mut scratch = ProbeScratch::default();
        left.probe_into(&grams, QGramCoefficient::Jaccard, 0.8, &mut scratch);
        assert!(
            scratch.candidates.is_empty(),
            "length filter must reject the candidate at first touch"
        );
        // But under the Overlap coefficient (denominator min(|A|, |B|))
        // the same candidate is feasible and must survive the filter.
        left.probe_into(&grams, QGramCoefficient::Overlap, 0.8, &mut scratch);
        assert_eq!(scratch.candidates.len(), 1);
        // End-to-end: the probe emits nothing under Jaccard.
        let emitted = core
            .process_prepared(&probe, &key, &grams, false, &mut out)
            .unwrap();
        assert_eq!(emitted, 0);
    }

    #[test]
    fn signature_filter_drops_what_the_merge_would_reject() {
        // Resident and probe are equally long and share only the seven
        // grams of "TAA BZ ": the length filter passes the candidate, the
        // merge would reject it (7 < ⌈0.8·34⌉), and the signature filter
        // spares the merge.  Two right-side residents holding the probe's
        // tail make its unshared grams the frequent ones, so the shared
        // grams fall inside the rare-first prefix and the candidate is
        // scanned at all.
        const TAIL: &str = "XKWQJ YPOMZFUH DLGVRNEICS";
        let mut core = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8);
        let mut out = VecDeque::new();
        core.process(sided(Side::Left, 0, LONG_A), &mut out)
            .unwrap();
        for id in 0..2 {
            core.process(sided(Side::Right, id, TAIL), &mut out)
                .unwrap();
        }
        let probe = sided(Side::Right, 2, &format!("TAA BZ {TAIL}"));
        let (key, grams) = core.prepare(&probe).unwrap();
        let left = &core.sides[Side::Left];
        assert_eq!(grams.len(), left.lens[0] as usize);

        let mut scratch = ProbeScratch::default();
        let bound = left.probe_into(&grams, QGramCoefficient::Jaccard, 0.8, &mut scratch);
        assert_eq!(
            scratch.funnel.candidates_after_length_filter, 1,
            "counted before the signature test"
        );
        assert!(scratch.candidates.is_empty(), "dropped before the merge");
        assert_eq!(
            overlap_at_least(grams.gram_ids(), left.gram_column(0), bound),
            None,
            "the merge would have rejected it"
        );
        // Overlap's bound is one shared gram: the filter is inert.
        left.probe_into(&grams, QGramCoefficient::Overlap, 0.8, &mut scratch);
        assert_eq!(scratch.candidates, [0]);

        let before = core.funnel();
        let emitted = core
            .process_prepared(&probe, &key, &grams, false, &mut out)
            .unwrap();
        assert_eq!(emitted, 0);
        assert_eq!(
            core.funnel().candidates_after_length_filter,
            before.candidates_after_length_filter + 1
        );
        assert_eq!(
            core.funnel().candidates_verified,
            before.candidates_verified
        );
    }

    #[test]
    fn epoch_counters_survive_many_probes_without_reset_cost() {
        // Many consecutive probes against the same index must stay
        // correct — each probe logically resets the counters by epoch
        // bump, never by clearing.
        let mut core = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8);
        let mut out = VecDeque::new();
        core.process(sided(Side::Left, 0, LONG_A), &mut out)
            .unwrap();
        core.process(sided(Side::Left, 1, UNRELATED), &mut out)
            .unwrap();
        let probe = sided(Side::Right, 9, LONG_A_TYPO);
        let (key, grams) = core.prepare(&probe).unwrap();
        for _ in 0..100 {
            out.clear();
            let emitted = core
                .process_prepared(&probe, &key, &grams, false, &mut out)
                .unwrap();
            assert_eq!(emitted, 1);
            assert_eq!(out[0].id_pair(), (0.into(), 9.into()));
        }
    }

    #[test]
    fn handover_recovers_missed_matches_and_skips_exact_duplicates() {
        use crate::exact::ExactJoinCore;
        use linkage_text::NormalizeConfig;
        use linkage_types::SidedRecord;

        // Feed an exact core: one clean pair and one typo pair.
        let mut exact = ExactJoinCore::new(PerSide::new(0, 0), NormalizeConfig::default());
        let mut sink = VecDeque::new();
        let feed = [
            (Side::Left, 0u64, LONG_A),
            (Side::Right, 0u64, LONG_A), // exact match -> emitted now
            (Side::Left, 1u64, "LIG GE GENOVA NERVI CAPOLUNGO"),
            (Side::Right, 1u64, "LIG GE GENOVA NERVx CAPOLUNGO"), // typo -> missed
        ];
        for (side, id, key) in feed {
            let rec = Record::new(id, vec![Value::string(key)]);
            exact
                .process(SidedRecord::new(side, rec), &mut sink)
                .unwrap();
        }
        assert_eq!(sink.len(), 1, "exact phase emits only the clean pair");
        sink.clear();

        let (core, recovered) = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8)
            .with_exact_state(exact.into_tables(), &mut sink);
        assert_eq!(recovered, 1, "the typo pair is recovered");
        assert_eq!(sink.len(), 1);
        let pair = &sink[0];
        assert_eq!(pair.left.id.as_u64(), 1);
        assert_eq!(pair.right.id.as_u64(), 1);
        assert!(pair.kind.is_approximate());
        assert_eq!(core.stored(), PerSide::new(2, 2));
    }

    /// The recovery's funnel on a feed whose first left key opens with
    /// grams that only the right side makes common.  Tokenised right side
    /// first, that key's probe prefix skips them; left first, they tie at
    /// frequency 1 and the first-seen ones lead the prefix, so their long
    /// right lists are scanned.  The equal-key pairs the exact phase
    /// emitted are skipped before any merge, so only the two typo pairs
    /// are verified.
    #[test]
    fn recovery_ranks_left_probes_against_the_right_side_and_skips_emitted_pairs() {
        use crate::exact::ExactJoinCore;
        use linkage_text::NormalizeConfig;

        const ROMA: &str = "ROMA TERMINI NORD BINARIO QUINDICI";
        let mut feed = vec![
            sided(Side::Left, 0, ROMA),
            sided(Side::Left, 1, "MILANO CENTRALE"),
            sided(Side::Left, 2, "NAPOLI MERGELLINA VIA CARACCIOLO"),
            sided(Side::Right, 0, ROMA),
            sided(Side::Right, 1, "MILANO CENTRALE"),
            sided(Side::Right, 2, "ROMA TERMINI NORD BINxRIO QUINDICI"),
            sided(Side::Right, 3, "NAPOLI MERGELLINA VIA CARACCIOLx"),
        ];
        for (i, street) in [
            "APPIA",
            "OSTIENSE",
            "TIBURTINA",
            "SALARIA",
            "CASSIA",
            "FLAMINIA",
        ]
        .into_iter()
        .enumerate()
        {
            let key = format!("ROMA TERMINI VIA {street}");
            feed.push(sided(Side::Right, 4 + i as u64, &key));
        }
        let mut exact = ExactJoinCore::new(PerSide::new(0, 0), NormalizeConfig::default());
        let mut out = VecDeque::new();
        for t in feed {
            exact.process(t, &mut out).unwrap();
        }
        assert_eq!(out.len(), 2, "the two equal-key pairs");
        out.clear();

        let (core, recovered) = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8)
            .with_exact_state(exact.into_tables(), &mut out);
        let ids: Vec<_> = out.iter().map(|p| p.id_pair()).collect();
        assert_eq!(ids, [(0.into(), 2.into()), (2.into(), 3.into())]);
        assert_eq!(recovered, 2);
        // Left side first reads (75, 2); merging before the skip, (23, 4).
        let funnel = core.funnel();
        assert_eq!(
            (funnel.candidates_scanned, funnel.candidates_verified),
            (23, 2)
        );
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_out_of_range_threshold() {
        SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 1.5);
    }

    #[test]
    #[should_panic(expected = "empty core")]
    fn shared_interner_requires_an_empty_core() {
        let mut core = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8);
        let mut out = VecDeque::new();
        core.process(sided(Side::Left, 0, LONG_A), &mut out)
            .unwrap();
        let _ = core.with_shared_interner(SharedInterner::new());
    }

    fn sided(side: Side, id: u64, key: &str) -> SidedRecord {
        SidedRecord::new(side, Record::new(id, vec![Value::string(key)]))
    }

    #[test]
    fn probe_only_emits_but_does_not_store() {
        let mut core = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8);
        let mut out = VecDeque::new();
        core.process(sided(Side::Left, 0, LONG_A), &mut out)
            .unwrap();

        let probe = sided(Side::Right, 0, LONG_A_TYPO);
        let (key, grams) = core.prepare(&probe).unwrap();
        let emitted = core
            .process_prepared(&probe, &key, &grams, false, &mut out)
            .unwrap();
        assert_eq!(emitted, 1);
        assert_eq!(
            core.stored(),
            PerSide::new(1, 0),
            "probe-only must not store"
        );

        // Probing again still finds the pair: nothing was consumed or moved.
        let emitted = core
            .process_prepared(&probe, &key, &grams, true, &mut out)
            .unwrap();
        assert_eq!(emitted, 1);
        assert_eq!(core.stored(), PerSide::new(1, 1));
    }

    #[test]
    fn prepared_store_matches_plain_process() {
        let mut plain = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8);
        let mut prepared = plain.clone();
        let tuples = [
            sided(Side::Left, 0, LONG_A),
            sided(Side::Right, 0, LONG_A_TYPO),
            sided(Side::Right, 1, UNRELATED),
            sided(Side::Left, 1, UNRELATED),
        ];
        let (mut out_a, mut out_b) = (VecDeque::new(), VecDeque::new());
        for t in &tuples {
            plain.process(t.clone(), &mut out_a).unwrap();
            let (key, grams) = prepared.prepare(t).unwrap();
            prepared
                .process_prepared(t, &key, &grams, true, &mut out_b)
                .unwrap();
        }
        let ids = |q: &VecDeque<MatchPair>| q.iter().map(MatchPair::id_pair).collect::<Vec<_>>();
        assert_eq!(ids(&out_a), ids(&out_b));
        assert_eq!(plain.stored(), prepared.stored());
    }

    #[test]
    fn foreign_recovery_finds_cross_shard_pairs_once() {
        // Shard 0 accumulated the clean left tuple, shard 1 its dirty
        // partner — the situation hash partitioning produces for typo
        // pairs.  The shards share one interner, as the executor
        // arranges, so shipped gram ids are mutually meaningful.
        let interner = SharedInterner::new();
        let mut shard0 = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8)
            .with_shared_interner(interner.clone());
        let mut shard1 = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8)
            .with_shared_interner(interner);
        let mut out = VecDeque::new();
        shard0
            .process(sided(Side::Left, 0, LONG_A), &mut out)
            .unwrap();
        shard1
            .process(sided(Side::Right, 7, LONG_A_TYPO), &mut out)
            .unwrap();
        assert!(out.is_empty(), "different shards: nothing found locally");

        // Coordinator ships shard 0's residents past shard 1.
        let recovered = shard1.recover_foreign(&shard0.residents(), &mut out);
        assert_eq!(recovered, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id_pair(), (0.into(), 7.into()));
        assert!(out[0].kind.is_approximate());
        assert_eq!(
            shard1.stored(),
            PerSide::new(0, 1),
            "foreign tuples not stored"
        );
    }

    #[test]
    fn foreign_recovery_respects_matched_exactly_flags() {
        // Both residents carry the flag and equal keys: the pair was already
        // emitted by the exact phase and must be suppressed.
        let interner = SharedInterner::new();
        let mut shard = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8)
            .with_shared_interner(interner.clone());
        let mut out = VecDeque::new();
        shard
            .process(sided(Side::Right, 3, LONG_A), &mut out)
            .unwrap();
        let flagged: Vec<(Side, SshStored)> = {
            let mut probe = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8)
                .with_shared_interner(interner);
            probe
                .process(sided(Side::Left, 3, LONG_A), &mut out)
                .unwrap();
            probe
                .residents()
                .into_iter()
                .map(|(side, mut stored)| {
                    stored.matched_exactly = true;
                    (side, stored)
                })
                .collect()
        };
        // Flag the local resident too.
        shard.sides[Side::Right].tuples[0].matched_exactly = true;
        out.clear();
        assert_eq!(shard.recover_foreign(&flagged, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn funnel_counts_prefix_scans_skips_and_verifications() {
        let mut core = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8);
        let mut out = VecDeque::new();
        core.process(sided(Side::Left, 0, LONG_A), &mut out)
            .unwrap();
        core.process(sided(Side::Left, 1, UNRELATED), &mut out)
            .unwrap();
        let before = core.funnel();
        core.process(sided(Side::Right, 2, LONG_A_TYPO), &mut out)
            .unwrap();
        let after = core.funnel();
        // Under Jaccard θ=0.8 the prefix is ~1/5 of the probe set: some
        // postings were scanned, and the non-prefix lists were skipped.
        assert!(after.candidates_scanned > before.candidates_scanned);
        assert!(after.prefix_postings_skipped > before.prefix_postings_skipped);
        // Exactly one candidate survives the length filter (the typo
        // partner; UNRELATED shares no grams) and verifies successfully.
        assert_eq!(
            after.candidates_after_length_filter,
            before.candidates_after_length_filter + 1
        );
        assert_eq!(after.candidates_verified, before.candidates_verified + 1);
    }

    #[test]
    fn coefficient_change_recomputes_prefix_lengths_mid_stream() {
        // The same probe against the same resident state scans a short
        // prefix under Jaccard (θ·|A| bound) but the full gram set under
        // Overlap (min_overlap = 1 ⇒ prefix = |A|): the per-probe funnel
        // deltas expose the recomputation.
        let mut core = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8);
        let mut out = VecDeque::new();
        core.process(sided(Side::Left, 0, LONG_A), &mut out)
            .unwrap();
        let probe = sided(Side::Right, 1, LONG_A);
        let (key, grams) = core.prepare(&probe).unwrap();

        let before = core.funnel();
        core.process_prepared(&probe, &key, &grams, false, &mut out)
            .unwrap();
        let jaccard = core.funnel();
        assert!(
            jaccard.prefix_postings_skipped > before.prefix_postings_skipped,
            "Jaccard at θ=0.8 must skip non-prefix postings"
        );

        core.set_coefficient(QGramCoefficient::Overlap);
        assert_eq!(core.coefficient(), QGramCoefficient::Overlap);
        core.process_prepared(&probe, &key, &grams, false, &mut out)
            .unwrap();
        let overlap = core.funnel();
        assert_eq!(
            overlap.prefix_postings_skipped, jaccard.prefix_postings_skipped,
            "Overlap's prefix is the whole probe set: nothing newly skipped"
        );
        assert!(
            overlap.candidates_scanned - jaccard.candidates_scanned
                > jaccard.candidates_scanned - before.candidates_scanned,
            "the full-set scan must touch more postings than the prefix scan"
        );
        // Both probes found the equal-key partner.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|p| p.kind.is_exact()));
    }

    #[test]
    fn postings_slack_is_separate_and_none_after_handover() {
        use crate::exact::ExactJoinCore;
        use linkage_text::NormalizeConfig;

        // Steady-state inserts leave push-growth capacity and (with a
        // shared id space) empty slots behind.
        let interner = SharedInterner::new();
        // Intern foreign grams first so this core's posting array has
        // leading never-populated slots.
        {
            let mut lock = interner.lock();
            for g in ["zz1", "zz2", "zz3"] {
                lock.intern(g);
            }
        }
        let mut core = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8)
            .with_shared_interner(interner);
        let mut out = VecDeque::new();
        for i in 0..8 {
            core.process(sided(Side::Left, i, LONG_A), &mut out)
                .unwrap();
        }
        let slack = core.postings_slack_bytes();
        assert!(
            slack.left >= 3 * std::mem::size_of::<Vec<u32>>(),
            "empty slots of foreign ids must be accounted as slack"
        );
        // state_bytes counts payload only: inserting the same key again
        // adds postings but the slack decreases or stays (capacity gets
        // used), never double-counted.
        let state = core.state_bytes().left;
        assert!(state > 0);

        // The handover builds its lists in bulk, sized exactly: slack is
        // then only the empty headers, not unused capacity.
        let mut exact = ExactJoinCore::new(PerSide::new(0, 0), NormalizeConfig::default());
        for i in 0..8 {
            exact
                .process(sided(Side::Left, i, LONG_A), &mut out)
                .unwrap();
            exact
                .process(sided(Side::Right, 100 + i, UNRELATED), &mut out)
                .unwrap();
        }
        out.clear();
        let (switched, _) = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8)
            .with_exact_state(exact.into_tables(), &mut out);
        let slack = switched.postings_slack_bytes();
        let empty_left = switched.sides[Side::Left]
            .postings
            .iter()
            .filter(|p| p.is_empty())
            .count();
        assert_eq!(
            slack.left,
            empty_left * std::mem::size_of::<Vec<u32>>(),
            "after the handover the only slack is empty slot headers"
        );
    }

    /// An index built ahead in chunks — each tokenised, then appended by
    /// one `extend` — with a flag an exact match set after its resident
    /// was indexed and arrivals after the last chunk, hands over the
    /// index one `extend` over every resident builds, column for column,
    /// and the same recovered pairs.
    #[test]
    fn an_index_built_ahead_in_chunks_equals_one_bulk_extend() {
        let left = [LONG_A, LONG_A_TYPO, UNRELATED, "", LONG_A, UNRELATED];
        let right = [
            "TAA BZ SANTA CRISTINx VALGARDENx",
            "LIG GE GENOVA NERVx",
            "",
            UNRELATED,
            LONG_A,
            LONG_A,
        ];
        let mut tuples: Vec<SidedRecord> = (0..6u64)
            .flat_map(|i| {
                let (l, r) = (left[i as usize], right[i as usize]);
                [sided(Side::Left, i, l), sided(Side::Right, 100 + i, r)]
            })
            .collect();
        let late = tuples.split_off(8);
        let mut exact = crate::exact::ExactJoinCore::new(PerSide::new(0, 0), Default::default());
        let mut out = VecDeque::new();
        for sided in &tuples {
            exact.process(sided.clone(), &mut out).unwrap();
        }
        let interner = SharedInterner::new();
        let config = QGramConfig::default();
        let mut handover = Handover::default();
        for chunk in [3, 1, 4] {
            handover.tokenize(exact.tables(), &config, &interner, chunk);
            handover.index(exact.tables());
        }
        assert_eq!(handover.indexes.map(GramIndex::len), PerSide::new(4, 4));
        // A late right LONG_A flags the indexed left one; the two late
        // right tuples are tokenised ahead but not indexed.
        for sided in &late {
            exact.process(sided.clone(), &mut out).unwrap();
        }
        assert!(exact.tables().left.tuples()[0].matched_exactly);
        assert!(!handover.indexes.left.tuples()[0].matched_exactly);
        handover.tokenize(exact.tables(), &config, &interner, 2);

        let tables = exact.into_tables();
        let core = || {
            SshJoinCore::new(PerSide::new(0, 0), config.clone(), 0.8)
                .with_shared_interner(interner.clone())
        };
        let (mut ahead_out, mut bulk_out) = (VecDeque::new(), VecDeque::new());
        let (bulk, bulk_recovered) = core().with_exact_state(tables.clone(), &mut bulk_out);
        let (ahead, ahead_recovered) = core().with_handover(tables, handover, &mut ahead_out);
        assert_eq!(ahead_recovered, bulk_recovered);
        let pairs = |out: &VecDeque<MatchPair>| -> Vec<_> {
            out.iter().map(|p| (p.id_pair(), p.kind)).collect()
        };
        assert_eq!(pairs(&ahead_out), pairs(&bulk_out));
        for side in Side::BOTH {
            let (a, b) = (&ahead.sides[side], &bulk.sides[side]);
            let column = |index: &GramIndex| -> Vec<_> {
                (index.tuples.iter())
                    .map(|t| {
                        (
                            t.record.id,
                            t.key.clone(),
                            t.grams.gram_ids().to_vec(),
                            t.matched_exactly,
                        )
                    })
                    .collect()
            };
            assert_eq!(column(a), column(b), "{side:?} tuples and flags");
            assert_eq!(a.postings, b.postings, "{side:?} postings");
            assert_eq!(a.lens, b.lens, "{side:?} lens");
            assert_eq!(a.sigs, b.sigs, "{side:?} sigs");
            assert_eq!(
                (&a.grams, &a.offsets),
                (&b.grams, &b.offsets),
                "{side:?} CSR"
            );
            assert_eq!(a.posting_entries, b.posting_entries);
            assert_eq!(a.postings_slack_bytes(), b.postings_slack_bytes());
        }
        assert_eq!(ahead.stored(), PerSide::new(6, 6));
    }

    fn batch_of(core: &SshJoinCore, tuples: &[SidedRecord], home: ShardId) -> PreparedBatch {
        let mut batch = PreparedBatch::with_capacity(tuples.len());
        for t in tuples {
            let (key, grams) = core.prepare(t).unwrap();
            batch.push(t.clone(), key, grams, home);
        }
        batch
    }

    #[test]
    fn probe_batch_matches_serial_processing() {
        // Intra-batch cross-side matches (typo pair, exact pair) must
        // come out identically — same pairs, same order, same counters,
        // same matched-exactly flags — from the batched entry point.
        let tuples = [
            sided(Side::Left, 0, LONG_A),
            sided(Side::Right, 0, LONG_A_TYPO),
            sided(Side::Right, 1, UNRELATED),
            sided(Side::Left, 1, UNRELATED),
            sided(Side::Left, 2, LONG_A),
            sided(Side::Right, 2, LONG_A),
        ];
        let interner = SharedInterner::new();
        let mut serial = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8)
            .with_shared_interner(interner.clone());
        let mut batched = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8)
            .with_shared_interner(interner);

        let mut out_serial = VecDeque::new();
        for t in &tuples {
            let (key, grams) = serial.prepare(t).unwrap();
            serial
                .process_prepared(t, &key, &grams, true, &mut out_serial)
                .unwrap();
        }

        let batch = batch_of(&batched, &tuples, ShardId(0));
        let mut out_batch = VecDeque::new();
        let emitted = batched
            .probe_batch_into(&batch, Some(ShardId(0)), &mut out_batch)
            .unwrap();

        assert_eq!(emitted, out_serial.len());
        let view =
            |q: &VecDeque<MatchPair>| q.iter().map(|p| (p.id_pair(), p.kind)).collect::<Vec<_>>();
        assert_eq!(view(&out_serial), view(&out_batch));
        assert_eq!(serial.stored(), batched.stored());
        assert_eq!(serial.emitted_exact(), batched.emitted_exact());
        assert_eq!(serial.emitted_approx(), batched.emitted_approx());
        assert_eq!(serial.funnel(), batched.funnel());
        for side in Side::BOTH {
            let flags = |c: &SshJoinCore| {
                c.sides[side]
                    .tuples()
                    .iter()
                    .map(|t| t.matched_exactly)
                    .collect::<Vec<_>>()
            };
            assert_eq!(flags(&serial), flags(&batched), "{side:?} flags");
        }
        // The exact pair (LONG_A on both sides) must have flagged both
        // residents through the phase-2 back-patch.
        assert!(batched.sides[Side::Left].tuples()[2].matched_exactly);
        assert!(batched.sides[Side::Right].tuples()[2].matched_exactly);
    }

    #[test]
    fn probe_batch_store_home_filters_stores() {
        let tuples = [
            sided(Side::Left, 0, LONG_A),
            sided(Side::Right, 0, LONG_A_TYPO),
        ];
        let core = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8);

        // homes[0] = shard 1, homes[1] = shard 0: a shard-0 worker
        // probes both but stores only the second tuple; its probe still
        // cannot see tuple 0 (stored elsewhere), so nothing is emitted.
        let mut worker = core.clone();
        let mut batch = batch_of(&worker, &tuples, ShardId(1));
        batch.homes[1] = ShardId(0);
        let mut out = VecDeque::new();
        worker
            .probe_batch_into(&batch, Some(ShardId(0)), &mut out)
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(worker.stored(), PerSide::new(0, 1));

        // Probe-only mode stores nothing at all.
        let mut probe_only = core.clone();
        let batch = batch_of(&probe_only, &tuples, ShardId(0));
        probe_only.probe_batch_into(&batch, None, &mut out).unwrap();
        assert_eq!(probe_only.stored(), PerSide::new(0, 0));
    }

    #[test]
    fn empty_and_singleton_batches_are_fine() {
        let mut core = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8);
        let mut out = VecDeque::new();
        let empty = PreparedBatch::default();
        assert_eq!(
            core.probe_batch_into(&empty, Some(ShardId(0)), &mut out)
                .unwrap(),
            0
        );
        let one = batch_of(&core, &[sided(Side::Left, 0, LONG_A)], ShardId(0));
        assert_eq!(
            core.probe_batch_into(&one, Some(ShardId(0)), &mut out)
                .unwrap(),
            0
        );
        assert_eq!(core.stored(), PerSide::new(1, 0));
    }

    #[test]
    fn gram_column_mirrors_stored_sets() {
        let mut core = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8);
        let mut out = VecDeque::new();
        for (i, key) in [LONG_A, UNRELATED, LONG_A_TYPO].iter().enumerate() {
            core.process(sided(Side::Left, i as u64, key), &mut out)
                .unwrap();
        }
        let idx = &core.sides[Side::Left];
        for (pos, stored) in idx.tuples().iter().enumerate() {
            assert_eq!(idx.gram_column(pos), stored.grams.gram_ids(), "pos {pos}");
        }
    }

    #[test]
    fn scratch_bytes_reports_probe_allocations() {
        let mut core = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8);
        assert_eq!(core.scratch_bytes(), 0, "fresh core owns no scratch heap");
        let mut out = VecDeque::new();
        core.process(sided(Side::Left, 0, LONG_A), &mut out)
            .unwrap();
        core.process(sided(Side::Right, 1, LONG_A_TYPO), &mut out)
            .unwrap();
        let serial = core.scratch_bytes();
        assert!(serial > 0, "probing must grow stamps/bounds scratch");
        let batch = batch_of(&core, &[sided(Side::Right, 2, LONG_A)], ShardId(0));
        core.probe_batch_into(&batch, Some(ShardId(0)), &mut out)
            .unwrap();
        assert!(
            core.scratch_bytes() >= serial,
            "batch mode adds range/position columns"
        );
    }

    #[test]
    fn state_bytes_per_resident_is_pinned() {
        // One more resident with an already indexed key costs its tuple
        // entry, its key text, four id-sized words per gram (sorted ids,
        // rare-first permutation, CSR column, posting entries) and one
        // slot in each flat column: length 4 B, signature 16 B, offset 4 B.
        let mut core = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8);
        let mut out = VecDeque::new();
        core.process(sided(Side::Left, 0, LONG_A), &mut out)
            .unwrap();
        let one = core.state_bytes().left;
        let interner = core.interner_bytes();
        core.process(sided(Side::Left, 1, LONG_A), &mut out)
            .unwrap();
        let grams = core.sides[Side::Left].tuples()[0].grams.len();
        assert_eq!(
            core.state_bytes().left - one,
            std::mem::size_of::<SshStored>() + LONG_A.len() + 4 * 4 * grams + 4 + 16 + 4
        );
        // The gram table: text once, an `Arc<str>` and a frequency per
        // id, and a 16 B inline-keyed slot per (three-character) gram.
        assert_eq!(core.interner_bytes(), interner, "no new gram");
        let text: usize = core.interner().lock().texts().iter().map(|t| t.len()).sum();
        assert_eq!(interner, text + grams * (16 + 4 + 16));
    }

    #[test]
    fn state_bytes_counts_index_growth_and_interner_separately() {
        let mut core = SshJoinCore::new(PerSide::new(0, 0), QGramConfig::default(), 0.8);
        let mut out = VecDeque::new();
        assert_eq!(core.state_bytes(), PerSide::new(0, 0));
        assert_eq!(core.interner_bytes(), 0);
        core.process(sided(Side::Left, 0, LONG_A), &mut out)
            .unwrap();
        let one = core.state_bytes();
        assert!(one.left > 0 && one.right == 0);
        let interner_one = core.interner_bytes();
        assert!(interner_one > 0, "gram text lives in the interner");
        core.process(sided(Side::Left, 1, UNRELATED), &mut out)
            .unwrap();
        assert!(core.state_bytes().left > one.left);
        assert!(core.interner_bytes() > interner_one);
        // Re-inserting the same key adds postings but no new gram text.
        let interner_two = core.interner_bytes();
        core.process(sided(Side::Left, 2, UNRELATED), &mut out)
            .unwrap();
        assert_eq!(core.interner_bytes(), interner_two);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The signature bound never under-estimates `|A ∩ B|`, so for no
        /// coefficient and threshold does the filter drop a pair that
        /// reaches θ — over Unicode keys with characters above U+FFFF,
        /// keys shorter than `q`, and both paddings.
        #[test]
        fn signature_bound_never_underestimates_the_overlap(
            a in "[abAB éß𝄞😀]{0,12}",
            b in "[abAB éß𝄞😀]{0,12}",
            noise in proptest::collection::vec("[a-z]{1,9}", 0..40),
            pad in 0usize..2,
        ) {
            let mut config = QGramConfig::default();
            config.pad = pad == 1;
            let interner = SharedInterner::new();
            // Other keys first: which bit a gram sets depends on its id.
            for key in &noise {
                QGramSet::extract(key, &config, &mut interner.lock());
            }
            let sa = QGramSet::extract(&a, &config, &mut interner.lock());
            let sb = QGramSet::extract(&b, &config, &mut interner.lock());
            let shared = sa.intersection_size(&sb);
            let bound = signature_overlap_bound(
                sa.len(),
                sb.len(),
                signature(sa.gram_ids()),
                signature(sb.gram_ids()),
            );
            prop_assert!(bound >= shared, "bound {} < overlap {}", bound, shared);
            for coefficient in QGramCoefficient::ALL {
                for theta in [0.1, 0.3, 0.5, 0.8, 1.0] {
                    if sa.is_empty() || coefficient.from_overlap(sa.len(), sb.len(), shared) < theta {
                        continue;
                    }
                    let mut index = GramIndex::default();
                    index.insert(SshStored {
                        record: Record::new(0u64, Vec::new()),
                        key: Arc::from(b.as_str()),
                        grams: sb.clone(),
                        matched_exactly: false,
                    });
                    let mut scratch = ProbeScratch::default();
                    index.probe_into(&sa, coefficient, theta, &mut scratch);
                    prop_assert!(
                        scratch.candidates == [0],
                        "{} θ={}: a pair reaching θ was filtered",
                        coefficient.name(),
                        theta
                    );
                }
            }
        }
    }
}
