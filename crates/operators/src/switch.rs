//! The switchable join: exact until told otherwise, approximate after.
//!
//! [`SwitchJoinCore`] is a push core: it is fed one tuple at a time and
//! never reads input itself.  It starts life as a pipelined exact
//! symmetric hash join and can be switched to the approximate SSH join
//! **mid-stream** by an external controller (the adaptivity loop in
//! `linkage-core`, or a caller invoking
//! [`SwitchJoinCore::switch_to_approximate`] directly).  The switch
//! performs the paper's §3.3 state handover:
//!
//! 1. the exact join's per-side hash tables are migrated into the SSH
//!    join's inverted q-gram indexes, tokenising each resident key once
//!    (when the caller has notice of the switch, ahead of it, through
//!    [`SwitchJoinCore::index_ahead`] or
//!    [`SwitchJoinCore::tokenize_ahead`]; the switch then copies the
//!    matched-exactly flags of the residents indexed ahead);
//! 2. the resident tuples are re-probed against each other, *recovering*
//!    approximate matches the exact operator missed;
//! 3. per-tuple matched-exactly flags suppress the equal-key pairs the
//!    exact operator already emitted, so the combined output stream carries
//!    no duplicates.
//!
//! After the switch, arriving tuples are processed by the SSH join kernel,
//! which emits both equal-key (exact-kind) and similar-key matches.
//!
//! [`SwitchJoin`] is a pull adapter over the core — an [`Operator`] that
//! reads its own input, one tuple per [`SwitchJoin::advance`].  The
//! engines do not use it; it is kept for the benchmark's handover layer.

use std::collections::VecDeque;
use std::sync::Arc;

use linkage_text::{NormalizeConfig, QGramCoefficient, QGramConfig, SharedInterner};
use linkage_types::{defaults, LinkageError, MatchKind, MatchPair, PerSide, Result, SidedRecord};

use crate::exact::ExactJoinCore;
use crate::iterator::{Operator, OperatorState};
use crate::ssh::{Handover, SshJoinCore};

/// Which join kernel is currently driving the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPhase {
    /// The exact symmetric hash join.
    Exact,
    /// The approximate SSH join (post-switch).
    Approximate,
}

/// Configuration shared by both phases of a [`SwitchJoin`].
///
/// `#[non_exhaustive]`: construct via [`SwitchJoinConfig::new`] or
/// [`Default`] and refine with the `with_*` builders, so new knobs can be
/// added without breaking downstream crates.  The unified
/// `linkage::api::PipelineConfig` constructs this type internally.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SwitchJoinConfig {
    /// Join key column per side.
    pub keys: PerSide<usize>,
    /// Q-gram extraction (its embedded normalisation is also used by the
    /// exact phase, so key equality and similarity 1.0 coincide).
    pub qgram: QGramConfig,
    /// The q-gram set coefficient scoring candidates in the approximate
    /// phase (the paper's Jaccard by default).
    pub coefficient: QGramCoefficient,
    /// Similarity threshold `θ_sim` for the approximate phase.
    pub theta_sim: f64,
}

impl Default for SwitchJoinConfig {
    /// The paper's defaults, joining both sides on column 0.
    fn default() -> Self {
        Self::new(PerSide::new(0, 0))
    }
}

impl SwitchJoinConfig {
    /// Build with the paper's defaults (`q = 3`, padded, Jaccard,
    /// `θ_sim = 0.8` — see [`linkage_types::defaults`]).
    pub fn new(keys: PerSide<usize>) -> Self {
        Self {
            keys,
            qgram: QGramConfig::default(),
            coefficient: QGramCoefficient::default(),
            theta_sim: defaults::THETA_SIM,
        }
    }

    /// Override the similarity threshold.
    #[must_use]
    pub fn with_theta(mut self, theta_sim: f64) -> Self {
        self.theta_sim = theta_sim;
        self
    }

    /// Override the q-gram configuration.
    #[must_use]
    pub fn with_qgram(mut self, qgram: QGramConfig) -> Self {
        self.qgram = qgram;
        self
    }

    /// Override the similarity coefficient of the approximate phase.
    #[must_use]
    pub fn with_coefficient(mut self, coefficient: QGramCoefficient) -> Self {
        self.coefficient = coefficient;
        self
    }

    /// The key normalisation both phases apply.
    pub fn normalization(&self) -> NormalizeConfig {
        self.qgram.normalize
    }

    /// `sided`'s normalised join key, as the exact phase derives it
    /// ([`ExactJoinCore::process`]), normalised through `buf`: the sharded
    /// router keys its shards and its cores with it.
    pub fn normalized_key(&self, sided: &SidedRecord, buf: &mut String) -> Result<Arc<str>> {
        crate::exact::normalize_key(&self.keys, &self.normalization(), sided, buf).map(Arc::from)
    }

    /// A fresh exact-phase kernel under this configuration.
    pub fn exact_core(&self) -> ExactJoinCore {
        ExactJoinCore::new(self.keys, self.normalization())
    }

    /// A fresh approximate-phase kernel under this configuration, owning
    /// its own gram interner.
    pub fn ssh_core(&self) -> SshJoinCore {
        SshJoinCore::new(self.keys, self.qgram.clone(), self.theta_sim)
            .with_coefficient(self.coefficient)
    }

    /// A fresh approximate-phase kernel sharing `interner` — what the
    /// sharded executor hands each worker so every shard's gram ids live
    /// in one id space (see
    /// [`SshJoinCore::with_shared_interner`]).
    pub fn ssh_core_with(&self, interner: SharedInterner) -> SshJoinCore {
        self.ssh_core().with_shared_interner(interner)
    }
}

// One long-lived instance per join: the inline size gap between the
// kernels (the approximate core carries its probe scratch) never
// multiplies across a collection, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
enum PhaseCore {
    Exact(ExactJoinCore),
    Approximate(SshJoinCore),
    /// Transient placeholder while the handover runs.
    Switching,
}

/// One decoded phase kernel, ready to be installed by
/// [`SwitchJoinCore::restore`].
///
/// `PhaseCore` itself stays private (its `Switching` placeholder is an
/// internal invariant of the handover); a snapshot only ever captures a
/// join at rest, so the restored state is always one of the two real
/// kernels.
#[allow(clippy::large_enum_variant)]
pub enum RestoredCore {
    /// The join had not switched yet.
    Exact(ExactJoinCore),
    /// The join had already performed the §3.3 handover.
    Approximate(SshJoinCore),
}

/// Full state of a [`SwitchJoinCore`], as reconstructed from a snapshot
/// (`linkage_types::snapshot`).  Built by the engine layers from the
/// decoded sections and installed with [`SwitchJoinCore::restore`].
pub struct SwitchRestore {
    /// The phase kernel with its resident state replayed.
    pub core: RestoredCore,
    /// Matches that were emitted by a kernel but not yet popped
    /// downstream when the snapshot was taken.
    pub pending: Vec<MatchPair>,
    /// Input tuples the snapshotted run had consumed per side.  Whoever
    /// feeds the restored join continues its input after this prefix.
    pub consumed: PerSide<u64>,
    /// Emission counters at the snapshot point.
    pub emitted: PerKind,
    /// Matches recovered from resident state during the switch (0 if the
    /// join had not switched).
    pub recovered_at_switch: u64,
    /// Total consumed tuples at the moment of the switch, if it
    /// happened.
    pub switched_after: Option<u64>,
}

/// Emission counters split by match kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerKind {
    /// Pairs emitted with identical (normalised) keys.
    pub exact: u64,
    /// Pairs emitted by similarity.
    pub approximate: u64,
}

impl PerKind {
    /// Total pairs emitted.
    pub fn total(&self) -> u64 {
        self.exact + self.approximate
    }
}

/// The approximate core's state built ahead of the switch from the exact
/// phase's residents, and the interner the core will be built with.  In
/// memory only — a snapshot never holds it, and a restored join starts
/// without it.
#[derive(Default)]
struct Ahead {
    interner: SharedInterner,
    handover: Handover,
}

/// The switchable join as a push core: it is fed one tuple at a time
/// and never reads input itself.
pub struct SwitchJoinCore {
    config: SwitchJoinConfig,
    core: PhaseCore,
    /// Set by [`Self::tokenize_ahead`] and [`Self::index_ahead`], taken
    /// by the switch.
    ahead: Option<Ahead>,
    /// Set by [`Self::restore`]: a restored join hands over eagerly.
    eager: bool,
    out: VecDeque<MatchPair>,
    consumed: PerSide<u64>,
    emitted: PerKind,
    recovered_at_switch: u64,
    switched_after: Option<u64>,
}

impl SwitchJoinCore {
    /// A fresh join in the exact phase.
    pub fn new(config: SwitchJoinConfig) -> Self {
        let exact = config.exact_core();
        Self {
            config,
            core: PhaseCore::Exact(exact),
            ahead: None,
            eager: false,
            out: VecDeque::new(),
            consumed: PerSide::default(),
            emitted: PerKind::default(),
            recovered_at_switch: 0,
            switched_after: None,
        }
    }

    /// The shared configuration of both phases.
    pub fn config(&self) -> &SwitchJoinConfig {
        &self.config
    }

    /// The phase currently driving output.
    pub fn phase(&self) -> JoinPhase {
        match self.core {
            PhaseCore::Exact(_) => JoinPhase::Exact,
            PhaseCore::Approximate(_) | PhaseCore::Switching => JoinPhase::Approximate,
        }
    }

    /// Input tuples consumed per side.
    pub fn consumed(&self) -> PerSide<u64> {
        self.consumed
    }

    /// Total input tuples consumed.
    pub fn total_consumed(&self) -> u64 {
        self.consumed.left + self.consumed.right
    }

    /// Pairs emitted so far, by kind.  The join emits each distinct pair
    /// at most once, so this is also the distinct-result count the
    /// monitor observes.
    pub fn emitted(&self) -> PerKind {
        self.emitted
    }

    /// Tuples resident per side (hash tables or inverted indexes).
    pub fn stored(&self) -> PerSide<usize> {
        match &self.core {
            PhaseCore::Exact(c) => c.stored(),
            PhaseCore::Approximate(c) => c.stored(),
            PhaseCore::Switching => PerSide::default(),
        }
    }

    /// Total consumed tuples at the moment of the switch, if it happened.
    pub fn switched_after(&self) -> Option<u64> {
        self.switched_after
    }

    /// Matches recovered from resident state during the switch.
    pub fn recovered_at_switch(&self) -> u64 {
        self.recovered_at_switch
    }

    /// Tokenise every resident not tokenised yet into the interner the
    /// approximate phase will use, so that a later switch tokenises only
    /// what arrives after this call.  Emits nothing and changes no state
    /// a snapshot holds.  The serial engine calls it after every tuple of
    /// a many-record feed while an alarm streak is open; the indexes are
    /// then built at the switch.
    ///
    /// A no-op once the join has switched, and on a join installed by
    /// [`Self::restore`]: a restored join is a resumed run or a
    /// rehydrated session, which loses what it built ahead at its next
    /// eviction.  On a served workload that evicts on most `FEED`s,
    /// tokenising every resident again in each incarnation cost more
    /// than the switch it spared.
    pub fn tokenize_ahead(&mut self) {
        self.build_ahead(usize::MAX, false);
    }

    /// Build the approximate core's indexes ahead of the switch, one
    /// chunk per call: tokenise the next `⌈unindexed ÷ calls⌉` residents
    /// (right side first), then append every tokenised resident to its
    /// side's index in one bulk pass.  `calls` is how many calls the
    /// caller expects to make before the switch, so the residents not
    /// indexed yet are spread over them.  Emits nothing and changes no
    /// state a snapshot holds; a no-op where [`Self::tokenize_ahead`] is.
    pub fn index_ahead(&mut self, calls: usize) {
        self.build_ahead(calls, true);
    }

    fn build_ahead(&mut self, calls: usize, index: bool) {
        let (false, PhaseCore::Exact(exact)) = (self.eager, &self.core) else {
            return;
        };
        let Ahead { interner, handover } = self.ahead.get_or_insert_with(Ahead::default);
        let tables = exact.tables();
        let chunk = if index {
            handover.unindexed(tables).div_ceil(calls.max(1))
        } else {
            usize::MAX
        };
        let limit = chunk.saturating_sub(handover.tokenized());
        handover.tokenize(tables, &self.config.qgram, interner, limit);
        if index {
            handover.index(tables);
        }
    }

    /// Perform the exact → approximate handover now (paper §3.3).
    ///
    /// Recovered matches are queued behind the pairs already queued, for
    /// [`Self::pop`].  Returns the number of recovered pairs.  Switching
    /// twice is an adaptivity error.
    pub fn switch_to_approximate(&mut self) -> Result<u64> {
        match std::mem::replace(&mut self.core, PhaseCore::Switching) {
            PhaseCore::Exact(exact) => {
                let before = self.out.len();
                let Ahead { interner, handover } = self.ahead.take().unwrap_or_default();
                let (ssh, recovered) = self.config.ssh_core_with(interner).with_handover(
                    exact.into_tables(),
                    handover,
                    &mut self.out,
                );
                self.count_new_emissions(before);
                self.core = PhaseCore::Approximate(ssh);
                self.recovered_at_switch = recovered;
                self.switched_after = Some(self.total_consumed());
                Ok(recovered)
            }
            other => {
                self.core = other;
                Err(LinkageError::adaptivity(
                    "switch_to_approximate called on an already approximate join",
                ))
            }
        }
    }

    /// Consume one input tuple, queueing any resulting matches.
    pub fn process(&mut self, sided: SidedRecord) -> Result<()> {
        self.consumed[sided.side] += 1;
        let before = self.out.len();
        match &mut self.core {
            PhaseCore::Exact(c) => {
                c.process(sided, &mut self.out)?;
            }
            PhaseCore::Approximate(c) => {
                c.process(sided, &mut self.out)?;
            }
            PhaseCore::Switching => {
                return Err(LinkageError::adaptivity(
                    "a tuple was fed during an in-flight switch",
                ))
            }
        }
        self.count_new_emissions(before);
        Ok(())
    }

    /// Pop the oldest queued match, if any.
    pub fn pop(&mut self) -> Option<MatchPair> {
        self.out.pop_front()
    }

    /// Number of emitted pairs currently queued (not yet popped).
    pub fn buffered(&self) -> usize {
        self.out.len()
    }

    /// The exact-phase kernel, if the join has not switched.
    pub fn exact_core_ref(&self) -> Option<&ExactJoinCore> {
        match &self.core {
            PhaseCore::Exact(c) => Some(c),
            _ => None,
        }
    }

    /// The approximate-phase kernel, if the join has switched.
    pub fn ssh_core_ref(&self) -> Option<&SshJoinCore> {
        match &self.core {
            PhaseCore::Approximate(c) => Some(c),
            _ => None,
        }
    }

    /// The queued matches not yet popped, oldest first — the snapshot
    /// persists these verbatim so a resumed run re-emits them in order.
    pub fn pending_pairs(&self) -> impl ExactSizeIterator<Item = &MatchPair> {
        self.out.iter()
    }

    /// Install snapshot state into a pristine join (nothing consumed,
    /// nothing queued).  The snapshot stores no input tuples: the caller
    /// feeds the restored join the input that follows `snap.consumed`.
    pub fn restore(&mut self, snap: SwitchRestore) -> Result<()> {
        if self.total_consumed() != 0 || !self.out.is_empty() {
            return Err(LinkageError::snapshot(
                "restore requires a pristine join (nothing consumed or buffered)",
            ));
        }
        self.core = match snap.core {
            RestoredCore::Exact(c) => PhaseCore::Exact(c),
            RestoredCore::Approximate(c) => PhaseCore::Approximate(c),
        };
        self.ahead = None;
        self.eager = true;
        self.out.extend(snap.pending);
        self.consumed = snap.consumed;
        self.emitted = snap.emitted;
        self.recovered_at_switch = snap.recovered_at_switch;
        self.switched_after = snap.switched_after;
        Ok(())
    }

    fn count_new_emissions(&mut self, buffered_before: usize) {
        for pair in self.out.iter().skip(buffered_before) {
            match pair.kind {
                MatchKind::Exact => self.emitted.exact += 1,
                MatchKind::Approximate { .. } => self.emitted.approximate += 1,
            }
        }
    }
}

/// A pull adapter over [`SwitchJoinCore`]: an [`Operator`] that reads its
/// own input.  [`Self::advance`] pulls one tuple and feeds it to the
/// core.  The engines are push cores and do not use it; it is the entry
/// point the `perfbench` handover layer times.
pub struct SwitchJoin<I> {
    input: I,
    core: SwitchJoinCore,
    state: OperatorState,
}

impl<I: Operator<Item = SidedRecord>> SwitchJoin<I> {
    /// Build over a sided input, starting in the exact phase.
    pub fn new(input: I, config: SwitchJoinConfig) -> Self {
        Self {
            input,
            core: SwitchJoinCore::new(config),
            state: OperatorState::default(),
        }
    }

    /// [`SwitchJoinCore::switch_to_approximate`] on an open operator.
    pub fn switch_to_approximate(&mut self) -> Result<u64> {
        if self.state != OperatorState::Open {
            return Err(LinkageError::adaptivity(
                "switch_to_approximate requires an open operator",
            ));
        }
        self.core.switch_to_approximate()
    }

    /// Pull one input tuple and feed it to the core.  Returns `false`
    /// when the input is exhausted.
    pub fn advance(&mut self) -> Result<bool> {
        self.state.check_next(self.name())?;
        match self.input.next()? {
            Some(sided) => {
                self.core.process(sided)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

impl<I: Operator<Item = SidedRecord>> Operator for SwitchJoin<I> {
    type Item = MatchPair;

    fn name(&self) -> &'static str {
        "switch-join"
    }

    fn state(&self) -> OperatorState {
        self.state
    }

    fn open(&mut self) -> Result<()> {
        self.state.check_open(self.name())?;
        self.input.open()?;
        self.state = OperatorState::Open;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<MatchPair>> {
        self.state.check_next(self.name())?;
        loop {
            if let Some(pair) = self.core.pop() {
                return Ok(Some(pair));
            }
            if !self.advance()? {
                return Ok(None);
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        if self.state != OperatorState::Closed {
            self.input.close()?;
            self.state = OperatorState::Closed;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::InterleavedScan;
    use linkage_types::{Field, Record, Schema, Side, Value, VecStream};

    const A: &str = "TAA BZ SANTA CRISTINA VALGARDENA";
    const A_TYPO: &str = "TAA BZ SANTA CRISTINx VALGARDENA";
    const B: &str = "LIG GE GENOVA NERVI CAPOLUNGO";
    const B_TYPO: &str = "LIG GE GENOVA NERVx CAPOLUNGO";
    const C: &str = "PIE TO TORINO CENTRO STAZIONE";

    fn stream_of(keys: &[&str]) -> VecStream {
        let records = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Record::new(i as u64, vec![Value::string(*k)]))
            .collect();
        VecStream::new(Schema::of(vec![Field::string("k")]), records)
    }

    /// The alternating feed of `left` and `right` (equal lengths).
    fn feed(left: &[&str], right: &[&str]) -> Vec<SidedRecord> {
        let record = |i: usize, k: &str| Record::new(i as u64, vec![Value::string(k)]);
        left.iter()
            .zip(right)
            .enumerate()
            .flat_map(|(i, (l, r))| {
                [
                    SidedRecord::new(Side::Left, record(i, l)),
                    SidedRecord::new(Side::Right, record(i, r)),
                ]
            })
            .collect()
    }

    fn join() -> SwitchJoinCore {
        SwitchJoinCore::new(SwitchJoinConfig::new(PerSide::new(0, 0)))
    }

    /// Feed every tuple, then pop everything queued.
    fn run(join: &mut SwitchJoinCore, tuples: Vec<SidedRecord>) -> Vec<MatchPair> {
        for sided in tuples {
            join.process(sided).unwrap();
        }
        std::iter::from_fn(|| join.pop()).collect()
    }

    #[test]
    fn stays_exact_without_a_switch() {
        let mut join = join();
        let pairs = run(&mut join, feed(&[A, B], &[A, B_TYPO]));
        assert_eq!(join.phase(), JoinPhase::Exact);
        assert_eq!(pairs.len(), 1, "typo pair is missed by the exact phase");
        assert_eq!(
            join.emitted(),
            PerKind {
                exact: 1,
                approximate: 0
            }
        );
        assert!(join.switched_after().is_none());
    }

    #[test]
    fn mid_stream_switch_recovers_resident_matches_without_duplicates() {
        let mut tuples = feed(&[A, B, C], &[A, B_TYPO, C]);
        let tail = tuples.split_off(4);
        let mut join = join();
        // The first four tuples: the clean (A, A) pair is emitted, the
        // (B, B_TYPO) pair is silently missed.
        let mut pairs = run(&mut join, tuples);
        assert_eq!(pairs.len(), 1);

        // Switch mid-stream: the missed pair is recovered from state.
        let recovered = join.switch_to_approximate().unwrap();
        assert_eq!(recovered, 1);
        assert_eq!(join.phase(), JoinPhase::Approximate);
        assert_eq!(join.switched_after(), Some(4));

        // Finish the stream: the (C, C) pair arrives post-switch and is
        // emitted (as exact kind) by the approximate kernel.
        pairs.extend(run(&mut join, tail));

        assert_eq!(pairs.len(), 3);
        let mut seen = std::collections::HashSet::new();
        for p in &pairs {
            assert!(seen.insert(p.id_pair()), "duplicate pair {:?}", p.id_pair());
        }
        assert_eq!(
            join.emitted(),
            PerKind {
                exact: 2,
                approximate: 1
            }
        );
        assert_eq!(join.recovered_at_switch(), 1);
    }

    #[test]
    fn switch_twice_is_an_adaptivity_error() {
        let mut join = join();
        join.switch_to_approximate().unwrap();
        let err = join.switch_to_approximate().unwrap_err();
        assert!(matches!(err, LinkageError::Adaptivity(_)));
        // The join must still be usable after the failed switch.
        assert_eq!(run(&mut join, feed(&[A], &[A])).len(), 1);
    }

    /// The pull adapter: switching needs an open operator, and a run
    /// drains the core it feeds.
    #[test]
    fn switch_requires_open_operator() {
        let scan = InterleavedScan::alternating(stream_of(&[A, B]), stream_of(&[A, B_TYPO]));
        let mut join = SwitchJoin::new(scan, SwitchJoinConfig::new(PerSide::new(0, 0)));
        assert!(join.switch_to_approximate().is_err());
        join.open().unwrap();
        assert!(join.advance().unwrap());
        join.switch_to_approximate().unwrap();
        assert_eq!(join.run_to_end().unwrap().len(), 2);
    }

    #[test]
    fn immediate_switch_behaves_like_pure_ssh_join() {
        let mut join = join();
        assert_eq!(join.switch_to_approximate().unwrap(), 0);
        let pairs = run(&mut join, feed(&[A, B], &[A_TYPO, B_TYPO]));
        assert_eq!(pairs.len(), 2);
        assert!(pairs.iter().all(|p| p.kind.is_approximate()));
    }

    /// Every resident's gram set in `join`'s approximate core, position
    /// for position, as sorted gram texts: the ids depend on the order in
    /// which the grams were first seen.
    fn gram_texts(join: &SwitchJoinCore) -> PerSide<Vec<Vec<String>>> {
        let ssh = join.ssh_core_ref().expect("switched");
        let interner = ssh.interner().lock();
        ssh.indexes().map(|index| {
            index
                .tuples()
                .iter()
                .map(|stored| {
                    let mut texts: Vec<String> = (stored.grams.gram_ids().iter())
                        .map(|&id| interner.resolve(id).expect("issued").to_owned())
                        .collect();
                    texts.sort_unstable();
                    texts
                })
                .collect()
        })
    }

    /// Residents tokenised ahead over two streaks, with arrivals between
    /// and after them left to the switch, hand over the gram sets the
    /// eager handover builds from the same tables, and the stream oracle's
    /// pairs.
    #[test]
    fn tokenizing_ahead_hands_over_the_eager_gram_sets() {
        let tuples = feed(&[A, B, C, A_TYPO, B], &[A, B_TYPO, C, A, C]);
        let (mut eager, mut ahead) = (join(), join());
        let mut ahead_pairs = Vec::new();
        for (i, sided) in tuples.iter().enumerate() {
            run(&mut eager, vec![sided.clone()]);
            ahead_pairs.extend(run(&mut ahead, vec![sided.clone()]));
            if i == 2 || (5..8).contains(&i) {
                ahead.tokenize_ahead();
            }
            if i == 7 {
                let handover = &ahead.ahead.as_ref().expect("tokenised ahead").handover;
                assert_eq!(handover.tokenized(), 8);
            }
        }
        for join in [&mut eager, &mut ahead] {
            join.switch_to_approximate().unwrap();
        }
        assert!(ahead.ahead.is_none(), "handed over");
        ahead_pairs.extend(std::iter::from_fn(|| ahead.pop()));
        let keys = PerSide::new(0, 0);
        let oracle = crate::oracle::stream_similarity(
            &tuples,
            keys,
            &QGramConfig::default(),
            defaults::THETA_SIM,
            Some(tuples.len()),
            |_| QGramCoefficient::Jaccard,
        )
        .unwrap();
        assert_eq!(ahead_pairs, oracle);
        assert_eq!(ahead.recovered_at_switch(), 4);
        assert_eq!(gram_texts(&ahead), gram_texts(&eager));
        assert_eq!(gram_texts(&ahead).map(Vec::len), PerSide::new(5, 5));
    }

    /// Residents indexed ahead one at a time, exact matches that flag two
    /// of them after they were indexed, and arrivals after the last
    /// chunk: the switch copies the flags, appends the arrivals, and
    /// emits the eager handover's pair stream and resident state.
    #[test]
    fn an_exact_match_on_a_resident_indexed_ahead_hands_over_the_eager_stream() {
        let tuples = feed(&[A, B, C, A_TYPO], &[B_TYPO, A, C, A]);
        let (mut eager, mut ahead) = (join(), join());
        let (mut eager_pairs, mut ahead_pairs) = (Vec::new(), Vec::new());
        for (i, sided) in tuples.iter().enumerate() {
            eager_pairs.extend(run(&mut eager, vec![sided.clone()]));
            ahead_pairs.extend(run(&mut ahead, vec![sided.clone()]));
            if i < 5 {
                ahead.index_ahead(2);
            }
        }
        // Left A was indexed before right A matched it, left C before
        // right C did; right C, left A_TYPO and right A came after the
        // last chunk.
        let tables = ahead.exact_core_ref().unwrap().tables();
        let handover = &ahead.ahead.as_ref().expect("indexed ahead").handover;
        assert_eq!(handover.unindexed(tables), 3);
        assert_eq!(handover.tokenized(), 0);
        assert!(tables.left.tuples()[0].matched_exactly);
        assert!(tables.left.tuples()[2].matched_exactly);

        for (join, pairs) in [
            (&mut eager, &mut eager_pairs),
            (&mut ahead, &mut ahead_pairs),
        ] {
            assert_eq!(join.switch_to_approximate().unwrap(), 3);
            pairs.extend(run(join, Vec::new()));
        }
        assert_eq!(ahead_pairs, eager_pairs);
        assert_eq!(gram_texts(&ahead), gram_texts(&eager));
        let flags = |join: &SwitchJoinCore| {
            let ssh = join.ssh_core_ref().expect("switched");
            ssh.indexes().map(|index| {
                index
                    .tuples()
                    .iter()
                    .map(|t| t.matched_exactly)
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(flags(&ahead), flags(&eager));
    }

    /// A restored join hands over eagerly, whatever its caller asks.
    #[test]
    fn a_restored_join_does_not_tokenize_ahead() {
        let mut source = join();
        run(&mut source, feed(&[A, B], &[A, B_TYPO]));
        let exact = source.exact_core_ref().unwrap().clone();
        let mut restored = join();
        restored
            .restore(SwitchRestore {
                core: RestoredCore::Exact(exact),
                pending: Vec::new(),
                consumed: source.consumed(),
                emitted: source.emitted(),
                recovered_at_switch: 0,
                switched_after: None,
            })
            .unwrap();
        restored.tokenize_ahead();
        restored.index_ahead(1);
        assert!(restored.ahead.is_none());
        assert_eq!(restored.switch_to_approximate().unwrap(), 1);
    }

    #[test]
    fn counters_track_phases() {
        let mut join = join();
        run(&mut join, feed(&[A, B], &[A, B_TYPO]));
        assert_eq!(join.total_consumed(), 4);
        assert_eq!(join.stored(), PerSide::new(2, 2));
        join.switch_to_approximate().unwrap();
        assert_eq!(
            join.stored(),
            PerSide::new(2, 2),
            "state survives the handover"
        );
        assert_eq!(join.emitted().total(), 2);
    }
}
