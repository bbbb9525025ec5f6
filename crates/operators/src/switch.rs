//! The switchable join: exact until told otherwise, approximate after.
//!
//! [`SwitchJoin`] starts life as a pipelined exact symmetric hash join and
//! can be switched to the approximate SSH join **mid-stream** by an external
//! controller (the adaptivity loop in `linkage-core`, or a caller invoking
//! [`SwitchJoin::switch_to_approximate`] directly).  The switch performs the
//! paper's §3.3 state handover:
//!
//! 1. the exact join's per-side hash tables are migrated into the SSH
//!    join's inverted q-gram indexes (tokenising each resident key once);
//! 2. the resident tuples are re-probed against each other, *recovering*
//!    approximate matches the exact operator missed;
//! 3. per-tuple matched-exactly flags suppress the equal-key pairs the
//!    exact operator already emitted, so the combined output stream carries
//!    no duplicates.
//!
//! After the switch, arriving tuples are processed by the SSH join kernel,
//! which emits both equal-key (exact-kind) and similar-key matches.

use std::collections::VecDeque;

use linkage_text::{NormalizeConfig, QGramCoefficient, QGramConfig};
use linkage_types::{defaults, LinkageError, MatchKind, MatchPair, PerSide, Result, SidedRecord};

use crate::exact::ExactJoinCore;
use crate::iterator::{Operator, OperatorState};
use crate::ssh::SshJoinCore;

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
    pub fn ssh_core_with(&self, interner: linkage_text::SharedInterner) -> SshJoinCore {
        self.ssh_core().with_shared_interner(interner)
    }
}

// One long-lived instance per operator: the inline size gap between the
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
/// [`SwitchJoin::restore`].
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

/// Full operator-level state of a [`SwitchJoin`], as reconstructed from a
/// snapshot (`linkage_types::snapshot`).  Built by the engine layers from
/// the decoded sections and installed with [`SwitchJoin::restore`].
pub struct SwitchRestore {
    /// The phase kernel with its resident state replayed.
    pub core: RestoredCore,
    /// Matches that were emitted by a kernel but not yet pulled
    /// downstream when the snapshot was taken.
    pub pending: Vec<MatchPair>,
    /// Input tuples the snapshotted run had consumed per side; the
    /// resumed run re-reads the same sources and discards exactly this
    /// prefix.
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

/// Fast-forward a freshly opened `input` past the prefix a snapshotted
/// run had consumed (`consumed` tuples per side), verifying the counts
/// as it goes — a source that ends early or interleaves differently is a
/// typed [`LinkageError::Snapshot`], never silent corruption.
///
/// An input that was itself rebuilt at an absolute position
/// ([`Operator::resume_offset`] nonzero) no longer holds the prefix:
/// nothing is pulled, and the snapshot's total must equal that offset.
pub fn skip_consumed_prefix<I: Operator<Item = SidedRecord>>(
    input: &mut I,
    consumed: PerSide<u64>,
) -> Result<()> {
    let offset = input.resume_offset();
    if offset > 0 {
        if offset != consumed.left + consumed.right {
            return Err(LinkageError::snapshot(format!(
                "input does not match the snapshot: the input resumes after {offset} \
                 tuples, the snapshotted run had consumed {}",
                consumed.left + consumed.right
            )));
        }
        return Ok(());
    }
    let mut seen = PerSide::new(0u64, 0u64);
    while seen.left < consumed.left || seen.right < consumed.right {
        let Some(sided) = input.next()? else {
            return Err(LinkageError::snapshot(format!(
                "input ended while skipping the consumed prefix: snapshot consumed \
                 {}/{} tuples (left/right), input supplied only {}/{}",
                consumed.left, consumed.right, seen.left, seen.right
            )));
        };
        seen[sided.side] += 1;
        if seen[sided.side] > consumed[sided.side] {
            return Err(LinkageError::snapshot(format!(
                "input does not match the snapshot: saw more {:?}-side tuples in the \
                 prefix than the snapshotted run consumed ({} > {})",
                sided.side, seen[sided.side], consumed[sided.side]
            )));
        }
    }
    Ok(())
}

/// A join operator that can swap its kernel mid-stream.
pub struct SwitchJoin<I> {
    input: I,
    config: SwitchJoinConfig,
    core: PhaseCore,
    out: VecDeque<MatchPair>,
    state: OperatorState,
    consumed: PerSide<u64>,
    emitted: PerKind,
    recovered_at_switch: u64,
    switched_after: Option<u64>,
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

impl<I: Operator<Item = SidedRecord>> SwitchJoin<I> {
    /// Build over a sided input, starting in the exact phase.
    pub fn new(input: I, config: SwitchJoinConfig) -> Self {
        let exact = config.exact_core();
        Self {
            input,
            config,
            core: PhaseCore::Exact(exact),
            out: VecDeque::new(),
            state: OperatorState::default(),
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

    /// Pairs emitted so far, by kind.  The operator emits each distinct
    /// pair at most once, so this is also the distinct-result count the
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

    /// Perform the exact → approximate handover now (paper §3.3).
    ///
    /// Recovered matches are buffered and drained by subsequent
    /// [`Operator::next`] calls.  Returns the number of recovered pairs.
    /// Switching requires an open operator, and switching twice is an
    /// adaptivity error.
    pub fn switch_to_approximate(&mut self) -> Result<u64> {
        if self.state != OperatorState::Open {
            return Err(LinkageError::adaptivity(
                "switch_to_approximate requires an open operator",
            ));
        }
        match std::mem::replace(&mut self.core, PhaseCore::Switching) {
            PhaseCore::Exact(exact) => {
                let before = self.out.len();
                let (ssh, recovered) = self
                    .config
                    .ssh_core()
                    .with_exact_state(exact.into_tables(), &mut self.out);
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

    /// Consume exactly one input tuple, buffering any resulting matches.
    /// Returns `false` when the input is exhausted.  This is the
    /// fine-grained stepping hook the adaptive controller uses to assess
    /// between tuples.
    pub fn advance(&mut self) -> Result<bool> {
        self.state.check_next(self.name())?;
        match self.input.next()? {
            Some(sided) => {
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
                            "advance() during an in-flight switch",
                        ))
                    }
                }
                self.count_new_emissions(before);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Pop one buffered match, if any.
    pub fn pop(&mut self) -> Option<MatchPair> {
        self.out.pop_front()
    }

    /// Number of emitted pairs currently buffered (not yet popped).
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

    /// The buffered matches not yet popped, oldest first — the snapshot
    /// persists these verbatim so a resumed run re-emits them in order.
    pub fn pending_pairs(&self) -> impl ExactSizeIterator<Item = &MatchPair> {
        self.out.iter()
    }

    /// Install snapshot state and fast-forward the input past the prefix
    /// the snapshotted run had already consumed.
    ///
    /// Requires an open, pristine join (nothing consumed, nothing
    /// buffered).  The snapshot stores no input tuples; the resumed
    /// pipeline re-reads the same sources and this method discards
    /// exactly `snap.consumed` tuples per side, verifying the counts as
    /// it goes — a source that ends early or interleaves differently is
    /// a typed [`LinkageError::Snapshot`] error, never silent
    /// corruption.
    pub fn restore(&mut self, snap: SwitchRestore) -> Result<()> {
        if self.state != OperatorState::Open {
            return Err(LinkageError::snapshot("restore requires an open operator"));
        }
        if self.total_consumed() != 0 || !self.out.is_empty() {
            return Err(LinkageError::snapshot(
                "restore requires a pristine join (nothing consumed or buffered)",
            ));
        }
        self.core = match snap.core {
            RestoredCore::Exact(c) => PhaseCore::Exact(c),
            RestoredCore::Approximate(c) => PhaseCore::Approximate(c),
        };
        self.out.extend(snap.pending);
        self.emitted = snap.emitted;
        self.recovered_at_switch = snap.recovered_at_switch;
        self.switched_after = snap.switched_after;

        skip_consumed_prefix(&mut self.input, snap.consumed)?;
        self.consumed = snap.consumed;
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
            if let Some(pair) = self.out.pop_front() {
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
    use linkage_types::{Field, Record, Schema, Value, VecStream};

    fn stream_of(keys: &[&str]) -> VecStream {
        let records = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Record::new(i as u64, vec![Value::string(*k)]))
            .collect();
        VecStream::new(Schema::of(vec![Field::string("k")]), records)
    }

    const A: &str = "TAA BZ SANTA CRISTINA VALGARDENA";
    const A_TYPO: &str = "TAA BZ SANTA CRISTINx VALGARDENA";
    const B: &str = "LIG GE GENOVA NERVI CAPOLUNGO";
    const B_TYPO: &str = "LIG GE GENOVA NERVx CAPOLUNGO";
    const C: &str = "PIE TO TORINO CENTRO STAZIONE";

    fn switch_join(
        left: &[&str],
        right: &[&str],
    ) -> SwitchJoin<InterleavedScan<VecStream, VecStream>> {
        let scan = InterleavedScan::alternating(stream_of(left), stream_of(right));
        SwitchJoin::new(scan, SwitchJoinConfig::new(PerSide::new(0, 0)))
    }

    #[test]
    fn stays_exact_without_a_switch() {
        let mut join = switch_join(&[A, B], &[A, B_TYPO]);
        let pairs = join.run_to_end().unwrap();
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
        let mut join = switch_join(&[A, B, C], &[A, B_TYPO, C]);
        join.open().unwrap();
        // Drain the first four tuples: the clean (A, A) pair is emitted, the
        // (B, B_TYPO) pair is silently missed.
        for _ in 0..4 {
            assert!(join.advance().unwrap());
        }
        let mut pairs: Vec<MatchPair> = std::iter::from_fn(|| join.pop()).collect();
        assert_eq!(pairs.len(), 1);

        // Switch mid-stream: the missed pair is recovered from state.
        let recovered = join.switch_to_approximate().unwrap();
        assert_eq!(recovered, 1);
        assert_eq!(join.phase(), JoinPhase::Approximate);
        assert_eq!(join.switched_after(), Some(4));

        // Finish the stream: the (C, C) pair arrives post-switch and is
        // emitted (as exact kind) by the approximate kernel.
        while let Some(p) = join.next().unwrap() {
            pairs.push(p);
        }
        join.close().unwrap();

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
        let mut join = switch_join(&[A], &[A]);
        join.open().unwrap();
        join.switch_to_approximate().unwrap();
        let err = join.switch_to_approximate().unwrap_err();
        assert!(matches!(err, LinkageError::Adaptivity(_)));
        // The operator must still be usable after the failed switch.
        assert_eq!(join.run_to_end().unwrap().len(), 1);
    }

    #[test]
    fn switch_requires_open_operator() {
        let mut join = switch_join(&[A], &[A]);
        assert!(join.switch_to_approximate().is_err());
    }

    #[test]
    fn immediate_switch_behaves_like_pure_ssh_join() {
        let mut join = switch_join(&[A, B], &[A_TYPO, B_TYPO]);
        join.open().unwrap();
        assert_eq!(join.switch_to_approximate().unwrap(), 0);
        let pairs = join.run_to_end().unwrap();
        assert_eq!(pairs.len(), 2);
        assert!(pairs.iter().all(|p| p.kind.is_approximate()));
    }

    #[test]
    fn counters_track_phases() {
        let mut join = switch_join(&[A, B], &[A, B_TYPO]);
        join.open().unwrap();
        while join.advance().unwrap() {}
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
