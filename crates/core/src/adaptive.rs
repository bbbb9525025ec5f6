//! The adaptive join: the serial engine, a [`Controller`] wired around a
//! [`SwitchJoin`].
//!
//! [`AdaptiveJoin`] is itself a pipelined [`Operator`]: callers pull
//! match pairs from it exactly as from any other join.  After every
//! consumed input tuple it asks the controller whether to switch
//! (monitor → assessor, paper §3.2) and, if so, invokes
//! [`SwitchJoin::switch_to_approximate`] — the §3.3 state handover,
//! mid-stream.  [`AdaptiveJoin::next_event`] also yields the switch
//! announcement in-band, right after the last pair that was queued before
//! the handover; the [`Operator`] pull skips it.

use std::time::Instant;

use linkage_operators::{JoinPhase, Operator, OperatorState, SwitchJoin};
use linkage_types::{LinkageError, MatchPair, Result, SidedRecord};

use crate::controller::{Controller, ControllerConfig, Pulled, SwitchEvent};

/// The self-tuning join operator.
pub struct AdaptiveJoin<I> {
    inner: SwitchJoin<I>,
    controller: Controller,
}

impl<I: Operator<Item = SidedRecord>> AdaptiveJoin<I> {
    /// Wrap a [`SwitchJoin`] with a controller.
    pub fn new(inner: SwitchJoin<I>, config: ControllerConfig) -> Self {
        Self {
            inner,
            controller: Controller::new(config),
        }
    }

    /// The wrapped operator's current phase.
    pub fn phase(&self) -> JoinPhase {
        self.inner.phase()
    }

    /// The controller: its configuration, counters and the recorded switch.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Mutable access to the controller (snapshot restore).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    /// Read access to the wrapped [`SwitchJoin`] (snapshot encoding).
    pub fn inner(&self) -> &SwitchJoin<I> {
        &self.inner
    }

    /// Mutable access to the wrapped [`SwitchJoin`] (snapshot restore
    /// installs the decoded kernel through
    /// [`SwitchJoin::restore`](linkage_operators::SwitchJoin::restore)).
    pub fn inner_mut(&mut self) -> &mut SwitchJoin<I> {
        &mut self.inner
    }

    /// Ask the controller after a consumed tuple (or at open) and perform
    /// the timed handover if it says so.
    fn control_step(&mut self) -> Result<()> {
        let Some(sigma) = self
            .controller
            .decide(self.inner.consumed(), self.inner.emitted().total())
        else {
            return Ok(());
        };
        let queued = self.inner.buffered();
        let start = Instant::now();
        let recovered = self.inner.switch_to_approximate()?;
        let event = SwitchEvent {
            after_tuples: self.inner.total_consumed(),
            sigma,
            recovered,
        };
        self.controller
            .record_switch(event, start.elapsed(), queued);
        Ok(())
    }

    /// Consume input tuples — running the per-tuple control loop after
    /// each — until `available` total tuples have been consumed, without
    /// popping any buffered match pair.
    ///
    /// This is the incremental-session entry point: a caller feeding the
    /// input in batches advances the join exactly to the end of the fed
    /// prefix, then drains the pairs buffered so far.  The output is
    /// bit-identical to a single uninterrupted run because emission
    /// counters and switch decisions update at produce-time (inside
    /// [`SwitchJoin::advance`]), never at pop-time — the pop schedule
    /// cannot perturb them.
    ///
    /// The input must actually hold `available` tuples: an earlier end
    /// of input is a typed [`LinkageError::Execution`].
    pub fn advance_to(&mut self, available: u64) -> Result<()> {
        self.inner.state().check_next(self.name())?;
        while self.inner.total_consumed() < available {
            if !self.inner.advance()? {
                return Err(LinkageError::execution(format!(
                    "session input ended at {} consumed tuples but {available} were promised",
                    self.inner.total_consumed()
                )));
            }
            self.control_step()?;
        }
        Ok(())
    }

    /// The next pair or switch announcement that is ready without reading
    /// input, or `None` if producing one needs more input.
    pub fn pop_ready(&mut self) -> Result<Option<Pulled>> {
        // Enforce the protocol here too: `pop` bypasses the inner
        // operator's own state check, and buffered pairs must not leak
        // out of a closed operator.
        self.inner.state().check_next(self.name())?;
        Ok(self.controller.pull(|| self.inner.pop()))
    }

    /// The next pair or switch announcement, reading input as needed, or
    /// `None` at the end of the stream.
    pub fn next_event(&mut self) -> Result<Option<Pulled>> {
        self.inner.state().check_next(self.name())?;
        loop {
            if let Some(pulled) = self.controller.pull(|| self.inner.pop()) {
                return Ok(Some(pulled));
            }
            if !self.inner.advance()? {
                return Ok(None);
            }
            self.control_step()?;
        }
    }
}

impl<I: Operator<Item = SidedRecord>> Operator for AdaptiveJoin<I> {
    type Item = MatchPair;

    fn name(&self) -> &'static str {
        "adaptive-join"
    }

    fn state(&self) -> OperatorState {
        self.inner.state()
    }

    fn open(&mut self) -> Result<()> {
        self.inner.open()?;
        // `ForceAt(0)` switches here, before anything is consumed, so the
        // run is byte-for-byte a pure SSH join.
        self.control_step()
    }

    fn next(&mut self) -> Result<Option<MatchPair>> {
        loop {
            match self.next_event()? {
                Some(Pulled::Match(pair)) => return Ok(Some(pair)),
                Some(Pulled::Switched(_)) => {}
                None => return Ok(None),
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.inner.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkage_operators::{InterleavedScan, SwitchJoinConfig};
    use linkage_types::{Field, PerSide, Record, Schema, Value, VecStream};

    use linkage_datagen::SplitMix64;

    /// Parent keys: distinct 31-character pseudo-random location strings
    /// (hash-derived words so unrelated keys share essentially no q-grams).
    /// The controlled substitution-only dirt below is why this test builds
    /// its own index-paired dataset instead of using `linkage_datagen`'s
    /// random-parent generator.
    fn parent_key(i: usize) -> String {
        let i = i as u64;
        format!(
            "LOC {} {}",
            SplitMix64::word_of(i * 2 + 1, 12),
            SplitMix64::word_of(i * 2 + 2, 14)
        )
    }

    fn relation_stream(keys: Vec<String>) -> VecStream {
        let records = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Record::new(i as u64, vec![Value::string(k)]))
            .collect();
        VecStream::new(Schema::of(vec![Field::string("k")]), records)
    }

    /// A parent/child pair where children past `dirty_from` have one key
    /// character replaced, so the exact join stops finding matches there.
    fn dataset(n: usize, dirty_from: usize) -> (VecStream, VecStream) {
        let parents: Vec<String> = (0..n).map(parent_key).collect();
        let children: Vec<String> = (0..n)
            .map(|i| {
                let mut key = parent_key(i);
                if i >= dirty_from {
                    // One substituted character inside the first word: the
                    // pair stays well above θ_sim = 0.8 but exact equality
                    // is destroyed.
                    key.replace_range(8..9, "0");
                }
                key
            })
            .collect();
        (relation_stream(parents), relation_stream(children))
    }

    fn adaptive(
        n: usize,
        dirty_from: usize,
    ) -> AdaptiveJoin<InterleavedScan<VecStream, VecStream>> {
        let (parents, children) = dataset(n, dirty_from);
        let scan = InterleavedScan::alternating(parents, children);
        let join = SwitchJoin::new(scan, SwitchJoinConfig::new(PerSide::new(0, 0)));
        AdaptiveJoin::new(join, ControllerConfig::new(n as u64))
    }

    #[test]
    fn clean_data_never_switches() {
        let mut join = adaptive(200, 200);
        let pairs = join.run_to_end().unwrap();
        assert_eq!(pairs.len(), 200);
        assert_eq!(join.phase(), JoinPhase::Exact);
        assert!(join.controller().switch().is_none());
    }

    #[test]
    fn dirty_tail_triggers_a_switch_and_recovers_matches() {
        let mut join = adaptive(300, 150);
        let pairs = join.run_to_end().unwrap();

        let event = join
            .controller()
            .switch()
            .expect("the controller must switch");
        assert!(event.after_tuples > 300, "switch happens after dirt starts");
        assert!(event.sigma <= 0.01);

        // Every parent-child pair is found: clean ones exactly, dirty ones
        // approximately (recovered or post-switch).
        assert_eq!(pairs.len(), 300);
        let emitted = join.inner().emitted();
        assert_eq!(emitted.total(), 300);
        assert!(
            emitted.approximate >= 100,
            "dirty pairs matched approximately"
        );

        // No duplicates in the combined stream.
        let mut seen = std::collections::HashSet::new();
        for p in &pairs {
            assert!(seen.insert(p.id_pair()), "duplicate {:?}", p.id_pair());
        }
    }

    #[test]
    fn report_reflects_progress() {
        let mut join = adaptive(64, 64);
        join.open().unwrap();
        let _ = join.next().unwrap();
        assert!(join.inner().total_consumed() >= 2);
        assert_eq!(join.phase(), JoinPhase::Exact);
        assert!(join.controller().switch().is_none());
    }
}
