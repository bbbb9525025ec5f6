//! The adaptive join: the serial engine, a [`Controller`] wired around a
//! [`SwitchJoinCore`].
//!
//! [`AdaptiveJoin`] is a push core: its owner feeds it tuples with
//! [`AdaptiveJoin::feed`] and pops what is ready with
//! [`AdaptiveJoin::pop_ready`]; it never reads input itself.  After every
//! fed tuple it asks the controller whether to switch (monitor →
//! assessor, paper §3.2) and, if so, invokes
//! [`SwitchJoinCore::switch_to_approximate`] — the §3.3 state handover,
//! mid-stream.  [`AdaptiveJoin::pop_ready`] yields the switch
//! announcement in-band, right after the last pair that was queued before
//! the handover.  Every fed tuple is processed when it is fed, so the
//! serial engine holds no pending input.

use std::time::Instant;

use linkage_operators::{JoinPhase, SwitchJoinConfig, SwitchJoinCore};
use linkage_types::{Result, SidedRecord};

use crate::controller::{Controller, ControllerConfig, Pulled, SwitchEvent};

/// How a fed tuple builds ahead of the switch under an open alarm streak
/// ([`AdaptiveJoin::build_ahead`]).
#[derive(Clone, Copy)]
enum Ahead {
    /// Fed in a call of several records.
    Tokenize,
    /// Fed alone; whether it queued a pair.
    Index { queued: bool },
}

/// The self-tuning join.
pub struct AdaptiveJoin {
    core: SwitchJoinCore,
    controller: Controller,
    /// The look (its child count) that `chunks` counts from.
    chunk_look: u64,
    /// Chunks indexed ahead since `chunk_look`.
    chunks: u64,
}

impl AdaptiveJoin {
    /// A fresh join under `join`, controlled by `config`.  `ForceAt(0)`
    /// switches here, before anything is fed, so the run is byte-for-byte
    /// a pure SSH join.
    pub fn new(join: SwitchJoinConfig, config: ControllerConfig) -> Result<Self> {
        let mut engine = Self {
            core: SwitchJoinCore::new(join),
            controller: Controller::new(config),
            chunk_look: 0,
            chunks: 0,
        };
        engine.control_step(None)?;
        Ok(engine)
    }

    /// The join's current phase.
    pub fn phase(&self) -> JoinPhase {
        self.core.phase()
    }

    /// The controller: its configuration, counters and the recorded switch.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Mutable access to the controller (snapshot restore).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    /// Read access to the join core (snapshot encoding, reports).
    pub fn core(&self) -> &SwitchJoinCore {
        &self.core
    }

    /// Mutable access to the join core (snapshot restore installs the
    /// decoded kernel through [`SwitchJoinCore::restore`]).
    pub fn core_mut(&mut self) -> &mut SwitchJoinCore {
        &mut self.core
    }

    /// Ask the controller after a fed tuple (or at construction) and
    /// perform the timed handover if it says so.  An open alarm streak
    /// gives notice of the switch: while it lasts, the approximate core's
    /// state is built ahead ([`Self::build_ahead`]), so the switch is left
    /// with the rest.  `ahead` says how, `None` at construction.
    #[inline(always)]
    fn control_step(&mut self, ahead: Option<Ahead>) -> Result<()> {
        let Some(sigma) = self
            .controller
            .decide(self.core.consumed(), self.core.emitted().total())
        else {
            if let Some(ahead) = ahead {
                if self.controller.assessor().streak() > 0 {
                    self.build_ahead(ahead);
                }
            }
            return Ok(());
        };
        self.switch(sigma)
    }

    /// Build ahead under an open alarm streak, where the consumer is
    /// already waiting.
    ///
    /// A one-record call that queued a pair indexes the next chunk of
    /// residents, so each gap between two events carries at most one
    /// chunk.  The chunks spread the residents not indexed yet over
    /// ⌈`check_every` ÷ 4⌉ such calls after each look, less those made
    /// since; the switch indexes what is left.  How many such calls come
    /// before the switch is not known at the alarm: on 17 seeds of the
    /// `batch_dirty` data it ranged from 1 to 7 (median 3), and the pairs
    /// of the look interval before the alarm did not predict it.
    ///
    /// A call of several records (a served `FEED`) only tokenises, and
    /// the indexes are built at the switch: indexing inside one `FEED`
    /// made that `FEED` the stall.
    #[inline(never)]
    fn build_ahead(&mut self, ahead: Ahead) {
        match ahead {
            Ahead::Tokenize => self.core.tokenize_ahead(),
            Ahead::Index { queued: false } => {}
            Ahead::Index { queued: true } => {
                let monitor = self.controller.monitor();
                if monitor.last_checked() != self.chunk_look {
                    self.chunk_look = monitor.last_checked();
                    self.chunks = 0;
                }
                let planned = monitor.config().check_every.div_ceil(4);
                let calls = planned.saturating_sub(self.chunks).max(1);
                self.chunks += 1;
                self.core.index_ahead(calls as usize);
            }
        }
    }

    /// The timed §3.3 handover, recorded with the controller.
    #[inline(never)]
    fn switch(&mut self, sigma: f64) -> Result<()> {
        let queued = self.core.buffered();
        let start = Instant::now();
        let recovered = self.core.switch_to_approximate()?;
        let event = SwitchEvent {
            after_tuples: self.core.total_consumed(),
            sigma,
            recovered,
        };
        self.controller
            .record_switch(event, start.elapsed(), queued);
        Ok(())
    }

    /// Process `records` in order, running the control loop after each.
    /// Produced pairs stay queued for [`Self::pop_ready`]: emission
    /// counters and switch decisions update when a tuple is processed,
    /// never when a pair is popped, so how the input is chunked and when
    /// the output is popped cannot change the stream.  (How it is chunked
    /// changes only where the work built ahead of a switch is done.)
    pub fn feed(&mut self, records: &[SidedRecord]) -> Result<()> {
        if let [sided] = records {
            let emitted = self.core.emitted().total();
            self.core.process(sided.clone())?;
            let queued = self.core.emitted().total() > emitted;
            return self.control_step(Some(Ahead::Index { queued }));
        }
        for sided in records {
            self.core.process(sided.clone())?;
            self.control_step(Some(Ahead::Tokenize))?;
        }
        Ok(())
    }

    /// The next queued pair or switch announcement, or `None` if producing
    /// one needs more input.
    pub fn pop_ready(&mut self) -> Option<Pulled> {
        self.controller.pull(|| self.core.pop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkage_operators::{InterleavedScan, Operator};
    use linkage_types::{Field, MatchPair, PerSide, Record, Schema, Value, VecStream};

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

    /// The alternating parent/child feed and a fresh join over it.
    fn adaptive(n: usize, dirty_from: usize) -> (AdaptiveJoin, Vec<SidedRecord>) {
        let (parents, children) = dataset(n, dirty_from);
        let feed = InterleavedScan::alternating(parents, children)
            .run_to_end()
            .unwrap();
        let join = AdaptiveJoin::new(
            SwitchJoinConfig::new(PerSide::new(0, 0)),
            ControllerConfig::new(n as u64),
        )
        .unwrap();
        (join, feed)
    }

    /// Feed everything, then pop every pair.
    fn run(join: &mut AdaptiveJoin, feed: &[SidedRecord]) -> Vec<MatchPair> {
        join.feed(feed).unwrap();
        std::iter::from_fn(|| join.pop_ready())
            .filter_map(|pulled| match pulled {
                Pulled::Match(pair) => Some(pair),
                Pulled::Switched(_) => None,
            })
            .collect()
    }

    #[test]
    fn clean_data_never_switches() {
        let (mut join, feed) = adaptive(200, 200);
        let pairs = run(&mut join, &feed);
        assert_eq!(pairs.len(), 200);
        assert_eq!(join.phase(), JoinPhase::Exact);
        assert!(join.controller().switch().is_none());
    }

    #[test]
    fn dirty_tail_triggers_a_switch_and_recovers_matches() {
        let (mut join, feed) = adaptive(300, 150);
        let pairs = run(&mut join, &feed);

        let event = join
            .controller()
            .switch()
            .expect("the controller must switch");
        assert!(event.after_tuples > 300, "switch happens after dirt starts");
        assert!(event.sigma <= 0.01);

        // Every parent-child pair is found: clean ones exactly, dirty ones
        // approximately (recovered or post-switch).
        assert_eq!(pairs.len(), 300);
        let emitted = join.core().emitted();
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

    /// Every parent first, then one child per parent: children in
    /// `16..24` (a burst) and from 40 on carry a typo.  Declaring 72
    /// parents for 64 and checking every 8 children, the burst raises an
    /// alarm at child 24, the clean stretch closes that streak, and the
    /// dirty tail opens a second one that triggers — so the residents are
    /// tokenised ahead over two streaks, with arrivals left between them.
    #[test]
    fn a_streak_that_closes_and_reopens_still_emits_the_oracle_stream() {
        use linkage_operators::oracle::stream_similarity;
        use linkage_text::{QGramCoefficient, QGramConfig};
        use linkage_types::{defaults, Side};

        let sided = |side, i: usize, key: &str| {
            SidedRecord::new(side, Record::new(i as u64, vec![Value::string(key)]))
        };
        let mut feed: Vec<SidedRecord> = (0..64)
            .map(|i| sided(Side::Left, i, &parent_key(i)))
            .collect();
        feed.extend((0..64).map(|i| {
            let mut key = parent_key(i);
            if (16..24).contains(&i) || i >= 40 {
                key.replace_range(8..9, "0");
            }
            sided(Side::Right, i, &key)
        }));
        let mut config = ControllerConfig::new(72);
        config.monitor = config.monitor.with_check_every(8);
        let keys = PerSide::new(0, 0);
        let mut join = AdaptiveJoin::new(SwitchJoinConfig::new(keys), config).unwrap();
        let mut streaks = Vec::new();
        for tuple in &feed {
            join.feed(std::slice::from_ref(tuple)).unwrap();
            if join.phase() == JoinPhase::Exact {
                streaks.push(join.controller().assessor().streak());
            }
        }
        let opened = streaks.iter().position(|&s| s > 0).expect("an alarm");
        let closed = opened + streaks[opened..].iter().position(|&s| s == 0).unwrap();
        assert!(streaks[closed..].contains(&1), "a second streak");

        let switch = join.controller().switch().expect("the tail triggers");
        let pairs = run(&mut join, &[]);
        let oracle = stream_similarity(
            &feed,
            keys,
            &QGramConfig::default(),
            defaults::THETA_SIM,
            Some(switch.after_tuples as usize),
            |_| QGramCoefficient::Jaccard,
        )
        .unwrap();
        assert_eq!(pairs, oracle);
        assert!(switch.recovered >= 8, "the burst is recovered");
    }

    #[test]
    fn report_reflects_progress() {
        let (mut join, feed) = adaptive(64, 64);
        join.feed(&feed[..2]).unwrap();
        assert!(matches!(join.pop_ready(), Some(Pulled::Match(_))));
        assert!(join.pop_ready().is_none(), "nothing more without input");
        assert_eq!(join.core().total_consumed(), 2);
        assert_eq!(join.phase(), JoinPhase::Exact);
        assert!(join.controller().switch().is_none());
    }
}
