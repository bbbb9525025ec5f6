//! The one controller both engines run: the paper's monitor → assessor
//! → actuator loop (§3.2–3.3), plus the rule for when the switch becomes
//! visible in the output.
//!
//! The serial [`crate::AdaptiveJoin`] calls [`Controller::decide`] after
//! every fed tuple; the sharded executor in `linkage-exec` calls it
//! after every exact-phase epoch, with the router's consumed counts and
//! the deduplicated global match count.  Both use one checkpoint rule —
//! assess when `consumed.right / check_every` has grown since the last
//! assessment — which fires on exactly the tuples [`Monitor::due`] fires
//! on when it is called once per tuple, and once per crossed checkpoint
//! when an epoch crosses several at once (the intermediate counter values
//! are gone, so the hysteresis streak then counts epochs, which only
//! makes the trigger more conservative).
//!
//! When the engine has performed the handover it records it with
//! [`Controller::record_switch`], and from then on pops its output queue
//! through [`Controller::pull`]: the pairs that were queued before the
//! handover come out first, then [`Pulled::Switched`] — in-band, from the
//! engine's own queue — then the recovered and post-switch pairs.

use std::time::Duration;

use linkage_types::snapshot::{Decoder, Encoder};
use linkage_types::{MatchPair, PerSide, Result};

use crate::assessor::{Assessment, Assessor, AssessorConfig};
use crate::monitor::{Monitor, MonitorConfig};

/// When the actuator performs the exact → approximate switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchPolicy {
    /// The paper's behaviour: the monitor → assessor loop decides.
    #[default]
    Adaptive,
    /// Never switch — the join stays exact (the non-adaptive baseline).
    Never,
    /// Switch unconditionally once this many input tuples were consumed,
    /// bypassing the assessor (tests, experiments; `ForceAt(0)` switches
    /// when the engine opens, so the approximate join runs from the first
    /// tuple).
    ForceAt(u64),
}

/// Everything the controller needs to know.
///
/// `#[non_exhaustive]`: construct via [`ControllerConfig::new`] (or
/// [`Default`]) and refine with the `with_*` builders.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct ControllerConfig {
    /// Monitor settings (declared reference size, cadence).
    pub monitor: MonitorConfig,
    /// Assessor settings (threshold, hysteresis).
    pub assessor: AssessorConfig,
    /// When the actuator switches.
    pub policy: SwitchPolicy,
}

impl ControllerConfig {
    /// Build with the given declared parent-relation size, default
    /// assessor settings and the adaptive switch policy.
    pub fn new(reference_size: u64) -> Self {
        Self {
            monitor: MonitorConfig::new(reference_size),
            assessor: AssessorConfig::default(),
            policy: SwitchPolicy::default(),
        }
    }

    /// Override the monitor settings.
    #[must_use]
    pub fn with_monitor(mut self, monitor: MonitorConfig) -> Self {
        self.monitor = monitor;
        self
    }

    /// Override the assessor settings.
    #[must_use]
    pub fn with_assessor(mut self, assessor: AssessorConfig) -> Self {
        self.assessor = assessor;
        self
    }

    /// Override the switch policy.
    #[must_use]
    pub fn with_policy(mut self, policy: SwitchPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// A record of the switch decision, for reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchEvent {
    /// Total input tuples consumed when the switch happened.
    pub after_tuples: u64,
    /// The σ value that completed the alarm streak (0 for a forced
    /// switch).
    pub sigma: f64,
    /// Matches recovered from resident state during the handover.
    pub recovered: u64,
}

/// What an engine's `pop_ready` returns: the next pair, or the switch
/// announcement in its place in the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Pulled {
    /// One emitted match pair.
    Match(MatchPair),
    /// The switch, announced right after the last pair that was queued
    /// before the handover.
    Switched(SwitchEvent),
}

/// The monitor → assessor → actuator loop and the switch's place in the
/// output, shared by both engines.
#[derive(Debug, Clone)]
pub struct Controller {
    monitor: Monitor,
    assessor: Assessor,
    policy: SwitchPolicy,
    switch: Option<SwitchEvent>,
    switch_latency: Option<Duration>,
    /// Pairs queued before the handover and not yet pulled; the switch is
    /// announced once this reaches zero.
    pre_switch_queued: u64,
    announced: bool,
}

impl Controller {
    /// Build from a configuration.
    pub fn new(config: ControllerConfig) -> Self {
        Self {
            monitor: Monitor::new(config.monitor),
            assessor: Assessor::new(config.assessor),
            policy: config.policy,
            switch: None,
            switch_latency: None,
            pre_switch_queued: 0,
            announced: false,
        }
    }

    /// The monitor driving the loop.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The assessor driving the loop.
    pub fn assessor(&self) -> &Assessor {
        &self.assessor
    }

    /// The switch policy in force.
    pub fn policy(&self) -> SwitchPolicy {
        self.policy
    }

    /// The switch, once the engine has performed it (whether or not it has
    /// been announced yet).
    pub fn switch(&self) -> Option<SwitchEvent> {
        self.switch
    }

    /// Wall-clock duration of the handover, if it ran.
    pub fn switch_latency(&self) -> Option<Duration> {
        self.switch_latency
    }

    /// Whether the engine should switch now, having consumed `consumed`
    /// tuples and emitted `matches` distinct pairs: `Some(sigma)` if so.
    ///
    /// Called after every tuple (serial), after every exact epoch
    /// (sharded) and once at construction, firing for `ForceAt(0)` only.
    /// Never fires again once a switch is recorded.
    pub fn decide(&mut self, consumed: PerSide<u64>, matches: u64) -> Option<f64> {
        if self.switch.is_some() {
            return None;
        }
        match self.policy {
            SwitchPolicy::Never => None,
            SwitchPolicy::ForceAt(after) => {
                (consumed.left + consumed.right >= after).then_some(0.0)
            }
            SwitchPolicy::Adaptive => {
                let check_every = self.monitor.config().check_every;
                if consumed.right / check_every <= self.monitor.last_checked() / check_every {
                    return None;
                }
                let observation = self.monitor.observe(consumed, matches);
                match self.assessor.assess(&observation) {
                    Assessment::Trigger { sigma } => Some(sigma),
                    _ => None,
                }
            }
        }
    }

    /// Record the handover the engine performed after [`Self::decide`]
    /// fired.  `pre_switch_queued` pairs were in the engine's output queue
    /// before the handover ran; they are pulled before the announcement.
    pub fn record_switch(
        &mut self,
        event: SwitchEvent,
        latency: Duration,
        pre_switch_queued: usize,
    ) {
        self.switch = Some(event);
        self.switch_latency = Some(latency);
        self.pre_switch_queued = pre_switch_queued as u64;
    }

    /// The engine's next ready item, without reading input: the switch
    /// announcement if it is due, else the pair `pop` takes from the head
    /// of the engine's output queue.
    pub fn pull(&mut self, pop: impl FnOnce() -> Option<MatchPair>) -> Option<Pulled> {
        if self.pre_switch_queued == 0 && !self.announced {
            if let Some(event) = self.switch {
                self.announced = true;
                return Some(Pulled::Switched(event));
            }
        }
        let pair = pop()?;
        self.pre_switch_queued = self.pre_switch_queued.saturating_sub(1);
        Some(Pulled::Match(pair))
    }

    /// Write the loop counters of a `CONTROLLER` section (`docs/format.md`):
    /// assessments, last checked child count, alarm streak.
    pub fn put_loop(&self, e: &mut Encoder) {
        e.put_u64(self.monitor.assessments());
        e.put_u64(self.monitor.last_checked());
        e.put_u32(self.assessor.streak());
    }

    /// Read what [`Self::put_loop`] wrote, so a resumed run takes exactly
    /// the checkpoints (and carries exactly the alarm streak) the
    /// interrupted run would have.
    pub fn get_loop(&mut self, d: &mut Decoder) -> Result<()> {
        let assessments = d.get_u64()?;
        let last_checked = d.get_u64()?;
        self.monitor.restore(assessments, last_checked);
        self.assessor.restore_streak(d.get_u32()?);
        Ok(())
    }

    /// Write the switch fields of a `CONTROLLER` section: the event, the
    /// handover latency, the pre-switch pairs still queued, and a byte
    /// that is always 0 (`docs/format.md`).
    pub fn put_switch(&self, e: &mut Encoder) {
        e.put_bool(self.switch.is_some());
        if let Some(switch) = self.switch {
            e.put_u64(switch.after_tuples);
            e.put_f64(switch.sigma);
            e.put_u64(switch.recovered);
        }
        e.put_opt_u64(self.switch_latency.map(|d| d.as_nanos() as u64));
        e.put_u64(self.pre_switch_queued);
        e.put_bool(false);
    }

    /// Read what [`Self::put_switch`] wrote.  An older writer deferred the
    /// count of the last pre-switch pair it returned to the next pull and
    /// flagged it in `pre_switch_in_flight`; that pair was delivered, so
    /// it is taken off the queued count here.
    pub fn get_switch(&mut self, d: &mut Decoder) -> Result<()> {
        self.switch = if d.get_bool()? {
            Some(SwitchEvent {
                after_tuples: d.get_u64()?,
                sigma: d.get_f64()?,
                recovered: d.get_u64()?,
            })
        } else {
            None
        };
        self.switch_latency = d.get_opt_u64()?.map(Duration::from_nanos);
        let queued = d.get_u64()?;
        let in_flight = d.get_bool()?;
        self.pre_switch_queued = queued.saturating_sub(u64::from(in_flight));
        Ok(())
    }

    /// The `STREAM` section: whether the switch was announced, and a byte
    /// that is always 0 (`docs/format.md`).
    pub fn encode_stream(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_bool(self.announced);
        e.put_bool(false);
        e.finish()
    }

    /// Read a `STREAM` section into the controller and the engine's
    /// restored output queue `pending`.  An older writer could hold one
    /// pulled pair back behind the announcement; it goes back to the head
    /// of the queue.
    pub fn decode_stream(&mut self, payload: &[u8], pending: &mut Vec<MatchPair>) -> Result<()> {
        let mut d = Decoder::new(payload, "STREAM");
        self.announced = d.get_bool()?;
        if d.get_bool()? {
            pending.insert(0, d.get_pair()?);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkage_types::Record;

    fn controller(reference: u64, check_every: u64) -> Controller {
        let mut config = ControllerConfig::new(reference);
        config.monitor = config.monitor.with_check_every(check_every);
        Controller::new(config)
    }

    fn pair(left: u64) -> MatchPair {
        MatchPair::exact(Record::new(left, vec![]), Record::new(0u64, vec![]))
    }

    #[test]
    fn checkpoint_rule_fires_where_monitor_due_fires_per_tuple() {
        // A never-triggering assessor, so the loop keeps checking.
        for check_every in [1, 3, 16] {
            let mut config = ControllerConfig::new(1000);
            config.monitor = config.monitor.with_check_every(check_every);
            config.assessor = config.assessor.with_min_trials(u64::MAX);
            let mut c = Controller::new(config.clone());
            let mut reference = Monitor::new(config.monitor);
            let mut consumed = PerSide::new(0u64, 0u64);
            // An irregular per-tuple side sequence: runs of either side.
            for i in 0..500u64 {
                let right = (i * 7 + i / 13) % 5 < 2;
                if right {
                    consumed.right += 1;
                } else {
                    consumed.left += 1;
                }
                let due = reference.due(consumed.right);
                if due {
                    reference.observe(consumed, 0);
                }
                let before = c.monitor().assessments();
                assert_eq!(c.decide(consumed, 0), None);
                let fired = c.monitor().assessments() > before;
                assert_eq!(fired, due, "tuple {i}, right {}", consumed.right);
            }
            assert!(reference.assessments() > 0);
        }
    }

    #[test]
    fn assesses_only_when_a_checkpoint_is_crossed() {
        let mut c = controller(100, 16);
        c.decide(PerSide::new(10, 10), 5);
        c.decide(PerSide::new(15, 15), 8);
        assert_eq!(c.monitor().assessments(), 0);
        // 17 > 16: the checkpoint is crossed even though the boundary does
        // not land exactly on a multiple of the cadence.
        c.decide(PerSide::new(17, 17), 9);
        assert_eq!(c.monitor().assessments(), 1);
        // Same checkpoint: no re-assessment.
        c.decide(PerSide::new(20, 20), 11);
        assert_eq!(c.monitor().assessments(), 1);
        c.decide(PerSide::new(33, 33), 18);
        assert_eq!(c.monitor().assessments(), 2);
    }

    #[test]
    fn one_epoch_crossing_many_checkpoints_assesses_once() {
        let mut c = controller(1000, 16);
        c.decide(PerSide::new(100, 100), 10);
        assert_eq!(c.monitor().assessments(), 1);
        c.decide(PerSide::new(111, 111), 11);
        assert_eq!(c.monitor().assessments(), 1);
        c.decide(PerSide::new(112, 112), 12);
        assert_eq!(c.monitor().assessments(), 2);
    }

    #[test]
    fn healthy_counts_stay_nominal_and_collapse_triggers() {
        let mut c = controller(200, 16);
        // Half the parents scanned, matches right at expectation: nominal.
        assert_eq!(c.decide(PerSide::new(100, 16), 8), None);
        // Matches collapse: two consecutive outlier checkpoints trigger.
        assert_eq!(c.decide(PerSide::new(150, 64), 10), None);
        assert_eq!(c.assessor().streak(), 1);
        let sigma = c.decide(PerSide::new(180, 96), 10).expect("trigger");
        assert!(sigma <= 0.01);
        let event = SwitchEvent {
            after_tuples: 276,
            sigma,
            recovered: 0,
        };
        c.record_switch(event, Duration::ZERO, 0);
        assert_eq!(c.decide(PerSide::new(190, 200), 10), None);
        assert_eq!(c.monitor().assessments(), 3);
    }

    #[test]
    fn forced_policies_fire_at_their_count_and_zero_at_open() {
        let forced =
            |at| Controller::new(ControllerConfig::new(10).with_policy(SwitchPolicy::ForceAt(at)));
        assert_eq!(forced(0).decide(PerSide::default(), 0), Some(0.0));
        let mut c = forced(5);
        assert_eq!(c.decide(PerSide::default(), 0), None);
        assert_eq!(c.decide(PerSide::new(2, 2), 0), None);
        assert_eq!(c.decide(PerSide::new(3, 2), 0), Some(0.0));
        let mut never = Controller::new(ControllerConfig::new(10).with_policy(SwitchPolicy::Never));
        assert_eq!(never.decide(PerSide::new(500, 500), 0), None);
    }

    #[test]
    fn switch_is_announced_after_the_pre_switch_pairs() {
        let mut c = controller(10, 1);
        let mut queue: std::collections::VecDeque<MatchPair> = (0..3).map(pair).collect();
        assert_eq!(c.pull(|| queue.pop_front()), Some(Pulled::Match(pair(0))));
        let event = SwitchEvent {
            after_tuples: 9,
            sigma: 0.0,
            recovered: 1,
        };
        // Two pairs still queued when the handover ran, one recovered.
        c.record_switch(event, Duration::ZERO, queue.len());
        queue.push_back(pair(7));
        assert_eq!(c.pull(|| queue.pop_front()), Some(Pulled::Match(pair(1))));
        assert_eq!(c.pull(|| queue.pop_front()), Some(Pulled::Match(pair(2))));
        assert_eq!(c.pull(|| queue.pop_front()), Some(Pulled::Switched(event)));
        assert_eq!(c.pull(|| queue.pop_front()), Some(Pulled::Match(pair(7))));
        assert_eq!(c.pull(|| queue.pop_front()), None);
    }

    #[test]
    fn older_writers_in_flight_pair_and_stash_are_mapped() {
        let event = SwitchEvent {
            after_tuples: 9,
            sigma: 0.5,
            recovered: 2,
        };
        // A parent-format switch block: 3 queued, one of them in flight.
        let mut e = Encoder::new();
        e.put_bool(true);
        e.put_u64(9);
        e.put_f64(0.5);
        e.put_u64(2);
        e.put_opt_u64(Some(1_000));
        e.put_u64(3);
        e.put_bool(true);
        let bytes = e.finish();
        let mut c = controller(10, 1);
        c.get_switch(&mut Decoder::new(&bytes, "CONTROLLER"))
            .unwrap();
        assert_eq!(c.switch(), Some(event));
        assert_eq!(c.switch_latency(), Some(Duration::from_nanos(1_000)));
        let mut written = Encoder::new();
        c.put_switch(&mut written);
        let mut expected = bytes[..bytes.len() - 9].to_vec();
        expected.extend(2u64.to_le_bytes());
        expected.push(0);
        assert_eq!(written.finish(), expected);

        // A parent-format stream section with a held-back pair.
        let mut e = Encoder::new();
        e.put_bool(true);
        e.put_bool(true);
        e.put_pair(&pair(4));
        let mut pending = vec![pair(5)];
        c.decode_stream(&e.finish(), &mut pending).unwrap();
        assert_eq!(pending, vec![pair(4), pair(5)]);
        assert_eq!(c.encode_stream(), vec![1, 0]);
        // Two pre-switch pairs were still queued, and the switch was
        // already announced: it is not announced again.
        let mut queue: std::collections::VecDeque<MatchPair> = (0..3).map(pair).collect();
        for i in 0..3 {
            assert_eq!(c.pull(|| queue.pop_front()), Some(Pulled::Match(pair(i))));
        }
        assert_eq!(c.pull(|| queue.pop_front()), None);
    }
}
