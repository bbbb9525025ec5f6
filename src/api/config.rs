//! The one configuration type behind the pipeline builder.

use linkage_core::{AssessorConfig, ControllerConfig, MonitorConfig, SwitchPolicy};
use linkage_exec::ParallelJoinConfig;
use linkage_operators::SwitchJoinConfig;
use linkage_text::{QGramCoefficient, QGramConfig};
use linkage_types::{defaults, InterleavePolicy, LinkageError, PerSide, Result};

/// Upper bounds `validate` puts on the three sizes a config allocates
/// from up front, so a client-sent `OPEN` cannot abort the process: the
/// q-gram window buffer, one epoch's input batch, and each worker's
/// channel buffer.  Each sits far above every value the workspace uses.
const MAX_Q: usize = 64;
const MAX_BATCH_SIZE: usize = 1 << 16;
const MAX_CHANNEL_CAPACITY: usize = 1 << 10;

/// Which execution backend runs the pipeline.
///
/// `#[non_exhaustive]`: future backends (async, multi-node) will add
/// variants without a breaking change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ExecutionMode {
    /// The serial adaptive join: one thread, per-tuple control loop.
    #[default]
    Serial,
    /// The partition-parallel executor: worker shards in lock-step
    /// epochs with a global switch decision.
    Sharded {
        /// Number of worker shards (threads).
        shards: usize,
    },
}

impl ExecutionMode {
    /// Shard count of this mode (1 for serial execution).
    pub fn shards(&self) -> usize {
        match self {
            ExecutionMode::Serial => 1,
            ExecutionMode::Sharded { shards } => *shards,
        }
    }
}

/// Everything a linkage pipeline needs to know, in one place.
///
/// This type **subsumes** the per-layer configurations: the operator
/// layer's `SwitchJoinConfig`, the controller's `ControllerConfig`
/// (monitor + assessor + switch policy) and the executor's
/// `ParallelJoinConfig` are all constructed *from* it (see
/// [`Self::switch_join`], [`Self::controller`], [`Self::parallel`]) and
/// never need to be touched by callers.  All defaults are the paper's,
/// defined once in [`defaults`].
///
/// `#[non_exhaustive]`: construct via [`Default`] or the
/// [`Pipeline::builder`](crate::api::Pipeline::builder) fluent API.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PipelineConfig {
    /// Join key column per side.
    pub keys: PerSide<usize>,
    /// Q-gram extraction (window width, padding, key normalisation).
    pub qgram: QGramConfig,
    /// The pluggable similarity choice scoring approximate candidates.
    pub similarity: QGramCoefficient,
    /// Similarity threshold `θ_sim` of the approximate phase.
    pub theta_sim: f64,
    /// Significance threshold `θ_out ∈ [0, 1)` of the binomial outlier test.
    pub theta_out: f64,
    /// Monitor cadence in consumed child tuples.
    pub check_every: u64,
    /// Minimum trials before the outlier test is applied.
    pub min_trials: u64,
    /// Consecutive outlier verdicts required to trigger the switch.
    pub consecutive_alarms: u32,
    /// Declared size of the reference (left) relation — the paper's
    /// `|R|` catalog statistic.  `None` infers it from the left source.
    pub reference_size: Option<u64>,
    /// When the actuator switches exact → approximate.
    pub switch_policy: SwitchPolicy,
    /// Which engine executes the pipeline.
    pub execution: ExecutionMode,
    /// Epoch size of the sharded executor (ignored by the serial engine).
    pub batch_size: usize,
    /// Worker channel depth of the sharded executor (ignored serially).
    pub channel_capacity: usize,
    /// How the two sources are interleaved into one sided stream.
    pub interleave: InterleavePolicy,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            keys: PerSide::new(0, 0),
            qgram: QGramConfig::default(),
            similarity: QGramCoefficient::default(),
            theta_sim: defaults::THETA_SIM,
            theta_out: defaults::THETA_OUT,
            check_every: defaults::CHECK_EVERY,
            min_trials: defaults::MIN_TRIALS,
            consecutive_alarms: defaults::CONSECUTIVE_ALARMS,
            reference_size: None,
            switch_policy: SwitchPolicy::default(),
            execution: ExecutionMode::default(),
            batch_size: defaults::EPOCH_BATCH_SIZE,
            channel_capacity: defaults::CHANNEL_CAPACITY,
            interleave: InterleavePolicy::default(),
        }
    }
}

impl PipelineConfig {
    /// Fingerprint this configuration: CRC-32 of its canonical `Debug`
    /// rendering — the same identity scheme the snapshot `META` section
    /// uses.  The `linkage-server` protocol carries it in every `OPEN`
    /// request, so a client and server silently disagreeing about a
    /// config codec is caught as a typed mismatch, never a garbled
    /// session.
    pub fn fingerprint(&self) -> u32 {
        linkage_types::snapshot::crc32(format!("{self:?}").as_bytes())
    }

    /// Check the configuration for internal consistency.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.theta_sim) {
            return Err(LinkageError::config(format!(
                "θ_sim must be in [0, 1], got {}",
                self.theta_sim
            )));
        }
        // The outlier detector's own range: σ ≤ 1 always, so θ_out = 1
        // would flag every observation.
        if !(0.0..1.0).contains(&self.theta_out) {
            return Err(LinkageError::config(format!(
                "θ_out must be in [0, 1), got {}",
                self.theta_out
            )));
        }
        if self.check_every == 0 {
            return Err(LinkageError::config("check_every must be positive"));
        }
        if self.consecutive_alarms == 0 {
            return Err(LinkageError::config("consecutive_alarms must be positive"));
        }
        for (name, value, max) in [
            ("qgram.q", self.qgram.q, MAX_Q),
            ("batch_size", self.batch_size, MAX_BATCH_SIZE),
            (
                "channel_capacity",
                self.channel_capacity,
                MAX_CHANNEL_CAPACITY,
            ),
        ] {
            if value > max {
                return Err(LinkageError::config(format!(
                    "{name} must be at most {max}, got {value}"
                )));
            }
        }
        if self.batch_size == 0 {
            return Err(LinkageError::config("batch_size must be positive"));
        }
        if self.channel_capacity == 0 {
            return Err(LinkageError::config("channel_capacity must be positive"));
        }
        if self.execution.shards() == 0 {
            return Err(LinkageError::config(
                "sharded execution requires at least one shard",
            ));
        }
        if self.reference_size == Some(0) {
            return Err(LinkageError::config("reference_size must be positive"));
        }
        Ok(())
    }

    /// The operator-layer join configuration this pipeline induces — a
    /// thin internal, never hand-built by callers.
    pub fn switch_join(&self) -> SwitchJoinConfig {
        SwitchJoinConfig::new(self.keys)
            .with_qgram(self.qgram.clone())
            .with_coefficient(self.similarity)
            .with_theta(self.theta_sim)
    }

    /// The controller configuration this pipeline induces for the given
    /// (possibly inferred) reference-relation size.
    pub fn controller(&self, reference_size: u64) -> ControllerConfig {
        ControllerConfig::default()
            .with_monitor(
                MonitorConfig::new(reference_size.max(1)).with_check_every(self.check_every),
            )
            .with_assessor(
                AssessorConfig::default()
                    .with_theta_out(self.theta_out)
                    .with_min_trials(self.min_trials)
                    .with_consecutive_alarms(self.consecutive_alarms),
            )
            .with_policy(self.switch_policy)
    }

    /// The sharded-executor configuration this pipeline induces.
    pub fn parallel(&self, shards: usize, reference_size: u64) -> ParallelJoinConfig {
        ParallelJoinConfig::new(shards, self.keys, reference_size.max(1))
            .with_batch_size(self.batch_size)
            .with_channel_capacity(self.channel_capacity)
            .with_join(self.switch_join())
            .with_controller(self.controller(reference_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_agree_with_the_constants_module() {
        let config = PipelineConfig::default();
        assert_eq!(config.qgram.q, defaults::Q);
        assert_eq!(config.theta_sim, defaults::THETA_SIM);
        assert_eq!(config.theta_out, defaults::THETA_OUT);
        assert_eq!(config.check_every, defaults::CHECK_EVERY);
        assert_eq!(config.batch_size, defaults::EPOCH_BATCH_SIZE);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn induced_configs_carry_the_declaration() {
        let config = PipelineConfig {
            keys: PerSide::new(1, 2),
            similarity: QGramCoefficient::Dice,
            theta_sim: 0.7,
            theta_out: 0.05,
            check_every: 8,
            switch_policy: SwitchPolicy::ForceAt(10),
            ..PipelineConfig::default()
        };

        let join = config.switch_join();
        assert_eq!(join.keys, PerSide::new(1, 2));
        assert_eq!(join.coefficient, QGramCoefficient::Dice);
        assert_eq!(join.theta_sim, 0.7);

        let controller = config.controller(123);
        assert_eq!(controller.monitor.reference_size, 123);
        assert_eq!(controller.monitor.check_every, 8);
        assert_eq!(controller.assessor.theta_out, 0.05);
        assert_eq!(controller.policy, SwitchPolicy::ForceAt(10));

        let parallel = config.parallel(3, 123);
        assert_eq!(parallel.shards, 3);
        assert_eq!(parallel.join.theta_sim, 0.7);
        assert_eq!(parallel.controller.policy, SwitchPolicy::ForceAt(10));
    }

    #[test]
    fn validation_rejects_illegal_values() {
        let ok = PipelineConfig::default();
        for broken in [
            {
                let mut c = ok.clone();
                c.theta_sim = 1.5;
                c
            },
            {
                let mut c = ok.clone();
                c.theta_out = 1.0;
                c
            },
            {
                let mut c = ok.clone();
                c.check_every = 0;
                c
            },
            {
                let mut c = ok.clone();
                c.execution = ExecutionMode::Sharded { shards: 0 };
                c
            },
            {
                let mut c = ok.clone();
                c.reference_size = Some(0);
                c
            },
            {
                let mut c = ok.clone();
                c.qgram.q = MAX_Q + 1;
                c
            },
            {
                let mut c = ok.clone();
                c.batch_size = MAX_BATCH_SIZE + 1;
                c
            },
            {
                let mut c = ok.clone();
                c.channel_capacity = MAX_CHANNEL_CAPACITY + 1;
                c
            },
        ] {
            assert!(matches!(broken.validate(), Err(LinkageError::Config(_))));
        }
    }
}
