//! Configuration of the sharded parallel join.

use linkage_core::ControllerConfig;
use linkage_operators::SwitchJoinConfig;
use linkage_types::{defaults, PerSide};

/// Everything the parallel executor needs to know.
///
/// `#[non_exhaustive]`: construct via [`ParallelJoinConfig::new`] (or
/// [`Default`]) and refine with the `with_*` builders.  The unified
/// `linkage::api::PipelineConfig` constructs this type internally.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ParallelJoinConfig {
    /// Number of worker shards (threads).  One shard is legal and useful:
    /// it runs the identical sharded protocol, which is what the
    /// shard-count-invariance tests compare against.
    pub shards: usize,
    /// Input tuples pulled per epoch.  An epoch is the unit of the
    /// coordinator's lock-step protocol: route a batch, barrier on every
    /// shard, merge, assess.  Larger epochs amortise the barrier; smaller
    /// epochs tighten the switch decision's granularity.
    pub batch_size: usize,
    /// Bounded depth of each worker's command and reply channel.
    pub channel_capacity: usize,
    /// Join configuration shared by every shard (keys, q-grams, the
    /// similarity coefficient, θ_sim).
    pub join: SwitchJoinConfig,
    /// Global monitor/assessor settings and the switch policy.  A forced
    /// policy switches at the first epoch boundary at or after its
    /// consumed-tuple count.
    pub controller: ControllerConfig,
}

impl Default for ParallelJoinConfig {
    /// One shard, the paper's join parameters, and a placeholder
    /// reference size of 1 (override via the controller).
    fn default() -> Self {
        Self::new(1, PerSide::new(0, 0), 1)
    }
}

impl ParallelJoinConfig {
    /// Build with defaults: the paper's join parameters, a
    /// [`defaults::EPOCH_BATCH_SIZE`]-tuple epoch, and the serial
    /// controller's cadence.
    pub fn new(shards: usize, keys: PerSide<usize>, reference_size: u64) -> Self {
        assert!(shards > 0, "parallel join requires at least one shard");
        Self {
            shards,
            batch_size: defaults::EPOCH_BATCH_SIZE,
            channel_capacity: defaults::CHANNEL_CAPACITY,
            join: SwitchJoinConfig::new(keys),
            controller: ControllerConfig::new(reference_size),
        }
    }

    /// Override the epoch size.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "epoch batch size must be positive");
        self.batch_size = batch_size;
        self
    }

    /// Override the worker channel depth.
    #[must_use]
    pub fn with_channel_capacity(mut self, channel_capacity: usize) -> Self {
        assert!(channel_capacity > 0, "channel capacity must be positive");
        self.channel_capacity = channel_capacity;
        self
    }

    /// Override the join configuration.
    #[must_use]
    pub fn with_join(mut self, join: SwitchJoinConfig) -> Self {
        self.join = join;
        self
    }

    /// Override the controller configuration.
    #[must_use]
    pub fn with_controller(mut self, controller: ControllerConfig) -> Self {
        self.controller = controller;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkage_core::SwitchPolicy;

    #[test]
    fn defaults_are_sane() {
        let c = ParallelJoinConfig::new(4, PerSide::new(0, 0), 100);
        assert_eq!(c.shards, 4);
        assert!(c.batch_size > 0);
        assert!(c.channel_capacity > 0);
        assert_eq!(c.controller.policy, SwitchPolicy::Adaptive);
        assert_eq!(ParallelJoinConfig::default().shards, 1);
    }

    #[test]
    fn builders_override() {
        let c = ParallelJoinConfig::new(2, PerSide::new(1, 1), 10)
            .with_batch_size(7)
            .with_channel_capacity(5)
            .with_controller(ControllerConfig::new(10).with_policy(SwitchPolicy::ForceAt(100)));
        assert_eq!(c.batch_size, 7);
        assert_eq!(c.channel_capacity, 5);
        assert_eq!(c.controller.policy, SwitchPolicy::ForceAt(100));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ParallelJoinConfig::new(0, PerSide::new(0, 0), 1);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_rejected() {
        let _ = ParallelJoinConfig::new(1, PerSide::new(0, 0), 1).with_batch_size(0);
    }
}
