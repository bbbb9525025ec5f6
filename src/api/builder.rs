//! The fluent pipeline builder.
//!
//! A [`Pipeline`] is a declaration plus, for a batch pipeline, its
//! interleaved sources; the engine — a push core — is built when the
//! pipeline runs or resumes, and the [`MatchStream`] it returns owns the
//! input.  [`PipelineBuilder::session`] declares a pipeline without
//! sources, whose stream the caller feeds.

use linkage_core::{AdaptiveJoin, SwitchPolicy};
use linkage_datagen::{generate, DatagenConfig};
use linkage_exec::ParallelJoin;
use linkage_operators::InterleavedScan;
use linkage_text::{QGramCoefficient, QGramConfig};
use linkage_types::snapshot::SnapshotFile;
use linkage_types::{DataType, InterleavePolicy, LinkageError, PerSide, Result, Side, VecStream};

use crate::api::config::{ExecutionMode, PipelineConfig};
use crate::api::engine::JoinEngine;
use crate::api::source::Source;
use crate::api::stream::{MatchStream, RunOutcome};

/// A built, ready-to-run linkage pipeline over either engine.
pub struct Pipeline {
    config: PipelineConfig,
    /// The declared (or inferred) reference-relation size.
    reference: u64,
    /// The interleaved sources of a batch pipeline; `None` for a session,
    /// whose stream is fed instead.
    sources: Option<InterleavedScan<VecStream, VecStream>>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("engine", &self.engine_name())
            .finish_non_exhaustive()
    }
}

impl Pipeline {
    /// Start declaring a pipeline.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// Which engine backs this pipeline (`"serial"`, `"sharded"`).
    pub fn engine_name(&self) -> &'static str {
        match self.config.execution {
            ExecutionMode::Serial => "serial",
            ExecutionMode::Sharded { .. } => "sharded",
        }
    }

    /// Construct the engine the declaration asks for.
    fn engine(&self) -> Result<Box<dyn JoinEngine + Send>> {
        // Exhaustive on purpose: `ExecutionMode` is `#[non_exhaustive]`
        // only for downstream crates — adding a variant here must fail to
        // compile until it gets an engine.
        Ok(match self.config.execution {
            ExecutionMode::Sharded { shards } => Box::new(ParallelJoin::new(
                self.config.parallel(shards, self.reference),
            )?),
            ExecutionMode::Serial => Box::new(AdaptiveJoin::new(
                self.config.switch_join(),
                self.config.controller(self.reference),
            )?),
        })
    }

    /// Execute: start the engine and stream [`MatchEvent`]s.
    ///
    /// [`MatchEvent`]: crate::api::MatchEvent
    pub fn run(self) -> Result<MatchStream> {
        MatchStream::new(self.engine()?, self.sources)
    }

    /// Execute and materialise: every match pair plus the final report.
    pub fn collect(self) -> Result<RunOutcome> {
        self.run()?.into_outcome()
    }

    /// Resume from a snapshot written by
    /// [`MatchStream::snapshot`](crate::api::MatchStream::snapshot)
    /// instead of starting from the first tuple.
    ///
    /// Declare the pipeline exactly as the snapshotted run did — same
    /// sources, keys, similarity, thresholds and execution mode (the
    /// `META` section's engine name, shard count and configuration
    /// fingerprint are all validated) — then call this in place of
    /// [`run`](Self::run).  The engine rebuilds its join state from the
    /// snapshot's tuple columns, the stream skips its sources' consumed
    /// prefix (a source that ends early or interleaves differently is a
    /// typed [`LinkageError::Snapshot`]), and the returned stream yields
    /// the remaining events bit-identically to the uninterrupted run.
    pub fn resume(self, path: impl AsRef<std::path::Path>) -> Result<MatchStream> {
        self.resume_from(&SnapshotFile::read_from(path.as_ref())?)
    }

    /// [`resume`](Self::resume) from a container the caller already read
    /// and verified — the bytes are hashed and parsed once, however many
    /// of its sections the caller inspects first (the server's
    /// rehydration checks its own binding section before resuming).  A
    /// session's resumed stream is fed the input that follows
    /// [`MatchStream::consumed`].
    pub fn resume_from(self, file: &SnapshotFile) -> Result<MatchStream> {
        MatchStream::resume(self.engine()?, self.sources, file)
    }
}

/// What the builder was given as inputs.
#[derive(Debug, Clone, Default)]
enum Inputs {
    /// Nothing yet.
    #[default]
    None,
    /// Explicit sources (either side may still be missing).
    Pair(Option<Source>, Option<Source>),
    /// A datagen workload generated at build time.
    Datagen(DatagenConfig),
}

/// Fluent construction of a [`Pipeline`]: declare sources, keys, the
/// similarity choice, thresholds and an execution mode, then
/// [`build`](Self::build) (or go straight to [`run`](Self::run) /
/// [`collect`](Self::collect)).
///
/// Every knob defaults to the paper's value
/// ([`linkage_types::defaults`]); the minimal pipeline is two sources
/// plus a key column.
#[derive(Debug, Clone, Default)]
pub struct PipelineBuilder {
    inputs: Inputs,
    /// Set when `.datagen(...)` and `.left()`/`.right()` were mixed, so
    /// [`build`](Self::build) can point at the real mistake instead of
    /// silently dropping one declaration.
    mixed_sources: bool,
    config: PipelineConfig,
}

impl PipelineBuilder {
    /// Declare the left (reference / parent) source.
    pub fn left(mut self, source: impl Into<Source>) -> Self {
        self.inputs = match self.inputs {
            Inputs::Pair(_, right) => Inputs::Pair(Some(source.into()), right),
            Inputs::Datagen(_) => {
                self.mixed_sources = true;
                Inputs::Pair(Some(source.into()), None)
            }
            Inputs::None => Inputs::Pair(Some(source.into()), None),
        };
        self
    }

    /// Declare the right (probe / child) source.
    pub fn right(mut self, source: impl Into<Source>) -> Self {
        self.inputs = match self.inputs {
            Inputs::Pair(left, _) => Inputs::Pair(left, Some(source.into())),
            Inputs::Datagen(_) => {
                self.mixed_sources = true;
                Inputs::Pair(None, Some(source.into()))
            }
            Inputs::None => Inputs::Pair(None, Some(source.into())),
        };
        self
    }

    /// Declare both sources as a generated workload: parents become the
    /// left source, children the right, and the reference size is the
    /// parent count.  The dataset is generated during
    /// [`build`](Self::build).
    pub fn datagen(mut self, config: DatagenConfig) -> Self {
        if matches!(self.inputs, Inputs::Pair(_, _)) {
            self.mixed_sources = true;
        }
        self.inputs = Inputs::Datagen(config);
        self
    }

    /// Join key columns, one per side.
    pub fn keys(mut self, left: usize, right: usize) -> Self {
        self.config.keys = PerSide::new(left, right);
        self
    }

    /// Join key column shared by both sides.
    pub fn key_column(self, column: usize) -> Self {
        self.keys(column, column)
    }

    /// Override the q-gram extraction configuration.
    pub fn qgram(mut self, qgram: QGramConfig) -> Self {
        self.config.qgram = qgram;
        self
    }

    /// The pluggable similarity choice scoring approximate candidates
    /// (the paper's Jaccard by default).
    pub fn similarity(mut self, similarity: QGramCoefficient) -> Self {
        self.config.similarity = similarity;
        self
    }

    /// Similarity threshold `θ_sim`.
    pub fn theta_sim(mut self, theta_sim: f64) -> Self {
        self.config.theta_sim = theta_sim;
        self
    }

    /// Outlier significance threshold `θ_out ∈ [0, 1)`.
    pub fn theta_out(mut self, theta_out: f64) -> Self {
        self.config.theta_out = theta_out;
        self
    }

    /// Monitor cadence in consumed child tuples.
    pub fn check_every(mut self, check_every: u64) -> Self {
        self.config.check_every = check_every;
        self
    }

    /// Minimum trials before the outlier test is applied.
    pub fn min_trials(mut self, min_trials: u64) -> Self {
        self.config.min_trials = min_trials;
        self
    }

    /// Consecutive outlier verdicts required to trigger.
    pub fn consecutive_alarms(mut self, consecutive_alarms: u32) -> Self {
        self.config.consecutive_alarms = consecutive_alarms;
        self
    }

    /// Declare the reference-relation size (the paper's `|R|` catalog
    /// statistic) instead of inferring it from the left source.
    pub fn reference_size(mut self, reference_size: u64) -> Self {
        self.config.reference_size = Some(reference_size);
        self
    }

    /// Set the switch policy explicitly.
    pub fn switch_policy(mut self, policy: SwitchPolicy) -> Self {
        self.config.switch_policy = policy;
        self
    }

    /// Never switch: the exact-only, non-adaptive baseline.
    pub fn never_switch(self) -> Self {
        self.switch_policy(SwitchPolicy::Never)
    }

    /// Switch unconditionally once `consumed_tuples` inputs were
    /// consumed, bypassing the assessor (tests, experiments).
    pub fn force_switch_at(self, consumed_tuples: u64) -> Self {
        self.switch_policy(SwitchPolicy::ForceAt(consumed_tuples))
    }

    /// Run the approximate similarity join from the first tuple.
    pub fn approximate_from_start(self) -> Self {
        self.force_switch_at(0)
    }

    /// Execute on the serial adaptive engine (the default).
    pub fn serial(mut self) -> Self {
        self.config.execution = ExecutionMode::Serial;
        self
    }

    /// Execute on the partition-parallel engine with `shards` workers.
    pub fn sharded(mut self, shards: usize) -> Self {
        self.config.execution = ExecutionMode::Sharded { shards };
        self
    }

    /// Epoch size of the sharded executor.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size;
        self
    }

    /// Worker channel depth of the sharded executor.
    pub fn channel_capacity(mut self, channel_capacity: usize) -> Self {
        self.config.channel_capacity = channel_capacity;
        self
    }

    /// How the two sources interleave into one stream.
    pub fn interleave(mut self, policy: InterleavePolicy) -> Self {
        self.config.interleave = policy;
        self
    }

    /// Replace the whole configuration (sources are kept).
    pub fn config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// Validate the declaration and construct the engine.
    pub fn build(self) -> Result<Pipeline> {
        self.config.validate()?;
        if self.mixed_sources {
            return Err(LinkageError::config(
                "cannot combine .datagen(...) with explicit .left()/.right() \
                 sources — declare one or the other",
            ));
        }
        let (left, right) = match self.inputs {
            Inputs::Pair(Some(left), Some(right)) => (left, right),
            Inputs::Pair(_, _) | Inputs::None => {
                return Err(LinkageError::config(
                    "a pipeline needs both a left and a right source \
                     (or a datagen workload)",
                ))
            }
            Inputs::Datagen(config) => {
                let data = generate(&config)?;
                (
                    Source::relation(&data.parents),
                    Source::relation(&data.children),
                )
            }
        };
        for (side, source) in [(Side::Left, &left), (Side::Right, &right)] {
            let column = self.config.keys[side];
            let field = source.schema().field_at(column).map_err(|_| {
                LinkageError::config(format!(
                    "{side} key column {column} is out of range for a schema \
                     with {} field(s)",
                    source.schema().len()
                ))
            })?;
            if field.data_type != DataType::String {
                return Err(LinkageError::config(format!(
                    "{side} key column {column} ({}) must be a string field, \
                     found {:?}",
                    field.name, field.data_type
                )));
            }
        }
        let reference = self
            .config
            .reference_size
            .unwrap_or(left.len() as u64)
            .max(1);
        let sources = InterleavedScan::new(
            left.into_stream(),
            right.into_stream(),
            self.config.interleave,
        );
        Ok(Pipeline {
            config: self.config,
            reference,
            sources: Some(sources),
        })
    }

    /// Build an incrementally fed pipeline for a long-lived session:
    /// instead of declaring sources, the caller feeds the running
    /// [`MatchStream`] records in batches with [`MatchStream::feed`],
    /// pops what is ready with [`MatchStream::next_ready`], and
    /// eventually declares the input complete with
    /// [`MatchStream::finish`].
    ///
    /// Two extra rules versus [`build`](Self::build): no sources may be
    /// declared (records arrive through the stream), and
    /// [`reference_size`](Self::reference_size) must be set explicitly —
    /// with an unbounded input there is nothing to infer it from, and
    /// pinning it keeps the configuration identity stable across
    /// snapshot, eviction and [`Pipeline::resume`].
    pub fn session(self) -> Result<Pipeline> {
        self.config.validate()?;
        if self.mixed_sources || !matches!(self.inputs, Inputs::None) {
            return Err(LinkageError::config(
                "a session pipeline takes no sources — records arrive \
                 through MatchStream::feed",
            ));
        }
        let Some(reference) = self.config.reference_size else {
            return Err(LinkageError::config(
                "a session pipeline requires an explicit .reference_size(...) \
                 — an incrementally fed input has no inferable size",
            ));
        };
        Ok(Pipeline {
            reference: reference.max(1),
            config: self.config,
            sources: None,
        })
    }

    /// [`build`](Self::build) then [`Pipeline::run`].
    pub fn run(self) -> Result<MatchStream> {
        self.build()?.run()
    }

    /// [`build`](Self::build) then [`Pipeline::collect`].
    pub fn collect(self) -> Result<RunOutcome> {
        self.build()?.collect()
    }

    /// [`build`](Self::build) then [`Pipeline::resume`].
    pub fn resume(self, path: impl AsRef<std::path::Path>) -> Result<MatchStream> {
        self.build()?.resume(path)
    }
}
