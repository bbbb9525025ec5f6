//! The engine-agnostic execution contract.

use std::time::Duration;

use linkage_core::{AdaptiveControlState, AdaptiveJoin, SwitchEvent};
use linkage_exec::{ParallelJoin, ShardStats};
use linkage_operators::{
    snapshot as opsnap, JoinPhase, Operator, OperatorState, PerKind, ProbeFunnel, RestoredCore,
    SwitchRestore,
};
use linkage_text::SharedInterner;
use linkage_types::snapshot::{crc32, kind, Decoder, Encoder, SnapshotBuilder, SnapshotFile};
use linkage_types::{LinkageError, MatchPair, PerSide, Result, SidedRecord};

/// A join backend the pipeline can drive.
///
/// Both shipped engines — the serial [`AdaptiveJoin`] and the sharded
/// [`ParallelJoin`] — implement this trait, and the facade only ever
/// holds a `Box<dyn JoinEngine>`, so a future backend (async, multi-node)
/// is a drop-in: implement the trait, add an
/// [`ExecutionMode`](crate::api::ExecutionMode) variant, done.
pub trait JoinEngine {
    /// Stable engine name for reports (`"serial"`, `"sharded"`).
    fn engine_name(&self) -> &'static str;

    /// Prepare the engine (open inputs, spawn workers).
    fn open(&mut self) -> Result<()>;

    /// Produce the next match pair, or `Ok(None)` when exhausted.
    fn next_match(&mut self) -> Result<Option<MatchPair>>;

    /// Release resources (close inputs, join workers); idempotent.
    fn close(&mut self) -> Result<()>;

    /// The phase currently driving output.
    fn phase(&self) -> JoinPhase;

    /// The switch decision, if one was made.
    fn switch_event(&self) -> Option<SwitchEvent>;

    /// Summarise the run so far as the unified report.
    fn report(&self) -> RunReport;

    /// Append the engine's complete durable state — a `META` identity
    /// section plus the engine-specific sections of `docs/format.md` —
    /// to a snapshot under construction.  Requires an open engine; the
    /// sharded engine quiesces its epoch pipeline first, so the call is
    /// valid between any two pulls, in either phase.
    ///
    /// The default implementation is a typed error, so future backends
    /// without durability remain drop-ins.
    fn snapshot_state(&mut self, builder: &mut SnapshotBuilder) -> Result<()> {
        let _ = builder;
        Err(LinkageError::snapshot(format!(
            "the {} engine does not support snapshots",
            self.engine_name()
        )))
    }

    /// Install previously snapshotted state into a freshly opened,
    /// pristine engine: validate the `META` identity (engine, shard
    /// count, configuration fingerprint), rebuild the join state by
    /// replaying the snapshot's tuple columns, and fast-forward the
    /// re-declared input past the consumed prefix.  After this the
    /// engine's remaining output is bit-identical to what the
    /// interrupted run would have produced.
    fn restore_state(&mut self, file: &SnapshotFile) -> Result<()> {
        let _ = file;
        Err(LinkageError::snapshot(format!(
            "the {} engine does not support snapshots",
            self.engine_name()
        )))
    }

    /// Consume input — running the engine's control loop — as far as is
    /// safe given that only `available` total input tuples exist so far,
    /// without emitting anything: produced pairs stay buffered for
    /// [`Self::next_match`] / [`Self::buffered_matches`].  The driver of
    /// an incrementally fed ([session](crate::api::PipelineBuilder::session))
    /// pipeline calls this after each feed; each engine advances by its
    /// own granularity (per tuple serially, per whole epoch sharded) and
    /// is careful never to observe a premature end of input, which is
    /// what keeps the eventual output bit-identical to a solo run.
    ///
    /// The default is a typed error, so engines without incremental
    /// support remain drop-ins.
    fn advance_input(&mut self, available: u64) -> Result<()> {
        let _ = available;
        Err(LinkageError::execution(format!(
            "the {} engine does not support incremental sessions",
            self.engine_name()
        )))
    }

    /// Match pairs already produced and buffered inside the engine —
    /// pairs [`Self::next_match`] can return without touching the input.
    fn buffered_matches(&self) -> usize {
        0
    }
}

/// Fingerprint a configuration for the `META` section: CRC-32 of its
/// canonical `Debug` rendering.  Catches the practical mistake — resuming
/// under a different declaration (other keys, thresholds, coefficient,
/// batching) — without freezing a byte layout for every config type.
fn config_fingerprint(config: &impl std::fmt::Debug) -> u32 {
    crc32(format!("{config:?}").as_bytes())
}

/// Write the `META` identity section.
fn put_meta(builder: &mut SnapshotBuilder, engine: &str, shards: usize, fingerprint: u32) {
    let mut e = Encoder::new();
    e.put_str(engine);
    e.put_u32(shards as u32);
    e.put_u32(fingerprint);
    builder.push_section(kind::META as u32, e.finish());
}

/// Validate the `META` identity section against the resuming engine.
fn check_meta(file: &SnapshotFile, engine: &str, shards: usize, fingerprint: u32) -> Result<()> {
    let mut d = Decoder::new(file.section(kind::META as u32)?, "META");
    let snap_engine = d.get_str()?.to_owned();
    let snap_shards = d.get_u32()? as usize;
    let snap_fingerprint = d.get_u32()?;
    d.finish()?;
    if snap_engine != engine {
        return Err(LinkageError::snapshot(format!(
            "snapshot was taken by the {snap_engine:?} engine, cannot resume on {engine:?}"
        )));
    }
    if snap_shards != shards {
        return Err(LinkageError::snapshot(format!(
            "snapshot was taken with {snap_shards} shard(s), this pipeline runs {shards}"
        )));
    }
    if snap_fingerprint != fingerprint {
        return Err(LinkageError::snapshot(
            "snapshot configuration fingerprint does not match this pipeline — resume \
             with the exact declaration (keys, q-grams, coefficient, thresholds, \
             batching) the snapshot was taken with",
        ));
    }
    Ok(())
}

/// The unified run summary — one type for every engine, merging the
/// serial `AdaptiveReport` and the sharded `ParallelReport`.
///
/// Both engines report the counts, [`probe_funnel`](Self::probe_funnel)
/// included; only the sharded engine reports resident-state sizes.
///
/// `#[non_exhaustive]`: future engines may add fields.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RunReport {
    /// Which engine produced this report.
    pub engine: &'static str,
    /// Worker shards the engine ran (1 for the serial engine).
    pub shards: usize,
    /// Phase the join ended in.
    pub phase: JoinPhase,
    /// Input tuples consumed per side.
    pub consumed: PerSide<u64>,
    /// Distinct pairs emitted, by kind.
    pub emitted: PerKind,
    /// The switch, if it happened.
    pub switch: Option<SwitchEvent>,
    /// Wall-clock duration of the §3.3 handover, if it ran.
    pub switch_latency: Option<Duration>,
    /// Per-shard statistics (sharded engine only, populated once the run
    /// finishes; empty for the serial engine).
    pub shard_stats: Vec<ShardStats>,
    /// The serial engine's funnel once switched (the sharded engine's is in
    /// `shard_stats`); boxed, as inline it would add 32 bytes to every
    /// [`MatchEvent`](crate::api::MatchEvent), which is this report's size.
    funnel: Option<Box<ProbeFunnel>>,
}

impl RunReport {
    /// Total input tuples consumed.
    pub fn total_consumed(&self) -> u64 {
        self.consumed.left + self.consumed.right
    }

    /// Total estimated resident **index** bytes across shards: tuples,
    /// keys and the flat gram-id postings (0 until the sharded engine
    /// finishes; the serial engine does not report it).  Gram text is
    /// *not* included — it lives once in the join's shared interner, see
    /// [`Self::interner_bytes`]; summing it per shard would double-count
    /// what is a single shared table.
    pub fn state_bytes(&self) -> usize {
        self.shard_stats
            .iter()
            .map(|s| s.state_bytes.left + s.state_bytes.right)
            .sum()
    }

    /// Estimated bytes of the join's shared gram-interner table, counted
    /// **once** (every shard reports the same shared table; the maximum
    /// is taken in case stats were sampled at different moments).
    pub fn interner_bytes(&self) -> usize {
        self.shard_stats
            .iter()
            .map(|s| s.interner_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Total resident-state estimate: per-shard indexes plus the shared
    /// gram table once.
    pub fn total_state_bytes(&self) -> usize {
        self.state_bytes() + self.interner_bytes()
    }

    /// Total flat-posting slack bytes across shards: headers of
    /// never-populated gram-id slots plus unused posting capacity —
    /// reported separately from [`Self::state_bytes`] so the payload
    /// estimate and the layout overhead are both visible (0 until the
    /// sharded engine finishes; the serial engine does not report it).
    pub fn postings_slack_bytes(&self) -> usize {
        self.shard_stats
            .iter()
            .map(|s| s.postings_slack_bytes)
            .sum()
    }

    /// The join-wide candidate funnel: the serial engine's probe-kernel
    /// counters, or every shard's folded together (zeros until the
    /// sharded engine finishes).  Zero while the join has not switched;
    /// after a switch it includes the handover's recovery probes.
    pub fn probe_funnel(&self) -> ProbeFunnel {
        let mut funnel = self.funnel.as_deref().copied().unwrap_or_default();
        for stats in &self.shard_stats {
            funnel.absorb(stats.funnel);
        }
        funnel
    }
}

impl<I: Operator<Item = SidedRecord>> JoinEngine for AdaptiveJoin<I> {
    fn engine_name(&self) -> &'static str {
        "serial"
    }

    fn open(&mut self) -> Result<()> {
        Operator::open(self)
    }

    fn next_match(&mut self) -> Result<Option<MatchPair>> {
        Operator::next(self)
    }

    fn close(&mut self) -> Result<()> {
        Operator::close(self)
    }

    fn phase(&self) -> JoinPhase {
        AdaptiveJoin::phase(self)
    }

    fn switch_event(&self) -> Option<SwitchEvent> {
        AdaptiveJoin::switch_event(self)
    }

    fn report(&self) -> RunReport {
        let report = AdaptiveJoin::report(self);
        let funnel = self.inner().ssh_core_ref().map(|core| core.funnel());
        RunReport {
            engine: self.engine_name(),
            shards: 1,
            phase: report.phase,
            consumed: report.consumed,
            emitted: report.emitted,
            switch: report.switch,
            switch_latency: report.switch_latency,
            shard_stats: Vec::new(),
            funnel: funnel.map(Box::new),
        }
    }

    fn advance_input(&mut self, available: u64) -> Result<()> {
        AdaptiveJoin::advance_to(self, available)
    }

    fn buffered_matches(&self) -> usize {
        AdaptiveJoin::buffered(self)
    }

    fn snapshot_state(&mut self, builder: &mut SnapshotBuilder) -> Result<()> {
        if Operator::state(self) != OperatorState::Open {
            return Err(LinkageError::snapshot("snapshot requires an open engine"));
        }
        put_meta(builder, "serial", 1, serial_fingerprint(self));

        let inner = self.inner();
        match (inner.exact_core_ref(), inner.ssh_core_ref()) {
            (Some(exact), _) => {
                builder.push_section(kind::EXACT_CORE as u32, opsnap::encode_exact_core(exact));
            }
            (_, Some(ssh)) => {
                builder.push_section(
                    kind::INTERNER as u32,
                    opsnap::encode_interner(ssh.interner()),
                );
                builder.push_section(kind::SSH_CORE as u32, opsnap::encode_ssh_core(ssh));
            }
            // `Switching` is transient inside one `next_match` call; the
            // engine is never observed in it between pulls.
            (None, None) => {
                return Err(LinkageError::snapshot(
                    "snapshot during an in-flight switch",
                ))
            }
        }

        let mut e = Encoder::new();
        let consumed = inner.consumed();
        e.put_u64(consumed.left);
        e.put_u64(consumed.right);
        opsnap::put_per_kind(&mut e, inner.emitted());
        e.put_u64(inner.recovered_at_switch());
        e.put_opt_u64(inner.switched_after());
        let control = self.control_state();
        e.put_u64(control.monitor_assessments);
        e.put_u64(control.monitor_last_checked);
        e.put_u32(control.assessor_streak);
        e.put_bool(control.switch.is_some());
        if let Some(switch) = control.switch {
            e.put_u64(switch.after_tuples);
            e.put_f64(switch.sigma);
            e.put_u64(switch.recovered);
        }
        e.put_opt_u64(control.switch_latency.map(|d| d.as_nanos() as u64));
        e.put_u64(control.undrained_pre_switch);
        e.put_bool(control.pre_switch_in_flight);
        builder.push_section(kind::CONTROLLER as u32, e.finish());

        builder.push_section(
            kind::PENDING as u32,
            opsnap::encode_pairs(self.inner().pending_pairs()),
        );
        Ok(())
    }

    fn restore_state(&mut self, file: &SnapshotFile) -> Result<()> {
        check_meta(file, "serial", 1, serial_fingerprint(self))?;

        let mut d = Decoder::new(file.section(kind::CONTROLLER as u32)?, "CONTROLLER");
        let consumed = PerSide::new(d.get_u64()?, d.get_u64()?);
        let emitted = opsnap::get_per_kind(&mut d)?;
        let recovered_at_switch = d.get_u64()?;
        let switched_after = d.get_opt_u64()?;
        let monitor_assessments = d.get_u64()?;
        let monitor_last_checked = d.get_u64()?;
        let assessor_streak = d.get_u32()?;
        let switch = if d.get_bool()? {
            Some(SwitchEvent {
                after_tuples: d.get_u64()?,
                sigma: d.get_f64()?,
                recovered: d.get_u64()?,
            })
        } else {
            None
        };
        let switch_latency = d.get_opt_u64()?.map(Duration::from_nanos);
        let undrained_pre_switch = d.get_u64()?;
        let pre_switch_in_flight = d.get_bool()?;
        d.finish()?;

        let pending = opsnap::decode_pairs(file.section(kind::PENDING as u32)?)?;

        let config = self.inner().config().clone();
        let core = if let Some(bytes) = file.try_section(kind::SSH_CORE as u32) {
            let table = opsnap::decode_interner(file.section(kind::INTERNER as u32)?)?;
            RestoredCore::Approximate(opsnap::decode_ssh_core(
                bytes,
                &config,
                SharedInterner::from_table(table),
            )?)
        } else {
            RestoredCore::Exact(opsnap::decode_exact_core(
                file.section(kind::EXACT_CORE as u32)?,
                &config,
            )?)
        };

        self.inner_mut().restore(SwitchRestore {
            core,
            pending,
            consumed,
            emitted,
            recovered_at_switch,
            switched_after,
        })?;
        self.restore_control_state(AdaptiveControlState {
            monitor_assessments,
            monitor_last_checked,
            assessor_streak,
            switch,
            switch_latency,
            undrained_pre_switch,
            pre_switch_in_flight,
        });
        Ok(())
    }
}

/// The serial engine's configuration identity: join declaration plus
/// control-loop settings.
fn serial_fingerprint<I: Operator<Item = SidedRecord>>(engine: &AdaptiveJoin<I>) -> u32 {
    config_fingerprint(&(
        engine.inner().config(),
        engine.monitor().config(),
        engine.assessor().config(),
        engine.policy(),
    ))
}

impl<I: Operator<Item = SidedRecord>> JoinEngine for ParallelJoin<I> {
    fn engine_name(&self) -> &'static str {
        "sharded"
    }

    fn open(&mut self) -> Result<()> {
        Operator::open(self)
    }

    fn next_match(&mut self) -> Result<Option<MatchPair>> {
        Operator::next(self)
    }

    fn close(&mut self) -> Result<()> {
        Operator::close(self)
    }

    fn phase(&self) -> JoinPhase {
        ParallelJoin::phase(self)
    }

    fn switch_event(&self) -> Option<SwitchEvent> {
        ParallelJoin::switch_event(self)
    }

    fn report(&self) -> RunReport {
        let report = ParallelJoin::report(self);
        RunReport {
            engine: self.engine_name(),
            shards: self.shard_count(),
            phase: report.phase,
            consumed: report.consumed,
            emitted: report.emitted,
            switch: report.switch,
            switch_latency: report.switch_latency,
            shard_stats: report.shards,
            funnel: None,
        }
    }

    fn advance_input(&mut self, available: u64) -> Result<()> {
        ParallelJoin::advance_to(self, available)
    }

    fn buffered_matches(&self) -> usize {
        ParallelJoin::buffered(self)
    }

    fn snapshot_state(&mut self, builder: &mut SnapshotBuilder) -> Result<()> {
        put_meta(
            builder,
            "sharded",
            self.shard_count(),
            config_fingerprint(self.config()),
        );
        self.snapshot_sections(builder)
    }

    fn restore_state(&mut self, file: &SnapshotFile) -> Result<()> {
        check_meta(
            file,
            "sharded",
            self.shard_count(),
            config_fingerprint(self.config()),
        )?;
        self.restore_sections(file)
    }
}
