//! The engine contract behind the facade.
//!
//! Both engines — the serial [`AdaptiveJoin`] and the sharded
//! [`ParallelJoin`] — are push cores: they are fed, run the one
//! [`linkage_core::Controller`], and announce the switch in-band from
//! their own output queue; neither reads input.  The facade's
//! [`MatchStream`](crate::api::MatchStream) owns the input and only
//! forwards what they return.  [`JoinEngine`] is private to this crate:
//! the facade holds a `Box<dyn JoinEngine>`, and a new backend is one
//! more impl here plus an [`ExecutionMode`](crate::api::ExecutionMode)
//! variant.

use std::time::Duration;

use linkage_core::{AdaptiveJoin, Pulled, SwitchEvent};
use linkage_exec::{ParallelJoin, ShardStats};
use linkage_operators::{
    snapshot as opsnap, JoinPhase, PerKind, ProbeFunnel, RestoredCore, SwitchRestore,
};
use linkage_text::SharedInterner;
use linkage_types::snapshot::{crc32, kind, Decoder, Encoder, SnapshotBuilder, SnapshotFile};
use linkage_types::{LinkageError, PerSide, Result, SidedRecord};

/// A join backend the pipeline can drive.
pub(crate) trait JoinEngine {
    /// Stable engine name for reports (`"serial"`, `"sharded"`).
    fn engine_name(&self) -> &'static str;

    /// Take `records` into the join, in order, running the control loop.
    /// Produced pairs stay queued for [`Self::pop_ready`].
    fn feed(&mut self, records: &[SidedRecord]) -> Result<()>;

    /// The input is complete: process whatever is still pending, so every
    /// remaining pair is queued.
    fn finish(&mut self) -> Result<()>;

    /// The next queued pair or switch announcement, or `Ok(None)` if
    /// producing one needs more input (or [`Self::finish`]).
    fn pop_ready(&mut self) -> Result<Option<Pulled>>;

    /// Fed records not yet taken into the join (the sharded engine's
    /// partial epoch), oldest first.  A snapshot does not hold them.
    fn pending(&self) -> &[SidedRecord];

    /// Release resources (join workers); idempotent.
    fn close(&mut self) -> Result<()>;

    /// Summarise the run so far as the unified report.
    fn report(&self) -> RunReport;

    /// Append the engine's complete durable state — a `META` identity
    /// section plus the engine-specific sections of `docs/format.md` —
    /// to a snapshot under construction.  The sharded engine quiesces its
    /// epoch pipeline first, so the call is valid between any two feeds,
    /// in either phase.
    fn snapshot_state(&mut self, builder: &mut SnapshotBuilder) -> Result<()>;

    /// Install previously snapshotted state into a pristine engine:
    /// validate the `META` identity (engine, shard count, configuration
    /// fingerprint) and rebuild the join state by replaying the
    /// snapshot's tuple columns.  Fed the input that follows the
    /// snapshot's consumed prefix, the engine's remaining output is then
    /// bit-identical to what the interrupted run would have produced.
    fn restore_state(&mut self, file: &SnapshotFile) -> Result<()>;
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

/// The unified run summary — one type for every engine, read from the
/// engine and its controller.
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

impl JoinEngine for AdaptiveJoin {
    fn engine_name(&self) -> &'static str {
        "serial"
    }

    fn feed(&mut self, records: &[SidedRecord]) -> Result<()> {
        AdaptiveJoin::feed(self, records)
    }

    /// Every fed tuple was processed when it was fed.
    fn finish(&mut self) -> Result<()> {
        Ok(())
    }

    fn pop_ready(&mut self) -> Result<Option<Pulled>> {
        Ok(AdaptiveJoin::pop_ready(self))
    }

    fn pending(&self) -> &[SidedRecord] {
        &[]
    }

    fn close(&mut self) -> Result<()> {
        Ok(())
    }

    fn report(&self) -> RunReport {
        let core = self.core();
        RunReport {
            engine: self.engine_name(),
            shards: 1,
            phase: core.phase(),
            consumed: core.consumed(),
            emitted: core.emitted(),
            switch: self.controller().switch(),
            switch_latency: self.controller().switch_latency(),
            shard_stats: Vec::new(),
            funnel: core.ssh_core_ref().map(|core| Box::new(core.funnel())),
        }
    }

    fn snapshot_state(&mut self, builder: &mut SnapshotBuilder) -> Result<()> {
        put_meta(builder, "serial", 1, serial_fingerprint(self));

        let join = self.core();
        match (join.exact_core_ref(), join.ssh_core_ref()) {
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
            // `Switching` is transient inside one feed; the engine is
            // never observed in it between calls.
            (None, None) => {
                return Err(LinkageError::snapshot(
                    "snapshot during an in-flight switch",
                ))
            }
        }

        let mut e = Encoder::new();
        let consumed = join.consumed();
        e.put_u64(consumed.left);
        e.put_u64(consumed.right);
        opsnap::put_per_kind(&mut e, join.emitted());
        e.put_u64(join.recovered_at_switch());
        e.put_opt_u64(join.switched_after());
        self.controller().put_loop(&mut e);
        self.controller().put_switch(&mut e);
        builder.push_section(kind::CONTROLLER as u32, e.finish());

        builder.push_section(
            kind::PENDING as u32,
            opsnap::encode_pairs(join.pending_pairs()),
        );
        builder.push_section(kind::STREAM as u32, self.controller().encode_stream());
        Ok(())
    }

    fn restore_state(&mut self, file: &SnapshotFile) -> Result<()> {
        check_meta(file, "serial", 1, serial_fingerprint(self))?;

        let mut d = Decoder::new(file.section(kind::CONTROLLER as u32)?, "CONTROLLER");
        let consumed = PerSide::new(d.get_u64()?, d.get_u64()?);
        let emitted = opsnap::get_per_kind(&mut d)?;
        let recovered_at_switch = d.get_u64()?;
        let switched_after = d.get_opt_u64()?;
        self.controller_mut().get_loop(&mut d)?;
        self.controller_mut().get_switch(&mut d)?;
        d.finish()?;

        let mut pending = opsnap::decode_pairs(file.section(kind::PENDING as u32)?)?;
        self.controller_mut()
            .decode_stream(file.section(kind::STREAM as u32)?, &mut pending)?;

        let config = self.core().config().clone();
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

        self.core_mut().restore(SwitchRestore {
            core,
            pending,
            consumed,
            emitted,
            recovered_at_switch,
            switched_after,
        })
    }
}

/// The serial engine's configuration identity: join declaration plus
/// control-loop settings.
fn serial_fingerprint(engine: &AdaptiveJoin) -> u32 {
    let controller = engine.controller();
    config_fingerprint(&(
        engine.core().config(),
        controller.monitor().config(),
        controller.assessor().config(),
        controller.policy(),
    ))
}

impl JoinEngine for ParallelJoin {
    fn engine_name(&self) -> &'static str {
        "sharded"
    }

    fn feed(&mut self, records: &[SidedRecord]) -> Result<()> {
        ParallelJoin::feed(self, records)
    }

    fn finish(&mut self) -> Result<()> {
        ParallelJoin::finish(self)
    }

    fn pop_ready(&mut self) -> Result<Option<Pulled>> {
        Ok(ParallelJoin::pop_ready(self))
    }

    fn pending(&self) -> &[SidedRecord] {
        ParallelJoin::pending(self)
    }

    fn close(&mut self) -> Result<()> {
        ParallelJoin::close(self)
    }

    fn report(&self) -> RunReport {
        RunReport {
            engine: self.engine_name(),
            shards: self.shard_count(),
            phase: self.phase(),
            consumed: self.consumed(),
            emitted: self.emitted(),
            switch: self.controller().switch(),
            switch_latency: self.controller().switch_latency(),
            shard_stats: self.shard_stats().to_vec(),
            funnel: None,
        }
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
