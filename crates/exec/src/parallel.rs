//! The partition-parallel adaptive join.
//!
//! [`ParallelJoin`] drives N worker shards (one thread each, bounded
//! channels) through lock-step **epochs**:
//!
//! 1. pull up to `batch_size` tuples from the input operator;
//! 2. route them — in the **exact phase** each tuple goes to the single
//!    shard owning the stable hash of its normalised key, so every shard
//!    runs an independent symmetric hash join over a disjoint partition;
//!    in the **approximate phase** every tuple is tokenised once at the
//!    router and broadcast: every shard probes it against its slice of the
//!    resident inverted index, and only the tuple's home shard stores it;
//! 3. barrier on one reply per shard, merging emitted pairs in shard
//!    order — deterministic for a given shard count, with each distinct
//!    pair emitted exactly once;
//! 4. after an exact epoch, ask the [`Controller`] — the one the serial
//!    [`AdaptiveJoin`] asks after every tuple — with the aggregated
//!    counters; on a trigger, orchestrate the distributed §3.3 handover:
//!    every shard migrates its hash tables into inverted indexes and
//!    recovers its local matches, then each shard probes the resident
//!    snapshots of the shards before it, recovering the cross-shard
//!    matches hash partitioning had separated.
//!
//! The exact phase parallelises because the partitions are disjoint; the
//! approximate phase parallelises because probe cost is proportional to
//! posting-list length and every shard holds ~1/N of the postings.  The
//! switch decision is made once, globally, from deduplicated counts, and
//! announced in-band by [`ParallelJoin::next_event`] exactly as the serial
//! engine announces it.
//!
//! [`AdaptiveJoin`]: linkage_core::AdaptiveJoin

use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use linkage_core::{Controller, Pulled, SwitchEvent};
use linkage_operators::switch::skip_consumed_prefix;
use linkage_operators::{
    snapshot as opsnap, JoinPhase, Operator, OperatorState, PerKind, SshJoinCore, SshStored,
};
use linkage_text::{normalize, SharedInterner};
use linkage_types::snapshot::{kind, shard_kind, Decoder, Encoder, SnapshotBuilder, SnapshotFile};
use linkage_types::{
    LinkageError, MatchKind, MatchPair, Partitioner, PerSide, Result, ShardId, Side, SidedRecord,
};

use crate::config::ParallelJoinConfig;
use crate::messages::{PreparedBatch, ShardCmd, ShardReply, ShardSection, ShardStats};
use crate::shard::ShardWorker;

/// One spawned worker: its command channel, reply channel and thread.
struct WorkerHandle {
    id: ShardId,
    cmd: SyncSender<ShardCmd>,
    reply: Receiver<ShardReply>,
    thread: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    fn send(&self, cmd: ShardCmd) -> Result<()> {
        self.cmd
            .send(cmd)
            .map_err(|_| LinkageError::execution(format!("{} disconnected", self.id)))
    }

    fn recv(&self) -> Result<ShardReply> {
        self.reply
            .recv()
            .map_err(|_| LinkageError::execution(format!("{} died without replying", self.id)))
    }
}

/// The sharded parallel adaptive join operator.
///
/// A pipelined [`Operator`] like its serial counterpart: callers pull
/// merged match pairs from it.  `open` spawns the worker threads, `close`
/// collects their statistics and joins them.
pub struct ParallelJoin<I> {
    input: I,
    config: ParallelJoinConfig,
    partitioner: Partitioner,
    /// The join-wide gram table: the router's prepare kernel interns into
    /// it, every worker holds a clone, so gram ids are one id space.
    interner: SharedInterner,
    /// Zero-state kernel used only for its `prepare` (normalise, tokenise,
    /// intern) so the router shares the workers' exact configuration and
    /// interner.
    prep: SshJoinCore,
    controller: Controller,
    workers: Vec<WorkerHandle>,
    state: OperatorState,
    phase: JoinPhase,
    out: VecDeque<MatchPair>,
    /// The next approximate-phase epoch, tokenised while the workers were
    /// busy probing the previous one.
    prepared_ahead: Option<Arc<PreparedBatch>>,
    /// Approximate-phase epochs dispatched to the workers whose replies
    /// have not been collected yet (bounded send-ahead; see
    /// [`Self::approx_epoch`]).
    approx_in_flight: usize,
    consumed: PerSide<u64>,
    emitted: PerKind,
    shard_stats: Vec<ShardStats>,
    exhausted: bool,
}

impl<I: Operator<Item = SidedRecord>> ParallelJoin<I> {
    /// Build over a sided input.
    pub fn new(input: I, config: ParallelJoinConfig) -> Self {
        let partitioner = Partitioner::new(config.shards);
        let interner = SharedInterner::new();
        let prep = config.join.ssh_core_with(interner.clone());
        let controller = Controller::new(config.controller.clone());
        Self {
            input,
            config,
            partitioner,
            interner,
            prep,
            controller,
            workers: Vec::new(),
            state: OperatorState::default(),
            phase: JoinPhase::Exact,
            out: VecDeque::new(),
            prepared_ahead: None,
            approx_in_flight: 0,
            consumed: PerSide::default(),
            emitted: PerKind::default(),
            shard_stats: Vec::new(),
            exhausted: false,
        }
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.config.shards
    }

    /// The phase currently driving output.
    pub fn phase(&self) -> JoinPhase {
        self.phase
    }

    /// Input tuples consumed per side.
    pub fn consumed(&self) -> PerSide<u64> {
        self.consumed
    }

    /// Total input tuples consumed.
    pub fn total_consumed(&self) -> u64 {
        self.consumed.left + self.consumed.right
    }

    /// Distinct pairs emitted so far, by kind.
    pub fn emitted(&self) -> PerKind {
        self.emitted
    }

    /// The controller: its configuration, counters and the recorded
    /// switch (a forced switch reports `sigma = 0.0`; the latency covers
    /// the local migrations plus cross-shard recovery).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Per-shard statistics, collected by [`Operator::close`]; empty
    /// before that.
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.shard_stats
    }

    fn spawn_workers(&mut self) -> Result<()> {
        let cmd_depth = self.config.channel_capacity.max(1);
        // One stale lock-step reply plus the final `Finished` must fit
        // without blocking the worker, or an error-path shutdown could
        // deadlock on a full reply channel.
        let reply_depth = cmd_depth + 1;
        for id in self.partitioner.shard_ids() {
            let (cmd_tx, cmd_rx) = sync_channel::<ShardCmd>(cmd_depth);
            let (reply_tx, reply_rx) = sync_channel::<ShardReply>(reply_depth);
            let worker = ShardWorker::new(id, self.config.join.clone(), self.interner.clone());
            let thread = std::thread::Builder::new()
                .name(format!("linkage-{id}"))
                .spawn(move || worker.run(cmd_rx, reply_tx))?;
            self.workers.push(WorkerHandle {
                id,
                cmd: cmd_tx,
                reply: reply_rx,
                thread: Some(thread),
            });
        }
        Ok(())
    }

    /// Pull up to one epoch's worth of input.
    fn pull_batch(&mut self) -> Result<Vec<SidedRecord>> {
        let mut batch = Vec::with_capacity(self.config.batch_size);
        while batch.len() < self.config.batch_size {
            match self.input.next()? {
                Some(sided) => batch.push(sided),
                None => break,
            }
        }
        Ok(batch)
    }

    /// Run one epoch: pull, route, barrier, merge, assess.
    fn epoch(&mut self) -> Result<()> {
        if self.phase == JoinPhase::Approximate {
            return self.approx_epoch();
        }
        let batch = self.pull_batch()?;
        if batch.is_empty() {
            self.exhausted = true;
            return Ok(());
        }
        self.exact_epoch(batch)?;
        self.control_step()
    }

    /// Exact phase: hash-partition the batch, one shard per tuple.
    fn exact_epoch(&mut self, batch: Vec<SidedRecord>) -> Result<()> {
        let mut per_shard: Vec<Vec<(SidedRecord, Arc<str>)>> =
            (0..self.config.shards).map(|_| Vec::new()).collect();
        let normalization = self.config.join.normalization();
        for sided in batch {
            let raw = sided.record.key_str(self.config.join.keys[sided.side])?;
            let key: Arc<str> = Arc::from(normalize(raw, &normalization).as_str());
            let shard = self.partitioner.shard_of(&key);
            self.consumed[sided.side] += 1;
            per_shard[shard.as_usize()].push((sided, key));
        }
        // Every shard gets a (possibly empty) batch: the barrier stays
        // symmetric and the merge order deterministic.
        for (worker, tuples) in self.workers.iter().zip(per_shard) {
            worker.send(ShardCmd::ExactBatch(tuples))?;
        }
        self.collect_batch_replies()
    }

    /// How many approximate-phase epochs may be dispatched before the
    /// oldest one's replies are collected.  Bounded by the command
    /// channel depth so a send can never block on a busy worker.
    fn approx_pipeline_depth(&self) -> usize {
        self.config.channel_capacity.clamp(1, 2)
    }

    /// Approximate phase: broadcast prepared batches, store at the home
    /// shard — with a bounded **send-ahead pipeline**.  Up to
    /// [`Self::approx_pipeline_depth`] epochs are dispatched before the
    /// oldest one's barrier is collected, and the next epoch is tokenised
    /// while the workers probe, so the router's normalise + q-gram +
    /// intern work and its reply merging overlap with shard work instead
    /// of serialising in front of it.  No control decision happens in
    /// this phase (the switch is behind us), so the deeper dispatch
    /// cannot reorder anything: replies are still collected one epoch at
    /// a time, in shard order.
    fn approx_epoch(&mut self) -> Result<()> {
        while self.approx_in_flight < self.approx_pipeline_depth() {
            let shared = match self.prepared_ahead.take() {
                Some(prepared) => Some(prepared),
                None => {
                    let batch = self.pull_batch()?;
                    if batch.is_empty() {
                        None
                    } else {
                        Some(self.prepare_batch(batch)?)
                    }
                }
            };
            let Some(shared) = shared else { break };
            for worker in &self.workers {
                worker.send(ShardCmd::ApproxBatch(Arc::clone(&shared)))?;
            }
            self.approx_in_flight += 1;
            let next = self.pull_batch()?;
            if !next.is_empty() {
                self.prepared_ahead = Some(self.prepare_batch(next)?);
            }
        }
        if self.approx_in_flight == 0 {
            self.exhausted = true;
            return Ok(());
        }
        self.collect_batch_replies()?;
        self.approx_in_flight -= 1;
        Ok(())
    }

    /// Normalise, tokenise, intern and home-assign one epoch's tuples
    /// into one shared structure-of-arrays batch.  Counts the tuples as
    /// consumed: the router has irrevocably taken them from the input,
    /// even if the matching barrier happens epochs later.
    fn prepare_batch(&mut self, batch: Vec<SidedRecord>) -> Result<Arc<PreparedBatch>> {
        let mut prepared = PreparedBatch::with_capacity(batch.len());
        for sided in batch {
            let (key, grams) = self.prep.prepare(&sided)?;
            let home = self.partitioner.shard_of(&key);
            self.consumed[sided.side] += 1;
            prepared.push(sided, key, grams, home);
        }
        Ok(Arc::new(prepared))
    }

    /// Barrier: one `Pairs` reply per shard, merged in shard order.
    fn collect_batch_replies(&mut self) -> Result<()> {
        for i in 0..self.workers.len() {
            match self.workers[i].recv()? {
                ShardReply::Pairs(Ok(pairs)) => self.absorb(pairs),
                ShardReply::Pairs(Err(e)) => return Err(e),
                _ => {
                    return Err(LinkageError::execution(format!(
                        "{}: unexpected reply to a batch command",
                        self.workers[i].id
                    )))
                }
            }
        }
        Ok(())
    }

    /// Buffer merged pairs, folding their kinds into the global counters.
    /// Every pair arrives here exactly once (disjoint exact partitions;
    /// unique home shards in the approximate phase; disjoint local/cross
    /// recovery), so these counters are the deduplicated global result
    /// size the monitor observes.
    fn absorb(&mut self, pairs: Vec<MatchPair>) {
        for pair in &pairs {
            match pair.kind {
                MatchKind::Exact => self.emitted.exact += 1,
                MatchKind::Approximate { .. } => self.emitted.approximate += 1,
            }
        }
        self.out.extend(pairs);
    }

    /// Ask the controller after an exact epoch (or at open) and run the
    /// distributed handover if it says so.
    fn control_step(&mut self) -> Result<()> {
        match self.controller.decide(self.consumed, self.emitted.total()) {
            Some(sigma) => self.orchestrate_switch(sigma),
            None => Ok(()),
        }
    }

    /// The distributed exact → approximate handover.
    fn orchestrate_switch(&mut self, sigma: f64) -> Result<()> {
        // Everything buffered at this point was emitted by the exact
        // phase (including this epoch's pairs) and is pulled before the
        // switch is announced.
        let queued = self.out.len();
        let start = Instant::now();
        for worker in &self.workers {
            worker.send(ShardCmd::Switch)?;
        }
        let mut snapshots: Vec<Arc<Vec<(Side, SshStored)>>> =
            Vec::with_capacity(self.workers.len());
        let mut recovered_total = 0u64;
        for i in 0..self.workers.len() {
            match self.workers[i].recv()? {
                ShardReply::Switched {
                    recovered,
                    residents,
                } => {
                    recovered_total += recovered.len() as u64;
                    self.absorb(recovered);
                    snapshots.push(Arc::new(residents));
                }
                ShardReply::Pairs(Err(e)) => return Err(e),
                _ => {
                    return Err(LinkageError::execution(format!(
                        "{}: unexpected reply to Switch",
                        self.workers[i].id
                    )))
                }
            }
        }
        // Cross-shard recovery: shard j probes the residents of shards
        // i < j, so every cross-shard resident pair is probed exactly once.
        for (j, worker) in self.workers.iter().enumerate().skip(1) {
            worker.send(ShardCmd::Recover(snapshots[..j].to_vec()))?;
        }
        for j in 1..self.workers.len() {
            match self.workers[j].recv()? {
                ShardReply::Recovered(pairs) => {
                    recovered_total += pairs.len() as u64;
                    self.absorb(pairs);
                }
                ShardReply::Pairs(Err(e)) => return Err(e),
                _ => {
                    return Err(LinkageError::execution(format!(
                        "{}: unexpected reply to Recover",
                        self.workers[j].id
                    )))
                }
            }
        }
        self.phase = JoinPhase::Approximate;
        let event = SwitchEvent {
            after_tuples: self.total_consumed(),
            sigma,
            recovered: recovered_total,
        };
        self.controller
            .record_switch(event, start.elapsed(), queued);
        Ok(())
    }

    /// The executor configuration (snapshot fingerprinting).
    pub fn config(&self) -> &ParallelJoinConfig {
        &self.config
    }

    /// Run full epochs — never popping a buffered pair — while doing so
    /// cannot read past `available` total input tuples.
    ///
    /// This is the incremental-session entry point.  Only *whole* epochs
    /// run, and only while a conservative per-call ceiling still fits
    /// under `available`: [`batch_size`] tuples in the exact phase, and
    /// `2 × pipeline depth × batch_size` in the approximate phase (one
    /// `approx_epoch` call may dispatch up to the send-ahead
    /// depth *and* tokenise one batch ahead per dispatch).  The input is
    /// therefore never observed at a premature end, and epoch boundaries
    /// land exactly where an uninterrupted run over the full input would
    /// put them — which, together with produce-time emission counters,
    /// is why a session-driven run's output is bit-identical to a solo
    /// run's.
    ///
    /// [`batch_size`]: crate::ParallelJoinConfig::batch_size
    pub fn advance_to(&mut self, available: u64) -> Result<()> {
        self.state.check_next(self.name())?;
        while !self.exhausted {
            let margin = match self.phase {
                JoinPhase::Approximate => 2 * self.approx_pipeline_depth() * self.config.batch_size,
                _ => self.config.batch_size,
            } as u64;
            if self.total_consumed() + margin > available {
                break;
            }
            self.epoch()?;
        }
        Ok(())
    }

    /// The next pair or switch announcement that is ready without reading
    /// input, or `None` if producing one needs another epoch.
    pub fn pop_ready(&mut self) -> Result<Option<Pulled>> {
        self.state.check_next(self.name())?;
        Ok(self.controller.pull(|| self.out.pop_front()))
    }

    /// The next pair or switch announcement, running epochs as needed, or
    /// `None` at the end of the stream.
    pub fn next_event(&mut self) -> Result<Option<Pulled>> {
        self.state.check_next(self.name())?;
        loop {
            if let Some(pulled) = self.controller.pull(|| self.out.pop_front()) {
                return Ok(Some(pulled));
            }
            if self.exhausted {
                return Ok(None);
            }
            if let Err(e) = self.epoch() {
                // A severed shard cannot be resumed; stop pulling input.
                self.exhausted = true;
                return Err(e);
            }
        }
    }

    /// Drain the approximate-phase send-ahead pipeline so every worker is
    /// exactly caught up with the router's `consumed` counters: collect
    /// each dispatched epoch's barrier, then dispatch and collect the
    /// tokenised-ahead batch (its tuples were counted as consumed when it
    /// was prepared).  The pairs those barriers produce surface in `out`
    /// in exactly the order an uninterrupted run would have emitted them.
    /// A no-op in the exact phase, whose epochs are synchronous.
    ///
    /// Public because graceful session eviction wants the same property
    /// on its own: a server draining a session before snapshotting it to
    /// disk calls this to park the engine at an epoch boundary.
    /// ([`Self::snapshot_sections`] also quiesces, so calling it first is
    /// belt-and-braces, not required.)
    pub fn quiesce(&mut self) -> Result<()> {
        while self.approx_in_flight > 0 {
            self.collect_batch_replies()?;
            self.approx_in_flight -= 1;
        }
        if let Some(shared) = self.prepared_ahead.take() {
            for worker in &self.workers {
                worker.send(ShardCmd::ApproxBatch(Arc::clone(&shared)))?;
            }
            self.collect_batch_replies()?;
        }
        Ok(())
    }

    /// Append this engine's durable state to a snapshot under
    /// construction: the shared interner, the coordinator's `CONTROLLER`
    /// payload, the pending output queue, one `SHARD` section per worker
    /// (encoded by the workers themselves, in parallel) and the
    /// controller's `STREAM` section.
    ///
    /// Quiesces the send-ahead pipeline first, so the snapshot is an
    /// epoch-boundary state: valid in either phase, on either side of the
    /// §3.3 switch.  Section payload layouts are specified in
    /// `docs/format.md`.
    pub fn snapshot_sections(&mut self, builder: &mut SnapshotBuilder) -> Result<()> {
        if self.state != OperatorState::Open {
            return Err(LinkageError::snapshot("snapshot requires an open join"));
        }
        self.quiesce()?;

        builder.push_section(
            kind::INTERNER as u32,
            opsnap::encode_interner(&self.interner),
        );

        let mut e = Encoder::new();
        e.put_u8(match self.phase {
            JoinPhase::Exact => 0,
            JoinPhase::Approximate => 1,
        });
        e.put_u64(self.consumed.left);
        e.put_u64(self.consumed.right);
        e.put_u64(self.emitted.exact);
        e.put_u64(self.emitted.approximate);
        self.controller.put_switch(&mut e);
        e.put_bool(self.exhausted);
        self.controller.put_loop(&mut e);
        // `ctl_last_checkpoint`: derived, kept for the layout.
        let monitor = self.controller.monitor();
        e.put_u64(monitor.last_checked() / monitor.config().check_every);
        builder.push_section(kind::CONTROLLER as u32, e.finish());

        builder.push_section(kind::PENDING as u32, opsnap::encode_pairs(self.out.iter()));

        for worker in &self.workers {
            worker.send(ShardCmd::Snapshot)?;
        }
        for i in 0..self.workers.len() {
            match self.workers[i].recv()? {
                ShardReply::Snapshot(shard) => {
                    builder.push_section(shard_kind(kind::SHARD, i as u16), shard.encode_section());
                }
                ShardReply::Pairs(Err(e)) => return Err(e),
                _ => {
                    return Err(LinkageError::execution(format!(
                        "{}: unexpected reply to Snapshot",
                        self.workers[i].id
                    )))
                }
            }
        }
        builder.push_section(kind::STREAM as u32, self.controller.encode_stream());
        Ok(())
    }

    /// Install snapshotted state into a freshly opened, pristine join:
    /// restore the shared interner in place (every worker holds a handle
    /// to the same table), ship each worker its encoded partition to
    /// decode and replay in parallel, adopt the coordinator counters and
    /// the controller's `STREAM` section, and fast-forward the input past
    /// the consumed prefix (verifying the per-side counts — a source that
    /// ends early or interleaves differently is a typed error, never
    /// silent corruption).
    pub fn restore_sections(&mut self, file: &SnapshotFile) -> Result<()> {
        if self.state != OperatorState::Open {
            return Err(LinkageError::snapshot("restore requires an open join"));
        }
        if self.total_consumed() != 0 {
            return Err(LinkageError::snapshot(
                "restore requires a pristine join (nothing consumed)",
            ));
        }

        let table = opsnap::decode_interner(file.section(kind::INTERNER as u32)?)?;
        self.interner.restore_table(table)?;

        let mut d = Decoder::new(file.section(kind::CONTROLLER as u32)?, "CONTROLLER");
        let phase = match d.get_u8()? {
            0 => JoinPhase::Exact,
            1 => JoinPhase::Approximate,
            other => {
                return Err(LinkageError::snapshot(format!(
                    "CONTROLLER section: unknown phase tag {other}"
                )))
            }
        };
        let consumed = PerSide::new(d.get_u64()?, d.get_u64()?);
        let emitted = PerKind {
            exact: d.get_u64()?,
            approximate: d.get_u64()?,
        };
        self.controller.get_switch(&mut d)?;
        let exhausted = d.get_bool()?;
        self.controller.get_loop(&mut d)?;
        // `ctl_last_checkpoint` is `ctl_last_checked / check_every`.
        d.get_u64()?;
        d.finish()?;

        let mut pending = opsnap::decode_pairs(file.section(kind::PENDING as u32)?)?;
        self.controller
            .decode_stream(file.section(kind::STREAM as u32)?, &mut pending)?;

        let shard_sections = file.sections_with_base(kind::SHARD);
        if shard_sections.len() != self.workers.len() {
            return Err(LinkageError::snapshot(format!(
                "snapshot has {} shard section(s), this join runs {} shard(s) — \
                 resume with the shard count the snapshot was taken with",
                shard_sections.len(),
                self.workers.len()
            )));
        }
        for (i, (shard, payload)) in shard_sections.iter().enumerate() {
            if *shard as usize != i {
                return Err(LinkageError::snapshot(format!(
                    "shard sections are not dense: expected shard {i}, found {shard}"
                )));
            }
            if ShardSection::decode(payload)?.approx != (phase == JoinPhase::Approximate) {
                return Err(LinkageError::snapshot(format!(
                    "shard {i} phase contradicts the CONTROLLER section"
                )));
            }
            // Each worker decodes its own section out of the shared
            // buffer: nothing is copied to ship it.
            self.workers[i].send(ShardCmd::Restore(file.clone()))?;
        }
        for i in 0..self.workers.len() {
            match self.workers[i].recv()? {
                ShardReply::Restored(Ok(())) => {}
                ShardReply::Restored(Err(e)) | ShardReply::Pairs(Err(e)) => return Err(e),
                _ => {
                    return Err(LinkageError::execution(format!(
                        "{}: unexpected reply to Restore",
                        self.workers[i].id
                    )))
                }
            }
        }

        self.phase = phase;
        self.out.extend(pending);
        self.emitted = emitted;
        self.exhausted = exhausted;

        skip_consumed_prefix(&mut self.input, consumed)?;
        self.consumed = consumed;
        Ok(())
    }

    /// Send `Finish` everywhere, harvest statistics, join the threads.
    fn shutdown_workers(&mut self) -> Result<()> {
        let mut workers = std::mem::take(&mut self.workers);
        let mut first_err: Option<LinkageError> = None;
        for worker in &workers {
            if let Err(e) = worker.send(ShardCmd::Finish) {
                first_err.get_or_insert(e);
            }
        }
        for worker in &workers {
            // Drain stale lock-step replies (an aborted epoch can leave
            // one) until the final statistics arrive.
            loop {
                match worker.reply.recv() {
                    Ok(ShardReply::Finished(stats)) => {
                        self.shard_stats.push(*stats);
                        break;
                    }
                    Ok(_) => continue,
                    Err(_) => {
                        first_err.get_or_insert_with(|| {
                            LinkageError::execution(format!(
                                "{} died before reporting statistics",
                                worker.id
                            ))
                        });
                        break;
                    }
                }
            }
        }
        for worker in &mut workers {
            if let Some(handle) = worker.thread.take() {
                let _ = handle.join();
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl<I: Operator<Item = SidedRecord>> Operator for ParallelJoin<I> {
    type Item = MatchPair;

    fn name(&self) -> &'static str {
        "parallel-join"
    }

    fn state(&self) -> OperatorState {
        self.state
    }

    fn open(&mut self) -> Result<()> {
        self.state.check_open(self.name())?;
        self.input.open()?;
        self.spawn_workers()?;
        self.state = OperatorState::Open;
        // `ForceAt(0)` switches here, before any epoch, mirroring the
        // serial engine.
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
        if self.state != OperatorState::Closed {
            let shutdown = self.shutdown_workers();
            self.input.close()?;
            self.state = OperatorState::Closed;
            shutdown?;
        }
        Ok(())
    }
}

impl<I> Drop for ParallelJoin<I> {
    fn drop(&mut self) {
        // Severing the command channels makes every worker exit its loop;
        // dropping the reply receivers unblocks any in-flight send.
        for worker in std::mem::take(&mut self.workers) {
            let WorkerHandle {
                cmd, reply, thread, ..
            } = worker;
            drop(cmd);
            drop(reply);
            if let Some(handle) = thread {
                let _ = handle.join();
            }
        }
    }
}
