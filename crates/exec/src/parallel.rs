//! The partition-parallel adaptive join.
//!
//! [`ParallelJoin`] is a push core like the serial engine: its owner
//! feeds it tuples and pops what is ready; it never reads input.  It
//! drives N worker shards (one thread each, bounded channels) through
//! lock-step **epochs** of `batch_size` fed tuples, buffering the fed
//! records until an epoch is full (the partial tail runs at
//! [`ParallelJoin::finish`]):
//!
//! 1. route the epoch — in the **exact phase** each tuple goes to the
//!    single shard owning the stable hash of its normalised key, so every
//!    shard runs an independent symmetric hash join over a disjoint
//!    partition; in the **approximate phase** every tuple is tokenised
//!    once at the router and broadcast: every shard probes it against its
//!    slice of the resident inverted index, and only the tuple's home
//!    shard stores it;
//! 2. barrier on one reply per shard, merging emitted pairs in shard
//!    order — deterministic for a given shard count, with each distinct
//!    pair emitted exactly once;
//! 3. after an exact epoch, ask the [`Controller`] — the one the serial
//!    [`AdaptiveJoin`] asks after every tuple — with the aggregated
//!    counters; on a trigger, orchestrate the distributed §3.3 handover:
//!    every shard migrates its hash tables into inverted indexes and
//!    recovers its local matches, then each shard probes the resident
//!    snapshots of the shards before it, recovering the cross-shard
//!    matches hash partitioning had separated.
//!
//! Epoch boundaries fall every `batch_size` fed tuples however the input
//! is chunked, so the per-epoch decisions, and with them the output, do
//! not depend on how the owner feeds.  The exact phase parallelises
//! because the partitions are disjoint; the approximate phase
//! parallelises because probe cost is proportional to posting-list
//! length and every shard holds ~1/N of the postings.  The switch
//! decision is made once, globally, from deduplicated counts, and
//! announced in-band by [`ParallelJoin::pop_ready`] exactly as the serial
//! engine announces it.
//!
//! [`AdaptiveJoin`]: linkage_core::AdaptiveJoin

use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use linkage_core::{Controller, Pulled, SwitchEvent};
use linkage_operators::{snapshot as opsnap, JoinPhase, PerKind, SshJoinCore, SshStored};
use linkage_text::SharedInterner;
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

/// The sharded parallel adaptive join.
///
/// Built ready to feed: [`Self::new`] spawns the worker threads, and
/// [`Self::close`] collects their statistics and joins them.
pub struct ParallelJoin {
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
    phase: JoinPhase,
    out: VecDeque<MatchPair>,
    /// Fed records not yet in an epoch: always fewer than `batch_size`.
    pending: Vec<SidedRecord>,
    /// Approximate-phase epochs dispatched to the workers whose replies
    /// have not been collected yet (bounded send-ahead; see
    /// [`Self::approx_epoch`]).
    approx_in_flight: usize,
    consumed: PerSide<u64>,
    emitted: PerKind,
    shard_stats: Vec<ShardStats>,
    /// [`Self::finish`] was called: the input is complete.
    finished: bool,
}

impl ParallelJoin {
    /// Spawn the workers.  `ForceAt(0)` switches here, before any epoch,
    /// mirroring the serial engine.
    pub fn new(config: ParallelJoinConfig) -> Result<Self> {
        let partitioner = Partitioner::new(config.shards);
        let interner = SharedInterner::new();
        let prep = config.join.ssh_core_with(interner.clone());
        let controller = Controller::new(config.controller.clone());
        let pending = Vec::with_capacity(config.batch_size);
        let mut join = Self {
            config,
            partitioner,
            interner,
            prep,
            controller,
            workers: Vec::new(),
            phase: JoinPhase::Exact,
            out: VecDeque::new(),
            pending,
            approx_in_flight: 0,
            consumed: PerSide::default(),
            emitted: PerKind::default(),
            shard_stats: Vec::new(),
            finished: false,
        };
        join.spawn_workers()?;
        join.control_step()?;
        Ok(join)
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

    /// Per-shard statistics, collected by [`Self::close`]; empty before
    /// that.
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

    /// Fail unless the workers are still running.
    fn check_open(&self) -> Result<()> {
        if self.workers.is_empty() {
            return Err(LinkageError::operator_state(
                "parallel-join: used after close()",
            ));
        }
        Ok(())
    }

    /// Buffer `records`, running one epoch each time `batch_size` of them
    /// are buffered.  Produced pairs stay queued for [`Self::pop_ready`].
    pub fn feed(&mut self, mut records: &[SidedRecord]) -> Result<()> {
        self.check_open()?;
        if self.finished {
            return Err(LinkageError::operator_state(
                "parallel-join: fed after finish()",
            ));
        }
        let batch_size = self.config.batch_size;
        while !records.is_empty() {
            let take = (batch_size - self.pending.len()).min(records.len());
            self.pending.extend_from_slice(&records[..take]);
            records = &records[take..];
            if self.pending.len() == batch_size {
                let batch = std::mem::replace(&mut self.pending, Vec::with_capacity(batch_size));
                self.epoch(batch)?;
            }
        }
        Ok(())
    }

    /// Declare the input complete: run the partial tail epoch, if any,
    /// and collect every epoch still in flight, so everything the input
    /// produces is queued.  Idempotent.
    pub fn finish(&mut self) -> Result<()> {
        self.check_open()?;
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        if !self.pending.is_empty() {
            let batch = std::mem::take(&mut self.pending);
            self.epoch(batch)?;
        }
        self.quiesce()
    }

    /// The fed records not yet in an epoch, oldest first.  A snapshot
    /// does not hold them: its consumed counts end before them.
    pub fn pending(&self) -> &[SidedRecord] {
        &self.pending
    }

    /// Run one epoch: route, barrier, merge, assess.
    fn epoch(&mut self, batch: Vec<SidedRecord>) -> Result<()> {
        match self.phase {
            JoinPhase::Exact => {
                self.exact_epoch(batch)?;
                self.control_step()
            }
            JoinPhase::Approximate => self.approx_epoch(batch),
        }
    }

    /// Exact phase: hash-partition the batch, one shard per tuple.
    fn exact_epoch(&mut self, batch: Vec<SidedRecord>) -> Result<()> {
        let mut per_shard: Vec<Vec<(SidedRecord, Arc<str>)>> =
            (0..self.config.shards).map(|_| Vec::new()).collect();
        let mut buf = String::new();
        for sided in batch {
            let key = self.config.join.normalized_key(&sided, &mut buf)?;
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

    /// Approximate phase: broadcast the prepared batch, store at the home
    /// shard — with a bounded **send-ahead pipeline**.  Up to
    /// [`Self::approx_pipeline_depth`] epochs are in flight at once: the
    /// batch is tokenised while the workers probe the epochs before it,
    /// and the oldest epoch's barrier is collected only when the pipeline
    /// is full, so the router's normalise + q-gram + intern work and its
    /// reply merging overlap with shard work instead of serialising in
    /// front of it.  No control decision happens in this phase (the
    /// switch is behind us), so the deeper dispatch cannot reorder
    /// anything: replies are still collected one epoch at a time, in
    /// shard order.
    fn approx_epoch(&mut self, batch: Vec<SidedRecord>) -> Result<()> {
        let shared = self.prepare_batch(batch)?;
        if self.approx_in_flight == self.approx_pipeline_depth() {
            self.collect_batch_replies()?;
            self.approx_in_flight -= 1;
        }
        for worker in &self.workers {
            worker.send(ShardCmd::ApproxBatch(Arc::clone(&shared)))?;
        }
        self.approx_in_flight += 1;
        Ok(())
    }

    /// Normalise, tokenise, intern and home-assign one epoch's tuples
    /// into one shared structure-of-arrays batch.  Counts the tuples as
    /// consumed: the router has irrevocably taken them into the join,
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

    /// Ask the controller after an exact epoch (or when built) and run the
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

    /// The next queued pair or switch announcement, or `None` if producing
    /// one needs more input (or [`Self::finish`]).
    pub fn pop_ready(&mut self) -> Option<Pulled> {
        self.controller.pull(|| self.out.pop_front())
    }

    /// Collect every approximate-phase epoch in flight, so every worker
    /// is exactly caught up with the router's `consumed` counters.  The
    /// pairs those barriers produce surface in `out` in exactly the order
    /// an uninterrupted run would have emitted them.  A no-op in the
    /// exact phase, whose epochs are synchronous.
    fn quiesce(&mut self) -> Result<()> {
        while self.approx_in_flight > 0 {
            self.collect_batch_replies()?;
            self.approx_in_flight -= 1;
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
    /// §3.3 switch.  The [`pending`](Self::pending) input is not part of
    /// it.  Section payload layouts are specified in `docs/format.md`.
    pub fn snapshot_sections(&mut self, builder: &mut SnapshotBuilder) -> Result<()> {
        if self.check_open().is_err() {
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
        // `exhausted`: whether the input was declared complete.
        e.put_bool(self.finished);
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

    /// Install snapshotted state into a pristine join: restore the shared
    /// interner in place (every worker holds a handle to the same table),
    /// ship each worker its encoded partition to decode and replay in
    /// parallel, and adopt the coordinator counters and the controller's
    /// `STREAM` section.  The owner then feeds the input that follows the
    /// snapshot's consumed prefix.
    pub fn restore_sections(&mut self, file: &SnapshotFile) -> Result<()> {
        if self.check_open().is_err() {
            return Err(LinkageError::snapshot("restore requires an open join"));
        }
        if self.total_consumed() != 0 || !self.pending.is_empty() {
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
        // `exhausted`: the owner knows where its input ends.
        d.get_bool()?;
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
        self.consumed = consumed;
        Ok(())
    }

    /// Stop the workers: send `Finish` everywhere, harvest their
    /// statistics into [`Self::shard_stats`] and join the threads.
    /// Idempotent; feeding, finishing or snapshotting afterwards fails.
    pub fn close(&mut self) -> Result<()> {
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

impl Drop for ParallelJoin {
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
