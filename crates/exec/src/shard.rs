//! The per-shard worker: one thread, one switchable join kernel.
//!
//! A worker owns the same kernels the serial [`SwitchJoin`] drives — an
//! [`ExactJoinCore`] that becomes an [`SshJoinCore`] at the handover — but
//! is fed through the [`ShardCmd`] channel protocol instead of an input
//! operator, and obeys the coordinator's *global* switch decision instead
//! of deciding locally.
//!
//! Every worker holds a clone of the join's [`SharedInterner`], so the
//! approximate kernel it builds at the handover lives in the same gram-id
//! space as the coordinator's router and every sibling shard: broadcast
//! tuples arrive pre-interned and resident snapshots shipped for
//! cross-shard recovery carry ids this worker's flat postings understand
//! directly.  Steady-state probing never touches the interner lock.
//!
//! [`SwitchJoin`]: linkage_operators::SwitchJoin

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, SyncSender};

use linkage_operators::{
    snapshot as opsnap, ExactJoinCore, PerKind, SshJoinCore, SwitchJoinConfig,
};
use linkage_text::SharedInterner;
use linkage_types::snapshot::{kind, shard_kind, SnapshotFile};
use linkage_types::{LinkageError, MatchKind, MatchPair, PerSide, ShardId};

use crate::messages::{ShardCmd, ShardReply, ShardSection, ShardSnapshot, ShardStats};

// One long-lived instance per worker thread: the inline size gap
// between the kernels (the approximate core carries its probe scratch)
// never multiplies across a collection, so boxing would only add
// indirection.
#[allow(clippy::large_enum_variant)]
enum Core {
    Exact(ExactJoinCore),
    Approx(SshJoinCore),
    /// Transient placeholder while the handover runs.
    Switching,
}

/// One worker shard; consumed by [`ShardWorker::run`] on its own thread.
pub(crate) struct ShardWorker {
    id: ShardId,
    config: SwitchJoinConfig,
    /// Handle to the join-wide gram table (see module docs).
    interner: SharedInterner,
    core: Core,
    out: VecDeque<MatchPair>,
    stored_tuples: u64,
    probes: u64,
    emitted: PerKind,
}

impl ShardWorker {
    pub(crate) fn new(id: ShardId, config: SwitchJoinConfig, interner: SharedInterner) -> Self {
        let exact = config.exact_core();
        Self {
            id,
            config,
            interner,
            core: Core::Exact(exact),
            out: VecDeque::new(),
            stored_tuples: 0,
            probes: 0,
            emitted: PerKind::default(),
        }
    }

    /// Serve commands until `Finish` arrives or either channel is severed.
    pub(crate) fn run(mut self, rx: Receiver<ShardCmd>, tx: SyncSender<ShardReply>) {
        while let Ok(cmd) = rx.recv() {
            let done = matches!(cmd, ShardCmd::Finish);
            let reply = self.handle(cmd);
            if tx.send(reply).is_err() || done {
                return;
            }
        }
    }

    fn handle(&mut self, cmd: ShardCmd) -> ShardReply {
        match cmd {
            ShardCmd::ExactBatch(tuples) => {
                let Core::Exact(exact) = &mut self.core else {
                    return Self::protocol_error("ExactBatch outside the exact phase");
                };
                for (sided, key) in tuples {
                    self.stored_tuples += 1;
                    self.probes += 1;
                    if let Err(e) = exact.process_with_key(sided, key, &mut self.out) {
                        return ShardReply::Pairs(Err(e));
                    }
                }
                ShardReply::Pairs(Ok(self.drain()))
            }
            ShardCmd::ApproxBatch(batch) => {
                let Core::Approx(ssh) = &mut self.core else {
                    return Self::protocol_error("ApproxBatch outside the approximate phase");
                };
                self.probes += batch.len() as u64;
                self.stored_tuples +=
                    batch.homes.iter().filter(|&&home| home == self.id).count() as u64;
                if let Err(e) = ssh.probe_batch_into(&batch, Some(self.id), &mut self.out) {
                    return ShardReply::Pairs(Err(e));
                }
                ShardReply::Pairs(Ok(self.drain()))
            }
            ShardCmd::Switch => match std::mem::replace(&mut self.core, Core::Switching) {
                Core::Exact(exact) => {
                    let (ssh, _) = self
                        .config
                        .ssh_core_with(self.interner.clone())
                        .with_exact_state(exact.into_tables(), &mut self.out);
                    let residents = ssh.residents();
                    self.core = Core::Approx(ssh);
                    ShardReply::Switched {
                        recovered: self.drain(),
                        residents,
                    }
                }
                other => {
                    self.core = other;
                    Self::protocol_error("Switch outside the exact phase")
                }
            },
            ShardCmd::Recover(snapshots) => {
                let Core::Approx(ssh) = &mut self.core else {
                    return Self::protocol_error("Recover outside the approximate phase");
                };
                for snapshot in &snapshots {
                    self.probes += snapshot.len() as u64;
                    ssh.recover_foreign(snapshot, &mut self.out);
                }
                ShardReply::Recovered(self.drain())
            }
            ShardCmd::Snapshot => {
                // Every barrier leaves `out` drained, so the reply is a
                // complete picture of this shard's durable state.
                let (approx, core_bytes) = match &self.core {
                    Core::Exact(c) => (false, opsnap::encode_exact_core(c)),
                    Core::Approx(c) => (true, opsnap::encode_ssh_core(c)),
                    Core::Switching => {
                        return Self::protocol_error("Snapshot during an in-flight switch")
                    }
                };
                ShardReply::Snapshot(Box::new(ShardSnapshot {
                    approx,
                    core_bytes,
                    stored_tuples: self.stored_tuples,
                    probes: self.probes,
                    emitted: self.emitted,
                }))
            }
            ShardCmd::Restore(file) => ShardReply::Restored(self.restore(&file)),
            ShardCmd::Finish => ShardReply::Finished(Box::new(self.stats())),
        }
    }

    /// Install snapshotted state: decode the kernel for this shard's
    /// partition from its `SHARD` section of `file` and adopt the
    /// counters.  Only a shard that has processed nothing may be
    /// restored — the coordinator sends this right after spawning the
    /// fleet.
    fn restore(&mut self, file: &SnapshotFile) -> linkage_types::Result<()> {
        if self.stored_tuples != 0 || self.probes != 0 || self.emitted.total() != 0 {
            return Err(LinkageError::snapshot(format!(
                "{}: restore requires a pristine shard",
                self.id
            )));
        }
        let snapshot =
            ShardSection::decode(file.section(shard_kind(kind::SHARD, self.id.0 as u16))?)?;
        self.core = if snapshot.approx {
            Core::Approx(opsnap::decode_ssh_core(
                snapshot.core_bytes,
                &self.config,
                self.interner.clone(),
            )?)
        } else {
            Core::Exact(opsnap::decode_exact_core(
                snapshot.core_bytes,
                &self.config,
            )?)
        };
        self.stored_tuples = snapshot.stored_tuples;
        self.probes = snapshot.probes;
        self.emitted = snapshot.emitted;
        Ok(())
    }

    /// Drain buffered pairs, folding their kinds into the emission counters.
    fn drain(&mut self) -> Vec<MatchPair> {
        let pairs: Vec<MatchPair> = self.out.drain(..).collect();
        for pair in &pairs {
            match pair.kind {
                MatchKind::Exact => self.emitted.exact += 1,
                MatchKind::Approximate { .. } => self.emitted.approximate += 1,
            }
        }
        pairs
    }

    fn stats(&self) -> ShardStats {
        let (resident, state_bytes, slack, funnel) = match &self.core {
            Core::Exact(c) => (c.stored(), c.state_bytes(), 0, Default::default()),
            Core::Approx(c) => {
                let slack = c.postings_slack_bytes();
                (
                    c.stored(),
                    c.state_bytes(),
                    // Probe scratch (epoch stamps, candidate arena, batch
                    // ranges, bounds memo) is overhead the same way posting
                    // slack is: allocated but not payload.
                    slack.left + slack.right + c.scratch_bytes(),
                    c.funnel(),
                )
            }
            Core::Switching => (
                PerSide::default(),
                PerSide::default(),
                0,
                Default::default(),
            ),
        };
        ShardStats {
            shard: self.id,
            stored_tuples: self.stored_tuples,
            probes: self.probes,
            emitted: self.emitted,
            resident,
            state_bytes,
            interner_bytes: self.interner.state_bytes(),
            postings_slack_bytes: slack,
            funnel,
        }
    }

    fn protocol_error(message: &str) -> ShardReply {
        ShardReply::Pairs(Err(LinkageError::execution(message)))
    }
}
