//! Sessions and the [`SessionManager`]: per-session byte accounting, a
//! global state-bytes budget, LRU eviction of idle sessions to disk and
//! transparent rehydration.
//!
//! A **session** wraps the [`MatchStream`] of an incrementally fed
//! [`Pipeline`] (serial or sharded — the manager only sees the boxed
//! engine behind it) and a count of the records fed.  Eviction splits
//! the session where the engine stands: everything it consumed goes to
//! disk inside the engine state ([`MatchStream::snapshot_builder`],
//! under the bit-identical-resume contract), and the sidecar file
//! carries only what the snapshot cannot — the configuration, the fed
//! count and the pending input, the records fed but not yet in an epoch
//! (a sharded engine's partial epoch; a serial engine has none).
//! Rehydration re-declares the pipeline, hands the verified snapshot to
//! [`Pipeline::resume_from`], checks that the fed count minus the
//! pending records is where the snapshot ends, and feeds the pending
//! records again; the stream then yields exactly the events the evicted
//! session had not yet delivered.
//!
//! Admission control: the manager enforces a live-session cap and a
//! global state-bytes budget.  Both are relieved by evicting the least
//! recently used *idle* session (not checked out by a worker, not yet
//! finished); when nothing can be evicted the request is rejected with
//! a typed [`LinkageError::Busy`] / [`LinkageError::OverBudget`].
//!
//! Concurrency: the manager owns the lock over its slot table and holds
//! it only to pick slots, change their state and move byte accounting.
//! Encoding, writing, fsyncing, reading, decoding and unlinking eviction
//! files — and dropping a session — always happen with the lock
//! released, so two workers overlap their eviction and rehydration work.
//! A slot in flight (`Evicting`, `Rehydrating`) makes requests for that
//! session wait until it settles (`docs/server.md`, "Admission and
//! eviction state machine").

use std::cell::Cell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use linkage::api::{MatchEvent, MatchStream, Pipeline, PipelineConfig};
use linkage::types::fault;
use linkage::types::snapshot::{crc32, Decoder, Encoder, SnapshotBuilder, SnapshotFile};
use linkage::types::wire::{get_sided_record, put_sided_record};
use linkage::types::{LinkageError, Result, SidedRecord};

use crate::proto::{wire_event, WireEvent};

/// Section kind of the eviction sidecar's metadata payload (config,
/// fingerprint, input-finished flag, pushed count, fed bytes).  Outside
/// the snapshot container's own `1..=8` registry on purpose: the sidecar
/// is a separate file reusing the same container format.
pub const FEED_META_KIND: u32 = 64;

/// Section kind of the eviction sidecar's pending input: the records
/// fed to the session but not yet in an epoch of its engine, in feed
/// order.  (The consumed prefix lives in the `.snap` file's engine
/// state and is not stored twice.)
pub const FEED_PENDING_KIND: u32 = 65;

/// Fewest payload bytes one sided record can occupy: side `u8`, id
/// `u64`, arity `u32`.
const MIN_SIDED_RECORD_BYTES: usize = 1 + 8 + 4;

/// Section kind of the eviction manifest payload: session id, config
/// fingerprint, then length + CRC-32 of the `.snap` and `.feed` files.
/// The manifest is the *commit record* of an eviction — a pair without
/// a matching manifest was never committed and is quarantined, never
/// adopted.
pub const MANIFEST_KIND: u32 = 66;

/// Section kind of the binding section embedded in an evicted `.snap`
/// container: session id + config fingerprint.  Cross-checked against
/// the sidecar at rehydrate time so a mixed-up pair (files from two
/// different evictions under one id) is a typed error naming both
/// files, not a garbled decode.
pub const EVICT_BIND_KIND: u32 = 67;

thread_local! {
    /// Whether this thread holds the session-table lock.
    static HOLDS_TABLE: Cell<bool> = const { Cell::new(false) };
}

/// The lock discipline: no eviction file I/O and no session drop while
/// the session-table lock is held.
fn assert_table_unlocked(what: &str) {
    debug_assert!(
        !HOLDS_TABLE.get(),
        "{what} while holding the session-table lock"
    );
}

/// Write `bytes` to `path` and fsync, honoring two failpoints: `site`
/// tears the write at the armed byte offset, and `evict.fsync` fails
/// the durability barrier after a complete write.  An injected tear
/// leaves the partial file on disk — exactly the state a real crash at
/// that byte would leave.
fn write_evict_file(path: &Path, bytes: &[u8], site: &str) -> Result<()> {
    use std::io::Write as _;
    assert_table_unlocked("eviction file write");
    if let Some(cut) = fault::fires(site) {
        let cut = (cut as usize).min(bytes.len());
        let mut file = std::fs::File::create(path)?;
        file.write_all(&bytes[..cut])?;
        let _ = file.sync_all();
        return Err(fault::injected(site));
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(bytes)?;
    if fault::fires("evict.fsync").is_some() {
        return Err(fault::injected("evict.fsync"));
    }
    file.sync_all()?;
    Ok(())
}

/// Fsync the directory holding `path`, so the entries created and
/// renamed in it survive a power loss.  Failpoint `evict.dirsync` fails
/// it.
fn sync_dir_of(path: &Path) -> Result<()> {
    assert_table_unlocked("directory fsync");
    if fault::fires("evict.dirsync").is_some() {
        return Err(fault::injected("evict.dirsync"));
    }
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Remove a committed eviction's files, manifest first: a crash between
/// the removes leaves an uncommitted remainder the recovery sweep
/// quarantines, never a committed pair with a file missing.
fn remove_committed(manifest: &Path, snap: &Path, feed: &Path) -> Result<()> {
    assert_table_unlocked("eviction file removal");
    std::fs::remove_file(manifest)?;
    std::fs::remove_file(snap)?;
    std::fs::remove_file(feed)?;
    Ok(())
}

/// The `(.snap, .feed, .evict)` paths of session `id`'s eviction.
fn evict_paths(dir: &Path, id: u64) -> [PathBuf; 3] {
    ["snap", "feed", "evict"].map(|suffix| dir.join(format!("session-{id}.{suffix}")))
}

/// Estimated resident bytes of one fed record: values plus per-record
/// bookkeeping.  The currency of the admission budget — deliberately an
/// estimate; the budget bounds magnitude, not exact allocation.
pub fn record_bytes(record: &SidedRecord) -> u64 {
    let values: usize = record
        .record
        .values
        .iter()
        .map(|v| match v {
            linkage::types::Value::Str(s) => s.len() + 16,
            _ => 16,
        })
        .sum();
    32 + values as u64
}

/// The eviction sidecar's [`FEED_META_KIND`] section.
struct FeedMeta {
    config: PipelineConfig,
    fingerprint: u32,
    fin: bool,
    pushed: u64,
    fed_bytes: u64,
}

impl FeedMeta {
    fn read(sidecar: &SnapshotFile) -> Result<Self> {
        let mut meta = Decoder::new(sidecar.section(FEED_META_KIND)?, "FEED_META");
        let decoded = Self {
            config: crate::proto::decode_config(&mut meta)?,
            fingerprint: meta.get_u32()?,
            fin: meta.get_bool()?,
            pushed: meta.get_u64()?,
            fed_bytes: meta.get_u64()?,
        };
        meta.finish()?;
        Ok(decoded)
    }
}

/// One live linkage session.
pub struct Session {
    id: u64,
    config: PipelineConfig,
    fingerprint: u32,
    stream: MatchStream,
    /// Records fed so far.
    fed: u64,
    /// [`record_bytes`] of every record fed so far — what the session
    /// holds against the budget until it finishes.
    fed_bytes: u64,
    /// `FIN` received: the input is complete.
    fin: bool,
    /// The `Finished` event was delivered; the session is drained.
    done: bool,
    /// `done` has been folded into the manager's `finished` counter.
    done_counted: bool,
    last_touch: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("fingerprint", &self.fingerprint)
            .field("fed", &self.fed)
            .field("fin", &self.fin)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        assert_table_unlocked("session drop");
    }
}

impl Session {
    fn build(id: u64, config: PipelineConfig, fingerprint: u32) -> Result<Self> {
        let stream = Pipeline::builder()
            .config(config.clone())
            .session()?
            .run()?;
        Ok(Self {
            id,
            config,
            fingerprint,
            stream,
            fed: 0,
            fed_bytes: 0,
            fin: false,
            done: false,
            done_counted: false,
            last_touch: 0,
        })
    }

    /// This session's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The configuration fingerprint declared at `OPEN`.
    pub fn fingerprint(&self) -> u32 {
        self.fingerprint
    }

    /// Estimated resident bytes this session holds against the budget.
    pub fn state_bytes(&self) -> u64 {
        self.fed_bytes
    }

    /// Total records fed so far.
    pub fn fed(&self) -> u64 {
        self.fed
    }

    /// Whether the final `Finished` event was delivered.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// True exactly once, the first time this is called after the
    /// session finished — so the manager's `finished` counter counts
    /// sessions, not check-ins.
    fn freshly_done(&mut self) -> bool {
        if self.done && !self.done_counted {
            self.done_counted = true;
            true
        } else {
            false
        }
    }

    /// Feed a batch of records to the session's engine.  Returns the
    /// bytes the batch added to the session's accounting.
    ///
    /// An *empty* batch is always legal — even after `FIN` — and changes
    /// nothing: its `FED` reply carries the accepted total, which is how
    /// a client that lost a reply resynchronises before resending
    /// (`docs/server.md`, "Idempotent FEED resume").
    pub fn feed(&mut self, records: Vec<SidedRecord>) -> Result<u64> {
        if fault::fires("session.panic").is_some() {
            panic!("injected panic at failpoint `session.panic`");
        }
        if records.is_empty() {
            return Ok(0);
        }
        self.check_feed(&records)?;
        self.stream.feed(&records)?;
        let added: u64 = records.iter().map(record_bytes).sum();
        self.fed += records.len() as u64;
        self.fed_bytes += added;
        Ok(added)
    }

    /// Refuse, whole, a batch that the client got wrong, before anything
    /// of it is fed: a non-empty batch after `FIN`, or a record whose
    /// key column (`config.keys[side]`) holds no string.  A refused batch
    /// leaves the session exactly as it was.
    pub(crate) fn check_feed(&self, records: &[SidedRecord]) -> Result<()> {
        if self.fin && !records.is_empty() {
            return Err(LinkageError::protocol(
                "FEED after FIN: the session input is complete",
            ));
        }
        for (i, sided) in records.iter().enumerate() {
            let column = self.config.keys[sided.side];
            if let Err(e) = sided.record.key_str(column) {
                return Err(LinkageError::protocol(format!(
                    "FEED record {i} ({} {}): key column {column}: {e}",
                    sided.side, sided.record.id
                )));
            }
        }
        Ok(())
    }

    /// Declare the input complete.  The remaining events (through
    /// `Finished`) become drainable via [`Self::poll`], which runs what
    /// the engine still holds.
    pub fn fin(&mut self) {
        self.stream.finish();
        self.fin = true;
    }

    /// Drain up to `max` ready events.  Before `FIN` only events that
    /// need no further input are returned; after `FIN` the stream drains
    /// to its `Finished` event, which releases the fed bytes.  Returns the
    /// events plus the bytes released (nonzero only when the session
    /// finishes).
    pub fn poll(&mut self, max: usize) -> Result<(Vec<WireEvent>, u64)> {
        let mut events = Vec::new();
        let mut released = 0u64;
        while events.len() < max && !self.done {
            let next = if self.fin {
                self.stream.next()
            } else {
                match self.stream.next_ready() {
                    Some(event) => Some(event),
                    None => break,
                }
            };
            match next {
                Some(Ok(event)) => {
                    if matches!(event, MatchEvent::Finished(_)) {
                        self.done = true;
                        released = std::mem::take(&mut self.fed_bytes);
                    }
                    events.push(wire_event(&event));
                }
                Some(Err(e)) => return Err(e),
                None => break,
            }
        }
        Ok((events, released))
    }

    /// Persist this session under the atomic eviction commit protocol.
    /// Only unfinished sessions are evictable.
    ///
    /// The protocol: write the `.snap` (engine + stream state, plus an
    /// [`EVICT_BIND_KIND`] section naming this session) and `.feed`
    /// (config, input position, pending input) files under their final
    /// names, fsync both, then commit by writing a [`MANIFEST_KIND`]
    /// manifest — carrying both files' lengths and CRCs — to a temp
    /// sibling, fsyncing it, renaming it into place and fsyncing the
    /// directory.  The rename is the single commit point: a crash
    /// anywhere earlier leaves data files without a manifest, which the
    /// startup recovery sweep quarantines instead of adopting.  The
    /// directory fsync makes the commit durable; if it fails, the
    /// eviction is un-committed and its files removed, because the
    /// caller keeps the session live.
    ///
    /// Failpoints (`--features fault`): `evict.snap`, `evict.feed` and
    /// `evict.manifest` tear the respective write at the armed byte
    /// offset; `evict.fsync` fails a file's durability barrier and
    /// `evict.dirsync` the directory's.
    ///
    /// On success the session object is unchanged (the caller decides
    /// whether to drop it); on error the caller keeps a fully usable
    /// in-memory session.
    pub fn evict_to(
        &mut self,
        snap_path: &Path,
        feed_path: &Path,
        manifest_path: &Path,
    ) -> Result<()> {
        if self.done {
            return Err(LinkageError::snapshot(
                "a finished session has nothing to evict",
            ));
        }
        let mut snap = self.stream.snapshot_builder()?;
        let mut bind = Encoder::new();
        bind.put_u64(self.id);
        bind.put_u32(self.fingerprint);
        snap.push_section(EVICT_BIND_KIND, bind.finish());
        let snap_bytes = snap.to_bytes();
        write_evict_file(snap_path, &snap_bytes, "evict.snap")?;

        let mut builder = SnapshotBuilder::new();
        let mut meta = Encoder::new();
        crate::proto::encode_config(&mut meta, &self.config);
        meta.put_u32(self.fingerprint);
        meta.put_bool(self.fin);
        meta.put_u64(self.fed);
        meta.put_u64(self.fed_bytes);
        builder.push_section(FEED_META_KIND, meta.finish());
        let pending = self.stream.pending_input();
        let mut queue = Encoder::new();
        queue.put_u32(pending.len() as u32);
        for record in pending {
            put_sided_record(&mut queue, record);
        }
        builder.push_section(FEED_PENDING_KIND, queue.finish());
        let feed_bytes = builder.to_bytes();
        write_evict_file(feed_path, &feed_bytes, "evict.feed")?;

        let mut manifest = Encoder::new();
        manifest.put_u64(self.id);
        manifest.put_u32(self.fingerprint);
        manifest.put_u64(snap_bytes.len() as u64);
        manifest.put_u32(crc32(&snap_bytes));
        manifest.put_u64(feed_bytes.len() as u64);
        manifest.put_u32(crc32(&feed_bytes));
        let mut commit = SnapshotBuilder::new();
        commit.push_section(MANIFEST_KIND, manifest.finish());
        let tmp = manifest_path.with_extension("evict.tmp");
        write_evict_file(&tmp, &commit.to_bytes(), "evict.manifest")?;
        std::fs::rename(&tmp, manifest_path)?;
        if let Err(e) = sync_dir_of(manifest_path) {
            let _ = remove_committed(manifest_path, snap_path, feed_path);
            return Err(e);
        }
        Ok(())
    }

    /// Rebuild a session from the files written by [`Self::evict_to`]:
    /// re-declare the pipeline from the sidecar's config, resume the
    /// engine from the snapshot (read, verified and decoded exactly
    /// once), check that the sidecar's fed count minus its pending
    /// records is the snapshot's consumed count, and feed the pending
    /// records.  The manifest is deleted first (un-committing the pair),
    /// then the data files, on success.
    ///
    /// The snapshot's [`EVICT_BIND_KIND`] section is cross-checked
    /// against the sidecar's declared id and fingerprint; a mismatched
    /// pair is a typed [`LinkageError::Snapshot`] naming both files.
    ///
    /// Failpoint (`--features fault`): `rehydrate.read` fails the read
    /// before any file is touched.
    pub fn rehydrate(
        id: u64,
        snap_path: &Path,
        feed_path: &Path,
        manifest_path: &Path,
    ) -> Result<Self> {
        assert_table_unlocked("eviction file read");
        if fault::fires("rehydrate.read").is_some() {
            return Err(fault::injected("rehydrate.read"));
        }
        let sidecar = SnapshotFile::read_from(feed_path)?;
        let FeedMeta {
            config,
            fingerprint,
            fin,
            pushed,
            fed_bytes,
        } = FeedMeta::read(&sidecar)?;

        let snap_file = SnapshotFile::read_from(snap_path)?;
        let mut bind = Decoder::new(snap_file.section(EVICT_BIND_KIND)?, "EVICT_BIND");
        let bind_id = bind.get_u64()?;
        let bind_fp = bind.get_u32()?;
        bind.finish()?;
        if bind_id != id || bind_fp != fingerprint {
            return Err(LinkageError::snapshot(format!(
                "eviction pair mismatch for session {id}: snapshot {} is bound to \
                 session {bind_id} with fingerprint {bind_fp:#010x}, but sidecar {} \
                 declares fingerprint {fingerprint:#010x} — the files are not from \
                 the same eviction",
                snap_path.display(),
                feed_path.display()
            )));
        }
        let mut queue = Decoder::new(sidecar.section(FEED_PENDING_KIND)?, "FEED_PENDING");
        let count = queue.get_count(MIN_SIDED_RECORD_BYTES)?;
        let mut pending = Vec::with_capacity(count);
        for _ in 0..count {
            pending.push(get_sided_record(&mut queue)?);
        }
        queue.finish()?;
        let Some(consumed) = pushed.checked_sub(pending.len() as u64) else {
            return Err(LinkageError::snapshot(format!(
                "feed sidecar of session {id} claims {pushed} pushed records but holds {} \
                 pending ones",
                pending.len()
            )));
        };

        let mut stream = Pipeline::builder()
            .config(config.clone())
            .session()?
            .resume_from(&snap_file)?;
        if stream.consumed() != consumed {
            return Err(LinkageError::snapshot(format!(
                "input does not match the snapshot: feed sidecar of session {id} \
                 resumes after {consumed} records, the snapshotted run had consumed {}",
                stream.consumed()
            )));
        }
        stream.feed(&pending)?;
        if fin {
            stream.finish();
        }
        remove_committed(manifest_path, snap_path, feed_path)?;
        Ok(Self {
            id,
            config,
            fingerprint,
            stream,
            fed: pushed,
            fed_bytes,
            fin,
            done: false,
            done_counted: false,
            last_touch: 0,
        })
    }
}

/// A session's slot in the manager's table.
enum Slot {
    /// In memory, idle.
    Live(Box<Session>),
    /// Checked out by a worker processing a request — or, during `OPEN`,
    /// admitted but not yet in the table.
    Taken,
    /// Being written to disk, with the table lock released, by the worker
    /// that picked it as an LRU victim.  Requests for it wait.
    Evicting,
    /// On disk under the eviction directory; `bytes` is what it charges
    /// against the budget once it is back.
    Evicted {
        /// The session's [`Session::state_bytes`] when it was evicted.
        bytes: u64,
    },
    /// Being read back, with the table lock released, by the worker whose
    /// request touched it; its bytes are already reserved.  Requests for
    /// it wait.
    Rehydrating,
    /// Poisoned: a worker panicked mid-request, or the on-disk eviction
    /// files came back torn/corrupt.  Any surviving files are parked
    /// under `quarantine/`; every request except `CLOSE` gets a typed
    /// [`LinkageError::Quarantined`], and `CLOSE` discards the remains.
    Quarantined {
        /// Why the session was quarantined (for the error message).
        reason: String,
    },
}

/// What the startup recovery sweep found in the eviction directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RecoveryReport {
    /// Sessions adopted as evicted: a committed manifest whose length
    /// and CRC claims both data files satisfy.
    pub adopted: Vec<u64>,
    /// Sessions quarantined, with the reason: torn or corrupt bytes, a
    /// missing file, or a pair whose eviction never committed.
    pub quarantined: Vec<(u64, String)>,
    /// Orphaned temporary files (`*.tmp`, `*.tmp-snapshot`) deleted.
    pub removed_tmp_files: u64,
}

/// Counters the `STATS` request reports (plus the budget configuration,
/// so a client can see the admission envelope it is playing against).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServerStats {
    /// Sessions holding room under the live-session cap: in memory (idle
    /// or checked out) or being rehydrated.  A session being evicted
    /// counts neither here nor in `evicted_sessions`.
    pub live_sessions: u64,
    /// Sessions currently evicted to disk.
    pub evicted_sessions: u64,
    /// Sessions ever opened.
    pub opened: u64,
    /// Sessions that delivered their `Finished` event.
    pub finished: u64,
    /// Sessions explicitly closed.
    pub closed: u64,
    /// Idle sessions evicted to disk (lifetime count).
    pub evictions: u64,
    /// Evicted sessions rehydrated on access (lifetime count).
    pub rehydrations: u64,
    /// Requests rejected with `BUSY`.
    pub rejected_busy: u64,
    /// Requests rejected with `OVER_BUDGET`.
    pub rejected_over_budget: u64,
    /// Estimated session bytes charged right now: every session in
    /// memory, including those being evicted, plus the reservations of
    /// those being rehydrated and of byte reservations still evicting.
    pub state_bytes: u64,
    /// The configured state-bytes budget.
    pub budget_bytes: u64,
    /// The configured live-session cap.
    pub max_sessions: u64,
    /// Sessions currently quarantined (poisoned by a panic or by torn
    /// or corrupt eviction files), awaiting `CLOSE`.
    pub quarantined_sessions: u64,
    /// Worker panics caught at the request boundary (lifetime count).
    /// Each one quarantined a session instead of killing the worker.
    pub worker_panics: u64,
}

impl ServerStats {
    /// Encode as the `STATS` reply payload (fourteen `u64`s, field
    /// order).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        for v in [
            self.live_sessions,
            self.evicted_sessions,
            self.opened,
            self.finished,
            self.closed,
            self.evictions,
            self.rehydrations,
            self.rejected_busy,
            self.rejected_over_budget,
            self.state_bytes,
            self.budget_bytes,
            self.max_sessions,
            self.quarantined_sessions,
            self.worker_panics,
        ] {
            e.put_u64(v);
        }
        e.finish()
    }

    /// Decode a `STATS` reply payload.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut d = Decoder::new(payload, "STATS");
        let stats = Self {
            live_sessions: d.get_u64()?,
            evicted_sessions: d.get_u64()?,
            opened: d.get_u64()?,
            finished: d.get_u64()?,
            closed: d.get_u64()?,
            evictions: d.get_u64()?,
            rehydrations: d.get_u64()?,
            rejected_busy: d.get_u64()?,
            rejected_over_budget: d.get_u64()?,
            state_bytes: d.get_u64()?,
            budget_bytes: d.get_u64()?,
            max_sessions: d.get_u64()?,
            quarantined_sessions: d.get_u64()?,
            worker_panics: d.get_u64()?,
        };
        d.finish()?;
        Ok(stats)
    }
}

/// Sessions taken out of their slots to be evicted, still boxed as the
/// slots held them.
#[allow(clippy::vec_box)]
type Victims = Vec<Box<Session>>;

/// The slot table and its accounting: everything the manager's lock
/// guards.
struct Table {
    slots: HashMap<u64, Slot>,
    next_id: u64,
    clock: u64,
    max_sessions: usize,
    budget_bytes: u64,
    /// Bytes of every session in memory — idle, taken or being evicted —
    /// plus the reservations of sessions being rehydrated and of
    /// [`SessionManager::reserve_bytes`] calls whose victims are being
    /// evicted.
    state_bytes: u64,
    /// The part of `state_bytes` held by `Evicting` sessions: room
    /// already handed to whoever picked them.
    leaving_bytes: u64,
    /// The lifetime counters; [`Self::stats`] derives the gauges.
    stats: ServerStats,
}

impl Table {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Slots holding room under the cap: everything but the in-flight
    /// evictions, the evicted and the quarantined.
    fn occupied(&self) -> usize {
        self.slots
            .values()
            .filter(|s| matches!(s, Slot::Live(_) | Slot::Taken | Slot::Rehydrating))
            .count()
    }

    /// Bytes the budget must cover: resident sessions not being evicted,
    /// plus rehydration reservations.
    fn kept_bytes(&self) -> u64 {
        self.state_bytes.saturating_sub(self.leaving_bytes)
    }

    /// Take the least recently used idle (live, unfinished) session out
    /// of its slot and mark the slot `Evicting`.
    fn take_victim(&mut self) -> Option<Box<Session>> {
        let id = self
            .slots
            .iter()
            .filter_map(|(id, slot)| match slot {
                Slot::Live(s) if !s.is_done() => Some((*id, s.last_touch)),
                _ => None,
            })
            .min_by_key(|(_, touch)| *touch)
            .map(|(id, _)| id)?;
        let Some(Slot::Live(session)) = self.slots.insert(id, Slot::Evicting) else {
            unreachable!("the LRU candidate {id} was just seen live");
        };
        self.leaving_bytes += session.state_bytes();
        Some(session)
    }

    /// Take LRU idle victims until `slots` more sessions fit under the cap
    /// and `incoming` more bytes under the budget.  When everything idle
    /// is gone first, the rejection is counted and returned beside the
    /// victims — which are evicted either way, as a sequential evictor
    /// would have.
    fn make_room(&mut self, slots: usize, incoming: u64) -> (Victims, Result<()>) {
        let mut victims = Vec::new();
        loop {
            let over_cap = self.occupied() + slots > self.max_sessions;
            let over_budget = self.kept_bytes().saturating_add(incoming) > self.budget_bytes;
            if !over_cap && !over_budget {
                return (victims, Ok(()));
            }
            if let Some(victim) = self.take_victim() {
                victims.push(victim);
                continue;
            }
            let rejection = if over_cap {
                self.stats.rejected_busy += 1;
                LinkageError::busy(format!(
                    "session table full ({} live, cap {}, nothing idle to evict)",
                    self.occupied(),
                    self.max_sessions
                ))
            } else {
                self.stats.rejected_over_budget += 1;
                LinkageError::over_budget(format!(
                    "{incoming} incoming bytes would exceed the {} byte budget \
                     ({} resident, nothing idle to evict)",
                    self.budget_bytes,
                    self.kept_bytes()
                ))
            };
            return (victims, Err(rejection));
        }
    }

    fn stats(&self) -> ServerStats {
        let mut stats = self.stats.clone();
        for slot in self.slots.values() {
            match slot {
                Slot::Live(_) | Slot::Taken | Slot::Rehydrating => stats.live_sessions += 1,
                Slot::Evicted { .. } => stats.evicted_sessions += 1,
                Slot::Quarantined { .. } => stats.quarantined_sessions += 1,
                Slot::Evicting => {}
            }
        }
        stats.state_bytes = self.state_bytes;
        stats.budget_bytes = self.budget_bytes;
        stats.max_sessions = self.max_sessions as u64;
        stats
    }
}

/// A held table lock.  Marks its thread so the eviction file helpers can
/// assert the lock discipline.
struct Locked<'a>(Option<MutexGuard<'a, Table>>);

impl<'a> Locked<'a> {
    fn new(guard: MutexGuard<'a, Table>) -> Self {
        HOLDS_TABLE.set(true);
        Self(Some(guard))
    }

    /// Release the lock until `settled` is signalled, then re-take it.
    fn wait(mut self, settled: &Condvar) -> Self {
        let guard = self.0.take().expect("a held table lock");
        Self::new(settled.wait(guard).unwrap_or_else(PoisonError::into_inner))
    }
}

impl Drop for Locked<'_> {
    fn drop(&mut self) {
        if self.0.is_some() {
            HOLDS_TABLE.set(false);
        }
    }
}

impl std::ops::Deref for Locked<'_> {
    type Target = Table;
    fn deref(&self) -> &Table {
        self.0.as_ref().expect("a held table lock")
    }
}

impl std::ops::DerefMut for Locked<'_> {
    fn deref_mut(&mut self) -> &mut Table {
        self.0.as_mut().expect("a held table lock")
    }
}

/// The session table: slots, accounting, admission and eviction.
///
/// Shared by reference between the server's workers: it owns the lock
/// over its table.  Workers check sessions *out* for the duration of a
/// request (so feeding one session never blocks requests on another)
/// and check them back in with the accounting delta.
pub struct SessionManager {
    table: Mutex<Table>,
    /// Signalled whenever an `Evicting` or `Rehydrating` slot settles.
    settled: Condvar,
    evict_dir: PathBuf,
    recovery: RecoveryReport,
}

/// Check a session's eviction against its manifest: the manifest must
/// parse, name this id, and both data files must match its declared
/// length and CRC.  Any shortfall is the quarantine reason.  On success,
/// returns the bytes the session charges against the budget (0 when the
/// sidecar's metadata does not decode — rehydration then quarantines).
fn verify_evicted(dir: &Path, id: u64) -> std::result::Result<u64, String> {
    let [snap_path, feed_path, manifest_path] = evict_paths(dir, id);
    if !manifest_path.exists() {
        return Err("no manifest: the eviction never committed".to_string());
    }
    let manifest =
        SnapshotFile::read_from(&manifest_path).map_err(|e| format!("manifest unreadable: {e}"))?;
    let section = manifest
        .section(MANIFEST_KIND)
        .map_err(|e| format!("manifest: {e}"))?;
    let mut d = Decoder::new(section, "EVICT_MANIFEST");
    let decoded = (|| -> Result<(u64, u64, u32, u64, u32)> {
        let m_id = d.get_u64()?;
        let _fingerprint = d.get_u32()?;
        let snap_len = d.get_u64()?;
        let snap_crc = d.get_u32()?;
        let feed_len = d.get_u64()?;
        let feed_crc = d.get_u32()?;
        Ok((m_id, snap_len, snap_crc, feed_len, feed_crc))
    })();
    let (m_id, snap_len, snap_crc, feed_len, feed_crc) =
        decoded.map_err(|e| format!("manifest undecodable: {e}"))?;
    if m_id != id {
        return Err(format!(
            "manifest names session {m_id} but the files are named session {id}"
        ));
    }
    let mut fed_bytes = 0;
    for (path, want_len, want_crc) in [
        (&snap_path, snap_len, snap_crc),
        (&feed_path, feed_len, feed_crc),
    ] {
        let bytes =
            std::fs::read(path).map_err(|e| format!("{} unreadable: {e}", path.display()))?;
        if bytes.len() as u64 != want_len {
            return Err(format!(
                "{} is {} bytes, manifest committed {want_len}",
                path.display(),
                bytes.len()
            ));
        }
        let got_crc = crc32(&bytes);
        if got_crc != want_crc {
            return Err(format!(
                "{} CRC {got_crc:#010x} does not match the committed {want_crc:#010x}",
                path.display()
            ));
        }
        if path == &feed_path {
            fed_bytes = SnapshotFile::from_vec(bytes)
                .and_then(|sidecar| FeedMeta::read(&sidecar))
                .map_or(0, |meta| meta.fed_bytes);
        }
    }
    Ok(fed_bytes)
}

/// Park whatever remains of a session's eviction files under
/// `quarantine/` (best-effort: quarantining must never raise on top of
/// the fault that triggered it).
fn park_in_quarantine(dir: &Path, id: u64) {
    assert_table_unlocked("quarantine parking");
    let qdir = dir.join("quarantine");
    let _ = std::fs::create_dir_all(&qdir);
    for path in evict_paths(dir, id) {
        if path.exists() {
            let _ = std::fs::rename(&path, qdir.join(path.file_name().unwrap_or_default()));
        }
    }
}

impl SessionManager {
    /// An empty table with the given admission envelope, after a
    /// recovery sweep of `evict_dir`.
    ///
    /// The sweep deletes orphaned temporaries, then groups the
    /// remaining `session-<id>.{snap,feed,evict}` files by id: an id
    /// whose manifest commits both data files (length + CRC) is adopted
    /// as an evicted session and rehydrates transparently on first
    /// touch; anything else — torn or corrupt bytes, a missing file, a
    /// pair whose eviction never committed — is quarantined with a
    /// typed reason, never adopted, and never a panic.  The findings
    /// are available via [`Self::recovery`].
    pub fn new(max_sessions: usize, budget_bytes: u64, evict_dir: PathBuf) -> Result<Self> {
        std::fs::create_dir_all(&evict_dir)?;
        let mut report = RecoveryReport::default();
        let mut ids = std::collections::BTreeSet::new();
        for entry in std::fs::read_dir(&evict_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") || name.ends_with(".tmp-snapshot") {
                let _ = std::fs::remove_file(entry.path());
                report.removed_tmp_files += 1;
                continue;
            }
            if let Some(rest) = name.strip_prefix("session-") {
                for suffix in [".snap", ".feed", ".evict"] {
                    if let Some(id) = rest
                        .strip_suffix(suffix)
                        .and_then(|s| s.parse::<u64>().ok())
                    {
                        ids.insert(id);
                    }
                }
            }
        }
        let mut slots = HashMap::new();
        let mut next_id = 1;
        for id in ids {
            next_id = next_id.max(id + 1);
            match verify_evicted(&evict_dir, id) {
                Ok(bytes) => {
                    slots.insert(id, Slot::Evicted { bytes });
                    report.adopted.push(id);
                }
                Err(reason) => {
                    park_in_quarantine(&evict_dir, id);
                    slots.insert(
                        id,
                        Slot::Quarantined {
                            reason: reason.clone(),
                        },
                    );
                    report.quarantined.push((id, reason));
                }
            }
        }
        Ok(Self {
            table: Mutex::new(Table {
                slots,
                next_id,
                clock: 0,
                max_sessions: max_sessions.max(1),
                budget_bytes,
                state_bytes: 0,
                leaving_bytes: 0,
                stats: ServerStats::default(),
            }),
            settled: Condvar::new(),
            evict_dir,
            recovery: report,
        })
    }

    /// What the startup recovery sweep found.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    fn lock(&self) -> Locked<'_> {
        Locked::new(self.table.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Evict `victims` (slots already marked `Evicting`) with the table
    /// lock released, then commit them all — and release the `held`
    /// reservation bytes they made room for — in one lock hold, so a
    /// waiter wakes to a settled transition.
    ///
    /// A victim whose eviction fails is put back live and fully usable —
    /// an eviction failure loses nothing — and the first error is
    /// returned.  A *real* error also cleans up whatever partial files
    /// the attempt left (an uncommitted pair is garbage); an injected
    /// fault deliberately leaves them, because it is simulating a crash
    /// and the next startup's recovery sweep is what gets tested against
    /// that debris.
    fn evict(&self, victims: Victims, held: u64) -> Result<()> {
        if victims.is_empty() {
            return Ok(());
        }
        let written: Vec<_> = victims
            .into_iter()
            .map(|mut session| {
                let [snap, feed, manifest] = evict_paths(&self.evict_dir, session.id());
                let written = session.evict_to(&snap, &feed, &manifest);
                if let Err(e) = &written {
                    if !fault::is_injected(e) {
                        for path in [
                            &snap,
                            &feed,
                            &manifest,
                            &manifest.with_extension("evict.tmp"),
                        ] {
                            let _ = std::fs::remove_file(path);
                        }
                    }
                }
                (session, written)
            })
            .collect();
        let mut outcome = Ok(());
        let mut gone = Vec::new();
        let mut table = self.lock();
        table.state_bytes = table.state_bytes.saturating_sub(held);
        for (session, written) in written {
            let (id, bytes) = (session.id(), session.state_bytes());
            table.leaving_bytes -= bytes;
            match written {
                Ok(()) => {
                    table.slots.insert(id, Slot::Evicted { bytes });
                    table.state_bytes = table.state_bytes.saturating_sub(bytes);
                    table.stats.evictions += 1;
                    gone.push(session);
                }
                Err(e) => {
                    table.slots.insert(id, Slot::Live(session));
                    if outcome.is_ok() {
                        outcome = Err(e);
                    }
                }
            }
        }
        drop(table);
        self.settled.notify_all();
        drop(gone);
        outcome
    }

    /// Make room for `incoming` more bytes, evicting idle sessions LRU
    /// first; typed [`LinkageError::OverBudget`] when the budget cannot
    /// be met.
    pub fn reserve_bytes(&self, incoming: u64) -> Result<()> {
        let (victims, admitted, held) = {
            let mut table = self.lock();
            let (victims, admitted) = table.make_room(0, incoming);
            // Hold the room while the victims are written, so another
            // reservation cannot pass on it in the meantime.
            let held = if admitted.is_ok() && !victims.is_empty() {
                incoming
            } else {
                0
            };
            table.state_bytes += held;
            (victims, admitted, held)
        };
        self.evict(victims, held)?;
        admitted
    }

    /// Admit a new session.  Typed [`LinkageError::Busy`] when the live
    /// cap is reached and nothing idle can be evicted.
    pub fn open(&self, config: PipelineConfig, fingerprint: u32) -> Result<u64> {
        let declared = config.fingerprint();
        if declared != fingerprint {
            return Err(LinkageError::protocol(format!(
                "config fingerprint mismatch: client sent {fingerprint:#010x}, decoded \
                 config fingerprints as {declared:#010x} — client and server disagree \
                 about the config codec"
            )));
        }
        let mut session = Box::new(Session::build(0, config, fingerprint)?);
        let (victims, claimed) = {
            let mut table = self.lock();
            let (victims, admitted) = table.make_room(1, 0);
            // Claim the room and the id before the victims land, so a
            // concurrent admission cannot take either.
            let claimed = admitted.map(|()| {
                let id = table.next_id;
                table.next_id += 1;
                table.slots.insert(id, Slot::Taken);
                id
            });
            (victims, claimed)
        };
        let evicted = self.evict(victims, 0);
        let mut table = self.lock();
        let id = match (claimed, evicted) {
            (Ok(id), Ok(())) => id,
            (Ok(id), Err(e)) => {
                table.slots.remove(&id);
                drop(table);
                return Err(e);
            }
            (Err(_), Err(e)) | (Err(e), Ok(())) => {
                drop(table);
                return Err(e);
            }
        };
        session.id = id;
        session.last_touch = table.tick();
        table.slots.insert(id, Slot::Live(session));
        table.stats.opened += 1;
        Ok(id)
    }

    /// Check a session out for the duration of a request, rehydrating it
    /// from disk if it was evicted — which, like [`Self::open`], first
    /// evicts LRU idle sessions until it fits under the cap and its bytes
    /// under the budget (typed [`LinkageError::Busy`] /
    /// [`LinkageError::OverBudget`] when nothing is evictable).  While
    /// checked out, other requests for the same session are rejected
    /// `Busy`; while it is being evicted or rehydrated, they wait.
    pub fn checkout(&self, id: u64) -> Result<Box<Session>> {
        let mut table = self.lock();
        let (bytes, victims) = loop {
            match table.slots.get(&id) {
                None => {
                    return Err(LinkageError::unknown_session(format!(
                        "session {id} does not exist (never opened, closed, or lost)"
                    )))
                }
                Some(Slot::Quarantined { reason }) => {
                    return Err(LinkageError::quarantined(format!(
                        "session {id} is quarantined: {reason}"
                    )))
                }
                Some(Slot::Taken) => {
                    table.stats.rejected_busy += 1;
                    return Err(LinkageError::busy(format!(
                        "session {id} is processing another request"
                    )));
                }
                Some(Slot::Evicting | Slot::Rehydrating) => table = table.wait(&self.settled),
                Some(Slot::Live(_)) => {
                    let touch = table.tick();
                    let Some(Slot::Live(mut session)) = table.slots.insert(id, Slot::Taken) else {
                        unreachable!("slot {id} was just seen live");
                    };
                    session.last_touch = touch;
                    return Ok(session);
                }
                Some(Slot::Evicted { bytes }) => {
                    let bytes = *bytes;
                    let (victims, admitted) = table.make_room(1, bytes);
                    if let Err(rejection) = admitted {
                        drop(table);
                        self.evict(victims, 0)?;
                        return Err(rejection);
                    }
                    table.slots.insert(id, Slot::Rehydrating);
                    table.state_bytes += bytes;
                    break (bytes, victims);
                }
            }
        };
        drop(table);

        let rehydrated = match self.evict(victims, 0) {
            Ok(()) => {
                let [snap, feed, manifest] = evict_paths(&self.evict_dir, id);
                Session::rehydrate(id, &snap, &feed, &manifest)
            }
            Err(e) => {
                // No room after all: the session stays on disk untouched.
                let mut table = self.lock();
                table.slots.insert(id, Slot::Evicted { bytes });
                table.state_bytes = table.state_bytes.saturating_sub(bytes);
                drop(table);
                self.settled.notify_all();
                return Err(e);
            }
        };
        let outcome = match rehydrated {
            Ok(session) => {
                let mut table = self.lock();
                table.slots.insert(id, Slot::Taken);
                table.state_bytes = table.state_bytes.saturating_sub(bytes) + session.state_bytes();
                table.stats.rehydrations += 1;
                Ok(Box::new(session))
            }
            Err(e) => {
                // The pair is unusable (it verified at sweep time, so
                // this is new damage or an injected fault).  Leaving the
                // slot Evicted would retry the same broken bytes forever;
                // quarantine it.
                let reason = e.to_string();
                park_in_quarantine(&self.evict_dir, id);
                let mut table = self.lock();
                table.slots.insert(
                    id,
                    Slot::Quarantined {
                        reason: reason.clone(),
                    },
                );
                table.state_bytes = table.state_bytes.saturating_sub(bytes);
                Err(LinkageError::quarantined(format!(
                    "session {id} failed rehydration and was quarantined: {reason}"
                )))
            }
        };
        self.settled.notify_all();
        outcome
    }

    /// Return a checked-out session, folding `delta` bytes into the
    /// accounting (positive after a feed, negative after a finish).
    ///
    /// Two requests can each pass [`Self::reserve_bytes`] on the same
    /// headroom and together overshoot the budget; the next reservation
    /// evicts to repay it.
    pub fn checkin(&self, mut session: Box<Session>, delta: i64) {
        let mut table = self.lock();
        session.last_touch = table.tick();
        if session.freshly_done() {
            table.stats.finished += 1;
        }
        table.state_bytes = table.state_bytes.saturating_add_signed(delta);
        table.slots.insert(session.id(), Slot::Live(session));
    }

    /// Drop a checked-out session that errored mid-request: its engine
    /// state is unusable, so the slot is released rather than checked
    /// back in.
    pub fn discard(&self, session: Box<Session>) {
        let mut table = self.lock();
        table.slots.remove(&session.id());
        table.state_bytes = table.state_bytes.saturating_sub(session.state_bytes());
        table.stats.closed += 1;
        drop(table);
        drop(session);
    }

    /// The `CLOSE` request: drop the session wherever it lives.  An
    /// evicted session is closed by deleting its files — no pointless
    /// rehydration.  A session being evicted or rehydrated is waited for.
    pub fn close(&self, id: u64) -> Result<()> {
        let mut table = self.lock();
        loop {
            match table.slots.get(&id) {
                None => {
                    return Err(LinkageError::unknown_session(format!(
                        "session {id} does not exist (never opened, closed, or lost)"
                    )))
                }
                Some(Slot::Taken) => {
                    table.stats.rejected_busy += 1;
                    return Err(LinkageError::busy(format!(
                        "session {id} is processing another request"
                    )));
                }
                Some(Slot::Evicting | Slot::Rehydrating) => table = table.wait(&self.settled),
                Some(_) => break,
            }
        }
        let slot = table.slots.remove(&id);
        table.stats.closed += 1;
        if let Some(Slot::Live(session)) = &slot {
            table.state_bytes = table.state_bytes.saturating_sub(session.state_bytes());
        }
        drop(table);
        match slot {
            // CLOSE is how a client discards a quarantined session:
            // delete its parked remains (best-effort — a poisoned
            // in-memory session has none).
            Some(Slot::Quarantined { .. }) => {
                let qdir = self.evict_dir.join("quarantine");
                for path in evict_paths(&qdir, id) {
                    let _ = std::fs::remove_file(path);
                }
                Ok(())
            }
            Some(Slot::Evicted { .. }) => {
                let [snap, feed, manifest] = evict_paths(&self.evict_dir, id);
                remove_committed(&manifest, &snap, &feed)
            }
            _ => Ok(()),
        }
    }

    /// Count a `Busy` rejection raised outside the manager (accept
    /// queue, shutdown gate).
    pub fn count_busy(&self) {
        self.lock().stats.rejected_busy += 1;
    }

    /// Count a worker panic that escaped the request boundary (the
    /// connection died with it; the worker itself was respawned).
    pub fn count_worker_panic(&self) {
        self.lock().stats.worker_panics += 1;
    }

    /// A worker panicked while holding session `id` checked out: the
    /// `Box<Session>` died with the unwound stack, so the in-memory
    /// state is gone.  Convert the `Taken` slot into a quarantined one
    /// (no files — there is nothing durable to park) and release the
    /// session's bytes, which unwound with it.
    pub fn quarantine_poisoned(&self, id: u64, prior_bytes: u64, reason: impl std::fmt::Display) {
        let reason = reason.to_string();
        let mut table = self.lock();
        table.slots.insert(id, Slot::Quarantined { reason });
        table.state_bytes = table.state_bytes.saturating_sub(prior_bytes);
        table.stats.worker_panics += 1;
    }

    /// Snapshot every live unfinished session to the eviction directory
    /// (graceful shutdown).  Returns how many were persisted.
    pub fn evict_all(&self) -> Result<usize> {
        let mut persisted = 0;
        loop {
            // One victim per lock hold: the eviction itself runs unlocked.
            let victim = self.lock().take_victim();
            let Some(victim) = victim else {
                return Ok(persisted);
            };
            self.evict(vec![victim], 0)?;
            persisted += 1;
        }
    }

    /// The current counters.
    pub fn stats(&self) -> ServerStats {
        self.lock().stats()
    }
}
