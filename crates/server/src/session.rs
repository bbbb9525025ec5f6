//! Sessions and the [`SessionManager`]: per-session byte accounting, a
//! global state-bytes budget, LRU eviction of idle sessions to disk and
//! transparent rehydration.
//!
//! A **session** wraps the [`MatchStream`] of an incrementally fed
//! [`Pipeline`] (serial or sharded — the manager only sees the boxed
//! engine behind it).  The stream owns the session's input: what it
//! consumed, the records fed but not yet in an epoch, and whether the
//! input ended.  Eviction writes the stream's snapshot
//! ([`MatchStream::snapshot_builder`], whose `INPUT` section holds the
//! pending records and the ended flag) plus one server section, `BIND`
//! (id, fingerprint, fed bytes, kinds digest, configuration), as one file,
//! `session-<id>.snap`.  Rehydration reads that file once, re-declares
//! the pipeline from `BIND` and hands the container to
//! [`Pipeline::resume_from`]; the stream then yields exactly the events
//! the evicted session had not yet delivered.
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
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use linkage::api::{MatchEvent, MatchStream, Pipeline, PipelineConfig};
use linkage::types::fault;
use linkage::types::snapshot::{crc32, kind, Decoder, Encoder, SnapshotFile};
use linkage::types::{LinkageError, Result, SidedRecord};

use crate::proto::{wire_event, WireEvent};

/// Section kind of the server's `BIND` section, the last in an eviction
/// file: session id, configuration fingerprint, fed bytes, a digest of
/// the other sections' kinds, configuration.
/// Outside the snapshot container's own registry on purpose, and unlike
/// any kind an earlier build wrote.
const BIND_KIND: u32 = 68;

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

/// Session `id`'s eviction file in `dir`.
fn evict_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("session-{id}.snap"))
}

/// The temporary sibling an eviction file is written to before its
/// rename commits it.
fn tmp_path(path: &Path) -> PathBuf {
    path.with_extension("snap.tmp")
}

/// Commit `bytes` as `path`: write a temporary sibling, fsync it, rename
/// it over `path`, fsync the directory.  The rename is the commit point,
/// so a crash leaves no file, a temporary (swept at startup) or the
/// committed file.  If the directory fsync fails the file is removed
/// again: the commit may not be durable, and the caller keeps the
/// session live.
///
/// Failpoints (`--features fault`): `evict.snap` tears the temporary
/// file at the armed byte offset, `evict.fsync` fails its fsync and
/// `evict.dirsync` the directory's.  An injected fault leaves on disk
/// exactly what a crash at that point would.
fn write_committed(path: &Path, bytes: &[u8]) -> Result<()> {
    use std::io::Write as _;
    assert_table_unlocked("eviction file write");
    let tmp = tmp_path(path);
    let mut file = std::fs::File::create(&tmp)?;
    if let Some(cut) = fault::fires("evict.snap") {
        file.write_all(&bytes[..(cut as usize).min(bytes.len())])?;
        let _ = file.sync_all();
        return Err(fault::injected("evict.snap"));
    }
    file.write_all(bytes)?;
    if fault::fires("evict.fsync").is_some() {
        return Err(fault::injected("evict.fsync"));
    }
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    let synced = if fault::fires("evict.dirsync").is_some() {
        Err(fault::injected("evict.dirsync"))
    } else {
        let dir = path
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        std::fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(LinkageError::from)
    };
    if synced.is_err() {
        let _ = std::fs::remove_file(path);
    }
    synced
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

/// An eviction file's [`BIND_KIND`] section: what the server keeps of a
/// session beside its stream.
struct Bind {
    fingerprint: u32,
    fed_bytes: u64,
    config: PipelineConfig,
}

/// CRC-32 over section `kinds` (little-endian `u32`s, in table order).
/// The container checks each payload's CRC and the table's offsets and
/// lengths but not its kinds; `BIND` carries this digest of the kinds of
/// the sections before it, so a damaged kind is caught at the sweep.
fn kinds_digest(kinds: impl Iterator<Item = u32>) -> u32 {
    crc32(&kinds.flat_map(u32::to_le_bytes).collect::<Vec<u8>>())
}

impl Bind {
    /// `session`'s section, to follow sections of the given `kinds`.
    fn write(session: &Session, kinds: impl Iterator<Item = u32>) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(session.id);
        e.put_u32(session.fingerprint);
        e.put_u64(session.fed_bytes);
        e.put_u32(kinds_digest(kinds));
        crate::proto::encode_config(&mut e, &session.config);
        e.finish()
    }

    /// Decode the section of `file` (read from `path`) and check that it
    /// is the file's last section, that its digest matches the kinds of
    /// the sections before it, that it binds session `id` and that its
    /// configuration has its fingerprint.
    fn read(file: &SnapshotFile, path: &Path, id: u64) -> Result<Self> {
        let sections: Vec<_> = file.sections().collect();
        let Some(((BIND_KIND, section), stream)) = sections.split_last() else {
            return Err(LinkageError::snapshot(format!(
                "{} does not end in a BIND section: not a session eviction",
                path.display()
            )));
        };
        let mut d = Decoder::new(section, "BIND");
        let bound = d.get_u64()?;
        let fingerprint = d.get_u32()?;
        let fed_bytes = d.get_u64()?;
        let digest = d.get_u32()?;
        let bind = Self {
            fingerprint,
            fed_bytes,
            config: crate::proto::decode_config(&mut d)?,
        };
        d.finish()?;
        let actual = kinds_digest(stream.iter().map(|(kind, _)| *kind));
        if digest != actual {
            return Err(LinkageError::snapshot(format!(
                "{}: the section kinds digest to {actual:#010x}, BIND recorded \
                 {digest:#010x}",
                path.display()
            )));
        }
        if bound != id {
            return Err(LinkageError::snapshot(format!(
                "{} is bound to session {bound}, not to session {id}",
                path.display()
            )));
        }
        if bind.config.fingerprint() != bind.fingerprint {
            return Err(LinkageError::snapshot(format!(
                "{}: the bound configuration does not have the bound fingerprint \
                 {:#010x}",
                path.display(),
                bind.fingerprint
            )));
        }
        Ok(bind)
    }
}

/// One live linkage session.
pub struct Session {
    id: u64,
    config: PipelineConfig,
    fingerprint: u32,
    stream: MatchStream,
    /// [`record_bytes`] of every record fed so far — what the session
    /// holds against the budget until it finishes.
    fed_bytes: u64,
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
            .field("fed", &self.fed())
            .field("fin", &self.stream.input_ended())
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
    fn new(id: u64, config: PipelineConfig, fingerprint: u32, stream: MatchStream) -> Self {
        Self {
            id,
            config,
            fingerprint,
            stream,
            fed_bytes: 0,
            done: false,
            done_counted: false,
            last_touch: 0,
        }
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

    /// Total records fed so far: those the engine consumed plus those
    /// pending.
    pub fn fed(&self) -> u64 {
        self.stream.consumed() + self.stream.pending_input().len() as u64
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
        self.fed_bytes += added;
        Ok(added)
    }

    /// Refuse, whole, a batch that the client got wrong, before anything
    /// of it is fed: a non-empty batch after `FIN`, or a record whose
    /// key column (`config.keys[side]`) holds no string.  A refused batch
    /// leaves the session exactly as it was.
    pub(crate) fn check_feed(&self, records: &[SidedRecord]) -> Result<()> {
        if self.stream.input_ended() && !records.is_empty() {
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
            let next = if self.stream.input_ended() {
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

    /// Write this session to `path` as one eviction file: the stream's
    /// snapshot plus the server's `BIND` section, written to a temporary
    /// sibling, fsynced, renamed over `path`, and the directory fsynced
    /// (`docs/server.md`, "Eviction").  Only unfinished sessions are
    /// evictable.
    ///
    /// On success the session object is unchanged (the caller decides
    /// whether to drop it); on error the caller keeps a fully usable
    /// in-memory session.
    pub fn evict_into(&mut self, path: &Path) -> Result<()> {
        if self.done {
            return Err(LinkageError::snapshot(
                "a finished session has nothing to evict",
            ));
        }
        let mut snap = self.stream.snapshot_builder()?;
        snap.push_section(BIND_KIND, Bind::write(self, snap.kinds()));
        write_committed(path, &snap.to_bytes())
    }

    /// [`Self::evict_into`] `snap_path`, for callers of the earlier
    /// three-file signature: the other two paths are not written.
    pub fn evict_to(&mut self, snap_path: &Path, _feed: &Path, _manifest: &Path) -> Result<()> {
        self.evict_into(snap_path)
    }

    /// Rebuild session `id` from the file [`Self::evict_into`] wrote:
    /// read and verify it once, check that its `BIND` section names `id`,
    /// re-declare the pipeline from the bound configuration and resume
    /// the stream from the container — pending input and ended flag
    /// included.  The file is deleted on success.
    ///
    /// Failpoint (`--features fault`): `rehydrate.read` fails the read
    /// before the file is touched.
    pub fn rehydrate_from(id: u64, path: &Path) -> Result<Self> {
        assert_table_unlocked("eviction file read");
        if fault::fires("rehydrate.read").is_some() {
            return Err(fault::injected("rehydrate.read"));
        }
        let file = SnapshotFile::read_from(path)?;
        let Bind {
            fingerprint,
            fed_bytes,
            config,
        } = Bind::read(&file, path, id)?;
        let stream = Pipeline::builder()
            .config(config.clone())
            .session()?
            .resume_from(&file)?;
        std::fs::remove_file(path)?;
        let mut session = Self::new(id, config, fingerprint, stream);
        session.fed_bytes = fed_bytes;
        Ok(session)
    }

    /// [`Self::rehydrate_from`] `snap_path`, for callers of the earlier
    /// three-file signature: the other two paths are not read.
    pub fn rehydrate(id: u64, snap_path: &Path, _feed: &Path, _manifest: &Path) -> Result<Self> {
        Self::rehydrate_from(id, snap_path)
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
    /// Sessions adopted as evicted: an eviction file whose container
    /// parses and verifies and whose `BIND` section decodes and names it.
    pub adopted: Vec<u64>,
    /// Sessions quarantined, with the reason: torn or corrupt bytes, a
    /// file that is not a session eviction, or an earlier build's
    /// three-file eviction.
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

/// Check session `id`'s eviction file: the container must parse and
/// verify, an `INPUT` section be there, and its last section be a `BIND`
/// that decodes, digests the other sections' kinds and names `id`.  Any shortfall is the quarantine reason.  On
/// success, returns the bytes the session charges against the budget.
fn verify_evicted(dir: &Path, id: u64) -> std::result::Result<u64, String> {
    let path = evict_path(dir, id);
    let file = SnapshotFile::read_from(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if file.try_section(kind::INPUT as u32).is_none() {
        return Err(format!(
            "{} has no INPUT section: not a session snapshot",
            path.display()
        ));
    }
    let bind = Bind::read(&file, &path, id).map_err(|e| e.to_string())?;
    Ok(bind.fed_bytes)
}

/// The files named `session-<id>.*` in `dir`.
fn files_of(dir: &Path, id: u64) -> Vec<PathBuf> {
    let prefix = format!("session-{id}.");
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|entry| entry.file_name().to_string_lossy().starts_with(&prefix))
        .map(|entry| entry.path())
        .collect()
}

/// Park whatever remains of a session's eviction under `quarantine/`
/// (best-effort: quarantining must never raise on top of the fault that
/// triggered it).
fn park_in_quarantine(dir: &Path, id: u64) {
    assert_table_unlocked("quarantine parking");
    let qdir = dir.join("quarantine");
    let _ = std::fs::create_dir_all(&qdir);
    for path in files_of(dir, id) {
        let _ = std::fs::rename(&path, qdir.join(path.file_name().unwrap_or_default()));
    }
}

impl SessionManager {
    /// An empty table with the given admission envelope, after a
    /// recovery sweep of `evict_dir`.
    ///
    /// The sweep deletes orphaned temporaries, then checks every
    /// `session-<id>.snap`: a file whose container parses and verifies,
    /// whose `BIND` section decodes and names `<id>`, and which has an
    /// `INPUT` section is adopted as an evicted session and rehydrates
    /// transparently on first touch; anything else is
    /// quarantined with a reason, never adopted, and never a panic.  An
    /// earlier build's three-file eviction (`.snap`, `.feed`, `.evict`)
    /// is quarantined whole, its files parked for that build to drain.
    /// The findings are available via [`Self::recovery`].
    pub fn new(max_sessions: usize, budget_bytes: u64, evict_dir: PathBuf) -> Result<Self> {
        std::fs::create_dir_all(&evict_dir)?;
        let mut report = RecoveryReport::default();
        // Per id: whether a `.feed` or `.evict` file of the earlier
        // three-file layout is there.
        let mut ids = BTreeMap::new();
        for entry in std::fs::read_dir(&evict_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") || name.ends_with(".tmp-snapshot") {
                let _ = std::fs::remove_file(entry.path());
                report.removed_tmp_files += 1;
                continue;
            }
            let Some((id, suffix)) = name
                .strip_prefix("session-")
                .and_then(|rest| rest.split_once('.'))
            else {
                continue;
            };
            if let (Ok(id), "snap" | "feed" | "evict") = (id.parse::<u64>(), suffix) {
                *ids.entry(id).or_insert(false) |= suffix != "snap";
            }
        }
        let mut slots = HashMap::new();
        let mut next_id = 1;
        for (id, three_file) in ids {
            next_id = next_id.max(id + 1);
            let verified = if three_file {
                Err(
                    "a three-file eviction (.snap, .feed, .evict) written by an earlier \
                     build: this build reads one file per session; the earlier build can \
                     drain the parked files"
                        .to_string(),
                )
            } else {
                verify_evicted(&evict_dir, id)
            };
            match verified {
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
    /// returned.  A *real* error also removes the temporary file the
    /// attempt left; an injected fault deliberately leaves it, because it
    /// is simulating a crash and the next startup's recovery sweep is
    /// what gets tested against that debris.
    fn evict(&self, victims: Victims, held: u64) -> Result<()> {
        if victims.is_empty() {
            return Ok(());
        }
        let written: Vec<_> = victims
            .into_iter()
            .map(|mut session| {
                let path = evict_path(&self.evict_dir, session.id());
                let written = session.evict_into(&path);
                if written.as_ref().is_err_and(|e| !fault::is_injected(e)) {
                    let _ = std::fs::remove_file(tmp_path(&path));
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
        let stream = Pipeline::builder()
            .config(config.clone())
            .session()?
            .run()?;
        let mut session = Box::new(Session::new(0, config, fingerprint, stream));
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
            Ok(()) => Session::rehydrate_from(id, &evict_path(&self.evict_dir, id)),
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
                // The file is unusable (it verified at sweep time, or was
                // written since, so this is new damage, a defect the
                // sweep does not decode, or an injected fault).  Leaving the
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
                for path in files_of(&self.evict_dir.join("quarantine"), id) {
                    let _ = std::fs::remove_file(path);
                }
                Ok(())
            }
            Some(Slot::Evicted { .. }) => {
                assert_table_unlocked("eviction file removal");
                Ok(std::fs::remove_file(evict_path(&self.evict_dir, id))?)
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
