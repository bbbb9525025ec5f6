//! Sessions and the [`SessionManager`]: per-session byte accounting, a
//! global state-bytes budget, LRU eviction of idle sessions to disk and
//! transparent rehydration.
//!
//! A **session** wraps an incrementally fed [`Pipeline`] (serial or
//! sharded — the manager only sees the boxed engine behind a
//! [`MatchStream`]) and its [`SessionInput`].  Eviction splits the
//! session where the engine stands: everything it consumed goes to disk
//! inside the engine state ([`MatchStream::snapshot_builder`], under
//! the bit-identical-resume contract), and the sidecar file carries
//! only what the snapshot cannot — the configuration, the input's
//! absolute position and the few records pushed but not yet consumed.
//! Rehydration re-declares the pipeline, positions a fresh input there
//! and hands the verified snapshot to [`Pipeline::resume_from`]; the
//! stream then yields exactly the events the evicted session had not
//! yet delivered.
//!
//! Admission control: the manager enforces a live-session cap and a
//! global state-bytes budget.  Both are relieved by evicting the least
//! recently used *idle* session (not checked out by a worker, not yet
//! finished); when nothing can be evicted the request is rejected with
//! a typed [`LinkageError::Busy`] / [`LinkageError::OverBudget`].

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use linkage::api::{MatchEvent, MatchStream, Pipeline, PipelineConfig, SessionInput};
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
/// pushed into the session but not yet consumed by its engine, in push
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

/// Write `bytes` to `path` and fsync, honoring two failpoints: `site`
/// tears the write at the armed byte offset, and `evict.fsync` fails
/// the durability barrier after a complete write.  An injected tear
/// leaves the partial file on disk — exactly the state a real crash at
/// that byte would leave.
fn write_evict_file(path: &Path, bytes: &[u8], site: &str) -> Result<()> {
    use std::io::Write as _;
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

/// One live linkage session.
pub struct Session {
    id: u64,
    config: PipelineConfig,
    fingerprint: u32,
    stream: MatchStream,
    input: SessionInput,
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
            .field("fed", &self.input.pushed())
            .field("fin", &self.fin)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl Session {
    fn build(id: u64, config: PipelineConfig, fingerprint: u32) -> Result<Self> {
        let (pipeline, input) = Pipeline::builder().config(config.clone()).session()?;
        let stream = pipeline.run()?;
        Ok(Self {
            id,
            config,
            fingerprint,
            stream,
            input,
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
        self.input.pushed()
    }

    /// Whether the input was declared complete.
    pub fn is_fin(&self) -> bool {
        self.fin
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

    /// Append a batch of records to the session's input and advance the
    /// engine over the newly available prefix.  Returns the bytes the
    /// batch added to the session's accounting.
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
        if self.fin {
            return Err(LinkageError::protocol(
                "FEED after FIN: the session input is complete",
            ));
        }
        let mut added = 0u64;
        for record in records {
            added += record_bytes(&record);
            self.input.push_sided(record)?;
        }
        self.fed_bytes += added;
        self.stream.advance(self.input.pushed())?;
        Ok(added)
    }

    /// Declare the input complete.  The remaining events (through
    /// `Finished`) become drainable via [`Self::poll`].
    pub fn fin(&mut self) {
        if !self.fin {
            self.input.finish();
            self.fin = true;
        }
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
    /// manifest —
    /// carrying both files' lengths and CRCs — to a temp sibling and
    /// renaming it into place.  The rename is the single commit point:
    /// a crash anywhere earlier leaves data files without a manifest,
    /// which the startup recovery sweep quarantines instead of adopting.
    ///
    /// Failpoints (`--features fault`): `evict.snap`, `evict.feed` and
    /// `evict.manifest` tear the respective write at the armed byte
    /// offset; `evict.fsync` fails the durability barrier.
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
        meta.put_u64(self.input.pushed());
        meta.put_u64(self.fed_bytes);
        builder.push_section(FEED_META_KIND, meta.finish());
        let pending = self.input.buffered_records();
        let mut queue = Encoder::new();
        queue.put_u32(pending.len() as u32);
        for record in &pending {
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
        Ok(())
    }

    /// Rebuild a session from the files written by [`Self::evict_to`]:
    /// re-declare the pipeline from the sidecar's config, position a
    /// fresh session input where the evicted one stood (absolute pushed
    /// count, pending records queued) and resume the engine from the
    /// snapshot, which is read, verified and decoded exactly once.  The
    /// manifest is deleted first (un-committing the pair), then the data
    /// files, on success.
    ///
    /// The snapshot's [`EVICT_BIND_KIND`] section is cross-checked
    /// against the sidecar's declared id and fingerprint; a mismatched
    /// pair is a typed [`LinkageError::Snapshot`] naming both files.
    pub fn rehydrate(
        id: u64,
        snap_path: &Path,
        feed_path: &Path,
        manifest_path: &Path,
    ) -> Result<Self> {
        let sidecar = SnapshotFile::read_from(feed_path)?;
        let mut meta = Decoder::new(sidecar.section(FEED_META_KIND)?, "FEED_META");
        let config = crate::proto::decode_config(&mut meta)?;
        let fingerprint = meta.get_u32()?;
        let fin = meta.get_bool()?;
        let pushed = meta.get_u64()?;
        let fed_bytes = meta.get_u64()?;
        meta.finish()?;

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

        let (pipeline, input) = Pipeline::builder().config(config.clone()).session()?;
        input.restore_position(consumed, pending)?;
        if fin {
            input.finish();
        }
        let stream = pipeline.resume_from(&snap_file)?;
        // Un-commit before removing the data: a crash between these
        // removes leaves an uncommitted remainder the recovery sweep
        // quarantines, never a committed pair with a file missing.
        std::fs::remove_file(manifest_path)?;
        std::fs::remove_file(snap_path)?;
        std::fs::remove_file(feed_path)?;
        Ok(Self {
            id,
            config,
            fingerprint,
            stream,
            input,
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
    /// Checked out by a worker processing a request.
    Taken,
    /// On disk under the eviction directory.
    Evicted,
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
    /// Sessions currently in memory (idle or checked out).
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
    /// Estimated resident session bytes right now.
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

/// The session table: slots, accounting, admission and eviction.
///
/// One instance lives behind a mutex in the server; workers check
/// sessions *out* for the duration of a request (so feeding one session
/// never blocks requests on another) and check them back in with the
/// accounting delta.
pub struct SessionManager {
    slots: HashMap<u64, Slot>,
    next_id: u64,
    clock: u64,
    state_bytes: u64,
    max_sessions: usize,
    budget_bytes: u64,
    evict_dir: PathBuf,
    stats: ServerStats,
    recovery: RecoveryReport,
}

/// Check a session's eviction against its manifest: the manifest must
/// parse, name this id, and both data files must match its declared
/// length and CRC.  Any shortfall is the quarantine reason.
fn verify_evicted(dir: &Path, id: u64) -> std::result::Result<(), String> {
    let manifest_path = dir.join(format!("session-{id}.evict"));
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
    for (name, want_len, want_crc) in [("snap", snap_len, snap_crc), ("feed", feed_len, feed_crc)] {
        let path = dir.join(format!("session-{id}.{name}"));
        let bytes =
            std::fs::read(&path).map_err(|e| format!("{} unreadable: {e}", path.display()))?;
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
    }
    Ok(())
}

/// Park whatever remains of a session's eviction files under
/// `quarantine/` (best-effort: quarantining must never raise on top of
/// the fault that triggered it).
fn park_in_quarantine(dir: &Path, id: u64) {
    let qdir = dir.join("quarantine");
    let _ = std::fs::create_dir_all(&qdir);
    for suffix in ["snap", "feed", "evict"] {
        let name = format!("session-{id}.{suffix}");
        let path = dir.join(&name);
        if path.exists() {
            let _ = std::fs::rename(&path, qdir.join(&name));
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
                Ok(()) => {
                    slots.insert(id, Slot::Evicted);
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
        let mut manager = Self {
            slots,
            next_id,
            clock: 0,
            state_bytes: 0,
            max_sessions: max_sessions.max(1),
            budget_bytes,
            evict_dir,
            stats: ServerStats::default(),
            recovery: report,
        };
        manager.stats.evicted_sessions = manager.recovery.adopted.len() as u64;
        manager.stats.quarantined_sessions = manager.recovery.quarantined.len() as u64;
        Ok(manager)
    }

    /// What the startup recovery sweep found.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    fn snap_path(&self, id: u64) -> PathBuf {
        self.evict_dir.join(format!("session-{id}.snap"))
    }

    fn feed_path(&self, id: u64) -> PathBuf {
        self.evict_dir.join(format!("session-{id}.feed"))
    }

    fn manifest_path(&self, id: u64) -> PathBuf {
        self.evict_dir.join(format!("session-{id}.evict"))
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn live_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|(_, s)| matches!(s, Slot::Live(_) | Slot::Taken))
            .count()
    }

    /// The least recently used idle (live, unfinished) session, if any.
    fn lru_idle(&self) -> Option<u64> {
        self.slots
            .iter()
            .filter_map(|(id, slot)| match slot {
                Slot::Live(s) if !s.is_done() => Some((*id, s.last_touch)),
                _ => None,
            })
            .min_by_key(|(_, touch)| *touch)
            .map(|(id, _)| id)
    }

    /// Evict the LRU idle session to disk.  `Ok(false)` when nothing is
    /// evictable.
    ///
    /// On error the session is put back live and fully usable — an
    /// eviction failure loses nothing.  A *real* error also cleans up
    /// whatever partial files the attempt left (an uncommitted pair is
    /// garbage); an injected fault deliberately leaves them, because it
    /// is simulating a crash and the next startup's recovery sweep is
    /// what gets tested against that debris.
    fn evict_one(&mut self) -> Result<bool> {
        let Some(id) = self.lru_idle() else {
            return Ok(false);
        };
        let Some(Slot::Live(mut session)) = self.slots.remove(&id) else {
            return Err(LinkageError::execution(format!(
                "session table corrupted: lru candidate {id} is not live"
            )));
        };
        let (snap, feed, manifest) = (
            self.snap_path(id),
            self.feed_path(id),
            self.manifest_path(id),
        );
        match session.evict_to(&snap, &feed, &manifest) {
            Ok(()) => {
                let bytes = session.state_bytes();
                self.slots.insert(id, Slot::Evicted);
                self.state_bytes = self.state_bytes.saturating_sub(bytes);
                self.stats.evictions += 1;
                self.stats.evicted_sessions += 1;
                self.stats.live_sessions = self.stats.live_sessions.saturating_sub(1);
                Ok(true)
            }
            Err(e) => {
                if !fault::is_injected(&e) {
                    for path in [
                        &snap,
                        &feed,
                        &manifest,
                        &manifest.with_extension("evict.tmp"),
                    ] {
                        let _ = std::fs::remove_file(path);
                    }
                }
                self.slots.insert(id, Slot::Live(session));
                Err(e)
            }
        }
    }

    /// Make room for one more live session under the cap, evicting idle
    /// sessions LRU first; typed [`LinkageError::Busy`] when the cap is
    /// reached and nothing idle can be evicted.
    fn make_room(&mut self) -> Result<()> {
        while self.live_count() >= self.max_sessions {
            if !self.evict_one()? {
                self.stats.rejected_busy += 1;
                return Err(LinkageError::busy(format!(
                    "session table full ({} live, cap {}, nothing idle to evict)",
                    self.live_count(),
                    self.max_sessions
                )));
            }
        }
        Ok(())
    }

    /// Make room for `incoming` more bytes, evicting idle sessions LRU
    /// first; typed [`LinkageError::OverBudget`] when the budget cannot
    /// be met.
    pub fn reserve_bytes(&mut self, incoming: u64) -> Result<()> {
        while self.state_bytes + incoming > self.budget_bytes {
            if !self.evict_one()? {
                self.stats.rejected_over_budget += 1;
                return Err(LinkageError::over_budget(format!(
                    "{incoming} incoming bytes would exceed the {} byte budget \
                     ({} resident, nothing idle to evict)",
                    self.budget_bytes, self.state_bytes
                )));
            }
        }
        Ok(())
    }

    /// Admit a new session.  Typed [`LinkageError::Busy`] when the live
    /// cap is reached and nothing idle can be evicted.
    pub fn open(&mut self, config: PipelineConfig, fingerprint: u32) -> Result<u64> {
        let declared = config.fingerprint();
        if declared != fingerprint {
            return Err(LinkageError::protocol(format!(
                "config fingerprint mismatch: client sent {fingerprint:#010x}, decoded \
                 config fingerprints as {declared:#010x} — client and server disagree \
                 about the config codec"
            )));
        }
        self.make_room()?;
        let id = self.next_id;
        self.next_id += 1;
        let mut session = Session::build(id, config, fingerprint)?;
        session.last_touch = self.tick();
        self.slots.insert(id, Slot::Live(Box::new(session)));
        self.stats.opened += 1;
        self.stats.live_sessions += 1;
        Ok(id)
    }

    /// Check a session out for the duration of a request, rehydrating it
    /// from disk if it was evicted — which, like [`Self::open`], first
    /// evicts LRU idle sessions until the live count is under the cap
    /// (typed [`LinkageError::Busy`] when nothing is evictable).  While
    /// checked out, other requests for the same session are rejected
    /// `Busy`.
    pub fn checkout(&mut self, id: u64) -> Result<Box<Session>> {
        match self.slots.get(&id) {
            None => Err(LinkageError::unknown_session(format!(
                "session {id} does not exist (never opened, closed, or lost)"
            ))),
            Some(Slot::Quarantined { reason }) => Err(LinkageError::quarantined(format!(
                "session {id} is quarantined: {reason}"
            ))),
            Some(Slot::Taken) => {
                self.stats.rejected_busy += 1;
                Err(LinkageError::busy(format!(
                    "session {id} is processing another request"
                )))
            }
            Some(Slot::Evicted) => {
                // A rehydrated session is live again: make room under
                // the cap first, exactly as `open` does.
                self.make_room()?;
                let rehydrated = Session::rehydrate(
                    id,
                    &self.snap_path(id),
                    &self.feed_path(id),
                    &self.manifest_path(id),
                );
                let session = match rehydrated {
                    Ok(session) => session,
                    Err(e) => {
                        // The pair is unusable (it verified at sweep
                        // time, so this is new damage or an injected
                        // fault).  Leaving the slot Evicted would retry
                        // the same broken bytes forever; quarantine it.
                        let reason = e.to_string();
                        park_in_quarantine(&self.evict_dir, id);
                        self.slots.insert(
                            id,
                            Slot::Quarantined {
                                reason: reason.clone(),
                            },
                        );
                        self.stats.evicted_sessions = self.stats.evicted_sessions.saturating_sub(1);
                        self.stats.quarantined_sessions += 1;
                        return Err(LinkageError::quarantined(format!(
                            "session {id} failed rehydration and was quarantined: {reason}"
                        )));
                    }
                };
                let bytes = session.state_bytes();
                self.stats.evicted_sessions = self.stats.evicted_sessions.saturating_sub(1);
                self.stats.rehydrations += 1;
                self.stats.live_sessions += 1;
                self.slots.insert(id, Slot::Taken);
                // The rehydrated bytes count against the budget again;
                // evict others if the table meanwhile filled up.
                self.state_bytes += bytes;
                while self.state_bytes > self.budget_bytes && self.evict_one()? {}
                Ok(Box::new(session))
            }
            Some(Slot::Live(_)) => match self.slots.insert(id, Slot::Taken) {
                Some(Slot::Live(mut session)) => {
                    session.last_touch = self.tick();
                    Ok(session)
                }
                _ => Err(LinkageError::execution(format!(
                    "session table corrupted: slot {id} changed under the lock"
                ))),
            },
        }
    }

    /// Return a checked-out session, folding `delta` bytes into the
    /// accounting (positive after a feed, negative after a finish).
    pub fn checkin(&mut self, mut session: Box<Session>, delta: i64) {
        let id = session.id();
        session.last_touch = self.tick();
        if session.freshly_done() {
            self.stats.finished += 1;
        }
        self.state_bytes = if delta >= 0 {
            self.state_bytes + delta as u64
        } else {
            self.state_bytes.saturating_sub((-delta) as u64)
        };
        self.slots.insert(id, Slot::Live(session));
    }

    /// Drop a checked-out session that errored mid-request: its engine
    /// state is unusable, so the slot is released rather than checked
    /// back in.
    pub fn discard(&mut self, session: Box<Session>) {
        let bytes = session.state_bytes();
        self.slots.remove(&session.id());
        self.state_bytes = self.state_bytes.saturating_sub(bytes);
        self.stats.closed += 1;
        self.stats.live_sessions = self.stats.live_sessions.saturating_sub(1);
    }

    /// The `CLOSE` request: drop the session wherever it lives.  An
    /// evicted session is closed by deleting its files — no pointless
    /// rehydration.
    pub fn close(&mut self, id: u64) -> Result<()> {
        match self.slots.get(&id) {
            None => Err(LinkageError::unknown_session(format!(
                "session {id} does not exist (never opened, closed, or lost)"
            ))),
            Some(Slot::Taken) => {
                self.stats.rejected_busy += 1;
                Err(LinkageError::busy(format!(
                    "session {id} is processing another request"
                )))
            }
            Some(Slot::Quarantined { .. }) => {
                // CLOSE is how a client discards a quarantined session:
                // delete its parked remains (best-effort — a poisoned
                // in-memory session has none) and free the slot.
                self.slots.remove(&id);
                let qdir = self.evict_dir.join("quarantine");
                for suffix in ["snap", "feed", "evict"] {
                    let _ = std::fs::remove_file(qdir.join(format!("session-{id}.{suffix}")));
                }
                self.stats.closed += 1;
                self.stats.quarantined_sessions = self.stats.quarantined_sessions.saturating_sub(1);
                Ok(())
            }
            Some(Slot::Evicted) => {
                self.slots.remove(&id);
                // Manifest first: a crash mid-close leaves uncommitted
                // leftovers the next sweep quarantines, not a committed
                // pair with a file missing.
                std::fs::remove_file(self.manifest_path(id))?;
                std::fs::remove_file(self.snap_path(id))?;
                std::fs::remove_file(self.feed_path(id))?;
                self.stats.closed += 1;
                self.stats.evicted_sessions = self.stats.evicted_sessions.saturating_sub(1);
                Ok(())
            }
            Some(Slot::Live(_)) => {
                let Some(Slot::Live(session)) = self.slots.remove(&id) else {
                    return Err(LinkageError::execution(format!(
                        "session table corrupted: slot {id} changed under the lock"
                    )));
                };
                self.state_bytes = self.state_bytes.saturating_sub(session.state_bytes());
                self.stats.closed += 1;
                self.stats.live_sessions = self.stats.live_sessions.saturating_sub(1);
                Ok(())
            }
        }
    }

    /// Count a `Busy` rejection raised outside the manager (accept
    /// queue, shutdown gate).
    pub fn count_busy(&mut self) {
        self.stats.rejected_busy += 1;
    }

    /// Count a worker panic that escaped the request boundary (the
    /// connection died with it; the worker itself was respawned).
    pub fn count_worker_panic(&mut self) {
        self.stats.worker_panics += 1;
    }

    /// A worker panicked while holding session `id` checked out: the
    /// `Box<Session>` died with the unwound stack, so the in-memory
    /// state is gone.  Convert the `Taken` slot into a quarantined one
    /// (no files — there is nothing durable to park) and release the
    /// session's bytes, which unwound with it.
    pub fn quarantine_poisoned(
        &mut self,
        id: u64,
        prior_bytes: u64,
        reason: impl std::fmt::Display,
    ) {
        self.slots.insert(
            id,
            Slot::Quarantined {
                reason: reason.to_string(),
            },
        );
        self.state_bytes = self.state_bytes.saturating_sub(prior_bytes);
        self.stats.live_sessions = self.stats.live_sessions.saturating_sub(1);
        self.stats.quarantined_sessions += 1;
        self.stats.worker_panics += 1;
    }

    /// Snapshot every live unfinished session to the eviction directory
    /// (graceful shutdown).  Returns how many were persisted.
    pub fn evict_all(&mut self) -> Result<usize> {
        let mut persisted = 0;
        while self.lru_idle().is_some() {
            self.evict_one()?;
            persisted += 1;
        }
        Ok(persisted)
    }

    /// The current counters.
    pub fn stats(&self) -> ServerStats {
        let mut stats = self.stats.clone();
        stats.state_bytes = self.state_bytes;
        stats.budget_bytes = self.budget_bytes;
        stats.max_sessions = self.max_sessions as u64;
        stats
    }
}
