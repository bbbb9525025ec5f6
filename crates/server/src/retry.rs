//! A self-healing client: retries, reconnects and session rebuilds on
//! top of the plain [`Client`].
//!
//! The [`RetryClient`] owns everything a caller would otherwise
//! hand-roll around a flaky network and a crash-prone server:
//!
//! * **Backoff** — `BUSY` / `OVER_BUDGET` rejections retry with
//!   exponential backoff and bounded, deterministically seeded jitter.
//! * **Reconnect + idempotent FEED resume** — on
//!   [`LinkageError::ConnectionLost`] the client redials and, because a
//!   lost *reply* means the request may or may not have applied, first
//!   sends an **empty** `FEED` (always legal, changes nothing) whose
//!   `FED` reply carries the session's accepted total.  The retry then
//!   sends only `&records[accepted..]`, so a replayed request can never
//!   double-insert.
//! * **Heal** — on [`LinkageError::UnknownSession`] /
//!   [`LinkageError::Quarantined`] (the server restarted without the
//!   session, or quarantined it after a panic or torn eviction files)
//!   the client discards the server-side remains with a best-effort
//!   `CLOSE`, opens a fresh session with the same config, and replays
//!   its journal — the full record sequence it has ever fed.  The match
//!   stream is deterministic (PR 7's bit-identical resume contract is
//!   the same property), so the rebuilt session re-yields every event;
//!   the client discards the prefix it already delivered and the caller
//!   observes one uninterrupted, exactly-once event stream.
//!
//! The journal makes healing possible and costs memory proportional to
//! the fed records; it is dropped when the session closes.  Callers that
//! cannot afford it should use [`Client`] and handle faults themselves.

use std::collections::HashMap;
use std::time::Duration;

use linkage::api::PipelineConfig;
use linkage::types::{LinkageError, Result, SidedRecord};

use crate::client::{Client, FeedAck};
use crate::proto::WireEvent;

/// Retry/backoff tuning for a [`RetryClient`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RetryPolicy {
    /// Give up after this many failed protocol actions for one call.
    pub max_attempts: u32,
    /// First backoff sleep; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling (before jitter).
    pub backoff_max: Duration,
    /// Per-exchange socket deadline applied to every connection.
    pub request_deadline: Duration,
    /// Seed of the deterministic jitter stream (jitter adds up to half
    /// of the current backoff step).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(200),
            request_deadline: Duration::from_secs(10),
            jitter_seed: 0x5EED,
        }
    }
}

/// Client-side state of one logical session, enough to rebuild it on a
/// server that has forgotten or poisoned it.
#[derive(Debug)]
struct Tracked {
    config: PipelineConfig,
    /// Server-side id of the current incarnation (valid when `opened`).
    server_id: u64,
    /// Whether a server-side incarnation currently exists.
    opened: bool,
    /// Records the server has confirmed accepted (journal prefix).
    acked: u64,
    /// Whether `FIN` has been acknowledged for the current incarnation.
    fin_acked: bool,
    /// A reply was lost mid-`FEED`: query the accepted total (empty
    /// `FEED`) before sending any more records.
    needs_resync: bool,
    /// Every record ever fed, in order — the replay source for heals.
    journal: Vec<SidedRecord>,
    /// The caller declared the input complete.
    fin: bool,
    /// Events already handed to the caller.
    delivered: u64,
    /// Events to silently discard after a heal (the rebuilt session
    /// re-yields the full stream; the first `skip` are re-deliveries).
    skip: u64,
    /// The caller has seen the `Finished` event.
    done: bool,
}

/// How a failed protocol action should be handled.
enum Recovery {
    /// Redial; resynchronise the accepted total before feeding more.
    Reconnect,
    /// Sleep (backoff + jitter) and retry.
    Backoff,
    /// The server-side session is gone or poisoned: rebuild it.
    Heal,
    /// Not recoverable by retrying.
    Fatal,
}

fn recovery_for(e: &LinkageError) -> Recovery {
    match e {
        LinkageError::ConnectionLost(_) => Recovery::Reconnect,
        LinkageError::Busy(_) | LinkageError::OverBudget(_) => Recovery::Backoff,
        LinkageError::UnknownSession(_) | LinkageError::Quarantined(_) => Recovery::Heal,
        _ => Recovery::Fatal,
    }
}

/// A self-healing connection to a [`LinkageServer`](crate::LinkageServer);
/// see the [module docs](self) for the recovery contract.
///
/// Handles returned by [`open`](Self::open) are client-local and stable
/// across heals (the server-side id may change; the handle never does).
#[derive(Debug)]
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    conn: Option<Client>,
    sessions: HashMap<u64, Tracked>,
    next_handle: u64,
    jitter: u64,
    reconnects: u64,
    heals: u64,
}

impl RetryClient {
    /// Create a client for `addr`.  No I/O happens here; the first
    /// request dials (and redials whenever the connection is lost).
    pub fn connect(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        let jitter = if policy.jitter_seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            policy.jitter_seed
        };
        Self {
            addr: addr.into(),
            policy,
            conn: None,
            sessions: HashMap::new(),
            next_handle: 1,
            jitter,
            reconnects: 0,
            heals: 0,
        }
    }

    /// Times a connection was (re)established.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Times a session was rebuilt from its journal.
    pub fn heals(&self) -> u64 {
        self.heals
    }

    fn dial(&mut self) -> Result<()> {
        let mut client = Client::connect(self.addr.as_str())
            .map_err(|e| LinkageError::connection_lost(format!("dial {}: {e}", self.addr)))?;
        client
            .set_deadline(Some(self.policy.request_deadline))
            .map_err(|e| LinkageError::connection_lost(e.to_string()))?;
        self.conn = Some(client);
        self.reconnects += 1;
        Ok(())
    }

    fn backoff(&mut self, consecutive_failures: u32) {
        let base = self.policy.backoff_base.as_nanos() as u64;
        let step = base
            .saturating_mul(1u64 << consecutive_failures.min(16))
            .min(self.policy.backoff_max.as_nanos() as u64);
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let jitter = if step == 0 {
            0
        } else {
            self.jitter % (step / 2 + 1)
        };
        std::thread::sleep(Duration::from_nanos(step + jitter));
    }

    fn tracked(&self, handle: u64) -> Result<&Tracked> {
        self.sessions
            .get(&handle)
            .ok_or_else(|| LinkageError::protocol(format!("unknown RetryClient handle {handle}")))
    }

    /// Mark `handle` for a rebuild and best-effort discard the old
    /// server-side incarnation (freeing quarantined remains).
    fn mark_for_heal(&mut self, handle: u64) {
        let Some(t) = self.sessions.get_mut(&handle) else {
            return;
        };
        let old_id = t.server_id;
        let was_opened = t.opened;
        t.opened = false;
        t.acked = 0;
        t.fin_acked = false;
        t.needs_resync = false;
        t.skip = t.delivered;
        self.heals += 1;
        if was_opened {
            if let Some(conn) = self.conn.as_mut() {
                if let Err(LinkageError::ConnectionLost(_)) = conn.close(old_id) {
                    self.conn = None;
                }
            }
        }
    }

    /// Drive `handle` to a synchronised state: connected, opened, the
    /// accepted total known, the whole journal fed, and `FIN` re-sent if
    /// the caller declared it.  One protocol action per iteration;
    /// every action either makes progress or consumes one failure from
    /// the attempt budget.
    fn sync(&mut self, handle: u64) -> Result<FeedAck> {
        enum Action {
            Open(Box<PipelineConfig>),
            Resync(u64),
            Feed(u64, Vec<SidedRecord>),
            Fin(u64),
            Done,
        }

        let mut failures = 0u32;
        let mut last_ack: Option<FeedAck> = None;
        let mut last_err = LinkageError::execution("retry: no attempt ran");
        loop {
            if failures >= self.policy.max_attempts.max(1) {
                return Err(last_err);
            }
            if self.conn.is_none() {
                if let Err(e) = self.dial() {
                    last_err = e;
                    failures += 1;
                    self.backoff(failures);
                    continue;
                }
            }
            let action = {
                let t = self.tracked(handle)?;
                if !t.opened {
                    Action::Open(Box::new(t.config.clone()))
                } else if t.needs_resync {
                    Action::Resync(t.server_id)
                } else if t.acked < t.journal.len() as u64 {
                    Action::Feed(t.server_id, t.journal[t.acked as usize..].to_vec())
                } else if t.fin && !t.fin_acked {
                    Action::Fin(t.server_id)
                } else {
                    Action::Done
                }
            };
            let Some(conn) = self.conn.as_mut() else {
                continue;
            };
            let feeding = matches!(action, Action::Feed(..));
            let outcome: Result<()> = match action {
                Action::Done => {
                    let t = self.tracked(handle)?;
                    return Ok(last_ack.unwrap_or(FeedAck {
                        accepted: t.acked,
                        state_bytes: 0,
                    }));
                }
                Action::Open(config) => match conn.open(&config) {
                    Ok(server_id) => {
                        let t = self.sessions.get_mut(&handle).ok_or_else(|| {
                            LinkageError::protocol(format!("unknown RetryClient handle {handle}"))
                        })?;
                        t.server_id = server_id;
                        t.opened = true;
                        Ok(())
                    }
                    Err(e) => Err(e),
                },
                Action::Resync(server_id) => match conn.feed(server_id, &[]) {
                    Ok(ack) => {
                        let t = self.sessions.get_mut(&handle).ok_or_else(|| {
                            LinkageError::protocol(format!("unknown RetryClient handle {handle}"))
                        })?;
                        t.acked = ack.accepted;
                        t.needs_resync = false;
                        last_ack = Some(ack);
                        Ok(())
                    }
                    Err(e) => Err(e),
                },
                Action::Feed(server_id, chunk) => {
                    let sent = chunk.len() as u64;
                    match conn.feed(server_id, &chunk) {
                        Ok(ack) => {
                            let t = self.sessions.get_mut(&handle).ok_or_else(|| {
                                LinkageError::protocol(format!(
                                    "unknown RetryClient handle {handle}"
                                ))
                            })?;
                            if ack.accepted < t.acked + sent {
                                return Err(LinkageError::protocol(format!(
                                    "server acked {} records after a feed of {sent} on top \
                                     of {} — a batch was lost server-side",
                                    ack.accepted, t.acked
                                )));
                            }
                            t.acked = ack.accepted;
                            last_ack = Some(ack);
                            Ok(())
                        }
                        Err(e) => Err(e),
                    }
                }
                Action::Fin(server_id) => match conn.finish(server_id) {
                    Ok(ack) => {
                        let t = self.sessions.get_mut(&handle).ok_or_else(|| {
                            LinkageError::protocol(format!("unknown RetryClient handle {handle}"))
                        })?;
                        t.fin_acked = true;
                        last_ack = Some(ack);
                        Ok(())
                    }
                    Err(e) => Err(e),
                },
            };
            if let Err(e) = outcome {
                failures += 1;
                match recovery_for(&e) {
                    Recovery::Reconnect => {
                        self.conn = None;
                        // The lost reply may have carried an ack: learn
                        // the true accepted total before feeding more.
                        if let Some(t) = self.sessions.get_mut(&handle) {
                            if t.opened {
                                t.needs_resync = true;
                            }
                        }
                    }
                    Recovery::Backoff => self.backoff(failures),
                    Recovery::Heal => self.mark_for_heal(handle),
                    Recovery::Fatal => {
                        // The server refuses a FEED whole: none of the
                        // unacked records were applied, and resending
                        // them would fail the same way forever.
                        if feeding {
                            if let Some(t) = self.sessions.get_mut(&handle) {
                                t.journal.truncate(t.acked as usize);
                            }
                        }
                        return Err(e);
                    }
                }
                last_err = e;
            }
        }
    }

    /// Open a logical session running `config`; returns a client-local
    /// handle that stays valid across reconnects and heals.
    pub fn open(&mut self, config: &PipelineConfig) -> Result<u64> {
        let handle = self.next_handle;
        self.next_handle += 1;
        self.sessions.insert(
            handle,
            Tracked {
                config: config.clone(),
                server_id: 0,
                opened: false,
                acked: 0,
                fin_acked: false,
                needs_resync: false,
                journal: Vec::new(),
                fin: false,
                delivered: 0,
                skip: 0,
                done: false,
            },
        );
        match self.sync(handle) {
            Ok(_) => Ok(handle),
            Err(e) => {
                self.sessions.remove(&handle);
                Err(e)
            }
        }
    }

    /// Feed a batch of records, retrying/resuming as needed.  The ack's
    /// `accepted` counts this client's journal, exactly-once.
    pub fn feed(&mut self, handle: u64, records: &[SidedRecord]) -> Result<FeedAck> {
        let t = self.sessions.get_mut(&handle).ok_or_else(|| {
            LinkageError::protocol(format!("unknown RetryClient handle {handle}"))
        })?;
        if t.fin && !records.is_empty() {
            return Err(LinkageError::protocol(
                "FEED after FIN: the session input is complete",
            ));
        }
        t.journal.extend_from_slice(records);
        self.sync(handle)
    }

    /// Declare the input complete (idempotent; re-sent after heals).
    pub fn finish(&mut self, handle: u64) -> Result<FeedAck> {
        let t = self.sessions.get_mut(&handle).ok_or_else(|| {
            LinkageError::protocol(format!("unknown RetryClient handle {handle}"))
        })?;
        t.fin = true;
        self.sync(handle)
    }

    /// Fetch up to `max` new events.  After a heal the rebuilt session
    /// re-yields the full stream; the already-delivered prefix is
    /// discarded here, so the caller never sees a duplicate.
    pub fn poll(&mut self, handle: u64, max: u32) -> Result<Vec<WireEvent>> {
        let mut failures = 0u32;
        let mut last_err = LinkageError::execution("retry: no attempt ran");
        loop {
            if failures >= self.policy.max_attempts.max(1) {
                return Err(last_err);
            }
            // A poll is only sound against a synchronised session (all
            // journal records fed, FIN re-sent after any heal).
            self.sync(handle)?;
            if self.tracked(handle)?.done {
                return Ok(Vec::new());
            }
            let (server_id, skip) = {
                let t = self.tracked(handle)?;
                (t.server_id, t.skip)
            };
            let want = skip.saturating_add(u64::from(max)).min(u32::MAX as u64) as u32;
            let Some(conn) = self.conn.as_mut() else {
                continue;
            };
            match conn.poll(server_id, want) {
                Ok(events) => {
                    let t = self.sessions.get_mut(&handle).ok_or_else(|| {
                        LinkageError::protocol(format!("unknown RetryClient handle {handle}"))
                    })?;
                    let skipped = (t.skip as usize).min(events.len());
                    t.skip -= skipped as u64;
                    let fresh: Vec<WireEvent> = events[skipped..].to_vec();
                    t.delivered += fresh.len() as u64;
                    if fresh.iter().any(|e| matches!(e, WireEvent::Finished(_))) {
                        t.done = true;
                    }
                    if fresh.is_empty() && skipped > 0 {
                        // The whole batch was re-delivery; keep burning
                        // the skip prefix before returning to the caller.
                        continue;
                    }
                    return Ok(fresh);
                }
                Err(e) => {
                    failures += 1;
                    match recovery_for(&e) {
                        Recovery::Reconnect => {
                            // The lost reply may have consumed events
                            // server-side; the only sound recovery is a
                            // full rebuild, replaying from the journal
                            // and skipping what was already delivered.
                            self.conn = None;
                            self.mark_for_heal(handle);
                        }
                        Recovery::Backoff => self.backoff(failures),
                        Recovery::Heal => self.mark_for_heal(handle),
                        Recovery::Fatal => return Err(e),
                    }
                    last_err = e;
                }
            }
        }
    }

    /// [`finish`](Self::finish) then [`poll`](Self::poll) until the
    /// `Finished` event arrives; returns every *new* event in order
    /// (`Finished` last), exactly-once across any number of faults.
    pub fn drain(&mut self, handle: u64, batch: u32) -> Result<Vec<WireEvent>> {
        self.finish(handle)?;
        let mut events = Vec::new();
        loop {
            let polled = self.poll(handle, batch.max(1))?;
            if self.tracked(handle)?.done {
                events.extend(polled);
                return Ok(events);
            }
            if polled.is_empty() {
                return Err(LinkageError::protocol(format!(
                    "session handle {handle} stopped yielding events before Finished — \
                     was it already drained?"
                )));
            }
            events.extend(polled);
        }
    }

    /// Close the logical session and drop its journal.  Succeeds even
    /// if the server already lost the session (there is nothing left to
    /// close) — but not on `Busy`-style contention, which retries.
    pub fn close(&mut self, handle: u64) -> Result<()> {
        let Some(t) = self.sessions.remove(&handle) else {
            return Err(LinkageError::protocol(format!(
                "unknown RetryClient handle {handle}"
            )));
        };
        if !t.opened {
            return Ok(());
        }
        let server_id = t.server_id;
        let mut failures = 0u32;
        let mut last_err = LinkageError::execution("retry: no attempt ran");
        loop {
            if failures >= self.policy.max_attempts.max(1) {
                return Err(last_err);
            }
            if self.conn.is_none() {
                if let Err(e) = self.dial() {
                    last_err = e;
                    failures += 1;
                    self.backoff(failures);
                    continue;
                }
            }
            let Some(conn) = self.conn.as_mut() else {
                continue;
            };
            match conn.close(server_id) {
                Ok(())
                | Err(LinkageError::UnknownSession(_))
                | Err(LinkageError::Quarantined(_)) => return Ok(()),
                Err(e) => {
                    failures += 1;
                    match recovery_for(&e) {
                        Recovery::Reconnect => self.conn = None,
                        Recovery::Backoff => self.backoff(failures),
                        // Heal handled above; anything else is fatal.
                        Recovery::Heal | Recovery::Fatal => return Err(e),
                    }
                    last_err = e;
                }
            }
        }
    }
}
