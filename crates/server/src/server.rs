//! The service: acceptor, bounded accept queue, worker pool, request
//! dispatch and graceful shutdown.
//!
//! Threading model: one **acceptor** thread owns the (non-blocking)
//! listener and pushes accepted connections into a bounded queue; when
//! the queue is full the connection is refused on the spot with a typed
//! `BUSY` error frame — that, not an unbounded backlog, is the admission
//! contract.  A fixed pool of **worker** threads pulls connections and
//! serves each one frame-by-frame.  Sessions are *checked out* of the
//! shared [`SessionManager`] for the duration of a request, so feeding
//! one session never serialises against polling another; the manager
//! holds its table lock only for the bookkeeping, never across disk I/O.
//!
//! Graceful shutdown (the `SHUTDOWN` message, [`LinkageServer::shutdown`],
//! [`Drop`], or — when enabled — SIGTERM) stops the acceptor, lets every
//! in-flight request complete, then persists all unfinished sessions to
//! the eviction directory exactly as idle eviction would.  A restarted
//! server pointed at the same directory adopts them transparently: no
//! session is lost mid-`FEED`.

use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use linkage::types::fault;
use linkage::types::snapshot::{Decoder, Encoder};
use linkage::types::wire::{
    code, encode_error, error_code, get_sided_record, msg, read_frame, write_frame, WIRE_VERSION,
};
use linkage::types::{LinkageError, Result};

use crate::proto::{decode_config, put_event};
use crate::session::{record_bytes, SessionManager};

/// SIGTERM latching, libc-crate-free: the handler just stores into a
/// process-wide flag the server loops poll.
pub mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    /// Whether SIGTERM was received since the last [`reset`].
    pub fn termination_requested() -> bool {
        TERM.load(Ordering::Relaxed)
    }

    /// Clear the latch (tests raise SIGTERM at themselves and must not
    /// poison later servers in the same process).
    pub fn reset() {
        TERM.store(false, Ordering::Relaxed);
    }

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::Relaxed);
    }

    #[cfg(unix)]
    pub(crate) fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: registers an async-signal-safe handler (a single
        // relaxed atomic store) for SIGTERM via the C `signal` entry
        // point; both arguments are valid for the platform contract.
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
        }
    }

    #[cfg(not(unix))]
    pub(crate) fn install() {
        // No SIGTERM to speak of; `shutdown()` / `Drop` still drain.
        let _ = on_term;
    }
}

static EVICT_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Configuration of a [`LinkageServer`].
///
/// `#[non_exhaustive]` like [`PipelineConfig`](linkage::api::PipelineConfig):
/// start from [`Default`] and mutate fields.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (see
    /// [`LinkageServer::addr`]).
    pub addr: String,
    /// Worker threads serving connections (minimum 1).
    pub workers: usize,
    /// Live (in-memory) session cap; admission beyond it evicts the LRU
    /// idle session or rejects `BUSY`.
    pub max_sessions: usize,
    /// Accepted-but-unserved connection cap; beyond it connections are
    /// refused with a `BUSY` error frame.
    pub accept_queue: usize,
    /// Global budget for resident session state bytes; feeds beyond it
    /// evict idle sessions or reject `OVER_BUDGET`.
    pub budget_bytes: u64,
    /// Where evicted sessions live.  `None` picks a fresh directory
    /// under the system temp dir; point it somewhere stable to adopt
    /// sessions persisted by a previous process.
    pub evict_dir: Option<PathBuf>,
    /// How long idle loops sleep between checks (accept polling, worker
    /// shutdown checks).
    pub poll_interval: Duration,
    /// Per-request deadline: once a frame starts arriving, the read of
    /// that frame — and the write of its reply — must complete within
    /// this long, or the connection is dropped.  Bounds how long a
    /// stalled or malicious peer can pin a worker.
    pub request_deadline: Duration,
    /// Latch SIGTERM into graceful shutdown.  Defaults to off so that
    /// embedding processes (and test binaries, where one test raising
    /// SIGTERM at itself must not drain every other test's server) opt
    /// in deliberately; the bundled example and any daemon `main` should
    /// set it.
    pub handle_sigterm: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_sessions: 8,
            accept_queue: 16,
            budget_bytes: 64 * 1024 * 1024,
            evict_dir: None,
            poll_interval: Duration::from_millis(2),
            request_deadline: Duration::from_secs(10),
            handle_sigterm: false,
        }
    }
}

/// State shared by the acceptor, the workers and the handle.
struct Shared {
    manager: SessionManager,
    shutting_down: AtomicBool,
    handle_sigterm: bool,
    request_deadline: Duration,
}

impl Shared {
    fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
            || (self.handle_sigterm && sig::termination_requested())
    }
}

/// A running linkage service; see the [crate docs](crate) for the
/// protocol it speaks.
///
/// Dropping the handle performs the same graceful shutdown as
/// [`shutdown`](Self::shutdown) (minus the persisted-session count).
pub struct LinkageServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl LinkageServer {
    /// Bind, spawn the acceptor and worker pool, and return the handle.
    pub fn start(config: ServerConfig) -> Result<Self> {
        if config.handle_sigterm {
            sig::install();
        }
        let listener = TcpListener::bind(config.addr.as_str())?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let evict_dir = config.evict_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "linkage-server-{}-{}",
                std::process::id(),
                EVICT_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        });
        let manager = SessionManager::new(config.max_sessions, config.budget_bytes, evict_dir)?;
        let shared = Arc::new(Shared {
            manager,
            shutting_down: AtomicBool::new(false),
            handle_sigterm: config.handle_sigterm,
            request_deadline: config.request_deadline.max(Duration::from_millis(1)),
        });

        let (tx, rx) = sync_channel::<TcpStream>(config.accept_queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let poll = config.poll_interval;
        let mut threads = Vec::new();

        let acceptor_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("linkage-acceptor".to_string())
                .spawn(move || accept_loop(&acceptor_shared, &listener, &tx, poll))?,
        );
        for i in 0..config.workers.max(1) {
            let worker_shared = Arc::clone(&shared);
            let worker_rx = Arc::clone(&rx);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("linkage-worker-{i}"))
                    .spawn(move || worker_loop(&worker_shared, &worker_rx, poll))?,
            );
        }
        Ok(Self {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The counters a `STATS` request would report, read directly.
    pub fn stats(&self) -> crate::session::ServerStats {
        self.shared.manager.stats()
    }

    /// Block until shutdown is requested — by SIGTERM (when enabled) or
    /// a client `SHUTDOWN` message — then drain and persist like
    /// [`shutdown`](Self::shutdown).  A daemon `main` is
    /// `LinkageServer::start(config)?.wait()`.
    pub fn wait(mut self) -> Result<usize> {
        while !self.shared.is_shutting_down() {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.stop()
    }

    /// Graceful shutdown: stop accepting, let in-flight requests
    /// complete, persist every unfinished session to the eviction
    /// directory.  Returns how many sessions were persisted.
    pub fn shutdown(mut self) -> Result<usize> {
        self.stop()
    }

    fn stop(&mut self) -> Result<usize> {
        self.shared.shutting_down.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        // Workers are gone, so every slot is idle: persist the rest.
        self.shared.manager.evict_all()
    }
}

impl Drop for LinkageServer {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            let _ = self.stop();
        }
    }
}

/// Accept connections until shutdown; refuse with a `BUSY` error frame
/// when the queue is full.
fn accept_loop(
    shared: &Shared,
    listener: &TcpListener,
    tx: &std::sync::mpsc::SyncSender<TcpStream>,
    poll: Duration,
) {
    while !shared.is_shutting_down() {
        match listener.accept() {
            Ok((stream, _)) => match tx.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(mut stream))
                | Err(TrySendError::Disconnected(mut stream)) => {
                    shared.manager.count_busy();
                    let payload =
                        encode_error(code::BUSY, "accept queue full — retry after a backoff");
                    let _ = write_frame(&mut stream, msg::ERR, &payload);
                    let _ = stream.flush();
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(poll),
            Err(_) => std::thread::sleep(poll),
        }
    }
    // Dropping `tx` unblocks workers waiting in `recv`.
}

/// Pull connections off the queue and serve each to completion.
fn worker_loop(shared: &Shared, rx: &Arc<Mutex<Receiver<TcpStream>>>, poll: Duration) {
    loop {
        let stream = {
            let guard = match rx.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        match stream {
            Ok(stream) => {
                // Request-boundary panics are caught inside
                // `handle_request` (they quarantine the session); a
                // panic escaping to here came from outside a request.
                // Either way the worker must survive: catch it, drop
                // the connection, and pull the next one — an in-place
                // respawn.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve_connection(shared, &stream, poll);
                }));
                if outcome.is_err() {
                    shared.manager.count_worker_panic();
                }
            }
            Err(_) => return, // acceptor gone: shutdown
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Serve one connection frame-by-frame until the peer hangs up or
/// shutdown is requested.
///
/// Between frames the worker waits with a short-timeout `peek` (which
/// consumes nothing, so a frame arriving mid-timeout is never torn) and
/// checks the shutdown flag; once a frame has started arriving it is
/// read blocking, processed, and answered — an in-flight request always
/// completes, which is what makes shutdown lossless.
fn serve_connection(shared: &Shared, mut stream: &TcpStream, poll: Duration) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.request_deadline));
    loop {
        let _ = stream.set_read_timeout(Some(poll.max(Duration::from_millis(1))));
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => return, // EOF: peer closed
            // A frame is waiting but has not been read: during shutdown
            // it is not in-flight yet, so cut the connection — the
            // client sees no ack and knows the batch did not apply.
            Ok(_) if shared.is_shutting_down() => return,
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                if shared.is_shutting_down() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        // Per-request deadline: a peer that starts a frame and then
        // stalls (or never reads its reply) releases the worker after
        // the deadline instead of pinning it forever.
        let _ = stream.set_read_timeout(Some(shared.request_deadline));
        let (kind, payload) = match read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(_) => return, // torn, oversized or overdue frame: drop the peer
        };
        if fault::fires("server.drop.recv").is_some() {
            // Simulate the connection dying after the request was read
            // but before it was handled: the client never learns
            // whether the request applied.  (Here, it did not.)
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let (reply_kind, reply_payload) = match handle_request(shared, kind, &payload) {
            Ok(reply) => reply,
            Err(e) => (msg::ERR, encode_error(error_code(&e), &e.to_string())),
        };
        if let Some(cut) = fault::fires("server.drop.reply") {
            // Simulate the connection dying mid-reply, at the armed
            // byte offset of the framed reply: the request *was*
            // applied, but the client sees a torn frame.  This is the
            // case idempotent FEED resume exists for.
            let mut framed = Vec::new();
            let _ = write_frame(&mut framed, reply_kind, &reply_payload);
            let cut = (cut as usize).min(framed.len());
            let _ = stream.write_all(&framed[..cut]);
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        if write_frame(&mut stream, reply_kind, &reply_payload).is_err() || stream.flush().is_err()
        {
            return;
        }
        if kind == msg::SHUTDOWN {
            return;
        }
    }
}

/// Render a caught panic payload for the quarantine reason.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Dispatch one request frame to a reply frame.  Every error becomes an
/// `ERR` frame with a typed code (the caller encodes it).
fn handle_request(shared: &Shared, kind: u8, payload: &[u8]) -> Result<(u8, Vec<u8>)> {
    match kind {
        msg::OPEN => {
            if shared.is_shutting_down() {
                shared.manager.count_busy();
                return Ok((
                    msg::ERR,
                    encode_error(code::SHUTTING_DOWN, "shutting down: no new sessions"),
                ));
            }
            let mut d = Decoder::new(payload, "OPEN");
            let version = d.get_u32()?;
            if version != WIRE_VERSION {
                return Err(LinkageError::protocol(format!(
                    "wire version mismatch: client speaks {version}, server speaks {WIRE_VERSION}"
                )));
            }
            let config = decode_config(&mut d)?;
            let fingerprint = d.get_u32()?;
            d.finish()?;
            let id = shared.manager.open(config, fingerprint)?;
            let mut e = Encoder::new();
            e.put_u64(id);
            Ok((msg::OPENED, e.finish()))
        }
        msg::FEED => {
            let mut d = Decoder::new(payload, "FEED");
            let id = d.get_u64()?;
            let count = d.get_u32()? as usize;
            let mut records = Vec::with_capacity(count.min(u16::MAX as usize));
            for _ in 0..count {
                records.push(get_sided_record(&mut d)?);
            }
            d.finish()?;
            let incoming: u64 = records.iter().map(record_bytes).sum();
            let manager = &shared.manager;
            let mut session = manager.checkout(id)?;
            // Refuse a batch the client got wrong before reserving room
            // for it.  Reserve after checkout: a checked-out session is
            // not evictable, so the reservation can never evict the very
            // session it is feeding.
            let admitted = session
                .check_feed(&records)
                .and_then(|()| manager.reserve_bytes(incoming));
            if let Err(e) = admitted {
                manager.checkin(session, 0);
                return Err(e);
            }
            let prior = session.state_bytes();
            // The request boundary: a panic inside the engine must not
            // kill the worker.  The session Box unwinds with the stack,
            // so on panic the slot (left `Taken` by checkout) becomes a
            // quarantined tombstone and the client gets a typed error.
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                let result = session.feed(records);
                (session, result)
            }));
            match outcome {
                Ok((session, Ok(added))) => {
                    let accepted = session.fed();
                    manager.checkin(session, added as i64);
                    let mut e = Encoder::new();
                    e.put_u64(accepted);
                    e.put_u64(manager.stats().state_bytes);
                    Ok((msg::FED, e.finish()))
                }
                Ok((session, Err(e))) => {
                    manager.discard(session);
                    Err(e)
                }
                Err(panic) => {
                    let reason = panic_message(panic.as_ref());
                    manager.quarantine_poisoned(
                        id,
                        prior,
                        format!("panicked during FEED: {reason}"),
                    );
                    Err(LinkageError::quarantined(format!(
                        "session {id} was poisoned by a panic during FEED and quarantined: \
                         {reason}"
                    )))
                }
            }
        }
        msg::POLL => {
            let mut d = Decoder::new(payload, "POLL");
            let id = d.get_u64()?;
            let max = d.get_u32()? as usize;
            d.finish()?;
            let manager = &shared.manager;
            let session = manager.checkout(id)?;
            let prior = session.state_bytes();
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                let mut session = session;
                let result = session.poll(max);
                (session, result)
            }));
            match outcome {
                Ok((session, Ok((events, released)))) => {
                    manager.checkin(session, -(released as i64));
                    let mut e = Encoder::new();
                    e.put_u32(events.len() as u32);
                    for event in &events {
                        put_event(&mut e, event);
                    }
                    Ok((msg::EVENTS, e.finish()))
                }
                Ok((session, Err(e))) => {
                    manager.discard(session);
                    Err(e)
                }
                Err(panic) => {
                    let reason = panic_message(panic.as_ref());
                    manager.quarantine_poisoned(
                        id,
                        prior,
                        format!("panicked during POLL: {reason}"),
                    );
                    Err(LinkageError::quarantined(format!(
                        "session {id} was poisoned by a panic during POLL and quarantined: \
                         {reason}"
                    )))
                }
            }
        }
        msg::FIN => {
            let mut d = Decoder::new(payload, "FIN");
            let id = d.get_u64()?;
            d.finish()?;
            let manager = &shared.manager;
            let mut session = manager.checkout(id)?;
            session.fin();
            let accepted = session.fed();
            manager.checkin(session, 0);
            let mut e = Encoder::new();
            e.put_u64(accepted);
            e.put_u64(manager.stats().state_bytes);
            Ok((msg::FED, e.finish()))
        }
        msg::CLOSE => {
            let mut d = Decoder::new(payload, "CLOSE");
            let id = d.get_u64()?;
            d.finish()?;
            shared.manager.close(id)?;
            Ok((msg::CLOSED, Vec::new()))
        }
        msg::STATS => {
            let stats = shared.manager.stats();
            Ok((msg::STATS_REPLY, stats.encode()))
        }
        msg::SHUTDOWN => {
            shared.shutting_down.store(true, Ordering::Relaxed);
            Ok((msg::BYE, Vec::new()))
        }
        other => Err(LinkageError::protocol(format!(
            "unknown request kind {other} ({})",
            msg::name(other)
        ))),
    }
}
