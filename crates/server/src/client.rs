//! A small blocking client for the linkage line protocol, used by the
//! tests, the bundled example and the bench driver.
//!
//! One [`Client`] wraps one TCP connection and issues strictly
//! request/reply exchanges; `ERR` frames come back as the typed
//! [`LinkageError`] they encode (`Busy`, `OverBudget`, `Protocol`, …),
//! so callers can implement backoff against admission control with a
//! plain `match`.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use linkage::api::PipelineConfig;
use linkage::types::snapshot::{Decoder, Encoder};
use linkage::types::{LinkageError, Result, SidedRecord};

use linkage::types::wire::{
    decode_error, msg, put_sided_record, read_frame, write_frame, WIRE_VERSION,
};

use crate::proto::{encode_config, get_event, WireEvent};
use crate::session::ServerStats;

/// A server's answer to `FEED` and `FIN`: how much it now holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedAck {
    /// Total records the session has accepted so far.
    pub accepted: u64,
    /// The server's resident session bytes after the request.
    pub state_bytes: u64,
}

/// A blocking connection to a [`LinkageServer`](crate::LinkageServer).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Bound how long a single request/reply exchange may block on the
    /// socket.  `None` removes the bound.  An expired deadline surfaces
    /// as [`LinkageError::ConnectionLost`], like any other transport
    /// failure.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(deadline)?;
        self.stream.set_write_timeout(deadline)?;
        Ok(())
    }

    /// Fold a transport-layer failure into [`LinkageError::ConnectionLost`].
    ///
    /// Everything I/O-shaped — the peer vanishing, a deadline expiring, a
    /// reply frame cut partway — means the connection is unusable and the
    /// exchange outcome unknown; `ConnectionLost` is what retry layers key
    /// on.  The one exception is the outgoing frame-cap check, which fails
    /// before any byte moves: that stays [`LinkageError::Protocol`],
    /// because it is a caller bug no reconnect will fix.
    fn lost(e: LinkageError) -> LinkageError {
        match e {
            LinkageError::Protocol(m) if m.starts_with("outgoing") => LinkageError::Protocol(m),
            LinkageError::Io(m) | LinkageError::Protocol(m) => LinkageError::ConnectionLost(m),
            other => other,
        }
    }

    /// One request/reply exchange; `ERR` replies become their typed
    /// error, a reply of the wrong kind is a protocol error.
    fn request(&mut self, kind: u8, payload: &[u8], expect: u8) -> Result<Vec<u8>> {
        write_frame(&mut self.stream, kind, payload).map_err(Self::lost)?;
        let (reply_kind, reply) = read_frame(&mut self.stream).map_err(Self::lost)?;
        if reply_kind == msg::ERR {
            return Err(decode_error(&reply));
        }
        if reply_kind != expect {
            return Err(LinkageError::protocol(format!(
                "expected a {} reply to {}, got {}",
                msg::name(expect),
                msg::name(kind),
                msg::name(reply_kind)
            )));
        }
        Ok(reply)
    }

    fn feed_ack(payload: &[u8], section: &'static str) -> Result<FeedAck> {
        let mut d = Decoder::new(payload, section);
        let ack = FeedAck {
            accepted: d.get_u64()?,
            state_bytes: d.get_u64()?,
        };
        d.finish()?;
        Ok(ack)
    }

    /// Open a session running `config`; the config is shipped on the
    /// wire together with its fingerprint, which the server re-derives
    /// from what it decoded — codec drift fails loudly at `OPEN`, not as
    /// silently different join output.
    pub fn open(&mut self, config: &PipelineConfig) -> Result<u64> {
        let mut e = Encoder::new();
        e.put_u32(WIRE_VERSION);
        encode_config(&mut e, config);
        e.put_u32(config.fingerprint());
        let reply = self.request(msg::OPEN, &e.finish(), msg::OPENED)?;
        let mut d = Decoder::new(&reply, "OPENED");
        let id = d.get_u64()?;
        d.finish()?;
        Ok(id)
    }

    /// Feed a batch of records into a session.
    pub fn feed(&mut self, session: u64, records: &[SidedRecord]) -> Result<FeedAck> {
        let mut e = Encoder::new();
        e.put_u64(session);
        e.put_u32(records.len() as u32);
        for record in records {
            put_sided_record(&mut e, record);
        }
        let reply = self.request(msg::FEED, &e.finish(), msg::FED)?;
        Self::feed_ack(&reply, "FED")
    }

    /// Declare a session's input complete; subsequent [`poll`](Self::poll)
    /// calls drain through the final `Finished` event.
    pub fn finish(&mut self, session: u64) -> Result<FeedAck> {
        let mut e = Encoder::new();
        e.put_u64(session);
        let reply = self.request(msg::FIN, &e.finish(), msg::FED)?;
        Self::feed_ack(&reply, "FED")
    }

    /// Fetch up to `max` ready events from a session.
    pub fn poll(&mut self, session: u64, max: u32) -> Result<Vec<WireEvent>> {
        let mut e = Encoder::new();
        e.put_u64(session);
        e.put_u32(max);
        let reply = self.request(msg::POLL, &e.finish(), msg::EVENTS)?;
        let mut d = Decoder::new(&reply, "EVENTS");
        let count = d.get_u32()? as usize;
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            events.push(get_event(&mut d)?);
        }
        d.finish()?;
        Ok(events)
    }

    /// [`finish`](Self::finish) then [`poll`](Self::poll) in a loop
    /// until the `Finished` event arrives; returns every drained event
    /// in order (`Finished` last).
    pub fn drain(&mut self, session: u64, batch: u32) -> Result<Vec<WireEvent>> {
        self.finish(session)?;
        let mut events = Vec::new();
        loop {
            let polled = self.poll(session, batch.max(1))?;
            if polled.is_empty() {
                return Err(LinkageError::protocol(format!(
                    "session {session} stopped yielding events before Finished — \
                     was it already drained?"
                )));
            }
            let finished = polled.iter().any(|e| matches!(e, WireEvent::Finished(_)));
            events.extend(polled);
            if finished {
                return Ok(events);
            }
        }
    }

    /// Close a session, releasing its state (live or evicted).
    pub fn close(&mut self, session: u64) -> Result<()> {
        let mut e = Encoder::new();
        e.put_u64(session);
        let reply = self.request(msg::CLOSE, &e.finish(), msg::CLOSED)?;
        if !reply.is_empty() {
            return Err(LinkageError::protocol("CLOSED reply carries a payload"));
        }
        Ok(())
    }

    /// Fetch the server's counters.
    pub fn stats(&mut self) -> Result<ServerStats> {
        let reply = self.request(msg::STATS, &[], msg::STATS_REPLY)?;
        ServerStats::decode(&reply)
    }

    /// Ask the server to shut down gracefully (drain in-flight requests,
    /// persist unfinished sessions).  The server answers `BYE` and then
    /// closes this connection.
    pub fn shutdown_server(&mut self) -> Result<()> {
        let reply = self.request(msg::SHUTDOWN, &[], msg::BYE)?;
        if !reply.is_empty() {
            return Err(LinkageError::protocol("BYE reply carries a payload"));
        }
        Ok(())
    }
}
