//! End-to-end tests of the linkage server: protocol round trips,
//! admission control, eviction/rehydration transparency, and graceful
//! shutdown with no session lost mid-`FEED`.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use linkage::api::PipelineConfig;
use linkage::types::{LinkageError, Side, SidedRecord};
use linkage_datagen::{generate, DatagenConfig, GeneratedData};
use linkage_server::proto::WireEvent;
use linkage_server::{
    Client, LinkageServer, RetryClient, RetryPolicy, ServerConfig, SessionManager,
};

use common::{feed_sequence, session_config, solo_events, stepped_events};

/// A fresh scratch directory per call (no `Date::now` games — pid plus
/// a counter is unique enough inside one test process).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "linkage-server-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_server(tag: &str, mutate: impl FnOnce(&mut ServerConfig)) -> LinkageServer {
    let mut config = ServerConfig::default();
    config.evict_dir = Some(scratch_dir(tag));
    mutate(&mut config);
    LinkageServer::start(config).unwrap()
}

#[test]
fn server_round_trip_is_bit_identical_to_a_direct_session() {
    let data = generate(&DatagenConfig::mid_stream_dirty(200, 11)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let expected = solo_events(&config, &data);
    assert!(
        expected.iter().any(|e| matches!(e, WireEvent::Switched(_))),
        "the workload must exercise the mid-stream switch"
    );

    let server = start_server("roundtrip", |_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let session = client.open(&config).unwrap();

    let mut got = Vec::new();
    for batch in sequence.chunks(64) {
        client.feed(session, batch).unwrap();
        // Interleave polling with feeding: only ready events may come
        // back, and they must be a prefix of the solo sequence.
        got.extend(client.poll(session, 32).unwrap());
    }
    got.extend(client.drain(session, 128).unwrap());
    client.close(session).unwrap();

    assert_eq!(got, expected);

    let stats = client.stats().unwrap();
    assert_eq!(stats.opened, 1);
    assert_eq!(stats.finished, 1);
    assert_eq!(stats.closed, 1);
    assert_eq!(stats.live_sessions, 0);
    assert_eq!(stats.state_bytes, 0, "a drained session frees its bytes");
    assert_eq!(server.shutdown().unwrap(), 0);
}

#[test]
fn eviction_and_rehydration_are_transparent_to_the_client() {
    let data = generate(&DatagenConfig::mid_stream_dirty(120, 23)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let expected = solo_events(&config, &data);

    // Budget sized so two part-fed sessions fit but a third feed forces
    // the LRU one to disk.
    let bytes: u64 = sequence
        .iter()
        .map(linkage_server::session::record_bytes)
        .sum();
    let server = start_server("evict", |c| c.budget_bytes = bytes + bytes / 2);

    let mut client = Client::connect(server.addr()).unwrap();
    let victim = client.open(&config).unwrap();
    let hog = client.open(&config).unwrap();
    client.feed(victim, &sequence).unwrap();
    // Feeding the hog the same volume overflows the budget; the victim
    // is the LRU idle session and gets evicted.
    client.feed(hog, &sequence).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.evictions, 1, "the victim must have been evicted");
    assert_eq!(stats.evicted_sessions, 1);

    // Draining the victim transparently rehydrates it, and the event
    // sequence is exactly what an uninterrupted run yields.
    let got = client.drain(victim, 256).unwrap();
    assert_eq!(got, expected);
    let stats = client.stats().unwrap();
    assert_eq!(stats.rehydrations, 1);

    client.close(victim).unwrap();
    client.close(hog).unwrap();
    server.shutdown().unwrap();
}

#[test]
fn closing_an_evicted_session_deletes_its_files() {
    let data = generate(&DatagenConfig::mid_stream_dirty(60, 5)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let bytes: u64 = sequence
        .iter()
        .map(linkage_server::session::record_bytes)
        .sum();

    let dir = scratch_dir("close-evicted");
    let server = start_server("unused", |c| {
        c.evict_dir = Some(dir.clone());
        c.budget_bytes = bytes + bytes / 2;
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let victim = client.open(&config).unwrap();
    let hog = client.open(&config).unwrap();
    client.feed(victim, &sequence).unwrap();
    client.feed(hog, &sequence).unwrap();
    assert_eq!(client.stats().unwrap().evicted_sessions, 1);
    assert!(std::fs::read_dir(&dir).unwrap().count() >= 2);

    client.close(victim).unwrap();
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    assert_eq!(client.stats().unwrap().evicted_sessions, 0);
    client.close(hog).unwrap();
    server.shutdown().unwrap();
}

#[test]
fn graceful_shutdown_loses_no_session_mid_feed() {
    let data = generate(&DatagenConfig::mid_stream_dirty(300, 31)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let expected = solo_events(&config, &data);

    let dir = scratch_dir("graceful");
    let server = start_server("unused", |c| c.evict_dir = Some(dir.clone()));
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    let session = client.open(&config).unwrap();

    // Feed in small batches from another thread while the main thread
    // shuts the server down.  Each `FEED` is atomic — it is either fully
    // applied and acked, or rejected/cut whole — so the ack count is
    // exactly the persisted prefix.
    let feeder_sequence = sequence.clone();
    let feeder = std::thread::spawn(move || {
        let mut accepted = 0u64;
        for batch in feeder_sequence.chunks(8) {
            match client.feed(session, batch) {
                Ok(ack) => accepted = ack.accepted,
                Err(_) => break, // connection cut by shutdown
            }
        }
        accepted
    });
    let persisted = server.shutdown().unwrap();
    let accepted = feeder.join().unwrap() as usize;
    assert_eq!(persisted, 1, "the in-flight session must be persisted");
    assert!(accepted <= sequence.len());

    // A new process pointed at the same eviction directory adopts the
    // session; feeding the un-acked remainder and draining yields the
    // full solo event sequence — nothing was lost, nothing duplicated.
    let server = start_server("unused", |c| c.evict_dir = Some(dir));
    let mut client = Client::connect(server.addr()).unwrap();
    client.feed(session, &sequence[accepted..]).unwrap();
    let got = client.drain(session, 256).unwrap();
    assert_eq!(got, expected);
    client.close(session).unwrap();
    server.shutdown().unwrap();
}

/// The documented daemon sequence: a client `SHUTDOWN` is answered
/// `BYE`, `wait()` drains and persists the unfinished session, and a new
/// server on the same directory adopts it.
#[test]
fn a_client_shutdown_persists_the_open_session_for_the_next_server() {
    let data = generate(&DatagenConfig::mid_stream_dirty(150, 37)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let expected = solo_events(&config, &data);
    let half = sequence.len() / 2;

    let dir = scratch_dir("client-shutdown");
    let server = start_server("unused", |c| c.evict_dir = Some(dir.clone()));
    let mut client = Client::connect(server.addr()).unwrap();
    let session = client.open(&config).unwrap();
    client.feed(session, &sequence[..half]).unwrap();
    let mut got = client.poll(session, 64).unwrap();
    client.shutdown_server().unwrap();
    assert_eq!(server.wait().unwrap(), 1, "the unfinished session");

    let server = start_server("unused", |c| c.evict_dir = Some(dir));
    let mut client = Client::connect(server.addr()).unwrap();
    client.feed(session, &sequence[half..]).unwrap();
    got.extend(client.drain(session, 256).unwrap());
    assert_eq!(got, expected);
    client.close(session).unwrap();
    assert_eq!(server.shutdown().unwrap(), 0);
}

/// A record whose key column holds no string is the client's error: the
/// whole `FEED` is refused as `BAD_REQUEST` before anything of it is
/// pushed, and the session goes on as if the batch had never been sent.
#[test]
fn a_feed_with_a_bad_key_is_refused_whole_and_the_session_survives() {
    use linkage::api::ExecutionMode;
    use linkage::types::{Record, Value};

    let data = generate(&DatagenConfig::mid_stream_dirty(80, 13)).unwrap();
    let sequence = feed_sequence(&data);
    let half = sequence.len() / 2;
    // An integer key, and a record too short to have the key column
    // (it reads as NULL).
    let int_key = Record::new(9_999u64, vec![Value::Int(7); GeneratedData::KEY_COLUMN + 1]);
    let short = Record::new(9_998u64, Vec::new());
    let bad = [
        SidedRecord::new(Side::Right, int_key),
        SidedRecord::new(Side::Left, short),
    ];
    for execution in [ExecutionMode::Serial, ExecutionMode::Sharded { shards: 2 }] {
        let mut config = session_config(data.parents.len() as u64);
        config.execution = execution;
        let expected = solo_events(&config, &data);

        let server = start_server("bad-key", |_| {});
        let mut client = Client::connect(server.addr()).unwrap();
        let session = client.open(&config).unwrap();
        let accepted = client.feed(session, &sequence[..half]).unwrap().accepted;
        for record in &bad {
            // Good records on both sides of the bad one: none may land.
            let batch = [
                sequence[half].clone(),
                record.clone(),
                sequence[half + 1].clone(),
            ];
            match client.feed(session, &batch) {
                Err(LinkageError::Protocol(m)) => assert!(m.contains("key column"), "{m}"),
                other => panic!("{execution:?}: expected BAD_REQUEST, got {other:?}"),
            }
            assert_eq!(client.feed(session, &[]).unwrap().accepted, accepted);
        }
        client.feed(session, &sequence[half..]).unwrap();
        let got = client.drain(session, 256).unwrap();
        assert_eq!(got, expected, "{execution:?}");
        // A FEED after FIN is refused the same way.
        match client.feed(session, &sequence[..1]) {
            Err(LinkageError::Protocol(m)) => assert!(m.contains("after FIN"), "{m}"),
            other => panic!("{execution:?}: expected BAD_REQUEST, got {other:?}"),
        }
        let stats = client.stats().unwrap();
        assert_eq!((stats.closed, stats.worker_panics), (0, 0), "{stats:?}");
        client.close(session).unwrap();
        server.shutdown().unwrap();
    }
}

#[test]
fn open_rejects_bad_configs_and_unknown_sessions_with_typed_errors() {
    let server = start_server("typed-errors", |_| {});
    let mut client = Client::connect(server.addr()).unwrap();

    // A config that fails validation server-side (no reference size)
    // comes back as the BAD_REQUEST family, message intact.
    let config = PipelineConfig::default();
    match client.open(&config) {
        Err(LinkageError::Protocol(m)) => assert!(m.contains("reference_size")),
        other => panic!("expected a protocol error, got {other:?}"),
    }

    // Unknown session ids are typed `UnknownSession` errors (carried as
    // the NO_SUCH_SESSION wire code), not hangs.
    match client.poll(999, 16) {
        Err(LinkageError::UnknownSession(m)) => assert!(m.contains("does not exist")),
        other => panic!("expected an unknown-session error, got {other:?}"),
    }
    server.shutdown().unwrap();
}

#[test]
fn oversized_open_configs_are_bad_requests_not_aborts() {
    use linkage::api::{ExecutionMode, SwitchPolicy};
    let data = generate(&DatagenConfig::mid_stream_dirty(60, 5)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let server = start_server("oversized", |_| {});
    let mut client = Client::connect(server.addr()).unwrap();

    // Each of these allocated its size up front and aborted the process.
    let mut q = config.clone();
    q.qgram.q = 1 << 36;
    q.switch_policy = SwitchPolicy::ForceAt(0);
    let mut channel = config.clone();
    channel.execution = ExecutionMode::Sharded { shards: 2 };
    channel.channel_capacity = 1 << 40;
    let mut batch = channel.clone();
    batch.channel_capacity = config.channel_capacity;
    batch.batch_size = 1 << 40;
    // Outside the outlier detector's range [0, 1): its assert would fire.
    let mut theta_out = config.clone();
    theta_out.theta_out = 1.0;
    for (field, oversized) in [
        ("qgram.q", q),
        ("channel_capacity", channel),
        ("batch_size", batch),
        ("θ_out", theta_out),
    ] {
        match client.open(&oversized) {
            Err(LinkageError::Protocol(m)) => assert!(m.contains(field), "{field}: {m}"),
            other => panic!("{field}: expected a protocol error, got {other:?}"),
        }
    }
    assert_eq!(client.stats().unwrap().worker_panics, 0);

    // The server still serves a normal session bit-identically.
    let sequence = feed_sequence(&data);
    let session = client.open(&config).unwrap();
    client.feed(session, &sequence).unwrap();
    let got = client.drain(session, 256).unwrap();
    assert_eq!(got, solo_events(&config, &data));
    client.close(session).unwrap();
    assert_eq!(client.stats().unwrap().worker_panics, 0);
    server.shutdown().unwrap();
}

#[test]
fn manager_rejects_busy_and_over_budget_with_typed_errors() {
    let data = generate(&DatagenConfig::mid_stream_dirty(40, 3)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let dir = scratch_dir("manager");
    let manager = SessionManager::new(2, 4096, dir).unwrap();

    let a = manager.open(config.clone(), config.fingerprint()).unwrap();
    let b = manager.open(config.clone(), config.fingerprint()).unwrap();

    // Both sessions checked out: nothing is idle, so admission of a
    // third is Busy, not an eviction.
    let sa = manager.checkout(a).unwrap();
    let sb = manager.checkout(b).unwrap();
    match manager.open(config.clone(), config.fingerprint()) {
        Err(LinkageError::Busy(_)) => {}
        other => panic!("expected Busy, got {other:?}"),
    }

    // Nothing is idle, so a reservation beyond the budget is OverBudget.
    match manager.reserve_bytes(1 << 20) {
        Err(LinkageError::OverBudget(_)) => {}
        other => panic!("expected OverBudget, got {other:?}"),
    }

    // A checked-out session blocks concurrent checkout (Busy) until it
    // is checked back in.
    match manager.checkout(a) {
        Err(LinkageError::Busy(_)) => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    manager.checkin(sa, 0);
    manager.checkin(sb, 0);
    assert!(manager.checkout(a).is_ok());

    let stats = manager.stats();
    assert!(stats.rejected_busy >= 2);
    assert!(stats.rejected_over_budget >= 1);
}

#[test]
fn retry_client_round_trip_is_bit_identical_on_a_healthy_server() {
    let data = generate(&DatagenConfig::mid_stream_dirty(150, 17)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let expected = solo_events(&config, &data);

    let server = start_server("retry-happy", |_| {});
    let mut client = RetryClient::connect(server.addr().to_string(), RetryPolicy::default());
    let handle = client.open(&config).unwrap();
    let mut got = Vec::new();
    for batch in sequence.chunks(64) {
        client.feed(handle, batch).unwrap();
        got.extend(client.poll(handle, 32).unwrap());
    }
    got.extend(client.drain(handle, 128).unwrap());
    client.close(handle).unwrap();

    assert_eq!(got, expected);
    assert_eq!(
        client.reconnects(),
        1,
        "one dial, no faults to recover from"
    );
    assert_eq!(client.heals(), 0);
    server.shutdown().unwrap();
}

/// A FEED the server refuses whole (a record without a string key) is
/// dropped from the retry journal: the next feed on the handle succeeds,
/// and the session's stream is that of the records it accepted.
#[test]
fn a_refused_retry_feed_is_dropped_and_the_session_carries_on() {
    use linkage::types::{Record, Value};

    let data = generate(&DatagenConfig::mid_stream_dirty(80, 19)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let (a, c) = sequence.split_at(sequence.len() / 2);
    let expected = stepped_events(&config, &[a, c].concat());
    let int_key = Record::new(9_999u64, vec![Value::Int(7); GeneratedData::KEY_COLUMN + 1]);
    let b = [c[0].clone(), SidedRecord::new(Side::Right, int_key)];

    let server = start_server("retry-refused", |_| {});
    let mut client = RetryClient::connect(server.addr().to_string(), RetryPolicy::default());
    let handle = client.open(&config).unwrap();
    client.feed(handle, a).unwrap();
    match client.feed(handle, &b) {
        Err(LinkageError::Protocol(m)) => assert!(m.contains("key column"), "{m}"),
        other => panic!("expected a refused FEED, got {other:?}"),
    }
    let ack = client.feed(handle, c).unwrap();
    assert_eq!(ack.accepted, (a.len() + c.len()) as u64);
    let got = client.drain(handle, 128).unwrap();
    client.close(handle).unwrap();
    assert_eq!(got, expected);
    server.shutdown().unwrap();
}

#[test]
fn a_connection_that_stalls_mid_request_trips_the_server_deadline() {
    use std::io::{Read, Write};
    use std::time::Duration;

    let server = start_server("deadline", |c| {
        c.request_deadline = Duration::from_millis(200);
    });
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    // Half a frame: a length prefix promising bytes that never arrive.
    raw.write_all(&8u32.to_le_bytes()).unwrap();
    raw.write_all(&[1u8]).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 16];
    // The server must sever the stalled connection instead of pinning a
    // worker forever: the read observes EOF or a reset, never a reply.
    match raw.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("expected the connection to be severed, read {n} bytes"),
    }
    // And the worker is free again: a fresh connection is served.
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.stats().is_ok());
    server.shutdown().unwrap();
}

#[cfg(unix)]
#[test]
fn sigterm_latches_into_graceful_shutdown() {
    extern "C" {
        fn raise(signum: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let server = start_server("sigterm", |c| c.handle_sigterm = true);
    // SAFETY: raising SIGTERM at ourselves; the server installed a
    // handler that latches a flag, so the process does not die.
    unsafe {
        raise(SIGTERM);
    }
    // `wait` observes the latch, drains and returns instead of blocking.
    assert_eq!(server.wait().unwrap(), 0);
    linkage_server::server::sig::reset();
}

/// Stress without faults: four client threads each drive twelve sessions
/// round-robin under a budget of two and a half sessions, so most `FEED`s
/// evict one session and rehydrate another while the other worker does
/// the same.  Every stream must equal its solo run, and nothing may be
/// rejected: two workers pin at most two sessions, which always fit.
#[test]
fn four_clients_under_eviction_pressure_stay_exact_and_are_never_rejected() {
    const THREADS: usize = 4;
    const SESSIONS: usize = 12;
    const ROUNDS: usize = 6;
    let workloads: Vec<(PipelineConfig, Vec<SidedRecord>, Vec<WireEvent>)> = (0..SESSIONS as u64)
        .map(|seed| {
            let data = generate(&DatagenConfig::mid_stream_dirty(40, seed + 1)).unwrap();
            let config = session_config(data.parents.len() as u64);
            let sequence = feed_sequence(&data);
            let expected = solo_events(&config, &data);
            (config, sequence, expected)
        })
        .collect();
    let largest = workloads
        .iter()
        .map(|(_, sequence, _)| {
            sequence
                .iter()
                .map(linkage_server::session::record_bytes)
                .sum::<u64>()
        })
        .max()
        .unwrap();
    let server = start_server("stress", |c| c.budget_bytes = largest * 5 / 2);
    let addr = server.addr();

    let drive = |_thread: usize| -> Vec<Vec<WireEvent>> {
        let mut client = Client::connect(addr).unwrap();
        let ids: Vec<u64> = workloads
            .iter()
            .map(|(config, _, _)| client.open(config).unwrap())
            .collect();
        drop(client);
        let mut got = vec![Vec::new(); SESSIONS];
        for round in 0..ROUNDS {
            // A fresh connection per round lets the two workers take
            // turns serving all four threads.
            let mut client = Client::connect(addr).unwrap();
            for (k, (_, sequence, _)) in workloads.iter().enumerate() {
                let lo = sequence.len() * round / ROUNDS;
                let hi = sequence.len() * (round + 1) / ROUNDS;
                client.feed(ids[k], &sequence[lo..hi]).unwrap();
                got[k].extend(client.poll(ids[k], 64).unwrap());
            }
        }
        let mut client = Client::connect(addr).unwrap();
        for (k, events) in got.iter_mut().enumerate() {
            events.extend(client.drain(ids[k], 256).unwrap());
            client.close(ids[k]).unwrap();
        }
        got
    };
    let streams: Vec<Vec<Vec<WireEvent>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| scope.spawn(move || drive(t)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, got) in streams.iter().enumerate() {
        for (k, (_, _, expected)) in workloads.iter().enumerate() {
            assert_eq!(&got[k], expected, "thread {t} session {k} diverged");
        }
    }

    let stats = server.stats();
    assert_eq!(stats.rejected_busy, 0, "{stats:?}");
    assert_eq!(stats.rejected_over_budget, 0, "{stats:?}");
    assert!(
        stats.evictions >= (THREADS * SESSIONS) as u64 && stats.rehydrations >= 1,
        "the budget must keep evicting: {stats:?}"
    );
    assert_eq!(stats.closed, (THREADS * SESSIONS) as u64);
    assert_eq!((stats.live_sessions, stats.state_bytes), (0, 0));
    assert_eq!(server.shutdown().unwrap(), 0);
}
