//! Chaos suite: deterministic fault injection against the server and the
//! session manager (`--features fault`).
//!
//! Every scenario drives a fault-injected run to completion and holds it
//! to the same bar as a healthy one: the drained event stream must be
//! **bit-identical** to a solo (in-process, fault-free) run of the same
//! config over the same feed sequence, and no injected fault may ever
//! surface as a panic, a duplicated batch, or a lost batch.

#![cfg(feature = "fault")]

mod common;

use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use linkage::api::PipelineConfig;
use linkage::types::fault::{self, Trigger};
use linkage::types::{LinkageError, SidedRecord};
use linkage_datagen::{generate, DatagenConfig};
use linkage_server::proto::WireEvent;
use linkage_server::session::record_bytes;
use linkage_server::{
    Client, LinkageServer, RetryClient, RetryPolicy, ServerConfig, SessionManager,
};

use common::{feed_sequence, session_config, solo_events, ScratchDir};

/// The fault registry is process-global: scenarios must not overlap.
/// Each test takes this guard first and resets the registry on entry, so
/// a panicked predecessor cannot leak armed sites into it.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    fault::reset();
    guard
}

fn scratch_dir(tag: &str) -> ScratchDir {
    ScratchDir::new(&format!("chaos-{tag}"))
}

/// Feed `records` into a manager-held session, mirroring the server's
/// checkout / feed / checkin request shape.
fn manager_feed(manager: &mut SessionManager, id: u64, records: &[SidedRecord]) {
    let delta: u64 = records.iter().map(record_bytes).sum();
    manager.reserve_bytes(delta).unwrap();
    let mut session = manager.checkout(id).unwrap();
    session.feed(records.to_vec()).unwrap();
    manager.checkin(session, delta as i64);
}

/// `FIN` + drain a manager-held session to its `Finished` event.
fn manager_drain(manager: &mut SessionManager, id: u64) -> Vec<WireEvent> {
    let mut session = manager.checkout(id).unwrap();
    session.fin();
    let mut events = Vec::new();
    let mut released = 0u64;
    loop {
        let (batch, freed) = session.poll(256).unwrap();
        released += freed;
        let finished = batch.iter().any(|e| matches!(e, WireEvent::Finished(_)));
        events.extend(batch);
        if finished {
            break;
        }
    }
    manager.checkin(session, -(released as i64));
    events
}

/// Open + feed the full sequence, unfinished and idle — ready to evict.
fn loaded_manager(
    dir: &Path,
    config: &PipelineConfig,
    sequence: &[SidedRecord],
) -> (SessionManager, u64) {
    let mut manager = SessionManager::new(8, u64::MAX, dir.to_path_buf()).unwrap();
    let id = manager.open(config.clone(), config.fingerprint()).unwrap();
    manager_feed(&mut manager, id, sequence);
    (manager, id)
}

/// No stray temporaries may survive a recovery sweep.
fn assert_no_tmp(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name();
        let name = name.to_string_lossy().to_string();
        assert!(
            !name.ends_with(".tmp") && !name.ends_with(".tmp-snapshot"),
            "temporary {name} survived the recovery sweep"
        );
    }
}

/// Cut offsets to sweep for a file of `len` bytes: exhaustive for small
/// files, boundaries + stride for large ones (always including 0, the
/// full length, and both edges).
fn cut_offsets(len: u64) -> Vec<u64> {
    if len <= 160 {
        return (0..=len).collect();
    }
    let mut cuts: Vec<u64> = (0..32).collect();
    let stride = ((len - 64) / 96).max(1);
    let mut x = 32;
    while x < len - 32 {
        cuts.push(x);
        x += stride;
    }
    cuts.extend(len - 32..=len);
    cuts
}

/// An eviction cut at every step of its one-file write, as a crash would
/// cut it (ALICE-style crash states: Pillai et al., "All File Systems
/// Are Not Created Equal", OSDI 2014): the temporary file torn at every
/// (strided) byte offset, its fsync failed, the rename done but the
/// directory not yet synced, and the directory fsync failed.  Each cut
/// keeps the in-memory session usable.  A restart over each state's
/// debris adopts the session or knows nothing of it — unknown or
/// quarantined, never a panic, never a stray temporary — and the one
/// adopted state drains to the batch run.
#[test]
fn every_crash_state_of_an_eviction_is_adopted_or_discarded_never_misread() {
    let _guard = serial();
    let data = generate(&DatagenConfig::mid_stream_dirty(40, 3)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let expected = solo_events(&config, &data);
    let half = sequence.len() / 2;

    // Learn the file size from one clean eviction.
    let probe_dir = scratch_dir("cut-probe");
    let (manager, id) = loaded_manager(&probe_dir, &config, &sequence[..half]);
    assert_eq!(manager.evict_all().unwrap(), 1);
    let len = std::fs::metadata(probe_dir.join(format!("session-{id}.snap")))
        .unwrap()
        .len();
    drop(manager);

    // Each state: the debris a crash at that step leaves.
    let mut states = Vec::new();
    let mut cut_at = |site: &str, cut: u64| {
        let dir = scratch_dir("cut");
        let (manager, _) = loaded_manager(&dir, &config, &sequence[..half]);
        fault::arm_with(site, Trigger::Nth(1), cut);
        let err = manager.evict_all().unwrap_err();
        assert!(fault::is_injected(&err), "{site} {cut}: {err}");
        assert_eq!(fault::hits(site), 1, "{site} must fire exactly once");
        fault::reset();
        assert_eq!(
            manager.stats().evicted_sessions,
            0,
            "the session stays live"
        );
        states.push((format!("{site} {cut}"), dir));
    };
    for cut in cut_offsets(len) {
        cut_at("evict.snap", cut);
    }
    cut_at("evict.fsync", 0);
    cut_at("evict.dirsync", 0);
    // After the rename, before the directory fsync: copy what is on disk.
    let dir = scratch_dir("renamed");
    let (manager, _) = loaded_manager(&dir, &config, &sequence[..half]);
    let crashed = scratch_dir("renamed-crash");
    fault::arm("evict.dirsync", Trigger::Pause);
    std::thread::scope(|scope| {
        let _unpark = Unpark;
        let evictor = scope.spawn(|| manager.evict_all());
        wait_parked("evict.dirsync");
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, crashed.join(path.file_name().unwrap())).unwrap();
        }
        fault::release("evict.dirsync");
        assert_eq!(evictor.join().unwrap().unwrap(), 1);
    });
    fault::reset();
    states.push(("after the rename".to_string(), crashed));

    let mut adopted = Vec::new();
    for (state, dir) in states {
        let mut manager = SessionManager::new(8, u64::MAX, dir.to_path_buf()).unwrap();
        assert_no_tmp(&dir);
        if manager.recovery().adopted == [id] {
            manager_feed(&mut manager, id, &sequence[half..]);
            assert_eq!(manager_drain(&mut manager, id), expected, "{state}");
            adopted.push(state);
            continue;
        }
        assert!(manager.recovery().adopted.is_empty(), "{state}");
        match manager.checkout(id) {
            Err(LinkageError::Quarantined(_)) | Err(LinkageError::UnknownSession(_)) => {}
            other => panic!("{state}: expected quarantine or nothing, got {other:?}"),
        }
    }
    assert_eq!(adopted, ["after the rename"], "only a renamed file commits");
}

/// The positive control for the sweep above: a *clean* eviction commits,
/// a restart adopts it, and the rehydrated session finishes the stream
/// bit-identically — including when the eviction cut the run before the
/// §3.3 exact→approximate switch, so the switch happens post-restart.
#[test]
fn clean_eviction_is_adopted_after_restart_and_resumes_across_the_switch() {
    let _guard = serial();
    let data = generate(&DatagenConfig::mid_stream_dirty(200, 11)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let expected = solo_events(&config, &data);
    assert!(
        expected.iter().any(|e| matches!(e, WireEvent::Switched(_))),
        "the workload must exercise the mid-stream switch"
    );

    let dir = scratch_dir("adopt");
    let half = sequence.len() / 2;
    let mut manager = SessionManager::new(8, u64::MAX, dir.to_path_buf()).unwrap();
    let id = manager.open(config.clone(), config.fingerprint()).unwrap();
    manager_feed(&mut manager, id, &sequence[..half]);
    assert_eq!(manager.evict_all().unwrap(), 1);
    drop(manager);

    let mut manager = SessionManager::new(8, u64::MAX, dir.to_path_buf()).unwrap();
    assert_eq!(manager.recovery().adopted, vec![id]);
    assert!(manager.recovery().quarantined.is_empty());
    manager_feed(&mut manager, id, &sequence[half..]);
    assert_eq!(manager.stats().rehydrations, 1);
    let got = manager_drain(&mut manager, id);
    assert_eq!(got, expected);
    // Rehydration consumed the file; nothing is left on disk.
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
}

/// Run one full RetryClient workload against `server` and return the
/// drained event stream.
fn retry_workload(
    addr: &str,
    config: &PipelineConfig,
    sequence: &[SidedRecord],
) -> (Vec<WireEvent>, RetryClient) {
    let mut policy = RetryPolicy::default();
    policy.backoff_base = std::time::Duration::from_micros(200);
    policy.backoff_max = std::time::Duration::from_millis(10);
    let mut client = RetryClient::connect(addr, policy);
    let handle = client.open(config).unwrap();
    let mut got = Vec::new();
    for batch in sequence.chunks(32) {
        client.feed(handle, batch).unwrap();
        got.extend(client.poll(handle, 64).unwrap());
    }
    got.extend(client.drain(handle, 128).unwrap());
    client.close(handle).unwrap();
    (got, client)
}

fn start_server(dir: &Path, mutate: impl FnOnce(&mut ServerConfig)) -> LinkageServer {
    let mut config = ServerConfig::default();
    config.evict_dir = Some(dir.to_path_buf());
    mutate(&mut config);
    LinkageServer::start(config).unwrap()
}

/// Sever the connection at **every** request boundary, one run per
/// boundary: the Nth request the server ever reads is dropped on the
/// floor (read, then severed, never handled).  The RetryClient must
/// resynchronise and the stream must come out bit-identical every time.
#[test]
fn a_connection_dropped_at_every_request_boundary_is_invisible() {
    let _guard = serial();
    let data = generate(&DatagenConfig::mid_stream_dirty(120, 23)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let expected = solo_events(&config, &data);

    let mut n = 1u64;
    loop {
        fault::arm("server.drop.recv", Trigger::Nth(n));
        let dir = scratch_dir("drop-recv");
        let server = start_server(&dir, |_| {});
        let (got, client) = retry_workload(&server.addr().to_string(), &config, &sequence);
        let hits = fault::hits("server.drop.recv");
        fault::reset();
        assert_eq!(got, expected, "drop.recv at request {n}: stream diverged");
        if hits == 0 {
            // The workload has fewer than n requests: the sweep covered
            // every boundary.
            assert!(n > 5, "the sweep must have covered a real workload");
            server.shutdown().unwrap();
            break;
        }
        assert!(client.reconnects() >= 2, "a drop must force a redial");
        server.shutdown().unwrap();
        n += 1;
    }
}

/// Cut the *reply* frame instead: the request was fully applied
/// server-side but the client saw `cut` bytes of the answer.  This is
/// the half-open case idempotent FEED resume exists for — a replayed
/// FEED must not double-insert.  Swept across every request boundary for
/// three cut depths: nothing, a torn header, and the full reply (applied
/// and answered, then severed).
#[test]
fn a_reply_cut_after_the_request_applied_does_not_double_feed() {
    let _guard = serial();
    let data = generate(&DatagenConfig::mid_stream_dirty(120, 23)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let expected = solo_events(&config, &data);

    for cut in [0u64, 3, u64::MAX] {
        let mut n = 1u64;
        loop {
            fault::arm_with("server.drop.reply", Trigger::Nth(n), cut);
            let dir = scratch_dir("drop-reply");
            let server = start_server(&dir, |_| {});
            let (got, _client) = retry_workload(&server.addr().to_string(), &config, &sequence);
            let hits = fault::hits("server.drop.reply");
            fault::reset();
            assert_eq!(
                got, expected,
                "drop.reply at request {n} cut {cut}: stream diverged"
            );
            server.shutdown().unwrap();
            if hits == 0 {
                assert!(n > 5, "the sweep must have covered a real workload");
                break;
            }
            n += 1;
        }
    }
}

/// A worker panic mid-`FEED` must not kill the server: the session is
/// quarantined with a typed error, the worker survives to serve the next
/// request, and the RetryClient heals by rebuilding the session from its
/// journal — the caller still sees the exact solo stream.
#[test]
fn a_poisoned_session_is_quarantined_and_the_client_heals_around_it() {
    let _guard = serial();
    let data = generate(&DatagenConfig::mid_stream_dirty(120, 23)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let expected = solo_events(&config, &data);

    fault::arm("session.panic", Trigger::Nth(1));
    let dir = scratch_dir("panic");
    let server = start_server(&dir, |_| {});
    let (got, mut client) = retry_workload(&server.addr().to_string(), &config, &sequence);
    assert_eq!(fault::hits("session.panic"), 1);
    fault::reset();

    assert_eq!(got, expected);
    assert!(client.heals() >= 1, "the poisoned session must have healed");
    let stats = {
        let mut probe = linkage_server::Client::connect(server.addr()).unwrap();
        probe.stats().unwrap()
    };
    assert!(stats.worker_panics >= 1);
    assert_eq!(
        stats.quarantined_sessions, 0,
        "healing closes the quarantined remains"
    );
    // The server is still fully serviceable after the panic.
    let (again, _) = retry_workload(&server.addr().to_string(), &config, &sequence);
    assert_eq!(again, expected);
    let _ = &mut client;
    server.shutdown().unwrap();
}

/// The capstone: several interleaved sessions on one fault-injected
/// server — random connection drops *and* budget-pressure evictions at
/// once — each drained stream bit-identical to its solo run.
#[test]
fn interleaved_sessions_under_random_drops_and_eviction_pressure_stay_exact() {
    let _guard = serial();
    let workloads: Vec<(PipelineConfig, Vec<SidedRecord>, Vec<WireEvent>)> = [11u64, 23, 31]
        .into_iter()
        .map(|seed| {
            let data = generate(&DatagenConfig::mid_stream_dirty(100, seed)).unwrap();
            let config = session_config(data.parents.len() as u64);
            let sequence = feed_sequence(&data);
            let expected = solo_events(&config, &data);
            (config, sequence, expected)
        })
        .collect();

    // Budget sized to hold roughly one and a half sessions: feeding in
    // round-robin keeps evicting whichever sessions sit idle.
    let one: u64 = workloads[0].1.iter().map(record_bytes).sum();
    let dir = scratch_dir("capstone");
    let server = start_server(&dir, |c| c.budget_bytes = one + one / 2);
    fault::arm_with(
        "server.drop.recv",
        Trigger::Probability {
            permille: 30,
            seed: 7,
        },
        0,
    );

    let mut policy = RetryPolicy::default();
    policy.backoff_base = std::time::Duration::from_micros(200);
    policy.backoff_max = std::time::Duration::from_millis(10);
    let mut client = RetryClient::connect(server.addr().to_string(), policy);
    let handles: Vec<u64> = workloads
        .iter()
        .map(|(config, _, _)| client.open(config).unwrap())
        .collect();

    let chunks = 8;
    let mut got: Vec<Vec<WireEvent>> = vec![Vec::new(); workloads.len()];
    for step in 0..chunks {
        for (k, (_, sequence, _)) in workloads.iter().enumerate() {
            let lo = sequence.len() * step / chunks;
            let hi = sequence.len() * (step + 1) / chunks;
            client.feed(handles[k], &sequence[lo..hi]).unwrap();
            got[k].extend(client.poll(handles[k], 48).unwrap());
        }
    }
    for (k, _) in workloads.iter().enumerate() {
        got[k].extend(client.drain(handles[k], 128).unwrap());
        client.close(handles[k]).unwrap();
    }
    let drops = fault::hits("server.drop.recv");
    fault::reset();

    for (k, (_, _, expected)) in workloads.iter().enumerate() {
        assert_eq!(&got[k], expected, "session {k} diverged under chaos");
    }
    assert!(drops >= 1, "the probability trigger must have fired");
    let stats = {
        let mut probe = linkage_server::Client::connect(server.addr()).unwrap();
        probe.stats().unwrap()
    };
    assert!(
        stats.evictions >= 1,
        "the budget must have forced evictions"
    );
    server.shutdown().unwrap();
}

/// Block until a thread is parked at `site` (armed with
/// [`Trigger::Pause`]).
fn wait_parked(site: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while fault::hits(site) == 0 {
        assert!(Instant::now() < deadline, "no thread reached {site}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Unparks every paused site when dropped, so a failed assertion inside
/// a thread scope unwinds instead of joining a parked thread forever.
struct Unpark;

impl Drop for Unpark {
    fn drop(&mut self) {
        fault::reset();
    }
}

/// Give `waiter` time to reach its wait, then check it is still blocked.
fn assert_blocked<T>(waiter: &std::thread::ScopedJoinHandle<'_, T>, what: &str) {
    std::thread::sleep(Duration::from_millis(20));
    assert!(!waiter.is_finished(), "{what} must wait, not return");
}

/// A failed directory fsync after the rename un-commits the
/// eviction: the session stays live and usable, its files are gone, and
/// nothing is left for a restart to adopt or quarantine.
#[test]
fn a_failed_directory_fsync_keeps_the_session_live_and_cleans_up() {
    let _guard = serial();
    let data = generate(&DatagenConfig::mid_stream_dirty(120, 23)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let expected = solo_events(&config, &data);

    let dir = scratch_dir("dirsync");
    let (mut manager, id) = loaded_manager(&dir, &config, &sequence);
    fault::arm("evict.dirsync", Trigger::Nth(1));
    let err = manager.evict_all().unwrap_err();
    assert!(fault::is_injected(&err), "{err}");
    assert_eq!(fault::hits("evict.dirsync"), 1);
    fault::reset();

    let stats = manager.stats();
    assert_eq!((stats.live_sessions, stats.evicted_sessions), (1, 0));
    assert_eq!(stats.evictions, 0);
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "the un-committed eviction's files are removed"
    );
    assert_eq!(manager_drain(&mut manager, id), expected);
    drop(manager);
    let manager = SessionManager::new(8, u64::MAX, dir.to_path_buf()).unwrap();
    assert_eq!(manager.recovery(), &Default::default());
}

/// A checkout that arrives while its session is being evicted waits for
/// the eviction to commit — it is not answered `BUSY` — then rehydrates
/// the session, whose stream is still the solo stream.
#[test]
fn a_checkout_during_an_eviction_waits_then_rehydrates() {
    let _guard = serial();
    let data = generate(&DatagenConfig::mid_stream_dirty(120, 23)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let expected = solo_events(&config, &data);
    let half = sequence.len() / 2;

    let dir = scratch_dir("pause-evicting");
    let (mut manager, id) = loaded_manager(&dir, &config, &sequence[..half]);
    fault::arm("evict.snap", Trigger::Pause);
    std::thread::scope(|scope| {
        let _unpark = Unpark;
        let evictor = scope.spawn(|| manager.evict_all());
        wait_parked("evict.snap");
        // In flight: neither live nor evicted yet.
        let stats = manager.stats();
        assert_eq!((stats.live_sessions, stats.evicted_sessions), (0, 0));
        let waiter = scope.spawn(|| manager.checkout(id));
        assert_blocked(&waiter, "a checkout of an evicting session");
        fault::release("evict.snap");
        assert_eq!(evictor.join().unwrap().unwrap(), 1);
        let session = waiter.join().unwrap().unwrap();
        manager.checkin(session, 0);
    });
    let stats = manager.stats();
    assert_eq!((stats.evictions, stats.rehydrations), (1, 1));
    assert_eq!(stats.rejected_busy, 0, "waiting is not a BUSY");

    manager_feed(&mut manager, id, &sequence[half..]);
    assert_eq!(manager_drain(&mut manager, id), expected);
}

/// `CLOSE` arriving while its session is being rehydrated waits for the
/// rehydration; the rehydrating request then holds the session, so the
/// `CLOSE` is `BUSY` (the checked-out rule) and succeeds once retried.
/// The eviction file is removed exactly once, by the rehydration, and
/// nothing is quarantined.
#[test]
fn close_during_a_rehydration_waits_and_quarantines_nothing() {
    let _guard = serial();
    let data = generate(&DatagenConfig::mid_stream_dirty(120, 23)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);

    let dir = scratch_dir("pause-rehydrating");
    let (manager, id) = loaded_manager(&dir, &config, &sequence);
    assert_eq!(manager.evict_all().unwrap(), 1);
    fault::arm("rehydrate.read", Trigger::Pause);
    std::thread::scope(|scope| {
        let _unpark = Unpark;
        let rehydrator = scope.spawn(|| manager.checkout(id));
        wait_parked("rehydrate.read");
        // Rehydrating holds room under the cap; its file is untouched.
        let stats = manager.stats();
        assert_eq!((stats.live_sessions, stats.evicted_sessions), (1, 0));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let closer = scope.spawn(|| manager.close(id));
        assert_blocked(&closer, "CLOSE of a rehydrating session");
        fault::release("rehydrate.read");
        let session = rehydrator.join().unwrap().unwrap();
        let closed = closer.join().unwrap();
        assert!(matches!(closed, Err(LinkageError::Busy(_))), "{closed:?}");
        manager.checkin(session, 0);
    });
    manager.close(id).unwrap();

    let stats = manager.stats();
    assert_eq!((stats.rehydrations, stats.closed), (1, 1));
    assert_eq!(stats.quarantined_sessions, 0);
    assert_eq!((stats.live_sessions, stats.state_bytes), (0, 0));
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
}

/// Shutdown requested while a `FEED`'s eviction is parked mid-write: the
/// shutdown waits for the request, the eviction commits, the FEED is
/// acknowledged, and the rest is persisted.  A restart on the same
/// directory adopts both sessions and finishes each with its solo
/// stream — zero loss.
#[test]
fn shutdown_during_a_parked_eviction_loses_nothing_after_restart() {
    let _guard = serial();
    let data = generate(&DatagenConfig::mid_stream_dirty(120, 23)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let expected = solo_events(&config, &data);
    let (half, most) = (sequence.len() / 2, sequence.len() * 3 / 4);

    // One whole sequence of budget: feeding b half of one after a holds
    // three quarters evicts a.
    let one: u64 = sequence.iter().map(record_bytes).sum();
    let dir = scratch_dir("pause-shutdown");
    let restart = || start_server(&dir, |c| c.budget_bytes = one);
    let server = restart();
    let mut client = Client::connect(server.addr()).unwrap();
    let a = client.open(&config).unwrap();
    let b = client.open(&config).unwrap();
    client.feed(a, &sequence[..most]).unwrap();
    let mut got_a = client.poll(a, u32::MAX).unwrap();

    fault::arm("evict.snap", Trigger::Pause);
    std::thread::scope(|scope| {
        let _unpark = Unpark;
        let feeder = scope.spawn(|| client.feed(b, &sequence[..half]));
        wait_parked("evict.snap");
        let stopper = scope.spawn(|| server.shutdown());
        assert_blocked(&stopper, "shutdown during an in-flight FEED");
        fault::release("evict.snap");
        assert_eq!(feeder.join().unwrap().unwrap().accepted, half as u64);
        assert_eq!(
            stopper.join().unwrap().unwrap(),
            1,
            "b is persisted at shutdown"
        );
    });
    drop(client);

    let server = restart();
    let stats = server.stats();
    assert_eq!((stats.evicted_sessions, stats.quarantined_sessions), (2, 0));
    let mut client = Client::connect(server.addr()).unwrap();
    client.feed(a, &sequence[most..]).unwrap();
    got_a.extend(client.drain(a, 256).unwrap());
    assert_eq!(got_a, expected, "a: evicted while parked");
    client.close(a).unwrap();
    client.feed(b, &sequence[half..]).unwrap();
    assert_eq!(
        client.drain(b, 256).unwrap(),
        expected,
        "b: fed when parked"
    );
    client.close(b).unwrap();
    drop(client);
    assert_eq!(server.shutdown().unwrap(), 0);
}
