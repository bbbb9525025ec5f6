//! Recovery-sweep tests: single-byte corruption and truncation of an
//! eviction file, a file bound to another session, a file without its
//! session input, and orphaned temporaries.  None of this needs fault
//! injection — the file is damaged directly on disk — so the suite runs
//! in the default (tier-1) configuration.
//!
//! The contract under test: a [`SessionManager`] pointed at an eviction
//! directory containing damaged bytes must **never panic and never
//! silently adopt** them.  Every defect becomes a typed quarantine with
//! a reason, `CLOSE` discards the remains, and the server stays fully
//! serviceable.

mod common;

use std::path::Path;

use linkage::api::PipelineConfig;
use linkage::types::snapshot::{kind, Encoder, SnapshotBuilder, SnapshotFile};
use linkage::types::{LinkageError, SidedRecord};
use linkage_datagen::{generate, DatagenConfig};
use linkage_server::proto::WireEvent;
use linkage_server::session::record_bytes;
use linkage_server::SessionManager;

use common::{feed_sequence, session_config, solo_events, ScratchDir};

fn scratch_dir(tag: &str) -> ScratchDir {
    ScratchDir::new(&format!("recovery-{tag}"))
}

/// One cleanly evicted session's file, captured as bytes so tests can
/// re-rig a directory into the pristine state at will.
struct Evicted {
    id: u64,
    bytes: Vec<u8>,
}

impl Evicted {
    /// Evict one fully fed, unfinished session and read its file back.
    fn capture(config: &PipelineConfig, sequence: &[SidedRecord]) -> Self {
        let dir = scratch_dir("capture");
        let manager = SessionManager::new(8, u64::MAX, dir.to_path_buf()).unwrap();
        let id = manager.open(config.clone(), config.fingerprint()).unwrap();
        let delta: u64 = sequence.iter().map(record_bytes).sum();
        let mut session = manager.checkout(id).unwrap();
        session.feed(sequence.to_vec()).unwrap();
        manager.checkin(session, delta as i64);
        assert_eq!(manager.evict_all().unwrap(), 1);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            [format!("session-{id}.snap")],
            "one file per session"
        );
        Self {
            id,
            bytes: std::fs::read(dir.join(format!("session-{id}.snap"))).unwrap(),
        }
    }

    /// Write `bytes` into `dir` as session `id`'s eviction file, wiping
    /// any previous quarantine.
    fn rig(dir: &Path, id: u64, bytes: &[u8]) {
        let _ = std::fs::remove_dir_all(dir.join("quarantine"));
        std::fs::write(dir.join(format!("session-{id}.snap")), bytes).unwrap();
    }
}

/// Byte offsets to damage: every byte for small files, boundaries plus
/// a stride for large ones.
fn strided_offsets(len: usize) -> Vec<usize> {
    if len <= 2048 {
        return (0..len).collect();
    }
    let mut v: Vec<usize> = (0..64).collect();
    let stride = ((len - 128) / 512).max(1);
    let mut x = 64;
    while x < len - 64 {
        v.push(x);
        x += stride;
    }
    v.extend(len - 64..len);
    v
}

/// A restart over `dir` quarantines session `id` at the sweep — never
/// adopts it, never panics — and `checkout` answers with a typed
/// [`LinkageError::Quarantined`].  Returns the sweep's reason.
fn assert_swept_into_quarantine(dir: &Path, id: u64, case: &str) -> String {
    let manager = SessionManager::new(8, u64::MAX, dir.to_path_buf()).unwrap();
    assert!(
        manager.recovery().adopted.is_empty(),
        "{case}: a damaged file was adopted"
    );
    assert_eq!(manager.recovery().quarantined.len(), 1, "{case}");
    let (qid, reason) = manager.recovery().quarantined[0].clone();
    assert_eq!(qid, id, "{case}");
    match manager.checkout(id) {
        Err(LinkageError::Quarantined(m)) => assert!(m.contains("quarantined")),
        other => panic!("{case}: expected Quarantined, got {other:?}"),
    }
    let stats = manager.stats();
    assert_eq!((stats.quarantined_sessions, stats.evicted_sessions), (1, 0));
    assert!(dir.join(format!("quarantine/session-{id}.snap")).exists());
    reason
}

/// The one eviction every test starts from: a `mid_stream_dirty(40, 3)`
/// session fed all its records, and its declaration.
fn captured() -> (PipelineConfig, Evicted) {
    let data = generate(&DatagenConfig::mid_stream_dirty(40, 3)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let evicted = Evicted::capture(&config, &feed_sequence(&data));
    (config, evicted)
}

/// Flip one byte anywhere (strided): in the header, the section table
/// or a payload.  The container's own checks catch the header, the
/// table's offsets, lengths and CRCs, and every payload; `BIND`'s digest
/// of the section kinds catches a flipped kind.  Every case is
/// quarantined at the sweep — never adopted, never a panic.
#[test]
fn single_byte_corruption_at_any_offset_is_quarantined_never_adopted() {
    let (_, evicted) = captured();
    let dir = scratch_dir("flip");
    for offset in strided_offsets(evicted.bytes.len()) {
        let mut damaged = evicted.bytes.clone();
        damaged[offset] ^= 0xA5;
        Evicted::rig(&dir, evicted.id, &damaged);
        assert_swept_into_quarantine(&dir, evicted.id, &format!("byte {offset}"));
    }
}

/// Every byte of the section table, flipped: the kind fields, which the
/// container does not check, are quarantined at the sweep by `BIND`'s
/// digest of the kinds, with that reason.
#[test]
fn a_flipped_section_kind_is_quarantined_at_the_sweep() {
    let (_, evicted) = captured();
    let dir = scratch_dir("kind-flip");
    let sections = u32::from_le_bytes(evicted.bytes[12..16].try_into().unwrap()) as usize;
    let mut by_digest = 0;
    for offset in 16..16 + sections * 24 {
        let mut damaged = evicted.bytes.clone();
        damaged[offset] ^= 0xA5;
        Evicted::rig(&dir, evicted.id, &damaged);
        let reason = assert_swept_into_quarantine(&dir, evicted.id, &format!("byte {offset}"));
        if reason.contains("section kinds digest") {
            by_digest += 1;
        }
    }
    // Four kind bytes per section.  A flip in `INPUT`'s or `BIND`'s own
    // kind fails before the digest (no `INPUT`; no `BIND` last); every
    // other section's kind flip is the digest's to catch.
    assert_eq!(by_digest, (sections - 2) * 4);
}

/// A file cut short at any (strided) length is quarantined at the sweep.
#[test]
fn a_torn_eviction_file_is_quarantined() {
    let (_, evicted) = captured();
    let dir = scratch_dir("torn");
    for cut in strided_offsets(evicted.bytes.len()) {
        Evicted::rig(&dir, evicted.id, &evicted.bytes[..cut]);
        assert_swept_into_quarantine(&dir, evicted.id, &format!("cut {cut}"));
    }
}

/// The positive control: an unmodified file is adopted, rehydrated on
/// first touch — which deletes it — and drains to the batch run.
#[test]
fn a_pristine_eviction_file_is_adopted() {
    let data = generate(&DatagenConfig::mid_stream_dirty(40, 3)).unwrap();
    let (config, evicted) = captured();
    let dir = scratch_dir("pristine");
    Evicted::rig(&dir, evicted.id, &evicted.bytes);
    let manager = SessionManager::new(8, u64::MAX, dir.to_path_buf()).unwrap();
    assert_eq!(manager.recovery().adopted, vec![evicted.id]);
    assert!(manager.recovery().quarantined.is_empty());
    let mut session = manager.checkout(evicted.id).unwrap();
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    session.fin();
    let mut events = Vec::new();
    while !session.is_done() {
        events.extend(session.poll(64).unwrap().0);
    }
    assert!(matches!(events.last(), Some(WireEvent::Finished(_))));
    assert_eq!(events, solo_events(&config, &data));
    manager.checkin(session, 0);
}

/// Session A's file under session B's name passes the container checks
/// but not the `BIND` check: a typed quarantine that names both ids.
#[test]
fn a_file_bound_to_another_session_is_quarantined() {
    let (_, evicted) = captured();
    let dir = scratch_dir("mixed");
    let other = evicted.id + 8;
    Evicted::rig(&dir, other, &evicted.bytes);
    let reason = assert_swept_into_quarantine(&dir, other, "renamed");
    assert!(
        reason.contains(&format!(
            "bound to session {}, not to session {other}",
            evicted.id
        )),
        "got: {reason}"
    );
}

/// A session file without its `INPUT` section is not a session
/// snapshot: quarantined at the sweep.  One whose `INPUT` claims more
/// records than its payload could hold is adopted by the sweep, which
/// does not decode `INPUT`, and fails rehydration as a typed quarantine
/// — never an allocation sized from the count.
#[test]
fn a_session_file_missing_or_lying_about_its_input_is_quarantined() {
    let (_, evicted) = captured();
    let honest = SnapshotFile::from_bytes(&evicted.bytes).unwrap();
    let input = u32::from(kind::INPUT);
    let rebuilt = |replacement: Option<Vec<u8>>| {
        let mut builder = SnapshotBuilder::new();
        for (kind, payload) in honest.sections() {
            match (kind == input, &replacement) {
                (false, _) => builder.push_section(kind, payload.to_vec()),
                (true, Some(payload)) => builder.push_section(kind, payload.clone()),
                (true, None) => {}
            }
        }
        builder.to_bytes()
    };

    let dir = scratch_dir("no-input");
    Evicted::rig(&dir, evicted.id, &rebuilt(None));
    let reason = assert_swept_into_quarantine(&dir, evicted.id, "no INPUT");
    assert!(reason.contains("no INPUT section"), "got: {reason}");

    let mut lying = Encoder::new();
    lying.put_bool(false);
    lying.put_u32(u32::MAX);
    let dir = scratch_dir("lying-input");
    Evicted::rig(&dir, evicted.id, &rebuilt(Some(lying.finish())));
    let manager = SessionManager::new(8, u64::MAX, dir.to_path_buf()).unwrap();
    assert_eq!(manager.recovery().adopted, vec![evicted.id]);
    match manager.checkout(evicted.id) {
        Err(LinkageError::Quarantined(message)) => {
            assert!(message.contains("count 4294967295"), "got: {message}")
        }
        other => panic!("expected a typed quarantine, got {other:?}"),
    }
    assert_eq!(manager.stats().quarantined_sessions, 1);
}

/// Orphaned temporaries (an eviction cut before its rename commits it,
/// or a torn checkpoint) are swept away and counted.
#[test]
fn orphaned_temporaries_are_swept_and_counted() {
    let (_, evicted) = captured();
    let dir = scratch_dir("tmp-sweep");
    Evicted::rig(&dir, evicted.id, &evicted.bytes);
    let torn = dir.join(format!("session-{}.snap.tmp", evicted.id + 1));
    std::fs::write(&torn, &evicted.bytes[..100]).unwrap();
    std::fs::write(dir.join("session-9.tmp-snapshot"), b"torn").unwrap();

    let manager = SessionManager::new(8, u64::MAX, dir.to_path_buf()).unwrap();
    assert_eq!(manager.recovery().removed_tmp_files, 2);
    assert_eq!(manager.recovery().adopted, vec![evicted.id]);
    assert!(!torn.exists());
    assert!(!dir.join("session-9.tmp-snapshot").exists());
}

/// `CLOSE` on a quarantined session frees the slot *and* deletes the
/// parked remains; afterwards the id is simply unknown.
#[test]
fn close_discards_a_quarantined_session_and_its_parked_files() {
    let (_, evicted) = captured();
    let dir = scratch_dir("close-quarantined");
    let mut damaged = evicted.bytes.clone();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0xFF;
    Evicted::rig(&dir, evicted.id, &damaged);

    let manager = SessionManager::new(8, u64::MAX, dir.to_path_buf()).unwrap();
    assert_eq!(manager.recovery().quarantined.len(), 1);
    manager.close(evicted.id).unwrap();
    let qdir = dir.join("quarantine");
    assert_eq!(
        std::fs::read_dir(&qdir).unwrap().count(),
        0,
        "CLOSE must delete the parked file"
    );
    match manager.checkout(evicted.id) {
        Err(LinkageError::UnknownSession(_)) => {}
        other => panic!("expected UnknownSession after CLOSE, got {other:?}"),
    }
    assert_eq!(manager.stats().quarantined_sessions, 0);
}
