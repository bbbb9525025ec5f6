//! Recovery-sweep tests: single-byte corruption of the eviction files,
//! uncommitted pairs, orphaned temporaries, and mixed-up pairs.  None of
//! this needs fault injection — the files are damaged directly on disk —
//! so the suite runs in the default (tier-1) configuration.
//!
//! The contract under test: a [`SessionManager`] pointed at an eviction
//! directory containing damaged bytes must **never panic and never
//! silently adopt** them.  Every defect becomes a typed quarantine with
//! a reason, `CLOSE` discards the remains, and the server stays fully
//! serviceable.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use linkage::api::PipelineConfig;
use linkage::types::snapshot::{crc32, Encoder, SnapshotBuilder, SnapshotFile};
use linkage::types::wire::put_sided_record;
use linkage::types::{LinkageError, PerSide, Side, SidedRecord};
use linkage_datagen::{generate, DatagenConfig, GeneratedData};
use linkage_server::session::{record_bytes, FEED_META_KIND, FEED_PENDING_KIND, MANIFEST_KIND};
use linkage_server::SessionManager;

fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "linkage-recovery-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn session_config(reference: u64) -> PipelineConfig {
    let mut config = PipelineConfig::default();
    config.keys = PerSide::new(GeneratedData::KEY_COLUMN, GeneratedData::KEY_COLUMN);
    config.reference_size = Some(reference);
    config
}

fn feed_sequence(data: &GeneratedData) -> Vec<SidedRecord> {
    data.parents
        .records()
        .iter()
        .map(|r| SidedRecord::new(Side::Left, r.clone()))
        .chain(
            data.children
                .records()
                .iter()
                .map(|r| SidedRecord::new(Side::Right, r.clone())),
        )
        .collect()
}

/// One cleanly evicted session's on-disk trio, captured as bytes so
/// tests can re-rig a directory into the pristine state at will.
struct Trio {
    id: u64,
    snap: Vec<u8>,
    feed: Vec<u8>,
    manifest: Vec<u8>,
}

impl Trio {
    /// Evict one part-fed session and read its three files back.
    fn capture(config: &PipelineConfig, sequence: &[SidedRecord]) -> Self {
        let dir = scratch_dir("trio");
        let mut manager = SessionManager::new(8, u64::MAX, dir.clone()).unwrap();
        let id = manager.open(config.clone(), config.fingerprint()).unwrap();
        let delta: u64 = sequence.iter().map(record_bytes).sum();
        let mut session = manager.checkout(id).unwrap();
        session.feed(sequence.to_vec()).unwrap();
        manager.checkin(session, delta as i64);
        assert_eq!(manager.evict_all().unwrap(), 1);
        let read =
            |suffix: &str| std::fs::read(dir.join(format!("session-{id}.{suffix}"))).unwrap();
        Self {
            id,
            snap: read("snap"),
            feed: read("feed"),
            manifest: read("evict"),
        }
    }

    /// Write the trio into `dir` (pristine unless a mutator damaged the
    /// byte vectors first), wiping any previous quarantine.
    fn rig(&self, dir: &Path, snap: &[u8], feed: &[u8], manifest: &[u8]) {
        let _ = std::fs::remove_dir_all(dir.join("quarantine"));
        std::fs::write(dir.join(format!("session-{}.snap", self.id)), snap).unwrap();
        std::fs::write(dir.join(format!("session-{}.feed", self.id)), feed).unwrap();
        std::fs::write(dir.join(format!("session-{}.evict", self.id)), manifest).unwrap();
    }
}

/// Byte offsets to corrupt: every byte for small files, boundaries plus
/// a stride for large ones.
fn corrupt_offsets(len: usize) -> Vec<usize> {
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

/// Flip one byte of the manifest, the sidecar (every offset) or the
/// snapshot (strided): the sweep must quarantine the session with a
/// typed reason — never adopt it, never panic — and `checkout` must
/// answer with a typed [`LinkageError::Quarantined`].
#[test]
fn single_byte_corruption_at_any_offset_is_quarantined_never_adopted() {
    let data = generate(&DatagenConfig::mid_stream_dirty(40, 3)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let trio = Trio::capture(&config, &sequence);
    let dir = scratch_dir("flip");

    let files: [(&str, &[u8]); 3] = [
        ("manifest", &trio.manifest),
        ("feed", &trio.feed),
        ("snap", &trio.snap),
    ];
    for (which, pristine) in files {
        for offset in corrupt_offsets(pristine.len()) {
            let mut damaged = pristine.to_vec();
            damaged[offset] ^= 0xA5;
            match which {
                "manifest" => trio.rig(&dir, &trio.snap, &trio.feed, &damaged),
                "feed" => trio.rig(&dir, &trio.snap, &damaged, &trio.manifest),
                _ => trio.rig(&dir, &damaged, &trio.feed, &trio.manifest),
            }
            let mut manager = SessionManager::new(8, u64::MAX, dir.clone()).unwrap();
            assert!(
                manager.recovery().adopted.is_empty(),
                "{which} byte {offset}: corrupt files were adopted"
            );
            assert_eq!(
                manager.recovery().quarantined.len(),
                1,
                "{which} byte {offset}: expected one quarantined session"
            );
            let (qid, reason) = &manager.recovery().quarantined[0];
            assert_eq!(*qid, trio.id);
            assert!(!reason.is_empty());
            match manager.checkout(trio.id) {
                Err(LinkageError::Quarantined(m)) => assert!(m.contains("quarantined")),
                other => panic!("{which} byte {offset}: expected Quarantined, got {other:?}"),
            }
            let stats = manager.stats();
            assert_eq!(stats.quarantined_sessions, 1);
            assert_eq!(stats.evicted_sessions, 0);
        }
    }
}

/// The positive control: an unmodified trio is adopted.
#[test]
fn a_pristine_trio_is_adopted() {
    let data = generate(&DatagenConfig::mid_stream_dirty(40, 3)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let trio = Trio::capture(&config, &sequence);
    let dir = scratch_dir("pristine");
    trio.rig(&dir, &trio.snap, &trio.feed, &trio.manifest);
    let manager = SessionManager::new(8, u64::MAX, dir).unwrap();
    assert_eq!(manager.recovery().adopted, vec![trio.id]);
    assert!(manager.recovery().quarantined.is_empty());
}

/// A data pair without its manifest was never committed: quarantined
/// with a reason that says so.
#[test]
fn a_pair_without_a_manifest_is_an_uncommitted_eviction() {
    let data = generate(&DatagenConfig::mid_stream_dirty(40, 3)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let trio = Trio::capture(&config, &sequence);
    let dir = scratch_dir("no-manifest");
    trio.rig(&dir, &trio.snap, &trio.feed, &trio.manifest);
    std::fs::remove_file(dir.join(format!("session-{}.evict", trio.id))).unwrap();

    let manager = SessionManager::new(8, u64::MAX, dir.clone()).unwrap();
    assert!(manager.recovery().adopted.is_empty());
    let (qid, reason) = &manager.recovery().quarantined[0];
    assert_eq!(*qid, trio.id);
    assert!(
        reason.contains("never committed"),
        "reason must name the missing commit, got: {reason}"
    );
    // The remains were parked, not deleted: forensics stay possible.
    let qdir = dir.join("quarantine");
    assert!(qdir.join(format!("session-{}.snap", trio.id)).exists());
    assert!(qdir.join(format!("session-{}.feed", trio.id)).exists());
}

/// Orphaned temporaries (a crash mid-write under the old two-file scheme
/// or a torn manifest commit) are swept away and counted.
#[test]
fn orphaned_temporaries_are_swept_and_counted() {
    let data = generate(&DatagenConfig::mid_stream_dirty(40, 3)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let trio = Trio::capture(&config, &sequence);
    let dir = scratch_dir("tmp-sweep");
    trio.rig(&dir, &trio.snap, &trio.feed, &trio.manifest);
    std::fs::write(dir.join(format!("session-{}.evict.tmp", trio.id)), b"torn").unwrap();
    std::fs::write(dir.join("session-9.tmp-snapshot"), b"torn").unwrap();

    let manager = SessionManager::new(8, u64::MAX, dir.clone()).unwrap();
    assert_eq!(manager.recovery().removed_tmp_files, 2);
    assert_eq!(manager.recovery().adopted, vec![trio.id]);
    assert!(!dir.join(format!("session-{}.evict.tmp", trio.id)).exists());
    assert!(!dir.join("session-9.tmp-snapshot").exists());
}

/// `CLOSE` on a quarantined session frees the slot *and* deletes the
/// parked remains; afterwards the id is simply unknown.
#[test]
fn close_discards_a_quarantined_session_and_its_parked_files() {
    let data = generate(&DatagenConfig::mid_stream_dirty(40, 3)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let trio = Trio::capture(&config, &sequence);
    let dir = scratch_dir("close-quarantined");
    let mut damaged = trio.feed.clone();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0xFF;
    trio.rig(&dir, &trio.snap, &damaged, &trio.manifest);

    let mut manager = SessionManager::new(8, u64::MAX, dir.clone()).unwrap();
    assert_eq!(manager.recovery().quarantined.len(), 1);
    manager.close(trio.id).unwrap();
    let qdir = dir.join("quarantine");
    for suffix in ["snap", "feed", "evict"] {
        assert!(
            !qdir.join(format!("session-{}.{suffix}", trio.id)).exists(),
            "CLOSE must delete the parked {suffix} file"
        );
    }
    match manager.checkout(trio.id) {
        Err(LinkageError::UnknownSession(_)) => {}
        other => panic!("expected UnknownSession after CLOSE, got {other:?}"),
    }
    assert_eq!(manager.stats().quarantined_sessions, 0);
}

/// A mixed-up pair — session A's snapshot next to session B's sidecar,
/// under a manifest whose lengths and CRCs are all *correct* — passes
/// the sweep (the commit record is self-consistent) but must fail
/// rehydration with a typed error naming both files, then quarantine.
#[test]
fn a_mixed_eviction_pair_fails_rehydration_with_a_typed_cross_check() {
    let data_a = generate(&DatagenConfig::mid_stream_dirty(40, 3)).unwrap();
    let config_a = session_config(data_a.parents.len() as u64);
    let trio_a = Trio::capture(&config_a, &feed_sequence(&data_a));
    let data_b = generate(&DatagenConfig::mid_stream_dirty(60, 5)).unwrap();
    let config_b = session_config(data_b.parents.len() as u64);
    let trio_b = Trio::capture(&config_b, &feed_sequence(&data_b));

    // Franken-pair under a fresh id: A's snapshot, B's sidecar, and a
    // manifest whose length/CRC claims both files genuinely satisfy.
    let id = 9u64;
    let dir = scratch_dir("mixed");
    let mut m = Encoder::new();
    m.put_u64(id);
    m.put_u32(config_b.fingerprint());
    m.put_u64(trio_a.snap.len() as u64);
    m.put_u32(crc32(&trio_a.snap));
    m.put_u64(trio_b.feed.len() as u64);
    m.put_u32(crc32(&trio_b.feed));
    let mut commit = SnapshotBuilder::new();
    commit.push_section(MANIFEST_KIND, m.finish());
    std::fs::write(dir.join(format!("session-{id}.snap")), &trio_a.snap).unwrap();
    std::fs::write(dir.join(format!("session-{id}.feed")), &trio_b.feed).unwrap();
    std::fs::write(dir.join(format!("session-{id}.evict")), commit.to_bytes()).unwrap();

    let mut manager = SessionManager::new(8, u64::MAX, dir.clone()).unwrap();
    assert_eq!(
        manager.recovery().adopted,
        vec![id],
        "a self-consistent manifest passes the sweep"
    );
    match manager.checkout(id) {
        Err(LinkageError::Quarantined(message)) => {
            assert!(message.contains("eviction pair mismatch"), "got: {message}");
            assert!(
                message.contains(&format!("session-{id}.snap"))
                    && message.contains(&format!("session-{id}.feed")),
                "the error must name both files, got: {message}"
            );
        }
        other => panic!("expected the cross-check to fail checkout, got {other:?}"),
    }
    let stats = manager.stats();
    assert_eq!(stats.quarantined_sessions, 1);
    assert_eq!(stats.evicted_sessions, 0);
}

/// A sidecar that is committed and CRC-clean but whose contents lie —
/// a pending-record count no payload could hold, or more pending records
/// than were ever pushed — passes the sweep (the commit record is
/// self-consistent) and must fail rehydration as a typed quarantine:
/// never an allocation sized from the count, never an adoption.
#[test]
fn a_sidecar_with_impossible_counts_is_quarantined_not_trusted() {
    let data = generate(&DatagenConfig::mid_stream_dirty(40, 3)).unwrap();
    let config = session_config(data.parents.len() as u64);
    let sequence = feed_sequence(&data);
    let trio = Trio::capture(&config, &sequence);
    let honest = SnapshotFile::from_bytes(&trio.feed).unwrap();
    let meta = honest.section(FEED_META_KIND).unwrap().to_vec();

    let mut huge = Encoder::new();
    huge.put_u32(u32::MAX);
    // FEED_META ends with the pushed count and the fed bytes, a `u64`
    // each: claim nothing was ever pushed, yet queue one record.
    let mut nothing_pushed = meta.clone();
    let at = nothing_pushed.len() - 16;
    nothing_pushed[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
    let mut one = Encoder::new();
    one.put_u32(1);
    put_sided_record(&mut one, &sequence[0]);

    for (meta, pending, needle) in [
        (meta, huge.finish(), "count 4294967295"),
        (
            nothing_pushed,
            one.finish(),
            "0 pushed records but holds 1 pending",
        ),
    ] {
        let mut sidecar = SnapshotBuilder::new();
        sidecar.push_section(FEED_META_KIND, meta);
        sidecar.push_section(FEED_PENDING_KIND, pending);
        let feed = sidecar.to_bytes();
        let mut m = Encoder::new();
        m.put_u64(trio.id);
        m.put_u32(config.fingerprint());
        m.put_u64(trio.snap.len() as u64);
        m.put_u32(crc32(&trio.snap));
        m.put_u64(feed.len() as u64);
        m.put_u32(crc32(&feed));
        let mut commit = SnapshotBuilder::new();
        commit.push_section(MANIFEST_KIND, m.finish());

        let dir = scratch_dir("lying-sidecar");
        trio.rig(&dir, &trio.snap, &feed, &commit.to_bytes());
        let mut manager = SessionManager::new(8, u64::MAX, dir).unwrap();
        assert_eq!(manager.recovery().adopted, vec![trio.id]);
        match manager.checkout(trio.id) {
            Err(LinkageError::Quarantined(message)) => {
                assert!(message.contains(needle), "got: {message}")
            }
            other => panic!("expected a typed quarantine, got {other:?}"),
        }
        assert_eq!(manager.stats().quarantined_sessions, 1);
    }
}
