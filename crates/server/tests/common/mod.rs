//! What the server suites share: the session declaration, the feed
//! order, and the references a served run is held to.  A reference runs
//! a loop other than the server's own (fed batches, popped events), so a
//! defect in where that loop places an event shows as a difference.

#![allow(dead_code)]

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use linkage::api::{InterleavePolicy, Pipeline, PipelineConfig, Source};
use linkage::types::{PerSide, Side, SidedRecord};
use linkage_datagen::GeneratedData;
use linkage_server::proto::{wire_event, WireEvent};

/// A fresh directory under the temp dir, `linkage-<name>-<pid>-<n>`,
/// removed when the guard drops.  Declare it before any server or
/// manager that writes into it, so that it outlives them.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(name: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "linkage-{name}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        // Process ids are reused: clear what an earlier run left here.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The session declaration every test uses: datagen's key column, an
/// explicit reference size (sessions cannot infer one).
pub fn session_config(reference: u64) -> PipelineConfig {
    let mut config = PipelineConfig::default();
    config.keys = PerSide::new(GeneratedData::KEY_COLUMN, GeneratedData::KEY_COLUMN);
    config.reference_size = Some(reference);
    config
}

/// The deterministic feed order used throughout: every parent, then the
/// children in stream order — [`InterleavePolicy::LeftFirst`] over the
/// two relations.
pub fn feed_sequence(data: &GeneratedData) -> Vec<SidedRecord> {
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

/// Ground truth for a session fed [`feed_sequence`]: the batch pipeline
/// over the same relations in the same order, every event collected.
pub fn solo_events(config: &PipelineConfig, data: &GeneratedData) -> Vec<WireEvent> {
    let mut config = config.clone();
    config.interleave = InterleavePolicy::LeftFirst;
    Pipeline::builder()
        .config(config)
        .left(Source::relation(&data.parents))
        .right(Source::relation(&data.children))
        .run()
        .unwrap()
        .map(|event| wire_event(&event.unwrap()))
        .collect()
}

/// Ground truth for an order no interleave policy produces: a session
/// fed one tuple at a time, with every ready event popped in between —
/// the batch pipeline's rhythm.
pub fn stepped_events(config: &PipelineConfig, sequence: &[SidedRecord]) -> Vec<WireEvent> {
    let mut stream = Pipeline::builder()
        .config(config.clone())
        .session()
        .unwrap()
        .run()
        .unwrap();
    let mut events = Vec::new();
    for sided in sequence {
        stream.feed(std::slice::from_ref(sided)).unwrap();
        while let Some(event) = stream.next_ready() {
            events.push(wire_event(&event.unwrap()));
        }
    }
    stream.finish();
    events.extend(stream.map(|event| wire_event(&event.unwrap())));
    events
}
