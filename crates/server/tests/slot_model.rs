//! Model-based test of the [`SessionManager`] slot state machine
//! (ROADMAP item 7a).
//!
//! A random sequence of the operations a server performs — open, feed
//! (checkout + byte reservation + check-in), finish, hold a session
//! checked out, release it, poison or discard it, close, damage an
//! evicted session's files, shut down (evict everything idle) — runs
//! against a real manager over a real eviction directory and, in
//! lockstep, against [`Model`]: a reference implementation of the slot
//! table that knows nothing about engines, snapshots or files.  After
//! every step the two must agree on the outcome of the operation, on
//! every admission counter, and on which sessions have a committed
//! eviction on disk.
//!
//! The model encodes *policy* only — which slot states exist, what each
//! request does to them, who gets evicted when (LRU idle first, under
//! the session cap and under the byte budget) — so it stays valid when
//! the mechanism underneath changes: the eviction file layout, or where
//! the I/O happens relative to the manager's lock.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use linkage::api::PipelineConfig;
use linkage::types::{LinkageError, PerSide, Record, Side, SidedRecord, Value};
use linkage_server::session::record_bytes;
use linkage_server::{Session, SessionManager};
use proptest::prelude::*;

const CAP: usize = 3;
/// Every fed record costs the same, so the budget is a record count.
const BUDGET_RECORDS: u64 = 6;

fn record(n: u64) -> SidedRecord {
    let side = if n.is_multiple_of(2) {
        Side::Left
    } else {
        Side::Right
    };
    SidedRecord::new(
        side,
        Record::new(n, vec![Value::string(format!("KEY {:04}", n % 7))]),
    )
}

fn config() -> PipelineConfig {
    let mut config = PipelineConfig::default();
    config.keys = PerSide::new(0, 0);
    config.reference_size = Some(64);
    config
}

/// How a request ended, as far as admission is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Busy,
    OverBudget,
    Unknown,
    Quarantined,
}

fn outcome<T>(result: &Result<T, LinkageError>) -> Outcome {
    match result {
        Ok(_) => Outcome::Ok,
        Err(LinkageError::Busy(_)) => Outcome::Busy,
        Err(LinkageError::OverBudget(_)) => Outcome::OverBudget,
        Err(LinkageError::UnknownSession(_)) => Outcome::Unknown,
        Err(LinkageError::Quarantined(_)) => Outcome::Quarantined,
        Err(other) => panic!("an error the slot model has no state for: {other}"),
    }
}

// ---------------------------------------------------------------- model

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// In memory and idle; `touch` orders LRU eviction.
    Live {
        touch: u64,
    },
    /// Checked out: pinned, invisible to the evictor.
    Taken,
    /// On disk; `damaged` files fail their next rehydration.
    Evicted {
        damaged: bool,
    },
    Quarantined,
}

/// The counters of `ServerStats` the slot machine owns.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Counters {
    live: u64,
    evicted: u64,
    quarantined: u64,
    opened: u64,
    finished: u64,
    closed: u64,
    evictions: u64,
    rehydrations: u64,
    rejected_busy: u64,
    rejected_over_budget: u64,
    state_bytes: u64,
}

#[derive(Debug, Default)]
struct Model {
    slots: BTreeMap<u64, Slot>,
    /// Budget bytes each session holds (wherever it lives).
    bytes: BTreeMap<u64, u64>,
    /// Sessions that delivered `Finished`: live, but never evictable.
    done: BTreeSet<u64>,
    next_id: u64,
    clock: u64,
    budget: u64,
    c: Counters,
}

impl Model {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Evict the least recently touched idle, unfinished session.
    fn evict_lru(&mut self) -> bool {
        let lru = self
            .slots
            .iter()
            .filter_map(|(id, slot)| match slot {
                Slot::Live { touch } if !self.done.contains(id) => Some((*touch, *id)),
                _ => None,
            })
            .min();
        let Some((_, id)) = lru else { return false };
        self.slots.insert(id, Slot::Evicted { damaged: false });
        self.c.state_bytes -= self.bytes[&id];
        self.c.evictions += 1;
        self.c.evicted += 1;
        self.c.live -= 1;
        true
    }

    /// Evict until a live slot is free under the cap.
    fn make_room(&mut self) -> Outcome {
        while self.c.live as usize >= CAP {
            if !self.evict_lru() {
                self.c.rejected_busy += 1;
                return Outcome::Busy;
            }
        }
        Outcome::Ok
    }

    fn open(&mut self) -> (Outcome, u64) {
        if self.make_room() != Outcome::Ok {
            return (Outcome::Busy, 0);
        }
        self.next_id += 1;
        let (id, touch) = (self.next_id, self.tick());
        self.slots.insert(id, Slot::Live { touch });
        self.bytes.insert(id, 0);
        self.c.opened += 1;
        self.c.live += 1;
        (Outcome::Ok, id)
    }

    fn checkout(&mut self, id: u64) -> Outcome {
        match self.slots.get(&id).copied() {
            None => Outcome::Unknown,
            Some(Slot::Quarantined) => Outcome::Quarantined,
            Some(Slot::Taken) => {
                self.c.rejected_busy += 1;
                Outcome::Busy
            }
            Some(Slot::Live { .. }) => {
                self.tick();
                self.slots.insert(id, Slot::Taken);
                Outcome::Ok
            }
            Some(Slot::Evicted { damaged }) => {
                if self.make_room() != Outcome::Ok {
                    return Outcome::Busy;
                }
                self.c.evicted -= 1;
                if damaged {
                    self.slots.insert(id, Slot::Quarantined);
                    self.c.quarantined += 1;
                    return Outcome::Quarantined;
                }
                self.slots.insert(id, Slot::Taken);
                self.c.rehydrations += 1;
                self.c.live += 1;
                self.c.state_bytes += self.bytes[&id];
                while self.c.state_bytes > self.budget && self.evict_lru() {}
                Outcome::Ok
            }
        }
    }

    fn reserve(&mut self, incoming: u64) -> Outcome {
        while self.c.state_bytes + incoming > self.budget {
            if !self.evict_lru() {
                self.c.rejected_over_budget += 1;
                return Outcome::OverBudget;
            }
        }
        Outcome::Ok
    }

    /// Check a `Taken` session back in after it gained `added` bytes,
    /// or finished (releasing everything it held).
    fn checkin(&mut self, id: u64, added: u64, finished_now: bool) {
        let touch = self.tick();
        let held = self.bytes.get_mut(&id).expect("checked-in session");
        if finished_now {
            self.c.state_bytes -= *held;
            *held = 0;
            self.c.finished += 1;
            self.done.insert(id);
        } else {
            *held += added;
            self.c.state_bytes += added;
        }
        self.slots.insert(id, Slot::Live { touch });
    }

    fn close(&mut self, id: u64) -> Outcome {
        match self.slots.get(&id).copied() {
            None => return Outcome::Unknown,
            Some(Slot::Taken) => {
                self.c.rejected_busy += 1;
                return Outcome::Busy;
            }
            Some(Slot::Quarantined) => self.c.quarantined -= 1,
            Some(Slot::Evicted { .. }) => self.c.evicted -= 1,
            Some(Slot::Live { .. }) => {
                self.c.state_bytes -= self.bytes[&id];
                self.c.live -= 1;
            }
        }
        self.slots.remove(&id);
        self.c.closed += 1;
        Outcome::Ok
    }

    /// A `Taken` session leaves memory for good: `poisoned` (a worker
    /// panic) leaves a quarantined tombstone, otherwise the slot goes.
    fn drop_taken(&mut self, id: u64, poisoned: bool) {
        self.c.state_bytes -= self.bytes[&id];
        self.c.live -= 1;
        if poisoned {
            self.slots.insert(id, Slot::Quarantined);
            self.c.quarantined += 1;
        } else {
            self.slots.remove(&id);
            self.c.closed += 1;
        }
    }

    fn shutdown(&mut self) -> usize {
        let mut persisted = 0;
        while self.evict_lru() {
            persisted += 1;
        }
        persisted
    }
}

// -------------------------------------------------------------- harness

fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "linkage-slot-model-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn manifest(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("session-{id}.evict"))
}

struct Harness {
    dir: PathBuf,
    manager: SessionManager,
    model: Model,
    /// Sessions the test holds checked out (`Taken` in both tables).
    held: BTreeMap<u64, Box<Session>>,
    /// Per session: finished (FIN sent and drained).
    finished: BTreeMap<u64, bool>,
    next_record: u64,
    record_bytes: u64,
}

impl Harness {
    fn new() -> Self {
        let dir = scratch_dir();
        let record_bytes = record_bytes(&record(0));
        let budget = BUDGET_RECORDS * record_bytes;
        Self {
            manager: SessionManager::new(CAP, budget, dir.clone()).unwrap(),
            dir,
            model: Model {
                budget,
                ..Model::default()
            },
            held: BTreeMap::new(),
            finished: BTreeMap::new(),
            next_record: 0,
            record_bytes,
        }
    }

    /// The `pick`-th session ever opened (closed ones included — those
    /// exercise the unknown-session arm), or an id never issued.
    fn pick(&self, pick: u64) -> u64 {
        match self.model.next_id {
            0 => 999,
            n => pick % (n + 1) + 1,
        }
    }

    /// Checkout in both tables; the real session only on agreement.
    fn checkout(&mut self, id: u64) -> Option<Box<Session>> {
        let real = self.manager.checkout(id);
        assert_eq!(outcome(&real), self.model.checkout(id), "checkout({id})");
        real.ok()
    }

    fn step(&mut self, op: u64) {
        let id = self.pick(op >> 8);
        let held = self.held.contains_key(&id);
        match op % 10 {
            0 | 1 => {
                let real = self.manager.open(config(), config().fingerprint());
                let (expected, id) = self.model.open();
                assert_eq!(outcome(&real), expected, "open");
                if let Ok(real_id) = real {
                    assert_eq!(real_id, id, "ids are issued in order");
                    self.finished.insert(id, false);
                }
            }
            // FEED: checkout, reserve the batch's bytes, feed, check in.
            2 | 3 if !held && !self.finished.get(&id).copied().unwrap_or(false) => {
                let Some(mut session) = self.checkout(id) else {
                    return;
                };
                let count = (op >> 16) % 4 + 1;
                let incoming = count * self.record_bytes;
                let reserved = self.manager.reserve_bytes(incoming);
                assert_eq!(outcome(&reserved), self.model.reserve(incoming), "reserve");
                let mut added = 0;
                if reserved.is_ok() {
                    let batch = (0..count)
                        .map(|_| {
                            self.next_record += 1;
                            record(self.next_record)
                        })
                        .collect();
                    added = session.feed(batch).unwrap();
                    assert_eq!(added, incoming);
                }
                self.manager.checkin(session, added as i64);
                self.model.checkin(id, added, false);
            }
            // FIN + drain to `Finished`: the session's bytes are released.
            4 if !held && !self.finished.get(&id).copied().unwrap_or(true) => {
                let Some(mut session) = self.checkout(id) else {
                    return;
                };
                session.fin();
                let mut released = 0;
                while !session.is_done() {
                    released += session.poll(64).unwrap().1;
                }
                self.manager.checkin(session, -(released as i64));
                self.model.checkin(id, 0, true);
                self.finished.insert(id, true);
            }
            // Hold a session checked out across later steps.
            5 if !held => {
                if let Some(session) = self.checkout(id) {
                    self.held.insert(id, session);
                }
            }
            // A second request for a held session must bounce.
            5 => {
                assert!(
                    self.checkout(id).is_none(),
                    "held session checked out twice"
                );
            }
            6 => {
                // Release the longest-held session, if any.
                if let Some((&id, _)) = self.held.iter().next() {
                    let session = self.held.remove(&id).unwrap();
                    self.manager.checkin(session, 0);
                    self.model.checkin(id, 0, false);
                }
            }
            7 => {
                let real = self.manager.close(id);
                assert_eq!(outcome(&real), self.model.close(id), "close({id})");
            }
            8 if held => {
                // The request holding the session dies: a panic poisons
                // the slot, an engine error discards it.
                let session = self.held.remove(&id).unwrap();
                let poisoned = (op >> 16).is_multiple_of(2);
                if poisoned {
                    let prior = session.state_bytes();
                    drop(session);
                    self.manager.quarantine_poisoned(id, prior, "model panic");
                } else {
                    self.manager.discard(session);
                }
                self.model.drop_taken(id, poisoned);
            }
            8 => {
                // Damage an evicted session's snapshot on disk: its next
                // rehydration must quarantine it.
                if let Some(Slot::Evicted { damaged }) = self.model.slots.get_mut(&id) {
                    let snap = self.dir.join(format!("session-{id}.snap"));
                    let bytes = std::fs::read(&snap).unwrap();
                    std::fs::write(&snap, &bytes[..bytes.len() / 2]).unwrap();
                    *damaged = true;
                }
            }
            9 => {
                let persisted = self.manager.evict_all().unwrap();
                assert_eq!(persisted, self.model.shutdown(), "shutdown");
            }
            _ => {}
        }
        self.check();
    }

    fn check(&self) {
        let stats = self.manager.stats();
        let real = Counters {
            live: stats.live_sessions,
            evicted: stats.evicted_sessions,
            quarantined: stats.quarantined_sessions,
            opened: stats.opened,
            finished: stats.finished,
            closed: stats.closed,
            evictions: stats.evictions,
            rehydrations: stats.rehydrations,
            rejected_busy: stats.rejected_busy,
            rejected_over_budget: stats.rejected_over_budget,
            state_bytes: stats.state_bytes,
        };
        assert_eq!(real, self.model.c, "slots: {:?}", self.model.slots);
        assert!(
            stats.live_sessions as usize <= CAP,
            "live sessions exceed the cap"
        );
        for id in 1..=self.model.next_id {
            let committed = matches!(self.model.slots.get(&id), Some(Slot::Evicted { .. }));
            assert_eq!(
                manifest(&self.dir, id).exists(),
                committed,
                "session {id}: a committed eviction on disk iff the slot is evicted"
            );
        }
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

proptest! {
    #[test]
    fn the_slot_table_follows_the_reference_model(
        ops in proptest::collection::vec(0u64..u64::MAX, 20..90usize),
    ) {
        let mut harness = Harness::new();
        for &op in &ops {
            harness.step(op);
        }
    }
}

/// Satellite of ISSUE 23, pinned on its own: rehydration honours the
/// live-session cap — it evicts LRU idle sessions to make room, and is
/// `Busy` when everything live is pinned.
#[test]
fn rehydration_never_pushes_the_live_count_past_the_cap() {
    let dir = scratch_dir();
    let mut manager = SessionManager::new(1, u64::MAX, dir.clone()).unwrap();
    let a = manager.open(config(), config().fingerprint()).unwrap();
    let b = manager.open(config(), config().fingerprint()).unwrap();
    assert!(manifest(&dir, a).exists(), "cap 1: opening b evicted a");

    // Touching a must put b on disk first.
    let session_a = manager.checkout(a).unwrap();
    assert!(manifest(&dir, b).exists() && !manifest(&dir, a).exists());
    assert_eq!(manager.stats().live_sessions, 1);

    // a is pinned, so b cannot come back: typed Busy, b stays evicted.
    let busy = manager.checkout(b);
    assert!(matches!(busy, Err(LinkageError::Busy(_))), "{busy:?}");
    assert!(manifest(&dir, b).exists());
    let stats = manager.stats();
    assert_eq!((stats.live_sessions, stats.evicted_sessions), (1, 1));
    assert_eq!(stats.rejected_busy, 1);

    manager.checkin(session_a, 0);
    let session_b = manager.checkout(b).unwrap();
    assert!(manifest(&dir, a).exists() && !manifest(&dir, b).exists());
    assert_eq!(manager.stats().live_sessions, 1);
    manager.checkin(session_b, 0);
    let _ = std::fs::remove_dir_all(dir);
}
