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
//! eviction on disk; and the bytes the budget must cover (resident plus
//! reserved, less what is on its way to disk) must be within it.
//!
//! The model encodes *policy* only — which slot states exist, what each
//! request does to them, who gets evicted when (LRU idle first, under
//! the session cap and under the byte budget) — so it stays valid when
//! the mechanism underneath changes: the eviction file layout, or where
//! the I/O happens relative to the manager's lock.
//!
//! Eviction and rehydration each run in two halves: a *begin* under the
//! table lock (victims become `Evicting`; a rehydration reserves its
//! bytes and becomes `Rehydrating`) and a *commit* once the I/O is done.
//! Sequentially the halves follow each other at once.  With `--features
//! fault` a second property runs two **actors** — threads parked between
//! the halves by a [`Trigger::Pause`](linkage::types::fault::Trigger)
//! failpoint — so begins and commits interleave randomly with each other
//! and with the main thread's requests.  A request that reaches a session
//! in flight must wait for its commit, never answer `BUSY`.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use linkage::api::PipelineConfig;
use linkage::types::{LinkageError, PerSide, Record, Side, SidedRecord, Value};
use linkage_server::session::record_bytes;
use linkage_server::{Session, SessionManager};
use proptest::prelude::*;

use common::ScratchDir;

const CAP: usize = 3;
/// Every fed record costs the same, so the budget is a record count.
const BUDGET_RECORDS: u64 = 6;

/// The two-actor property arms the process-global failpoint registry, and
/// a sequential test's eviction must never run into an armed site: every
/// test here runs alone.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

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
    /// Picked as an eviction victim, files not yet committed.  Its bytes
    /// are still resident but no longer count against the budget.
    Evicting,
    /// On disk; `damaged` files fail their next rehydration.
    Evicted {
        damaged: bool,
    },
    /// Being read back: its bytes are reserved, its files still
    /// committed.
    Rehydrating {
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
    /// Bytes of admitted reservations whose victims are still `Evicting`.
    reserving: u64,
    next_id: u64,
    clock: u64,
    budget: u64,
    /// The lifetime counters; [`Self::counters`] adds the gauges.
    c: Counters,
}

impl Model {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Sessions holding room under the cap.
    fn occupied(&self) -> usize {
        self.slots
            .values()
            .filter(|s| {
                matches!(
                    s,
                    Slot::Live { .. } | Slot::Taken | Slot::Rehydrating { .. }
                )
            })
            .count()
    }

    /// Bytes charged: sessions in memory (leaving ones included) plus
    /// rehydration and byte reservations.
    fn charged(&self) -> u64 {
        self.slots
            .iter()
            .filter(|(_, s)| !matches!(s, Slot::Evicted { .. } | Slot::Quarantined))
            .map(|(id, _)| self.bytes[id])
            .sum::<u64>()
            + self.reserving
    }

    /// Bytes the budget must cover: everything charged but the sessions
    /// on their way to disk.
    fn kept(&self) -> u64 {
        let leaving: u64 = self
            .slots
            .iter()
            .filter(|(_, s)| **s == Slot::Evicting)
            .map(|(id, _)| self.bytes[id])
            .sum();
        self.charged() - leaving
    }

    fn counters(&self) -> Counters {
        let mut c = self.c.clone();
        for slot in self.slots.values() {
            match slot {
                Slot::Live { .. } | Slot::Taken | Slot::Rehydrating { .. } => c.live += 1,
                Slot::Evicted { .. } => c.evicted += 1,
                Slot::Quarantined => c.quarantined += 1,
                Slot::Evicting => {}
            }
        }
        c.state_bytes = self.charged();
        c
    }

    /// Begin evicting the least recently touched idle, unfinished
    /// session.
    fn take_victim(&mut self) -> Option<u64> {
        let (_, id) = self
            .slots
            .iter()
            .filter_map(|(id, slot)| match slot {
                Slot::Live { touch } if !self.done.contains(id) => Some((*touch, *id)),
                _ => None,
            })
            .min()?;
        self.slots.insert(id, Slot::Evicting);
        Some(id)
    }

    /// Commit begun evictions: the files are committed, the bytes leave.
    fn commit_evictions(&mut self, victims: &[u64]) {
        for &id in victims {
            assert_eq!(
                self.slots.insert(id, Slot::Evicted { damaged: false }),
                Some(Slot::Evicting)
            );
            self.c.evictions += 1;
        }
    }

    /// Begin evicting until `slots` more sessions fit under the cap and
    /// `incoming` more bytes under the budget.  When nothing idle is left
    /// first, the rejection is counted — the victims go either way.
    fn make_room(&mut self, slots: usize, incoming: u64) -> (Vec<u64>, Outcome) {
        let mut victims = Vec::new();
        loop {
            let over_cap = self.occupied() + slots > CAP;
            let over_budget = self.kept() + incoming > self.budget;
            if !over_cap && !over_budget {
                return (victims, Outcome::Ok);
            }
            if let Some(victim) = self.take_victim() {
                victims.push(victim);
            } else if over_cap {
                self.c.rejected_busy += 1;
                return (victims, Outcome::Busy);
            } else {
                self.c.rejected_over_budget += 1;
                return (victims, Outcome::OverBudget);
            }
        }
    }

    fn open(&mut self) -> (Outcome, u64) {
        let (victims, admitted) = self.make_room(1, 0);
        self.commit_evictions(&victims);
        if admitted != Outcome::Ok {
            return (admitted, 0);
        }
        self.next_id += 1;
        let (id, touch) = (self.next_id, self.tick());
        self.slots.insert(id, Slot::Live { touch });
        self.bytes.insert(id, 0);
        self.c.opened += 1;
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
            Some(Slot::Evicting | Slot::Rehydrating { .. }) => {
                unreachable!("a request for session {id} in flight waits for its commit")
            }
            Some(Slot::Live { .. }) => {
                self.tick();
                self.slots.insert(id, Slot::Taken);
                Outcome::Ok
            }
            Some(Slot::Evicted { .. }) => {
                let (victims, admitted) = self.rehydrate_begin(id);
                self.commit_evictions(&victims);
                if admitted != Outcome::Ok {
                    return admitted;
                }
                self.rehydrate_commit(id)
            }
        }
    }

    /// Begin rehydrating evicted `id`: make room for it under the cap
    /// and for its bytes under the budget, then reserve them.
    fn rehydrate_begin(&mut self, id: u64) -> (Vec<u64>, Outcome) {
        let Some(Slot::Evicted { damaged }) = self.slots.get(&id).copied() else {
            unreachable!("only an evicted session rehydrates");
        };
        let (victims, admitted) = self.make_room(1, self.bytes[&id]);
        if admitted == Outcome::Ok {
            self.slots.insert(id, Slot::Rehydrating { damaged });
        }
        (victims, admitted)
    }

    /// Commit a rehydration: the session comes back checked out, or its
    /// damaged files quarantine it.
    fn rehydrate_commit(&mut self, id: u64) -> Outcome {
        let Some(Slot::Rehydrating { damaged }) = self.slots.get(&id).copied() else {
            unreachable!("only a rehydrating session commits a rehydration");
        };
        if damaged {
            self.slots.insert(id, Slot::Quarantined);
            return Outcome::Quarantined;
        }
        self.slots.insert(id, Slot::Taken);
        self.c.rehydrations += 1;
        Outcome::Ok
    }

    fn reserve(&mut self, incoming: u64) -> Outcome {
        let (victims, admitted) = self.make_room(0, incoming);
        self.commit_evictions(&victims);
        admitted
    }

    /// Check a `Taken` session back in after it gained `added` bytes,
    /// or finished (releasing everything it held).
    fn checkin(&mut self, id: u64, added: u64, finished_now: bool) {
        let touch = self.tick();
        let held = self.bytes.get_mut(&id).expect("checked-in session");
        if finished_now {
            *held = 0;
            self.c.finished += 1;
            self.done.insert(id);
        } else {
            *held += added;
        }
        self.slots.insert(id, Slot::Live { touch });
    }

    fn close(&mut self, id: u64) -> Outcome {
        match self.slots.get(&id) {
            None => return Outcome::Unknown,
            Some(Slot::Taken) => {
                self.c.rejected_busy += 1;
                return Outcome::Busy;
            }
            Some(Slot::Evicting | Slot::Rehydrating { .. }) => {
                unreachable!("a CLOSE of session {id} in flight waits for its commit")
            }
            Some(_) => {}
        }
        self.slots.remove(&id);
        self.c.closed += 1;
        Outcome::Ok
    }

    /// A `Taken` session leaves memory for good: `poisoned` (a worker
    /// panic) leaves a quarantined tombstone, otherwise the slot goes.
    fn drop_taken(&mut self, id: u64, poisoned: bool) {
        if poisoned {
            self.slots.insert(id, Slot::Quarantined);
        } else {
            self.slots.remove(&id);
            self.c.closed += 1;
        }
    }

    /// Evict everything idle, one victim at a time.
    fn shutdown(&mut self) -> usize {
        let mut persisted = 0;
        while let Some(victim) = self.take_victim() {
            self.commit_evictions(&[victim]);
            persisted += 1;
        }
        persisted
    }
}

// -------------------------------------------------------------- harness

fn scratch_dir() -> ScratchDir {
    ScratchDir::new("slot-model")
}

fn evict_file(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("session-{id}.snap"))
}

struct Harness {
    manager: Arc<SessionManager>,
    model: Model,
    /// Sessions the test holds checked out (`Taken` in both tables).
    held: BTreeMap<u64, Box<Session>>,
    /// Per session: finished (FIN sent and drained).
    finished: BTreeMap<u64, bool>,
    next_record: u64,
    record_bytes: u64,
    /// The `Evicting` session whose file its rename already committed:
    /// the first victim of an actor parked at `evict.dirsync`.
    renamed: Option<u64>,
    /// Last, so that it drops after everything that writes into it.
    dir: ScratchDir,
}

impl Harness {
    fn new() -> Self {
        let dir = scratch_dir();
        let record_bytes = record_bytes(&record(0));
        let budget = BUDGET_RECORDS * record_bytes;
        Self {
            manager: Arc::new(SessionManager::new(CAP, budget, dir.to_path_buf()).unwrap()),
            model: Model {
                budget,
                ..Model::default()
            },
            held: BTreeMap::new(),
            finished: BTreeMap::new(),
            next_record: 0,
            record_bytes,
            renamed: None,
            dir,
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

    /// One request of kind `0..10`; `op` supplies its other choices.
    fn step(&mut self, kind: u64, op: u64) {
        let id = self.pick(op >> 8);
        let held = self.held.contains_key(&id);
        match kind {
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
                // Damage a committed eviction's snapshot on disk — also
                // one whose rehydration is parked before reading it: its
                // next rehydration must quarantine it.
                if let Some(Slot::Evicted { damaged } | Slot::Rehydrating { damaged }) =
                    self.model.slots.get_mut(&id)
                {
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
        assert_eq!(real, self.model.counters(), "slots: {:?}", self.model.slots);
        assert!(
            stats.live_sessions as usize <= CAP,
            "live sessions exceed the cap"
        );
        assert!(
            self.model.kept() <= self.model.budget,
            "resident + reserved bytes exceed the budget: {:?}",
            self.model.slots
        );
        for id in 1..=self.model.next_id {
            let committed = match self.model.slots.get(&id) {
                Some(Slot::Evicted { .. } | Slot::Rehydrating { .. }) => true,
                // In flight: committed once its rename ran — parked at
                // `evict.dirsync`, not at `evict.snap` or still queued.
                Some(Slot::Evicting) => self.renamed == Some(id),
                _ => false,
            };
            assert_eq!(
                evict_file(&self.dir, id).exists(),
                committed,
                "session {id}: a committed eviction on disk iff the slot is evicted \
                 (or its rehydration has not read it yet)"
            );
        }
    }
}

proptest! {
    #[test]
    fn the_slot_table_follows_the_reference_model(
        ops in proptest::collection::vec(0u64..u64::MAX, 20..90usize),
    ) {
        let _serial = serial();
        let mut harness = Harness::new();
        for &op in &ops {
            harness.step(op % 10, op);
        }
    }
}

/// Two actors whose evictions and rehydrations are parked between their
/// begin and their commit (`--features fault`).
#[cfg(feature = "fault")]
mod two_actors {
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    use linkage::types::fault::{self, Trigger};

    use super::*;

    /// Where an actor's eviction parks: before the first victim's file
    /// is written, or — when the other actor is parked there — after its
    /// rename, before the directory fsync.
    const EVICT_SITES: [&str; 2] = ["evict.snap", "evict.dirsync"];
    /// Where an actor's rehydration parks, before it reads anything.
    const REHYDRATE_SITE: &str = "rehydrate.read";

    /// What a parked actor began.
    enum Pending {
        /// A byte reservation whose `victims` are `Evicting`, holding
        /// `held` bytes meanwhile; `admitted` is what it returns once they
        /// commit.
        Evict {
            victims: Vec<u64>,
            admitted: Outcome,
            held: u64,
        },
        /// A checkout of `id`, which is `Rehydrating`.
        Rehydrate { id: u64 },
    }

    /// A request parked at `site` on a thread of its own.
    struct Actor {
        site: &'static str,
        request: JoinHandle<Result<Option<Box<Session>>, LinkageError>>,
        pending: Pending,
    }

    impl Actor {
        fn owns(&self, id: u64) -> bool {
            match &self.pending {
                Pending::Evict { victims, .. } => victims.contains(&id),
                Pending::Rehydrate { id: rehydrating } => *rehydrating == id,
            }
        }
    }

    pub(super) struct TwoActors {
        h: Harness,
        actors: [Option<Actor>; 2],
    }

    impl TwoActors {
        pub(super) fn new() -> Self {
            fault::reset();
            Self {
                h: Harness::new(),
                actors: [None, None],
            }
        }

        fn site_taken(&self, site: &str) -> bool {
            self.actors.iter().flatten().any(|a| a.site == site)
        }

        /// One step of kind `0..13`: the harness's requests, plus an
        /// actor beginning an eviction (10, 12) or a rehydration (11) —
        /// or committing, when it is already parked.
        pub(super) fn step(&mut self, op: u64) {
            let kind = op % 13;
            let id = self.h.pick(op >> 8);
            let in_flight = matches!(
                self.h.model.slots.get(&id),
                Some(Slot::Evicting | Slot::Rehydrating { .. })
            );
            match kind {
                10..=12 => {
                    let actor = ((op >> 4) % 2) as usize;
                    if self.actors[actor].is_some() {
                        self.commit(actor);
                    } else if kind == 11 {
                        self.begin_rehydration(actor, id);
                    } else {
                        self.begin_eviction(actor, (op >> 16) % 2 + 1);
                    }
                }
                2..=5 | 7 if in_flight => self.wait_for(id, kind == 7),
                _ => return self.h.step(kind, op),
            }
            self.h.check();
        }

        /// Release every parked actor and check what it returned.
        pub(super) fn settle(&mut self) {
            for actor in 0..2 {
                self.commit(actor);
            }
            self.h.check();
        }

        /// Block until the request is parked at `site`.
        fn park(site: &str, request: &JoinHandle<Result<Option<Box<Session>>, LinkageError>>) {
            let deadline = Instant::now() + Duration::from_secs(30);
            while fault::hits(site) == 0 {
                assert!(
                    !request.is_finished(),
                    "the model expected the request to park at {site}, but it returned"
                );
                assert!(Instant::now() < deadline, "nothing reached {site}");
                std::thread::sleep(Duration::from_micros(100));
            }
        }

        fn spawn(
            &mut self,
            actor: usize,
            site: &'static str,
            pending: Pending,
            request: impl FnOnce(&SessionManager) -> Result<Option<Box<Session>>, LinkageError>
                + Send
                + 'static,
        ) {
            fault::arm(site, Trigger::Pause);
            let manager = Arc::clone(&self.h.manager);
            let request = std::thread::spawn(move || request(&manager));
            Self::park(site, &request);
            self.actors[actor] = Some(Actor {
                site,
                request,
                pending,
            });
        }

        /// A bare byte reservation `beyond` records past the headroom:
        /// its victims go `Evicting` and the actor parks in the first
        /// one's file writes.
        fn begin_eviction(&mut self, actor: usize, beyond: u64) {
            let headroom = self.h.model.budget - self.h.model.kept();
            let incoming = headroom + beyond * self.h.record_bytes;
            let (victims, admitted) = self.h.model.make_room(0, incoming);
            if victims.is_empty() {
                // Nothing to evict, nothing parks.
                let real = self.h.manager.reserve_bytes(incoming);
                assert_eq!(outcome(&real), admitted, "reserve");
                return;
            }
            let site = EVICT_SITES
                .into_iter()
                .find(|site| !self.site_taken(site))
                .expect("two actors, two eviction sites");
            let held = if admitted == Outcome::Ok { incoming } else { 0 };
            self.h.model.reserving += held;
            if site == "evict.dirsync" {
                self.h.renamed = Some(victims[0]);
            }
            let pending = Pending::Evict {
                victims,
                admitted,
                held,
            };
            self.spawn(actor, site, pending, move |manager| {
                manager.reserve_bytes(incoming).map(|()| None)
            });
        }

        /// A checkout of an evicted session: its victims are evicted, its
        /// bytes reserved, and the actor parks before reading the files.
        fn begin_rehydration(&mut self, actor: usize, id: u64) {
            let evicted = matches!(self.h.model.slots.get(&id), Some(Slot::Evicted { .. }));
            if !evicted || self.site_taken(REHYDRATE_SITE) {
                return;
            }
            let (victims, admitted) = self.h.model.rehydrate_begin(id);
            // The victims land before the rehydration reads anything.
            self.h.model.commit_evictions(&victims);
            if admitted != Outcome::Ok {
                let real = self.h.manager.checkout(id);
                assert_eq!(outcome(&real), admitted, "checkout({id})");
                return;
            }
            self.spawn(actor, REHYDRATE_SITE, Pending::Rehydrate { id }, move |m| {
                m.checkout(id).map(Some)
            });
        }

        /// Release a parked actor, let its I/O finish, commit in the model.
        fn commit(&mut self, actor: usize) {
            let Some(Actor {
                site,
                request,
                pending,
            }) = self.actors[actor].take()
            else {
                return;
            };
            fault::release(site);
            let real = request.join().expect("actor thread");
            match pending {
                Pending::Evict {
                    victims,
                    admitted,
                    held,
                } => {
                    self.h.model.commit_evictions(&victims);
                    self.h.model.reserving -= held;
                    if site == "evict.dirsync" {
                        self.h.renamed = None;
                    }
                    assert_eq!(outcome(&real), admitted, "parked reserve");
                }
                Pending::Rehydrate { id } => {
                    let expected = self.h.model.rehydrate_commit(id);
                    assert_eq!(outcome(&real), expected, "parked rehydration of {id}");
                    if let Ok(Some(session)) = real {
                        self.h.held.insert(id, session);
                    }
                }
            }
        }

        /// A checkout (or `CLOSE`) of a session in flight waits until its
        /// transition commits, then proceeds as it would have from the
        /// settled slot.  A checked-out session is held.
        fn wait_for(&mut self, id: u64, close: bool) {
            let manager = Arc::clone(&self.h.manager);
            let waiter = std::thread::spawn(move || {
                if close {
                    manager.close(id).map(|()| None)
                } else {
                    manager.checkout(id).map(Some)
                }
            });
            std::thread::sleep(Duration::from_millis(2));
            assert!(
                !waiter.is_finished(),
                "a request for session {id} in flight must wait, not return"
            );
            let owner = (0..2)
                .find(|&a| self.actors[a].as_ref().is_some_and(|actor| actor.owns(id)))
                .expect("a session in flight has a parked actor");
            self.commit(owner);
            let real = waiter.join().expect("waiting request");
            let expected = if close {
                self.h.model.close(id)
            } else {
                self.h.model.checkout(id)
            };
            assert_eq!(outcome(&real), expected, "waited request for {id}");
            if let Ok(Some(session)) = real {
                self.h.held.insert(id, session);
            }
        }
    }

    impl Drop for TwoActors {
        fn drop(&mut self) {
            // Unpark whatever a failed case left parked.
            fault::reset();
            for actor in self.actors.iter_mut().filter_map(Option::take) {
                let _ = actor.request.join();
            }
        }
    }
}

#[cfg(feature = "fault")]
proptest! {
    #[test]
    fn two_actors_interleaving_begins_and_commits_follow_the_reference_model(
        ops in proptest::collection::vec(0u64..u64::MAX, 20..90usize),
    ) {
        let _serial = serial();
        let mut actors = two_actors::TwoActors::new();
        for &op in &ops {
            actors.step(op);
        }
        actors.settle();
    }
}

/// Satellite of ISSUE 23, pinned on its own: rehydration honours the
/// live-session cap — it evicts LRU idle sessions to make room, and is
/// `Busy` when everything live is pinned.
#[test]
fn rehydration_never_pushes_the_live_count_past_the_cap() {
    let _serial = serial();
    let dir = scratch_dir();
    let manager = SessionManager::new(1, u64::MAX, dir.to_path_buf()).unwrap();
    let a = manager.open(config(), config().fingerprint()).unwrap();
    let b = manager.open(config(), config().fingerprint()).unwrap();
    assert!(evict_file(&dir, a).exists(), "cap 1: opening b evicted a");

    // Touching a must put b on disk first.
    let session_a = manager.checkout(a).unwrap();
    assert!(evict_file(&dir, b).exists() && !evict_file(&dir, a).exists());
    assert_eq!(manager.stats().live_sessions, 1);

    // a is pinned, so b cannot come back: typed Busy, b stays evicted.
    let busy = manager.checkout(b);
    assert!(matches!(busy, Err(LinkageError::Busy(_))), "{busy:?}");
    assert!(evict_file(&dir, b).exists());
    let stats = manager.stats();
    assert_eq!((stats.live_sessions, stats.evicted_sessions), (1, 1));
    assert_eq!(stats.rejected_busy, 1);

    manager.checkin(session_a, 0);
    let session_b = manager.checkout(b).unwrap();
    assert!(evict_file(&dir, a).exists() && !evict_file(&dir, b).exists());
    assert_eq!(manager.stats().live_sessions, 1);
    manager.checkin(session_b, 0);
}
