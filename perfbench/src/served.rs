//! The two served workloads: sessions driven over TCP against one
//! in-process `linkage-server` by two closed-loop clients.
//!
//! The protocol is strict request/reply and the FEEDs of a session are
//! ordered, so a caller that waits for each reply is the real caller: the
//! load is a closed loop of two clients, one per core.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use linkage::api::PipelineConfig;
use linkage::datagen::DatagenConfig;
use linkage::types::{LinkageError, Result};
use linkage_server::proto::WireEvent;
use linkage_server::{Client, LinkageServer, ServerConfig, ServerStats};

use crate::api_run::{resume_first_event_ms, run_stream};
use crate::batch::checkpointed_run;
use crate::bench::{Bench, Checks, PassResult, StreamTiming};
use crate::data::{count_correct, ids, sequence_hash, wrong_switch, Dataset, IdPair, Mode};
use crate::trace::Tracer;

/// Records per FEED and events asked for per POLL.
pub const FEED_BATCH: usize = 64;
/// Events asked for per POLL while draining after FIN.
const DRAIN_BATCH: u32 = 256;
/// Client threads, one connection each; the host has two cores.
pub const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Far above what the clients ever hold open: the session cap must never
/// be what evicts.
const MAX_SESSIONS: usize = 64;

#[derive(Debug, Clone, Copy)]
pub struct ServedSpec {
    pub sessions: usize,
    pub parents: usize,
    /// Sessions a client keeps open and feeds round-robin.
    pub open_per_client: usize,
    /// Shrink the byte budget to two and a half fully fed sessions.
    pub evict: bool,
}

/// Request latencies in milliseconds, by request kind.
#[derive(Debug, Default, Clone)]
pub struct KindLatencies {
    pub open: Vec<f64>,
    pub feed: Vec<f64>,
    pub poll: Vec<f64>,
    pub finish: Vec<f64>,
    pub close: Vec<f64>,
    /// FEED sent → matching POLL reply received.
    pub roundtrip: Vec<f64>,
}

impl KindLatencies {
    fn absorb(&mut self, other: KindLatencies) {
        self.open.extend(other.open);
        self.feed.extend(other.feed);
        self.poll.extend(other.poll);
        self.finish.extend(other.finish);
        self.close.extend(other.close);
        self.roundtrip.extend(other.roundtrip);
    }

    pub fn requests(&self) -> usize {
        self.open.len() + self.feed.len() + self.poll.len() + self.finish.len() + self.close.len()
    }
}

/// What a client saw of one session.
pub struct SessionResult {
    pub index: usize,
    pub pairs: Vec<IdPair>,
    pub switch_after: Option<u64>,
    /// FEED sent → matching POLL reply received, per batch, milliseconds.
    pub roundtrip_ms: Vec<f64>,
    pub finished_at: Instant,
}

pub fn server_config(budget_bytes: Option<u64>, evict_dir: PathBuf) -> ServerConfig {
    let mut config = ServerConfig::default();
    config.workers = WORKERS;
    config.max_sessions = MAX_SESSIONS;
    if let Some(budget) = budget_bytes {
        config.budget_bytes = budget;
    }
    config.evict_dir = Some(evict_dir);
    config
}

fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    into: &mut Vec<f64>,
    request: impl FnOnce() -> Result<T>,
) -> Result<T> {
    let span = tracer.begin(name);
    let start = Instant::now();
    let reply = request();
    into.push(start.elapsed().as_secs_f64() * 1e3);
    tracer.end(span);
    reply
}

/// Run the sessions `group` end to end on one connection: OPEN them all,
/// feed them one 64-record batch at a time in turn (a POLL after every
/// FEED), then FIN, drain and CLOSE each.
pub fn drive_group(
    client: &mut Client,
    group: &[usize],
    datasets: &[Dataset],
    configs: &[PipelineConfig],
    tracer: &mut Tracer,
    log: &mut KindLatencies,
) -> Result<Vec<SessionResult>> {
    struct Open<'a> {
        index: usize,
        id: u64,
        chunks: std::slice::Chunks<'a, linkage::types::SidedRecord>,
        events: Vec<WireEvent>,
        roundtrip_ms: Vec<f64>,
    }
    let mut open = Vec::with_capacity(group.len());
    for &index in group {
        tracer.set_trace(index as u32);
        let id = timed(tracer, "client.open", &mut log.open, || {
            client.open(&configs[index])
        })?;
        open.push(Open {
            index,
            id,
            chunks: datasets[index].sequence.chunks(FEED_BATCH),
            events: Vec::new(),
            roundtrip_ms: Vec::new(),
        });
    }
    loop {
        let mut fed = false;
        for session in &mut open {
            let Some(chunk) = session.chunks.next() else {
                continue;
            };
            fed = true;
            tracer.set_trace(session.index as u32);
            let start = Instant::now();
            timed(tracer, "client.feed", &mut log.feed, || {
                client.feed(session.id, chunk)
            })?;
            let events = timed(tracer, "client.poll", &mut log.poll, || {
                client.poll(session.id, FEED_BATCH as u32)
            })?;
            let roundtrip_ms = start.elapsed().as_secs_f64() * 1e3;
            session.roundtrip_ms.push(roundtrip_ms);
            log.roundtrip.push(roundtrip_ms);
            session.events.extend(events);
        }
        if !fed {
            break;
        }
    }
    let mut results = Vec::with_capacity(open.len());
    for mut session in open {
        tracer.set_trace(session.index as u32);
        timed(tracer, "client.finish", &mut log.finish, || {
            client.finish(session.id)
        })?;
        let report = loop {
            let events = timed(tracer, "client.poll", &mut log.poll, || {
                client.poll(session.id, DRAIN_BATCH)
            })?;
            if events.is_empty() {
                return Err(LinkageError::execution(format!(
                    "session {} stopped yielding events before Finished",
                    session.index
                )));
            }
            session.events.extend(events);
            if let Some(WireEvent::Finished(report)) = session.events.last() {
                break report.clone();
            }
        };
        let finished_at = Instant::now();
        timed(tracer, "client.close", &mut log.close, || {
            client.close(session.id)
        })?;
        let pairs = session
            .events
            .iter()
            .filter_map(|event| match event {
                WireEvent::Match(pair) => Some(ids(pair)),
                _ => None,
            })
            .collect();
        results.push(SessionResult {
            index: session.index,
            pairs,
            switch_after: report.switch.map(|s| s.after_tuples),
            roundtrip_ms: session.roundtrip_ms,
            finished_at,
        });
    }
    Ok(results)
}

/// Feed one whole session to a server of its own and read back the bytes
/// the server accounts for it: the unit the eviction budget is set in.
/// Calibrating on the server's own accounting keeps the pressure the same
/// if that accounting changes.
fn session_state_bytes(dataset: &Dataset, evict_dir: PathBuf) -> Result<u64> {
    let server = LinkageServer::start(server_config(None, evict_dir))?;
    let mut client = Client::connect(server.addr())?;
    let id = client.open(&dataset.session_config())?;
    let mut bytes = 0;
    for chunk in dataset.sequence.chunks(FEED_BATCH) {
        bytes = client.feed(id, chunk)?.state_bytes;
    }
    client.close(id)?;
    drop(client);
    server.shutdown()?;
    Ok(bytes)
}

/// Serve one dataset alone: a server of its own, one client, one session.
/// Returns the request latencies and the server's counters at the end.
pub fn serve_alone(
    dataset: &Dataset,
    evict_dir: PathBuf,
    tracer: &mut Tracer,
) -> Result<(KindLatencies, ServerStats)> {
    let server = LinkageServer::start(server_config(None, evict_dir))?;
    let mut client = Client::connect(server.addr())?;
    let mut log = KindLatencies::default();
    drive_group(
        &mut client,
        &[0],
        std::slice::from_ref(dataset),
        &[dataset.session_config()],
        tracer,
        &mut log,
    )?;
    let stats = server.stats();
    drop(client);
    server.shutdown()?;
    Ok((log, stats))
}

pub struct ServedBench {
    pub spec: ServedSpec,
    pub datasets: Vec<Dataset>,
    configs: Vec<PipelineConfig>,
    server: LinkageServer,
    /// Pair-sequence hash of each session's solo pipeline run.
    reference: Vec<u64>,
    checkpoint: PathBuf,
    /// Request latencies of the most recent pass.
    last_kinds: KindLatencies,
}

impl ServedBench {
    /// Generate the sessions' datasets, calibrate the budget and start
    /// the server. `evict_dir` must be new for every call.
    pub fn setup(spec: ServedSpec, seed: u64, tmp: &Path, evict_dir: PathBuf) -> Result<Self> {
        let datasets = (0..spec.sessions)
            .map(|i| {
                Dataset::generate(DatagenConfig::mid_stream_dirty(
                    spec.parents,
                    seed + i as u64,
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        let configs = datasets.iter().map(Dataset::session_config).collect();
        let budget = if spec.evict {
            let one = session_state_bytes(&datasets[0], evict_dir.join("calibrate"))?;
            Some(one * 5 / 2)
        } else {
            None
        };
        let server = LinkageServer::start(server_config(budget, evict_dir))?;
        Ok(ServedBench {
            spec,
            datasets,
            configs,
            server,
            reference: Vec::new(),
            checkpoint: tmp.join("checkpoint.snap"),
            last_kinds: KindLatencies::default(),
        })
    }
}

impl Bench for ServedBench {
    fn warm_up(&mut self, checks: &mut Checks) -> Result<()> {
        // Each served stream must equal a solo pipeline run over the same
        // sequence, pair by pair.
        self.reference.clear();
        for (i, dataset) in self.datasets.iter().enumerate() {
            let run = if i == 0 {
                checkpointed_run(dataset, Mode::Serial, &self.checkpoint, checks)?
            } else {
                run_stream(dataset, Mode::Serial, &mut Tracer::off())?
            };
            self.reference.push(sequence_hash(&run.pairs));
        }
        self.pass(&mut Tracer::off(), checks)?;
        Ok(())
    }

    fn pass(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Result<PassResult> {
        let indices: Vec<usize> = (0..self.datasets.len()).collect();
        let groups: Vec<&[usize]> = indices.chunks(self.spec.open_per_client.max(1)).collect();
        let next = AtomicUsize::new(0);
        let addr = self.server.addr();
        let (datasets, configs) = (&self.datasets, &self.configs);
        let start = Instant::now();
        let outcomes: Vec<Result<(Vec<SessionResult>, KindLatencies, Tracer)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|_| {
                        let mut tracer = tracer.sibling();
                        let (next, groups) = (&next, &groups);
                        scope.spawn(move || {
                            let mut client = Client::connect(addr)?;
                            let mut log = KindLatencies::default();
                            let mut results = Vec::new();
                            while let Some(group) = groups.get(next.fetch_add(1, Ordering::Relaxed))
                            {
                                results.extend(drive_group(
                                    &mut client,
                                    group,
                                    datasets,
                                    configs,
                                    &mut tracer,
                                    &mut log,
                                )?);
                            }
                            Ok((results, log, tracer))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| {
                            Err(LinkageError::execution("a client thread panicked"))
                        })
                    })
                    .collect()
            });

        let mut pass = PassResult::default();
        let mut kinds = KindLatencies::default();
        let mut last_finished = start;
        let mut tuples = 0usize;
        for outcome in outcomes {
            let (results, log, client_tracer) = outcome?;
            kinds.absorb(log);
            tracer.absorb(client_tracer);
            for session in results {
                let dataset = &self.datasets[session.index];
                checks.check(
                    self.reference.get(session.index).copied()
                        == Some(sequence_hash(&session.pairs)),
                    || {
                        format!(
                            "session {}: stream differs from the solo run",
                            session.index
                        )
                    },
                );
                last_finished = last_finished.max(session.finished_at);
                tuples += dataset.tuples();
                pass.streams.push(StreamTiming {
                    index: session.index,
                    tuples_per_s: None,
                    max_stall_ms: session.roundtrip_ms.iter().copied().fold(0.0, f64::max),
                    roundtrip_ms: session.roundtrip_ms,
                });
                pass.emitted += session.pairs.len() as u64;
                pass.correct += count_correct(&session.pairs, &dataset.truth) as u64;
                pass.truth += dataset.truth.len() as u64;
                if wrong_switch(dataset, session.switch_after.is_some()) {
                    pass.wrong_switches += 1;
                }
                if let (Some(after), Some(dirty_at)) =
                    (session.switch_after, dataset.first_dirty_at)
                {
                    pass.detection_delay.push(after as f64 - dirty_at as f64);
                }
            }
        }
        checks.passed(kinds.requests() as u64);
        pass.pass_tuples_per_s = Some(tuples as f64 / (last_finished - start).as_secs_f64());
        self.last_kinds = kinds;
        Ok(pass)
    }

    /// The cost a rehydration pays: `Pipeline::resume` of a session-sized
    /// checkpoint, through the same call the batch workloads time.
    fn resume_ms(&mut self) -> Result<f64> {
        resume_first_event_ms(&self.datasets[0], Mode::Serial, &self.checkpoint)
    }

    fn pooled_roundtrips(&self) -> bool {
        true
    }

    fn profile(&self) -> &Dataset {
        &self.datasets[0]
    }

    fn mode(&self) -> Mode {
        Mode::Serial
    }

    fn server_stats(&self) -> Option<ServerStats> {
        Some(self.server.stats())
    }

    fn last_kinds(&self) -> Option<&KindLatencies> {
        Some(&self.last_kinds)
    }
}
