//! The traced run: per-layer metrics measured from outside.
//!
//! Every number here comes from the benchmark calling a layer's public
//! functions on the workload's own first dataset and timing the call, in
//! spans of 256 tuples. Nothing inside the program is instrumented. Two
//! kinds of measurement are taken:
//!
//! * **probes** time one function on its own (`ssh_insert` with the
//!   opposite index empty, `ssh_probe` against the full index, …);
//! * the **staged replica** pushes the input through the layers in the
//!   order the engine does (scan → exact process → control check →
//!   handover at the switch point the real run reported → prepare → ssh
//!   process) so the stages can be summed and held against the wall-clock
//!   of the real `run()`: what the sum does not cover is
//!   `api.unattributed_share`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use linkage::api::PipelineConfig;
use linkage::core::{Assessor, Monitor};
use linkage::datagen::generate;
use linkage::operators::snapshot::{
    decode_interner, decode_ssh_core, encode_interner, encode_ssh_core,
};
use linkage::operators::{
    ExactJoinCore, InterleavedScan, Operator, PreparedBatch, SshJoinCore, SwitchJoin,
};
use linkage::stats::BinomialOutlierDetector;
use linkage::text::normalize::normalize_default;
use linkage::text::{overlap_at_least, GramInterner, QGramCoefficient, QGramSet, SharedInterner};
use linkage::types::snapshot::{crc32, kind, Decoder, Encoder, SnapshotBuilder, SnapshotFile};
use linkage::types::wire::{get_sided_record, msg, put_sided_record, read_frame, write_frame};
use linkage::types::{defaults, MatchPair, PerSide, Result, ShardId, Side, SidedRecord, VecStream};
use linkage_server::proto::{get_event, put_event, WireEvent};
use linkage_server::session::record_bytes;
use linkage_server::{Session, SessionManager};

use crate::api_run::{run_stream, run_with, Checkpoint};
use crate::bench::{Bench, Checks, PassResult};
use crate::data::{Dataset, Mode, KEYS};
use crate::served::{serve_alone, KindLatencies, FEED_BATCH};
use crate::stats::{median, tail, Summary};
use crate::trace::Tracer;

/// Tuples per span.
const SPAN: usize = 256;
/// Repetitions of a probe that runs once per dataset, not once per tuple.
const REPEATS: usize = 3;
/// Spans of the traced pass written to the trace file; a pass of
/// `batch_clean` has a quarter of a million.
pub const MAX_SPANS_WRITTEN: usize = 50_000;

/// Run `f` inside a span and return its result and duration.
fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = tracer.begin(name);
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as f64;
    tracer.end(span);
    (out, ns)
}

fn per(total_ns: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_ns / count as f64
    }
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    if ns == 0.0 {
        0.0
    } else {
        bytes as f64 / 1e6 / (ns / 1e9)
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The per-layer metrics collected so far, by name.
struct Collected(Vec<(&'static str, Summary)>);

impl Collected {
    fn put(&mut self, name: &'static str, value: f64, n: usize) {
        self.0.push((name, Summary::exact(value, n)));
    }

    fn put_samples(&mut self, name: &'static str, samples: &[f64]) {
        self.0.push((name, Summary::of(samples)));
    }

    /// In the order of `spec::PER_LAYER`; a metric nobody measured is a
    /// bug the drift test catches.
    fn in_spec_order(mut self) -> Vec<(&'static str, Summary)> {
        let position = |name: &str| {
            crate::spec::PER_LAYER
                .iter()
                .position(|m| m.name == name)
                .unwrap_or(usize::MAX)
        };
        self.0.sort_by_key(|(name, _)| position(name));
        self.0
    }
}

/// Times of one trip through the layers in engine order.
#[derive(Default)]
struct Stages {
    scan_ns: f64,
    exact_ns: f64,
    control_ns: f64,
    checks: usize,
    handover_ns: f64,
    prepare_ns: f64,
    ssh_ns: f64,
    exact_tuples: usize,
    ssh_tuples: usize,
    /// `(trials, p, observed)` of every control check.
    observations: Vec<(u64, f64, u64)>,
    /// The approximate kernel as the trip left it, with what it was fed.
    core: Option<SshJoinCore>,
    prepared: Vec<Prepared>,
}

/// A tuple with its normalised key and gram set, as `SshJoinCore::prepare`
/// returns them.
type Prepared = (SidedRecord, Arc<str>, QGramSet);

/// The tuples as the sharded engine's router ships them: one
/// `PreparedBatch` per epoch, every tuple homed on shard 0.
fn epochs(prepared: &[Prepared]) -> Vec<PreparedBatch> {
    prepared
        .chunks(defaults::EPOCH_BATCH_SIZE)
        .map(|epoch| {
            let mut batch = PreparedBatch::with_capacity(epoch.len());
            for (sided, key, grams) in epoch {
                batch.push(sided.clone(), Arc::clone(key), grams.clone(), ShardId(0));
            }
            batch
        })
        .collect()
}

impl Stages {
    fn total_ns(&self) -> f64 {
        self.scan_ns
            + self.exact_ns
            + self.control_ns
            + self.handover_ns
            + self.prepare_ns
            + self.ssh_ns
    }
}

/// Span names of one trip through the stages.
struct StageNames {
    scan: &'static str,
    exact_process: &'static str,
    control_check: &'static str,
    handover: &'static str,
    ssh_prepare: &'static str,
    ssh_process: &'static str,
    ssh_probe_batch: &'static str,
}

/// The trip that replays the real run, switch point and all.
const REPLICA: StageNames = StageNames {
    scan: "replica.scan",
    exact_process: "replica.exact_process",
    control_check: "replica.control_check",
    handover: "replica.handover",
    ssh_prepare: "replica.ssh_prepare",
    ssh_process: "replica.ssh_process",
    ssh_probe_batch: "replica.ssh_probe_batch",
};

/// The trips that keep to one phase for the whole dataset, so that each
/// kernel is measured on every tuple whether or not the real run used it.
const PROBE: StageNames = StageNames {
    scan: "operators.scan",
    exact_process: "operators.exact_process",
    control_check: "core.control_check",
    handover: "operators.empty_handover",
    ssh_prepare: "operators.ssh_prepare",
    ssh_process: "operators.ssh_process",
    ssh_probe_batch: "operators.ssh_probe_batch",
};

/// Push `dataset` through the layers' public functions in the order the
/// engine calls them, switching after `switch_at` tuples (`None`: never).
/// `batched` probes the way the sharded engine's workers do, a whole
/// epoch per call, instead of a tuple at a time.
fn staged_replica(
    dataset: &Dataset,
    config: &PipelineConfig,
    switch_at: Option<usize>,
    batched: bool,
    names: &StageNames,
    tracer: &mut Tracer,
) -> Result<Stages> {
    let join = config.switch_join();
    let controller = config.controller(dataset.data.parents.len() as u64);
    let mut monitor = Monitor::new(controller.monitor);
    let mut assessor = Assessor::new(controller.assessor);
    let mut exact = Some(join.exact_core());
    let interner = SharedInterner::new();
    let mut ssh: Option<SshJoinCore> = None;
    let mut stages = Stages::default();
    let mut out: VecDeque<MatchPair> = VecDeque::new();
    let mut consumed = PerSide::new(0u64, 0u64);
    let mut matches = 0u64;

    let mut scan = InterleavedScan::new(
        VecStream::from_relation(&dataset.data.parents),
        VecStream::from_relation(&dataset.data.children),
        config.interleave,
    );
    scan.open()?;
    let total = dataset.tuples();
    let switch_at = switch_at.unwrap_or(usize::MAX);
    let mut done = 0usize;
    if switch_at == 0 {
        ssh = Some(join.ssh_core_with(interner.clone()));
        exact = None;
    }
    while done < total {
        // A span never straddles the switch point.
        let want = SPAN.min(total - done).min(if done < switch_at {
            switch_at - done
        } else {
            usize::MAX
        });
        let (chunk, ns) = timed(tracer, names.scan, || -> Result<Vec<SidedRecord>> {
            let mut chunk = Vec::with_capacity(want);
            for _ in 0..want {
                match scan.next()? {
                    Some(sided) => chunk.push(sided),
                    None => break,
                }
            }
            Ok(chunk)
        });
        let chunk = chunk?;
        stages.scan_ns += ns;
        done += chunk.len();

        if let Some(core) = exact.as_mut() {
            // Exact phase: `process` normalises the key, probes and
            // inserts in one public call, so the three are timed together.
            let sides: Vec<Side> = chunk.iter().map(|s| s.side).collect();
            let mut emitted = Vec::with_capacity(chunk.len());
            let (result, ns) = timed(tracer, names.exact_process, || -> Result<()> {
                for sided in chunk {
                    emitted.push(core.process(sided, &mut out)?);
                }
                Ok(())
            });
            result?;
            stages.exact_ns += ns;
            stages.exact_tuples += sides.len();
            out.clear();
            // Control loop: one check per `check_every` children, on the
            // counters as they stood after that tuple.
            let mut due = Vec::new();
            for (side, n) in sides.iter().zip(&emitted) {
                consumed[*side] += 1;
                matches += *n as u64;
                // The child count only moves on a child, so each
                // checkpoint is met once.
                if *side == Side::Right && monitor.due(consumed.right) {
                    due.push((consumed, matches));
                }
            }
            let (_, ns) = timed(tracer, names.control_check, || {
                for (consumed, matches) in &due {
                    if monitor.due(consumed.right) {
                        let observation = monitor.observe(*consumed, *matches);
                        stages.observations.push((
                            observation.trials,
                            observation.p,
                            observation.observed,
                        ));
                        black_box(assessor.assess(&observation));
                    }
                }
            });
            stages.control_ns += ns;
            stages.checks += due.len();

            if done == switch_at {
                let tables = exact
                    .take()
                    .map(ExactJoinCore::into_tables)
                    .expect("the exact phase owns its kernel");
                let ((core, _recovered), ns) = timed(tracer, names.handover, || {
                    join.ssh_core_with(interner.clone())
                        .with_exact_state(tables, &mut out)
                });
                stages.handover_ns += ns;
                out.clear();
                ssh = Some(core);
            }
        } else if let Some(core) = ssh.as_mut() {
            let (prepared, ns) = timed(tracer, names.ssh_prepare, || {
                chunk
                    .iter()
                    .map(|sided| core.prepare(sided))
                    .collect::<Result<Vec<_>>>()
            });
            stages.prepare_ns += ns;
            let prepared: Vec<Prepared> = chunk
                .into_iter()
                .zip(prepared?)
                .map(|(sided, (key, grams))| (sided, key, grams))
                .collect();
            let (result, ns) = if batched {
                let batches = epochs(&prepared);
                timed(tracer, names.ssh_probe_batch, || -> Result<()> {
                    for batch in &batches {
                        core.probe_batch_into(batch, Some(ShardId(0)), &mut out)?;
                    }
                    Ok(())
                })
            } else {
                timed(tracer, names.ssh_process, || -> Result<()> {
                    for (sided, key, grams) in &prepared {
                        core.process_prepared(sided, key, grams, true, &mut out)?;
                    }
                    Ok(())
                })
            };
            result?;
            stages.ssh_ns += ns;
            stages.ssh_tuples += prepared.len();
            out.clear();
            stages.prepared.extend(prepared);
        }
    }
    scan.close()?;
    stages.core = ssh;
    Ok(stages)
}

/// `datagen`, `types` (wire and frame), `text` and `stats`: functions of
/// the records alone.
fn probe_records(
    dataset: &Dataset,
    observations: &[(u64, f64, u64)],
    tracer: &mut Tracer,
    got: &mut Collected,
) -> Result<()> {
    let sequence = &dataset.sequence;
    let n = sequence.len();

    let mut generate_ns = Vec::new();
    for _ in 0..REPEATS {
        let (data, ns) = timed(tracer, "datagen.generate", || generate(&dataset.config));
        data?;
        generate_ns.push(per(ns, n));
    }
    got.put_samples("datagen.generate_ns_per_tuple", &generate_ns);

    // Wire codec, 256 records per span.
    let mut payloads = Vec::new();
    let mut encode_ns = 0.0;
    for chunk in sequence.chunks(SPAN) {
        let (payload, ns) = timed(tracer, "types.wire_encode", || {
            let mut e = Encoder::new();
            for record in chunk {
                put_sided_record(&mut e, record);
            }
            e.finish()
        });
        encode_ns += ns;
        payloads.push(payload);
    }
    got.put("types.wire_encode_ns_per_record", per(encode_ns, n), n);
    let mut decode_ns = 0.0;
    for payload in &payloads {
        let (result, ns) = timed(tracer, "types.wire_decode", || -> Result<()> {
            let mut d = Decoder::new(payload, "probe");
            while d.remaining() > 0 {
                black_box(get_sided_record(&mut d)?);
            }
            Ok(())
        });
        result?;
        decode_ns += ns;
    }
    got.put("types.wire_decode_ns_per_record", per(decode_ns, n), n);

    // One FEED frame of 64 records, written to and read back from memory:
    // `write_frame` and `read_frame` timed together.
    let frames: Vec<Vec<u8>> = sequence.chunks(FEED_BATCH).map(feed_payload).collect();
    let mut frame_us = Vec::with_capacity(frames.len());
    for group in frames.chunks(SPAN / FEED_BATCH) {
        let (result, ns) = timed(tracer, "types.frame", || -> Result<()> {
            for payload in group {
                let mut buffer = Vec::with_capacity(payload.len() + 5);
                write_frame(&mut buffer, msg::FEED, payload)?;
                black_box(read_frame(&mut buffer.as_slice())?);
            }
            Ok(())
        });
        result?;
        frame_us.push(per(ns, group.len()) / 1e3);
    }
    got.put_samples("types.frame_write_read_us", &frame_us);

    // Text: normalise, extract with a warm interner, verify true matches.
    let keys: Vec<&str> = sequence
        .iter()
        .map(|s| s.record.key_str(KEYS[s.side]))
        .collect::<Result<_>>()?;
    let mut normalize_ns = 0.0;
    for chunk in keys.chunks(SPAN) {
        let (_, ns) = timed(tracer, "text.normalize", || {
            for key in chunk {
                black_box(normalize_default(key));
            }
        });
        normalize_ns += ns;
    }
    got.put("text.normalize_ns_per_key", per(normalize_ns, n), n);

    let qgram = PipelineConfig::default().qgram;
    let mut interner = GramInterner::new();
    for key in &keys {
        QGramSet::extract(key, &qgram, &mut interner);
    }
    let mut sets: PerSide<Vec<Option<QGramSet>>> = PerSide::new(Vec::new(), Vec::new());
    let mut extract_ns = 0.0;
    for (chunk, sided) in keys.chunks(SPAN).zip(sequence.chunks(SPAN)) {
        let (extracted, ns) = timed(tracer, "text.extract", || {
            chunk
                .iter()
                .map(|key| QGramSet::extract(key, &qgram, &mut interner))
                .collect::<Vec<_>>()
        });
        extract_ns += ns;
        for (set, s) in extracted.into_iter().zip(sided) {
            let id = s.record.id.as_u64() as usize;
            let column = &mut sets[s.side];
            if column.len() <= id {
                column.resize(id + 1, None);
            }
            column[id] = Some(set);
        }
    }
    got.put("text.extract_ns_per_key", per(extract_ns, n), n);
    got.put("text.distinct_grams", interner.len() as f64, 1);

    let coefficient = QGramCoefficient::default();
    let pairs: Vec<(&QGramSet, &QGramSet)> = dataset
        .data
        .truth
        .iter()
        .filter_map(|(parent, child)| {
            let left = sets.left.get(parent.as_u64() as usize)?.as_ref()?;
            let right = sets.right.get(child.as_u64() as usize)?.as_ref()?;
            Some((left, right))
        })
        .collect();
    let mut overlap_ns = 0.0;
    for chunk in pairs.chunks(SPAN) {
        let (_, ns) = timed(tracer, "text.overlap", || {
            for (left, right) in chunk {
                let min = coefficient.min_overlap(right.len(), defaults::THETA_SIM);
                black_box(overlap_at_least(right.gram_ids(), left.gram_ids(), min));
            }
        });
        overlap_ns += ns;
    }
    got.put(
        "text.overlap_ns_per_pair",
        per(overlap_ns, pairs.len()),
        pairs.len(),
    );

    // Stats: the outlier test at the trial counts the controller saw.
    let detector = BinomialOutlierDetector::new(defaults::THETA_OUT);
    let mut assess_ns = 0.0;
    for chunk in observations.chunks(SPAN) {
        let (_, ns) = timed(tracer, "stats.outlier_assess", || {
            for (trials, p, observed) in chunk {
                black_box(detector.assess(*trials, *p, *observed));
            }
        });
        assess_ns += ns;
    }
    got.put(
        "stats.outlier_assess_ns",
        per(assess_ns, observations.len()),
        observations.len(),
    );
    Ok(())
}

/// The payload of a FEED request: session id, count, records.
fn feed_payload(records: &[SidedRecord]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(0);
    e.put_u32(records.len() as u32);
    for record in records {
        put_sided_record(&mut e, record);
    }
    e.finish()
}

/// The approximate kernel on its own, the state it ends with, and the
/// snapshot container around that state.
fn probe_ssh(
    dataset: &Dataset,
    config: &PipelineConfig,
    ssh_only: &Stages,
    switch_at: usize,
    tmp: &Path,
    tracer: &mut Tracer,
    got: &mut Collected,
) -> Result<()> {
    let join = config.switch_join();
    let n = ssh_only.prepared.len();
    let Some(full) = ssh_only.core.as_ref() else {
        return Ok(());
    };
    let mut out: VecDeque<MatchPair> = VecDeque::new();

    // What the kernel did while it built the index.
    let funnel = full.funnel();
    let emitted = (full.emitted_exact() + full.emitted_approx()) as f64;
    let state = full.state_bytes();
    let slack = full.postings_slack_bytes();
    let state_bytes = (state.left + state.right + full.interner_bytes()) as f64;
    let slack_bytes = (slack.left + slack.right) as f64;
    got.put(
        "operators.scanned_per_probe",
        per(funnel.candidates_scanned as f64, n),
        n,
    );
    got.put(
        "operators.verified_per_probe",
        per(funnel.candidates_verified as f64, n),
        n,
    );
    got.put(
        "operators.useful_verify_share",
        share(emitted, funnel.candidates_verified as f64),
        funnel.candidates_verified as usize,
    );
    got.put(
        "operators.prefix_skipped_share",
        share(
            funnel.prefix_postings_skipped as f64,
            (funnel.prefix_postings_skipped + funnel.candidates_scanned) as f64,
        ),
        n,
    );
    got.put("operators.state_bytes_per_tuple", per(state_bytes, n), n);
    got.put(
        "operators.postings_slack_share",
        share(slack_bytes, state_bytes + slack_bytes),
        1,
    );

    // Insert alone: each side into a kernel whose opposite index is empty.
    let interner = full.interner().clone();
    let mut insert_ns = 0.0;
    for side in Side::BOTH {
        let mut core = join.ssh_core_with(interner.clone());
        let own: Vec<_> = ssh_only
            .prepared
            .iter()
            .filter(|(s, _, _)| s.side == side)
            .collect();
        for chunk in own.chunks(SPAN) {
            let (result, ns) = timed(tracer, "operators.ssh_insert", || -> Result<()> {
                for (sided, key, grams) in chunk {
                    core.process_prepared(sided, key, grams, true, &mut out)?;
                }
                Ok(())
            });
            result?;
            insert_ns += ns;
        }
    }
    got.put("operators.ssh_insert_ns_per_tuple", per(insert_ns, n), n);

    // Probe alone against the full index: a tuple at a time, then an
    // epoch at a time.
    let mut probe = full.clone();
    let mut probe_ns = 0.0;
    for chunk in ssh_only.prepared.chunks(SPAN) {
        let (result, ns) = timed(tracer, "operators.ssh_probe", || -> Result<()> {
            for (sided, key, grams) in chunk {
                probe.process_prepared(sided, key, grams, false, &mut out)?;
            }
            Ok(())
        });
        result?;
        probe_ns += ns;
        out.clear();
    }
    got.put("operators.ssh_probe_ns_per_tuple", per(probe_ns, n), n);
    let mut batch_ns = 0.0;
    for chunk in ssh_only.prepared.chunks(SPAN) {
        let batches = epochs(chunk);
        let (result, ns) = timed(tracer, "operators.ssh_probe_batch", || -> Result<()> {
            for batch in &batches {
                probe.probe_batch_into(batch, None, &mut out)?;
            }
            Ok(())
        });
        result?;
        batch_ns += ns;
        out.clear();
    }
    got.put(
        "operators.ssh_probe_batch_ns_per_tuple",
        per(batch_ns, n),
        n,
    );
    drop(probe);

    // The handover through the operator's own entry point.
    let mut handover_ms = Vec::new();
    for _ in 0..REPEATS {
        let scan = InterleavedScan::new(
            VecStream::from_relation(&dataset.data.parents),
            VecStream::from_relation(&dataset.data.children),
            config.interleave,
        );
        let mut switch_join = SwitchJoin::new(scan, join.clone());
        switch_join.open()?;
        for _ in 0..switch_at {
            switch_join.advance()?;
        }
        let (recovered, ns) = timed(tracer, "operators.handover", || {
            switch_join.switch_to_approximate()
        });
        recovered?;
        handover_ms.push(ns / 1e6);
        switch_join.close()?;
    }
    got.put_samples("operators.handover_ms", &handover_ms);

    // The kernel's snapshot codec and the container around it.
    let mut encode_ms = Vec::new();
    let mut decode_ms = Vec::new();
    let mut section = Vec::new();
    let interner_section = encode_interner(full.interner());
    for _ in 0..REPEATS {
        let (bytes, ns) = timed(tracer, "operators.snapshot_encode", || {
            encode_ssh_core(full)
        });
        encode_ms.push(ns / 1e6);
        let table = SharedInterner::from_table(decode_interner(&interner_section)?);
        let (core, ns) = timed(tracer, "operators.snapshot_decode", || {
            decode_ssh_core(&bytes, &join, table)
        });
        core?;
        decode_ms.push(ns / 1e6);
        section = bytes;
    }
    got.put_samples("operators.snapshot_encode_ms", &encode_ms);
    got.put_samples("operators.snapshot_decode_ms", &decode_ms);

    let mut builder = SnapshotBuilder::new();
    builder.push_section(kind::INTERNER as u32, interner_section);
    builder.push_section(kind::SSH_CORE as u32, section);
    let path = tmp.join("probe.snap");
    let (mut pack, mut parse, mut crc, mut write_ms) = (vec![], vec![], vec![], vec![]);
    for _ in 0..REPEATS {
        let (bytes, ns) = timed(tracer, "types.snapshot_pack", || builder.to_bytes());
        pack.push(mb_per_s(bytes.len(), ns));
        let (file, ns) = timed(tracer, "types.snapshot_parse", || {
            SnapshotFile::from_bytes(&bytes)
        });
        file?;
        parse.push(mb_per_s(bytes.len(), ns));
        let (_, ns) = timed(tracer, "types.crc32", || black_box(crc32(&bytes)));
        crc.push(mb_per_s(bytes.len(), ns));
        let (written, ns) = timed(tracer, "types.snapshot_write", || builder.write_to(&path));
        written?;
        write_ms.push(ns / 1e6);
    }
    got.put_samples("types.snapshot_pack_mb_per_s", &pack);
    got.put_samples("types.snapshot_parse_mb_per_s", &parse);
    got.put_samples("types.crc32_mb_per_s", &crc);
    got.put_samples("types.snapshot_write_ms", &write_ms);
    Ok(())
}

/// `exec` and `api`: whole pipeline runs in the other engine and under the
/// fixed switch policies.
fn probe_pipelines(
    dataset: &Dataset,
    mode: Mode,
    adaptive_s: f64,
    adaptive_pairs: usize,
    tmp: &Path,
    tracer: &mut Tracer,
    got: &mut Collected,
) -> Result<()> {
    let n = dataset.tuples();
    let mut off = Tracer::off();

    // Serial against two shards, alternating.
    let (mut serial_s, mut sharded_s) = (Vec::new(), Vec::new());
    let mut sharded_report = None;
    for _ in 0..REPEATS {
        let (run, _) = timed(tracer, "exec.serial_run", || {
            run_stream(dataset, Mode::Serial, &mut off)
        });
        serial_s.push(run?.elapsed_s);
        let (run, _) = timed(tracer, "exec.sharded_run", || {
            run_stream(dataset, Mode::Sharded(2), &mut off)
        });
        let run = run?;
        sharded_s.push(run.elapsed_s);
        sharded_report = Some(run.report);
    }
    got.put(
        "exec.sharded2_speedup",
        share(median(&serial_s), median(&sharded_s)),
        REPEATS,
    );
    if let Some(report) = sharded_report {
        let per_shard: Vec<f64> = report
            .shard_stats
            .iter()
            .map(|s| (s.state_bytes.left + s.state_bytes.right) as f64)
            .collect();
        let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
        let max = per_shard.iter().copied().fold(0.0, f64::max);
        got.put("exec.shard_state_skew", share(max, mean), per_shard.len());
        let probes: u64 = report.shard_stats.iter().map(|s| s.probes).sum();
        got.put("exec.probes_per_tuple", per(probes as f64, n), n);
        got.put(
            "exec.postings_slack_bytes",
            report.postings_slack_bytes() as f64,
            1,
        );
    }

    // The paper's gain/cost pair: the adaptive run against never
    // switching, and the price of switching from the start.
    let (exact, _) = timed(tracer, "api.exact_only_run", || {
        run_with(|| dataset.pipeline(mode).never_switch(), None, &mut off)
    });
    let exact = exact?;
    let (approx, _) = timed(tracer, "api.approx_only_run", || {
        run_with(
            || dataset.pipeline(mode).approximate_from_start(),
            None,
            &mut off,
        )
    });
    let approx = approx?;
    got.put("api.exact_only_tuples_per_s", exact.tuples_per_s(), 1);
    got.put("api.approx_only_tuples_per_s", approx.tuples_per_s(), 1);
    got.put(
        "api.gain_vs_exact",
        share(adaptive_pairs as f64, exact.pairs.len() as f64),
        exact.pairs.len(),
    );
    got.put("api.cost_vs_exact", share(adaptive_s, exact.elapsed_s), 1);

    // `MatchStream::snapshot` where the workloads cut their checkpoint.
    let path = tmp.join("probe-api.snap");
    let checkpoint = Checkpoint {
        after_matches: (dataset.truth.len() * 3 / 4).max(1),
        path: &path,
    };
    let run = run_with(|| dataset.pipeline(mode), Some(checkpoint), tracer)?;
    got.put("api.snapshot_ms", run.snapshot_ms.unwrap_or(0.0), 1);
    got.put(
        "api.snapshot_bytes",
        std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64),
        1,
    );
    Ok(())
}

/// What the direct (no TCP) trip through the server's layers cost.
struct DirectTimes {
    /// Per FEED batch: every stage from wire encode to event decode.
    batch_ms: Vec<f64>,
    feed_ns: f64,
    poll_ns: f64,
    polled_events: usize,
    checkout_checkin_ns: Vec<f64>,
    event_encode_ns: f64,
    event_decode_ns: f64,
    coded_events: usize,
    evict_ms: f64,
    rehydrate_ms: f64,
    evict_file_bytes: u64,
}

/// The served counterpart of the staged replica: one session's batches
/// through wire encode → frame → decode → checkout → `Session::feed` /
/// `poll` → event encode → checkin → event decode, with one eviction and
/// rehydration three quarters of the way in.
fn direct_session(dataset: &Dataset, dir: &Path, tracer: &mut Tracer) -> Result<DirectTimes> {
    let mut manager = SessionManager::new(8, u64::MAX / 4, dir.to_path_buf())?;
    let config = dataset.session_config();
    let id = manager.open(config.clone(), config.fingerprint())?;
    let mut times = DirectTimes {
        batch_ms: Vec::new(),
        feed_ns: 0.0,
        poll_ns: 0.0,
        polled_events: 0,
        checkout_checkin_ns: Vec::new(),
        event_encode_ns: 0.0,
        event_decode_ns: 0.0,
        coded_events: 0,
        evict_ms: 0.0,
        rehydrate_ms: 0.0,
        evict_file_bytes: 0,
    };
    let chunks: Vec<&[SidedRecord]> = dataset.sequence.chunks(FEED_BATCH).collect();
    let evict_at = chunks.len() * 3 / 4;
    for (i, chunk) in chunks.iter().enumerate() {
        let (payload, encode_ns) = timed(tracer, "replica.wire_encode", || feed_payload(chunk));
        let (frame, frame_ns) = timed(tracer, "replica.frame", || -> Result<Vec<u8>> {
            let mut buffer = Vec::with_capacity(payload.len() + 5);
            write_frame(&mut buffer, msg::FEED, &payload)?;
            Ok(read_frame(&mut buffer.as_slice())?.1)
        });
        let frame = frame?;
        let (records, decode_ns) = timed(
            tracer,
            "replica.wire_decode",
            || -> Result<Vec<SidedRecord>> {
                let mut d = Decoder::new(&frame, "FEED");
                d.get_u64()?;
                let count = d.get_u32()? as usize;
                let mut records = Vec::with_capacity(count);
                for _ in 0..count {
                    records.push(get_sided_record(&mut d)?);
                }
                d.finish()?;
                Ok(records)
            },
        );
        let records = records?;
        // Checkout with the byte reservation the server makes beside it.
        let (session, checkout_ns) =
            timed(tracer, "replica.checkout", || -> Result<Box<Session>> {
                let session = manager.checkout(id)?;
                manager.reserve_bytes(records.iter().map(record_bytes).sum())?;
                Ok(session)
            });
        let mut session = session?;
        let (added, feed_ns) = timed(tracer, "replica.session_feed", || session.feed(records));
        let added = added?;
        let (polled, poll_ns) = timed(tracer, "replica.session_poll", || session.poll(FEED_BATCH));
        let (events, released) = polled?;
        let (reply, event_encode_ns) = timed(tracer, "replica.event_encode", || {
            let mut e = Encoder::new();
            e.put_u32(events.len() as u32);
            for event in &events {
                put_event(&mut e, event);
            }
            e.finish()
        });

        if i == evict_at && !session.is_done() {
            let (snap, feed, manifest) = (
                dir.join("probe.snap"),
                dir.join("probe.feed"),
                dir.join("probe.evict"),
            );
            let (evicted, ns) = timed(tracer, "replica.evict", || {
                session.evict_to(&snap, &feed, &manifest)
            });
            evicted?;
            times.evict_ms = ns / 1e6;
            times.evict_file_bytes = [&snap, &feed, &manifest]
                .iter()
                .filter_map(|p| std::fs::metadata(p).ok())
                .map(|m| m.len())
                .sum();
            // The rehydrated twin is dropped; `session` carries on.
            let (twin, ns) = timed(tracer, "replica.rehydrate", || {
                Session::rehydrate(id, &snap, &feed, &manifest)
            });
            twin?;
            times.rehydrate_ms = ns / 1e6;
        }

        let (_, checkin_ns) = timed(tracer, "replica.checkin", || {
            manager.checkin(session, added as i64 - released as i64)
        });
        let (decoded, event_decode_ns) = timed(
            tracer,
            "replica.event_decode",
            || -> Result<Vec<WireEvent>> {
                let mut d = Decoder::new(&reply, "EVENTS");
                let count = d.get_u32()? as usize;
                (0..count).map(|_| get_event(&mut d)).collect()
            },
        );
        let decoded = decoded?;

        times.feed_ns += feed_ns;
        times.poll_ns += poll_ns;
        times.polled_events += decoded.len();
        times.coded_events += decoded.len();
        times.event_encode_ns += event_encode_ns;
        times.event_decode_ns += event_decode_ns;
        times.checkout_checkin_ns.push(checkout_ns + checkin_ns);
        times.batch_ms.push(
            (encode_ns
                + frame_ns
                + decode_ns
                + checkout_ns
                + feed_ns
                + poll_ns
                + event_encode_ns
                + checkin_ns
                + event_decode_ns)
                / 1e6,
        );
    }
    manager.close(id)?;
    Ok(times)
}

fn put_server_metrics(
    kinds: &KindLatencies,
    feeds: usize,
    stats_delta: [u64; 4],
    direct: &DirectTimes,
    tuples: usize,
    got: &mut Collected,
) {
    got.put("server.open_p50_ms", median(&kinds.open), kinds.open.len());
    got.put("server.feed_p50_ms", median(&kinds.feed), kinds.feed.len());
    got.put("server.feed_p99_ms", tail(&kinds.feed), kinds.feed.len());
    got.put("server.poll_p50_ms", median(&kinds.poll), kinds.poll.len());
    got.put("server.poll_p99_ms", tail(&kinds.poll), kinds.poll.len());
    got.put(
        "server.close_p50_ms",
        median(&kinds.close),
        kinds.close.len(),
    );
    got.put(
        "server.session_feed_ns_per_tuple",
        per(direct.feed_ns, tuples),
        tuples,
    );
    got.put(
        "server.session_poll_ns_per_event",
        per(direct.poll_ns, direct.polled_events),
        direct.polled_events,
    );
    got.put_samples("server.checkout_checkin_ns", &direct.checkout_checkin_ns);
    got.put(
        "server.proto_event_encode_ns",
        per(direct.event_encode_ns, direct.coded_events),
        direct.coded_events,
    );
    got.put(
        "server.proto_event_decode_ns",
        per(direct.event_decode_ns, direct.coded_events),
        direct.coded_events,
    );
    got.put("server.evict_ms", direct.evict_ms, 1);
    got.put("server.rehydrate_ms", direct.rehydrate_ms, 1);
    got.put("server.evict_file_bytes", direct.evict_file_bytes as f64, 1);
    got.put(
        "server.wire_overhead_share",
        1.0 - share(median(&direct.batch_ms), median(&kinds.roundtrip)),
        kinds.roundtrip.len(),
    );
    let [evictions, rehydrations, busy, over_budget] = stats_delta;
    got.put(
        "server.evictions_per_feed",
        per(evictions as f64, feeds),
        feeds,
    );
    got.put("server.rehydrations", rehydrations as f64, 1);
    got.put("server.rejected_busy", busy as f64, 1);
    got.put("server.rejected_over_budget", over_budget as f64, 1);
}

/// The traced run of one workload: passes with and without spans for the
/// tracing overhead, then every probe on the workload's first dataset.
/// Returns the per-layer metrics and the recording to write out.
pub fn per_layer(
    bench: &mut dyn Bench,
    seconds: f64,
    tmp: &Path,
    checks: &mut Checks,
) -> Result<(Vec<(&'static str, Summary)>, Tracer)> {
    let mut got = Collected(Vec::new());

    // (a) The workload itself, alternately untraced and traced.
    let budget = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::off();
    let mut last_pass = PassResult::default();
    let mut stats_delta = [0u64; 4];
    while untraced.is_empty() || budget.elapsed().as_secs_f64() < seconds * 0.3 {
        let pass = bench.pass(&mut Tracer::off(), checks)?;
        untraced.push(pass.tuples_per_s());
        let before = bench.server_stats();
        // Only the last traced pass is kept for the file.
        tracer = Tracer::new(true, Instant::now());
        let pass = bench.pass(&mut tracer, checks)?;
        traced.push(pass.tuples_per_s());
        if let (Some(before), Some(after)) = (before, bench.server_stats()) {
            stats_delta = [
                after.evictions - before.evictions,
                after.rehydrations - before.rehydrations,
                after.rejected_busy - before.rejected_busy,
                after.rejected_over_budget - before.rejected_over_budget,
            ];
        }
        last_pass = pass;
    }
    got.put(
        "trace_overhead_share",
        1.0 - share(median(&traced), median(&untraced)),
        traced.len(),
    );
    got.put_samples("core.detection_delay_tuples", &last_pass.detection_delay);
    got.put(
        "core.false_switches",
        last_pass.false_switches as f64,
        last_pass.streams.len(),
    );
    let served = bench
        .last_kinds()
        .cloned()
        .map(|kinds| (kinds.feed.len(), kinds));

    // (b) The layers, on the workload's first dataset.
    let dataset = bench.profile();
    let mode = bench.mode();
    let config = dataset.session_config();
    let n = dataset.tuples();

    let mut real_s = Vec::new();
    let mut real = None;
    for _ in 0..REPEATS {
        let run = run_stream(dataset, mode, &mut Tracer::off())?;
        real_s.push(run.elapsed_s);
        real = Some(run);
    }
    let real = real.expect("REPEATS is positive");
    let real_s = median(&real_s);
    let switch_at = real.report.switch.map(|s| s.after_tuples as usize);
    let batched = mode != Mode::Serial;

    let exact_only = staged_replica(dataset, &config, None, false, &PROBE, &mut tracer)?;
    let ssh_only = staged_replica(dataset, &config, Some(0), false, &PROBE, &mut tracer)?;
    let replica_ns = match switch_at {
        Some(at) => {
            staged_replica(dataset, &config, Some(at), batched, &REPLICA, &mut tracer)?.total_ns()
        }
        None => exact_only.total_ns(),
    };
    got.put(
        "api.unattributed_share",
        1.0 - share(replica_ns / 1e9, real_s),
        1,
    );
    got.put("operators.scan_ns_per_tuple", per(exact_only.scan_ns, n), n);
    got.put(
        "operators.exact_process_ns_per_tuple",
        per(exact_only.exact_ns, exact_only.exact_tuples),
        exact_only.exact_tuples,
    );
    got.put(
        "core.control_check_ns",
        per(exact_only.control_ns, exact_only.checks),
        exact_only.checks,
    );
    // Checks the real run made: the controller rests once it has switched.
    let children_before_switch = dataset
        .sequence
        .iter()
        .take(switch_at.unwrap_or(n))
        .filter(|s| s.side == Side::Right)
        .count();
    got.put(
        "core.checks_per_run",
        (children_before_switch as u64 / config.check_every) as f64,
        1,
    );
    got.put(
        "operators.ssh_prepare_ns_per_tuple",
        per(ssh_only.prepare_ns, ssh_only.ssh_tuples),
        ssh_only.ssh_tuples,
    );
    got.put(
        "operators.ssh_process_ns_per_tuple",
        per(ssh_only.ssh_ns, ssh_only.ssh_tuples),
        ssh_only.ssh_tuples,
    );

    probe_records(dataset, &exact_only.observations, &mut tracer, &mut got)?;
    probe_ssh(
        dataset,
        &config,
        &ssh_only,
        switch_at.unwrap_or(n / 2),
        tmp,
        &mut tracer,
        &mut got,
    )?;
    drop((exact_only, ssh_only));
    probe_pipelines(
        dataset,
        mode,
        real_s,
        real.pairs.len(),
        tmp,
        &mut tracer,
        &mut got,
    )?;

    // (c) The server's layers: over TCP from the workload's own traced
    // pass when it has one, else from this dataset served alone.
    let (feeds, kinds) = match served {
        Some(served) => served,
        None => {
            let (kinds, stats) = serve_alone(dataset, tmp.join("serve-alone"), &mut tracer)?;
            stats_delta = [
                stats.evictions,
                stats.rehydrations,
                stats.rejected_busy,
                stats.rejected_over_budget,
            ];
            (kinds.feed.len(), kinds)
        }
    };
    let direct = direct_session(dataset, &tmp.join("direct"), &mut tracer)?;
    put_server_metrics(&kinds, feeds, stats_delta, &direct, n, &mut got);

    Ok((got.in_spec_order(), tracer))
}
