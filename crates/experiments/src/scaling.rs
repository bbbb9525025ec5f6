//! Shard-count scaling measurements behind the `BENCH_*.json` trajectory.
//!
//! One [`ScalingRun`] generates a mid-stream-dirt workload once, then
//! drives the parallel executor over it at each configured shard count,
//! measuring throughput, the global switch point and latency, and
//! per-shard resident-state size.  [`scaling_report`] renders the result
//! as the machine-readable JSON document `scripts/bench.sh` writes and CI
//! gates on:
//!
//! * `headline_throughput_tuples_per_s` — best throughput over the shard
//!   curve; the single number the regression gate compares;
//! * `shards[]` — the full 1/2/4/8 scaling curve with per-shard state
//!   bytes and switch latency;
//! * `snapshot_mb_per_s` / `resume_ms` — the checkpoint/resume round
//!   trip over the same workload (see `docs/format.md`), gated alongside
//!   the kernel metrics;
//! * `git_sha`, `mode`, workload and host metadata, so any two trajectory
//!   files are comparable.

use std::time::{Duration, Instant};

use linkage::api::{Pipeline, PipelineBuilder};
use linkage_datagen::{generate, DatagenConfig, GeneratedData};
use linkage_operators::ProbeFunnel;
use linkage_types::{LinkageError, Result};

use crate::json::JsonValue;
use crate::probe::{run_probe_bench, ProbeBenchConfig, ProbeBenchResult};
use crate::traffic::{run_server_bench, ServerBench, ServerBenchConfig};

/// Configuration of one scaling sweep.
///
/// `#[non_exhaustive]`: construct via [`ScalingConfig::smoke`],
/// [`ScalingConfig::full`] or [`Default`] and adjust the public fields.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ScalingConfig {
    /// Parent-relation size of the generated workload.
    pub parents: usize,
    /// Child records per parent.
    pub children_per_parent: usize,
    /// Fraction of the child stream guaranteed clean (dirt follows).
    pub clean_prefix: f64,
    /// Workload seed.
    pub seed: u64,
    /// Shard counts to sweep, in order.
    pub shard_counts: Vec<usize>,
    /// Epoch size handed to the executor.
    pub batch_size: usize,
    /// Also run the `linkage-server` mixed-traffic model
    /// ([`ScalingConfig::server_config`]) and embed its metrics.
    pub server_traffic: bool,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        Self::smoke()
    }
}

impl ScalingConfig {
    /// The CI smoke sweep: seconds of wall clock, shard curve 1/2/4/8.
    pub fn smoke() -> Self {
        Self {
            parents: 4000,
            children_per_parent: 1,
            clean_prefix: 0.3,
            seed: 42,
            shard_counts: vec![1, 2, 4, 8],
            batch_size: 256,
            server_traffic: false,
        }
    }

    /// The local full sweep: the same shape, an order of magnitude more
    /// data.
    pub fn full() -> Self {
        Self {
            parents: 20_000,
            ..Self::smoke()
        }
    }

    /// Total input tuples the workload produces.
    pub fn total_tuples(&self) -> u64 {
        (self.parents + self.parents * self.children_per_parent) as u64
    }

    /// The probe-microbench configuration matching this sweep's workload
    /// — same size, dirt profile and seed, so the gated
    /// `probe_ns_per_tuple` measures the same data the `shards[]` points
    /// ran over.
    pub fn probe_config(&self) -> ProbeBenchConfig {
        let mut probe = ProbeBenchConfig::smoke();
        probe.parents = self.parents;
        probe.children_per_parent = self.children_per_parent;
        probe.clean_prefix = self.clean_prefix;
        probe.seed = self.seed;
        probe
    }

    /// The **skewed** probe point: the same shape as
    /// [`Self::probe_config`] under a Zipf(1) key/gram frequency skew —
    /// the long-posting-list regime prefix filtering targets.  Feeds the
    /// gated `skewed_probe_ns_per_tuple` field.
    pub fn skewed_probe_config(&self) -> ProbeBenchConfig {
        let mut probe = self.probe_config();
        probe.zipf = ProbeBenchConfig::skewed().zipf;
        probe
    }

    /// The server mixed-traffic point matching this sweep's scale:
    /// smoke-sized sweeps get the smoke traffic model, full-sized ones
    /// the full model.  Feeds the gated `sessions_per_s` /
    /// `request_p50_ms` / `request_p99_ms` fields when the sweep runs
    /// with the server bench enabled.
    pub fn server_config(&self) -> ServerBenchConfig {
        if self.parents >= ScalingConfig::full().parents {
            ServerBenchConfig::full()
        } else {
            ServerBenchConfig::smoke()
        }
    }

    fn datagen(&self) -> DatagenConfig {
        DatagenConfig::mid_stream_dirty(self.parents, self.seed)
            .with_children_per_parent(self.children_per_parent)
            .with_clean_prefix(self.clean_prefix)
    }
}

/// One measured point on the shard curve.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Shard count of this run.
    pub shards: usize,
    /// Wall-clock time of the join (excludes data generation).
    pub elapsed: Duration,
    /// Consumed input tuples per second.
    pub throughput: f64,
    /// Distinct pairs emitted.
    pub pairs: u64,
    /// Consumed tuples at the global switch, if it fired.
    pub switch_after: Option<u64>,
    /// Wall-clock duration of the distributed handover, if it ran.
    pub switch_latency: Option<Duration>,
    /// Matches recovered during the handover.
    pub recovered: u64,
    /// Final resident-state bytes (tuples, keys, flat postings — gram
    /// text excluded), one entry per shard.
    pub state_bytes_per_shard: Vec<u64>,
    /// Estimated bytes of the run's **shared** gram-interner table,
    /// counted once (every shard holds a handle to the same table).
    pub interner_bytes: u64,
    /// Flat-posting slack bytes summed over shards (empty slot headers
    /// plus unused posting capacity), reported separately from
    /// `state_bytes_per_shard` so payload and layout overhead stay
    /// distinguishable.
    pub postings_slack_bytes: u64,
    /// The join-wide candidate funnel of this point's run (all shards
    /// folded together).
    pub funnel: ProbeFunnel,
}

/// The snapshot/resume round trip measured over the sweep workload: a
/// serial pipeline is interrupted mid-stream (past the §3.3 switch, so
/// the file carries the approximate-phase state), checkpointed with
/// `MatchStream::snapshot`, and resumed with `Pipeline::resume`.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotBench {
    /// Size of the written snapshot container.
    pub file_bytes: u64,
    /// Wall clock of `MatchStream::snapshot` — quiesce + encode + CRC +
    /// atomic write.
    pub snapshot: Duration,
    /// Wall clock of `Pipeline::resume` — read + verify + replay into
    /// fresh kernels + input fast-forward.
    pub resume: Duration,
}

impl SnapshotBench {
    /// Snapshot write throughput, the gated headline of this measurement.
    pub fn snapshot_mb_per_s(&self) -> f64 {
        (self.file_bytes as f64 / 1e6) / self.snapshot.as_secs_f64().max(1e-9)
    }
}

/// A completed sweep: the workload description plus every measured point.
#[derive(Debug, Clone)]
pub struct ScalingRun {
    /// The configuration that produced this run.
    pub config: ScalingConfig,
    /// Points in the order of `config.shard_counts`.
    pub points: Vec<ScalingPoint>,
    /// The probe-kernel microbench over the same workload (the
    /// `probe_ns_per_tuple` / `insert_ns_per_tuple` fields of the JSON
    /// document, gated by CI alongside the headline).
    pub probe: ProbeBenchResult,
    /// The probe-kernel microbench over the **skewed** (Zipf) workload
    /// (the `skewed_probe_ns_per_tuple` field, also gated).
    pub probe_skewed: ProbeBenchResult,
    /// The snapshot/resume round trip (the `snapshot_mb_per_s` /
    /// `resume_ms` fields, gated by CI alongside the kernel metrics).
    pub snapshot: SnapshotBench,
    /// The `linkage-server` mixed-traffic point (the `sessions_per_s` /
    /// `request_p50_ms` / `request_p99_ms` fields) — `None` unless the
    /// sweep ran with the server bench enabled (`bench.sh --server`).
    pub server: Option<ServerBench>,
}

impl ScalingRun {
    /// Best throughput over the curve — the regression gate's headline.
    pub fn headline_throughput(&self) -> f64 {
        self.points.iter().map(|p| p.throughput).fold(0.0, f64::max)
    }

    /// Throughput of the N-shard point relative to the 1-shard point.
    pub fn speedup(&self, shards: usize) -> Option<f64> {
        let single = self.points.iter().find(|p| p.shards == 1)?;
        let multi = self.points.iter().find(|p| p.shards == shards)?;
        Some(multi.throughput / single.throughput)
    }
}

/// Execute the sweep: one generated workload, one pipeline run per shard
/// count, all through the `linkage::api` facade.
pub fn run_scaling(config: &ScalingConfig) -> Result<ScalingRun> {
    let data = generate(&config.datagen())?;
    let mut points = Vec::with_capacity(config.shard_counts.len());
    for &shards in &config.shard_counts {
        let pipeline = Pipeline::builder()
            .left(&data.parents)
            .right(&data.children)
            .key_column(GeneratedData::KEY_COLUMN)
            .sharded(shards)
            .batch_size(config.batch_size)
            .build()?;
        let start = Instant::now();
        let outcome = pipeline.collect()?;
        let elapsed = start.elapsed();
        let report = &outcome.report;
        points.push(ScalingPoint {
            shards,
            elapsed,
            throughput: report.total_consumed() as f64 / elapsed.as_secs_f64().max(1e-9),
            pairs: outcome.matches.len() as u64,
            switch_after: report.switch.map(|e| e.after_tuples),
            switch_latency: report.switch_latency,
            recovered: report.switch.map(|e| e.recovered).unwrap_or(0),
            state_bytes_per_shard: report
                .shard_stats
                .iter()
                .map(|s| (s.state_bytes.left + s.state_bytes.right) as u64)
                .collect(),
            interner_bytes: report.interner_bytes() as u64,
            postings_slack_bytes: report.postings_slack_bytes() as u64,
            funnel: report.probe_funnel(),
        });
    }
    let probe = run_probe_bench(&config.probe_config())?;
    let probe_skewed = run_probe_bench(&config.skewed_probe_config())?;
    let snapshot = run_snapshot_bench(config, &data)?;
    let server = if config.server_traffic {
        Some(run_server_bench(&config.server_config())?)
    } else {
        None
    };
    Ok(ScalingRun {
        config: config.clone(),
        points,
        probe,
        probe_skewed,
        snapshot,
        server,
    })
}

/// Interrupt a serial run over `data` halfway through its output, time
/// the checkpoint and the resume, and report both with the file size.
fn run_snapshot_bench(config: &ScalingConfig, data: &GeneratedData) -> Result<SnapshotBench> {
    let declare = || -> PipelineBuilder {
        Pipeline::builder()
            .left(&data.parents)
            .right(&data.children)
            .key_column(GeneratedData::KEY_COLUMN)
            .serial()
    };
    // Half the parent count in pairs lands well past the mid-stream
    // switch on this workload, so the snapshot carries the interner and
    // the approximate kernel — the expensive sections.
    let mut stream = declare().run()?;
    for _ in 0..config.parents / 2 {
        match stream.next() {
            Some(event) => {
                event?;
            }
            None => {
                return Err(LinkageError::execution(
                    "snapshot bench: the stream ended before the checkpoint",
                ))
            }
        }
    }
    // Unique per call, not just per process: concurrent sweeps (the
    // test harness runs several) must not delete each other's file.
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "linkage-bench-snapshot-{}-{}.bin",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let start = Instant::now();
    stream.snapshot(&path)?;
    let snapshot = start.elapsed();
    drop(stream); // the interrupted pipeline is abandoned here
    let file_bytes = std::fs::metadata(&path)?.len();
    let start = Instant::now();
    let resumed = declare().resume(&path)?;
    let resume = start.elapsed();
    drop(resumed);
    std::fs::remove_file(&path).ok();
    Ok(SnapshotBench {
        file_bytes,
        snapshot,
        resume,
    })
}

/// Render a candidate funnel as a JSON object (per-point embedding; the
/// top-level gated fields use flat, uniquely named keys instead).
fn funnel_json(funnel: &ProbeFunnel) -> JsonValue {
    JsonValue::object(vec![
        ("scanned", JsonValue::num(funnel.candidates_scanned as f64)),
        (
            "after_length_filter",
            JsonValue::num(funnel.candidates_after_length_filter as f64),
        ),
        (
            "verified",
            JsonValue::num(funnel.candidates_verified as f64),
        ),
        (
            "prefix_skipped",
            JsonValue::num(funnel.prefix_postings_skipped as f64),
        ),
    ])
}

/// Render a sweep as the `BENCH_*.json` document.
pub fn scaling_report(run: &ScalingRun, mode: &str, git_sha: &str) -> JsonValue {
    let points: Vec<JsonValue> = run
        .points
        .iter()
        .map(|p| {
            JsonValue::object(vec![
                ("shards", JsonValue::num(p.shards as f64)),
                ("elapsed_ms", JsonValue::num(p.elapsed.as_secs_f64() * 1e3)),
                ("throughput_tuples_per_s", JsonValue::num(p.throughput)),
                ("pairs", JsonValue::num(p.pairs as f64)),
                (
                    "switch_after_tuples",
                    p.switch_after
                        .map_or(JsonValue::Null, |n| JsonValue::num(n as f64)),
                ),
                (
                    "switch_latency_ms",
                    p.switch_latency
                        .map_or(JsonValue::Null, |d| JsonValue::num(d.as_secs_f64() * 1e3)),
                ),
                ("recovered_at_switch", JsonValue::num(p.recovered as f64)),
                (
                    "state_bytes_per_shard",
                    JsonValue::Array(
                        p.state_bytes_per_shard
                            .iter()
                            .map(|&b| JsonValue::num(b as f64))
                            .collect(),
                    ),
                ),
                ("interner_bytes", JsonValue::num(p.interner_bytes as f64)),
                (
                    "postings_slack_bytes",
                    JsonValue::num(p.postings_slack_bytes as f64),
                ),
                ("funnel", funnel_json(&p.funnel)),
            ])
        })
        .collect();
    let speedups: Vec<JsonValue> = run
        .config
        .shard_counts
        .iter()
        .filter(|&&s| s > 1)
        .filter_map(|&s| {
            run.speedup(s).map(|v| {
                JsonValue::object(vec![
                    ("shards", JsonValue::num(s as f64)),
                    ("speedup_vs_1_shard", JsonValue::num(v)),
                ])
            })
        })
        .collect();
    let mut report = JsonValue::object(vec![
        ("schema_version", JsonValue::num(1)),
        ("bench", JsonValue::str("adaptive-parallel-scaling")),
        ("mode", JsonValue::str(mode)),
        ("git_sha", JsonValue::str(git_sha)),
        (
            "workload",
            JsonValue::object(vec![
                ("parents", JsonValue::num(run.config.parents as f64)),
                (
                    "children_per_parent",
                    JsonValue::num(run.config.children_per_parent as f64),
                ),
                ("clean_prefix", JsonValue::num(run.config.clean_prefix)),
                ("seed", JsonValue::num(run.config.seed as f64)),
                (
                    "total_tuples",
                    JsonValue::num(run.config.total_tuples() as f64),
                ),
            ]),
        ),
        (
            "host",
            JsonValue::object(vec![
                (
                    "available_parallelism",
                    JsonValue::num(
                        std::thread::available_parallelism().map_or(1, usize::from) as f64
                    ),
                ),
                // Explicit single-core marker: on a 1-core host the
                // shards[] curve measures oversubscribed threads, not
                // parallel speedup — readers of the trajectory must not
                // compare its speedups against multi-core points.
                (
                    "single_core",
                    JsonValue::Bool(
                        std::thread::available_parallelism().map_or(1, usize::from) == 1,
                    ),
                ),
            ]),
        ),
        (
            "headline_throughput_tuples_per_s",
            JsonValue::num(run.headline_throughput()),
        ),
        (
            "probe_ns_per_tuple",
            JsonValue::num(run.probe.probe_ns_per_tuple),
        ),
        (
            "probe_batch_ns_per_tuple",
            JsonValue::num(run.probe.probe_batch_ns_per_tuple),
        ),
        (
            "batch_sweep",
            JsonValue::Array(
                run.probe
                    .batch_sweep
                    .iter()
                    .map(|&(batch_size, ns)| {
                        JsonValue::object(vec![
                            ("batch_size", JsonValue::num(batch_size as f64)),
                            ("ns_per_tuple", JsonValue::num(ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "insert_ns_per_tuple",
            JsonValue::num(run.probe.insert_ns_per_tuple),
        ),
        (
            "candidates_scanned",
            JsonValue::num(run.probe.funnel.candidates_scanned as f64),
        ),
        (
            "candidates_after_length_filter",
            JsonValue::num(run.probe.funnel.candidates_after_length_filter as f64),
        ),
        (
            "candidates_verified",
            JsonValue::num(run.probe.funnel.candidates_verified as f64),
        ),
        (
            "prefix_postings_skipped",
            JsonValue::num(run.probe.funnel.prefix_postings_skipped as f64),
        ),
        (
            "skewed_probe_ns_per_tuple",
            JsonValue::num(run.probe_skewed.probe_ns_per_tuple),
        ),
        (
            "skewed_probe_batch_ns_per_tuple",
            JsonValue::num(run.probe_skewed.probe_batch_ns_per_tuple),
        ),
        (
            "skewed_insert_ns_per_tuple",
            JsonValue::num(run.probe_skewed.insert_ns_per_tuple),
        ),
        (
            "skewed_candidates_scanned",
            JsonValue::num(run.probe_skewed.funnel.candidates_scanned as f64),
        ),
        (
            "skewed_candidates_after_length_filter",
            JsonValue::num(run.probe_skewed.funnel.candidates_after_length_filter as f64),
        ),
        (
            "skewed_candidates_verified",
            JsonValue::num(run.probe_skewed.funnel.candidates_verified as f64),
        ),
        (
            "skewed_prefix_postings_skipped",
            JsonValue::num(run.probe_skewed.funnel.prefix_postings_skipped as f64),
        ),
        (
            "snapshot_file_bytes",
            JsonValue::num(run.snapshot.file_bytes as f64),
        ),
        (
            "snapshot_ms",
            JsonValue::num(run.snapshot.snapshot.as_secs_f64() * 1e3),
        ),
        (
            "snapshot_mb_per_s",
            JsonValue::num(run.snapshot.snapshot_mb_per_s()),
        ),
        (
            "resume_ms",
            JsonValue::num(run.snapshot.resume.as_secs_f64() * 1e3),
        ),
        ("speedups", JsonValue::Array(speedups)),
        ("shards", JsonValue::Array(points)),
    ]);
    // The server-traffic fields are appended only when that model ran,
    // so a document without them reads unambiguously as "not measured"
    // (the gates skip with a note) rather than as a zero.
    if let Some(server) = &run.server {
        if let JsonValue::Object(fields) = &mut report {
            fields.push((
                "sessions_per_s".into(),
                JsonValue::num(server.sessions_per_s()),
            ));
            fields.push((
                "request_p50_ms".into(),
                JsonValue::num(server.request_p50_ms),
            ));
            fields.push((
                "request_p99_ms".into(),
                JsonValue::num(server.request_p99_ms),
            ));
            fields.push((
                "server_sessions".into(),
                JsonValue::num(server.sessions as f64),
            ));
            fields.push((
                "server_requests".into(),
                JsonValue::num(server.requests as f64),
            ));
            // Present only when the bench was built with fault injection
            // (`--features fault`): absent reads as "not measured".
            if let Some(p99) = server.faulty_request_p99_ms {
                fields.push(("faulty_request_p99_ms".into(), JsonValue::num(p99)));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::extract_number;

    fn tiny() -> ScalingConfig {
        ScalingConfig {
            parents: 80,
            children_per_parent: 1,
            clean_prefix: 0.3,
            seed: 7,
            shard_counts: vec![1, 2],
            batch_size: 32,
            server_traffic: false,
        }
    }

    #[test]
    fn sweep_measures_every_shard_count_identically() {
        let run = run_scaling(&tiny()).unwrap();
        assert_eq!(run.points.len(), 2);
        assert_eq!(run.points[0].shards, 1);
        assert_eq!(run.points[1].shards, 2);
        assert_eq!(
            run.points[0].pairs, run.points[1].pairs,
            "shard count must not change the result size"
        );
        assert!(run.points.iter().all(|p| p.throughput > 0.0));
        assert_eq!(run.points[1].state_bytes_per_shard.len(), 2);
        assert!(run.headline_throughput() > 0.0);
        assert!(run.speedup(2).is_some());
        assert!(run.speedup(64).is_none());
        assert!(
            run.snapshot.file_bytes > 0,
            "snapshot bench produced a file"
        );
        assert!(run.snapshot.snapshot_mb_per_s() > 0.0);
        assert!(run.snapshot.resume > Duration::ZERO);
    }

    #[test]
    fn report_round_trips_through_the_extractor() {
        let run = run_scaling(&tiny()).unwrap();
        let text = scaling_report(&run, "smoke", "deadbeef").render();
        assert_eq!(
            extract_number(&text, "headline_throughput_tuples_per_s"),
            Some(run.headline_throughput())
        );
        assert_eq!(extract_number(&text, "schema_version"), Some(1.0));
        assert_eq!(
            extract_number(&text, "total_tuples"),
            Some(tiny().total_tuples() as f64)
        );
        assert_eq!(
            extract_number(&text, "probe_ns_per_tuple"),
            Some(run.probe.probe_ns_per_tuple)
        );
        assert_eq!(
            extract_number(&text, "insert_ns_per_tuple"),
            Some(run.probe.insert_ns_per_tuple)
        );
        assert_eq!(
            extract_number(&text, "probe_batch_ns_per_tuple"),
            Some(run.probe.probe_batch_ns_per_tuple)
        );
        assert_eq!(
            extract_number(&text, "skewed_probe_batch_ns_per_tuple"),
            Some(run.probe_skewed.probe_batch_ns_per_tuple)
        );
        assert!(text.contains("\"batch_sweep\""));
        assert!(text.contains("\"single_core\""));
        assert_eq!(
            extract_number(&text, "skewed_probe_ns_per_tuple"),
            Some(run.probe_skewed.probe_ns_per_tuple)
        );
        assert_eq!(
            extract_number(&text, "candidates_scanned"),
            Some(run.probe.funnel.candidates_scanned as f64)
        );
        assert_eq!(
            extract_number(&text, "skewed_prefix_postings_skipped"),
            Some(run.probe_skewed.funnel.prefix_postings_skipped as f64)
        );
        assert_eq!(
            extract_number(&text, "snapshot_file_bytes"),
            Some(run.snapshot.file_bytes as f64)
        );
        assert_eq!(
            extract_number(&text, "snapshot_mb_per_s"),
            Some(run.snapshot.snapshot_mb_per_s())
        );
        assert!(text.contains("\"snapshot_ms\""));
        assert!(text.contains("\"resume_ms\""));
        assert!(text.contains("\"git_sha\": \"deadbeef\""));
        assert!(text.contains("\"mode\": \"smoke\""));
        assert!(text.contains("state_bytes_per_shard"));
        assert!(text.contains("interner_bytes"));
        assert!(text.contains("postings_slack_bytes"));
        assert!(text.contains("\"funnel\""));
    }

    #[test]
    fn points_report_slack_and_funnel_from_shard_stats() {
        let run = run_scaling(&tiny()).unwrap();
        for point in &run.points {
            // This workload switches, so every point probed through the
            // prefix kernel and its flat postings carry empty-slot slack.
            assert!(point.funnel.candidates_scanned > 0, "funnel populated");
            assert!(point.funnel.candidates_verified > 0);
            assert!(point.postings_slack_bytes > 0, "empty slots accounted");
        }
        assert!(run.probe_skewed.probe_ns_per_tuple > 0.0);
    }

    #[test]
    fn interner_is_accounted_once_not_per_shard() {
        let run = run_scaling(&tiny()).unwrap();
        for point in &run.points {
            assert!(point.interner_bytes > 0, "switched run interns grams");
        }
        // Same workload, same distinct grams: the shared-table size must
        // not grow with the shard count.
        assert_eq!(run.points[0].interner_bytes, run.points[1].interner_bytes);
    }

    #[test]
    fn server_traffic_fields_appear_only_when_the_model_ran() {
        let mut run = run_scaling(&tiny()).unwrap();
        let text = scaling_report(&run, "smoke", "deadbeef").render();
        assert!(
            !text.contains("sessions_per_s"),
            "a sweep without server traffic must not report a zero"
        );
        run.server = Some(ServerBench {
            sessions: 4,
            requests: 100,
            elapsed: Duration::from_secs(2),
            request_p50_ms: 1.5,
            request_p99_ms: 9.0,
            faulty_request_p99_ms: None,
        });
        let text = scaling_report(&run, "smoke", "deadbeef").render();
        assert_eq!(extract_number(&text, "sessions_per_s"), Some(2.0));
        assert_eq!(extract_number(&text, "request_p50_ms"), Some(1.5));
        assert_eq!(extract_number(&text, "request_p99_ms"), Some(9.0));
        assert_eq!(extract_number(&text, "server_sessions"), Some(4.0));
        assert_eq!(extract_number(&text, "server_requests"), Some(100.0));
        assert!(
            !text.contains("faulty_request_p99_ms"),
            "an unmeasured faulty point must be absent, not zero"
        );
        run.server.as_mut().unwrap().faulty_request_p99_ms = Some(12.5);
        let text = scaling_report(&run, "smoke", "deadbeef").render();
        assert_eq!(extract_number(&text, "faulty_request_p99_ms"), Some(12.5));
    }

    #[test]
    fn smoke_and_full_presets_scale_the_same_shape() {
        let smoke = ScalingConfig::smoke();
        let full = ScalingConfig::full();
        assert_eq!(smoke.shard_counts, full.shard_counts);
        assert!(full.parents > smoke.parents);
        assert_eq!(smoke.total_tuples(), 8000);
    }
}
