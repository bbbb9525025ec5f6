//! What the five workloads share: counting checks, the result of one pass,
//! the set-up and timed-pass loops, and the reduction of the samples to
//! the end-to-end metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use linkage::types::Result;
use linkage_server::ServerStats;

use crate::data::{Dataset, Mode};
use crate::served::KindLatencies;
use crate::spec::Better;
use crate::stats::{self, Summary};
use crate::trace::Tracer;

/// Counts operations attempted and failed. An operation is a pipeline
/// run, a request, or an output check.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count one operation and keep its value when it succeeded.
    pub fn op<T>(&mut self, result: Result<T>, what: &str) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        // Keep the report readable when one cause fails every pass.
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }
}

/// One stream's timings in one pass. A stream is one pipeline run or one
/// served session; `index` names the same stream in every pass.
#[derive(Debug, Default, Clone)]
pub struct StreamTiming {
    pub index: usize,
    /// Batch workloads only: the sessions of a served pass overlap in
    /// time, so their throughput is the pass's.
    pub tuples_per_s: Option<f64>,
    /// The longest wait between two consecutive returns.
    pub max_stall_ms: f64,
    /// The latency of each 64-unit exchange.
    pub roundtrip_ms: Vec<f64>,
}

/// What one traversal of a workload's streams produced.
#[derive(Debug, Default)]
pub struct PassResult {
    pub streams: Vec<StreamTiming>,
    /// Served workloads only: the pass's tuples over its wall-clock.
    pub pass_tuples_per_s: Option<f64>,
    pub emitted: u64,
    pub correct: u64,
    pub truth: u64,
    pub wrong_switches: u64,
    /// Switch point minus arrival of the first dirty child, per dirty
    /// stream that switched.
    pub detection_delay: Vec<f64>,
    /// Clean streams that switched.
    pub false_switches: u64,
}

impl PassResult {
    /// Input tuples per second of this pass: its own figure when served,
    /// the median over its streams otherwise.
    pub fn tuples_per_s(&self) -> f64 {
        self.pass_tuples_per_s.unwrap_or_else(|| {
            let per_stream: Vec<f64> = self.streams.iter().filter_map(|s| s.tuples_per_s).collect();
            crate::stats::median(&per_stream)
        })
    }
}

/// One workload, set up and ready to run passes.
pub trait Bench {
    /// Runs before timing: fills caches, records the reference outputs
    /// later passes are compared with, cuts the checkpoint.
    fn warm_up(&mut self, checks: &mut Checks) -> Result<()>;

    fn pass(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Result<PassResult>;

    /// One `resume_ms` sample.
    fn resume_ms(&mut self) -> Result<f64>;

    /// Whether the round-trip percentiles pool every stream's samples
    /// (many short streams) or are taken per stream and then reduced to
    /// their median (few long streams).
    fn pooled_roundtrips(&self) -> bool;

    /// The dataset the per-layer measurements are taken on: the first.
    fn profile(&self) -> &Dataset;

    /// The engine the workload's pipelines run on.
    fn mode(&self) -> Mode;

    /// Counters of the workload's own server, if it has one.
    fn server_stats(&self) -> Option<ServerStats>;

    /// Request latencies of the most recent pass, if it was served.
    fn last_kinds(&self) -> Option<&KindLatencies>;
}

/// A directory under `perfbench/out/` for one process's files, removed
/// when dropped.
pub struct TmpDir(PathBuf);

impl TmpDir {
    pub fn create(out_dir: &Path) -> std::io::Result<TmpDir> {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        // A directory of this name is a dead process's leftovers.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TmpDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Set the workload up several times and keep the last: at least
/// `MIN_SETUPS`, and more while they are so short that a single timing
/// would be mostly noise. Returns the seconds each took.
pub fn repeat_setup<B>(mut make: impl FnMut() -> Result<B>) -> Result<(B, Vec<f64>)> {
    const MIN_SETUPS: usize = 5;
    const MAX_SETUPS: usize = 40;
    const MIN_TOTAL_S: f64 = 0.6;
    let mut samples = Vec::new();
    loop {
        let start = Instant::now();
        let bench = make()?;
        samples.push(start.elapsed().as_secs_f64());
        let total: f64 = samples.iter().sum();
        if samples.len() >= MAX_SETUPS || (samples.len() >= MIN_SETUPS && total >= MIN_TOTAL_S) {
            return Ok((bench, samples));
        }
        // Dropped before the next one is made, as a fresh process would.
        drop(bench);
    }
}

/// Samples of the timed passes of one run.
#[derive(Debug, Default)]
pub struct Samples {
    pub passes: Vec<PassResult>,
    pub resume_ms: Vec<f64>,
}

/// Whether the passes so far disagree by more than a quiet host lets
/// them: their best-quartile throughput is over 15% above their median.
/// Of 200 runs on a quiet host none got past 1.14; the runs that a
/// 40-second stall of the host had slowed threefold read 1.21 and 1.30.
fn disturbed(passes: &[PassResult]) -> bool {
    const AGREE_WITHIN: f64 = 1.15;
    let per_pass: Vec<f64> = passes.iter().map(PassResult::tuples_per_s).collect();
    best_quartile(&per_pass, Better::Higher) > AGREE_WITHIN * stats::median(&per_pass)
}

/// Run timed passes until `seconds` have gone by (two passes at least),
/// sampling `resume_ms` after each. A run whose passes disagree goes on,
/// for up to three times as long, so that a stall of the host is outlasted
/// by one run instead of spoiling two.
pub fn timed_passes(bench: &mut dyn Bench, seconds: f64, checks: &mut Checks) -> Samples {
    const MIN_PASSES: usize = 2;
    const MAX_STRETCH: f64 = 3.0;
    /// Resume samples per pass: as many as fit in this much time.
    const RESUME_BUDGET_S: f64 = 0.1;
    const MAX_RESUMES_PER_PASS: usize = 16;
    let mut samples = Samples::default();
    let start = Instant::now();
    let mut tracer = Tracer::off();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let stretch = elapsed < seconds * MAX_STRETCH && disturbed(&samples.passes);
        if samples.passes.len() >= MIN_PASSES && elapsed >= seconds && !stretch {
            break;
        }
        let pass = bench.pass(&mut tracer, checks);
        match checks.op(pass, "timed pass") {
            Some(pass) => samples.passes.push(pass),
            // A pass that errors will error again; do not spin.
            None => break,
        }
        let resume_start = Instant::now();
        for _ in 0..MAX_RESUMES_PER_PASS {
            match checks.op(bench.resume_ms(), "resume") {
                Some(ms) => samples.resume_ms.push(ms),
                None => break,
            }
            if resume_start.elapsed().as_secs_f64() >= RESUME_BUDGET_S {
                break;
            }
        }
    }
    samples
}

/// `VmHWM` of this process in megabytes: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What repeated timings of the same work reduce to: the sample a quarter
/// of the way in from the best one (the 2nd best of 5 to 8, the 5th best
/// of 17 to 20). 0 for no samples.
///
/// The host this benchmark runs on disturbs a pass both ways. It takes the
/// CPU away in bursts (steal of 3% to 65% from one second to the next was
/// measured while this was written), so the median pass mostly says how
/// busy the host was; and after an idle spell it lets the first second or
/// two run faster than it sustains, so the best pass says whether the run
/// began after a pause. Every pass repeats the same work on the same data:
/// the best quartile is a pass the host left alone without favouring.
fn best_quartile(samples: &[f64], better: Better) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if better == Better::Higher {
        sorted.reverse();
    }
    sorted
        .get(sorted.len().saturating_sub(1) / 4)
        .copied()
        .unwrap_or(0.0)
}

/// The best-quartile value of each stream over the passes, in stream
/// order.
fn best_per_stream(
    passes: &[PassResult],
    better: Better,
    of: impl Fn(&StreamTiming) -> Option<f64>,
) -> Vec<f64> {
    let mut by_stream: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for stream in passes.iter().flat_map(|p| &p.streams) {
        if let Some(value) = of(stream) {
            by_stream.entry(stream.index).or_default().push(value);
        }
    }
    by_stream
        .into_values()
        .map(|values| best_quartile(&values, better))
        .collect()
}

/// `of` the round trips of each pass, all its streams pooled.
fn pooled_per_pass(passes: &[PassResult], of: fn(&[f64]) -> f64) -> Vec<f64> {
    passes
        .iter()
        .map(|pass| {
            let pooled: Vec<f64> = pass
                .streams
                .iter()
                .flat_map(|s| &s.roundtrip_ms)
                .copied()
                .collect();
            of(&pooled)
        })
        .collect()
}

/// `of` one stream's round trips; `None` for a stream that made none.
fn stream_roundtrips(stream: &StreamTiming, of: fn(&[f64]) -> f64) -> Option<f64> {
    (!stream.roundtrip_ms.is_empty()).then(|| of(&stream.roundtrip_ms))
}

/// The timing samples of a run, one list per metric: every pass's value,
/// before the best quartile is picked. They go into the result file.
pub fn raw_samples(
    setup_s: &[f64],
    samples: &Samples,
    pooled_roundtrips: bool,
) -> Vec<(&'static str, Vec<f64>)> {
    let passes = &samples.passes;
    let per_stream = |of: &dyn Fn(&StreamTiming) -> Option<f64>| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| &p.streams)
            .filter_map(of)
            .collect()
    };
    let roundtrip = |of: fn(&[f64]) -> f64| -> Vec<f64> {
        if pooled_roundtrips {
            pooled_per_pass(passes, of)
        } else {
            per_stream(&|s| stream_roundtrips(s, of))
        }
    };
    let tuples_per_s = if passes.iter().any(|p| p.pass_tuples_per_s.is_some()) {
        passes.iter().filter_map(|p| p.pass_tuples_per_s).collect()
    } else {
        per_stream(&|s| s.tuples_per_s)
    };
    vec![
        ("setup_s", setup_s.to_vec()),
        ("tuples_per_s", tuples_per_s),
        ("max_stall_ms", per_stream(&|s| Some(s.max_stall_ms))),
        ("resume_ms", samples.resume_ms.clone()),
        ("roundtrip_p50_ms", roundtrip(stats::median)),
        ("roundtrip_p99_ms", roundtrip(stats::tail)),
    ]
}

/// Reduce a run's samples to the end-to-end metrics, in the order of
/// `spec::END_TO_END`.
///
/// A timing is taken per stream and pass. Over the passes each stream
/// keeps its best-quartile value; over the streams the metric is the median. A
/// figure that exists once per pass (the throughput and the pooled
/// round-trip percentiles of a served pass, `resume_ms`, `setup_s`) is
/// the best quartile of its samples. The quartiles beside a value are those
/// of the passes; the count is that of the samples.
pub fn end_to_end_metrics(
    setup_s: &[f64],
    samples: &Samples,
    pooled_roundtrips: bool,
    checks: &Checks,
) -> Vec<(&'static str, Summary)> {
    let passes = &samples.passes;
    let total = |f: fn(&PassResult) -> u64| -> f64 { passes.iter().map(f).sum::<u64>() as f64 };
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };

    // A figure that exists once per pass, or once per repetition.
    let per_pass = |values: &[f64], better: Better| {
        let (q1, _, q3) = stats::quartiles(values);
        Summary {
            value: best_quartile(values, better),
            q1,
            q3,
            n: values.len(),
        }
    };
    // A figure that exists per stream and pass. Its quartiles are those of
    // the passes (each pass's median stream), so they show how much the
    // passes disagreed, not how much the streams differ.
    let per_stream = |better: Better, of: &dyn Fn(&StreamTiming) -> Option<f64>| {
        let each_pass: Vec<f64> = passes
            .iter()
            .map(|p| stats::median(&p.streams.iter().filter_map(of).collect::<Vec<_>>()))
            .collect();
        let (q1, _, q3) = stats::quartiles(&each_pass);
        Summary {
            value: stats::median(&best_per_stream(passes, better, of)),
            q1,
            q3,
            n: passes
                .iter()
                .flat_map(|p| &p.streams)
                .filter_map(of)
                .count(),
        }
    };
    let roundtrip = |of: fn(&[f64]) -> f64| {
        if pooled_roundtrips {
            per_pass(&pooled_per_pass(passes, of), Better::Lower)
        } else {
            per_stream(Better::Lower, &|s| stream_roundtrips(s, of))
        }
    };
    let tuples_per_s = if passes.iter().any(|p| p.pass_tuples_per_s.is_some()) {
        let each_pass: Vec<f64> = passes.iter().filter_map(|p| p.pass_tuples_per_s).collect();
        per_pass(&each_pass, Better::Higher)
    } else {
        per_stream(Better::Higher, &|s| s.tuples_per_s)
    };
    let stream_count = total(|p| p.streams.len() as u64);
    vec![
        ("setup_s", per_pass(setup_s, Better::Lower)),
        ("tuples_per_s", tuples_per_s),
        (
            "recall",
            Summary::exact(
                share(total(|p| p.correct), total(|p| p.truth)),
                passes.len(),
            ),
        ),
        (
            "precision",
            Summary::exact(
                share(total(|p| p.correct), total(|p| p.emitted)),
                passes.len(),
            ),
        ),
        (
            "right_switch_share",
            Summary::exact(
                1.0 - share(total(|p| p.wrong_switches), stream_count),
                stream_count as usize,
            ),
        ),
        (
            "max_stall_ms",
            per_stream(Better::Lower, &|s| Some(s.max_stall_ms)),
        ),
        ("resume_ms", per_pass(&samples.resume_ms, Better::Lower)),
        ("roundtrip_p50_ms", roundtrip(stats::median)),
        ("roundtrip_p99_ms", roundtrip(stats::tail)),
        (
            "ok_share",
            Summary::exact(checks.ok_share(), checks.attempted as usize),
        ),
        ("peak_rss_mb", Summary::exact(peak_rss_mb(), 1)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkage::types::LinkageError;

    #[test]
    fn checks_count_every_operation_once() {
        let mut checks = Checks::default();
        checks.passed(7);
        checks.check(true, || unreachable!());
        checks.check(false, || "hash differs".to_string());
        assert_eq!(checks.op(Ok(3), "run"), Some(3));
        assert_eq!(
            checks.op::<u8>(Err(LinkageError::execution("boom")), "run"),
            None
        );
        assert_eq!((checks.attempted, checks.failed), (11, 2));
        assert!((checks.ok_share() - 9.0 / 11.0).abs() < 1e-12);
        assert!(checks.failures[1].contains("boom"));
    }

    #[test]
    fn setup_is_repeated_and_the_last_one_kept() {
        let mut made = 0;
        let (last, samples) = repeat_setup(|| {
            made += 1;
            Ok(made)
        })
        .unwrap();
        assert_eq!(last, made);
        assert_eq!(samples.len(), made);
        assert!(made >= 5);
    }

    #[test]
    fn the_best_quartile_is_a_quarter_of_the_way_in_from_the_best() {
        let times = [9.0, 3.0, 7.0, 1.0, 5.0, 8.0, 2.0, 6.0, 4.0];
        // Nine samples: the third best either way.
        assert_eq!(best_quartile(&times, Better::Lower), 3.0);
        assert_eq!(best_quartile(&times, Better::Higher), 7.0);
        // Up to four samples there is no quarter to skip: the best.
        assert_eq!(best_quartile(&times[..4], Better::Lower), 1.0);
        assert_eq!(best_quartile(&times[..5], Better::Lower), 3.0);
        assert_eq!(best_quartile(&[2.5], Better::Higher), 2.5);
        assert_eq!(best_quartile(&[], Better::Lower), 0.0);
        // One pass the host sped up and one it slowed down move nothing.
        let passes = [78.0, 131.0, 129.0, 133.0, 130.0, 128.0, 210.0, 132.0];
        assert_eq!(best_quartile(&passes, Better::Lower), 128.0);
    }

    #[test]
    fn passes_that_disagree_mark_a_run_as_disturbed() {
        let served = |tps: &[f64]| -> Vec<PassResult> {
            tps.iter()
                .map(|t| PassResult {
                    pass_tuples_per_s: Some(*t),
                    ..PassResult::default()
                })
                .collect()
        };
        // A quiet host: the passes agree within a few percent.
        assert!(!disturbed(&served(&[
            200.0, 204.0, 197.0, 210.0, 190.0, 201.0, 199.0, 205.0
        ])));
        // A stalled one: a few passes got through, most crawled.
        assert!(disturbed(&served(&[
            106.0, 90.0, 75.0, 53.0, 50.0, 45.0, 40.0, 29.0
        ])));
        assert!(!disturbed(&[]));
    }

    #[test]
    fn each_stream_keeps_its_best_quartile_and_the_metric_is_the_median_stream() {
        let stream = |index: usize, tps: f64, stall: f64, trips: &[f64]| StreamTiming {
            index,
            tuples_per_s: Some(tps),
            max_stall_ms: stall,
            roundtrip_ms: trips.to_vec(),
        };
        let pass = |streams: Vec<StreamTiming>, wrong: u64| PassResult {
            streams,
            emitted: 90,
            correct: 90,
            truth: 100,
            wrong_switches: wrong,
            ..PassResult::default()
        };
        let samples = Samples {
            passes: vec![
                pass(
                    vec![
                        stream(0, 100.0, 9.0, &[1.0, 2.0, 3.0]),
                        stream(1, 10.0, 50.0, &[10.0, 20.0, 30.0]),
                        stream(2, 400.0, 1.0, &[5.0]),
                    ],
                    0,
                ),
                // A disturbed pass: everything slower, except stream 1.
                pass(
                    vec![
                        stream(0, 60.0, 20.0, &[2.0, 4.0, 6.0]),
                        stream(1, 12.0, 40.0, &[9.0, 19.0, 29.0]),
                        stream(2, 300.0, 3.0, &[8.0]),
                    ],
                    1,
                ),
            ],
            resume_ms: vec![7.0, 5.0, 6.0],
        };
        let checks = Checks {
            attempted: 4,
            failed: 0,
            failures: vec![],
        };
        let metrics = end_to_end_metrics(&[0.5, 0.1, 0.3], &samples, false, &checks);
        assert_eq!(metrics.len(), crate::spec::END_TO_END.len());
        for ((name, _), spec) in metrics.iter().zip(&crate::spec::END_TO_END) {
            assert_eq!(*name, spec.name);
        }
        let get = |name: &str| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("setup_s").value, 0.1);
        assert_eq!(get("setup_s").n, 3);
        // Two passes have no quarter to skip, so each stream keeps its best:
        // 100, 12, 400; the median stream is the first.
        assert_eq!(get("tuples_per_s").value, 100.0);
        assert_eq!(get("tuples_per_s").n, 6);
        // Best per stream: 9, 40, 1.
        assert_eq!(get("max_stall_ms").value, 9.0);
        // Per-stream tails (the largest of so few), best pass each: 3, 29, 5.
        assert_eq!(get("roundtrip_p99_ms").value, 5.0);
        // Per-stream medians, best pass each: 2, 19, 5.
        assert_eq!(get("roundtrip_p50_ms").value, 5.0);
        assert_eq!(get("resume_ms").value, 5.0);
        assert_eq!(get("recall").value, 0.9);
        assert_eq!(get("precision").value, 1.0);
        assert!((get("right_switch_share").value - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(get("ok_share").value, 1.0);
    }

    #[test]
    fn a_served_run_reduces_its_per_pass_figures() {
        let pass = |tps: f64, trips: &[f64]| PassResult {
            streams: vec![StreamTiming {
                index: 0,
                tuples_per_s: None,
                max_stall_ms: 1.0,
                roundtrip_ms: trips.to_vec(),
            }],
            pass_tuples_per_s: Some(tps),
            ..PassResult::default()
        };
        let samples = Samples {
            passes: vec![pass(100.0, &[1.0, 2.0, 9.0]), pass(150.0, &[1.0, 3.0, 5.0])],
            resume_ms: vec![],
        };
        let metrics = end_to_end_metrics(&[1.0], &samples, true, &Checks::default());
        let get = |name: &str| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("tuples_per_s").value, 150.0);
        // Pooled per pass: medians 2 and 3, tails 9 and 5.
        assert_eq!(get("roundtrip_p50_ms").value, 2.0);
        assert_eq!(get("roundtrip_p99_ms").value, 5.0);
        assert_eq!(samples.passes[0].tuples_per_s(), 100.0);
    }
}
