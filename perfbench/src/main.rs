//! The benchmark of the adaptive record-linkage workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! perfbench [--seed <n>] [--traced] [--quick]      every workload, one process each
//! perfbench compare A.json B.json
//! perfbench spec                                   print BENCHMARK.json
//! ```
//!
//! See `perfbench/README.md` for what is measured and why.

mod api_run;
mod batch;
mod bench;
mod compare;
mod data;
mod json;
mod layers;
mod served;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use batch::{BatchBench, BatchSpec};
use bench::{Bench, Checks, TmpDir};
use data::Mode;
use json::Json;
use served::{ServedBench, ServedSpec};
use stats::Summary;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 42;

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn usage() -> String {
    "usage: perfbench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] \
     [--traced] [--quick]\n       perfbench compare A.json B.json\n       perfbench spec"
        .to_string()
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        quick: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => options.workload = Some(value("--workload")?),
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                options.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                options.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => options.trace = true,
            "--quick" => options.quick = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if options.quick && !seconds_given {
        options.seconds = 0.3;
    }
    if let Some(name) = &options.workload {
        if !spec::WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload {name}"));
        }
    }
    Ok(options)
}

/// `perfbench/out`, beside this crate's manifest: everything the benchmark
/// writes stays inside the checkout it was built in. The crate's own tests
/// point `PERFBENCH_OUT` elsewhere so they do not overwrite real results.
fn out_dir() -> PathBuf {
    std::env::var_os("PERFBENCH_OUT").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    )
}

enum Kind {
    Batch(BatchSpec),
    Served(ServedSpec),
}

/// The sizes of each workload. `--quick` shrinks them to a smoke test of
/// the same code paths; its numbers mean nothing.
fn workload_kind(name: &str, quick: bool) -> Kind {
    let dirty_parents = if quick { 1_000 } else { 16_000 };
    match name {
        "batch_dirty" => Kind::Batch(BatchSpec {
            datasets: 1,
            parents: dirty_parents,
            dirty: true,
            mode: Mode::Serial,
        }),
        "batch_clean" => Kind::Batch(BatchSpec {
            datasets: if quick { 4 } else { 32 },
            parents: if quick { 500 } else { 8_000 },
            dirty: false,
            mode: Mode::Serial,
        }),
        "sharded_dirty" => Kind::Batch(BatchSpec {
            datasets: 1,
            parents: dirty_parents,
            dirty: true,
            mode: Mode::Sharded(2),
        }),
        "served_mixed" => Kind::Served(ServedSpec {
            sessions: if quick { 4 } else { 24 },
            parents: if quick { 200 } else { 1_000 },
            open_per_client: 1,
            evict: false,
        }),
        "served_evict" => Kind::Served(ServedSpec {
            sessions: if quick { 8 } else { 16 },
            parents: if quick { 100 } else { 500 },
            open_per_client: 4,
            evict: true,
        }),
        other => unreachable!("workload {other} was validated"),
    }
}

/// What one workload's run produced.
struct Report {
    checks: Checks,
    metrics: Vec<(&'static str, Summary)>,
    /// The timing samples behind the end-to-end metrics.
    samples: Vec<(&'static str, Vec<f64>)>,
}

fn run_workload(name: &str, options: &Options) -> linkage::types::Result<Report> {
    let out = out_dir();
    std::fs::create_dir_all(&out)?;
    // Declared before the bench: the server inside a served bench must
    // stop before its directory is removed.
    let tmp = TmpDir::create(&out)?;
    let mut checks = Checks::default();
    let kind = workload_kind(name, options.quick);

    // The benchmark's own verification, kept out of `setup_s`: it would
    // bury the program's set-up cost under two seconds of nested loops.
    let spot_parents = if options.quick { 100 } else { 500 };
    let (dirty, mode) = match &kind {
        Kind::Batch(spec) => (spec.dirty, spec.mode),
        Kind::Served(_) => (true, Mode::Serial),
    };
    let spot = api_run::oracle_spot_check(dirty, options.seed, mode, spot_parents);
    if let Some(agrees) = checks.op(spot, "oracle spot-check") {
        checks.check(agrees, || {
            "pair set differs from the nested-loop oracle".to_string()
        });
    }

    let (mut bench, setup_s): (Box<dyn Bench>, Vec<f64>) = match kind {
        Kind::Batch(spec) => {
            let (bench, setup_s) =
                bench::repeat_setup(|| BatchBench::setup(spec, options.seed, tmp.path()))?;
            (Box::new(bench), setup_s)
        }
        Kind::Served(spec) => {
            let serial = AtomicU64::new(0);
            let (bench, setup_s) = bench::repeat_setup(|| {
                let n = serial.fetch_add(1, Ordering::Relaxed);
                let evict_dir = tmp.path().join(format!("evict-{n}"));
                ServedBench::setup(spec, options.seed, tmp.path(), evict_dir)
            })?;
            (Box::new(bench), setup_s)
        }
    };

    let warm = bench.warm_up(&mut checks);
    checks.op(warm, "warm-up pass");

    if options.trace {
        let (metrics, tracer) =
            layers::per_layer(bench.as_mut(), options.seconds, tmp.path(), &mut checks)?;
        let path = out.join(format!("trace-{name}.json"));
        std::fs::write(
            &path,
            tracer.to_json(name, layers::MAX_SPANS_WRITTEN).compact(),
        )?;
        return Ok(Report {
            checks,
            metrics,
            samples: Vec::new(),
        });
    }
    let passes = bench::timed_passes(bench.as_mut(), options.seconds, &mut checks);
    let pooled = bench.pooled_roundtrips();
    Ok(Report {
        metrics: bench::end_to_end_metrics(&setup_s, &passes, pooled, &checks),
        samples: bench::raw_samples(&setup_s, &passes, pooled),
        checks,
    })
}

/// The run's result as the last line of standard output wants it, and as
/// the result files keep it (with quartiles and counts).
fn report_json(report: &Report, detailed: bool) -> Json {
    let metrics = report
        .metrics
        .iter()
        .map(|(name, summary)| {
            let unit = spec::unit_of(name);
            let value = if detailed {
                summary.to_json(unit)
            } else {
                Json::obj(vec![
                    ("value", Json::Num(summary.value)),
                    ("unit", Json::str(unit)),
                ])
            };
            (name.to_string(), value)
        })
        .collect();
    let mut fields = vec![
        ("correct", Json::Bool(report.checks.failed == 0)),
        ("attempted", Json::Num(report.checks.attempted as f64)),
        ("failed", Json::Num(report.checks.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ];
    if detailed {
        let samples = report
            .samples
            .iter()
            .map(|(name, values)| {
                let values = values.iter().map(|v| Json::Num(*v)).collect();
                (name.to_string(), Json::Arr(values))
            })
            .collect();
        fields.push(("samples", Json::Obj(samples)));
    }
    Json::obj(fields)
}

fn result_path(name: &str, trace: bool) -> PathBuf {
    let kind = if trace { "per_layer" } else { "end_to_end" };
    out_dir().join(format!("run-{name}-{kind}.json"))
}

/// One workload in this process. Prints `workload metric value unit n`
/// lines, then the result object as the last line.
fn single(name: &str, options: &Options) -> ExitCode {
    let report = match run_workload(name, options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::from(2);
        }
    };
    for (metric, summary) in &report.metrics {
        let unit = spec::unit_of(metric);
        println!("{name} {metric} {} {unit} {}", summary.value, summary.n);
    }
    for failure in &report.checks.failures {
        eprintln!("perfbench: {name}: FAILED {failure}");
    }
    if let Err(e) = std::fs::write(
        result_path(name, options.trace),
        report_json(&report, true).pretty(),
    ) {
        eprintln!("perfbench: {name}: cannot write the result file: {e}");
        return ExitCode::from(2);
    }
    println!("{}", report_json(&report, false).compact());
    if report.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Every workload, each in a fresh process of this executable, then
/// `perfbench/out/results.json`.
fn all(options: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    let mut workloads = Vec::new();
    for workload in &spec::WORKLOADS {
        let mut sections = Vec::new();
        let traces: &[bool] = if options.trace {
            &[false, true]
        } else {
            &[false]
        };
        for &trace in traces {
            let mut command = std::process::Command::new(&exe);
            command
                .args(["--workload", workload.name])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if options.quick {
                command.arg("--quick");
            }
            // The child's lines pass through; its result file is read back.
            match command.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("perfbench: {} exited with {status}", workload.name);
                    failed = true;
                }
                Err(e) => {
                    eprintln!("perfbench: cannot run {}: {e}", workload.name);
                    return ExitCode::from(2);
                }
            }
            let section = std::fs::read_to_string(result_path(workload.name, trace))
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(&text));
            match section {
                Ok(json) => sections.push((if trace { "per_layer" } else { "end_to_end" }, json)),
                Err(e) => {
                    eprintln!("perfbench: {}: no result: {e}", workload.name);
                    failed = true;
                }
            }
        }
        workloads.push((workload.name, Json::obj(sections)));
    }
    let results = Json::obj(vec![
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(options.seconds)),
        ("quick", Json::Bool(options.quick)),
        (
            "threads",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = out_dir().join("results.json");
    if let Err(e) = std::fs::write(&path, results.pretty()) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", path.display());
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            ExitCode::SUCCESS
        }
        Some("-h" | "--help") => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        _ => match parse_options(&args) {
            Ok(options) => match options.workload.clone() {
                Some(name) => single(&name, &options),
                None => all(&options),
            },
            Err(message) => {
                eprintln!("perfbench: {message}");
                ExitCode::from(2)
            }
        },
    }
}
