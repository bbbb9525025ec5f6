//! The benchmark as its users and its driver run it: the executable, the
//! files it writes, and the two files it must agree with.

// The crate is a binary; its JSON reader is shared with it by path.
#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use json::Json;

fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn perfbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
}

fn benchmark_json() -> Json {
    let path = crate_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries(section: &Json) -> &[Json] {
    match section {
        Json::Arr(entries) => entries,
        other => panic!("expected a list, found {other:?}"),
    }
}

fn name_of(entry: &Json) -> &str {
    match entry.get("name") {
        Some(Json::Str(name)) => name,
        other => panic!("expected a name, found {other:?}"),
    }
}

fn names(section: &Json) -> BTreeSet<String> {
    entries(section)
        .iter()
        .map(|entry| name_of(entry).to_string())
        .collect()
}

fn keys(object: &Json) -> BTreeSet<String> {
    match object {
        Json::Obj(fields) => fields.iter().map(|(key, _)| key.clone()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A scratch directory under cargo's own, fresh for each test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

#[test]
fn benchmark_json_is_what_the_binary_defines() {
    let printed = perfbench()
        .arg("spec")
        .output()
        .expect("perfbench spec runs");
    assert!(printed.status.success());
    let printed = String::from_utf8(printed.stdout).expect("UTF-8");
    let on_disk = std::fs::read_to_string(crate_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        printed, on_disk,
        "BENCHMARK.json drifted from perfbench/src/spec.rs; regenerate it with \
         `perfbench/run.sh spec > BENCHMARK.json`"
    );
}

#[test]
fn the_release_profile_is_the_repositorys() {
    // Build settings change speed without changing code: the benchmark
    // must be built the way the repository builds its release binaries.
    let profile = |path: PathBuf| -> Vec<String> {
        let text = std::fs::read_to_string(&path).expect("a manifest");
        text.lines()
            .skip_while(|line| line.trim() != "[profile.release]")
            .skip(1)
            .take_while(|line| !line.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(str::to_string)
            .collect()
    };
    let root = profile(crate_dir().join("../Cargo.toml"));
    assert!(!root.is_empty(), "the root manifest has a release profile");
    assert_eq!(profile(crate_dir().join("Cargo.toml")), root);
}

#[test]
fn a_quick_run_emits_exactly_the_declared_names() {
    let spec = benchmark_json();
    let workloads = names(spec.get("workloads").expect("workloads"));
    let end_to_end = names(spec.get("end_to_end").expect("end_to_end"));
    let per_layer = names(spec.get("per_layer").expect("per_layer"));
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(well_formed(name), "{name}");
    }

    // Every workload, untraced and traced, each in a process of its own.
    let out = scratch("quick-all");
    let run = perfbench()
        .args(["--quick", "--traced", "--seed", "7"])
        .env("PERFBENCH_OUT", &out)
        .output()
        .expect("perfbench runs");
    assert!(
        run.status.success(),
        "quick run failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let results = std::fs::read_to_string(out.join("results.json")).expect("results.json");
    let results = Json::parse(&results).expect("results.json parses");
    let ran = results.get("workloads").expect("workloads");
    assert_eq!(keys(ran), workloads);
    for workload in &workloads {
        let sections = ran.get(workload).expect("a workload");
        for (section, declared) in [("end_to_end", &end_to_end), ("per_layer", &per_layer)] {
            let result = sections.get(section).expect("both sections");
            assert_eq!(
                &keys(result.get("metrics").expect("metrics")),
                declared,
                "{workload} {section}"
            );
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{workload}");
        }
        let trace = std::fs::read_to_string(out.join(format!("trace-{workload}.json")))
            .expect("one trace file per workload");
        let trace = Json::parse(&trace).expect("the trace parses");
        assert!(
            trace
                .get("spans_total")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                > 0.0
        );
    }
    // Nothing the run created for itself is left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .expect("the out directory")
        .filter_map(Result::ok)
        .filter(|entry| entry.file_name().to_string_lossy().starts_with("tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn the_last_line_is_the_result_object_the_driver_reads() {
    let spec = benchmark_json();
    let out = scratch("quick-one");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let run = perfbench()
            .args([
                "--workload",
                "served_evict",
                "--seed",
                "3",
                "--seconds",
                "0.2",
            ])
            .args(["--trace", trace, "--quick"])
            .env("PERFBENCH_OUT", &out)
            .output()
            .expect("perfbench runs");
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8(run.stdout).expect("UTF-8");
        let last = stdout.lines().last().expect("some output");
        let result = Json::parse(last).expect("the last line is JSON");
        let expected: BTreeSet<String> = ["correct", "attempted", "failed", "metrics"]
            .into_iter()
            .map(str::to_string)
            .collect();
        assert_eq!(keys(&result), expected);
        assert!(
            result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                >= 1.0
        );
        let metrics = result.get("metrics").expect("metrics");
        assert_eq!(
            keys(metrics),
            names(spec.get(section).expect("the section"))
        );
        let value_and_unit: BTreeSet<String> =
            ["value", "unit"].into_iter().map(str::to_string).collect();
        for declared in entries(spec.get(section).expect("the section")) {
            let name = name_of(declared);
            let metric = metrics.get(name).expect("every declared metric");
            assert_eq!(keys(metric), value_and_unit, "{name}");
            assert_eq!(metric.get("unit"), declared.get("unit"), "{name}");
            assert!(
                metric.get("value").and_then(Json::as_f64).is_some(),
                "{name}"
            );
        }
        // The lines above it are `workload metric value unit n`.
        for line in stdout.lines().rev().skip(1) {
            let fields: Vec<&str> = line.split(' ').collect();
            assert_eq!(fields.len(), 5, "{line}");
            assert_eq!(fields[0], "served_evict");
            assert!(fields[2].parse::<f64>().is_ok() && fields[4].parse::<u64>().is_ok());
        }
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--trace", "2"],
        &["--seed"],
        &["--frobnicate"],
        &["compare", "only-one.json"],
    ] {
        let run = perfbench().args(args).output().expect("perfbench runs");
        assert!(!run.status.success(), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
    }
}
