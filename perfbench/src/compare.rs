//! `perfbench compare A.json B.json`: one row per workload and end-to-end
//! metric, with both medians, quartiles and counts, and a verdict against
//! the metric's bound. A is the parent, B the change.

use std::process::ExitCode;

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound, so "no change"
    /// cannot be told from a change of the bound's size.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare B with A. A change counts only when it exceeds both the bound
/// and the wider of the two spreads.
pub fn verdict(a: Summary, b: Summary, better: Better, bound: f64) -> Verdict {
    if a.value == 0.0 {
        return if b.value == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let change = (b.value - a.value) / a.value.abs();
    let worsening = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = a.spread().max(b.spread());
    if worsening > bound && worsening > spread {
        Verdict::Worse
    } else if -worsening > bound && -worsening > spread {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

fn summary_of(metric: &Json) -> Option<Summary> {
    let num = |key: &str| metric.get(key).and_then(Json::as_f64);
    let value = num("value")?;
    Some(Summary {
        value,
        q1: num("q1").unwrap_or(value),
        q3: num("q3").unwrap_or(value),
        n: num("n").unwrap_or(1.0) as usize,
    })
}

fn lookup(results: &Json, workload: &str, metric: &str) -> Option<Summary> {
    results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)
        .and_then(summary_of)
}

/// Every row of the comparison, and whether any is `worse`.
pub fn compare(a: &Json, b: &Json) -> (Vec<String>, bool) {
    let mut rows = vec![format!(
        "{:<14} {:<19} {:>12} {:>12} {:>12} {:>4}  {:>12} {:>12} {:>12} {:>4}  {:<6} {:>5}  verdict",
        "workload", "metric", "A", "A.q1", "A.q3", "n", "B", "B.q1", "B.q3", "n", "better", "bound"
    )];
    let mut any_worse = false;
    for workload in &spec::WORKLOADS {
        for metric in &spec::END_TO_END {
            let (Some(sa), Some(sb)) = (
                lookup(a, workload.name, metric.name),
                lookup(b, workload.name, metric.name),
            ) else {
                rows.push(format!(
                    "{:<14} {:<19} missing from one side",
                    workload.name, metric.name
                ));
                continue;
            };
            let v = verdict(sa, sb, metric.better, metric.bound);
            any_worse |= v == Verdict::Worse;
            rows.push(format!(
                "{:<14} {:<19} {:>12.5} {:>12.5} {:>12.5} {:>4}  {:>12.5} {:>12.5} {:>12.5} {:>4}  {:<6} {:>5}  {}",
                workload.name,
                metric.name,
                sa.value,
                sa.q1,
                sa.q3,
                sa.n,
                sb.value,
                sb.q1,
                sb.q3,
                sb.n,
                metric.better.as_str(),
                metric.bound,
                v.as_str()
            ));
        }
    }
    (rows, any_worse)
}

pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: perfbench compare A.json B.json");
        return ExitCode::from(2);
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (read(a), read(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (rows, any_worse) = compare(&a, &b);
    for row in rows {
        println!("{row}");
    }
    if any_worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            value,
            q1,
            q3,
            n: 10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let tight = |v: f64| s(v, v * 0.99, v * 1.01);
        // Lower is better: +20% is worse, -20% better, +5% the same.
        assert_eq!(
            verdict(tight(100.0), tight(120.0), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(tight(100.0), tight(80.0), Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(tight(100.0), tight(105.0), Better::Lower, 0.1),
            Verdict::Same
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(tight(100.0), tight(120.0), Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(tight(100.0), tight(80.0), Better::Higher, 0.1),
            Verdict::Worse
        );
        // A spread wider than the bound hides a small change ...
        let loose = |v: f64| s(v, v * 0.85, v * 1.15);
        assert_eq!(
            verdict(loose(100.0), loose(105.0), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ... but not one larger than the spread itself.
        assert_eq!(
            verdict(loose(100.0), loose(150.0), Better::Lower, 0.1),
            Verdict::Worse
        );
        // Exactly repeating values compare without a spread.
        assert_eq!(
            verdict(
                Summary::exact(1.0, 3),
                Summary::exact(1.0, 3),
                Better::Higher,
                0.01
            ),
            Verdict::Same
        );
    }

    #[test]
    fn rows_cover_every_workload_and_metric() {
        let metrics = Json::Obj(
            spec::END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), Summary::exact(10.0, 5).to_json(m.unit)))
                .collect(),
        );
        let side = Json::obj(vec![(
            "workloads",
            Json::Obj(
                spec::WORKLOADS
                    .iter()
                    .map(|w| {
                        (
                            w.name.to_string(),
                            Json::obj(vec![(
                                "end_to_end",
                                Json::obj(vec![("metrics", metrics.clone())]),
                            )]),
                        )
                    })
                    .collect(),
            ),
        )]);
        let (rows, any_worse) = compare(&side, &side);
        assert_eq!(
            rows.len(),
            1 + spec::WORKLOADS.len() * spec::END_TO_END.len()
        );
        assert!(!any_worse);
        assert!(rows[1..].iter().all(|r| r.ends_with("same")));
        let (rows, _) = compare(&side, &Json::obj(vec![]));
        assert!(rows[1..].iter().all(|r| r.contains("missing")));
    }
}
