//! The paper's four claims, asserted at every grid point, and the checker
//! shown to go red when the controller is mis-set through the ordinary
//! builder setters.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use linkage_experiments::{Claim, Paper, Verdict, Weight};

/// The grid at the defaults, run once and shared: the mis-setting tests
/// re-run only its adaptive pipelines.
fn paper() -> &'static Paper {
    static PAPER: OnceLock<Paper> = OnceLock::new();
    PAPER.get_or_init(|| Paper::run().expect("the grid runs"))
}

/// Failing grid points per claim.
fn failing(paper: &Paper) -> BTreeMap<Claim, usize> {
    let mut failing = BTreeMap::new();
    for verdict in paper.verdicts().iter().filter(|v| !v.holds) {
        *failing.entry(verdict.claim).or_default() += 1;
    }
    failing
}

#[test]
fn every_claim_holds_at_every_grid_point() {
    let verdicts = paper().verdicts();
    assert_eq!(verdicts.len(), 4 * 48, "one verdict per claim × grid point");
    let failed: Vec<String> = verdicts
        .iter()
        .filter(|v| !v.holds)
        .map(Verdict::to_string)
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

/// θ_out = 0.5 (fifty times the default) takes clean-prefix noise for
/// dirt.  Eight of the twelve clean workloads switch, at 4.5–5.5× the
/// exact-only cost, and twelve dirty ones switch before their onset
/// (seed 4 at child 48 on all nine; seed 1 at child 448 on the three
/// with a 450-child prefix).
#[test]
fn a_loose_outlier_threshold_fails_time_and_detection() {
    let tuned = paper()
        .with_adaptive(|adaptive| adaptive.theta_out(0.5))
        .expect("the grid runs");
    assert_eq!(
        failing(&tuned),
        BTreeMap::from([(Claim::Time, 8), (Claim::Detection, 12)])
    );
}

/// Assessing after every child (the default is every 16th) gives the
/// same noise sixteen times the looks: seed 4 switches on two clean
/// workloads, at 5.6× the exact-only cost.
#[test]
fn assessing_every_child_fails_time() {
    let tuned = paper()
        .with_adaptive(|adaptive| adaptive.check_every(1))
        .expect("the grid runs");
    assert_eq!(failing(&tuned), BTreeMap::from([(Claim::Time, 2)]));
}

/// README's "Reproducing the paper" section is normative: its weight
/// table and thresholds must be the `paper` module's constants.
#[test]
fn readme_weights_and_thresholds_match_the_code() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md must exist");
    let section = readme
        .split("\n## ")
        .find(|s| s.starts_with("Reproducing the paper"))
        .expect("README.md must have a \"Reproducing the paper\" section");

    // Rows look like "| exact probe+insert | 833 | `operators.…` |".
    let weights: Vec<(String, f64, String)> = section
        .lines()
        .skip_while(|l| !l.starts_with("| operation"))
        .skip(2)
        .map_while(|l| l.strip_prefix('|'))
        .map(|l| {
            let cells: Vec<&str> = l.split('|').map(|c| c.trim().trim_matches('`')).collect();
            let ns = cells[1].parse().expect("ns/op must be a number");
            (cells[0].to_string(), ns, cells[2].to_string())
        })
        .collect();
    let expected: Vec<(String, f64, String)> = Weight::ALL
        .iter()
        .map(|w| (w.operation.to_string(), w.ns, w.metric.to_string()))
        .collect();
    assert_eq!(weights, expected, "README.md's weight table is out of date");

    let threshold = |name: &str| -> f64 {
        section
            .lines()
            .find_map(|l| l.strip_prefix(&format!("- `{name}` = ")))
            .unwrap_or_else(|| panic!("README.md must declare `{name}` = N"))
            .split(':')
            .next()
            .and_then(|n| n.parse().ok())
            .expect("a threshold must be a number")
    };
    assert_eq!(threshold("r"), Claim::R, "README.md's r is out of date");
    assert_eq!(threshold("c"), Claim::C, "README.md's c is out of date");
    assert_eq!(threshold("a"), Claim::A, "README.md's a is out of date");
    assert_eq!(
        threshold("D"),
        Claim::D as f64,
        "README.md's D is out of date"
    );
}
