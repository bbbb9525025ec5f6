//! The paper's claims as one checked artifact.
//!
//! Lengu et al. (EDBT 2009) trade completeness for time: an exact join
//! switches to an approximate one once its output falls short.
//! [`Paper::run`] runs that trade-off over a constant grid of generated
//! workloads and returns a [`Verdict`] per [`Claim`] × grid point;
//! [`Paper::tables`] prints the paper's tables from the same runs.  Cost
//! is counted, not timed ([`Weight::ALL`] prices each counted operation),
//! so the claims hold or fail the same way on every host.

use std::collections::HashSet;
use std::fmt::{self, Write as _};

use linkage::api::{MatchPair, Pipeline, PipelineBuilder, RecordId, Relation, Result, RunReport};
use linkage_datagen::{generate, DatagenConfig, GeneratedData};
use linkage_text::{GramInterner, QGramConfig, QGramJaccard, QGramSet, StringSimilarity};

// The grid: seeds × clean prefixes (where in the child stream the dirt
// starts) × dirty fractions, ascending because claim (iv) walks them in
// order; each workload has 600 parents and 600 children.
const SEEDS: [u64; 4] = [1, 2, 3, 4];
const CLEAN_PREFIXES: [f64; 3] = [0.25, 0.5, 0.75];
const DIRTY_FRACTIONS: [f64; 4] = [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0];
const PARENTS: usize = 600;

/// The price of one counted operation, read from one `perfbench`
/// per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weight {
    /// The operation priced.
    pub operation: &'static str,
    /// Nanoseconds per operation.
    pub ns: f64,
    /// The `perfbench` per-layer metric the price was read from.
    pub metric: &'static str,
}

impl Weight {
    /// The traced runs every weight was read from.
    pub const TRACED_RUN: &'static str = "median of three `perfbench/run.sh --workload \
        batch_dirty --seed 42 --seconds 5 --trace 1` runs at commit b53fe39, 2 shared vCPUs";

    /// Every weight: exact probe+insert per pre-switch tuple; extract and
    /// insert per handover migration and per approximate-phase tuple;
    /// postings scanned and candidates verified, from the probe funnel.
    pub const ALL: [Weight; 5] = [
        Weight::new("exact probe+insert", 427.0, EXACT_METRIC),
        Weight::new("q-gram extract", 1450.0, "text.extract_ns_per_key"),
        Weight::new("ssh insert", 1964.0, "operators.ssh_insert_ns_per_tuple"),
        Weight::new("posting scanned", 71.0, SCAN_METRIC),
        Weight::new("candidate verified", 423.0, "text.overlap_ns_per_pair"),
    ];

    const fn new(operation: &'static str, ns: f64, metric: &'static str) -> Self {
        Weight {
            operation,
            ns,
            metric,
        }
    }
}

const EXACT_METRIC: &str = "operators.exact_process_ns_per_tuple";
/// A probe's time less its verifications, per posting it scans.
const SCAN_METRIC: &str = "(operators.ssh_probe_ns_per_tuple - operators.verified_per_probe \
    * text.overlap_ns_per_pair) / operators.scanned_per_probe";

/// One of the paper's four claims about the time–completeness trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Claim {
    /// (i) Where dirt is present, adaptive recall ≥ [`Claim::R`] ×
    /// approximate-only recall.
    Completeness,
    /// (ii) On clean data adaptive cost ≤ [`Claim::C`] × exact-only cost,
    /// and everywhere adaptive cost ≤ [`Claim::A`] × approximate-only
    /// cost.
    Time,
    /// (iii) Where dirt is present, the switch lands after the first dirty
    /// child and at most [`Claim::D`] children after it.
    Detection,
    /// (iv) The recall gain over exact-only does not fall as the dirty
    /// fraction grows (Fig. 6).
    Shape,
}

impl Claim {
    /// Claim (i)'s recall ratio.
    pub const R: f64 = 1.0;
    /// Claim (ii)'s cost ratio on clean data: no clean point switches.
    pub const C: f64 = 1.0;
    /// Claim (ii)'s cost ratio against approximate-only: the paper has 1;
    /// today's dirty grid points read 1.04–1.06 (see the README).
    pub const A: f64 = 1.3;
    /// Claim (iii)'s detection bound, in children after the onset; the
    /// worst grid point reads 201.
    pub const D: u64 = 210;
}

/// Whether one claim holds at one grid point, and the numbers it was
/// decided on.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The claim checked.
    pub claim: Claim,
    /// The grid point: seed, dirty fraction and clean prefix.
    pub point: (u64, f64, f64),
    /// Whether the claim holds there.
    pub holds: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ((seed, dirty, clean), detail) = (self.point, &self.detail);
        let verdict = if self.holds { "holds" } else { "FAILS" };
        write!(f, "{verdict} {:?} at seed {seed}, ", self.claim)?;
        write!(f, "dirty {dirty:.2}, clean prefix {clean}: {detail}")
    }
}

/// The counted operations of one run, in [`Weight::ALL`]'s order.
#[derive(Debug, Clone, Copy)]
struct Ops([u64; 5]);

impl Ops {
    fn of(report: &RunReport) -> Self {
        let total = report.total_consumed();
        let funnel = report.probe_funnel();
        let exact = report.switch.map_or(total, |s| s.after_tuples);
        let migrated = if report.switch.is_some() { total } else { 0 };
        let (scanned, verified) = (funnel.candidates_scanned, funnel.candidates_verified);
        Ops([exact, migrated, migrated, scanned, verified])
    }

    /// Counted cost per operation, in microseconds.
    fn costs_us(self) -> [f64; 5] {
        std::array::from_fn(|i| self.0[i] as f64 * Weight::ALL[i].ns / 1e3)
    }

    fn cost_us(self) -> f64 {
        self.costs_us().iter().sum()
    }
}

/// One pipeline run, scored against the generated truth.
#[derive(Debug, Clone)]
struct Run {
    pairs: usize,
    recall: f64,
    precision: f64,
    /// Children consumed when a mid-stream switch fired.
    switch_child: Option<u64>,
    ops: Ops,
}

impl Run {
    fn of(data: &GeneratedData, pipeline: PipelineBuilder) -> Result<Run> {
        let outcome = pipeline.collect()?;
        let truth: HashSet<(RecordId, RecordId)> = data.truth.iter().copied().collect();
        let (pairs, report) = (outcome.matches.len(), &outcome.report);
        let known = |p: &&MatchPair| truth.contains(&p.id_pair());
        let correct = outcome.matches.iter().filter(known).count() as f64;
        Ok(Run {
            pairs,
            recall: correct / truth.len() as f64,
            precision: correct / pairs.max(1) as f64,
            // Sides alternate and are equally long, and the monitor decides
            // right after a child.  Approximate-from-start records a
            // pro-forma switch at tuple 0, which is not a mid-stream switch.
            switch_child: report.switch.map(|s| s.after_tuples / 2).filter(|&c| c > 0),
            ops: Ops::of(report),
        })
    }

    /// `pairs|recall|precision|switch|cost(µs)` cells.
    fn cells(&self) -> String {
        let (pairs, recall, precision) = (self.pairs, self.recall, self.precision);
        let (switch, cost) = (or_dash(self.switch_child), self.ops.cost_us());
        format!("{pairs}|{recall:.3}|{precision:.3}|{switch}|{cost:.0}")
    }
}

fn declare(d: &GeneratedData) -> PipelineBuilder {
    let builder = Pipeline::builder().left(&d.parents).right(&d.children);
    builder.key_column(GeneratedData::KEY_COLUMN)
}

fn key(relation: &Relation, id: RecordId) -> Option<&str> {
    let record = relation.record_by_id(id)?;
    record.key_str(GeneratedData::KEY_COLUMN).ok()
}

fn or_dash(n: Option<u64>) -> String {
    n.map_or_else(|| "-".into(), |n| n.to_string())
}

/// One grid point: its workload, the workload's dirt onset, and the
/// three join modes over it.
#[derive(Debug, Clone)]
struct Point {
    config: DatagenConfig,
    /// Clean children before the first dirty one; `None` on clean data.
    onset: Option<u64>,
    exact: Run,
    approx: Run,
    adaptive: Run,
}

impl Point {
    fn verdict(&self, claim: Claim, holds: bool, detail: String) -> Verdict {
        let c = &self.config;
        let point = (c.seed, c.dirty_fraction, c.clean_prefix);
        Verdict {
            claim,
            point,
            holds,
            detail,
        }
    }

    /// Claims (i)–(iii), which each point decides on its own.
    fn verdicts(&self) -> [Verdict; 3] {
        let cost = self.adaptive.ops.cost_us();
        let vs_exact = cost / self.exact.ops.cost_us();
        let vs_approx = cost / self.approx.ops.cost_us();
        let holds = (self.onset.is_some() || vs_exact <= Claim::C) && vs_approx <= Claim::A;
        let detail = format!("cost {vs_exact:.2}× exact-only, {vs_approx:.2}× approx-only");
        let time = self.verdict(Claim::Time, holds, detail);
        let Some(onset) = self.onset else {
            let none = |claim| self.verdict(claim, true, "no dirt".into());
            return [none(Claim::Completeness), time, none(Claim::Detection)];
        };
        let (adaptive, approx) = (self.adaptive.recall, self.approx.recall);
        let holds = adaptive >= Claim::R * approx;
        let detail = format!("recall {adaptive:.3}, approx-only {approx:.3}");
        let completeness = self.verdict(Claim::Completeness, holds, detail);
        let at = self.adaptive.switch_child;
        let holds = at.is_some_and(|at| at > onset && at <= onset + Claim::D);
        let detail = format!("switch at child {}, onset {onset}", or_dash(at));
        let detection = self.verdict(Claim::Detection, holds, detail);
        [completeness, time, detection]
    }
}

/// The grid's runs, with a verdict per claim × grid point.
#[derive(Debug, Clone)]
pub struct Paper {
    points: Vec<Point>,
    verdicts: Vec<Verdict>,
}

impl Paper {
    /// Run the grid with every pipeline at the system's defaults, and
    /// check the claims.
    pub fn run() -> Result<Paper> {
        let mut points = Vec::new();
        for (seed, clean_prefix) in SEEDS.iter().flat_map(|&s| CLEAN_PREFIXES.map(|c| (s, c))) {
            for dirty_fraction in DIRTY_FRACTIONS {
                let config = DatagenConfig::mid_stream_dirty(PARENTS, seed);
                let config = config.with_dirty_fraction(dirty_fraction);
                let config = config.with_clean_prefix(clean_prefix);
                let data = generate(&config)?;
                let dirty = |&(p, c): &_| key(&data.parents, p) != key(&data.children, c);
                points.push(Point {
                    config,
                    onset: data.truth.iter().position(dirty).map(|i| i as u64),
                    exact: Run::of(&data, declare(&data).never_switch())?,
                    approx: Run::of(&data, declare(&data).approximate_from_start())?,
                    adaptive: Run::of(&data, declare(&data))?,
                });
            }
        }
        Ok(Self::check(points))
    }

    /// The same grid with every adaptive pipeline re-declared through
    /// `tune` (the exact-only and approximate-only baselines are kept),
    /// and the claims checked again.
    pub fn with_adaptive(&self, tune: impl Fn(PipelineBuilder) -> PipelineBuilder) -> Result<Self> {
        let mut points = self.points.clone();
        for p in &mut points {
            let data = generate(&p.config)?;
            p.adaptive = Run::of(&data, tune(declare(&data)))?;
        }
        Ok(Self::check(points))
    }

    fn check(points: Vec<Point>) -> Paper {
        let mut verdicts: Vec<Verdict> = points.iter().flat_map(Point::verdicts).collect();
        // (iv) walks each seed × onset line in ascending dirty fraction.
        for line in points.chunks(DIRTY_FRACTIONS.len()) {
            let mut previous = 0.0;
            for point in line {
                let gain = point.adaptive.recall - point.exact.recall;
                let detail = format!("gain {gain:.3} after {previous:.3}");
                verdicts.push(point.verdict(Claim::Shape, gain >= previous, detail));
                previous = gain;
            }
        }
        Paper { points, verdicts }
    }

    /// One verdict per claim × grid point.
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// The first seed's points with this clean prefix, by dirty fraction.
    fn line(&self, clean_prefix: f64) -> impl Iterator<Item = &Point> {
        let first = move |p: &&Point| (p.config.seed, p.config.clean_prefix) == (1, clean_prefix);
        self.points.iter().filter(first)
    }

    /// The paper's tables, from the grid's runs plus the few runs only a
    /// table needs, followed by the claims' summary and every failing
    /// verdict.
    pub fn tables(&self) -> Result<String> {
        let mut out = String::new();
        let runs = "pairs|recall|precision|switch|cost(µs)";

        let rows = Weight::ALL.map(|w| format!("{}|{}|{}", w.operation, w.ns, w.metric));
        let title = format!("Table 1: per-operation weights ({})", Weight::TRACED_RUN);
        table(&mut out, &title, "operation|ns/op|metric", rows);

        let head = self.line(0.5).last().expect("the grid has this line");
        let modes = [("exact-only", &head.exact), ("approx-only", &head.approx)];
        let modes = modes.into_iter().chain([("adaptive", &head.adaptive)]);
        let rows = modes.map(|(mode, run)| format!("{mode}|{}", run.cells()));
        let title = "Join modes: seed 1, every child after child 300 dirty";
        table(&mut out, title, &format!("mode|{runs}"), rows);

        let sim = QGramJaccard::default();
        let mut rows = Vec::new();
        let mut population = |name: String, s: Vec<f64>| {
            let mean = s.iter().sum::<f64>() / s.len() as f64;
            let bounds = |(l, h): (f64, f64), &x: &f64| (l.min(x), h.max(x));
            let (lo, hi) = s.iter().fold((1.0, 0.0), bounds);
            rows.push(format!("{name}|{mean:.3}|{lo:.3}|{hi:.3}"));
        };
        for edits in 1..=3 {
            let config = DatagenConfig::mid_stream_dirty(300, 42).with_edits(edits);
            let data = generate(&config.with_clean_prefix(0.0))?;
            let keys = |&(p, c): &_| key(&data.parents, p).zip(key(&data.children, c));
            let pairs = data.truth.iter().filter_map(keys);
            let similarities = pairs.map(|(p, c)| sim.similarity(p, c)).collect();
            population(format!("dirty pairs ({edits} edit)"), similarities);
        }
        let clean = generate(&DatagenConfig::clean(300, 7))?;
        let keys = clean.parents.column_strings("location")?;
        let unrelated = keys.windows(2).map(|k| sim.similarity(k[0], k[1]));
        population("unrelated pairs".into(), unrelated.collect());
        let title = "Calibration: q-gram Jaccard of dirty pairs vs unrelated keys";
        table(&mut out, title, "population|mean|min|max", rows);

        let data = generate(&head.config)?;
        let mut rows = Vec::new();
        for theta_out in [0.05, 0.01, 0.001] {
            for check_every in [8, 32, 128] {
                let pipeline = declare(&data).theta_out(theta_out);
                let run = Run::of(&data, pipeline.check_every(check_every))?;
                rows.push(format!("{theta_out}|{check_every}|{}", run.cells()));
            }
        }
        let title = "Controller: θ_out × check cadence on the join-modes workload";
        table(&mut out, title, &format!("θ_out|check_every|{runs}"), rows);

        let rows = CLEAN_PREFIXES.map(|c| {
            let p = self.line(c).last().expect("the grid has this line");
            let (onset, exact) = (or_dash(p.onset), p.exact.recall);
            format!("{c}|{onset}|{}|{exact:.3}", p.adaptive.cells())
        });
        let title = "Fig. 5: dirt onset (seed 1, every child after the onset dirty)";
        let header = format!("clean prefix|onset|{runs}|exact recall");
        table(&mut out, title, &header, rows);

        let rows = self.line(0.5).map(|p| {
            let (exact, adaptive) = (p.exact.recall, p.adaptive.recall);
            let cost = p.adaptive.ops.cost_us();
            let vs_exact = cost / p.exact.ops.cost_us();
            let vs_approx = cost / p.approx.ops.cost_us();
            let (dirty, gain) = (p.config.dirty_fraction, adaptive - exact);
            let recalls = format!("{dirty:.2}|{exact:.3}|{adaptive:.3}|{gain:.3}");
            format!("{recalls}|{vs_exact:.3}|{vs_approx:.3}")
        });
        let title = "Fig. 6: recall gain and counted cost vs dirt (seed 1, onset child 300)";
        let header = "dirty|exact recall|adaptive recall|gain|cost ×exact|cost ×approx";
        table(&mut out, title, header, rows);

        let mut rows = Vec::new();
        for parents in [200, 400, 800] {
            let data = generate(&DatagenConfig::clean(parents, 1))?;
            let (mut interner, mut grams) = (GramInterner::new(), 0);
            for relation in [&data.parents, &data.children] {
                for key in relation.column_strings("location")? {
                    grams += QGramSet::extract(key, &QGramConfig::default(), &mut interner).len();
                }
            }
            rows.push(format!("{parents}|{}|{grams}", 2 * parents));
        }
        let title = "Fig. 7: resident state from the generated keys (clean, seed 1)";
        table(&mut out, title, "parents|tuples|Σ grams per key", rows);

        let mut rows = Vec::new();
        for parents in [200, 400, 800] {
            let data = generate(&DatagenConfig::mid_stream_dirty(parents, 1))?;
            let switch_at = 3 * parents as u64 / 2;
            let run = Run::of(&data, declare(&data).force_switch_at(switch_at))?;
            let costs = run.ops.costs_us().map(|us| format!("{us:.0}")).join("|");
            rows.push(format!("{parents}|{costs}|{:.0}", run.ops.cost_us()));
        }
        let title = "Fig. 8: counted cost by operation (µs), switch forced at 75% of the stream";
        let header = "parents|exact|extract|insert|scan|verify|total";
        table(&mut out, title, header, rows);

        let failing: Vec<&Verdict> = self.verdicts.iter().filter(|v| !v.holds).collect();
        let (points, r, c, a, d) = (self.points.len(), Claim::R, Claim::C, Claim::A, Claim::D);
        let bounds = format!("r = {r}, c = {c}, a = {a}, D = {d}");
        let _ = writeln!(
            out,
            "\nClaims at {points} grid points ({bounds}): {} fail",
            failing.len()
        );
        for verdict in failing {
            let _ = writeln!(out, "{verdict}");
        }
        Ok(out)
    }
}

/// Append a titled table of `|`-separated cells: the first column
/// left-aligned, the others right-aligned.
fn table(out: &mut String, title: &str, header: &str, rows: impl IntoIterator<Item = String>) {
    let rows: Vec<String> = std::iter::once(header.to_string()).chain(rows).collect();
    let rows: Vec<Vec<&str>> = rows.iter().map(|r| r.split('|').collect()).collect();
    let width = |i: usize| rows.iter().map(|r| r[i].chars().count()).max();
    let widths: Vec<usize> = (0..rows[0].len()).filter_map(width).collect();
    let _ = writeln!(out, "\n{title}");
    for row in &rows {
        let mut line = format!("{:<w$}", row[0], w = widths[0]);
        for (cell, w) in row[1..].iter().zip(&widths[1..]) {
            let _ = write!(line, "  {cell:>w$}");
        }
        let _ = writeln!(out, "{line}");
    }
}
