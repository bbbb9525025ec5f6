//! Driving the program's facade: one pipeline run from declaration to
//! `Finished`, with the time of every event the consumer receives, and the
//! checkpoint/resume pair.

use std::path::Path;
use std::time::Instant;

use linkage::api::{MatchEvent, PipelineBuilder, RunReport};
use linkage::datagen::DatagenConfig;
use linkage::operators::oracle::nested_loop_similarity;
use linkage::text::QGramJaccard;
use linkage::types::{defaults, LinkageError, Result};

use crate::data::{ids, Dataset, IdPair, Mode, KEYS};
use crate::trace::Tracer;

/// What the consumer of one stream saw.
pub struct StreamRun {
    /// Declaration to `Finished`, seconds.
    pub elapsed_s: f64,
    pub pairs: Vec<IdPair>,
    /// For every event returned by `MatchStream::next()`, nanoseconds
    /// since the declaration began.
    pub event_ns: Vec<u64>,
    pub report: RunReport,
    /// Duration of `MatchStream::snapshot`, when a checkpoint was asked for.
    pub snapshot_ms: Option<f64>,
}

impl StreamRun {
    pub fn tuples_per_s(&self) -> f64 {
        self.report.total_consumed() as f64 / self.elapsed_s
    }

    pub fn switched(&self) -> bool {
        self.report.switch.is_some()
    }
}

/// Cut a checkpoint once this many match events have been yielded.
pub struct Checkpoint<'a> {
    pub after_matches: usize,
    pub path: &'a Path,
}

/// Declare, run and drain one pipeline. The clock starts before the
/// declaration, so copying the sources into the pipeline is inside it.
pub fn run_with(
    declare: impl FnOnce() -> PipelineBuilder,
    checkpoint: Option<Checkpoint<'_>>,
    tracer: &mut Tracer,
) -> Result<StreamRun> {
    let start = Instant::now();
    let span = tracer.begin("api.run");
    let mut stream = declare().run()?;
    tracer.end(span);
    let mut pairs = Vec::new();
    let mut event_ns = Vec::new();
    let mut report = None;
    let mut snapshot_ms = None;
    loop {
        let span = tracer.begin("api.next");
        let event = stream.next();
        tracer.end(span);
        let Some(event) = event else { break };
        event_ns.push(start.elapsed().as_nanos() as u64);
        match event? {
            MatchEvent::Match(pair) => {
                pairs.push(ids(&pair));
                if let Some(cp) = &checkpoint {
                    if pairs.len() == cp.after_matches {
                        let span = tracer.begin("api.snapshot");
                        let t = Instant::now();
                        stream.snapshot(cp.path)?;
                        snapshot_ms = Some(t.elapsed().as_secs_f64() * 1e3);
                        tracer.end(span);
                    }
                }
            }
            MatchEvent::Finished(r) => report = Some(r),
            _ => {}
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let report =
        report.ok_or_else(|| LinkageError::execution("stream ended without a Finished event"))?;
    tracer.count("api.events", event_ns.len() as u64);
    Ok(StreamRun {
        elapsed_s,
        pairs,
        event_ns,
        report,
        snapshot_ms,
    })
}

pub fn run_stream(dataset: &Dataset, mode: Mode, tracer: &mut Tracer) -> Result<StreamRun> {
    run_with(|| dataset.pipeline(mode), None, tracer)
}

/// `Pipeline::resume(path)` until the resumed stream yields its first
/// event, in milliseconds. The stream is dropped unfinished.
pub fn resume_first_event_ms(dataset: &Dataset, mode: Mode, path: &Path) -> Result<f64> {
    let start = Instant::now();
    let mut stream = dataset.pipeline(mode).resume(path)?;
    let first = stream.next();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match first {
        Some(Ok(_)) => Ok(ms),
        Some(Err(e)) => Err(e),
        None => Err(LinkageError::execution("resumed stream yielded nothing")),
    }
}

/// Resume and drain: the pairs the resumed stream emits.
pub fn resume_tail(dataset: &Dataset, mode: Mode, path: &Path) -> Result<Vec<IdPair>> {
    let mut pairs = Vec::new();
    for event in dataset.pipeline(mode).resume(path)? {
        if let MatchEvent::Match(pair) = event? {
            pairs.push(ids(&pair));
        }
    }
    Ok(pairs)
}

/// Run the engine on a small dataset of the workload's kind and compare
/// its pair set with the quadratic similarity join. `Ok(true)` when they
/// agree.
pub fn oracle_spot_check(dirty: bool, seed: u64, mode: Mode, parents: usize) -> Result<bool> {
    let config = if dirty {
        DatagenConfig::mid_stream_dirty(parents, seed)
    } else {
        DatagenConfig::clean(parents, seed)
    };
    let dataset = Dataset::generate(config)?;
    let run = run_stream(&dataset, mode, &mut Tracer::off())?;
    let oracle = nested_loop_similarity(
        &dataset.data.parents,
        &dataset.data.children,
        KEYS,
        &Default::default(),
        &QGramJaccard::default(),
        defaults::THETA_SIM,
    )?;
    // A run that never switched owes only the equal-key pairs; whether it
    // should have switched is `right_switch_share`'s business.
    let switched = run.switched();
    let mut expected: Vec<IdPair> = oracle
        .iter()
        .filter(|p| switched || p.kind.is_exact())
        .map(ids)
        .collect();
    let mut got = run.pairs;
    expected.sort_unstable();
    got.sort_unstable();
    Ok(expected == got)
}

/// Longest wait between two consecutive returns, the declaration counting
/// as the first, in milliseconds.
pub fn max_stall_ms(event_ns: &[u64]) -> f64 {
    let mut previous = 0;
    let mut longest = 0;
    for &at in event_ns {
        longest = longest.max(at - previous);
        previous = at;
    }
    longest as f64 / 1e6
}

/// Time the consumer waited for each successive block of `block` events,
/// in milliseconds; a short last block is left out.
pub fn block_latencies_ms(event_ns: &[u64], block: usize) -> Vec<f64> {
    let mut previous = 0;
    event_ns
        .chunks_exact(block)
        .map(|chunk| {
            let end = chunk[block - 1];
            let ms = (end - previous) as f64 / 1e6;
            previous = end;
            ms
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalls_and_blocks_are_read_off_the_event_times() {
        let at = [1_000_000, 3_000_000, 4_000_000, 9_000_000, 10_000_000];
        assert_eq!(max_stall_ms(&at), 5.0);
        assert_eq!(block_latencies_ms(&at, 2), vec![3.0, 6.0]);
        assert_eq!(max_stall_ms(&[]), 0.0);
        assert!(block_latencies_ms(&at, 8).is_empty());
    }
}
