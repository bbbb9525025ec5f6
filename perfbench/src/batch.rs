//! The three batch workloads: `batch_dirty`, `batch_clean` and
//! `sharded_dirty` differ only in their data and engine.

use std::path::{Path, PathBuf};

use linkage::datagen::DatagenConfig;
use linkage::types::Result;
use linkage_server::ServerStats;

use crate::api_run::{
    block_latencies_ms, max_stall_ms, resume_first_event_ms, resume_tail, run_stream, run_with,
    Checkpoint, StreamRun,
};
use crate::bench::{Bench, Checks, PassResult, StreamTiming};
use crate::data::{count_correct, set_hash, wrong_switch, Dataset, Mode};
use crate::served::KindLatencies;
use crate::trace::Tracer;

/// Events per latency block: the batch counterpart of a 64-record FEED.
pub const BLOCK: usize = 64;

#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    pub datasets: usize,
    pub parents: usize,
    pub dirty: bool,
    pub mode: Mode,
}

impl BatchSpec {
    /// Dataset `i` of a run uses seed `seed + i`.
    pub fn dataset_config(&self, seed: u64, i: usize) -> DatagenConfig {
        let seed = seed + i as u64;
        if self.dirty {
            // Dirt from 30% on: most of the run is the approximate phase.
            DatagenConfig::mid_stream_dirty(self.parents, seed).with_clean_prefix(0.3)
        } else {
            DatagenConfig::clean(self.parents, seed)
        }
    }
}

pub struct BatchBench {
    pub spec: BatchSpec,
    pub datasets: Vec<Dataset>,
    /// Pair-set hash of each dataset's warm-up run.
    reference: Vec<u64>,
    checkpoint: PathBuf,
}

impl BatchBench {
    /// Generate the datasets and their feed sequences.
    pub fn setup(spec: BatchSpec, seed: u64, tmp: &Path) -> Result<BatchBench> {
        let datasets = (0..spec.datasets)
            .map(|i| Dataset::generate(spec.dataset_config(seed, i)))
            .collect::<Result<Vec<_>>>()?;
        Ok(BatchBench {
            spec,
            datasets,
            reference: Vec::new(),
            checkpoint: tmp.join("checkpoint.snap"),
        })
    }
}

/// Run `dataset` once, cutting a checkpoint at `path` once the stream has
/// yielded three quarters of the dataset's true pairs, and check that a
/// stream resumed from it emits exactly the pairs that followed the cut,
/// in order (resumed ≡ uninterrupted).
pub fn checkpointed_run(
    dataset: &Dataset,
    mode: Mode,
    path: &Path,
    checks: &mut Checks,
) -> Result<StreamRun> {
    let after_matches = (dataset.truth.len() * 3 / 4).max(1);
    let cp = Checkpoint {
        after_matches,
        path,
    };
    let run = run_with(|| dataset.pipeline(mode), Some(cp), &mut Tracer::off())?;
    checks.check(run.snapshot_ms.is_some(), || {
        "the stream ended before its checkpoint".to_string()
    });
    let tail = resume_tail(dataset, mode, path)?;
    let cut = after_matches.min(run.pairs.len());
    checks.check(tail == run.pairs[cut..], || {
        format!(
            "resumed stream differs from the uninterrupted one ({} vs {} pairs)",
            tail.len(),
            run.pairs.len() - cut
        )
    });
    Ok(run)
}

impl Bench for BatchBench {
    fn warm_up(&mut self, checks: &mut Checks) -> Result<()> {
        let mut off = Tracer::off();
        self.reference.clear();
        for (i, dataset) in self.datasets.iter().enumerate() {
            let run = if i == 0 {
                checkpointed_run(dataset, self.spec.mode, &self.checkpoint, checks)?
            } else {
                run_stream(dataset, self.spec.mode, &mut off)?
            };
            self.reference.push(set_hash(&run.pairs));
            if i == 0 && self.spec.mode != Mode::Serial {
                // Sharded ≡ serial as a pair set.
                let serial = run_stream(dataset, Mode::Serial, &mut off)?;
                checks.check(set_hash(&serial.pairs) == self.reference[0], || {
                    "sharded pair set differs from the serial one".to_string()
                });
            }
        }
        Ok(())
    }

    fn pass(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Result<PassResult> {
        let mut pass = PassResult::default();
        for (i, dataset) in self.datasets.iter().enumerate() {
            tracer.set_trace(i as u32);
            let Some(run) = checks.op(run_stream(dataset, self.spec.mode, tracer), "pipeline run")
            else {
                continue;
            };
            checks.check(self.reference.get(i) == Some(&set_hash(&run.pairs)), || {
                format!("dataset {i}: pair set differs from the warm-up pass")
            });
            pass.streams.push(StreamTiming {
                index: i,
                tuples_per_s: Some(run.tuples_per_s()),
                max_stall_ms: max_stall_ms(&run.event_ns),
                roundtrip_ms: block_latencies_ms(&run.event_ns, BLOCK),
            });
            pass.emitted += run.pairs.len() as u64;
            pass.correct += count_correct(&run.pairs, &dataset.truth) as u64;
            pass.truth += dataset.truth.len() as u64;
            if wrong_switch(dataset, run.switched()) {
                pass.wrong_switches += 1;
                if !dataset.is_dirty() {
                    pass.false_switches += 1;
                }
            }
            if let (Some(switch), Some(dirty_at)) = (run.report.switch, dataset.first_dirty_at) {
                pass.detection_delay
                    .push(switch.after_tuples as f64 - dirty_at as f64);
            }
        }
        Ok(pass)
    }

    fn resume_ms(&mut self) -> Result<f64> {
        resume_first_event_ms(&self.datasets[0], self.spec.mode, &self.checkpoint)
    }

    fn pooled_roundtrips(&self) -> bool {
        // Few long streams: a share of them switching falsely would turn a
        // pooled 99th percentile into a count of how many did.
        false
    }

    fn profile(&self) -> &Dataset {
        &self.datasets[0]
    }

    fn mode(&self) -> Mode {
        self.spec.mode
    }

    fn server_stats(&self) -> Option<ServerStats> {
        None
    }

    fn last_kinds(&self) -> Option<&KindLatencies> {
        None
    }
}
