//! Shard-count scaling demo of the parallel adaptive pipeline.
//!
//! Runs the same mid-stream-dirt workload through the `linkage::api`
//! builder at 1, 2 and 4 shards and prints throughput, the global switch
//! point and the per-shard resident-state total.  On a multi-core
//! machine the post-switch (approximate) phase dominates and scales with
//! the shard count; on a single core the run demonstrates result
//! invariance only.
//!
//! Run with: `cargo run --release --example parallel_scaling`

use std::collections::HashSet;
use std::time::Instant;

use linkage::api::Pipeline;
use linkage::datagen::{generate, DatagenConfig, GeneratedData};
use linkage::types::RecordId;

fn main() {
    let data = generate(&DatagenConfig::mid_stream_dirty(2000, 42)).expect("datagen failed");
    println!(
        "dataset: {} parents, {} children ({} dirty keys); cores available: {}\n",
        data.parents.len(),
        data.children.len(),
        data.dirty_children,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!(
        "{:>6} {:>10} {:>12} {:>8} {:>9} {:>14}",
        "shards", "pairs", "tuples/s", "switch", "recov.", "state bytes"
    );

    let mut reference: Option<HashSet<(RecordId, RecordId)>> = None;
    for shards in [1, 2, 4] {
        // Build first: the timer measures the join, not source cloning or
        // worker spawning.
        let pipeline = Pipeline::builder()
            .left(&data.parents)
            .right(&data.children)
            .key_column(GeneratedData::KEY_COLUMN)
            .sharded(shards)
            .batch_size(256)
            .build()
            .expect("invalid pipeline");
        let start = Instant::now();
        let outcome = pipeline.collect().expect("parallel pipeline failed");
        let elapsed = start.elapsed();
        let report = &outcome.report;

        let ids: HashSet<(RecordId, RecordId)> =
            outcome.matches.iter().map(|p| p.id_pair()).collect();
        match &reference {
            None => reference = Some(ids),
            Some(expected) => assert_eq!(
                expected, &ids,
                "shard count must not change the match-pair set"
            ),
        }

        println!(
            "{:>6} {:>10} {:>12.0} {:>8} {:>9} {:>14}",
            shards,
            outcome.matches.len(),
            report.total_consumed() as f64 / elapsed.as_secs_f64(),
            report
                .switch
                .map(|e| e.after_tuples.to_string())
                .unwrap_or_else(|| "-".into()),
            report.switch.map(|e| e.recovered).unwrap_or(0),
            report.state_bytes()
        );
    }
    println!("\nidentical match-pair set at every shard count ✓");
}
