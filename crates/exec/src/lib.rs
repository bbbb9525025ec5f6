//! # linkage-exec
//!
//! The partition-parallel execution layer of the adaptive record-linkage
//! pipeline: scale the paper's single-threaded exact → approximate join
//! across cores without changing what it emits.
//!
//! * [`ParallelJoin`] — a push core that hash-partitions the fed input
//!   across N worker shards (one [`ExactJoinCore`] kernel per
//!   thread, bounded channels), switches **globally** to the
//!   approximate kernel when the aggregated monitor → assessor loop
//!   triggers, and merges emitted match pairs deterministically;
//! * [`ParallelJoinConfig`] — shard count, epoch size, the shared join
//!   parameters and the global controller settings;
//! * [`ShardStats`] — per-shard residency, probe and state-size
//!   statistics.
//!
//! The match-pair **set** produced is identical to the serial operators'
//! for every shard count — equal keys co-locate by stable hash in the
//! exact phase, broadcast probing reaches every resident in the
//! approximate phase, and the distributed handover recovers cross-shard
//! pairs — which the shard-count-invariance suite under `tests/` checks
//! against the nested-loop oracles.
//!
//! [`ExactJoinCore`]: linkage_operators::ExactJoinCore

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod messages;
pub mod parallel;
mod shard;

pub use config::ParallelJoinConfig;
pub use messages::ShardStats;
pub use parallel::ParallelJoin;

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::Arc;

    use linkage_core::{AdaptiveJoin, ControllerConfig, Pulled, SwitchPolicy};
    use linkage_datagen::{generate, DatagenConfig, GeneratedData};
    use linkage_operators::{
        InterleavedScan, JoinPhase, Operator, SwitchJoinConfig, SwitchJoinCore,
    };
    use linkage_types::{Field, Value};
    use linkage_types::{
        LinkageError, MatchPair, PerSide, Record, RecordId, Schema, SidedRecord, VecStream,
    };

    use super::*;

    const KEYS: PerSide<usize> = PerSide {
        left: GeneratedData::KEY_COLUMN,
        right: GeneratedData::KEY_COLUMN,
    };

    /// The alternating parent/child feed.
    fn feed(data: &GeneratedData) -> Vec<SidedRecord> {
        InterleavedScan::alternating(
            VecStream::from_relation(&data.parents),
            VecStream::from_relation(&data.children),
        )
        .run_to_end()
        .unwrap()
    }

    fn parallel(data: &GeneratedData, shards: usize) -> ParallelJoin {
        let config =
            ParallelJoinConfig::new(shards, KEYS, data.parents.len() as u64).with_batch_size(32);
        ParallelJoin::new(config).unwrap()
    }

    /// Feed everything, finish, pop every pair and close.
    fn run(join: &mut ParallelJoin, feed: &[SidedRecord]) -> Vec<MatchPair> {
        join.feed(feed).unwrap();
        join.finish().unwrap();
        let pairs = std::iter::from_fn(|| join.pop_ready())
            .filter_map(|pulled| match pulled {
                Pulled::Match(pair) => Some(pair),
                Pulled::Switched(_) => None,
            })
            .collect();
        join.close().unwrap();
        pairs
    }

    /// The serial join core's pairs over `feed`, switched before the
    /// first tuple or never.
    fn serial_core(feed: &[SidedRecord], switched: bool) -> Vec<MatchPair> {
        let mut join = SwitchJoinCore::new(SwitchJoinConfig::new(KEYS));
        if switched {
            assert_eq!(join.switch_to_approximate().unwrap(), 0);
        }
        for sided in feed {
            join.process(sided.clone()).unwrap();
        }
        std::iter::from_fn(|| join.pop()).collect()
    }

    fn forced(config: ParallelJoinConfig, after: u64) -> ParallelJoinConfig {
        let controller = config.controller.clone();
        config.with_controller(controller.with_policy(SwitchPolicy::ForceAt(after)))
    }

    fn id_set(pairs: &[MatchPair]) -> HashSet<(RecordId, RecordId)> {
        pairs.iter().map(MatchPair::id_pair).collect()
    }

    fn assert_no_duplicates(pairs: &[MatchPair]) {
        let mut seen = HashSet::new();
        for p in pairs {
            assert!(seen.insert(p.id_pair()), "duplicate pair {:?}", p.id_pair());
        }
    }

    #[test]
    fn clean_data_matches_serial_exact_join_for_every_shard_count() {
        let data = generate(&DatagenConfig::clean(120, 21)).unwrap();
        let feed = feed(&data);
        let expected = id_set(&serial_core(&feed, false));
        for shards in [1, 2, 3, 4] {
            let mut join = parallel(&data, shards);
            let pairs = run(&mut join, &feed);
            assert_eq!(join.phase(), JoinPhase::Exact, "{shards} shards switched");
            assert!(join.controller().switch().is_none());
            assert_no_duplicates(&pairs);
            assert_eq!(id_set(&pairs), expected, "{shards} shards");
        }
    }

    #[test]
    fn dirty_tail_triggers_a_global_switch_with_full_recovery() {
        let data = generate(&DatagenConfig::mid_stream_dirty(150, 22)).unwrap();
        // The serial adaptive join is the reference behaviour.
        let feed = feed(&data);
        let mut serial = AdaptiveJoin::new(
            SwitchJoinConfig::new(KEYS),
            ControllerConfig::new(data.parents.len() as u64),
        )
        .unwrap();
        serial.feed(&feed).unwrap();
        let serial_pairs: Vec<MatchPair> = std::iter::from_fn(|| serial.pop_ready())
            .filter_map(|pulled| match pulled {
                Pulled::Match(pair) => Some(pair),
                Pulled::Switched(_) => None,
            })
            .collect();
        assert!(
            serial.controller().switch().is_some(),
            "workload must switch"
        );

        for shards in [1, 2, 4] {
            let mut join = parallel(&data, shards);
            let pairs = run(&mut join, &feed);
            let event = join
                .controller()
                .switch()
                .expect("parallel join must switch too");
            assert!(event.sigma <= 0.01);
            assert!(event.after_tuples > 0);
            assert!(join.controller().switch_latency().is_some());
            assert_eq!(join.phase(), JoinPhase::Approximate);
            assert_no_duplicates(&pairs);
            // Identical match-pair set as the serial adaptive join: the
            // post-switch set is invariant to where the switch landed.
            assert_eq!(id_set(&pairs), id_set(&serial_pairs), "{shards} shards");
        }
    }

    #[test]
    fn forced_switch_matches_pure_ssh_join_set() {
        let data = generate(&DatagenConfig::mid_stream_dirty(100, 23)).unwrap();
        // A switch before the first tuple leaves the pure SSH join.
        let feed = feed(&data);
        let expected = id_set(&serial_core(&feed, true));
        for shards in [1, 3] {
            let config = ParallelJoinConfig::new(shards, KEYS, data.parents.len() as u64)
                .with_batch_size(17); // deliberately not a divisor of anything
            let config = forced(config, 60);
            let mut join = ParallelJoin::new(config).unwrap();
            let pairs = run(&mut join, &feed);
            let event = join.controller().switch().expect("forced switch");
            assert_eq!(event.sigma, 0.0, "forced switches report sigma 0");
            assert_no_duplicates(&pairs);
            assert_eq!(id_set(&pairs), expected, "{shards} shards");
        }
    }

    #[test]
    fn output_is_deterministic_per_shard_count() {
        let data = generate(&DatagenConfig::mid_stream_dirty(80, 24)).unwrap();
        let feed = feed(&data);
        let run = |shards: usize| -> Vec<(RecordId, RecordId)> {
            run(&mut parallel(&data, shards), &feed)
                .iter()
                .map(MatchPair::id_pair)
                .collect()
        };
        assert_eq!(run(3), run(3), "same shard count, same order");
    }

    #[test]
    fn consumed_counts_each_tuple_once_despite_broadcast() {
        let data = generate(&DatagenConfig::mid_stream_dirty(60, 25)).unwrap();
        let config =
            ParallelJoinConfig::new(4, KEYS, data.parents.len() as u64).with_batch_size(32);
        let config = forced(config, 64); // guarantee a post-switch phase
        let mut join = ParallelJoin::new(config).unwrap();
        run(&mut join, &feed(&data));
        assert_eq!(join.consumed().left as usize, data.parents.len());
        assert_eq!(join.consumed().right as usize, data.children.len());

        let shards = join.shard_stats();
        assert_eq!(shards.len(), 4);
        let stored: u64 = shards.iter().map(|s| s.stored_tuples).sum();
        assert_eq!(stored, join.total_consumed(), "every tuple has one home");
        let resident: usize = shards
            .iter()
            .map(|s| s.resident.left + s.resident.right)
            .sum();
        assert_eq!(resident as u64, join.total_consumed());
        assert!(shards.iter().all(|s| s.state_bytes.left > 0));
        // Post-switch, every shard probes every tuple: probes exceed stores.
        assert!(shards.iter().any(|s| s.probes > s.stored_tuples));
    }

    #[test]
    fn emitted_counters_match_output_stream() {
        let data = generate(&DatagenConfig::mid_stream_dirty(70, 26)).unwrap();
        let mut join = parallel(&data, 2);
        let pairs = run(&mut join, &feed(&data));
        assert_eq!(join.emitted().total() as usize, pairs.len());
        let exact = pairs.iter().filter(|p| p.kind.is_exact()).count();
        assert_eq!(join.emitted().exact as usize, exact);
        let per_shard: u64 = join.shard_stats().iter().map(|s| s.emitted.total()).sum();
        assert_eq!(per_shard as usize, pairs.len());
    }

    #[test]
    fn operator_protocol_is_enforced() {
        let data = generate(&DatagenConfig::clean(10, 27)).unwrap();
        let feed = feed(&data);
        let mut join = parallel(&data, 2);
        join.feed(&feed[..3]).unwrap();
        join.finish().unwrap();
        assert!(join.finish().is_ok(), "finish is idempotent");
        assert!(matches!(
            join.feed(&feed[3..]),
            Err(LinkageError::OperatorState(ref m)) if m.contains("after finish")
        ));
        join.close().unwrap();
        assert!(join.close().is_ok(), "close is idempotent");
        assert!(matches!(
            join.finish(),
            Err(LinkageError::OperatorState(ref m)) if m.contains("after close")
        ));
    }

    #[test]
    fn non_string_key_column_errors_and_close_still_works() {
        let schema = Schema::of(vec![Field::integer("id")]);
        let records = vec![Record::new(0u64, vec![Value::Int(5)])];
        let left = VecStream::new(schema.clone(), records.clone());
        let right = VecStream::new(schema, records);
        let feed = InterleavedScan::alternating(left, right)
            .run_to_end()
            .unwrap();
        let config = ParallelJoinConfig::new(2, PerSide::new(0, 0), 1).with_batch_size(1);
        let mut join = ParallelJoin::new(config).unwrap();
        assert!(join.feed(&feed).is_err());
        assert!(join.pop_ready().is_none(), "nothing was emitted");
        join.close().unwrap();
    }

    #[test]
    fn dropping_an_open_join_shuts_workers_down() {
        let data = generate(&DatagenConfig::clean(40, 28)).unwrap();
        let mut join = parallel(&data, 3);
        join.feed(&feed(&data)[..40]).unwrap();
        drop(join); // must not hang or leak threads
    }

    #[test]
    fn report_before_close_has_no_shard_stats() {
        let data = generate(&DatagenConfig::clean(20, 29)).unwrap();
        let mut join = parallel(&data, 2);
        join.feed(&feed(&data)).unwrap();
        join.finish().unwrap();
        assert!(join.pop_ready().is_some());
        assert!(join.shard_stats().is_empty());
        join.close().unwrap();
        assert_eq!(join.shard_stats().len(), 2);
    }

    #[test]
    fn prepared_batches_are_shared_not_copied() {
        // One prepared batch is broadcast behind an Arc: cloning the
        // handle (what each channel send does) shares the allocation.
        let rec = SidedRecord::new(
            linkage_types::Side::Left,
            Record::new(1u64, vec![Value::string("LOC ABC DEF")]),
        );
        let mut interner = linkage_text::GramInterner::new();
        let grams = linkage_text::QGramSet::extract(
            "LOC ABC DEF",
            &linkage_text::QGramConfig::default(),
            &mut interner,
        );
        let key: Arc<str> = Arc::from("loc abc def");
        let mut batch = crate::messages::PreparedBatch::with_capacity(1);
        assert!(batch.is_empty());
        batch.push(rec, Arc::clone(&key), grams, linkage_types::ShardId(0));
        assert_eq!(batch.len(), 1);

        // Broadcast to 4 "shards" exactly as the coordinator does: one
        // ShardCmd per shard, each holding an Arc clone of the same
        // batch.  The batch allocation is shared (strong count tracks
        // the handles) and the tuple payload inside was never deep-
        // copied: the key text still has exactly the two holders it had
        // before the broadcast (ours and the batch's).
        let shared = Arc::new(batch);
        let cmds: Vec<crate::messages::ShardCmd> = (0..4)
            .map(|_| crate::messages::ShardCmd::ApproxBatch(Arc::clone(&shared)))
            .collect();
        assert_eq!(Arc::strong_count(&shared), 1 + cmds.len());
        assert_eq!(
            Arc::strong_count(&key),
            2,
            "broadcast must not deep-copy batch contents"
        );
        for cmd in &cmds {
            let crate::messages::ShardCmd::ApproxBatch(b) = cmd else {
                panic!("expected an ApproxBatch");
            };
            assert!(Arc::ptr_eq(b, &shared));
            assert_eq!(b.homes[0], linkage_types::ShardId(0));
        }
    }
}
