//! # linkage-tests
//!
//! Cross-crate integration tests for the adaptive linkage pipeline.  The
//! unit tests inside each crate cover their own layer; the suites here
//! exercise the full stack — generated workloads, pipelined operators,
//! the adaptive controller — against the quadratic oracle joins and the
//! generated ground truth.  The one reference for the join's *stream* is
//! `oracle::stream_similarity`, an arrival-order nested loop; the
//! set oracle `oracle::nested_loop_similarity` checks what it cannot
//! order:
//!
//! * `exact_equivalence` — the pipelined exact join (`SwitchJoin` left
//!   unswitched) emits the stream oracle's exact-only stream pair by pair,
//!   on clean, duplicate-key and dirty workloads;
//! * `adaptive_recovery` — on a mid-stream-dirt workload the controller
//!   switches the join mid-stream, strictly increases the number of
//!   correct matches over exact-only, and never emits a duplicate pair;
//! * `parallel_equivalence` — the sharded executor emits the identical
//!   match-pair set as the nested-loop oracles for every shard count,
//!   including across a mid-stream exact → approximate switch
//!   (property-based over workload, shard count, epoch size and switch
//!   point);
//! * `api_parity` — a `linkage::api` builder declaration produces the
//!   same match-pair set and equivalent `RunReport` counters whether it
//!   executes `.serial()` or `.sharded(n)` (property-based), every
//!   pluggable similarity coefficient agrees with its nested-loop oracle,
//!   and the serial engine emits the stream oracle's stream pair by pair
//!   wherever the switch is forced;
//! * `probe_kernel_equivalence` — the prefix-filtered probe kernel
//!   (dense ids, flat postings, rare-first prefix candidate generation,
//!   length filter, merge-based verification) emits the stream oracle's
//!   stream **bit-identically** — ids, kinds and similarity bits — through
//!   serial `process` and through `probe_batch_into` at every batch size,
//!   on randomized workloads, for all four `QGramCoefficient`s, across the
//!   §3.3 mid-stream switch/handover and across a mid-stream coefficient
//!   change, and the match-pair set of the quadratic set oracle;
//! * `protocol` — the operator lifecycle is enforced across the stack;
//! * `snapshot_resume` — a pipeline snapshotted at **any** event position
//!   and resumed in a fresh process-equivalent pipeline emits the
//!   bit-identical remaining event stream (both engines, every
//!   coefficient, before/at/after the §3.3 switch, property-based over
//!   workload, sharding, epoching and cut position); every truncation and
//!   every single-byte corruption of a snapshot file is rejected with a
//!   typed error, never a panic, and `docs/format.md`'s version constant
//!   is checked against the code;
//! * `server_service` — the `linkage-server` session service: the
//!   eviction/rehydration round trip is bit-identical across the §3.3
//!   switch boundary (cut × poll-depth sweep around a forced switch),
//!   K interleaved sessions over a live server match K solo in-process
//!   runs under budget-forced eviction (property-based), and
//!   `docs/server.md`'s constants and kind/code tables are checked
//!   against the code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod common {
    use linkage_core::{AdaptiveJoin, Pulled};
    use linkage_datagen::GeneratedData;
    use linkage_exec::ParallelJoin;
    use linkage_operators::{oracle, InterleavedScan, Operator, SwitchJoinCore};
    use linkage_text::{QGramCoefficient, QGramConfig};
    use linkage_types::{MatchPair, PerSide, RecordId, SidedRecord, VecStream};
    use std::collections::HashSet;

    pub const KEYS: PerSide<usize> = PerSide {
        left: GeneratedData::KEY_COLUMN,
        right: GeneratedData::KEY_COLUMN,
    };

    /// The paper's similarity threshold, which every suite joins at.
    pub const THETA: f64 = 0.8;

    pub fn scan(data: &GeneratedData) -> InterleavedScan<VecStream, VecStream> {
        InterleavedScan::alternating(
            VecStream::from_relation(&data.parents),
            VecStream::from_relation(&data.children),
        )
    }

    /// The interleaved tuple feed, in the order the engines consume it.
    pub fn feed(data: &GeneratedData) -> Vec<SidedRecord> {
        scan(data).run_to_end().expect("scan failed")
    }

    /// Feed `tuples` to the join core, then pop every queued pair.
    pub fn run_core(join: &mut SwitchJoinCore, tuples: &[SidedRecord]) -> Vec<MatchPair> {
        for sided in tuples {
            join.process(sided.clone()).expect("process failed");
        }
        std::iter::from_fn(|| join.pop()).collect()
    }

    /// The pairs among popped events.
    fn pairs_of(pulled: impl Iterator<Item = Pulled>) -> Vec<MatchPair> {
        pulled
            .filter_map(|p| match p {
                Pulled::Match(pair) => Some(pair),
                Pulled::Switched(_) => None,
            })
            .collect()
    }

    /// Feed `tuples` to the serial engine, then pop every pair.
    pub fn run_adaptive(join: &mut AdaptiveJoin, tuples: &[SidedRecord]) -> Vec<MatchPair> {
        join.feed(tuples).expect("feed failed");
        pairs_of(std::iter::from_fn(|| join.pop_ready()))
    }

    /// Feed `tuples` to the sharded engine, finish, pop every pair and
    /// close it.
    pub fn run_parallel(join: &mut ParallelJoin, tuples: &[SidedRecord]) -> Vec<MatchPair> {
        join.feed(tuples).expect("feed failed");
        join.finish().expect("finish failed");
        let pairs = pairs_of(std::iter::from_fn(|| join.pop_ready()));
        join.close().expect("close failed");
        pairs
    }

    /// The stream oracle over `feed` at [`THETA`] under the default
    /// q-gram configuration (see `oracle::stream_similarity`).
    pub fn stream_oracle(
        feed: &[SidedRecord],
        switch_at: Option<usize>,
        coefficient_at: impl Fn(usize) -> QGramCoefficient,
    ) -> Vec<MatchPair> {
        let config = QGramConfig::default();
        oracle::stream_similarity(feed, KEYS, &config, THETA, switch_at, coefficient_at)
            .expect("stream oracle failed")
    }

    /// The view pair-by-pair comparisons use: the pair's ids and, for an
    /// approximate pair, the bits of its similarity.
    pub fn view(pairs: &[MatchPair]) -> Vec<((RecordId, RecordId), Option<u64>)> {
        pairs
            .iter()
            .map(|p| {
                let bits = p
                    .kind
                    .is_approximate()
                    .then(|| p.kind.similarity().to_bits());
                (p.id_pair(), bits)
            })
            .collect()
    }

    pub fn id_set(pairs: &[MatchPair]) -> HashSet<(RecordId, RecordId)> {
        pairs.iter().map(MatchPair::id_pair).collect()
    }

    /// Assert the stream contains no duplicate `(left, right)` pair.
    pub fn assert_no_duplicates(pairs: &[MatchPair]) {
        let mut seen = HashSet::new();
        for p in pairs {
            assert!(
                seen.insert(p.id_pair()),
                "duplicate pair {:?} in output stream",
                p.id_pair()
            );
        }
    }
}

#[cfg(test)]
mod exact_equivalence {
    use super::common::*;
    use linkage_datagen::{generate, DatagenConfig};
    use linkage_operators::{JoinPhase, SwitchJoinConfig, SwitchJoinCore};
    use linkage_text::QGramCoefficient;

    fn assert_matches_oracle(config: &DatagenConfig) {
        let data = generate(config).expect("datagen failed");
        let mut join = SwitchJoinCore::new(SwitchJoinConfig::new(KEYS));
        let pairs = run_core(&mut join, &feed(&data));
        assert_eq!(join.phase(), JoinPhase::Exact);
        let expected = stream_oracle(&feed(&data), None, |_| QGramCoefficient::Jaccard);
        assert_eq!(
            view(&pairs),
            view(&expected),
            "pipelined join disagrees with the exact-only stream oracle"
        );
        assert_no_duplicates(&pairs);
    }

    #[test]
    fn clean_workload() {
        assert_matches_oracle(&DatagenConfig::clean(150, 1));
    }

    #[test]
    fn duplicate_key_workload() {
        assert_matches_oracle(&DatagenConfig::clean(60, 2).with_children_per_parent(3));
    }

    #[test]
    fn dirty_workload() {
        // Both the pipelined join and the oracle miss dirty keys equally.
        assert_matches_oracle(&DatagenConfig::mid_stream_dirty(150, 3));
    }
}

#[cfg(test)]
mod adaptive_recovery {
    use super::common::*;
    use linkage_core::{AdaptiveJoin, ControllerConfig};
    use linkage_datagen::{generate, DatagenConfig};
    use linkage_operators::{oracle, JoinPhase, SwitchJoinConfig, SwitchJoinCore};
    use linkage_text::QGramJaccard;
    use linkage_types::RecordId;
    use std::collections::HashSet;

    #[test]
    fn controller_switches_mid_stream_and_recovers_matches() {
        let config = DatagenConfig::mid_stream_dirty(250, 7);
        let data = generate(&config).expect("datagen failed");
        let truth: HashSet<(RecordId, RecordId)> = data.truth.iter().copied().collect();

        let tuples = feed(&data);

        // Baseline: exact-only (a switch join nobody switches).
        let mut exact_join = SwitchJoinCore::new(SwitchJoinConfig::new(KEYS));
        let exact_pairs = run_core(&mut exact_join, &tuples);
        let exact_correct = id_set(&exact_pairs).intersection(&truth).count();

        // Adaptive: the join driven by the monitor/assessor/actuator loop.
        let mut adaptive = AdaptiveJoin::new(
            SwitchJoinConfig::new(KEYS).with_theta(THETA),
            ControllerConfig::new(data.parents.len() as u64),
        )
        .expect("adaptive join failed");
        let adaptive_pairs = run_adaptive(&mut adaptive, &tuples);

        // The switch really happened mid-stream.
        let event = adaptive
            .controller()
            .switch()
            .expect("controller never switched");
        let total_input = (data.parents.len() + data.children.len()) as u64;
        assert!(event.after_tuples > 0 && event.after_tuples < total_input);
        assert_eq!(adaptive.phase(), JoinPhase::Approximate);

        // Strictly more *correct* matches than exact-only.
        let adaptive_correct = id_set(&adaptive_pairs).intersection(&truth).count();
        assert!(
            adaptive_correct > exact_correct,
            "adaptive {adaptive_correct} vs exact {exact_correct}"
        );

        // Everything the exact join found is still in the adaptive output.
        assert!(id_set(&adaptive_pairs).is_superset(&id_set(&exact_pairs)));

        // No duplicates, in particular none of the pairs the exact phase
        // already emitted reappear after the switch.
        assert_no_duplicates(&adaptive_pairs);

        // Soundness: every emitted pair passes the similarity oracle.
        let allowed = id_set(
            &oracle::nested_loop_similarity(
                &data.parents,
                &data.children,
                KEYS,
                &Default::default(),
                &QGramJaccard::default(),
                THETA,
            )
            .expect("oracle failed"),
        );
        assert!(id_set(&adaptive_pairs).is_subset(&allowed));
    }

    #[test]
    fn clean_workload_never_switches() {
        let data = generate(&DatagenConfig::clean(200, 9)).expect("datagen failed");
        let mut adaptive = AdaptiveJoin::new(
            SwitchJoinConfig::new(KEYS),
            ControllerConfig::new(data.parents.len() as u64),
        )
        .expect("adaptive join failed");
        let pairs = run_adaptive(&mut adaptive, &feed(&data));
        assert!(adaptive.controller().switch().is_none());
        assert_eq!(adaptive.phase(), JoinPhase::Exact);
        assert_eq!(pairs.len(), data.truth.len());
    }

    #[test]
    fn manual_switch_is_equivalent_to_controller_switch_result_set() {
        // Driving the join core by hand at the same point the controller
        // chose yields the same distinct result set.
        let data = generate(&DatagenConfig::mid_stream_dirty(120, 11)).expect("datagen failed");
        let tuples = feed(&data);

        let mut adaptive = AdaptiveJoin::new(
            SwitchJoinConfig::new(KEYS),
            ControllerConfig::new(data.parents.len() as u64),
        )
        .expect("adaptive failed");
        let controller_pairs = run_adaptive(&mut adaptive, &tuples);
        let switch_at = adaptive
            .controller()
            .switch()
            .expect("no switch")
            .after_tuples as usize;

        let mut manual = SwitchJoinCore::new(SwitchJoinConfig::new(KEYS));
        let mut manual_pairs = run_core(&mut manual, &tuples[..switch_at]);
        manual.switch_to_approximate().expect("switch failed");
        manual_pairs.extend(run_core(&mut manual, &tuples[switch_at..]));

        assert_eq!(id_set(&manual_pairs), id_set(&controller_pairs));
        assert_no_duplicates(&manual_pairs);
    }
}

#[cfg(test)]
mod parallel_equivalence {
    use super::common::*;
    use linkage_core::SwitchPolicy;
    use linkage_datagen::{generate, DatagenConfig, GeneratedData};
    use linkage_exec::{ParallelJoin, ParallelJoinConfig};
    use linkage_operators::oracle;
    use linkage_text::{QGramCoefficient, QGramJaccard};
    use linkage_types::{MatchPair, RecordId};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Run the sharded executor, optionally forcing the global switch.
    fn parallel_pairs(
        data: &GeneratedData,
        shards: usize,
        batch: usize,
        force_switch_after: Option<u64>,
    ) -> Vec<MatchPair> {
        let mut config =
            ParallelJoinConfig::new(shards, KEYS, data.parents.len() as u64).with_batch_size(batch);
        if let Some(after) = force_switch_after {
            let controller = config.controller.clone();
            config = config.with_controller(controller.with_policy(SwitchPolicy::ForceAt(after)));
        }
        let mut join = ParallelJoin::new(config).expect("parallel join failed");
        let pairs = run_parallel(&mut join, &feed(data));
        if force_switch_after.is_some() {
            assert!(
                join.controller().switch().is_some(),
                "forced switch must fire"
            );
        }
        pairs
    }

    fn exact_oracle(data: &GeneratedData) -> HashSet<(RecordId, RecordId)> {
        id_set(&stream_oracle(&feed(data), None, |_| {
            QGramCoefficient::Jaccard
        }))
    }

    fn similarity_oracle(data: &GeneratedData) -> HashSet<(RecordId, RecordId)> {
        id_set(
            &oracle::nested_loop_similarity(
                &data.parents,
                &data.children,
                KEYS,
                &Default::default(),
                &QGramJaccard::default(),
                THETA,
            )
            .expect("oracle failed"),
        )
    }

    #[test]
    fn clean_workload_matches_exact_oracle_for_every_shard_count() {
        let data = generate(&DatagenConfig::clean(90, 31)).expect("datagen failed");
        let expected = exact_oracle(&data);
        for shards in 1..=4 {
            let pairs = parallel_pairs(&data, shards, 32, None);
            assert_no_duplicates(&pairs);
            assert_eq!(id_set(&pairs), expected, "{shards} shards");
        }
    }

    #[test]
    fn switched_workload_matches_similarity_oracle_for_every_shard_count() {
        // Once a switch happens — wherever it lands — the final match set
        // is the full similarity-oracle set: pre-switch resident pairs are
        // recovered by the (cross-shard) handover, later pairs are found
        // by broadcast probing.
        let data = generate(&DatagenConfig::mid_stream_dirty(90, 32)).expect("datagen failed");
        let expected = similarity_oracle(&data);
        for shards in 1..=4 {
            let pairs = parallel_pairs(&data, shards, 32, Some(50));
            assert_no_duplicates(&pairs);
            assert_eq!(id_set(&pairs), expected, "{shards} shards");
        }
    }

    proptest! {
        #[test]
        fn shard_count_never_changes_the_match_set(
            parents in 24usize..64,
            seed in 0u64..10_000,
            shards in 2usize..5,
            batch in 8usize..40,
            switch_percent in 0u64..100,
        ) {
            let data = generate(&DatagenConfig::mid_stream_dirty(parents, seed))
                .expect("datagen failed");
            let total = (data.parents.len() + data.children.len()) as u64;
            // A mid-stream switch point anywhere in the stream; the first
            // epoch boundary at or after it performs the global handover.
            let force = 1 + switch_percent * (total - 1) / 100;

            let expected = similarity_oracle(&data);
            let sharded = parallel_pairs(&data, shards, batch, Some(force));
            assert_no_duplicates(&sharded);
            prop_assert_eq!(&id_set(&sharded), &expected);

            // And 1 shard agrees, so N-shard ≡ 1-shard ≡ oracle.
            let single = parallel_pairs(&data, 1, batch, Some(force));
            prop_assert_eq!(&id_set(&single), &expected);
        }

        #[test]
        fn unswitched_exact_phase_is_partition_invariant(
            parents in 24usize..64,
            seed in 0u64..10_000,
            shards in 2usize..5,
            batch in 8usize..40,
        ) {
            let data = generate(&DatagenConfig::clean(parents, seed)).expect("datagen failed");
            let pairs = parallel_pairs(&data, shards, batch, None);
            assert_no_duplicates(&pairs);
            prop_assert_eq!(&id_set(&pairs), &exact_oracle(&data));
        }
    }
}

#[cfg(test)]
mod api_parity {
    use super::common::*;
    use linkage::api::{MatchEvent, Pipeline, PipelineBuilder, QGramCoefficient, RunOutcome};
    use linkage_datagen::{generate, DatagenConfig, GeneratedData};
    use linkage_operators::{oracle, ProbeFunnel};
    use proptest::prelude::*;

    fn declare(data: &GeneratedData) -> PipelineBuilder {
        Pipeline::builder()
            .left(&data.parents)
            .right(&data.children)
            .key_column(GeneratedData::KEY_COLUMN)
    }

    /// The two engines must agree on the match-pair set and on the
    /// counters of the unified report.
    fn assert_equivalent(serial: &RunOutcome, sharded: &RunOutcome) {
        assert_no_duplicates(&serial.matches);
        assert_no_duplicates(&sharded.matches);
        assert_eq!(id_set(&serial.matches), id_set(&sharded.matches));
        assert_eq!(serial.report.engine, "serial");
        assert_eq!(sharded.report.engine, "sharded");
        assert_eq!(serial.report.consumed, sharded.report.consumed);
        assert_eq!(serial.report.emitted, sharded.report.emitted);
        assert_eq!(serial.report.phase, sharded.report.phase);
        assert_eq!(
            serial.report.switch.is_some(),
            sharded.report.switch.is_some()
        );
    }

    #[test]
    fn adaptive_serial_and_sharded_pipelines_agree() {
        let data = generate(&DatagenConfig::mid_stream_dirty(150, 41)).expect("datagen failed");
        let serial = declare(&data).serial().collect().expect("serial failed");
        assert!(serial.report.switch.is_some(), "workload must switch");
        for shards in [1, 2, 4] {
            let sharded = declare(&data)
                .sharded(shards)
                .collect()
                .expect("sharded failed");
            assert_eq!(sharded.report.shards, shards);
            assert_eq!(sharded.report.shard_stats.len(), shards);
            assert_equivalent(&serial, &sharded);
        }
    }

    /// A switched sharded run's report folds the shards' candidate
    /// funnels and posting slack together and counts the one shared gram
    /// table once, so its size does not grow with the shard count.
    #[test]
    fn sharded_report_sums_funnel_and_slack_and_counts_the_interner_once() {
        let data = generate(&DatagenConfig::mid_stream_dirty(80, 7).with_clean_prefix(0.3))
            .expect("datagen failed");
        let reports: Vec<_> = [1, 2]
            .into_iter()
            .map(|shards| {
                declare(&data)
                    .sharded(shards)
                    .batch_size(32)
                    .collect()
                    .expect("sharded failed")
                    .report
            })
            .collect();
        for report in &reports {
            assert!(report.switch.is_some(), "workload must switch");
            let funnel = report.probe_funnel();
            assert!(funnel.candidates_scanned > 0, "funnel populated");
            assert!(funnel.candidates_verified > 0);
            assert!(report.postings_slack_bytes() > 0, "empty slots accounted");
            assert!(report.interner_bytes() > 0, "switched run interns grams");
        }
        assert_eq!(reports[0].interner_bytes(), reports[1].interner_bytes());
    }

    /// The serial report carries its approximate kernel's funnel: zero
    /// while the join stays exact, non-zero once it has switched, and on
    /// a run that is approximate from the first tuple (no handover) equal
    /// to the summed funnel of the same run on two shards.
    #[test]
    fn serial_report_carries_the_funnel_of_its_approximate_kernel() {
        let data = generate(&DatagenConfig::mid_stream_dirty(80, 7).with_clean_prefix(0.3))
            .expect("datagen failed");
        let report = |builder: PipelineBuilder| builder.collect().expect("run failed").report;

        let exact = report(declare(&data).never_switch().serial());
        assert_eq!(exact.probe_funnel(), ProbeFunnel::default());

        let adaptive = report(declare(&data).serial());
        assert!(adaptive.switch.is_some(), "workload must switch");
        let funnel = adaptive.probe_funnel();
        assert!(funnel.candidates_scanned > 0, "funnel populated");
        assert!(funnel.candidates_verified > 0);

        let serial = report(declare(&data).approximate_from_start().serial());
        let sharded = report(
            declare(&data)
                .approximate_from_start()
                .sharded(2)
                .batch_size(32),
        );
        assert_eq!(serial.probe_funnel(), sharded.probe_funnel());
    }

    #[test]
    fn event_stream_orders_switch_before_recovered_matches_and_finishes() {
        let data = generate(&DatagenConfig::mid_stream_dirty(120, 43)).expect("datagen failed");
        for (engine, stream) in [
            ("serial", declare(&data).serial().run().expect("run failed")),
            (
                "sharded",
                // A small epoch so the triggering epoch buffers exact
                // pairs alongside the recovered ones.
                declare(&data)
                    .sharded(3)
                    .batch_size(16)
                    .run()
                    .expect("run failed"),
            ),
        ] {
            let mut switched_at: Option<usize> = None;
            let mut recovered = 0u64;
            let mut first_after_switch_checked = false;
            let mut matches = 0usize;
            let mut finished = false;
            for (i, event) in stream.enumerate() {
                assert!(!finished, "{engine}: no events after Finished");
                match event.expect("event failed") {
                    MatchEvent::Match(pair) => {
                        // Both exact phases emit only exact-kind pairs:
                        // an approximate match before `Switched` would be
                        // a recovered pair leaking ahead of its
                        // notification.
                        if switched_at.is_none() {
                            assert!(
                                pair.kind.is_exact(),
                                "{engine}: approximate match at event {i} \
                                 precedes Switched"
                            );
                        } else if !first_after_switch_checked {
                            // …and the recovered pairs (all approximate on
                            // this workload) come right after `Switched`:
                            // an exact-kind pair here would be a displaced
                            // pre-switch pair.
                            first_after_switch_checked = true;
                            if recovered > 0 {
                                assert!(
                                    pair.kind.is_approximate(),
                                    "{engine}: pre-switch pair at event {i} \
                                     follows Switched"
                                );
                            }
                        }
                        matches += 1;
                    }
                    MatchEvent::Switched(event) => {
                        assert!(switched_at.is_none(), "{engine}: at most one switch");
                        assert!(event.after_tuples > 0);
                        recovered = event.recovered;
                        switched_at = Some(i);
                    }
                    MatchEvent::Finished(report) => {
                        assert_eq!(report.emitted.total() as usize, matches);
                        finished = true;
                    }
                    _ => {}
                }
            }
            assert!(finished, "{engine}: stream must end with Finished");
            assert!(
                switched_at.is_some(),
                "{engine}: dirty workload must switch"
            );
            assert!(
                recovered > 0,
                "{engine}: this workload must recover matches"
            );
        }
    }

    #[test]
    fn mixing_datagen_with_explicit_sources_is_a_config_error() {
        let data = generate(&DatagenConfig::clean(20, 45)).expect("datagen failed");
        let err = Pipeline::builder()
            .datagen(DatagenConfig::clean(20, 45))
            .left(&data.parents)
            .right(&data.children)
            .key_column(GeneratedData::KEY_COLUMN)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, linkage_types::LinkageError::Config(ref m) if m.contains("datagen")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn every_similarity_coefficient_matches_its_oracle_on_both_engines() {
        // One dirty workload, each pluggable coefficient: the kernel
        // (with its per-coefficient pruning bound) must agree with the
        // quadratic oracle using the corresponding StringSimilarity, on
        // the serial and the sharded engine alike.
        let data = generate(&DatagenConfig::mid_stream_dirty(60, 44)).expect("datagen failed");
        for coefficient in QGramCoefficient::ALL {
            let sim = coefficient.with_config(Default::default());
            let expected = id_set(
                &oracle::nested_loop_similarity(
                    &data.parents,
                    &data.children,
                    KEYS,
                    &Default::default(),
                    sim.as_ref(),
                    0.8,
                )
                .expect("oracle failed"),
            );
            for builder in [
                declare(&data).approximate_from_start().serial(),
                declare(&data).approximate_from_start().sharded(3),
            ] {
                let outcome = builder
                    .similarity(coefficient)
                    .collect()
                    .expect("pipeline failed");
                assert_no_duplicates(&outcome.matches);
                assert_eq!(
                    id_set(&outcome.matches),
                    expected,
                    "{} disagrees with its oracle",
                    coefficient.name()
                );
            }
        }
    }

    /// The serial engine's match stream, checked against an independent
    /// reference rather than against itself or the sharded set: pair by
    /// pair, kinds and similarity bits included, the stream oracle's,
    /// wherever the switch is forced, for every coefficient, and without
    /// a switch.
    #[test]
    fn serial_engine_emits_the_stream_oracle_pair_by_pair() {
        let data = generate(&DatagenConfig::mid_stream_dirty(60, 46)).expect("datagen failed");
        let tuples = feed(&data);
        let n = tuples.len();
        let matches = |builder: PipelineBuilder| {
            let outcome = builder.serial().collect().expect("serial failed");
            outcome.matches
        };

        let exact = matches(declare(&data).never_switch());
        assert_eq!(
            view(&exact),
            view(&stream_oracle(&tuples, None, |_| QGramCoefficient::Jaccard)),
            "never_switch"
        );
        for coefficient in QGramCoefficient::ALL {
            for k in [0, 1, n / 3, n / 2, n] {
                let builder = declare(&data)
                    .similarity(coefficient)
                    .force_switch_at(k as u64);
                assert_eq!(
                    view(&matches(builder)),
                    view(&stream_oracle(&tuples, Some(k), |_| coefficient)),
                    "{} switched at {k} of {n}",
                    coefficient.name()
                );
            }
        }
    }

    proptest! {
        #[test]
        fn serial_and_sharded_builder_runs_are_equivalent(
            parents in 24usize..56,
            seed in 0u64..10_000,
            shards in 2usize..5,
            batch in 8usize..40,
            switch_percent in 0u64..100,
        ) {
            let data = generate(&DatagenConfig::mid_stream_dirty(parents, seed))
                .expect("datagen failed");
            let total = (data.parents.len() + data.children.len()) as u64;
            // Pin the switch to a fixed stream position so both engines
            // flip at a comparable point (the sharded engine rounds up to
            // its next epoch boundary; the match-pair set and the kind
            // split are invariant to that rounding).
            let force = 1 + switch_percent * (total - 1) / 100;

            let serial = declare(&data)
                .force_switch_at(force)
                .serial()
                .collect()
                .expect("serial failed");
            let sharded = declare(&data)
                .force_switch_at(force)
                .sharded(shards)
                .batch_size(batch)
                .collect()
                .expect("sharded failed");
            assert_equivalent(&serial, &sharded);
            prop_assert!(serial.report.switch.is_some());
        }
    }
}

#[cfg(test)]
mod probe_kernel_equivalence {
    use super::common::*;
    use linkage_datagen::{generate, DatagenConfig, GeneratedData};
    use linkage_operators::{oracle, ExactJoinCore, PreparedBatch, SshJoinCore};
    use linkage_text::{NormalizeConfig, QGramCoefficient, QGramConfig};
    use linkage_types::{MatchPair, PerSide, RecordId, ShardId, Side, SidedRecord};
    use proptest::prelude::*;
    use std::collections::{HashSet, VecDeque};

    /// The kernels' stream up to the switch: the exact core over
    /// `tuples[..at]`, then the §3.3 handover into a fresh SSH core
    /// scoring with `coefficient` (at 0, an empty handover: the pure SSH
    /// join).  Returns that core, the pairs so far and how many of them
    /// the exact core emitted; the handover's recovered count must be
    /// the pairs it pushed.
    fn handover(
        tuples: &[SidedRecord],
        at: usize,
        coefficient: QGramCoefficient,
    ) -> (SshJoinCore, VecDeque<MatchPair>, usize) {
        let mut out = VecDeque::new();
        let mut exact = ExactJoinCore::new(KEYS, NormalizeConfig::default());
        for sided in &tuples[..at] {
            exact.process(sided.clone(), &mut out).unwrap();
        }
        let exact_pairs = out.len();
        let (core, recovered) = SshJoinCore::new(KEYS, QGramConfig::default(), THETA)
            .with_coefficient(coefficient)
            .with_exact_state(exact.into_tables(), &mut out);
        assert_eq!(
            recovered as usize,
            out.len() - exact_pairs,
            "recovered count at a switch after {at} tuples"
        );
        (core, out, exact_pairs)
    }

    /// The finished stream, once the SSH core's counters agree with it:
    /// the core emitted every pair after the exact core's `exact_pairs`,
    /// split by kind, and indexed every tuple of the feed.  The callers
    /// hold the stream to the oracle, so this holds the counters to it.
    fn checked(
        core: &SshJoinCore,
        out: VecDeque<MatchPair>,
        exact_pairs: usize,
        tuples: &[SidedRecord],
    ) -> Vec<MatchPair> {
        let emitted = out.len() - exact_pairs;
        let exact = out
            .iter()
            .skip(exact_pairs)
            .filter(|p| p.kind.is_exact())
            .count();
        assert_eq!(
            (core.emitted_exact(), core.emitted_approx()),
            (exact as u64, (emitted - exact) as u64),
            "emitted_exact/emitted_approx"
        );
        let left = tuples.iter().filter(|t| t.side == Side::Left).count();
        assert_eq!(core.stored(), PerSide::new(left, tuples.len() - left));
        out.into()
    }

    /// The serial path: switch after `at` tuples, then `process` one
    /// tuple at a time, tuple `i` scored under `coefficient_at(i)` (set
    /// mid-stream through `set_coefficient` when it changes).
    fn run_serial(
        tuples: &[SidedRecord],
        at: usize,
        coefficient_at: impl Fn(usize) -> QGramCoefficient,
    ) -> Vec<MatchPair> {
        let (mut core, mut out, exact_pairs) = handover(tuples, at, coefficient_at(at));
        for (i, sided) in tuples.iter().enumerate().skip(at) {
            if core.coefficient() != coefficient_at(i) {
                core.set_coefficient(coefficient_at(i));
            }
            core.process(sided.clone(), &mut out).unwrap();
        }
        checked(&core, out, exact_pairs, tuples)
    }

    /// The batched path: switch after `at` tuples, then run the rest
    /// through `probe_batch_into` in `batch_size` chunks, every tuple
    /// homed on one pseudo-shard.  `at` need not be a multiple of
    /// `batch_size`, so the handover lands mid-batch from the batched
    /// execution's point of view.
    fn run_batched(
        tuples: &[SidedRecord],
        at: usize,
        coefficient: QGramCoefficient,
        batch_size: usize,
    ) -> Vec<MatchPair> {
        let home = ShardId(0);
        let (mut core, mut out, exact_pairs) = handover(tuples, at, coefficient);
        // An empty batch up front must be a no-op on the stream.
        core.probe_batch_into(&PreparedBatch::default(), Some(home), &mut out)
            .unwrap();
        for chunk in tuples[at..].chunks(batch_size.max(1)) {
            let mut batch = PreparedBatch::with_capacity(chunk.len());
            for sided in chunk {
                let (key, grams) = core.prepare(sided).unwrap();
                batch.push(sided.clone(), key, grams, home);
            }
            core.probe_batch_into(&batch, Some(home), &mut out).unwrap();
        }
        checked(&core, out, exact_pairs, tuples)
    }

    fn oracle_set(
        data: &GeneratedData,
        coefficient: QGramCoefficient,
    ) -> HashSet<(RecordId, RecordId)> {
        let sim = coefficient.with_config(QGramConfig::default());
        id_set(
            &oracle::nested_loop_similarity(
                &data.parents,
                &data.children,
                KEYS,
                &NormalizeConfig::default(),
                sim.as_ref(),
                THETA,
            )
            .expect("oracle failed"),
        )
    }

    #[test]
    fn all_coefficients_agree_with_reference_and_oracle() {
        let data = generate(&DatagenConfig::mid_stream_dirty(70, 51)).expect("datagen failed");
        let tuples = feed(&data);
        for coefficient in QGramCoefficient::ALL {
            let pairs = run_serial(&tuples, 0, |_| coefficient);
            assert_eq!(
                view(&pairs),
                view(&stream_oracle(&tuples, Some(0), |_| coefficient)),
                "{} kernel diverged from the stream oracle",
                coefficient.name()
            );
            assert_no_duplicates(&pairs);
            assert_eq!(
                id_set(&pairs),
                oracle_set(&data, coefficient),
                "{} kernel disagrees with its set oracle",
                coefficient.name()
            );
        }
    }

    #[test]
    fn switch_path_agrees_with_reference_and_oracle() {
        let data = generate(&DatagenConfig::mid_stream_dirty(60, 52)).expect("datagen failed");
        let tuples = feed(&data);
        let n = tuples.len();
        for switch_at in [0, 1, n / 3, n / 2, n] {
            let pairs = run_serial(&tuples, switch_at, |_| QGramCoefficient::Jaccard);
            assert_eq!(
                view(&pairs),
                view(&stream_oracle(&tuples, Some(switch_at), |_| {
                    QGramCoefficient::Jaccard
                })),
                "switch at {switch_at} diverged from the stream oracle"
            );
            assert_no_duplicates(&pairs);
            assert_eq!(
                id_set(&pairs),
                oracle_set(&data, QGramCoefficient::Jaccard),
                "switch at {switch_at} changed the match set"
            );
        }
    }

    /// Run the serial kernel with a coefficient change after `change_at`
    /// tuples and require the stream oracle's stream under the same
    /// two-step schedule: each pair is scored under the coefficient
    /// active when its later tuple arrives.
    fn assert_coefficient_change_matches_oracle(
        tuples: &[SidedRecord],
        first: QGramCoefficient,
        second: QGramCoefficient,
        change_at: usize,
    ) {
        let schedule = |i: usize| if i < change_at { first } else { second };
        assert_eq!(
            view(&run_serial(tuples, 0, schedule)),
            view(&stream_oracle(tuples, Some(0), schedule)),
            "kernel diverged under a {} → {} change at {change_at}",
            first.name(),
            second.name()
        );
    }

    #[test]
    fn mid_stream_coefficient_change_stays_bit_identical() {
        let data = generate(&DatagenConfig::mid_stream_dirty(60, 53)).expect("datagen failed");
        let tuples = feed(&data);
        for (first, second) in [
            (QGramCoefficient::Jaccard, QGramCoefficient::Overlap),
            (QGramCoefficient::Overlap, QGramCoefficient::Jaccard),
            (QGramCoefficient::Dice, QGramCoefficient::Cosine),
        ] {
            for change_at in [0, 1, tuples.len() / 2, tuples.len()] {
                assert_coefficient_change_matches_oracle(&tuples, first, second, change_at);
            }
        }
    }

    #[test]
    fn batched_probe_is_bit_identical_to_serial_and_reference() {
        // Batch sizes cover singleton batches, sizes that don't divide
        // the stream, and one batch holding the whole feed.
        let data = generate(&DatagenConfig::mid_stream_dirty(60, 54)).expect("datagen failed");
        let tuples = feed(&data);
        for coefficient in QGramCoefficient::ALL {
            let oracle = view(&stream_oracle(&tuples, Some(0), |_| coefficient));
            assert_eq!(view(&run_serial(&tuples, 0, |_| coefficient)), oracle);
            for batch_size in [1, 3, 8, 64, tuples.len()] {
                assert_eq!(
                    view(&run_batched(&tuples, 0, coefficient, batch_size)),
                    oracle,
                    "batched probe diverged ({}, batch_size {batch_size})",
                    coefficient.name()
                );
            }
        }
    }

    #[test]
    fn batched_switch_handover_is_bit_identical_to_serial() {
        // The §3.3 handover lands at stream positions that are not batch
        // boundaries, so the first approximate batch mixes recovered
        // state with fresh tuples; `switch_at == len` leaves an empty
        // approximate remainder (zero batches after the up-front empty
        // one `run_batched` always issues).
        let data = generate(&DatagenConfig::mid_stream_dirty(48, 55)).expect("datagen failed");
        let tuples = feed(&data);
        let n = tuples.len();
        for switch_at in [0, 1, n / 3, n / 2, n] {
            let oracle = view(&stream_oracle(&tuples, Some(switch_at), |_| {
                QGramCoefficient::Jaccard
            }));
            for batch_size in [1, 5, 64] {
                assert_eq!(
                    view(&run_batched(
                        &tuples,
                        switch_at,
                        QGramCoefficient::Jaccard,
                        batch_size
                    )),
                    oracle,
                    "batched handover diverged (switch_at {switch_at}, \
                     batch_size {batch_size})"
                );
            }
        }
    }

    proptest! {
        /// Randomized workloads: the serial kernel is bit-identical to the
        /// stream oracle and set-identical to the quadratic set oracle,
        /// for every coefficient.
        #[test]
        fn interned_kernel_equals_reference_and_oracle(
            parents in 16usize..48,
            seed in 0u64..10_000,
            coefficient_idx in 0usize..4,
        ) {
            let coefficient = QGramCoefficient::ALL[coefficient_idx];
            let data = generate(&DatagenConfig::mid_stream_dirty(parents, seed))
                .expect("datagen failed");
            let tuples = feed(&data);
            let pairs = run_serial(&tuples, 0, |_| coefficient);
            prop_assert_eq!(view(&pairs), view(&stream_oracle(&tuples, Some(0), |_| coefficient)));
            prop_assert_eq!(id_set(&pairs), oracle_set(&data, coefficient));
        }

        /// A mid-stream coefficient change at an arbitrary position keeps
        /// the prefix kernel bit-identical to the stream oracle (the
        /// prefix length is recomputed per probe from the active
        /// coefficient).
        #[test]
        fn coefficient_change_stays_bit_identical(
            parents in 16usize..40,
            seed in 0u64..10_000,
            first_idx in 0usize..4,
            second_idx in 0usize..4,
            change_percent in 0usize..101,
        ) {
            let data = generate(&DatagenConfig::mid_stream_dirty(parents, seed))
                .expect("datagen failed");
            let tuples = feed(&data);
            let change_at = change_percent * tuples.len() / 100;
            assert_coefficient_change_matches_oracle(
                &tuples,
                QGramCoefficient::ALL[first_idx],
                QGramCoefficient::ALL[second_idx],
                change_at,
            );
        }

        /// The batched probe entry point is bit-identical to the stream
        /// oracle under random batch sizes, coefficients and switch
        /// positions.
        #[test]
        fn batched_probe_equals_serial(
            parents in 12usize..32,
            seed in 0u64..10_000,
            coefficient_idx in 0usize..4,
            batch_size in 1usize..24,
            switch_percent in 0usize..101,
        ) {
            let coefficient = QGramCoefficient::ALL[coefficient_idx];
            let data = generate(&DatagenConfig::mid_stream_dirty(parents, seed))
                .expect("datagen failed");
            let tuples = feed(&data);
            let switch_at = switch_percent * tuples.len() / 100;
            let batched = run_batched(&tuples, switch_at, coefficient, batch_size);
            prop_assert_eq!(view(&batched), view(&stream_oracle(&tuples, Some(switch_at), |_| coefficient)));
        }

        /// The §3.3 mid-stream switch/handover at an arbitrary stream
        /// position keeps the serial kernel on the stream oracle and the
        /// set oracle.
        #[test]
        fn switch_handover_equals_reference_and_oracle(
            parents in 16usize..40,
            seed in 0u64..10_000,
            coefficient_idx in 0usize..4,
            switch_percent in 0usize..101,
        ) {
            let coefficient = QGramCoefficient::ALL[coefficient_idx];
            let data = generate(&DatagenConfig::mid_stream_dirty(parents, seed))
                .expect("datagen failed");
            let tuples = feed(&data);
            let switch_at = switch_percent * tuples.len() / 100;
            let pairs = run_serial(&tuples, switch_at, |_| coefficient);
            prop_assert_eq!(view(&pairs), view(&stream_oracle(&tuples, Some(switch_at), |_| coefficient)));
            assert_no_duplicates(&pairs);
            prop_assert_eq!(id_set(&pairs), oracle_set(&data, coefficient));
        }
    }
}

#[cfg(test)]
mod protocol {
    use super::common::*;
    use linkage::api::{MatchEvent, MatchStream, Pipeline, PipelineConfig};
    use linkage_datagen::{generate, DatagenConfig};
    use linkage_types::LinkageError;

    /// The input lifecycle the facade owns: a batch pipeline is never
    /// fed, a session is fed until `finish` and drained after it, and a
    /// drained or failed stream is fused.
    #[test]
    fn lifecycle_is_enforced_through_the_whole_stack() {
        let data = generate(&DatagenConfig::clean(10, 1)).expect("datagen failed");
        let tuples = feed(&data);
        let drain = |stream: &mut MatchStream| -> Vec<MatchEvent> {
            stream
                .by_ref()
                .collect::<Result<_, _>>()
                .expect("drain failed")
        };

        let mut batch = Pipeline::builder()
            .left(&data.parents)
            .right(&data.children)
            .keys(KEYS.left, KEYS.right)
            .run()
            .expect("run failed");
        assert!(matches!(
            batch.feed(&tuples),
            Err(LinkageError::OperatorState(_))
        ));
        batch.finish();
        let events = drain(&mut batch);
        assert!(matches!(events.last(), Some(MatchEvent::Finished(_))));
        assert!(batch.next().is_none(), "a drained stream is fused");

        let mut config = PipelineConfig::default();
        config.keys = KEYS;
        config.reference_size = Some(data.parents.len() as u64);
        let session = || {
            Pipeline::builder()
                .config(config.clone())
                .session()
                .expect("session build")
                .run()
                .expect("session run")
        };

        let mut starved = session();
        starved.feed(&tuples).expect("feed failed");
        while let Some(event) = starved.next_ready() {
            event.expect("ready event");
        }
        assert!(matches!(
            starved.next(),
            Some(Err(LinkageError::Execution(_)))
        ));
        assert!(starved.next().is_none(), "an error fuses the stream");

        let mut stream = session();
        for chunk in tuples.chunks(3) {
            stream.feed(chunk).expect("feed failed");
        }
        stream.finish();
        stream.finish();
        assert!(matches!(
            stream.feed(&tuples[..1]),
            Err(LinkageError::OperatorState(_))
        ));
        let pairs = |events: &[MatchEvent]| -> Vec<_> {
            events
                .iter()
                .filter_map(|e| match e {
                    MatchEvent::Match(pair) => Some(pair.id_pair()),
                    _ => None,
                })
                .collect()
        };
        let fed = drain(&mut stream);
        assert!(matches!(fed.last(), Some(MatchEvent::Finished(_))));
        assert_eq!(
            pairs(&fed),
            pairs(&events),
            "a session replays the batch run"
        );
        assert!(matches!(
            stream.snapshot_builder(),
            Err(LinkageError::Snapshot(_))
        ));
    }
}

#[cfg(test)]
mod snapshot_resume {
    use linkage::api::{
        ExecutionMode, MatchEvent, MatchStream, Pipeline, PipelineBuilder, PipelineConfig,
        QGramCoefficient, Source, SwitchPolicy,
    };
    use linkage_datagen::{generate, DatagenConfig, GeneratedData};
    use linkage_operators::{InterleavedScan, Operator};
    use linkage_types::snapshot::{SnapshotFile, FORMAT_VERSION, MAGIC};
    use linkage_types::{
        InterleavePolicy, LinkageError, PerSide, Relation, SidedRecord, VecStream,
    };
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn declare(data: &GeneratedData) -> PipelineBuilder {
        Pipeline::builder()
            .left(&data.parents)
            .right(&data.children)
            .key_column(GeneratedData::KEY_COLUMN)
    }

    /// A fresh snapshot path under the system temp dir; unique per call
    /// so parallel tests never collide.
    fn snap_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("linkage-snap-{}-{tag}-{n}.bin", std::process::id()))
    }

    /// A bit-faithful fingerprint of one stream event: `Match` keeps the
    /// full pair `Debug` (records, kind, exact similarity), `Switched`
    /// keeps σ as raw bits, `Finished` keeps every deterministic counter
    /// (wall-clock latency and size estimates are excluded by design).
    fn fingerprint(event: MatchEvent) -> String {
        match event {
            MatchEvent::Match(pair) => format!("M {pair:?}"),
            MatchEvent::Switched(s) => format!(
                "S after={} sigma={:016x} recovered={}",
                s.after_tuples,
                s.sigma.to_bits(),
                s.recovered
            ),
            MatchEvent::Finished(r) => format!(
                "F {} shards={} {:?} consumed={:?} emitted={:?} switch={:?}",
                r.engine,
                r.shards,
                r.phase,
                r.consumed,
                r.emitted,
                r.switch
                    .map(|s| (s.after_tuples, s.sigma.to_bits(), s.recovered)),
            ),
            _ => "other".to_owned(),
        }
    }

    fn drain(stream: MatchStream) -> Vec<String> {
        stream
            .map(|event| fingerprint(event.expect("stream event failed")))
            .collect()
    }

    /// The defining invariant of the snapshot subsystem: run the same
    /// declaration twice, once uninterrupted and once snapshotted after
    /// `cut` events + resumed in a brand-new pipeline, and require the
    /// two event sequences to be identical, bit for bit.  Returns the
    /// uninterrupted sequence so callers can probe it (switch position).
    fn assert_resume_bit_identical(
        make: &dyn Fn() -> PipelineBuilder,
        cut: usize,
        tag: &str,
    ) -> Vec<String> {
        let full = drain(make().run().expect("uninterrupted run failed"));
        // `Finished` flips the stream to done, where snapshot (rightly)
        // refuses; cap the cut at the last snapshottable position.
        let cut = cut.min(full.len().saturating_sub(1));

        let mut stream = make().run().expect("interrupted run failed");
        let mut events = Vec::with_capacity(full.len());
        for _ in 0..cut {
            let event = stream.next().expect("stream ended early");
            events.push(fingerprint(event.expect("stream event failed")));
        }
        let path = snap_path(tag);
        stream.snapshot(&path).expect("snapshot failed");
        drop(stream); // the interrupted pipeline dies here

        let resumed = make().resume(&path).expect("resume failed");
        events.extend(drain(resumed));
        std::fs::remove_file(&path).ok();

        assert_eq!(
            events,
            full,
            "resumed stream diverged (cut after {cut} of {} events)",
            full.len()
        );
        full
    }

    #[test]
    fn serial_natural_switch_resumes_before_at_and_after_the_boundary() {
        let data = generate(&DatagenConfig::mid_stream_dirty(120, 71)).expect("datagen failed");
        let make = || declare(&data).serial();
        let full = assert_resume_bit_identical(&make, 0, "serial-open");
        let switch_at = full
            .iter()
            .position(|f| f.starts_with('S'))
            .expect("dirty workload must switch");
        // Just before the switch notification, exactly at it (the engine
        // may already hold post-switch state and recovered pairs), and
        // just after it.
        for (cut, tag) in [
            (switch_at.saturating_sub(1), "serial-pre"),
            (switch_at, "serial-at"),
            (switch_at + 1, "serial-post"),
            (full.len() - 1, "serial-end"),
        ] {
            assert_resume_bit_identical(&make, cut, tag);
        }
    }

    #[test]
    fn sharded_natural_switch_resumes_before_at_and_after_the_boundary() {
        let data = generate(&DatagenConfig::mid_stream_dirty(120, 72)).expect("datagen failed");
        let make = || declare(&data).sharded(3).batch_size(16);
        let full = assert_resume_bit_identical(&make, 0, "sharded-open");
        let switch_at = full
            .iter()
            .position(|f| f.starts_with('S'))
            .expect("dirty workload must switch");
        for (cut, tag) in [
            (switch_at.saturating_sub(1), "sharded-pre"),
            (switch_at, "sharded-at"),
            (switch_at + 1, "sharded-post"),
            (full.len() - 1, "sharded-end"),
        ] {
            assert_resume_bit_identical(&make, cut, tag);
        }
    }

    /// A snapshot's `META` section and every server `OPEN` carry a CRC-32
    /// of the configuration types' `Debug` rendering.  These values were
    /// recorded before the two engines shared one controller: moving or
    /// renaming a config type shows up here, not as refused resumes.
    /// The declaration both halves of the chunking property run: the
    /// same configuration as a batch pipeline over `data` and as a
    /// session (whose reference size must be explicit).
    fn chunk_config(data: &GeneratedData, engine: usize, switch_at: Option<u64>) -> PipelineConfig {
        let mut config = PipelineConfig::default();
        config.keys = PerSide::new(GeneratedData::KEY_COLUMN, GeneratedData::KEY_COLUMN);
        config.reference_size = Some(data.parents.len() as u64);
        if engine > 0 {
            config.execution = ExecutionMode::Sharded {
                shards: [2, 3][(engine - 1) / 3],
            };
            config.batch_size = [1, 7, 64][(engine - 1) % 3];
        }
        if let Some(at) = switch_at {
            config.switch_policy = SwitchPolicy::ForceAt(at);
        }
        config
    }

    /// Feed `tuples` in chunks of the sizes `chunks` cycles through,
    /// popping up to `polled` ready events after each.  `at_boundary`
    /// sees the stream after every chunk with the count fed so far.
    fn feed_in_chunks(
        stream: &mut MatchStream,
        tuples: &[SidedRecord],
        chunks: &[usize],
        polled: usize,
        events: &mut Vec<String>,
        mut at_boundary: impl FnMut(&mut MatchStream, usize, usize),
    ) {
        let mut fed = 0;
        for &size in chunks.iter().cycle() {
            if fed == tuples.len() {
                break;
            }
            let size = size.min(tuples.len() - fed);
            stream.feed(&tuples[fed..fed + size]).expect("feed failed");
            fed += size;
            for _ in 0..polled {
                match stream.next_ready() {
                    Some(event) => events.push(fingerprint(event.expect("ready event"))),
                    None => break,
                }
            }
            at_boundary(stream, fed, events.len());
        }
    }

    proptest! {
        /// Feeding a session in arbitrary chunks — empty, single tuples,
        /// smaller and larger than an epoch, straddling the switch —
        /// yields the batch run's event stream pair for pair, `Switched`
        /// included.  A snapshot taken between two chunks, while part of
        /// an epoch is pending, resumes by `resume_from` plus feeding the
        /// pending records and the rest, to the same stream.
        #[test]
        fn fed_chunks_replay_the_batch_run_and_resume_at_any_chunk_boundary(
            parents in 24usize..48,
            seed in 0u64..10_000,
            engine in 0usize..7, // 0 = serial; else shards {2, 3} × batch {1, 7, 64}
            switch_percent in 0usize..130, // ≥ 100: the controller decides
            chunks in proptest::collection::vec(0usize..80, 1..8),
            cut_percent in 0usize..101,
            polled in 0usize..6,
        ) {
            let data = generate(&DatagenConfig::mid_stream_dirty(parents, seed))
                .expect("datagen failed");
            let mut scan = InterleavedScan::new(
                VecStream::from_relation(&data.parents),
                VecStream::from_relation(&data.children),
                InterleavePolicy::default(),
            );
            let tuples = scan.run_to_end().expect("scan failed");
            let switch_at =
                (switch_percent < 100).then(|| (switch_percent * tuples.len() / 100) as u64);
            let config = chunk_config(&data, engine, switch_at);
            let batch = config.batch_size;
            let sharded = engine > 0;
            let expected = drain(
                Pipeline::builder()
                    .config(config.clone())
                    .left(&data.parents)
                    .right(&data.children)
                    .run()
                    .expect("batch run failed"),
            );
            let session = || {
                Pipeline::builder()
                    .config(config.clone())
                    .session()
                    .expect("session")
            };

            let cut = cut_percent * tuples.len() / 100;
            let mut snapshot = None;
            let mut stream = session().run().expect("session run failed");
            let mut events = Vec::new();
            let take_snapshot = |stream: &mut MatchStream, fed: usize, delivered: usize| {
                if snapshot.is_none() && fed >= cut {
                    let pending = stream.pending_input().to_vec();
                    assert_eq!(pending.len(), if sharded { fed % batch } else { 0 });
                    assert_eq!(stream.consumed() + pending.len() as u64, fed as u64);
                    let bytes = stream.snapshot_builder().expect("snapshot failed").to_bytes();
                    snapshot = Some((fed, delivered, bytes, pending));
                }
            };
            feed_in_chunks(&mut stream, &tuples, &chunks, polled, &mut events, take_snapshot);
            stream.finish();
            events.extend(drain(stream));
            prop_assert_eq!(events, expected);

            let (fed, delivered, bytes, pending) =
                snapshot.expect("a chunk boundary reaches every cut");
            let file = SnapshotFile::from_vec(bytes).expect("container");
            let mut resumed = session().resume_from(&file).expect("resume failed");
            prop_assert_eq!(resumed.consumed() + pending.len() as u64, fed as u64);
            resumed.feed(&pending).expect("feed pending failed");
            let mut events = expected[..delivered].to_vec();
            let rest = &tuples[fed..];
            feed_in_chunks(&mut resumed, rest, &chunks, polled, &mut events, |_, _, _| {});
            resumed.finish();
            events.extend(drain(resumed));
            prop_assert_eq!(events, expected);
        }
    }

    /// The alarm streak a serial snapshot carries: its `CONTROLLER`
    /// section's loop counters follow the consumed counts, the emission
    /// counts, the recovered count and the switch point (`docs/format.md`).
    fn snapshot_streak(file: &SnapshotFile) -> u32 {
        use linkage_types::snapshot::{kind, Decoder};
        let section = file.section(kind::CONTROLLER as u32).expect("CONTROLLER");
        let mut d = Decoder::new(section, "CONTROLLER");
        for _ in 0..5 {
            d.get_u64().expect("counter");
        }
        d.get_opt_u64().expect("switch point");
        d.get_u64().expect("assessments");
        d.get_u64().expect("last checked");
        d.get_u32().expect("streak")
    }

    /// While an alarm streak is open the serial engine tokenises its
    /// residents ahead of the switch; no snapshot holds that work, and the
    /// resumed engine hands over eagerly.  A session snapshotted after any
    /// tuple of an open streak, resumed and fed the rest, yields the
    /// uninterrupted run's events, event for event.
    #[test]
    fn serial_resume_inside_an_open_streak_is_bit_identical() {
        use linkage_types::snapshot::kind;
        let data = generate(&DatagenConfig::mid_stream_dirty(120, 71)).expect("datagen failed");
        let tuples = InterleavedScan::new(
            VecStream::from_relation(&data.parents),
            VecStream::from_relation(&data.children),
            InterleavePolicy::default(),
        )
        .run_to_end()
        .expect("scan failed");
        let config = chunk_config(&data, 0, None);
        let expected = drain(
            Pipeline::builder()
                .config(config.clone())
                .left(&data.parents)
                .right(&data.children)
                .run()
                .expect("batch run failed"),
        );
        let session = || {
            Pipeline::builder()
                .config(config.clone())
                .session()
                .expect("session")
        };
        let mut cuts = Vec::new();
        let mut stream = session().run().expect("session run failed");
        let mut events = Vec::new();
        let keep_open_streaks = |stream: &mut MatchStream, fed: usize, delivered: usize| {
            let bytes = stream
                .snapshot_builder()
                .expect("snapshot failed")
                .to_bytes();
            let file = SnapshotFile::from_vec(bytes).expect("container");
            let exact = file.try_section(kind::EXACT_CORE as u32).is_some();
            if exact && snapshot_streak(&file) > 0 {
                cuts.push((fed, delivered, file));
            }
        };
        feed_in_chunks(
            &mut stream,
            &tuples,
            &[1],
            usize::MAX,
            &mut events,
            keep_open_streaks,
        );
        stream.finish();
        events.extend(drain(stream));
        assert_eq!(events, expected);
        assert!(!cuts.is_empty(), "a streak opens before the switch");

        for (fed, delivered, file) in cuts {
            let mut resumed = session().resume_from(&file).expect("resume failed");
            let mut events = expected[..delivered].to_vec();
            let rest = &tuples[fed..];
            feed_in_chunks(
                &mut resumed,
                rest,
                &[1],
                usize::MAX,
                &mut events,
                |_, _, _| {},
            );
            resumed.finish();
            events.extend(drain(resumed));
            assert_eq!(events, expected, "cut after {fed} tuples");
        }
    }

    /// Snapshot a run of `make` after 20 events and resume it against the
    /// sources `resume_with` declares; the error it fails with.
    fn resume_against(
        make: fn(&GeneratedData) -> PipelineBuilder,
        resume_with: fn(&GeneratedData) -> (Source, Source),
        tag: &str,
    ) -> LinkageError {
        let data = generate(&DatagenConfig::mid_stream_dirty(60, 16)).expect("datagen failed");
        let mut stream = make(&data).run().expect("run failed");
        for _ in 0..20 {
            stream.next().expect("stream ended early").expect("event");
        }
        let path = snap_path(tag);
        stream.snapshot(&path).expect("snapshot failed");
        drop(stream);
        let (left, right) = resume_with(&data);
        let err = make(&data)
            .left(left)
            .right(right)
            .resume(&path)
            .expect_err("resume must refuse the source");
        std::fs::remove_file(&path).ok();
        err
    }

    /// Both engines, declared with an explicit reference size so that
    /// other sources keep the configuration fingerprint.
    const BOTH_ENGINES: [fn(&GeneratedData) -> PipelineBuilder; 2] = [
        |d| declare(d).reference_size(d.parents.len() as u64).serial(),
        |d| {
            declare(d)
                .reference_size(d.parents.len() as u64)
                .sharded(2)
                .batch_size(8)
        },
    ];

    /// The first `n` records of `relation`.
    fn prefix(relation: &Relation, n: usize) -> Source {
        Source::records(relation.schema().clone(), relation.records()[..n].to_vec())
    }

    #[test]
    fn resuming_against_a_source_shorter_than_the_consumed_prefix_is_a_typed_error() {
        for make in BOTH_ENGINES {
            let err = resume_against(
                make,
                |d| (prefix(&d.parents, 10), prefix(&d.children, 10)),
                "short",
            );
            match err {
                LinkageError::Snapshot(m) => assert!(m.contains("input ended"), "{m}"),
                other => panic!("expected a typed snapshot error, got {other:?}"),
            }
        }
    }

    #[test]
    fn resuming_against_a_differently_split_source_is_a_typed_error() {
        for make in BOTH_ENGINES {
            // Fewer children than the snapshot consumed: the alternating
            // scan then yields more parents than it consumed.
            let err = resume_against(
                make,
                |d| (Source::relation(&d.parents), prefix(&d.children, 5)),
                "split",
            );
            match err {
                LinkageError::Snapshot(m) => {
                    assert!(m.contains("does not match the snapshot"), "{m}")
                }
                other => panic!("expected a typed snapshot error, got {other:?}"),
            }
        }
    }

    #[test]
    fn config_and_meta_fingerprints_are_pinned() {
        use linkage::api::PipelineConfig;
        use linkage_types::snapshot::{kind, Decoder};
        assert_eq!(PipelineConfig::default().fingerprint(), 0x2575_90be);
        let data = generate(&DatagenConfig::mid_stream_dirty(60, 16)).expect("datagen failed");
        for (builder, engine, shards, fingerprint) in [
            (declare(&data).serial(), "serial", 1, 0x3a16_f7ac),
            (declare(&data).sharded(2), "sharded", 2, 0xf1f9_0f58),
        ] {
            let path = snap_path("meta");
            builder.run().unwrap().snapshot(&path).unwrap();
            let file = SnapshotFile::read_from(&path).unwrap();
            std::fs::remove_file(&path).ok();
            let mut d = Decoder::new(file.section(kind::META as u32).unwrap(), "META");
            assert_eq!(d.get_str().unwrap(), engine);
            assert_eq!(d.get_u32().unwrap(), shards);
            assert_eq!(d.get_u32().unwrap(), fingerprint, "{engine}");
        }
    }

    /// Every event crosses the served path by value; an inline field
    /// costs `served_mixed` throughput, so new report fields are boxed.
    #[test]
    fn match_event_stays_small() {
        assert!(std::mem::size_of::<MatchEvent>() <= 144);
    }

    /// Snapshots under `tests/golden/`, written by the previous writer.
    /// Just after `Switched` it held a pulled pair back behind the
    /// announcement; mid-drain of the pre-switch pairs it deferred the
    /// count of the last one it returned.  Each file must resume to the
    /// event stream that writer's own build resumed it to: `(events,
    /// CRC-32 of the fingerprints joined by '\n')`, recorded there.
    #[test]
    fn golden_snapshots_of_the_previous_writer_resume_to_their_recorded_streams() {
        use linkage_types::snapshot::{crc32, kind};
        let data = generate(&DatagenConfig::mid_stream_dirty(60, 16)).expect("datagen failed");
        let serial = || declare(&data).serial();
        let forced = || declare(&data).force_switch_at(31).serial();
        let sharded = || declare(&data).sharded(3).batch_size(16);
        let goldens: [(&str, &dyn Fn() -> PipelineBuilder, usize, u32); 4] = [
            ("serial-after-switched", &serial, 34, 0x225a_da6b),
            ("serial-mid-drain", &forced, 56, 0xf0e9_47e2),
            ("sharded-after-switched", &sharded, 34, 0xd9df_9e0c),
            ("sharded-mid-drain", &sharded, 41, 0xaa81_c411),
        ];
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
        for (name, make, events, hash) in goldens {
            let path = dir.join(format!("{name}.snap"));
            let file = SnapshotFile::read_from(&path).expect("golden unreadable");
            // The file holds the state its name says: a held-back pair in
            // STREAM, or a deferred count in CONTROLLER (docs/format.md).
            let stream = file.section(kind::STREAM as u32).unwrap();
            let controller = file.section(kind::CONTROLLER as u32).unwrap();
            let deferred = if name.starts_with("serial") {
                controller[controller.len() - 1]
            } else {
                controller[controller.len() - 30]
            };
            let expected = if name.ends_with("after-switched") {
                (1, 0)
            } else {
                (0, 1)
            };
            assert_eq!((stream[1], deferred), expected, "{name}");

            let resumed = drain(make().resume(&path).expect("golden resume failed"));
            assert_eq!(resumed.len(), events, "{name}");
            assert_eq!(crc32(resumed.join("\n").as_bytes()), hash, "{name}");
        }
    }

    #[test]
    fn every_coefficient_resumes_bit_identically_on_both_engines() {
        let data = generate(&DatagenConfig::mid_stream_dirty(60, 73)).expect("datagen failed");
        for coefficient in QGramCoefficient::ALL {
            for (engine, shards) in [("serial", 0), ("sharded", 2)] {
                let make = || {
                    let b = declare(&data)
                        .approximate_from_start()
                        .similarity(coefficient);
                    if shards == 0 {
                        b.serial()
                    } else {
                        b.sharded(shards)
                    }
                };
                let tag = format!("{engine}-{}", coefficient.name());
                let full = assert_resume_bit_identical(&make, 5, &tag);
                assert!(full.len() > 6, "workload too small to cut at 5");
            }
        }
    }

    proptest! {
        /// Random workload, engine, epoching and cut position: the
        /// resumed event stream is always bit-identical.
        #[test]
        fn resume_is_bit_identical_anywhere(
            parents in 24usize..48,
            seed in 0u64..10_000,
            shards in 0usize..4, // 0 = serial
            batch in 8usize..40,
            cut_percent in 0usize..101,
        ) {
            let data = generate(&DatagenConfig::mid_stream_dirty(parents, seed))
                .expect("datagen failed");
            let make = || {
                let b = declare(&data);
                if shards == 0 {
                    b.serial()
                } else {
                    b.sharded(shards).batch_size(batch)
                }
            };
            // Probe the sequence length once, then cut proportionally.
            let total = drain(make().run().expect("probe run failed")).len();
            let cut = cut_percent * total / 100;
            assert_resume_bit_identical(&make, cut, "prop");
        }
    }

    // ---- corruption & misuse -------------------------------------------

    /// Write one serial-engine snapshot and return its raw bytes plus the
    /// workload, for the corruption tests to mutate.
    fn snapshot_bytes(data: &GeneratedData, cut: usize, tag: &str) -> Vec<u8> {
        let mut stream = declare(data).serial().run().expect("run failed");
        for _ in 0..cut {
            stream
                .next()
                .expect("stream ended early")
                .expect("event failed");
        }
        let path = snap_path(tag);
        stream.snapshot(&path).expect("snapshot failed");
        let bytes = std::fs::read(&path).expect("read failed");
        std::fs::remove_file(&path).ok();
        bytes
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let data = generate(&DatagenConfig::mid_stream_dirty(40, 74)).expect("datagen failed");
        let bytes = snapshot_bytes(&data, 10, "trunc");
        for len in 0..bytes.len() {
            match SnapshotFile::from_bytes(&bytes[..len]) {
                Err(LinkageError::Snapshot(_)) => {}
                Err(other) => panic!("truncation at {len} gave a non-snapshot error: {other}"),
                Ok(_) => panic!("truncation at {len} of {} parsed", bytes.len()),
            }
        }
        assert!(
            SnapshotFile::from_bytes(&bytes).is_ok(),
            "untouched bytes must parse"
        );
    }

    #[test]
    fn every_single_byte_corruption_fails_resume_without_panicking() {
        let data = generate(&DatagenConfig::mid_stream_dirty(30, 75)).expect("datagen failed");
        let bytes = snapshot_bytes(&data, 8, "flip");
        let path = snap_path("flip-mut");
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0xff;
            std::fs::write(&path, &corrupt).expect("write failed");
            match declare(&data).serial().resume(&path) {
                Err(LinkageError::Snapshot(_)) => {}
                Err(other) => panic!("flip at byte {pos} gave a non-snapshot error: {other}"),
                Ok(_) => panic!("flip at byte {pos} of {} resumed", bytes.len()),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_format_versions_are_rejected_by_name() {
        let data = generate(&DatagenConfig::mid_stream_dirty(30, 76)).expect("datagen failed");
        let mut bytes = snapshot_bytes(&data, 4, "version");
        assert_eq!(&bytes[..8], &MAGIC, "magic leads the file");
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        assert_eq!(version, FORMAT_VERSION, "writer stamps the current version");
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        match SnapshotFile::from_bytes(&bytes) {
            Err(LinkageError::Snapshot(msg)) => {
                assert!(msg.contains("version"), "unexpected message: {msg}")
            }
            other => panic!("future version accepted: {other:?}"),
        }
    }

    #[test]
    fn resuming_on_the_wrong_engine_shards_or_config_is_rejected() {
        let data = generate(&DatagenConfig::mid_stream_dirty(40, 77)).expect("datagen failed");
        let path = snap_path("mismatch");
        let mut stream = declare(&data).serial().run().expect("run failed");
        for _ in 0..6 {
            stream
                .next()
                .expect("stream ended early")
                .expect("event failed");
        }
        stream.snapshot(&path).expect("snapshot failed");
        drop(stream);

        // Wrong engine.
        let err = declare(&data).sharded(2).resume(&path).unwrap_err();
        assert!(
            matches!(err, LinkageError::Snapshot(ref m) if m.contains("serial")),
            "unexpected error: {err}"
        );
        // Wrong configuration (different similarity threshold).
        let err = declare(&data)
            .theta_sim(0.9)
            .serial()
            .resume(&path)
            .unwrap_err();
        assert!(
            matches!(err, LinkageError::Snapshot(ref m) if m.contains("fingerprint")),
            "unexpected error: {err}"
        );
        // The honest declaration still resumes.
        let resumed = declare(&data)
            .serial()
            .resume(&path)
            .expect("resume failed");
        drain(resumed);
        std::fs::remove_file(&path).ok();

        // Sharded snapshots additionally pin the shard count.
        let mut stream = declare(&data).sharded(3).run().expect("run failed");
        stream.snapshot(&path).expect("snapshot failed");
        drop(stream);
        let err = declare(&data).sharded(2).resume(&path).unwrap_err();
        assert!(
            matches!(err, LinkageError::Snapshot(ref m) if m.contains("shard")),
            "unexpected error: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshotting_a_finished_stream_is_a_typed_error() {
        let data = generate(&DatagenConfig::clean(20, 78)).expect("datagen failed");
        let mut stream = declare(&data).serial().run().expect("run failed");
        while stream.next().is_some() {}
        let err = stream.snapshot(snap_path("done")).unwrap_err();
        assert!(
            matches!(err, LinkageError::Snapshot(ref m) if m.contains("finished")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn resuming_a_missing_file_is_an_io_error_not_a_panic() {
        let data = generate(&DatagenConfig::clean(20, 79)).expect("datagen failed");
        let err = declare(&data)
            .serial()
            .resume(snap_path("missing"))
            .unwrap_err();
        assert!(
            matches!(err, LinkageError::Io(_)),
            "unexpected error: {err}"
        );
    }

    /// `docs/format.md` is normative: the version and magic it names must
    /// be the ones this build writes, so the spec cannot silently drift
    /// from the code.
    #[test]
    fn format_spec_version_and_magic_match_the_code() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../docs/format.md"))
                .expect("docs/format.md must exist");
        let version: u32 = spec
            .lines()
            .find_map(|l| l.strip_prefix("`FORMAT_VERSION` = "))
            .expect("spec must declare `FORMAT_VERSION` = N")
            .trim()
            .parse()
            .expect("spec version must be an integer");
        assert_eq!(version, FORMAT_VERSION, "docs/format.md is out of date");
        let magic = spec
            .lines()
            .find_map(|l| l.strip_prefix("`MAGIC` = "))
            .expect("spec must declare `MAGIC` = ...")
            .trim();
        assert_eq!(
            magic,
            format!("{:?}", std::str::from_utf8(&MAGIC).unwrap()),
            "docs/format.md magic is out of date"
        );
    }

    /// `docs/architecture.md`'s crate table and README's `crates/*`
    /// Layout rows must name exactly the workspace's crates (the
    /// packages under `crates/` plus the root `linkage`), so adding or
    /// deleting a crate cannot leave either table stale.
    #[test]
    fn crate_tables_match_the_workspace() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let read = |path: &str| {
            std::fs::read_to_string(format!("{root}/{path}"))
                .unwrap_or_else(|e| panic!("{path} must exist: {e}"))
        };
        let mut packages = std::collections::BTreeSet::from(["linkage".to_string()]);
        let mut dirs = std::collections::BTreeSet::new();
        for entry in std::fs::read_dir(format!("{root}/crates")).expect("crates/ must exist") {
            let dir = entry.expect("crates/ entry").path();
            let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
                continue;
            };
            let name = manifest
                .lines()
                .find_map(|l| l.strip_prefix("name = "))
                .expect("manifest must name its package")
                .trim_matches('"');
            packages.insert(name.to_string());
            dirs.insert(format!(
                "crates/{}",
                dir.file_name().unwrap().to_string_lossy()
            ));
        }
        // The backticked first cell of every table row in `text`.
        let first_cells = |text: &str| -> std::collections::BTreeSet<String> {
            text.lines()
                .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
                .map(str::to_string)
                .collect()
        };

        let architecture = read("docs/architecture.md");
        let layering = architecture
            .split("\n## ")
            .find(|s| s.starts_with("Crate layering"))
            .expect("docs/architecture.md must have a crate layering section");
        assert_eq!(
            first_cells(layering),
            packages,
            "docs/architecture.md's crate table is out of date"
        );

        let readme = read("README.md");
        let layout: std::collections::BTreeSet<String> = first_cells(&readme)
            .into_iter()
            .filter(|cell| cell.starts_with("crates/"))
            .collect();
        assert_eq!(layout, dirs, "README.md's Layout table is out of date");
    }
}

#[cfg(test)]
mod server_service {
    //! The `linkage-server` session service against in-process ground
    //! truth: eviction round trips across the §3.3 switch boundary,
    //! interleaved multi-session isolation, and the `docs/server.md`
    //! spec constants.

    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use linkage::api::{
        ExecutionMode, InterleavePolicy, Pipeline, PipelineConfig, Source, SwitchPolicy,
    };
    use linkage_datagen::{generate, DatagenConfig, GeneratedData};
    use linkage_server::proto::{wire_event, WireEvent};
    use linkage_server::session::{record_bytes, FEED_PENDING_KIND};
    use linkage_server::{Client, LinkageServer, ServerConfig, SessionManager};
    use linkage_types::snapshot::{Decoder, SnapshotFile};
    use linkage_types::{PerSide, Side, SidedRecord};
    use proptest::prelude::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "linkage-tests-server-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn session_config(reference: u64) -> PipelineConfig {
        let mut config = PipelineConfig::default();
        config.keys = PerSide::new(GeneratedData::KEY_COLUMN, GeneratedData::KEY_COLUMN);
        config.reference_size = Some(reference);
        config
    }

    /// The canonical feed order used throughout: parents, then children
    /// in stream order.
    fn feed_sequence(data: &GeneratedData) -> Vec<SidedRecord> {
        data.parents
            .records()
            .iter()
            .map(|r| SidedRecord::new(Side::Left, r.clone()))
            .chain(
                data.children
                    .records()
                    .iter()
                    .map(|r| SidedRecord::new(Side::Right, r.clone())),
            )
            .collect()
    }

    /// Ground truth: the batch pipeline over the same relations in the
    /// same order ([`InterleavePolicy::LeftFirst`] is
    /// [`feed_sequence`]'s), every event collected — not the fed
    /// session's feed/pop loop, which the server runs.
    fn solo_events(config: &PipelineConfig, data: &GeneratedData) -> Vec<WireEvent> {
        let mut config = config.clone();
        config.interleave = InterleavePolicy::LeftFirst;
        Pipeline::builder()
            .config(config)
            .left(Source::relation(&data.parents))
            .right(Source::relation(&data.children))
            .run()
            .expect("batch run")
            .map(|event| wire_event(&event.expect("event")))
            .collect()
    }

    /// Evicting a session parked right around the §3.3 exact →
    /// approximate switch — one tuple before, at, and one after the
    /// forced switch point, with 0/1/3 events already delivered — and
    /// rehydrating it yields the bit-identical full event sequence.
    #[test]
    fn eviction_round_trip_is_bit_identical_across_the_switch_boundary() {
        let data = generate(&DatagenConfig::mid_stream_dirty(80, 17)).expect("datagen");
        let sequence = feed_sequence(&data);
        let switch_at = (sequence.len() / 2) as u64;
        let mut config = session_config(data.parents.len() as u64);
        config.switch_policy = SwitchPolicy::ForceAt(switch_at);
        let expected = solo_events(&config, &data);
        assert!(
            expected.iter().any(|e| matches!(e, WireEvent::Switched(_))),
            "the forced switch must appear in the event stream"
        );

        for cut in [switch_at - 1, switch_at, switch_at + 1] {
            for polled in [0usize, 1, 3] {
                let dir = scratch_dir("switch-evict");
                let manager = SessionManager::new(2, u64::MAX, dir).expect("manager");
                let id = manager
                    .open(config.clone(), config.fingerprint())
                    .expect("open");

                // Feed up to the cut, deliver a few events, park.
                let mut session = manager.checkout(id).expect("checkout");
                let added = session
                    .feed(sequence[..cut as usize].to_vec())
                    .expect("feed prefix");
                let (mut got, _) = session.poll(polled).expect("poll prefix");
                manager.checkin(session, added as i64);

                // Evict mid-stream, then transparently rehydrate.
                assert_eq!(manager.evict_all().expect("evict"), 1);
                let mut session = manager.checkout(id).expect("rehydrate");
                session
                    .feed(sequence[cut as usize..].to_vec())
                    .expect("feed rest");
                session.fin();
                loop {
                    let (events, _) = session.poll(64).expect("drain");
                    assert!(!events.is_empty(), "drain stalled before Finished");
                    let done = events.iter().any(|e| matches!(e, WireEvent::Finished(_)));
                    got.extend(events);
                    if done {
                        break;
                    }
                }
                manager.checkin(session, 0);
                assert_eq!(got, expected, "cut={cut} polled={polled}");
            }
        }
    }

    /// One facade-level evict → rehydrate cycle: feed the first `cut`
    /// records, deliver up to `polled` events, snapshot; then resume a
    /// rebuilt pipeline where the snapshot ends, feed it the pending
    /// records and the rest.  Returns every event of the two halves plus
    /// how many records were pending at the cut.
    fn cycle_events(
        config: &PipelineConfig,
        sequence: &[SidedRecord],
        cut: usize,
        polled: usize,
    ) -> (Vec<WireEvent>, usize) {
        let session = || {
            Pipeline::builder()
                .config(config.clone())
                .session()
                .expect("session build")
        };
        let mut stream = session().run().expect("session run");
        stream.feed(&sequence[..cut]).expect("feed prefix");
        let mut events = Vec::new();
        while events.len() < polled {
            match stream.next_ready() {
                Some(event) => events.push(wire_event(&event.expect("event"))),
                None => break,
            }
        }
        let snapshot =
            SnapshotFile::from_vec(stream.snapshot_builder().expect("snapshot").to_bytes())
                .expect("container");
        let pending = stream.pending_input().to_vec();
        let consumed = stream.consumed();
        assert_eq!(consumed + pending.len() as u64, cut as u64);
        drop(stream);

        let mut stream = session().resume_from(&snapshot).expect("resume");
        assert_eq!(
            stream.consumed(),
            consumed,
            "resume keeps the absolute position"
        );
        assert!(stream.pending_input().is_empty());
        stream.feed(&pending).expect("feed pending");
        assert_eq!(stream.pending_input(), pending.as_slice());
        stream.feed(&sequence[cut..]).expect("feed rest");
        stream.finish();
        events.extend(stream.map(|event| wire_event(&event.expect("event"))));
        (events, pending.len())
    }

    /// Rehydration restores the input at its absolute position: with
    /// nothing, one record, and all but one record of an epoch fed but
    /// not yet consumed at the cut — serial and on two shards, before,
    /// at and after the §3.3 switch — the two halves together are the
    /// bit-identical event sequence of an uninterrupted session.
    #[test]
    fn rehydration_restores_pending_input_on_both_engines() {
        const BATCH: usize = 8;
        let data = generate(&DatagenConfig::mid_stream_dirty(80, 17)).expect("datagen");
        let sequence = feed_sequence(&data);
        let switch_at = sequence.len() / 2 / BATCH * BATCH;
        for execution in [ExecutionMode::Serial, ExecutionMode::Sharded { shards: 2 }] {
            let mut config = session_config(data.parents.len() as u64);
            config.execution = execution;
            config.batch_size = BATCH;
            config.switch_policy = SwitchPolicy::ForceAt(switch_at as u64);
            let expected = solo_events(&config, &data);
            assert!(expected.iter().any(|e| matches!(e, WireEvent::Switched(_))));

            for base in [switch_at - 2 * BATCH, switch_at, switch_at + 4 * BATCH] {
                for held in [0, 1, BATCH - 1] {
                    for polled in [0, 3] {
                        let cut = base + held;
                        let (got, pending) = cycle_events(&config, &sequence, cut, polled);
                        let case = format!("{execution:?} cut={cut} polled={polled}");
                        let want = match execution {
                            ExecutionMode::Serial => 0,
                            _ => held,
                        };
                        assert_eq!(pending, want, "{case}");
                        assert_eq!(got, expected, "{case}");
                    }
                }
            }
        }
    }

    /// Through the server's own eviction: a sharded session parks with
    /// part of an epoch pending, so its sidecar carries exactly those
    /// records — not the feed log — and the rehydrated session continues
    /// bit-identically.
    #[test]
    fn a_sharded_session_evicts_with_only_its_pending_input_in_the_sidecar() {
        const BATCH: usize = 8;
        let data = generate(&DatagenConfig::mid_stream_dirty(80, 17)).expect("datagen");
        let sequence = feed_sequence(&data);
        let mut config = session_config(data.parents.len() as u64);
        config.execution = ExecutionMode::Sharded { shards: 2 };
        config.batch_size = BATCH;
        let expected = solo_events(&config, &data);

        for cut in [BATCH * 3, BATCH * 3 + 1, BATCH * 4 - 1, sequence.len() - 5] {
            let dir = scratch_dir("sharded-evict");
            let manager = SessionManager::new(2, u64::MAX, dir.clone()).expect("manager");
            let id = manager
                .open(config.clone(), config.fingerprint())
                .expect("open");
            let mut session = manager.checkout(id).expect("checkout");
            let added = session.feed(sequence[..cut].to_vec()).expect("feed prefix");
            let (mut got, _) = session.poll(2).expect("poll prefix");
            manager.checkin(session, added as i64);
            assert_eq!(manager.evict_all().expect("evict"), 1);

            let sidecar =
                SnapshotFile::read_from(dir.join(format!("session-{id}.feed"))).expect("sidecar");
            let mut queue = Decoder::new(
                sidecar.section(FEED_PENDING_KIND).expect("pending section"),
                "FEED_PENDING",
            );
            let pending = queue.get_u32().expect("count") as usize;
            // Whole epochs are in the snapshot, in either phase; the
            // rest of the fed records wait.
            assert_eq!(pending, cut % BATCH, "cut={cut}");

            let mut session = manager.checkout(id).expect("rehydrate");
            assert_eq!(session.fed(), cut as u64);
            assert_eq!(
                session.state_bytes(),
                added,
                "the budget keeps its currency"
            );
            session.feed(sequence[cut..].to_vec()).expect("feed rest");
            session.fin();
            while !session.is_done() {
                got.extend(session.poll(64).expect("drain").0);
            }
            manager.checkin(session, 0);
            assert_eq!(got, expected, "cut={cut}");
        }
    }

    proptest! {
        /// K sessions interleaved over one live server — fed round-robin
        /// in batches, polled between feeds, with a budget tight enough
        /// that idle sessions get evicted and rehydrated mid-run — each
        /// emit the bit-identical event sequence of their solo run.
        #[test]
        fn interleaved_server_sessions_match_solo_runs(
            seeds in proptest::collection::vec(0u64..1000, 2..4usize),
            batch in 8usize..32,
        ) {
            let workloads: Vec<GeneratedData> = seeds
                .iter()
                .map(|&s| {
                    generate(&DatagenConfig::mid_stream_dirty(
                        60 + (s % 3) as usize * 20,
                        s,
                    ))
                    .expect("datagen")
                })
                .collect();
            let configs: Vec<PipelineConfig> = workloads
                .iter()
                .map(|d| session_config(d.parents.len() as u64))
                .collect();
            let sequences: Vec<Vec<SidedRecord>> =
                workloads.iter().map(feed_sequence).collect();
            let expected: Vec<Vec<WireEvent>> = configs
                .iter()
                .zip(&workloads)
                .map(|(c, d)| solo_events(c, d))
                .collect();

            // Budget: the largest single session fits, the set does not
            // — so idle sessions must cycle through disk.
            let session_bytes: Vec<u64> = sequences
                .iter()
                .map(|s| s.iter().map(record_bytes).sum())
                .collect();
            let mut server_config = ServerConfig::default();
            server_config.evict_dir = Some(scratch_dir("prop"));
            server_config.budget_bytes =
                session_bytes.iter().copied().max().unwrap_or(0) + 64;
            server_config.max_sessions = sequences.len();
            let server = LinkageServer::start(server_config).expect("server");
            let mut client = Client::connect(server.addr()).expect("connect");

            let ids: Vec<u64> = configs
                .iter()
                .map(|c| client.open(c).expect("open"))
                .collect();
            let mut got: Vec<Vec<WireEvent>> = vec![Vec::new(); ids.len()];
            let mut offsets = vec![0usize; ids.len()];
            loop {
                let mut progressed = false;
                for (k, &id) in ids.iter().enumerate() {
                    if offsets[k] < sequences[k].len() {
                        let end = (offsets[k] + batch).min(sequences[k].len());
                        client
                            .feed(id, &sequences[k][offsets[k]..end])
                            .expect("feed");
                        offsets[k] = end;
                        got[k].extend(client.poll(id, 16).expect("poll"));
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            for (k, &id) in ids.iter().enumerate() {
                got[k].extend(client.drain(id, 128).expect("drain"));
                assert_eq!(got[k], expected[k], "session {k} diverged from its solo run");
                client.close(id).expect("close");
            }
            let stats = client.stats().expect("stats");
            prop_assert!(
                stats.evictions >= 1,
                "the budget must have forced at least one eviction (stats: {stats:?})"
            );
            prop_assert!(stats.rehydrations >= 1);
            server.shutdown().expect("shutdown");
        }
    }

    /// `docs/server.md` is normative: its constants and its message-kind
    /// and error-code tables must match the code.
    #[test]
    fn server_spec_constants_match_the_code() {
        use linkage_types::wire::{code, msg, MAX_FRAME_BYTES, WIRE_VERSION};

        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../docs/server.md"))
                .expect("docs/server.md must exist");
        let constant = |name: &str| -> u32 {
            spec.lines()
                .find_map(|l| l.strip_prefix(&format!("`{name}` = ")))
                .unwrap_or_else(|| panic!("spec must declare `{name}` = N"))
                .trim()
                .parse()
                .expect("spec constant must be an integer")
        };
        assert_eq!(
            constant("WIRE_VERSION"),
            WIRE_VERSION,
            "docs/server.md is out of date"
        );
        assert_eq!(constant("MAX_FRAME_BYTES"), MAX_FRAME_BYTES);
        assert_eq!(
            constant("FEED_META_KIND"),
            linkage_server::session::FEED_META_KIND,
            "the eviction sidecar's meta section kind drifted from the spec"
        );
        assert_eq!(
            constant("FEED_PENDING_KIND"),
            FEED_PENDING_KIND,
            "the eviction sidecar's pending-input section kind drifted from the spec"
        );
        assert_eq!(
            constant("MANIFEST_KIND"),
            linkage_server::session::MANIFEST_KIND,
            "the eviction manifest section kind drifted from the spec"
        );
        assert_eq!(
            constant("EVICT_BIND_KIND"),
            linkage_server::session::EVICT_BIND_KIND,
            "the snapshot binding section kind drifted from the spec"
        );

        // Table rows look like "| `OPEN`    | 1    | ..." — the second
        // cell is the byte/code value.
        let tabulated = |name: &str| -> u32 {
            spec.lines()
                .find_map(|l| {
                    let l = l.trim();
                    l.strip_prefix(&format!("| `{name}`"))?
                        .split('|')
                        .nth(1)?
                        .trim()
                        .parse()
                        .ok()
                })
                .unwrap_or_else(|| panic!("spec must tabulate `{name}`"))
        };
        for (name, byte) in [
            ("OPEN", msg::OPEN),
            ("FEED", msg::FEED),
            ("POLL", msg::POLL),
            ("FIN", msg::FIN),
            ("CLOSE", msg::CLOSE),
            ("STATS", msg::STATS),
            ("SHUTDOWN", msg::SHUTDOWN),
            ("OPENED", msg::OPENED),
            ("FED", msg::FED),
            ("EVENTS", msg::EVENTS),
            ("CLOSED", msg::CLOSED),
            ("STATS_REPLY", msg::STATS_REPLY),
            ("BYE", msg::BYE),
            ("ERR", msg::ERR),
        ] {
            assert_eq!(tabulated(name), byte as u32, "message kind `{name}`");
        }
        for (name, value) in [
            ("BAD_REQUEST", code::BAD_REQUEST),
            ("BUSY", code::BUSY),
            ("OVER_BUDGET", code::OVER_BUDGET),
            ("NO_SUCH_SESSION", code::NO_SUCH_SESSION),
            ("SHUTTING_DOWN", code::SHUTTING_DOWN),
            ("INTERNAL", code::INTERNAL),
            ("QUARANTINED", code::QUARANTINED),
        ] {
            assert_eq!(tabulated(name), value, "error code `{name}`");
        }

        // The slot-state table names exactly the variants of the
        // manager's `Slot` enum, upper-cased, in declaration order.
        let source = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../crates/server/src/session.rs"
        ))
        .expect("crates/server/src/session.rs must exist");
        let body = source
            .split_once("\nenum Slot {\n")
            .and_then(|(_, rest)| rest.split_once("\n}\n"))
            .expect("session.rs must declare `enum Slot`")
            .0;
        let variants: Vec<String> = body
            .lines()
            .filter_map(|l| l.strip_prefix("    "))
            .filter(|l| l.starts_with(|c: char| c.is_ascii_uppercase()))
            .map(|l| {
                l.split(|c: char| !c.is_ascii_alphanumeric())
                    .next()
                    .unwrap_or_default()
                    .to_ascii_uppercase()
            })
            .collect();
        let documented: Vec<String> = spec
            .split_once("## Admission and eviction state machine")
            .expect("spec must have the state machine section")
            .1
            .lines()
            .skip_while(|l| !l.starts_with("| state"))
            .skip(2)
            .map_while(|l| l.strip_prefix("| `"))
            .filter_map(|l| l.split_once('`').map(|(name, _)| name.to_string()))
            .collect();
        assert_eq!(
            documented, variants,
            "docs/server.md's slot-state table drifted from `enum Slot`"
        );
    }
}
