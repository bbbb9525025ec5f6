//! # linkage-tests
//!
//! Cross-crate integration tests for the adaptive linkage pipeline.  The
//! unit tests inside each crate cover their own layer; the suites here
//! exercise the full stack — generated workloads, pipelined operators,
//! the adaptive controller — against the quadratic oracle joins and the
//! generated ground truth:
//!
//! * `exact_equivalence` — the pipelined `SymmetricHashJoin` emits
//!   exactly the pairs of a nested-loop oracle, on clean, duplicate-key
//!   and dirty workloads;
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
//!   executes `.serial()` or `.sharded(n)` (property-based), and every
//!   pluggable similarity coefficient agrees with its nested-loop oracle;
//! * `probe_kernel_equivalence` — the prefix-filtered probe kernel
//!   (dense ids, flat postings, rare-first prefix candidate generation,
//!   length filter, merge-based verification) emits the
//!   **bit-identical** match stream of the retained string-keyed
//!   reference probe *and* the match-pair set of the quadratic oracle,
//!   on randomized workloads, for all four `QGramCoefficient`s,
//!   including across the §3.3 mid-stream switch/handover and across a
//!   mid-stream coefficient change;
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
    use linkage_datagen::GeneratedData;
    use linkage_operators::InterleavedScan;
    use linkage_types::{MatchPair, PerSide, RecordId, VecStream};
    use std::collections::HashSet;

    pub const KEYS: PerSide<usize> = PerSide {
        left: GeneratedData::KEY_COLUMN,
        right: GeneratedData::KEY_COLUMN,
    };

    pub fn scan(data: &GeneratedData) -> InterleavedScan<VecStream, VecStream> {
        InterleavedScan::alternating(
            VecStream::from_relation(&data.parents),
            VecStream::from_relation(&data.children),
        )
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
    use linkage_operators::{oracle, Operator, SymmetricHashJoin};
    use linkage_text::NormalizeConfig;

    fn assert_matches_oracle(config: &DatagenConfig) {
        let data = generate(config).expect("datagen failed");
        let mut join = SymmetricHashJoin::new(scan(&data), KEYS);
        let pairs = join.run_to_end().expect("join failed");
        let expected = oracle::nested_loop_exact(
            &data.parents,
            &data.children,
            KEYS,
            &NormalizeConfig::default(),
        )
        .expect("oracle failed");
        assert_eq!(
            id_set(&pairs),
            id_set(&expected),
            "pipelined join disagrees with the nested-loop oracle"
        );
        assert_eq!(pairs.len(), expected.len(), "duplicate or missing pairs");
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
    use linkage_operators::{
        oracle, JoinPhase, Operator, SwitchJoin, SwitchJoinConfig, SymmetricHashJoin,
    };
    use linkage_text::QGramJaccard;
    use linkage_types::RecordId;
    use std::collections::HashSet;

    const THETA_SIM: f64 = 0.8;

    #[test]
    fn controller_switches_mid_stream_and_recovers_matches() {
        let config = DatagenConfig::mid_stream_dirty(250, 7);
        let data = generate(&config).expect("datagen failed");
        let truth: HashSet<(RecordId, RecordId)> = data.truth.iter().copied().collect();

        // Baseline: exact-only.
        let mut exact_join = SymmetricHashJoin::new(scan(&data), KEYS);
        let exact_pairs = exact_join.run_to_end().expect("exact join failed");
        let exact_correct = id_set(&exact_pairs).intersection(&truth).count();

        // Adaptive: SwitchJoin driven by the monitor/assessor/actuator loop.
        let switch = SwitchJoin::new(
            scan(&data),
            SwitchJoinConfig::new(KEYS).with_theta(THETA_SIM),
        );
        let mut adaptive =
            AdaptiveJoin::new(switch, ControllerConfig::new(data.parents.len() as u64));
        let adaptive_pairs = adaptive.run_to_end().expect("adaptive join failed");

        // The switch really happened mid-stream.
        let event = adaptive.switch_event().expect("controller never switched");
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
                THETA_SIM,
            )
            .expect("oracle failed"),
        );
        assert!(id_set(&adaptive_pairs).is_subset(&allowed));
    }

    #[test]
    fn clean_workload_never_switches() {
        let data = generate(&DatagenConfig::clean(200, 9)).expect("datagen failed");
        let switch = SwitchJoin::new(scan(&data), SwitchJoinConfig::new(KEYS));
        let mut adaptive =
            AdaptiveJoin::new(switch, ControllerConfig::new(data.parents.len() as u64));
        let pairs = adaptive.run_to_end().expect("adaptive join failed");
        assert!(adaptive.switch_event().is_none());
        assert_eq!(adaptive.phase(), JoinPhase::Exact);
        assert_eq!(pairs.len(), data.truth.len());
    }

    #[test]
    fn manual_switch_is_equivalent_to_controller_switch_result_set() {
        // Driving SwitchJoin by hand at the same point the controller chose
        // yields the same distinct result set.
        let data = generate(&DatagenConfig::mid_stream_dirty(120, 11)).expect("datagen failed");

        let switch = SwitchJoin::new(scan(&data), SwitchJoinConfig::new(KEYS));
        let mut adaptive =
            AdaptiveJoin::new(switch, ControllerConfig::new(data.parents.len() as u64));
        let controller_pairs = adaptive.run_to_end().expect("adaptive failed");
        let switch_at = adaptive.switch_event().expect("no switch").after_tuples;

        let mut manual = SwitchJoin::new(scan(&data), SwitchJoinConfig::new(KEYS));
        manual.open().expect("open failed");
        for _ in 0..switch_at {
            assert!(manual.advance().expect("advance failed"));
        }
        manual.switch_to_approximate().expect("switch failed");
        let mut manual_pairs = Vec::new();
        while let Some(p) = manual.next().expect("next failed") {
            manual_pairs.push(p);
        }
        manual.close().expect("close failed");

        assert_eq!(id_set(&manual_pairs), id_set(&controller_pairs));
        assert_no_duplicates(&manual_pairs);
    }
}

#[cfg(test)]
mod parallel_equivalence {
    use super::common::*;
    use linkage_datagen::{generate, DatagenConfig, GeneratedData};
    use linkage_exec::{ParallelJoin, ParallelJoinConfig};
    use linkage_operators::{oracle, Operator};
    use linkage_text::QGramJaccard;
    use linkage_types::{MatchPair, RecordId};
    use proptest::prelude::*;
    use std::collections::HashSet;

    const THETA_SIM: f64 = 0.8;

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
            config = config.with_forced_switch_after(after);
        }
        let mut join = ParallelJoin::new(scan(data), config);
        let pairs = join.run_to_end().expect("parallel join failed");
        if force_switch_after.is_some() {
            assert!(join.switch_event().is_some(), "forced switch must fire");
        }
        pairs
    }

    fn exact_oracle(data: &GeneratedData) -> HashSet<(RecordId, RecordId)> {
        id_set(
            &oracle::nested_loop_exact(&data.parents, &data.children, KEYS, &Default::default())
                .expect("oracle failed"),
        )
    }

    fn similarity_oracle(data: &GeneratedData) -> HashSet<(RecordId, RecordId)> {
        id_set(
            &oracle::nested_loop_similarity(
                &data.parents,
                &data.children,
                KEYS,
                &Default::default(),
                &QGramJaccard::default(),
                THETA_SIM,
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
    use linkage_operators::oracle;
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
    use linkage_operators::{oracle, ExactJoinCore, PreparedBatch, ReferenceSshCore, SshJoinCore};
    use linkage_text::{NormalizeConfig, QGramCoefficient, QGramConfig};
    use linkage_types::{MatchKind, MatchPair, ShardId, Side, SidedRecord};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    const THETA: f64 = 0.8;

    /// The interleaved tuple feed both kernels consume, in stream order.
    fn feed(data: &GeneratedData) -> Vec<SidedRecord> {
        let mut tuples = Vec::new();
        let (parents, children) = (data.parents.records(), data.children.records());
        let mut i = 0;
        while i < parents.len() || i < children.len() {
            if let Some(p) = parents.get(i) {
                tuples.push(SidedRecord::new(Side::Left, p.clone()));
            }
            if let Some(c) = children.get(i) {
                tuples.push(SidedRecord::new(Side::Right, c.clone()));
            }
            i += 1;
        }
        tuples
    }

    /// The stream view the bit-identical comparison uses: pair identity,
    /// kind **and** the exact similarity bits.
    fn view(
        pairs: &VecDeque<MatchPair>,
    ) -> Vec<(
        (linkage_types::RecordId, linkage_types::RecordId),
        MatchKind,
    )> {
        pairs.iter().map(|p| (p.id_pair(), p.kind)).collect()
    }

    /// Run the interned kernel and the string-keyed reference over the
    /// same feed (optionally switching from an exact phase after
    /// `switch_at` tuples) and require bit-identical output streams;
    /// returns the interned kernel's pairs for the oracle comparison.
    fn run_both(
        tuples: &[SidedRecord],
        coefficient: QGramCoefficient,
        switch_at: Option<usize>,
    ) -> Vec<MatchPair> {
        let (mut fast_out, mut ref_out) = (VecDeque::new(), VecDeque::new());

        let (mut fast, mut reference) = match switch_at {
            None => (
                SshJoinCore::new(KEYS, QGramConfig::default(), THETA).with_coefficient(coefficient),
                ReferenceSshCore::new(KEYS, QGramConfig::default(), THETA)
                    .with_coefficient(coefficient),
            ),
            Some(at) => {
                // Exact phase first: both kernels take over the *same*
                // accumulated hash tables, mirroring the §3.3 handover.
                // The exact phase's own emissions open both streams —
                // the handover suppresses exactly those pairs, so the
                // combined stream is the full join result.
                let mut exact = ExactJoinCore::new(KEYS, NormalizeConfig::default());
                let mut exact_out = VecDeque::new();
                for sided in &tuples[..at] {
                    exact.process(sided.clone(), &mut exact_out).unwrap();
                }
                fast_out.extend(exact_out.iter().cloned());
                ref_out.extend(exact_out.iter().cloned());
                let tables = exact.into_tables();
                let (fast, fast_recovered) = SshJoinCore::new(KEYS, QGramConfig::default(), THETA)
                    .with_coefficient(coefficient)
                    .with_exact_state(tables.clone(), &mut fast_out);
                let (reference, ref_recovered) =
                    ReferenceSshCore::new(KEYS, QGramConfig::default(), THETA)
                        .with_coefficient(coefficient)
                        .with_exact_state(tables, &mut ref_out);
                assert_eq!(
                    fast_recovered, ref_recovered,
                    "handover recovery counts must agree"
                );
                (fast, reference)
            }
        };

        let rest = switch_at.unwrap_or(0);
        for sided in &tuples[rest..] {
            fast.process(sided.clone(), &mut fast_out).unwrap();
            reference.process(sided.clone(), &mut ref_out).unwrap();
        }

        assert_eq!(
            view(&fast_out),
            view(&ref_out),
            "interned kernel and string-keyed reference diverged \
             ({}, switch_at {switch_at:?})",
            coefficient.name()
        );
        assert_eq!(fast.stored(), reference.stored());
        assert_eq!(fast.emitted_exact(), reference.emitted_exact());
        assert_eq!(fast.emitted_approx(), reference.emitted_approx());
        fast_out.into_iter().collect()
    }

    /// Like [`view`], over the collected pair vectors the runners return.
    fn view_vec(
        pairs: &[MatchPair],
    ) -> Vec<(
        (linkage_types::RecordId, linkage_types::RecordId),
        MatchKind,
    )> {
        pairs.iter().map(|p| (p.id_pair(), p.kind)).collect()
    }

    /// Run the interned kernel through the **batched** entry point
    /// (`probe_batch_into`, every tuple homed on one pseudo-shard) over
    /// the same feed, chunked into `batch_size` tuple batches.  With
    /// `switch_at`, an exact phase runs first and the handover happens
    /// at an arbitrary stream position — i.e. mid-batch from the batched
    /// execution's point of view, since `switch_at` need not be a
    /// multiple of `batch_size`.
    fn run_batched(
        tuples: &[SidedRecord],
        coefficient: QGramCoefficient,
        switch_at: Option<usize>,
        batch_size: usize,
    ) -> Vec<MatchPair> {
        let home = ShardId(0);
        let mut out = VecDeque::new();
        let mut core = match switch_at {
            None => {
                SshJoinCore::new(KEYS, QGramConfig::default(), THETA).with_coefficient(coefficient)
            }
            Some(at) => {
                let mut exact = ExactJoinCore::new(KEYS, NormalizeConfig::default());
                for sided in &tuples[..at] {
                    exact.process(sided.clone(), &mut out).unwrap();
                }
                let (core, _) = SshJoinCore::new(KEYS, QGramConfig::default(), THETA)
                    .with_coefficient(coefficient)
                    .with_exact_state(exact.into_tables(), &mut out);
                core
            }
        };
        // An empty batch up front must be a no-op on the stream.
        core.probe_batch_into(&PreparedBatch::default(), Some(home), &mut out)
            .unwrap();
        let rest = switch_at.unwrap_or(0);
        for chunk in tuples[rest..].chunks(batch_size.max(1)) {
            let mut batch = PreparedBatch::with_capacity(chunk.len());
            for sided in chunk {
                let (key, grams) = core.prepare(sided).unwrap();
                batch.push(sided.clone(), key, grams, home);
            }
            core.probe_batch_into(&batch, Some(home), &mut out).unwrap();
        }
        out.into_iter().collect()
    }

    fn oracle_set(
        data: &GeneratedData,
        coefficient: QGramCoefficient,
    ) -> std::collections::HashSet<(linkage_types::RecordId, linkage_types::RecordId)> {
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
            let pairs = run_both(&tuples, coefficient, None);
            assert_no_duplicates(&pairs);
            assert_eq!(
                id_set(&pairs),
                oracle_set(&data, coefficient),
                "{} kernel disagrees with its oracle",
                coefficient.name()
            );
        }
    }

    #[test]
    fn switch_path_agrees_with_reference_and_oracle() {
        let data = generate(&DatagenConfig::mid_stream_dirty(60, 52)).expect("datagen failed");
        let tuples = feed(&data);
        for switch_at in [0, 1, tuples.len() / 3, tuples.len() / 2, tuples.len()] {
            let pairs = run_both(&tuples, QGramCoefficient::Jaccard, Some(switch_at));
            assert_no_duplicates(&pairs);
            assert_eq!(
                id_set(&pairs),
                oracle_set(&data, QGramCoefficient::Jaccard),
                "switch at {switch_at} changed the match set"
            );
        }
    }

    /// Run both kernels over the feed with a coefficient change applied
    /// (via `set_coefficient`) after `change_at` tuples, requiring
    /// bit-identical streams throughout.  There is no static oracle for
    /// a mid-stream coefficient schedule — each pair is scored under the
    /// coefficient active when its later tuple arrives — so bit-identity
    /// with the independently implemented reference is the check.
    fn run_both_with_coefficient_change(
        tuples: &[SidedRecord],
        first: QGramCoefficient,
        second: QGramCoefficient,
        change_at: usize,
    ) {
        let mut fast =
            SshJoinCore::new(KEYS, QGramConfig::default(), THETA).with_coefficient(first);
        let mut reference =
            ReferenceSshCore::new(KEYS, QGramConfig::default(), THETA).with_coefficient(first);
        let (mut fast_out, mut ref_out) = (VecDeque::new(), VecDeque::new());
        for (i, sided) in tuples.iter().enumerate() {
            if i == change_at {
                fast.set_coefficient(second);
                reference.set_coefficient(second);
            }
            fast.process(sided.clone(), &mut fast_out).unwrap();
            reference.process(sided.clone(), &mut ref_out).unwrap();
        }
        assert_eq!(
            view(&fast_out),
            view(&ref_out),
            "kernels diverged under a {} → {} change at {change_at}",
            first.name(),
            second.name()
        );
        assert_eq!(fast.emitted_exact(), reference.emitted_exact());
        assert_eq!(fast.emitted_approx(), reference.emitted_approx());
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
                run_both_with_coefficient_change(&tuples, first, second, change_at);
            }
        }
    }

    #[test]
    fn batched_probe_is_bit_identical_to_serial_and_reference() {
        // `run_both` already proves serial == reference bit-identically,
        // so serial == batched closes the three-way agreement.  Batch
        // sizes cover singleton batches, sizes that don't divide the
        // stream, and one batch holding the whole feed.
        let data = generate(&DatagenConfig::mid_stream_dirty(60, 54)).expect("datagen failed");
        let tuples = feed(&data);
        for coefficient in QGramCoefficient::ALL {
            let serial = run_both(&tuples, coefficient, None);
            for batch_size in [1, 3, 8, 64, tuples.len()] {
                let batched = run_batched(&tuples, coefficient, None, batch_size);
                assert_eq!(
                    view_vec(&serial),
                    view_vec(&batched),
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
        for switch_at in [0, 1, tuples.len() / 3, tuples.len() / 2, tuples.len()] {
            let serial = run_both(&tuples, QGramCoefficient::Jaccard, Some(switch_at));
            for batch_size in [1, 5, 64] {
                let batched = run_batched(
                    &tuples,
                    QGramCoefficient::Jaccard,
                    Some(switch_at),
                    batch_size,
                );
                assert_eq!(
                    view_vec(&serial),
                    view_vec(&batched),
                    "batched handover diverged (switch_at {switch_at}, \
                     batch_size {batch_size})"
                );
            }
        }
    }

    proptest! {
        /// Randomized workloads: the interned kernel is bit-identical to
        /// the string-keyed reference and set-identical to the quadratic
        /// oracle, for every coefficient.
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
            let pairs = run_both(&tuples, coefficient, None);
            assert_no_duplicates(&pairs);
            prop_assert_eq!(id_set(&pairs), oracle_set(&data, coefficient));
        }

        /// A mid-stream coefficient change at an arbitrary position
        /// keeps the prefix kernel bit-identical to the reference (the
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
            run_both_with_coefficient_change(
                &tuples,
                QGramCoefficient::ALL[first_idx],
                QGramCoefficient::ALL[second_idx],
                change_at,
            );
        }

        /// The batched probe entry point stays bit-identical to the
        /// serial kernel (and hence the reference) under random batch
        /// sizes, coefficients and switch positions.
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
            let serial = run_both(&tuples, coefficient, Some(switch_at));
            let batched = run_batched(&tuples, coefficient, Some(switch_at), batch_size);
            prop_assert_eq!(view_vec(&serial), view_vec(&batched));
        }

        /// The §3.3 mid-stream switch/handover at an arbitrary stream
        /// position preserves all three-way agreement.
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
            let pairs = run_both(&tuples, coefficient, Some(switch_at));
            assert_no_duplicates(&pairs);
            prop_assert_eq!(id_set(&pairs), oracle_set(&data, coefficient));
        }
    }
}

#[cfg(test)]
mod protocol {
    use super::common::*;
    use linkage_core::{AdaptiveJoin, ControllerConfig};
    use linkage_datagen::{generate, DatagenConfig};
    use linkage_operators::{Operator, OperatorState, SwitchJoin, SwitchJoinConfig};

    #[test]
    fn lifecycle_is_enforced_through_the_whole_stack() {
        let data = generate(&DatagenConfig::clean(10, 1)).expect("datagen failed");
        let switch = SwitchJoin::new(scan(&data), SwitchJoinConfig::new(KEYS));
        let mut join = AdaptiveJoin::new(switch, ControllerConfig::new(10));

        assert_eq!(join.state(), OperatorState::Created);
        assert!(join.next().is_err(), "next before open must fail");
        join.open().expect("open failed");
        assert!(join.open().is_err(), "double open must fail");
        assert!(join.next().expect("next failed").is_some());
        join.close().expect("close failed");
        assert!(join.next().is_err(), "next after close must fail");
        assert_eq!(join.state(), OperatorState::Closed);
    }

    #[test]
    fn batch_pulls_cross_the_stack() {
        let data = generate(&DatagenConfig::clean(30, 2)).expect("datagen failed");
        let mut join = SwitchJoin::new(scan(&data), SwitchJoinConfig::new(KEYS));
        join.open().expect("open failed");
        let first = join.next_batch(10).expect("batch failed");
        assert_eq!(first.len(), 10);
        let rest = join.next_batch(1000).expect("batch failed");
        assert_eq!(first.len() + rest.len(), 30);
        join.close().expect("close failed");
    }
}

#[cfg(test)]
mod snapshot_resume {
    use linkage::api::{MatchEvent, MatchStream, Pipeline, PipelineBuilder, QGramCoefficient};
    use linkage_datagen::{generate, DatagenConfig, GeneratedData};
    use linkage_types::snapshot::{SnapshotFile, FORMAT_VERSION, MAGIC};
    use linkage_types::LinkageError;
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
        // may already hold post-switch state plus a stashed recovered
        // pair), and just after it.
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
}

#[cfg(test)]
mod server_service {
    //! The `linkage-server` session service against in-process ground
    //! truth: eviction round trips across the §3.3 switch boundary,
    //! interleaved multi-session isolation, and the `docs/server.md`
    //! spec constants.

    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use linkage::api::{ExecutionMode, Pipeline, PipelineConfig, SwitchPolicy};
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

    /// Ground truth: the same config over the same feed order as a
    /// direct in-process session, every event collected.
    fn solo_events(config: &PipelineConfig, sequence: &[SidedRecord]) -> Vec<WireEvent> {
        let (pipeline, input) = Pipeline::builder()
            .config(config.clone())
            .session()
            .expect("session build");
        let stream = pipeline.run().expect("session run");
        for record in sequence {
            input.push_sided(record.clone()).expect("push");
        }
        input.finish();
        stream
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
        let expected = solo_events(&config, &sequence);
        assert!(
            expected.iter().any(|e| matches!(e, WireEvent::Switched(_))),
            "the forced switch must appear in the event stream"
        );

        for cut in [switch_at - 1, switch_at, switch_at + 1] {
            for polled in [0usize, 1, 3] {
                let dir = scratch_dir("switch-evict");
                let mut manager = SessionManager::new(2, u64::MAX, dir).expect("manager");
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

    /// One facade-level evict → rehydrate cycle: push the first `cut`
    /// records, let the engine consume all but (at least) `hold_back` of
    /// them, deliver `polled` events, snapshot; then rebuild the
    /// pipeline, position a fresh input where the old one stood (only
    /// the unconsumed records come back), resume, and feed the rest.
    /// Returns every event of the two halves plus how many records were
    /// pending at the cut.
    fn cycle_events(
        config: &PipelineConfig,
        sequence: &[SidedRecord],
        cut: usize,
        hold_back: usize,
        polled: usize,
    ) -> (Vec<WireEvent>, usize) {
        let (pipeline, input) = Pipeline::builder()
            .config(config.clone())
            .session()
            .expect("session build");
        let mut stream = pipeline.run().expect("session run");
        for record in &sequence[..cut] {
            input.push_sided(record.clone()).expect("push");
        }
        stream.advance((cut - hold_back) as u64).expect("advance");
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
        let pending = input.buffered_records();
        assert!(pending.len() >= hold_back);
        let consumed = input.pushed() - pending.len() as u64;
        drop(stream);

        let (pipeline, input) = Pipeline::builder()
            .config(config.clone())
            .session()
            .expect("session rebuild");
        let held = pending.len();
        input
            .restore_position(consumed, pending)
            .expect("reposition");
        assert_eq!(input.pushed(), cut as u64);
        let mut stream = pipeline.resume_from(&snapshot).expect("resume");
        assert_eq!(
            input.buffered(),
            held,
            "resume must not pull a replayed prefix"
        );
        for record in &sequence[cut..] {
            input.push_sided(record.clone()).expect("push rest");
        }
        stream.advance(input.pushed()).expect("advance rest");
        input.finish();
        events.extend(stream.map(|event| wire_event(&event.expect("event"))));
        (events, held)
    }

    /// Rehydration restores the input at its absolute position: with
    /// nothing, one record, and a whole epoch pushed but not yet
    /// consumed at the cut — serial and on two shards, before, at and
    /// after the §3.3 switch — the two halves together are the
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
            let expected = solo_events(&config, &sequence);
            assert!(expected.iter().any(|e| matches!(e, WireEvent::Switched(_))));

            let mut most_pending = 0;
            for cut in [switch_at - 2 * BATCH, switch_at, switch_at + 4 * BATCH] {
                for hold_back in [0, 1, BATCH] {
                    for polled in [0, 3] {
                        let (got, pending) =
                            cycle_events(&config, &sequence, cut, hold_back, polled);
                        assert_eq!(
                            got, expected,
                            "{execution:?} cut={cut} hold_back={hold_back} polled={polled}"
                        );
                        most_pending = most_pending.max(pending);
                    }
                }
            }
            assert!(most_pending >= BATCH, "a whole epoch was held back");
        }
    }

    /// The same through the server's own eviction: a sharded session
    /// parks with part of an epoch unconsumed, so its sidecar carries
    /// exactly those records — not the feed log — and the rehydrated
    /// session continues bit-identically.
    #[test]
    fn a_sharded_session_evicts_with_only_its_pending_input_in_the_sidecar() {
        const BATCH: usize = 8;
        let data = generate(&DatagenConfig::mid_stream_dirty(80, 17)).expect("datagen");
        let sequence = feed_sequence(&data);
        let mut config = session_config(data.parents.len() as u64);
        config.execution = ExecutionMode::Sharded { shards: 2 };
        config.batch_size = BATCH;
        let expected = solo_events(&config, &sequence);

        for cut in [BATCH * 3, BATCH * 3 + 1, BATCH * 4 - 1, sequence.len() - 5] {
            let dir = scratch_dir("sharded-evict");
            let mut manager = SessionManager::new(2, u64::MAX, dir.clone()).expect("manager");
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
            assert!(pending < cut, "the sidecar must not hold the feed log");
            if cut < sequence.len() / 4 {
                // Still exact: whole epochs are consumed, the rest waits.
                assert_eq!(pending, cut % BATCH, "cut={cut}");
            }

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
                .zip(&sequences)
                .map(|(c, s)| solo_events(c, s))
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
    }
}
