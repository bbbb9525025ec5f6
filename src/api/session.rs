//! The session lifecycle at the facade: a
//! [session](crate::api::PipelineBuilder::session) pipeline's
//! [`MatchStream`](crate::api::MatchStream) is fed records in order,
//! pops what they make ready, ends its input with `finish`, and resumes
//! from its own snapshot as a whole: at the absolute position the engine
//! state ends, with the pending records and the ended input that the
//! snapshot's `INPUT` section holds.

#[cfg(test)]
mod tests {
    use linkage_types::snapshot::SnapshotFile;
    use linkage_types::{LinkageError, Record, RecordId, Side, SidedRecord, Value};

    use crate::api::{MatchEvent, MatchStream, Pipeline, PipelineBuilder};

    fn sided(side: Side, id: u64) -> SidedRecord {
        SidedRecord::new(side, Record::new(id, vec![Value::string("k")]))
    }

    fn session() -> PipelineBuilder {
        Pipeline::builder()
            .key_column(0)
            .reference_size(8)
            .never_switch()
    }

    fn pair(event: Option<linkage_types::Result<MatchEvent>>) -> (RecordId, RecordId) {
        match event {
            Some(Ok(MatchEvent::Match(pair))) => pair.id_pair(),
            other => panic!("expected a match, got {other:?}"),
        }
    }

    fn drain_pairs(stream: &mut MatchStream) -> (Vec<(RecordId, RecordId)>, u64) {
        let mut pairs = Vec::new();
        for event in stream.by_ref() {
            match event.expect("drain failed") {
                MatchEvent::Match(pair) => pairs.push(pair.id_pair()),
                MatchEvent::Finished(report) => return (pairs, report.total_consumed()),
                _ => {}
            }
        }
        panic!("stream ended without a Finished event")
    }

    #[test]
    fn pushes_flow_through_in_order_and_finish_ends_the_stream() {
        let mut stream = session().session().unwrap().run().unwrap();
        stream
            .feed(&[sided(Side::Left, 1), sided(Side::Right, 2)])
            .unwrap();
        stream.feed(&[sided(Side::Right, 3)]).unwrap();
        assert_eq!(stream.consumed(), 3);
        assert!(stream.pending_input().is_empty());
        assert_eq!(pair(stream.next_ready()), (1.into(), 2.into()));
        assert_eq!(pair(stream.next_ready()), (1.into(), 3.into()));
        assert!(stream.next_ready().is_none());
        stream.finish();
        assert!(matches!(
            stream.feed(&[sided(Side::Left, 4)]),
            Err(LinkageError::OperatorState(_))
        ));
        assert_eq!(drain_pairs(&mut stream), (Vec::new(), 3));
        assert!(stream.next().is_none());
    }

    #[test]
    fn a_restored_position_keeps_absolute_counts_and_only_the_pending_records() {
        let records: Vec<_> = (1..=8)
            .map(|id| sided(if id % 2 == 1 { Side::Left } else { Side::Right }, id))
            .collect();
        let sharded = || session().sharded(2).batch_size(4).session().unwrap();
        let (expected, _) = {
            let mut whole = sharded().run().unwrap();
            whole.feed(&records).unwrap();
            whole.finish();
            drain_pairs(&mut whole)
        };

        let mut stream = sharded().run().unwrap();
        stream.feed(&records[..7]).unwrap();
        assert_eq!(stream.consumed(), 4);
        assert_eq!(stream.pending_input(), &records[4..7]);
        let mut got = Vec::new();
        while let Some(event) = stream.next_ready() {
            if let MatchEvent::Match(pair) = event.unwrap() {
                got.push(pair.id_pair());
            }
        }
        let snapshot =
            SnapshotFile::from_vec(stream.snapshot_builder().unwrap().to_bytes()).unwrap();
        let pending = stream.pending_input().to_vec();
        drop(stream);

        let mut stream = sharded().resume_from(&snapshot).unwrap();
        assert_eq!(stream.consumed(), 4, "the count is absolute, not reset");
        assert_eq!(stream.pending_input(), pending.as_slice());
        assert!(!stream.input_ended());
        stream.feed(&records[7..]).unwrap();
        assert_eq!(stream.consumed(), 8);
        assert!(stream.pending_input().is_empty());
        stream.finish();
        let (rest, consumed) = drain_pairs(&mut stream);
        got.extend(rest);
        assert_eq!(consumed, 8);
        assert_eq!(got, expected);
    }

    #[test]
    fn an_ended_input_resumes_ended_and_a_batch_snapshot_holds_no_input() {
        let records: Vec<_> = (1..=7)
            .map(|id| sided(if id % 2 == 1 { Side::Left } else { Side::Right }, id))
            .collect();
        let sharded = || session().sharded(2).batch_size(4).session().unwrap();
        let mut whole = sharded().run().unwrap();
        whole.feed(&records).unwrap();
        whole.finish();
        let expected = drain_pairs(&mut whole);

        let mut stream = sharded().run().unwrap();
        stream.feed(&records).unwrap();
        stream.finish();
        let snapshot =
            SnapshotFile::from_vec(stream.snapshot_builder().unwrap().to_bytes()).unwrap();
        drop(stream);
        let mut stream = sharded().resume_from(&snapshot).unwrap();
        assert!(stream.input_ended());
        assert!(matches!(
            stream.feed(&records[..1]),
            Err(LinkageError::OperatorState(_))
        ));
        // No second `finish`: the snapshot said the input had ended.
        assert_eq!(drain_pairs(&mut stream), expected);

        let relation = |side: Side| {
            let records = records.iter().filter(|r| r.side == side);
            crate::api::Source::records(
                linkage_types::Schema::new(vec![linkage_types::Field::new(
                    "k",
                    linkage_types::DataType::String,
                )])
                .unwrap(),
                records.map(|r| r.record.clone()),
            )
        };
        let mut batch = session()
            .left(relation(Side::Left))
            .right(relation(Side::Right))
            .run()
            .unwrap();
        let file = SnapshotFile::from_vec(batch.snapshot_builder().unwrap().to_bytes()).unwrap();
        let input = linkage_types::snapshot::kind::INPUT as u32;
        assert!(file.try_section(input).is_none());
        assert!(snapshot.try_section(input).is_some());
    }

    #[test]
    fn starvation_is_a_typed_error_not_an_end() {
        let mut stream = session().session().unwrap().run().unwrap();
        // Nothing ready is not the end: a later feed flows through.
        assert!(stream.next_ready().is_none());
        stream
            .feed(&[sided(Side::Left, 1), sided(Side::Right, 2)])
            .unwrap();
        assert_eq!(pair(stream.next_ready()), (1.into(), 2.into()));
        assert!(stream.next_ready().is_none());
        // Draining an unfinished input is a typed error, neither `None`
        // nor a `Finished` that would pass for the end of the input.
        assert!(matches!(
            stream.next(),
            Some(Err(LinkageError::Execution(_)))
        ));
    }
}
