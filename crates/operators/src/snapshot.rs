//! Section payload codecs for the operator layer of a pipeline snapshot.
//!
//! The container format (header, section table, checksums) lives in
//! [`linkage_types::snapshot`]; this module defines **what the operator
//! sections contain** and how a kernel is rebuilt from them.  The byte
//! layout of every payload here is specified in `docs/format.md`.
//!
//! The guiding principle is *replay, don't serialise*: a snapshot stores
//! only the arrival-order tuple columns of each kernel plus the handful
//! of counters replay cannot re-derive, so the on-disk format stays small
//! and stable while the in-memory layout is free to evolve.  Decoding
//! rebuilds every derived structure from those columns, and the replay
//! is a **bulk** one: the exact kernel re-inserts its tuples into a
//! pre-sized table ([`ExactJoinCore::insert_restored`]); the approximate
//! kernel validates and collects a side's whole column, then builds the
//! flat postings, the CSR gram column and the length and signature
//! columns in one counted pass (`SshJoinCore::bulk_restore`) — the index
//! per-tuple inserts would have built, without regrowing a posting list
//! once.  A test holds the bulk loader to the per-tuple replay it
//! replaced.
//!
//! Bit-identity of a resumed match stream rests on two details encoded
//! here:
//!
//! * the interner section persists gram texts **and** document
//!   frequencies in id order, so restored gram ids and the rare-first
//!   ranking are exactly those of the interrupted run;
//! * each stored q-gram set persists its original probe order (not
//!   re-ranked on restore), so a resumed probe scans posting lists in
//!   precisely the order the interrupted run would have.

use std::sync::Arc;

use linkage_text::{GramId, GramInterner, QGramSet, SharedInterner};
use linkage_types::snapshot::{Decoder, Encoder};
use linkage_types::{LinkageError, MatchPair, PerSide, Result, Side};

use crate::exact::ExactJoinCore;
use crate::ssh::{ProbeFunnel, SshJoinCore, SshStored};
use crate::switch::{PerKind, SwitchJoinConfig};

/// Encode the shared gram interner: entry count, then every gram text in
/// id order, then the document-frequency column in the same order.
pub fn encode_interner(interner: &SharedInterner) -> Vec<u8> {
    let guard = interner.lock();
    let mut e = Encoder::new();
    e.put_u32(guard.len() as u32);
    for text in guard.texts() {
        e.put_str(text);
    }
    for &freq in guard.doc_freqs() {
        e.put_u32(freq);
    }
    e.finish()
}

/// Decode an interner section back into a table (ids are assigned in
/// storage order, so they match the snapshotted run exactly).
pub fn decode_interner(bytes: &[u8]) -> Result<GramInterner> {
    let mut d = Decoder::new(bytes, "INTERNER");
    // Per gram at least a text length prefix and a frequency.
    let n = d.get_count(8)?;
    let mut texts = Vec::with_capacity(n);
    for _ in 0..n {
        texts.push(Arc::<str>::from(d.get_str()?));
    }
    let doc_freq = le_u32s(d.get_raw(n * 4)?).collect();
    d.finish()?;
    GramInterner::from_parts(texts, doc_freq)
}

/// The `u32`s of a little-endian fixed-width column.
fn le_u32s(column: &[u8]) -> impl ExactSizeIterator<Item = u32> + '_ {
    column
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

/// Fewest payload bytes one [`Record`](linkage_types::Record) can
/// occupy: id `u64` + arity `u32`.
const MIN_RECORD_BYTES: usize = 12;

/// Encode an exact-phase kernel: per side the arrival-order tuple column
/// (record, normalised key, matched-exactly flag), then the emission
/// counter.
pub fn encode_exact_core(core: &ExactJoinCore) -> Vec<u8> {
    let mut e = Encoder::new();
    for side in Side::BOTH {
        let tuples = core.tables()[side].tuples();
        e.put_u32(tuples.len() as u32);
        for t in tuples {
            e.put_record(&t.record);
            e.put_str(&t.key);
            e.put_bool(t.matched_exactly);
        }
    }
    e.put_u64(core.emitted());
    e.finish()
}

/// Decode an exact-core section by replaying every insert in arrival
/// order into a fresh kernel built from `config`.
pub fn decode_exact_core(bytes: &[u8], config: &SwitchJoinConfig) -> Result<ExactJoinCore> {
    let mut d = Decoder::new(bytes, "EXACT_CORE");
    let mut core = config.exact_core();
    for side in Side::BOTH {
        // Per tuple at least a record, a key length prefix and a flag.
        let n = d.get_count(MIN_RECORD_BYTES + 4 + 1)?;
        core.reserve_restored(side, n);
        for _ in 0..n {
            let record = d.get_record()?;
            let key = d.get_str()?;
            let matched = d.get_bool()?;
            core.insert_restored(side, record, key, matched)?;
        }
    }
    let emitted = d.get_u64()?;
    d.finish()?;
    core.set_emitted(emitted);
    Ok(core)
}

/// Encode an approximate-phase kernel: per side the arrival-order tuple
/// column (record, key, gram ids ascending, the original probe order,
/// window count, matched-exactly flag), then the emission counters and
/// the cumulative probe funnel.
pub fn encode_ssh_core(core: &SshJoinCore) -> Vec<u8> {
    let mut e = Encoder::new();
    for side in Side::BOTH {
        let tuples = core.indexes()[side].tuples();
        e.put_u32(tuples.len() as u32);
        for t in tuples {
            e.put_record(&t.record);
            e.put_str(&t.key);
            e.put_u32(t.grams.len() as u32);
            for id in t.grams.gram_ids() {
                e.put_u32(id.as_u32());
            }
            for id in t.grams.probe_order() {
                e.put_u32(id.as_u32());
            }
            e.put_u64(t.grams.window_count() as u64);
            e.put_bool(t.matched_exactly);
        }
    }
    e.put_u64(core.emitted_exact());
    e.put_u64(core.emitted_approx());
    let funnel = core.funnel();
    e.put_u64(funnel.candidates_scanned);
    e.put_u64(funnel.candidates_after_length_filter);
    e.put_u64(funnel.candidates_verified);
    e.put_u64(funnel.prefix_postings_skipped);
    e.finish()
}

/// Decode an ssh-core section into a fresh kernel built from `config`
/// over `interner` (which must already hold the restored table — gram
/// ids in the payload index into it), bulk-loading each side's index
/// from its decoded tuple column.
pub fn decode_ssh_core(
    bytes: &[u8],
    config: &SwitchJoinConfig,
    interner: SharedInterner,
) -> Result<SshJoinCore> {
    let interner_len = interner.len();
    let mut d = Decoder::new(bytes, "SSH_CORE");
    let mut core = config.ssh_core_with(interner);
    // One stamp per gram id validates a tuple's two id columns in O(n):
    // the sorted column stamps its (in-range, strictly ascending) ids
    // with the tuple's epoch, and each probe-order id must find that
    // stamp and bumps it — so the `n` probe ids are `n` distinct members
    // of the `n`-id set, i.e. a permutation of it.
    let mut stamps = vec![0u64; interner_len];
    let mut epoch = 0u64;
    let mut sides = PerSide::<Vec<SshStored>>::default();
    for side in Side::BOTH {
        // Per tuple at least a record, a key length prefix, a gram
        // count, a window count and a flag.
        let n = d.get_count(MIN_RECORD_BYTES + 4 + 4 + 8 + 1)?;
        let tuples = &mut sides[side];
        tuples.reserve_exact(n);
        for _ in 0..n {
            let record = d.get_record()?;
            let key = Arc::<str>::from(d.get_str()?);
            let gram_count = d.get_count(8)?;
            let (sorted, order) = d.get_raw(gram_count * 8)?.split_at(gram_count * 4);
            epoch += 2;
            let mut grams = Vec::with_capacity(gram_count);
            let mut prev = None;
            for raw in le_u32s(sorted) {
                let Some(stamp) = stamps.get_mut(raw as usize) else {
                    return Err(LinkageError::snapshot(format!(
                        "SSH_CORE section: gram id {raw} is outside the restored \
                         interner ({interner_len} grams)"
                    )));
                };
                if prev.is_some_and(|prev| raw <= prev) {
                    return Err(LinkageError::snapshot(
                        "SSH_CORE section: gram ids are not strictly ascending",
                    ));
                }
                prev = Some(raw);
                *stamp = epoch;
                grams.push(GramId::new(raw));
            }
            let mut probe_order = Vec::with_capacity(gram_count);
            for raw in le_u32s(order) {
                match stamps.get_mut(raw as usize) {
                    Some(stamp) if *stamp == epoch => *stamp = epoch + 1,
                    _ => {
                        return Err(LinkageError::snapshot(
                            "SSH_CORE section: probe order is not a permutation of the gram ids",
                        ))
                    }
                }
                probe_order.push(GramId::new(raw));
            }
            let window_count = d.get_u64()? as usize;
            let matched_exactly = d.get_bool()?;
            tuples.push(SshStored {
                record,
                key,
                grams: QGramSet::from_parts(grams, probe_order, window_count),
                matched_exactly,
            });
        }
    }
    let emitted_exact = d.get_u64()?;
    let emitted_approx = d.get_u64()?;
    let funnel = ProbeFunnel {
        candidates_scanned: d.get_u64()?,
        candidates_after_length_filter: d.get_u64()?,
        candidates_verified: d.get_u64()?,
        prefix_postings_skipped: d.get_u64()?,
    };
    d.finish()?;
    core.bulk_restore(sides, emitted_exact, emitted_approx, funnel);
    Ok(core)
}

/// Encode a buffered match-pair queue, oldest first.
pub fn encode_pairs<'a>(pairs: impl ExactSizeIterator<Item = &'a MatchPair>) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(pairs.len() as u32);
    for pair in pairs {
        e.put_pair(pair);
    }
    e.finish()
}

/// Decode a match-pair queue section.
pub fn decode_pairs(bytes: &[u8]) -> Result<Vec<MatchPair>> {
    let mut d = Decoder::new(bytes, "PENDING");
    // Per pair at least two records and a kind tag.
    let n = d.get_count(2 * MIN_RECORD_BYTES + 1)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push(d.get_pair()?);
    }
    d.finish()?;
    Ok(pairs)
}

/// Append a [`PerKind`] counter pair to an in-progress payload.
pub fn put_per_kind(e: &mut Encoder, kinds: PerKind) {
    e.put_u64(kinds.exact);
    e.put_u64(kinds.approximate);
}

/// Read back a [`PerKind`] counter pair.
pub fn get_per_kind(d: &mut Decoder<'_>) -> Result<PerKind> {
    Ok(PerKind {
        exact: d.get_u64()?,
        approximate: d.get_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkage_types::{MatchKind, PerSide, Record, SidedRecord, Value};
    use std::collections::VecDeque;

    fn rec(id: u64, key: &str) -> Record {
        Record::new(id, vec![Value::string(key)])
    }

    fn config() -> SwitchJoinConfig {
        SwitchJoinConfig::new(PerSide::new(0, 0))
    }

    fn run_exact(keys: &[(&str, Side)]) -> ExactJoinCore {
        let mut core = config().exact_core();
        let mut out = VecDeque::new();
        for (i, (key, side)) in keys.iter().enumerate() {
            let sided = SidedRecord::new(*side, rec(i as u64, key));
            core.process(sided, &mut out).unwrap();
        }
        core
    }

    #[test]
    fn exact_core_round_trips_through_the_codec() {
        let core = run_exact(&[
            ("santa cristina", Side::Left),
            ("santa cristina", Side::Right),
            ("genova nervi", Side::Left),
            ("torino centro", Side::Right),
        ]);
        let bytes = encode_exact_core(&core);
        let restored = decode_exact_core(&bytes, &config()).unwrap();
        assert_eq!(restored.emitted(), core.emitted());
        assert_eq!(restored.stored(), core.stored());
        for side in Side::BOTH {
            let (a, b) = (
                core.tables()[side].tuples(),
                restored.tables()[side].tuples(),
            );
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.record, y.record);
                assert_eq!(x.key, y.key);
                assert_eq!(x.matched_exactly, y.matched_exactly);
            }
        }
    }

    #[test]
    fn ssh_core_round_trip_preserves_probe_order_and_future_output() {
        let cfg = config();
        let mut core = cfg.ssh_core();
        let mut out = VecDeque::new();
        let keys = [
            ("TAA BZ SANTA CRISTINA VALGARDENA", Side::Left),
            ("TAA BZ SANTA CRISTINx VALGARDENA", Side::Right),
            ("LIG GE GENOVA NERVI CAPOLUNGO", Side::Left),
            ("LIG GE GENOVA NERVI CAPOLUNGO", Side::Right),
        ];
        for (i, (key, side)) in keys.iter().enumerate() {
            let sided = SidedRecord::new(*side, rec(i as u64, key));
            core.process(sided, &mut out).unwrap();
        }

        let interner_bytes = encode_interner(core.interner());
        let core_bytes = encode_ssh_core(&core);

        let table = decode_interner(&interner_bytes).unwrap();
        let shared = SharedInterner::from_table(table);
        let mut restored = decode_ssh_core(&core_bytes, &cfg, shared).unwrap();

        assert_eq!(restored.emitted_exact(), core.emitted_exact());
        assert_eq!(restored.emitted_approx(), core.emitted_approx());
        assert_eq!(restored.funnel(), core.funnel());
        assert_eq!(restored.stored(), core.stored());
        for side in Side::BOTH {
            for (a, b) in core.indexes()[side]
                .tuples()
                .iter()
                .zip(restored.indexes()[side].tuples())
            {
                assert_eq!(a.grams.probe_order(), b.grams.probe_order());
                assert_eq!(a.grams.window_count(), b.grams.window_count());
                assert_eq!(a.matched_exactly, b.matched_exactly);
            }
        }

        // Future tuples produce identical matches through both cores.
        let next = SidedRecord::new(Side::Right, rec(9, "TAA BZ SANTA CRISTINA VALGARDENA"));
        let mut out_a = VecDeque::new();
        let mut out_b = VecDeque::new();
        core.process(next.clone(), &mut out_a).unwrap();
        restored.process(next, &mut out_b).unwrap();
        let a: Vec<_> = out_a.iter().map(|p| (p.id_pair(), p.kind)).collect();
        let b: Vec<_> = out_b.iter().map(|p| (p.id_pair(), p.kind)).collect();
        assert_eq!(a, b);
    }

    /// Decode `core` back twice — through the bulk loader and through a
    /// per-tuple `insert_restored` replay of the same decoded tuples —
    /// and check the two agree on everything observable.
    fn assert_bulk_load_equals_replay(core: &SshJoinCore, next: &[(&str, Side)]) {
        let cfg = config();
        let table = || {
            SharedInterner::from_table(decode_interner(&encode_interner(core.interner())).unwrap())
        };
        let mut bulk = decode_ssh_core(&encode_ssh_core(core), &cfg, table()).unwrap();
        let mut replay = cfg.ssh_core_with(table());
        for side in Side::BOTH {
            for stored in bulk.indexes()[side].tuples() {
                replay.insert_restored(side, stored.clone());
            }
        }

        assert_eq!(bulk.stored(), core.stored());
        assert_eq!(bulk.state_bytes(), replay.state_bytes());
        for side in Side::BOTH {
            let (b, r) = (&bulk.indexes()[side], &replay.indexes()[side]);
            assert_eq!(b.posting_entries(), r.posting_entries());
            assert_eq!(b.distinct_grams(), r.distinct_grams());
            assert!(
                b.postings_slack_bytes() <= r.postings_slack_bytes(),
                "{side:?}: bulk slack {} > replay slack {}",
                b.postings_slack_bytes(),
                r.postings_slack_bytes()
            );
            for pos in 0..b.len() {
                assert_eq!(b.gram_column(pos), r.gram_column(pos), "{side:?} pos {pos}");
                assert_eq!(
                    b.gram_column(pos),
                    b.tuples()[pos].grams.gram_ids(),
                    "{side:?} pos {pos}"
                );
            }
        }

        // Identical future output, pair for pair and counter for counter.
        let (mut out_b, mut out_r) = (VecDeque::new(), VecDeque::new());
        for (i, (key, side)) in next.iter().enumerate() {
            let sided = SidedRecord::new(*side, rec(1000 + i as u64, key));
            bulk.process(sided.clone(), &mut out_b).unwrap();
            replay.process(sided, &mut out_r).unwrap();
        }
        let pairs = |out: &VecDeque<MatchPair>| -> Vec<_> {
            out.iter().map(|p| (p.id_pair(), p.kind)).collect()
        };
        assert_eq!(pairs(&out_b), pairs(&out_r));
        // The bulk-loaded core carries the snapshotted funnel forward;
        // the replay started from zero.
        let mut funnel = core.funnel();
        funnel.absorb(replay.funnel());
        assert_eq!(bulk.funnel(), funnel);
        assert_eq!(bulk.state_bytes(), replay.state_bytes());
    }

    #[test]
    fn bulk_loaded_core_equals_the_per_tuple_replay() {
        let next = [
            ("TAA BZ SANTA CRISTINA VALGARDENA", Side::Right),
            ("LIG GE GENOVA NERVx CAPOLUNGO", Side::Left),
            ("", Side::Right),
            ("PIE TO TORINO CENTRO", Side::Left),
        ];

        // Both sides populated, a repeated key, a zero-gram (empty) key.
        let mut core = config().ssh_core();
        let mut out = VecDeque::new();
        for (i, (key, side)) in [
            ("TAA BZ SANTA CRISTINA VALGARDENA", Side::Left),
            ("TAA BZ SANTA CRISTINx VALGARDENA", Side::Right),
            ("LIG GE GENOVA NERVI CAPOLUNGO", Side::Left),
            ("LIG GE GENOVA NERVI CAPOLUNGO", Side::Right),
            ("", Side::Left),
            ("LIG GE GENOVA NERVI CAPOLUNGO", Side::Left),
            ("PIE TO TORINO CENTRx", Side::Right),
        ]
        .iter()
        .enumerate()
        {
            core.process(SidedRecord::new(*side, rec(i as u64, key)), &mut out)
                .unwrap();
        }
        assert!(
            core.indexes()[Side::Left]
                .tuples()
                .iter()
                .any(|t| t.grams.is_empty()),
            "the empty key must be resident with zero grams"
        );
        assert_bulk_load_equals_replay(&core, &next);

        // One side empty.
        let mut one_sided = config().ssh_core();
        for (i, key) in ["GENOVA NERVI", "GENOVA NERVI CAPOLUNGO", ""]
            .iter()
            .enumerate()
        {
            one_sided
                .process(SidedRecord::new(Side::Right, rec(i as u64, key)), &mut out)
                .unwrap();
        }
        assert_bulk_load_equals_replay(&one_sided, &next);

        // Nothing resident at all.
        assert_bulk_load_equals_replay(&config().ssh_core(), &next);
    }

    /// A CRC-valid section is still untrusted: a count no payload could
    /// hold must be a typed error before anything is allocated for it.
    #[test]
    fn impossible_counts_are_typed_errors_not_allocations() {
        let huge = |prefix: &dyn Fn(&mut Encoder)| {
            let mut e = Encoder::new();
            prefix(&mut e);
            e.put_u32(u32::MAX);
            e.put_u64(0);
            e.finish()
        };
        let is_typed = |err: LinkageError| {
            assert!(
                matches!(&err, LinkageError::Snapshot(m) if m.contains("count 4294967295")),
                "{err}"
            )
        };
        let plain = huge(&|_| {});
        is_typed(decode_interner(&plain).unwrap_err());
        is_typed(decode_pairs(&plain).unwrap_err());
        is_typed(decode_exact_core(&plain, &config()).unwrap_err());
        is_typed(decode_ssh_core(&plain, &config(), SharedInterner::new()).unwrap_err());
        // The per-tuple gram count of an otherwise well-formed tuple.
        let grams = huge(&|e| {
            e.put_u32(1);
            e.put_record(&rec(0, "k"));
            e.put_str("k");
        });
        is_typed(decode_ssh_core(&grams, &config(), SharedInterner::new()).unwrap_err());
    }

    #[test]
    fn a_probe_order_that_is_not_a_permutation_is_rejected() {
        let cfg = config();
        let mut core = cfg.ssh_core();
        let mut out = VecDeque::new();
        core.process(
            SidedRecord::new(Side::Left, rec(0, "GENOVA NERVI")),
            &mut out,
        )
        .unwrap();
        let interner = encode_interner(core.interner());
        let table = || SharedInterner::from_table(decode_interner(&interner).unwrap());
        let good = encode_ssh_core(&core);
        let grams = core.indexes()[Side::Left].tuples()[0].grams.len();
        // Layout: side count, record, key, gram count, sorted ids, order.
        let mut d = Decoder::new(&good, "T");
        d.get_u32().unwrap();
        d.get_record().unwrap();
        d.get_str().unwrap();
        d.get_u32().unwrap();
        let sorted_at = good.len() - d.remaining();
        let order_at = sorted_at + grams * 4;
        let expect = |bytes: &[u8], needle: &str| {
            let err = decode_ssh_core(bytes, &cfg, table()).unwrap_err();
            assert!(
                matches!(&err, LinkageError::Snapshot(m) if m.contains(needle)),
                "{err}"
            );
        };
        decode_ssh_core(&good, &cfg, table()).unwrap();

        // A repeated probe id (the first one, twice).
        let mut repeated = good.clone();
        repeated.copy_within(order_at..order_at + 4, order_at + 4);
        expect(&repeated, "not a permutation");
        // A probe id outside the set (and the interner).
        let mut foreign = good.clone();
        foreign[order_at..order_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        expect(&foreign, "not a permutation");
        // Sorted ids that are not strictly ascending.
        let mut unsorted = good.clone();
        unsorted.copy_within(sorted_at..sorted_at + 4, sorted_at + 4);
        expect(&unsorted, "not strictly ascending");
        // A sorted id outside the interner.
        let mut outside = good;
        outside[sorted_at + (grams - 1) * 4..sorted_at + grams * 4]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        expect(&outside, "outside the restored interner");
    }

    #[test]
    fn corrupt_gram_id_is_a_typed_snapshot_error() {
        let cfg = config();
        let mut core = cfg.ssh_core();
        let mut out = VecDeque::new();
        core.process(
            SidedRecord::new(Side::Left, rec(0, "GENOVA NERVI")),
            &mut out,
        )
        .unwrap();
        let bytes = encode_ssh_core(&core);
        // An empty interner makes every gram id out of range.
        let shared = SharedInterner::new();
        let err = decode_ssh_core(&bytes, &cfg, shared).unwrap_err();
        assert!(matches!(err, LinkageError::Snapshot(_)), "{err}");
    }

    #[test]
    fn pairs_round_trip_in_order() {
        let pairs = [
            MatchPair::exact(rec(1, "a"), rec(2, "a")),
            MatchPair::approximate(rec(3, "b"), rec(4, "b2"), 0.83),
        ];
        let bytes = encode_pairs(pairs.iter());
        let back = decode_pairs(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in pairs.iter().zip(&back) {
            assert_eq!(a.id_pair(), b.id_pair());
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.left, b.left);
            assert_eq!(a.right, b.right);
        }
        assert!(matches!(back[1].kind, MatchKind::Approximate { .. }));
    }
}
