//! The names the benchmark is made of: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the root of the
//! repository repeats them and a test holds the two together.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "batch_dirty",
        why: "the paper's run: keys turn dirty at 30%, so the approximate join over an index larger than cache does the work",
    },
    Workload {
        name: "batch_clean",
        why: "32 clean datasets: hash join and switch controller do the work, the q-gram kernel should do none",
    },
    Workload {
        name: "sharded_dirty",
        why: "batch_dirty's data on two shards: the same kernel through the batch probe, router and merge",
    },
    Workload {
        name: "served_mixed",
        why: "24 small sessions over TCP, no eviction: framing, codec, session checkout and per-FEED engine advance",
    },
    Workload {
        name: "served_evict",
        why: "16 interleaved sessions under a byte budget of 2.5 sessions: most FEEDs evict one session and rehydrate another",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every timing carries the widest bound the benchmark's contract allows:
/// on the shared two-core host the same binary's medians moved by 35%
/// between a quiet and a busy hour (README, "Noise floor"). The shares
/// repeat exactly for a seed; their bounds cover the seed-to-seed spread.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("tuples_per_s", "tuples/s", Better::Higher, 0.25),
    e2e("recall", "share", Better::Higher, 0.02),
    e2e("precision", "share", Better::Higher, 0.01),
    e2e("right_switch_share", "share", Better::Higher, 0.25),
    e2e("max_stall_ms", "ms", Better::Lower, 0.25),
    e2e("resume_ms", "ms", Better::Lower, 0.25),
    e2e("roundtrip_p50_ms", "ms", Better::Lower, 0.25),
    e2e("roundtrip_p99_ms", "ms", Better::Lower, 0.25),
    e2e("ok_share", "share", Better::Higher, 0.01),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 64] = [
    lo("datagen.generate_ns_per_tuple", "ns"),
    lo("types.wire_encode_ns_per_record", "ns"),
    lo("types.wire_decode_ns_per_record", "ns"),
    lo("types.frame_write_read_us", "us"),
    hi("types.snapshot_pack_mb_per_s", "MB/s"),
    hi("types.snapshot_parse_mb_per_s", "MB/s"),
    hi("types.crc32_mb_per_s", "MB/s"),
    lo("types.snapshot_write_ms", "ms"),
    lo("text.normalize_ns_per_key", "ns"),
    lo("text.extract_ns_per_key", "ns"),
    lo("text.overlap_ns_per_pair", "ns"),
    lo("text.distinct_grams", "count"),
    lo("stats.outlier_assess_ns", "ns"),
    lo("operators.scan_ns_per_tuple", "ns"),
    lo("operators.exact_process_ns_per_tuple", "ns"),
    lo("operators.ssh_prepare_ns_per_tuple", "ns"),
    lo("operators.ssh_insert_ns_per_tuple", "ns"),
    lo("operators.ssh_probe_ns_per_tuple", "ns"),
    lo("operators.ssh_probe_batch_ns_per_tuple", "ns"),
    lo("operators.ssh_process_ns_per_tuple", "ns"),
    lo("operators.handover_ms", "ms"),
    lo("operators.scanned_per_probe", "count"),
    lo("operators.verified_per_probe", "count"),
    hi("operators.useful_verify_share", "share"),
    hi("operators.prefix_skipped_share", "share"),
    lo("operators.state_bytes_per_tuple", "B"),
    lo("operators.postings_slack_share", "share"),
    lo("operators.snapshot_encode_ms", "ms"),
    lo("operators.snapshot_decode_ms", "ms"),
    lo("core.control_check_ns", "ns"),
    lo("core.checks_per_run", "count"),
    lo("core.detection_delay_tuples", "tuples"),
    lo("core.false_switches", "count"),
    hi("exec.sharded2_speedup", "ratio"),
    lo("exec.shard_state_skew", "ratio"),
    lo("exec.probes_per_tuple", "count"),
    lo("exec.postings_slack_bytes", "B"),
    hi("api.exact_only_tuples_per_s", "tuples/s"),
    hi("api.approx_only_tuples_per_s", "tuples/s"),
    hi("api.gain_vs_exact", "ratio"),
    lo("api.cost_vs_exact", "ratio"),
    lo("api.snapshot_ms", "ms"),
    lo("api.snapshot_bytes", "B"),
    lo("api.unattributed_share", "share"),
    lo("server.open_p50_ms", "ms"),
    lo("server.feed_p50_ms", "ms"),
    lo("server.feed_p99_ms", "ms"),
    lo("server.poll_p50_ms", "ms"),
    lo("server.poll_p99_ms", "ms"),
    lo("server.close_p50_ms", "ms"),
    lo("server.session_feed_ns_per_tuple", "ns"),
    lo("server.session_poll_ns_per_event", "ns"),
    lo("server.checkout_checkin_ns", "ns"),
    lo("server.proto_event_encode_ns", "ns"),
    lo("server.proto_event_decode_ns", "ns"),
    lo("server.evict_ms", "ms"),
    lo("server.rehydrate_ms", "ms"),
    lo("server.evict_file_bytes", "B"),
    lo("server.wire_overhead_share", "share"),
    lo("server.evictions_per_feed", "ratio"),
    lo("server.rehydrations", "count"),
    lo("server.rejected_busy", "count"),
    lo("server.rejected_over_budget", "count"),
    lo("trace_overhead_share", "share"),
];

/// How long one run measures; `BENCHMARK.json` carries the same number.
pub const RUN_SECONDS: u32 = 15;

/// The unit of a metric of either list.
pub fn unit_of(name: &str) -> &'static str {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit));
    let per_layer = PER_LAYER.iter().map(|m| (m.name, m.unit));
    end_to_end
        .chain(per_layer)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// `BENCHMARK.json` as this table defines it.
pub fn benchmark_json() -> Json {
    Json::obj(vec![
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("perfbench/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("perfbench")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    #[test]
    fn units_bounds_and_reasons_fit_the_contract() {
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert_eq!(unit_of("setup_s"), "s");
        assert_eq!(unit_of("types.crc32_mb_per_s"), "MB/s");
    }
}
