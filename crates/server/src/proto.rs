//! Payload codecs for the facade types the wire layer cannot see.
//!
//! `linkage_types::wire` owns the frame envelope plus the codecs for
//! types defined in `linkage-types`; this module adds the two payloads
//! that need the facade crate: the [`PipelineConfig`] carried by `OPEN`
//! and the [`WireEvent`] stream carried by `EVENTS`.  Byte layouts are
//! specified normatively in `docs/server.md`.

use linkage::api::{
    ExecutionMode, InterleavePolicy, JoinPhase, MatchEvent, PipelineConfig, QGramCoefficient,
    RunReport, SwitchEvent, SwitchPolicy,
};
use linkage::types::snapshot::{Decoder, Encoder};
use linkage::types::{LinkageError, MatchPair, PerSide, Result};

/// Encode a [`PipelineConfig`] field by field.
///
/// Every field is written, in declaration order; the `OPEN` fingerprint
/// re-computed server-side over the *decoded* config catches any codec
/// drift as a typed mismatch rather than a silently different session.
pub fn encode_config(enc: &mut Encoder, config: &PipelineConfig) {
    enc.put_u64(config.keys.left as u64);
    enc.put_u64(config.keys.right as u64);
    enc.put_u64(config.qgram.q as u64);
    enc.put_bool(config.qgram.pad);
    enc.put_u32(config.qgram.pad_begin as u32);
    enc.put_u32(config.qgram.pad_end as u32);
    enc.put_bool(config.qgram.normalize.uppercase);
    enc.put_bool(config.qgram.normalize.collapse_whitespace);
    enc.put_bool(config.qgram.normalize.strip_punctuation);
    enc.put_u8(match config.similarity {
        QGramCoefficient::Jaccard => 0,
        QGramCoefficient::Dice => 1,
        QGramCoefficient::Cosine => 2,
        QGramCoefficient::Overlap => 3,
    });
    enc.put_f64(config.theta_sim);
    enc.put_f64(config.theta_out);
    enc.put_u64(config.check_every);
    enc.put_u64(config.min_trials);
    enc.put_u32(config.consecutive_alarms);
    enc.put_opt_u64(config.reference_size);
    match config.switch_policy {
        SwitchPolicy::Adaptive => enc.put_u8(0),
        SwitchPolicy::Never => enc.put_u8(1),
        SwitchPolicy::ForceAt(after) => {
            enc.put_u8(2);
            enc.put_u64(after);
        }
    }
    match config.execution {
        ExecutionMode::Serial => enc.put_u8(0),
        ExecutionMode::Sharded { shards } => {
            enc.put_u8(1);
            enc.put_u64(shards as u64);
        }
        // `ExecutionMode` is `#[non_exhaustive]`: a mode this codec does
        // not know cannot be expressed on the wire.
        other => unreachable!("unencodable execution mode {other:?}"),
    }
    enc.put_u64(config.batch_size as u64);
    enc.put_u64(config.channel_capacity as u64);
    match config.interleave {
        InterleavePolicy::Alternate => enc.put_u8(0),
        InterleavePolicy::LeftFirst => enc.put_u8(1),
        InterleavePolicy::RightFirst => enc.put_u8(2),
        InterleavePolicy::Blocks(n) => {
            enc.put_u8(3);
            enc.put_u64(n as u64);
        }
    }
}

fn get_char(dec: &mut Decoder<'_>, what: &str) -> Result<char> {
    let raw = dec.get_u32()?;
    char::from_u32(raw)
        .ok_or_else(|| LinkageError::protocol(format!("{what}: {raw:#x} is not a scalar value")))
}

/// Decode a [`PipelineConfig`] written by [`encode_config`].
pub fn decode_config(dec: &mut Decoder<'_>) -> Result<PipelineConfig> {
    let mut config = PipelineConfig::default();
    config.keys = PerSide::new(dec.get_u64()? as usize, dec.get_u64()? as usize);
    config.qgram.q = dec.get_u64()? as usize;
    config.qgram.pad = dec.get_bool()?;
    config.qgram.pad_begin = get_char(dec, "qgram pad_begin")?;
    config.qgram.pad_end = get_char(dec, "qgram pad_end")?;
    config.qgram.normalize.uppercase = dec.get_bool()?;
    config.qgram.normalize.collapse_whitespace = dec.get_bool()?;
    config.qgram.normalize.strip_punctuation = dec.get_bool()?;
    config.similarity = match dec.get_u8()? {
        0 => QGramCoefficient::Jaccard,
        1 => QGramCoefficient::Dice,
        2 => QGramCoefficient::Cosine,
        3 => QGramCoefficient::Overlap,
        other => {
            return Err(LinkageError::protocol(format!(
                "unknown similarity coefficient tag {other}"
            )))
        }
    };
    config.theta_sim = dec.get_f64()?;
    config.theta_out = dec.get_f64()?;
    config.check_every = dec.get_u64()?;
    config.min_trials = dec.get_u64()?;
    config.consecutive_alarms = dec.get_u32()?;
    config.reference_size = dec.get_opt_u64()?;
    config.switch_policy = match dec.get_u8()? {
        0 => SwitchPolicy::Adaptive,
        1 => SwitchPolicy::Never,
        2 => SwitchPolicy::ForceAt(dec.get_u64()?),
        other => {
            return Err(LinkageError::protocol(format!(
                "unknown switch policy tag {other}"
            )))
        }
    };
    config.execution = match dec.get_u8()? {
        0 => ExecutionMode::Serial,
        1 => ExecutionMode::Sharded {
            shards: dec.get_u64()? as usize,
        },
        other => {
            return Err(LinkageError::protocol(format!(
                "unknown execution mode tag {other}"
            )))
        }
    };
    config.batch_size = dec.get_u64()? as usize;
    config.channel_capacity = dec.get_u64()? as usize;
    config.interleave = match dec.get_u8()? {
        0 => InterleavePolicy::Alternate,
        1 => InterleavePolicy::LeftFirst,
        2 => InterleavePolicy::RightFirst,
        3 => InterleavePolicy::Blocks(dec.get_u64()? as usize),
        other => {
            return Err(LinkageError::protocol(format!(
                "unknown interleave policy tag {other}"
            )))
        }
    };
    Ok(config)
}

/// The final report as it crosses the wire.
///
/// [`RunReport`] is `#[non_exhaustive]` and engine-owned, so the wire
/// carries this flat, constructible projection of it instead; the fields
/// are the ones session consumers act on.
#[derive(Debug, Clone, PartialEq)]
pub struct WireReport {
    /// Engine name (`"serial"`, `"sharded"`).
    pub engine: String,
    /// Worker shards the engine ran.
    pub shards: u64,
    /// Whether the run ended in the approximate phase.
    pub ended_approximate: bool,
    /// Input tuples consumed per side.
    pub consumed: PerSide<u64>,
    /// Distinct pairs emitted exactly.
    pub emitted_exact: u64,
    /// Distinct pairs emitted approximately.
    pub emitted_approximate: u64,
    /// The switch, if it happened.
    pub switch: Option<SwitchEvent>,
}

impl WireReport {
    /// Project an engine report onto the wire shape.
    pub fn from_report(report: &RunReport) -> Self {
        Self {
            engine: report.engine.to_string(),
            shards: report.shards as u64,
            ended_approximate: report.phase == JoinPhase::Approximate,
            consumed: report.consumed,
            emitted_exact: report.emitted.exact,
            emitted_approximate: report.emitted.approximate,
            switch: report.switch,
        }
    }

    /// Total distinct pairs emitted.
    pub fn emitted_total(&self) -> u64 {
        self.emitted_exact + self.emitted_approximate
    }
}

/// One event of a served session's output stream — the wire projection
/// of the facade's [`MatchEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent {
    /// One emitted match pair.
    Match(MatchPair),
    /// The exact → approximate switch happened.
    Switched(SwitchEvent),
    /// The session completed; always the last event.
    Finished(WireReport),
}

/// Event tags on the wire.
pub mod event_tag {
    /// [`super::WireEvent::Match`].
    pub const MATCH: u8 = 0;
    /// [`super::WireEvent::Switched`].
    pub const SWITCHED: u8 = 1;
    /// [`super::WireEvent::Finished`].
    pub const FINISHED: u8 = 2;
}

fn put_switch(enc: &mut Encoder, event: &SwitchEvent) {
    enc.put_u64(event.after_tuples);
    enc.put_f64(event.sigma);
    enc.put_u64(event.recovered);
}

fn get_switch(dec: &mut Decoder<'_>) -> Result<SwitchEvent> {
    Ok(SwitchEvent {
        after_tuples: dec.get_u64()?,
        sigma: dec.get_f64()?,
        recovered: dec.get_u64()?,
    })
}

/// Encode one event: a tag byte plus the tag-specific payload.
pub fn put_event(enc: &mut Encoder, event: &WireEvent) {
    match event {
        WireEvent::Match(pair) => {
            enc.put_u8(event_tag::MATCH);
            enc.put_pair(pair);
        }
        WireEvent::Switched(switch) => {
            enc.put_u8(event_tag::SWITCHED);
            put_switch(enc, switch);
        }
        WireEvent::Finished(report) => {
            enc.put_u8(event_tag::FINISHED);
            enc.put_str(&report.engine);
            enc.put_u64(report.shards);
            enc.put_bool(report.ended_approximate);
            enc.put_u64(report.consumed.left);
            enc.put_u64(report.consumed.right);
            enc.put_u64(report.emitted_exact);
            enc.put_u64(report.emitted_approximate);
            enc.put_bool(report.switch.is_some());
            if let Some(switch) = &report.switch {
                put_switch(enc, switch);
            }
        }
    }
}

/// Decode one event written by [`put_event`].
pub fn get_event(dec: &mut Decoder<'_>) -> Result<WireEvent> {
    match dec.get_u8()? {
        event_tag::MATCH => Ok(WireEvent::Match(dec.get_pair()?)),
        event_tag::SWITCHED => Ok(WireEvent::Switched(get_switch(dec)?)),
        event_tag::FINISHED => {
            let engine = dec.get_str()?.to_string();
            let shards = dec.get_u64()?;
            let ended_approximate = dec.get_bool()?;
            let consumed = PerSide::new(dec.get_u64()?, dec.get_u64()?);
            let emitted_exact = dec.get_u64()?;
            let emitted_approximate = dec.get_u64()?;
            let switch = if dec.get_bool()? {
                Some(get_switch(dec)?)
            } else {
                None
            };
            Ok(WireEvent::Finished(WireReport {
                engine,
                shards,
                ended_approximate,
                consumed,
                emitted_exact,
                emitted_approximate,
                switch,
            }))
        }
        other => Err(LinkageError::protocol(format!("unknown event tag {other}"))),
    }
}

/// Project a facade [`MatchEvent`] onto the wire event (servers).
pub fn wire_event(event: &MatchEvent) -> WireEvent {
    match event {
        MatchEvent::Match(pair) => WireEvent::Match(pair.clone()),
        MatchEvent::Switched(switch) => WireEvent::Switched(*switch),
        MatchEvent::Finished(report) => WireEvent::Finished(WireReport::from_report(report)),
        // `MatchEvent` is `#[non_exhaustive]`: an event this codec does
        // not know cannot be expressed on the wire.
        other => unreachable!("unencodable match event {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkage::types::{Record, Value};

    #[test]
    fn config_round_trips_and_keeps_its_fingerprint() {
        let mut config = PipelineConfig::default();
        config.keys = PerSide::new(2, 1);
        config.similarity = QGramCoefficient::Overlap;
        config.theta_sim = 0.75;
        config.reference_size = Some(4096);
        config.switch_policy = SwitchPolicy::ForceAt(77);
        config.execution = ExecutionMode::Sharded { shards: 3 };
        config.interleave = InterleavePolicy::Blocks(9);
        config.qgram.normalize.strip_punctuation = true;

        let mut enc = Encoder::new();
        encode_config(&mut enc, &config);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes, "OPEN");
        let back = decode_config(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back.fingerprint(), config.fingerprint());
        assert_eq!(back.keys, config.keys);
        assert_eq!(back.switch_policy, SwitchPolicy::ForceAt(77));
    }

    #[test]
    fn events_round_trip() {
        let pair = MatchPair::approximate(
            Record::new(1, vec![Value::string("a")]),
            Record::new(2, vec![Value::string("b")]),
            0.875,
        );
        let events = [
            WireEvent::Match(pair),
            WireEvent::Switched(SwitchEvent {
                after_tuples: 42,
                sigma: 1e-9,
                recovered: 7,
            }),
            WireEvent::Finished(WireReport {
                engine: "sharded".into(),
                shards: 4,
                ended_approximate: true,
                consumed: PerSide::new(10, 12),
                emitted_exact: 5,
                emitted_approximate: 6,
                switch: Some(SwitchEvent {
                    after_tuples: 42,
                    sigma: 0.0,
                    recovered: 7,
                }),
            }),
        ];
        for event in &events {
            let mut enc = Encoder::new();
            put_event(&mut enc, event);
            let bytes = enc.finish();
            let mut dec = Decoder::new(&bytes, "EVENTS");
            assert_eq!(&get_event(&mut dec).unwrap(), event);
            dec.finish().unwrap();
        }
    }
}
