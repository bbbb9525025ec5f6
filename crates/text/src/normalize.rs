//! Join-key normalisation.
//!
//! Record-linkage toolkits conventionally canonicalise strings before
//! comparing them (paper §5 mentions the data-preparation utilities of
//! Potter's Wheel, Ajax, Tailor, …).  The paper's own evaluation works on
//! already-uppercased location strings such as
//! `TAA BZ SANTA CRISTINA VALGARDENA`; this module provides the small
//! canonicalisation pipeline the data generator and the similarity functions
//! agree on so that the *only* differences the join sees are genuine
//! variants.

use serde::{Deserialize, Serialize};

/// Options controlling [`normalize`].
///
/// `#[non_exhaustive]`: construct via [`Default`],
/// [`NormalizeConfig::none`] or [`NormalizeConfig::aggressive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct NormalizeConfig {
    /// Convert the string to uppercase.
    pub uppercase: bool,
    /// Collapse consecutive whitespace into a single ASCII space and trim.
    pub collapse_whitespace: bool,
    /// Drop characters that are neither alphanumeric nor whitespace
    /// (punctuation, quotes, …).
    pub strip_punctuation: bool,
}

impl Default for NormalizeConfig {
    fn default() -> Self {
        Self {
            uppercase: true,
            collapse_whitespace: true,
            strip_punctuation: false,
        }
    }
}

impl NormalizeConfig {
    /// The identity configuration: [`normalize`] returns its input unchanged
    /// (modulo allocation).
    pub fn none() -> Self {
        Self {
            uppercase: false,
            collapse_whitespace: false,
            strip_punctuation: false,
        }
    }

    /// Aggressive configuration: uppercase, collapse whitespace and strip
    /// punctuation.
    pub fn aggressive() -> Self {
        Self {
            uppercase: true,
            collapse_whitespace: true,
            strip_punctuation: true,
        }
    }
}

/// Canonicalise `input` according to `config`.
pub fn normalize(input: &str, config: &NormalizeConfig) -> String {
    let mut out = String::new();
    normalize_into(input, config, &mut out);
    out
}

/// Canonicalise with the default configuration.
pub fn normalize_default(input: &str) -> String {
    normalize(input, &NormalizeConfig::default())
}

/// [`normalize`] into a caller-owned buffer, replacing its contents: a
/// caller that normalises one key per tuple reuses one allocation.
/// ASCII input is walked byte by byte, anything else `char` by `char`;
/// the two walks agree on every input.
pub fn normalize_into(input: &str, config: &NormalizeConfig, out: &mut String) {
    out.clear();
    out.reserve(input.len());
    if input.is_ascii() {
        normalize_units::<true>(input.bytes().map(char::from), config, out);
    } else {
        normalize_units::<false>(input.chars(), config, out);
    }
}

/// `char::is_whitespace` on ASCII: `char::is_ascii_whitespace` omits the
/// vertical tab (`\x0B`), which `char::is_whitespace` counts.
fn is_ascii_space(ch: char) -> bool {
    matches!(ch, '\t' | '\n' | '\x0B' | '\x0C' | '\r' | ' ')
}

/// Strip, collapse and case-map `units` into `out`, which starts empty.
/// With `ASCII` every unit is ASCII, so the ASCII tests stand in for the
/// Unicode ones.
fn normalize_units<const ASCII: bool>(
    units: impl Iterator<Item = char>,
    config: &NormalizeConfig,
    out: &mut String,
) {
    let mut pending_space = false;
    for ch in units {
        let space = if ASCII {
            is_ascii_space(ch)
        } else {
            ch.is_whitespace()
        };
        if config.strip_punctuation
            && !space
            && !(if ASCII {
                ch.is_ascii_alphanumeric()
            } else {
                ch.is_alphanumeric()
            })
        {
            continue;
        }
        if config.collapse_whitespace && space {
            pending_space = !out.is_empty();
            continue;
        }
        if pending_space {
            out.push(' ');
            pending_space = false;
        }
        match (config.uppercase, ASCII) {
            (false, _) => out.push(ch),
            (true, true) => out.push(ch.to_ascii_uppercase()),
            (true, false) => out.extend(ch.to_uppercase()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uppercases_and_collapses() {
        let cfg = NormalizeConfig::default();
        assert_eq!(normalize("  taa  bz   ortisei ", &cfg), "TAA BZ ORTISEI");
        assert_eq!(normalize("Roma", &cfg), "ROMA");
        assert_eq!(normalize("", &cfg), "");
        assert_eq!(normalize("   ", &cfg), "");
    }

    #[test]
    fn none_config_is_identity() {
        let cfg = NormalizeConfig::none();
        assert_eq!(normalize("  Santa  Cristina ", &cfg), "  Santa  Cristina ");
        assert_eq!(normalize("a,b", &cfg), "a,b");
    }

    #[test]
    fn aggressive_strips_punctuation() {
        let cfg = NormalizeConfig::aggressive();
        assert_eq!(normalize("Sant'Angelo, (PZ)", &cfg), "SANTANGELO PZ");
        assert_eq!(normalize("L'Aquila", &cfg), "LAQUILA");
    }

    #[test]
    fn uppercase_without_collapse_keeps_inner_whitespace() {
        let cfg = NormalizeConfig {
            uppercase: true,
            collapse_whitespace: false,
            strip_punctuation: false,
        };
        assert_eq!(normalize("a  b", &cfg), "A  B");
    }

    #[test]
    fn strip_without_collapse_keeps_whitespace_drops_punct() {
        let cfg = NormalizeConfig {
            uppercase: false,
            collapse_whitespace: false,
            strip_punctuation: true,
        };
        assert_eq!(normalize("a, b!", &cfg), "a b");
    }

    #[test]
    fn collapse_only_preserves_case() {
        let cfg = NormalizeConfig {
            uppercase: false,
            collapse_whitespace: true,
            strip_punctuation: false,
        };
        assert_eq!(normalize(" a  B ", &cfg), "a B");
    }

    #[test]
    fn unicode_uppercasing_expands() {
        let cfg = NormalizeConfig::default();
        // ß uppercases to SS (two characters).
        assert_eq!(normalize("straße", &cfg), "STRASSE");
        assert_eq!(normalize("forlì", &cfg), "FORLÌ");
    }

    #[test]
    fn normalize_default_helper_matches_default_config() {
        assert_eq!(
            normalize_default("  torino  "),
            normalize("  torino  ", &NormalizeConfig::default())
        );
    }

    #[test]
    fn vertical_tab_and_information_separators_follow_char_is_whitespace() {
        let cfg = NormalizeConfig::default();
        // U+000B is whitespace; U+001C..U+001F and U+007F are not.
        assert_eq!(normalize("a\x0Bb", &cfg), "A B");
        assert_eq!(normalize("a\x1Cb\x7F", &cfg), "A\x1CB\x7F");
        assert_eq!(normalize("a\x1Fb", &NormalizeConfig::aggressive()), "AB");
    }

    #[test]
    fn normalize_into_replaces_the_buffer() {
        let mut buf = String::from("stale");
        normalize_into(" roma ", &NormalizeConfig::default(), &mut buf);
        assert_eq!(buf, "ROMA");
    }

    #[test]
    fn idempotence_on_default_config() {
        let cfg = NormalizeConfig::default();
        let once = normalize("  Val  di   Fassa ", &cfg);
        let twice = normalize(&once, &cfg);
        assert_eq!(once, twice);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Every configuration: 2 × 2 × 2 switches.
    fn all_configs() -> Vec<NormalizeConfig> {
        (0..8u8)
            .map(|bits| NormalizeConfig {
                uppercase: bits & 1 != 0,
                collapse_whitespace: bits & 2 != 0,
                strip_punctuation: bits & 4 != 0,
            })
            .collect()
    }

    /// ASCII-heavy: letters, digits, punctuation, every ASCII whitespace
    /// (the vertical tab included), runs of spaces, and the control
    /// bytes `char::is_whitespace` does not count (U+001C..U+001F, DEL).
    const ASCII: &str = "[a-zA-Z0-9 \t\n\x0B\x0C\r\x1C-\x1F\x7F,.'!()-]{0,24}";
    /// The same with non-ASCII letters and a no-break space, which send
    /// the whole string down the `char` loop.
    const UNICODE: &str = "[a-z ßìÀé\u{A0}\x0B,]{0,16}";

    proptest! {
        #[test]
        fn byte_loop_matches_the_char_loop_under_every_config(
            ascii in proptest::collection::vec(ASCII, 1..32),
            unicode in proptest::collection::vec(UNICODE, 1..8),
        ) {
            let (mut fast, mut slow) = (String::new(), String::new());
            for input in ascii.iter().chain(&unicode) {
                for config in all_configs() {
                    normalize_into(input, &config, &mut fast);
                    slow.clear();
                    normalize_units::<false>(input.chars(), &config, &mut slow);
                    prop_assert_eq!(&fast, &slow);
                }
            }
        }
    }
}
