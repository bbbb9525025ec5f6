//! Medians, quartiles and tail latencies over timing samples.

use crate::json::Json;

/// What one metric's samples reduce to: the value reported (a median
/// unless stated otherwise), its quartiles and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A value that is not a median of samples (a count, a ratio of totals).
    pub fn exact(value: f64, n: usize) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            n,
        }
    }

    /// Median and quartiles of `samples`.
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, value, q3) = quartiles(samples);
        Summary {
            value,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// Distance between the quartiles as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }

    pub fn to_json(self, unit: &str) -> Json {
        Json::obj(vec![
            ("value", Json::Num(self.value)),
            ("unit", Json::str(unit)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Num(self.n as f64)),
        ])
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// First quartile, median and third quartile, cut the way Python's
/// `statistics.quantiles(values, n=4)` cuts them (the rule the acceptance
/// check of this benchmark is written in). Empty input gives zeros; a
/// single sample is its own three quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    match len {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let scaled = i * (len + 1);
        let j = (scaled / 4).clamp(1, len - 1);
        // After clamping, the weight follows the clamped position, as in
        // the reference implementation.
        let delta = scaled as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The tail latency of `samples`: the 99th percentile when at least ten
/// samples lie beyond it, else the highest percentile that still has ten
/// beyond it (the 11th largest sample). With ten samples or fewer, the
/// largest.
pub fn tail(samples: &[f64]) -> f64 {
    nth_smallest(samples, tail_rank(samples.len()))
}

/// The 1-based rank [`tail`] reads.
pub fn tail_rank(n: usize) -> usize {
    /// Samples that must lie beyond a percentile for it to be reported.
    const BEYOND: usize = 10;
    if n <= BEYOND {
        return n;
    }
    ((0.99 * n as f64).ceil() as usize).min(n - BEYOND)
}

fn nth_smallest(samples: &[f64], rank: usize) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_python_reference() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 1, 7], n=4) == [1.0, 7.0, 10.0]
        assert_eq!(quartiles(&[10.0, 1.0, 7.0]), (1.0, 7.0, 10.0));
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
        assert_eq!(quartiles(&[3.0, 9.0]), (1.5, 6.0, 10.5));
        // statistics.quantiles([2, 4, 4, 5, 9, 11, 12], n=4) == [4, 5, 11]
        assert_eq!(
            quartiles(&[2.0, 4.0, 4.0, 5.0, 9.0, 11.0, 12.0]),
            (4.0, 5.0, 11.0)
        );
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        // Plenty of samples: the 99th percentile, 20 beyond it.
        assert_eq!(tail_rank(2000), 1980);
        // 1000 samples: the 99th percentile has exactly ten beyond it.
        assert_eq!(tail_rank(1000), 990);
        // Fewer: the 11th largest, whatever percentile that is.
        assert_eq!(tail_rank(768), 758);
        assert_eq!(tail_rank(208), 198);
        assert_eq!(tail_rank(11), 1);
        // Too few to leave ten beyond anything: the largest.
        assert_eq!(tail_rank(10), 10);
        assert_eq!(tail_rank(0), 0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), 90.0);
        assert_eq!(tail(&[3.0, 9.0, 1.0]), 9.0);
        assert_eq!(tail(&[]), 0.0);
    }

    #[test]
    fn spread_is_the_quartile_distance_over_the_value() {
        let s = Summary::of(&[90.0, 100.0, 110.0]);
        assert_eq!(s.value, 100.0);
        assert!((s.spread() - 0.2).abs() < 1e-12);
        assert_eq!(Summary::exact(0.0, 1).spread(), 0.0);
    }
}
