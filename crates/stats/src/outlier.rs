//! The binomial outlier predicate `σ` of the assessor (paper §3.2).
//!
//! After `n` monitored steps the expected result size is modelled as
//! `O_n ~ bin(trials, p(n))`.  The assessor computes
//! `σ(n) = P(O ≤ Ō_n)` — the probability of observing a result at most as
//! small as the one actually seen — and flags a **completeness problem**
//! when `σ(n) ≤ θ_out`: the observed result is too small to be explained by
//! chance under the clean-data model, so join keys are probably dirty.

use crate::gamma::regularized_incomplete_beta;

/// The `σ(n) ≤ θ_out` predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinomialOutlierDetector {
    theta_out: f64,
}

impl BinomialOutlierDetector {
    /// Build a detector with significance threshold `θ_out ∈ [0, 1)` (the
    /// paper uses values around 0.01–0.05).
    pub fn new(theta_out: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&theta_out),
            "θ_out must be in [0, 1), got {theta_out}"
        );
        Self { theta_out }
    }

    /// `σ = P(O ≤ observed)` under `bin(trials, p)`, `p ∈ [0, 1]`.
    ///
    /// With zero trials there is no evidence either way, so `σ = 1`.
    /// Otherwise `P(X ≤ k) = I_{1−p}(n − k, k + 1)` with `k` clamped to
    /// `n`.
    fn sigma(&self, trials: u64, p: f64, observed: u64) -> f64 {
        if trials == 0 {
            return 1.0;
        }
        assert!(
            (0.0..=1.0).contains(&p),
            "binomial success probability must be in [0, 1], got {p}"
        );
        let k = observed.min(trials);
        if k >= trials || p == 0.0 {
            return 1.0;
        }
        if p == 1.0 {
            return 0.0;
        }
        regularized_incomplete_beta((trials - k) as f64, k as f64 + 1.0, 1.0 - p)
    }

    /// Assess one observation: `(σ, σ ≤ θ_out)`, the tail probability and
    /// whether it flags a completeness problem.  Panics when `p` is
    /// outside `[0, 1]`.
    pub fn assess(&self, trials: u64, p: f64, observed: u64) -> (f64, bool) {
        let sigma = self.sigma(trials, p, observed);
        (sigma, sigma <= self.theta_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::ln_gamma;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    /// `ln(n!)`, exact for `n ≤ 10`.  A term of the oracle below.
    fn ln_factorial(n: u64) -> f64 {
        const TABLE: [f64; 11] = [
            0.0, 0.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0, 40320.0, 362880.0, 3628800.0,
        ];
        if (n as usize) < TABLE.len() {
            return TABLE[n as usize].max(1.0).ln();
        }
        ln_gamma(n as f64 + 1.0)
    }

    /// `ln C(n, k)`.  A term of the oracle below.
    fn ln_binomial_coefficient(n: u64, k: u64) -> f64 {
        if k > n {
            return f64::NEG_INFINITY;
        }
        ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
    }

    /// σ's oracle: `P(X ≤ k)` under `bin(n, p)` as the direct sum of
    /// log-space pmf terms, `O(k)` per call and independent of the
    /// incomplete beta that σ evaluates.
    pub(super) fn direct_sum(n: u64, p: f64, k: u64) -> f64 {
        if n == 0 || k >= n || p == 0.0 {
            return 1.0;
        }
        if p == 1.0 {
            return 0.0;
        }
        let mut acc = 0.0f64;
        for i in 0..=k {
            let ln_pmf =
                ln_binomial_coefficient(n, i) + i as f64 * p.ln() + (n - i) as f64 * (1.0 - p).ln();
            acc += ln_pmf.exp();
        }
        acc.min(1.0)
    }

    #[test]
    fn ln_factorial_matches_direct_products() {
        let mut acc = 1.0f64;
        for n in 1..=170u64 {
            acc *= n as f64;
            assert!(
                close(ln_factorial(n), acc.ln(), 1e-10),
                "n = {n}: {} vs {}",
                ln_factorial(n),
                acc.ln()
            );
        }
        assert_eq!(ln_factorial(0), 0.0);
    }

    #[test]
    fn ln_binomial_coefficient_matches_pascal() {
        // C(10, 3) = 120, C(52, 5) = 2598960.
        assert!(close(ln_binomial_coefficient(10, 3), 120f64.ln(), 1e-10));
        assert!(close(
            ln_binomial_coefficient(52, 5),
            2_598_960f64.ln(),
            1e-10
        ));
        assert_eq!(ln_binomial_coefficient(5, 9), f64::NEG_INFINITY);
        assert!(close(ln_binomial_coefficient(7, 0), 0.0, 1e-12));
        assert!(close(ln_binomial_coefficient(7, 7), 0.0, 1e-12));
    }

    /// σ's exact bits on a grid of `(trials, p, observed)`.  The
    /// controller switches where σ crosses θ_out, so a changed bit can
    /// move a switch: a change to σ's arithmetic or its operation order
    /// must keep every one of these.
    #[test]
    fn sigma_bits_are_pinned_on_a_grid() {
        // One row per (trials, p); observed ∈ {0, trials/4, trials/2, trials}.
        #[rustfmt::skip]
        const PINNED: [u64; 80] = [
        0x3fefae147ae147ae, 0x3fefae147ae147ae, 0x3fefae147ae147ae, 0x3ff0000000000000,
        0x3fe6666666666662, 0x3fe6666666666662, 0x3fe6666666666662, 0x3ff0000000000000,
        0x3fdffffffffffff0, 0x3fdffffffffffff0, 0x3fdffffffffffff0, 0x3ff0000000000000,
        0x3f847ae147ae1489, 0x3f847ae147ae1489, 0x3f847ae147ae1489, 0x3ff0000000000000,
        0x3feb3f245e18e19a, 0x3fefffff2a17f534, 0x3fefffffffffff9f, 0x3ff0000000000000,
        0x3f6b39735fd45125, 0x3fdccb3aa63ef37e, 0x3fef2daeb4815009, 0x3ff0000000000000,
        0x3ef000000000002b, 0x3fa3aa0000000029, 0x3fe3246000000002, 0x3ff0000000000000,
        0x3949f623d5a8a77a, 0x3ba0904268f18b09, 0x3d7514b6972abd71, 0x3ff0000000000000,
        0x3fd76d12e9c302a4, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000,
        0x3cb74e8e588ace0a, 0x3fc4e1727fd68712, 0x3fefffed0d8a2f2f, 0x3ff0000000000000,
        0x39affffffffffd34, 0x3e92e98786dccd97, 0x3fe145ff5d3b1206, 0x3ff0000000000000,
        0x16687e92154ef60a, 0x25a0662a0815e6b1, 0x3125c90819592911, 0x3ff0000000000000,
        0x3f06a258c41be327, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000,
        0x1fc58225657b3455, 0x3f3106c58b98528d, 0x3ff0000000000000, 0x3ff0000000000000,
        0x01700000000003ab, 0x33db11c351d81b6f, 0x3fe067525941db60, 0x3ff0000000000000,
        0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x3ff0000000000000,
        0x38b009c9032b1208, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000,
        0x0000000000000000, 0x3b3546d3020b6db0, 0x3ff0000000000000, 0x3ff0000000000000,
        0x0000000000000000, 0x0000000000000000, 0x3fe02489a80738f4, 0x3ff0000000000000,
        0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x3ff0000000000000,
        ];
        let det = BinomialOutlierDetector::new(0.01);
        let mut pinned = PINNED.iter();
        for trials in [1u64, 16, 100, 1_000, 8_000] {
            for p in [0.01, 0.3, 0.5, 0.99] {
                for observed in [0, trials / 4, trials / 2, trials] {
                    let sigma = det.sigma(trials, p, observed);
                    assert_eq!(
                        sigma.to_bits(),
                        *pinned.next().unwrap(),
                        "σ({trials}, {p}, {observed}) = {sigma:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn sigma_edge_cases_are_pinned() {
        let det = BinomialOutlierDetector::new(0.01);
        // No trials: no evidence either way.
        assert_eq!(det.sigma(0, 0.5, 0).to_bits(), 1f64.to_bits());
        assert_eq!(det.sigma(0, 0.5, 7).to_bits(), 1f64.to_bits());
        // More observed than trials is clamped to the trials.
        assert_eq!(det.sigma(10, 0.5, 99).to_bits(), 1f64.to_bits());
        // p = 0: every outcome is 0 successes, so P(X ≤ k) = 1.
        assert_eq!(det.sigma(10, 0.0, 0).to_bits(), 1f64.to_bits());
        assert_eq!(det.sigma(10, 0.0, 3).to_bits(), 1f64.to_bits());
        // p = 1: every outcome is n successes, so P(X ≤ k) = [k ≥ n].
        assert_eq!(det.sigma(10, 1.0, 9).to_bits(), 0f64.to_bits());
        assert_eq!(det.sigma(10, 1.0, 0).to_bits(), 0f64.to_bits());
        assert_eq!(det.sigma(10, 1.0, 10).to_bits(), 1f64.to_bits());
    }

    #[test]
    fn sigma_matches_the_direct_sum_on_small_trials() {
        let det = BinomialOutlierDetector::new(0.01);
        for n in [1u64, 5, 20, 80] {
            for p in [0.05, 0.3, 0.5, 0.9] {
                for k in 0..=n {
                    let (oracle, sigma) = (direct_sum(n, p, k), det.sigma(n, p, k));
                    assert!(
                        (oracle - sigma).abs() <= 1e-10,
                        "n={n} p={p} k={k}: {oracle} vs {sigma}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn rejects_bad_probability() {
        BinomialOutlierDetector::new(0.01).sigma(10, 1.5, 3);
    }

    #[test]
    fn nominal_when_observation_matches_expectation() {
        let det = BinomialOutlierDetector::new(0.01);
        // 100 trials at p = 0.5, observing 50: dead centre.
        let (sigma, outlier) = det.assess(100, 0.5, 50);
        assert!(!outlier);
        assert!(sigma > 0.4, "sigma {sigma}");
    }

    #[test]
    fn outlier_when_observation_is_far_too_small() {
        let det = BinomialOutlierDetector::new(0.01);
        // Expected 50, observed 20: essentially impossible under the model.
        let (sigma, outlier) = det.assess(100, 0.5, 20);
        assert!(outlier);
        assert!(sigma < 1e-6, "sigma {sigma}");
    }

    #[test]
    fn threshold_controls_sensitivity() {
        let loose = BinomialOutlierDetector::new(0.2);
        let strict = BinomialOutlierDetector::new(0.001);
        // Observing 42/100 at p = 0.5 is mildly unlikely (σ ≈ 0.067).
        assert!(loose.assess(100, 0.5, 42).1);
        assert!(!strict.assess(100, 0.5, 42).1);
    }

    #[test]
    fn zero_trials_is_always_nominal() {
        let det = BinomialOutlierDetector::new(0.05);
        assert_eq!(det.assess(0, 0.5, 0), (1.0, false));
    }

    #[test]
    fn observed_above_trials_is_clamped() {
        let det = BinomialOutlierDetector::new(0.05);
        assert_eq!(det.assess(10, 0.5, 99), (1.0, false));
    }

    #[test]
    fn sigma_is_monotone_in_observed() {
        let det = BinomialOutlierDetector::new(0.05);
        let mut prev = 0.0;
        for o in 0..=60u64 {
            let s = det.sigma(60, 0.4, o);
            assert!(s + 1e-12 >= prev, "o={o}");
            prev = s;
        }
    }

    #[test]
    #[should_panic(expected = "θ_out")]
    fn rejects_threshold_of_one() {
        BinomialOutlierDetector::new(1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::direct_sum;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn sigma_is_monotone_and_bounded(n in 1u64..200, p in 0.0f64..1.0) {
            let det = BinomialOutlierDetector::new(0.01);
            let mut prev = 0.0;
            for k in 0..=n {
                let s = det.sigma(n, p, k);
                prop_assert!((0.0..=1.0).contains(&s), "σ out of range at k={}", k);
                prop_assert!(s + 1e-9 >= prev, "σ decreased at k={}", k);
                prev = s;
            }
            prop_assert!((det.sigma(n, p, n) - 1.0).abs() < 1e-9);
        }

        #[test]
        fn sigma_matches_the_direct_sum_oracle(n in 1u64..400, p in 0.01f64..0.99, k in 0u64..400) {
            let det = BinomialOutlierDetector::new(0.01);
            let (oracle, sigma) = (direct_sum(n, p, k), det.sigma(n, p, k));
            prop_assert!((oracle - sigma).abs() < 1e-9, "{} vs {}", oracle, sigma);
        }
    }
}
