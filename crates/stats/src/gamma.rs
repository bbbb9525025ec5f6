//! Log-gamma and the regularised incomplete beta function.
//!
//! These are the numeric primitives behind σ's binomial CDF.  They are
//! implemented from scratch (Lanczos approximation + Numerical-Recipes-style
//! continued fraction) so the workspace has no dependency on a numerical
//! crate; the tests cross-check them against known values and identities.

/// Lanczos coefficients (g = 7, n = 9), giving ~15 significant digits.
const LANCZOS_G: f64 = 7.0;
// The published coefficients carry more digits than f64 holds; keep them
// verbatim so the table matches the literature.
#[allow(clippy::excessive_precision)]
const LANCZOS_COEFFS: [f64; 9] = [
    0.999_999_999_999_809_93,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_13,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_571_6e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation with reflection for `x < 0.5`.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    assert!(
        x.is_finite(),
        "ln_gamma requires a finite argument, got {x}"
    );
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        let sin_pi_x = (std::f64::consts::PI * x).sin();
        assert!(
            sin_pi_x != 0.0,
            "ln_gamma is undefined at non-positive integers (x = {x})"
        );
        return std::f64::consts::PI.ln() - sin_pi_x.abs().ln() - ln_gamma(1.0 - x);
    }

    let x = x - 1.0;
    let mut acc = LANCZOS_COEFFS[0];
    for (i, &c) in LANCZOS_COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The regularised incomplete beta function `I_x(a, b)` for `a, b > 0` and
/// `x ∈ [0, 1]`, evaluated with the Lentz continued-fraction algorithm.
pub(crate) fn regularized_incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(
        a > 0.0 && b > 0.0,
        "I_x(a, b) requires a, b > 0 (a={a}, b={b})"
    );
    assert!(
        (0.0..=1.0).contains(&x),
        "I_x(a, b) requires x in [0, 1], got {x}"
    );
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }

    // ln of the prefactor  x^a (1−x)^b / (a B(a, b)).
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();

    // Use the symmetry relation to keep the continued fraction convergent.
    if x < (a + 1.0) / (a + b + 2.0) {
        (ln_front.exp() * beta_continued_fraction(a, b, x) / a).clamp(0.0, 1.0)
    } else {
        (1.0 - (ln_front.exp() * beta_continued_fraction(b, a, 1.0 - x) / b)).clamp(0.0, 1.0)
    }
}

/// Lentz's method for the continued fraction of the incomplete beta function.
fn beta_continued_fraction(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;

    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;

    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;

        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;

        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;

        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(3) = 2, Γ(0.5) = √π.
        assert!(close(ln_gamma(1.0), 0.0, 1e-12));
        assert!(close(ln_gamma(2.0), 0.0, 1e-12));
        assert!(close(ln_gamma(3.0), std::f64::consts::LN_2, 1e-12));
        assert!(close(ln_gamma(0.5), 0.5 * std::f64::consts::PI.ln(), 1e-12));
        // Γ(10) = 9! = 362880.
        assert!(close(ln_gamma(10.0), 362880f64.ln(), 1e-12));
    }

    #[test]
    fn ln_gamma_reflection_branch() {
        // Γ(0.25) ≈ 3.625609908.
        assert!(close(ln_gamma(0.25), 3.625_609_908_22f64.ln(), 1e-9));
        // Γ(0.1) ≈ 9.513507698.
        assert!(close(ln_gamma(0.1), 9.513_507_698_67f64.ln(), 1e-9));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn ln_gamma_rejects_nan() {
        ln_gamma(f64::NAN);
    }

    #[test]
    fn incomplete_beta_boundary_values() {
        assert_eq!(regularized_incomplete_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(regularized_incomplete_beta(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn incomplete_beta_uniform_case_is_identity() {
        // I_x(1, 1) = x.
        for x in [0.1, 0.25, 0.5, 0.75, 0.9] {
            assert!(close(regularized_incomplete_beta(1.0, 1.0, x), x, 1e-12));
        }
    }

    #[test]
    fn incomplete_beta_known_values() {
        // I_x(a, 1) = x^a ; I_x(1, b) = 1 − (1−x)^b.
        for x in [0.2, 0.5, 0.8] {
            assert!(close(
                regularized_incomplete_beta(3.0, 1.0, x),
                x.powi(3),
                1e-10
            ));
            assert!(close(
                regularized_incomplete_beta(1.0, 4.0, x),
                1.0 - (1.0 - x).powi(4),
                1e-10
            ));
        }
        // Symmetry: I_x(a, b) = 1 − I_{1−x}(b, a).
        let v = regularized_incomplete_beta(2.5, 4.5, 0.3);
        let w = 1.0 - regularized_incomplete_beta(4.5, 2.5, 0.7);
        assert!(close(v, w, 1e-10));
    }

    #[test]
    #[should_panic(expected = "requires a, b > 0")]
    fn incomplete_beta_rejects_nonpositive_parameters() {
        regularized_incomplete_beta(0.0, 1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn incomplete_beta_rejects_out_of_range_x() {
        regularized_incomplete_beta(1.0, 1.0, 1.5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn ln_gamma_satisfies_recurrence(x in 0.5f64..50.0) {
            // Γ(x+1) = x Γ(x)  ⇒  lnΓ(x+1) = ln x + lnΓ(x).
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
        }

        #[test]
        fn incomplete_beta_is_monotone_in_x(a in 0.5f64..20.0, b in 0.5f64..20.0,
                                            x1 in 0.0f64..1.0, x2 in 0.0f64..1.0) {
            let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
            let vlo = regularized_incomplete_beta(a, b, lo);
            let vhi = regularized_incomplete_beta(a, b, hi);
            prop_assert!(vlo <= vhi + 1e-12);
            prop_assert!((0.0..=1.0).contains(&vlo));
            prop_assert!((0.0..=1.0).contains(&vhi));
        }

        #[test]
        fn incomplete_beta_symmetry(a in 0.5f64..20.0, b in 0.5f64..20.0, x in 0.0f64..1.0) {
            let lhs = regularized_incomplete_beta(a, b, x);
            let rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x);
            prop_assert!((lhs - rhs).abs() < 1e-8);
        }
    }
}
