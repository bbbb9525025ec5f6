//! # linkage-stats
//!
//! The statistical machinery behind the adaptive controller.
//!
//! The paper's monitor models the observed join result size after `n` steps
//! as a binomial random variable `O_n ~ bin(n, p(n))` with `p(n) = n / |R|`
//! (§3.2), and the assessor flags a completeness problem when the observation
//! is an outlier of that distribution:
//!
//! ```text
//! σ(n)  ≡  P_{n,p(n)}(O ≤ Ō_n)  ≤  θ_out
//! ```
//!
//! This crate provides:
//!
//! * [`Binomial`] — exact pmf/cdf (log-space direct summation and a
//!   regularised-incomplete-beta formulation) plus a normal approximation,
//!   cross-checked against each other by property tests;
//! * [`BinomialOutlierDetector`] — the `σ` predicate itself;
//! * the log-gamma family ([`ln_gamma`], [`ln_factorial`],
//!   [`ln_binomial_coefficient`], [`regularized_incomplete_beta`]) both
//!   binomial formulations are built on;
//! * [`Histogram`] — fixed-bin histograms for experiment reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub mod gamma;
pub mod histogram;
pub mod outlier;

pub use binomial::{Binomial, CdfMethod};
pub use gamma::{ln_binomial_coefficient, ln_factorial, ln_gamma, regularized_incomplete_beta};
pub use histogram::Histogram;
pub use outlier::{BinomialOutlierDetector, OutlierVerdict};
