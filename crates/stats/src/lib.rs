//! # linkage-stats
//!
//! The adaptive controller's one statistical primitive.
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
//! [`BinomialOutlierDetector`] is that predicate.  It evaluates the binomial
//! CDF through the identity `P(X ≤ k) = I_{1−p}(n − k, k + 1)`, on a private
//! log-gamma and continued-fraction incomplete beta; the tests hold it to a
//! direct log-space summation of the pmf.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gamma;
mod outlier;

pub use outlier::BinomialOutlierDetector;
