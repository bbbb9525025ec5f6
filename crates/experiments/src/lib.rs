//! The paper's claims as one checked artifact: [`Paper`] runs a constant
//! grid of workloads through `linkage::api`, prices each run by its
//! counted operations ([`Weight`]) and returns a [`Verdict`] per
//! [`Claim`] × grid point.  The `paper` binary prints the paper's tables
//! from it; `tests/paper.rs` asserts it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;

pub use paper::{Claim, Paper, Verdict, Weight};
