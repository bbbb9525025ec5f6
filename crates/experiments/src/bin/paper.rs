//! Print the paper's tables and check its claims at every grid point:
//! `cargo run --release -p linkage-experiments --bin paper` exits 1 if
//! any claim fails.

use std::process::ExitCode;

fn main() -> ExitCode {
    let paper = linkage_experiments::Paper::run().expect("the grid runs");
    print!("{}", paper.tables().expect("the tables' runs"));
    ExitCode::from(u8::from(paper.verdicts().iter().any(|v| !v.holds)))
}
