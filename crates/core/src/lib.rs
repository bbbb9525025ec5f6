//! # linkage-core
//!
//! The adaptivity layer of the record-linkage pipeline: the
//! monitor → assessor → actuator control loop of paper §3.2 wired around
//! the switchable join operator of `linkage-operators`.
//!
//! * [`Monitor`] packages the running join's counters into a statistical
//!   [`Observation`] — result size is modelled as `O ~ bin(trials, p)`
//!   under the clean-data foreign-key scenario;
//! * [`Assessor`] applies `linkage_stats`' binomial outlier test
//!   (`σ ≤ θ_out`) with minimum-evidence and consecutive-alarm guards;
//! * [`Controller`] is the one loop both engines run: it applies the
//!   [`SwitchPolicy`], asks the monitor and assessor at each crossed
//!   checkpoint, records the switch the engine performs, and places the
//!   [`Pulled::Switched`] announcement in the engine's output right after
//!   the last pair queued before the handover;
//! * [`AdaptiveJoin`] is the serial engine, a push core: it asks the
//!   controller after every fed tuple and performs the exact →
//!   approximate state handover
//!   ([`linkage_operators::SwitchJoinCore::switch_to_approximate`], §3.3)
//!   mid-stream, after which recovered and newly found approximate
//!   matches flow out of the same queue.  The sharded engine in
//!   `linkage-exec` asks the same controller after every exact epoch.
//!
//! Neither engine reads input: the `linkage::api` facade (or the server)
//! feeds them.  See `examples/quickstart.rs` for an end-to-end run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod assessor;
pub mod controller;
pub mod monitor;

pub use adaptive::AdaptiveJoin;
pub use assessor::{Assessment, Assessor, AssessorConfig};
pub use controller::{Controller, ControllerConfig, Pulled, SwitchEvent, SwitchPolicy};
pub use monitor::{Monitor, MonitorConfig, Observation};
