//! The assessor: deciding whether an observation signals dirty data.
//!
//! Wraps [`linkage_stats::BinomialOutlierDetector`], the paper's
//! `σ(n) ≤ θ_out` predicate (§3.2) and the one statistical primitive the
//! controller uses, with two practical guards:
//!
//! * a **minimum trial count**, so the test is not run on a handful of
//!   tuples where the binomial tail is meaninglessly wide;
//! * a **consecutive-alarm requirement** (hysteresis), so one unlucky
//!   window does not trigger an irreversible operator switch.

use linkage_stats::BinomialOutlierDetector;
use linkage_types::defaults;

use crate::monitor::Observation;

/// Assessor configuration.
///
/// `#[non_exhaustive]`: construct via [`Default`] and refine with the
/// `with_*` builders.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct AssessorConfig {
    /// Significance threshold `θ_out ∈ [0, 1)` of the outlier test.
    pub theta_out: f64,
    /// Observations with fewer trials than this are ignored.
    pub min_trials: u64,
    /// Number of consecutive outlier verdicts required to trigger.
    pub consecutive_alarms: u32,
}

impl Default for AssessorConfig {
    fn default() -> Self {
        Self {
            theta_out: defaults::THETA_OUT,
            min_trials: defaults::MIN_TRIALS,
            consecutive_alarms: defaults::CONSECUTIVE_ALARMS,
        }
    }
}

impl AssessorConfig {
    /// Override the outlier significance threshold `θ_out`.
    #[must_use]
    pub fn with_theta_out(mut self, theta_out: f64) -> Self {
        self.theta_out = theta_out;
        self
    }

    /// Override the minimum trial count.
    #[must_use]
    pub fn with_min_trials(mut self, min_trials: u64) -> Self {
        self.min_trials = min_trials;
        self
    }

    /// Override the consecutive-alarm (hysteresis) requirement.
    #[must_use]
    pub fn with_consecutive_alarms(mut self, consecutive_alarms: u32) -> Self {
        self.consecutive_alarms = consecutive_alarms;
        self
    }
}

/// Outcome of assessing one observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Assessment {
    /// Too few trials to say anything.
    Insufficient,
    /// Compatible with the clean-data model; any alarm streak is reset.
    Nominal {
        /// The computed tail probability.
        sigma: f64,
    },
    /// An outlier, but the required streak is not yet complete.
    Alarm {
        /// The computed tail probability.
        sigma: f64,
        /// Current consecutive-alarm count.
        streak: u32,
    },
    /// The streak is complete: the actuator should switch operators now.
    Trigger {
        /// The computed tail probability at the triggering observation.
        sigma: f64,
    },
}

impl Assessment {
    /// Whether this assessment completes the alarm streak.
    pub fn is_trigger(&self) -> bool {
        matches!(self, Assessment::Trigger { .. })
    }
}

/// The assessor itself.
#[derive(Debug, Clone, Copy)]
pub struct Assessor {
    config: AssessorConfig,
    detector: BinomialOutlierDetector,
    streak: u32,
}

impl Assessor {
    /// Build from a configuration.
    pub fn new(config: AssessorConfig) -> Self {
        Self {
            config,
            detector: BinomialOutlierDetector::new(config.theta_out),
            streak: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AssessorConfig {
        &self.config
    }

    /// Current consecutive-alarm streak.
    pub fn streak(&self) -> u32 {
        self.streak
    }

    /// Restore the alarm streak from a snapshot, so hysteresis continues
    /// exactly where the interrupted run left off.
    pub fn restore_streak(&mut self, streak: u32) {
        self.streak = streak;
    }

    /// Assess one observation, updating the alarm streak.
    pub fn assess(&mut self, obs: &Observation) -> Assessment {
        if obs.trials < self.config.min_trials {
            return Assessment::Insufficient;
        }
        let (sigma, outlier) = self.detector.assess(obs.trials, obs.p, obs.observed);
        if outlier {
            self.streak += 1;
            if self.streak >= self.config.consecutive_alarms {
                Assessment::Trigger { sigma }
            } else {
                Assessment::Alarm {
                    sigma,
                    streak: self.streak,
                }
            }
        } else {
            self.streak = 0;
            Assessment::Nominal { sigma }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(trials: u64, p: f64, observed: u64) -> Observation {
        Observation {
            trials,
            p,
            observed,
        }
    }

    #[test]
    fn insufficient_below_min_trials() {
        let mut a = Assessor::new(AssessorConfig::default());
        assert_eq!(a.assess(&obs(5, 0.5, 0)), Assessment::Insufficient);
        assert_eq!(a.streak(), 0);
    }

    #[test]
    fn nominal_observation_resets_streak() {
        let mut a = Assessor::new(AssessorConfig {
            consecutive_alarms: 3,
            ..AssessorConfig::default()
        });
        assert!(matches!(
            a.assess(&obs(100, 0.5, 20)),
            Assessment::Alarm { streak: 1, .. }
        ));
        assert!(matches!(
            a.assess(&obs(100, 0.5, 50)),
            Assessment::Nominal { .. }
        ));
        assert_eq!(a.streak(), 0);
        assert!(matches!(
            a.assess(&obs(100, 0.5, 20)),
            Assessment::Alarm { streak: 1, .. }
        ));
    }

    #[test]
    fn trigger_after_consecutive_alarms() {
        let mut a = Assessor::new(AssessorConfig {
            consecutive_alarms: 2,
            ..AssessorConfig::default()
        });
        let first = a.assess(&obs(100, 0.5, 20));
        assert!(matches!(first, Assessment::Alarm { streak: 1, .. }));
        let second = a.assess(&obs(120, 0.5, 25));
        assert!(second.is_trigger());
    }

    #[test]
    fn single_alarm_config_triggers_immediately() {
        let mut a = Assessor::new(AssessorConfig {
            consecutive_alarms: 1,
            ..AssessorConfig::default()
        });
        assert!(a.assess(&obs(100, 0.5, 10)).is_trigger());
    }

    #[test]
    fn sigma_is_reported() {
        let mut a = Assessor::new(AssessorConfig {
            consecutive_alarms: 1,
            ..AssessorConfig::default()
        });
        match a.assess(&obs(100, 0.5, 10)) {
            Assessment::Trigger { sigma } => assert!(sigma < 1e-9),
            other => panic!("expected trigger, got {other:?}"),
        }
    }
}
