//! Deterministic failpoint registry (the `fault` feature).
//!
//! Durability and network code is littered with moments where a crash is
//! catastrophic unless the protocol around it is right: between the two
//! eviction files, halfway through an fsync, in the middle of a reply frame.
//! This module lets tests *schedule* those moments exactly: a named **site**
//! is armed with a [`Trigger`], and the production code asks [`fires`] at the
//! matching point.  When the trigger matches, the code simulates the failure
//! (a torn write, a severed connection, a panic) at a byte-exact, reproducible
//! position.
//!
//! Without `--features fault` every function here is an inert inline stub —
//! [`fires`] constant-folds to `None` — so production builds carry no
//! registry, no locking, and no branch cost beyond a trivially dead `if`.
//!
//! Sites are plain strings; the registry is process-global, so test binaries
//! that arm failpoints must serialise themselves (a `static Mutex<()>` guard)
//! and call [`reset`] between scenarios.
//!
//! The error returned for an injected failure is a [`LinkageError::Io`]
//! carrying a recognisable prefix rather than a dedicated enum variant: the
//! public error surface must not change shape with a test-only feature flag.
//! Use [`is_injected`] to distinguish a simulated crash (leave torn state on
//! disk, exactly like a real crash would) from a genuine error (clean up).

use crate::error::LinkageError;

/// When an armed failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire exactly once, on the `n`-th call to [`fires`] (1-based).
    Nth(u64),
    /// Fire on every `k`-th call (`k`, `2k`, `3k`, …).
    EveryKth(u64),
    /// Fire on each call independently with probability `permille`/1000,
    /// driven by a private xorshift stream seeded with `seed` — the same
    /// seed always yields the same firing pattern.
    Probability {
        /// Firing probability in thousandths (10 = 1%).
        permille: u32,
        /// Seed for the site's deterministic random stream.
        seed: u64,
    },
    /// Fire on every call.
    Always,
    /// Never fire: park the first thread to reach the site until
    /// [`release`] is called for it (later callers pass straight
    /// through).  Tests use it to hold one thread at an exact point —
    /// mid-eviction, mid-rehydration — while others act, making an
    /// interleaving deterministic.  [`hits`] counts the parked arrival.
    Pause,
}

/// Message prefix carried by every injected-fault error.
pub const INJECTED_PREFIX: &str = "injected fault at failpoint ";

/// Build the error a site raises when its failpoint fires.
pub fn injected(site: &str) -> LinkageError {
    LinkageError::Io(format!("{INJECTED_PREFIX}`{site}`"))
}

/// The registry compiled in with `--features fault`.
#[cfg(feature = "fault")]
mod registry {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

    use super::Trigger;
    use crate::error::LinkageError;

    struct Site {
        trigger: Trigger,
        arg: u64,
        calls: u64,
        hits: u64,
        rng: u64,
    }

    static SITES: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    /// Fast-path gate: [`fires`] is called on hot durability paths, so
    /// skip the mutex entirely while nothing is armed.
    static ARMED: AtomicUsize = AtomicUsize::new(0);
    /// Signalled when a paused site is released (or the registry reset).
    static RELEASED: Condvar = Condvar::new();

    fn sites() -> MutexGuard<'static, HashMap<String, Site>> {
        SITES
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn xorshift(mut x: u64) -> u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }

    /// Arm `site` with `trigger` (argument 0).  Re-arming replaces the
    /// previous trigger and resets the site's call counter.
    pub fn arm(site: &str, trigger: Trigger) {
        arm_with(site, trigger, 0);
    }

    /// Arm `site` with `trigger` and a site-specific argument that [`fires`]
    /// hands back on a hit — typically a byte offset at which to cut a write.
    pub fn arm_with(site: &str, trigger: Trigger, arg: u64) {
        // xorshift has a single absorbing state at 0; remap only that seed.
        let seed = match trigger {
            Trigger::Probability { seed: 0, .. } => 0x9E37_79B9_7F4A_7C15,
            Trigger::Probability { seed, .. } => seed,
            _ => 1,
        };
        let mut map = sites();
        map.insert(
            site.to_string(),
            Site {
                trigger,
                arg,
                calls: 0,
                hits: 0,
                rng: seed,
            },
        );
        ARMED.store(map.len(), Ordering::SeqCst);
    }

    /// Remove the trigger on `site`, if any.
    pub fn disarm(site: &str) {
        let mut map = sites();
        map.remove(site);
        ARMED.store(map.len(), Ordering::SeqCst);
        RELEASED.notify_all();
    }

    /// Let the thread parked at `site` by [`Trigger::Pause`] go, and
    /// disarm the site.
    pub fn release(site: &str) {
        disarm(site);
    }

    /// Disarm every site and zero all counters.
    pub fn reset() {
        let mut map = sites();
        map.clear();
        ARMED.store(0, Ordering::SeqCst);
        RELEASED.notify_all();
    }

    /// Called by production code at a failpoint.  Counts the call and
    /// returns `Some(arg)` when the armed trigger matches, `None` otherwise
    /// (including when the site is not armed at all).
    pub fn fires(site: &str) -> Option<u64> {
        if ARMED.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let mut map = sites();
        let entry = map.get_mut(site)?;
        entry.calls += 1;
        let hit = match entry.trigger {
            Trigger::Nth(n) => entry.hits == 0 && entry.calls == n,
            Trigger::EveryKth(k) => k > 0 && entry.calls % k == 0,
            Trigger::Probability { permille, .. } => {
                entry.rng = xorshift(entry.rng);
                entry.rng % 1000 < u64::from(permille)
            }
            Trigger::Always => true,
            Trigger::Pause => {
                if entry.hits > 0 {
                    return None;
                }
                entry.hits += 1;
                // Parked until the site is disarmed — by `release`,
                // `disarm` or `reset` — or re-armed with another trigger.
                let _map = RELEASED
                    .wait_while(map, |map| {
                        map.get(site)
                            .is_some_and(|s| s.trigger == Trigger::Pause && s.hits > 0)
                    })
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                return None;
            }
        };
        if hit {
            entry.hits += 1;
            Some(entry.arg)
        } else {
            None
        }
    }

    /// How many times `site` has fired since it was armed.
    pub fn hits(site: &str) -> u64 {
        sites().get(site).map_or(0, |s| s.hits)
    }

    /// Whether `err` was raised by a failpoint rather than a real failure.
    pub fn is_injected(err: &LinkageError) -> bool {
        matches!(err, LinkageError::Io(m) if m.starts_with(super::INJECTED_PREFIX))
    }
}

#[cfg(feature = "fault")]
pub use registry::*;

// Without the `fault` feature: inert stubs, no registry exists and no
// failpoint can ever fire.

/// No-op without `--features fault`.
#[cfg(not(feature = "fault"))]
#[inline(always)]
pub fn arm(_site: &str, _trigger: Trigger) {}

/// No-op without `--features fault`.
#[cfg(not(feature = "fault"))]
#[inline(always)]
pub fn arm_with(_site: &str, _trigger: Trigger, _arg: u64) {}

/// No-op without `--features fault`.
#[cfg(not(feature = "fault"))]
#[inline(always)]
pub fn disarm(_site: &str) {}

/// No-op without `--features fault`.
#[cfg(not(feature = "fault"))]
#[inline(always)]
pub fn release(_site: &str) {}

/// No-op without `--features fault`.
#[cfg(not(feature = "fault"))]
#[inline(always)]
pub fn reset() {}

/// Always `None` without `--features fault`; the surrounding failure
/// branch is dead code the optimiser removes.
#[cfg(not(feature = "fault"))]
#[inline(always)]
pub fn fires(_site: &str) -> Option<u64> {
    None
}

/// Always 0 without `--features fault`.
#[cfg(not(feature = "fault"))]
#[inline(always)]
pub fn hits(_site: &str) -> u64 {
    0
}

/// Always `false` without `--features fault`: nothing can be injected,
/// so every error is a real one and cleanup paths always run.
#[cfg(not(feature = "fault"))]
#[inline(always)]
pub fn is_injected(_err: &LinkageError) -> bool {
    false
}

#[cfg(all(test, feature = "fault"))]
mod tests {
    use std::sync::Mutex;

    use super::*;

    /// The registry is process-global; serialise the tests that touch it.
    static GUARD: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        GUARD.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn nth_fires_exactly_once_on_the_nth_call() {
        let _g = exclusive();
        reset();
        arm_with("t.nth", Trigger::Nth(3), 77);
        assert_eq!(fires("t.nth"), None);
        assert_eq!(fires("t.nth"), None);
        assert_eq!(fires("t.nth"), Some(77));
        assert_eq!(fires("t.nth"), None);
        assert_eq!(hits("t.nth"), 1);
        reset();
    }

    #[test]
    fn every_kth_fires_periodically() {
        let _g = exclusive();
        reset();
        arm("t.kth", Trigger::EveryKth(2));
        let pattern: Vec<bool> = (0..6).map(|_| fires("t.kth").is_some()).collect();
        assert_eq!(pattern, vec![false, true, false, true, false, true]);
        assert_eq!(hits("t.kth"), 3);
        reset();
    }

    #[test]
    fn probability_is_deterministic_for_a_fixed_seed() {
        let _g = exclusive();
        reset();
        let sample = |seed: u64| -> Vec<bool> {
            arm(
                "t.prob",
                Trigger::Probability {
                    permille: 250,
                    seed,
                },
            );
            (0..64).map(|_| fires("t.prob").is_some()).collect()
        };
        let a = sample(42);
        let b = sample(42);
        let c = sample(43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let rate = a.iter().filter(|hit| **hit).count();
        assert!(rate > 0 && rate < 40, "250‰ over 64 draws hit {rate} times");
        reset();
    }

    #[test]
    fn unarmed_sites_never_fire_and_disarm_clears() {
        let _g = exclusive();
        reset();
        assert_eq!(fires("t.unarmed"), None);
        arm("t.once", Trigger::Always);
        assert!(fires("t.once").is_some());
        disarm("t.once");
        assert_eq!(fires("t.once"), None);
        assert_eq!(hits("t.once"), 0);
        reset();
    }

    #[test]
    fn pause_parks_the_first_caller_until_release() {
        let _g = exclusive();
        reset();
        arm("t.pause", Trigger::Pause);
        let parked = std::thread::spawn(|| fires("t.pause"));
        while hits("t.pause") == 0 {
            std::thread::yield_now();
        }
        // Later callers pass straight through while the first is parked.
        assert_eq!(fires("t.pause"), None);
        assert!(!parked.is_finished());
        release("t.pause");
        assert_eq!(parked.join().unwrap(), None);
        assert_eq!(hits("t.pause"), 0, "release disarms the site");
        reset();
    }

    #[test]
    fn injected_errors_are_recognisable() {
        let err = injected("evict.snap");
        assert!(is_injected(&err));
        assert_eq!(
            err.to_string(),
            "io error: injected fault at failpoint `evict.snap`"
        );
        assert!(!is_injected(&LinkageError::Io("disk on fire".into())));
        assert!(!is_injected(&LinkageError::protocol(
            "injected fault at failpoint `x`"
        )));
    }
}
