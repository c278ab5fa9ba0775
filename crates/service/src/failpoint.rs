//! Deterministic fault injection for chaos testing.
//!
//! Compiled only under the `fault-inject` feature; the companion
//! [`fail_point!`](crate::fail_point) macro expands to **nothing** without
//! it, so production builds pay zero cost — no branch, no registry, no
//! atomic. With the feature on, every named site consults a process-global
//! registry on each hit.
//!
//! ## Sites
//!
//! The service instruments the failure windows that matter for the
//! exactly-once release contract:
//!
//! | site                 | where                                            |
//! |----------------------|--------------------------------------------------|
//! | `wal.append`         | before each ledger record is staged into a batch |
//! | `wal.batch_sync`     | after a whole batch is written, before its one `sync_data` — fails **every** record in the batch |
//! | `net.recv`           | before a request line is read off a socket       |
//! | `net.send`           | before a line is written to a TCP socket (one site, shared by the server's response writer and the client's request send) |
//! | `release.post_debit` | after the budget debit, before noise is drawn    |
//!
//! ## Schedules
//!
//! A configured site fires according to a *deterministic* schedule over
//! its hit counter, so every chaos run is reproducible:
//!
//! - [`Trigger::Window`] — skip the first `skip` hits, then fire `times`
//!   times (e.g. "fail exactly the 4th send").
//! - [`Trigger::Seeded`] — fire on hits where a splitmix64 of
//!   `seed ^ hit` lands in `1/period` of the space: a pseudo-random but
//!   fully seed-reproducible schedule for long chaos storms.
//!
//! The fired [`FailAction`] either returns an injected I/O error (the
//! usual case — the caller's error path runs), sleeps (to widen race
//! windows), or panics (a simulated handler bug: the server catches a
//! request handler's panic and answers it with the typed `internal`
//! error; chaos *processes* are better killed with a real SIGKILL, as the
//! CI chaos job does).

use std::collections::HashMap;
use std::sync::Mutex;
use std::sync::OnceLock;

use crate::error::ServiceError;

/// What a firing failpoint does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Return an injected [`ServiceError::Io`] from the site.
    Error,
    /// Sleep this many milliseconds, then continue normally.
    DelayMs(u64),
    /// Panic, unwinding the enclosing thread (a simulated handler bug).
    Panic,
}

/// When a configured site fires, as a function of its 0-based hit index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on hits `skip .. skip + times`.
    Window {
        /// Hits to let through first.
        skip: u64,
        /// Consecutive hits that then fire.
        times: u64,
    },
    /// Fire on the deterministic pseudo-random ~`1/period` subset of hits
    /// selected by `seed` (period 0 or 1 fires on every hit).
    Seeded {
        /// Schedule seed; the same seed always fires on the same hits.
        seed: u64,
        /// Average hits per firing.
        period: u64,
    },
}

impl Trigger {
    /// Fire exactly once, on the `nth` (0-based) hit.
    pub fn nth(nth: u64) -> Trigger {
        Trigger::Window {
            skip: nth,
            times: 1,
        }
    }

    fn fires(&self, hit: u64) -> bool {
        match *self {
            Trigger::Window { skip, times } => hit >= skip && hit - skip < times,
            Trigger::Seeded { seed, period } => {
                period <= 1
                    || splitmix64(seed ^ hit.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                        .is_multiple_of(period)
            }
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct Site {
    trigger: Trigger,
    action: FailAction,
    hits: u64,
    fired: u64,
}

fn registry() -> &'static Mutex<HashMap<String, Site>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Arms `site` with a schedule and action, replacing any previous
/// configuration (and resetting its counters).
pub fn configure(site: &str, trigger: Trigger, action: FailAction) {
    registry()
        .lock()
        .expect("failpoint registry poisoned")
        .insert(
            site.into(),
            Site {
                trigger,
                action,
                hits: 0,
                fired: 0,
            },
        );
}

/// Disarms `site`.
pub fn clear(site: &str) {
    registry()
        .lock()
        .expect("failpoint registry poisoned")
        .remove(site);
}

/// Disarms every site. Call between chaos tests: the registry is process-
/// global, so a leaked armed site would bleed into the next test.
pub fn clear_all() {
    registry()
        .lock()
        .expect("failpoint registry poisoned")
        .clear();
}

/// How many times `site` has fired since it was configured.
pub fn fired_count(site: &str) -> u64 {
    registry()
        .lock()
        .expect("failpoint registry poisoned")
        .get(site)
        .map_or(0, |s| s.fired)
}

/// Evaluates `site`: counts the hit and, if the schedule fires, performs
/// the configured action. Unconfigured sites are a no-op. Called via
/// [`fail_point!`](crate::fail_point) so the evaluation (and the site
/// string) vanish entirely without the `fault-inject` feature.
pub fn check(site: &str) -> Result<(), ServiceError> {
    let action = {
        let mut registry = registry().lock().expect("failpoint registry poisoned");
        let Some(state) = registry.get_mut(site) else {
            return Ok(());
        };
        let hit = state.hits;
        state.hits += 1;
        if !state.trigger.fires(hit) {
            return Ok(());
        }
        state.fired += 1;
        state.action
    };
    match action {
        FailAction::Error => Err(ServiceError::Io(format!("injected fault at {site}"))),
        FailAction::DelayMs(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        FailAction::Panic => panic!("injected panic at failpoint {site}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The registry is process-global and the test harness runs tests on
    /// parallel threads: without this lock one test's `clear_all` wipes
    /// another's configured site (and its fired count) mid-test.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn window_schedules_fire_deterministically() {
        let _guard = serial();
        clear_all();
        configure(
            "t.window",
            Trigger::Window { skip: 2, times: 2 },
            FailAction::Error,
        );
        let outcomes: Vec<bool> = (0..6).map(|_| check("t.window").is_err()).collect();
        assert_eq!(outcomes, [false, false, true, true, false, false]);
        assert_eq!(fired_count("t.window"), 2);
        clear("t.window");
        assert!(check("t.window").is_ok(), "cleared sites never fire");
    }

    #[test]
    fn seeded_schedules_are_reproducible_and_seed_sensitive() {
        let _guard = serial();
        clear_all();
        let pattern = |seed: u64| -> Vec<bool> {
            configure(
                "t.seeded",
                Trigger::Seeded { seed, period: 3 },
                FailAction::Error,
            );
            (0..64).map(|_| check("t.seeded").is_err()).collect()
        };
        let a = pattern(7);
        let b = pattern(7);
        let c = pattern(8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seeds diverge");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(
            (4..=40).contains(&fired),
            "period 3 over 64 hits should fire roughly a third of the time, got {fired}"
        );
        clear_all();
    }

    #[test]
    fn delay_actions_do_not_error() {
        let _guard = serial();
        clear_all();
        configure("t.delay", Trigger::nth(0), FailAction::DelayMs(1));
        assert!(check("t.delay").is_ok());
        assert_eq!(fired_count("t.delay"), 1);
        clear_all();
    }
}
