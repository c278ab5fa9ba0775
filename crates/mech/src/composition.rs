//! Sequential composition of differential-privacy guarantees.
//!
//! The paper's framework composes per-row guarantees through the column
//! structure of the strategy matrix (Proposition 3.1); this module provides
//! the standard *sequential* composition used when a data owner runs
//! several independent releases over the same data — e.g. releasing two
//! different workloads, or combining a marginal release with a range-query
//! release. It implements basic composition (ε and δ add) and tracks a
//! budget ledger so over-spending is a hard error rather than a silent
//! privacy failure.

use crate::privacy::PrivacyLevel;
use crate::MechError;

/// `n`-fold basic composition of one guarantee: ε and δ scale by `n` (the
/// charge for a batch of `n` independent releases from the same plan).
pub fn compose_n(level: PrivacyLevel, n: usize) -> PrivacyLevel {
    let epsilon = level.epsilon() * n as f64;
    let delta = level.delta() * n as f64;
    if delta == 0.0 {
        PrivacyLevel::Pure { epsilon }
    } else {
        PrivacyLevel::Approx { epsilon, delta }
    }
}

/// Sum of guarantees under basic sequential composition: ε's and δ's add.
pub fn compose(levels: &[PrivacyLevel]) -> PrivacyLevel {
    let epsilon: f64 = levels.iter().map(|l| l.epsilon()).sum();
    let delta: f64 = levels.iter().map(|l| l.delta()).sum();
    if delta == 0.0 {
        PrivacyLevel::Pure { epsilon }
    } else {
        PrivacyLevel::Approx { epsilon, delta }
    }
}

/// A privacy-budget ledger: start with a total allowance, draw per-release
/// budgets from it, and refuse once exhausted.
///
/// # Concurrency contract
///
/// A `BudgetLedger` is **single-threaded state**: it is `Send` but
/// deliberately offers no interior mutability, so concurrent metering must
/// wrap it in a lock (`Mutex<BudgetLedger>`) and perform the whole
/// check-and-debit under one critical section. [`BudgetLedger::try_spend`]
/// exists for exactly that shape — it checks *and* debits in a single call,
/// so a caller holding the lock has no TOCTOU window between reading
/// [`BudgetLedger::remaining_epsilon`] and committing the charge. Never
/// decide on `remaining_*()` in one critical section and `try_spend` in a
/// later one.
#[derive(Debug, Clone)]
pub struct BudgetLedger {
    total: PrivacyLevel,
    spent_epsilon: f64,
    spent_delta: f64,
    charges: Vec<PrivacyLevel>,
}

impl BudgetLedger {
    /// Creates a ledger with the given total allowance.
    pub fn new(total: PrivacyLevel) -> Result<Self, MechError> {
        total.validate()?;
        Ok(BudgetLedger {
            total,
            spent_epsilon: 0.0,
            spent_delta: 0.0,
            charges: Vec::new(),
        })
    }

    /// The total allowance the ledger was opened with.
    pub fn total(&self) -> PrivacyLevel {
        self.total
    }

    /// Checks **and** debits one charge in a single call — the atomic
    /// check-then-spend primitive. The charge is validated first (NaN,
    /// non-positive ε, or δ outside (0,1) are a typed
    /// [`MechError::InvalidPrivacyParameter`], never silently composed);
    /// if the composed spend would exceed the allowance in either ε or δ
    /// the ledger is left unchanged and a typed
    /// [`MechError::BudgetExhausted`] reports both the request and what
    /// remains.
    pub fn try_spend(&mut self, level: PrivacyLevel) -> Result<(), MechError> {
        level.validate()?;
        let new_eps = self.spent_epsilon + level.epsilon();
        let new_delta = self.spent_delta + level.delta();
        // A hair of multiplicative slack absorbs summation rounding so a
        // budget can be spent down to exactly 0 in equal slices.
        let eps_fits = new_eps <= self.total.epsilon() * (1.0 + 1e-12);
        let delta_fits = new_delta <= self.total.delta() * (1.0 + 1e-12);
        if !eps_fits || !delta_fits {
            return Err(MechError::BudgetExhausted {
                requested_epsilon: level.epsilon(),
                requested_delta: level.delta(),
                remaining_epsilon: self.remaining_epsilon(),
                remaining_delta: self.remaining_delta(),
            });
        }
        self.spent_epsilon = new_eps;
        self.spent_delta = new_delta;
        self.charges.push(level);
        Ok(())
    }

    /// Remaining ε allowance.
    pub fn remaining_epsilon(&self) -> f64 {
        (self.total.epsilon() - self.spent_epsilon).max(0.0)
    }

    /// Remaining δ allowance.
    pub fn remaining_delta(&self) -> f64 {
        (self.total.delta() - self.spent_delta).max(0.0)
    }

    /// The composed guarantee of everything charged so far.
    pub fn spent(&self) -> PrivacyLevel {
        compose(&self.charges)
    }

    /// Number of releases charged.
    pub fn num_charges(&self) -> usize {
        self.charges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compose_pure_levels() {
        let c = compose(&[
            PrivacyLevel::Pure { epsilon: 0.3 },
            PrivacyLevel::Pure { epsilon: 0.2 },
        ]);
        assert_eq!(c, PrivacyLevel::Pure { epsilon: 0.5 });
    }

    #[test]
    fn compose_mixed_levels_yields_approx() {
        let c = compose(&[
            PrivacyLevel::Pure { epsilon: 0.3 },
            PrivacyLevel::Approx {
                epsilon: 0.2,
                delta: 1e-6,
            },
        ]);
        assert_eq!(
            c,
            PrivacyLevel::Approx {
                epsilon: 0.5,
                delta: 1e-6
            }
        );
    }

    #[test]
    fn ledger_enforces_epsilon_budget() {
        let mut ledger = BudgetLedger::new(PrivacyLevel::Pure { epsilon: 1.0 }).unwrap();
        ledger
            .try_spend(PrivacyLevel::Pure { epsilon: 0.6 })
            .unwrap();
        assert!((ledger.remaining_epsilon() - 0.4).abs() < 1e-12);
        // Over-charge refused, state unchanged.
        assert!(ledger
            .try_spend(PrivacyLevel::Pure { epsilon: 0.5 })
            .is_err());
        assert!((ledger.remaining_epsilon() - 0.4).abs() < 1e-12);
        ledger
            .try_spend(PrivacyLevel::Pure { epsilon: 0.4 })
            .unwrap();
        assert_eq!(ledger.num_charges(), 2);
        assert_eq!(ledger.spent(), PrivacyLevel::Pure { epsilon: 1.0 });
    }

    #[test]
    fn ledger_enforces_delta_budget() {
        let mut ledger = BudgetLedger::new(PrivacyLevel::Approx {
            epsilon: 2.0,
            delta: 1e-6,
        })
        .unwrap();
        ledger
            .try_spend(PrivacyLevel::Approx {
                epsilon: 0.5,
                delta: 8e-7,
            })
            .unwrap();
        // ε fits but δ does not.
        assert!(ledger
            .try_spend(PrivacyLevel::Approx {
                epsilon: 0.5,
                delta: 8e-7,
            })
            .is_err());
        // A pure charge still fits.
        ledger
            .try_spend(PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        assert!((ledger.remaining_delta() - 2e-7).abs() < 1e-18);
    }

    #[test]
    fn pure_ledger_rejects_any_delta() {
        let mut ledger = BudgetLedger::new(PrivacyLevel::Pure { epsilon: 1.0 }).unwrap();
        assert!(ledger
            .try_spend(PrivacyLevel::Approx {
                epsilon: 0.1,
                delta: 1e-9,
            })
            .is_err());
    }

    #[test]
    fn invalid_total_rejected() {
        assert!(BudgetLedger::new(PrivacyLevel::Pure { epsilon: 0.0 }).is_err());
    }

    #[test]
    fn try_spend_rejects_nan_and_negative_inputs_with_a_typed_error() {
        let mut ledger = BudgetLedger::new(PrivacyLevel::Pure { epsilon: 1.0 }).unwrap();
        for bad in [
            PrivacyLevel::Pure { epsilon: f64::NAN },
            PrivacyLevel::Pure { epsilon: -0.5 },
            PrivacyLevel::Approx {
                epsilon: 0.5,
                delta: f64::NAN,
            },
            PrivacyLevel::Approx {
                epsilon: 0.5,
                delta: -1e-6,
            },
        ] {
            assert!(
                matches!(
                    ledger.try_spend(bad),
                    Err(MechError::InvalidPrivacyParameter(_))
                ),
                "{bad:?} must be rejected before composing"
            );
        }
        // Nothing was silently composed.
        assert_eq!(ledger.num_charges(), 0);
        assert!((ledger.remaining_epsilon() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn try_spend_exhaustion_reports_request_and_remaining() {
        let mut ledger = BudgetLedger::new(PrivacyLevel::Approx {
            epsilon: 1.0,
            delta: 1e-6,
        })
        .unwrap();
        ledger
            .try_spend(PrivacyLevel::Approx {
                epsilon: 0.75,
                delta: 4e-7,
            })
            .unwrap();
        let err = ledger
            .try_spend(PrivacyLevel::Approx {
                epsilon: 0.5,
                delta: 1e-7,
            })
            .unwrap_err();
        let MechError::BudgetExhausted {
            requested_epsilon,
            requested_delta,
            remaining_epsilon,
            remaining_delta,
        } = err
        else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        assert_eq!(requested_epsilon, 0.5);
        assert_eq!(requested_delta, 1e-7);
        assert!((remaining_epsilon - 0.25).abs() < 1e-12);
        assert!((remaining_delta - 6e-7).abs() < 1e-18);
        // The failed attempt left the ledger untouched; exhaustion is
        // permanent once remaining hits zero.
        assert_eq!(ledger.num_charges(), 1);
        ledger
            .try_spend(PrivacyLevel::Pure { epsilon: 0.25 })
            .unwrap();
        assert!(ledger.remaining_epsilon() <= 1e-12);
        assert!(matches!(
            ledger.try_spend(PrivacyLevel::Pure { epsilon: 1e-9 }),
            Err(MechError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn a_budget_spends_down_to_exactly_zero_in_equal_slices() {
        let mut ledger = BudgetLedger::new(PrivacyLevel::Pure { epsilon: 1.0 }).unwrap();
        for _ in 0..10 {
            ledger
                .try_spend(PrivacyLevel::Pure { epsilon: 0.1 })
                .unwrap();
        }
        assert!(ledger.remaining_epsilon() <= 1e-12);
        assert!(matches!(
            ledger.try_spend(PrivacyLevel::Pure { epsilon: 0.1 }),
            Err(MechError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn compose_n_scales_both_parameters() {
        assert_eq!(
            compose_n(PrivacyLevel::Pure { epsilon: 0.25 }, 4),
            PrivacyLevel::Pure { epsilon: 1.0 }
        );
        assert_eq!(
            compose_n(
                PrivacyLevel::Approx {
                    epsilon: 0.1,
                    delta: 1e-7
                },
                3
            ),
            PrivacyLevel::Approx {
                epsilon: 0.1 * 3.0,
                delta: 3e-7
            }
        );
    }
}
