//! The service-level error type and its wire codes.

use dp_core::CoreError;
use dp_mech::MechError;

/// Errors surfaced by the release service. Every variant maps to a stable
/// wire code (see [`ServiceError::code`]) so clients can dispatch on the
/// failure class without parsing prose.
#[derive(Debug)]
pub enum ServiceError {
    /// The tenant's cumulative privacy budget cannot cover the requested
    /// charge. Carries the rejected request and the remaining allowance so
    /// the tenant can size a smaller batch (or stop).
    BudgetExhausted {
        /// ε the rejected charge asked for.
        requested_epsilon: f64,
        /// δ the rejected charge asked for.
        requested_delta: f64,
        /// ε still available to the tenant.
        remaining_epsilon: f64,
        /// δ still available to the tenant.
        remaining_delta: f64,
    },
    /// No tenant with this name has been opened.
    UnknownTenant(String),
    /// The tenant exists with a *different* total budget — re-opening must
    /// be idempotent, never a budget reset.
    TenantBudgetMismatch(String),
    /// The tenant has not registered a plan with this id.
    UnknownPlan {
        /// The requesting tenant.
        tenant: String,
        /// The unknown plan id.
        plan_id: String,
    },
    /// No session with this id has been bound (or it belongs to another
    /// tenant).
    UnknownSession(String),
    /// An ingest targeted a shared bound session. Only tenant-owned
    /// streams take deltas: a shared session serves every tenant that
    /// registered its plan.
    ReadOnlySession(String),
    /// The request's credential does not authorize the operation (see
    /// [`crate::auth`] for the policy).
    Unauthorized(String),
    /// A plan was registered whose 64-bit fingerprint matches an already
    /// interned but structurally *different* plan. Fingerprints are not
    /// collision-proof, so the registry refuses rather than silently
    /// authorizing (and charging for) the wrong plan.
    FingerprintCollision(String),
    /// No table or histogram with this name is loaded.
    UnknownTable(String),
    /// Underlying plan/release failure.
    Core(CoreError),
    /// Underlying mechanism/accounting failure.
    Mech(MechError),
    /// I/O failure (socket or write-ahead ledger file).
    Io(String),
    /// Malformed request or response on the wire.
    Protocol(String),
    /// A socket operation exceeded its configured deadline. Transport-level
    /// and therefore retryable — for *idempotent* requests only (see
    /// [`ServiceError::is_retryable`]).
    Timeout(String),
    /// The server shed this request to protect itself (connection cap or
    /// per-tenant in-flight cap). Nothing was charged or computed; the
    /// client should back off and retry.
    Overloaded {
        /// Which limit shed the request (`"connections"` / `"tenant"`).
        scope: String,
    },
    /// A `request_id` was reused with different parameters (session, seeds
    /// or charge) than the journaled original. This is a client bug, never
    /// retried: honoring it would make "exactly once" ambiguous.
    IdempotencyMismatch {
        /// The reused request id.
        request_id: String,
    },
    /// A keyed stream release was re-driven after its response left the
    /// replay cache (eviction or restart). The id was already charged, and
    /// the stream has moved on since the original draw, so recomputing
    /// would hand out fresh, uncharged noise under the old id. Refused
    /// instead, and never retried.
    ReplayUnavailable {
        /// The re-driven request id.
        request_id: String,
    },
    /// The server failed while handling the request (its handler
    /// panicked). The request may or may not have been charged, so it is
    /// never retried automatically; resending a keyed release under the
    /// same `request_id` is safe and replays instead of re-debiting.
    Internal(String),
    /// The persisted ledger file is corrupt (a non-tail record failed to
    /// parse); refusing to guess at spent budget.
    WalCorrupt(String),
    /// An error reported by the remote server that does not correspond to
    /// a typed variant on this side.
    Remote {
        /// The wire code of the remote error.
        code: String,
        /// The remote error message.
        message: String,
    },
}

impl ServiceError {
    /// The stable wire code of this error class.
    pub fn code(&self) -> &str {
        match self {
            ServiceError::BudgetExhausted { .. } => "budget_exhausted",
            ServiceError::UnknownTenant(_) => "unknown_tenant",
            ServiceError::TenantBudgetMismatch(_) => "tenant_budget_mismatch",
            ServiceError::UnknownPlan { .. } => "unknown_plan",
            ServiceError::UnknownSession(_) => "unknown_session",
            ServiceError::ReadOnlySession(_) => "read_only_session",
            ServiceError::Unauthorized(_) => "unauthorized",
            ServiceError::FingerprintCollision(_) => "fingerprint_collision",
            ServiceError::UnknownTable(_) => "unknown_table",
            ServiceError::Core(_) => "core",
            ServiceError::Mech(_) => "mech",
            ServiceError::Io(_) => "io",
            ServiceError::Protocol(_) => "protocol",
            ServiceError::Timeout(_) => "timeout",
            ServiceError::Overloaded { .. } => "overloaded",
            ServiceError::IdempotencyMismatch { .. } => "idempotency_mismatch",
            ServiceError::ReplayUnavailable { .. } => "replay_unavailable",
            ServiceError::Internal(_) => "internal",
            ServiceError::WalCorrupt(_) => "wal_corrupt",
            ServiceError::Remote { code, .. } => code,
        }
    }

    /// Whether a *client* may safely resend the request that produced this
    /// error — provided the request is idempotent (every protocol op except
    /// a `release` without a `request_id`).
    ///
    /// Retryable: local transport failures ([`ServiceError::Io`],
    /// [`ServiceError::Timeout`]) — the request may or may not have
    /// executed, which is exactly what idempotency absorbs — and a typed
    /// [`ServiceError::Overloaded`] shed (locally typed or arriving as the
    /// remote `overloaded` code), where the server promises nothing
    /// happened. Everything else (protocol errors, auth failures, budget
    /// exhaustion, server-side state errors) is deterministic: resending
    /// the same bytes cannot succeed, so retrying only burns time.
    pub fn is_retryable(&self) -> bool {
        match self {
            ServiceError::Io(_) | ServiceError::Timeout(_) | ServiceError::Overloaded { .. } => {
                true
            }
            ServiceError::Remote { code, .. } => code == "overloaded",
            _ => false,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BudgetExhausted {
                requested_epsilon,
                requested_delta,
                remaining_epsilon,
                remaining_delta,
            } => write!(
                f,
                "privacy budget exhausted: requested (ε = {requested_epsilon}, δ = \
                 {requested_delta}) but only (ε = {remaining_epsilon}, δ = \
                 {remaining_delta}) remains"
            ),
            ServiceError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            ServiceError::TenantBudgetMismatch(t) => write!(
                f,
                "tenant {t:?} already exists with a different total budget"
            ),
            ServiceError::UnknownPlan { tenant, plan_id } => {
                write!(f, "tenant {tenant:?} has no registered plan {plan_id:?}")
            }
            ServiceError::UnknownSession(s) => write!(f, "unknown session {s:?}"),
            ServiceError::ReadOnlySession(s) => write!(
                f,
                "session {s:?} is a shared bound session; only tenant streams take ingests"
            ),
            ServiceError::Unauthorized(m) => write!(f, "unauthorized: {m}"),
            ServiceError::FingerprintCollision(id) => write!(
                f,
                "plan fingerprint {id:?} collides with a different interned plan"
            ),
            ServiceError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            ServiceError::Core(e) => write!(f, "release failure: {e}"),
            ServiceError::Mech(e) => write!(f, "mechanism failure: {e}"),
            ServiceError::Io(e) => write!(f, "i/o failure: {e}"),
            ServiceError::Protocol(e) => write!(f, "protocol error: {e}"),
            ServiceError::Timeout(e) => write!(f, "timed out: {e}"),
            ServiceError::Overloaded { scope } => write!(
                f,
                "server overloaded (at the {scope} limit); back off and retry"
            ),
            ServiceError::IdempotencyMismatch { request_id } => write!(
                f,
                "request id {request_id:?} was already used with different parameters"
            ),
            ServiceError::ReplayUnavailable { request_id } => write!(
                f,
                "request id {request_id:?} was charged, but its response is no longer cached \
                 and its stream has moved on; refusing to recompute it"
            ),
            ServiceError::Internal(e) => write!(f, "internal server failure: {e}"),
            ServiceError::WalCorrupt(e) => write!(f, "corrupt budget ledger file: {e}"),
            ServiceError::Remote { code, message } => {
                write!(f, "remote error [{code}]: {message}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> ServiceError {
        ServiceError::Core(e)
    }
}

impl From<MechError> for ServiceError {
    /// Lifts the mechanism error, promoting ledger exhaustion to the
    /// typed service-level variant clients dispatch on.
    fn from(e: MechError) -> ServiceError {
        match e {
            MechError::BudgetExhausted {
                requested_epsilon,
                requested_delta,
                remaining_epsilon,
                remaining_delta,
            } => ServiceError::BudgetExhausted {
                requested_epsilon,
                requested_delta,
                remaining_epsilon,
                remaining_delta,
            },
            other => ServiceError::Mech(other),
        }
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> ServiceError {
        ServiceError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_display_renders() {
        let e = ServiceError::BudgetExhausted {
            requested_epsilon: 0.5,
            requested_delta: 0.0,
            remaining_epsilon: 0.25,
            remaining_delta: 0.0,
        };
        assert_eq!(e.code(), "budget_exhausted");
        assert!(e.to_string().contains("0.25"));
        assert_eq!(
            ServiceError::UnknownTenant("t".into()).code(),
            "unknown_tenant"
        );
        assert_eq!(
            ServiceError::Remote {
                code: "custom".into(),
                message: "m".into()
            }
            .code(),
            "custom"
        );
    }

    #[test]
    fn retryability_tracks_the_transport_or_shed_classes_only() {
        for retryable in [
            ServiceError::Io("broken pipe".into()),
            ServiceError::Timeout("read".into()),
            ServiceError::Overloaded {
                scope: "tenant".into(),
            },
            ServiceError::Remote {
                code: "overloaded".into(),
                message: "m".into(),
            },
        ] {
            assert!(retryable.is_retryable(), "{retryable}");
        }
        for fatal in [
            ServiceError::Protocol("bad".into()),
            ServiceError::Unauthorized("no".into()),
            ServiceError::IdempotencyMismatch {
                request_id: "r".into(),
            },
            ServiceError::ReplayUnavailable {
                request_id: "r".into(),
            },
            ServiceError::ReadOnlySession("s".into()),
            ServiceError::Internal("handler panicked".into()),
            ServiceError::BudgetExhausted {
                requested_epsilon: 1.0,
                requested_delta: 0.0,
                remaining_epsilon: 0.0,
                remaining_delta: 0.0,
            },
            ServiceError::Remote {
                code: "unknown_tenant".into(),
                message: "m".into(),
            },
        ] {
            assert!(!fatal.is_retryable(), "{fatal}");
        }
    }

    #[test]
    fn mech_exhaustion_promotes_to_the_typed_variant() {
        let e: ServiceError = MechError::BudgetExhausted {
            requested_epsilon: 1.0,
            requested_delta: 0.0,
            remaining_epsilon: 0.0,
            remaining_delta: 0.0,
        }
        .into();
        assert!(matches!(e, ServiceError::BudgetExhausted { .. }));
        let e: ServiceError = MechError::InvalidPrivacyParameter("delta".into()).into();
        assert!(matches!(e, ServiceError::Mech(_)));
    }
}
