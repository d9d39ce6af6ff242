//! The workspace-wide error type.

use std::fmt;

/// Convenience alias used by every crate in the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the storage engine, planner, and IVM layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Schema construction / resolution problems.
    Schema(String),
    /// Unknown table, view, cache, or diff referenced by name.
    NotFound(String),
    /// Primary-key violation on insert.
    DuplicateKey(String),
    /// Malformed plan handed to the executor or IVM planner.
    Plan(String),
    /// A view definition outside the supported QSPJADU language.
    Unsupported(String),
    /// Type confusion during expression evaluation (e.g. a non-boolean
    /// operand under AND/OR/NOT). Surfaced as `Err` from `maintain()`
    /// instead of aborting a half-applied round.
    Type(String),
    /// Invalid engine configuration (e.g. a `ParallelConfig` with zero
    /// or an absurd number of threads), rejected at construction time.
    Config(String),
    /// A deterministic fault fired by an armed
    /// `FaultPlan` (test/chaos machinery, never produced organically).
    /// Classified *transient*: retrying the round may succeed (the
    /// plan may heal between attempts).
    Injected(String),
    /// A deterministic **permanent** fault fired by an armed
    /// `FaultPlan` with permanent classification (test/chaos
    /// machinery). Retrying the same input cannot clear it; a
    /// supervisor should bisect and quarantine the offending diffs.
    Poison(String),
    /// A maintenance round exceeded its opt-in access-count budget
    /// (`RoundBudget`) and was aborted at a serial checkpoint.
    /// Classified *transient*: the caller may retry with a smaller
    /// batch or a larger budget.
    Budget(String),
    /// Internal invariant violation (a bug, surfaced instead of UB).
    Internal(String),
    /// On-disk durability state failed a checksum or structural check
    /// *before* the end of the write-ahead log (mid-log corruption, a
    /// mangled checkpoint, an impossible record). Never produced by a
    /// merely torn tail — that is truncated and recovery continues.
    /// Permanent: retrying the open against the same bytes cannot
    /// succeed; the operator must repair or discard the store.
    Corrupt(String),
    /// A durable store handle refused a call because an earlier
    /// journaling step (WAL append or fsync, checkpoint, DDL record)
    /// failed: the message names that cause. The handle's in-memory
    /// state may be ahead of the disk, so it fail-stops. Permanent for
    /// the handle: drop it and re-open the store.
    Stopped(String),
}

impl Error {
    /// Transient-vs-permanent classification for supervision layers.
    ///
    /// `true` means a retry of the *same* round may succeed without
    /// changing the input: injected transient faults ([`Error::Injected`])
    /// can heal between attempts, and budget overruns
    /// ([`Error::Budget`]) clear when the batch shrinks or the budget
    /// grows. Everything else — schema/plan/type errors, poison diffs,
    /// internal invariant violations — is deterministic for a given
    /// input and will recur on every retry.
    pub fn retryable(&self) -> bool {
        matches!(self, Error::Injected(_) | Error::Budget(_))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Schema(m) => write!(f, "schema error: {m}"),
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::DuplicateKey(m) => write!(f, "duplicate key: {m}"),
            Error::Plan(m) => write!(f, "plan error: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::Type(m) => write!(f, "type error: {m}"),
            Error::Config(m) => write!(f, "config error: {m}"),
            Error::Injected(m) => write!(f, "injected fault: {m}"),
            Error::Poison(m) => write!(f, "poison fault: {m}"),
            Error::Budget(m) => write!(f, "budget exceeded: {m}"),
            Error::Internal(m) => write!(f, "internal error: {m}"),
            Error::Corrupt(m) => write!(f, "corrupt durability state: {m}"),
            Error::Stopped(m) => write!(f, "store stopped: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = Error::NotFound("table `parts`".into());
        assert_eq!(e.to_string(), "not found: table `parts`");
        let e = Error::DuplicateKey("(1)".into());
        assert!(e.to_string().contains("duplicate key"));
        let e = Error::Budget("round spent 10 of 5".into());
        assert!(e.to_string().contains("budget exceeded"));
        let e = Error::Poison("diff (3)".into());
        assert!(e.to_string().contains("poison fault"));
    }

    #[test]
    fn retryable_classification() {
        assert!(Error::Injected("x".into()).retryable());
        assert!(Error::Budget("x".into()).retryable());
        for e in [
            Error::Schema("x".into()),
            Error::NotFound("x".into()),
            Error::DuplicateKey("x".into()),
            Error::Plan("x".into()),
            Error::Unsupported("x".into()),
            Error::Type("x".into()),
            Error::Config("x".into()),
            Error::Poison("x".into()),
            Error::Internal("x".into()),
            Error::Corrupt("x".into()),
        ] {
            assert!(!e.retryable(), "{e} must be permanent");
        }
    }
}
