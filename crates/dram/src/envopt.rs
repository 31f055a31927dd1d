//! Shared typed parsing of the `SIMDRAM_*` environment overrides.
//!
//! Every runtime axis of the simulator — broadcast policy (`SIMDRAM_EXEC`), functional
//! mode (`SIMDRAM_FUNC`), timing backend (`SIMDRAM_TIMING`), fault model
//! (`SIMDRAM_FAULTS`) and guard mode (`SIMDRAM_GUARD`) — can be forced through an
//! environment variable so CI re-runs the whole tier-1 suite under a different engine
//! without code changes. A malformed override must never fall back to the default
//! silently: a CI job that believes it exercised the bank-state backend while re-running
//! the analytic path is worse than a failing one.
//!
//! The five axes and their grammars form one table behind
//! `SimdramConfig::with_env_overrides` in `simdram-core`. This module holds what that
//! table shares: the environment read, the trim/lowercase normalization and the typed
//! [`EnvOverrideError`] on rejection.

use std::fmt;

/// A set-but-malformed `SIMDRAM_*` environment override.
///
/// Carries everything needed to report the failure precisely: which variable was set,
/// the rejected value, and the grammar it was checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvOverrideError {
    /// The environment variable that was set (e.g. `"SIMDRAM_GUARD"`).
    pub var: &'static str,
    /// The rejected value, verbatim (before trim/lowercase normalization).
    pub value: String,
    /// The accepted grammar, in the `a | b:<n>` notation the docs use.
    pub expected: &'static str,
}

impl fmt::Display for EnvOverrideError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {} override {:?} (expected {})",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvOverrideError {}

/// Reads and parses one `SIMDRAM_*` environment override.
///
/// Returns `Ok(None)` when `var` is unset (the caller keeps its configured default),
/// `Ok(Some(value))` when `recognize` accepts the normalized (trimmed, ASCII-lowercased)
/// value, and a typed [`EnvOverrideError`] when the variable is set but malformed.
///
/// # Errors
///
/// Returns [`EnvOverrideError`] when the variable is set and `recognize` rejects it.
pub fn env_override<T>(
    var: &'static str,
    expected: &'static str,
    recognize: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, EnvOverrideError> {
    match std::env::var(var) {
        Ok(raw) => parse(var, expected, &raw, recognize).map(Some),
        Err(_) => Ok(None),
    }
}

/// The environment-free core of [`env_override`]: normalizes `raw` and applies
/// `recognize`, producing the same typed error an env read would, so every grammar
/// branch is testable without touching the process environment.
///
/// # Errors
///
/// Returns [`EnvOverrideError`] when `recognize` rejects the normalized value.
pub fn parse<T>(
    var: &'static str,
    expected: &'static str,
    raw: &str,
    recognize: impl FnOnce(&str) -> Option<T>,
) -> Result<T, EnvOverrideError> {
    let value = raw.trim().to_ascii_lowercase();
    recognize(&value).ok_or_else(|| EnvOverrideError {
        var,
        value: raw.to_string(),
        expected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_normalizes_and_accepts() {
        let parsed = parse("SIMDRAM_TEST", "on | off", "  ON ", |v| match v {
            "on" => Some(true),
            "off" => Some(false),
            _ => None,
        });
        assert_eq!(parsed, Ok(true));
    }

    #[test]
    fn parse_rejects_with_the_original_value() {
        let err = parse("SIMDRAM_TEST", "on | off", " Maybe ", |v| match v {
            "on" => Some(true),
            _ => None,
        })
        .unwrap_err();
        assert_eq!(err.var, "SIMDRAM_TEST");
        assert_eq!(err.value, " Maybe ");
        assert_eq!(err.expected, "on | off");
        let text = err.to_string();
        assert!(text.contains("SIMDRAM_TEST"));
        assert!(text.contains("Maybe"));
        assert!(text.contains("on | off"));
    }

    #[test]
    fn env_override_is_none_when_unset() {
        // The variable name is unique to this test; nothing in CI sets it.
        let read = env_override("SIMDRAM_ENVOPT_UNSET_TEST", "anything", |_| Some(()));
        assert_eq!(read, Ok(None));
    }

    #[test]
    fn error_implements_std_error() {
        let err = EnvOverrideError {
            var: "SIMDRAM_TEST",
            value: "x".into(),
            expected: "y",
        };
        let as_dyn: &dyn std::error::Error = &err;
        assert!(as_dyn.source().is_none());
    }
}
